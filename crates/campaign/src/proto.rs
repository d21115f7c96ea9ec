//! The control-plane ↔ worker wire protocol.
//!
//! Workers are `campaign worker` subprocesses driven over stdio pipes, so
//! the protocol is a std-only, length-prefixed line framing:
//!
//! ```text
//! <TAG> <LEN>\n        header line: message type + payload byte count
//! <LEN bytes>\n        JSON payload, then one terminating newline
//! ```
//!
//! Tags: `TASK` (control → worker: one task to execute), `RESULT`
//! (worker → control: the completed [`RunRecord`], encoded with the run
//! artifact codec so engine counters marshal through
//! [`EngineCounters::FIELDS`] and the payload **is** the artifact chunk
//! body), and `DONE` (control → worker: drain and exit; a clean EOF on
//! stdin means the same).
//!
//! The explicit length makes framing independent of payload content
//! (rendered JSON contains newlines), and the trailing newline after the
//! payload is a cheap tear detector: if it is missing, the peer died
//! mid-write and the stream is declared broken rather than resynced. The
//! header line is read through a `MAX_HEADER_LEN` cap and a header length
//! above `MAX_FRAME_LEN` is refused, both as `InvalidData`, so no peer
//! can make the reader buffer more than one legal frame.
//!
//! Determinism: a `TASK` payload is a [`TaskSpec`] — the experiment by
//! registry id, resolved against the reader's own registry when the
//! frame is decoded, plus the matrix index, seed, quick flag and the
//! cc/prune overrides. Nothing about scheduling travels, so a task
//! executes identically in-process and in any worker process.
//!
//! [`EngineCounters::FIELDS`]: mmwave_sim::metrics::EngineCounters::FIELDS

use std::io::{self, BufRead, Read, Write};

use crate::json::Json;
use crate::{artifact, RunRecord, TaskSpec};

/// A framed protocol message.
#[derive(Clone, Debug)]
pub enum Msg {
    /// Control → worker: execute this task.
    Task(TaskSpec),
    /// Worker → control: the finished record (payload = chunk bytes).
    Result(Box<RunRecord>),
    /// Control → worker: no more tasks; exit cleanly.
    Done,
}

fn task_to_json(t: &TaskSpec) -> Json {
    let opt = |s: Option<&'static str>| s.map_or(Json::Null, |v| Json::Str(v.into()));
    Json::Obj(vec![
        ("experiment".into(), Json::Str(t.exp.id.into())),
        ("exp_index".into(), Json::Int(t.exp_index as u64)),
        ("seed".into(), Json::Int(t.seed)),
        ("quick".into(), Json::Bool(t.quick)),
        ("cc".into(), opt(t.cc.map(|c| c.as_str()))),
        ("prune".into(), opt(t.prune.map(|p| p.as_str()))),
    ])
}

/// Decode a `TASK` payload, resolving the experiment id against this
/// process's registry. An id the registry does not know (version skew
/// between control plane and worker) fails the frame.
fn task_from_json(v: &Json) -> Result<TaskSpec, String> {
    let field = |k: &str| v.get(k).ok_or_else(|| format!("missing field '{k}'"));
    let opt_str = |k: &str| -> Result<Option<&str>, String> {
        match field(k)? {
            Json::Null => Ok(None),
            Json::Str(s) => Ok(Some(s)),
            _ => Err(format!("{k} must be null or a string")),
        }
    };
    let id = field("experiment")?
        .as_str()
        .ok_or("experiment must be a string")?;
    Ok(TaskSpec {
        exp: mmwave_core::experiments::find(id)
            .ok_or_else(|| format!("unknown experiment id '{id}'"))?,
        exp_index: field("exp_index")?
            .as_u64()
            .ok_or("exp_index must be an integer")? as usize,
        seed: field("seed")?.as_u64().ok_or("seed must be an integer")?,
        quick: field("quick")?.as_bool().ok_or("quick must be a bool")?,
        cc: opt_str("cc")?
            .map(|s| mmwave_transport::CcKind::parse(s).ok_or_else(|| format!("unknown cc '{s}'")))
            .transpose()?,
        prune: opt_str("prune")?
            .map(|s| {
                mmwave_channel::PruneMode::parse(s)
                    .ok_or_else(|| format!("unknown prune mode '{s}'"))
            })
            .transpose()?,
    })
}

/// Longest header line [`read_msg`] reads. The longest legal header,
/// `RESULT <MAX_FRAME_LEN>\n`, is 16 bytes; the cap bounds what a peer
/// that never sends a newline can make the reader buffer.
const MAX_HEADER_LEN: u64 = 64;

/// Largest payload [`read_msg`] accepts. The length comes from the peer's
/// header, so it is bounded before anything is allocated for it: a corrupt
/// or hostile header must fail the frame, not abort the control plane on
/// a terabyte allocation. Real payloads (one artifact chunk) are a few
/// KiB, so the cap leaves four orders of magnitude of headroom.
pub(crate) const MAX_FRAME_LEN: usize = 64 << 20;

fn tag(msg: &Msg) -> &'static str {
    match msg {
        Msg::Task(_) => "TASK",
        Msg::Result(_) => "RESULT",
        Msg::Done => "DONE",
    }
}

fn payload(msg: &Msg) -> String {
    match msg {
        Msg::Task(t) => task_to_json(t).render(),
        // RESULT payloads are rendered by the artifact codec, so the bytes
        // a worker ships are byte-for-byte the chunk the control plane
        // appends to disk.
        Msg::Result(r) => artifact::run_to_json(r).render(),
        Msg::Done => String::new(),
    }
}

fn bad_data(context: &str, detail: impl std::fmt::Display) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("{context}: {detail}"))
}

/// Frame and write one message, flushing so the peer unblocks.
pub fn write_msg(w: &mut impl Write, msg: &Msg) -> io::Result<()> {
    let body = payload(msg);
    w.write_all(format!("{} {}\n", tag(msg), body.len()).as_bytes())?;
    w.write_all(body.as_bytes())?;
    w.write_all(b"\n")?;
    w.flush()
}

/// Read one framed message. `Ok(None)` is a clean EOF at a frame
/// boundary; EOF anywhere inside a frame is an error (the peer died
/// mid-message).
pub fn read_msg(r: &mut impl BufRead) -> io::Result<Option<Msg>> {
    let mut header = String::new();
    if r.by_ref().take(MAX_HEADER_LEN).read_line(&mut header)? == 0 {
        return Ok(None);
    }
    if !header.ends_with('\n') {
        let why = if header.len() as u64 == MAX_HEADER_LEN {
            "no newline within the header cap"
        } else {
            "torn header line (peer died)"
        };
        return Err(bad_data("protocol header", why));
    }
    let mut parts = header.split_whitespace();
    let (Some(tag), Some(len), None) = (parts.next(), parts.next(), parts.next()) else {
        return Err(bad_data(
            "protocol header",
            format!("malformed: {header:?}"),
        ));
    };
    let len: usize = len
        .parse()
        .map_err(|_| bad_data("protocol header", format!("bad length: {header:?}")))?;
    if len > MAX_FRAME_LEN {
        return Err(bad_data(
            "protocol header",
            format!("length {len} exceeds the {MAX_FRAME_LEN}-byte frame cap"),
        ));
    }
    let mut body = vec![0u8; len + 1];
    r.read_exact(&mut body)
        .map_err(|e| bad_data("protocol payload", format!("short read: {e}")))?;
    if body.pop() != Some(b'\n') {
        return Err(bad_data("protocol payload", "missing frame terminator"));
    }
    let body = String::from_utf8(body).map_err(|e| bad_data("protocol payload", e))?;
    let parsed = |context: &str| Json::parse(&body).map_err(|e| bad_data(context, e));
    match tag {
        "TASK" => Ok(Some(Msg::Task(
            task_from_json(&parsed("TASK payload")?).map_err(|e| bad_data("TASK", e))?,
        ))),
        "RESULT" => Ok(Some(Msg::Result(Box::new(
            artifact::run_from_json(&parsed("RESULT payload")?)
                .map_err(|e| bad_data("RESULT", e))?,
        )))),
        "DONE" => Ok(Some(Msg::Done)),
        other => Err(bad_data(
            "protocol header",
            format!("unknown tag '{other}'"),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmwave_sim::metrics::EngineCounters;
    use mmwave_sim::rng::SimRng;
    use std::io::BufReader;

    fn task() -> TaskSpec {
        TaskSpec {
            exp: mmwave_core::experiments::find("table1").expect("registered"),
            exp_index: 3,
            seed: 17,
            quick: true,
            cc: Some(mmwave_transport::CcKind::Cubic),
            prune: Some(mmwave_channel::PruneMode::Audit),
        }
    }

    fn record() -> RunRecord {
        let mut engine = EngineCounters::default();
        for (i, f) in EngineCounters::FIELDS.iter().enumerate() {
            engine.set(f, 100 + i as u64);
        }
        RunRecord {
            experiment: "table1".into(),
            title: "Table 1".into(),
            seed: 17,
            quick: true,
            scenario: "point-to-point".into(),
            status: crate::RunStatus::Pass,
            violations: vec![],
            output: "row 1\nrow 2 with \"quotes\"\n".into(),
            panic_message: None,
            wall_ms: 12.375,
            engine,
        }
    }

    /// The framed bytes of `msg`: tasks compare by their encoded frames.
    fn frame(msg: &Msg) -> Vec<u8> {
        let mut buf = Vec::new();
        write_msg(&mut buf, msg).expect("write to a Vec");
        buf
    }

    fn read_task(bytes: &[u8]) -> TaskSpec {
        match read_msg(&mut BufReader::new(bytes)).expect("read") {
            Some(Msg::Task(t)) => t,
            other => panic!("expected TASK, got {other:?}"),
        }
    }

    #[test]
    fn messages_roundtrip_through_one_stream() {
        let mut buf = frame(&Msg::Task(task()));
        buf.extend(frame(&Msg::Result(Box::new(record()))));
        buf.extend(frame(&Msg::Done));

        let mut r = BufReader::new(&buf[..]);
        let Some(Msg::Task(back)) = read_msg(&mut r).expect("task") else {
            panic!("expected TASK");
        };
        assert_eq!(frame(&Msg::Task(back)), frame(&Msg::Task(task())));
        let Some(Msg::Result(back)) = read_msg(&mut r).expect("result") else {
            panic!("expected RESULT");
        };
        let orig = record();
        assert_eq!(back.engine, orig.engine, "counters must marshal exactly");
        assert_eq!(back.output, orig.output);
        assert_eq!(back.wall_ms, orig.wall_ms);
        assert!(matches!(read_msg(&mut r).expect("done"), Some(Msg::Done)));
        assert!(read_msg(&mut r).expect("eof").is_none(), "clean EOF");
    }

    #[test]
    fn none_fields_roundtrip() {
        let mut t = task();
        t.cc = None;
        t.prune = None;
        let bytes = frame(&Msg::Task(t));
        let back = read_task(&bytes);
        assert!(back.cc.is_none() && back.prune.is_none());
        assert_eq!(frame(&Msg::Task(back)), bytes);
    }

    #[test]
    fn result_payload_is_the_chunk_body() {
        // The bytes on the wire ARE the artifact chunk: framing strips to
        // exactly what run_to_json renders.
        let rec = record();
        let chunk = artifact::run_to_json(&rec).render();
        let framed = String::from_utf8(frame(&Msg::Result(Box::new(rec)))).expect("utf8");
        let (header, rest) = framed.split_once('\n').expect("header line");
        assert_eq!(header, format!("RESULT {}", chunk.len()));
        assert_eq!(rest, format!("{chunk}\n"));
    }

    #[test]
    fn torn_frames_error_instead_of_resyncing() {
        let mut buf = frame(&Msg::Task(task()));
        // Kill the stream mid-payload.
        buf.truncate(buf.len() - 10);
        assert!(read_msg(&mut BufReader::new(&buf[..])).is_err());
        // Corrupt the frame terminator.
        let mut buf2 = frame(&Msg::Task(task()));
        let n = buf2.len();
        buf2[n - 1] = b'X';
        assert!(read_msg(&mut BufReader::new(&buf2[..])).is_err());
        // Unknown tag.
        assert!(read_msg(&mut BufReader::new(&b"BOGUS 0\n\n"[..])).is_err());
    }

    fn read_header_only(header: &str) -> io::Error {
        read_msg(&mut BufReader::new(header.as_bytes())).expect_err(header)
    }

    #[test]
    fn frame_length_that_would_overflow_is_rejected() {
        // Without the cap, `len + 1` overflows (a debug-build panic).
        let err = read_header_only("RESULT 18446744073709551615\n");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("frame cap"), "{err}");
    }

    #[test]
    fn frame_length_past_the_cap_is_rejected_before_allocating() {
        // Without the cap, a 1 TiB length aborts the process inside the
        // allocator.
        let err = read_header_only("RESULT 1099511627776\n");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("frame cap"), "{err}");
        // One byte past the cap is already refused.
        let err = read_header_only(&format!("RESULT {}\n", MAX_FRAME_LEN + 1));
        assert!(err.to_string().contains("frame cap"), "{err}");
    }

    #[test]
    fn endless_header_line_is_rejected_at_the_header_cap() {
        // An unbounded line read never returns here: it buffers the
        // endless stream until the allocator gives out.
        let err = read_msg(&mut BufReader::new(io::repeat(0))).expect_err("no newline ever");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("header cap"), "{err}");
    }

    #[test]
    fn wire_task_resolves_against_the_registry() {
        let bytes = frame(&Msg::Task(task()));
        let back = read_task(&bytes);
        assert!(std::ptr::eq(back.exp, task().exp), "the registry's entry");
        // The same frame naming an id this registry lacks (equal length,
        // so the header stays valid) fails with the id in the message.
        let skewed = String::from_utf8(bytes)
            .expect("utf8")
            .replace("\"table1\"", "\"tableX\"");
        let err = read_msg(&mut BufReader::new(skewed.as_bytes())).expect_err("unknown id");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("'tableX'"), "{err}");
    }

    /// Seeded bit-flip mutants per frame kind.
    const FLIPS: usize = 2_000;

    #[test]
    fn truncated_and_bit_flipped_frames_never_panic() {
        let mut rng = SimRng::root(0x7072_6f74_6f2d_667a);
        for msg in [Msg::Task(task()), Msg::Result(Box::new(record()))] {
            let whole = frame(&msg);
            let decode = |bytes: &[u8], what: String| -> io::Result<bool> {
                let read = || read_msg(&mut BufReader::new(bytes)).map(|m| m.is_some());
                std::panic::catch_unwind(read).unwrap_or_else(|_| {
                    panic!("read_msg panicked on a {} frame, {what}", tag(&msg))
                })
            };
            for cut in 0..whole.len() {
                // No strict prefix is a message: the empty one is a clean
                // EOF, every other one an error.
                let got = decode(&whole[..cut], format!("cut {cut}"));
                if cut == 0 {
                    assert!(matches!(got, Ok(false)), "empty input is a clean EOF");
                } else {
                    assert!(got.is_err(), "{cut}-byte prefix of a {} frame", tag(&msg));
                }
            }
            for i in 0..FLIPS {
                let mut bytes = whole.clone();
                let at = (rng.next_u64() % bytes.len() as u64) as usize;
                bytes[at] ^= 1 << (rng.next_u64() % 8);
                let _ = decode(&bytes, format!("mutant {i}"));
            }
        }
    }
}
