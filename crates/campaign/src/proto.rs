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
//! mid-write and the stream is declared broken rather than resynced. A
//! header length above `MAX_FRAME_LEN` is refused as `InvalidData`
//! before anything is allocated for it.
//!
//! Determinism: a `TASK` payload carries exactly the fields of
//! [`TaskSpec`] that define artifact bytes (experiment id, matrix index,
//! seed, quick, cache/cc/prune modes) — nothing about scheduling — so a
//! task executes identically in-process and in any worker process.
//!
//! [`EngineCounters::FIELDS`]: mmwave_sim::metrics::EngineCounters::FIELDS

use std::io::{self, BufRead, Write};

use crate::json::Json;
use crate::{artifact, RunRecord, TaskSpec};
use mmwave_sim::ctx::CacheMode;

/// A framed protocol message.
#[derive(Clone, Debug, PartialEq)]
pub enum Msg {
    /// Control → worker: execute this task.
    Task(WireTask),
    /// Worker → control: the finished record (payload = chunk bytes).
    Result(Box<RunRecord>),
    /// Control → worker: no more tasks; exit cleanly.
    Done,
}

/// The process-portable form of a [`TaskSpec`]: the experiment travels by
/// registry id and is re-resolved in the worker, everything else is the
/// plain matrix cell.
#[derive(Clone, Debug, PartialEq)]
pub struct WireTask {
    pub experiment: String,
    pub exp_index: usize,
    pub seed: u64,
    pub quick: bool,
    pub cache_mode: CacheMode,
    pub cc: Option<mmwave_transport::CcKind>,
    pub prune: Option<mmwave_channel::PruneMode>,
}

impl WireTask {
    /// Capture a [`TaskSpec`] for the wire.
    pub fn from_spec(t: &TaskSpec) -> WireTask {
        WireTask {
            experiment: t.exp.id.to_string(),
            exp_index: t.exp_index,
            seed: t.seed,
            quick: t.quick,
            cache_mode: t.cache_mode,
            cc: t.cc,
            prune: t.prune,
        }
    }

    /// Re-resolve into an executable [`TaskSpec`] against this process's
    /// experiment registry. Errors if the control plane named an
    /// experiment this worker binary does not know (version skew).
    pub fn resolve(&self) -> Result<TaskSpec, String> {
        let exp = mmwave_core::experiments::find(&self.experiment)
            .ok_or_else(|| format!("unknown experiment id '{}'", self.experiment))?;
        Ok(TaskSpec {
            exp,
            exp_index: self.exp_index,
            seed: self.seed,
            quick: self.quick,
            cache_mode: self.cache_mode,
            cc: self.cc,
            prune: self.prune,
        })
    }

    fn to_json(&self) -> Json {
        let opt = |s: Option<&'static str>| s.map_or(Json::Null, |v| Json::Str(v.into()));
        Json::Obj(vec![
            ("experiment".into(), Json::Str(self.experiment.clone())),
            ("exp_index".into(), Json::Int(self.exp_index as u64)),
            ("seed".into(), Json::Int(self.seed)),
            ("quick".into(), Json::Bool(self.quick)),
            (
                "cache_mode".into(),
                Json::Str(self.cache_mode.as_str().into()),
            ),
            ("cc".into(), opt(self.cc.map(|c| c.as_str()))),
            ("prune".into(), opt(self.prune.map(|p| p.as_str()))),
        ])
    }

    fn from_json(v: &Json) -> Result<WireTask, String> {
        let field = |k: &str| v.get(k).ok_or_else(|| format!("missing field '{k}'"));
        let opt_str = |k: &str| -> Result<Option<&str>, String> {
            match field(k)? {
                Json::Null => Ok(None),
                Json::Str(s) => Ok(Some(s)),
                _ => Err(format!("{k} must be null or a string")),
            }
        };
        Ok(WireTask {
            experiment: field("experiment")?
                .as_str()
                .ok_or("experiment must be a string")?
                .into(),
            exp_index: field("exp_index")?
                .as_u64()
                .ok_or("exp_index must be an integer")? as usize,
            seed: field("seed")?.as_u64().ok_or("seed must be an integer")?,
            quick: field("quick")?.as_bool().ok_or("quick must be a bool")?,
            cache_mode: field("cache_mode")?
                .as_str()
                .and_then(CacheMode::from_str)
                .ok_or("cache_mode must be cached|bypass")?,
            cc: opt_str("cc")?
                .map(|s| {
                    mmwave_transport::CcKind::from_str(s).ok_or_else(|| format!("unknown cc '{s}'"))
                })
                .transpose()?,
            prune: opt_str("prune")?
                .map(|s| {
                    mmwave_channel::PruneMode::from_str(s)
                        .ok_or_else(|| format!("unknown prune mode '{s}'"))
                })
                .transpose()?,
        })
    }
}

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
        Msg::Task(t) => t.to_json().render(),
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
    if r.read_line(&mut header)? == 0 {
        return Ok(None);
    }
    if !header.ends_with('\n') {
        return Err(bad_data("protocol header", "torn header line (peer died)"));
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
            WireTask::from_json(&parsed("TASK payload")?).map_err(|e| bad_data("TASK", e))?,
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
    use std::io::BufReader;

    fn wire_task() -> WireTask {
        WireTask {
            experiment: "table1".into(),
            exp_index: 3,
            seed: 17,
            quick: true,
            cache_mode: CacheMode::Bypass,
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

    #[test]
    fn messages_roundtrip_through_one_stream() {
        let mut buf = Vec::new();
        write_msg(&mut buf, &Msg::Task(wire_task())).expect("write task");
        write_msg(&mut buf, &Msg::Result(Box::new(record()))).expect("write result");
        write_msg(&mut buf, &Msg::Done).expect("write done");

        let mut r = BufReader::new(&buf[..]);
        assert_eq!(
            read_msg(&mut r).expect("task"),
            Some(Msg::Task(wire_task()))
        );
        let Some(Msg::Result(back)) = read_msg(&mut r).expect("result") else {
            panic!("expected RESULT");
        };
        let orig = record();
        assert_eq!(back.engine, orig.engine, "counters must marshal exactly");
        assert_eq!(back.output, orig.output);
        assert_eq!(back.wall_ms, orig.wall_ms);
        assert_eq!(read_msg(&mut r).expect("done"), Some(Msg::Done));
        assert_eq!(read_msg(&mut r).expect("eof"), None, "clean EOF");
    }

    #[test]
    fn none_fields_roundtrip() {
        let mut t = wire_task();
        t.cc = None;
        t.prune = None;
        let mut buf = Vec::new();
        write_msg(&mut buf, &Msg::Task(t.clone())).expect("write");
        let back = read_msg(&mut BufReader::new(&buf[..])).expect("read");
        assert_eq!(back, Some(Msg::Task(t)));
    }

    #[test]
    fn result_payload_is_the_chunk_body() {
        // The bytes on the wire ARE the artifact chunk: framing strips to
        // exactly what run_to_json renders.
        let rec = record();
        let chunk = artifact::run_to_json(&rec).render();
        let mut buf = Vec::new();
        write_msg(&mut buf, &Msg::Result(Box::new(rec))).expect("write");
        let framed = String::from_utf8(buf).expect("utf8");
        let (header, rest) = framed.split_once('\n').expect("header line");
        assert_eq!(header, format!("RESULT {}", chunk.len()));
        assert_eq!(rest, format!("{chunk}\n"));
    }

    #[test]
    fn torn_frames_error_instead_of_resyncing() {
        let mut buf = Vec::new();
        write_msg(&mut buf, &Msg::Task(wire_task())).expect("write");
        // Kill the stream mid-payload.
        buf.truncate(buf.len() - 10);
        assert!(read_msg(&mut BufReader::new(&buf[..])).is_err());
        // Corrupt the frame terminator.
        let mut buf2 = Vec::new();
        write_msg(&mut buf2, &Msg::Task(wire_task())).expect("write");
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
    fn wire_task_resolves_against_the_registry() {
        let t = WireTask {
            experiment: "table1".into(),
            exp_index: 0,
            seed: 1,
            quick: true,
            cache_mode: CacheMode::Cached,
            cc: None,
            prune: None,
        };
        let spec = t.resolve().expect("resolves");
        assert_eq!(spec.exp.id, "table1");
        let mut bogus = t;
        bogus.experiment = "not-an-experiment".into();
        assert!(bogus.resolve().is_err());
    }
}
