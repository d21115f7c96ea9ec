//! Seeded randomized suite for the campaign JSON codec. Std-only, with a
//! fixed seed and fixed iteration counts, so every run checks the same
//! inputs and a failure reproduces exactly.
//!
//! 1. Random `Json` trees round-trip: `parse(render(v)) == v`. Their
//!    strings mix ASCII, 2-, 3- and 4-byte UTF-8, raw control characters
//!    and the `"` / `\` delimiters the decoder splits runs at, placed at
//!    run starts and ends. The same strings, written with every escape
//!    form the decoder accepts, decode back to themselves.
//! 2. A real artifact chunk, truncated at every byte offset and
//!    bit-flipped at random, never makes `parse` (or `run_from_json`)
//!    panic, and no strict prefix of it parses.
//! 3. A record with a 1 MiB `output` string round-trips through
//!    `run_to_json` and `run_from_json` in milliseconds — a string
//!    decoder quadratic in string length would take minutes here.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use mmwave_campaign::artifact;
use mmwave_campaign::json::Json;
use mmwave_campaign::{RunRecord, RunStatus};
use mmwave_sim::metrics::EngineCounters;
use mmwave_sim::rng::SimRng;

const SEED: u64 = 0x6a73_6f6e_2d66_757a;

/// Random trees per round-trip run.
const TREES: usize = 3_000;

/// Random strings per foreign-escape run.
const STRINGS: usize = 5_000;

/// Random bit-flip mutants of the real chunk.
const FLIPS: usize = 5_000;

/// Building blocks for random strings: ASCII, 2-, 3- and 4-byte UTF-8,
/// both run delimiters, every char with a short escape, other control
/// characters (escaped as `\u00XX`), and `/` and DEL (never escaped).
const PIECES: &[&str] = &[
    "a",
    "Z",
    "7",
    " ",
    "/",
    "plain ascii run ",
    "é",
    "µ",
    "—",
    "→",
    "中",
    "😀",
    "𝄞",
    "\"",
    "\\",
    "\n",
    "\r",
    "\t",
    "\u{8}",
    "\u{c}",
    "\u{0}",
    "\u{1}",
    "\u{1f}",
    "\u{7f}",
];

fn below(rng: &mut SimRng, n: usize) -> usize {
    (rng.next_u64() % n as u64) as usize
}

fn coin(rng: &mut SimRng) -> bool {
    rng.next_u64() & 1 == 1
}

fn random_string(rng: &mut SimRng) -> String {
    let mut s = String::new();
    for _ in 0..below(rng, 12) {
        s.push_str(PIECES[below(rng, PIECES.len())]);
    }
    // A delimiter at either edge of a run: first and/or last char.
    let delim = |rng: &mut SimRng| if coin(rng) { '"' } else { '\\' };
    if coin(rng) {
        let c = delim(rng);
        s.insert(0, c);
    }
    if coin(rng) {
        let c = delim(rng);
        s.push(c);
    }
    s
}

fn random_f64(rng: &mut SimRng) -> f64 {
    if coin(rng) {
        return rng.uniform(-1e6, 1e6);
    }
    // Any finite bit pattern: subnormals, huge exponents, negative zero.
    loop {
        let v = f64::from_bits(rng.next_u64());
        if v.is_finite() {
            return v;
        }
    }
}

fn random_json(rng: &mut SimRng, depth: usize) -> Json {
    let kinds = if depth == 0 { 5 } else { 7 };
    match below(rng, kinds) {
        0 => Json::Null,
        1 => Json::Bool(coin(rng)),
        2 => {
            let shift = below(rng, 64) as u32;
            Json::Int(rng.next_u64() >> shift)
        }
        3 => Json::Num(random_f64(rng)),
        4 => Json::Str(random_string(rng)),
        5 => Json::Arr(
            (0..below(rng, 5))
                .map(|_| random_json(rng, depth - 1))
                .collect(),
        ),
        _ => Json::Obj(
            (0..below(rng, 5))
                .map(|_| (random_string(rng), random_json(rng, depth - 1)))
                .collect(),
        ),
    }
}

/// `s` as a JSON string literal the way another writer might spell it:
/// each char raw (where JSON allows it), as its short escape (`\"`, `\\`,
/// `\/`, `\b`, `\f`, `\n`, `\r`, `\t`), or as `\uXXXX` in either hex case
/// — a surrogate pair for chars outside the BMP.
fn foreign_literal(rng: &mut SimRng, s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        let short = match c {
            '"' => Some("\\\""),
            '\\' => Some("\\\\"),
            '/' => Some("\\/"),
            '\u{8}' => Some("\\b"),
            '\u{c}' => Some("\\f"),
            '\n' => Some("\\n"),
            '\r' => Some("\\r"),
            '\t' => Some("\\t"),
            _ => None,
        };
        let raw_ok = c != '"' && c != '\\' && c >= ' ';
        match (below(rng, 3), short) {
            (0, _) if raw_ok => out.push(c),
            (1, Some(esc)) => out.push_str(esc),
            _ => {
                let upper = coin(rng);
                for unit in c.encode_utf16(&mut [0u16; 2]) {
                    out.push_str(&if upper {
                        format!("\\u{unit:04X}")
                    } else {
                        format!("\\u{unit:04x}")
                    });
                }
            }
        }
    }
    out.push('"');
    out
}

#[test]
fn random_trees_roundtrip_through_render_and_parse() {
    let mut rng = SimRng::root(SEED);
    for i in 0..TREES {
        let v = random_json(&mut rng, 4);
        let text = v.render();
        assert_eq!(
            Json::parse(&text),
            Ok(v),
            "tree {i} did not round-trip:\n{text}"
        );
    }
}

#[test]
fn every_escape_form_decodes_to_the_same_string() {
    let mut rng = SimRng::root(SEED ^ 1);
    for i in 0..STRINGS {
        let s = random_string(&mut rng);
        let literal = foreign_literal(&mut rng, &s);
        assert_eq!(
            Json::parse(&literal),
            Ok(Json::Str(s)),
            "string {i} misdecoded: {literal}"
        );
    }
}

/// A real chunk: one run report from the committed golden artifact set
/// (non-ASCII text, escaped newlines, nested engine counters).
fn real_chunk() -> String {
    let doc = include_str!("golden/campaign_quick.txt");
    let header = "=== runs/dynblock-s1.json ===\n";
    let start = doc.find(header).expect("golden has the dynblock-s1 chunk") + header.len();
    let body = doc[start..].split("\n\n=== ").next().expect("chunk body");
    format!("{body}\n")
}

/// Decode `bytes` the way a reader of a damaged file might, and fail with
/// the input named if the decoder panics instead of returning an error.
fn decode_must_not_panic(bytes: &[u8], what: &str) -> bool {
    let text = String::from_utf8_lossy(bytes);
    catch_unwind(AssertUnwindSafe(|| {
        Json::parse(&text).is_ok_and(|v| artifact::run_from_json(&v).is_ok())
    }))
    .unwrap_or_else(|_| panic!("decoder panicked on {what}"))
}

#[test]
fn truncated_chunks_never_panic_and_never_parse() {
    let chunk = real_chunk();
    let record = artifact::run_from_json(&Json::parse(&chunk).expect("real chunk parses"))
        .expect("real chunk decodes");
    assert_eq!(
        artifact::run_to_json(&record).render(),
        chunk,
        "re-encoding a decoded chunk reproduces its bytes"
    );
    let close = chunk.rfind('}').expect("closing brace");
    for cut in 0..=chunk.len() {
        let decoded = decode_must_not_panic(&chunk.as_bytes()[..cut], &format!("cut {cut}"));
        assert_eq!(decoded, cut > close, "prefix of {cut} bytes");
    }
}

#[test]
fn bit_flipped_chunks_never_panic() {
    let chunk = real_chunk().into_bytes();
    let mut rng = SimRng::root(SEED ^ 2);
    for i in 0..FLIPS {
        let mut bytes = chunk.clone();
        for _ in 0..1 + below(&mut rng, 3) {
            let at = below(&mut rng, bytes.len());
            bytes[at] ^= 1 << below(&mut rng, 8);
        }
        decode_must_not_panic(&bytes, &format!("mutant {i}"));
    }
}

#[test]
fn one_mebibyte_output_roundtrips_in_linear_time() {
    let mut rng = SimRng::root(SEED ^ 3);
    let mut output = String::with_capacity(1 << 20);
    while output.len() < 1 << 20 {
        output.push_str(PIECES[below(&mut rng, PIECES.len())]);
    }
    let record = RunRecord {
        experiment: "fig14".into(),
        title: "Fig. 14: amplitude and rate over 80 minutes".into(),
        seed: 11,
        quick: false,
        scenario: "point-to-point".into(),
        status: RunStatus::Pass,
        violations: vec!["long \"quoted\" \\ violation".into()],
        output,
        panic_message: None,
        wall_ms: 80.0 * 60e3,
        engine: EngineCounters {
            events_popped: 123_456_789,
            ..EngineCounters::default()
        },
    };
    let t0 = Instant::now();
    let text = artifact::run_to_json(&record).render();
    let back = artifact::run_from_json(&Json::parse(&text).expect("parses")).expect("decodes");
    let took = t0.elapsed();
    assert_eq!(back, record);
    // Linear encode + decode of ~1 MiB takes milliseconds even in a debug
    // build; a decoder that re-validates the remaining input per
    // character takes minutes.
    assert!(
        took < Duration::from_secs(30),
        "1 MiB chunk round trip took {took:?}: string codec is no longer linear"
    );
}
