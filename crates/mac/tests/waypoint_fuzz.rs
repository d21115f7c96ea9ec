//! Seeded randomized suite for the waypoint-trace parser, the way a
//! mobility log recorded outside the simulator enters it. Std-only, with
//! a fixed seed and fixed iteration counts, so every run checks the same
//! inputs and a failure reproduces exactly. Random traces round-trip
//! through `format_waypoints` bit for bit, and a trace that is truncated,
//! bit-flipped or line-shuffled never makes `parse_waypoints_from` panic:
//! it parses, or its error names the source and a line the input has.

use std::panic::{catch_unwind, AssertUnwindSafe};

use mmwave_mac::scenario::{format_waypoints, parse_waypoints_from, Waypoint};
use mmwave_sim::rng::SimRng;

const SEED: u64 = 0x7761_7970_6f69_6e74;

/// Random traces per round-trip run.
const TRACES: usize = 2_000;

/// Random bit-flip mutants of the real trace.
const FLIPS: usize = 5_000;

/// Random line shuffles of the real trace.
const SHUFFLES: usize = 2_000;

fn below(rng: &mut SimRng, n: usize) -> usize {
    (rng.next_u64() % n as u64) as usize
}

/// A plain value, or any finite bit pattern (subnormals, huge exponents,
/// negative zero).
fn finite(rng: &mut SimRng) -> f64 {
    if rng.next_u64() & 1 == 1 {
        return rng.uniform(-50.0, 50.0);
    }
    loop {
        let v = f64::from_bits(rng.next_u64());
        if v.is_finite() {
            return v;
        }
    }
}

/// A walk as a recorded log holds it, behind a comment and a blank line.
fn real_trace() -> (String, Vec<Waypoint>) {
    let walk: Vec<Waypoint> = (0..10)
        .map(|k| Waypoint {
            t: 0.25 * k as f64,
            x: 1.5 + 0.3 * k as f64,
            y: 2.0 - 0.05 * k as f64,
            theta_deg: 90.0 - 7.5 * k as f64,
        })
        .collect();
    let text = format!("# t x y theta\n\n{}", format_waypoints(&walk));
    (text, walk)
}

/// Parse `bytes` as the trace `walk.txt`; fail with the input named if the
/// parser panics, or if an error names another source or a line the
/// input does not have.
fn parse_must_not_panic(bytes: &[u8], what: &str) -> Result<Vec<Waypoint>, String> {
    let text = String::from_utf8_lossy(bytes);
    let parsed = catch_unwind(AssertUnwindSafe(|| parse_waypoints_from("walk.txt", &text)))
        .unwrap_or_else(|_| panic!("waypoint parser panicked on {what}"));
    if let Err(e) = &parsed {
        let line: Option<usize> = e
            .strip_prefix("walk.txt:")
            .and_then(|rest| rest.split(':').next()?.parse().ok());
        assert!(
            line.is_some_and(|l| (1..=text.lines().count()).contains(&l)),
            "{what}: error names no line of the input: {e}"
        );
    }
    parsed
}

#[test]
fn random_traces_roundtrip_through_format_and_parse() {
    let mut rng = SimRng::root(SEED);
    for i in 0..TRACES {
        let mut times: Vec<f64> = (0..below(&mut rng, 12))
            .map(|_| finite(&mut rng).abs())
            .collect();
        times.sort_by(f64::total_cmp);
        let trace: Vec<Waypoint> = times
            .into_iter()
            .map(|t| Waypoint {
                t,
                x: finite(&mut rng),
                y: finite(&mut rng),
                theta_deg: finite(&mut rng),
            })
            .collect();
        let text = format_waypoints(&trace);
        let back = parse_waypoints_from("walk.txt", &text)
            .unwrap_or_else(|e| panic!("trace {i} did not parse: {e}"));
        // Equal values that format alike have equal bits (`-0` is not `0`).
        assert_eq!(back, trace, "trace {i}:\n{text}");
        assert_eq!(format_waypoints(&back), text, "trace {i}");
    }
}

#[test]
fn truncated_traces_never_panic_and_keep_a_prefix() {
    let (text, walk) = real_trace();
    for cut in 0..=text.len() {
        if let Ok(got) = parse_must_not_panic(&text.as_bytes()[..cut], &format!("cut {cut}")) {
            // The last line may be cut inside a number and still parse.
            let whole = got.len().saturating_sub(1);
            assert!(got.len() <= walk.len(), "cut {cut}");
            assert_eq!(got[..whole], walk[..whole], "cut {cut}");
        }
    }
}

#[test]
fn bit_flipped_traces_never_panic() {
    let (text, _) = real_trace();
    let mut rng = SimRng::root(SEED ^ 1);
    for i in 0..FLIPS {
        let mut bytes = text.clone().into_bytes();
        for _ in 0..1 + below(&mut rng, 3) {
            let at = below(&mut rng, bytes.len());
            bytes[at] ^= 1 << below(&mut rng, 8);
        }
        let _ = parse_must_not_panic(&bytes, &format!("mutant {i}"));
    }
}

#[test]
fn shuffled_traces_parse_exactly_when_time_never_goes_backwards() {
    let (text, walk) = real_trace();
    let lines: Vec<&str> = text.split_inclusive('\n').collect();
    let mut rng = SimRng::root(SEED ^ 2);
    for i in 0..SHUFFLES {
        // A few swaps each, so that many shuffles still run forwards.
        let mut order: Vec<usize> = (0..lines.len()).collect();
        for _ in 0..below(&mut rng, 4) {
            let (a, b) = (below(&mut rng, order.len()), below(&mut rng, order.len()));
            order.swap(a, b);
        }
        let shuffled: String = order.iter().map(|&k| lines[k]).collect();
        // Lines 0 and 1 are the comment and the blank line.
        let want: Vec<Waypoint> = order
            .iter()
            .filter(|&&k| k >= 2)
            .map(|&k| walk[k - 2])
            .collect();
        let forwards = want.windows(2).all(|p| p[0].t <= p[1].t);
        match parse_must_not_panic(shuffled.as_bytes(), &format!("shuffle {i}")) {
            Ok(got) => {
                assert!(forwards, "shuffle {i} parsed with time going backwards");
                assert_eq!(got, want, "shuffle {i}");
            }
            Err(e) => assert!(!forwards, "shuffle {i}: {e}"),
        }
    }
}
