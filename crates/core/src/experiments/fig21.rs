//! Fig. 21 — inter-system interference effects at frame level.
//!
//! Two effects in one trace: (a) WiHD frames overlapping D5000 data →
//! missing ACKs and retransmissions; (b) dense WiHD series occupying
//! enlarged gaps in the D5000 flow — the D5000's carrier sensing.

use super::RunReport;
use crate::report;
use crate::scenarios::interference_floor;
use mmwave_geom::Angle;
use mmwave_mac::{FrameClass, NetConfig, TxLogEntry};
use mmwave_sim::ctx::SimCtx;
use mmwave_sim::time::{SimDuration, SimTime};
use mmwave_transport::{Stack, TcpConfig};

/// Run the Fig. 21 capture.
pub fn run(ctx: &SimCtx, quick: bool, seed: u64) -> RunReport {
    // Close spacing (0.3 m lateral) to provoke visible interference.
    let f = interference_floor(
        ctx,
        0.3,
        Angle::ZERO,
        NetConfig {
            seed,
            enable_fading: false,
            ..NetConfig::default()
        },
    );
    let (dock_b, laptop_b, dock_a, laptop_a) = (f.dock_b, f.laptop_b, f.dock_a, f.laptop_a);
    let mut stack = Stack::new(f.net);
    stack.add_flow(TcpConfig::bulk(dock_a, laptop_a, 128 * 1024));
    stack.add_flow(TcpConfig::bulk(dock_b, laptop_b, 128 * 1024));
    let end = SimTime::from_secs_f64(if quick { 0.5 } else { 2.0 });
    stack
        .net
        .txlog_mut()
        .set_window(SimTime::from_millis(100), end);
    stack.run_until(end);
    let net = &stack.net;

    let mut violations = Vec::new();
    // (a) Collisions: the D5000 link loses frames and retransmits.
    let st = net.device(dock_b).stats;
    if st.ack_timeouts == 0 {
        violations.push("no missing ACKs on the dock B link — no collisions observed".into());
    }
    if st.data_retx == 0 {
        violations.push("no retransmissions on the dock B link".into());
    }
    // (b) Carrier sensing: deferred TXOP attempts.
    if st.cs_defers == 0 {
        violations.push("dock B never deferred — carrier sensing not visible".into());
    }
    // Ground truth: failed data frames that overlapped a WiHD frame.
    let entries = net.txlog().entries();
    let overlapped_failures = overlapped_failures(entries, dock_b);
    if overlapped_failures == 0 {
        violations.push("no data frame failed while a WiHD frame was on the air".into());
    }

    // Render a 1 ms excerpt around the first overlapped failure.
    let mut output = String::new();
    let focus = entries
        .iter()
        .find(|e| e.src == dock_b && e.class == FrameClass::Data && e.delivered == Some(false))
        .map(|e| e.start)
        .unwrap_or(SimTime::from_millis(100));
    let from = focus.saturating_since(SimTime::ZERO + SimDuration::from_micros(200));
    let from = SimTime::ZERO + from;
    let to = from + SimDuration::from_millis(1);
    let mut rows = Vec::new();
    for e in net.txlog().in_window(from, to).take(28) {
        rows.push(vec![
            format!("{:?}", e.class),
            net.device(e.src).node.label.clone(),
            format!("{:.1} µs", e.start.saturating_since(from).as_micros_f64()),
            format!("{:.1} µs", (e.end - e.start).as_micros_f64()),
            match e.delivered {
                Some(true) => "ok".into(),
                Some(false) => "LOST".into(),
                None => "-".into(),
            },
        ]);
    }
    output.push_str(&report::table(
        "Fig. 21 — 1 ms excerpt around a collision",
        &["frame", "source", "t (rel.)", "duration", "delivery"],
        &rows,
    ));
    output.push_str(&format!(
        "\ndock B: {} data tx, {} retransmissions, {} missing ACKs, {} CS defers; {} failures overlapped WiHD frames\n",
        st.data_tx, st.data_retx, st.ack_timeouts, st.cs_defers, overlapped_failures
    ));

    RunReport { output, violations }
}

/// Failed data frames from `src` that overlapped a WiHD data frame on the
/// air (`o.start < e.end && e.start < o.end`). `entries` is the
/// start-ordered transmission log. One pass records the WiHD frames'
/// starts with a running maximum of their ends; the WiHD frames that
/// started before a failure ended are then a prefix, found by binary
/// search, and one of them overlaps it iff that prefix's latest end lies
/// past the failure's start.
fn overlapped_failures(entries: &[TxLogEntry], src: usize) -> usize {
    let mut wihd_starts: Vec<SimTime> = Vec::new();
    let mut wihd_max_end: Vec<SimTime> = Vec::new();
    for o in entries.iter().filter(|o| o.class == FrameClass::WihdData) {
        debug_assert!(
            wihd_starts.last() <= Some(&o.start),
            "log not start-ordered"
        );
        let max_end = wihd_max_end.last().map_or(o.end, |&m| m.max(o.end));
        wihd_starts.push(o.start);
        wihd_max_end.push(max_end);
    }
    entries
        .iter()
        .filter(|e| e.src == src && e.class == FrameClass::Data && e.delivered == Some(false))
        .filter(|e| {
            let n = wihd_starts.partition_point(|&s| s < e.end);
            n > 0 && wihd_max_end[n - 1] > e.start
        })
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmwave_geom::{Angle, Point};
    use mmwave_mac::PatKey;
    use mmwave_sim::rng::SimRng;

    /// Reference: every failure checked against every log entry.
    fn overlapped_failures_reference(entries: &[TxLogEntry], src: usize) -> usize {
        entries
            .iter()
            .filter(|e| e.src == src && e.class == FrameClass::Data && e.delivered == Some(false))
            .filter(|e| {
                entries
                    .iter()
                    .any(|o| o.class == FrameClass::WihdData && o.start < e.end && e.start < o.end)
            })
            .count()
    }

    fn entry(src: usize, class: FrameClass, us: (u64, u64), delivered: Option<bool>) -> TxLogEntry {
        TxLogEntry {
            start: SimTime::from_micros(us.0),
            end: SimTime::from_micros(us.1),
            src,
            src_position: Point::new(0.0, 0.0),
            src_orientation: Angle::ZERO,
            dst: None,
            class,
            pattern: PatKey::Dir(0),
            mcs: None,
            seq: 0,
            delivered,
        }
    }

    #[test]
    fn abutting_frames_do_not_overlap() {
        let fail = Some(false);
        let log = [
            entry(2, FrameClass::WihdData, (0, 5), None),
            entry(0, FrameClass::Data, (5, 9), fail),
            entry(2, FrameClass::WihdData, (9, 12), None),
            entry(0, FrameClass::Data, (11, 14), fail),
        ];
        assert_eq!(overlapped_failures(&log[..3], 0), 0);
        assert_eq!(overlapped_failures(&log, 0), 1);
        assert_eq!(overlapped_failures_reference(&log, 0), 1);
    }

    #[test]
    fn overlap_count_matches_the_quadratic_scan() {
        // Starts on a 1 µs grid with 0–2 µs steps and durations of 0–5 µs:
        // abutting frames, equal starts and zero-length frames all occur.
        let mut counted = 0;
        for seed in 1..=40 {
            let mut rng = SimRng::root(seed).stream("fig21-overlap");
            let mut start = 0;
            let log: Vec<TxLogEntry> = (0..300)
                .map(|_| {
                    start += rng.next_u64() % 3;
                    let end = start + rng.next_u64() % 6;
                    let (src, class) = match rng.next_u64() % 4 {
                        0 => (2, FrameClass::WihdData),
                        1 => (0, FrameClass::Ack),
                        2 => (1, FrameClass::Data),
                        _ => (0, FrameClass::Data),
                    };
                    let delivered = [None, Some(true), Some(false)][(rng.next_u64() % 3) as usize];
                    entry(src, class, (start, end), delivered)
                })
                .collect();
            for src in 0..3 {
                let n = overlapped_failures(&log, src);
                assert_eq!(
                    n,
                    overlapped_failures_reference(&log, src),
                    "seed {seed}, src {src}"
                );
                counted += n;
            }
        }
        assert!(
            counted > 0,
            "the synthetic logs must contain overlapped failures"
        );
    }
}
