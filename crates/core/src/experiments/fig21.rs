//! Fig. 21 — inter-system interference effects at frame level.
//!
//! Two effects in one trace: (a) WiHD frames overlapping D5000 data →
//! missing ACKs and retransmissions; (b) dense WiHD series occupying
//! enlarged gaps in the D5000 flow — the D5000's carrier sensing.

use super::RunReport;
use crate::report;
use crate::scenarios::interference_floor;
use mmwave_geom::Angle;
use mmwave_mac::{FrameClass, NetConfig};
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
    let entries: Vec<_> = net.txlog().entries().to_vec();
    let mut overlapped_failures = 0;
    for e in &entries {
        if e.src == dock_b && e.class == FrameClass::Data && e.delivered == Some(false) {
            let overlaps = entries
                .iter()
                .any(|o| o.class == FrameClass::WihdData && o.start < e.end && e.start < o.end);
            if overlaps {
                overlapped_failures += 1;
            }
        }
    }
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
