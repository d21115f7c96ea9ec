//! Fig. 8 — the D5000 frame flow.
//!
//! A 0.6 ms scope window over an active link shows: a beacon, then a burst
//! opening with two control frames (RTS/CTS) followed by alternating data
//! and acknowledgment frames. Bursts are capped at 2 ms (§4.1).

use super::RunReport;
use crate::analysis::frame_level::bursts;
use crate::report;
use crate::scenarios::point_to_point;
use mmwave_mac::{FrameClass, NetConfig};
use mmwave_sim::ctx::SimCtx;
use mmwave_sim::time::{SimDuration, SimTime};

/// Run the Fig. 8 capture.
pub fn run(ctx: &SimCtx, _quick: bool, seed: u64) -> RunReport {
    let mut p = point_to_point(
        ctx,
        2.0,
        NetConfig {
            seed,
            enable_fading: false,
            ..NetConfig::default()
        },
    );
    // Steady traffic, ACK-clocked batches so several bursts form.
    for batch in 0..12u64 {
        p.net.run_until(SimTime::from_micros(400 * batch));
        for i in 0..40u64 {
            p.net.push_mpdu(p.dock, 1500, batch * 100 + i);
        }
    }
    p.net.run_until(SimTime::from_millis(8));

    let window = (SimTime::ZERO, SimTime::from_millis(8));
    let bs = bursts(
        &p.net,
        &[p.dock, p.laptop],
        window.0,
        window.1,
        SimDuration::from_micros(20),
    );

    let mut violations = Vec::new();
    if bs.is_empty() {
        violations.push("no bursts captured".into());
    }
    let mut checked_rts = false;
    for b in &bs {
        if b.duration() > SimDuration::from_micros(2_100) {
            violations.push(format!(
                "burst of {} exceeds the 2 ms TXOP cap",
                b.duration()
            ));
        }
        if b.frames.len() >= 4 {
            // Fig. 8's anatomy: two control frames then data/ACK pairs.
            if b.frames[0].0 != FrameClass::Control || b.frames[1].0 != FrameClass::Control {
                violations.push("burst does not open with an RTS/CTS pair".into());
            }
            let mut expects_data = true;
            for (class, _, _) in &b.frames[2..] {
                let ok = if expects_data {
                    *class == FrameClass::Data
                } else {
                    *class == FrameClass::Ack
                };
                if !ok {
                    violations.push("data/ACK alternation broken inside a burst".into());
                    break;
                }
                expects_data = !expects_data;
            }
            checked_rts = true;
        }
    }
    if !checked_rts {
        violations.push("no burst long enough to validate the RTS/CTS anatomy".into());
    }
    // Beacons tick through the window ("outside the bursts, the channel is
    // idle except for a regular beacon exchange").
    let beacons = p.net.txlog().of(p.dock, FrameClass::Beacon).count();
    if beacons < 5 {
        violations.push(format!("only {beacons} beacons in the window"));
    }

    // Render a timeline of the first 0.6 ms containing a burst.
    let mut rows = Vec::new();
    if let Some(b) = bs.first() {
        let t0 = b.start;
        for (class, s, e) in b.frames.iter().take(14) {
            rows.push(vec![
                format!("{:?}", class),
                format!("{:.1} µs", s.saturating_since(t0).as_micros_f64()),
                format!("{:.1} µs", (*e - *s).as_micros_f64()),
            ]);
        }
    }
    let output = report::table(
        "Fig. 8 — first burst anatomy (t relative to burst start)",
        &["frame", "start", "duration"],
        &rows,
    ) + &format!(
        "\nbursts captured: {}   longest: {}   beacons in window: {}\n",
        bs.len(),
        bs.iter()
            .map(|b| b.duration())
            .max()
            .unwrap_or(SimDuration::ZERO),
        beacons
    );

    RunReport { output, violations }
}
