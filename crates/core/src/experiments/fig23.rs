//! Fig. 23 — reflection interference impact on TCP throughput.
//!
//! The shielded rig of Fig. 7: WiHD energy reaches the dock only via the
//! metal reflector. With the WiHD on, TCP throughput drops by ≈200 Mb/s on
//! average (worst dips ≈300 Mb/s, up to 33 %) and fluctuates; switching
//! the WiHD off restores a stable ≈950 Mb/s.

use super::RunReport;
use crate::report;
use crate::scenarios::reflector_rig;
use mmwave_mac::NetConfig;
use mmwave_sim::ctx::SimCtx;
use mmwave_sim::time::{SimDuration, SimTime};
use mmwave_transport::{Stack, TcpConfig};

/// Run the Fig. 23 measurement.
pub fn run(ctx: &SimCtx, quick: bool, seed: u64) -> RunReport {
    let (total_s, off_s) = if quick { (36.0, 24.0) } else { (120.0, 90.0) };
    // Fading ON: the reflected interference hovers at the dock's
    // clear-channel threshold, and the slow fading toggling it across is
    // what produces the paper's strong throughput fluctuation.
    let r = reflector_rig(
        ctx,
        NetConfig {
            seed,
            ..NetConfig::default()
        },
    );
    let (dock, laptop, hdmi_tx) = (r.dock, r.laptop, r.hdmi_tx);
    let mut net = r.net;
    net.txlog_mut().set_enabled(false);
    let mut stack = Stack::new(net);
    // §4.4: 250 KB window, frame flow laptop → dock.
    let flow = stack.add_flow(TcpConfig::bulk(laptop, dock, 250 * 1024));
    stack.run_until(SimTime::from_secs_f64(off_s));
    stack.net.set_video(hdmi_tx, false);
    stack.run_until(SimTime::from_secs_f64(total_s));

    let bin = SimDuration::from_secs(2);
    let series = stack.flow_stats(flow).goodput_series_mbps(
        SimTime::ZERO,
        SimTime::from_secs_f64(total_s),
        bin,
    );
    let on_window: Vec<f64> = series
        .iter()
        .filter(|(t, _)| t.as_secs_f64() >= 4.0 && t.as_secs_f64() < off_s - 2.0)
        .map(|(_, g)| *g)
        .collect();
    let off_window: Vec<f64> = series
        .iter()
        .filter(|(t, _)| t.as_secs_f64() >= off_s + 2.0)
        .map(|(_, g)| *g)
        .collect();
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let std = |v: &[f64]| {
        let m = mean(v);
        (v.iter().map(|x| (x - m).powi(2)).sum::<f64>() / v.len().max(1) as f64).sqrt()
    };
    let on_mean = mean(&on_window);
    let off_mean = mean(&off_window);
    let worst = on_window.iter().cloned().fold(f64::MAX, f64::min);
    let drop = off_mean - on_mean;
    let worst_drop = off_mean - worst;

    let mut violations = Vec::new();
    // Clean link runs near the GigE cap.
    if off_mean < 850.0 {
        violations.push(format!("clean throughput only {off_mean:.0} Mb/s"));
    }
    // ≈200 Mb/s (≈20 %) average loss under the reflected interference.
    if !(90.0..=380.0).contains(&drop) {
        violations.push(format!(
            "average degradation {drop:.0} Mb/s (paper: ≈200, i.e. ≈20%)"
        ));
    }
    // Worst 2 s bin dips ≈300 Mb/s (up to 33 %).
    if worst_drop < 150.0 {
        violations.push(format!("worst dip only {worst_drop:.0} Mb/s (paper: ≈300)"));
    }
    if worst_drop > 0.6 * off_mean {
        violations.push(format!(
            "worst dip {worst_drop:.0} Mb/s too deep — interference overpowering"
        ));
    }
    // Fluctuation: interference period noisier than the clean period.
    if std(&on_window) <= std(&off_window) {
        violations.push(format!(
            "throughput not fluctuating under interference (σ {:.0} vs clean σ {:.0})",
            std(&on_window),
            std(&off_window)
        ));
    }

    let pts: Vec<(f64, f64)> = series.iter().map(|(t, g)| (t.as_secs_f64(), *g)).collect();
    let output = report::series(
        "Fig. 23 — TCP throughput over time (WiHD off at the marked time)",
        "t (s)",
        "Mb/s",
        &pts,
    ) + &format!(
        "\nWiHD on: mean {on_mean:.0} Mb/s (worst bin {worst:.0})   WiHD off: mean {off_mean:.0} Mb/s\n\
         degradation: {drop:.0} Mb/s average ({:.0}%), {worst_drop:.0} Mb/s worst\n",
        100.0 * drop / off_mean.max(1.0)
    );

    RunReport { output, violations }
}
