//! Fig. 14 — frame amplitudes and reported rate over ~80 minutes.
//!
//! The environment is static, yet the rate occasionally steps — and every
//! step coincides with a change in the received frame amplitude at the
//! Vubiq: beam-pattern realignment and rate adaptation are one joint
//! process. Here sparse perturbation events jitter the laptop's mount
//! angle; the beacon path retrains, and both observables move together.

use super::RunReport;
use crate::report;
use crate::scenarios::point_to_point;
use mmwave_capture::VubiqReceiver;
use mmwave_channel::{multipath_rx_dbm, LinkEnd};
use mmwave_geom::{Angle, Point};
use mmwave_mac::{NetConfig, PatKey};
use mmwave_sim::ctx::SimCtx;
use mmwave_sim::time::SimTime;

/// Run the Fig. 14 campaign.
pub fn run(ctx: &SimCtx, quick: bool, seed: u64) -> RunReport {
    let minutes = if quick { 20 } else { 80 };
    let mut p = point_to_point(
        ctx,
        2.0,
        NetConfig {
            seed,
            enable_fading: false, // static environment: only realignments act
            enable_perturbations: true,
        },
    );
    p.net.txlog_mut().set_enabled(false);

    // The Vubiq behind the dock, pointing at the laptop's lid (§3.2).
    let tap_pos = Point::new(-0.6, 0.25);
    let rx = VubiqReceiver::with_waveguide();
    let probe = LinkEnd::new(Angle::ZERO, &rx.antenna);

    let mut samples: Vec<(f64, f64, f64, u64)> = Vec::new(); // (min, amp V, rate Gb/s, retrains)
    let step_s = 10u64;
    for k in 0..=(minutes * 60 / step_s) {
        p.net.run_until(SimTime::from_secs(k * step_s));
        let laptop = p.net.device(p.laptop);
        let w = laptop.wigig().expect("wigig");
        // Amplitude of a laptop data frame at the Vubiq: its trained
        // sector towards the tap.
        let pattern = laptop.pattern(PatKey::Dir(w.tx_sector));
        let paths = p.net.env.paths(laptop.node.position, tap_pos);
        let amp = rx.power_to_volts(multipath_rx_dbm(
            &p.net.env,
            &paths,
            laptop.node.with_pattern(pattern),
            probe,
            laptop.tx_power_offset_db,
            0.0,
        ));
        let dock_w = p.net.device(p.dock).wigig().expect("wigig");
        let rate = dock_w.adapter.current().rate_gbps();
        let retrains = p.net.device(p.dock).stats.retrains;
        samples.push((k as f64 * step_s as f64 / 60.0, amp, rate, retrains));
    }

    let mut violations = Vec::new();
    // Realignments happened (beyond the initial association training).
    let total_retrains = samples.last().map(|s| s.3).unwrap_or(0);
    let expected_min = if quick { 2 } else { 5 };
    if total_retrains < expected_min {
        violations.push(format!(
            "only {total_retrains} retrains in {minutes} min (expected ≥ {expected_min})"
        ));
    }
    // Amplitude steps coincide with realignments: whenever the measured
    // amplitude changes appreciably between samples, the retrain counter
    // moved in the same interval.
    let mut amp_steps = 0;
    let mut coinciding = 0;
    for w in samples.windows(2) {
        let (a0, a1) = (w[0].1, w[1].1);
        if (a1 - a0).abs() > 0.03 * a0.max(1e-6) {
            amp_steps += 1;
            if w[1].3 > w[0].3 {
                coinciding += 1;
            }
        }
    }
    if amp_steps == 0 {
        violations.push("amplitude never changed — no observable realignments".into());
    } else if coinciding * 10 < amp_steps * 9 {
        violations.push(format!(
            "only {coinciding}/{amp_steps} amplitude steps coincide with a retrain"
        ));
    }
    // The link stays in the 16-QAM region at 2 m (rate between 3 and 4 Gb/s
    // almost always; brief dips allowed right after a perturbation).
    let low = samples.iter().filter(|s| s.2 < 2.0).count();
    if low * 10 > samples.len() {
        violations.push(format!(
            "{low}/{} samples below 2 Gb/s at 2 m",
            samples.len()
        ));
    }

    let pts: Vec<(f64, f64)> = samples.iter().step_by(6).map(|s| (s.0, s.1)).collect();
    let rates: Vec<(f64, f64)> = samples.iter().step_by(6).map(|s| (s.0, s.2)).collect();
    let output = report::series("Fig. 14 — laptop frame amplitude at the Vubiq", "minute", "V", &pts)
        + "\n"
        + &report::series("Fig. 14 — interface bit rate", "minute", "Gb/s", &rates)
        + &format!(
            "\nretrains: {total_retrains}   amplitude steps: {amp_steps} (coinciding with retrains: {coinciding})\n"
        );

    RunReport { output, violations }
}
