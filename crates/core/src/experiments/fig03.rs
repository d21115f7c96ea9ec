//! Fig. 3 — the D5000 device-discovery frame.
//!
//! The scope shows one ~1 ms frame built of 32 sub-elements, each with a
//! different (roughly constant) amplitude because each rides a different
//! quasi-omni antenna pattern. Here: an unassociated dock sweeps, a
//! waveguide tap captures one sweep, and the checks pin the structure.

use super::RunReport;
use crate::replay::{replay_trace, TapConfig};
use crate::report;
use crate::scenarios::seeds;
use mmwave_channel::Environment;
use mmwave_geom::{Angle, Point, Room};
use mmwave_mac::{Device, FrameClass, Net, NetConfig};
use mmwave_sim::ctx::SimCtx;
use mmwave_sim::time::{SimDuration, SimTime};

/// Run the Fig. 3 capture.
pub fn run(ctx: &SimCtx, _quick: bool, seed: u64) -> RunReport {
    let mut net = Net::with_ctx(
        Environment::new(Room::open_space()),
        NetConfig {
            seed,
            enable_fading: false,
            ..NetConfig::default()
        },
        ctx,
    );
    let dock = net.add_device(Device::wigig_dock(
        ctx,
        "Dock",
        Point::new(0.0, 0.0),
        Angle::ZERO,
        seeds::DOCK_A,
    ));
    net.start();
    net.run_until(SimTime::from_millis(5));

    // Find the first sweep in the log.
    let subs: Vec<(SimTime, SimTime)> = net
        .txlog()
        .of(dock, FrameClass::DiscoverySub)
        .map(|e| (e.start, e.end))
        .take(32)
        .collect();

    let mut violations = Vec::new();
    if subs.len() != 32 {
        violations.push(format!("expected 32 sub-elements, captured {}", subs.len()));
    }

    let mut output = String::new();
    if let (Some(first), Some(last)) = (subs.first(), subs.last()) {
        let total = last.1 - first.0;
        // ~1 ms total frame (32 × 30 µs = 0.96 ms).
        if (total.as_millis_f64() - 0.96).abs() > 0.05 {
            violations.push(format!("frame duration {total} ≠ ≈0.96 ms"));
        }
        // Sub-elements are back to back.
        for w in subs.windows(2) {
            if w[1].0.saturating_since(w[0].1) > SimDuration::from_nanos(10) {
                violations.push("sub-elements are not contiguous".into());
                break;
            }
        }
        // Capture the amplitude staircase with a waveguide tap off-axis.
        let tap = TapConfig::waveguide(Point::new(1.5, 1.2), Angle::from_degrees(-120.0));
        let trace = replay_trace(&net, &tap, first.0, last.1);
        let amps: Vec<f64> = trace.segments().iter().map(|s| s.amplitude_v).collect();
        if amps.len() == 32 {
            let lo = amps.iter().cloned().fold(f64::MAX, f64::min);
            let hi = amps.iter().cloned().fold(f64::MIN, f64::max);
            // Different quasi-omni patterns must produce a clear amplitude
            // spread (≥ 6 dB ⇔ 2× in volts).
            if hi < 2.0 * lo {
                violations.push(format!(
                    "sub-element amplitudes too uniform: {lo:.4}–{hi:.4} V"
                ));
            }
            let points: Vec<(String, f64)> = amps
                .iter()
                .enumerate()
                .map(|(i, a)| (format!("sub {i:02}"), *a))
                .collect();
            output.push_str(&report::bars(
                "Fig. 3 — discovery frame sub-element amplitudes (V at the scope)",
                &points,
                40,
            ));
            output.push_str(&format!(
                "\nframe duration: {total}   sub-elements: {}   amplitude spread: {:.1} dB\n",
                amps.len(),
                20.0 * (hi / lo).log10()
            ));
        } else {
            violations.push(format!("trace holds {} segments, expected 32", amps.len()));
        }
    } else {
        violations.push("no discovery sweep captured".into());
    }

    RunReport { output, violations }
}
