//! Fig. 16 — four of the 32 quasi-omni discovery patterns.
//!
//! Measured on the outdoor semicircle range from real discovery sweeps:
//! HPBW as wide as 60°, but every pattern carved by deep gaps that can
//! prevent communication at specific angles.

use super::RunReport;
use crate::analysis::beampattern::{measure_discovery_pattern, measured_hpbw_deg};
use crate::report;
use crate::scenarios::seeds;
use mmwave_capture::scan::ScanPoint;
use mmwave_channel::Environment;
use mmwave_geom::{Angle, Point, Room};
use mmwave_mac::{Device, Net, NetConfig};
use mmwave_sim::ctx::SimCtx;
use mmwave_sim::time::SimTime;

/// Count deep gaps (local minima ≥ `depth_db` below the scan peak) within
/// the front sector of a semicircle scan.
fn deep_gaps(points: &[ScanPoint], depth_db: f64) -> usize {
    let peak = points.iter().map(|p| p.power_dbm).fold(f64::MIN, f64::max);
    let mut gaps = 0;
    for i in 1..points.len().saturating_sub(1) {
        let p = points[i].power_dbm;
        if p < peak - depth_db
            && p <= points[i - 1].power_dbm
            && p < points[i + 1].power_dbm
            && points[i].angle.degrees().abs() < 75.0
        {
            gaps += 1;
        }
    }
    gaps
}

/// Run the Fig. 16 measurement.
pub fn run(ctx: &SimCtx, quick: bool, seed: u64) -> RunReport {
    // An unassociated dock on the open range sweeps discovery frames.
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
        "D5000",
        Point::new(0.0, 0.0),
        Angle::ZERO,
        seeds::DOCK_A,
    ));
    net.start();
    // A few sweeps suffice (the sub-element order is fixed, §3.2).
    net.run_until(SimTime::from_millis(if quick { 120 } else { 500 }));

    let chosen = [0usize, 9, 18, 27];
    let n_positions = 100;
    let mut output = String::new();
    let mut violations = Vec::new();
    let mut widest = 0.0f64;
    let mut with_gaps = 0usize;
    for &idx in &chosen {
        let scan = measure_discovery_pattern(
            &net,
            dock,
            idx,
            Angle::ZERO,
            3.2,
            n_positions,
            SimTime::ZERO,
            net.now(),
        );
        let hpbw = measured_hpbw_deg(&scan);
        let gaps = deep_gaps(&scan, 6.0);
        widest = widest.max(hpbw);
        if gaps > 0 {
            with_gaps += 1;
        }
        let norm: Vec<(Angle, f64)> = crate::analysis::beampattern::normalize(&scan);
        output.push_str(&report::polar(
            &format!("Fig. 16 — quasi-omni pattern, sub-element {idx} (HPBW {hpbw:.0}°, {gaps} deep gaps)"),
            &norm,
        ));
        output.push('\n');
        if hpbw < 20.0 {
            violations.push(format!(
                "sub {idx}: HPBW {hpbw:.0}° is directional, not quasi-omni"
            ));
        }
    }
    // §4.2: HPBW "can be as wide as 60 degrees".
    if !(40.0..=90.0).contains(&widest) {
        violations.push(format!(
            "widest quasi-omni HPBW {widest:.0}° (paper: up to ≈60°)"
        ));
    }
    // "each pattern contains several deep gaps" — require most of them to.
    if with_gaps < 3 {
        violations.push(format!(
            "only {with_gaps}/4 measured patterns show deep gaps"
        ));
    }

    RunReport { output, violations }
}
