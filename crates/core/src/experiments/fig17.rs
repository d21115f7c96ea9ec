//! Fig. 17 — trained directional patterns: laptop, dock, and the dock
//! rotated 70° off its peer.
//!
//! §4.2's numbers: HPBW below 20°, side lobes −4…−6 dB when aligned; at
//! the coverage boundary (the 70° rotation) side lobes reach −1 dB and the
//! authors needed +10 dB receiver gain — i.e. ~10 dB less link gain.

use super::RunReport;
use crate::analysis::beampattern::{
    measure_pattern, measured_hpbw_deg, measured_sll_db, normalize,
};
use crate::report;
use crate::scenarios::{pattern_range, PatternRange};
use mmwave_capture::scan::ScanPoint;
use mmwave_geom::Angle;
use mmwave_mac::NetConfig;
use mmwave_sim::ctx::SimCtx;
use mmwave_sim::time::SimTime;

fn run_range(ctx: &SimCtx, rotation: Angle, seed: u64, quick: bool) -> (PatternRange, SimTime) {
    let mut r = pattern_range(
        ctx,
        rotation,
        NetConfig {
            seed,
            enable_fading: false,
            ..NetConfig::default()
        },
    );
    // Load the link in both directions so both devices emit data frames.
    let horizon = SimTime::from_millis(if quick { 15 } else { 60 });
    let mut i = 0u64;
    while r.net.now() < horizon {
        for _ in 0..20 {
            r.net.push_mpdu(r.dut, 1500, i);
            r.net.push_mpdu(r.peer, 1500, 1_000_000 + i);
            i += 1;
        }
        let t = r.net.now();
        r.net
            .run_until(t + mmwave_sim::time::SimDuration::from_micros(500));
    }
    (r, horizon)
}

fn strong_lobes(points: &[ScanPoint]) -> usize {
    let peak = points.iter().map(|p| p.power_dbm).fold(f64::MIN, f64::max);
    let mut n = 0;
    for i in 1..points.len().saturating_sub(1) {
        let p = points[i].power_dbm;
        if p >= peak - 3.0 && p >= points[i - 1].power_dbm && p > points[i + 1].power_dbm {
            n += 1;
        }
    }
    n
}

/// Run the Fig. 17 measurement.
pub fn run(ctx: &SimCtx, quick: bool, seed: u64) -> RunReport {
    let n = 100;
    let mut output = String::new();
    let mut violations = Vec::new();

    // Aligned: measure both the laptop and the dock.
    let (aligned, end) = run_range(ctx, Angle::ZERO, seed, quick);
    let facing_dut = Angle::ZERO; // DUT faces its peer along +x
    let dock_scan = measure_pattern(
        &aligned.net,
        aligned.dut,
        facing_dut,
        3.2,
        n,
        SimTime::ZERO,
        end,
    );
    let laptop_scan = measure_pattern(
        &aligned.net,
        aligned.peer,
        Angle::from_degrees(180.0),
        3.2,
        n,
        SimTime::ZERO,
        end,
    );

    // Rotated 70°: measure the dock again on the same semicircle.
    let (rotated, end_r) = run_range(ctx, Angle::from_degrees(70.0), seed + 1, quick);
    let rot_scan = measure_pattern(
        &rotated.net,
        rotated.dut,
        facing_dut,
        3.2,
        n,
        SimTime::ZERO,
        end_r,
    );

    for (name, scan) in [("laptop", &laptop_scan), ("D5000", &dock_scan)] {
        let hpbw = measured_hpbw_deg(scan);
        let sll = measured_sll_db(scan).unwrap_or(-99.0);
        output.push_str(&report::polar(
            &format!("Fig. 17 — {name} trained pattern (HPBW {hpbw:.0}°, SLL {sll:.1} dB)"),
            &normalize(scan),
        ));
        output.push('\n');
        if hpbw >= 20.0 {
            violations.push(format!("{name}: HPBW {hpbw:.0}° not below 20°"));
        }
        if !(-9.0..=-3.0).contains(&sll) {
            violations.push(format!("{name}: SLL {sll:.1} dB outside the −4…−6 dB band"));
        }
    }

    let rot_hpbw = measured_hpbw_deg(&rot_scan);
    let rot_sll = measured_sll_db(&rot_scan).unwrap_or(-99.0);
    let peak_of = |s: &[ScanPoint]| s.iter().map(|p| p.power_dbm).fold(f64::MIN, f64::max);
    let gain_drop = peak_of(&dock_scan) - peak_of(&rot_scan);
    output.push_str(&report::polar(
        &format!(
            "Fig. 17 — D5000 rotated 70° (SLL {rot_sll:.1} dB, {gain_drop:.1} dB below aligned peak)"
        ),
        &normalize(&rot_scan),
    ));
    output.push_str(&format!(
        "\nstrong (≤3 dB) lobes: aligned {} vs rotated {}\n",
        strong_lobes(&dock_scan),
        strong_lobes(&rot_scan)
    ));

    // §4.2: rotated side lobes "as strong as −1 dB".
    if rot_sll < -3.5 {
        violations.push(format!("rotated SLL {rot_sll:.1} dB, expected ≈ −1 dB"));
    }
    // "we had to increase the receiver gain by 10 dB".
    if !(6.0..=15.0).contains(&gain_drop) {
        violations.push(format!(
            "rotated peak only {gain_drop:.1} dB below aligned (≈10 expected)"
        ));
    }
    // "a much higher number of side lobes".
    if strong_lobes(&rot_scan) <= strong_lobes(&dock_scan) {
        violations.push("rotated pattern does not show more strong lobes".into());
    }
    let _ = rot_hpbw;

    RunReport { output, violations }
}
