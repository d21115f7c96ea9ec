//! The semicircle beam-pattern measurement (§3.2, Fig. 2).
//!
//! The Vubiq + horn are placed at 100 positions on a 3.2 m semicircle
//! around the device under test, the horn always pointing back at it;
//! averaging the received power of *data frames only* per position yields
//! the transmit pattern. Here the replay pipeline computes exactly that,
//! against whatever the DUT actually transmitted during the campaign.

use crate::replay::{incident_power_dbm, mean_data_power_dbm, TapConfig};
use mmwave_capture::scan::{semicircle_scan, ScanPoint};
use mmwave_geom::Angle;
use mmwave_mac::Net;
use mmwave_phy::{db_to_lin, lin_to_db};
use mmwave_sim::time::SimTime;

/// Measure the transmit pattern of `dut` from its logged data frames:
/// `n` positions on a semicircle of `radius` centred on the DUT, spanning
/// ±90° around `facing` (the paper centres the arc on the device front).
/// Returns scan points with angles relative to `facing`.
pub fn measure_pattern(
    net: &Net,
    dut: usize,
    facing: Angle,
    radius: f64,
    n: usize,
    from: SimTime,
    to: SimTime,
) -> Vec<ScanPoint> {
    let dut_pos = net.device(dut).node.position;
    semicircle_scan(n, dut_pos, facing, radius, |pos, look| {
        mean_data_power_dbm(net, &TapConfig::horn(pos, look), dut, from, to).unwrap_or(-120.0)
    })
}

/// Measure one sub-element of the discovery sweep: average the incident
/// power of `DiscoverySub` frames transmitted with quasi-omni codebook
/// entry `sub_idx` (the paper splits the 32-element frame in
/// post-processing — Fig. 16).
#[allow(clippy::too_many_arguments)]
pub fn measure_discovery_pattern(
    net: &Net,
    dut: usize,
    sub_idx: usize,
    facing: Angle,
    radius: f64,
    n: usize,
    from: SimTime,
    to: SimTime,
) -> Vec<ScanPoint> {
    let dut_pos = net.device(dut).node.position;
    let entries: Vec<&mmwave_mac::TxLogEntry> = net
        .txlog()
        .in_window(from, to)
        .filter(|e| {
            e.src == dut
                && e.class == mmwave_mac::FrameClass::DiscoverySub
                && e.pattern == mmwave_mac::PatKey::Qo(sub_idx)
        })
        .collect();
    semicircle_scan(n, dut_pos, facing, radius, |pos, look| {
        if entries.is_empty() {
            return -120.0;
        }
        let tap = TapConfig::horn(pos, look);
        let lin: f64 = entries
            .iter()
            .map(|e| db_to_lin(incident_power_dbm(net, &tap, e)))
            .sum();
        lin_to_db(lin / entries.len() as f64)
    })
}

/// Peak-normalize scan points to dB-relative-to-peak form (figure style).
pub fn normalize(points: &[ScanPoint]) -> Vec<(Angle, f64)> {
    let peak = points.iter().map(|p| p.power_dbm).fold(f64::MIN, f64::max);
    points
        .iter()
        .map(|p| (p.angle, p.power_dbm - peak))
        .collect()
}

/// Half-power beamwidth (degrees) of a measured semicircle scan: widest
/// contiguous run of points within 3 dB of the peak.
pub fn measured_hpbw_deg(points: &[ScanPoint]) -> f64 {
    let peak = points.iter().map(|p| p.power_dbm).fold(f64::MIN, f64::max);
    let mut best = 0usize;
    let mut run = 0usize;
    for p in points {
        if p.power_dbm >= peak - 3.0 {
            run += 1;
            best = best.max(run);
        } else {
            run = 0;
        }
    }
    if points.len() < 2 {
        return 0.0;
    }
    let spacing = 180.0 / (points.len() - 1) as f64;
    best as f64 * spacing
}

/// Strongest side-lobe level (dB relative to the main lobe) of a measured
/// scan: the highest local maximum outside the main lobe's −3 dB region.
pub fn measured_sll_db(points: &[ScanPoint]) -> Option<f64> {
    let peak_idx = points
        .iter()
        .enumerate()
        .max_by(|(_, a), (_, b)| a.power_dbm.partial_cmp(&b.power_dbm).expect("finite"))?
        .0;
    let peak = points[peak_idx].power_dbm;
    // Walk outward from the peak until below −3 dB to bound the main lobe.
    let mut lo = peak_idx;
    while lo > 0 && points[lo - 1].power_dbm >= peak - 3.0 {
        lo -= 1;
    }
    let mut hi = peak_idx;
    while hi + 1 < points.len() && points[hi + 1].power_dbm >= peak - 3.0 {
        hi += 1;
    }
    let mut best: Option<f64> = None;
    for (i, p) in points.iter().enumerate() {
        if i >= lo && i <= hi {
            continue;
        }
        let left = if i > 0 {
            points[i - 1].power_dbm
        } else {
            f64::MIN
        };
        let right = if i + 1 < points.len() {
            points[i + 1].power_dbm
        } else {
            f64::MIN
        };
        if p.power_dbm >= left && p.power_dbm >= right {
            let rel = p.power_dbm - peak;
            best = Some(best.map_or(rel, |b: f64| b.max(rel)));
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synthetic_scan(sll_db: f64) -> Vec<ScanPoint> {
        // Main lobe at 0°, side lobe at +45°.
        (0..100)
            .map(|i| {
                let deg = -90.0 + 180.0 * i as f64 / 99.0;
                let main = -40.0 - (deg / 8.0).powi(2);
                let side = -40.0 + sll_db - ((deg - 45.0) / 6.0).powi(2);
                ScanPoint {
                    angle: Angle::from_degrees(deg),
                    power_dbm: main.max(side).max(-90.0),
                }
            })
            .collect()
    }

    #[test]
    fn hpbw_of_synthetic() {
        // main = −(deg/8)² → −3 dB at ±13.9° → HPBW ≈ 27.7°.
        let scan = synthetic_scan(-20.0);
        let hpbw = measured_hpbw_deg(&scan);
        assert!((hpbw - 27.7).abs() < 4.0, "{hpbw}");
    }

    #[test]
    fn sll_of_synthetic() {
        for target in [-2.0, -5.0, -9.0] {
            let scan = synthetic_scan(target);
            let sll = measured_sll_db(&scan).expect("side lobe");
            assert!((sll - target).abs() < 0.6, "target {target} measured {sll}");
        }
    }

    #[test]
    fn normalize_peaks_at_zero() {
        let scan = synthetic_scan(-5.0);
        let norm = normalize(&scan);
        let max = norm.iter().map(|(_, v)| *v).fold(f64::MIN, f64::max);
        assert!(max.abs() < 1e-12);
    }
}
