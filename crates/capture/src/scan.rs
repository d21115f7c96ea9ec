//! Mechanical scan procedures.
//!
//! Two measurement rituals recur throughout the paper:
//!
//! * the **semicircle beam-pattern scan** (Fig. 2): the Vubiq + scope are
//!   moved across 100 equally spaced positions on a 3.2 m-radius
//!   semicircle around the device under test, the horn always pointing at
//!   it; average data-frame power per position gives the beam pattern;
//! * the **rotation scan** (Figs. 4, 18–20): the Vubiq sits on a
//!   programmable rotation stage at a fixed position and sweeps its horn
//!   through the full circle; incident power per look direction gives the
//!   angular profile.
//!
//! Both are generic over a *measurement closure* so they run against any
//! channel/MAC composition (the closure typically runs a short simulated
//! capture and averages detected data-frame power).

use mmwave_geom::{arc, full_circle, Angle, Point};
use mmwave_phy::AntennaPattern;

/// One scan sample: where we looked (or stood) and what we measured.
#[derive(Clone, Copy, Debug)]
pub struct ScanPoint {
    /// Scan angle: the look direction (rotation scan) or the angular
    /// position on the semicircle (pattern scan).
    pub angle: Angle,
    /// Average measured power, dBm.
    pub power_dbm: f64,
}

/// An assembled angular profile (rotation-scan output).
#[derive(Clone, Debug)]
pub struct AngularProfile {
    points: Vec<ScanPoint>,
}

impl AngularProfile {
    /// Number of scan points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True if the profile holds no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The raw scan points in sweep order.
    pub fn points(&self) -> &[ScanPoint] {
        &self.points
    }

    /// Peak power (dBm) over the profile.
    pub fn peak_dbm(&self) -> f64 {
        self.points
            .iter()
            .map(|p| p.power_dbm)
            .fold(f64::MIN, f64::max)
    }

    /// Points normalized to the peak (dB ≤ 0) — the Figs. 18–20 plot form.
    pub fn normalized_db(&self) -> Vec<(Angle, f64)> {
        let peak = self.peak_dbm();
        self.points
            .iter()
            .map(|p| (p.angle, p.power_dbm - peak))
            .collect()
    }

    /// Convert into an [`AntennaPattern`] (uniform full-circle sampling is
    /// required) so the lobe-analysis machinery applies to measured
    /// profiles exactly as to synthesized patterns.
    pub fn as_pattern(&self) -> AntennaPattern {
        let n = self.points.len();
        let first = self.points[0].angle;
        AntennaPattern::from_fn(n, |theta| {
            // Nearest measured direction.
            let rel = theta.diff(Angle::ZERO).radians();
            let base = first.radians();
            let step = std::f64::consts::TAU / n as f64;
            let idx = (((rel - base) / step).round() as i64).rem_euclid(n as i64) as usize;
            self.points[idx].power_dbm
        })
    }

    /// Directions of lobes at least `min_prominence_db` prominent,
    /// strongest first — "where does energy come from" for the reflection
    /// analysis.
    pub fn lobe_directions(&self, min_prominence_db: f64) -> Vec<Angle> {
        self.as_pattern()
            .lobes(min_prominence_db)
            .into_iter()
            .map(|l| l.direction)
            .collect()
    }

    /// True if some lobe (with ≥ `min_prominence_db` prominence and within
    /// `max_below_peak_db` of the peak) points within `tolerance` of
    /// `target`. Used to assert "a lobe points at the window".
    pub fn has_lobe_toward(
        &self,
        target: Angle,
        tolerance: f64,
        min_prominence_db: f64,
        max_below_peak_db: f64,
    ) -> bool {
        let pattern = self.as_pattern();
        let peak = pattern.peak().gain_dbi;
        pattern
            .lobes(min_prominence_db)
            .iter()
            .filter(|l| l.gain_dbi >= peak - max_below_peak_db)
            .any(|l| l.direction.distance(target) <= tolerance)
    }
}

/// Run a rotation scan: measure incident power for `n` uniformly spaced
/// look directions. `measure(look_dir)` returns the average power in dBm
/// the horn captures when pointed at `look_dir`.
pub fn angular_profile(n: usize, measure: impl Fn(Angle) -> f64) -> AngularProfile {
    let points = full_circle(n, Angle::ZERO)
        .into_iter()
        .map(|angle| ScanPoint {
            angle,
            power_dbm: measure(angle),
        })
        .collect();
    AngularProfile { points }
}

/// Run the paper's semicircle beam-pattern scan: `n` positions on a
/// semicircle of `radius` around `dut`, spanning the half-circle centred
/// on the DUT's `facing` azimuth. At every position the horn points back
/// at the DUT: `measure(position, look)` returns the average power in dBm
/// the horn captures there when pointed along `look`. Output angles are
/// positions relative to `facing`.
pub fn semicircle_scan(
    n: usize,
    dut: Point,
    facing: Angle,
    radius: f64,
    measure: impl Fn(Point, Angle) -> f64,
) -> Vec<ScanPoint> {
    assert!(n >= 2 && radius > 0.0);
    arc(n, Angle::from_degrees(-90.0), Angle::from_degrees(90.0))
        .into_iter()
        .map(|rel| {
            let world = facing + rel;
            let pos = dut + world.unit() * radius;
            let look = Angle::from_radians((dut - pos).angle());
            ScanPoint {
                angle: rel,
                power_dbm: measure(pos, look),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn angular_profile_finds_source_direction() {
        // Synthetic: energy arrives from 40° with a 20°-wide lobe.
        let profile = angular_profile(360, |look| {
            -50.0
                - (look.distance(Angle::from_degrees(40.0)).to_degrees() / 10.0)
                    .powi(2)
                    .min(40.0)
        });
        assert_eq!(profile.len(), 360);
        assert!((profile.peak_dbm() + 50.0).abs() < 0.1);
        let lobes = profile.lobe_directions(3.0);
        assert_eq!(lobes.len(), 1);
        assert!(lobes[0].distance(Angle::from_degrees(40.0)) < 0.05);
        assert!(profile.has_lobe_toward(Angle::from_degrees(40.0), 0.1, 3.0, 3.0));
        assert!(!profile.has_lobe_toward(Angle::from_degrees(-90.0), 0.2, 3.0, 3.0));
    }

    #[test]
    fn normalized_profile_peaks_at_zero() {
        let profile = angular_profile(90, |look| -60.0 + look.radians().cos());
        let norm = profile.normalized_db();
        let max = norm.iter().map(|(_, v)| *v).fold(f64::MIN, f64::max);
        assert!(max.abs() < 1e-12);
        assert_eq!(norm.len(), 90);
    }

    #[test]
    fn two_lobe_profile() {
        let profile = angular_profile(360, |look| {
            let a = -40.0 - (look.distance(Angle::ZERO).to_degrees() / 8.0).powi(2);
            let b = -44.0 - (look.distance(Angle::from_degrees(180.0)).to_degrees() / 8.0).powi(2);
            a.max(b).max(-80.0)
        });
        let lobes = profile.lobe_directions(3.0);
        assert_eq!(lobes.len(), 2);
        // Strongest first.
        assert!(lobes[0].distance(Angle::ZERO) < 0.05);
        assert!(lobes[1].distance(Angle::from_degrees(180.0)) < 0.05);
    }

    #[test]
    fn semicircle_positions_and_pointing() {
        let dut = Point::new(2.0, 3.0);
        let facing = Angle::from_degrees(90.0);
        let seen = std::cell::RefCell::new(Vec::new());
        let pts = semicircle_scan(100, dut, facing, 3.2, |pos, look| {
            seen.borrow_mut().push(pos);
            // The horn looks back at the DUT.
            let back = pos + look.unit() * 3.2;
            assert!(dut.distance(back) < 1e-9, "{pos:?} looks along {look}");
            -50.0
        });
        let seen = seen.into_inner();
        assert_eq!(pts.len(), 100);
        assert_eq!(seen.len(), 100);
        for pos in &seen {
            assert!((dut.distance(*pos) - 3.2).abs() < 1e-9);
        }
        // End positions are at ±90° of the facing direction: along ±x.
        assert!((seen[0].x - (2.0 + 3.2)).abs() < 1e-9, "{:?}", seen[0]);
        assert!((seen[99].x - (2.0 - 3.2)).abs() < 1e-9);
        // Midpoint is straight ahead (+y).
        let mid = seen[49];
        assert!(mid.y > 3.0 + 3.1, "{mid:?}");
        // Scan angles span [-90°, +90°].
        assert!((pts[0].angle.degrees() + 90.0).abs() < 1e-9);
        assert!((pts[99].angle.degrees() - 90.0).abs() < 1e-9);
    }
}
