//! Sampled azimuth antenna patterns and their analysis.
//!
//! Every antenna in the workspace — synthesized array patterns, horns,
//! quasi-omni discovery patterns — is ultimately evaluated as an
//! [`AntennaPattern`]: power gain (dBi) sampled uniformly over the full
//! circle. The analysis helpers (peak, HPBW, lobe finding, side-lobe level,
//! gap detection) implement the metrics §4.2 of the paper reports.

use mmwave_geom::Angle;
use std::f64::consts::TAU;
use std::sync::OnceLock;

/// A power-gain pattern sampled uniformly over [0, 2π).
#[derive(Clone, Debug)]
pub struct AntennaPattern {
    /// Gain samples in dBi; sample `i` is at azimuth `i · 2π/n` in
    /// *array-local* coordinates (0 = boresight).
    samples: Vec<f64>,
    /// Lazily computed linear-power mirror of `samples` (10^(dBi/10)),
    /// filled on first [`AntennaPattern::samples_lin`] call. Keeps the
    /// radiometric cache's hot loop free of `powf` without taxing the
    /// synthesizers that build thousands of throwaway patterns.
    samples_lin: OnceLock<Vec<f64>>,
}

/// A detected pattern lobe.
#[derive(Clone, Copy, Debug)]
pub struct Lobe {
    /// Lobe peak direction (array-local).
    pub direction: Angle,
    /// Lobe peak gain in dBi.
    pub gain_dbi: f64,
}

impl AntennaPattern {
    /// Default angular resolution used by the synthesizers (0.5°).
    pub const DEFAULT_SAMPLES: usize = 720;

    /// Build from a gain function evaluated at `n` uniform azimuths.
    pub fn from_fn(n: usize, f: impl Fn(Angle) -> f64) -> AntennaPattern {
        assert!(n >= 8, "pattern too coarse");
        let samples = (0..n)
            .map(|i| {
                let g = f(Angle::from_radians(TAU * i as f64 / n as f64));
                debug_assert!(g.is_finite(), "non-finite gain");
                g
            })
            .collect();
        AntennaPattern {
            samples,
            samples_lin: OnceLock::new(),
        }
    }

    /// Build from precomputed gain samples; sample `i` is at azimuth
    /// `i · 2π/n`. The synthesizers' steering-basis path assembles whole
    /// sample vectors at once instead of evaluating a closure per angle.
    pub fn from_samples(samples: Vec<f64>) -> AntennaPattern {
        assert!(samples.len() >= 8, "pattern too coarse");
        debug_assert!(samples.iter().all(|g| g.is_finite()), "non-finite gain");
        AntennaPattern {
            samples,
            samples_lin: OnceLock::new(),
        }
    }

    /// An isotropic pattern of the given gain (used for idealized tests).
    pub fn isotropic(gain_dbi: f64) -> AntennaPattern {
        AntennaPattern {
            samples: vec![gain_dbi; Self::DEFAULT_SAMPLES],
            samples_lin: OnceLock::new(),
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True if the pattern has no samples (never constructed this way).
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Raw samples (dBi), sample `i` at azimuth `i · 2π/n`.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Gain in dBi at `theta` (array-local), circularly interpolated.
    pub fn gain_dbi(&self, theta: Angle) -> f64 {
        let (i0, i1, frac) = self.sample_pos(theta);
        self.samples[i0] * (1.0 - frac) + self.samples[i1] * frac
    }

    /// Resolve `theta` (array-local) to the circular interpolation triple
    /// `(i0, i1, frac)`: the value at `theta` is
    /// `samples[i0]·(1−frac) + samples[i1]·frac`. The triple depends only
    /// on the sample count, so a caller can resolve once and evaluate the
    /// same direction against both the dB and linear sample arrays.
    pub fn sample_pos(&self, theta: Angle) -> (usize, usize, f64) {
        let n = self.samples.len();
        let pos = theta.radians().rem_euclid(TAU) / TAU * n as f64;
        let floor = pos.floor();
        // `rem_euclid` may return TAU itself on rounding, so `floor` can
        // land exactly on `n`; the single `% n` folds that back to 0.
        let i0 = floor as usize % n;
        let i1 = if i0 + 1 == n { 0 } else { i0 + 1 };
        (i0, i1, pos - floor)
    }

    /// Linear-power samples (10^(dBi/10)), computed on first use.
    pub fn samples_lin(&self) -> &[f64] {
        self.samples_lin
            .get_or_init(|| self.samples.iter().map(|g| 10f64.powf(g / 10.0)).collect())
    }

    /// Linear power gain at `theta` (array-local): exactly
    /// `10^(gain_dbi(theta)/10)` for every angle. Interpolation stays in
    /// the dB domain — interpolating the *linear* samples instead would
    /// overshoot by several dB inside deep pattern nulls, precisely where
    /// side-lobe interference results are decided.
    pub fn gain_lin(&self, theta: Angle) -> f64 {
        let (i0, i1, frac) = self.sample_pos(theta);
        self.gain_lin_at(i0, i1, frac)
    }

    /// Linear power gain for a triple previously resolved by
    /// [`AntennaPattern::sample_pos`] (the radiometric cache's miss path:
    /// the triple is resolved once per propagation path and replayed per
    /// sector). Bit-identical to `10^(gain_dbi/10)`; on-sample lookups
    /// (`frac == 0`) come from the precomputed linear table without a
    /// `powf`.
    pub fn gain_lin_at(&self, i0: usize, i1: usize, frac: f64) -> f64 {
        if frac == 0.0 {
            return self.samples_lin()[i0];
        }
        10f64.powf((self.samples[i0] * (1.0 - frac) + self.samples[i1] * frac) / 10.0)
    }

    /// Peak gain (dBi) and its direction.
    pub fn peak(&self) -> Lobe {
        let (i, &g) = self
            .samples
            .iter()
            .enumerate()
            .max_by(|(_, a), (_, b)| a.partial_cmp(b).expect("finite gains"))
            .expect("non-empty pattern");
        Lobe {
            direction: self.direction_of(i),
            gain_dbi: g,
        }
    }

    fn direction_of(&self, i: usize) -> Angle {
        Angle::from_radians(TAU * i as f64 / self.samples.len() as f64)
    }

    /// Half-power beamwidth of the main lobe, in radians: the angular width
    /// around the peak where gain stays within 3 dB of the peak.
    pub fn hpbw(&self) -> f64 {
        let n = self.samples.len();
        let peak_idx = self
            .samples
            .iter()
            .enumerate()
            .max_by(|(_, a), (_, b)| a.partial_cmp(b).expect("finite"))
            .map(|(i, _)| i)
            .expect("non-empty");
        let limit = self.samples[peak_idx] - 3.0;
        let step = TAU / n as f64;
        let mut width = step; // the peak sample itself
                              // Walk right.
        for k in 1..n {
            if self.samples[(peak_idx + k) % n] >= limit {
                width += step;
            } else {
                break;
            }
        }
        // Walk left.
        for k in 1..n {
            if self.samples[(peak_idx + n - k) % n] >= limit {
                width += step;
            } else {
                break;
            }
        }
        width.min(TAU)
    }

    /// All local maxima at least `min_rel_db` above the pattern minimum and
    /// with at least `min_prominence_db` of prominence over the adjacent
    /// valleys, sorted by descending gain. The first entry is the main lobe.
    pub fn lobes(&self, min_prominence_db: f64) -> Vec<Lobe> {
        let n = self.samples.len();
        let mut lobes = Vec::new();
        for i in 0..n {
            let prev = self.samples[(i + n - 1) % n];
            let here = self.samples[i];
            let next = self.samples[(i + 1) % n];
            if here >= prev && here > next {
                // Walk out to the valleys on both sides to get prominence.
                let mut lo = here;
                let mut k = 1;
                while k < n {
                    let v = self.samples[(i + n - k) % n];
                    if v > here {
                        break;
                    }
                    lo = lo.min(v);
                    k += 1;
                }
                let mut hi_side = here;
                let mut k = 1;
                while k < n {
                    let v = self.samples[(i + k) % n];
                    if v > here {
                        break;
                    }
                    hi_side = hi_side.min(v);
                    k += 1;
                }
                let prominence = here - lo.max(hi_side);
                if prominence >= min_prominence_db {
                    lobes.push(Lobe {
                        direction: self.direction_of(i),
                        gain_dbi: here,
                    });
                }
            }
        }
        lobes.sort_by(|a, b| b.gain_dbi.partial_cmp(&a.gain_dbi).expect("finite"));
        lobes
    }

    /// Side-lobe level: gain of the strongest lobe other than the main one,
    /// relative to the main lobe, in dB (negative). `None` if the pattern
    /// has a single lobe. Lobes inside the main lobe's half-power width are
    /// not counted as side lobes.
    pub fn side_lobe_level_db(&self) -> Option<f64> {
        let lobes = self.lobes(1.0);
        let main = lobes.first()?;
        let hpbw = self.hpbw();
        lobes
            .iter()
            .skip(1)
            .find(|l| l.direction.distance(main.direction) > hpbw / 2.0)
            .map(|l| l.gain_dbi - main.gain_dbi)
    }

    /// Deep gaps: directions within ±`sector` of boresight where the gain
    /// falls more than `depth_db` below the pattern's peak. Returns the
    /// gap directions. Used to quantify the quasi-omni imperfections of
    /// Fig. 16.
    pub fn gaps(&self, sector: f64, depth_db: f64) -> Vec<Angle> {
        let peak = self.peak().gain_dbi;
        let n = self.samples.len();
        let mut out = Vec::new();
        for i in 0..n {
            let dir = self.direction_of(i);
            if dir.distance(Angle::ZERO) <= sector && self.samples[i] < peak - depth_db {
                // Only record local minima so a wide gap counts once.
                let prev = self.samples[(i + n - 1) % n];
                let next = self.samples[(i + 1) % n];
                if self.samples[i] <= prev && self.samples[i] < next {
                    out.push(dir);
                }
            }
        }
        out
    }

    /// A copy normalized so the peak is 0 dB (figure-style presentation).
    pub fn normalized(&self) -> AntennaPattern {
        let peak = self.peak().gain_dbi;
        AntennaPattern {
            samples: self.samples.iter().map(|g| g - peak).collect(),
            samples_lin: OnceLock::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic pattern: one main lobe at 0° and one side lobe at 90°.
    fn two_lobe_pattern(side_level_db: f64) -> AntennaPattern {
        AntennaPattern::from_fn(720, |a| {
            let main = 20.0 - (a.distance(Angle::ZERO).to_degrees() / 10.0).powi(2);
            let side = 20.0 + side_level_db
                - (a.distance(Angle::from_degrees(90.0)).to_degrees() / 8.0).powi(2);
            main.max(side).max(-30.0)
        })
    }

    #[test]
    fn isotropic_has_no_side_lobes() {
        let p = AntennaPattern::isotropic(3.0);
        assert_eq!(p.gain_dbi(Angle::from_degrees(123.0)), 3.0);
        assert!(p.lobes(1.0).is_empty());
        assert!(p.side_lobe_level_db().is_none());
    }

    #[test]
    fn peak_and_interpolation() {
        let p = two_lobe_pattern(-10.0);
        let peak = p.peak();
        assert!(peak.direction.distance(Angle::ZERO) < 0.02);
        assert!((peak.gain_dbi - 20.0).abs() < 0.01);
        // Interpolated lookup between samples is close to the function.
        let g = p.gain_dbi(Angle::from_degrees(0.25));
        assert!((g - 20.0).abs() < 0.1);
    }

    #[test]
    fn hpbw_of_gaussian_lobe() {
        // main = 20 − (θ°/10)²  →  −3 dB at θ = ±10·√3 ≈ ±17.3°, HPBW ≈ 34.6°.
        let p = two_lobe_pattern(-20.0);
        let hpbw_deg = p.hpbw().to_degrees();
        assert!((hpbw_deg - 34.6).abs() < 1.5, "hpbw {hpbw_deg}");
    }

    #[test]
    fn lobe_detection_finds_both() {
        let p = two_lobe_pattern(-6.0);
        let lobes = p.lobes(2.0);
        assert_eq!(lobes.len(), 2, "lobes: {lobes:?}");
        assert!(lobes[0].direction.distance(Angle::ZERO) < 0.02);
        assert!(lobes[1].direction.distance(Angle::from_degrees(90.0)) < 0.02);
    }

    #[test]
    fn side_lobe_level() {
        for sll in [-1.0, -4.0, -6.0, -12.0] {
            let p = two_lobe_pattern(sll);
            let measured = p.side_lobe_level_db().expect("side lobe");
            assert!(
                (measured - sll).abs() < 0.1,
                "target {sll} measured {measured}"
            );
        }
    }

    #[test]
    fn normalized_peak_is_zero() {
        let p = two_lobe_pattern(-5.0).normalized();
        assert!(p.peak().gain_dbi.abs() < 1e-9);
    }

    #[test]
    fn gaps_detected_in_sector() {
        // A pattern with a sharp notch at +20°.
        let p = AntennaPattern::from_fn(720, |a| {
            if a.distance(Angle::from_degrees(20.0)).to_degrees() < 3.0 {
                -15.0
            } else {
                0.0
            }
        });
        let gaps = p.gaps(60f64.to_radians(), 8.0);
        assert!(!gaps.is_empty());
        assert!(gaps
            .iter()
            .any(|g| g.distance(Angle::from_degrees(20.0)) < 0.1));
        // Nothing outside the sector.
        assert!(p.gaps(10f64.to_radians(), 8.0).is_empty());
    }

    #[test]
    fn linear_samples_mirror_db_samples() {
        let p = two_lobe_pattern(-6.0);
        for (g_db, g_lin) in p.samples().iter().zip(p.samples_lin()) {
            assert!((10f64.powf(g_db / 10.0) - g_lin).abs() < 1e-12);
        }
        // At an exact sample point the dB and linear lookups agree.
        let theta = Angle::from_degrees(90.0);
        assert!((p.gain_lin(theta) - 10f64.powf(p.gain_dbi(theta) / 10.0)).abs() < 1e-12);
        // A pre-resolved triple replays to the same value as a direct lookup.
        let theta = Angle::from_degrees(17.3);
        let (i0, i1, frac) = p.sample_pos(theta);
        assert_eq!(p.gain_lin_at(i0, i1, frac), p.gain_lin(theta));
        assert_eq!(
            p.samples()[i0] * (1.0 - frac) + p.samples()[i1] * frac,
            p.gain_dbi(theta)
        );
    }

    #[test]
    fn sample_pos_wraps_cleanly() {
        let p = AntennaPattern::isotropic(0.0);
        for deg in [-180.0, -0.25, 0.0, 0.25, 179.75, 359.9] {
            let (i0, i1, frac) = p.sample_pos(Angle::from_degrees(deg));
            assert!(i0 < p.len() && i1 < p.len(), "indices in range for {deg}");
            assert!((0.0..1.0 + 1e-12).contains(&frac), "frac {frac} for {deg}");
        }
    }
}
