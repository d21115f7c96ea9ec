//! Phased-array pattern synthesis.
//!
//! A [`PhasedArray`] combines the array geometry, per-device manufacturing
//! errors and the coarse phase shifters of [`crate::antenna`] into gain
//! patterns. The important property — verified by `tests/calibration.rs` —
//! is that the *measured* imperfections of the paper's devices emerge here
//! naturally:
//!
//! * steering near boresight: HPBW < 20°, strongest side lobe −4…−6 dB;
//! * steering 70° off boresight: side lobes up to ≈ −1 dB and ≈ 10 dB less
//!   absolute gain (element roll-off + quantization lobes).

use crate::antenna::ArrayConfig;
use crate::fastmath;
use crate::pattern::AntennaPattern;
use mmwave_geom::Angle;
use mmwave_sim::rng::SimRng;
use std::f64::consts::TAU;
use std::sync::OnceLock;

/// Minimal complex number for field summation (avoids a num dependency).
/// `add`/`mul` are deliberately inherent methods named like the operator
/// traits — implementing the traits themselves buys nothing here.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

#[allow(clippy::should_implement_trait)]
impl Complex {
    /// Construct from rectangular parts.
    pub fn new(re: f64, im: f64) -> Complex {
        Complex { re, im }
    }
    /// `mag · e^{jφ}`.
    pub fn polar(mag: f64, phase: f64) -> Complex {
        Complex {
            re: mag * phase.cos(),
            im: mag * phase.sin(),
        }
    }
    /// Magnitude, through [`fastmath::hypot`]'s glibc clone —
    /// bit-identical to `self.re.hypot(self.im)` on every input, but
    /// inlinable.
    pub fn abs(self) -> f64 {
        fastmath::hypot(self.re, self.im)
    }
    /// Complex multiplication.
    pub fn mul(self, o: Complex) -> Complex {
        Complex {
            re: self.re * o.re - self.im * o.im,
            im: self.re * o.im + self.im * o.re,
        }
    }
    /// Complex addition.
    pub fn add(self, o: Complex) -> Complex {
        Complex {
            re: self.re + o.re,
            im: self.im + o.im,
        }
    }
}

/// Exact identity of an array's frozen configuration: every
/// [`ArrayConfig`] field that influences synthesized samples, with f64s
/// captured bit-exactly via `to_bits`. Two arrays with equal fingerprints
/// draw the same errors and synthesize bit-identical patterns for the same
/// weights — the soundness condition of the codebook cache in
/// [`crate::codebook`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ArrayFingerprint([u64; 11]);

/// Precomputed per-array synthesis tables over the default angle grid,
/// stored structure-of-arrays so the synthesis loops autovectorize.
///
/// For grid sample `k` (azimuth `θ_k = k·2π/n`) and column `i`:
/// `steer_re[i·n + k] + j·steer_im[i·n + k] = e^{j·TAU·y_i·sin θ_k}` —
/// exactly the phasor the reference path computes per element per angle,
/// stored once. The layout is *column-major* (one contiguous angle run per
/// column) so the per-column accumulation stage streams unit-stride f64
/// slices. `element_db` and `rows_gain_db` are the remaining
/// pure-of-θ/config terms of the sample expression. ~720 × cols × 2 f64s
/// ≈ 90 KiB for 8 columns.
#[derive(Clone, Debug)]
struct SteeringBasis {
    /// Real steering parts, column-major: `columns` runs of `n` samples.
    steer_re: Vec<f64>,
    /// Imaginary steering parts, same layout as `steer_re`.
    steer_im: Vec<f64>,
    /// Element gain (dBi) at each grid azimuth.
    element_db: Vec<f64>,
    /// Constant elevation-stack gain `10·log10(rows)`.
    rows_gain_db: f64,
}

/// Reusable scratch for SoA pattern synthesis: chunk accumulators plus the
/// error-folded weight rows. Once the buffers have grown to an array's
/// size, synthesis through [`PhasedArray::pattern_samples_into`] performs
/// no allocations — keep one per context (the codebook keeps one in its
/// per-`SimCtx` store; benches assert the zero-alloc property).
#[derive(Clone, Debug, Default)]
pub struct SynthScratch {
    /// In-flight field sums (real) for the current angle chunk.
    acc_re: Vec<f64>,
    /// In-flight field sums (imaginary) for the current angle chunk.
    acc_im: Vec<f64>,
    /// Error-folded non-zero weights `(column, re, im)`, rows concatenated.
    folded: Vec<(u32, f64, f64)>,
    /// Per row: end offset into `folded` and the `active` normalizer.
    row_meta: Vec<(usize, f64)>,
}

/// Angle samples per synthesis chunk. Sized so one chunk of every basis
/// column plus the accumulators stays L1-resident while all sectors of a
/// batched synthesis re-read it (8 columns: 120·8·2·8 B ≈ 15 KiB).
const SYNTH_CHUNK: usize = 120;

/// A concrete phased array instance with frozen manufacturing errors.
#[derive(Clone, Debug)]
pub struct PhasedArray {
    config: ArrayConfig,
    /// Element azimuth-axis positions in wavelengths (includes jitter).
    positions_wl: Vec<f64>,
    /// Frozen per-element complex error factors (amplitude × phase error).
    errors: Vec<Complex>,
    /// Steering basis, built on first synthesis (cloned arrays re-share the
    /// already-built tables; a clone before first use rebuilds lazily).
    basis: OnceLock<SteeringBasis>,
}

impl PhasedArray {
    /// Instantiate an array; errors and placement jitter are drawn
    /// deterministically from `config.error_seed`.
    pub fn new(config: ArrayConfig) -> PhasedArray {
        let mut rng = SimRng::root(config.error_seed).stream("array-errors");
        let cols = config.columns;
        let center = (cols as f64 - 1.0) / 2.0;
        let positions_wl = (0..cols)
            .map(|i| {
                let jitter = if config.placement_jitter_wl > 0.0 {
                    rng.normal(0.0, config.placement_jitter_wl)
                } else {
                    0.0
                };
                (i as f64 - center) * config.spacing_wl + jitter
            })
            .collect();
        let errors = (0..cols)
            .map(|_| {
                let amp_db = rng.normal(0.0, config.amp_error_db);
                let phase = rng.normal(0.0, config.phase_error_rad);
                Complex::polar(10f64.powf(amp_db / 20.0), phase)
            })
            .collect();
        PhasedArray {
            config,
            positions_wl,
            errors,
            basis: OnceLock::new(),
        }
    }

    /// The array's configuration.
    pub fn config(&self) -> &ArrayConfig {
        &self.config
    }

    /// Element azimuth-axis positions in wavelengths (includes jitter).
    pub fn positions_wl(&self) -> &[f64] {
        &self.positions_wl
    }

    /// This array's exact configuration identity (see [`ArrayFingerprint`]).
    pub fn fingerprint(&self) -> ArrayFingerprint {
        let c = &self.config;
        ArrayFingerprint([
            c.columns as u64,
            c.rows as u64,
            c.spacing_wl.to_bits(),
            c.element.q.to_bits(),
            c.element.boresight_gain_dbi.to_bits(),
            c.element.back_floor_db.to_bits(),
            c.shifter.bits as u64,
            c.amp_error_db.to_bits(),
            c.phase_error_rad.to_bits(),
            c.error_seed,
            c.placement_jitter_wl.to_bits(),
        ])
    }

    /// The steering basis, built on first use.
    fn basis(&self) -> &SteeringBasis {
        self.basis.get_or_init(|| {
            let n = AntennaPattern::DEFAULT_SAMPLES;
            let cols = self.config.columns;
            let mut steer_re = vec![0.0; n * cols];
            let mut steer_im = vec![0.0; n * cols];
            let mut element_db = Vec::with_capacity(n);
            for k in 0..n {
                // Identical expressions to the reference closure path, so
                // every table entry is the exact f64 it would compute
                // (storage order cannot change a value's bits).
                let theta = Angle::from_radians(TAU * k as f64 / n as f64);
                let s = theta.radians().sin();
                for (i, &y) in self.positions_wl.iter().enumerate() {
                    let ph = Complex::polar(1.0, TAU * y * s);
                    steer_re[i * n + k] = ph.re;
                    steer_im[i * n + k] = ph.im;
                }
                element_db.push(self.config.element.gain_dbi(theta));
            }
            SteeringBasis {
                steer_re,
                steer_im,
                element_db,
                rows_gain_db: 10.0 * (self.config.rows as f64).log10(),
            }
        })
    }

    /// Ideal (pre-quantization) steering phases for local azimuth `steer`.
    fn ideal_phases(&self, steer: Angle) -> Vec<f64> {
        let s = steer.radians().sin();
        self.positions_wl.iter().map(|&y| -TAU * y * s).collect()
    }

    /// Fold each weight row with the frozen element errors into `scratch`:
    /// zero-weight columns are dropped exactly where the reference loop
    /// `continue`s them, preserving the per-sample summation order.
    fn fold_rows(&self, scratch: &mut SynthScratch, rows: &[&[Complex]]) {
        scratch.folded.clear();
        scratch.row_meta.clear();
        for weights in rows {
            assert_eq!(weights.len(), self.config.columns, "weight length mismatch");
            let active: f64 = weights.iter().map(|w| w.abs().powi(2)).sum();
            assert!(active > 0.0, "all elements off");
            for (i, (w, e)) in weights.iter().zip(&self.errors).enumerate() {
                if w.abs() != 0.0 {
                    let we = w.mul(*e);
                    scratch.folded.push((i as u32, we.re, we.im));
                }
            }
            scratch.row_meta.push((scratch.folded.len(), active));
        }
    }

    /// Staged SoA synthesis core: every weight row in `rows` is synthesized
    /// into the matching slice of `outs` (each `DEFAULT_SAMPLES` long).
    ///
    /// The angle grid is walked in [`SYNTH_CHUNK`]-sized chunks; per chunk
    /// and row, stage A accumulates the folded column phasors
    /// (vectorization runs *across* the chunk's independent angle samples,
    /// while each sample still sums its columns in reference order), and
    /// stage B/C converts field sums to dB samples. With more than one row
    /// the basis chunk loaded by the first row is re-read L1-hot by all
    /// others — that is the batched-codebook amortization.
    ///
    /// Bit-identity with [`PhasedArray::pattern_from_weights_reference`]
    /// holds because every per-sample scalar op sequence is unchanged:
    /// `acc ± (w·e)·steer` in column order, `hypot`, square, divide,
    /// `10·log10`, clamp, and the final dB adds — only the iteration
    /// *across* samples and rows is restructured.
    fn synth_rows_into(
        &self,
        scratch: &mut SynthScratch,
        rows: &[&[Complex]],
        outs: &mut [&mut [f64]],
    ) {
        debug_assert_eq!(rows.len(), outs.len());
        self.fold_rows(scratch, rows);
        let basis = self.basis();
        let n = AntennaPattern::DEFAULT_SAMPLES;
        let SynthScratch {
            acc_re,
            acc_im,
            folded,
            row_meta,
        } = scratch;
        acc_re.resize(SYNTH_CHUNK, 0.0);
        acc_im.resize(SYNTH_CHUNK, 0.0);
        let mut start = 0;
        while start < n {
            let len = SYNTH_CHUNK.min(n - start);
            let edb = &basis.element_db[start..start + len];
            let mut row_start = 0;
            for (r, &(row_end, active)) in row_meta.iter().enumerate() {
                let acc_re = &mut acc_re[..len];
                let acc_im = &mut acc_im[..len];
                // Stage A: per-column axpy over the chunk's angle run. The
                // first column stores instead of accumulating (an exact
                // replacement for zero-init + add: `0.0 + t` can only flip
                // the sign of an exact zero, which stage B's `abs` absorbs).
                let mut cols = folded[row_start..row_end].iter();
                match cols.next() {
                    Some(&(i, wre, wim)) => {
                        let col = i as usize * n + start;
                        let cre = &basis.steer_re[col..col + len];
                        let cim = &basis.steer_im[col..col + len];
                        for (((ar, ai), cr), ci) in
                            acc_re.iter_mut().zip(acc_im.iter_mut()).zip(cre).zip(cim)
                        {
                            *ar = wre * cr - wim * ci;
                            *ai = wre * ci + wim * cr;
                        }
                    }
                    None => {
                        acc_re.fill(0.0);
                        acc_im.fill(0.0);
                    }
                }
                for &(i, wre, wim) in cols {
                    let col = i as usize * n + start;
                    let cre = &basis.steer_re[col..col + len];
                    let cim = &basis.steer_im[col..col + len];
                    for (((ar, ai), cr), ci) in
                        acc_re.iter_mut().zip(acc_im.iter_mut()).zip(cre).zip(cim)
                    {
                        *ar += wre * cr - wim * ci;
                        *ai += wre * ci + wim * cr;
                    }
                }
                // Stages B+C fused: field magnitude, normalization so an
                // ideal uniform array peaks at element_gain +
                // 10·log10(columns) (+ rows gain), dB conversion, clamp.
                // `af² → log10 → ·10 → max(−60)` maps an exactly-zero
                // field to −60 just like the reference's `af_power > 0`
                // branch (`10·log10(0) = −inf`, clamped).
                let out = &mut outs[r][start..start + len];
                fastmath::pattern_db_slice(acc_re, acc_im, active, edb, basis.rows_gain_db, out);
                row_start = row_end;
            }
            start += len;
        }
    }

    /// Synthesize the pattern for an arbitrary per-column weight vector
    /// (`weights[i]` applied to column `i`). Columns with zero weight are
    /// switched off. This is the primitive the codebook builds on.
    ///
    /// Runs on the precomputed steering basis — no trig — and is
    /// bit-identical to [`PhasedArray::pattern_from_weights_reference`]:
    /// see [`PhasedArray::synth_rows_into`].
    pub fn pattern_from_weights(&self, weights: &[Complex]) -> AntennaPattern {
        let mut scratch = SynthScratch::default();
        self.pattern_from_weights_with(&mut scratch, weights)
    }

    /// [`PhasedArray::pattern_from_weights`] with caller-provided scratch;
    /// allocates only the returned pattern's sample buffer.
    pub fn pattern_from_weights_with(
        &self,
        scratch: &mut SynthScratch,
        weights: &[Complex],
    ) -> AntennaPattern {
        let mut samples = vec![0.0; AntennaPattern::DEFAULT_SAMPLES];
        self.synth_rows_into(scratch, &[weights], &mut [samples.as_mut_slice()]);
        AntennaPattern::from_samples(samples)
    }

    /// Synthesize into a caller-owned sample buffer: zero allocations in
    /// steady state (once `scratch` and `out` have grown to size).
    pub fn pattern_samples_into(
        &self,
        scratch: &mut SynthScratch,
        weights: &[Complex],
        out: &mut Vec<f64>,
    ) {
        out.clear();
        out.resize(AntennaPattern::DEFAULT_SAMPLES, 0.0);
        self.synth_rows_into(scratch, &[weights], &mut [out.as_mut_slice()]);
    }

    /// Batched synthesis: one pattern per weight row, in one pass over the
    /// angle grid. All rows share each L1-hot basis chunk, which is what
    /// makes cold codebook synthesis ~linear in rows instead of re-reading
    /// the 90 KiB basis per sector. Bit-identical to calling
    /// [`PhasedArray::pattern_from_weights`] per row.
    pub fn patterns_from_weight_rows(
        &self,
        scratch: &mut SynthScratch,
        rows: &[&[Complex]],
    ) -> Vec<AntennaPattern> {
        let n = AntennaPattern::DEFAULT_SAMPLES;
        let mut outs: Vec<Vec<f64>> = rows.iter().map(|_| vec![0.0; n]).collect();
        let mut views: Vec<&mut [f64]> = outs.iter_mut().map(|v| v.as_mut_slice()).collect();
        self.synth_rows_into(scratch, rows, &mut views);
        outs.into_iter().map(AntennaPattern::from_samples).collect()
    }

    /// Reference synthesis: evaluates the closed-form sample expression per
    /// angle with a fresh `sin`/`cos` per element, exactly as
    /// `pattern_from_weights` did before the steering basis existed. Kept as
    /// the bit-level specification — `tests/basis_equivalence.rs` proves the
    /// basis path reproduces it exactly across all calibrated devices.
    pub fn pattern_from_weights_reference(&self, weights: &[Complex]) -> AntennaPattern {
        assert_eq!(weights.len(), self.config.columns, "weight length mismatch");
        let active: f64 = weights.iter().map(|w| w.abs().powi(2)).sum();
        assert!(active > 0.0, "all elements off");
        let rows_gain_db = 10.0 * (self.config.rows as f64).log10();
        let el = self.config.element;
        let positions = self.positions_wl.clone();
        let errors = self.errors.clone();
        let weights = weights.to_vec();
        AntennaPattern::from_fn(AntennaPattern::DEFAULT_SAMPLES, move |theta| {
            let s = theta.radians().sin();
            let mut field = Complex::default();
            for ((&y, w), e) in positions.iter().zip(&weights).zip(&errors) {
                if w.abs() == 0.0 {
                    continue;
                }
                let steer = Complex::polar(1.0, TAU * y * s);
                field = field.add(w.mul(*e).mul(steer));
            }
            let af_power = field.abs().powi(2) / active;
            let af_db = if af_power > 0.0 {
                10.0 * af_power.log10()
            } else {
                -60.0
            };
            el.gain_dbi(theta) + af_db.max(-60.0) + rows_gain_db
        })
    }

    /// Quantized steering weights towards local azimuth `steer`.
    pub fn steering_weights(&self, steer: Angle) -> Vec<Complex> {
        self.ideal_phases(steer)
            .iter()
            .map(|&p| Complex::polar(1.0, self.config.shifter.quantize(p)))
            .collect()
    }

    /// The directional pattern obtained by steering towards `steer`
    /// (with quantized phases — the realistic pattern).
    pub fn steered_pattern(&self, steer: Angle) -> AntennaPattern {
        self.pattern_from_weights(&self.steering_weights(steer))
    }

    /// The pattern with *ideal* (unquantized) phases — the textbook pattern,
    /// used as the baseline in the phase-resolution ablation.
    pub fn ideal_steered_pattern(&self, steer: Angle) -> AntennaPattern {
        let weights: Vec<Complex> = self
            .ideal_phases(steer)
            .iter()
            .map(|&p| Complex::polar(1.0, p))
            .collect();
        self.pattern_from_weights(&weights)
    }

    /// The weight vector of a quasi-omni entry: only the elements listed in
    /// `active` radiate, with the given (quantized) phases. Few active
    /// elements → wide beam; their interference produces the
    /// characteristic gaps of Fig. 16.
    pub fn quasi_omni_weights(&self, active: &[(usize, f64)]) -> Vec<Complex> {
        assert!(!active.is_empty());
        let mut weights = vec![Complex::default(); self.config.columns];
        for &(idx, phase) in active {
            assert!(idx < self.config.columns, "element index out of range");
            weights[idx] = Complex::polar(1.0, self.config.shifter.quantize(phase));
        }
        weights
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::antenna::{ArrayConfig, ElementPattern, PhaseShifter};

    /// An idealized array: fine shifters, no errors — matches textbook math.
    /// The element is flat over the front hemisphere but suppresses the
    /// rear, because a ULA's array factor depends only on sin θ and would
    /// otherwise produce an equal mirror lobe behind the array.
    fn ideal_array(columns: usize) -> PhasedArray {
        PhasedArray::new(ArrayConfig {
            columns,
            rows: 1,
            spacing_wl: 0.5,
            element: ElementPattern {
                q: 0.0,
                boresight_gain_dbi: 0.0,
                back_floor_db: -30.0,
            },
            shifter: PhaseShifter::new(8),
            amp_error_db: 0.0,
            phase_error_rad: 0.0,
            error_seed: 0,
            placement_jitter_wl: 0.0,
        })
    }

    #[test]
    fn complex_ops() {
        let a = Complex::polar(2.0, 0.0);
        let b = Complex::polar(3.0, std::f64::consts::FRAC_PI_2);
        let p = a.mul(b);
        assert!((p.abs() - 6.0).abs() < 1e-12);
        assert!((p.re).abs() < 1e-9 && (p.im - 6.0).abs() < 1e-9);
    }

    #[test]
    fn ideal_boresight_gain_is_10logn() {
        let arr = ideal_array(8);
        let p = arr.steered_pattern(Angle::ZERO);
        let peak = p.peak();
        assert!(peak.direction.distance(Angle::ZERO) < 0.02);
        // 10·log10(8) ≈ 9.03 dB over the (isotropic) element.
        assert!((peak.gain_dbi - 9.03).abs() < 0.1, "peak {}", peak.gain_dbi);
    }

    #[test]
    fn ideal_8_element_hpbw() {
        // Textbook ULA: HPBW ≈ 0.886·λ/(N·d) rad ≈ 12.7° for N=8, d=λ/2.
        let arr = ideal_array(8);
        let hpbw = arr.steered_pattern(Angle::ZERO).hpbw().to_degrees();
        assert!((hpbw - 12.7).abs() < 2.0, "hpbw {hpbw}");
    }

    #[test]
    fn ideal_sll_is_minus_13db() {
        // Uniform ULA first side lobe: −13.2 dB (sinc pattern). The azimuth
        // cut of our synthesis must reproduce it within sampling error.
        let arr = ideal_array(8);
        let sll = arr
            .steered_pattern(Angle::ZERO)
            .side_lobe_level_db()
            .expect("side lobes exist");
        assert!((sll + 12.8).abs() < 1.0, "sll {sll}");
    }

    #[test]
    fn steering_moves_the_main_lobe() {
        let arr = ideal_array(8);
        for deg in [-40.0, -15.0, 20.0, 45.0] {
            let p = arr.steered_pattern(Angle::from_degrees(deg));
            let peak = p.peak();
            assert!(
                peak.direction.distance(Angle::from_degrees(deg)) < 0.06,
                "steer {deg}: peak at {}",
                peak.direction
            );
        }
    }

    #[test]
    fn quantization_raises_side_lobes() {
        let mut cfg = ArrayConfig::wigig_2x8(7);
        cfg.amp_error_db = 0.0;
        cfg.phase_error_rad = 0.0;
        let coarse = PhasedArray::new(cfg.clone());
        cfg.shifter = PhaseShifter::new(8);
        let fine = PhasedArray::new(cfg);
        // Average over steering angles where quantization actually bites.
        let mut worse = 0;
        let mut total = 0;
        for deg in [-35.0, -25.0, -17.0, 13.0, 23.0, 37.0] {
            let s = Angle::from_degrees(deg);
            let sll_coarse = coarse
                .steered_pattern(s)
                .side_lobe_level_db()
                .unwrap_or(-60.0);
            let sll_fine = fine
                .steered_pattern(s)
                .side_lobe_level_db()
                .unwrap_or(-60.0);
            total += 1;
            if sll_coarse > sll_fine + 0.5 {
                worse += 1;
            }
        }
        assert!(
            worse * 2 >= total,
            "2-bit shifters should raise SLL ({worse}/{total})"
        );
    }

    #[test]
    fn errors_are_frozen_per_seed() {
        let a = PhasedArray::new(ArrayConfig::wigig_2x8(42));
        let b = PhasedArray::new(ArrayConfig::wigig_2x8(42));
        let c = PhasedArray::new(ArrayConfig::wigig_2x8(43));
        let pa = a.steered_pattern(Angle::ZERO);
        let pb = b.steered_pattern(Angle::ZERO);
        let pc = c.steered_pattern(Angle::ZERO);
        assert_eq!(pa.samples(), pb.samples());
        assert_ne!(pa.samples(), pc.samples());
    }

    #[test]
    fn quasi_omni_is_wider_than_directional() {
        let arr = PhasedArray::new(ArrayConfig::wigig_2x8(1));
        let dir = arr.steered_pattern(Angle::ZERO);
        let qo = arr.pattern_from_weights(&arr.quasi_omni_weights(&[(3, 0.0), (4, 0.8)]));
        assert!(
            qo.hpbw() > dir.hpbw() * 1.5,
            "qo {} dir {}",
            qo.hpbw(),
            dir.hpbw()
        );
        assert!(qo.peak().gain_dbi < dir.peak().gain_dbi);
    }

    #[test]
    #[should_panic(expected = "all elements off")]
    fn all_zero_weights_panics() {
        let arr = ideal_array(4);
        let w = vec![Complex::default(); 4];
        arr.pattern_from_weights(&w);
    }

    #[test]
    fn rows_add_constant_gain() {
        let mut cfg = ArrayConfig::wigig_2x8(5);
        cfg.rows = 1;
        let one_row = PhasedArray::new(cfg.clone()).steered_pattern(Angle::ZERO);
        cfg.rows = 2;
        let two_rows = PhasedArray::new(cfg).steered_pattern(Angle::ZERO);
        let diff = two_rows.peak().gain_dbi - one_row.peak().gain_dbi;
        assert!((diff - 3.01).abs() < 0.05, "row gain {diff}");
    }
}
