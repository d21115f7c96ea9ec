//! The IEEE 802.11ad single-carrier MCS table.
//!
//! The D5000's driver reports PHY rates that match the standard's
//! single-carrier MCS set exactly (§4.1, Fig. 12), so the model uses the
//! real table: MCS 1–12 data rates, modulation/coding labels, receiver
//! sensitivities from the standard, and the SNR thresholds they imply.
//! The control PHY (MCS 0) carries beacons, discovery and RTS/CTS frames
//! at 27.5 Mb/s with much higher robustness.

use std::fmt;

/// Modulation of an MCS.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Modulation {
    /// Differential BPSK (control PHY).
    Dbpsk,
    /// π/2-BPSK.
    Bpsk,
    /// π/2-QPSK.
    Qpsk,
    /// π/2-16-QAM.
    Qam16,
}

impl fmt::Display for Modulation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Modulation::Dbpsk => "DBPSK",
            Modulation::Bpsk => "BPSK",
            Modulation::Qpsk => "QPSK",
            Modulation::Qam16 => "16-QAM",
        };
        f.write_str(s)
    }
}

/// One modulation-and-coding scheme.
#[derive(Clone, Copy, Debug)]
pub struct Mcs {
    /// Index in the standard (0 = control PHY).
    pub index: u8,
    /// Modulation.
    pub modulation: Modulation,
    /// Code rate as (numerator, denominator).
    pub code_rate: (u8, u8),
    /// PHY data rate in bits per second.
    pub rate_bps: u64,
    /// Receiver sensitivity from the standard, in dBm.
    pub sensitivity_dbm: f64,
}

impl Mcs {
    /// Human-readable "QPSK, 5/8" style label (as used in Fig. 12).
    pub fn label(&self) -> String {
        format!(
            "{}, {}/{}",
            self.modulation, self.code_rate.0, self.code_rate.1
        )
    }

    /// Data rate in Gb/s (as reported by the D5000 application).
    pub fn rate_gbps(&self) -> f64 {
        self.rate_bps as f64 / 1e9
    }

    /// Minimum SNR for reliable reception given `noise_floor_dbm`
    /// (sensitivity − noise floor).
    pub fn snr_threshold_db(&self, noise_floor_dbm: f64) -> f64 {
        self.sensitivity_dbm - noise_floor_dbm
    }

    /// Packet error probability at the given SINR, for a packet of
    /// `bits` bits.
    ///
    /// A logistic waterfall centred `0.5 dB` above threshold with a 0.25 dB
    /// slope approximates the steep coded-PER curves of the standard (LDPC
    /// waterfalls drop several decades per dB); the per-bit extrapolation
    /// makes longer (aggregated) frames slightly more fragile, as in
    /// reality.
    pub fn per(&self, sinr_db: f64, bits: u64, noise_floor_dbm: f64) -> f64 {
        per_at(self.waterfall_x(sinr_db, noise_floor_dbm), bits)
    }

    /// [`Mcs::per`] where it saturates to exactly 0 or 1, which it then
    /// does for every frame length; `None` on the waterfall (and for a
    /// NaN SINR). A caller can skip a memo of waterfall values on `Some`.
    pub fn saturated_per(&self, sinr_db: f64, noise_floor_dbm: f64) -> Option<f64> {
        saturated_per_at(self.waterfall_x(sinr_db, noise_floor_dbm))
    }

    /// The waterfall coordinate `x = (sinr − thr) / 0.25` of [`Mcs::per`].
    fn waterfall_x(&self, sinr_db: f64, noise_floor_dbm: f64) -> f64 {
        let thr = self.snr_threshold_db(noise_floor_dbm) + 0.5;
        (sinr_db - thr) / 0.25
    }
}

/// Beyond this waterfall coordinate the logistic saturates exactly in
/// `f64` (see [`saturated_per_at`]).
const PER_SATURATION_X: f64 = 38.0;

/// The PER at waterfall coordinate `x` if it is exact without
/// `exp`/`powf`, for any frame length. For `x > 38`, `p_ref < 2⁻⁵⁴`, so
/// `1 − p_ref` rounds to 1 and the PER is exactly 0. For `x < −38`,
/// `1 + eˣ` rounds to 1, so `p_ref` is 1 and the PER is exactly 1. Both
/// already hold from about |x| ≈ 37.5. Most evaluations land there:
/// beacons through a quasi-omni pattern are either far above or far
/// below threshold. NaN takes the full formula.
fn saturated_per_at(x: f64) -> Option<f64> {
    if x > PER_SATURATION_X {
        Some(0.0)
    } else if x < -PER_SATURATION_X {
        Some(1.0)
    } else {
        None
    }
}

/// [`Mcs::per`] at waterfall coordinate `x = (sinr − thr) / 0.25`.
fn per_at(x: f64, bits: u64) -> f64 {
    if let Some(p) = saturated_per_at(x) {
        return p;
    }
    let p_ref = 1.0 / (1.0 + x.exp());
    // p_ref is calibrated for a 1500-byte MPDU; scale with length.
    let scale = bits as f64 / 12_000.0;
    let ok = (1.0 - p_ref).powf(scale.max(1e-6));
    (1.0 - ok).clamp(0.0, 1.0)
}

const fn entry(
    index: u8,
    modulation: Modulation,
    code_rate: (u8, u8),
    rate_bps: u64,
    sensitivity_dbm: f64,
) -> Mcs {
    Mcs {
        index,
        modulation,
        code_rate,
        rate_bps,
        sensitivity_dbm,
    }
}

/// The 802.11ad control + SC MCS set, built once at compile time.
static IEEE_802_11AD: [Mcs; 13] = {
    use Modulation::*;
    [
        entry(0, Dbpsk, (1, 2), 27_500_000, -78.0),
        entry(1, Bpsk, (1, 2), 385_000_000, -68.0),
        entry(2, Bpsk, (1, 2), 770_000_000, -66.0),
        entry(3, Bpsk, (5, 8), 962_500_000, -65.0),
        entry(4, Bpsk, (3, 4), 1_155_000_000, -64.0),
        entry(5, Bpsk, (13, 16), 1_251_250_000, -62.0),
        entry(6, Qpsk, (1, 2), 1_540_000_000, -63.0),
        entry(7, Qpsk, (5, 8), 1_925_000_000, -62.0),
        entry(8, Qpsk, (3, 4), 2_310_000_000, -61.0),
        entry(9, Qpsk, (13, 16), 2_502_500_000, -59.0),
        entry(10, Qam16, (1, 2), 3_080_000_000, -55.0),
        entry(11, Qam16, (5, 8), 3_850_000_000, -54.0),
        entry(12, Qam16, (3, 4), 4_620_000_000, -53.0),
    ]
};

/// The full single-carrier table (plus control PHY): a view of one static
/// table, so building one costs nothing.
#[derive(Clone, Debug)]
pub struct McsTable {
    entries: &'static [Mcs],
}

impl McsTable {
    /// The 802.11ad control + SC MCS set.
    pub fn ieee_802_11ad() -> McsTable {
        McsTable {
            entries: &IEEE_802_11AD,
        }
    }

    /// Entry by index. Panics on an index outside the table.
    pub fn get(&self, index: u8) -> &Mcs {
        &self.entries[index as usize]
    }

    /// The control PHY (MCS 0).
    pub fn control(&self) -> &Mcs {
        self.get(0)
    }

    /// Highest data MCS index.
    pub fn max_index(&self) -> u8 {
        (self.entries.len() - 1) as u8
    }

    /// All data-phy entries (MCS ≥ 1).
    pub fn data_entries(&self) -> &[Mcs] {
        &self.entries[1..]
    }

    /// Highest MCS (≤ `cap`) whose SNR threshold plus `margin_db` is met at
    /// `snr_db`; falls back to MCS 1 if even that is not workable.
    pub fn best_for_snr(&self, snr_db: f64, noise_floor_dbm: f64, margin_db: f64, cap: u8) -> &Mcs {
        self.entries[1..=cap.min(self.max_index()) as usize]
            .iter()
            .rev()
            .find(|m| snr_db >= m.snr_threshold_db(noise_floor_dbm) + margin_db)
            .unwrap_or(self.get(1))
    }
}

impl Default for McsTable {
    fn default() -> Self {
        McsTable::ieee_802_11ad()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const NOISE: f64 = -71.5; // 1.76 GHz BW, NF 10 dB

    /// The PER formula without the saturation shortcut.
    fn per_full_formula(x: f64, bits: u64) -> f64 {
        let p_ref = 1.0 / (1.0 + x.exp());
        let scale = bits as f64 / 12_000.0;
        let ok = (1.0 - p_ref).powf(scale.max(1e-6));
        (1.0 - ok).clamp(0.0, 1.0)
    }

    #[test]
    fn per_saturation_is_bit_exact() {
        // One ulp further from / closer to zero (sign-magnitude bits).
        let outward = |v: f64| f64::from_bits(v.to_bits() + 1);
        let inward = |v: f64| f64::from_bits(v.to_bits() - 1);
        let edge = PER_SATURATION_X;
        let mut xs: Vec<f64> = (-60 * 64..=60 * 64).map(|i| i as f64 / 64.0).collect();
        for e in [edge, -edge] {
            xs.extend([e, outward(e), inward(e)]);
        }
        xs.extend([f64::INFINITY, f64::NEG_INFINITY, f64::NAN]);
        for bits in [1u64, 200, 300, 12_000, 600_000] {
            for &x in &xs {
                assert_eq!(
                    per_at(x, bits).to_bits(),
                    per_full_formula(x, bits).to_bits(),
                    "x = {x}, bits = {bits}"
                );
            }
        }
        assert_eq!(per_at(outward(edge), 12_000), 0.0);
        assert_eq!(per_at(outward(-edge), 12_000), 1.0);
    }

    #[test]
    fn saturated_per_is_the_per_of_every_frame_length() {
        let t = McsTable::ieee_802_11ad();
        for idx in 0..=t.max_index() {
            let m = t.get(idx);
            // SINR at waterfall coordinate x, as `Mcs::per` maps it back.
            let at = |x: f64| m.snr_threshold_db(NOISE) + 0.5 + 0.25 * x;
            let mut sinrs: Vec<f64> = (-40 * 16..=40 * 16).map(|i| at(i as f64 / 16.0)).collect();
            sinrs.extend([at(38.0), at(-38.0), f64::NAN]);
            for &sinr in &sinrs {
                let Some(p) = m.saturated_per(sinr, NOISE) else {
                    continue;
                };
                for bits in [1u64, 300, 12_000, 1_000_000] {
                    assert_eq!(
                        m.per(sinr, bits, NOISE).to_bits(),
                        p.to_bits(),
                        "MCS {idx}, SINR {sinr} dB, {bits} bits"
                    );
                }
            }
            assert_eq!(m.saturated_per(at(39.0), NOISE), Some(0.0));
            assert_eq!(m.saturated_per(at(-39.0), NOISE), Some(1.0));
            assert_eq!(m.saturated_per(at(0.0), NOISE), None);
            assert_eq!(m.saturated_per(f64::NAN, NOISE), None);
        }
    }

    #[test]
    fn table_matches_standard_rates() {
        let t = McsTable::ieee_802_11ad();
        assert_eq!(t.get(1).rate_bps, 385_000_000);
        assert_eq!(t.get(6).rate_bps, 1_540_000_000);
        assert_eq!(t.get(11).rate_bps, 3_850_000_000);
        assert_eq!(t.get(12).rate_bps, 4_620_000_000);
        assert_eq!(t.max_index(), 12);
    }

    #[test]
    fn labels_match_fig12() {
        let t = McsTable::ieee_802_11ad();
        assert_eq!(t.get(11).label(), "16-QAM, 5/8");
        assert_eq!(t.get(8).label(), "QPSK, 3/4");
        assert_eq!(t.get(7).label(), "QPSK, 5/8");
        assert_eq!(t.get(6).label(), "QPSK, 1/2");
        assert_eq!(t.get(4).label(), "BPSK, 3/4");
    }

    #[test]
    fn rates_monotone_in_index() {
        let t = McsTable::ieee_802_11ad();
        for w in t.data_entries().windows(2) {
            assert!(w[1].rate_bps > w[0].rate_bps);
        }
    }

    #[test]
    fn higher_rate_needs_higher_snr_within_modulation() {
        let t = McsTable::ieee_802_11ad();
        // Sensitivities are monotone within each modulation family.
        for fam in [Modulation::Bpsk, Modulation::Qpsk, Modulation::Qam16] {
            let sens: Vec<f64> = t
                .data_entries()
                .iter()
                .filter(|m| m.modulation == fam)
                .map(|m| m.sensitivity_dbm)
                .collect();
            for w in sens.windows(2) {
                assert!(w[1] >= w[0]);
            }
        }
    }

    #[test]
    fn control_phy_is_most_robust() {
        let t = McsTable::ieee_802_11ad();
        for m in t.data_entries() {
            assert!(t.control().sensitivity_dbm < m.sensitivity_dbm);
        }
    }

    #[test]
    fn best_for_snr_selects_correctly() {
        let t = McsTable::ieee_802_11ad();
        // Very high SNR, uncapped: MCS 12.
        assert_eq!(t.best_for_snr(40.0, NOISE, 2.0, 12).index, 12);
        // Very high SNR but capped at 11 (the D5000 never uses MCS 12).
        assert_eq!(t.best_for_snr(40.0, NOISE, 2.0, 11).index, 11);
        // Hopeless SNR falls back to MCS 1.
        assert_eq!(t.best_for_snr(-10.0, NOISE, 2.0, 12).index, 1);
        // Threshold arithmetic: MCS 6 needs −63 − (−71.5) = 8.5 dB.
        assert!((t.get(6).snr_threshold_db(NOISE) - 8.5).abs() < 1e-9);
        let m = t.best_for_snr(8.5 + 2.0, NOISE, 2.0, 12);
        assert!(m.index >= 6, "got MCS {}", m.index);
    }

    #[test]
    fn per_waterfall_shape() {
        let t = McsTable::ieee_802_11ad();
        let m = t.get(8);
        let thr = m.snr_threshold_db(NOISE);
        // Well below threshold: certain loss. Well above: reliable.
        assert!(m.per(thr - 5.0, 12_000, NOISE) > 0.99);
        assert!(m.per(thr + 5.0, 12_000, NOISE) < 1e-3);
        // Monotone decreasing in SINR.
        let mut prev = 1.0;
        for k in 0..40 {
            let p = m.per(thr - 4.0 + k as f64 * 0.25, 12_000, NOISE);
            assert!(p <= prev + 1e-12);
            prev = p;
        }
    }

    #[test]
    fn longer_frames_are_more_fragile() {
        let t = McsTable::ieee_802_11ad();
        let m = t.get(11);
        let s = m.snr_threshold_db(NOISE) + 1.5;
        assert!(m.per(s, 96_000, NOISE) > m.per(s, 12_000, NOISE));
    }
}
