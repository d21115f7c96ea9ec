//! # mmwave-phy — physical-layer models for consumer 60 GHz devices
//!
//! The paper's central observation is that *cost-effective* millimetre-wave
//! hardware deviates from the textbook pencil-beam picture: quasi-omni
//! discovery patterns have deep gaps, directional patterns carry −4…−6 dB
//! side lobes, and steering towards the boundary of the array's coverage
//! raises side lobes to −1 dB while losing ~10 dB of gain (§4.2). This crate
//! produces those imperfections *from first principles* rather than by
//! drawing them:
//!
//! * [`antenna`] — radiating elements (cos^q patterns) and coarse, quantized
//!   phase shifters.
//! * [`array`] — phased-array factor synthesis with per-element amplitude
//!   and phase errors; this is where the side lobes are born.
//! * [`pattern`] — sampled azimuth gain patterns with lobe analysis
//!   (HPBW, side-lobe level, gap detection).
//! * [`codebook`] — the directional sector codebook and the 32-entry
//!   quasi-omni discovery codebook of the D5000, plus the wide irregular
//!   24-element WiHD patterns.
//! * [`horn`] — the measurement equipment: 25 dBi horn and open waveguide.
//! * [`propagation`] — free-space + oxygen loss, and per-path link budget.
//! * [`mcs`] — the 802.11ad single-carrier MCS table with sensitivities.
//! * [`rate_adapt`] — SNR/loss-driven rate selection (joint with beam
//!   realignment at the MAC layer), including the "never the highest MCS"
//!   cap observed on the real device.
//!
//! ## Conventions
//!
//! Gains are in dBi, powers in dBm, losses in positive dB. Azimuths use
//! [`mmwave_geom::Angle`]; a device's *orientation* maps world azimuths to
//! array-local azimuths, with 0° = array boresight.

pub mod antenna;
pub mod array;
pub mod calib;
pub mod codebook;
pub mod fastmath;
pub mod horn;
pub mod mcs;
pub mod pattern;
pub mod propagation;
pub mod rate_adapt;

pub use antenna::{ArrayConfig, ElementPattern, PhaseShifter};
pub use array::{ArrayFingerprint, Complex, PhasedArray, SynthScratch};
pub use codebook::{Codebook, CodebookKind, CodebookPrebuild, Sector};
pub use horn::{horn_25dbi, open_waveguide};
pub use mcs::{Mcs, McsTable, Modulation};
pub use pattern::{AntennaPattern, Lobe};
pub use propagation::{
    fspl_db, oxygen_loss_db, path_loss_db, LinkBudget, BANDWIDTH_HZ, FREQ_CH2_HZ, FREQ_CH3_HZ,
};
pub use rate_adapt::RateAdapter;

/// Convert dB to linear power ratio.
pub fn db_to_lin(db: f64) -> f64 {
    10f64.powf(db / 10.0)
}

/// Convert a linear power ratio to dB. Clamps at −300 dB for zero input.
pub fn lin_to_db(lin: f64) -> f64 {
    if lin <= 0.0 {
        -300.0
    } else {
        10.0 * lin.log10()
    }
}

/// Sum powers given in dBm, returning dBm.
pub fn sum_dbm(levels: impl IntoIterator<Item = f64>) -> f64 {
    lin_to_db(levels.into_iter().map(db_to_lin).sum())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn db_roundtrip() {
        for db in [-40.0, -3.0, 0.0, 10.0, 23.5] {
            assert!((lin_to_db(db_to_lin(db)) - db).abs() < 1e-9);
        }
    }

    #[test]
    fn zero_power_is_floor() {
        assert_eq!(lin_to_db(0.0), -300.0);
    }

    #[test]
    fn sum_dbm_doubles_equal_powers() {
        // Two equal powers add 3.01 dB.
        let s = sum_dbm([-50.0, -50.0]);
        assert!((s - (-50.0 + 3.0103)).abs() < 1e-3, "{s}");
    }

    #[test]
    fn sum_dbm_dominated_by_strongest() {
        let s = sum_dbm([-40.0, -80.0]);
        assert!((s - -40.0).abs() < 0.01);
    }
}
