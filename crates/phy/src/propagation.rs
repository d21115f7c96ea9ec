//! Path loss and link budgets at 60 GHz.
//!
//! Free-space loss at these frequencies is what forces directional
//! antennas in the first place: ~68 dB in the *first metre*. On top of
//! Friis, the 60 GHz band sits in the oxygen absorption peak
//! (≈ 16 dB/km — negligible indoors but part of a faithful model), and the
//! paper's range experiments (Fig. 13) show day-to-day atmospheric spread,
//! which enters as a per-run loss offset in the channel crate.

use crate::antenna::C;

/// Centre frequency of channel 2 (both devices' default), Hz.
pub const FREQ_CH2_HZ: f64 = 60.48e9;
/// Centre frequency of channel 3, Hz.
pub const FREQ_CH3_HZ: f64 = 62.64e9;
/// Modulated bandwidth of the devices under test, Hz (1.76 GHz for the
/// 802.11ad SC PHY; the paper quotes 1.7 GHz for both devices).
pub const BANDWIDTH_HZ: f64 = 1.76e9;

/// Free-space path loss in dB at distance `dist_m` and frequency `freq_hz`.
pub fn fspl_db(freq_hz: f64, dist_m: f64) -> f64 {
    assert!(freq_hz > 0.0);
    // Below ~1 wavelength Friis diverges; clamp to a sane near-field floor.
    let d = dist_m.max(0.05);
    20.0 * (4.0 * std::f64::consts::PI * d * freq_hz / C).log10()
}

/// Oxygen (and minor water-vapour) absorption over `dist_m`, in dB.
/// The 60 GHz O₂ line contributes ≈ 16 dB/km.
pub fn oxygen_loss_db(dist_m: f64) -> f64 {
    0.016 * dist_m.max(0.0)
}

/// Total propagation loss of a traced path: Friis over the unfolded length,
/// oxygen absorption, and the accumulated reflection losses.
pub fn path_loss_db(freq_hz: f64, path: &mmwave_geom::PropPath) -> f64 {
    fspl_db(freq_hz, path.length_m) + oxygen_loss_db(path.length_m) + path.reflection_loss_db
}

/// Transmit/receive chain parameters for a link-budget computation.
#[derive(Clone, Copy, Debug)]
pub struct LinkBudget {
    /// Conducted transmit power in dBm (consumer modules: ~10 dBm).
    pub tx_power_dbm: f64,
    /// Carrier frequency in Hz.
    pub freq_hz: f64,
    /// Receiver noise figure in dB.
    pub noise_figure_db: f64,
    /// Implementation loss (filters, synchronization) in dB.
    pub implementation_loss_db: f64,
}

impl LinkBudget {
    /// A consumer-grade 60 GHz chain on channel 2.
    ///
    /// 7 dBm conducted power keeps the EIRP with a ~16 dBi trained array
    /// near the ~23 dBm consumer-module reality. The 9.5 dB implementation
    /// loss bundles filter/sync losses with the elevation-plane
    /// misalignment and polarization mismatch that a 2-D azimuth model
    /// cannot represent explicitly; it is calibrated jointly with the
    /// link-sustainability floor so that Fig. 12's MCS-versus-distance
    /// mapping (16-QAM 5/8 at 2 m, QPSK levels at 8 m, instability at
    /// 14 m) and Fig. 13's break-range spread (~10–18 m, abrupt per run)
    /// both hold.
    pub fn consumer_60ghz() -> LinkBudget {
        LinkBudget {
            tx_power_dbm: 7.0,
            freq_hz: FREQ_CH2_HZ,
            noise_figure_db: 10.0,
            implementation_loss_db: 9.5,
        }
    }

    /// Thermal noise floor over the SC bandwidth, in dBm:
    /// −174 dBm/Hz + 10·log10(B) + NF.
    pub fn noise_floor_dbm(&self) -> f64 {
        -174.0 + 10.0 * BANDWIDTH_HZ.log10() + self.noise_figure_db
    }

    /// Received power over one path, in dBm, given the antenna gains the
    /// two patterns contribute along the path's departure/arrival azimuths.
    pub fn rx_power_dbm(
        &self,
        tx_gain_dbi: f64,
        rx_gain_dbi: f64,
        path: &mmwave_geom::PropPath,
    ) -> f64 {
        self.tx_power_dbm + tx_gain_dbi + rx_gain_dbi
            - path_loss_db(self.freq_hz, path)
            - self.implementation_loss_db
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmwave_geom::{trace_paths, Point, Room, TraceConfig};

    #[test]
    fn fspl_one_metre_60ghz() {
        let l = fspl_db(FREQ_CH2_HZ, 1.0);
        assert!((l - 68.1).abs() < 0.2, "{l}");
    }

    #[test]
    fn fspl_doubles_distance_adds_6db() {
        let l1 = fspl_db(FREQ_CH2_HZ, 5.0);
        let l2 = fspl_db(FREQ_CH2_HZ, 10.0);
        assert!((l2 - l1 - 6.02).abs() < 0.01);
    }

    #[test]
    fn fspl_near_field_clamped() {
        assert_eq!(fspl_db(FREQ_CH2_HZ, 0.0), fspl_db(FREQ_CH2_HZ, 0.05));
    }

    #[test]
    fn oxygen_is_small_indoors() {
        assert!(oxygen_loss_db(20.0) < 0.5);
        assert!((oxygen_loss_db(1000.0) - 16.0).abs() < 1e-9);
    }

    #[test]
    fn noise_floor_value() {
        let lb = LinkBudget::consumer_60ghz();
        // −174 + 92.46 + 10 ≈ −71.5 dBm.
        assert!(
            (lb.noise_floor_dbm() + 71.5).abs() < 0.1,
            "{}",
            lb.noise_floor_dbm()
        );
    }

    #[test]
    fn short_link_supports_high_mcs() {
        // A 2 m boresight link with ~15 dBi arrays on both ends must have
        // enough SNR for 16-QAM 5/8 (the paper's short-link observation).
        let lb = LinkBudget::consumer_60ghz();
        let paths = trace_paths(
            &Room::open_space(),
            Point::new(0.0, 0.0),
            Point::new(2.0, 0.0),
            &TraceConfig::default(),
        );
        let rx = lb.rx_power_dbm(16.5, 16.5, &paths[0]);
        let snr = rx - lb.noise_floor_dbm();
        let table = crate::mcs::McsTable::ieee_802_11ad();
        let needed = table.get(11).snr_threshold_db(lb.noise_floor_dbm());
        assert!(snr > needed + 3.0, "snr {snr} needed {needed}");
    }

    #[test]
    fn fourteen_metre_link_drops_mcs() {
        // At 14 m the same link must fall below the 16-QAM thresholds but
        // stay above BPSK — matching Fig. 12's 14 m trace.
        let lb = LinkBudget::consumer_60ghz();
        let paths = trace_paths(
            &Room::open_space(),
            Point::new(0.0, 0.0),
            Point::new(14.0, 0.0),
            &TraceConfig::default(),
        );
        let snr = lb.rx_power_dbm(16.5, 16.5, &paths[0]) - lb.noise_floor_dbm();
        let table = crate::mcs::McsTable::ieee_802_11ad();
        let nf = lb.noise_floor_dbm();
        assert!(
            snr < table.get(10).snr_threshold_db(nf),
            "snr {snr} too high"
        );
        assert!(snr > table.get(1).snr_threshold_db(nf), "snr {snr} too low");
    }

    #[test]
    fn reflection_path_loses_more() {
        use mmwave_geom::{Material, Segment, Wall};
        let room = Room::open_space().with_wall(Wall::new(
            Segment::new(Point::new(-5.0, 1.0), Point::new(5.0, 1.0)),
            Material::Metal,
            "wall",
        ));
        let paths = trace_paths(
            &room,
            Point::new(-2.0, 0.0),
            Point::new(2.0, 0.0),
            &TraceConfig::default(),
        );
        assert!(paths.len() >= 2);
        let los = path_loss_db(FREQ_CH2_HZ, &paths[0]);
        let refl = path_loss_db(FREQ_CH2_HZ, &paths[1]);
        assert!(refl > los + 1.0);
    }
}
