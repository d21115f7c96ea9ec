//! Rate adaptation as observed on the D5000.
//!
//! Three behaviours from §4.1 shape this module:
//!
//! * the reported rate tracks SNR, **not** offered load (Fig. 12 shows the
//!   highest workable MCS even at kb/s traffic);
//! * the device **never** uses the standard's highest MCS — the adapter is
//!   capped at MCS 11 (16-QAM 5/8);
//! * under interference the rate drops with loss statistics, producing the
//!   inverse rate/utilization correlation of Fig. 22.

use crate::mcs::{Mcs, McsTable};

/// Highest MCS index the implementation will select (11 on the D5000).
pub const MAX_MCS: u8 = 11;
/// Extra SNR (dB) required *above* an MCS threshold before upgrading into
/// it (hysteresis against flapping).
pub const UP_MARGIN_DB: f64 = 3.0;
/// SNR margin (dB) below which the current MCS is abandoned.
pub const DOWN_MARGIN_DB: f64 = 1.0;
/// Number of recent data frames considered for loss-driven fallback.
pub const LOSS_WINDOW: usize = 24;
/// Loss ratio in the window that forces a one-step downgrade.
pub const LOSS_DOWN_RATIO: f64 = 0.15;
/// Consecutive clean windows required before releasing one backoff step.
/// High enough that a link facing *recurring* interference (e.g. a WiHD
/// neighbour) stays backed off instead of oscillating into the interferer
/// every few windows.
pub const CLEAN_WINDOWS_FOR_UP: u32 = 8;

/// SNR- and loss-driven MCS selection with hysteresis.
///
/// Two independent components: `base` follows SNR with hysteresis, and
/// `loss_backoff` subtracts levels while recent frames keep failing.
/// The effective MCS is `max(1, base − backoff)`, so the two never
/// compound (a bug class this structure rules out: repeatedly applying
/// the backoff to an already-backed-off value).
#[derive(Clone, Debug)]
pub struct RateAdapter {
    table: McsTable,
    /// Pure SNR-driven selection (with hysteresis).
    base: u8,
    /// Ring of recent frame outcomes (true = acked).
    window: [bool; LOSS_WINDOW],
    window_pos: usize,
    window_filled: bool,
    clean_streak: u32,
    /// Loss-driven penalty: while > 0, the SNR-selected MCS is reduced.
    loss_backoff: u8,
}

impl RateAdapter {
    /// Create an adapter starting at the most robust data MCS.
    pub fn new() -> RateAdapter {
        RateAdapter {
            window: [true; LOSS_WINDOW],
            table: McsTable::ieee_802_11ad(),
            base: 1,
            window_pos: 0,
            window_filled: false,
            clean_streak: 0,
            loss_backoff: 0,
        }
    }

    fn effective(&self) -> u8 {
        self.base
            .saturating_sub(self.loss_backoff)
            .clamp(1, MAX_MCS)
    }

    /// The currently selected MCS.
    pub fn current(&self) -> &Mcs {
        self.table.get(self.effective())
    }

    /// The MCS table in use.
    pub fn table(&self) -> &McsTable {
        &self.table
    }

    /// Loss ratio over the current window.
    pub fn loss_ratio(&self) -> f64 {
        let n = if self.window_filled {
            LOSS_WINDOW
        } else {
            self.window_pos.max(1)
        };
        let losses = self.window[..n].iter().filter(|&&ok| !ok).count();
        losses as f64 / n as f64
    }

    /// Feed an SNR estimate (from beacon/training measurements). Selects
    /// the best sustainable MCS with hysteresis, minus any loss backoff.
    /// Returns the selected MCS index.
    pub fn on_snr(&mut self, snr_db: f64, noise_floor_dbm: f64) -> u8 {
        let cur_thr = self.table.get(self.base).snr_threshold_db(noise_floor_dbm);
        let ideal = self
            .table
            .best_for_snr(snr_db, noise_floor_dbm, UP_MARGIN_DB, MAX_MCS)
            .index;
        if snr_db < cur_thr + DOWN_MARGIN_DB {
            // Current rate no longer sustainable: drop straight to ideal.
            self.base = ideal.min(self.base);
        } else if ideal > self.base {
            self.base = ideal;
        }
        self.effective()
    }

    /// Feed a data-frame outcome (acked or lost). May trigger a loss-driven
    /// downgrade or decay an earlier one. Returns the selected MCS index.
    pub fn on_frame_result(&mut self, acked: bool) -> u8 {
        self.window[self.window_pos] = acked;
        self.window_pos += 1;
        if self.window_pos == LOSS_WINDOW {
            self.window_pos = 0;
            self.window_filled = true;
            let ratio = self.loss_ratio();
            if ratio >= LOSS_DOWN_RATIO {
                self.loss_backoff = (self.loss_backoff + 1).min(6);
                self.clean_streak = 0;
            } else if ratio == 0.0 {
                self.clean_streak += 1;
                if self.clean_streak >= CLEAN_WINDOWS_FOR_UP && self.loss_backoff > 0 {
                    self.loss_backoff -= 1;
                    self.clean_streak = 0;
                }
            } else {
                self.clean_streak = 0;
            }
        }
        self.effective()
    }
}

impl Default for RateAdapter {
    fn default() -> Self {
        RateAdapter::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const NOISE: f64 = -71.5;

    fn adapter() -> RateAdapter {
        RateAdapter::new()
    }

    #[test]
    fn high_snr_caps_at_mcs11() {
        let mut a = adapter();
        let idx = a.on_snr(40.0, NOISE);
        assert_eq!(idx, 11, "the D5000 never reaches MCS 12");
    }

    #[test]
    fn snr_ladder() {
        // Rising SNR climbs the ladder; each step is a valid selection.
        let mut a = adapter();
        let mut last = 1;
        for snr in 0..35 {
            let idx = a.on_snr(snr as f64, NOISE);
            assert!(idx >= last, "rate went down on rising SNR");
            last = idx;
        }
        assert_eq!(last, 11);
    }

    #[test]
    fn falling_snr_downgrades() {
        let mut a = adapter();
        a.on_snr(40.0, NOISE);
        assert_eq!(a.current().index, 11);
        let idx = a.on_snr(8.0, NOISE);
        assert!(idx < 11);
        // And the selected rate is sustainable at 8 dB.
        let thr = a.current().snr_threshold_db(NOISE);
        assert!(8.0 >= thr, "selected unsustainable MCS");
    }

    #[test]
    fn hysteresis_resists_small_wobble() {
        let mut a = adapter();
        // SNR right at the MCS 11 threshold + up margin: selects 11.
        let thr11 = a.table().get(11).snr_threshold_db(NOISE);
        a.on_snr(thr11 + 3.5, NOISE);
        assert_eq!(a.current().index, 11);
        // A 1 dB dip (still above thr + down_margin) must NOT downgrade.
        a.on_snr(thr11 + 2.5, NOISE);
        assert_eq!(a.current().index, 11);
        // A dip below thr + down margin does.
        a.on_snr(thr11 + 0.5, NOISE);
        assert!(a.current().index < 11);
    }

    #[test]
    fn heavy_loss_forces_downgrade() {
        let mut a = adapter();
        a.on_snr(40.0, NOISE);
        assert_eq!(a.current().index, 11);
        // 50 % loss for a full window.
        for i in 0..24 {
            a.on_frame_result(i % 2 == 0);
        }
        assert!(a.current().index < 11, "loss should back the rate off");
    }

    #[test]
    fn clean_windows_recover_backoff() {
        let mut a = adapter();
        a.on_snr(40.0, NOISE);
        for i in 0..24 {
            a.on_frame_result(i % 2 == 0);
        }
        let degraded = a.current().index;
        assert!(degraded < 11);
        // Eight fully clean windows restore one step; SNR re-selects upward.
        for _ in 0..(8 * 24) {
            a.on_frame_result(true);
        }
        a.on_snr(40.0, NOISE);
        assert!(a.current().index > degraded);
    }

    #[test]
    fn loss_ratio_reflects_window() {
        let mut a = adapter();
        for _ in 0..8 {
            a.on_frame_result(false);
        }
        assert!(a.loss_ratio() > 0.9);
        for _ in 0..24 {
            a.on_frame_result(true);
        }
        assert!(a.loss_ratio() < 0.3);
    }

    #[test]
    fn never_selects_mcs0_for_data() {
        let mut a = adapter();
        a.on_snr(-20.0, NOISE);
        assert_eq!(a.current().index, 1);
        for _ in 0..128 {
            a.on_frame_result(false);
        }
        assert_eq!(a.current().index, 1);
    }
}
