//! §5, principle 1: *"60 GHz networks should implement multiple MAC
//! behaviors and choose the one which is most suitable for the beam
//! patterns of the individual devices in the network."*
//!
//! The prototype: assess the *realized* (trained) pattern of a device —
//! not its nominal spec — and pick a carrier-sensing posture from it.
//! Clean patterns (deep side lobes) barely leak energy sideways, so their
//! owner can afford a deaf, reuse-friendly CS threshold; dirty patterns
//! (the boundary-steering case) spray energy everywhere and should defer
//! readily.

use mmwave_mac::{Net, PatKey};
use mmwave_phy::AntennaPattern;

/// The two MAC postures the selector chooses between.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MacBehavior {
    /// Deaf CS: assume directionality isolates us; maximize spatial reuse.
    AggressiveReuse,
    /// Sensitive CS: expect our side lobes to collide; defer readily.
    ConservativeCsma,
}

impl MacBehavior {
    /// The carrier-sense threshold implementing this posture, dBm.
    pub fn cs_threshold_dbm(self) -> f64 {
        match self {
            MacBehavior::AggressiveReuse => -60.0,
            MacBehavior::ConservativeCsma => -74.0,
        }
    }
}

/// What the selector measures about a realized pattern.
#[derive(Clone, Copy, Debug)]
pub struct PatternAssessment {
    /// Half-power beamwidth, degrees.
    pub hpbw_deg: f64,
    /// Strongest side lobe relative to the main lobe, dB (0 = as strong).
    pub sll_db: f64,
    /// Number of lobes within 3 dB of the peak.
    pub strong_lobes: usize,
}

/// Assess a pattern the way the selector would (e.g. from a factory
/// calibration table or an in-field semicircle measurement).
pub fn assess(pattern: &AntennaPattern) -> PatternAssessment {
    let peak = pattern.peak().gain_dbi;
    PatternAssessment {
        hpbw_deg: pattern.hpbw().to_degrees(),
        sll_db: pattern.side_lobe_level_db().unwrap_or(-40.0),
        strong_lobes: pattern
            .lobes(1.0)
            .iter()
            .filter(|l| l.gain_dbi >= peak - 3.0)
            .count(),
    }
}

/// Choose the posture for a pattern: aggressive reuse only when the
/// pattern is genuinely pencil-like (the paper's point is that consumer
/// hardware often is not).
pub fn choose(a: &PatternAssessment) -> MacBehavior {
    if a.sll_db <= -5.0 && a.strong_lobes <= 1 && a.hpbw_deg <= 25.0 {
        MacBehavior::AggressiveReuse
    } else {
        MacBehavior::ConservativeCsma
    }
}

/// Assess the *trained* transmit pattern of a WiGig device in a running
/// network and apply the chosen posture to its carrier sensing.
/// Returns the choice, or `None` for non-WiGig devices.
pub fn apply_to_device(net: &mut Net, dev: usize) -> Option<MacBehavior> {
    let sector = net.device(dev).wigig()?.tx_sector;
    let assessment = {
        let pattern = net.device(dev).pattern(PatKey::Dir(sector));
        assess(pattern)
    };
    let behavior = choose(&assessment);
    net.device_mut(dev).cs_threshold_dbm = behavior.cs_threshold_dbm();
    Some(behavior)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::{interference_floor, point_to_point};
    use mmwave_geom::Angle;
    use mmwave_mac::NetConfig;
    use mmwave_sim::ctx::SimCtx;
    use mmwave_sim::time::SimTime;

    fn quiet(seed: u64) -> NetConfig {
        NetConfig {
            seed,
            enable_fading: false,
            ..NetConfig::default()
        }
    }

    #[test]
    fn clean_aligned_pattern_selects_reuse() {
        let mut p = point_to_point(&SimCtx::new(), 2.0, quiet(1));
        let choice = apply_to_device(&mut p.net, p.dock).expect("wigig device");
        assert_eq!(choice, MacBehavior::AggressiveReuse);
        assert_eq!(
            p.net.device(p.dock).cs_threshold_dbm,
            MacBehavior::AggressiveReuse.cs_threshold_dbm()
        );
    }

    #[test]
    fn boundary_steering_selects_conservative() {
        // The Fig. 22 rotated dock: its trained sector is a boundary
        // pattern with near-0 dB side lobes.
        let mut f = interference_floor(&SimCtx::new(), 1.5, Angle::from_degrees(50.0), quiet(2));
        let choice = apply_to_device(&mut f.net, f.dock_b).expect("wigig device");
        assert_eq!(choice, MacBehavior::ConservativeCsma);
        // The aligned dock A keeps reuse.
        let choice_a = apply_to_device(&mut f.net, f.dock_a).expect("wigig device");
        assert_eq!(choice_a, MacBehavior::AggressiveReuse);
    }

    #[test]
    fn wihd_devices_are_not_assessed() {
        let mut f = interference_floor(&SimCtx::new(), 1.5, Angle::ZERO, quiet(3));
        assert!(apply_to_device(&mut f.net, f.hdmi_tx).is_none());
    }

    #[test]
    fn assessment_reports_sane_numbers() {
        let p = point_to_point(&SimCtx::new(), 2.0, quiet(4));
        let w = p.net.device(p.dock).wigig().expect("wigig");
        let a = assess(&w.codebook.sector(w.tx_sector).pattern);
        assert!(a.hpbw_deg > 5.0 && a.hpbw_deg < 30.0);
        assert!(a.sll_db < 0.0);
        assert!(a.strong_lobes >= 1);
    }

    /// End to end: on the interference floor, the conservative posture
    /// reduces the rotated link's loss ratio compared to forcing the
    /// aggressive one — the behaviour *choice* matters, which is the §5
    /// claim.
    #[test]
    fn posture_choice_matters_for_dirty_patterns() {
        let run = |behavior: MacBehavior| {
            let mut f =
                interference_floor(&SimCtx::new(), 1.5, Angle::from_degrees(50.0), quiet(5));
            f.net.device_mut(f.dock_b).cs_threshold_dbm = behavior.cs_threshold_dbm();
            for i in 0..800u64 {
                f.net.push_mpdu(f.dock_b, 1500, i);
                f.net.push_mpdu(f.dock_a, 1500, 100_000 + i);
            }
            f.net.run_until(SimTime::from_millis(120));
            f.net.device(f.dock_b).stats.data_loss_ratio()
        };
        let aggressive = run(MacBehavior::AggressiveReuse);
        let conservative = run(MacBehavior::ConservativeCsma);
        assert!(
            conservative <= aggressive,
            "conservative CSMA should not lose more: {conservative} vs {aggressive}"
        );
    }
}
