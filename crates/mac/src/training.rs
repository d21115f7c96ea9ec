//! Beam training: exhaustive sector-sweep selection.
//!
//! 802.11ad-style devices train by sweeping their codebooks and picking the
//! sector pair with the best feedback. We compute the result of that sweep
//! directly (the sweep frames themselves are modelled in the association
//! handshake; re-running 32×32 probe transmissions through the event loop
//! would only add noise-free repetitions of the same arithmetic).

use crate::device::Device;
use mmwave_channel::{gain_rx_dbm, Environment, LinkGainCache};
use mmwave_phy::{lin_to_db, Codebook};

/// Result of training a device pair.
#[derive(Clone, Copy, Debug)]
pub struct TrainingResult {
    /// Selected sector index at `a`.
    pub a_sector: usize,
    /// Selected sector index at `b`.
    pub b_sector: usize,
    /// Received power at `b` with the selected pair, dBm (before fading).
    pub rx_dbm: f64,
}

fn codebook(dev: &Device) -> &Codebook {
    match &dev.kind {
        crate::device::DevKind::Wigig(w) => &w.codebook,
        crate::device::DevKind::Wihd(w) => &w.codebook,
    }
}

/// Exhaustively search both directional codebooks for the sector pair that
/// maximizes received power from `a` to `b` (reciprocity makes the same
/// pair optimal in reverse, which is how real sector sweeps use it).
///
/// The sweep runs over a shared [`LinkGainCache`] (in simulations, the
/// medium's): the sector-pair gain table is memoized per device pair
/// (keyed by the explicit device indices), so retraining an unmoved,
/// unrotated pair — and the reverse-direction sweep — costs one lookup.
pub fn best_pair_with(
    cache: &mut LinkGainCache,
    env: &Environment,
    a: &Device,
    a_idx: usize,
    b: &Device,
    b_idx: usize,
) -> TrainingResult {
    let (a_sector, b_sector, lin) = cache.best_sector_pair(
        env,
        &a.node,
        a_idx,
        codebook(a),
        &b.node,
        b_idx,
        codebook(b),
    );
    TrainingResult {
        a_sector,
        b_sector,
        // The data link's power: no control-PHY boost.
        rx_dbm: gain_rx_dbm(env, lin, lin_to_db(lin), a.tx_power_offset_db, 0.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmwave_channel::CacheMode;
    use mmwave_geom::{Angle, Material, Point, Room, Segment};
    use mmwave_sim::ctx::SimCtx;

    /// One standalone sweep through a throwaway bypass-mode cache.
    fn best_pair(env: &Environment, a: &Device, b: &Device) -> TrainingResult {
        let mut scratch = LinkGainCache::with_ctx(&SimCtx::with_cache_mode(CacheMode::Bypass));
        best_pair_with(&mut scratch, env, a, 0, b, 1)
    }

    #[test]
    fn training_picks_sectors_facing_each_other() {
        let env = Environment::new(Room::open_space());
        let a = Device::wigig_dock(
            &SimCtx::new(),
            "dock",
            Point::new(0.0, 0.0),
            Angle::ZERO,
            13,
        );
        let b = Device::wigig_laptop(
            &SimCtx::new(),
            "laptop",
            Point::new(3.0, 0.0),
            Angle::from_degrees(180.0),
            11,
        );
        let r = best_pair(&env, &a, &b);
        // Both devices face each other, so the chosen sectors must steer
        // near their boresights (sector 15/16 of 32 spanning ±77.5°).
        let steer_a = a.wigig().expect("wigig").codebook.sector(r.a_sector).steer;
        let steer_b = b.wigig().expect("wigig").codebook.sector(r.b_sector).steer;
        assert!(steer_a.degrees().abs() < 15.0, "a steer {steer_a}");
        assert!(steer_b.degrees().abs() < 15.0, "b steer {steer_b}");
        assert!(
            r.rx_dbm > -60.0,
            "trained link should be strong: {}",
            r.rx_dbm
        );
    }

    #[test]
    fn training_beats_untrained_average() {
        let env = Environment::new(Room::open_space());
        let a = Device::wigig_dock(
            &SimCtx::new(),
            "dock",
            Point::new(0.0, 0.0),
            Angle::ZERO,
            13,
        );
        let b = Device::wigig_laptop(
            &SimCtx::new(),
            "laptop",
            Point::new(5.0, 2.0),
            Angle::from_degrees(-150.0),
            11,
        );
        let r = best_pair(&env, &a, &b);
        // Compare against the mid-codebook default pair.
        let paths = env.paths(a.node.position, b.node.position);
        let cb_a = &a.wigig().expect("wigig").codebook;
        let cb_b = &b.wigig().expect("wigig").codebook;
        let default_dbm = mmwave_channel::multipath_rx_dbm(
            &env,
            &paths,
            a.node.with_pattern(&cb_a.sector(0).pattern),
            b.node.with_pattern(&cb_b.sector(0).pattern),
            a.tx_power_offset_db,
            0.0,
        );
        assert!(r.rx_dbm > default_dbm + 5.0);
    }

    #[test]
    fn training_routes_around_blockage() {
        // LoS blocked, metal wall available: training must find sectors
        // pointing at the reflection, not at the (dead) direct path.
        let mut room = Room::open_space();
        room.add_wall(mmwave_geom::Wall::new(
            Segment::new(Point::new(-2.0, 1.5), Point::new(6.0, 1.5)),
            Material::Metal,
            "wall",
        ));
        room.add_obstacle(
            Segment::new(Point::new(2.0, -0.7), Point::new(2.0, 0.7)),
            Material::Absorber,
            "screen",
        );
        let env = Environment::new(room);
        let a = Device::wigig_dock(
            &SimCtx::new(),
            "dock",
            Point::new(0.0, 0.0),
            Angle::ZERO,
            13,
        );
        let b = Device::wigig_laptop(
            &SimCtx::new(),
            "laptop",
            Point::new(4.0, 0.0),
            Angle::from_degrees(180.0),
            11,
        );
        let r = best_pair(&env, &a, &b);
        // The chosen sector at `a` steers up towards the wall (positive
        // azimuth), not straight ahead.
        let steer_a = a.wigig().expect("wigig").codebook.sector(r.a_sector).steer;
        assert!(
            steer_a.degrees() > 10.0,
            "steer {steer_a} should aim at the reflector"
        );
        assert!(r.rx_dbm > -85.0, "reflected link usable: {}", r.rx_dbm);
    }

    #[test]
    fn shared_cache_retrain_is_a_table_lookup() {
        let env = Environment::new(Room::open_space());
        let a = Device::wigig_dock(
            &SimCtx::new(),
            "dock",
            Point::new(0.0, 0.0),
            Angle::ZERO,
            13,
        );
        let b = Device::wigig_laptop(
            &SimCtx::new(),
            "laptop",
            Point::new(3.0, 0.0),
            Angle::from_degrees(180.0),
            11,
        );
        let mut cache = LinkGainCache::with_ctx(&SimCtx::new());
        let first = best_pair_with(&mut cache, &env, &a, 0, &b, 1);
        let again = best_pair_with(&mut cache, &env, &a, 0, &b, 1);
        // The reverse sweep reuses the same table with swapped sectors.
        let rev = best_pair_with(&mut cache, &env, &b, 1, &a, 0);
        assert_eq!(
            (first.a_sector, first.b_sector),
            (again.a_sector, again.b_sector)
        );
        assert_eq!(
            (rev.a_sector, rev.b_sector),
            (first.b_sector, first.a_sector)
        );
        let s = cache.stats();
        assert_eq!(s.table_builds, 1, "one build serves all three sweeps");
        assert_eq!(s.table_hits, 2);
        // Same selection as the standalone (uncached) sweep.
        let standalone = best_pair(&env, &a, &b);
        assert_eq!(
            (first.a_sector, first.b_sector),
            (standalone.a_sector, standalone.b_sector)
        );
        assert!((first.rx_dbm - standalone.rx_dbm).abs() < 1e-12);
    }

    #[test]
    fn training_accounts_for_tx_power_offset() {
        let env = Environment::new(Room::open_space());
        let mut a =
            Device::wihd_source(&SimCtx::new(), "tx", Point::new(0.0, 0.0), Angle::ZERO, 21);
        let b = Device::wihd_sink(
            &SimCtx::new(),
            "rx",
            Point::new(8.0, 0.0),
            Angle::from_degrees(180.0),
            22,
        );
        let hot = best_pair(&env, &a, &b).rx_dbm;
        a.tx_power_offset_db = 0.0;
        let cold = best_pair(&env, &a, &b).rx_dbm;
        assert!((hot - cold - 8.0).abs() < 0.5, "hot {hot} cold {cold}");
    }
}
