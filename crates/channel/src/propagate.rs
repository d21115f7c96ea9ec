//! The link budget's one home: every received power in the workspace is
//! [`path_rx_dbm`] (one path), [`multipath_rx_dbm`] (their incoherent sum,
//! in path order) or [`gain_rx_dbm`] (the same tail on a memoized
//! [`crate::LinkGainCache`] gain: the MAC's frame delivery, interference
//! and sector training). [`link_state`] is the reference the pruning audit
//! in `mmwave_mac::Medium` and the pruning property tests check against;
//! Fig. 22's monitor, `mmwave_core::replay`'s trace amplitudes, the
//! angular-profile scans, Fig. 14's probe and the geometric MAC's
//! interference map call the sum or the term directly.
//!
//! Multipath components combine *incoherently* (power sum): with
//! 1.76 GHz of bandwidth, path delay differences of even 20 cm exceed the
//! symbol period, so paths do not interfere coherently at the detector —
//! they act as separate energy contributions (and as self-interference
//! only through equalizer limits, which the implementation-loss budget
//! absorbs).

use crate::environment::Environment;
use crate::node::RadioNode;
use mmwave_geom::{Angle, PropPath};
use mmwave_phy::{db_to_lin, lin_to_db, AntennaPattern};

/// One end of a link as the budget sees it: the world azimuth its array
/// boresight points at and the pattern it radiates or listens with.
#[derive(Clone, Copy, Debug)]
pub struct LinkEnd<'a> {
    /// World azimuth of the array boresight.
    pub boresight: Angle,
    /// The pattern in use.
    pub pattern: &'a AntennaPattern,
}

impl<'a> LinkEnd<'a> {
    /// An end whose boresight points at `boresight`, using `pattern`.
    pub fn new(boresight: Angle, pattern: &'a AntennaPattern) -> LinkEnd<'a> {
        LinkEnd { boresight, pattern }
    }

    /// Gain towards the world azimuth `world_dir`, in dBi.
    pub fn gain_toward(&self, world_dir: Angle) -> f64 {
        self.pattern.gain_dbi(world_dir - self.boresight)
    }
}

/// One path with its received power after pattern weighting.
#[derive(Clone, Debug)]
pub struct PathGain {
    /// The underlying geometric path.
    pub path: PropPath,
    /// Received power over this path, dBm.
    pub rx_dbm: f64,
}

/// The radiometric state of a directed link for fixed patterns.
#[derive(Clone, Debug)]
pub struct LinkState {
    /// All contributing paths, sorted by descending received power.
    pub paths: Vec<PathGain>,
    /// Incoherent total received power, dBm (−300 if no path exists).
    pub total_dbm: f64,
}

/// Received power over `path` from `tx` at `rx`, dBm: the budget with both
/// pattern gains, then the transmitter's `tx_power_offset_db`, the frame's
/// `extra_power_db` and the scene's `extra_loss_db`, added in that order.
pub fn path_rx_dbm(
    env: &Environment,
    path: &PropPath,
    tx: LinkEnd,
    rx: LinkEnd,
    tx_power_offset_db: f64,
    extra_power_db: f64,
) -> f64 {
    let (ga, gb) = (tx.gain_toward(path.departure), rx.gain_toward(path.arrival));
    env.budget.rx_power_dbm(ga, gb, path) + tx_power_offset_db + extra_power_db - env.extra_loss_db
}

/// Incoherent power sum of [`path_rx_dbm`] over `paths`, in path order,
/// dBm (−300 when no path exists).
pub fn multipath_rx_dbm(
    env: &Environment,
    paths: &[PropPath],
    tx: LinkEnd,
    rx: LinkEnd,
    tx_power_offset_db: f64,
    extra_power_db: f64,
) -> f64 {
    let lin: f64 = paths
        .iter()
        .map(|p| path_rx_dbm(env, p, tx, rx, tx_power_offset_db, extra_power_db))
        .map(db_to_lin)
        .sum();
    lin_to_db(lin)
}

/// Received power, dBm, from a memoized pattern-weighted link gain
/// (`gain_lin`, and `gain_db`, its dB form): conducted power and
/// implementation loss, then [`path_rx_dbm`]'s offsets in its order; −300
/// when no path carries energy.
pub fn gain_rx_dbm(
    env: &Environment,
    gain_lin: f64,
    gain_db: f64,
    tx_power_offset_db: f64,
    extra_power_db: f64,
) -> f64 {
    if gain_lin <= 0.0 {
        return -300.0;
    }
    gain_db + env.budget.tx_power_dbm - env.budget.implementation_loss_db
        + tx_power_offset_db
        + extra_power_db
        - env.extra_loss_db
}

/// Compute the link state from `tx` (radiating `tx_pattern`) to `rx`
/// (listening with `rx_pattern`) in `env`.
pub fn link_state(
    env: &Environment,
    tx: &RadioNode,
    tx_pattern: &AntennaPattern,
    rx: &RadioNode,
    rx_pattern: &AntennaPattern,
) -> LinkState {
    let (te, re) = (tx.with_pattern(tx_pattern), rx.with_pattern(rx_pattern));
    let geo_paths = env.paths(tx.position, rx.position);
    let total_dbm = multipath_rx_dbm(env, &geo_paths, te, re, 0.0, 0.0);
    let mut paths: Vec<PathGain> = geo_paths
        .into_iter()
        .map(|path| PathGain {
            rx_dbm: path_rx_dbm(env, &path, te, re, 0.0, 0.0),
            path,
        })
        .collect();
    paths.sort_by(|a, b| b.rx_dbm.partial_cmp(&a.rx_dbm).expect("finite powers"));
    LinkState { paths, total_dbm }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmwave_geom::{Angle, Material, Point, Room, Segment, Wall};
    use mmwave_phy::{horn_25dbi, AntennaPattern};

    fn iso() -> AntennaPattern {
        AntennaPattern::isotropic(0.0)
    }

    fn open_env() -> Environment {
        Environment::new(Room::open_space())
    }

    #[test]
    fn los_link_power_matches_budget() {
        let env = open_env();
        let tx = RadioNode::new(0, "tx", Point::new(0.0, 0.0), Angle::ZERO);
        let rx = RadioNode::new(1, "rx", Point::new(2.0, 0.0), Angle::from_degrees(180.0));
        let st = link_state(&env, &tx, &iso(), &rx, &iso());
        assert_eq!(st.paths.len(), 1);
        // 7 dBm − FSPL(2 m ≈ 74.1 dB) − impl 9.5 dB ≈ −76.6 dBm.
        assert!((st.total_dbm + 76.6).abs() < 0.3, "{}", st.total_dbm);
    }

    #[test]
    fn directional_gain_applies_along_departure() {
        let env = open_env();
        let tx = RadioNode::new(0, "tx", Point::new(0.0, 0.0), Angle::ZERO);
        let rx = RadioNode::new(1, "rx", Point::new(3.0, 0.0), Angle::from_degrees(180.0));
        let omni = link_state(&env, &tx, &iso(), &rx, &iso()).total_dbm;
        // A 25 dBi horn facing the receiver adds exactly its boresight gain.
        let horned = link_state(&env, &tx, &horn_25dbi(), &rx, &iso()).total_dbm;
        assert!((horned - omni - 25.0).abs() < 0.05);
        // Facing away, the horn's floor (25−35 = −10 dBi) applies.
        let mut tx_away = tx.clone();
        tx_away.orientation = Angle::from_degrees(180.0);
        let away = link_state(&env, &tx_away, &horn_25dbi(), &rx, &iso()).total_dbm;
        assert!((away - omni + 10.0).abs() < 0.05);
    }

    #[test]
    fn extra_loss_shifts_everything() {
        let mut env = open_env();
        let tx = RadioNode::new(0, "tx", Point::new(0.0, 0.0), Angle::ZERO);
        let rx = RadioNode::new(1, "rx", Point::new(5.0, 0.0), Angle::ZERO);
        let base = link_state(&env, &tx, &iso(), &rx, &iso()).total_dbm;
        env.extra_loss_db = 3.0;
        let lossy = link_state(&env, &tx, &iso(), &rx, &iso()).total_dbm;
        assert!((base - lossy - 3.0).abs() < 1e-9);
    }

    #[test]
    fn blocked_link_uses_reflection() {
        let mut room = Room::open_space();
        room.add_wall(Wall::new(
            Segment::new(Point::new(-1.0, 2.0), Point::new(7.0, 2.0)),
            Material::Metal,
            "wall",
        ));
        room.add_obstacle(
            Segment::new(Point::new(3.0, -1.0), Point::new(3.0, 1.0)),
            Material::Human,
            "blocker",
        );
        let env = Environment::new(room);
        let tx = RadioNode::new(0, "tx", Point::new(0.0, 0.0), Angle::ZERO);
        let rx = RadioNode::new(1, "rx", Point::new(6.0, 0.0), Angle::ZERO);
        let st = link_state(&env, &tx, &iso(), &rx, &iso());
        let dom = st.paths.first().expect("reflection must survive blockage");
        assert_eq!(dom.path.order(), 1, "dominant path must be the wall bounce");
    }

    #[test]
    fn fully_shielded_link_disconnects() {
        let mut room = Room::open_space();
        // Absorber box around the receiver.
        let p = Point::new;
        for (a, b) in [
            (p(4.0, -1.0), p(4.0, 1.0)),
            (p(6.0, -1.0), p(6.0, 1.0)),
            (p(4.0, 1.0), p(6.0, 1.0)),
            (p(4.0, -1.0), p(6.0, -1.0)),
        ] {
            room.add_obstacle(Segment::new(a, b), Material::Absorber, "shield");
        }
        let env = Environment::new(room);
        let tx = RadioNode::new(0, "tx", p(0.0, 0.0), Angle::ZERO);
        let rx = RadioNode::new(1, "rx", p(5.0, 0.0), Angle::ZERO);
        let st = link_state(&env, &tx, &iso(), &rx, &iso());
        assert!(st.paths.is_empty());
        assert_eq!(st.total_dbm, -300.0);
    }

    #[test]
    fn multipath_total_exceeds_dominant() {
        let room = Room::rectangular(
            8.0,
            4.0,
            (
                Material::Metal,
                Material::Metal,
                Material::Metal,
                Material::Metal,
            ),
        );
        let env = Environment::new(room);
        let tx = RadioNode::new(0, "tx", Point::new(1.0, 2.0), Angle::ZERO);
        let rx = RadioNode::new(1, "rx", Point::new(7.0, 2.0), Angle::ZERO);
        let st = link_state(&env, &tx, &iso(), &rx, &iso());
        assert!(st.paths.len() > 3);
        let dom = st.paths[0].rx_dbm;
        assert!(st.total_dbm > dom);
        assert!(
            st.total_dbm < dom + 10.0,
            "reflections cannot dwarf LoS here"
        );
        // Sorted descending.
        for w in st.paths.windows(2) {
            assert!(w[0].rx_dbm >= w[1].rx_dbm);
        }
    }

    #[test]
    fn offsets_and_the_cached_tail_add_alike() {
        let mut env = open_env();
        env.extra_loss_db = 1.5;
        let paths = env.paths(Point::new(0.0, 0.0), Point::new(4.0, 0.0));
        let (pat, iso) = (horn_25dbi(), iso());
        let tx = LinkEnd::new(Angle::ZERO, &pat);
        let rx = LinkEnd::new(Angle::from_degrees(180.0), &iso);
        let base = multipath_rx_dbm(&env, &paths, tx, rx, 0.0, 0.0);
        let hot = multipath_rx_dbm(&env, &paths, tx, rx, 8.0, 6.0);
        assert!((hot - base - 14.0).abs() < 1e-9, "{hot} vs {base}");
        // One LoS path: its term is the whole sum.
        assert_eq!(paths.len(), 1);
        let term = path_rx_dbm(&env, &paths[0], tx, rx, 8.0, 6.0);
        assert!((term - hot).abs() < 1e-9, "{term} vs {hot}");
        // The cached-gain tail: the same budget from the pattern-weighted
        // linear gain 10^((g_tx + g_rx − loss)/10).
        let g = tx.gain_toward(paths[0].departure) + rx.gain_toward(paths[0].arrival)
            - mmwave_phy::path_loss_db(env.budget.freq_hz, &paths[0]);
        let cached = gain_rx_dbm(&env, db_to_lin(g), g, 8.0, 6.0);
        assert!((cached - hot).abs() < 1e-9, "{cached} vs {hot}");
        // No path: the quiet-channel floor, whatever the offsets.
        assert_eq!(multipath_rx_dbm(&env, &[], tx, rx, 8.0, 6.0), -300.0);
        assert_eq!(gain_rx_dbm(&env, 0.0, -300.0, 8.0, 6.0), -300.0);
    }
}
