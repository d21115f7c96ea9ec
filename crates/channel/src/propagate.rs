//! Pattern-weighted multipath power and SINR.
//!
//! [`link_state`] computes a link from first principles: every traced
//! path, weighted by both antenna patterns, in one power sum. It is the
//! reference that the spatial-pruning audit in `mmwave_mac::Medium` and
//! the pruning property tests check against. The other radiometric
//! consumers sum the same per-path terms in their own loops:
//!
//! * the MAC's frame delivery and interference read
//!   [`crate::LinkGainCache`], memoized per device pair and pattern;
//! * capture-trace amplitudes come from `mmwave_core::replay`'s per-path
//!   sum at the tap;
//! * Fig. 22's busy-segment monitor sums in `Net::record_monitors`;
//! * the angular-profile scans sum in `mmwave_core`'s
//!   `analysis::reflections::measure_profile`.
//!
//! Multipath components combine *incoherently* (power sum): with
//! 1.76 GHz of bandwidth, path delay differences of even 20 cm exceed the
//! symbol period, so paths do not interfere coherently at the detector —
//! they act as separate energy contributions (and as self-interference
//! only through equalizer limits, which the implementation-loss budget
//! absorbs).

use crate::environment::Environment;
use crate::node::RadioNode;
use mmwave_geom::PropPath;
use mmwave_phy::{db_to_lin, lin_to_db, AntennaPattern};

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

impl LinkState {
    /// The strongest path, if any path exists.
    pub fn dominant(&self) -> Option<&PathGain> {
        self.paths.first()
    }

    /// True if no energy arrives at all (fully blocked, no reflections).
    pub fn is_disconnected(&self) -> bool {
        self.paths.is_empty()
    }

    /// SNR of the total received power against the environment noise floor.
    pub fn snr_db(&self, noise_floor_dbm: f64) -> f64 {
        self.total_dbm - noise_floor_dbm
    }
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
    let geo_paths = env.paths(tx.position, rx.position);
    let mut paths: Vec<PathGain> = geo_paths
        .into_iter()
        .map(|path| {
            let tx_gain = tx.gain_toward(tx_pattern, path.departure);
            let rx_gain = rx.gain_toward(rx_pattern, path.arrival);
            let rx_dbm = env.budget.rx_power_dbm(tx_gain, rx_gain, &path) - env.extra_loss_db;
            PathGain { path, rx_dbm }
        })
        .collect();
    paths.sort_by(|a, b| b.rx_dbm.partial_cmp(&a.rx_dbm).expect("finite powers"));
    let total_dbm = lin_to_db(paths.iter().map(|p| db_to_lin(p.rx_dbm)).sum());
    LinkState { paths, total_dbm }
}

/// SINR in dB: `serving` against the power sum of `interferers` plus the
/// thermal noise floor.
pub fn sinr_db(serving_dbm: f64, interferers_dbm: &[f64], noise_floor_dbm: f64) -> f64 {
    let denom =
        db_to_lin(noise_floor_dbm) + interferers_dbm.iter().map(|&p| db_to_lin(p)).sum::<f64>();
    serving_dbm - lin_to_db(denom)
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
        assert!(!st.is_disconnected());
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
        assert!(!st.is_disconnected(), "reflection must survive blockage");
        let dom = st.dominant().expect("path");
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
        assert!(st.is_disconnected());
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
        let dom = st.dominant().expect("dominant").rx_dbm;
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
    fn sinr_reduces_with_interference() {
        let noise = -71.5;
        let clean = sinr_db(-50.0, &[], noise);
        assert!((clean - 21.5).abs() < 1e-9);
        // An interferer at the noise floor costs ≈ 3 dB.
        let one = sinr_db(-50.0, &[noise], noise);
        assert!((clean - one - 3.01).abs() < 0.01);
        // A dominant interferer sets the SIR.
        let strong = sinr_db(-50.0, &[-45.0], noise);
        assert!((strong + 5.0).abs() < 0.1, "{strong}");
    }
}
