//! §5, principle 2: *"MAC layer designs which exploit the sparsity of
//! 60 GHz signals … should extend this geometric approach to include up
//! to two signal reflections off walls or obstacles if possible."*
//!
//! The prototype: an interference map. For every (transmitter, victim
//! receiver) pair it predicts whether a concurrent transmission would
//! disturb the victim, using the trained patterns and the ray tracer at a
//! configurable reflection order. A geometry-only MAC corresponds to
//! order 0 (line of sight); the paper's recommendation is order 2.

use mmwave_channel::multipath_rx_dbm;
use mmwave_mac::{Net, PatKey};

/// A directed link (transmitter index, receiver index).
pub type Link = (usize, usize);

/// Predicted interference of `tx`'s transmissions at `victim_rx`, dBm,
/// considering propagation paths up to `max_order` reflections and both
/// ends' current (trained) patterns.
pub fn predicted_interference_dbm(net: &Net, tx: usize, victim_rx: usize, max_order: usize) -> f64 {
    let tx_dev = net.device(tx);
    let rx_dev = net.device(victim_rx);
    let tx_key = match tx_dev.wigig() {
        Some(w) => PatKey::Dir(w.tx_sector),
        None => PatKey::Dir(tx_dev.wihd().map(|w| w.tx_sector).unwrap_or(0)),
    };
    let tx_end = tx_dev.node.with_pattern(tx_dev.pattern(tx_key));
    let rx_end = rx_dev
        .node
        .with_pattern(rx_dev.pattern(rx_dev.listen_key()));
    let mut paths = net.env.paths(tx_dev.node.position, rx_dev.node.position);
    paths.retain(|p| p.order() <= max_order);
    // Data frames: no control-PHY boost.
    multipath_rx_dbm(
        &net.env,
        &paths,
        tx_end,
        rx_end,
        tx_dev.tx_power_offset_db,
        0.0,
    )
}

/// The conflict matrix: `conflicts[i][j]` is true when link `i`'s
/// transmitter is predicted to disturb link `j`'s receiver above
/// `threshold_dbm` (links never conflict with themselves).
#[derive(Clone, Debug)]
pub struct InterferenceMap {
    /// Predicted interference levels, dBm: `levels[i][j]` from link i's TX
    /// at link j's RX.
    pub levels: Vec<Vec<f64>>,
    /// Conflict verdicts at the construction threshold.
    pub conflicts: Vec<Vec<bool>>,
}

/// Build the map for a set of links.
pub fn interference_map(
    net: &Net,
    links: &[Link],
    threshold_dbm: f64,
    max_order: usize,
) -> InterferenceMap {
    let n = links.len();
    let mut levels = vec![vec![f64::NEG_INFINITY; n]; n];
    let mut conflicts = vec![vec![false; n]; n];
    for (i, &(tx, _)) in links.iter().enumerate() {
        for (j, &(_, rx)) in links.iter().enumerate() {
            if i == j {
                continue;
            }
            let p = predicted_interference_dbm(net, tx, rx, max_order);
            levels[i][j] = p;
            conflicts[i][j] = p > threshold_dbm;
        }
    }
    InterferenceMap { levels, conflicts }
}

impl InterferenceMap {
    /// Pairs of links the map would schedule concurrently (no conflict in
    /// either direction).
    pub fn reusable_pairs(&self) -> Vec<(usize, usize)> {
        let n = self.conflicts.len();
        let mut out = Vec::new();
        for i in 0..n {
            for j in i + 1..n {
                if !self.conflicts[i][j] && !self.conflicts[j][i] {
                    out.push((i, j));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::{interference_floor, reflector_rig};
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

    /// The Fig. 7 rig is the paper's own counter-example to geometry-only
    /// MACs: the direct path is shielded, so an order-0 map sees no
    /// conflict — yet the metal reflector delivers real interference. The
    /// order-≥1 map catches it.
    #[test]
    fn reflection_aware_map_catches_the_fig7_conflict() {
        let r = reflector_rig(&SimCtx::new(), quiet(1));
        // WiHD TX versus the WiGig link's receiver (the dock).
        let blind = predicted_interference_dbm(&r.net, r.hdmi_tx, r.dock, 0);
        let aware = predicted_interference_dbm(&r.net, r.hdmi_tx, r.dock, 2);
        assert!(blind < -100.0, "direct path is shielded: {blind}");
        assert!(
            aware > -72.0,
            "reflected interference must be visible: {aware}"
        );
        // And the interference is real: the fig23 experiment measures an
        // actual TCP degradation from exactly this path.
    }

    /// On the open interference floor the two WiGig links genuinely reuse
    /// space; the map must say so at any order (no false conflicts).
    #[test]
    fn parallel_links_are_reusable() {
        let f = interference_floor(&SimCtx::new(), 1.5, Angle::ZERO, quiet(2));
        let links = [(f.dock_a, f.laptop_a), (f.dock_b, f.laptop_b)];
        let map = interference_map(&f.net, &links, -64.0, 2);
        assert_eq!(map.reusable_pairs(), vec![(0, 1)]);
    }

    /// The WiHD transmitter, in contrast, conflicts with the nearby dock
    /// link at small offsets and stops conflicting at large ones — the
    /// Fig. 22 sweep, predicted geometrically.
    #[test]
    fn map_tracks_the_fig22_distance_sweep() {
        let level_at = |off: f64| {
            let f = interference_floor(&SimCtx::new(), off, Angle::ZERO, quiet(3));
            predicted_interference_dbm(&f.net, f.hdmi_tx, f.laptop_b, 2)
        };
        let near = level_at(0.4);
        let far = level_at(3.0);
        assert!(
            near > far,
            "interference must decline with offset: {near} vs {far}"
        );
    }

    /// Ground-truth check: running the Fig. 7 rig, the dock's reception
    /// actually suffers (deferrals or corrupted frames) — the conflict the
    /// order-2 map predicted and the order-0 map missed.
    #[test]
    fn predicted_conflict_is_real() {
        let r = reflector_rig(&SimCtx::new(), quiet(4));
        let (dock, laptop) = (r.dock, r.laptop);
        let mut net = r.net;
        for i in 0..600u64 {
            net.push_mpdu(laptop, 1500, i);
        }
        net.run_until(SimTime::from_millis(100));
        let st = net.device(dock).stats;
        let sl = net.device(laptop).stats;
        assert!(
            st.cs_defers + sl.cs_defers + sl.ack_timeouts > 0,
            "the reflected interference should visibly disturb the link"
        );
    }
}
