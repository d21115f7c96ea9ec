//! Rotation-scan angular profiles (§3.2, Figs. 4 and 18–20).
//!
//! The Vubiq sits on a programmable rotation stage at a probe position and
//! sweeps a highly directional horn through the full circle; incident
//! power per look direction forms the angular profile. Against an *active
//! link*, the profile mixes both link directions weighted by their
//! airtime, exactly as the paper's dwell-and-average procedure does.

use mmwave_capture::scan::{angular_profile, AngularProfile};
use mmwave_channel::{path_rx_dbm, LinkEnd};
use mmwave_geom::{Angle, Point};
use mmwave_mac::{Net, PatKey};
use mmwave_phy::{db_to_lin, lin_to_db};
use mmwave_sim::hash::FastMap;
use mmwave_sim::time::SimTime;

/// Measure the angular profile at `probe`: for each of `n_dirs` look
/// directions, the airtime-weighted average incident power of every
/// logged transmission in the window.
///
/// Implementation note: the log is first collapsed into per
/// `(source, pattern)` contributions — for each, the ray trace and the
/// transmit-side gains are computed once, and only the horn's receive
/// gain varies with the look direction. This keeps the 6-probe ×
/// 120-direction scans of Figs. 18/19 fast.
pub fn measure_profile(
    net: &Net,
    probe: Point,
    n_dirs: usize,
    from: SimTime,
    to: SimTime,
) -> AngularProfile {
    // Per (src, pattern) combination, in the order each first appears in
    // the log (so every sum below runs in one fixed order): its airtime
    // and its power boost.
    let mut combos: Vec<((usize, PatKey), f64, f64)> = Vec::new();
    let mut slot_of: FastMap<(usize, PatKey), usize> = FastMap::default();
    for e in net.txlog().in_window(from, to) {
        let key = (e.src, e.pattern);
        let slot = *slot_of.entry(key).or_insert_with(|| {
            combos.push((key, 0.0, 0.0));
            combos.len() - 1
        });
        combos[slot].1 += (e.end - e.start).as_secs_f64();
        // Control-PHY frames carry the boost; a (src, pattern) combo is
        // only ever used by one class in practice, so last-write wins.
        combos[slot].2 = e.class.extra_power_db();
    }
    let total_time: f64 = combos.iter().map(|&(_, t, _)| t).sum();
    // Per combination: (arrival azimuth, linear power *without* the horn
    // gain, i.e. at an isotropic 0 dBi receiver) for every path, scaled by
    // the combo's airtime share.
    let mut components: Vec<(Angle, f64)> = Vec::new();
    let horn = mmwave_phy::horn_25dbi();
    let unit = mmwave_phy::AntennaPattern::isotropic(0.0);
    let at_probe = LinkEnd::new(Angle::ZERO, &unit);
    for &((src, pat), t, extra_db) in &combos {
        let dev = net.device(src);
        let paths = net.env.paths(dev.node.position, probe);
        let tx = dev.node.with_pattern(dev.pattern(pat));
        for path in &paths {
            let dbm = path_rx_dbm(
                &net.env,
                path,
                tx,
                at_probe,
                dev.tx_power_offset_db,
                extra_db,
            );
            components.push((path.arrival, db_to_lin(dbm) * t / total_time.max(1e-12)));
        }
    }
    angular_profile(n_dirs, |look: Angle| {
        if components.is_empty() {
            return -120.0;
        }
        let lin: f64 = components
            .iter()
            .map(|(arrival, base)| base * db_to_lin(horn.gain_dbi(arrival.diff(look))))
            .sum();
        lin_to_db(lin)
    })
}

/// Attribution helpers: expected arrival directions at a probe.
pub struct Expected {
    /// Direction towards the transmitter (LoS).
    pub toward_tx: Angle,
    /// Direction towards the receiver (its ACK/beacon traffic).
    pub toward_rx: Angle,
}

/// Compute the LoS arrival directions at `probe` for a TX/RX pair.
pub fn expected_directions(net: &Net, probe: Point, tx: usize, rx: usize) -> Expected {
    let t = net.device(tx).node.position;
    let r = net.device(rx).node.position;
    Expected {
        toward_tx: Angle::from_radians((t - probe).angle()),
        toward_rx: Angle::from_radians((r - probe).angle()),
    }
}

/// Lobes of a profile that do **not** point at either link endpoint —
/// the paper's indicator of wall reflections ("additional lobes … do not
/// point to any of the devices in the room").
pub fn unattributed_lobes(
    profile: &AngularProfile,
    expected: &Expected,
    tolerance: f64,
    min_prominence_db: f64,
    max_below_peak_db: f64,
) -> Vec<Angle> {
    let pattern = profile.as_pattern();
    let peak = pattern.peak().gain_dbi;
    pattern
        .lobes(min_prominence_db)
        .into_iter()
        .filter(|l| l.gain_dbi >= peak - max_below_peak_db)
        .map(|l| l.direction)
        .filter(|d| {
            d.distance(expected.toward_tx) > tolerance && d.distance(expected.toward_rx) > tolerance
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::{reflection_room, ReflectionRoom, RoomSystem};
    use mmwave_mac::NetConfig;
    use mmwave_sim::ctx::SimCtx;

    /// The conference room after 40 ms of data on its WiGig link (the
    /// laptop transmits).
    fn loaded_wigig_room() -> ReflectionRoom {
        let mut r = reflection_room(
            &SimCtx::new(),
            RoomSystem::Wigig,
            NetConfig {
                seed: 5,
                enable_fading: false,
                ..NetConfig::default()
            },
        );
        for i in 0..2000u64 {
            r.net.push_mpdu(r.tx, 1500, i);
        }
        r.net.run_until(SimTime::from_millis(40));
        r
    }

    #[test]
    fn profile_of_active_wigig_link_sees_both_endpoints() {
        let r = loaded_wigig_room();
        let probe = r.layout.probe('A');
        let profile = measure_profile(&r.net, probe, 120, SimTime::ZERO, SimTime::from_millis(40));
        let exp = expected_directions(&r.net, probe, r.tx, r.rx);
        // Lobes towards the transmitter and the receiver (§4.3: "one
        // pointing to the transmitter and one pointing to the receiver").
        assert!(
            profile.has_lobe_toward(exp.toward_tx, 20f64.to_radians(), 1.0, 20.0),
            "no TX lobe"
        );
        assert!(
            profile.has_lobe_toward(exp.toward_rx, 20f64.to_radians(), 1.0, 20.0),
            "no RX lobe"
        );
    }

    #[test]
    fn repeat_profiles_are_bit_identical() {
        // Every sum runs in log order, so measuring the same window of the
        // same net twice gives the same bits.
        let r = loaded_wigig_room();
        let probe = r.layout.probe('A');
        let bits = || -> Vec<u64> {
            measure_profile(&r.net, probe, 120, SimTime::ZERO, SimTime::from_millis(40))
                .points()
                .iter()
                .map(|p| p.power_dbm.to_bits())
                .collect()
        };
        let first = bits();
        for call in 1..=8 {
            assert!(bits() == first, "call {call} changed the bits");
        }
    }

    #[test]
    fn expected_directions_geometry() {
        let r = reflection_room(
            &SimCtx::new(),
            RoomSystem::Wigig,
            NetConfig {
                seed: 6,
                enable_fading: false,
                ..NetConfig::default()
            },
        );
        let probe = r.layout.probe('C'); // upper row, left third
        let exp = expected_directions(&r.net, probe, r.tx, r.rx);
        // TX is to the right of C, RX to the left.
        assert!(exp.toward_tx.degrees().abs() < 45.0, "{}", exp.toward_tx);
        assert!(exp.toward_rx.degrees().abs() > 135.0, "{}", exp.toward_rx);
    }
}
