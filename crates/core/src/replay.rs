//! Replaying a transmission log into oscilloscope traces.
//!
//! The MAC records *what was on the air*; this module computes *what a
//! Vubiq at a given position would have seen*: each logged transmission's
//! incident power at the tap (through the channel model, with the actual
//! transmit pattern and the tap's antenna), converted to volts by the
//! receiver model. The result is a [`SignalTrace`] that the capture
//! crate's detectors consume — the exact pipeline of §3.2.

use mmwave_capture::trace::SegmentTag;
use mmwave_capture::{SignalTrace, VubiqReceiver};
use mmwave_channel::{multipath_rx_dbm, LinkEnd};
use mmwave_geom::{Angle, Point, PropPath};
use mmwave_mac::{Net, TxLogEntry};
use mmwave_phy::{db_to_lin, lin_to_db};
use mmwave_sim::hash::FastMap;
use mmwave_sim::time::SimTime;

/// Where the capture equipment sits and what it points at.
#[derive(Clone, Debug)]
pub struct TapConfig {
    /// Tap position.
    pub position: Point,
    /// Azimuth the antenna boresight faces.
    pub orientation: Angle,
    /// The receiver front end (horn or waveguide, gain setting).
    pub receiver: VubiqReceiver,
}

impl TapConfig {
    /// A horn-equipped tap at `position` looking along `orientation`.
    pub fn horn(position: Point, orientation: Angle) -> TapConfig {
        TapConfig {
            position,
            orientation,
            receiver: VubiqReceiver::with_horn(),
        }
    }

    /// An open-waveguide tap (protocol analysis).
    pub fn waveguide(position: Point, orientation: Angle) -> TapConfig {
        TapConfig {
            position,
            orientation,
            receiver: VubiqReceiver::with_waveguide(),
        }
    }
}

/// Replay the net's transmission log over `[from, to)` into a trace at
/// the tap. Transmissions below the receiver noise floor are still
/// recorded (at their tiny amplitude); the detector decides visibility.
///
/// Each frame is replayed from the source pose logged at transmission
/// time, but its paths are traced in the room as it stands at replay time:
/// wall and obstacle moves inside the window are not replayed.
pub fn replay_trace(net: &Net, tap: &TapConfig, from: SimTime, to: SimTime) -> SignalTrace {
    let mut trace = tap.receiver.begin_capture(from, to);
    // Cache paths per (source, logged position): scenario mobility can move
    // a device mid-run, so a replay must trace from where the source stood
    // at transmission time — the log records that pose per entry.
    let mut paths: FastMap<(usize, u64, u64), Vec<PropPath>> = FastMap::default();
    for e in net.txlog().in_window(from, to) {
        let p = paths
            .entry((
                e.src,
                e.src_position.x.to_bits(),
                e.src_position.y.to_bits(),
            ))
            .or_insert_with(|| net.env.paths(e.src_position, tap.position));
        tap.receiver.record(
            &mut trace,
            e.start,
            e.end,
            frame_power_dbm(net, tap, e, p),
            SegmentTag {
                source: e.src,
                class: e.class.as_u8(),
            },
        );
    }
    trace
}

/// Incident power (dBm) at the tap of logged transmission `e` over
/// `paths`: its source's logged pose and pattern, and its class's power
/// boost (§3.2), exactly as the medium sent it.
fn frame_power_dbm(net: &Net, tap: &TapConfig, e: &TxLogEntry, paths: &[PropPath]) -> f64 {
    let dev = net.device(e.src);
    multipath_rx_dbm(
        &net.env,
        paths,
        LinkEnd::new(e.src_orientation, dev.pattern(e.pattern)),
        LinkEnd::new(tap.orientation, &tap.receiver.antenna),
        dev.tx_power_offset_db,
        e.class.extra_power_db(),
    )
}

/// Incident power (dBm) of one logged transmission at a tap.
pub fn incident_power_dbm(net: &Net, tap: &TapConfig, e: &TxLogEntry) -> f64 {
    frame_power_dbm(net, tap, e, &net.env.paths(e.src_position, tap.position))
}

/// Average incident power (dBm) of logged *data-class* frames at the tap —
/// the "signal strength from data frames only" average of §3.2's beam
/// pattern methodology. Returns `None` if no matching frame is in window.
pub fn mean_data_power_dbm(
    net: &Net,
    tap: &TapConfig,
    src: usize,
    from: SimTime,
    to: SimTime,
) -> Option<f64> {
    let trace = replay_trace(net, tap, from, to);
    let data_class = mmwave_mac::FrameClass::Data.as_u8();
    let wihd_data = mmwave_mac::FrameClass::WihdData.as_u8();
    let mut lin_sum = 0.0;
    let mut n = 0usize;
    for seg in trace.segments() {
        if seg.tag.source == src && (seg.tag.class == data_class || seg.tag.class == wihd_data) {
            lin_sum += db_to_lin(tap.receiver.volts_to_power_dbm(seg.amplitude_v.max(1e-9)));
            n += 1;
        }
    }
    (n > 0).then(|| lin_to_db(lin_sum / n as f64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::{point_to_point, seeds};
    use mmwave_mac::NetConfig;
    use mmwave_sim::ctx::SimCtx;

    fn quiet(seed: u64) -> NetConfig {
        NetConfig {
            seed,
            enable_fading: false,
            ..NetConfig::default()
        }
    }

    #[test]
    fn replay_produces_segments_for_active_link() {
        let mut p = point_to_point(&SimCtx::new(), 2.0, quiet(1));
        for i in 0..20u64 {
            p.net.push_mpdu(p.dock, 1500, i);
        }
        p.net.run_until(SimTime::from_millis(10));
        let tap = TapConfig::waveguide(Point::new(1.0, 0.6), Angle::from_degrees(-90.0));
        let trace = replay_trace(&p.net, &tap, SimTime::ZERO, SimTime::from_millis(10));
        assert!(
            trace.segments().len() > 20,
            "{} segments",
            trace.segments().len()
        );
        // The trace covers exactly the log window.
        assert_eq!(trace.window_start, SimTime::ZERO);
        assert_eq!(trace.window_end, SimTime::from_millis(10));
    }

    #[test]
    fn horn_pointing_matters() {
        let mut p = point_to_point(&SimCtx::new(), 2.0, quiet(2));
        for i in 0..20u64 {
            p.net.push_mpdu(p.dock, 1500, i);
        }
        p.net.run_until(SimTime::from_millis(5));
        let at = Point::new(1.0, 3.0);
        // The 10°-HPBW horn must point *at* a device, not vaguely at the
        // link: aim at the dock (azimuth of (0,0) from (1,3) ≈ −108.4°).
        let toward = TapConfig::horn(at, Angle::from_degrees(-108.4));
        let away = TapConfig::horn(at, Angle::from_degrees(71.6));
        let t1 = replay_trace(&p.net, &toward, SimTime::ZERO, SimTime::from_millis(5));
        let t2 = replay_trace(&p.net, &away, SimTime::ZERO, SimTime::from_millis(5));
        let max1 = t1
            .segments()
            .iter()
            .map(|s| s.amplitude_v)
            .fold(0.0, f64::max);
        let max2 = t2
            .segments()
            .iter()
            .map(|s| s.amplitude_v)
            .fold(0.0, f64::max);
        assert!(max1 > 5.0 * max2, "toward {max1} V vs away {max2} V");
    }

    #[test]
    fn mean_data_power_sees_only_data() {
        let mut p = point_to_point(&SimCtx::new(), 2.0, quiet(3));
        // Idle link: only beacons → no data power.
        p.net.run_until(SimTime::from_millis(10));
        let tap = TapConfig::waveguide(Point::new(1.0, 0.5), Angle::from_degrees(-90.0));
        assert!(mean_data_power_dbm(
            &p.net,
            &tap,
            p.dock,
            SimTime::ZERO,
            SimTime::from_millis(10)
        )
        .is_none());
        // Push data: now the average exists and is sane.
        for i in 0..10u64 {
            p.net.push_mpdu(p.dock, 1500, i);
        }
        p.net.run_until(SimTime::from_millis(20));
        let dbm = mean_data_power_dbm(
            &p.net,
            &tap,
            p.dock,
            SimTime::from_millis(10),
            SimTime::from_millis(20),
        )
        .expect("data frames present");
        assert!((-90.0..=-20.0).contains(&dbm), "{dbm}");
    }

    #[test]
    fn replay_tracks_scripted_source_motion() {
        // A walking-blocker run whose *source* is also scripted to move:
        // every segment must replay from the pose logged at transmission
        // time. Before the pose-keyed cache, the whole window replayed
        // from the device's final position, so frames sent next to the
        // tap came out as weak as frames sent from across the room.
        use mmwave_channel::Environment;
        use mmwave_geom::{Material, Room, Segment, Vec2};
        use mmwave_mac::{Device, Net, Scenario, WorldMutation};
        use mmwave_sim::time::SimDuration;

        let ctx = SimCtx::new();
        let mut room = Room::open_space();
        let shape = Segment::new(Point::new(1.0, 2.0), Point::new(1.0, 3.0));
        let walker = room.add_obstacle(shape, Material::Human, "walker");
        let mut net = Net::with_ctx(Environment::new(room), quiet(7), &ctx);
        let dock = net.add_device(Device::wigig_dock(
            &ctx,
            "Dock",
            Point::new(0.0, 0.0),
            Angle::ZERO,
            seeds::DOCK_A,
        ));
        let laptop = net.add_device(Device::wigig_laptop(
            &ctx,
            "Laptop",
            Point::new(2.0, 0.0),
            Angle::from_degrees(180.0),
            seeds::LAPTOP_A,
        ));
        net.associate_instantly(dock, laptop);
        // The walker sweeps across the upper half of the room while the
        // dock hops away from the tap at t = 10 ms (still facing the
        // laptop from its new spot).
        let scenario = Scenario::new()
            .walking_blocker(
                walker,
                shape,
                Vec2::new(1.0, 0.0),
                SimTime::from_millis(2),
                SimDuration::from_millis(6),
                4,
            )
            .at(
                SimTime::from_millis(10),
                WorldMutation::MoveDevice {
                    dev: dock,
                    position: Point::new(0.0, 4.0),
                    orientation: Angle::from_degrees(-63.4),
                },
            );
        net.install_scenario(scenario);
        for k in 1..=20u64 {
            for i in 0..60u64 {
                net.push_mpdu(dock, 1500, k * 100 + i);
            }
            net.run_until(SimTime::from_millis(k));
        }

        // Tap next to the dock's *original* position.
        let tap = TapConfig::waveguide(Point::new(0.3, 0.5), Angle::from_degrees(-90.0));
        let early = mean_data_power_dbm(&net, &tap, dock, SimTime::ZERO, SimTime::from_millis(10))
            .expect("data before the move");
        let late = mean_data_power_dbm(
            &net,
            &tap,
            dock,
            SimTime::from_millis(11),
            SimTime::from_millis(20),
        )
        .expect("data after the move");
        assert!(
            early > late + 10.0,
            "frames sent beside the tap must replay loud: early {early} dBm, late {late} dBm"
        );
    }

    #[test]
    fn seeds_are_distinct() {
        // Guard against accidental seed collisions across device roles.
        let all = [
            seeds::DOCK_A,
            seeds::DOCK_B,
            seeds::LAPTOP_A,
            seeds::LAPTOP_B,
            seeds::WIHD_TX,
            seeds::WIHD_RX,
        ];
        let set: std::collections::HashSet<u64> = all.into_iter().collect();
        assert_eq!(set.len(), all.len());
    }
}
