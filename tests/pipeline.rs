//! Cross-crate pipeline tests: the full stack — geometry → PHY → channel →
//! MAC → transport → capture — wired together the way the experiments use
//! it, validated against ground truth the layers can check on each other.

use mmwave_capture::{detect_frames, utilization, DetectorConfig};
use mmwave_core::replay::{replay_trace, TapConfig};
use mmwave_core::scenarios::{self, point_to_point};
use mmwave_geom::{Angle, Point};
use mmwave_mac::NetConfig;
use mmwave_sim::ctx::SimCtx;
use mmwave_sim::rng::SimRng;
use mmwave_sim::time::SimTime;
use mmwave_transport::{Stack, TcpConfig};

fn quiet(seed: u64) -> NetConfig {
    NetConfig {
        seed,
        enable_fading: false,
        ..NetConfig::default()
    }
}

/// The detector, run on a *sampled* (undersampled, noisy) waveform of a
/// real MAC exchange, must agree with the MAC's own busy-time accounting.
#[test]
fn detector_matches_mac_ground_truth() {
    let mut p = point_to_point(&SimCtx::new(), 2.0, quiet(3));
    for i in 0..60u64 {
        p.net.push_mpdu(p.dock, 1500, i);
    }
    p.net.run_until(SimTime::from_millis(2));
    let tap = TapConfig::waveguide(Point::new(1.0, 0.4), Angle::from_degrees(-90.0));
    let trace = replay_trace(&p.net, &tap, SimTime::ZERO, SimTime::from_millis(2));

    // Ground truth from the segments.
    let truth = trace
        .ground_truth_busy()
        .utilization(SimTime::ZERO, SimTime::from_millis(2));

    // Exact segment-level estimate at a generous threshold.
    let seg_est = utilization(&trace, 0.02);

    // Sampled-waveform estimate through the full detector.
    let mut rng = SimRng::root(5).stream("scope");
    let (period, samples) = trace.sample(1e8, &mut rng);
    let frames = detect_frames(
        &samples,
        period,
        SimTime::ZERO,
        trace.noise_rms_v,
        &DetectorConfig::default(),
    );
    let detected: f64 = frames.iter().map(|f| f.duration().as_secs_f64()).sum();
    let det_est = detected / 0.002;

    assert!(truth > 0.1, "workload produced near-idle channel: {truth}");
    assert!(
        (seg_est - truth).abs() < 0.05,
        "segment estimate {seg_est} vs truth {truth}"
    );
    assert!(
        (det_est - truth).abs() < 0.12,
        "detector estimate {det_est} vs truth {truth}"
    );
}

/// TCP over a trained link delivers exactly the bytes it acknowledges, and
/// the MAC's delivered-byte counter agrees with the receiver's.
#[test]
fn byte_accounting_is_consistent() {
    let p = point_to_point(&SimCtx::new(), 2.0, quiet(4));
    let (dock, laptop) = (p.dock, p.laptop);
    let mut stack = Stack::new(p.net);
    let flow = stack.add_flow(TcpConfig {
        total_bytes: Some(30_000_000),
        ..TcpConfig::bulk(dock, laptop, 256 * 1024)
    });
    stack.run_until(SimTime::from_secs(2));
    assert!(stack.flow_finished(flow), "30 MB should complete in 2 s");
    let acked = stack.flow_stats(flow).bytes_acked;
    let received = stack.flow_stats(flow).bytes_received;
    assert!(
        received >= acked,
        "receiver cannot have less than the sender saw acked"
    );
    // MAC counter counts MPDU payloads delivered to the laptop, including
    // any duplicates from lost ACKs — never less than TCP's count.
    assert!(stack.net.device(laptop).stats.bytes_rx >= acked);
}

/// Blocking the line of sight mid-run: the link retrains onto the wall
/// reflection at the next beacon (the Fig. 5/20 story, but dynamic).
#[test]
fn reflection_rescues_blocked_link() {
    let mut b = scenarios::blocked_los_link(&SimCtx::new(), quiet(6));
    // The scenario starts blocked already; verify the trained path works
    // by moving data.
    for i in 0..40u64 {
        b.net.push_mpdu(b.dock, 1500, i);
    }
    b.net.run_until(SimTime::from_millis(20));
    assert_eq!(
        b.net.device(b.laptop).stats.mpdus_rx,
        40,
        "all MPDUs over the bounce"
    );
    // And the trained sector indeed points at the wall, not the blockage.
    let w = b.net.device(b.dock).wigig().expect("wigig");
    let steer = w.codebook.sector(w.tx_sector).steer;
    assert!(
        steer.degrees() > 10.0,
        "dock sector {} should aim up at the wall",
        steer
    );
}

/// The same scenario built twice with the same seed produces bit-identical
/// transmission logs — the property every regression test here relies on.
#[test]
fn scenarios_are_deterministic() {
    let run = || {
        let mut f = scenarios::interference_floor(&SimCtx::new(), 1.0, Angle::ZERO, quiet(9));
        for i in 0..50u64 {
            f.net.push_mpdu(f.dock_a, 1500, i);
        }
        f.net.run_until(SimTime::from_millis(30));
        let log: Vec<(u64, u64, usize)> = f
            .net
            .txlog()
            .entries()
            .iter()
            .map(|e| (e.start.as_nanos(), e.end.as_nanos(), e.src))
            .collect();
        log
    };
    assert_eq!(run(), run());
}

/// Monitors and replay traces agree: the busy fraction a monitor records
/// matches the replayed trace's above-threshold utilization.
#[test]
fn monitor_agrees_with_replay() {
    let mut p = point_to_point(&SimCtx::new(), 2.0, quiet(12));
    let pos = Point::new(1.0, 0.8);
    let mon = p.net.add_monitor(
        pos,
        Angle::from_degrees(-90.0),
        mmwave_phy::open_waveguide(),
        -60.0,
    );
    for i in 0..200u64 {
        p.net.push_mpdu(p.dock, 1500, i);
    }
    p.net.run_until(SimTime::from_millis(5));
    let mon_util = p.net.monitor_utilization(mon, SimTime::ZERO);

    let tap = TapConfig::waveguide(pos, Angle::from_degrees(-90.0));
    let trace = replay_trace(&p.net, &tap, SimTime::ZERO, SimTime::from_millis(5));
    // −60 dBm at the monitor corresponds to the tap's voltage for −60 dBm.
    let threshold_v = tap.receiver.power_to_volts(-60.0);
    let replay_util = utilization(&trace, threshold_v);
    assert!(
        (mon_util - replay_util).abs() < 0.02,
        "monitor {mon_util} vs replay {replay_util}"
    );
}

/// A person steps into the line of sight mid-run. With a reflecting wall
/// nearby, the loss-driven realignment finds the bounce path at the next
/// beacons and the link survives — the dynamic version of Fig. 5/20 and
/// the blockage behaviour [13]/[17] describe.
#[test]
fn human_blockage_triggers_realignment_rescue() {
    use mmwave_geom::{Material, Room, Segment, Wall};
    let mut room = Room::open_space();
    room.add_wall(Wall::new(
        Segment::new(Point::new(-1.0, 1.5), Point::new(5.0, 1.5)),
        Material::Brick,
        "side wall",
    ));
    let env = mmwave_channel::Environment::new(room);
    let mut net = mmwave_mac::Net::with_ctx(env, quiet(21), &SimCtx::new());
    let dock = net.add_device(mmwave_mac::Device::wigig_dock(
        net.ctx(),
        "dock",
        Point::new(0.0, 0.0),
        Angle::ZERO,
        13,
    ));
    let laptop = net.add_device(mmwave_mac::Device::wigig_laptop(
        net.ctx(),
        "laptop",
        Point::new(3.0, 0.0),
        Angle::from_degrees(180.0),
        11,
    ));
    net.associate_instantly(dock, laptop);
    let before = net.device(dock).wigig().expect("wigig").tx_sector;
    // Traffic flows over the LoS.
    for i in 0..50u64 {
        net.push_mpdu(dock, 1500, i);
    }
    net.run_until(SimTime::from_millis(10));
    assert_eq!(net.device(laptop).stats.mpdus_rx, 50);

    // A person walks into the direct path.
    net.env.room.add_obstacle(
        Segment::new(Point::new(1.5, -0.5), Point::new(1.5, 0.6)),
        Material::Human,
        "person",
    );
    net.invalidate_geometry();
    for i in 50..200u64 {
        net.push_mpdu(dock, 1500, i);
    }
    net.run_until(SimTime::from_millis(120));
    // The link realigned (new sector, pointing at the wall) and still
    // delivers.
    let w = net.device(dock).wigig().expect("wigig");
    assert_eq!(
        w.state,
        mmwave_mac::device::WigigState::Associated,
        "link survived"
    );
    assert_ne!(
        w.tx_sector, before,
        "beam realigned away from the blocked LoS"
    );
    assert!(
        w.codebook.sector(w.tx_sector).steer.degrees() > 8.0,
        "new sector {} aims at the wall bounce",
        w.codebook.sector(w.tx_sector).steer
    );
    assert!(
        net.device(laptop).stats.mpdus_rx >= 190,
        "delivered {} of 200",
        net.device(laptop).stats.mpdus_rx
    );
    assert!(
        net.device(dock).stats.retrains >= 2,
        "a loss-driven retrain happened"
    );
}
