//! MAC recovery under dynamic blockage and injected faults.
//!
//! The scripted-scenario subsystem lets these tests drop a human into the
//! line of sight at a precise instant and watch the WiGig state machines
//! dig themselves out: loss-triggered retraining onto a reflection,
//! deferred association while a sweep is shadowed, a clean link-down when
//! no recovery path exists, the SNR gate absorbing fault bursts on a
//! healthy channel, and recovery-budget exhaustion. Every test ends by
//! checking that no TXOP state is left dangling.

use mmwave_channel::Environment;
use mmwave_geom::{Angle, Material, Point, Room, Segment, Wall};
use mmwave_mac::device::WigigState;
use mmwave_mac::{Delivery, Device, FaultKind, Net, NetConfig, Scenario, WorldMutation};
use mmwave_phy::calib;
use mmwave_sim::ctx::SimCtx;
use mmwave_sim::time::SimTime;

fn cfg(seed: u64) -> NetConfig {
    NetConfig {
        seed,
        enable_fading: false,
        ..NetConfig::default()
    }
}

/// Assert that the TXOP machinery is idle: no half-open burst, no ACK
/// wait, no pending CTS timeout.
fn assert_clean(net: &Net, devs: &[usize]) {
    for &d in devs {
        let w = net.device(d).wigig().expect("wigig");
        assert!(!w.in_txop, "device {d} stuck in TXOP");
        assert!(w.awaiting_ack.is_none(), "device {d} stuck awaiting ACK");
        assert!(w.pending_cts.is_none(), "device {d} stuck awaiting CTS");
    }
}

/// The Fig. 5 rig with the blocker off stage: dock↔laptop at 4.8 m, a
/// brick wall 1.5 m to the side (the recovery path), and a disabled human
/// obstacle at the given x. Returns `(net, dock, laptop, walker)`.
fn blocked_los_rig(seed: u64, walker_x: f64) -> (Net, usize, usize, usize) {
    let mut room = Room::open_space();
    room.add_wall(Wall::new(
        Segment::new(Point::new(-1.0, 1.5), Point::new(6.3, 1.5)),
        Material::Brick,
        "reflecting wall",
    ));
    let walker = room.add_obstacle(
        Segment::new(Point::new(walker_x, -0.6), Point::new(walker_x, 0.95)),
        Material::Human,
        "walker",
    );
    room.set_wall_enabled(walker, false);
    let mut net = Net::with_ctx(Environment::new(room), cfg(seed), &SimCtx::new());
    let dock = net.add_device(Device::wigig_dock(
        net.ctx(),
        "dock",
        Point::new(0.0, 0.0),
        Angle::ZERO,
        calib::DOCK_SEED,
    ));
    let laptop = net.add_device(Device::wigig_laptop(
        net.ctx(),
        "laptop",
        Point::new(4.8, 0.0),
        Angle::from_degrees(180.0),
        calib::LAPTOP_SEED,
    ));
    (net, dock, laptop, walker)
}

#[test]
fn blocker_mid_txop_retrains_to_reflection_and_recovers() {
    let (mut net, dock, laptop, walker) = blocked_los_rig(5, 2.4);
    net.associate_instantly(dock, laptop);
    net.install_scenario(
        Scenario::new()
            .at(
                SimTime::from_millis(25),
                WorldMutation::SetObstacleEnabled {
                    wall: walker,
                    enabled: true,
                },
            )
            .at(
                SimTime::from_millis(125),
                WorldMutation::SetObstacleEnabled {
                    wall: walker,
                    enabled: false,
                },
            ),
    );
    // Saturating download traffic so the blocker lands inside the burst
    // phase, then recovery is measured on the same stream.
    let mut tag = 0u64;
    let mut after_recovery = 0u64;
    for k in 0..200u64 {
        for _ in 0..6 {
            net.push_mpdu(dock, 1500, tag);
            tag += 1;
        }
        net.run_until(SimTime::from_millis(k));
        let mpdus = net
            .take_deliveries()
            .iter()
            .filter(|d| matches!(d, Delivery::Mpdu { .. }))
            .count() as u64;
        if k > 125 {
            after_recovery += mpdus;
        }
    }
    let retrains = net.device(dock).stats.retrains + net.device(laptop).stats.retrains;
    assert!(
        retrains > 2,
        "blockage must force a realignment (got {retrains})"
    );
    assert_eq!(
        net.device(dock).wigig().expect("wigig").state,
        WigigState::Associated,
        "link must survive the transit via the wall reflection"
    );
    assert!(
        after_recovery > 0,
        "no MPDUs delivered after the blocker left"
    );
    net.run_until(SimTime::from_millis(260)); // drain the backlog
    assert_clean(&net, &[dock, laptop]);
}

#[test]
fn blocker_during_discovery_sweep_defers_association() {
    // Open space, no recovery reflection: the human shadows the discovery
    // sweep itself. The dock must keep sweeping, not wedge.
    let mut room = Room::open_space();
    let walker = room.add_obstacle(
        Segment::new(Point::new(2.4, -0.6), Point::new(2.4, 0.95)),
        Material::Human,
        "walker",
    );
    let mut net = Net::with_ctx(Environment::new(room), cfg(6), &SimCtx::new());
    let dock = net.add_device(Device::wigig_dock(
        net.ctx(),
        "dock",
        Point::new(0.0, 0.0),
        Angle::ZERO,
        calib::DOCK_SEED,
    ));
    let laptop = net.add_device(Device::wigig_laptop(
        net.ctx(),
        "laptop",
        Point::new(4.8, 0.0),
        Angle::from_degrees(180.0),
        calib::LAPTOP_SEED,
    ));
    net.pair(dock, laptop);
    net.install_scenario(Scenario::new().at(
        SimTime::from_millis(310),
        WorldMutation::SetObstacleEnabled {
            wall: walker,
            enabled: false,
        },
    ));
    net.start();
    net.run_until(SimTime::from_millis(300));
    assert_eq!(
        net.device(dock).wigig().expect("wigig").state,
        WigigState::Unassociated,
        "association must not form through the blocker"
    );
    assert!(
        net.device(dock).stats.discovery_sweeps >= 2,
        "the dock must keep sweeping while shadowed"
    );
    net.run_until(SimTime::from_millis(800));
    assert_eq!(
        net.device(dock).wigig().expect("wigig").state,
        WigigState::Associated,
        "association must complete once the blocker leaves"
    );
    assert_clean(&net, &[dock, laptop]);
}

#[test]
fn full_blockage_without_reflection_breaks_link_cleanly() {
    // No wall to fall back on: the only correct outcome is an explicit
    // link-down with the queue drained as Dropped.
    let mut room = Room::open_space();
    let walker = room.add_obstacle(
        Segment::new(Point::new(1.5, -0.6), Point::new(1.5, 0.95)),
        Material::Human,
        "walker",
    );
    room.set_wall_enabled(walker, false);
    let mut net = Net::with_ctx(Environment::new(room), cfg(7), &SimCtx::new());
    let dock = net.add_device(Device::wigig_dock(
        net.ctx(),
        "dock",
        Point::new(0.0, 0.0),
        Angle::ZERO,
        calib::DOCK_SEED,
    ));
    let laptop = net.add_device(Device::wigig_laptop(
        net.ctx(),
        "laptop",
        Point::new(3.0, 0.0),
        Angle::from_degrees(180.0),
        calib::LAPTOP_SEED,
    ));
    net.associate_instantly(dock, laptop);
    net.install_scenario(Scenario::new().at(
        SimTime::from_millis(45),
        WorldMutation::SetObstacleEnabled {
            wall: walker,
            enabled: true,
        },
    ));
    let mut tag = 0u64;
    let mut dropped = false;
    for k in 0..110u64 {
        for _ in 0..6 {
            net.push_mpdu(dock, 1500, tag);
            tag += 1;
        }
        net.run_until(SimTime::from_millis(k));
        dropped |= net
            .take_deliveries()
            .iter()
            .any(|d| matches!(d, Delivery::Dropped { .. }));
    }
    assert_eq!(
        net.device(dock).wigig().expect("wigig").state,
        WigigState::Unassociated,
        "total blockage must tear the link down"
    );
    assert!(dropped, "queued MPDUs must surface as Dropped deliveries");
    assert_eq!(
        net.queue_len(dock),
        0,
        "no MPDUs may linger after link-down"
    );
    assert!(net.device(dock).stats.drops > 0);
    assert_clean(&net, &[dock, laptop]);
}

#[test]
fn fault_burst_on_healthy_channel_does_not_break_link() {
    // An injected frame-error burst with the channel physically fine: the
    // SNR gate must absorb the loss streaks (MCS fallback only) instead of
    // spending recovery budget or dropping the association.
    let mut net = Net::with_ctx(Environment::new(Room::open_space()), cfg(8), &SimCtx::new());
    let dock = net.add_device(Device::wigig_dock(
        net.ctx(),
        "dock",
        Point::new(0.0, 0.0),
        Angle::ZERO,
        calib::DOCK_SEED,
    ));
    let laptop = net.add_device(Device::wigig_laptop(
        net.ctx(),
        "laptop",
        Point::new(2.0, 0.0),
        Angle::from_degrees(180.0),
        calib::LAPTOP_SEED,
    ));
    net.associate_instantly(dock, laptop);
    net.install_scenario(Scenario::new().at(
        SimTime::from_millis(20),
        WorldMutation::InjectFaults {
            dev: laptop,
            kind: FaultKind::AllFrames,
            until: SimTime::from_millis(26),
        },
    ));
    let mut tag = 0u64;
    let mut after_burst = 0u64;
    for k in 0..80u64 {
        for _ in 0..6 {
            net.push_mpdu(dock, 1500, tag);
            tag += 1;
        }
        net.run_until(SimTime::from_millis(k));
        let mpdus = net
            .take_deliveries()
            .iter()
            .filter(|d| matches!(d, Delivery::Mpdu { .. }))
            .count() as u64;
        if k > 26 {
            after_burst += mpdus;
        }
    }
    assert!(net.faults_injected() > 0, "the burst must corrupt frames");
    assert!(net.device(laptop).stats.rx_corrupted > 0);
    assert_eq!(
        net.device(dock).wigig().expect("wigig").state,
        WigigState::Associated,
        "a fault burst on a healthy channel must not break the link"
    );
    assert!(after_burst > 0, "traffic must resume after the burst");
    net.run_until(SimTime::from_millis(140));
    assert_clean(&net, &[dock, laptop]);
}

#[test]
fn recovery_budget_exhaustion_breaks_link_cleanly() {
    // Force the escalating-retry path to its end: with the recovery budget
    // already spent, the next loss-triggered recovery must give the link
    // up instead of retraining forever. No data traffic, so the beacon
    // path is the only loss detector in play.
    let (mut net, dock, laptop, walker) = blocked_los_rig(9, 2.4);
    net.associate_instantly(dock, laptop);
    net.install_scenario(Scenario::new().at(
        SimTime::from_millis(10),
        WorldMutation::SetObstacleEnabled {
            wall: walker,
            enabled: true,
        },
    ));
    // Let the blockage start, then exhaust the budget by hand.
    net.run_until(SimTime::from_millis(12));
    {
        let w = net.device_mut(dock).wigig_mut().expect("wigig");
        w.loss_recovery_attempts = u8::MAX - 1;
        w.beacon_fail_streak = u8::MAX - 1;
    }
    net.run_until(SimTime::from_millis(50));
    assert_eq!(
        net.device(dock).wigig().expect("wigig").state,
        WigigState::Unassociated,
        "an exhausted recovery budget must end in an explicit link-down"
    );
    assert_eq!(
        net.device(dock)
            .wigig()
            .expect("wigig")
            .loss_recovery_attempts,
        0,
        "break_link must reset the recovery counters"
    );
    assert_clean(&net, &[dock, laptop]);
}
