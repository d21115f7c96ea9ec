//! Dynamic blockage — a scripted human walks through the line of sight.
//!
//! Reproduces the Fig. 20 "bane" as a *transient*: the link trains on the
//! direct path, a human blocker sweeps through it (scripted with
//! [`Scenario::walking_blocker`], so the run is bitwise reproducible per
//! seed), receive power at the originally trained beam pair collapses by
//! tens of dB, and the MAC recovers by retraining onto the wall
//! reflection. When the walker leaves, data keeps flowing and no TXOP
//! state is left dangling.

use super::RunReport;
use crate::report;
use crate::scenarios::seeds;
use mmwave_channel::Environment;
use mmwave_geom::{Angle, Material, Point, Room, Segment, Vec2, Wall};
use mmwave_mac::device::WigigState;
use mmwave_mac::{Delivery, Device, Net, NetConfig, PatKey, Scenario, WorldMutation};
use mmwave_sim::ctx::SimCtx;
use mmwave_sim::time::{SimDuration, SimTime};

/// Run the dynamic-blockage transient.
pub fn run(ctx: &SimCtx, quick: bool, seed: u64) -> RunReport {
    let cfg = NetConfig {
        seed,
        enable_fading: false,
        ..NetConfig::default()
    };

    // The Fig. 5 blocked-LoS rig, but with the blocker off stage: a brick
    // wall parallel to the link provides the recovery path.
    let mut room = Room::open_space();
    let wall_y = 1.5;
    room.add_wall(Wall::new(
        Segment::new(Point::new(-1.0, wall_y), Point::new(6.3, wall_y)),
        Material::Brick,
        "reflecting wall",
    ));
    // The walker crosses the LoS between x = 1.7 and 3.1 — inside the band
    // where the direct path is cut but both legs of the wall bounce stay
    // clear, so a retrained link survives the transit.
    let shape = Segment::new(Point::new(1.7, -0.6), Point::new(1.7, 0.95));
    let walker = room.add_obstacle(shape, Material::Human, "walker");
    room.set_wall_enabled(walker, false);

    let mut net = Net::with_ctx(Environment::new(room), cfg, ctx);
    net.txlog_mut().set_enabled(false);
    let dock = net.add_device(Device::wigig_dock(
        ctx,
        "Dock",
        Point::new(0.0, 0.0),
        Angle::ZERO,
        seeds::DOCK_A,
    ));
    let laptop = net.add_device(Device::wigig_laptop(
        ctx,
        "Laptop",
        Point::new(4.8, 0.0),
        Angle::from_degrees(180.0),
        seeds::LAPTOP_A,
    ));
    net.associate_instantly(dock, laptop);

    // The script: the walker appears, crosses the corridor, and leaves.
    let t0_ms = 40u64;
    let walk_ms = if quick { 160 } else { 320 };
    let steps = if quick { 16 } else { 32 };
    let t0 = SimTime::from_millis(t0_ms);
    let walk = SimDuration::from_millis(walk_ms);
    let t_end = SimTime::from_millis(t0_ms + walk_ms);
    let scenario = Scenario::new()
        .at(
            t0,
            WorldMutation::SetObstacleEnabled {
                wall: walker,
                enabled: true,
            },
        )
        .walking_blocker(walker, shape, Vec2::new(1.4, 0.0), t0, walk, steps)
        .at(
            t_end,
            WorldMutation::SetObstacleEnabled {
                wall: walker,
                enabled: false,
            },
        );
    let expected_mutations = scenario.len() as u64;
    net.install_scenario(scenario);

    // Drive download traffic and sample the radiometric ground truth at
    // the *originally trained* beam pair every millisecond.
    let los_sector = net.device(dock).wigig().expect("wigig").tx_sector;
    let total_ms = t0_ms + walk_ms + 150;
    let mut samples: Vec<(f64, f64)> = Vec::new();
    let mut baseline = f64::NEG_INFINITY;
    let mut retrains_before = 0u64;
    let mut min_blocked = f64::INFINITY;
    let mut delivered_after_walk = 0u64;
    let mut tag = 0u64;
    for k in 0..=total_ms {
        for _ in 0..6 {
            net.push_mpdu(dock, 1500, tag);
            tag += 1;
        }
        let t = SimTime::from_millis(k);
        net.run_until(t);
        let rx = net.medium_rx_power_dbm(dock, PatKey::Dir(los_sector), laptop);
        samples.push((k as f64, rx));
        if t < t0 {
            baseline = rx;
            retrains_before = net.device(dock).stats.retrains + net.device(laptop).stats.retrains;
        } else if t <= t_end {
            min_blocked = min_blocked.min(rx);
        }
        let mpdus = net
            .take_deliveries()
            .iter()
            .filter(|d| matches!(d, Delivery::Mpdu { .. }))
            .count() as u64;
        if t > t_end {
            delivered_after_walk += mpdus;
        }
    }
    // Drain: stop pushing and let the MAC finish its backlog.
    net.run_until(SimTime::from_millis(total_ms + 60));

    let mut violations = Vec::new();
    let depth = baseline - min_blocked;
    // Acceptance: the walker shadows the trained pair by ≥ 15 dB.
    if depth < 15.0 {
        violations.push(format!(
            "shadowing depth {depth:.1} dB at the trained pair (expected ≥ 15)"
        ));
    }
    let retrains_after = net.device(dock).stats.retrains + net.device(laptop).stats.retrains;
    if retrains_after <= retrains_before {
        violations.push("blockage caused no beam retraining".into());
    }
    if net.device(dock).wigig().expect("wigig").state != WigigState::Associated {
        violations.push("link did not recover after the walker left".into());
    }
    if delivered_after_walk == 0 {
        violations.push("no MPDUs delivered after the walker left".into());
    }
    if net.scenario_mutations() != expected_mutations {
        violations.push(format!(
            "applied {} of {expected_mutations} scripted mutations",
            net.scenario_mutations()
        ));
    }
    for d in [dock, laptop] {
        let w = net.device(d).wigig().expect("wigig");
        if w.in_txop || w.awaiting_ack.is_some() || w.pending_cts.is_some() {
            violations.push(format!(
                "device {d} left with dangling TXOP state after the transient"
            ));
        }
    }

    let pts: Vec<(f64, f64)> = samples.iter().step_by(5).cloned().collect();
    let output = report::series(
        "Dynamic blockage — rx power at the originally trained beam pair",
        "ms",
        "dBm",
        &pts,
    ) + &format!(
        "\nbaseline {baseline:.1} dBm   blocked minimum {min_blocked:.1} dBm \
         (depth {depth:.1} dB)\nretrains {retrains_before} → {retrains_after}   \
         MPDUs after recovery: {delivered_after_walk}\n"
    );

    RunReport { output, violations }
}
