//! Link churn — repeated blockage crossings, fault bursts and interferer
//! toggles over a long run.
//!
//! The Fig. 14 trace shows that even a nominally static link keeps
//! retraining; here the churn is scripted and much denser. Every epoch a
//! human crosses the line of sight (open space, no recovery reflection —
//! the link drops and must rediscover), an injected frame-error burst and
//! a beacon-loss burst exercise the loss-triggered recovery paths while
//! the channel is actually fine (the SNR gate must absorb them), and the
//! WiHD interferer's video stream toggles. The reproduction criterion is
//! the cadence: the link retrains every epoch, deliveries resume after
//! every crossing, and the MAC ends the run clean.

use super::RunReport;
use crate::report;
use crate::scenarios::seeds;
use mmwave_channel::Environment;
use mmwave_geom::{Angle, Material, Point, Room, Segment, Vec2};
use mmwave_mac::device::WigigState;
use mmwave_mac::{Delivery, Device, FaultKind, Net, NetConfig, Scenario, WorldMutation};
use mmwave_sim::ctx::SimCtx;
use mmwave_sim::time::{SimDuration, SimTime};

/// Run the link-churn campaign.
pub fn run(ctx: &SimCtx, quick: bool, seed: u64) -> RunReport {
    let cfg = NetConfig {
        seed,
        enable_fading: false,
        ..NetConfig::default()
    };

    let mut room = Room::open_space();
    // The crossing human, parked below the corridor and off stage.
    let shape = Segment::new(Point::new(1.5, -1.7), Point::new(1.5, -0.7));
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
        Point::new(3.0, 0.0),
        Angle::from_degrees(180.0),
        seeds::LAPTOP_A,
    ));
    // A WiHD pair running parallel 4 m away — its video stream is the
    // scripted on/off interferer.
    let hdmi_tx = net.add_device(Device::wihd_source(
        ctx,
        "HDMI TX",
        Point::new(1.5, 4.0),
        Angle::ZERO,
        seeds::WIHD_TX,
    ));
    let hdmi_rx = net.add_device(Device::wihd_sink(
        ctx,
        "HDMI RX",
        Point::new(4.5, 4.0),
        Angle::from_degrees(180.0),
        seeds::WIHD_RX,
    ));
    net.associate_instantly(dock, laptop);
    net.pair_wihd_instantly(hdmi_tx, hdmi_rx);

    let epochs = if quick { 4 } else { 12 };
    let epoch_ms = 800u64;
    let start_ms = 300u64;
    let cross = SimDuration::from_millis(150);
    let mut sc = Scenario::new();
    for e in 0..epochs {
        let te_ms = start_ms + e * epoch_ms;
        let te = SimTime::from_millis(te_ms);
        // The crossing: enable, walk through the LoS (alternating
        // direction each epoch), disappear again.
        let (from, sweep) = if e % 2 == 0 {
            (shape, Vec2::new(0.0, 2.4))
        } else {
            (
                Segment::new(Point::new(1.5, 0.7), Point::new(1.5, 1.7)),
                Vec2::new(0.0, -2.4),
            )
        };
        sc = sc
            .at(
                te,
                WorldMutation::SetObstacleEnabled {
                    wall: walker,
                    enabled: true,
                },
            )
            .walking_blocker(walker, from, sweep, te, cross, 10)
            .at(
                SimTime::from_millis(te_ms + 150),
                WorldMutation::SetObstacleEnabled {
                    wall: walker,
                    enabled: false,
                },
            );
        // Fault bursts against a *healthy* channel: the SNR gate must
        // absorb them without spending recovery budget.
        sc = sc
            .at(
                SimTime::from_millis(te_ms + 400),
                WorldMutation::InjectFaults {
                    dev: laptop,
                    kind: FaultKind::AllFrames,
                    until: SimTime::from_millis(te_ms + 406),
                },
            )
            .at(
                SimTime::from_millis(te_ms + 550),
                WorldMutation::InjectFaults {
                    dev: laptop,
                    kind: FaultKind::BeaconsOnly,
                    until: SimTime::from_millis(te_ms + 580),
                },
            );
        // The interferer's power switch.
        sc = sc
            .at(
                SimTime::from_millis(te_ms + 200),
                WorldMutation::SetVideo {
                    dev: hdmi_tx,
                    on: false,
                },
            )
            .at(
                SimTime::from_millis(te_ms + 600),
                WorldMutation::SetVideo {
                    dev: hdmi_tx,
                    on: true,
                },
            );
    }
    let expected_mutations = sc.len() as u64;
    net.install_scenario(sc);

    // Drive traffic for the whole run, bucketing deliveries per epoch.
    let total_ms = start_ms + epochs * epoch_ms + 300;
    let mut per_epoch = vec![0u64; epochs as usize];
    let mut tag = 0u64;
    for k in 0..=total_ms {
        for _ in 0..4 {
            net.push_mpdu(dock, 1500, tag);
            tag += 1;
        }
        net.run_until(SimTime::from_millis(k));
        let mpdus = net
            .take_deliveries()
            .iter()
            .filter(|d| matches!(d, Delivery::Mpdu { .. }))
            .count() as u64;
        if k >= start_ms {
            let e = ((k - start_ms) / epoch_ms).min(epochs - 1) as usize;
            per_epoch[e] += mpdus;
        }
    }
    // Drain without fresh traffic.
    net.run_until(SimTime::from_millis(total_ms + 80));

    let mut violations = Vec::new();
    let retrains = net.device(dock).stats.retrains + net.device(laptop).stats.retrains;
    // Cadence: at least one retrain (realignment or re-association) per
    // crossing.
    if retrains < epochs {
        violations.push(format!(
            "{retrains} retrains over {epochs} crossings (expected ≥ one each)"
        ));
    }
    for (e, n) in per_epoch.iter().enumerate() {
        if *n == 0 {
            violations.push(format!(
                "no MPDUs delivered in epoch {e} — link never resumed"
            ));
        }
    }
    if net.device(dock).wigig().expect("wigig").state != WigigState::Associated {
        violations.push("link not re-established at end of run".into());
    }
    if net.faults_injected() == 0 {
        violations.push("injected fault windows corrupted no frames".into());
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
            violations.push(format!("device {d} left with dangling TXOP state"));
        }
    }

    let pts: Vec<(f64, f64)> = per_epoch
        .iter()
        .enumerate()
        .map(|(e, n)| (e as f64, *n as f64))
        .collect();
    let output = report::series(
        "Link churn — MPDUs delivered per 800 ms epoch (one crossing each)",
        "epoch",
        "MPDUs",
        &pts,
    ) + &format!(
        "\nretrains: {retrains}   faults injected: {}   drops: {}\n",
        net.faults_injected(),
        net.device(dock).stats.drops,
    );

    RunReport { output, violations }
}
