//! Differential property test: the link-gain cache must be invisible
//! under *dynamic* scenarios.
//!
//! A seeded generator scripts randomized interleavings of device moves,
//! rotations, blocker moves/toggles and fault bursts; the same scenario
//! runs once with [`CacheMode::Cached`] and once with
//! [`CacheMode::Bypass`] (identical interning and bookkeeping, values
//! recomputed every time). Every observable — per-millisecond rx power
//! (bitwise), retrain counts, device stats, deliveries, scenario/fault
//! counters — must match exactly. A stale cache entry surviving a missed
//! invalidation diverges the rx-power series here first.

use mmwave_channel::{CacheMode, Environment};
use mmwave_geom::{Angle, Material, Point, Room, Segment, Vec2, Wall};
use mmwave_mac::{Device, FaultKind, Net, NetConfig, PatKey, Scenario, WorldMutation};
use mmwave_phy::calib;
use mmwave_sim::ctx::SimCtx;
use mmwave_sim::rng::SimRng;
use mmwave_sim::time::{SimDuration, SimTime};

fn build(mode: CacheMode, seed: u64) -> (Net, usize, usize, usize) {
    let mut room = Room::open_space();
    room.add_wall(Wall::new(
        Segment::new(Point::new(-1.0, 1.5), Point::new(6.3, 1.5)),
        Material::Brick,
        "reflecting wall",
    ));
    let walker = room.add_obstacle(
        Segment::new(Point::new(2.4, -0.6), Point::new(2.4, 0.95)),
        Material::Human,
        "walker",
    );
    room.set_wall_enabled(walker, false);
    let cfg = NetConfig {
        seed,
        enable_fading: false,
        ..NetConfig::default()
    };
    let mut net = Net::with_ctx(Environment::new(room), cfg, &SimCtx::with_cache_mode(mode));
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
    net.associate_instantly(dock, laptop);
    (net, dock, laptop, walker)
}

/// A randomized (but seed-deterministic) interleaving of every mutation
/// kind, plus one scripted walk through the corridor.
fn fuzz_scenario(seed: u64, laptop: usize, walker: usize) -> Scenario {
    let mut rng = SimRng::root(seed).stream("scenario-fuzz");
    let mut sc = Scenario::new().walking_blocker(
        walker,
        Segment::new(Point::new(1.7, -0.6), Point::new(1.7, 0.95)),
        Vec2::new(1.4, 0.0),
        SimTime::from_millis(37),
        SimDuration::from_millis(60),
        12,
    );
    for k in 0..36u64 {
        let at_us = k * 4_300 + rng.next_u64() % 3_000;
        let at = SimTime::from_micros(at_us);
        let mutation = match rng.next_u32() % 5 {
            0 => WorldMutation::MoveDevice {
                dev: laptop,
                position: Point::new(4.8 + rng.uniform(-0.25, 0.25), rng.uniform(-0.2, 0.2)),
                orientation: Angle::from_degrees(180.0 + rng.uniform(-8.0, 8.0)),
            },
            1 => WorldMutation::MoveDevice {
                dev: laptop,
                position: Point::new(4.8, 0.0),
                orientation: Angle::from_degrees(180.0 + rng.uniform(-10.0, 10.0)),
            },
            2 => WorldMutation::MoveObstacle {
                wall: walker,
                seg: Segment::new(
                    Point::new(rng.uniform(1.6, 3.2), -0.6),
                    Point::new(rng.uniform(1.6, 3.2), 0.95),
                ),
            },
            3 => WorldMutation::SetObstacleEnabled {
                wall: walker,
                enabled: rng.chance(0.5),
            },
            _ => WorldMutation::InjectFaults {
                dev: laptop,
                kind: if rng.chance(0.5) {
                    FaultKind::AllFrames
                } else {
                    FaultKind::BeaconsOnly
                },
                until: at + SimDuration::from_micros(2_000),
            },
        };
        sc = sc.at(at, mutation);
    }
    sc
}

/// Run one net against the scripted scenario and log every observable.
fn observe(mode: CacheMode, seed: u64) -> String {
    let (mut net, dock, laptop, walker) = build(mode, seed);
    net.install_scenario(fuzz_scenario(seed, laptop, walker));
    let mut log = String::new();
    let mut tag = 0u64;
    for k in 0..180u64 {
        for _ in 0..4 {
            net.push_mpdu(dock, 1500, tag);
            tag += 1;
        }
        net.run_until(SimTime::from_millis(k));
        let sector = net.device(dock).wigig().expect("wigig").tx_sector;
        let rx = net.medium_rx_power_dbm(dock, PatKey::Dir(sector), laptop);
        log.push_str(&format!("t={k} sector={sector} rx={:016x}\n", rx.to_bits()));
        for d in net.take_deliveries() {
            log.push_str(&format!("  {d:?}\n"));
        }
    }
    log.push_str(&format!(
        "mutations={} faults={}\n",
        net.scenario_mutations(),
        net.faults_injected()
    ));
    for d in [dock, laptop] {
        log.push_str(&format!("stats[{d}]={:?}\n", net.device(d).stats));
    }
    log
}

#[test]
fn cached_and_bypass_runs_are_bitwise_identical_under_dynamic_scenarios() {
    for seed in [1u64, 2, 3] {
        let cached = observe(CacheMode::Cached, seed);
        let bypass = observe(CacheMode::Bypass, seed);
        if cached != bypass {
            let diff = cached
                .lines()
                .zip(bypass.lines())
                .find(|(a, b)| a != b)
                .map(|(a, b)| format!("cached: {a}\nbypass: {b}"))
                .unwrap_or_else(|| "logs differ in length".into());
            panic!("seed {seed}: cached/bypass observables diverge —\n{diff}");
        }
    }
}

#[test]
fn repeated_cached_runs_are_reproducible() {
    // The scenario path itself must be deterministic: two identical
    // cached runs produce the same log byte for byte.
    let a = observe(CacheMode::Cached, 11);
    let b = observe(CacheMode::Cached, 11);
    assert_eq!(a, b, "identical seeds must replay identically");
}
