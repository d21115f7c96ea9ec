//! Congestion control through a blockage transient.
//!
//! The paper's "bane" — a human cutting the LoS for a few hundred ms —
//! looks like heavy congestion to a loss-based TCP: timeouts collapse the
//! window to one segment and recovery climbs back from there long after
//! the beam has retrained. A rate-based controller that models the path
//! instead of reacting to loss keeps its window and resumes at speed the
//! moment frames flow again. This experiment runs the same
//! walking-blocker transient as `dynblock` under each algorithm of the
//! congestion plane ([`mmwave_transport::cc`]) and compares window
//! traces, loss epochs and recovery times.

use super::RunReport;
use crate::report;
use crate::scenarios::seeds;
use mmwave_channel::Environment;
use mmwave_geom::{Angle, Material, Point, Room, Segment, Vec2, Wall};
use mmwave_mac::{Device, Net, NetConfig, Scenario, WorldMutation};
use mmwave_sim::ctx::SimCtx;
use mmwave_sim::time::{SimDuration, SimTime};
use mmwave_transport::{CcKind, Stack, TcpConfig};

/// Everything measured for one algorithm's pass through the transient.
struct AlgOutcome {
    kind: CcKind,
    /// Mean goodput before the walker appears, Mb/s.
    pre_mbps: f64,
    /// Smallest congestion window while the walker crossed, segments.
    min_cwnd: f64,
    /// Loss epochs the datapath counted (fast-recovery entries + first
    /// RTOs).
    loss_epochs: u64,
    /// Time after the walker left until windowed goodput regained 80% of
    /// the pre-blockage mean; `None` if it never did within the run.
    recovery_ms: Option<f64>,
    /// Mean goodput over the tail of the run, Mb/s.
    post_mbps: f64,
    /// Window trace, one sample per ms.
    cwnd_trace: Vec<(f64, f64)>,
}

/// The dynblock rig: open space, a brick wall providing the recovery
/// reflection, a disabled human walker poised to cross the LoS.
fn build_net(ctx: &SimCtx, seed: u64, quick: bool) -> (Net, usize, usize, SimTime, SimTime) {
    let cfg = NetConfig {
        seed,
        enable_fading: false,
        ..NetConfig::default()
    };
    let mut room = Room::open_space();
    room.add_wall(Wall::new(
        Segment::new(Point::new(-1.0, 1.5), Point::new(6.3, 1.5)),
        Material::Brick,
        "reflecting wall",
    ));
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
    net.install_scenario(scenario);
    (net, dock, laptop, t0, t_end)
}

/// Run the transient under one algorithm.
fn run_alg(ctx: &SimCtx, seed: u64, quick: bool, kind: CcKind) -> AlgOutcome {
    let (net, dock, laptop, t0, t_end) = build_net(ctx, seed, quick);
    let mut stack = Stack::new(net);
    let flow = stack.add_flow(TcpConfig {
        cc: Some(kind),
        sample_interval: SimDuration::from_millis(5),
        ..TcpConfig::bulk(dock, laptop, 256 * 1024)
    });

    let total = t_end + SimDuration::from_millis(300);
    let total_ms = total.as_nanos() / 1_000_000;
    let mut cwnd_trace = Vec::with_capacity(total_ms as usize + 1);
    let mut min_cwnd = f64::INFINITY;
    // Loss effects of the transit can land just after the walker leaves
    // (an RTO armed during the crossing fires a few ms later).
    let observe_until = t_end + SimDuration::from_millis(20);
    for k in 0..=total_ms {
        let t = SimTime::from_millis(k);
        stack.run_until(t);
        let w = stack.flow(flow).cwnd_segments();
        cwnd_trace.push((k as f64, w));
        if t >= t0 && t <= observe_until {
            min_cwnd = min_cwnd.min(w);
        }
    }

    let stats = stack.flow_stats(flow);
    // Skip the first 20 ms of slow start when establishing the baseline.
    let pre_mbps = stats.mean_goodput_mbps(SimTime::from_millis(20), t0);
    let post_mbps = stats.mean_goodput_mbps(t_end + SimDuration::from_millis(100), total);
    let bin = SimDuration::from_millis(10);
    let recovery_ms = stats
        .goodput_series_mbps(t_end, total, bin)
        .iter()
        .find(|(_, g)| *g >= 0.8 * pre_mbps)
        .map(|(t, _)| (*t - t_end).as_secs_f64() * 1e3);
    AlgOutcome {
        kind,
        pre_mbps,
        min_cwnd,
        loss_epochs: stats.loss_epochs,
        recovery_ms,
        post_mbps,
        cwnd_trace,
    }
}

/// Run the comparison across every registered algorithm.
pub fn run(ctx: &SimCtx, quick: bool, seed: u64) -> RunReport {
    let outcomes: Vec<AlgOutcome> = CcKind::ALL
        .iter()
        .map(|&kind| run_alg(ctx, seed, quick, kind))
        .collect();

    let mut violations = Vec::new();
    let by = |kind: CcKind| {
        outcomes
            .iter()
            .find(|o| o.kind == kind)
            .expect("all algorithms ran")
    };
    for o in &outcomes {
        if o.pre_mbps < 50.0 {
            violations.push(format!(
                "{}: pre-blockage goodput {:.0} Mb/s (expected a loaded link ≥ 50)",
                o.kind.as_str(),
                o.pre_mbps
            ));
        }
        if o.post_mbps <= 0.0 {
            violations.push(format!(
                "{}: no goodput after the walker left",
                o.kind.as_str()
            ));
        }
    }
    // Loss-based algorithms must experience the transient as loss…
    for kind in [CcKind::Reno, CcKind::Cubic] {
        let o = by(kind);
        if o.loss_epochs == 0 {
            violations.push(format!("{}: blockage opened no loss epoch", kind.as_str()));
        }
        if o.min_cwnd >= 4.0 {
            violations.push(format!(
                "{}: window never collapsed during blockage (min {:.1} segments)",
                kind.as_str(),
                o.min_cwnd
            ));
        }
    }
    // …while the rate-based one must not collapse: its window floor is 4
    // segments and loss reports are ignored by construction.
    let rp = by(CcKind::RateProbe);
    if rp.min_cwnd < 4.0 {
        violations.push(format!(
            "rate_probe: window collapsed to {:.1} segments (loss-blind floor is 4)",
            rp.min_cwnd
        ));
    }
    let loss_based_min = by(CcKind::Reno).min_cwnd.min(by(CcKind::Cubic).min_cwnd);
    if loss_based_min >= rp.min_cwnd {
        violations.push(format!(
            "no loss-based/rate-based divergence: loss-based min cwnd {:.1} ≥ rate_probe {:.1}",
            loss_based_min, rp.min_cwnd
        ));
    }

    let mut output = String::from(
        "== congestion control over a blockage transient ==\n\
         alg         pre Mb/s   min cwnd   loss epochs   recovery ms   post Mb/s\n",
    );
    for o in &outcomes {
        output.push_str(&format!(
            "{:<11} {:>8.0} {:>10.1} {:>13} {:>13} {:>11.0}\n",
            o.kind.as_str(),
            o.pre_mbps,
            o.min_cwnd,
            o.loss_epochs,
            o.recovery_ms
                .map_or("—".to_string(), |ms| format!("{ms:.0}")),
            o.post_mbps,
        ));
    }
    for o in &outcomes {
        let pts: Vec<(f64, f64)> = o.cwnd_trace.iter().step_by(10).cloned().collect();
        output.push('\n');
        output.push_str(&report::series(
            &format!("cwnd trace — {}", o.kind.as_str()),
            "ms",
            "segments",
            &pts,
        ));
    }

    RunReport { output, violations }
}
