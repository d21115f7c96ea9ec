//! Fig. 13 — throughput versus distance.
//!
//! Individual runs hold ≈ 900 Mb/s (the GigE cap) until they fall
//! abruptly; the drop distance varies between ~10 and ~17 m across runs
//! (atmospheric conditions), so the *average* declines gradually.

use super::RunReport;
use crate::report;
use crate::scenarios::seeds;
use mmwave_channel::Environment;
use mmwave_geom::{Angle, Point, Room};
use mmwave_mac::{Device, Net, NetConfig};
use mmwave_sim::ctx::SimCtx;
use mmwave_sim::rng::SimRng;
use mmwave_sim::time::SimTime;
use mmwave_transport::{Stack, TcpConfig};

fn measure(ctx: &SimCtx, distance_m: f64, seed: u64, run_idx: u64, secs: f64) -> f64 {
    let rng = SimRng::root(seed);
    let env = Environment::new(Room::open_space()).with_atmosphere(&rng, run_idx);
    let mut net = Net::with_ctx(
        env,
        NetConfig {
            seed: seed + run_idx,
            ..NetConfig::default()
        },
        ctx,
    );
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
        Point::new(distance_m, 0.0),
        Angle::from_degrees(180.0),
        seeds::LAPTOP_A,
    ));
    net.associate_instantly(dock, laptop);
    net.txlog_mut().set_enabled(false);
    let mut stack = Stack::new(net);
    let flow = stack.add_flow(TcpConfig::bulk(dock, laptop, 256 * 1024));
    let end = SimTime::from_secs_f64(secs);
    stack.run_until(end);
    stack
        .flow_stats(flow)
        .mean_goodput_mbps(SimTime::from_millis(300), end)
}

/// Run the Fig. 13 campaign.
pub fn run(ctx: &SimCtx, quick: bool, seed: u64) -> RunReport {
    let (distances, runs, secs): (Vec<f64>, u64, f64) = if quick {
        (vec![2.0, 6.0, 10.0, 13.0, 16.0, 18.0, 21.0], 4, 0.9)
    } else {
        (
            vec![
                1.0, 2.0, 4.0, 6.0, 8.0, 10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 21.0,
            ],
            6,
            1.5,
        )
    };
    let mut rows = Vec::new();
    let mut averages = Vec::new();
    let mut all_runs: Vec<(f64, Vec<f64>)> = Vec::new();
    for (di, &d) in distances.iter().enumerate() {
        let vals: Vec<f64> = (0..runs)
            .map(|r| measure(ctx, d, seed + di as u64 * 100, r, secs))
            .collect();
        let avg = vals.iter().sum::<f64>() / vals.len() as f64;
        let lo = vals.iter().cloned().fold(f64::MAX, f64::min);
        let hi = vals.iter().cloned().fold(f64::MIN, f64::max);
        rows.push(vec![
            format!("{d:.0} m"),
            format!("{avg:.0}"),
            format!("{lo:.0}"),
            format!("{hi:.0}"),
        ]);
        averages.push((d, avg));
        all_runs.push((d, vals));
    }

    let mut violations = Vec::new();
    // Short links hit the GigE plateau (§4.1: capped near 900–934 Mb/s).
    for (d, avg) in &averages {
        if *d <= 8.0 && *avg < 820.0 {
            violations.push(format!(
                "{d} m average {avg:.0} Mb/s below the GigE plateau"
            ));
        }
        if *avg > 960.0 {
            violations.push(format!("{d} m average {avg:.0} exceeds Gigabit Ethernet"));
        }
    }
    // Far links are dead.
    if let Some((d, avg)) = averages.iter().find(|(d, _)| *d >= 20.0) {
        if *avg > 150.0 {
            violations.push(format!(
                "{d} m still carries {avg:.0} Mb/s; links should break"
            ));
        }
    }
    // Individual runs are near-bimodal in the transition region while the
    // average falls gradually: some distance must show a wide run spread.
    let spread = all_runs
        .iter()
        .filter(|(d, _)| (9.0..=18.0).contains(d))
        .map(|(_, v)| {
            v.iter().cloned().fold(f64::MIN, f64::max) - v.iter().cloned().fold(f64::MAX, f64::min)
        })
        .fold(0.0, f64::max);
    // (quick mode draws only 4 atmospheres per distance; 300 Mb/s of
    // spread still requires a near-plateau run and a near-dead run at the
    // same distance.)
    if spread < 300.0 {
        violations.push(format!(
            "no distance shows the abrupt-per-run / gradual-average split (max spread {spread:.0} Mb/s)"
        ));
    }
    // The average is (weakly) monotone decreasing beyond 8 m. The
    // per-distance averages carry run noise (a handful of atmospheric
    // draws each, exactly like the paper's), so the tolerance is generous.
    let far: Vec<&(f64, f64)> = averages.iter().filter(|(d, _)| *d >= 8.0).collect();
    for w in far.windows(2) {
        if w[1].1 > w[0].1 + 260.0 {
            violations.push(format!(
                "average increases with distance: {:.0} m {:.0} → {:.0} m {:.0}",
                w[0].0, w[0].1, w[1].0, w[1].1
            ));
        }
    }

    RunReport {
        output: report::table(
            "Fig. 13 — Iperf throughput vs distance (Mb/s)",
            &["distance", "average", "min run", "max run"],
            &rows,
        ),
        violations,
    }
}
