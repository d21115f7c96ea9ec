//! The TCP-throughput sweep behind Figs. 9, 10 and 11 and the §4.1
//! aggregation findings.
//!
//! §4.1: "We control the TCP throughput by adjusting its window size in
//! Iperf" — plus application pacing for the kb/s operating points (the
//! real setup reached those through pathological small-window TCP
//! behaviour; pacing exercises the same MAC-side code path: rare, lone
//! MPDUs). Every operating point is labelled with the *measured*
//! throughput, exactly as the paper's x-axes are.

use super::RunReport;
use crate::analysis::aggregation::{self, SweepPoint};
use crate::analysis::frame_level;
use crate::report;
use crate::scenarios::point_to_point;
use mmwave_mac::{FrameClass, NetConfig};
use mmwave_phy::CodebookPrebuild;
use mmwave_sim::ctx::{CacheMode, SimCtx};
use mmwave_sim::stats::Cdf;
use mmwave_sim::time::{SimDuration, SimTime};
use mmwave_transport::{CcKind, Stack, TcpConfig};
use std::cmp::Reverse;
use std::sync::Arc;

/// One measured operating point.
#[derive(Clone, Debug)]
pub struct PointData {
    /// Human label ("9.7 kbps", "930 mbps" style, from the measurement).
    pub label: String,
    /// Measured TCP goodput, Mb/s.
    pub throughput_mbps: f64,
    /// Dock data-frame durations, µs.
    pub durations_us: Vec<f64>,
    /// Fraction of frames > 5 µs.
    pub long_fraction: f64,
    /// Fig. 11 windowed medium usage.
    pub medium_usage: f64,
    /// Dominant MCS index.
    pub mcs: u8,
}

impl PointData {
    fn max_frame_us(&self) -> f64 {
        self.durations_us.iter().cloned().fold(0.0, f64::max)
    }
}

fn label_of(mbps: f64) -> String {
    if mbps < 1.0 {
        format!("{:.1} kbps", mbps * 1000.0)
    } else {
        format!("{mbps:.0} mbps")
    }
}

/// Run one operating point and measure everything the three figures need.
fn run_point(ctx: &SimCtx, seed: u64, pace_bps: Option<u64>, window: u64, secs: f64) -> PointData {
    let p = point_to_point(
        ctx,
        2.0,
        NetConfig {
            seed,
            enable_fading: false,
            ..NetConfig::default()
        },
    );
    let dock = p.dock;
    let mut stack = Stack::new(p.net);
    let cfg = match pace_bps {
        Some(r) => TcpConfig::paced(dock, p.laptop, r),
        None => TcpConfig::bulk(dock, p.laptop, window),
    };
    let flow = stack.add_flow(cfg);
    let warmup = SimTime::from_millis(300);
    let end = SimTime::from_secs_f64(0.3 + secs);
    stack.run_until(end);
    let throughput = stack.flow_stats(flow).mean_goodput_mbps(warmup, end);
    let net = &stack.net;
    let durations_us = frame_level::data_frame_durations_us(net, dock, warmup, end);
    // 6 µs boundary: a lone 1500 B MPDU at MCS 11 is ≈5.1 µs ("around
    // 5 µs" in the paper); anything longer carries ≥2 MPDUs.
    let long_fraction = frame_level::long_frame_fraction(net, dock, warmup, end, 6.0);
    let medium_usage = frame_level::medium_usage(net, warmup, end, SimDuration::from_millis(1));
    // Dominant MCS among the dock's data frames: the first index with the
    // highest count, so ties go to the lower MCS (0 if no data was sent).
    let mut counts = [0usize; 256];
    for e in net.txlog().of(dock, FrameClass::Data) {
        if let Some(m) = e.mcs {
            counts[m as usize] += 1;
        }
    }
    let mcs = (0..=u8::MAX)
        .min_by_key(|&m| Reverse(counts[m as usize]))
        .expect("a non-empty range");
    PointData {
        label: label_of(throughput),
        throughput_mbps: throughput,
        durations_us,
        long_fraction,
        medium_usage,
        mcs,
    }
}

/// Everything the sweep reads from its task and its context: the shared
/// entry of one key is valid for every context that builds the same key.
/// The cache mode is part of it so that a `Bypass` run recomputes rather
/// than inheriting a cached run's result.
#[derive(PartialEq)]
struct SweepKey {
    quick: bool,
    seed: u64,
    cc: Option<CcKind>,
    mode: CacheMode,
}

/// Collect the full sweep. Four experiments read it, so with a campaign
/// pool installed in the context ([`CodebookPrebuild::shared_of`]) it runs
/// once per [`SweepKey`]; without one it simply runs.
///
/// The pool also stores the engine-counter delta of the simulation that
/// filled it, and a reuse merges it into the context — so fig09/10/11/aggr
/// all report the same scheduler activity no matter which of them
/// computed the sweep. Every consumer calls `collect` first on a fresh
/// campaign context, where the fill's delta on zeroed counters equals the
/// merge a reuse applies: artifact counters are identical either way.
pub fn collect(ctx: &SimCtx, quick: bool, seed: u64) -> Arc<Vec<PointData>> {
    let Some(pool) = CodebookPrebuild::shared_of(ctx) else {
        return Arc::new(simulate(ctx, quick, seed));
    };
    let key = SweepKey {
        quick,
        seed,
        cc: mmwave_transport::cc::override_of(ctx),
        mode: ctx.cache_mode(),
    };
    let ((points, delta), computed) = pool.get_or_fill(key, || {
        let before = ctx.counters();
        let points = Arc::new(simulate(ctx, quick, seed));
        (points, ctx.counters().since(&before))
    });
    if !computed {
        ctx.merge_counters(delta);
    }
    points
}

/// Run every operating point of the sweep on `ctx`, ordered by measured
/// throughput.
fn simulate(ctx: &SimCtx, quick: bool, seed: u64) -> Vec<PointData> {
    let secs: f64 = if quick { 0.6 } else { 2.0 };
    // Paced points reproduce the paper's low/medium ladder (9.7 kb/s …
    // 372 Mb/s). The real setup reached these via the Iperf window knob
    // over a ~2 ms RTT; our simulated RTT is ~10× shorter, which makes
    // window-clamped mid-rate flows artificially bursty — pacing restores
    // the smooth arrival process the real TCP had (see DESIGN.md). The
    // top of the ladder uses window clamping as in the paper.
    let paced: &[u64] = if quick {
        &[9_700, 171_000_000]
    } else {
        &[9_700, 40_000, 171_000_000, 372_000_000, 601_000_000]
    };
    let mut points = Vec::new();
    for (i, &r) in paced.iter().enumerate() {
        points.push(run_point(
            ctx,
            seed + i as u64,
            Some(r),
            0,
            secs.max(2.0).min(if r > 1_000_000 { secs } else { 9.0 }),
        ));
    }
    let windows: &[u64] = if quick {
        &[64 * 1024, 256 * 1024]
    } else {
        &[64 * 1024, 128 * 1024, 256 * 1024]
    };
    for (i, &w) in windows.iter().enumerate() {
        points.push(run_point(ctx, seed + 20 + i as u64, None, w, secs));
    }
    points.sort_by(|a, b| {
        a.throughput_mbps
            .partial_cmp(&b.throughput_mbps)
            .expect("finite")
    });
    points
}

/// Fig. 9 — frame-length CDFs per throughput.
pub fn run_fig09(ctx: &SimCtx, quick: bool, seed: u64) -> RunReport {
    let points = collect(ctx, quick, seed);
    let mut output = String::new();
    let grid: Vec<f64> = (0..=26).map(|x| x as f64).collect();
    let mut violations = Vec::new();
    for p in points.iter() {
        if p.durations_us.is_empty() {
            violations.push(format!("{}: no data frames", p.label));
            continue;
        }
        let mut cdf = Cdf::from_samples(p.durations_us.iter().cloned());
        let curve = cdf.curve(&grid);
        let compact: String = curve
            .iter()
            .step_by(5)
            .map(|(x, y)| format!("{x:>2.0}µs:{y:>4.2}"))
            .collect::<Vec<_>>()
            .join("  ");
        output.push_str(&format!("{:>10}  {compact}\n", p.label));
        // Shape: nothing beyond ~26 µs; the kbps points are all-short.
        if cdf.max() > 26.0 {
            violations.push(format!(
                "{}: frame of {:.1} µs beyond the 25 µs cap",
                p.label,
                cdf.max()
            ));
        }
        if p.throughput_mbps < 1.0 && cdf.fraction_above(6.0) > 0.05 {
            violations.push(format!("{}: kbps point has long frames", p.label));
        }
    }
    // Bimodality: the top point must have clear mass at both ends.
    if let Some(top) = points.last() {
        let mut cdf = Cdf::from_samples(top.durations_us.iter().cloned());
        let short = cdf.probability_at(6.0);
        let long = cdf.fraction_above(15.0);
        if long < 0.5 {
            violations.push(format!(
                "top point {}: only {:.0}% of frames ≥ 15 µs",
                top.label,
                long * 100.0
            ));
        }
        let _ = short;
    }
    RunReport { output, violations }
}

/// Fig. 10 — percentage of long frames per throughput.
pub fn run_fig10(ctx: &SimCtx, quick: bool, seed: u64) -> RunReport {
    let points = collect(ctx, quick, seed);
    let bars: Vec<(String, f64)> = points
        .iter()
        .map(|p| (p.label.clone(), p.long_fraction * 100.0))
        .collect();
    let mut violations = Vec::new();
    // The fraction grows with throughput: ends anchored, grossly monotone.
    if let (Some(first), Some(last)) = (points.first(), points.last()) {
        if first.long_fraction > 0.1 {
            violations.push(format!(
                "lowest point {} already has {:.0}% long frames",
                first.label,
                first.long_fraction * 100.0
            ));
        }
        if last.long_fraction < 0.7 {
            violations.push(format!(
                "highest point {} has only {:.0}% long frames",
                last.label,
                last.long_fraction * 100.0
            ));
        }
    }
    for w in points.windows(2) {
        if w[1].long_fraction + 0.15 < w[0].long_fraction {
            violations.push(format!(
                "long-frame fraction not increasing: {} {:.2} → {} {:.2}",
                w[0].label, w[0].long_fraction, w[1].label, w[1].long_fraction
            ));
        }
    }
    RunReport {
        output: report::bars("Fig. 10 — long frames [%] per TCP throughput", &bars, 40),
        violations,
    }
}

/// Fig. 11 — windowed medium usage per throughput.
pub fn run_fig11(ctx: &SimCtx, quick: bool, seed: u64) -> RunReport {
    let points = collect(ctx, quick, seed);
    let bars: Vec<(String, f64)> = points
        .iter()
        .map(|p| (p.label.clone(), p.medium_usage * 100.0))
        .collect();
    let mut violations = Vec::new();
    for p in points.iter() {
        if p.throughput_mbps < 1.0 && p.medium_usage > 0.10 {
            violations.push(format!(
                "{}: kbps point shows {:.0}% medium usage",
                p.label,
                p.medium_usage * 100.0
            ));
        }
        // §4.1: "beyond a relatively low throughput value, all oscilloscope
        // traces contained data frames".
        if p.throughput_mbps > 150.0 && p.medium_usage < 0.95 {
            violations.push(format!(
                "{}: expected saturated medium usage, got {:.0}%",
                p.label,
                p.medium_usage * 100.0
            ));
        }
    }
    RunReport {
        output: report::bars("Fig. 11 — medium usage [%] per TCP throughput", &bars, 40),
        violations,
    }
}

/// The §4.1/§5 aggregation summary (5.4× at ≤ 25 µs).
pub fn run_aggr(ctx: &SimCtx, quick: bool, seed: u64) -> RunReport {
    let points = collect(ctx, quick, seed);
    let sweep: Vec<SweepPoint> = points
        .iter()
        .map(|p| SweepPoint {
            throughput_mbps: p.throughput_mbps,
            long_frame_fraction: p.long_fraction,
            medium_usage: p.medium_usage,
            mcs: p.mcs,
            max_frame_us: p.max_frame_us(),
        })
        .collect();
    let mut violations = Vec::new();
    let mut output = String::new();
    match aggregation::summarize(&sweep) {
        Some(s) => {
            let adv = aggregation::timescale_advantage(s.max_aggregation_us);
            output.push_str(&report::table(
                "Aggregation findings (§4.1/§5)",
                &["metric", "measured", "paper"],
                &[
                    vec![
                        "gain (base → peak)".into(),
                        format!(
                            "{:.1}× ({:.0} → {:.0} mbps)",
                            s.gain, s.base_mbps, s.peak_mbps
                        ),
                        "5.4× (171 → 934)".into(),
                    ],
                    vec![
                        "max aggregation".into(),
                        format!("{:.1} µs", s.max_aggregation_us),
                        "≤ 25 µs".into(),
                    ],
                    vec![
                        "constant MCS".into(),
                        format!("{}", s.constant_mcs),
                        "yes (16-QAM 5/8)".into(),
                    ],
                    vec![
                        "vs 802.11ac timescale".into(),
                        format!("{adv:.0}× shorter"),
                        "320×".into(),
                    ],
                ],
            ));
            if s.gain < 3.0 {
                violations.push(format!("aggregation gain only {:.1}×, paper: 5.4×", s.gain));
            }
            if !s.constant_mcs {
                violations.push("MCS changed across the compared points".into());
            }
            if s.max_aggregation_us > 26.0 {
                violations.push(format!(
                    "max aggregation {:.1} µs > 25 µs",
                    s.max_aggregation_us
                ));
            }
            if adv < 250.0 {
                violations.push(format!("timescale advantage {adv:.0}× (paper ≈ 320×)"));
            }
        }
        None => violations.push("no medium-saturated operating point".into()),
    }
    RunReport { output, violations }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fresh context on `pool`, the way a campaign task gets one.
    fn task_ctx(pool: &CodebookPrebuild) -> SimCtx {
        let ctx = SimCtx::new();
        pool.install(&ctx);
        ctx
    }

    #[test]
    fn sweep_consumers_report_the_same_counters_whichever_runs_first() {
        let alone = SimCtx::new();
        run_fig10(&alone, true, 1);
        let want = alone.counters();

        let pool = CodebookPrebuild::default();
        run_fig09(&task_ctx(&pool), true, 1);
        let shared = task_ctx(&pool);
        let before = shared.counters();
        run_fig10(&shared, true, 1);
        assert_eq!(shared.counters().since(&before), want);
        assert_ne!(want.peak_queue_depth, 0);
        let stats = pool.shared().stats();
        assert_eq!((stats.computed, stats.reused), (1, 1));
    }
}
