//! Fig. 12 — reported PHY rate over time, with low traffic, at 2/8/14 m.
//!
//! The paper reads the rate from the D5000 driver while barely loading the
//! link, showing: 16-QAM 5/8 pinned at 2 m, QPSK-class rates at 8 m, and
//! low, unstable rates at 14 m — and never the standard's highest MCS.

use super::RunReport;
use crate::report;
use crate::scenarios::point_to_point;
use mmwave_mac::NetConfig;
use mmwave_sim::ctx::SimCtx;
use mmwave_sim::time::SimTime;

/// One distance's sampled rate trace.
#[derive(Clone, Debug)]
pub struct RateTrace {
    /// Link distance, m.
    pub distance_m: f64,
    /// Sampled `(minute, rate in Gb/s)` points (0 when unassociated).
    pub samples: Vec<(f64, f64)>,
    /// Distinct MCS labels observed.
    pub labels: Vec<String>,
}

fn run_distance(ctx: &SimCtx, distance_m: f64, seed: u64, minutes: u64) -> RateTrace {
    let mut p = point_to_point(
        ctx,
        distance_m,
        NetConfig {
            seed,
            ..NetConfig::default()
        }, // fading ON: Fig. 12 needs it
    );
    p.net.txlog_mut().set_enabled(false);
    let mut samples = Vec::new();
    let mut labels: Vec<String> = Vec::new();
    let step_s = 10u64;
    for k in 0..=(minutes * 60 / step_s) {
        p.net.run_until(SimTime::from_secs(k * step_s));
        let w = p.net.device(p.dock).wigig().expect("wigig");
        let (rate, label) = if w.state == mmwave_mac::device::WigigState::Associated {
            (w.adapter.current().rate_gbps(), w.adapter.current().label())
        } else {
            (0.0, "link broken".to_string())
        };
        samples.push((k as f64 * step_s as f64 / 60.0, rate));
        if !labels.contains(&label) {
            labels.push(label);
        }
    }
    RateTrace {
        distance_m,
        samples,
        labels,
    }
}

/// Run the Fig. 12 campaign.
pub fn run(ctx: &SimCtx, quick: bool, seed: u64) -> RunReport {
    let minutes = if quick { 3 } else { 10 };
    let traces: Vec<RateTrace> = [2.0, 8.0, 14.0]
        .into_iter()
        .enumerate()
        .map(|(i, d)| run_distance(ctx, d, seed + i as u64, minutes))
        .collect();

    let mut violations = Vec::new();
    let stats = |t: &RateTrace| {
        let vals: Vec<f64> = t.samples.iter().map(|(_, r)| *r).collect();
        let mean = vals.iter().sum::<f64>() / vals.len() as f64;
        let distinct = {
            let mut v: Vec<i64> = vals.iter().map(|r| (r * 1000.0) as i64).collect();
            v.sort();
            v.dedup();
            v.len()
        };
        (mean, distinct)
    };

    // 2 m: pinned at 16-QAM 5/8 = 3.85 Gb/s, never the highest MCS (4.62).
    let (mean2, _) = stats(&traces[0]);
    if (mean2 - 3.85).abs() > 0.05 {
        violations.push(format!("2 m mean rate {mean2:.2} Gb/s ≠ 3.85 (16-QAM 5/8)"));
    }
    if traces
        .iter()
        .any(|t| t.samples.iter().any(|(_, r)| *r > 4.0))
    {
        violations.push("observed a rate above 16-QAM 5/8 — the D5000 never uses MCS 12".into());
    }
    // 8 m: QPSK-class (1.54–2.5 Gb/s).
    let (mean8, _) = stats(&traces[1]);
    if !(1.3..=2.7).contains(&mean8) {
        violations.push(format!(
            "8 m mean rate {mean8:.2} Gb/s outside the QPSK band"
        ));
    }
    // 14 m: lower and unstable.
    let (mean14, distinct14) = stats(&traces[2]);
    if mean14 >= mean8 {
        violations.push(format!(
            "14 m mean {mean14:.2} not below 8 m mean {mean8:.2}"
        ));
    }
    if distinct14 < 2 {
        violations.push("14 m link suspiciously stable (single rate for the whole run)".into());
    }

    let mut output = String::new();
    for t in &traces {
        let pts: Vec<(f64, f64)> = t.samples.iter().step_by(3).cloned().collect();
        output.push_str(&report::series(
            &format!(
                "Fig. 12 — PHY rate at {} m (labels seen: {})",
                t.distance_m,
                t.labels.join(", ")
            ),
            "minute",
            "rate (Gb/s)",
            &pts,
        ));
        output.push('\n');
    }

    RunReport { output, violations }
}
