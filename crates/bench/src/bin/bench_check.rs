//! Bench regression gate: compare a fresh kernel-bench run against the
//! committed `BENCH_kernels.json` baseline.
//!
//! Usage: `bench_check <baseline.json> <current.json>`
//!
//! Two checks run on every kernel present in both files:
//!
//! * **Allocations, exactly.** Allocation events per iteration do not
//!   depend on the host's speed, so the current `allocs_per_iter` must
//!   equal the baseline's. Only whole-number baseline counts are gated: a
//!   fractional count comes from a buffer that grows now and then across
//!   iterations, so it depends on the calibrated iteration count and is
//!   reported, not compared.
//! * **Time, loosely.** The current median must stay within
//!   `baseline_median * (1 + tolerance)`. The tolerance defaults to 1.0
//!   (i.e. the gate trips at 2× the baseline) and can be overridden via
//!   `BENCH_TOLERANCE`; the default is deliberately loose because shared
//!   container timing jitters by tens of percent, while the regressions
//!   this gate exists to catch — an accidentally disabled cache, a
//!   reintroduced per-call allocation — cost integer multiples.
//!
//! A kernel present in the baseline but missing from the current run
//! fails the gate (the baseline is stale — somebody renamed or deleted a
//! bench without re-baselining). A kernel only in the current run is
//! listed but passes; committing a refreshed baseline starts tracking it.
//!
//! Re-baselining workflow (after an intentional perf change): run
//! `cargo bench -p mmwave-bench --bench kernels` on an otherwise idle
//! machine — it rewrites `BENCH_kernels.json` at the repo root — and
//! commit the refreshed file together with the change that moved the
//! numbers, so `git log BENCH_kernels.json` reads as the perf trajectory.

use std::process::ExitCode;

use mmwave_campaign::json::Json;

/// One kernel's measurement in one file.
#[derive(Clone, Copy)]
struct Sample {
    median_ns: f64,
    allocs_per_iter: f64,
}

/// One kernel's samples side by side.
struct Row {
    name: String,
    baseline: Option<Sample>,
    current: Option<Sample>,
}

fn load_samples(path: &str) -> Result<Vec<(String, Sample)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: invalid JSON: {e}"))?;
    let schema = doc
        .get("schema")
        .and_then(Json::as_str)
        .ok_or_else(|| format!("{path}: missing schema"))?;
    if schema != mmwave_bench::BENCH_SCHEMA {
        return Err(format!(
            "{path}: schema '{schema}', expected '{}'",
            mmwave_bench::BENCH_SCHEMA
        ));
    }
    let results = doc
        .get("results")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{path}: missing results array"))?;
    results
        .iter()
        .map(|r| {
            let name = r
                .get("name")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("{path}: result without name"))?;
            let field = |key: &str| {
                r.get(key)
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("{path}: '{name}' without {key}"))
            };
            let sample = Sample {
                median_ns: field("median_ns")?,
                allocs_per_iter: field("allocs_per_iter")?,
            };
            Ok((name.to_string(), sample))
        })
        .collect()
}

fn tolerance() -> Result<f64, String> {
    match std::env::var("BENCH_TOLERANCE") {
        Ok(s) => {
            let t: f64 = s
                .parse()
                .map_err(|_| format!("BENCH_TOLERANCE '{s}' is not a number"))?;
            if !t.is_finite() || t < 0.0 {
                return Err(format!("BENCH_TOLERANCE {t} must be finite and >= 0"));
            }
            Ok(t)
        }
        Err(_) => Ok(1.0),
    }
}

/// The allocation verdict for one kernel: `None` when the baseline count
/// is fractional (ungated), else whether the counts are equal.
fn allocs_match(baseline: f64, current: f64) -> Option<bool> {
    (baseline.fract() == 0.0).then_some(current == baseline)
}

fn check(baseline_path: &str, current_path: &str) -> Result<bool, String> {
    let baseline = load_samples(baseline_path)?;
    let current = load_samples(current_path)?;
    let tol = tolerance()?;

    // Baseline order first, then current-only kernels in their run order.
    let mut rows: Vec<Row> = baseline
        .iter()
        .map(|(name, b)| Row {
            name: name.clone(),
            baseline: Some(*b),
            current: current.iter().find(|(n, _)| n == name).map(|(_, c)| *c),
        })
        .collect();
    for (name, c) in &current {
        if !baseline.iter().any(|(n, _)| n == name) {
            rows.push(Row {
                name: name.clone(),
                baseline: None,
                current: Some(*c),
            });
        }
    }

    println!(
        "bench_check: allocations exact, time within +{:.0}% of baseline medians",
        tol * 100.0
    );
    println!(
        "{:<44} {:>12} {:>12} {:>8} {:>17}  verdict",
        "kernel", "baseline", "current", "ratio", "allocs/iter"
    );
    let (mut allocs_ok, mut time_ok, mut complete) = (true, true, true);
    for row in &rows {
        match (row.baseline, row.current) {
            (Some(b), Some(c)) => {
                let ratio = c.median_ns / b.median_ns;
                let fast_enough = c.median_ns <= b.median_ns * (1.0 + tol);
                let allocs = allocs_match(b.allocs_per_iter, c.allocs_per_iter);
                time_ok &= fast_enough;
                allocs_ok &= allocs != Some(false);
                let verdict = match (allocs, fast_enough) {
                    (Some(false), _) => "ALLOCS CHANGED",
                    (_, false) => "REGRESSED",
                    (None, true) => "ok (allocs ungated)",
                    (Some(true), true) => "ok",
                };
                println!(
                    "{:<44} {:>12} {:>12} {:>7.2}x {:>17}  {verdict}",
                    row.name,
                    fmt_ns(b.median_ns),
                    fmt_ns(c.median_ns),
                    ratio,
                    format!("{} → {}", b.allocs_per_iter, c.allocs_per_iter),
                );
            }
            (Some(b), None) => {
                complete = false;
                println!(
                    "{:<44} {:>12} {:>12} {:>8} {:>17}  MISSING (stale baseline?)",
                    row.name,
                    fmt_ns(b.median_ns),
                    "-",
                    "-",
                    "-"
                );
            }
            (None, Some(c)) => {
                println!(
                    "{:<44} {:>12} {:>12} {:>8} {:>17}  new (re-baseline to track)",
                    row.name,
                    "-",
                    fmt_ns(c.median_ns),
                    "-",
                    c.allocs_per_iter
                );
            }
            (None, None) => unreachable!("row without any sample"),
        }
    }
    println!(
        "bench_check: allocation check {}, time check {}",
        if allocs_ok { "passed" } else { "FAILED" },
        if time_ok { "passed" } else { "FAILED" }
    );
    Ok(allocs_ok && time_ok && complete)
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.1} ns")
    } else if ns < 1e6 {
        format!("{:.2} µs", ns / 1e3)
    } else {
        format!("{:.2} ms", ns / 1e6)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    if args.len() != 3 {
        eprintln!("usage: bench_check <baseline.json> <current.json>");
        return ExitCode::from(2);
    }
    match check(&args[1], &args[2]) {
        Ok(true) => {
            println!("bench_check: OK");
            ExitCode::SUCCESS
        }
        Ok(false) => {
            eprintln!("bench_check: FAIL — see table above");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("bench_check: error: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::allocs_match;

    #[test]
    fn whole_counts_must_match_exactly_and_fractional_ones_are_ungated() {
        assert_eq!(allocs_match(60.0, 60.0), Some(true));
        assert_eq!(allocs_match(60.0, 61.0), Some(false));
        assert_eq!(allocs_match(0.0, 0.1), Some(false));
        assert_eq!(allocs_match(2.5, 2.4), None);
    }
}
