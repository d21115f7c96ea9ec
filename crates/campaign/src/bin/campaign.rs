//! Campaign CLI: run the experiment × seed matrix on a worker pool.
//!
//! ```text
//! campaign [--jobs N] [--resume] [--seeds A..B | --seeds N]
//!          [--quick] [--out DIR] [--cc ALG] [--prune MODE]
//!          [--format table|report|json] [--list] [all | <id> ...]
//! ```
//!
//! * `--jobs N`    worker threads (default: one per core, at most 1,024)
//! * `--resume`    skip tasks whose artifact chunk already exists and
//!   hashes clean against `<out>/campaign.manifest` (requires `--out`)
//! * `--seeds A..B` half-open seed range (`--seeds 1..5` = seeds 1,2,3,4,
//!   at most 65,536 seeds); a single number runs just that seed (default: 1)
//! * `--quick`     quick mode (shorter campaigns, fewer sweep points)
//! * `--cc ALG`    congestion-control override for every TCP flow
//!   (`reno`, `cubic`, `rate_probe`; default: each flow's own choice)
//! * `--prune MODE` spatial prune-mode override (`enforce`, `audit`;
//!   default: each experiment's own choice — audit re-checks every pruned
//!   pair through the full radiometric chain and panics on leakage)
//! * `--out DIR`   write `manifest.json` + `runs/*.json` artifacts,
//!   streamed incrementally with a resumable `campaign.manifest` ledger
//! * `--format F`  what to print once the matrix completes: `table` (one
//!   row of counters per run, the default), `report` (each run's rendered
//!   paper rows/series and its `[PASS]`/`[FAIL]` shape-check verdict) or
//!   `json` (the manifest JSON)
//! * `--list`      list registered experiments and exit
//!
//! The `table` footer also counts the campaign's shared results (e.g.
//! `shared results: 8 computed, 24 reused` for the Figs. 9–11 sweep
//! consumers at 8 seeds): how often a task computed a sub-result other
//! tasks reuse, and how often one was reused.
//!
//! Exit status: 0 if every run passed, 1 if any run failed its shape
//! checks or panicked (the campaign always completes — a panicking
//! experiment becomes a failed run, it does not abort the matrix), 2 on
//! usage errors.

use mmwave_campaign::control::{self, ControlOpts};
use mmwave_campaign::{artifact, CampaignConfig, CampaignResult, RunStatus};
use mmwave_core::experiments::{self, Experiment};
use mmwave_sim::shared::SharedStats;

struct Cli {
    jobs: usize,
    resume: bool,
    seeds: Vec<u64>,
    quick: bool,
    cc: Option<mmwave_transport::CcKind>,
    prune: Option<mmwave_channel::PruneMode>,
    out_dir: Option<String>,
    format: Format,
    list: bool,
    ids: Vec<String>,
}

/// What the CLI prints to stdout once the matrix completes.
enum Format {
    /// One row per run: wall time, scheduler counters and status.
    Table,
    /// Each run's rendered paper output and its shape-check verdict.
    Report,
    /// The campaign manifest JSON.
    Json,
}

/// Longest `--seeds A..B` range accepted. The matrix is planned in memory
/// before anything runs, so an absurd range is a usage error, not an
/// allocation failure.
const MAX_SEEDS: u64 = 65_536;

/// Most `--jobs` threads accepted. Each job is an OS thread, and a
/// campaign starts one per pending task up to `--jobs`, so with
/// `MAX_SEEDS` seeds per experiment a typo could ask for hundreds of
/// thousands of threads; the first spawn the host refuses would abort
/// the campaign. Past the core count more threads only share the same
/// cores, so the cap sits well above any host's.
const MAX_JOBS: usize = 1_024;

fn parse_seeds(spec: &str) -> Result<Vec<u64>, String> {
    if let Some((a, b)) = spec.split_once("..") {
        let a: u64 = a
            .parse()
            .map_err(|_| format!("bad seed range start: {a}"))?;
        let b: u64 = b.parse().map_err(|_| format!("bad seed range end: {b}"))?;
        if a >= b {
            return Err(format!("empty seed range: {spec}"));
        }
        if b - a > MAX_SEEDS {
            return Err(format!(
                "seed range {spec} has {} seeds; at most {MAX_SEEDS} per campaign",
                b - a
            ));
        }
        Ok((a..b).collect())
    } else {
        let n: u64 = spec.parse().map_err(|_| format!("bad seed: {spec}"))?;
        Ok(vec![n])
    }
}

fn parse_args() -> Result<Cli, String> {
    let mut cli = Cli {
        jobs: 0,
        resume: false,
        seeds: vec![1],
        quick: false,
        cc: None,
        prune: None,
        out_dir: None,
        format: Format::Table,
        list: false,
        ids: Vec::new(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => cli.quick = true,
            "--list" => cli.list = true,
            "--jobs" => {
                let v = args.next().ok_or("--jobs needs a value")?;
                cli.jobs = v.parse().map_err(|_| format!("bad job count: {v}"))?;
                if cli.jobs > MAX_JOBS {
                    return Err(format!("--jobs {v} is over the cap of {MAX_JOBS} threads"));
                }
            }
            "--resume" => cli.resume = true,
            "--seeds" => {
                let v = args.next().ok_or("--seeds needs a value (N or A..B)")?;
                cli.seeds = parse_seeds(&v)?;
            }
            "--cc" => {
                let v = args
                    .next()
                    .ok_or("--cc needs an algorithm (reno|cubic|rate_probe)")?;
                cli.cc = Some(
                    mmwave_transport::CcKind::parse(&v)
                        .ok_or_else(|| format!("unknown congestion algorithm: {v}"))?,
                );
            }
            "--prune" => {
                let v = args.next().ok_or("--prune needs a mode (enforce|audit)")?;
                cli.prune = Some(
                    mmwave_channel::PruneMode::parse(&v)
                        .ok_or_else(|| format!("unknown prune mode: {v}"))?,
                );
            }
            "--out" => {
                cli.out_dir = Some(args.next().ok_or("--out needs a directory")?);
            }
            "--format" => {
                let v = args.next().ok_or("--format needs table|report|json")?;
                cli.format = match v.as_str() {
                    "table" => Format::Table,
                    "report" => Format::Report,
                    "json" => Format::Json,
                    _ => return Err(format!("unknown output format: {v}")),
                };
            }
            "all" => {}
            other if other.starts_with("--") => {
                return Err(format!("unknown flag: {other}"));
            }
            id => cli.ids.push(id.to_string()),
        }
    }
    if cli.resume && cli.out_dir.is_none() {
        return Err("--resume needs --out (the manifest lives there)".into());
    }
    Ok(cli)
}

fn select(ids: &[String]) -> Result<Vec<&'static Experiment>, String> {
    if ids.is_empty() {
        return Ok(experiments::REGISTRY.iter().collect());
    }
    ids.iter()
        .map(|id| {
            experiments::find(id).ok_or_else(|| format!("unknown experiment id: {id} (try --list)"))
        })
        .collect()
}

fn main() {
    let cli = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!(
                "{e}\nusage: campaign [--jobs N] [--resume] [--seeds A..B] [--quick] [--cc ALG] [--prune MODE] [--out DIR] [--format table|report|json] [--list] [all | <id> ...]"
            );
            std::process::exit(2);
        }
    };
    if cli.list {
        println!("registered experiments (paper order):");
        for e in experiments::REGISTRY {
            println!("  {:<8} [{:?}] ({}) {}", e.id, e.cost, e.scenario, e.title);
        }
        return;
    }
    let selected = match select(&cli.ids) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };

    let cfg = CampaignConfig {
        experiments: selected,
        seeds: cli.seeds,
        quick: cli.quick,
        jobs: cli.jobs,
        cc: cli.cc,
        prune: cli.prune,
    };
    let opts = ControlOpts { resume: cli.resume };
    let out = cli.out_dir.as_deref().map(std::path::Path::new);
    let summary = match control::run(&cfg, out, &opts) {
        Ok(summary) => summary,
        Err(e) => {
            let under = cli
                .out_dir
                .map(|d| format!(" under {d}"))
                .unwrap_or_default();
            eprintln!("campaign failed{under}: {e}");
            std::process::exit(2);
        }
    };
    if cli.resume {
        eprintln!(
            "resumed {} hash-clean task(s), executed {}",
            summary.resumed.len(),
            summary.executed.len()
        );
    }
    if let Some(path) = &summary.manifest_path {
        eprintln!("wrote {}", path.display());
    }
    let result = summary.result;

    match cli.format {
        Format::Table => print_table(&result, &summary.shared),
        Format::Report => print_report(&result),
        Format::Json => print!("{}", artifact::manifest_to_json(&result).render()),
    }

    if !result.all_passed() {
        std::process::exit(1);
    }
}

fn print_table(result: &CampaignResult, shared: &SharedStats) {
    println!(
        "{:<8} {:>6} {:>10} {:>12} {:>9}  status",
        "id", "seed", "wall ms", "events", "peak q"
    );
    for r in &result.records {
        println!(
            "{:<8} {:>6} {:>10.1} {:>12} {:>9}  {}",
            r.experiment,
            r.seed,
            r.wall_ms,
            r.engine.events_popped,
            r.engine.peak_queue_depth,
            r.status.as_str(),
        );
        for v in &r.violations {
            println!("         - {v}");
        }
        if let Some(p) = &r.panic_message {
            println!("         ! panicked: {p}");
        }
    }
    let (passed, shape_failed, panicked) = result.counts();
    println!(
        "\n{} runs on {} worker(s) in {:.1} ms: {} passed, {} shape-failed, {} panicked",
        result.records.len(),
        result.jobs,
        result.wall_ms,
        passed,
        shape_failed,
        panicked
    );
    println!(
        "shared results: {} computed, {} reused",
        shared.computed, shared.reused
    );
}

fn print_report(result: &CampaignResult) {
    for r in &result.records {
        println!("\n################################################################");
        println!("# {} — {} (seed {})", r.experiment, r.title, r.seed);
        println!("################################################################");
        println!("{}", r.output);
        match r.status {
            RunStatus::Pass => println!("[PASS] all shape checks hold ({:.1} ms)", r.wall_ms),
            RunStatus::ShapeFail => {
                println!("[FAIL] {} shape check(s) violated:", r.violations.len());
                for v in &r.violations {
                    println!("  - {v}");
                }
            }
            RunStatus::Panicked => println!(
                "[FAIL] panicked: {}",
                r.panic_message.as_deref().unwrap_or("unknown panic")
            ),
        }
    }
}
