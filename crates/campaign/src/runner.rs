//! The campaign datapath: the thread pool and the task executor.
//!
//! Tasks are pre-loaded into an mpsc channel (heaviest cost tier first —
//! longest-processing-time order) and a pool of `std::thread` workers
//! pulls from the shared receiver: an idle worker "steals" the next task
//! the moment it frees up, so load balances itself without a scheduler.
//! Each worker:
//!
//! 1. builds a fresh [`SimCtx`] for the task (private counters, an empty
//!    codebook cache, the campaign-wide [`CodebookPrebuild`] pool with its
//!    prebuilt codebooks and shared results),
//! 2. runs the experiment under `catch_unwind` (a panic becomes a
//!    [`RunStatus::Panicked`] record, not a dead campaign),
//! 3. snapshots wall time + the context's scheduler counters into a
//!    [`RunRecord`].
//!
//! [`crate::control::run`] owns the campaign loop around the pool;
//! [`run`] is that loop without an output directory.
//!
//! Determinism: a task's result depends only on `(experiment id, seed,
//! quick)` — experiments derive all randomness from the seed via labelled
//! `SimRng` substreams, and the only state tasks share is the pool's
//! deterministic results, keyed by everything their fill reads — and the
//! collected records are re-sorted into matrix order. Worker count and
//! scheduling therefore cannot change any byte of any artifact, only the
//! wall-time metadata.

use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::control::{self, ControlOpts};
use crate::{CampaignConfig, CampaignResult, RunRecord, RunStatus, TaskSpec};
use mmwave_phy::CodebookPrebuild;
use mmwave_sim::ctx::SimCtx;
use mmwave_sim::shared::{SharedResults, SharedStats, SHARED_CAP};

/// Run the campaign matrix in memory on the in-process pool; blocks until
/// every task completed.
pub fn run(cfg: &CampaignConfig) -> CampaignResult {
    control::run(cfg, None, &ControlOpts::default())
        .expect("an in-process campaign without an output directory does no I/O")
        .result
}

/// A pool of threads feeding one record channel, decoupled from result
/// collection so the control plane ([`crate::control`]) can append each
/// record's artifact chunk the moment it lands instead of waiting for the
/// whole campaign: records arrive on [`ThreadPool::records`] in
/// completion order, keyed by matrix cell.
pub(crate) struct ThreadPool {
    /// Completed records in completion (not matrix) order.
    pub(crate) records: mpsc::Receiver<((usize, u64), RunRecord)>,
    handles: Vec<std::thread::JoinHandle<()>>,
    /// The shared results the threads' tasks fill and reuse.
    shared: Arc<SharedResults>,
}

impl ThreadPool {
    /// Put `tasks` in [`dispatch_order`], prebuild the campaign pool, and
    /// start `jobs` worker threads draining the queue.
    pub(crate) fn spawn(mut tasks: Vec<TaskSpec>, jobs: usize) -> ThreadPool {
        silence_worker_panics();
        dispatch_order(&mut tasks, jobs);

        // Campaign-wide pool: pay the cold sector synthesis for the
        // canonical device arrays exactly once, before any worker starts,
        // and install the pool into every task's context. Per-task
        // counters stay a pure function of the task (the frozen codebooks
        // depend on nothing a task does, and shared results replay their
        // fill's counters), so artifacts remain deterministic.
        let prebuild = CodebookPrebuild::standard_devices();
        let shared = Arc::clone(prebuild.shared());

        let (task_tx, task_rx) = mpsc::channel::<TaskSpec>();
        for t in tasks {
            task_tx.send(t).expect("receiver alive");
        }
        drop(task_tx); // workers drain until the channel reports empty+closed

        let shared_rx = Arc::new(Mutex::new(task_rx));
        let (rec_tx, rec_rx) = mpsc::channel::<((usize, u64), RunRecord)>();

        let mut handles = Vec::with_capacity(jobs);
        for w in 0..jobs.max(1) {
            let rx = Arc::clone(&shared_rx);
            let tx = rec_tx.clone();
            let pool = prebuild.clone();
            let handle = std::thread::Builder::new()
                .name(format!("campaign-worker-{w}"))
                .spawn(move || worker_loop(rx, tx, pool))
                .expect("spawn campaign worker");
            handles.push(handle);
        }
        ThreadPool {
            records: rec_rx,
            handles,
            shared,
        }
    }

    /// Join every worker thread and report what the shared results did.
    /// Call after draining [`Self::records`].
    pub(crate) fn join(self) -> SharedStats {
        for w in self.handles {
            w.join()
                .expect("campaign worker infrastructure must not panic");
        }
        self.shared.stats()
    }
}

/// Longest-processing-time dispatch: heavy tiers first. Within a tier,
/// seeds go in groups of `k = jobs.clamp(1, SHARED_CAP)` consecutive
/// campaign seeds, in matrix order within a group (the sort is stable).
/// The consumers of one seed's shared result then run close together and
/// hit the bounded pool at any seed count, while `jobs` workers start on
/// `k` different seeds' results instead of queueing behind one fill. At
/// `jobs = 1` the order is seed-major.
fn dispatch_order(tasks: &mut [TaskSpec], jobs: usize) {
    let mut seeds: Vec<u64> = tasks.iter().map(|t| t.seed).collect();
    seeds.sort_unstable();
    seeds.dedup();
    let k = jobs.clamp(1, SHARED_CAP);
    tasks.sort_by_key(|t| {
        let rank = seeds.binary_search(&t.seed).expect("a task's own seed");
        (std::cmp::Reverse(t.exp.cost), rank / k)
    });
}

fn worker_loop(
    rx: Arc<Mutex<mpsc::Receiver<TaskSpec>>>,
    tx: mpsc::Sender<((usize, u64), RunRecord)>,
    pool: CodebookPrebuild,
) {
    loop {
        // Hold the lock only for the receive, not for the run. `recv`
        // keeps yielding buffered tasks after the sender dropped and only
        // errors once the channel is both empty and closed.
        let task = match rx.lock().expect("task channel lock").recv() {
            Ok(t) => t,
            Err(_) => return,
        };
        let record = run_task_prebuilt(&task, &pool);
        if tx.send(((task.exp_index, task.seed), record)).is_err() {
            return; // collector gone; nothing left to report to
        }
    }
}

/// Execute one matrix cell, isolating panics and collecting metrics, with
/// the campaign-wide pool (prebuilt codebooks and shared results)
/// installed into the task's context before the experiment runs.
pub fn run_task_prebuilt(task: &TaskSpec, pool: &CodebookPrebuild) -> RunRecord {
    // A fresh context per task: the counters and the codebook cache are
    // born empty, so the counters (and thus artifact bytes) are a pure
    // function of the task regardless of which worker ran what before.
    let ctx = SimCtx::new();
    pool.install(&ctx);
    if let Some(kind) = task.cc {
        mmwave_transport::cc::install_override(&ctx, kind);
    }
    if let Some(mode) = task.prune {
        mmwave_channel::spatial::install_override(&ctx, mode);
    }
    let t0 = Instant::now();
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
        (task.exp.run)(&ctx, task.quick, task.seed)
    }));
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    // The context outlives a panicking run: whatever the run scheduled
    // before dying is still useful failure forensics.
    let engine = ctx.counters();

    match outcome {
        Ok(report) => {
            let status = if report.passed() {
                RunStatus::Pass
            } else {
                RunStatus::ShapeFail
            };
            RunRecord {
                experiment: task.exp.id.to_string(),
                title: task.exp.title.to_string(),
                seed: task.seed,
                quick: task.quick,
                scenario: task.exp.scenario.to_string(),
                status,
                violations: report.violations,
                output: report.output,
                panic_message: None,
                wall_ms,
                engine,
            }
        }
        Err(payload) => RunRecord {
            experiment: task.exp.id.to_string(),
            title: task.exp.title.to_string(),
            seed: task.seed,
            quick: task.quick,
            scenario: task.exp.scenario.to_string(),
            status: RunStatus::Panicked,
            violations: Vec::new(),
            output: String::new(),
            panic_message: Some(panic_payload_message(payload.as_ref())),
            wall_ms,
            engine,
        },
    }
}

fn panic_payload_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Install (once, process-wide) a panic hook that suppresses the default
/// stderr backtrace spam for campaign worker threads — their panics are
/// captured into `RunRecord`s — while delegating unchanged for every other
/// thread.
fn silence_worker_panics() {
    static HOOK: OnceLock<()> = OnceLock::new();
    HOOK.get_or_init(|| {
        let previous = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            let in_worker = std::thread::current()
                .name()
                .is_some_and(|n| n.starts_with("campaign-worker-"));
            if !in_worker {
                previous(info);
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmwave_core::experiments::{CostTier, Experiment, RunReport};

    fn fake(id: &'static str, run: fn(&SimCtx, bool, u64) -> RunReport) -> &'static Experiment {
        Box::leak(Box::new(Experiment {
            id,
            title: id,
            cost: CostTier::Fast,
            scenario: "test-rig",
            run,
        }))
    }

    fn passing(_ctx: &SimCtx, _q: bool, seed: u64) -> RunReport {
        RunReport {
            output: format!("seed={seed}"),
            violations: vec![],
        }
    }

    fn failing(_ctx: &SimCtx, _q: bool, _s: u64) -> RunReport {
        RunReport {
            output: String::new(),
            violations: vec!["threshold off".into()],
        }
    }

    fn panicking(_ctx: &SimCtx, _q: bool, _s: u64) -> RunReport {
        panic!("simulated experiment crash");
    }

    #[test]
    fn campaign_survives_panicking_experiment() {
        let cfg = CampaignConfig {
            experiments: vec![
                fake("ok", passing),
                fake("boom", panicking),
                fake("bad", failing),
            ],
            seeds: vec![1, 2],
            quick: true,
            jobs: 3,
            cc: None,
            prune: None,
        };
        let result = run(&cfg);
        assert_eq!(result.records.len(), 6);
        let (pass, shape, panicked) = result.counts();
        assert_eq!((pass, shape, panicked), (2, 2, 2));
        assert!(!result.all_passed());
        let boom: Vec<_> = result
            .records
            .iter()
            .filter(|r| r.status == RunStatus::Panicked)
            .collect();
        assert_eq!(boom.len(), 2);
        for r in boom {
            assert_eq!(r.experiment, "boom");
            assert_eq!(
                r.panic_message.as_deref(),
                Some("simulated experiment crash")
            );
        }
    }

    #[test]
    fn records_come_back_in_matrix_order_any_jobs() {
        let cfg1 = CampaignConfig {
            experiments: vec![fake("a", passing), fake("b", passing)],
            seeds: vec![5, 9],
            quick: true,
            jobs: 1,
            cc: None,
            prune: None,
        };
        let mut cfg4 = cfg1.clone();
        cfg4.jobs = 4;
        for result in [run(&cfg1), run(&cfg4)] {
            let order: Vec<(String, u64)> = result
                .records
                .iter()
                .map(|r| (r.experiment.clone(), r.seed))
                .collect();
            // Records carry the registry id; order is by matrix
            // position, so seeds iterate within each experiment.
            let want = [("a", 5), ("a", 9), ("b", 5), ("b", 9)];
            assert_eq!(order, want.map(|(id, s)| (id.to_string(), s)));
        }
    }

    #[test]
    fn dispatch_interleaves_seeds_only_across_workers() {
        let (a, b) = (fake("a", passing), fake("b", passing));
        let order = |jobs: usize| {
            let mut tasks: Vec<TaskSpec> = [a, b]
                .into_iter()
                .enumerate()
                .flat_map(|(exp_index, exp)| {
                    [1u64, 2, 3].map(|seed| TaskSpec {
                        exp,
                        exp_index,
                        seed,
                        quick: true,
                        cc: None,
                        prune: None,
                    })
                })
                .collect();
            dispatch_order(&mut tasks, jobs);
            tasks.iter().map(|t| (t.exp.id, t.seed)).collect::<Vec<_>>()
        };
        // One worker: seed-major, matrix order within a seed.
        let one = order(1);
        assert_eq!(
            one,
            [("a", 1), ("b", 1), ("a", 2), ("b", 2), ("a", 3), ("b", 3)]
        );
        // Two workers start on different seeds, in groups of two seeds.
        let two = order(2);
        assert_ne!(two[0].1, two[1].1, "{two:?}");
        assert_eq!(
            two,
            [("a", 1), ("a", 2), ("b", 1), ("b", 2), ("a", 3), ("b", 3)]
        );
    }

    #[test]
    fn run_task_reports_wall_time_and_counters() {
        let t = TaskSpec {
            exp: fake("ok", passing),
            exp_index: 0,
            seed: 3,
            quick: true,
            cc: None,
            prune: None,
        };
        let rec = run_task_prebuilt(&t, &CodebookPrebuild::standard(&[]));
        assert!(rec.status.is_pass());
        assert!(rec.wall_ms >= 0.0);
        assert_eq!(rec.output, "seed=3");
    }
}
