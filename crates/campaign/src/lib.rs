//! # mmwave-campaign — sharded, deterministic campaign orchestration
//!
//! The paper's contribution is a *measurement campaign*: dozens of setups,
//! seeds and sweep points. This crate is the orchestration layer that runs
//! such a campaign as a first-class object instead of a sequential shell
//! loop:
//!
//! * **Matrix** — a [`CampaignConfig`] selects experiments from the typed
//!   registry ([`mmwave_core::experiments::REGISTRY`]), a seed list, and a
//!   quick/full mode; the cross product is the task matrix.
//! * **One loop** — [`control::run`] is the only campaign loop. It plans
//!   the matrix, dispatches it to a `std::thread` pool (tasks flow through
//!   an mpsc channel that idle workers pull from, heaviest cost tier
//!   first), and merges the records back into matrix order. Given
//!   an output directory it also streams each completed artifact chunk to
//!   disk and keeps a resumable ledger ([`manifest`]) of per-chunk hashes,
//!   so an interrupted campaign can `--resume` past every hash-clean task.
//!   [`runner::run`] and [`control::run_streaming`] are one-line calls
//!   into it.
//! * **Determinism** — results are bitwise identical for any worker count
//!   and any scheduling order: each task's randomness is a pure function
//!   of `(experiment id, seed)` (experiments fork labelled `SimRng`
//!   substreams from the seed), and records are re-sorted into matrix
//!   order before artifacts are written.
//! * **Shared results** — the one thing tasks share is the campaign pool
//!   ([`mmwave_phy::CodebookPrebuild`]): prebuilt codebooks plus
//!   deterministic sub-results computed once per key (the Figs. 9–11 TCP
//!   sweep runs once per seed, not once per consumer). Each key names
//!   everything its fill reads, and a reuse replays the fill's counters,
//!   so which task filled an entry never shows in an artifact.
//! * **Isolation** — a panicking experiment is caught with
//!   `catch_unwind`, reported as a failed [`RunRecord`], and the campaign
//!   keeps going; partial failure surfaces as a nonzero exit from the
//!   CLI, not an abort.
//! * **Artifacts** — [`artifact`] encodes a campaign manifest plus one
//!   structured JSON report per run ([`json`] is a std-only
//!   encoder/decoder), including wall time and the engine's scheduler
//!   counters (events popped, peak queue depth) read from the
//!   task's private [`mmwave_sim::ctx::SimCtx`].
//!
//! Std-only by construction: no crates.io dependencies, so the subsystem
//! builds in hermetic/offline environments.
//!
//! ```
//! use mmwave_campaign::{runner, CampaignConfig};
//! use mmwave_core::experiments;
//!
//! let cfg = CampaignConfig {
//!     experiments: vec![experiments::find("table1").expect("registered")],
//!     seeds: vec![1],
//!     quick: true,
//!     jobs: 2,
//!     cc: None,
//!     prune: None,
//! };
//! let result = runner::run(&cfg);
//! assert_eq!(result.records.len(), 1);
//! assert!(result.records[0].status.is_pass());
//! ```

pub mod artifact;
pub mod control;
pub mod json;
pub mod manifest;
pub mod runner;

use mmwave_core::experiments::Experiment;
use mmwave_sim::metrics::EngineCounters;

/// What to run: the experiment × seed matrix plus execution knobs.
#[derive(Clone)]
pub struct CampaignConfig {
    /// Selected experiments, in manifest order.
    pub experiments: Vec<&'static Experiment>,
    /// Seeds; every experiment runs once per seed.
    pub seeds: Vec<u64>,
    /// Quick mode (shorter campaigns, fewer sweep points).
    pub quick: bool,
    /// Worker threads; 0 means one per available core.
    pub jobs: usize,
    /// Congestion-control override for every TCP flow the campaign's
    /// experiments create (`--cc`); `None` keeps each flow's own choice
    /// (default Reno).
    pub cc: Option<mmwave_transport::CcKind>,
    /// Spatial-prune-mode override for every experiment in the matrix;
    /// `None` keeps each experiment's own choice. See [`TaskSpec::prune`].
    pub prune: Option<mmwave_channel::PruneMode>,
}

impl CampaignConfig {
    /// The full registry at one seed — the default campaign.
    pub fn all(quick: bool, seeds: Vec<u64>, jobs: usize) -> CampaignConfig {
        CampaignConfig {
            experiments: mmwave_core::experiments::REGISTRY.iter().collect(),
            seeds,
            quick,
            jobs,
            cc: None,
            prune: None,
        }
    }

    /// The task matrix in deterministic (experiment, seed) order.
    pub fn tasks(&self) -> Vec<TaskSpec> {
        let mut out = Vec::with_capacity(self.experiments.len() * self.seeds.len());
        for (exp_index, exp) in self.experiments.iter().enumerate() {
            for &seed in &self.seeds {
                out.push(TaskSpec {
                    exp,
                    exp_index,
                    seed,
                    quick: self.quick,
                    cc: self.cc,
                    prune: self.prune,
                });
            }
        }
        out
    }

    /// Worker count after resolving `jobs == 0` to the core count.
    pub fn effective_jobs(&self) -> usize {
        if self.jobs > 0 {
            self.jobs
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }
}

/// One cell of the campaign matrix.
#[derive(Clone, Copy, Debug)]
pub struct TaskSpec {
    /// The experiment descriptor to run.
    pub exp: &'static Experiment,
    /// Position in [`CampaignConfig::experiments`] (manifest order).
    pub exp_index: usize,
    /// The seed passed to the experiment.
    pub seed: u64,
    /// Quick mode flag.
    pub quick: bool,
    /// Congestion-control override installed on the task's context before
    /// the experiment runs.
    pub cc: Option<mmwave_transport::CcKind>,
    /// Spatial-prune-mode override installed on the task's context before
    /// the experiment runs. `None` keeps each experiment's own choice
    /// (default [`PruneMode::Enforce`] where spatial pruning is enabled);
    /// the equivalence suite forces [`PruneMode::Audit`] to prove the
    /// interference graph never changes an artifact byte.
    ///
    /// [`PruneMode::Enforce`]: mmwave_channel::PruneMode::Enforce
    /// [`PruneMode::Audit`]: mmwave_channel::PruneMode::Audit
    pub prune: Option<mmwave_channel::PruneMode>,
}

/// How a run ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunStatus {
    /// All shape checks held.
    Pass,
    /// The experiment completed but violated shape checks.
    ShapeFail,
    /// The experiment panicked; the campaign continued without it.
    Panicked,
}

impl RunStatus {
    pub fn is_pass(&self) -> bool {
        matches!(self, RunStatus::Pass)
    }

    /// Stable artifact string.
    pub fn as_str(&self) -> &'static str {
        match self {
            RunStatus::Pass => "pass",
            RunStatus::ShapeFail => "shape-fail",
            RunStatus::Panicked => "panicked",
        }
    }

    /// Inverse of [`RunStatus::as_str`].
    pub fn parse(s: &str) -> Option<RunStatus> {
        match s {
            "pass" => Some(RunStatus::Pass),
            "shape-fail" => Some(RunStatus::ShapeFail),
            "panicked" => Some(RunStatus::Panicked),
            _ => None,
        }
    }
}

/// The structured outcome of one task: everything the artifact records.
#[derive(Clone, Debug, PartialEq)]
pub struct RunRecord {
    /// Experiment id ("fig09", "table1", …).
    pub experiment: String,
    /// Human title from the registry.
    pub title: String,
    /// The campaign seed this run used.
    pub seed: u64,
    /// Quick mode flag.
    pub quick: bool,
    /// Scenario/rig name from the registry ("point-to-point",
    /// "dynamic-blocker", …) — traces the record back to its geometry.
    pub scenario: String,
    /// Outcome classification.
    pub status: RunStatus,
    /// Shape-check violations (empty on pass or panic).
    pub violations: Vec<String>,
    /// Rendered paper-style output (empty on panic).
    pub output: String,
    /// Panic payload, when `status == Panicked`.
    pub panic_message: Option<String>,
    /// Wall-clock runtime of this task in milliseconds (execution
    /// metadata: excluded from determinism comparisons).
    pub wall_ms: f64,
    /// Scheduler counters accumulated across every engine the run built.
    pub engine: EngineCounters,
}

/// A completed campaign: records in matrix order plus execution metadata.
#[derive(Clone, Debug)]
pub struct CampaignResult {
    /// One record per task, sorted by (experiment order, seed) — the same
    /// order regardless of worker count or scheduling.
    pub records: Vec<RunRecord>,
    /// Seeds the campaign ran.
    pub seeds: Vec<u64>,
    /// Quick mode flag.
    pub quick: bool,
    /// Worker threads actually used (execution metadata).
    pub jobs: usize,
    /// Always 0: every campaign runs on the in-process thread pool. The
    /// field and the manifest's `"workers"` key stay so that the
    /// manifest schema and the callers that build a `CampaignResult`
    /// literal are unchanged (execution metadata).
    pub workers: usize,
    /// Tasks skipped by `--resume` because their chunk verified hash-clean
    /// against the manifest (execution metadata).
    pub tasks_resumed: u64,
    /// Chunks written incrementally by the control plane; 0 for a campaign
    /// run without an output directory (execution metadata).
    pub chunks_streamed: u64,
    /// Total campaign wall time in milliseconds (execution metadata).
    pub wall_ms: f64,
}

impl CampaignResult {
    /// True if every run passed its shape checks and none panicked.
    pub fn all_passed(&self) -> bool {
        self.records.iter().all(|r| r.status.is_pass())
    }

    /// (passed, shape-failed, panicked) counts.
    pub fn counts(&self) -> (usize, usize, usize) {
        let mut c = (0, 0, 0);
        for r in &self.records {
            match r.status {
                RunStatus::Pass => c.0 += 1,
                RunStatus::ShapeFail => c.1 += 1,
                RunStatus::Panicked => c.2 += 1,
            }
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tasks_enumerate_matrix_in_order() {
        let cfg = CampaignConfig {
            experiments: mmwave_core::experiments::REGISTRY.iter().take(2).collect(),
            seeds: vec![3, 7],
            quick: true,
            jobs: 1,
            cc: None,
            prune: None,
        };
        let tasks = cfg.tasks();
        assert_eq!(tasks.len(), 4);
        let cells: Vec<(usize, u64)> = tasks.iter().map(|t| (t.exp_index, t.seed)).collect();
        assert_eq!(cells, vec![(0, 3), (0, 7), (1, 3), (1, 7)]);
    }

    #[test]
    fn status_strings_roundtrip() {
        for s in [RunStatus::Pass, RunStatus::ShapeFail, RunStatus::Panicked] {
            assert_eq!(RunStatus::parse(s.as_str()), Some(s));
        }
        assert_eq!(RunStatus::parse("weird"), None);
    }

    #[test]
    fn effective_jobs_resolves_zero() {
        let cfg = CampaignConfig {
            experiments: vec![],
            seeds: vec![],
            quick: true,
            jobs: 0,
            cc: None,
            prune: None,
        };
        assert!(cfg.effective_jobs() >= 1);
        let cfg = CampaignConfig {
            experiments: vec![],
            seeds: vec![],
            quick: true,
            jobs: 3,
            cc: None,
            prune: None,
        };
        assert_eq!(cfg.effective_jobs(), 3);
    }
}
