//! The campaign control plane: the one campaign loop.
//!
//! [`run`] plans the task matrix, runs it through two pieces, and merges
//! the records back into matrix order:
//!
//! * **Ledger** ([`crate::manifest`]): decides which cells a `--resume`
//!   can skip. Given an output directory, each task's artifact **chunk**
//!   (`runs/<id>-s<seed>.json`) and then its ledger line are written the
//!   moment the task completes, instead of buffering the whole campaign;
//!   without one the control plane does no I/O of its own.
//! * **In-process pool** (`runner::ThreadPool`): executes the pending
//!   tasks on `--jobs` threads, each task on a private `SimCtx`, so
//!   artifact bytes are a pure function of the task.
//!
//! Crash-recovery invariants (tested in `tests/resume.rs`):
//!
//! 1. **Write-then-record**: a manifest line is appended only after its
//!    chunk file is fully on disk. A crash leaves at worst an unrecorded
//!    or torn artifact that the rerun rewrites.
//! 2. **Verify-before-skip**: `--resume` skips a task only if its
//!    manifest line parses, the matrix fingerprint matches, and the chunk
//!    on disk hashes clean at the recorded length. Corruption of any of
//!    the three degrades to re-execution, never to a wrong artifact.
//! 3. **Byte-stability**: a resumed campaign's final artifact set is
//!    byte-identical (after execution-metadata normalization) to a fresh
//!    run — resumed records are decoded from the very bytes that hashed
//!    clean (one read per chunk) with the same codec that wrote them, and
//!    the codec round-trips exactly.
//!
//! Crash containment: an experiment panic is caught by the pool and
//! becomes a `panicked` record, so the campaign completes with one record
//! per matrix cell. A death of the process itself (an abort, a kill, an
//! out-of-memory) ends the campaign, and invariant 1 makes a `--resume`
//! rerun recover every cell that completed before it.

use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::manifest::{self, ChunkEntry, Manifest, ManifestWriter};
use crate::{artifact, runner, CampaignConfig, CampaignResult, RunRecord, TaskSpec};
use mmwave_sim::shared::SharedStats;

/// Execution knobs for the control plane.
#[derive(Clone, Debug, Default)]
pub struct ControlOpts {
    /// Skip tasks whose chunk already exists and hashes clean against the
    /// manifest (requires a matching matrix fingerprint). Without an
    /// output directory there is no manifest, so nothing is skipped.
    pub resume: bool,
}

/// What a campaign did, beyond the [`CampaignResult`] itself.
pub struct ControlSummary {
    /// Records in matrix order, resumed and executed merged.
    pub result: CampaignResult,
    /// Path of the written `manifest.json`; `None` without an output
    /// directory.
    pub manifest_path: Option<PathBuf>,
    /// `(experiment, seed)` cells skipped because their chunk verified
    /// hash-clean, in matrix order.
    pub resumed: Vec<(String, u64)>,
    /// `(experiment, seed)` cells actually executed this invocation, in
    /// matrix order.
    pub executed: Vec<(String, u64)>,
    /// Fills and reuses of the pool's shared results.
    pub shared: SharedStats,
}

/// A record tagged with its matrix cell `(exp_index, seed)`.
type Keyed = ((usize, u64), RunRecord);

/// Run the campaign. Blocks until every matrix cell has a record. With
/// `out`, artifacts land under it as the campaign progresses (chunks +
/// `campaign.manifest`), with the summary `manifest.json` written last;
/// without it, the records come back in memory only.
pub fn run(
    cfg: &CampaignConfig,
    out: Option<&Path>,
    opts: &ControlOpts,
) -> io::Result<ControlSummary> {
    let t0 = Instant::now();
    let tasks = cfg.tasks();
    let (resumed, pending, mut ledger) = match out {
        Some(out) => {
            let (resumed, pending, ledger) = open_ledger(out, tasks, opts.resume)?;
            (resumed, pending, Some((out, ledger)))
        }
        None => (Vec::new(), tasks, None),
    };

    let jobs = cfg.effective_jobs().min(pending.len()).max(1);
    let expected = pending.len();
    let mut executed: Vec<Keyed> = Vec::with_capacity(expected);
    let mut chunks_streamed: u64 = 0;

    // Dispatch the pending tasks, streaming each completed record into
    // its chunk + ledger line as it arrives (invariant 1).
    let pool = runner::ThreadPool::spawn(pending, jobs);
    for (key, record) in pool.records.iter() {
        if let Some((out, ledger)) = ledger.as_mut() {
            let rel = artifact::run_artifact_name(&record.experiment, record.seed);
            let chunk = artifact::run_to_json(&record).render();
            std::fs::write(out.join(&rel), &chunk)?;
            ledger.append(&ChunkEntry {
                hash: manifest::fnv1a64(chunk.as_bytes()),
                len: chunk.len() as u64,
                experiment: record.experiment.clone(),
                seed: record.seed,
                rel_path: rel,
            })?;
            chunks_streamed += 1;
        }
        executed.push((key, record));
    }
    let shared = pool.join();
    assert_eq!(
        executed.len(),
        expected,
        "control plane lost records (dispatch bug)"
    );

    // Merge and re-sort into matrix order: scheduling, sharding and
    // resume order are all invisible in the final artifact set.
    let tasks_resumed = resumed.len() as u64;
    let resumed_keys: Vec<(String, u64)> = sorted_keys(&resumed);
    let executed_keys: Vec<(String, u64)> = sorted_keys(&executed);
    let mut keyed = resumed;
    keyed.extend(executed);
    keyed.sort_by_key(|(key, _)| *key);

    let result = CampaignResult {
        records: keyed.into_iter().map(|(_, r)| r).collect(),
        seeds: cfg.seeds.clone(),
        quick: cfg.quick,
        jobs,
        workers: 0,
        tasks_resumed,
        chunks_streamed,
        wall_ms: t0.elapsed().as_secs_f64() * 1e3,
    };
    let manifest_path = match out {
        Some(out) => {
            let path = out.join("manifest.json");
            std::fs::write(&path, artifact::manifest_to_json(&result).render())?;
            Some(path)
        }
        None => None,
    };
    Ok(ControlSummary {
        result,
        manifest_path,
        resumed: resumed_keys,
        executed: executed_keys,
        shared,
    })
}

/// [`run`] with an output directory: chunks, ledger and `manifest.json`
/// land under `out`.
pub fn run_streaming(
    cfg: &CampaignConfig,
    out: &Path,
    opts: &ControlOpts,
) -> io::Result<ControlSummary> {
    run(cfg, Some(out), opts)
}

/// Prepare `out` for a campaign over `tasks`: split them into the records
/// a resume can carry over and the tasks still to run, and rewrite the
/// ledger with the carried entries.
fn open_ledger(
    out: &Path,
    tasks: Vec<TaskSpec>,
    resume: bool,
) -> io::Result<(Vec<Keyed>, Vec<TaskSpec>, ManifestWriter)> {
    std::fs::create_dir_all(out.join("runs"))?;
    let fp = manifest::fingerprint(&tasks);

    // Resume pass: a task is skippable iff the previous manifest matches
    // this matrix and its chunk verifies (invariant 2). Everything else
    // stays pending.
    let mut resumed: Vec<Keyed> = Vec::new();
    let mut carried: Vec<ChunkEntry> = Vec::new();
    let mut pending: Vec<TaskSpec> = Vec::new();
    let previous = if resume {
        Manifest::load(out).filter(|m| m.fingerprint == fp)
    } else {
        None
    };
    for task in tasks {
        // Each candidate chunk is read and hashed once, and the record is
        // decoded from exactly those bytes. Hash-clean bytes can still fail
        // to decode (e.g. a chunk from an older schema whose manifest
        // somehow fingerprint-matched); that also degrades to re-execution.
        let record = previous
            .as_ref()
            .and_then(|m| m.entry(task.exp.id, task.seed))
            .filter(|e| e.rel_path == artifact::run_artifact_name(task.exp.id, task.seed))
            .and_then(|e| {
                let text = String::from_utf8(e.read_verified(out)?).ok()?;
                let parsed = crate::json::Json::parse(&text).ok()?;
                let rec = artifact::run_from_json(&parsed).ok()?;
                Some((e.clone(), rec))
            });
        match record {
            Some((entry, rec)) => {
                carried.push(entry);
                resumed.push(((task.exp_index, task.seed), rec));
            }
            None => pending.push(task),
        }
    }

    // The manifest is rewritten (header + carried entries) rather than
    // appended to: stale lines, torn tails and superseded duplicates die
    // here, and every later append lands after a clean prefix.
    let ledger = ManifestWriter::create(out, fp, &carried)?;
    Ok((resumed, pending, ledger))
}

fn sorted_keys(records: &[Keyed]) -> Vec<(String, u64)> {
    let mut keyed: Vec<_> = records.iter().collect();
    keyed.sort_by_key(|(key, _)| *key);
    keyed
        .into_iter()
        .map(|(_, r)| (r.experiment.clone(), r.seed))
        .collect()
}
