//! The campaign control plane: the one campaign loop.
//!
//! [`run`] does the whole job of a campaign, in two layers:
//!
//! * **Control plane** (this module, in the parent process): plans the
//!   task matrix, decides what a `--resume` can skip, streams tasks to
//!   workers, and merges the records back into matrix order. Given an
//!   output directory it appends each task's artifact **chunk**
//!   (`runs/<id>-s<seed>.json`) plus a [`crate::manifest`] ledger line
//!   the moment the task completes, instead of buffering the whole
//!   campaign; without one it does no I/O of its own.
//! * **Worker datapath**: either the in-process thread pool
//!   (`workers == 0`, `runner::ThreadPool`) or `workers` subprocesses
//!   (`campaign worker`) driven over stdio pipes with the
//!   [`crate::proto`] framing. Each task runs on a private `SimCtx`
//!   either way, so artifact bytes are a pure function of the task — the
//!   process-sharded-vs-in-process equivalence suite diffs the two
//!   datapaths byte for byte.
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
//! Worker-process failure is contained the same way experiment panics
//! are: a task whose worker died mid-frame is retried once on a
//! respawned worker, then surfaced as a `panicked` record, so the
//! campaign always completes with one record per matrix cell.

use std::collections::VecDeque;
use std::io::{self, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::manifest::{self, ChunkEntry, Manifest, ManifestWriter};
use crate::proto::{self, Msg};
use crate::{artifact, runner, CampaignConfig, CampaignResult, RunRecord, RunStatus, TaskSpec};
use mmwave_sim::shared::{SharedResults, SharedStats};

/// Execution knobs for the control plane.
#[derive(Clone, Debug, Default)]
pub struct ControlOpts {
    /// Worker *processes* to shard across. `0` keeps the datapath
    /// in-process (the `cfg.jobs` thread pool). Sharding needs no output
    /// directory: records come back over the pipes either way.
    pub workers: usize,
    /// Skip tasks whose chunk already exists and hashes clean against the
    /// manifest (requires a matching matrix fingerprint). Without an
    /// output directory there is no manifest, so nothing is skipped.
    pub resume: bool,
    /// Command line that starts one worker process. Empty means "this
    /// executable with the single argument `worker`" — what the `campaign`
    /// CLI wants. Tests point it at `env!("CARGO_BIN_EXE_campaign")`.
    pub worker_cmd: Vec<String>,
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
    /// Fills and reuses of the in-process pool's shared results. Zero
    /// with `workers > 0`: each worker subprocess holds its own pool and
    /// keeps its own counts.
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
    let pool = if opts.workers == 0 {
        runner::ThreadPool::spawn(pending, jobs)
    } else {
        spawn_worker_procs(pending, opts)?
    };
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
        workers: opts.workers,
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

/// Start one thread per worker process, each feeding its worker from a
/// shared LPT-ordered queue of `pending`. No more threads start than
/// there are tasks: an extra one would find the queue empty at once.
fn spawn_worker_procs(
    pending: Vec<TaskSpec>,
    opts: &ControlOpts,
) -> io::Result<runner::ThreadPool> {
    let (rec_tx, records) = mpsc::channel::<Keyed>();
    let procs = opts.workers.min(pending.len());
    let queue = Arc::new(Mutex::new(plan_queue(pending)));
    let worker_cmd = resolve_worker_cmd(&opts.worker_cmd)?;
    let mut handles = Vec::with_capacity(procs);
    for w in 0..procs {
        let queue = Arc::clone(&queue);
        let tx = rec_tx.clone();
        let cmd = worker_cmd.clone();
        handles.push(
            std::thread::Builder::new()
                .name(format!("campaign-dispatch-{w}"))
                .spawn(move || drive_worker(&cmd, &queue, &tx))
                .expect("spawn worker dispatch thread"),
        );
    }
    Ok(runner::ThreadPool {
        records,
        handles,
        shared: Arc::new(SharedResults::default()),
    })
}

fn sorted_keys(records: &[Keyed]) -> Vec<(String, u64)> {
    let mut keyed: Vec<_> = records.iter().collect();
    keyed.sort_by_key(|(key, _)| *key);
    keyed
        .into_iter()
        .map(|(_, r)| (r.experiment.clone(), r.seed))
        .collect()
}

/// One queued dispatch: the task plus how often it already failed on a
/// dying worker.
struct QueuedTask {
    task: TaskSpec,
    retries: u32,
}

fn plan_queue(mut pending: Vec<TaskSpec>) -> VecDeque<QueuedTask> {
    // Same LPT order the in-process pool uses.
    pending.sort_by_key(|t| std::cmp::Reverse(t.exp.cost));
    pending
        .into_iter()
        .map(|task| QueuedTask { task, retries: 0 })
        .collect()
}

fn resolve_worker_cmd(configured: &[String]) -> io::Result<Vec<String>> {
    if !configured.is_empty() {
        return Ok(configured.to_vec());
    }
    let exe = std::env::current_exe()?;
    Ok(vec![exe.to_string_lossy().into_owned(), "worker".into()])
}

fn spawn_worker(cmd: &[String]) -> io::Result<Child> {
    Command::new(&cmd[0])
        .args(&cmd[1..])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        // stderr stays attached: worker diagnostics surface on the
        // campaign's own stderr.
        .spawn()
}

/// Drive one worker process from the shared queue until the queue is
/// empty. Protocol failures (worker killed, torn frame) requeue the
/// in-flight task once and respawn the worker; a task that kills two
/// workers is reported as a `panicked` record so the campaign still
/// completes with a full matrix.
fn drive_worker(cmd: &[String], queue: &Mutex<VecDeque<QueuedTask>>, tx: &mpsc::Sender<Keyed>) {
    let mut worker: Option<(Child, BufReader<std::process::ChildStdout>)> = None;
    loop {
        let Some(queued) = queue.lock().expect("task queue lock").pop_front() else {
            break;
        };
        let task = queued.task;
        // (Re)spawn lazily: a driver that never gets a task never forks.
        if worker.is_none() {
            match spawn_worker(cmd) {
                Ok(mut child) => {
                    let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
                    worker = Some((child, stdout));
                }
                Err(e) => {
                    // Cannot shard at all from this driver (bad worker
                    // command, fork limit): fail the task explicitly
                    // rather than stalling the campaign.
                    report_failure(tx, &task, &format!("cannot spawn worker: {e}"));
                    continue;
                }
            }
        }
        let (child, stdout) = worker.as_mut().expect("worker just ensured");
        match exchange(child, stdout, &task) {
            Ok(record) => {
                if tx.send(((task.exp_index, task.seed), record)).is_err() {
                    break; // collector gone; stop cleanly
                }
            }
            Err(e) => {
                // The worker is in an unknown state: discard it and either
                // retry the task on a fresh one or give up on the task.
                let (mut child, _) = worker.take().expect("worker present");
                let _ = child.kill();
                let _ = child.wait();
                if queued.retries == 0 {
                    queue
                        .lock()
                        .expect("task queue lock")
                        .push_back(QueuedTask { task, retries: 1 });
                } else {
                    report_failure(tx, &task, &format!("worker protocol failure: {e}"));
                }
            }
        }
    }
    if let Some((mut child, _)) = worker {
        let mut stdin = child.stdin.take();
        if let Some(w) = stdin.as_mut() {
            let _ = proto::write_msg(w, &Msg::Done);
        }
        drop(stdin); // EOF, in case the DONE write failed
        let _ = child.wait();
    }
}

/// Send one task, wait for its result.
fn exchange(
    child: &mut Child,
    stdout: &mut BufReader<std::process::ChildStdout>,
    task: &TaskSpec,
) -> io::Result<RunRecord> {
    let stdin = child
        .stdin
        .as_mut()
        .ok_or_else(|| io::Error::other("worker stdin closed"))?;
    proto::write_msg(stdin, &Msg::Task(*task))?;
    match proto::read_msg(stdout)? {
        Some(Msg::Result(record)) => Ok(*record),
        Some(other) => Err(io::Error::other(format!("expected RESULT, got {other:?}"))),
        None => Err(io::Error::other("worker exited before replying")),
    }
}

/// Synthesize the record for a task no worker could complete. Shaped like
/// an experiment panic — status `panicked`, message in `panic_message` —
/// because that is exactly what it is from the campaign's perspective:
/// one cell failed, the matrix completed.
fn report_failure(tx: &mpsc::Sender<Keyed>, task: &TaskSpec, message: &str) {
    let record = RunRecord {
        experiment: task.exp.id.to_string(),
        title: task.exp.title.to_string(),
        seed: task.seed,
        quick: task.quick,
        scenario: task.exp.scenario.to_string(),
        status: RunStatus::Panicked,
        violations: Vec::new(),
        output: String::new(),
        panic_message: Some(message.to_string()),
        wall_ms: 0.0,
        engine: Default::default(),
    };
    let _ = tx.send(((task.exp_index, task.seed), record));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_dispatch_starts_no_more_threads_than_tasks() {
        let one_task = CampaignConfig::all(true, vec![1], 1).tasks()[..1].to_vec();
        let opts = ControlOpts {
            workers: 64,
            // Never starts: the one dispatch thread fails its task at spawn.
            worker_cmd: vec!["/nonexistent/campaign-worker".into()],
            ..ControlOpts::default()
        };
        let pool = spawn_worker_procs(one_task, &opts).expect("dispatch starts");
        assert_eq!(pool.handles.len(), 1);
        assert_eq!(pool.records.iter().count(), 1, "the failed task reports");
        pool.join();
    }
}
