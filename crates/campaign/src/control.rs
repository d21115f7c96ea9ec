//! The campaign control plane: streaming, process-sharded, resumable.
//!
//! [`run_streaming`] splits the old monolithic "run everything, then
//! write everything" runner into two layers:
//!
//! * **Control plane** (this module, in the parent process): plans the
//!   task matrix, decides what a `--resume` can skip, streams tasks to
//!   workers, and — the key structural change — appends each task's
//!   artifact **chunk** (`runs/<id>-s<seed>.json`) plus a
//!   [`crate::manifest`] ledger line the moment the task completes,
//!   instead of buffering the whole campaign in memory.
//! * **Worker datapath**: either the in-process thread pool
//!   (`workers == 0`, reusing [`runner::ThreadPool`]) or `workers`
//!   subprocesses (`campaign worker`) driven over stdio pipes with the
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
use crate::proto::{self, Msg, WireTask};
use crate::{artifact, runner, CampaignConfig, CampaignResult, RunRecord, RunStatus, TaskSpec};

/// Execution knobs for the streaming control plane.
#[derive(Clone, Debug)]
pub struct ControlOpts {
    /// Worker *processes* to shard across. `0` keeps the datapath
    /// in-process (the `cfg.jobs` thread pool) while still streaming
    /// chunks and maintaining the manifest.
    pub workers: usize,
    /// Skip tasks whose chunk already exists and hashes clean against the
    /// manifest (requires a matching matrix fingerprint).
    pub resume: bool,
    /// Command line that starts one worker process. Empty means "this
    /// executable with the single argument `worker`" — what the `campaign`
    /// CLI wants. Tests point it at `env!("CARGO_BIN_EXE_campaign")`.
    pub worker_cmd: Vec<String>,
}

impl Default for ControlOpts {
    fn default() -> Self {
        ControlOpts {
            workers: 0,
            resume: false,
            worker_cmd: Vec::new(),
        }
    }
}

/// What a streaming campaign did, beyond the [`CampaignResult`] itself.
pub struct ControlSummary {
    /// Records in matrix order, resumed and executed merged.
    pub result: CampaignResult,
    /// Path of the written `manifest.json`.
    pub manifest_path: PathBuf,
    /// `(experiment, seed)` cells skipped because their chunk verified
    /// hash-clean, in matrix order.
    pub resumed: Vec<(String, u64)>,
    /// `(experiment, seed)` cells actually executed this invocation, in
    /// matrix order.
    pub executed: Vec<(String, u64)>,
}

/// Run the campaign through the streaming control plane. Blocks until
/// every matrix cell has a record; artifacts land under `out` as the
/// campaign progresses (chunks + `campaign.manifest`), with the summary
/// `manifest.json` written last.
pub fn run_streaming(
    cfg: &CampaignConfig,
    out: &Path,
    opts: &ControlOpts,
) -> io::Result<ControlSummary> {
    let t0 = Instant::now();
    std::fs::create_dir_all(out.join("runs"))?;

    let tasks = cfg.tasks();
    let fp = manifest::fingerprint(&tasks);

    // Resume pass: a task is skippable iff the previous manifest matches
    // this matrix and its chunk verifies (invariant 2). Everything else
    // stays pending.
    let mut resumed: Vec<((usize, u64), RunRecord)> = Vec::new();
    let mut carried: Vec<ChunkEntry> = Vec::new();
    let mut pending: Vec<TaskSpec> = Vec::new();
    let previous = if opts.resume {
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
    let mut ledger = ManifestWriter::create(out, fp, &carried)?;

    let jobs = cfg.effective_jobs().min(pending.len()).max(1);
    let mut executed: Vec<((usize, u64), RunRecord)> = Vec::with_capacity(pending.len());
    let expected = pending.len();
    let mut chunks_streamed: u64 = 0;

    // Dispatch the pending tasks, streaming each completed record into
    // its chunk + ledger line as it arrives (invariant 1).
    let mut stream_record =
        |key: (usize, u64), record: RunRecord, ledger: &mut ManifestWriter| -> io::Result<()> {
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
            executed.push((key, record));
            Ok(())
        };

    if opts.workers == 0 {
        let pool = runner::ThreadPool::spawn(pending, jobs);
        for (key, record) in pool.records.iter() {
            stream_record(key, record, &mut ledger)?;
        }
        pool.join();
    } else {
        let (rec_tx, rec_rx) = mpsc::channel::<((usize, u64), RunRecord)>();
        let queue = Arc::new(Mutex::new(plan_queue(pending)));
        let worker_cmd = resolve_worker_cmd(&opts.worker_cmd)?;
        let mut drivers = Vec::new();
        for w in 0..opts.workers {
            let queue = Arc::clone(&queue);
            let tx = rec_tx.clone();
            let cmd = worker_cmd.clone();
            drivers.push(
                std::thread::Builder::new()
                    .name(format!("campaign-driver-{w}"))
                    .spawn(move || drive_worker(&cmd, &queue, &tx))
                    .expect("spawn worker driver"),
            );
        }
        drop(rec_tx);
        let mut received = 0usize;
        for (key, record) in rec_rx.iter() {
            stream_record(key, record, &mut ledger)?;
            received += 1;
        }
        for d in drivers {
            d.join().expect("worker driver must not panic");
        }
        assert_eq!(
            received, expected,
            "control plane lost records (driver bug)"
        );
    }

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
    let manifest_path = out.join("manifest.json");
    std::fs::write(&manifest_path, artifact::manifest_to_json(&result).render())?;
    Ok(ControlSummary {
        result,
        manifest_path,
        resumed: resumed_keys,
        executed: executed_keys,
    })
}

fn sorted_keys(records: &[((usize, u64), RunRecord)]) -> Vec<(String, u64)> {
    let mut keyed: Vec<_> = records.iter().collect();
    keyed.sort_by_key(|(key, _)| *key);
    keyed
        .into_iter()
        .map(|(_, r)| (r.experiment.clone(), r.seed))
        .collect()
}

/// One queued dispatch: the wire form plus how often it already failed on
/// a dying worker.
struct QueuedTask {
    wire: WireTask,
    key: (usize, u64),
    retries: u32,
}

fn plan_queue(mut pending: Vec<TaskSpec>) -> VecDeque<QueuedTask> {
    // Same LPT order the in-process pool uses.
    pending.sort_by_key(|t| std::cmp::Reverse(t.exp.cost));
    pending
        .into_iter()
        .map(|t| QueuedTask {
            key: (t.exp_index, t.seed),
            wire: WireTask::from_spec(&t),
            retries: 0,
        })
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
fn drive_worker(
    cmd: &[String],
    queue: &Mutex<VecDeque<QueuedTask>>,
    tx: &mpsc::Sender<((usize, u64), RunRecord)>,
) {
    let mut worker: Option<(Child, BufReader<std::process::ChildStdout>)> = None;
    loop {
        let Some(task) = queue.lock().expect("task queue lock").pop_front() else {
            break;
        };
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
                    report_failure(tx, task, &format!("cannot spawn worker: {e}"));
                    continue;
                }
            }
        }
        let (child, stdout) = worker.as_mut().expect("worker just ensured");
        match exchange(child, stdout, &task.wire) {
            Ok(record) => {
                if tx.send((task.key, record)).is_err() {
                    break; // collector gone; stop cleanly
                }
            }
            Err(e) => {
                // The worker is in an unknown state: discard it and either
                // retry the task on a fresh one or give up on the task.
                let (mut child, _) = worker.take().expect("worker present");
                let _ = child.kill();
                let _ = child.wait();
                if task.retries == 0 {
                    queue
                        .lock()
                        .expect("task queue lock")
                        .push_back(QueuedTask { retries: 1, ..task });
                } else {
                    report_failure(tx, task, &format!("worker protocol failure: {e}"));
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
    wire: &WireTask,
) -> io::Result<RunRecord> {
    let stdin = child
        .stdin
        .as_mut()
        .ok_or_else(|| io::Error::other("worker stdin closed"))?;
    proto::write_msg(stdin, &Msg::Task(wire.clone()))?;
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
fn report_failure(tx: &mpsc::Sender<((usize, u64), RunRecord)>, task: QueuedTask, message: &str) {
    let (scenario, title) = match task.wire.resolve() {
        Ok(spec) => (spec.exp.scenario.to_string(), spec.exp.title.to_string()),
        Err(_) => ("unknown".to_string(), task.wire.experiment.clone()),
    };
    let record = RunRecord {
        experiment: task.wire.experiment.clone(),
        title,
        seed: task.wire.seed,
        quick: task.wire.quick,
        scenario,
        status: RunStatus::Panicked,
        violations: Vec::new(),
        output: String::new(),
        panic_message: Some(message.to_string()),
        wall_ms: 0.0,
        engine: Default::default(),
    };
    let _ = tx.send((task.key, record));
}
