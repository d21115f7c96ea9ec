//! Protocol smoke against the REAL `campaign worker` subprocess: frame a
//! task over its stdin, read the framed record off its stdout, and check
//! exit behavior for the clean-shutdown and garbage-input paths. This is
//! the narrow waist the control plane depends on; everything here speaks
//! the same `proto` codec production uses.

use mmwave_campaign::proto::{self, Msg};
use mmwave_campaign::{RunStatus, TaskSpec};
use std::io::{BufReader, Write};
use std::process::{Child, Command, Stdio};

fn spawn_worker() -> Child {
    Command::new(env!("CARGO_BIN_EXE_campaign"))
        .arg("worker")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn campaign worker")
}

fn task(seed: u64) -> TaskSpec {
    TaskSpec {
        exp: mmwave_core::experiments::find("table1").expect("registered"),
        exp_index: 0,
        seed,
        quick: true,
        cc: None,
        prune: None,
    }
}

#[test]
fn worker_executes_framed_tasks_and_exits_cleanly_on_done() {
    let mut child = spawn_worker();
    let mut stdin = child.stdin.take().expect("stdin");
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout"));

    // Two tasks, interleaved write/read (the control plane's actual
    // access pattern: one in-flight task per worker).
    for seed in [1u64, 2] {
        proto::write_msg(&mut stdin, &Msg::Task(task(seed))).expect("send task");
        let Some(Msg::Result(record)) = proto::read_msg(&mut stdout).expect("read result") else {
            panic!("expected RESULT for seed {seed}");
        };
        assert_eq!(record.experiment, "table1");
        assert_eq!(record.seed, seed);
        assert_eq!(record.status, RunStatus::Pass);
        assert!(
            record.engine.events_popped > 0,
            "the worker actually simulated"
        );
        assert!(
            record.engine.codebook_prebuilt_hits > 0,
            "the worker paid the codebook prebuild, like the in-process pool"
        );
    }

    proto::write_msg(&mut stdin, &Msg::Done).expect("send done");
    drop(stdin);
    assert!(proto::read_msg(&mut stdout).expect("eof").is_none());
    let status = child.wait().expect("wait");
    assert!(status.success(), "DONE must exit 0, got {status:?}");
}

#[test]
fn worker_exits_cleanly_on_bare_eof() {
    let mut child = spawn_worker();
    drop(child.stdin.take());
    let status = child.wait().expect("wait");
    assert!(
        status.success(),
        "bare EOF is a clean shutdown, got {status:?}"
    );
}

#[test]
fn worker_rejects_garbage_with_nonzero_exit() {
    let mut child = spawn_worker();
    let mut stdin = child.stdin.take().expect("stdin");
    stdin
        .write_all(b"definitely not a frame header\n")
        .expect("write garbage");
    drop(stdin);
    let status = child.wait().expect("wait");
    assert!(
        !status.success(),
        "a torn/garbage frame must exit nonzero, got {status:?}"
    );
}

#[test]
fn worker_reports_wire_records_identical_to_in_process_execution() {
    // The same task through the pipe and through the in-process runner
    // must yield the same record minus wall time — the wire codec adds
    // and loses nothing.
    let mut child = spawn_worker();
    let mut stdin = child.stdin.take().expect("stdin");
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout"));
    proto::write_msg(&mut stdin, &Msg::Task(task(1))).expect("send task");
    let Some(Msg::Result(piped)) = proto::read_msg(&mut stdout).expect("read result") else {
        panic!("expected RESULT");
    };
    proto::write_msg(&mut stdin, &Msg::Done).expect("send done");
    let _ = child.wait();

    // Same prebuild the worker pays at startup, so codebook counters are
    // comparable.
    let local = mmwave_campaign::runner::run_task_prebuilt(
        &task(1),
        &mmwave_phy::CodebookPrebuild::standard_devices(),
    );
    let mut piped = *piped;
    piped.wall_ms = local.wall_ms;
    assert_eq!(piped, local);
}
