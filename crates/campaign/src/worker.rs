//! The worker datapath: one `campaign worker` subprocess.
//!
//! A worker is a dumb executor (its one state is the campaign pool
//! below): it reads framed [`Msg::Task`]
//! messages from stdin, runs each on a **private** [`SimCtx`] (fresh per
//! task, exactly like the in-process thread pool — so artifact bytes stay
//! a pure function of the task no matter which process ran it), and
//! writes the completed [`Msg::Result`] back on stdout. It exits on a
//! `DONE` message or a clean stdin EOF.
//!
//! Panic isolation carries over from the in-process runner: the task body
//! runs under `catch_unwind` inside [`runner::run_task_prebuilt`], so an
//! experiment panic becomes a `panicked` record on the wire, not a dead
//! worker. Only a protocol error (torn frame, unknown experiment id —
//! i.e. a control plane this binary cannot serve) terminates the process
//! with a nonzero status; the control plane then respawns or fails the
//! affected task, never the campaign.
//!
//! The worker pays [`CodebookPrebuild::standard_devices`] once at
//! startup, mirroring the campaign-wide prebuild of the in-process pool:
//! per-task `codebook_prebuilt_hits` counters — and therefore artifact
//! bytes — are identical in both datapaths. The pool's shared results
//! live as long as the worker, so the tasks one worker runs share them
//! as the in-process pool's threads do; reuses replay their fill's
//! counters, so which process computed a result never shows either.
//!
//! stdout is the protocol channel, so the experiment layer must never
//! print to it (experiments render into `RunReport::output` strings by
//! design); anything diagnostic goes to stderr, which the control plane
//! leaves attached to its own.
//!
//! [`SimCtx`]: mmwave_sim::ctx::SimCtx
//! [`CodebookPrebuild::standard_devices`]: mmwave_phy::CodebookPrebuild::standard_devices

use std::io::{self, BufReader, BufWriter, Write};

use crate::proto::{self, Msg};
use crate::runner;
use mmwave_phy::CodebookPrebuild;

/// Run the worker loop over this process's stdio until `DONE`/EOF.
/// Returns the process exit code (0 = clean drain, 1 = protocol error).
pub fn worker_main() -> i32 {
    // The runner's panic hook silences threads named `campaign-worker-*`;
    // run the loop on one so a panicking experiment doesn't spray a
    // backtrace over stderr (it is captured into the RunRecord).
    runner::silence_worker_panics();
    let handle = std::thread::Builder::new()
        .name("campaign-worker-proc".to_string())
        .spawn(serve_stdio)
        .expect("spawn worker loop");
    match handle.join() {
        Ok(Ok(())) => 0,
        Ok(Err(e)) => {
            eprintln!("campaign worker: {e}");
            1
        }
        Err(_) => {
            eprintln!("campaign worker: infrastructure panic");
            1
        }
    }
}

fn serve_stdio() -> io::Result<()> {
    let stdin = io::stdin();
    let stdout = io::stdout();
    let mut input = BufReader::new(stdin.lock());
    let mut output = BufWriter::new(stdout.lock());
    serve(&mut input, &mut output)
}

/// The worker loop over arbitrary streams (unit-testable without pipes).
pub fn serve(input: &mut impl io::BufRead, output: &mut impl Write) -> io::Result<()> {
    let prebuild = CodebookPrebuild::standard_devices();
    loop {
        match proto::read_msg(input)? {
            Some(Msg::Task(task)) => {
                let record = runner::run_task_prebuilt(&task, &prebuild);
                proto::write_msg(output, &Msg::Result(Box::new(record)))?;
            }
            Some(Msg::Done) | None => return Ok(()),
            Some(Msg::Result(_)) => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "worker received a RESULT message (control-plane bug)",
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RunStatus, TaskSpec};
    use mmwave_core::experiments::{self, CostTier, Experiment};
    use std::io::BufReader;

    fn task(seed: u64) -> TaskSpec {
        TaskSpec {
            exp: experiments::find("table1").expect("registered"),
            exp_index: 0,
            seed,
            quick: true,
            cc: None,
            prune: None,
        }
    }

    #[test]
    fn serve_executes_tasks_and_drains_on_done() {
        let mut input = Vec::new();
        proto::write_msg(&mut input, &Msg::Task(task(1))).expect("frame");
        proto::write_msg(&mut input, &Msg::Task(task(2))).expect("frame");
        proto::write_msg(&mut input, &Msg::Done).expect("frame");

        let mut output = Vec::new();
        serve(&mut BufReader::new(&input[..]), &mut output).expect("serve");

        let mut r = BufReader::new(&output[..]);
        for seed in [1u64, 2] {
            let Some(Msg::Result(rec)) = proto::read_msg(&mut r).expect("result") else {
                panic!("expected RESULT for seed {seed}");
            };
            assert_eq!(rec.seed, seed);
            assert_eq!(rec.status, RunStatus::Pass);
            assert!(rec.engine.events_popped > 0, "task actually simulated");
        }
        assert!(proto::read_msg(&mut r).expect("eof").is_none());
    }

    #[test]
    fn serve_rejects_unknown_experiments() {
        let mut input = Vec::new();
        // A control plane whose registry has an experiment this worker's
        // lacks: the frame names an id the worker cannot resolve.
        let mut bogus = task(1);
        bogus.exp = Box::leak(Box::new(Experiment {
            id: "no-such-experiment",
            title: "missing",
            cost: CostTier::Fast,
            scenario: "none",
            run: |_, _, _| unreachable!("never resolved, never run"),
        }));
        proto::write_msg(&mut input, &Msg::Task(bogus)).expect("frame");
        let mut output = Vec::new();
        let err = serve(&mut BufReader::new(&input[..]), &mut output).expect_err("must error");
        assert!(err.to_string().contains("no-such-experiment"));
    }

    #[test]
    fn serve_treats_eof_as_done() {
        let input: Vec<u8> = Vec::new();
        let mut output = Vec::new();
        serve(&mut BufReader::new(&input[..]), &mut output).expect("clean EOF");
        assert!(output.is_empty());
    }
}
