//! The process-sharding promise: running the campaign across `campaign
//! worker` subprocesses produces artifact bytes identical to the
//! in-process thread pool. Scheduling, pipe framing, and process
//! boundaries are execution details — every chunk and the manifest must
//! match byte for byte once execution metadata (wall times, worker
//! counts) is normalized out.
//!
//! This drives the REAL worker binary (`CARGO_BIN_EXE_campaign`), not an
//! in-process stub: the bytes cross an actual pipe, round-trip through
//! the wire codec, and come back equal.

use mmwave_campaign::control::{self, ControlOpts};
use mmwave_campaign::{artifact, runner, CampaignConfig, RunRecord};
use mmwave_core::experiments;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

fn cfg() -> CampaignConfig {
    CampaignConfig {
        experiments: ["table1", "fig03", "fig08", "fig15", "fig09"]
            .iter()
            .map(|id| experiments::find(id).expect("registered"))
            .collect(),
        seeds: vec![1, 2],
        quick: true,
        jobs: 1,
        cc: None,
        prune: None,
    }
}

fn sharded_opts() -> ControlOpts {
    ControlOpts {
        workers: 2,
        resume: false,
        worker_cmd: vec![env!("CARGO_BIN_EXE_campaign").to_string(), "worker".into()],
    }
}

/// Record streams are equal once per-run wall time is ignored (everything
/// else, engine counters included, crossed the pipe exactly).
fn assert_same_records(in_proc: &[RunRecord], sharded: &[RunRecord]) {
    assert_eq!(
        sharded.len(),
        in_proc.len(),
        "both datapaths must fill the whole matrix"
    );
    for (a, b) in in_proc.iter().zip(sharded) {
        let mut b = b.clone();
        b.wall_ms = a.wall_ms;
        assert_eq!(
            *a, b,
            "{}-s{} diverged across the pipe",
            a.experiment, a.seed
        );
    }
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "mmwave-proceq-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn canonical_tree(out: &Path) -> BTreeMap<String, String> {
    let mut files = BTreeMap::new();
    let manifest_text = std::fs::read_to_string(out.join("manifest.json")).expect("manifest.json");
    files.insert(
        "manifest.json".to_string(),
        artifact::canonicalize_text(&manifest_text).expect("canonical manifest"),
    );
    for entry in std::fs::read_dir(out.join("runs")).expect("runs dir") {
        let entry = entry.expect("dir entry");
        let name = entry.file_name().into_string().expect("utf8 name");
        let text = std::fs::read_to_string(entry.path()).expect("chunk");
        files.insert(
            format!("runs/{name}"),
            artifact::canonicalize_text(&text).expect("canonical chunk"),
        );
    }
    files
}

#[test]
fn subprocess_workers_match_in_process_artifacts_bytewise() {
    let in_proc_dir = tmp_dir("inproc");
    let sharded_dir = tmp_dir("sharded");

    let in_proc = control::run_streaming(&cfg(), &in_proc_dir, &ControlOpts::default())
        .expect("in-process campaign");
    assert!(in_proc.result.all_passed());

    let sharded = control::run_streaming(&cfg(), &sharded_dir, &sharded_opts())
        .expect("process-sharded campaign");
    assert!(sharded.result.all_passed());
    assert_eq!(sharded.result.workers, 2);

    // Raw chunk bytes differ only in wall times; canonical trees are
    // byte-identical, manifest included.
    assert_eq!(canonical_tree(&sharded_dir), canonical_tree(&in_proc_dir));

    // The stronger in-memory statement.
    assert_same_records(&in_proc.result.records, &sharded.result.records);

    std::fs::remove_dir_all(&in_proc_dir).ok();
    std::fs::remove_dir_all(&sharded_dir).ok();
}

#[test]
fn subprocess_workers_without_an_output_directory_match_in_process_records() {
    let sharded = control::run(&cfg(), None, &sharded_opts()).expect("sharded in-memory campaign");
    assert_eq!(sharded.result.workers, 2);
    assert_eq!(
        sharded.manifest_path, None,
        "no output directory, no manifest"
    );
    assert_eq!(sharded.result.chunks_streamed, 0, "no chunk written");
    assert_same_records(&runner::run(&cfg()).records, &sharded.result.records);
}
