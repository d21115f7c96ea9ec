//! Crash-recovery contract of the streaming control plane: after damage
//! to the artifact directory (a deleted chunk, a corrupted chunk, a
//! manifest torn mid-append — i.e. a campaign killed at an arbitrary
//! instant), a `--resume` rerun
//!
//! 1. re-executes ONLY the damaged tasks (hash-clean chunks are skipped),
//! 2. and converges to the same artifact bytes as an undamaged fresh run
//!    (modulo execution metadata, which is honest about what happened:
//!    `tasks_resumed` counts the skips).

use mmwave_campaign::control::{self, ControlOpts};
use mmwave_campaign::{artifact, manifest, CampaignConfig};
use mmwave_core::experiments;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

fn cfg() -> CampaignConfig {
    CampaignConfig {
        experiments: ["table1", "fig03", "fig08", "fig15"]
            .iter()
            .map(|id| experiments::find(id).expect("registered"))
            .collect(),
        seeds: vec![1, 2],
        quick: true,
        jobs: 2,
        cc: None,
        prune: None,
    }
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "mmwave-resume-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Every artifact file, normalized (execution metadata zeroed) so fresh
/// and resumed runs are comparable byte-for-byte.
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
fn resume_reexecutes_only_damaged_tasks_and_converges_bytewise() {
    let fresh_dir = tmp_dir("fresh");
    let damaged_dir = tmp_dir("damaged");
    let opts = ControlOpts::default();

    // Reference: one undamaged streaming run.
    let fresh =
        control::run_streaming(&cfg(), &fresh_dir, &opts).expect("fresh reference campaign");
    assert!(fresh.result.all_passed());
    assert_eq!(fresh.result.chunks_streamed, 8);
    let want = canonical_tree(&fresh_dir);

    // Victim: same campaign, then three independent kinds of damage. With
    // two jobs the ledger's order (and so which task's line is last, the
    // one torn in (c)) depends on scheduling, so the deleted and corrupted
    // cells are picked from the ledger's other entries.
    let first = control::run_streaming(&cfg(), &damaged_dir, &opts).expect("victim campaign");
    assert!(first.result.all_passed());
    let entries = manifest::Manifest::load(&damaged_dir)
        .expect("victim ledger")
        .entries;
    assert_eq!(entries.len(), 8);
    let cell = |e: &manifest::ChunkEntry| (e.experiment.clone(), e.seed);

    // (a) one chunk deleted outright,
    let deleted = cell(&entries[0]);
    std::fs::remove_file(damaged_dir.join(artifact::run_artifact_name(&deleted.0, deleted.1)))
        .expect("delete chunk");

    // (b) one chunk corrupted in place (hash must catch it),
    let corrupted = cell(&entries[1]);
    let victim_path = damaged_dir.join(artifact::run_artifact_name(&corrupted.0, corrupted.1));
    let mut bytes = std::fs::read(&victim_path).expect("read chunk");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x20;
    std::fs::write(&victim_path, &bytes).expect("corrupt chunk");

    // (c) the ledger truncated mid-entry, as if the process died inside an
    // append. The half-written line names a real completed task: that
    // task loses its ledger entry and must re-execute.
    let ledger_path = damaged_dir.join(manifest::MANIFEST_FILE_NAME);
    let ledger = std::fs::read_to_string(&ledger_path).expect("read ledger");
    let last_line = ledger.lines().last().expect("nonempty ledger");
    let torn = manifest::ChunkEntry::parse(&format!("{last_line}\n")).expect("parseable tail");
    assert_eq!(
        Some(&torn),
        entries.last(),
        "the torn line is the last entry"
    );
    std::fs::write(
        &ledger_path,
        &ledger[..ledger.len() - last_line.len() / 2 - 1],
    )
    .expect("tear ledger");
    let torn_key = cell(&torn);
    assert_ne!(torn_key, deleted, "damage must hit three distinct tasks");
    assert_ne!(torn_key, corrupted, "damage must hit three distinct tasks");

    // Resume: exactly the three damaged tasks re-execute.
    let resumed = control::run_streaming(&cfg(), &damaged_dir, &ControlOpts { resume: true })
        .expect("resumed campaign");
    let mut expected_rerun = vec![deleted, corrupted, torn_key];
    expected_rerun.sort();
    let mut executed = resumed.executed.clone();
    executed.sort();
    assert_eq!(executed, expected_rerun, "only damaged tasks re-execute");
    assert_eq!(
        resumed.resumed.len(),
        5,
        "the hash-clean majority is skipped"
    );
    assert_eq!(resumed.result.tasks_resumed, 5);
    assert_eq!(resumed.result.chunks_streamed, 3);

    // And the repaired tree is byte-identical to the fresh one.
    assert_eq!(canonical_tree(&damaged_dir), want);

    std::fs::remove_dir_all(&fresh_dir).ok();
    std::fs::remove_dir_all(&damaged_dir).ok();
}

#[test]
fn resume_with_clean_artifacts_executes_nothing() {
    let dir = tmp_dir("clean");
    let opts = ControlOpts::default();
    let first = control::run_streaming(&cfg(), &dir, &opts).expect("first run");
    assert!(first.result.all_passed());
    let want = canonical_tree(&dir);

    let resumed =
        control::run_streaming(&cfg(), &dir, &ControlOpts { resume: true }).expect("clean resume");
    assert!(resumed.executed.is_empty(), "nothing was damaged");
    assert_eq!(resumed.resumed.len(), 8);
    assert_eq!(canonical_tree(&dir), want);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_ignores_manifests_from_a_different_matrix() {
    let dir = tmp_dir("fingerprint");
    let opts = ControlOpts::default();
    control::run_streaming(&cfg(), &dir, &opts).expect("first run");

    // Same directory, different seed list: the fingerprint differs, so
    // nothing may be resumed even though chunk files exist.
    let mut other = cfg();
    other.seeds = vec![1];
    let resumed = control::run_streaming(&other, &dir, &ControlOpts { resume: true })
        .expect("mismatched resume");
    assert!(
        resumed.resumed.is_empty(),
        "fingerprint mismatch resumes nothing"
    );
    assert_eq!(resumed.executed.len(), 4);
    std::fs::remove_dir_all(&dir).ok();
}
