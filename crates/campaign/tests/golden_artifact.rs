//! Golden-artifact regression test: a committed, wall-time-normalized
//! campaign artifact set, diffed byte-for-byte on every `cargo test`.
//!
//! The campaign layer's determinism contract says the artifact bytes are
//! a pure function of (experiment matrix, seeds, quick flag) — worker
//! count, scheduling order and cache mode must all be invisible. This
//! test freezes one small matrix and fails on ANY byte drift, making
//! accidental behavior changes (a perturbed RNG stream, a changed
//! counter, a renamed field) visible in review instead of silently
//! shifting every downstream number.
//!
//! To regenerate after an *intentional* change:
//!
//! ```text
//! cargo test -p mmwave-campaign --test golden_artifact -- --ignored
//! ```
//!
//! and commit the rewritten `tests/golden/campaign_quick.txt` alongside
//! the change that moved it.

use mmwave_campaign::{artifact, runner, CampaignConfig};
use mmwave_core::experiments;
use std::path::PathBuf;

const GOLDEN_REL: &str = "tests/golden/campaign_quick.txt";

/// The frozen matrix: cheap experiments spanning a static protocol trace
/// (table1, fig03), the WiHD system (fig15), a dynamic fault scenario
/// (dynblock, which exercises the scenario/fault engine counters) and the
/// dense multi-room floor (enterprise, which exercises the spatial
/// interference graph and its prune counters).
fn subset() -> Vec<&'static experiments::Experiment> {
    ["table1", "fig03", "fig15", "dynblock", "enterprise"]
        .iter()
        .map(|id| experiments::find(id).expect("registered"))
        .collect()
}

/// Render the full normalized artifact set as one diffable document.
fn render_artifacts() -> String {
    // Golden bytes are defined with the cache ENABLED — every campaign
    // task runs on a fresh `SimCtx::new()`, which caches, so no
    // process-wide state needs pinning.
    let cfg = CampaignConfig {
        experiments: subset(),
        seeds: vec![1, 2],
        quick: true,
        jobs: 2,
        cc: None,
        prune: None,
    };
    artifact::canonical_document(&runner::run(&cfg))
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(GOLDEN_REL)
}

#[test]
fn campaign_artifacts_match_committed_golden() {
    let expected = std::fs::read_to_string(golden_path())
        .expect("golden file missing — run the ignored regenerate test once");
    let actual = render_artifacts();
    if actual != expected {
        let mismatch = expected
            .lines()
            .zip(actual.lines())
            .enumerate()
            .find(|(_, (e, a))| e != a)
            .map(|(i, (e, a))| {
                format!(
                    "first differing line {}:\n  golden: {e}\n  actual: {a}",
                    i + 1
                )
            })
            .unwrap_or_else(|| "documents differ in length".into());
        panic!(
            "campaign artifacts drifted from {GOLDEN_REL}\n{mismatch}\n\n\
             If this change is intentional, regenerate with\n  \
             cargo test -p mmwave-campaign --test golden_artifact -- --ignored\n\
             and commit the new golden file. If you did NOT intend to move\n\
             these numbers, the usual culprits are a perturbed RNG stream\n\
             (an extra draw shifts every later sample) or a change to the\n\
             calibrated array seeds in `mmwave_phy::calib` — those are\n\
             re-pinned by `crates/phy/tests/seed_sweep.rs`, so start there."
        );
    }
}

/// Rewrites the golden file. Run explicitly (`-- --ignored`) after an
/// intentional behavior change; never runs in a normal test pass.
#[test]
#[ignore = "regenerates the golden artifact file in place"]
fn regenerate_golden() {
    let path = golden_path();
    std::fs::create_dir_all(path.parent().expect("parent")).expect("mkdir");
    std::fs::write(&path, render_artifacts()).expect("write golden");
    println!("rewrote {}", path.display());
}
