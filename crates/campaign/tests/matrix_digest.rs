//! Every registered experiment's bytes at quick seeds 1..=3, pinned by
//! `golden/matrix_digest.txt` (see `digest/mod.rs` for the line format).
//!
//! The all-seeds check runs 69 quick runs, so a debug `cargo test` skips
//! it; `scripts/verify.sh` runs it in release:
//!
//! ```text
//! cargo test --release -p mmwave-campaign --test matrix_digest
//! ```
//!
//! To regenerate after an *intentional* change, and commit the rewritten
//! file alongside it:
//!
//! ```text
//! cargo test --release -p mmwave-campaign --test matrix_digest -- --ignored regenerate
//! ```

mod digest;

use mmwave_campaign::{runner, CampaignConfig, RunRecord};
use mmwave_core::experiments;
use std::path::PathBuf;

fn run_matrix() -> Vec<RunRecord> {
    runner::run(&CampaignConfig::all(true, digest::SEEDS.to_vec(), 2)).records
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "69 quick runs; scripts/verify.sh runs this in release"
)]
fn every_run_matches_the_matrix_digest() {
    digest::assert_unchanged(&run_matrix());
}

/// One line per registered experiment and seed, in matrix order, so the
/// check above leaves no committed line unread.
#[test]
fn the_digest_covers_every_experiment_and_seed() {
    let expected: Vec<String> = experiments::ids()
        .flat_map(|id| digest::SEEDS.map(|s| format!("{id} {s}")))
        .collect();
    let listed: Vec<String> = digest::GOLDEN
        .lines()
        .map(|l| l.split(' ').take(2).collect::<Vec<_>>().join(" "))
        .collect();
    assert_eq!(listed, expected);
}

/// Rewrites the digest. Run explicitly (`-- --ignored regenerate`) after
/// an intentional change; never runs in a normal test pass.
#[test]
#[ignore = "regenerates the matrix digest in place"]
fn regenerate() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/matrix_digest.txt");
    std::fs::write(&path, digest::render(&run_matrix())).expect("write digest");
    println!("rewrote {}", path.display());
}
