//! The matrix digest: one `id seed status science_hash engine_hash` line
//! per run of every registered experiment at quick seeds 1..=3, committed
//! as `golden/matrix_digest.txt`.
//!
//! * `science_hash` is FNV-1a ([`manifest::fnv1a64`]) over the artifact's
//!   `status`, `violations` and `output` fields, rendered as one JSON
//!   object.
//! * `engine_hash` is the same hash over the artifact's counter block, in
//!   `EngineCounters::FIELDS` order.
//!
//! A change that alters only the engine's work (a different event
//! structure) moves only the last column; one that moves a paper number
//! moves `science_hash`. Two test targets share this module and each uses
//! part of it: `matrix_digest.rs` checks every seed (release, from
//! `scripts/verify.sh`) and regenerates the file, and the workspace's
//! `tests/experiments.rs` checks the seed-1 line of each record it already
//! computes.
#![allow(dead_code)]

use mmwave_campaign::json::Json;
use mmwave_campaign::{artifact, manifest, RunRecord};

/// Quick-mode seeds the digest covers.
pub const SEEDS: [u64; 3] = [1, 2, 3];

/// The committed digest, as compiled into the test binary.
pub const GOLDEN: &str = include_str!("../golden/matrix_digest.txt");

const COLUMNS: [&str; 5] = ["id", "seed", "status", "science_hash", "engine_hash"];

const REGENERATE: &str =
    "cargo test --release -p mmwave-campaign --test matrix_digest -- --ignored regenerate";

/// The digest line of one run.
pub fn line(r: &RunRecord) -> String {
    let Json::Obj(fields) = artifact::run_to_json(r) else {
        unreachable!("a run artifact is a JSON object")
    };
    let hash = |keys: &[&str]| {
        let picked = fields
            .iter()
            .filter(|(k, _)| keys.contains(&k.as_str()))
            .cloned()
            .collect();
        manifest::fnv1a64(Json::Obj(picked).render().as_bytes())
    };
    format!(
        "{} {} {} {:016x} {:016x}",
        r.experiment,
        r.seed,
        r.status.as_str(),
        hash(&["status", "violations", "output"]),
        hash(&["engine"]),
    )
}

/// The digest document of `records`, one line each, in record order.
pub fn render(records: &[RunRecord]) -> String {
    records.iter().map(|r| line(r) + "\n").collect()
}

/// The committed line of run `(id, seed)`, if the digest has one.
fn golden_line(id: &str, seed: u64) -> Option<&'static str> {
    let key = format!("{id} {seed} ");
    GOLDEN.lines().find(|l| l.starts_with(&key))
}

/// One description per run whose line differs from the committed digest,
/// naming the columns that moved; empty when every record matches.
pub fn moved(records: &[RunRecord]) -> Vec<String> {
    let mut out = Vec::new();
    for r in records {
        let actual = line(r);
        match golden_line(&r.experiment, r.seed) {
            None => out.push(format!(
                "{} seed {}: no committed line",
                r.experiment, r.seed
            )),
            Some(want) if want != actual => {
                let cols: Vec<String> = want
                    .split(' ')
                    .zip(actual.split(' '))
                    .zip(COLUMNS)
                    .filter(|((w, a), _)| w != a)
                    .map(|((w, a), col)| format!("{col} {w} -> {a}"))
                    .collect();
                out.push(format!(
                    "{} seed {}: {}",
                    r.experiment,
                    r.seed,
                    cols.join(", ")
                ));
            }
            Some(_) => {}
        }
    }
    out
}

/// Panic, naming every run and column that moved, unless `records` all
/// match the committed digest.
pub fn assert_unchanged(records: &[RunRecord]) {
    let moved = moved(records);
    assert!(
        moved.is_empty(),
        "{} of {} runs moved from golden/matrix_digest.txt:\n  {}\n\n\
         If this change is meant to move them, regenerate with\n  {REGENERATE}\n\
         and say in the change which runs and columns moved and why.",
        moved.len(),
        records.len(),
        moved.join("\n  ")
    );
}
