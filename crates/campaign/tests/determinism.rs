//! The campaign subsystem's core promise: artifacts are bitwise identical
//! regardless of worker count. Scheduling, work stealing and LPT dispatch
//! may reorder *execution*, but never any emitted byte (once execution
//! metadata — wall times and the jobs count — is normalized out).

use mmwave_campaign::{artifact, runner, CampaignConfig};
use mmwave_core::experiments;

/// Cheap experiments only: this is about scheduling, not physics.
/// fig09/fig11 read one TCP sweep per seed from the campaign's shared
/// results; whichever runs first computes it and the other replays its
/// counters, so their presence asserts those counters stay
/// byte-identical regardless of which worker, or which of the two,
/// filled the sweep.
fn quick_subset() -> Vec<&'static experiments::Experiment> {
    ["table1", "fig03", "fig08", "fig15", "fig09", "fig11"]
        .iter()
        .map(|id| experiments::find(id).expect("registered"))
        .collect()
}

fn normalized_artifacts(jobs: usize) -> Vec<(String, String)> {
    let cfg = CampaignConfig {
        experiments: quick_subset(),
        seeds: vec![1, 2],
        quick: true,
        jobs,
        cc: None,
        prune: None,
    };
    artifact::canonical_artifacts(&runner::run(&cfg))
}

#[test]
fn artifacts_identical_for_jobs_1_and_4() {
    let serial = normalized_artifacts(1);
    let sharded = normalized_artifacts(4);
    assert_eq!(serial.len(), sharded.len());
    for ((name_a, body_a), (name_b, body_b)) in serial.iter().zip(&sharded) {
        assert_eq!(name_a, name_b, "artifact order must match");
        assert_eq!(
            body_a, body_b,
            "artifact {name_a} differs between jobs=1 and jobs=4"
        );
    }
}
