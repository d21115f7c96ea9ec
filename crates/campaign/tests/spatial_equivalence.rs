//! The spatial interference graph's core promise: pruning is invisible
//! in every emitted byte. The same campaign run in enforce mode (pruned
//! pairs short-circuit to the coupling floor without touching the ray
//! tracer) and audit mode (every pruned pair is additionally re-evaluated
//! through the full radiometric chain and asserted below the floor) must
//! produce byte-identical artifacts — including the
//! `engine.spatial_pruned_pairs` counter, which fires identically in both
//! modes by construction. An unsound prune (a pair the bound admits but
//! physics couples above the floor) panics the audit run and shows up
//! here as a `panicked` record diffing against a `pass`.
//!
//! The prune mode is per-task state: [`CampaignConfig::prune`] is
//! stamped into every task's [`SimCtx`] via
//! [`mmwave_channel::spatial::install_override`], so the two campaigns
//! coexist with any other test without shared flags.
//!
//! [`SimCtx`]: mmwave_sim::ctx::SimCtx

use mmwave_campaign::{artifact, runner, CampaignConfig};
use mmwave_channel::PruneMode;
use mmwave_core::experiments;

/// The matrix: `enterprise` is the experiment the interference graph
/// exists for (18 closed offices, 228 stations, millions of pruned pair
/// evaluations); the cheap static traces ride along to prove the override
/// is inert for experiments that never enable spatial pruning.
fn subset() -> Vec<&'static experiments::Experiment> {
    ["table1", "fig03", "enterprise"]
        .iter()
        .map(|id| experiments::find(id).expect("registered"))
        .collect()
}

fn normalized_artifacts(mode: PruneMode) -> Vec<(String, String)> {
    let cfg = CampaignConfig {
        experiments: subset(),
        seeds: vec![1, 2],
        quick: true,
        jobs: 2,
        cc: None,
        prune: Some(mode),
    };
    let result = runner::run(&cfg);
    assert!(
        result.all_passed(),
        "{} campaign must pass before bytes are compared",
        mode.as_str()
    );
    artifact::canonical_artifacts(&result)
}

#[test]
fn artifacts_identical_in_enforce_and_audit_mode() {
    let enforced = normalized_artifacts(PruneMode::Enforce);
    let audited = normalized_artifacts(PruneMode::Audit);
    assert_eq!(enforced.len(), audited.len());
    for ((name_a, body_a), (name_b, body_b)) in enforced.iter().zip(&audited) {
        assert_eq!(name_a, name_b, "artifact order must match");
        assert_eq!(
            body_a, body_b,
            "artifact {name_a} differs between enforce and audit runs"
        );
    }
}
