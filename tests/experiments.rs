//! Integration: every registered experiment reproduces the paper's shapes
//! in quick mode at seed 1, run the way `campaign` runs it — one matrix
//! cell through `runner::run`, so under `catch_unwind`, with the prebuilt
//! codebook pool and on a fresh `SimCtx`. Each record must also match its
//! seed-1 line in the campaign crate's `golden/matrix_digest.txt`, so every
//! experiment's bytes are pinned here at no extra simulation cost.

#[path = "../crates/campaign/tests/digest/mod.rs"]
mod digest;

use mmwave_campaign::{runner, CampaignConfig, RunStatus};
use mmwave_core::experiments;

fn assert_passes(id: &str) {
    let cfg = CampaignConfig {
        experiments: vec![experiments::find(id).expect("registered experiment id")],
        seeds: vec![1],
        quick: true,
        jobs: 1,
        cc: None,
        prune: None,
    };
    let r = runner::run(&cfg).records.remove(0);
    assert!(
        r.status == RunStatus::Pass,
        "{id} {}: {}\n{}\noutput:\n{}",
        r.status.as_str(),
        r.panic_message.as_deref().unwrap_or(""),
        r.violations.join("\n"),
        r.output
    );
    digest::assert_unchanged(&[r]);
}

/// One `#[test]` per `name => id` pair, plus `COVERED`, the ids in order.
macro_rules! shape_tests {
    ($($name:ident => $id:literal,)*) => {
        $(
            #[test]
            fn $name() {
                assert_passes($id);
            }
        )*

        const COVERED: &[&str] = &[$($id),*];
    };
}

shape_tests! {
    table1_frame_periodicity => "table1",
    fig03_discovery_frame => "fig03",
    fig08_frame_flow => "fig08",
    fig09_frame_length_cdf => "fig09",
    fig10_long_frame_fraction => "fig10",
    fig11_medium_usage => "fig11",
    aggregation_gain => "aggr",
    fig12_mcs_with_low_traffic => "fig12",
    fig13_throughput_vs_distance => "fig13",
    fig14_amplitude_and_rate => "fig14",
    fig15_wihd_frame_flow => "fig15",
    fig16_quasi_omni_patterns => "fig16",
    fig17_directional_patterns => "fig17",
    fig18_reflections_wigig => "fig18",
    fig19_reflections_wihd => "fig19",
    fig20_blocked_los => "fig20",
    fig21_frame_level_interference => "fig21",
    fig22_side_lobe_interference => "fig22",
    fig23_reflection_interference => "fig23",
    dynblock_walking_blocker_recovery => "dynblock",
    churn_repeated_blockage => "churn",
    enterprise_density => "enterprise",
    cc_compare_blockage_transient => "cc_compare",
}

#[test]
fn every_registered_experiment_has_a_shape_test() {
    assert_eq!(COVERED.to_vec(), experiments::ids().collect::<Vec<_>>());
}
