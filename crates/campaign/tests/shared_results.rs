//! Campaign-scoped shared results: the TCP sweep behind Figs. 9–11 and
//! the §4.1 aggregation summary runs once per campaign seed, and sharing
//! it changes no artifact byte.
//!
//! {fig09, fig10, fig11, aggr} × 9 seeds, one more than the pool holds,
//! runs on one thread and on two, and every run artifact must equal the
//! one the same cell produces as a one-cell campaign, where no other task
//! could have filled the sweep.

use mmwave_campaign::control::{self, ControlOpts, ControlSummary};
use mmwave_campaign::{artifact, CampaignConfig};
use mmwave_core::experiments;
use mmwave_phy::CodebookPrebuild;
use mmwave_sim::ctx::{CacheMode, SimCtx};
use mmwave_sim::shared::SHARED_CAP;
use std::collections::BTreeMap;

const SWEEP_CONSUMERS: [&str; 4] = ["fig09", "fig10", "fig11", "aggr"];
const SEEDS: std::ops::Range<u64> = 1..10;

fn campaign(ids: &[&str], seeds: Vec<u64>, jobs: usize) -> ControlSummary {
    let cfg = CampaignConfig {
        experiments: ids
            .iter()
            .map(|id| experiments::find(id).expect("registered"))
            .collect(),
        seeds,
        quick: true,
        jobs,
        cc: None,
        prune: None,
    };
    control::run(&cfg, None, &ControlOpts::default()).expect("an in-memory campaign does no I/O")
}

/// Canonical run artifacts by file name (the manifest depends on the
/// matrix, so it is left out).
fn run_artifacts(summary: &ControlSummary) -> BTreeMap<String, String> {
    artifact::canonical_artifacts(&summary.result)
        .into_iter()
        .filter(|(name, _)| name != "manifest.json")
        .collect()
}

fn assert_same_artifacts(
    got: &BTreeMap<String, String>,
    want: &BTreeMap<String, String>,
    how: &str,
) {
    assert_eq!(got.len(), want.len(), "{how}: one artifact per cell");
    for (name, body) in want {
        assert_eq!(
            got.get(name),
            Some(body),
            "{how}: {name} differs from its one-cell run"
        );
    }
}

#[test]
fn sweep_runs_once_per_seed_and_changes_no_artifact() {
    let mut want = BTreeMap::new();
    for id in SWEEP_CONSUMERS {
        for seed in SEEDS {
            let one = campaign(&[id], vec![seed], 1);
            assert!(one.result.all_passed(), "{id}-s{seed}");
            assert_eq!((one.shared.computed, one.shared.reused), (1, 0));
            want.extend(run_artifacts(&one));
        }
    }

    let seeds: Vec<u64> = SEEDS.collect();
    for jobs in [1, 2] {
        let how = format!("--jobs {jobs}");
        let summary = campaign(&SWEEP_CONSUMERS, seeds.clone(), jobs);
        let stats = summary.shared;
        assert_eq!(
            stats.computed,
            seeds.len() as u64,
            "{how}: one sweep per seed"
        );
        assert_eq!(stats.reused, 3 * seeds.len() as u64, "{how}");
        assert!(stats.peak_held <= SHARED_CAP, "{how}: {stats:?}");
        assert_same_artifacts(&run_artifacts(&summary), &want, &how);
    }
}

#[test]
fn a_bypass_context_sharing_the_pool_recomputes_the_sweep() {
    let pool = CodebookPrebuild::standard_devices();
    let fig10 = experiments::find("fig10").expect("registered");
    let run = |ctx: SimCtx| {
        pool.install(&ctx);
        let report = (fig10.run)(&ctx, true, 1);
        (report.output, ctx.counters())
    };
    let cached = run(SimCtx::new());
    let bypass = run(SimCtx::with_cache_mode(CacheMode::Bypass));
    let stats = pool.shared().stats();
    assert_eq!(
        (stats.computed, stats.reused),
        (2, 0),
        "the cache mode is part of the key"
    );
    assert_eq!(bypass, cached, "the bypassed sweep is the same sweep");
    assert_eq!(run(SimCtx::new()), cached);
    assert_eq!(pool.shared().stats().reused, 1);
}
