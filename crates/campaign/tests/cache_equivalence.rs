//! The link-gain cache's core promise: memoization is invisible in every
//! emitted byte. Each task runs twice, on a context with the cache
//! enabled and on one in bypass mode (identical interning, stamping and
//! counters, but values recomputed from first principles on every hit),
//! and must report the same output and violations plus the same
//! engine counters — including the `engine.link_gain_*` counters, which
//! fire identically in both modes by construction. Those are every
//! artifact field the cache mode can reach. A stale entry surviving an
//! invalidation would diverge some rx power and show up here as a
//! differing report.
//!
//! Campaigns always run cached, so the test builds each task's context
//! itself, as the campaign runner does: fresh per task, with the
//! campaign-wide codebook pool installed.

use mmwave_core::experiments;
use mmwave_phy::CodebookPrebuild;
use mmwave_sim::ctx::{CacheMode, SimCtx};
use mmwave_sim::metrics::EngineCounters;

/// Cheap experiments; `dynblock` adds a dynamic scenario (scripted
/// blockage with cache invalidations mid-run) to the matrix.
const SUBSET: [&str; 5] = ["table1", "fig03", "fig08", "fig15", "dynblock"];

/// A task's report output and violations, and its engine counters.
type Outcome = (String, Vec<String>, EngineCounters);

fn run(id: &str, seed: u64, mode: CacheMode, pool: &CodebookPrebuild) -> Outcome {
    let ctx = SimCtx::with_cache_mode(mode);
    pool.install(&ctx);
    let report = experiments::find(id)
        .expect("registered")
        .run(&ctx, true, seed);
    (report.output, report.violations, ctx.counters())
}

#[test]
fn artifacts_identical_with_cache_and_in_bypass_mode() {
    let pool = CodebookPrebuild::standard_devices();
    for id in SUBSET {
        for seed in [1, 2] {
            assert_eq!(
                run(id, seed, CacheMode::Cached, &pool),
                run(id, seed, CacheMode::Bypass, &pool),
                "{id}-s{seed} differs between cached and bypass runs"
            );
        }
    }
}
