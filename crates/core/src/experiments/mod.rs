//! One module per evaluation artifact (table/figure).
//!
//! Every experiment exposes `run(ctx, quick, seed) -> RunReport`. The report
//! carries the rendered rows/series (what the paper's table or figure
//! shows) and a list of *shape violations*: qualitative properties from
//! the paper that the reproduction must satisfy (who wins, by what factor,
//! where thresholds fall). An empty violation list is the reproduction
//! criterion; the integration suite asserts it for every experiment.
//!
//! `quick` trades statistical smoothness for runtime (shorter campaigns,
//! fewer sweep points); the shape checks hold in both modes.
//!
//! Experiments are exposed through a **typed registry** ([`REGISTRY`]):
//! each entry is an [`Experiment`] descriptor carrying the id, the human
//! title, a relative [`CostTier`] (a scheduling hint for the campaign
//! layer — heavy runs dispatch first so a worker pool drains evenly) and
//! the run function itself. The registry replaces the old stringly-typed
//! id list plus `match` dispatch: consumers iterate descriptors and call
//! through function pointers, so adding an experiment is one new entry
//! and the campaign/CLI layers pick it up untouched.

pub mod cc_compare;
pub mod churn;
pub mod dynblock;
pub mod enterprise;
pub mod fig03;
pub mod fig08;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod fig17;
pub mod fig18;
pub mod fig19;
pub mod fig20;
pub mod fig21;
pub mod fig22;
pub mod fig23;
pub mod sweep;
pub mod table1;

use mmwave_sim::ctx::SimCtx;

/// Outcome of one experiment run. The experiment's id and title live in
/// its [`Experiment`] registry entry only.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Rendered rows/series (paper-style output).
    pub output: String,
    /// Qualitative checks that failed (empty = reproduction holds).
    pub violations: Vec<String>,
}

impl RunReport {
    /// True if every shape check passed.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Relative runtime of an experiment in quick mode. Used by the campaign
/// scheduler to dispatch the heaviest runs first (longest-processing-time
/// order), which keeps a worker pool from idling on a late-arriving
/// multi-second run.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum CostTier {
    /// Milliseconds: single-link protocol traces and beam patterns.
    Fast,
    /// Hundreds of milliseconds: TCP sweeps and interference scenes.
    Medium,
    /// Seconds: full distance/interference campaigns.
    Slow,
}

/// A typed experiment descriptor: everything a runner needs to schedule,
/// execute and label one paper artifact.
#[derive(Debug)]
pub struct Experiment {
    /// Stable id ("fig09", "table1", …) used in CLIs and artifact names.
    pub id: &'static str,
    /// Human title, recorded in campaign artifacts.
    pub title: &'static str,
    /// Scheduling hint: relative cost in quick mode.
    pub cost: CostTier,
    /// Name of the physical scenario/rig this experiment runs in
    /// ("point-to-point", "blocked-los", …). Recorded in campaign
    /// artifacts so a run can be traced back to its geometry.
    pub scenario: &'static str,
    /// The artifact regenerator. All engine activity (event counts, cache
    /// hit rates, codebook fills) lands in the caller-supplied [`SimCtx`].
    pub run: fn(ctx: &SimCtx, quick: bool, seed: u64) -> RunReport,
}

impl Experiment {
    /// Run this experiment, accumulating engine counters into `ctx`.
    pub fn run(&self, ctx: &SimCtx, quick: bool, seed: u64) -> RunReport {
        (self.run)(ctx, quick, seed)
    }
}

/// Every experiment, in paper order.
pub const REGISTRY: &[Experiment] = &[
    Experiment {
        id: "table1",
        title: "Table 1: D5000 and WiHD frame periodicity",
        cost: CostTier::Fast,
        scenario: "point-to-point",
        run: table1::run,
    },
    Experiment {
        id: "fig03",
        title: "Fig. 3: Dell D5000 device discovery frame",
        cost: CostTier::Fast,
        scenario: "point-to-point",
        run: fig03::run,
    },
    Experiment {
        id: "fig08",
        title: "Fig. 8: Dell D5000 frame flow",
        cost: CostTier::Fast,
        scenario: "point-to-point",
        run: fig08::run,
    },
    Experiment {
        id: "fig09",
        title: "Fig. 9: WiGig data frame length (CDF per TCP throughput)",
        cost: CostTier::Medium,
        scenario: "point-to-point",
        run: sweep::run_fig09,
    },
    Experiment {
        id: "fig10",
        title: "Fig. 10: percentage of long frames in WiGig",
        cost: CostTier::Medium,
        scenario: "point-to-point",
        run: sweep::run_fig10,
    },
    Experiment {
        id: "fig11",
        title: "Fig. 11: WiGig medium usage",
        cost: CostTier::Medium,
        scenario: "point-to-point",
        run: sweep::run_fig11,
    },
    Experiment {
        id: "aggr",
        title: "§4.1/§5: aggregation gain at 60 GHz timescales",
        cost: CostTier::Medium,
        scenario: "point-to-point",
        run: sweep::run_aggr,
    },
    Experiment {
        id: "fig12",
        title: "Fig. 12: MCS with low traffic",
        cost: CostTier::Medium,
        scenario: "point-to-point",
        run: fig12::run,
    },
    Experiment {
        id: "fig13",
        title: "Fig. 13: throughput decrease with distance",
        cost: CostTier::Slow,
        scenario: "point-to-point",
        run: fig13::run,
    },
    Experiment {
        id: "fig14",
        title: "Fig. 14: D5000 frame amplitudes and rate over 80 minutes",
        cost: CostTier::Slow,
        scenario: "point-to-point",
        run: fig14::run,
    },
    Experiment {
        id: "fig15",
        title: "Fig. 15: DVDO Air-3c WiHD frame flow",
        cost: CostTier::Fast,
        scenario: "point-to-point",
        run: fig15::run,
    },
    Experiment {
        id: "fig16",
        title: "Fig. 16: quasi omni-directional beam patterns swept by the D5000",
        cost: CostTier::Fast,
        scenario: "pattern-range",
        run: fig16::run,
    },
    Experiment {
        id: "fig17",
        title: "Fig. 17: laptop and D5000 beam patterns (aligned and rotated 70°)",
        cost: CostTier::Fast,
        scenario: "pattern-range",
        run: fig17::run,
    },
    Experiment {
        id: "fig18",
        title: "Fig. 18: reflections for Dell D5000 (conference room, probes A–F)",
        cost: CostTier::Fast,
        scenario: "conference-room",
        run: fig18::run,
    },
    Experiment {
        id: "fig19",
        title: "Fig. 19: reflections for DVDO Air-3c WiHD (conference room)",
        cost: CostTier::Fast,
        scenario: "conference-room",
        run: fig19::run,
    },
    Experiment {
        id: "fig20",
        title: "Fig. 20: angular profile and throughput with link blockage",
        cost: CostTier::Medium,
        scenario: "blocked-los",
        run: fig20::run,
    },
    Experiment {
        id: "fig21",
        title: "Fig. 21: inter-system interference effects (collisions + carrier sensing)",
        cost: CostTier::Medium,
        scenario: "interference-floor",
        run: fig21::run,
    },
    Experiment {
        id: "fig22",
        title: "Fig. 22: side lobe interference impact",
        cost: CostTier::Slow,
        scenario: "interference-floor",
        run: fig22::run,
    },
    Experiment {
        id: "fig23",
        title: "Fig. 23: reflection interference impact on TCP throughput",
        cost: CostTier::Slow,
        scenario: "reflector-rig",
        run: fig23::run,
    },
    Experiment {
        id: "dynblock",
        title: "Dynamic blockage: walking-blocker transient and MAC recovery",
        cost: CostTier::Medium,
        scenario: "dynamic-blocker",
        run: dynblock::run,
    },
    Experiment {
        id: "churn",
        title: "Link churn: repeated blockage, fault bursts and retrain cadence",
        cost: CostTier::Slow,
        scenario: "link-churn",
        run: churn::run,
    },
    Experiment {
        id: "enterprise",
        title: "Enterprise density: 18-office floor, 108 WiGig links + WiHD, spatial pruning",
        cost: CostTier::Slow,
        scenario: "enterprise-floor",
        run: enterprise::run,
    },
    Experiment {
        id: "cc_compare",
        title: "Congestion control over a blockage transient: Reno vs CUBIC vs rate-probe",
        cost: CostTier::Slow,
        scenario: "dynamic-blocker",
        run: cc_compare::run,
    },
];

/// Look up an experiment descriptor by id.
pub fn find(id: &str) -> Option<&'static Experiment> {
    REGISTRY.iter().find(|e| e.id == id)
}

/// All experiment ids in paper order.
pub fn ids() -> impl Iterator<Item = &'static str> {
    REGISTRY.iter().map(|e| e.id)
}

#[cfg(test)]
mod registry_tests {
    use super::*;

    #[test]
    fn registry_ids_unique_and_find_consistent() {
        let mut seen = std::collections::HashSet::new();
        for e in REGISTRY {
            assert!(seen.insert(e.id), "duplicate id {}", e.id);
            let found = find(e.id).expect("find by id");
            assert_eq!(found.title, e.title);
        }
        assert!(find("nope").is_none());
        assert_eq!(ids().count(), REGISTRY.len());
    }
}
