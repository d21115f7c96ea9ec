//! Engine instrumentation counters.
//!
//! [`EngineCounters`] is the plain value type campaign artifacts carry.
//! Accumulation happens on an explicit [`crate::ctx::SimCtx`]: every
//! [`crate::queue::EventQueue`] streams its counter updates into the
//! context it was built with, and downstream caches (link gain, codebook)
//! record through the same context. The campaign runner builds one fresh
//! context per task and reads [`crate::ctx::SimCtx::counters`] after the
//! run — the numbers a task reports depend only on that task, by
//! construction, which keeps campaign artifacts bitwise deterministic
//! under any worker count or interleaving.
//!
//! Every counter is declared exactly once, in the table at the bottom of
//! this module: its [`Counter`] variant, its field name, its doc, and its
//! [`Fold`] rule. The struct, the index enum, the schema field list
//! ([`EngineCounters::FIELDS`]), name lookup, deltas and merges are all
//! generated from that table, so adding a counter is one table entry —
//! the context and the artifact codec follow.

use std::ops::{Index, IndexMut};

/// How a counter combines when counter blocks are merged.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Fold {
    /// An event count: merging adds, and a delta subtracts.
    Sum,
    /// A high-water mark: merging keeps the larger value. A peak is not
    /// separable from earlier activity, so a delta reports the later
    /// reading as is.
    Max,
}

impl Fold {
    /// Combine two readings of one counter under this rule.
    #[inline]
    pub(crate) fn apply(self, a: u64, b: u64) -> u64 {
        match self {
            Fold::Sum => a + b,
            Fold::Max => a.max(b),
        }
    }
}

macro_rules! engine_counters {
    ($( $(#[doc = $doc:literal])* $variant:ident $field:ident: $fold:ident, )*) => {
        /// Scheduler activity counters for one run (one engine or one
        /// accumulated task, depending on where they were read).
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct EngineCounters {
            $( $(#[doc = $doc])* pub $field: u64, )*
        }

        /// Index of one engine counter, in artifact/schema order.
        #[derive(Clone, Copy, PartialEq, Eq, Debug)]
        pub enum Counter {
            $( $(#[doc = $doc])* $variant, )*
        }

        impl Counter {
            /// Number of counters.
            pub const COUNT: usize = [$(Counter::$variant),*].len();

            /// Every counter, in artifact/schema order.
            pub const ALL: [Counter; Counter::COUNT] = [$(Counter::$variant),*];

            /// The counter's stable field name (artifact key, wire field).
            pub const fn name(self) -> &'static str {
                match self {
                    $( Counter::$variant => stringify!($field), )*
                }
            }

            /// How the counter combines across merged runs.
            pub const fn fold(self) -> Fold {
                match self {
                    $( Counter::$variant => Fold::$fold, )*
                }
            }
        }

        impl Index<Counter> for EngineCounters {
            type Output = u64;
            fn index(&self, c: Counter) -> &u64 {
                match c {
                    $( Counter::$variant => &self.$field, )*
                }
            }
        }

        impl IndexMut<Counter> for EngineCounters {
            fn index_mut(&mut self, c: Counter) -> &mut u64 {
                match c {
                    $( Counter::$variant => &mut self.$field, )*
                }
            }
        }

        impl EngineCounters {
            /// Every counter's stable field name, in artifact/schema order.
            /// The campaign artifact codec iterates this list instead of
            /// hand-listing fields.
            pub const FIELDS: [&'static str; Counter::COUNT] = [$(stringify!($field)),*];
        }
    };
}

impl Counter {
    fn from_name(name: &str) -> Option<Counter> {
        Counter::ALL.into_iter().find(|c| c.name() == name)
    }
}

impl EngineCounters {
    /// Read a counter by its [`Self::FIELDS`] name.
    pub fn get(&self, field: &str) -> Option<u64> {
        Counter::from_name(field).map(|c| self[c])
    }

    /// Write a counter by its [`Self::FIELDS`] name. Returns false (and
    /// changes nothing) for an unknown name.
    pub fn set(&mut self, field: &str, value: u64) -> bool {
        match Counter::from_name(field) {
            Some(c) => {
                self[c] = value;
                true
            }
            None => false,
        }
    }

    /// `(name, value)` pairs in [`Self::FIELDS`] order.
    pub fn fields(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        Counter::ALL.into_iter().map(|c| (c.name(), self[c]))
    }

    /// The activity between an `earlier` reading of the same context and
    /// this one: [`Fold::Sum`] counters subtract, [`Fold::Max`] counters
    /// keep this reading. Merging the delta into a context that holds
    /// `earlier` ([`crate::ctx::SimCtx::merge_counters`]) reproduces
    /// `self`.
    pub fn since(&self, earlier: &EngineCounters) -> EngineCounters {
        let mut d = *self;
        for c in Counter::ALL {
            if c.fold() == Fold::Sum {
                d[c] -= earlier[c];
            }
        }
        d
    }
}

engine_counters! {
    /// Events popped and executed.
    EventsPopped events_popped: Sum,
    /// Highest number of simultaneously pending events.
    PeakQueueDepth peak_queue_depth: Max,
    /// Radiometric link-gain cache lookups answered from a memoized entry.
    LinkGainHits link_gain_hits: Sum,
    /// Link-gain lookups that had to recompute (cold or stale entry).
    LinkGainMisses link_gain_misses: Sum,
    /// Link-gain cache invalidation events (device moved/rotated or a
    /// global flush).
    LinkGainInvalidations link_gain_invalidations: Sum,
    /// Scenario world mutations applied (blocker moves, device moves,
    /// interferer toggles, fault-window installs).
    ScenarioMutations scenario_mutations: Sum,
    /// Frames forced to fail by an injected fault window.
    FaultsInjected faults_injected: Sum,
    /// Codebook requests answered from the memoized per-array cache.
    CodebookHits codebook_hits: Sum,
    /// Codebook requests that had to synthesize all sectors.
    CodebookMisses codebook_misses: Sum,
    /// Codebook requests resolved from a campaign-wide prebuilt pool
    /// instead of a per-context cold synthesis.
    CodebookPrebuiltHits codebook_prebuilt_hits: Sum,
    /// Congestion-control measurement reports folded into an algorithm.
    CcReportsFolded cc_reports_folded: Sum,
    /// Congestion-control patterns that changed the datapath state
    /// (installed cwnd or pacing rate differed from the previous one).
    CcPatternsInstalled cc_patterns_installed: Sum,
    /// Distinct transport loss epochs (fast-retransmit entries plus first
    /// RTOs; backed-off retransmit timers within one outage count once).
    CcLossEpochs cc_loss_epochs: Sum,
    /// Device pairs the spatial interference graph pruned (conservative
    /// coupling bound below the floor, so the full radiometric evaluation
    /// was skippable; audit mode records the same count while computing).
    SpatialPrunedPairs spatial_pruned_pairs: Sum,
    /// Wall mutations whose cache invalidation was scoped to the opaque
    /// zones the wall touches instead of flushing every pair.
    SpatialZoneInvalidations spatial_zone_invalidations: Sum,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_table_covers_every_counter_exactly_once() {
        // A counter reachable by name must round-trip through get/set, and
        // setting every field to a distinct value must make every field
        // read back distinct (catches two names pointing at one slot).
        let mut c = EngineCounters::default();
        for (i, f) in EngineCounters::FIELDS.iter().enumerate() {
            assert!(c.set(f, (i + 1) as u64), "unknown field {f}");
        }
        let mut seen: Vec<u64> = c.fields().map(|(_, v)| v).collect();
        assert_eq!(seen.len(), EngineCounters::FIELDS.len());
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(
            seen.len(),
            EngineCounters::FIELDS.len(),
            "two field names alias the same slot"
        );
        assert_eq!(c.get("events_popped"), Some(1));
        assert_eq!(c.get("nonexistent"), None);
        assert!(!c.set("nonexistent", 9));
    }
}
