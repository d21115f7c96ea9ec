//! # mmwave-sim — deterministic discrete-event simulation kernel
//!
//! This crate is the substrate every other crate in the workspace runs on.
//! It deliberately contains **no networking or radio knowledge** — just the
//! three things a reproducible measurement campaign needs:
//!
//! * [`time`] — integer-nanosecond simulated time ([`SimTime`], [`SimDuration`])
//!   so protocol constants (SIFS = 3 µs, beacon interval = 1.1 ms, …) are exact
//!   and never drift through floating point.
//! * [`queue`] + [`engine`] — a cancellable, deterministically ordered event
//!   queue and a simple run loop. Two events scheduled for the same instant
//!   fire in scheduling order, so a simulation is a pure function of its
//!   inputs and seed.
//! * [`rng`] — a seeded RNG that hands out independent, *labelled* substreams.
//!   Adding a new random component never perturbs the draws of existing ones,
//!   which keeps regression tests stable.
//!
//! [`ctx`] adds the explicit simulation context ([`SimCtx`]): the
//! counter sink, cache-mode policy, and per-context cache slots that every
//! layer above threads through instead of reaching for ambient state.
//!
//! [`stats`] and [`series`] hold the small statistics toolkit (CDFs,
//! percentiles, confidence intervals, busy-time accounting, time series)
//! that the analysis crates share.
//!
//! ## Example
//!
//! ```
//! use mmwave_sim::prelude::*;
//!
//! // A world that counts ticks.
//! struct World { ticks: u32 }
//!
//! let mut engine = Engine::new(World { ticks: 0 });
//! // Schedule three ticks, one every 100 µs.
//! for i in 1..=3u64 {
//!     engine.schedule(SimTime::ZERO + SimDuration::from_micros(100) * i as u32,
//!                     Box::new(|w: &mut World, _now, _sched| { w.ticks += 1; }));
//! }
//! engine.run_until(SimTime::from_millis(1));
//! assert_eq!(engine.world().ticks, 3);
//! assert_eq!(engine.now(), SimTime::from_millis(1));
//! ```

pub mod ctx;
pub mod engine;
pub mod hash;
pub mod metrics;
pub mod queue;
pub mod rng;
pub mod series;
pub mod stats;
pub mod time;

/// Convenient re-exports of the types almost every consumer needs.
pub mod prelude {
    pub use crate::ctx::{CacheMode, SimCtx};
    pub use crate::engine::{Engine, EventFn, Scheduler};
    pub use crate::hash::{FastMap, FastSet};
    pub use crate::metrics::EngineCounters;
    pub use crate::queue::{EventId, EventQueue};
    pub use crate::rng::SimRng;
    pub use crate::series::TimeSeries;
    pub use crate::stats::{BusyTracker, Cdf, OnlineStats};
    pub use crate::time::{SimDuration, SimTime};
}

pub use prelude::*;
