//! # mmwave-sim — deterministic discrete-event simulation kernel
//!
//! This crate is the substrate every other crate in the workspace runs on.
//! It deliberately contains **no networking or radio knowledge** — just the
//! three things a reproducible measurement campaign needs:
//!
//! * [`time`] — integer-nanosecond simulated time ([`SimTime`], [`SimDuration`])
//!   so protocol constants (SIFS = 3 µs, beacon interval = 1.1 ms, …) are exact
//!   and never drift through floating point.
//! * [`queue`] — a deterministically ordered event queue. Two
//!   events scheduled for the same instant pop in scheduling order, so a
//!   simulation is a pure function of its inputs and seed. Each simulator
//!   (the MAC's `Net`, for one) drives its own loop over an
//!   [`EventQueue`] of its own event type.
//! * [`rng`] — a seeded RNG that hands out independent, *labelled* substreams.
//!   Adding a new random component never perturbs the draws of existing ones,
//!   which keeps regression tests stable.
//!
//! [`ctx`] adds the explicit simulation context ([`SimCtx`]): the
//! counter sink, cache-mode policy, and per-context cache slots that every
//! layer above threads through instead of reaching for ambient state.
//! [`shared`] is the one store that outlives a context: a campaign-scoped
//! pool of deterministic results that several tasks need.
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
//! // A queue whose pops and depth land in `ctx`'s counters.
//! let ctx = SimCtx::new();
//! let mut queue = EventQueue::with_ctx(&ctx);
//! // Schedule three ticks out of order, 100 µs apart.
//! for i in [3u64, 1, 2] {
//!     queue.schedule(SimTime::from_micros(100 * i), i);
//! }
//! let mut order = Vec::new();
//! while let Some((_at, tick)) = queue.pop() {
//!     order.push(tick);
//! }
//! assert_eq!(order, vec![1, 2, 3]);
//! assert_eq!(ctx.counters().events_popped, 3);
//! ```

pub mod ctx;
pub mod hash;
pub mod metrics;
pub mod queue;
pub mod rng;
pub mod series;
pub mod shared;
pub mod stats;
pub mod time;

/// Convenient re-exports of the types almost every consumer needs.
pub mod prelude {
    pub use crate::ctx::{CacheMode, SimCtx};
    pub use crate::hash::{FastMap, FastSet};
    pub use crate::metrics::EngineCounters;
    pub use crate::queue::EventQueue;
    pub use crate::rng::SimRng;
    pub use crate::series::TimeSeries;
    pub use crate::stats::{BusyTracker, Cdf, OnlineStats};
    pub use crate::time::{SimDuration, SimTime};
}

pub use prelude::*;
