//! # mmwave-channel — composing geometry and PHY into radio links
//!
//! This crate answers the one question every experiment keeps asking:
//! *given two devices with particular antenna patterns, positions and
//! orientations inside a particular room, how much power arrives, and over
//! which paths?* (The MAC's medium turns those powers into SINR.)
//!
//! * [`node`] — a positioned, oriented radio ([`RadioNode`]): world-to-array
//!   azimuth conversion lives here and nowhere else.
//! * [`environment`] — the immutable scene: room geometry, ray-tracing
//!   limits, the link budget, plus a per-run atmospheric loss offset (the
//!   day-to-day spread behind Fig. 13's 10–17 m range variation).
//! * [`propagate`] — the link budget: per-path received power with TX/RX
//!   pattern weighting, incoherent multipath combination, and the same
//!   tail applied to memoized link gains.
//! * [`fading`] — slow AR(1) link fading and the sparse perturbation
//!   process that triggers the beam realignments of Fig. 14.
//! * [`linkgain`] — the memoized radiometric link-gain cache: linear
//!   pattern-weighted gains per (device, pattern) pair with generation-based
//!   invalidation, the fast path under the MAC's carrier-sense and
//!   sector-sweep loops.

pub mod environment;
pub mod fading;
pub mod linkgain;
pub mod node;
pub mod propagate;
pub mod spatial;

pub use environment::Environment;
pub use fading::{Ar1Fading, PerturbationProcess};
pub use linkgain::{CacheMode, CacheStats, LinkGainCache, PatId};
pub use node::{NodeId, RadioNode};
pub use propagate::{
    gain_rx_dbm, link_state, multipath_rx_dbm, path_rx_dbm, LinkEnd, LinkState, PathGain,
};
pub use spatial::{coupling_bound_dbm, cutoff_distance_m, PruneMode, SpatialConfig, SpatialIndex};
