//! # mmwave-core — the measurement campaign, as a library
//!
//! This crate is the paper's primary contribution in executable form: the
//! *methodology* of overhearing consumer 60 GHz devices with a
//! down-converter and extracting beamforming, interference and frame-level
//! insight from amplitude traces. It composes the substrate crates into
//! the exact experimental setups of the paper and re-runs every analysis:
//!
//! * [`scenarios`] — constructors for each measurement setup: the outdoor
//!   semicircle pattern range (Fig. 2), the conference room with its six
//!   probe positions (Fig. 4), the blocked-LoS wall link (Fig. 5), the
//!   parallel-links interference floor (Fig. 6) and the shielded
//!   reflector setup (Fig. 7).
//! * [`replay`] — turns a MAC transmission log into the oscilloscope
//!   traces a Vubiq at any position would have recorded.
//! * [`analysis`] — frame-level statistics (lengths, bursts, aggregation),
//!   beam-pattern metrics, reflection attribution and interference
//!   summaries.
//! * [`design`] — working prototypes of the paper's §5 design principles
//!   (MAC-behaviour switching, reflection-aware interference maps,
//!   quasi-static power control), each evaluated against the simulated
//!   hardware.
//! * [`experiments`] — one module per table/figure of the evaluation;
//!   each returns a structured result and renders the same rows/series the
//!   paper reports. `campaign --format report` runs them from the shell.
//! * [`report`] — plain-text table/series/polar renderers shared by the
//!   binaries.

pub mod analysis;
pub mod design;
pub mod experiments;
pub mod replay;
pub mod report;
pub mod scenarios;
