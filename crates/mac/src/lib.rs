//! # mmwave-mac — the devices under test, as state machines
//!
//! This crate models the two consumer 60 GHz systems the paper measures,
//! at the granularity the paper observes them: frames on a shared medium.
//!
//! * **WiGig (Dell D5000 dock + Latitude laptop)** — §4.1's protocol
//!   anatomy: device-discovery sweeps of 32 quasi-omni sub-elements every
//!   102.4 ms, an association/beam-training handshake, then a data phase of
//!   CSMA/CA TXOP bursts (≤ 2 ms) opened by an RTS/CTS exchange and filled
//!   with A-MPDU data / ACK pairs, plus a 1.1 ms beacon exchange that
//!   doubles as the SNR-measurement and beam-realignment hook.
//! * **WiHD (DVDO Air-3c)** — sink-driven TDD: beacons every 0.224 ms,
//!   variable-length video data frames, **no carrier sensing whatsoever**
//!   (§4.1: "The WiHD system does not seem to perform channel sensing"),
//!   which is precisely why it interferes (§4.4).
//!
//! The [`medium`] arbiter tracks every concurrent transmission, computes
//! pattern-weighted receive powers through the channel crate, accumulates
//! interference per reception and draws frame errors from the PER model.
//! Every transmission is also appended to a [`txlog`] that the capture
//! pipeline replays into oscilloscope traces — the simulation equivalent
//! of parking a Vubiq next to the devices.
//!
//! ## Example
//!
//! ```
//! use mmwave_channel::Environment;
//! use mmwave_geom::{Angle, Point, Room};
//! use mmwave_mac::{Device, Net, NetConfig};
//! use mmwave_sim::ctx::SimCtx;
//! use mmwave_sim::time::SimTime;
//!
//! let env = Environment::new(Room::open_space());
//! let mut net = Net::with_ctx(env, NetConfig::default(), &SimCtx::new());
//! let dock = net.add_device(Device::wigig_dock(
//!     net.ctx(), "dock", Point::new(0.0, 0.0), Angle::ZERO, 13));
//! let laptop = net.add_device(Device::wigig_laptop(
//!     net.ctx(), "laptop", Point::new(2.0, 0.0), Angle::from_degrees(180.0), 11));
//! net.associate_instantly(dock, laptop);
//! net.push_mpdu(dock, 1500, 42);
//! net.run_until(SimTime::from_millis(1));
//! let delivered = net.take_deliveries();
//! assert!(matches!(delivered[0], mmwave_mac::Delivery::Mpdu { tag: 42, .. }));
//! ```

pub mod device;
pub mod frame;
pub mod medium;
pub mod net;
pub mod params;
pub mod scenario;
pub mod stats;
pub mod training;
pub mod txlog;
pub mod wigig;
pub mod wihd;

pub use device::{DevKind, Device, DeviceId, PatKey};
pub use frame::{Frame, FrameClass, FrameKind};
pub use net::{Delivery, Net, NetConfig};
pub use params::WigigConfig;
pub use scenario::{FaultKind, Scenario, ScenarioEvent, WorldMutation};
pub use stats::{DevStats, MacMeasurement};
pub use txlog::{TxLog, TxLogEntry};
