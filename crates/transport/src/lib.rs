//! # mmwave-transport — Iperf over the 60 GHz link
//!
//! The paper's throughput numbers are all produced by Iperf over TCP, with
//! the TCP *window size* as the experiment knob (§4.1: "We control the TCP
//! throughput by adjusting its window size in Iperf") and a Gigabit
//! Ethernet interface capping everything near 934 Mb/s. This crate
//! provides exactly that measurement stack:
//!
//! * [`tcp`] — the TCP datapath: loss detection (triple duplicate ACKs,
//!   RTO with backoff, Karn's RTT sampling), a window clamp (the Iperf
//!   `-w` knob) and optional application pacing (for the kb/s operating
//!   points of Figs. 9–11, which the real setup reached through
//!   pathological small-window behaviour — see DESIGN.md).
//! * [`cc`] — the pluggable congestion-control plane behind the datapath:
//!   algorithms ([`cc::reno`], [`cc::cubic`], [`cc::rate_probe`]) fold
//!   [`MeasurementReport`]s and install [`ControlPattern`]s (window
//!   and/or pacing rate). Reno is the default and reproduces the
//!   pre-plane inline implementation byte-for-byte.
//! * [`ethernet`] — the 1 Gb/s store-and-forward bottleneck between the
//!   wired Iperf endpoint and the dock's air interface.
//! * [`stack`] — the co-simulation driver that interleaves TCP timers with
//!   the MAC event loop and collects per-interval throughput series
//!   (the Iperf report).

//! ## Example
//!
//! ```
//! use mmwave_channel::Environment;
//! use mmwave_geom::{Angle, Point, Room};
//! use mmwave_mac::{Device, Net, NetConfig};
//! use mmwave_sim::ctx::SimCtx;
//! use mmwave_sim::time::SimTime;
//! use mmwave_transport::{Stack, TcpConfig};
//!
//! let env = Environment::new(Room::open_space());
//! let mut net = Net::with_ctx(env, NetConfig::default(), &SimCtx::new());
//! let dock = net.add_device(Device::wigig_dock(
//!     net.ctx(), "dock", Point::new(0.0, 0.0), Angle::ZERO, 13));
//! let laptop = net.add_device(Device::wigig_laptop(
//!     net.ctx(), "laptop", Point::new(2.0, 0.0), Angle::from_degrees(180.0), 11));
//! net.associate_instantly(dock, laptop);
//!
//! let mut stack = Stack::new(net);
//! let flow = stack.add_flow(TcpConfig::bulk(dock, laptop, 256 * 1024));
//! stack.run_until(SimTime::from_millis(200));
//! assert!(stack.flow_stats(flow).bytes_acked > 1_000_000);
//! ```

pub mod cc;
pub mod ethernet;
pub mod stack;
pub mod tcp;

pub use cc::{CcKind, CongestionAlg, ControlPattern, MeasurementReport};
pub use ethernet::RateLimiter;
pub use stack::{FlowId, Stack};
pub use tcp::{FlowStats, TcpConfig, TcpFlow};
