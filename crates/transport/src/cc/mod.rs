//! # Pluggable congestion control — the off-datapath plane
//!
//! The datapath ([`crate::tcp`]) owns loss *detection* (dup-ACK counting,
//! RTO timers and backoff, Karn's timed sample) and window *enforcement*;
//! everything in between — how the window reacts to what was measured —
//! lives behind the [`CongestionAlg`] trait here. The split mirrors the
//! CCP architecture: the datapath folds each ACK/loss/timeout into a
//! [`MeasurementReport`], hands it to the algorithm, and installs whatever
//! [`ControlPattern`] comes back (a congestion window, a pacing rate, or
//! both). Loss-based and rate-based algorithms then differ only in which
//! half of the pattern they drive.
//!
//! Three algorithms ship:
//!
//! * [`reno::Reno`] — the exact arithmetic that used to be inlined in
//!   `tcp.rs`, preserved float-op for float-op so default runs stay
//!   byte-identical with pre-refactor artifacts.
//! * [`cubic::Cubic`] — CUBIC-style concave/convex window growth around
//!   the pre-loss plateau, with β = 0.7 multiplicative decrease.
//! * [`rate_probe::RateProbe`] — a BBR-flavoured, loss-blind controller
//!   that models the bottleneck from delivery-rate and RTT-floor samples
//!   and installs a pacing rate plus a 2·BDP window. During a blockage
//!   transient it never collapses the window on loss — which is exactly
//!   the behavioural contrast the `cc_compare` experiment measures.
//!
//! A campaign can force an algorithm for every flow of a task through the
//! [`SimCtx`] extension slot ([`install_override`] / [`override_of`]),
//! without threading a parameter through every experiment constructor.

pub mod cubic;
pub mod rate_probe;
pub mod reno;

use mmwave_sim::ctx::SimCtx;
use std::cell::Cell;

/// Which congestion-control algorithm a flow runs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CcKind {
    /// Classic Reno: slow start, AIMD congestion avoidance, halving on
    /// loss. The default — and byte-identical with the pre-plane inline
    /// implementation.
    #[default]
    Reno,
    /// CUBIC-style window growth (concave toward the pre-loss plateau,
    /// convex beyond it).
    Cubic,
    /// Loss-blind rate-based control: pace at the estimated bottleneck
    /// bandwidth, window at 2·BDP.
    RateProbe,
}

impl CcKind {
    /// Every algorithm, in comparison order.
    pub const ALL: [CcKind; 3] = [CcKind::Reno, CcKind::Cubic, CcKind::RateProbe];

    /// Stable identifier (CLI flag value, artifact key).
    pub fn as_str(self) -> &'static str {
        match self {
            CcKind::Reno => "reno",
            CcKind::Cubic => "cubic",
            CcKind::RateProbe => "rate_probe",
        }
    }

    /// Parse a CLI/artifact identifier.
    pub fn parse(s: &str) -> Option<CcKind> {
        CcKind::ALL.into_iter().find(|k| k.as_str() == s)
    }

    /// Instantiate the algorithm in its initial state.
    pub fn build(self) -> Box<dyn CongestionAlg> {
        match self {
            CcKind::Reno => Box::new(reno::Reno::new()),
            CcKind::Cubic => Box::new(cubic::Cubic::new()),
            CcKind::RateProbe => Box::new(rate_probe::RateProbe::new()),
        }
    }
}

/// One folded measurement, covering everything the datapath learned from a
/// single ACK, loss detection or timeout event. Exactly one of
/// `timeout` / `loss` / "ack advance" (`newly_acked > 0`) holds per report.
#[derive(Clone, Copy, Debug, Default)]
pub struct MeasurementReport {
    /// Segments newly acknowledged by this ACK (0 for loss/timeout folds).
    pub newly_acked: u64,
    /// Smoothed RTT, seconds, if at least one sample exists.
    pub srtt_s: Option<f64>,
    /// Minimum RTT sample observed so far, seconds.
    pub rtt_min_s: Option<f64>,
    /// Segments in flight when the event was observed.
    pub inflight: f64,
    /// Three duplicate ACKs: the datapath is entering fast recovery.
    pub loss: bool,
    /// The retransmission timer fired.
    pub timeout: bool,
    /// This ACK took the flow out of fast recovery.
    pub recovery_exited: bool,
    /// The flow is (still) in fast recovery after this event.
    pub in_recovery: bool,
    /// Seconds since the flow started.
    pub now_s: f64,
    /// Segment size, bytes (to convert windows to rates).
    pub mss: u32,
    /// Fraction of run time the sending device spent transmitting
    /// (from [`mmwave_mac::MacMeasurement`]).
    pub airtime_share: f64,
    /// Consecutive MAC-level ACK timeouts at the sending device.
    pub ack_loss_streak: u8,
}

/// What the algorithm wants installed on the datapath. `None` fields leave
/// the previous value in place, so loss-based algorithms can drive only
/// the window while rate-based ones drive both.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ControlPattern {
    /// Congestion window, segments.
    pub cwnd: Option<f64>,
    /// Pacing rate, bits/s.
    pub rate_bps: Option<u64>,
}

/// A congestion-control algorithm: folds measurement reports, returns
/// control patterns. Implementations keep all their state internal — the
/// datapath never reads it back except through the returned pattern.
pub trait CongestionAlg: std::fmt::Debug {
    /// Which algorithm this is (for stats/labels).
    fn kind(&self) -> CcKind;
    /// Fold one measurement; return the pattern to install.
    fn on_report(&mut self, r: &MeasurementReport) -> ControlPattern;
}

/// Context extension slot carrying a campaign-level algorithm override.
#[derive(Default)]
struct CcOverride(Cell<Option<CcKind>>);

/// Force every flow subsequently created on `ctx` (without an explicit
/// per-flow `TcpConfig::cc`) to run `kind`.
pub fn install_override(ctx: &SimCtx, kind: CcKind) {
    ctx.ext_or_insert_with(CcOverride::default)
        .0
        .set(Some(kind));
}

/// The override installed on `ctx`, if any.
pub fn override_of(ctx: &SimCtx) -> Option<CcKind> {
    ctx.ext_or_insert_with(CcOverride::default).0.get()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_strings_round_trip() {
        for kind in CcKind::ALL {
            assert_eq!(CcKind::parse(kind.as_str()), Some(kind));
        }
        assert_eq!(CcKind::parse("vegas"), None);
    }

    #[test]
    fn build_reports_its_kind() {
        for kind in CcKind::ALL {
            assert_eq!(kind.build().kind(), kind);
        }
    }

    #[test]
    fn ctx_override_round_trips() {
        let ctx = SimCtx::new();
        assert_eq!(override_of(&ctx), None);
        install_override(&ctx, CcKind::Cubic);
        assert_eq!(override_of(&ctx), Some(CcKind::Cubic));
        install_override(&ctx, CcKind::RateProbe);
        assert_eq!(override_of(&ctx), Some(CcKind::RateProbe));
        // A fresh context is unaffected.
        assert_eq!(override_of(&SimCtx::new()), None);
    }
}
