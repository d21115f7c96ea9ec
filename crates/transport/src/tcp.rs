//! The TCP *datapath* over the MAC's MPDU service.
//!
//! Sequence numbers are in *segments* (fixed MSS), which keeps the
//! arithmetic honest while avoiding byte-granularity bookkeeping the
//! experiments never observe. One [`TcpFlow`] owns both endpoints — the
//! sender runs at `src_dev`, the receiver at `dst_dev`, and segments/ACKs
//! ride the MAC as MPDUs with the flow id and sequence encoded in the
//! transport tag.
//!
//! The datapath detects loss (dup-ACK counting, RTO timers with backoff,
//! Karn's timed RTT sample) and enforces windows and pacing rates, but it
//! performs **no congestion arithmetic itself**: every ACK advance, fast
//! retransmit and timeout is folded into a [`cc::MeasurementReport`] and
//! handed to the flow's [`cc::CongestionAlg`]; the returned
//! [`cc::ControlPattern`] (window and/or pacing rate) is what the fill
//! loop obeys. See the [`crate::cc`] module docs for the plane split.

use crate::cc::{self, CongestionAlg, ControlPattern, MeasurementReport};
use crate::ethernet::RateLimiter;
use mmwave_mac::MacMeasurement;
use mmwave_sim::ctx::SimCtx;
use mmwave_sim::metrics::Counter;
use mmwave_sim::series::TimeSeries;
use mmwave_sim::time::{SimDuration, SimTime};
use std::collections::BTreeSet;

/// Size of an ACK segment on the air, bytes.
const ACK_BYTES: u32 = 60;
/// Initial retransmission timeout.
const INITIAL_RTO: SimDuration = SimDuration::from_millis(20);
/// Minimum RTO (RFC 6298 uses 1 s; consumer stacks and our ms-scale RTTs
/// justify a much tighter floor).
const MIN_RTO: SimDuration = SimDuration::from_millis(5);
/// MAC queue depth (MPDUs) above which the sender pauses pushing.
const MAC_QUEUE_CAP: usize = 96;
/// Retry delay when the MAC queue is full.
const QUEUE_POLL: SimDuration = SimDuration::from_micros(300);
/// Delayed-ACK timer: an in-order segment is acknowledged at the latest
/// this long after arrival (or immediately on every third segment — a
/// stretch-ACK policy matching the bulk-transfer regime the dock serves).
const DELACK: SimDuration = SimDuration::from_micros(500);

/// Tag encoding: `[flow:15][is_ack:1][seq:48]`.
pub(crate) fn encode_tag(flow: u16, is_ack: bool, seq: u64) -> u64 {
    debug_assert!(flow < (1 << 15));
    debug_assert!(seq < (1 << 48));
    ((flow as u64) << 49) | ((is_ack as u64) << 48) | seq
}

/// Decode a transport tag into `(flow, is_ack, seq)`.
pub(crate) fn decode_tag(tag: u64) -> (u16, bool, u64) {
    (
        (tag >> 49) as u16,
        (tag >> 48) & 1 == 1,
        tag & ((1 << 48) - 1),
    )
}

/// Flow configuration.
#[derive(Clone, Debug)]
pub struct TcpConfig {
    /// Sending device index.
    pub src_dev: usize,
    /// Receiving device index.
    pub dst_dev: usize,
    /// Segment size, bytes (payload per MPDU).
    pub mss: u32,
    /// Window clamp in bytes (the Iperf `-w` knob).
    pub window_bytes: u64,
    /// Optional application pacing in bits/s (for kb/s operating points).
    pub pace_bps: Option<u64>,
    /// Optional Ethernet bottleneck in front of the air interface.
    pub bottleneck: Option<RateLimiter>,
    /// Total bytes to transfer; `None` = unlimited (Iperf duration mode).
    pub total_bytes: Option<u64>,
    /// Throughput sampling interval for the stats series.
    pub sample_interval: SimDuration,
    /// Congestion-control algorithm. `None` inherits the context override
    /// (see [`cc::install_override`]) and defaults to Reno.
    pub cc: Option<cc::CcKind>,
}

impl TcpConfig {
    /// An Iperf-style bulk flow with a given window clamp.
    pub fn bulk(src_dev: usize, dst_dev: usize, window_bytes: u64) -> TcpConfig {
        TcpConfig {
            src_dev,
            dst_dev,
            mss: 1500,
            window_bytes,
            pace_bps: None,
            bottleneck: Some(RateLimiter::gige()),
            total_bytes: None,
            sample_interval: SimDuration::from_millis(100),
            cc: None,
        }
    }

    /// A paced flow: the application feeds segments at `pace_bps`. The
    /// window is sized to never be the constraint (pacing is), with a
    /// floor for trickle rates.
    pub fn paced(src_dev: usize, dst_dev: usize, pace_bps: u64) -> TcpConfig {
        let window = ((pace_bps as f64 * 2e-3 / 8.0) as u64).max(3_000);
        TcpConfig {
            pace_bps: Some(pace_bps),
            window_bytes: window,
            ..TcpConfig::bulk(src_dev, dst_dev, 64 * 1024)
        }
    }
}

/// Measured flow statistics.
#[derive(Clone, Debug, Default)]
pub struct FlowStats {
    /// Bytes cumulatively acknowledged at the sender.
    pub bytes_acked: u64,
    /// Bytes cumulatively received in order at the receiver.
    pub bytes_received: u64,
    /// Retransmitted segments.
    pub retransmits: u64,
    /// RTO events.
    pub timeouts: u64,
    /// Fast retransmits.
    pub fast_retransmits: u64,
    /// Distinct loss epochs: fast-recovery entries plus first RTOs
    /// (backed-off retransmissions of the same outage count once).
    pub loss_epochs: u64,
    /// Smoothed RTT estimate (last), seconds.
    pub srtt_s: f64,
    /// Cumulative received bytes over time (for interval throughput).
    pub received_series: TimeSeries,
}

impl FlowStats {
    /// Mean goodput over `[from, to)` in Mb/s, from the received series.
    pub fn mean_goodput_mbps(&self, from: SimTime, to: SimTime) -> f64 {
        let at = |t: SimTime| self.received_series.sample_hold(t).unwrap_or(0.0);
        let bytes = at(to) - at(from);
        let secs = (to - from).as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            bytes * 8.0 / secs / 1e6
        }
    }

    /// Per-interval goodput series in Mb/s with the given bin width.
    pub fn goodput_series_mbps(
        &self,
        from: SimTime,
        to: SimTime,
        bin: SimDuration,
    ) -> Vec<(SimTime, f64)> {
        let mut out = Vec::new();
        let mut t = from;
        while t < to {
            let end = (t + bin).min(to);
            out.push((t, self.mean_goodput_mbps(t, end)));
            t = end;
        }
        out
    }
}

/// Sender + receiver state of one TCP flow.
#[derive(Debug)]
pub struct TcpFlow {
    /// Flow id (index in the stack).
    pub id: u16,
    /// Configuration, fixed at construction.
    pub(crate) cfg: TcpConfig,
    /// The window clamp in segments, `(window_bytes / mss).max(1)`.
    window_clamp: f64,
    // --- sender (datapath) ---
    snd_una: u64,
    snd_nxt: u64,
    /// Window installed by the congestion algorithm, segments.
    ctl_window: f64,
    /// Pacing rate installed by the congestion algorithm, bits/s.
    ctl_rate_bps: Option<u64>,
    /// Next release instant for algorithm-installed pacing.
    cc_pace_next: SimTime,
    dup_acks: u32,
    in_recovery: bool,
    recovery_end: u64,
    srtt: Option<f64>,
    rtt_min: Option<f64>,
    rttvar: f64,
    rto: SimDuration,
    rto_at: Option<SimTime>,
    rto_backoff: u32,
    /// (seq, sent_at) of one timed segment (Karn's algorithm: one sample
    /// at a time, never from retransmissions).
    timed: Option<(u64, SimTime)>,
    pending_fast_retransmit: bool,
    pace_next: SimTime,
    queue_poll_at: Option<SimTime>,
    // --- receiver ---
    rcv_nxt: u64,
    out_of_order: BTreeSet<u64>,
    delack_pending: u32,
    delack_at: Option<SimTime>,
    // --- congestion plane ---
    alg: Box<dyn CongestionAlg>,
    ctx: SimCtx,
    /// Latest MAC-level measurement folded into reports.
    mac: MacMeasurement,
    // --- stats ---
    /// Measured statistics.
    pub stats: FlowStats,
    next_sample: SimTime,
    started: SimTime,
}

/// Actions the flow asks the stack to perform (decoupled from `Net` so the
/// flow logic is unit-testable in isolation).
#[derive(Debug, PartialEq, Eq)]
pub enum TcpAction {
    /// Push an MPDU on `dev` with the given size and tag.
    Push {
        /// Device whose MAC queue receives the MPDU.
        dev: usize,
        /// Payload bytes.
        bytes: u32,
        /// Encoded transport tag.
        tag: u64,
    },
}

impl TcpFlow {
    /// Create a flow whose congestion plane reports into `ctx`. The
    /// algorithm resolves as: explicit [`TcpConfig::cc`], else the context
    /// override ([`cc::install_override`]), else Reno. Transmission begins
    /// on the first `on_timer` / `pump` call.
    pub fn with_ctx(id: u16, cfg: TcpConfig, now: SimTime, ctx: &SimCtx) -> TcpFlow {
        let kind = cfg
            .cc
            .or_else(|| cc::override_of(ctx))
            .unwrap_or(cc::CcKind::Reno);
        TcpFlow {
            id,
            window_clamp: (cfg.window_bytes as f64 / cfg.mss as f64).max(1.0),
            cfg,
            snd_una: 0,
            snd_nxt: 0,
            ctl_window: 4.0,
            ctl_rate_bps: None,
            cc_pace_next: now,
            dup_acks: 0,
            in_recovery: false,
            recovery_end: 0,
            srtt: None,
            rtt_min: None,
            rttvar: 0.0,
            rto: INITIAL_RTO,
            rto_at: None,
            rto_backoff: 0,
            timed: None,
            pending_fast_retransmit: false,
            pace_next: now,
            queue_poll_at: None,
            rcv_nxt: 0,
            out_of_order: BTreeSet::new(),
            delack_pending: 0,
            delack_at: None,
            alg: kind.build(),
            ctx: ctx.clone(),
            mac: MacMeasurement::default(),
            stats: FlowStats::default(),
            next_sample: now,
            started: now,
        }
    }

    /// Fold a measurement into the congestion algorithm and install the
    /// resulting control pattern.
    fn fold(&mut self, report: MeasurementReport) {
        self.ctx.bump(Counter::CcReportsFolded);
        let pattern = self.alg.on_report(&report);
        self.apply(pattern);
    }

    /// Install a control pattern, counting only patterns that change the
    /// datapath state.
    fn apply(&mut self, pattern: ControlPattern) {
        let mut installed = false;
        if let Some(w) = pattern.cwnd {
            if w != self.ctl_window {
                installed = true;
            }
            self.ctl_window = w;
        }
        if let Some(rate) = pattern.rate_bps {
            if Some(rate) != self.ctl_rate_bps {
                installed = true;
            }
            self.ctl_rate_bps = Some(rate);
        }
        if installed {
            self.ctx.bump(Counter::CcPatternsInstalled);
        }
    }

    /// A report template carrying the measurement fields every fold
    /// shares (clocks, RTT state, MAC-level link view).
    fn report_base(&self, now: SimTime) -> MeasurementReport {
        MeasurementReport {
            srtt_s: self.srtt,
            rtt_min_s: self.rtt_min,
            now_s: (now - self.started).as_secs_f64(),
            mss: self.cfg.mss,
            airtime_share: self.mac.airtime_share,
            ack_loss_streak: self.mac.ack_loss_streak,
            in_recovery: self.in_recovery,
            ..Default::default()
        }
    }

    /// Update the MAC-level measurement folded into subsequent reports
    /// (the stack snapshots [`mmwave_mac::Net::mac_measurement`] per ACK).
    pub fn note_mac(&mut self, m: MacMeasurement) {
        self.mac = m;
    }

    /// Total segments this flow will ever send (`None` = unbounded).
    fn total_segments(&self) -> Option<u64> {
        self.cfg
            .total_bytes
            .map(|b| b.div_ceil(self.cfg.mss as u64))
    }

    /// True if every byte has been acknowledged.
    pub fn finished(&self) -> bool {
        match self.total_segments() {
            Some(n) => self.snd_una >= n,
            None => false,
        }
    }

    /// Effective send window in segments.
    fn window_segments(&self) -> f64 {
        self.ctl_window.min(self.window_clamp)
    }

    /// The next instant this flow needs servicing (RTO, pacing release,
    /// MAC-queue poll, stats sample).
    pub fn next_timer(&self) -> Option<SimTime> {
        let mut t: Option<SimTime> = None;
        let mut consider = |x: Option<SimTime>| {
            if let Some(x) = x {
                t = Some(t.map_or(x, |c: SimTime| c.min(x)));
            }
        };
        consider(self.rto_at);
        consider(self.queue_poll_at);
        consider(self.delack_at);
        // Pacing releases only matter for paced flows; unpaced flows are
        // purely ACK-clocked (and polled via queue_poll_at).
        if !self.finished() && (self.snd_nxt - self.snd_una) < self.window_segments() as u64 {
            // A release happens when every active pacer allows it, so the
            // next actionable instant is the *latest* pending release.
            match (self.cfg.pace_bps.is_some(), self.ctl_rate_bps.is_some()) {
                (true, true) => consider(Some(self.pace_next.max(self.cc_pace_next))),
                (true, false) => consider(Some(self.pace_next)),
                (false, true) => consider(Some(self.cc_pace_next)),
                (false, false) => {}
            }
        }
        consider(Some(self.next_sample));
        t
    }

    /// Service timers and fill the window. `mac_queue_len` is the current
    /// depth of the sender's MAC queue (backpressure).
    pub fn pump(&mut self, now: SimTime, mac_queue_len: usize) -> Vec<TcpAction> {
        let mut actions = Vec::new();
        self.pump_into(now, mac_queue_len, &mut actions);
        actions
    }

    /// [`Self::pump`] appending into a caller-owned buffer, so the stack's
    /// hot loop reuses one allocation across every pump.
    pub(crate) fn pump_into(
        &mut self,
        now: SimTime,
        mac_queue_len: usize,
        actions: &mut Vec<TcpAction>,
    ) {
        // Stats sampling.
        while self.next_sample <= now {
            self.stats
                .received_series
                .push(self.next_sample, self.stats.bytes_received as f64);
            self.next_sample += self.cfg.sample_interval;
        }
        // Delayed ACK due?
        if let Some(at) = self.delack_at {
            if at <= now {
                actions.push(self.make_ack());
            }
        }
        // RTO?
        if let Some(at) = self.rto_at {
            if at <= now {
                self.on_rto(now);
                // Immediately retransmit the lost head segment.
                actions.push(self.push_segment(self.snd_una, now, true));
            }
        }
        self.queue_poll_at = None;
        // Fill the window.
        loop {
            if self.finished() {
                break;
            }
            let in_flight = self.snd_nxt.saturating_sub(self.snd_una);
            if (in_flight as f64) >= self.window_segments() {
                break;
            }
            if let Some(total) = self.total_segments() {
                if self.snd_nxt >= total {
                    break;
                }
            }
            if mac_queue_len + actions.len() >= MAC_QUEUE_CAP {
                self.queue_poll_at = Some(now + QUEUE_POLL);
                break;
            }
            // Pacing: the application pacer and the congestion
            // algorithm's pacer (Reno/CUBIC never install a rate, so the
            // latter is inert for loss-based control). Both must allow
            // the release before either credit is consumed — consuming
            // one while the other gates would strand its `*_next` in the
            // past and livelock the timer loop.
            if self.cfg.pace_bps.is_some() && self.pace_next > now {
                break;
            }
            if self.ctl_rate_bps.is_some() && self.cc_pace_next > now {
                break;
            }
            if let Some(pace) = self.cfg.pace_bps {
                self.pace_next = now + SimDuration::for_bits(self.cfg.mss as u64 * 8, pace);
            }
            if let Some(rate) = self.ctl_rate_bps {
                self.cc_pace_next =
                    now + SimDuration::for_bits(self.cfg.mss as u64 * 8, rate.max(1));
            }
            // Ethernet bottleneck.
            if let Some(limiter) = &mut self.cfg.bottleneck {
                if !limiter.admit(now, self.cfg.mss) {
                    self.queue_poll_at = Some(limiter.next_free());
                    break;
                }
            }
            let seq = self.snd_nxt;
            self.snd_nxt += 1;
            actions.push(self.push_segment(seq, now, false));
        }
    }

    fn push_segment(&mut self, seq: u64, now: SimTime, is_retransmit: bool) -> TcpAction {
        if is_retransmit {
            self.stats.retransmits += 1;
        } else if self.timed.is_none() {
            self.timed = Some((seq, now));
        }
        if self.rto_at.is_none() {
            self.rto_at = Some(now + self.rto);
        }
        TcpAction::Push {
            dev: self.cfg.src_dev,
            bytes: self.cfg.mss,
            tag: encode_tag(self.id, false, seq),
        }
    }

    fn make_ack(&mut self) -> TcpAction {
        self.delack_pending = 0;
        self.delack_at = None;
        TcpAction::Push {
            dev: self.cfg.dst_dev,
            bytes: ACK_BYTES,
            tag: encode_tag(self.id, true, self.rcv_nxt),
        }
    }

    /// A data segment arrived at the receiver. Returns the ACK to send, if
    /// one is due now (delayed-ACK policy: immediate on out-of-order or on
    /// every second in-order segment, otherwise within [`DELACK`]).
    pub fn on_data(&mut self, seq: u64, now: SimTime) -> Option<TcpAction> {
        if seq == self.rcv_nxt {
            self.rcv_nxt += 1;
            self.stats.bytes_received += self.cfg.mss as u64;
            while self.out_of_order.remove(&self.rcv_nxt) {
                self.rcv_nxt += 1;
                self.stats.bytes_received += self.cfg.mss as u64;
            }
            self.delack_pending += 1;
            if self.delack_pending >= 3 {
                Some(self.make_ack())
            } else {
                self.delack_at = Some(now + DELACK);
                None
            }
        } else {
            // Out of order or duplicate: ACK immediately (dup-ACK signal).
            if seq > self.rcv_nxt {
                self.out_of_order.insert(seq);
            }
            Some(self.make_ack())
        }
    }

    /// A (cumulative) ACK arrived at the sender.
    pub fn on_ack(&mut self, cum: u64, now: SimTime) {
        if cum > self.snd_una {
            let newly = cum - self.snd_una;
            self.snd_una = cum;
            self.stats.bytes_acked = self.snd_una * self.cfg.mss as u64;
            self.dup_acks = 0;
            self.rto_backoff = 0;
            // RTT sample (Karn: only if the timed segment is covered and
            // was never retransmitted — retransmission clears `timed`).
            if let Some((seq, at)) = self.timed {
                if cum > seq {
                    let sample = (now - at).as_secs_f64();
                    match self.srtt {
                        None => {
                            self.srtt = Some(sample);
                            self.rttvar = sample / 2.0;
                        }
                        Some(srtt) => {
                            self.rttvar = 0.75 * self.rttvar + 0.25 * (srtt - sample).abs();
                            self.srtt = Some(0.875 * srtt + 0.125 * sample);
                        }
                    }
                    let srtt = self.srtt.expect("just set");
                    self.stats.srtt_s = srtt;
                    self.rtt_min = Some(self.rtt_min.map_or(sample, |m: f64| m.min(sample)));
                    let rto = SimDuration::from_secs_f64(srtt + 4.0 * self.rttvar);
                    self.rto = rto.max(MIN_RTO);
                    self.timed = None;
                }
            }
            let recovery_exited = self.in_recovery && cum >= self.recovery_end;
            if recovery_exited {
                self.in_recovery = false;
            }
            self.fold(MeasurementReport {
                newly_acked: newly,
                recovery_exited,
                inflight: self.snd_nxt.saturating_sub(self.snd_una) as f64,
                ..self.report_base(now)
            });
            // Restart the RTO for remaining in-flight data.
            self.rto_at = if self.snd_nxt > self.snd_una {
                Some(now + self.rto)
            } else {
                None
            };
        } else if cum == self.snd_una && self.snd_nxt > self.snd_una {
            self.dup_acks += 1;
            if self.dup_acks == 3 && !self.in_recovery {
                // Fast retransmit / recovery.
                self.stats.fast_retransmits += 1;
                self.stats.loss_epochs += 1;
                self.ctx.bump(Counter::CcLossEpochs);
                let flight = (self.snd_nxt - self.snd_una) as f64;
                self.in_recovery = true;
                self.recovery_end = self.snd_nxt;
                self.timed = None;
                self.pending_fast_retransmit = true;
                self.fold(MeasurementReport {
                    loss: true,
                    inflight: flight,
                    ..self.report_base(now)
                });
            }
        }
    }

    fn on_rto(&mut self, now: SimTime) {
        self.stats.timeouts += 1;
        // A fresh RTO (no backoff yet) opens a loss epoch; the backed-off
        // re-fires during one outage — e.g. the MAC's 102.4 ms
        // rediscovery window — belong to the same epoch (the backoff only
        // resets when an ACK advances).
        if self.rto_backoff == 0 {
            self.stats.loss_epochs += 1;
            self.ctx.bump(Counter::CcLossEpochs);
        }
        let flight = (self.snd_nxt - self.snd_una).max(1) as f64;
        self.in_recovery = false;
        self.dup_acks = 0;
        self.timed = None;
        self.fold(MeasurementReport {
            timeout: true,
            inflight: flight,
            ..self.report_base(now)
        });
        self.rto_backoff = (self.rto_backoff + 1).min(6);
        let backed =
            SimDuration::from_secs_f64(self.rto.as_secs_f64() * (1 << self.rto_backoff) as f64);
        self.rto_at = Some(now + backed);
    }

    /// Take the pending fast-retransmit request, if any (the stack turns
    /// it into a segment push).
    pub fn take_fast_retransmit(&mut self, now: SimTime) -> Option<TcpAction> {
        if self.pending_fast_retransmit {
            self.pending_fast_retransmit = false;
            Some(self.push_segment(self.snd_una, now, true))
        } else {
            None
        }
    }

    /// Current congestion window in segments (diagnostics) — the window
    /// installed by the congestion algorithm.
    pub fn cwnd_segments(&self) -> f64 {
        self.ctl_window
    }

    /// Which congestion-control algorithm this flow runs.
    pub fn cc_kind(&self) -> cc::CcKind {
        self.alg.kind()
    }

    /// Time the flow was created.
    pub fn started(&self) -> SimTime {
        self.started
    }

    /// Sender progress in segments `(snd_una, snd_nxt)`.
    pub fn sender_progress(&self) -> (u64, u64) {
        (self.snd_una, self.snd_nxt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn flow(window: u64) -> TcpFlow {
        let cfg = TcpConfig {
            bottleneck: None,
            ..TcpConfig::bulk(0, 1, window)
        };
        TcpFlow::with_ctx(1, cfg, SimTime::ZERO, &SimCtx::new())
    }

    #[test]
    fn tag_roundtrip() {
        for (f, a, s) in [
            (0u16, false, 0u64),
            (7, true, 123456),
            (32_000, false, 1 << 47),
        ] {
            assert_eq!(decode_tag(encode_tag(f, a, s)), (f, a, s));
        }
    }

    #[test]
    fn initial_pump_respects_cwnd() {
        let mut f = flow(1 << 20);
        let actions = f.pump(SimTime::ZERO, 0);
        assert_eq!(actions.len(), 4, "initial window is 4 segments");
    }

    #[test]
    fn window_clamp_limits_flight() {
        let mut f = flow(3000); // 2 segments
        let actions = f.pump(SimTime::ZERO, 0);
        assert_eq!(actions.len(), 2);
        // ACK one: exactly one more may fly.
        f.on_ack(1, t(1));
        let actions = f.pump(t(1), 0);
        assert_eq!(actions.len(), 1);
    }

    #[test]
    fn slow_start_doubles() {
        let mut f = flow(1 << 24);
        let a0 = f.pump(SimTime::ZERO, 0).len() as u64;
        f.on_ack(a0, t(1));
        let a1 = f.pump(t(1), 0).len() as u64;
        // cwnd grew by the acked count: in flight 0, cwnd = 4 + 4 = 8.
        assert_eq!(a1, 2 * a0);
    }

    #[test]
    fn receiver_acks_cumulatively_and_reorders() {
        let mut f = flow(1 << 20);
        // First in-order segment: ACK is delayed.
        assert_eq!(f.on_data(0, t(0)), None);
        // Out of order: 2 arrives before 1 → immediate (duplicate) ACK of 1.
        let ack = f.on_data(2, t(0));
        assert_eq!(
            ack,
            Some(TcpAction::Push {
                dev: 1,
                bytes: 60,
                tag: encode_tag(1, true, 1)
            })
        );
        // 1 arrives → in-order, first pending → delayed again…
        assert_eq!(f.on_data(1, t(0)), None);
        // …and the third pending in-order segment acks immediately,
        // cumulative to 5.
        assert_eq!(f.on_data(3, t(0)), None);
        let ack = f.on_data(4, t(0));
        assert_eq!(
            ack,
            Some(TcpAction::Push {
                dev: 1,
                bytes: 60,
                tag: encode_tag(1, true, 5)
            })
        );
        assert_eq!(f.stats.bytes_received, 5 * 1500);
    }

    #[test]
    fn delayed_ack_fires_on_timer() {
        let mut f = flow(1 << 20);
        let _ = f.pump(SimTime::ZERO, MAC_QUEUE_CAP); // advance the sample timer
        assert_eq!(f.on_data(0, t(0)), None);
        // The delack deadline is among the pending timers (queue polls may
        // be earlier).
        let due = f.next_timer().expect("delack armed");
        assert!(due <= SimTime::ZERO + DELACK);
        let actions = f.pump(SimTime::ZERO + DELACK, MAC_QUEUE_CAP);
        assert!(
            actions
                .iter()
                .any(|a| matches!(a, TcpAction::Push { bytes: 60, .. })),
            "delayed ACK emitted: {actions:?}"
        );
    }

    #[test]
    fn triple_dupack_triggers_fast_retransmit() {
        let mut f = flow(1 << 20);
        let sent = f.pump(SimTime::ZERO, 0).len() as u64;
        assert!(sent >= 4);
        f.on_ack(1, t(1));
        f.pump(t(1), 0);
        for _ in 0..3 {
            f.on_ack(1, t(2));
        }
        let r = f.take_fast_retransmit(t(2)).expect("fast retransmit");
        match r {
            TcpAction::Push { tag, .. } => {
                let (_, is_ack, seq) = decode_tag(tag);
                assert!(!is_ack);
                assert_eq!(seq, 1, "retransmit snd_una");
            }
        }
        assert_eq!(f.stats.fast_retransmits, 1);
        assert!(f.cwnd_segments() < 1e8, "cwnd halved-ish");
    }

    #[test]
    fn rto_fires_and_backs_off() {
        let mut f = flow(1 << 20);
        f.pump(SimTime::ZERO, 0);
        let first_rto = f.next_timer().expect("rto armed");
        assert_eq!(first_rto, SimTime::ZERO + INITIAL_RTO);
        let actions = f.pump(first_rto, 0);
        assert!(!actions.is_empty(), "head retransmitted");
        assert_eq!(f.stats.timeouts, 1);
        assert!((f.cwnd_segments() - 1.0).abs() < 1e-9, "cwnd collapsed");
        // Next RTO is further away (backoff).
        let second = f.rto_at.expect("rearmed");
        assert!(second - first_rto > INITIAL_RTO);
    }

    #[test]
    fn backed_off_rtos_share_one_loss_epoch() {
        // Regression: during a MAC outage (break_link → 102.4 ms
        // rediscovery), the retransmit timer re-fires with exponential
        // backoff several times before the link returns. Each re-fire is
        // a timeout, but the whole outage is ONE loss epoch — only the
        // first RTO (backoff 0) may open an epoch.
        let mut f = flow(1 << 20);
        f.pump(SimTime::ZERO, 0);
        let first = f.next_timer().expect("rto armed");
        f.pump(first, 0);
        assert_eq!(f.stats.timeouts, 1);
        assert_eq!(f.stats.loss_epochs, 1, "first RTO opens the epoch");
        // The timer keeps firing mid-outage; no ACK ever advances.
        for _ in 0..4 {
            let at = f.rto_at.expect("rearmed with backoff");
            f.pump(at, 0);
        }
        assert_eq!(f.stats.timeouts, 5);
        assert_eq!(
            f.stats.loss_epochs, 1,
            "backed-off re-fires don't double-count"
        );
        // An ACK advance ends the outage (resets the backoff); the next
        // fresh RTO is a new epoch.
        f.on_ack(1, f.rto_at.unwrap());
        let now = f.rto_at.expect("in-flight data re-arms the timer");
        f.pump(now, 0);
        assert_eq!(
            f.stats.loss_epochs, 2,
            "post-recovery RTO opens a new epoch"
        );
    }

    #[test]
    fn fast_retransmit_and_rto_epochs_are_distinct() {
        let mut f = flow(1 << 20);
        f.pump(SimTime::ZERO, 0);
        f.on_ack(1, t(1));
        f.pump(t(1), 0);
        for _ in 0..3 {
            f.on_ack(1, t(2));
        }
        assert_eq!(f.stats.loss_epochs, 1, "fast-recovery entry is an epoch");
        let at = f.rto_at.expect("rto still armed");
        f.pump(at, 0);
        assert_eq!(f.stats.loss_epochs, 2, "subsequent fresh RTO is another");
    }

    #[test]
    fn cc_override_resolves_per_flow_then_ctx_then_reno() {
        use mmwave_sim::ctx::SimCtx;
        let ctx = SimCtx::new();
        let cfg = TcpConfig {
            bottleneck: None,
            ..TcpConfig::bulk(0, 1, 1 << 20)
        };
        let f = TcpFlow::with_ctx(1, cfg.clone(), SimTime::ZERO, &ctx);
        assert_eq!(f.cc_kind(), crate::cc::CcKind::Reno, "default is Reno");
        crate::cc::install_override(&ctx, crate::cc::CcKind::Cubic);
        let f = TcpFlow::with_ctx(2, cfg.clone(), SimTime::ZERO, &ctx);
        assert_eq!(f.cc_kind(), crate::cc::CcKind::Cubic, "ctx override wins");
        let explicit = TcpConfig {
            cc: Some(crate::cc::CcKind::RateProbe),
            ..cfg
        };
        let f = TcpFlow::with_ctx(3, explicit, SimTime::ZERO, &ctx);
        assert_eq!(
            f.cc_kind(),
            crate::cc::CcKind::RateProbe,
            "per-flow config beats the override"
        );
    }

    #[test]
    fn datapath_reports_into_ctx_counters() {
        use mmwave_sim::ctx::SimCtx;
        let ctx = SimCtx::new();
        let cfg = TcpConfig {
            bottleneck: None,
            ..TcpConfig::bulk(0, 1, 1 << 20)
        };
        let mut f = TcpFlow::with_ctx(1, cfg, SimTime::ZERO, &ctx);
        f.pump(SimTime::ZERO, 0);
        f.on_ack(2, t(1));
        let at = f.rto_at.expect("armed");
        f.pump(at, 0);
        let c = ctx.counters();
        assert_eq!(c.cc_reports_folded, 2, "one ack fold + one timeout fold");
        assert!(c.cc_patterns_installed >= 2, "both folds moved the window");
        assert_eq!(c.cc_loss_epochs, 1);
    }

    #[test]
    fn rate_probe_flow_paces_from_installed_rate() {
        let cfg = TcpConfig {
            bottleneck: None,
            cc: Some(crate::cc::CcKind::RateProbe),
            total_bytes: None,
            ..TcpConfig::bulk(0, 1, 1 << 24)
        };
        let mut f = TcpFlow::with_ctx(7, cfg, SimTime::ZERO, &SimCtx::new());
        let burst = f.pump(SimTime::ZERO, 0).len();
        assert_eq!(burst, 4, "initial window before any rate model");
        // Deliver an RTT sample: 4 segments over 1 ms → the algorithm
        // installs a pacing rate, so the very next window is released
        // one-segment-per-pace-tick instead of as a burst.
        f.on_ack(4, t(1));
        assert!(
            f.ctl_rate_bps.is_some(),
            "rate installed after first sample"
        );
        let next = f.pump(t(1), 0).len();
        assert_eq!(next, 1, "paced release, not a burst");
        assert!(
            f.next_timer().expect("pace timer armed") > t(1),
            "next release scheduled in the future"
        );
    }

    #[test]
    fn app_and_cc_pacers_compose_without_stranding_credits() {
        // Regression: an application-paced flow under a rate-installing
        // algorithm must not consume the app-pace credit while the cc
        // pacer gates (or vice versa) — a stranded `*_next` in the past
        // makes next_timer() report an instant pump() can't act on, and
        // the stack livelocks.
        let cfg = TcpConfig {
            bottleneck: None,
            cc: Some(crate::cc::CcKind::RateProbe),
            ..TcpConfig::paced(0, 1, 12_000_000)
        };
        let mut f = TcpFlow::with_ctx(3, cfg, SimTime::ZERO, &SimCtx::new());
        f.pump(SimTime::ZERO, 0);
        // Install a cc rate far below the app pace: the cc pacer is now
        // the binding constraint.
        f.on_ack(1, t(1));
        assert!(f.ctl_rate_bps.is_some());
        let mut now = t(1);
        for _ in 0..200 {
            let due = match f.next_timer() {
                Some(d) => d.max(now),
                None => break,
            };
            let before = (f.pace_next, f.cc_pace_next);
            f.pump(due, 0);
            now = due;
            // Whenever a timer is reported due, pumping at it must make
            // progress: either a pacer advanced or the timer moved.
            assert!(
                (f.pace_next, f.cc_pace_next) != before || f.next_timer() != Some(due),
                "pump at {due:?} changed nothing — livelock"
            );
        }
    }

    #[test]
    fn rtt_estimation_updates_rto() {
        let mut f = flow(1 << 20);
        f.pump(SimTime::ZERO, 0);
        f.on_ack(1, SimTime::from_micros(800));
        assert!((f.stats.srtt_s - 800e-6).abs() < 1e-9);
        assert_eq!(f.rto, MIN_RTO, "tight RTT floors the RTO");
    }

    #[test]
    fn finished_when_total_acked() {
        let mut f = TcpFlow::with_ctx(
            1,
            TcpConfig {
                total_bytes: Some(4500),
                bottleneck: None,
                ..TcpConfig::bulk(0, 1, 1 << 20)
            },
            SimTime::ZERO,
            &SimCtx::new(),
        );
        let actions = f.pump(SimTime::ZERO, 0);
        assert_eq!(actions.len(), 3, "exactly ceil(4500/1500) segments");
        assert!(!f.finished());
        f.on_ack(3, t(1));
        assert!(f.finished());
        assert!(f.pump(t(2), 0).is_empty());
    }

    #[test]
    fn pacing_spaces_segments() {
        let cfg = TcpConfig {
            bottleneck: None,
            ..TcpConfig::paced(0, 1, 12_000_000)
        };
        // 12 Mb/s → one 1500 B segment per ms.
        let mut f = TcpFlow::with_ctx(2, cfg, SimTime::ZERO, &SimCtx::new());
        let a0 = f.pump(SimTime::ZERO, 0);
        assert_eq!(a0.len(), 1, "pacing admits one segment");
        assert!(f.pump(SimTime::from_micros(500), 0).is_empty());
        let a1 = f.pump(t(1), 0);
        assert_eq!(a1.len(), 1);
    }

    #[test]
    fn mac_backpressure_pauses() {
        let mut f = flow(1 << 24);
        f.apply(ControlPattern {
            cwnd: Some(1000.0),
            rate_bps: None,
        });
        let actions = f.pump(SimTime::ZERO, MAC_QUEUE_CAP);
        assert!(actions.is_empty());
        assert!(f.next_timer().is_some(), "poll timer armed");
    }

    #[test]
    fn goodput_accounting() {
        // In a real run the stack pumps the flow at every sample boundary
        // (next_timer includes it); emulate that here.
        let mut f = flow(1 << 20);
        for seq in 0..100 {
            let _ = f.pump(t(seq), MAC_QUEUE_CAP);
            let _ = f.on_data(seq, t(seq));
        }
        let _ = f.pump(t(200), MAC_QUEUE_CAP); // flush trailing samples
        let g = f.stats.mean_goodput_mbps(SimTime::ZERO, t(100));
        // 100 × 1500 B over 100 ms = 12 Mb/s.
        assert!((g - 12.0).abs() < 1.5, "goodput {g}");
    }
}
