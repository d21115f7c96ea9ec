//! The MAC/transport co-simulation driver.
//!
//! [`Stack`] owns a [`Net`] plus any number of TCP flows and advances both
//! in timestamp order: whichever has the earlier next event (a MAC frame
//! boundary or a TCP timer) runs first, and every MAC delivery is handed
//! to its flow before the clock moves again. This is the place the
//! experiments drive; they never touch TCP or MAC internals directly.

use crate::tcp::{decode_tag, FlowStats, TcpAction, TcpConfig, TcpFlow};
use mmwave_mac::{Delivery, Net};
use mmwave_sim::time::SimTime;

/// Identifier of a flow within a [`Stack`].
pub type FlowId = u16;

/// A network plus its transport flows.
pub struct Stack {
    /// The underlying MAC/PHY simulation.
    pub net: Net,
    flows: Vec<TcpFlow>,
    /// Scratch buffers reused across the run loop (the loop services
    /// tens of thousands of pumps and deliveries per simulated second;
    /// steady state must not allocate).
    actions: Vec<TcpAction>,
    deliveries: Vec<Delivery>,
    /// Per-flow `next_timer()` memo plus dirty flags. Flows mutate only
    /// through this type, so a clean flow's next timer is still valid on
    /// the following loop iteration — the evaluation (a dozen field
    /// comparisons per flow per event) runs only after the flow was
    /// actually touched.
    timers: Vec<Option<SimTime>>,
    timer_dirty: Vec<bool>,
}

impl Stack {
    /// Wrap a network.
    pub fn new(net: Net) -> Stack {
        Stack {
            net,
            flows: Vec::new(),
            actions: Vec::new(),
            deliveries: Vec::new(),
            timers: Vec::new(),
            timer_dirty: Vec::new(),
        }
    }

    /// Add a TCP flow; it starts transmitting as the clock advances. The
    /// flow's congestion plane shares the network's [`SimCtx`], so a
    /// campaign-level algorithm override applies here.
    pub fn add_flow(&mut self, cfg: TcpConfig) -> FlowId {
        let id = self.flows.len() as u16;
        let now = self.net.now();
        let flow = TcpFlow::with_ctx(id, cfg, now, self.net.ctx());
        self.flows.push(flow);
        self.timers.push(None);
        self.timer_dirty.push(true);
        id
    }

    /// Statistics of a flow.
    pub fn flow_stats(&self, id: FlowId) -> &FlowStats {
        &self.flows[id as usize].stats
    }

    /// The flow itself (diagnostics).
    pub fn flow(&self, id: FlowId) -> &TcpFlow {
        &self.flows[id as usize]
    }

    /// True if the flow transferred (and had acknowledged) all its bytes.
    pub fn flow_finished(&self, id: FlowId) -> bool {
        self.flows[id as usize].finished()
    }

    fn apply_one(net: &mut Net, action: TcpAction) {
        match action {
            TcpAction::Push { dev, bytes, tag } => {
                net.push_mpdu(dev, bytes, tag);
            }
        }
    }

    fn pump_flow(net: &mut Net, flow: &mut TcpFlow, now: SimTime, scratch: &mut Vec<TcpAction>) {
        let qlen = net.queue_len(flow.cfg.src_dev);
        scratch.clear();
        flow.pump_into(now, qlen, scratch);
        for a in scratch.drain(..) {
            Self::apply_one(net, a);
        }
    }

    fn handle_deliveries(&mut self) {
        let now = self.net.now();
        // Buffer dance: take the scratch out of `self` so the loop can
        // borrow `net` and `flows` freely, then hand it back (with its
        // allocation) at the end.
        let mut pending = std::mem::take(&mut self.deliveries);
        self.net.drain_deliveries_into(&mut pending);
        for d in pending.drain(..) {
            match d {
                Delivery::Mpdu { dev, tag, .. } => {
                    let (flow_id, is_ack, seq) = decode_tag(tag);
                    let Some(flow) = self.flows.get_mut(flow_id as usize) else {
                        continue; // not transport traffic (e.g. raw pushes)
                    };
                    self.timer_dirty[flow_id as usize] = true;
                    if is_ack {
                        if dev != flow.cfg.src_dev {
                            continue;
                        }
                        // Refresh the congestion plane's MAC-level view
                        // before the ACK is folded into a report.
                        flow.note_mac(self.net.mac_measurement(flow.cfg.src_dev));
                        flow.on_ack(seq, now);
                        if let Some(r) = flow.take_fast_retransmit(now) {
                            Self::apply_one(&mut self.net, r);
                        }
                        Self::pump_flow(&mut self.net, flow, now, &mut self.actions);
                    } else {
                        if dev != flow.cfg.dst_dev {
                            continue;
                        }
                        if let Some(ack) = flow.on_data(seq, now) {
                            Self::apply_one(&mut self.net, ack);
                        }
                    }
                }
                Delivery::Dropped { .. } => {
                    // MAC gave up; TCP's own RTO recovers the loss.
                }
            }
        }
        self.deliveries = pending;
    }

    /// Advance the co-simulation to `horizon`.
    pub fn run_until(&mut self, horizon: SimTime) {
        // Initial pump so fresh flows start sending.
        let now = self.net.now();
        for (flow, dirty) in self.flows.iter_mut().zip(&mut self.timer_dirty) {
            Self::pump_flow(&mut self.net, flow, now, &mut self.actions);
            *dirty = true;
        }
        // Livelock guard: a healthy co-simulation never revisits the same
        // instant more than a handful of times (bounded fan-out per event).
        let mut last_next: Option<SimTime> = None;
        let mut same_count: u64 = 0;
        loop {
            let t_net = self.net.peek_time();
            for i in 0..self.flows.len() {
                if self.timer_dirty[i] {
                    self.timers[i] = self.flows[i].next_timer();
                    self.timer_dirty[i] = false;
                }
            }
            let t_tcp = self.timers.iter().flatten().copied().min();
            let next = match (t_net, t_tcp) {
                (None, None) => break,
                (Some(a), None) => a,
                (None, Some(b)) => b,
                (Some(a), Some(b)) => a.min(b),
            };
            if next > horizon {
                break;
            }
            if last_next == Some(next) {
                same_count += 1;
            } else {
                same_count = 0;
                last_next = Some(next);
            }
            assert!(
                same_count <= 100_000,
                "transport/MAC livelock at {next:?} (t_net {t_net:?}, t_tcp {t_tcp:?})"
            );
            if t_tcp == Some(next) && t_net.is_none_or(|a| next <= a) {
                // TCP timer first (ties: TCP before MAC keeps pacing exact).
                self.net.run_until(next);
                for i in 0..self.flows.len() {
                    if self.timers[i] == Some(next) {
                        self.timer_dirty[i] = true;
                        let flow = &mut self.flows[i];
                        Self::pump_flow(&mut self.net, flow, next, &mut self.actions);
                    }
                }
            } else {
                self.net.step();
                self.handle_deliveries();
            }
        }
        self.net.run_until(horizon);
        // Final stats flush.
        let now = self.net.now();
        for flow in &mut self.flows {
            Self::pump_flow(&mut self.net, flow, now, &mut self.actions);
        }
    }
}
