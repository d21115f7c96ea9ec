//! The network: devices + medium + event loop.
//!
//! [`Net`] is a self-contained discrete-event simulation of one radio
//! scenario. It is deliberately *not* generic over a world type: the
//! transport crate drives it through a narrow interface — push MPDUs in,
//! step time forward, take deliveries out — so TCP and the MAC advance in
//! lock-step without either crate knowing the other's internals.

use crate::device::{DevKind, Device, PatKey, WigigState};
use crate::frame::{airtime, Frame, FrameClass, FrameKind, Mpdu};
use crate::medium::Medium;
use crate::params::{AIFS, WIGIG_DISCOVERY_SUB_DURATION, WIHD_DISCOVERY_SUB_DURATION, WIHD_MCS};
use crate::scenario::{FaultKind, Scenario, ScenarioEvent, WorldMutation};
use crate::training::{self, TrainingResult};
use crate::txlog::{TxLog, TxLogEntry};
use crate::{wigig, wihd};
use mmwave_channel::{multipath_rx_dbm, Ar1Fading, Environment, PerturbationProcess, RadioNode};
use mmwave_geom::{Angle, Point, PropPath, Segment};
use mmwave_phy::{AntennaPattern, McsTable};
use mmwave_sim::ctx::SimCtx;
use mmwave_sim::hash::FastMap;
use mmwave_sim::metrics::Counter;
use mmwave_sim::queue::EventQueue;
use mmwave_sim::rng::SimRng;
use mmwave_sim::stats::BusyTracker;
use mmwave_sim::time::{SimDuration, SimTime};

/// Network events.
#[derive(Debug)]
pub(crate) enum NetEv {
    /// A transmission finished.
    TxEnd { tx_id: u64 },
    /// Put a deferred payload-free frame on the air now.
    SendFrame(DeferredFrame),
    /// Unassociated dock: emit a discovery sweep.
    DiscoveryTick { dev: usize },
    /// Association handshake finished; train and go to data phase.
    AssocComplete { dock: usize, station: usize },
    /// Periodic beacon exchange (dock side drives it).
    BeaconTick { dev: usize },
    /// CSMA attempt to begin a TXOP.
    TxopAttempt { dev: usize },
    /// Send the next data PPDU inside the current TXOP.
    TxopData { dev: usize },
    /// No CTS arrived after RTS `seq`.
    CtsTimeout { dev: usize, seq: u64 },
    /// No ACK arrived after data frame `seq`.
    AckTimeout { dev: usize, seq: u64 },
    /// WiHD sink beacon.
    WihdBeaconTick { dev: usize },
    /// WiHD source: new video frame enters the queue.
    WihdVideoTick { dev: usize },
    /// WiHD source: transmit the next queued data frame.
    WihdSendNext { dev: usize },
    /// Unpaired WiHD source: emit a discovery sweep.
    WihdDiscoveryTick { dev: usize },
    /// WiHD pairing completes.
    WihdPairComplete { source: usize, sink: usize },
    /// Apply the `idx`-th installed scenario mutation.
    Scenario { idx: usize },
}

/// The payload-free frames a protocol schedules for later: discovery
/// sub-elements, training frames, beacon replies, CTS and ACK.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum DeferredKind {
    /// One sub-element of a discovery sweep; its sub-element index is the
    /// quasi-omni entry it radiates.
    DiscoverySub,
    /// Association handshake frame.
    Training,
    /// WiGig beacon (the station's reply).
    Beacon,
    /// Clear to send.
    Cts,
    /// Block acknowledgement.
    Ack,
}

/// A deferred frame packed into three words: no payload, device and
/// pattern indices narrowed to `u32`. `NetEv::SendFrame` carries it, so a
/// queue entry stays small; [`Net::start_deferred_tx`] rebuilds the
/// [`Frame`].
#[derive(Clone, Copy, Debug)]
pub(crate) struct DeferredFrame {
    seq: u64,
    src: u32,
    /// Destination, or [`DeferredFrame::BROADCAST`].
    dst: u32,
    /// Codebook index of the transmit pattern.
    pattern_idx: u32,
    /// The pattern is a quasi-omni entry, not a directional sector.
    quasi_omni: bool,
    kind: DeferredKind,
}

impl DeferredFrame {
    const BROADCAST: u32 = u32::MAX;

    pub(crate) fn new(
        src: usize,
        dst: Option<usize>,
        kind: DeferredKind,
        seq: u64,
        pattern: PatKey,
    ) -> DeferredFrame {
        let narrow = |i: usize| {
            assert!(
                i < Self::BROADCAST as usize,
                "index {i} overflows a deferred frame"
            );
            i as u32
        };
        let (quasi_omni, idx) = match pattern {
            PatKey::Dir(i) => (false, i),
            PatKey::Qo(i) => (true, i),
        };
        DeferredFrame {
            seq,
            src: narrow(src),
            dst: dst.map_or(Self::BROADCAST, narrow),
            pattern_idx: narrow(idx),
            quasi_omni,
            kind,
        }
    }

    fn pattern(self) -> PatKey {
        let i = self.pattern_idx as usize;
        if self.quasi_omni {
            PatKey::Qo(i)
        } else {
            PatKey::Dir(i)
        }
    }

    fn frame(self) -> Frame {
        let kind = match self.kind {
            DeferredKind::DiscoverySub => FrameKind::DiscoverySub {
                pattern_idx: self.pattern_idx as usize,
            },
            DeferredKind::Training => FrameKind::Training,
            DeferredKind::Beacon => FrameKind::Beacon,
            DeferredKind::Cts => FrameKind::Cts,
            DeferredKind::Ack => FrameKind::Ack,
        };
        Frame {
            src: self.src as usize,
            dst: (self.dst != Self::BROADCAST).then_some(self.dst as usize),
            kind,
            seq: self.seq,
        }
    }
}

/// Spent MPDU buffers awaiting reuse, the [`Medium::recycle_power`]
/// pattern for data PPDUs. Each PPDU takes two buffers, the on-air copy and
/// the one awaiting the ACK; they come back at the TxEnd and at the ACK,
/// the ACK timeout or a link break. At most two buffers per WiGig device
/// are out at once, so the pool stays that small and the saturated data
/// path allocates nothing.
#[derive(Debug, Default)]
pub(crate) struct MpduPool(Vec<Vec<Mpdu>>);

impl MpduPool {
    /// An empty buffer with room for `cap` MPDUs.
    pub(crate) fn take(&mut self, cap: usize) -> Vec<Mpdu> {
        let mut v = self.0.pop().unwrap_or_default();
        v.reserve(cap);
        v
    }

    /// Return a spent buffer.
    pub(crate) fn put(&mut self, mut v: Vec<Mpdu>) {
        v.clear();
        self.0.push(v);
    }
}

/// Something the MAC hands up to the transport layer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Delivery {
    /// An MPDU arrived at `dev`.
    Mpdu {
        /// Receiving device.
        dev: usize,
        /// Sending device.
        src: usize,
        /// Payload bytes.
        bytes: u32,
        /// Transport cookie from [`Net::push_mpdu`].
        tag: u64,
    },
    /// The sender gave up on these MPDUs after the retry limit.
    Dropped {
        /// Sending device.
        dev: usize,
        /// Transport cookies of the dropped MPDUs.
        tags: Vec<u64>,
    },
}

/// Network-level configuration: what differs between experiments. The
/// protocol's timing and policy are the constants of [`crate::params`].
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// Root seed for all stochastic processes.
    pub seed: u64,
    /// Enable the slow AR(1) fading process on every link.
    pub enable_fading: bool,
    /// Enable the sparse perturbation process (beam-realignment trigger).
    pub enable_perturbations: bool,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            seed: 1,
            enable_fading: true,
            enable_perturbations: false,
        }
    }
}

/// A passive utilization monitor: a position + antenna + threshold whose
/// busy time accumulates for the whole run (the cheap equivalent of
/// parking a Vubiq for seven minutes — Fig. 22's methodology).
#[derive(Debug)]
pub struct UtilizationMonitor {
    node: RadioNode,
    pattern: AntennaPattern,
    threshold_dbm: f64,
    busy: BusyTracker,
    started: SimTime,
    paths: FastMap<usize, Vec<PropPath>>,
}

/// A radio scenario under simulation.
pub struct Net {
    /// The propagation environment.
    pub env: Environment,
    /// The simulation context: counter sink, cache-mode policy, and the
    /// per-context codebook cache every device construction draws from.
    ctx: SimCtx,
    pub(crate) cfg: NetConfig,
    pub(crate) devices: Vec<Device>,
    pub(crate) medium: Medium,
    pub(crate) queue: EventQueue<NetEv>,
    now: SimTime,
    pub(crate) rng: SimRng,
    pub(crate) txlog: TxLog,
    pub(crate) delivered: Vec<Delivery>,
    fading: FastMap<(usize, usize), Ar1Fading>,
    pub(crate) perturb: FastMap<(usize, usize), PerturbationProcess>,
    pub(crate) seq: u64,
    monitors: Vec<UtilizationMonitor>,
    pub(crate) mcs_table: McsTable,
    /// Installed scenario mutations, indexed by `NetEv::Scenario { idx }`.
    scenario_events: Vec<ScenarioEvent>,
    /// Open fault windows: (target device, kind, end time).
    active_faults: Vec<(usize, FaultKind, SimTime)>,
    /// Scenario mutations applied so far.
    n_scenario_mutations: u64,
    /// Frames forced to fail by fault windows so far.
    n_faults_injected: u64,
    /// Reusable fading-offset buffer for [`Net::start_tx`] (one entry per
    /// device, rebuilt per frame without reallocating).
    offsets_scratch: Vec<f64>,
    /// Spent MPDU buffers of data PPDUs, reused by the next PPDU.
    pub(crate) mpdu_pool: MpduPool,
    /// Memoized `Mcs::per` evaluations on the waterfall, keyed
    /// bit-exactly on `(mcs, sinr, bits, noise floor)`. On a static link
    /// every data frame evaluates the waterfall at identical inputs, so
    /// this trades two libm calls per frame for a short linear scan.
    /// Exact keys mean the cached value is exactly what a fresh evaluation
    /// would return. Saturated PERs (`Mcs::saturated_per`) never enter it:
    /// they cost less than the scan, and the beacons' 32 quasi-omni
    /// patterns would cycle them through every slot.
    per_memo: Vec<((u8, u64, u64, u64), f64)>,
    /// Memoized noise terms keyed on the bits of the environment's noise
    /// floor: `(dbm_bits, noise_lin, lin_to_db(noise_lin))`. The
    /// interference-free SINR path (the overwhelmingly common case on a
    /// single link) then needs no libm calls at all; `x + 0.0 == x`
    /// bitwise for the positive `noise_lin`, so reusing the converted
    /// value is exact.
    noise_memo: Option<(u64, f64, f64)>,
}

impl Net {
    /// Build an empty network wired to `ctx`: the event queue, the
    /// link-gain cache, the codebook cache of every device added later,
    /// and the scenario/fault counters all report into (and read policy
    /// from) that context.
    pub fn with_ctx(env: Environment, cfg: NetConfig, ctx: &SimCtx) -> Net {
        let rng = SimRng::root(cfg.seed).stream("mac-net");
        Net {
            env,
            ctx: ctx.clone(),
            cfg,
            devices: Vec::new(),
            medium: Medium::with_ctx(ctx),
            queue: EventQueue::with_ctx(ctx),
            now: SimTime::ZERO,
            rng,
            txlog: TxLog::new(),
            delivered: Vec::new(),
            fading: FastMap::default(),
            perturb: FastMap::default(),
            seq: 0,
            monitors: Vec::new(),
            mcs_table: McsTable::ieee_802_11ad(),
            scenario_events: Vec::new(),
            active_faults: Vec::new(),
            n_scenario_mutations: 0,
            n_faults_injected: 0,
            offsets_scratch: Vec::new(),
            mpdu_pool: MpduPool::default(),
            per_memo: Vec::new(),
            noise_memo: None,
        }
    }

    /// The simulation context this network reports into.
    pub fn ctx(&self) -> &SimCtx {
        &self.ctx
    }

    // ------------------------------------------------------------------
    // Scenario construction
    // ------------------------------------------------------------------

    /// Add a device; returns its index.
    pub fn add_device(&mut self, mut dev: Device) -> usize {
        let id = self.devices.len();
        dev.node.id = mmwave_channel::NodeId(id);
        let position = dev.node.position;
        self.devices.push(dev);
        // A new device cannot have cached state yet — register it with the
        // radiometric cache without flushing existing pairs.
        self.medium.link_cache_mut().ensure_device(id);
        self.medium.note_device_position(&self.env, id, position);
        id
    }

    /// Enable spatial interference pruning on the medium over the devices
    /// added so far (see [`Medium::enable_spatial`]). The prune mode comes
    /// from the context override when installed
    /// ([`mmwave_channel::spatial::install_override`]), defaulting to
    /// enforcement.
    pub fn enable_spatial(&mut self, cfg: &mmwave_channel::SpatialConfig) {
        let mode = mmwave_channel::spatial::override_of(&self.ctx).unwrap_or_default();
        let positions: Vec<Point> = self.devices.iter().map(|d| d.node.position).collect();
        self.medium.enable_spatial(&self.env, cfg, mode, &positions);
    }

    /// Pre-wire two devices as a link (peer assignment only; association
    /// still happens through discovery unless
    /// [`Net::associate_instantly`] is used).
    pub fn pair(&mut self, a: usize, b: usize) {
        match &mut self.devices[a].kind {
            DevKind::Wigig(w) => w.peer = Some(b),
            DevKind::Wihd(w) => w.peer = Some(b),
        }
        match &mut self.devices[b].kind {
            DevKind::Wigig(w) => w.peer = Some(a),
            DevKind::Wihd(w) => w.peer = Some(a),
        }
    }

    /// Register a passive utilization monitor. `threshold_dbm` mirrors the
    /// paper's detection threshold.
    pub fn add_monitor(
        &mut self,
        position: Point,
        orientation: Angle,
        pattern: AntennaPattern,
        threshold_dbm: f64,
    ) -> usize {
        self.monitors.push(UtilizationMonitor {
            node: RadioNode::new(
                usize::MAX - self.monitors.len(),
                "monitor",
                position,
                orientation,
            ),
            pattern,
            threshold_dbm,
            busy: BusyTracker::new(),
            started: self.now,
            paths: FastMap::default(),
        });
        self.monitors.len() - 1
    }

    /// The measured utilization of a monitor since it was added (or since
    /// `from`, if later).
    pub fn monitor_utilization(&self, idx: usize, from: SimTime) -> f64 {
        let m = &self.monitors[idx];
        let start = m.started.max(from);
        m.busy.utilization(start, self.now)
    }

    /// Kick off the protocol machinery: discovery ticks for unassociated
    /// docks and unpaired WiHD sources. Call once after adding devices.
    pub fn start(&mut self) {
        for i in 0..self.devices.len() {
            match &self.devices[i].kind {
                DevKind::Wigig(w)
                    if w.role == crate::device::WigigRole::Dock
                        && w.state == WigigState::Unassociated =>
                {
                    // First sweep after a short stagger so co-located docks
                    // don't sweep in lockstep.
                    let stagger = SimDuration::from_micros(137 * (i as u64 + 1));
                    self.queue
                        .schedule(self.now + stagger, NetEv::DiscoveryTick { dev: i });
                }
                DevKind::Wihd(w) if w.role == crate::device::WihdRole::Source && !w.paired => {
                    let stagger = SimDuration::from_micros(211 * (i as u64 + 1));
                    self.queue
                        .schedule(self.now + stagger, NetEv::WihdDiscoveryTick { dev: i });
                }
                _ => {}
            }
        }
    }

    /// Skip discovery: train the pair and enter the data phase right away.
    /// Most experiments use this; the discovery path itself is exercised by
    /// Table 1 / Fig. 3.
    pub fn associate_instantly(&mut self, dock: usize, station: usize) {
        self.pair(dock, station);
        wigig::complete_association(self, dock, station);
    }

    /// Skip WiHD pairing: train and start beacon/video timers right away.
    pub fn pair_wihd_instantly(&mut self, source: usize, sink: usize) {
        self.pair(source, sink);
        wihd::complete_pairing(self, source, sink);
    }

    /// Install a scripted [`Scenario`]: every mutation is scheduled into
    /// the simulation event queue at its scripted time, so world changes
    /// interleave with MAC events in deterministic timestamp order. May be
    /// called more than once; later installs append.
    pub fn install_scenario(&mut self, scenario: Scenario) {
        for ev in scenario.into_sorted_events() {
            let idx = self.scenario_events.len();
            debug_assert!(ev.at >= self.now, "scenario event in the past");
            self.queue
                .schedule(ev.at.max(self.now), NetEv::Scenario { idx });
            self.scenario_events.push(ev);
        }
    }

    /// Scenario mutations applied so far.
    pub fn scenario_mutations(&self) -> u64 {
        self.n_scenario_mutations
    }

    /// Frames forced to fail by injected fault windows so far.
    pub fn faults_injected(&self) -> u64 {
        self.n_faults_injected
    }

    /// Apply one installed scenario mutation (from the event queue).
    fn apply_scenario(&mut self, idx: usize) {
        let mutation = self.scenario_events[idx].mutation.clone();
        self.n_scenario_mutations += 1;
        self.ctx.bump(Counter::ScenarioMutations);
        match mutation {
            WorldMutation::MoveDevice {
                dev,
                position,
                orientation,
            } => {
                self.move_device(dev, position, orientation);
            }
            WorldMutation::MoveObstacle { wall, seg } => {
                let old = self.env.room.walls()[wall].seg;
                self.env.room.set_wall_segment(wall, seg);
                self.invalidate_wall_mutation(&[old, seg]);
            }
            WorldMutation::SetObstacleEnabled { wall, enabled } => {
                let seg = self.env.room.walls()[wall].seg;
                self.env.room.set_wall_enabled(wall, enabled);
                self.invalidate_wall_mutation(&[seg]);
            }
            WorldMutation::SetVideo { dev, on } => self.set_video(dev, on),
            WorldMutation::InjectFaults { dev, kind, until } => {
                let now = self.now;
                // Drop closed windows while installing the new one.
                self.active_faults.retain(|&(_, _, end)| end > now);
                self.active_faults.push((dev, kind, until));
            }
        }
    }

    /// Is an injected fault window forcing frames of `class` addressed to
    /// `dst` to fail right now?
    fn fault_active(&self, dst: usize, class: FrameClass) -> bool {
        self.active_faults.iter().any(|&(dev, kind, until)| {
            dev == dst
                && self.now < until
                && match kind {
                    FaultKind::AllFrames => true,
                    FaultKind::BeaconsOnly => {
                        matches!(class, FrameClass::Beacon | FrameClass::WihdBeacon)
                    }
                }
        })
    }

    /// Turn a WiHD source's video stream on or off (Fig. 23's power
    /// switch).
    pub fn set_video(&mut self, dev: usize, on: bool) {
        if let Some(w) = self.devices[dev].wihd_mut() {
            w.video_on = on;
            if !on {
                w.queue_bytes = 0;
            }
        }
    }

    // ------------------------------------------------------------------
    // Transport interface
    // ------------------------------------------------------------------

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Enqueue an MPDU on `dev` towards its peer. Returns false (and
    /// drops) if the device has no associated peer.
    pub fn push_mpdu(&mut self, dev: usize, bytes: u32, tag: u64) -> bool {
        let now = self.now;
        let batch_ready = {
            let Some(w) = self.devices[dev].wigig_mut() else {
                return false;
            };
            if w.state != WigigState::Associated {
                return false;
            }
            if w.queue.is_empty() {
                w.oldest_wait_start = now;
            }
            w.queue.push_back(Mpdu { bytes, tag });
            // Crossing the batch threshold wakes a sender waiting out its
            // batch timer.
            w.queue.len() == w.cfg.min_aggregation
        };
        wigig::maybe_contend(self, dev, SimDuration::ZERO);
        if batch_ready {
            self.queue.schedule(now + AIFS, NetEv::TxopAttempt { dev });
        }
        true
    }

    /// Outbound queue length of a device (MPDUs).
    pub fn queue_len(&self, dev: usize) -> usize {
        self.devices[dev]
            .wigig()
            .map(|w| w.queue.len())
            .unwrap_or(0)
    }

    /// Timestamp of the next pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Process one event. Returns false if the queue is empty.
    pub fn step(&mut self) -> bool {
        let Some((at, ev)) = self.queue.pop() else {
            return false;
        };
        debug_assert!(at >= self.now);
        self.now = at;
        self.dispatch(ev);
        true
    }

    /// Process every event up to `horizon` and advance the clock to it.
    pub fn run_until(&mut self, horizon: SimTime) {
        while let Some(t) = self.queue.peek_time() {
            if t > horizon {
                break;
            }
            self.step();
        }
        if horizon > self.now {
            self.now = horizon;
        }
    }

    /// Drain the MPDUs (and drop notices) delivered since the last call.
    pub fn take_deliveries(&mut self) -> Vec<Delivery> {
        std::mem::take(&mut self.delivered)
    }

    /// [`Self::take_deliveries`] into a caller-owned buffer: `out` is
    /// cleared, receives the pending deliveries, and donates its
    /// allocation back to the net — so a driver polling every step never
    /// allocates in steady state.
    pub fn drain_deliveries_into(&mut self, out: &mut Vec<Delivery>) {
        out.clear();
        std::mem::swap(&mut self.delivered, out);
    }

    /// Snapshot the MAC-level measurement of `dev` the transport layer's
    /// congestion plane consumes: airtime share since run start, the
    /// current ACK-loss streak, and whether the link is trained. Pure
    /// read — touches no RNG stream and schedules nothing.
    pub fn mac_measurement(&self, dev: usize) -> crate::stats::MacMeasurement {
        let elapsed_ns = self.now.as_nanos();
        let airtime_share = if elapsed_ns == 0 {
            0.0
        } else {
            self.devices[dev].stats.tx_airtime_ns as f64 / elapsed_ns as f64
        };
        match self.devices[dev].wigig() {
            Some(w) => crate::stats::MacMeasurement {
                airtime_share,
                ack_loss_streak: w.ack_fail_streak,
                associated: w.state == WigigState::Associated,
            },
            None => crate::stats::MacMeasurement {
                airtime_share,
                ack_loss_streak: 0,
                associated: false,
            },
        }
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// Device accessor.
    pub fn device(&self, i: usize) -> &Device {
        &self.devices[i]
    }

    /// Mutable device accessor. Invalidate the medium path cache yourself
    /// if you move a device (see [`Net::move_device`]).
    pub fn device_mut(&mut self, i: usize) -> &mut Device {
        &mut self.devices[i]
    }

    /// Number of devices.
    pub fn device_count(&self) -> usize {
        self.devices.len()
    }

    /// The shared medium (cache statistics, spatial-prune introspection).
    pub fn medium(&self) -> &Medium {
        &self.medium
    }

    /// Pattern-weighted received power from `src` (radiating `pattern`)
    /// at `dst`, dBm, before fading — the radiometric primitive exposed
    /// for analyses that need link budgets of a live scenario.
    pub fn medium_rx_power_dbm(&mut self, src: usize, pattern: PatKey, dst: usize) -> f64 {
        self.medium
            .rx_power_dbm(&self.env, &self.devices, src, pattern, dst, 0.0)
    }

    /// Move/rotate a device, invalidating exactly the cached state the
    /// change affects: a position change bumps the device's path+gain
    /// generation, a pure rotation bumps gains only (interned geometry
    /// stays valid). Unrelated device pairs keep their cached entries.
    pub fn move_device(&mut self, i: usize, position: Point, orientation: Angle) {
        let node = &mut self.devices[i].node;
        let moved = node.position != position;
        let rotated = node.orientation != orientation;
        node.position = position;
        node.orientation = orientation;
        if moved {
            self.medium.link_cache_mut().bump_position(i);
            self.medium.note_device_position(&self.env, i, position);
            // Monitors trace their own paths per transmitter; only those
            // from the moved device are stale.
            for m in &mut self.monitors {
                m.paths.remove(&i);
            }
        } else if rotated {
            self.medium.link_cache_mut().bump_orientation(i);
        }
    }

    /// Drop every cached propagation path. Call after mutating the
    /// environment's room (e.g. a person walking into the line of sight).
    pub fn invalidate_geometry(&mut self) {
        self.medium.invalidate_paths();
        for m in &mut self.monitors {
            m.paths.clear();
        }
    }

    /// Invalidate cached state after a wall mutation, scoped to the opaque
    /// zones the wall lies in when that is provably sufficient.
    ///
    /// Under the closed-zone contract ([`mmwave_geom::Room::add_zone`]) no
    /// propagation path enters a foreign zone, so a wall wholly inside
    /// zone Z can only perturb pairs with an endpoint in Z: bumping the
    /// position generation of Z's devices re-traces exactly those pairs
    /// while every cross-zone entry survives. Falls back to the global
    /// flush whenever the scoping argument does not hold — no zones
    /// declared, the wall not contained in any zone, or any device or
    /// monitor outside every zone. Toggling a zone's *boundary* wall
    /// breaches the contract itself and is the caller's responsibility
    /// (audit-mode spatial pruning panics on the resulting leakage).
    fn invalidate_wall_mutation(&mut self, segs: &[Segment]) {
        let affected: Option<Vec<usize>> = (|| {
            let room = &self.env.room;
            if room.zones().is_empty() {
                return None;
            }
            let mut affected: Vec<usize> = Vec::new();
            for &seg in segs {
                let zs = room.zones_of_segment(seg);
                if zs.is_empty() {
                    return None; // influence not bounded by any zone
                }
                for z in zs {
                    if !affected.contains(&z) {
                        affected.push(z);
                    }
                }
            }
            for d in &self.devices {
                room.zone_of(d.node.position)?;
            }
            for m in &self.monitors {
                room.zone_of(m.node.position)?;
            }
            Some(affected)
        })();
        let Some(affected) = affected else {
            self.invalidate_geometry();
            return;
        };
        for i in 0..self.devices.len() {
            let z = self.env.room.zone_of(self.devices[i].node.position);
            if z.is_some_and(|z| affected.contains(&z)) {
                self.medium.link_cache_mut().bump_position(i);
                for m in &mut self.monitors {
                    m.paths.remove(&i);
                }
            }
        }
        for m in &mut self.monitors {
            if self
                .env
                .room
                .zone_of(m.node.position)
                .is_some_and(|z| affected.contains(&z))
            {
                m.paths.clear();
            }
        }
        self.ctx.bump(Counter::SpatialZoneInvalidations);
    }

    /// The transmission log.
    pub fn txlog(&self) -> &TxLog {
        &self.txlog
    }

    /// Mutable transmission log (to set windows / clear).
    pub fn txlog_mut(&mut self) -> &mut TxLog {
        &mut self.txlog
    }

    // ------------------------------------------------------------------
    // Internals shared with the protocol modules
    // ------------------------------------------------------------------

    /// Fading offset for the directed link `a → b` at the current time.
    pub(crate) fn link_offset_db(&mut self, a: usize, b: usize) -> f64 {
        if !self.cfg.enable_fading {
            return 0.0;
        }
        let key = (a.min(b), a.max(b));
        let now = self.now;
        let seed = self.cfg.seed;
        self.fading
            .entry(key)
            .or_insert_with(|| {
                Ar1Fading::indoor_default(
                    SimRng::root(seed).stream_n("link-fading", (key.0 as u64) << 32 | key.1 as u64),
                )
            })
            .level_at(now)
    }

    /// Beam-train the pair `a`–`b` over the medium's link-gain cache.
    pub(crate) fn train_pair(&mut self, a: usize, b: usize) -> TrainingResult {
        training::best_pair_with(
            self.medium.link_cache_mut(),
            &self.env,
            &self.devices[a],
            a,
            &self.devices[b],
            b,
        )
    }

    /// SNR at `me` of the trained link from `peer` (its current sector),
    /// with the link's fading at the current time, dB.
    pub(crate) fn trained_snr_db(&mut self, me: usize, peer: usize) -> f64 {
        let peer_sector = self.devices[peer].wigig().map(|w| w.tx_sector).unwrap_or(0);
        let rx = self.medium_rx_power_dbm(peer, PatKey::Dir(peer_sector), me)
            + self.link_offset_db(peer, me);
        rx - self.env.noise_floor_dbm()
    }

    /// Put a frame on the air now, with its class's power boost
    /// ([`FrameClass::extra_power_db`]); returns `(tx id, end time)`.
    pub(crate) fn start_tx(&mut self, frame: Frame, pattern: PatKey) -> (u64, SimTime) {
        let src = frame.src;
        let sub_dur = match &self.devices[src].kind {
            DevKind::Wigig(_) => WIGIG_DISCOVERY_SUB_DURATION,
            DevKind::Wihd(_) => WIHD_DISCOVERY_SUB_DURATION,
        };
        let dur = airtime(&frame.kind, sub_dur);
        let start = self.now;
        let end = start + dur;

        let mut offsets = std::mem::take(&mut self.offsets_scratch);
        offsets.clear();
        if self.cfg.enable_fading {
            for d in 0..self.devices.len() {
                offsets.push(if d == src {
                    0.0
                } else {
                    self.link_offset_db(src, d)
                });
            }
        } else {
            // Without fading every offset is exactly 0.0.
            offsets.resize(self.devices.len(), 0.0);
        }

        let class = frame.kind.class();
        let extra_power_db = class.extra_power_db();
        let dst = frame.dst;
        let seq = frame.seq;
        let mcs = match &frame.kind {
            FrameKind::Data { mcs, .. } => Some(*mcs),
            _ => None,
        };
        let tx_id = self.medium.begin_tx(
            &self.env,
            &self.devices,
            frame,
            pattern,
            extra_power_db,
            start,
            end,
            &offsets,
        );
        let src_node = &self.devices[src].node;
        self.txlog.push(TxLogEntry {
            start,
            end,
            src,
            src_position: src_node.position,
            src_orientation: src_node.orientation,
            dst,
            class,
            pattern,
            mcs,
            seq,
            delivered: None,
        });
        self.devices[src].stats.frames_tx += 1;
        self.devices[src].stats.tx_airtime_ns += dur.as_nanos();
        self.record_monitors(src, pattern, extra_power_db, start, end);
        self.offsets_scratch = offsets;
        self.queue.schedule(end, NetEv::TxEnd { tx_id });
        (tx_id, end)
    }

    /// Put a payload-free frame on the air now.
    pub(crate) fn start_deferred_tx(&mut self, f: DeferredFrame) {
        self.start_tx(f.frame(), f.pattern());
    }

    /// Allocate the next frame sequence number.
    pub(crate) fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }

    fn record_monitors(
        &mut self,
        src: usize,
        pattern: PatKey,
        extra_power_db: f64,
        start: SimTime,
        end: SimTime,
    ) {
        if self.monitors.is_empty() {
            return;
        }
        let dev = &self.devices[src];
        let tx = dev.node.with_pattern(dev.pattern(pattern));
        for m in &mut self.monitors {
            let paths = m
                .paths
                .entry(src)
                .or_insert_with(|| self.env.paths(dev.node.position, m.node.position));
            let rx = m.node.with_pattern(&m.pattern);
            let dbm = multipath_rx_dbm(
                &self.env,
                paths,
                tx,
                rx,
                dev.tx_power_offset_db,
                extra_power_db,
            );
            if dbm > m.threshold_dbm {
                m.busy.add(start, end);
            }
        }
    }

    fn dispatch(&mut self, ev: NetEv) {
        match ev {
            NetEv::TxEnd { tx_id } => self.on_tx_end(tx_id),
            NetEv::SendFrame(f) => self.start_deferred_tx(f),
            NetEv::DiscoveryTick { dev } => wigig::on_discovery_tick(self, dev),
            NetEv::AssocComplete { dock, station } => {
                wigig::complete_association(self, dock, station)
            }
            NetEv::BeaconTick { dev } => wigig::on_beacon_tick(self, dev),
            NetEv::TxopAttempt { dev } => wigig::on_txop_attempt(self, dev),
            NetEv::TxopData { dev } => wigig::send_next_data(self, dev),
            NetEv::CtsTimeout { dev, seq } => wigig::on_cts_timeout(self, dev, seq),
            NetEv::AckTimeout { dev, seq } => wigig::on_ack_timeout(self, dev, seq),
            NetEv::WihdBeaconTick { dev } => wihd::on_beacon_tick(self, dev),
            NetEv::WihdVideoTick { dev } => wihd::on_video_tick(self, dev),
            NetEv::WihdSendNext { dev } => wihd::send_next(self, dev),
            NetEv::WihdDiscoveryTick { dev } => wihd::on_discovery_tick(self, dev),
            NetEv::WihdPairComplete { source, sink } => wihd::complete_pairing(self, source, sink),
            NetEv::Scenario { idx } => self.apply_scenario(idx),
        }
    }

    fn on_tx_end(&mut self, tx_id: u64) {
        let devices = &self.devices;
        let Some(tx) = self
            .medium
            .finish_tx(tx_id, |d| devices[d].cs_threshold_dbm)
        else {
            return;
        };
        // Decide delivery for addressed frames.
        let delivered = tx.frame.dst.map(|dst| {
            if self.fault_active(dst, tx.frame.kind.class()) {
                // Injected fault window: the frame fails outright, without
                // consuming a PER draw (with no windows installed the RNG
                // stream is untouched and runs reproduce exactly).
                self.n_faults_injected += 1;
                self.ctx.bump(Counter::FaultsInjected);
                self.devices[dst].stats.rx_corrupted += 1;
                false
            } else if tx.dst_was_busy {
                false
            } else {
                let (noise_lin, noise_db) = self.noise_terms();
                let sinr = if tx.interference_lin == 0.0 {
                    tx.power_at[dst] - noise_db
                } else {
                    tx.power_at[dst] - mmwave_phy::lin_to_db(noise_lin + tx.interference_lin)
                };
                let (mcs_idx, bits) = match &tx.frame.kind {
                    FrameKind::Data { mcs, mpdus, .. } => (*mcs, crate::frame::data_bits(mpdus)),
                    FrameKind::Rts | FrameKind::Cts | FrameKind::Ack => (1, 200),
                    FrameKind::WihdData { bytes } => (WIHD_MCS, *bytes as u64 * 8),
                    _ => (0, 300),
                };
                let per = self.cached_per(mcs_idx, sinr, bits);
                let ok = !self.rng.chance(per);
                if !ok {
                    self.devices[dst].stats.rx_corrupted += 1;
                }
                ok
            }
        });
        if let Some(ok) = delivered {
            self.txlog.mark_delivered(tx.frame.seq, ok);
        }
        match tx.frame.kind.class() {
            FrameClass::Beacon
            | FrameClass::Control
            | FrameClass::Data
            | FrameClass::Ack
            | FrameClass::Training
            | FrameClass::DiscoverySub => wigig::on_frame_end(self, &tx, delivered),
            FrameClass::WihdBeacon | FrameClass::WihdData => {
                wihd::on_frame_end(self, &tx, delivered)
            }
        }
        self.medium.recycle_power(tx.power_at);
        if let FrameKind::Data { mpdus, .. } = tx.frame.kind {
            self.mpdu_pool.put(mpdus);
        }
    }

    /// Noise floor as `(linear mW, dB)` via the `noise_memo` field.
    fn noise_terms(&mut self) -> (f64, f64) {
        let dbm = self.env.noise_floor_dbm();
        if let Some((bits, lin, db)) = self.noise_memo {
            if bits == dbm.to_bits() {
                return (lin, db);
            }
        }
        let lin = mmwave_phy::db_to_lin(dbm);
        let db = mmwave_phy::lin_to_db(lin);
        self.noise_memo = Some((dbm.to_bits(), lin, db));
        (lin, db)
    }

    /// `Mcs::per`, behind a bit-exact memo (see the `per_memo` field)
    /// where it does not saturate.
    fn cached_per(&mut self, mcs_idx: u8, sinr_db: f64, bits: u64) -> f64 {
        let noise = self.env.noise_floor_dbm();
        let mcs = self.mcs_table.get(mcs_idx);
        if let Some(p) = mcs.saturated_per(sinr_db, noise) {
            return p;
        }
        let key = (mcs_idx, sinr_db.to_bits(), bits, noise.to_bits());
        if let Some(&(_, p)) = self.per_memo.iter().find(|(k, _)| *k == key) {
            return p;
        }
        let p = mcs.per(sinr_db, bits, noise);
        // A handful of live keys (one per frame shape per link); evict the
        // oldest once a changing scene pushes past that.
        if self.per_memo.len() >= 8 {
            self.per_memo.remove(0);
        }
        self.per_memo.push((key, p));
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmwave_geom::Room;

    #[test]
    fn net_events_stay_small() {
        // A deferred frame carries no payload, so `NetEv` is 24 bytes and a
        // queue entry 40 (with the queue's time and sequence number).
        assert!(
            std::mem::size_of::<NetEv>() <= 32,
            "{}",
            std::mem::size_of::<NetEv>()
        );
    }

    #[test]
    fn deferred_frames_go_on_air_as_their_call_sites_built_them() {
        use DeferredKind as K;
        use FrameClass as C;
        use PatKey::{Dir, Qo};
        /// How a row goes on the air: as a deferred frame through the
        /// queue, or straight through `start_tx`.
        enum Send {
            Deferred(DeferredKind),
            Now(FrameKind),
        }
        use Send::{Deferred, Now};
        let ctx = SimCtx::new();
        let cfg = NetConfig {
            enable_fading: false,
            ..NetConfig::default()
        };
        let boost = crate::frame::CONTROL_POWER_OFFSET_DB;
        let mut net = Net::with_ctx(Environment::new(Room::open_space()), cfg, &ctx);
        let (east, west) = (Angle::ZERO, Angle::from_degrees(180.0));
        let mut add = |d: Device| net.add_device(d);
        let dock = add(Device::wigig_dock(
            &ctx,
            "d",
            Point::new(0.0, 0.0),
            east,
            16,
        ));
        let laptop = add(Device::wigig_laptop(
            &ctx,
            "l",
            Point::new(3.0, 0.0),
            west,
            111,
        ));
        let source = add(Device::wihd_source(
            &ctx,
            "s",
            Point::new(0.0, 2.0),
            east,
            9,
        ));
        let sink = add(Device::wihd_sink(&ctx, "k", Point::new(3.0, 2.0), west, 22));
        // The six deferred call sites: WiGig discovery sub-element, training
        // frame, the station's beacon reply, CTS, ACK and WiHD discovery
        // sub-element. Then the classes no deferred frame has, sent through
        // `start_tx` as their call sites do: a data PPDU, a WiHD sink beacon
        // and a WiHD data frame.
        let data = FrameKind::Data {
            mpdus: vec![Mpdu {
                bytes: 1500,
                tag: 1,
            }],
            mcs: 6,
            retry: 0,
        };
        let sent = [
            (dock, None, Deferred(K::DiscoverySub), Qo(5)),
            (laptop, Some(dock), Deferred(K::Training), Qo(0)),
            (laptop, Some(dock), Deferred(K::Beacon), Qo(7)),
            (laptop, Some(dock), Deferred(K::Cts), Dir(11)),
            (dock, Some(laptop), Deferred(K::Ack), Dir(20)),
            (source, None, Deferred(K::DiscoverySub), Qo(3)),
            (dock, Some(laptop), Now(data), Dir(16)),
            (sink, Some(source), Now(FrameKind::WihdBeacon), Dir(2)),
            (
                source,
                Some(sink),
                Now(FrameKind::WihdData { bytes: 20_000 }),
                Dir(6),
            ),
        ];
        // What each must put on the air: the logged class, and the power
        // boost of that class, measured at a probe device: exactly the
        // control boost for the four control-PHY classes, nothing for the
        // rest.
        let expected = [
            (C::DiscoverySub, laptop, boost),
            (C::Training, dock, boost),
            (C::Beacon, dock, boost),
            (C::Control, dock, 0.0),
            (C::Ack, laptop, 0.0),
            (C::DiscoverySub, sink, boost),
            (C::Data, laptop, 0.0),
            (C::WihdBeacon, source, boost),
            (C::WihdData, sink, 0.0),
        ];
        let classes: std::collections::HashSet<FrameClass> =
            expected.iter().map(|&(class, ..)| class).collect();
        assert_eq!(classes.len(), 8, "every frame class has a row");
        let n_sent = sent.len();
        for (i, ((src, dst, send, pattern), &(class, probe, extra))) in
            sent.into_iter().zip(&expected).enumerate()
        {
            // One frame per millisecond, so each is alone on the air.
            let t = SimTime::from_millis(i as u64 + 1);
            let seq = 1000 + i as u64;
            match send {
                Deferred(kind) => {
                    let frame = DeferredFrame::new(src, dst, kind, seq, pattern);
                    net.queue.schedule(t, NetEv::SendFrame(frame));
                    net.run_until(t);
                }
                Now(kind) => {
                    net.run_until(t);
                    net.start_tx(
                        Frame {
                            src,
                            dst,
                            kind,
                            seq,
                        },
                        pattern,
                    );
                }
            }
            assert_eq!(class.extra_power_db(), extra, "frame {i}");
            let e = *net.txlog().entries().last().expect("frame logged");
            assert_eq!(
                (e.start, e.src, e.dst, e.class, e.seq, e.pattern),
                (t, src, dst, class, seq, pattern),
                "frame {i}"
            );
            let want = net.medium_rx_power_dbm(src, pattern, probe) + extra;
            let got = net.medium().energy_at(probe);
            assert!(
                (got - want).abs() < 1e-9,
                "frame {i}: {got} dBm, want {want}"
            );
        }
        // Each row went on the air once (the data PPDU also drew its ACK).
        let rows: Vec<u64> = net
            .txlog()
            .entries()
            .iter()
            .map(|e| e.seq)
            .filter(|&s| s >= 1000)
            .collect();
        assert_eq!(rows, (1000..1000 + n_sent as u64).collect::<Vec<_>>());
        // A discovery sub-element's index is the quasi-omni entry it radiates.
        let sub = DeferredFrame::new(dock, None, K::DiscoverySub, 1, Qo(5));
        assert!(matches!(
            sub.frame().kind,
            FrameKind::DiscoverySub { pattern_idx: 5 }
        ));
    }

    #[test]
    fn saturated_pers_leave_the_waterfall_memo_alone() {
        let ctx = SimCtx::new();
        let mut net = Net::with_ctx(
            Environment::new(Room::open_space()),
            NetConfig::default(),
            &ctx,
        );
        let noise = net.env.noise_floor_dbm();
        let centre = |mcs: u8| McsTable::ieee_802_11ad().get(mcs).snr_threshold_db(noise) + 0.5;
        let waterfall = net.cached_per(8, centre(8), 12_000);
        assert!(0.0 < waterfall && waterfall < 1.0);
        // Beacons through 32 quasi-omni patterns: distinct SINRs, each far
        // above or far below the control PHY's waterfall.
        for i in 0..64 {
            let offset_db = 10.0 + i as f64 / 8.0;
            let (sinr, expected) = if i % 2 == 0 {
                (centre(0) + offset_db, 0.0)
            } else {
                (centre(0) - offset_db, 1.0)
            };
            assert_eq!(net.cached_per(0, sinr, 300), expected);
        }
        let key = (8, centre(8).to_bits(), 12_000, noise.to_bits());
        assert_eq!(net.per_memo, [(key, waterfall)]);
    }

    #[test]
    fn aifs_memory_uses_each_devices_own_threshold() {
        // A listener 11 m from the dock hears its frame at about −65 dBm:
        // above the default −68 dBm carrier-sense threshold, below a
        // −60 dBm threshold set on the listener. By that threshold the
        // channel was never busy, so it is AIFS-idle the moment the frame
        // ends; with the default threshold the frame holds it for an AIFS.
        let ctx = SimCtx::new();
        let cfg = NetConfig {
            enable_fading: false,
            ..NetConfig::default()
        };
        let mut net = Net::with_ctx(Environment::new(Room::open_space()), cfg, &ctx);
        let dock = net.add_device(Device::wigig_dock(
            &ctx,
            "d",
            Point::new(0.0, 0.0),
            Angle::ZERO,
            16,
        ));
        let listener = net.add_device(Device::wigig_laptop(
            &ctx,
            "l",
            Point::new(11.0, 0.0),
            Angle::from_degrees(180.0),
            111,
        ));
        let idle_at_frame_end = |net: &mut Net, seq: u64| {
            let frame = Frame {
                src: dock,
                dst: None,
                kind: FrameKind::DiscoverySub { pattern_idx: 0 },
                seq,
            };
            let (_, end) = net.start_tx(frame, PatKey::Qo(0));
            let heard = net.medium().energy_at(listener);
            assert!((-66.0..-64.0).contains(&heard), "{heard} dBm");
            net.run_until(end);
            let threshold = net.device(listener).cs_threshold_dbm;
            net.medium().idle_for(listener, threshold, end, AIFS)
        };
        net.device_mut(listener).cs_threshold_dbm = -60.0;
        assert!(idle_at_frame_end(&mut net, 1));
        net.run_until(SimTime::from_millis(1));
        net.device_mut(listener).cs_threshold_dbm = crate::params::CS_THRESHOLD_DBM;
        assert!(!idle_at_frame_end(&mut net, 2));
    }
}
