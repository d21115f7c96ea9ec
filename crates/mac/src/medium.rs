//! The shared medium: concurrent transmissions, receive powers,
//! interference accumulation and carrier sensing.
//!
//! Whenever a frame starts, the medium records a receive power for every
//! device and remembers it for the frame's lifetime. That one vector
//! powers everything the paper measures: SINR-based frame loss,
//! carrier-sense deferral, and — through the monitors — the busy-time
//! traces.
//!
//! Without spatial pruning, each entry goes through the channel model
//! (the transmitter's actual pattern and each receiver's current
//! listening pattern). With it, only the source's *coupled set* does: the
//! devices that share its zone and lie within the coupling cutoff. Every
//! other entry is the pruned sentinel [`PRUNED_DBM`]. The medium keeps
//! each source's coupled set across frames and rebuilds it, in the same
//! buffer, only after [`Medium::note_device_position`] moved someone, so
//! a frame on a floor of closed offices costs its own office. Sums of
//! linear power read a sentinel entry's value from a constant computed
//! once, instead of calling `powf`.

use crate::device::{Device, PatKey};
use crate::frame::Frame;
use mmwave_channel::spatial::{self, PruneMode, SpatialConfig, SpatialIndex};
use mmwave_channel::{gain_rx_dbm, link_state, Environment, LinkGainCache};
use mmwave_geom::Point;
use mmwave_phy::{db_to_lin, lin_to_db};
use mmwave_sim::ctx::SimCtx;
use mmwave_sim::hash::FastSet;
use mmwave_sim::metrics::Counter;
use mmwave_sim::time::SimTime;

/// The receive power of an entry that carries no signal: a frame's own
/// source, and every pair the spatial prune proves silent, dBm.
pub const PRUNED_DBM: f64 = -300.0;

/// A transmission currently on the air.
#[derive(Debug)]
pub struct ActiveTx {
    /// Medium-assigned id.
    pub id: u64,
    /// The frame.
    pub frame: Frame,
    /// Start time.
    pub start: SimTime,
    /// Scheduled end time.
    pub end: SimTime,
    /// Receive power at every device index, dBm ([`PRUNED_DBM`] at the
    /// source).
    pub power_at: Vec<f64>,
    /// Accumulated interference power at the destination, linear mW.
    pub interference_lin: f64,
    /// The destination itself transmitted while this frame was on the air
    /// (half-duplex violation → certain loss).
    pub dst_was_busy: bool,
}

/// Spatial interference-graph state: the position grid, per-device opaque
/// zones and the prune semantics derived from the environment's coupling
/// bound.
#[derive(Debug)]
struct SpatialState {
    index: SpatialIndex,
    /// Opaque-zone membership per device (`Room::zone_of` at the tracked
    /// position). Devices in *different* zones are radio-isolated by the
    /// zones' closed-walls contract; a device outside every zone couples
    /// with everyone in range.
    zone: Vec<Option<usize>>,
    mode: PruneMode,
    floor_dbm: f64,
    /// Per source device: its coupled set, as the `begin_tx` grid walk
    /// leaves it. One entry per tracked device.
    coupled: Vec<CoupledSet>,
    /// Bumped by every noted position. A coupled set built at an older
    /// epoch is rebuilt before its source's next frame.
    epoch: u64,
    /// Directed pairs already verified in audit mode. A pruned pair's
    /// coupling is position-determined, so one verification per position
    /// epoch suffices; entries involving a device are dropped when it
    /// moves (and on full flushes). Membership-only use — iteration order
    /// never observed.
    audited: FastSet<(usize, usize)>,
}

/// One source's coupled set: `{d ≠ src : coupled_pair(src, d)}` in grid
/// walk order, valid while `epoch` matches [`SpatialState::epoch`].
#[derive(Debug, Default)]
struct CoupledSet {
    epoch: u64,
    members: Vec<usize>,
}

impl SpatialState {
    /// The prune decision: a pair is coupled unless it is separated by a
    /// closed-zone boundary or by more than the distance cutoff. Both the
    /// per-call path and the `begin_tx` grid walk go through this exact
    /// predicate, so their prune counts and powers agree bit-for-bit.
    fn coupled_pair(&self, a: usize, b: usize) -> bool {
        if let (Some(za), Some(zb)) = (self.zone[a], self.zone[b]) {
            if za != zb {
                return false;
            }
        }
        self.index
            .coupled(self.index.position(a), self.index.position(b))
    }

    /// Take `src`'s coupled set out of the memo, first rebuilding it in its
    /// own buffer if a position was noted since it was built. The caller
    /// puts it back into `coupled[src].members`.
    fn take_coupled(&mut self, src: usize) -> Vec<usize> {
        let entry = &mut self.coupled[src];
        let mut members = std::mem::take(&mut entry.members);
        if entry.epoch != self.epoch {
            entry.epoch = self.epoch;
            self.index
                .neighbors_into(self.index.position(src), &mut members);
            members.retain(|&d| d != src && self.coupled_pair(src, d));
        }
        members
    }
}

/// The medium arbiter.
#[derive(Debug)]
pub struct Medium {
    active: Vec<ActiveTx>,
    next_id: u64,
    /// Memoized radiometric link gains (paths interned per pair, pattern
    /// weighting folded in the linear domain, generation invalidation).
    cache: LinkGainCache,
    /// Per device: when the channel was last heard busy (above the
    /// carrier-sense threshold) — the basis for AIFS-long idle checks.
    last_heard_end: Vec<SimTime>,
    /// Spent `power_at` buffers awaiting reuse. A bulk transfer turns over
    /// thousands of transmissions; recycling the per-frame vector keeps the
    /// steady-state frame path allocation-free. Every returned buffer is
    /// kept, so the pool never holds more than the peak number of frames
    /// on the air at once.
    power_pool: Vec<Vec<f64>>,
    /// `db_to_lin(PRUNED_DBM)`, computed once: the linear power of the
    /// pruned entries that make up most of an interference or
    /// carrier-sense sum on a spatially pruned floor.
    pruned_lin: f64,
    /// When present, device pairs beyond the coupling cutoff contribute
    /// exactly [`PRUNED_DBM`] without touching the radiometric chain.
    spatial: Option<Box<SpatialState>>,
}

/// `db_to_lin(dbm)`, with [`PRUNED_DBM`] entries read from `pruned_lin`
/// (their exact value) instead of recomputed.
#[inline]
fn entry_lin(dbm: f64, pruned_lin: f64) -> f64 {
    if dbm == PRUNED_DBM {
        pruned_lin
    } else {
        db_to_lin(dbm)
    }
}

impl Medium {
    /// An idle medium whose link-gain cache adopts `ctx`'s cache mode and
    /// streams its counters into `ctx`.
    pub fn with_ctx(ctx: &SimCtx) -> Medium {
        Medium {
            active: Vec::new(),
            next_id: 0,
            cache: LinkGainCache::with_ctx(ctx),
            last_heard_end: Vec::new(),
            power_pool: Vec::new(),
            pruned_lin: db_to_lin(PRUNED_DBM),
            spatial: None,
        }
    }

    /// Enable spatial pruning: pairs separated by a closed-zone boundary
    /// (see [`mmwave_geom::Room::add_zone`]) or by more than the coupling
    /// cutoff (derived from `env`'s budget, geometry and `cfg`'s floor)
    /// contribute exactly [`PRUNED_DBM`]. `positions[i]` must be device `i`'s
    /// current position; callers must keep the grid in sync through
    /// [`Medium::note_device_position`] — a stale entry or a zone that is
    /// not actually radio-closed can prune a pair that couples, which
    /// [`PruneMode::Audit`] detects by recomputing every pruned pair and
    /// panicking at a floor violation.
    pub fn enable_spatial(
        &mut self,
        env: &Environment,
        cfg: &SpatialConfig,
        mode: PruneMode,
        positions: &[Point],
    ) {
        let cutoff = spatial::cutoff_distance_m(env, cfg);
        let mut index = SpatialIndex::new(cutoff);
        let mut zone = Vec::with_capacity(positions.len());
        for (i, &p) in positions.iter().enumerate() {
            index.set_position(i, p);
            zone.push(env.room.zone_of(p));
        }
        self.spatial = Some(Box::new(SpatialState {
            index,
            zone,
            mode,
            floor_dbm: cfg.floor_dbm,
            coupled: positions.iter().map(|_| CoupledSet::default()).collect(),
            epoch: 1,
            audited: FastSet::default(),
        }));
    }

    /// Record a device's (new) position in the spatial index, re-deriving
    /// its zone membership. Every source's memoized coupled set goes stale
    /// and is rebuilt before that source's next frame. No-op while spatial
    /// pruning is disabled.
    pub fn note_device_position(&mut self, env: &Environment, idx: usize, p: Point) {
        if let Some(sp) = self.spatial.as_mut() {
            sp.index.set_position(idx, p);
            if idx == sp.zone.len() {
                sp.zone.push(env.room.zone_of(p));
                sp.coupled.push(CoupledSet::default());
            } else {
                sp.zone[idx] = env.room.zone_of(p);
            }
            sp.epoch += 1;
            sp.audited.retain(|&(a, b)| a != idx && b != idx);
        }
    }

    /// Flush all cached geometry and gains (call after bulk scene edits;
    /// for a single device prefer the granular bumps on
    /// [`Medium::link_cache_mut`]).
    pub fn invalidate_paths(&mut self) {
        self.cache.invalidate_all();
        if let Some(sp) = self.spatial.as_mut() {
            sp.audited.clear();
        }
    }

    /// The radiometric cache (counters, inspection).
    pub fn link_cache(&self) -> &LinkGainCache {
        &self.cache
    }

    /// Mutable access to the radiometric cache (granular invalidation
    /// bumps, shared sector-sweep tables).
    pub fn link_cache_mut(&mut self) -> &mut LinkGainCache {
        &mut self.cache
    }

    /// Pattern-weighted received power from `src` (radiating `src_pat`) at
    /// `dst` (listening with its current pattern), dBm, before fading.
    ///
    /// One memoized table lookup plus additive dB offsets: the cache keeps
    /// `Σ_paths 10^(−loss/10)·g_src·g_dst` per (device, pattern) pair, and
    /// [`gain_rx_dbm`] adds everything direction- and path-independent
    /// (conducted power, implementation loss, per-device offset, the
    /// frame's boost, atmospheric loss) after the single `lin_to_db`.
    pub fn rx_power_dbm(
        &mut self,
        env: &Environment,
        devices: &[Device],
        src: usize,
        src_pat: PatKey,
        dst: usize,
        extra_power_db: f64,
    ) -> f64 {
        if let Some(sp) = self.spatial.as_mut() {
            let tracked = sp.index.tracked();
            if src < tracked && dst < tracked && !sp.coupled_pair(src, dst) {
                let (mode, floor) = (sp.mode, sp.floor_dbm);
                let audit = mode == PruneMode::Audit && sp.audited.insert((src, dst));
                self.cache.ctx().bump(Counter::SpatialPrunedPairs);
                if audit {
                    // Counter-free recomputation from the devices' *actual*
                    // node state: a stale grid or an unsound bound panics
                    // here instead of silently zeroing real interference.
                    let dst_key = devices[dst].listen_key();
                    let (sd, dd) = (&devices[src], &devices[dst]);
                    let true_dbm = link_state(
                        env,
                        &sd.node,
                        sd.pattern(src_pat),
                        &dd.node,
                        dd.pattern(dst_key),
                    )
                    .total_dbm
                        + sd.tx_power_offset_db
                        + extra_power_db;
                    assert!(
                        true_dbm < floor,
                        "spatial prune unsound: {src}->{dst} couples at \
                         {true_dbm:.1} dBm (floor {floor} dBm)"
                    );
                }
                return PRUNED_DBM;
            }
        }
        let dst_key = devices[dst].listen_key();
        let (sd, dd) = (&devices[src], &devices[dst]);
        let (lin, db) = self.cache.link_gain_lin_db(
            env,
            &sd.node,
            src,
            sd.pat_id(src_pat),
            &dd.node,
            dst,
            dd.pat_id(dst_key),
            || (sd.pattern(src_pat), dd.pattern(dst_key)),
        );
        gain_rx_dbm(env, lin, db, sd.tx_power_offset_db, extra_power_db)
    }

    /// Put a frame on the air. `link_offsets[d]` is the fading offset (dB)
    /// applied to the path from the source to device `d`. Returns the
    /// transmission id.
    #[allow(clippy::too_many_arguments)]
    pub fn begin_tx(
        &mut self,
        env: &Environment,
        devices: &[Device],
        frame: Frame,
        pattern: PatKey,
        extra_power_db: f64,
        start: SimTime,
        end: SimTime,
        link_offsets: &[f64],
    ) -> u64 {
        debug_assert_eq!(link_offsets.len(), devices.len());
        let src = frame.src;
        let mut power_at = self
            .power_pool
            .pop()
            .unwrap_or_else(|| Vec::with_capacity(devices.len()));
        power_at.clear();

        // Enforce-mode fast path: evaluate only the source's memoized
        // coupled set instead of probing every device. That set —
        // `{d ≠ src : coupled_pair(src, d)}` — is exactly the set the
        // per-device loop below would compute through, so both paths yield
        // bit-identical powers and identical prune counts.
        let coupled = match self.spatial.as_mut() {
            Some(sp) if sp.mode == PruneMode::Enforce && sp.index.tracked() == devices.len() => {
                Some(sp.take_coupled(src))
            }
            _ => None,
        };
        if let Some(coupled) = coupled {
            for (d, &offset) in link_offsets[..devices.len()].iter().enumerate() {
                power_at.push(if d == src {
                    PRUNED_DBM
                } else {
                    PRUNED_DBM + offset
                });
            }
            for &d in &coupled {
                power_at[d] = self.rx_power_dbm(env, devices, src, pattern, d, extra_power_db)
                    + link_offsets[d];
            }
            let pruned = (devices.len() as u64 - 1) - coupled.len() as u64;
            self.cache.ctx().add(Counter::SpatialPrunedPairs, pruned);
            self.spatial.as_mut().expect("spatial state").coupled[src].members = coupled;
        } else {
            power_at.extend((0..devices.len()).map(|d| {
                if d == src {
                    PRUNED_DBM
                } else {
                    self.rx_power_dbm(env, devices, src, pattern, d, extra_power_db)
                        + link_offsets[d]
                }
            }));
        }

        // Interference bookkeeping, both directions.
        let pruned_lin = self.pruned_lin;
        let mut interference_lin = 0.0;
        let mut dst_was_busy = false;
        for other in &mut self.active {
            // The new frame interferes with every ongoing addressed frame.
            if let Some(odst) = other.frame.dst {
                if odst != src {
                    other.interference_lin += entry_lin(power_at[odst], pruned_lin);
                } else {
                    // Their receiver just started transmitting.
                    other.dst_was_busy = true;
                }
            }
            // Ongoing frames interfere with the new one.
            if let Some(dst) = frame.dst {
                if other.frame.src == dst {
                    dst_was_busy = true;
                } else {
                    interference_lin += entry_lin(other.power_at[dst], pruned_lin);
                }
            }
        }

        let id = self.next_id;
        self.next_id += 1;
        self.active.push(ActiveTx {
            id,
            frame,
            start,
            end,
            power_at,
            interference_lin,
            dst_was_busy,
        });
        id
    }

    /// Remove a finished transmission and return it. A device "heard" it
    /// (for AIFS idle tracking) if it arrived above that device's
    /// carrier-sense threshold, `cs_threshold_dbm(device)`. The threshold
    /// is read only for entries above [`PRUNED_DBM`]: a threshold must lie
    /// above the sentinel, as every carrier-sense threshold does, so no
    /// entry at or below it can be heard.
    pub fn finish_tx(
        &mut self,
        id: u64,
        cs_threshold_dbm: impl Fn(usize) -> f64,
    ) -> Option<ActiveTx> {
        let idx = self.active.iter().position(|t| t.id == id)?;
        let tx = self.active.swap_remove(idx);
        if self.last_heard_end.len() < tx.power_at.len() {
            self.last_heard_end.resize(tx.power_at.len(), SimTime::ZERO);
        }
        for (d, &p) in tx.power_at.iter().enumerate() {
            if d == tx.frame.src || (p > PRUNED_DBM && p > cs_threshold_dbm(d)) {
                self.last_heard_end[d] = self.last_heard_end[d].max(tx.end);
            }
        }
        Some(tx)
    }

    /// True if `dev` has seen the channel idle (no energy above
    /// `threshold_dbm`) continuously for `idle_needed` ending at `now`.
    pub fn idle_for(
        &self,
        dev: usize,
        threshold_dbm: f64,
        now: SimTime,
        idle_needed: mmwave_sim::time::SimDuration,
    ) -> bool {
        if self.is_busy_for(dev, threshold_dbm) {
            return false;
        }
        let last = self
            .last_heard_end
            .get(dev)
            .copied()
            .unwrap_or(SimTime::ZERO);
        now.saturating_since(last) >= idle_needed
    }

    /// Total received energy at device `dev` from all ongoing
    /// transmissions, dBm (−300 when quiet).
    pub fn energy_at(&self, dev: usize) -> f64 {
        lin_to_db(
            self.active
                .iter()
                .map(|t| entry_lin(t.power_at[dev], self.pruned_lin))
                .sum(),
        )
    }

    /// Carrier-sense verdict for `dev` at the given threshold.
    pub fn is_busy_for(&self, dev: usize, threshold_dbm: f64) -> bool {
        self.energy_at(dev) > threshold_dbm
    }

    /// Return a spent `power_at` buffer to the reuse pool. The MAC calls
    /// this after consuming a finished transmission; external drivers of
    /// `begin_tx`/`finish_tx` (tests, benches) can do the same to keep the
    /// steady-state frame path allocation-free. Every buffer is kept: their
    /// number is bounded by the peak number of concurrent frames.
    pub fn recycle_power(&mut self, v: Vec<f64>) {
        self.power_pool.push(v);
    }

    /// Is this device currently transmitting?
    pub fn is_transmitting(&self, dev: usize) -> bool {
        self.active.iter().any(|t| t.frame.src == dev)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{FrameKind, Mpdu};
    use mmwave_geom::{Angle, Point, Room};

    fn setup() -> (Environment, Vec<Device>) {
        let env = Environment::new(Room::open_space());
        let mut dock = Device::wigig_dock(
            &SimCtx::new(),
            "dock",
            Point::new(0.0, 0.0),
            Angle::ZERO,
            13,
        );
        let mut laptop = Device::wigig_laptop(
            &SimCtx::new(),
            "laptop",
            Point::new(2.0, 0.0),
            Angle::from_degrees(180.0),
            11,
        );
        // Associate both directly for the test.
        for (d, sector) in [(&mut dock, 16), (&mut laptop, 16)] {
            let w = d.wigig_mut().expect("wigig");
            w.state = crate::device::WigigState::Associated;
            w.tx_sector = sector;
        }
        (env, vec![dock, laptop])
    }

    fn data_frame(src: usize, dst: usize, seq: u64) -> Frame {
        Frame {
            src,
            dst: Some(dst),
            kind: FrameKind::Data {
                mpdus: vec![Mpdu {
                    bytes: 1500,
                    tag: 0,
                }],
                mcs: 11,
                retry: 0,
            },
            seq,
        }
    }

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn active_tx_moves_inline() {
        // Every frame moves an `ActiveTx` into `active` and back out of
        // `finish_tx`. Up to 128 bytes, x86-64 builds copy it with inline
        // moves; at 144 bytes each move was a `memcpy` call.
        assert!(
            std::mem::size_of::<ActiveTx>() <= 128,
            "{}",
            std::mem::size_of::<ActiveTx>()
        );
    }

    #[test]
    fn begin_tx_computes_strong_trained_power() {
        let (env, devices) = setup();
        let mut m = Medium::with_ctx(&SimCtx::new());
        let offs = vec![0.0; devices.len()];
        let id = m.begin_tx(
            &env,
            &devices,
            data_frame(0, 1, 1),
            PatKey::Dir(16),
            0.0,
            t(0),
            t(5),
            &offs,
        );
        let tx = m.finish_tx(id, |_| -68.0).expect("tx exists");
        // Trained 2 m link: roughly 7 + 2·16 − 74 − 14 ≈ −49 dBm.
        assert!(tx.power_at[1] > -60.0, "power {}", tx.power_at[1]);
        assert_eq!(tx.power_at[0], -300.0, "no self-reception");
        assert!(!tx.dst_was_busy);
        assert_eq!(tx.interference_lin, 0.0);
    }

    #[test]
    fn energy_and_carrier_sense() {
        let (env, devices) = setup();
        let mut m = Medium::with_ctx(&SimCtx::new());
        let offs = vec![0.0; devices.len()];
        assert!(!m.is_busy_for(1, -68.0));
        let id = m.begin_tx(
            &env,
            &devices,
            data_frame(0, 1, 1),
            PatKey::Dir(16),
            0.0,
            t(0),
            t(5),
            &offs,
        );
        assert!(m.is_busy_for(1, -68.0), "laptop must sense the dock");
        assert!(m.is_transmitting(0));
        assert!(!m.is_transmitting(1));
        m.finish_tx(id, |_| -68.0);
        assert!(!m.is_busy_for(1, -68.0));
        assert!(!m.is_transmitting(0));
    }

    #[test]
    fn overlapping_tx_accumulates_interference() {
        let (env, mut devices) = setup();
        // Add a second pair further away.
        let mut dock_b = Device::wigig_dock(
            &SimCtx::new(),
            "dock B",
            Point::new(0.0, 3.0),
            Angle::ZERO,
            7,
        );
        let mut laptop_b = Device::wigig_laptop(
            &SimCtx::new(),
            "laptop B",
            Point::new(2.0, 3.0),
            Angle::from_degrees(180.0),
            5,
        );
        for d in [&mut dock_b, &mut laptop_b] {
            let w = d.wigig_mut().expect("wigig");
            w.state = crate::device::WigigState::Associated;
            w.tx_sector = 16;
        }
        devices.push(dock_b);
        devices.push(laptop_b);
        let mut m = Medium::with_ctx(&SimCtx::new());
        let offs = vec![0.0; devices.len()];
        let a = m.begin_tx(
            &env,
            &devices,
            data_frame(0, 1, 1),
            PatKey::Dir(16),
            0.0,
            t(0),
            t(5),
            &offs,
        );
        let _b = m.begin_tx(
            &env,
            &devices,
            data_frame(2, 3, 2),
            PatKey::Dir(16),
            0.0,
            t(1),
            t(6),
            &offs,
        );
        let tx_a = m.finish_tx(a, |_| -68.0).expect("tx a");
        // Frame A suffered interference from B (side lobes), recorded in mW.
        assert!(tx_a.interference_lin > 0.0);
        assert!(!tx_a.dst_was_busy);
    }

    #[test]
    fn half_duplex_violation_detected() {
        let (env, devices) = setup();
        let mut m = Medium::with_ctx(&SimCtx::new());
        let offs = vec![0.0; devices.len()];
        // Dock sends to laptop; laptop starts sending back mid-frame.
        let a = m.begin_tx(
            &env,
            &devices,
            data_frame(0, 1, 1),
            PatKey::Dir(16),
            0.0,
            t(0),
            t(5),
            &offs,
        );
        let b = m.begin_tx(
            &env,
            &devices,
            data_frame(1, 0, 2),
            PatKey::Dir(16),
            0.0,
            t(2),
            t(7),
            &offs,
        );
        let tx_a = m.finish_tx(a, |_| -68.0).expect("a");
        assert!(
            tx_a.dst_was_busy,
            "laptop was transmitting during reception"
        );
        let tx_b = m.finish_tx(b, |_| -68.0).expect("b");
        assert!(tx_b.dst_was_busy, "dock was transmitting when b started");
    }

    #[test]
    fn extra_power_shifts_rx() {
        let (env, devices) = setup();
        let mut m = Medium::with_ctx(&SimCtx::new());
        let base = m.rx_power_dbm(&env, &devices, 0, PatKey::Dir(16), 1, 0.0);
        let boosted = m.rx_power_dbm(&env, &devices, 0, PatKey::Dir(16), 1, 6.0);
        assert!((boosted - base - 6.0).abs() < 1e-9);
    }

    #[test]
    fn path_cache_invalidation_changes_power_after_move() {
        let (env, mut devices) = setup();
        let mut m = Medium::with_ctx(&SimCtx::new());
        let near = m.rx_power_dbm(&env, &devices, 0, PatKey::Dir(16), 1, 0.0);
        devices[1].node.position = Point::new(8.0, 0.0);
        // Without invalidation the cache returns stale geometry.
        let stale = m.rx_power_dbm(&env, &devices, 0, PatKey::Dir(16), 1, 0.0);
        assert!((stale - near).abs() < 3.0, "cache should still be warm");
        m.invalidate_paths();
        let far = m.rx_power_dbm(&env, &devices, 0, PatKey::Dir(16), 1, 0.0);
        assert!(near - far > 8.0, "8 m vs 2 m ≈ 12 dB: {near} vs {far}");
    }

    /// Two closed brick boxes with a zone declared over each, plus helper
    /// devices: dock+laptop in box A, a second dock alone in box B.
    fn two_room_setup() -> (Environment, Vec<Device>) {
        use mmwave_geom::{Material, Segment};
        let mut room = Room::open_space();
        for (x0, tag) in [(0.0, "a"), (10.0, "b")] {
            let (x1, y0, y1) = (x0 + 4.0, 0.0, 3.0);
            let corners = [
                (Point::new(x0, y0), Point::new(x1, y0)),
                (Point::new(x1, y0), Point::new(x1, y1)),
                (Point::new(x1, y1), Point::new(x0, y1)),
                (Point::new(x0, y1), Point::new(x0, y0)),
            ];
            for (i, (a, b)) in corners.into_iter().enumerate() {
                room.add_obstacle(Segment::new(a, b), Material::Brick, format!("{tag}-{i}"));
            }
            room.add_zone(Point::new(x0, y0), Point::new(x1, y1));
        }
        let env = Environment::new(room);
        let ctx = SimCtx::new();
        let mut devices = vec![
            Device::wigig_dock(&ctx, "dock A", Point::new(1.0, 1.5), Angle::ZERO, 13),
            Device::wigig_laptop(
                &ctx,
                "laptop A",
                Point::new(3.0, 1.5),
                Angle::from_degrees(180.0),
                11,
            ),
            Device::wigig_dock(&ctx, "dock B", Point::new(12.0, 1.5), Angle::ZERO, 7),
        ];
        for d in &mut devices {
            let w = d.wigig_mut().expect("wigig");
            w.state = crate::device::WigigState::Associated;
            w.tx_sector = 16;
        }
        (env, devices)
    }

    fn positions(devices: &[Device]) -> Vec<Point> {
        devices.iter().map(|d| d.node.position).collect()
    }

    #[test]
    fn cross_zone_pairs_are_pruned_in_both_modes() {
        let (env, devices) = two_room_setup();
        let cfg = mmwave_channel::SpatialConfig::default();
        for mode in [
            mmwave_channel::PruneMode::Enforce,
            mmwave_channel::PruneMode::Audit,
        ] {
            let ctx = SimCtx::new();
            let mut m = Medium::with_ctx(&ctx);
            m.enable_spatial(&env, &cfg, mode, &positions(&devices));
            // Cross-zone: pruned to the sentinel in both modes (and audit
            // verifies the true coupling is below the floor — the closed
            // boxes block every path, so it is exactly −300).
            let cross = m.rx_power_dbm(&env, &devices, 0, PatKey::Dir(16), 2, 0.0);
            assert_eq!(cross, -300.0, "{mode:?}");
            assert_eq!(ctx.counters().spatial_pruned_pairs, 1, "{mode:?}");
            // Same-zone: never pruned, matches an unpruned medium to the bit.
            let in_room = m.rx_power_dbm(&env, &devices, 0, PatKey::Dir(16), 1, 0.0);
            let mut plain = Medium::with_ctx(&SimCtx::new());
            let reference = plain.rx_power_dbm(&env, &devices, 0, PatKey::Dir(16), 1, 0.0);
            assert_eq!(in_room.to_bits(), reference.to_bits(), "{mode:?}");
            assert_eq!(ctx.counters().spatial_pruned_pairs, 1, "{mode:?}");
        }
    }

    #[test]
    fn distance_cutoff_prunes_far_open_space_pairs() {
        let (env, devices) = setup();
        // A deliberately high floor shrinks the cutoff below the 2 m link.
        let cfg = mmwave_channel::SpatialConfig {
            floor_dbm: -20.0,
            ..Default::default()
        };
        let ctx = SimCtx::new();
        let mut m = Medium::with_ctx(&ctx);
        m.enable_spatial(
            &env,
            &cfg,
            mmwave_channel::PruneMode::Audit,
            &positions(&devices),
        );
        let cut = mmwave_channel::cutoff_distance_m(&env, &cfg);
        assert!(cut < 2.0, "cutoff {cut} must undercut the 2 m pair");
        // Audit recomputes the pruned pair and confirms it under the floor.
        let p = m.rx_power_dbm(&env, &devices, 0, PatKey::Dir(16), 1, 0.0);
        assert_eq!(p, -300.0);
        assert_eq!(ctx.counters().spatial_pruned_pairs, 1);
    }

    #[test]
    fn begin_tx_grid_walk_matches_per_device_loop() {
        let (env, devices) = two_room_setup();
        let cfg = mmwave_channel::SpatialConfig::default();
        let offs: Vec<f64> = (0..devices.len()).map(|d| d as f64 * 0.25).collect();
        let mut runs = Vec::new();
        // Enforce takes the grid fast path; Audit takes the per-device
        // loop. Powers and prune counts must agree bit-for-bit.
        for mode in [
            mmwave_channel::PruneMode::Enforce,
            mmwave_channel::PruneMode::Audit,
        ] {
            let ctx = SimCtx::new();
            let mut m = Medium::with_ctx(&ctx);
            m.enable_spatial(&env, &cfg, mode, &positions(&devices));
            let id = m.begin_tx(
                &env,
                &devices,
                data_frame(0, 1, 1),
                PatKey::Dir(16),
                0.0,
                t(0),
                t(5),
                &offs,
            );
            let tx = m.finish_tx(id, |_| -68.0).expect("tx");
            runs.push((tx.power_at.clone(), ctx.counters().spatial_pruned_pairs));
        }
        let (enforce, audit) = (&runs[0], &runs[1]);
        assert_eq!(enforce.1, audit.1, "prune counts diverge");
        assert!(enforce.1 >= 1, "cross-zone dock B must be pruned");
        for (d, (a, b)) in enforce.0.iter().zip(&audit.0).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "power_at[{d}] diverges");
        }
        // The pruned device sees the sentinel plus its fading offset.
        assert_eq!(enforce.0[2], -300.0 + offs[2]);
    }

    #[test]
    fn moving_a_device_across_zones_updates_the_prune() {
        let (env, mut devices) = two_room_setup();
        let cfg = mmwave_channel::SpatialConfig::default();
        let ctx = SimCtx::new();
        let mut m = Medium::with_ctx(&ctx);
        m.enable_spatial(
            &env,
            &cfg,
            mmwave_channel::PruneMode::Enforce,
            &positions(&devices),
        );
        assert_eq!(
            m.rx_power_dbm(&env, &devices, 0, PatKey::Dir(16), 2, 0.0),
            -300.0
        );
        // Dock B walks into room A: no longer pruned.
        devices[2].node.position = Point::new(2.0, 1.0);
        m.link_cache_mut().bump_position(2);
        m.note_device_position(&env, 2, Point::new(2.0, 1.0));
        let p = m.rx_power_dbm(&env, &devices, 0, PatKey::Dir(16), 2, 0.0);
        assert!(p > -100.0, "co-located pair must couple, got {p}");
        assert_eq!(ctx.counters().spatial_pruned_pairs, 1);
    }

    #[test]
    fn memoized_coupled_set_follows_a_zone_crossing() {
        // Device 0's coupled set is kept across its frames. Dock B crossing
        // into room A and back between two of them must show up exactly as
        // in a fresh medium built at the new positions.
        let (env, mut devices) = two_room_setup();
        let cfg = mmwave_channel::SpatialConfig::default();
        let enforce = mmwave_channel::PruneMode::Enforce;
        let offs = vec![0.0; devices.len()];
        let send = |m: &mut Medium, devices: &[Device], ctx: &SimCtx| {
            let pruned = ctx.counters().spatial_pruned_pairs;
            let id = m.begin_tx(
                &env,
                devices,
                data_frame(0, 1, 1),
                PatKey::Dir(16),
                0.0,
                t(0),
                t(5),
                &offs,
            );
            let tx = m.finish_tx(id, |_| -68.0).expect("tx");
            let bits: Vec<u64> = tx.power_at.iter().map(|p| p.to_bits()).collect();
            m.recycle_power(tx.power_at);
            (bits, ctx.counters().spatial_pruned_pairs - pruned)
        };
        let ctx = SimCtx::new();
        let mut m = Medium::with_ctx(&ctx);
        m.enable_spatial(&env, &cfg, enforce, &positions(&devices));
        let (bits, pruned) = send(&mut m, &devices, &ctx);
        assert_eq!((bits[2], pruned), (PRUNED_DBM.to_bits(), 1));
        for (p, couples) in [(Point::new(2.0, 1.0), true), (Point::new(12.0, 1.5), false)] {
            devices[2].node.position = p;
            m.link_cache_mut().bump_position(2);
            m.note_device_position(&env, 2, p);
            let got = send(&mut m, &devices, &ctx);
            let fresh_ctx = SimCtx::new();
            let mut fresh = Medium::with_ctx(&fresh_ctx);
            fresh.enable_spatial(&env, &cfg, enforce, &positions(&devices));
            let want = send(&mut fresh, &devices, &fresh_ctx);
            assert_eq!(got, want, "dock B at {p}");
            assert_eq!(got.1, if couples { 0 } else { 1 }, "dock B at {p}");
        }
    }

    #[test]
    fn granular_position_bump_refreshes_only_that_device() {
        let (env, mut devices) = setup();
        let mut m = Medium::with_ctx(&SimCtx::new());
        let near = m.rx_power_dbm(&env, &devices, 0, PatKey::Dir(16), 1, 0.0);
        devices[1].node.position = Point::new(8.0, 0.0);
        m.link_cache_mut().bump_position(1);
        let far = m.rx_power_dbm(&env, &devices, 0, PatKey::Dir(16), 1, 0.0);
        assert!(
            near - far > 8.0,
            "bump must refresh the moved link: {near} vs {far}"
        );
        let s = m.link_cache().stats();
        assert_eq!(s.path_traces, 2, "exactly the stale pair re-traced");
        assert_eq!(s.invalidations, 1);
    }
}
