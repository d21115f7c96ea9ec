//! Devices: a radio node plus its personality.

use crate::frame::Mpdu;
use crate::params::{
    WigigConfig, CS_THRESHOLD_DBM, CW_MIN, WIGIG_TX_POWER_OFFSET_DB, WIHD_TX_POWER_OFFSET_DB,
};
use crate::stats::DevStats;
use mmwave_channel::RadioNode;
use mmwave_geom::{Angle, Point};
use mmwave_phy::{AntennaPattern, ArrayConfig, Codebook, PhasedArray, RateAdapter};
use mmwave_sim::ctx::SimCtx;
use mmwave_sim::time::SimTime;
use std::collections::VecDeque;

/// Device index within a [`crate::net::Net`].
pub type DeviceId = usize;

/// Which antenna configuration a transmission or listener uses.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum PatKey {
    /// Directional codebook sector.
    Dir(usize),
    /// Quasi-omni codebook entry.
    Qo(usize),
}

/// WiGig device role.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WigigRole {
    /// Docking station (drives discovery and beacons).
    Dock,
    /// Remote station (laptop).
    Station,
}

/// WiGig association state.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WigigState {
    /// Sweeping discovery frames / listening for them.
    Unassociated,
    /// Handshake in progress.
    Associating,
    /// Link trained; data phase.
    Associated,
}

/// An in-flight data frame awaiting its acknowledgement.
#[derive(Clone, Debug)]
pub struct AwaitingAck {
    /// The MPDUs that were on board (requeued on loss).
    pub mpdus: Vec<Mpdu>,
    /// Sequence number of the data frame; its ACK timeout carries it.
    pub seq: u64,
}

/// State of a WiGig (D5000 / laptop) device.
#[derive(Debug)]
pub struct WigigDev {
    /// Dock or laptop policy.
    pub cfg: WigigConfig,
    /// Dock or station.
    pub role: WigigRole,
    /// Directional data codebook.
    pub codebook: Codebook,
    /// Quasi-omni discovery codebook (32 entries).
    pub qo: Codebook,
    /// The peer this device will pair with (pre-wired by the scenario).
    pub peer: Option<DeviceId>,
    /// Association state.
    pub state: WigigState,
    /// Trained directional sector towards the peer.
    pub tx_sector: usize,
    /// Outbound MPDU queue.
    pub queue: VecDeque<Mpdu>,
    /// When the current head of the queue started waiting (batch timer).
    pub oldest_wait_start: SimTime,
    /// Joint rate adaptation state.
    pub adapter: RateAdapter,
    /// Current contention window (slots).
    pub cw: u32,
    /// Retry count of the frame in flight.
    pub retry: u8,
    /// Currently inside a TXOP burst.
    pub in_txop: bool,
    /// When the current TXOP began.
    pub txop_start: SimTime,
    /// Data frame awaiting acknowledgement.
    pub awaiting_ack: Option<AwaitingAck>,
    /// A TxopAttempt event is already pending.
    pub contending: bool,
    /// Sequence number of the RTS awaiting its CTS; its CTS timeout
    /// carries it.
    pub pending_cts: Option<u64>,
    /// Consecutive RTS attempts that produced no CTS (deferral streak —
    /// only a very long streak, i.e. a dead link, drops traffic).
    pub cts_fail_streak: u8,
    /// Consecutive ACK timeouts (loss-triggered recovery trigger).
    pub ack_fail_streak: u8,
    /// Consecutive undelivered beacons sent towards the peer.
    pub beacon_fail_streak: u8,
    /// Loss-recovery retrains attempted since the link last carried a
    /// frame successfully; bounded by the recovery budget, after which
    /// the link is declared down.
    pub loss_recovery_attempts: u8,
}

impl WigigDev {
    fn new(ctx: &SimCtx, cfg: WigigConfig, role: WigigRole, array_seed: u64) -> WigigDev {
        let array = PhasedArray::new(ArrayConfig::wigig_2x8(array_seed));
        WigigDev {
            cfg,
            role,
            codebook: Codebook::directional_default(ctx, &array),
            qo: Codebook::quasi_omni_32(ctx, &array),
            peer: None,
            state: WigigState::Unassociated,
            tx_sector: 0,
            queue: VecDeque::new(),
            oldest_wait_start: SimTime::ZERO,
            adapter: RateAdapter::new(),
            cw: CW_MIN,
            retry: 0,
            in_txop: false,
            txop_start: SimTime::ZERO,
            awaiting_ack: None,
            contending: false,
            pending_cts: None,
            cts_fail_streak: 0,
            ack_fail_streak: 0,
            beacon_fail_streak: 0,
            loss_recovery_attempts: 0,
        }
    }
}

/// WiHD device role.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WihdRole {
    /// Video source (HDMI TX).
    Source,
    /// Video sink (HDMI RX; drives beacons).
    Sink,
}

/// State of a WiHD (DVDO Air-3c) device.
#[derive(Debug)]
pub struct WihdDev {
    /// Source or sink.
    pub role: WihdRole,
    /// Beam codebook (notably wide patterns).
    pub codebook: Codebook,
    /// The peer this device pairs with.
    pub peer: Option<DeviceId>,
    /// Paired and streaming.
    pub paired: bool,
    /// Trained sector towards the peer.
    pub tx_sector: usize,
    /// Pending video bytes (source only).
    pub queue_bytes: u64,
    /// A data burst is in progress (source only).
    pub bursting: bool,
    /// Video streaming enabled (powering the system on/off — Fig. 23).
    pub video_on: bool,
    /// When the next beacon will fire (sink only; sources read their
    /// peer's value to respect the TDD grid).
    pub next_beacon_at: SimTime,
}

impl WihdDev {
    fn new(ctx: &SimCtx, role: WihdRole, array_seed: u64) -> WihdDev {
        let array = PhasedArray::new(ArrayConfig::wihd_24(array_seed));
        WihdDev {
            role,
            codebook: Codebook::directional_default(ctx, &array),
            peer: None,
            paired: false,
            tx_sector: 0,
            queue_bytes: 0,
            bursting: false,
            video_on: true,
            next_beacon_at: SimTime::ZERO,
        }
    }
}

/// Personality of a device. The WiGig state is boxed: it carries two full
/// codebooks (~hundreds of KB of sampled patterns) and would bloat every
/// `Device` otherwise.
#[derive(Debug)]
pub enum DevKind {
    /// WiGig (D5000 dock or laptop station).
    Wigig(Box<WigigDev>),
    /// WiHD (DVDO source or sink).
    Wihd(Box<WihdDev>),
}

/// A device in the network.
#[derive(Debug)]
pub struct Device {
    /// Position and orientation.
    pub node: RadioNode,
    /// Conducted-power offset relative to the environment budget, dB.
    /// Starts at its kind's constant (`WIGIG_TX_POWER_OFFSET_DB` or
    /// `WIHD_TX_POWER_OFFSET_DB`); power control and per-unit spread
    /// adjust it.
    pub tx_power_offset_db: f64,
    /// Carrier-sense threshold this device operates with, dBm. Starts at
    /// [`CS_THRESHOLD_DBM`]; the §5 MAC-behaviour switching prototype sets
    /// it per device.
    pub cs_threshold_dbm: f64,
    /// Personality and protocol state.
    pub kind: DevKind,
    /// Counters.
    pub stats: DevStats,
}

impl Device {
    fn new(
        label: &str,
        pos: Point,
        facing: Angle,
        tx_power_offset_db: f64,
        kind: DevKind,
    ) -> Device {
        Device {
            node: RadioNode::new(0, label, pos, facing),
            tx_power_offset_db,
            cs_threshold_dbm: CS_THRESHOLD_DBM,
            kind,
            stats: DevStats::default(),
        }
    }

    /// A docking station (canonical array seed `mmwave_phy::calib::DOCK_SEED`
    /// unless varied). Codebooks come from `ctx`'s per-context cache.
    pub fn wigig_dock(
        ctx: &SimCtx,
        label: &str,
        pos: Point,
        facing: Angle,
        array_seed: u64,
    ) -> Device {
        let dev = WigigDev::new(ctx, WigigConfig::dock(), WigigRole::Dock, array_seed);
        let kind = DevKind::Wigig(Box::new(dev));
        Device::new(label, pos, facing, WIGIG_TX_POWER_OFFSET_DB, kind)
    }

    /// A laptop station (canonical array seed
    /// `mmwave_phy::calib::LAPTOP_SEED` unless varied).
    pub fn wigig_laptop(
        ctx: &SimCtx,
        label: &str,
        pos: Point,
        facing: Angle,
        array_seed: u64,
    ) -> Device {
        let dev = WigigDev::new(ctx, WigigConfig::laptop(), WigigRole::Station, array_seed);
        let kind = DevKind::Wigig(Box::new(dev));
        Device::new(label, pos, facing, WIGIG_TX_POWER_OFFSET_DB, kind)
    }

    /// A WiHD video source (canonical seed `mmwave_phy::calib::WIHD_TX_SEED`).
    pub fn wihd_source(
        ctx: &SimCtx,
        label: &str,
        pos: Point,
        facing: Angle,
        array_seed: u64,
    ) -> Device {
        let kind = DevKind::Wihd(Box::new(WihdDev::new(ctx, WihdRole::Source, array_seed)));
        Device::new(label, pos, facing, WIHD_TX_POWER_OFFSET_DB, kind)
    }

    /// A WiHD video sink (canonical seed `mmwave_phy::calib::WIHD_RX_SEED`).
    pub fn wihd_sink(
        ctx: &SimCtx,
        label: &str,
        pos: Point,
        facing: Angle,
        array_seed: u64,
    ) -> Device {
        let kind = DevKind::Wihd(Box::new(WihdDev::new(ctx, WihdRole::Sink, array_seed)));
        Device::new(label, pos, facing, WIHD_TX_POWER_OFFSET_DB, kind)
    }

    /// Resolve a pattern key against this device's codebooks.
    pub fn pattern(&self, key: PatKey) -> &AntennaPattern {
        match (&self.kind, key) {
            (DevKind::Wigig(w), PatKey::Dir(i)) => &w.codebook.sector(i).pattern,
            (DevKind::Wigig(w), PatKey::Qo(i)) => &w.qo.sector(i).pattern,
            (DevKind::Wihd(w), PatKey::Dir(i)) => &w.codebook.sector(i).pattern,
            // WiHD has no dedicated quasi-omni set; discovery reuses its
            // (already wide) sectors in shuffled order.
            (DevKind::Wihd(w), PatKey::Qo(i)) => &w.codebook.sector(i % w.codebook.len()).pattern,
        }
    }

    /// Stable cache identity of the pattern `key` resolves to — equal ids
    /// on one device always denote identical pattern samples. Directional
    /// sectors map to their index; WiGig quasi-omni entries carry a flag
    /// bit (they live in a separate codebook); the WiHD quasi-omni alias
    /// folds onto the directional sector that [`Device::pattern`] resolves
    /// it to, so the cache sees through the aliasing. Ids fit the cache's
    /// 16-bit field: indices below 2¹⁵ plus the flag at bit 15.
    pub fn pat_id(&self, key: PatKey) -> mmwave_channel::PatId {
        const QO_BIT: u32 = 1 << 15;
        let index = |i: usize| {
            assert!(
                i < QO_BIT as usize,
                "pattern index {i} collides with the quasi-omni flag"
            );
            i as u32
        };
        mmwave_channel::PatId(match (&self.kind, key) {
            (DevKind::Wigig(_), PatKey::Dir(i)) => index(i),
            (DevKind::Wigig(_), PatKey::Qo(i)) => QO_BIT | index(i),
            (DevKind::Wihd(_), PatKey::Dir(i)) => index(i),
            (DevKind::Wihd(w), PatKey::Qo(i)) => index(i % w.codebook.len()),
        })
    }

    /// The pattern this device currently listens with: its trained sector
    /// when associated/paired, a quasi-omni otherwise.
    pub fn listen_key(&self) -> PatKey {
        match &self.kind {
            DevKind::Wigig(w) => {
                if w.state == WigigState::Associated {
                    PatKey::Dir(w.tx_sector)
                } else {
                    PatKey::Qo(0)
                }
            }
            DevKind::Wihd(w) => PatKey::Dir(w.tx_sector),
        }
    }

    /// Shorthand accessors.
    pub fn wigig(&self) -> Option<&WigigDev> {
        match &self.kind {
            DevKind::Wigig(w) => Some(w),
            _ => None,
        }
    }

    /// Mutable WiGig state, if this is a WiGig device.
    pub fn wigig_mut(&mut self) -> Option<&mut WigigDev> {
        match &mut self.kind {
            DevKind::Wigig(w) => Some(w),
            _ => None,
        }
    }

    /// WiHD state, if this is a WiHD device.
    pub fn wihd(&self) -> Option<&WihdDev> {
        match &self.kind {
            DevKind::Wihd(w) => Some(w),
            _ => None,
        }
    }

    /// Mutable WiHD state, if this is a WiHD device.
    pub fn wihd_mut(&mut self) -> Option<&mut WihdDev> {
        match &mut self.kind {
            DevKind::Wihd(w) => Some(w),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let d = Device::wigig_dock(
            &SimCtx::new(),
            "dock",
            Point::new(0.0, 0.0),
            Angle::ZERO,
            13,
        );
        assert!(d.wigig().is_some());
        assert!(d.wihd().is_none());
        assert_eq!(d.wigig().expect("wigig").role, WigigRole::Dock);
        let s = Device::wihd_source(&SimCtx::new(), "tx", Point::new(1.0, 0.0), Angle::ZERO, 21);
        assert!(s.wihd().is_some());
        assert_eq!(s.wihd().expect("wihd").role, WihdRole::Source);
        assert!(s.tx_power_offset_db > 0.0, "WiHD runs hotter");
    }

    #[test]
    fn pattern_resolution() {
        let d = Device::wigig_dock(
            &SimCtx::new(),
            "dock",
            Point::new(0.0, 0.0),
            Angle::ZERO,
            13,
        );
        let dir = d.pattern(PatKey::Dir(16));
        let qo = d.pattern(PatKey::Qo(3));
        assert!(dir.peak().gain_dbi > qo.peak().gain_dbi);
    }

    #[test]
    fn listen_key_follows_state() {
        let mut d = Device::wigig_laptop(
            &SimCtx::new(),
            "laptop",
            Point::new(0.0, 0.0),
            Angle::ZERO,
            11,
        );
        assert_eq!(d.listen_key(), PatKey::Qo(0));
        {
            let w = d.wigig_mut().expect("wigig");
            w.state = WigigState::Associated;
            w.tx_sector = 7;
        }
        assert_eq!(d.listen_key(), PatKey::Dir(7));
    }

    #[test]
    fn wihd_qo_key_wraps() {
        let d = Device::wihd_sink(&SimCtx::new(), "rx", Point::new(0.0, 0.0), Angle::ZERO, 22);
        // Out-of-range quasi-omni index wraps instead of panicking.
        let _ = d.pattern(PatKey::Qo(1000));
    }

    #[test]
    fn pat_ids_alias_exactly_when_patterns_do() {
        // WiGig: quasi-omni 0 and sector 0 are different patterns and must
        // get different ids.
        let w = Device::wigig_laptop(
            &SimCtx::new(),
            "laptop",
            Point::new(0.0, 0.0),
            Angle::ZERO,
            11,
        );
        assert_ne!(w.pat_id(PatKey::Qo(0)), w.pat_id(PatKey::Dir(0)));
        assert_ne!(w.pat_id(PatKey::Dir(1)), w.pat_id(PatKey::Dir(2)));
        // WiHD: Qo(i) resolves to the directional sector i % len, so the
        // ids must collapse the same way the patterns do.
        let h = Device::wihd_sink(&SimCtx::new(), "rx", Point::new(0.0, 0.0), Angle::ZERO, 22);
        let n = h.wihd().expect("wihd").codebook.len();
        assert_eq!(h.pat_id(PatKey::Qo(n + 2)), h.pat_id(PatKey::Dir(2)));
        assert!(std::ptr::eq(
            h.pattern(PatKey::Qo(n + 2)),
            h.pattern(PatKey::Dir(2))
        ));
    }

    #[test]
    #[should_panic(expected = "collides with the quasi-omni flag")]
    fn pat_id_refuses_an_index_that_would_alias_the_flag() {
        let w = Device::wigig_laptop(
            &SimCtx::new(),
            "laptop",
            Point::new(0.0, 0.0),
            Angle::ZERO,
            11,
        );
        w.pat_id(PatKey::Dir(1 << 15));
    }
}
