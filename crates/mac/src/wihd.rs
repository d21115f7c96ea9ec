//! The WiHD (DVDO Air-3c) protocol model.
//!
//! Sink-driven TDD, as observed in §4.1 / Fig. 15: the sink emits beacons
//! every 224 µs; after a beacon, the source transmits queued video data as
//! a train of variable-length frames with no acknowledgements — and,
//! crucially, **without any carrier sensing**, which is what makes this
//! system the interferer of §4.4.

use crate::device::PatKey;
use crate::frame::{Frame, FrameKind};
use crate::medium::ActiveTx;
use crate::net::{DeferredFrame, DeferredKind, Net, NetEv};
use crate::params::{
    DATA_PHY_OVERHEAD, SIFS, WIHD_BEACON_GUARD, WIHD_BEACON_INTERVAL, WIHD_DISCOVERY_INTERVAL,
    WIHD_DISCOVERY_SUB_DURATION, WIHD_DISCOVERY_SUB_ELEMENTS, WIHD_MAX_DATA_DURATION,
    WIHD_PHY_RATE_BPS, WIHD_SBIFS, WIHD_VIDEO_FRAME_INTERVAL, WIHD_VIDEO_RATE_BPS,
};
use mmwave_sim::time::SimDuration;

/// Margin over control sensitivity for pairing reachability.
const PAIRING_MARGIN_DB: f64 = 3.0;

/// Unpaired source: sweep discovery sub-elements in shuffled order
/// (§4.2: "their order changes with every transmitted device discovery
/// frame"), then check whether the sink responded.
pub(crate) fn on_discovery_tick(net: &mut Net, dev: usize) {
    let Some(w) = net.devices[dev].wihd() else {
        return;
    };
    if w.paired {
        return;
    }
    // Shuffled pattern order, fresh each frame.
    let mut order: Vec<usize> = (0..WIHD_DISCOVERY_SUB_ELEMENTS).collect();
    for i in (1..order.len()).rev() {
        let j = (net.rng.next_u64() % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    let now = net.now();
    net.devices[dev].stats.discovery_sweeps += 1;
    for (slot, &pattern_idx) in order.iter().enumerate() {
        let seq = net.next_seq();
        let pattern = PatKey::Qo(pattern_idx);
        let frame = DeferredFrame::new(dev, None, DeferredKind::DiscoverySub, seq, pattern);
        if slot == 0 {
            net.start_deferred_tx(frame);
        } else {
            let at = now + WIHD_DISCOVERY_SUB_DURATION * slot as u32;
            net.queue.schedule(at, NetEv::SendFrame(frame));
        }
    }
    // Pairing check shortly after the sweep completes.
    let sweep_end = now + WIHD_DISCOVERY_SUB_DURATION * WIHD_DISCOVERY_SUB_ELEMENTS as u32;
    let peer = net.devices[dev].wihd().expect("wihd").peer;
    let reachable = match peer {
        Some(p) => {
            let r = net.train_pair(dev, p);
            let sens = net.mcs_table.control().sensitivity_dbm;
            r.rx_dbm >= sens + PAIRING_MARGIN_DB
        }
        None => false,
    };
    if let (Some(sink), true) = (peer, reachable) {
        net.queue.schedule(
            sweep_end + SimDuration::from_millis(2),
            NetEv::WihdPairComplete { source: dev, sink },
        );
    } else {
        net.queue.schedule(
            now + WIHD_DISCOVERY_INTERVAL,
            NetEv::WihdDiscoveryTick { dev },
        );
    }
}

/// Train the pair, mark both paired, start beacon and video timers.
pub(crate) fn complete_pairing(net: &mut Net, source: usize, sink: usize) {
    if net.devices[source].wihd().map(|w| w.paired).unwrap_or(true) {
        return;
    }
    let result = net.train_pair(source, sink);
    {
        let w = net.devices[source].wihd_mut().expect("source is wihd");
        w.paired = true;
        w.tx_sector = result.a_sector;
        w.peer = Some(sink);
    }
    {
        let w = net.devices[sink].wihd_mut().expect("sink is wihd");
        w.paired = true;
        w.tx_sector = result.b_sector;
        w.peer = Some(source);
    }
    net.devices[source].stats.retrains += 1;
    net.devices[sink].stats.retrains += 1;
    let now = net.now();
    net.queue.schedule(
        now + WIHD_BEACON_INTERVAL,
        NetEv::WihdBeaconTick { dev: sink },
    );
    net.queue.schedule(
        now + WIHD_VIDEO_FRAME_INTERVAL,
        NetEv::WihdVideoTick { dev: source },
    );
}

/// Sink beacon: emitted blindly on the fixed 224 µs grid.
pub(crate) fn on_beacon_tick(net: &mut Net, dev: usize) {
    let (paired, peer, sector) = {
        let Some(w) = net.devices[dev].wihd() else {
            return;
        };
        (w.paired, w.peer, w.tx_sector)
    };
    if !paired {
        return;
    }
    let now = net.now();
    // Record the grid so the source knows when to stop a burst.
    if let Some(w) = net.devices[dev].wihd_mut() {
        w.next_beacon_at = now + WIHD_BEACON_INTERVAL;
    }
    if let Some(peer) = peer {
        let seq = net.next_seq();
        let frame = Frame {
            src: dev,
            dst: Some(peer),
            kind: FrameKind::WihdBeacon,
            seq,
        };
        net.devices[dev].stats.beacons_tx += 1;
        net.start_tx(frame, PatKey::Dir(sector));
    }
    net.queue
        .schedule(now + WIHD_BEACON_INTERVAL, NetEv::WihdBeaconTick { dev });
}

/// A new video frame enters the source queue (VBR around the mean rate).
pub(crate) fn on_video_tick(net: &mut Net, dev: usize) {
    let (paired, video_on) = {
        let Some(w) = net.devices[dev].wihd() else {
            return;
        };
        (w.paired, w.video_on)
    };
    if !paired {
        return;
    }
    if video_on {
        let mean_bytes = WIHD_VIDEO_RATE_BPS as f64 * WIHD_VIDEO_FRAME_INTERVAL.as_secs_f64() / 8.0;
        let bytes = net.rng.normal(mean_bytes, 0.15 * mean_bytes).max(0.0) as u64;
        if let Some(w) = net.devices[dev].wihd_mut() {
            // Bound the backlog: a real encoder drops frames rather than
            // buffering unboundedly.
            w.queue_bytes = (w.queue_bytes + bytes).min(4 * mean_bytes as u64);
        }
    }
    let now = net.now();
    net.queue.schedule(
        now + WIHD_VIDEO_FRAME_INTERVAL,
        NetEv::WihdVideoTick { dev },
    );
}

/// Transmit the next queued data frame (no carrier sense, no ACKs).
pub(crate) fn send_next(net: &mut Net, dev: usize) {
    let (queue, peer, sector, video_on) = {
        let Some(w) = net.devices[dev].wihd() else {
            return;
        };
        (w.queue_bytes, w.peer, w.tx_sector, w.video_on)
    };
    let Some(peer) = peer else { return };
    if queue == 0 || !video_on {
        if let Some(w) = net.devices[dev].wihd_mut() {
            w.bursting = false;
        }
        return;
    }
    let max_bytes = WIHD_MAX_DATA_DURATION
        .saturating_sub(DATA_PHY_OVERHEAD)
        .bits_at(WIHD_PHY_RATE_BPS)
        / 8;
    let bytes = queue.min(max_bytes) as u32;
    // Respect the beacon grid: stop the burst if this frame would overrun.
    let next_beacon = net.devices[peer]
        .wihd()
        .map(|w| w.next_beacon_at)
        .unwrap_or_default();
    let frame_dur = DATA_PHY_OVERHEAD + SimDuration::for_bits(bytes as u64 * 8, WIHD_PHY_RATE_BPS);
    let now = net.now();
    if next_beacon > now && now + frame_dur + WIHD_BEACON_GUARD > next_beacon {
        if let Some(w) = net.devices[dev].wihd_mut() {
            w.bursting = false;
        }
        return;
    }
    if let Some(w) = net.devices[dev].wihd_mut() {
        w.queue_bytes -= bytes as u64;
        w.bursting = true;
    }
    let seq = net.next_seq();
    let frame = Frame {
        src: dev,
        dst: Some(peer),
        kind: FrameKind::WihdData { bytes },
        seq,
    };
    net.devices[dev].stats.data_tx += 1;
    net.start_tx(frame, PatKey::Dir(sector));
}

/// WiHD frame completions.
pub(crate) fn on_frame_end(net: &mut Net, tx: &ActiveTx, delivered: Option<bool>) {
    match &tx.frame.kind {
        FrameKind::WihdBeacon => {
            // A beacon prompts the source to burst if it has data. The
            // source reacts even if the beacon decoding failed: the grid
            // timing is known after pairing (and real WiHD sources keep
            // streaming through corrupted beacons).
            let source = tx.frame.dst.expect("beacon addressed to source");
            let has_data = net.devices[source]
                .wihd()
                .map(|w| w.paired && w.queue_bytes > 0 && w.video_on)
                .unwrap_or(false);
            if has_data {
                let at = net.now() + SIFS;
                net.queue.schedule(at, NetEv::WihdSendNext { dev: source });
            }
        }
        FrameKind::WihdData { bytes } => {
            if delivered == Some(true) {
                let sink = tx.frame.dst.expect("data addressed");
                net.devices[sink].stats.bytes_rx += *bytes as u64;
                net.devices[sink].stats.mpdus_rx += 1;
            }
            // Continue the burst back-to-back.
            let src = tx.frame.src;
            let bursting = net.devices[src].wihd().map(|w| w.bursting).unwrap_or(false);
            if bursting {
                let at = net.now() + WIHD_SBIFS;
                net.queue.schedule(at, NetEv::WihdSendNext { dev: src });
            }
        }
        _ => {}
    }
}
