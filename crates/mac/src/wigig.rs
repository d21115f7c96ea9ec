//! The WiGig (Dell D5000 + laptop) protocol state machine.
//!
//! Implements the three phases §4.1 identifies: device discovery
//! (32-sub-element quasi-omni sweeps every 102.4 ms), association with
//! beam training, and the data phase — CSMA/CA TXOP bursts capped at 2 ms,
//! opened by RTS/CTS, carrying A-MPDU data/ACK exchanges, with a 1.1 ms
//! beacon exchange that doubles as the SNR probe and beam-realignment
//! hook (the joint rate/beam process inferred from Fig. 14).

use crate::device::{PatKey, WigigState};
use crate::frame::{airtime, Frame, FrameKind};
use crate::medium::ActiveTx;
use crate::net::{DeferredFrame, DeferredKind, Delivery, Net, NetEv};
use crate::params::{
    ACK_TIMEOUT, AIFS, CTS_GRANT_THRESHOLD_DBM, CW_AFTER_LINK_BREAK, CW_MAX, CW_MIN,
    DATA_PHY_OVERHEAD, MAX_PPDU_DURATION, MAX_QUEUE_WAIT, MIN_LINK_SNR_DB, MPDU_OVERHEAD_BYTES,
    RETRY_LIMIT, SIFS, SLOT, WIGIG_BEACON_INTERVAL, WIGIG_DISCOVERY_INTERVAL,
    WIGIG_DISCOVERY_SUB_DURATION, WIGIG_DISCOVERY_SUB_ELEMENTS,
};
use mmwave_geom::Angle;
use mmwave_sim::time::SimDuration;

/// Sensitivity margin (dB over the control-PHY sensitivity) required for a
/// discovery frame to be considered heard.
const DISCOVERY_MARGIN_DB: f64 = 3.0;

/// Consecutive ACK timeouts before a loss-triggered recovery probe. The
/// required streak doubles with every recovery attempt already spent
/// (bounded retry backoff), so a link that keeps collapsing probes less
/// and less eagerly before the budget runs out.
const LOSS_RETRAIN_STREAK: u8 = 3;

/// Consecutive undelivered beacons before a loss-triggered recovery probe
/// (idle links have no ACK stream; beacon loss is their only loss signal).
const BEACON_LOSS_STREAK: u8 = 4;

/// Recovery probes that actually found the beam collapsed (SNR below the
/// sustain threshold) before the link is declared down instead of retrained
/// again.
const LOSS_RECOVERY_BUDGET: u8 = 3;

// ---------------------------------------------------------------------
// Discovery and association
// ---------------------------------------------------------------------

/// Emit one 32-sub-element discovery sweep and schedule the next tick.
pub(crate) fn on_discovery_tick(net: &mut Net, dev: usize) {
    let Some(w) = net.devices[dev].wigig() else {
        return;
    };
    if w.state != WigigState::Unassociated {
        return; // associated meanwhile; sweeps stop
    }
    net.devices[dev].stats.discovery_sweeps += 1;
    let now = net.now();
    for i in 0..WIGIG_DISCOVERY_SUB_ELEMENTS {
        let seq = net.next_seq();
        let frame = DeferredFrame::new(dev, None, DeferredKind::DiscoverySub, seq, PatKey::Qo(i));
        if i == 0 {
            net.start_deferred_tx(frame);
        } else {
            let at = now + WIGIG_DISCOVERY_SUB_DURATION * i as u32;
            net.queue.schedule(at, NetEv::SendFrame(frame));
        }
    }
    net.queue
        .schedule(now + WIGIG_DISCOVERY_INTERVAL, NetEv::DiscoveryTick { dev });
}

/// After the last sub-element: did the pre-wired peer hear the sweep?
fn check_discovery_response(net: &mut Net, dock: usize) {
    let Some(w) = net.devices[dock].wigig() else {
        return;
    };
    if w.state != WigigState::Unassociated {
        return;
    }
    let Some(station) = w.peer else { return };
    if net.devices[station]
        .wigig()
        .map(|s| s.state != WigigState::Unassociated)
        .unwrap_or(true)
    {
        return;
    }
    // Reachability check: the best trained pair must promise a
    // *sustainable* link (the same criterion that breaks links — otherwise
    // a just-broken link would instantly re-associate and flap).
    let result = net.train_pair(dock, station);
    let snr = result.rx_dbm - net.env.noise_floor_dbm();
    if snr < MIN_LINK_SNR_DB + DISCOVERY_MARGIN_DB {
        return; // out of range; keep sweeping
    }
    // Handshake: a short exchange of training frames, then association.
    for (i, (src, dst)) in [
        (station, dock),
        (dock, station),
        (station, dock),
        (dock, station),
    ]
    .into_iter()
    .enumerate()
    {
        let seq = net.next_seq();
        let frame = DeferredFrame::new(src, Some(dst), DeferredKind::Training, seq, PatKey::Qo(0));
        let at = net.now() + SimDuration::from_micros(120 * (i as u64 + 1));
        net.queue.schedule(at, NetEv::SendFrame(frame));
    }
    for d in [dock, station] {
        if let Some(w) = net.devices[d].wigig_mut() {
            w.state = WigigState::Associating;
        }
    }
    let at = net.now() + SimDuration::from_millis(1);
    net.queue
        .schedule(at, NetEv::AssocComplete { dock, station });
}

/// Train the sector pair and enter the data phase.
pub(crate) fn complete_association(net: &mut Net, dock: usize, station: usize) {
    let result = net.train_pair(dock, station);
    {
        let w = net.devices[dock].wigig_mut().expect("dock is wigig");
        w.state = WigigState::Associated;
        w.tx_sector = result.a_sector;
        w.peer = Some(station);
        net.devices[dock].stats.retrains += 1;
    }
    {
        let w = net.devices[station].wigig_mut().expect("station is wigig");
        w.state = WigigState::Associated;
        w.tx_sector = result.b_sector;
        w.peer = Some(dock);
        net.devices[station].stats.retrains += 1;
    }
    update_link_snr(net, dock, station);
    update_link_snr(net, station, dock);
    let at = net.now() + WIGIG_BEACON_INTERVAL;
    net.queue.schedule(at, NetEv::BeaconTick { dev: dock });
    // Data may already be queued.
    for d in [dock, station] {
        maybe_contend(net, d, SimDuration::ZERO);
    }
}

/// Measure the trained-link SNR at `me` (signal from `peer`) and feed the
/// rate adapter.
fn update_link_snr(net: &mut Net, me: usize, peer: usize) {
    update_link_snr_inner(net, me, peer, true);
}

fn update_link_snr_inner(net: &mut Net, me: usize, peer: usize, allow_retrain: bool) {
    let snr = net.trained_snr_db(me, peer);
    let noise = net.env.noise_floor_dbm();
    if let Some(w) = net.devices[me].wigig_mut() {
        w.adapter.on_snr(snr, noise);
    }
    if snr < MIN_LINK_SNR_DB {
        // The current beam pair is no longer sustainable. Before giving
        // the link up, retrain once — the channel may have changed (e.g.
        // blockage) while a usable reflection path exists.
        if allow_retrain {
            let best = net.train_pair(me, peer);
            if best.rx_dbm - noise >= MIN_LINK_SNR_DB {
                retrain(net, me, peer);
                return;
            }
        }
        break_link(net, me, peer);
    }
}

/// Tear an association down: both sides return to the discovery phase.
/// The dock's next sweep may re-associate if conditions recover.
pub(crate) fn break_link(net: &mut Net, a: usize, b: usize) {
    use crate::device::WigigRole;
    for d in [a, b] {
        let lost_tags: Vec<u64> = {
            let Some(w) = net.devices[d].wigig_mut() else {
                continue;
            };
            if w.state != WigigState::Associated {
                continue;
            }
            w.state = WigigState::Unassociated;
            w.in_txop = false;
            w.contending = false;
            w.retry = 0;
            w.cw = CW_AFTER_LINK_BREAK;
            w.ack_fail_streak = 0;
            w.beacon_fail_streak = 0;
            w.loss_recovery_attempts = 0;
            // Clearing the pending exchanges supersedes their timeouts.
            w.pending_cts = None;
            let mut lost: Vec<u64> = w.queue.drain(..).map(|m| m.tag).collect();
            if let Some(aa) = w.awaiting_ack.take() {
                lost.extend(aa.mpdus.iter().map(|m| m.tag));
                net.mpdu_pool.put(aa.mpdus);
            }
            lost
        };
        if !lost_tags.is_empty() {
            net.devices[d].stats.drops += 1;
            net.delivered.push(Delivery::Dropped {
                dev: d,
                tags: lost_tags,
            });
        }
        let is_dock = net.devices[d]
            .wigig()
            .map(|w| w.role == WigigRole::Dock)
            .unwrap_or(false);
        if is_dock {
            let at = net.now() + WIGIG_DISCOVERY_INTERVAL;
            net.queue.schedule(at, NetEv::DiscoveryTick { dev: d });
        }
    }
}

// ---------------------------------------------------------------------
// Beacons and realignment
// ---------------------------------------------------------------------

/// The dock-driven 1.1 ms beacon exchange.
pub(crate) fn on_beacon_tick(net: &mut Net, dev: usize) {
    let (state, peer) = {
        let Some(w) = net.devices[dev].wigig() else {
            return;
        };
        (w.state, w.peer)
    };
    if state != WigigState::Associated {
        return;
    }
    let Some(peer) = peer else { return };

    // Perturbation poll: sparse events jitter the peer's orientation and
    // trigger a retrain — the Fig. 14 realignment mechanism.
    if net.cfg.enable_perturbations {
        let key = (dev.min(peer), dev.max(peer));
        let now = net.now();
        let seed = net.cfg.seed;
        let process = net.perturb.entry(key).or_insert_with(|| {
            mmwave_channel::PerturbationProcess::fig14_default(
                mmwave_sim::rng::SimRng::root(seed)
                    .stream_n("perturb", (key.0 as u64) << 32 | key.1 as u64),
            )
        });
        let events = process.poll(now);
        if !events.is_empty() {
            let jitter = net.rng.normal(0.0, 2.0);
            let station = peer;
            let new_orientation =
                net.devices[station].node.orientation + Angle::from_degrees(jitter);
            let pos = net.devices[station].node.position;
            net.move_device(station, pos, new_orientation);
            retrain(net, dev, station);
        }
    }

    // Beacons go out *between* bursts ("outside the bursts, the channel
    // is idle except for a regular beacon exchange") — defer while this
    // device is mid-exchange or the medium is not AIFS-idle.
    let mid_exchange = {
        let w = net.devices[dev].wigig().expect("wigig");
        w.in_txop || w.awaiting_ack.is_some() || w.pending_cts.is_some()
    };
    let idle = net
        .medium
        .idle_for(dev, net.devices[dev].cs_threshold_dbm, net.now(), SIFS);
    if net.medium.is_transmitting(dev) || mid_exchange || !idle {
        let at = net.now() + SimDuration::from_micros(53);
        net.queue.schedule(at, NetEv::BeaconTick { dev });
        return;
    }
    let seq = net.next_seq();
    let beacon_idx = (seq % 32) as usize;
    let frame = Frame {
        src: dev,
        dst: Some(peer),
        kind: FrameKind::Beacon,
        seq,
    };
    net.devices[dev].stats.beacons_tx += 1;
    net.start_tx(frame, PatKey::Qo(beacon_idx));
    let at = net.now() + WIGIG_BEACON_INTERVAL;
    net.queue.schedule(at, NetEv::BeaconTick { dev });
}

/// Re-run beam training on an established link (realignment).
fn retrain(net: &mut Net, a: usize, b: usize) {
    let result = net.train_pair(a, b);
    if let Some(w) = net.devices[a].wigig_mut() {
        w.tx_sector = result.a_sector;
    }
    if let Some(w) = net.devices[b].wigig_mut() {
        w.tx_sector = result.b_sector;
    }
    net.devices[a].stats.retrains += 1;
    net.devices[b].stats.retrains += 1;
    update_link_snr_inner(net, a, b, false);
    update_link_snr_inner(net, b, a, false);
}

// ---------------------------------------------------------------------
// Loss-triggered recovery
// ---------------------------------------------------------------------

/// A frame-loss streak crossed its threshold: probe the trained link.
///
/// If the trained-pair SNR still clears the sustain threshold, the losses
/// were collisions or interference, not beam failure — reset the streaks
/// and spend no recovery budget (CSMA backoff already handles contention).
/// If the beam really collapsed (blockage, misalignment), burn one budget
/// unit and retrain; [`update_link_snr_inner`] switches to the best
/// surviving pair (e.g. a wall reflection) or, if nothing sustains the
/// link, tears it down. Budget exhaustion forces the teardown directly:
/// explicit link-down → rediscovery instead of a silent retrain loop.
fn loss_recovery(net: &mut Net, me: usize, peer: usize) {
    let state_ok = net.devices[me]
        .wigig()
        .map(|w| w.state == WigigState::Associated)
        .unwrap_or(false);
    if !state_ok {
        return;
    }
    if net.trained_snr_db(me, peer) >= MIN_LINK_SNR_DB {
        if let Some(w) = net.devices[me].wigig_mut() {
            w.ack_fail_streak = 0;
            w.beacon_fail_streak = 0;
        }
        return;
    }
    let attempts = {
        let Some(w) = net.devices[me].wigig_mut() else {
            return;
        };
        w.ack_fail_streak = 0;
        w.beacon_fail_streak = 0;
        w.loss_recovery_attempts = w.loss_recovery_attempts.saturating_add(1);
        w.loss_recovery_attempts
    };
    if attempts > LOSS_RECOVERY_BUDGET {
        break_link(net, me, peer);
    } else {
        update_link_snr_inner(net, me, peer, true);
    }
}

/// Loss streaks trigger recovery at a threshold that doubles with every
/// recovery attempt already spent — the bounded retry backoff.
fn streak_threshold(base: u8, attempts: u8) -> u8 {
    base.saturating_mul(1 << attempts.min(4))
}

/// Count one ACK timeout towards the loss streak; probe when it crosses
/// the (backoff-scaled) threshold.
fn note_ack_loss(net: &mut Net, dev: usize) {
    let trigger = {
        let Some(w) = net.devices[dev].wigig_mut() else {
            return;
        };
        if w.state != WigigState::Associated {
            return;
        }
        w.ack_fail_streak = w.ack_fail_streak.saturating_add(1);
        (w.ack_fail_streak >= streak_threshold(LOSS_RETRAIN_STREAK, w.loss_recovery_attempts))
            .then_some(w.peer)
            .flatten()
    };
    if let Some(peer) = trigger {
        loss_recovery(net, dev, peer);
    }
}

/// Count one undelivered beacon towards the sender's loss streak.
fn note_beacon_loss(net: &mut Net, dev: usize) {
    let trigger = {
        let Some(w) = net.devices[dev].wigig_mut() else {
            return;
        };
        if w.state != WigigState::Associated {
            return;
        }
        w.beacon_fail_streak = w.beacon_fail_streak.saturating_add(1);
        (w.beacon_fail_streak >= streak_threshold(BEACON_LOSS_STREAK, w.loss_recovery_attempts))
            .then_some(w.peer)
            .flatten()
    };
    if let Some(peer) = trigger {
        loss_recovery(net, dev, peer);
    }
}

// ---------------------------------------------------------------------
// TXOP bursts
// ---------------------------------------------------------------------

/// Schedule a contention attempt after `extra` delay if the device is idle
/// and has queued data.
pub(crate) fn maybe_contend(net: &mut Net, dev: usize, extra: SimDuration) {
    let now = net.now();
    let Some(w) = net.devices[dev].wigig_mut() else {
        return;
    };
    if w.state == WigigState::Associated
        && !w.queue.is_empty()
        && !w.in_txop
        && !w.contending
        && w.awaiting_ack.is_none()
        && w.pending_cts.is_none()
    {
        w.contending = true;
        net.queue
            .schedule(now + AIFS + extra, NetEv::TxopAttempt { dev });
    }
}

/// CSMA attempt to open a TXOP.
pub(crate) fn on_txop_attempt(net: &mut Net, dev: usize) {
    let now = net.now();
    let (ready, batch_wait_until, peer, sector, cw) = {
        let Some(w) = net.devices[dev].wigig_mut() else {
            return;
        };
        w.contending = false;
        let ready = w.state == WigigState::Associated
            && !w.queue.is_empty()
            && !w.in_txop
            && w.awaiting_ack.is_none()
            && w.pending_cts.is_none();
        // Batch service: hold back until the batch fills or the head of
        // the queue has waited long enough.
        let batch_wait_until = if ready
            && w.queue.len() < w.cfg.min_aggregation
            && now < w.oldest_wait_start + MAX_QUEUE_WAIT
        {
            Some(w.oldest_wait_start + MAX_QUEUE_WAIT)
        } else {
            None
        };
        (ready, batch_wait_until, w.peer, w.tx_sector, w.cw)
    };
    if !ready {
        return;
    }
    if let Some(at) = batch_wait_until {
        if let Some(w) = net.devices[dev].wigig_mut() {
            w.contending = true;
        }
        net.queue.schedule(at, NetEv::TxopAttempt { dev });
        return;
    }
    let Some(peer) = peer else { return };

    // Proper CSMA: the channel must have been idle for a full AIFS, not
    // merely at this instant (otherwise attempts landing inside the SIFS
    // gaps of a peer's burst collide with the next burst frame).
    let busy = !net
        .medium
        .idle_for(dev, net.devices[dev].cs_threshold_dbm, net.now(), AIFS)
        || net.medium.is_transmitting(dev);
    if busy {
        // Defer: retry after AIFS + random backoff.
        net.devices[dev].stats.cs_defers += 1;
        let slots = 1 + (net.rng.next_u64() % cw as u64) as u32;
        let delay = AIFS + SLOT * slots;
        let now = net.now();
        if let Some(w) = net.devices[dev].wigig_mut() {
            w.contending = true;
        }
        net.queue.schedule(now + delay, NetEv::TxopAttempt { dev });
        return;
    }

    // Open the TXOP with an RTS.
    {
        let now = net.now();
        let w = net.devices[dev].wigig_mut().expect("wigig");
        w.in_txop = true;
        w.txop_start = now;
    }
    let seq = net.next_seq();
    let frame = Frame {
        src: dev,
        dst: Some(peer),
        kind: FrameKind::Rts,
        seq,
    };
    let (_, end) = net.start_tx(frame, PatKey::Dir(sector));
    let cts_dur = airtime(&FrameKind::Cts, WIGIG_DISCOVERY_SUB_DURATION);
    let timeout_at = end + SIFS + cts_dur + SimDuration::from_micros(3);
    net.queue
        .schedule(timeout_at, NetEv::CtsTimeout { dev, seq });
    if let Some(w) = net.devices[dev].wigig_mut() {
        w.pending_cts = Some(seq);
    }
}

/// The RTS produced no CTS. This is *deferral*, not loss: the receiver
/// refuses the CTS while its medium is busy, so the sender backs off with
/// a bounded window and retries. Only a very long streak (a dead link)
/// drops the head-of-queue batch.
///
/// A timeout for an RTS that is no longer pending (its CTS arrived, or
/// the link broke) is superseded and changes nothing.
pub(crate) fn on_cts_timeout(net: &mut Net, dev: usize, rts_seq: u64) {
    const CTS_CW_CAP: u32 = 64;
    const CTS_DEAD_STREAK: u8 = 25;
    let dropped: Option<Vec<u64>> = {
        let Some(w) = net.devices[dev].wigig_mut() else {
            return;
        };
        if w.pending_cts != Some(rts_seq) {
            return;
        }
        w.pending_cts = None;
        w.in_txop = false;
        w.cw = (w.cw * 2).min(CTS_CW_CAP);
        w.cts_fail_streak = w.cts_fail_streak.saturating_add(1);
        if w.cts_fail_streak > CTS_DEAD_STREAK {
            w.cts_fail_streak = 0;
            let n = w.cfg.max_aggregation.min(w.queue.len());
            Some(w.queue.drain(..n).map(|m| m.tag).collect())
        } else {
            None
        }
    };
    net.devices[dev].stats.cs_defers += 1;
    if let Some(tags) = dropped {
        if !tags.is_empty() {
            net.devices[dev].stats.drops += 1;
            net.delivered.push(Delivery::Dropped { dev, tags });
        }
    }
    backoff_and_contend(net, dev);
}

fn backoff_and_contend(net: &mut Net, dev: usize) {
    let cw = net.devices[dev].wigig().map(|w| w.cw).unwrap_or(8);
    let slots = 1 + (net.rng.next_u64() % cw as u64) as u32;
    let extra = SLOT * slots;
    maybe_contend(net, dev, extra);
}

/// Send the next aggregated data PPDU of the current TXOP.
pub(crate) fn send_next_data(net: &mut Net, dev: usize) {
    let now = net.now();
    let (peer, sector, mcs, max_aggregation, mpdus) = {
        let Some(w) = net.devices[dev].wigig_mut() else {
            return;
        };
        if !w.in_txop || w.awaiting_ack.is_some() {
            return;
        }
        if w.queue.is_empty() {
            w.in_txop = false;
            return;
        }
        if w.queue.len() < w.cfg.min_aggregation && now < w.oldest_wait_start + MAX_QUEUE_WAIT {
            // Not enough for a batch: close the TXOP and let the batch
            // timer (or the threshold crossing) re-open one.
            w.in_txop = false;
            w.contending = true;
            let at = w.oldest_wait_start + MAX_QUEUE_WAIT;
            net.queue.schedule(at.max(now), NetEv::TxopAttempt { dev });
            return;
        }
        let mcs = w.adapter.current().index;
        let rate = w.adapter.current().rate_bps;
        // Aggregate as long as the PPDU stays under the duration cap and
        // the aggregation limit, into a buffer from the net's pool.
        let max_aggregation = w.cfg.max_aggregation;
        let mut mpdus = net.mpdu_pool.take(max_aggregation);
        // The cap as a payload-bit budget: `overhead + ⌈b·10⁹/r⌉ ns > cap`
        // exactly when `b > ⌊(cap − overhead)·r/10⁹⌋`, so the running bit
        // total (`data_airtime`'s sum) decides with no division per MPDU.
        let budget_bits = MAX_PPDU_DURATION
            .saturating_sub(DATA_PHY_OVERHEAD)
            .bits_at(rate);
        let mut bits: u64 = 0;
        while mpdus.len() < max_aggregation {
            let Some(&next) = w.queue.front() else { break };
            bits += (next.bytes + MPDU_OVERHEAD_BYTES) as u64 * 8;
            mpdus.push(next);
            if bits > budget_bits && mpdus.len() > 1 {
                // Over the duration cap and not the sole MPDU: the next
                // segment starts the following PPDU instead.
                mpdus.pop();
                break;
            }
            w.queue.pop_front();
        }
        // The remaining queue head starts a fresh batch-wait window.
        w.oldest_wait_start = now;
        (
            w.peer.expect("associated"),
            w.tx_sector,
            mcs,
            max_aggregation,
            mpdus,
        )
    };
    if mpdus.is_empty() {
        net.mpdu_pool.put(mpdus);
        return;
    }
    let retry = net.devices[dev].wigig().map(|w| w.retry).unwrap_or(0);
    net.devices[dev].stats.data_tx += 1;
    if retry > 0 {
        net.devices[dev].stats.data_retx += 1;
    }
    let seq = net.next_seq();
    let mut on_air = net.mpdu_pool.take(max_aggregation);
    on_air.extend_from_slice(&mpdus);
    let frame = Frame {
        src: dev,
        dst: Some(peer),
        kind: FrameKind::Data {
            mpdus: on_air,
            mcs,
            retry,
        },
        seq,
    };
    let (_, end) = net.start_tx(frame, PatKey::Dir(sector));
    let timeout_at = end + ACK_TIMEOUT;
    net.queue
        .schedule(timeout_at, NetEv::AckTimeout { dev, seq });
    if let Some(w) = net.devices[dev].wigig_mut() {
        w.awaiting_ack = Some(crate::device::AwaitingAck { mpdus, seq });
    }
}

/// ACK never arrived: count the loss, requeue or drop, back off.
///
/// A timeout for a data frame that is no longer awaiting its ACK (the ACK
/// arrived, or the link broke) is superseded and changes nothing.
pub(crate) fn on_ack_timeout(net: &mut Net, dev: usize, data_seq: u64) {
    let dropped: Option<Vec<u64>> = {
        let Some(w) = net.devices[dev].wigig_mut() else {
            return;
        };
        let Some(aa) = w.awaiting_ack.take_if(|aa| aa.seq == data_seq) else {
            return;
        };
        w.adapter.on_frame_result(false);
        w.retry += 1;
        w.cw = (w.cw * 2).min(CW_MAX);
        w.in_txop = false;
        let dropped = if w.retry > RETRY_LIMIT {
            w.retry = 0;
            Some(aa.mpdus.iter().map(|m| m.tag).collect())
        } else {
            // Requeue at the front, preserving order.
            for &m in aa.mpdus.iter().rev() {
                w.queue.push_front(m);
            }
            None
        };
        net.mpdu_pool.put(aa.mpdus);
        dropped
    };
    net.devices[dev].stats.ack_timeouts += 1;
    if let Some(tags) = dropped {
        net.devices[dev].stats.drops += 1;
        net.delivered.push(Delivery::Dropped { dev, tags });
    }
    // Loss-triggered recovery: a streak of ACK timeouts probes the beam
    // (and may retrain or tear the link down — in which case the
    // contention attempt below finds the device unassociated and no-ops).
    note_ack_loss(net, dev);
    backoff_and_contend(net, dev);
}

// ---------------------------------------------------------------------
// Frame-end dispatch
// ---------------------------------------------------------------------

/// Handle the end of any WiGig-class frame.
pub(crate) fn on_frame_end(net: &mut Net, tx: &ActiveTx, delivered: Option<bool>) {
    match &tx.frame.kind {
        FrameKind::DiscoverySub { pattern_idx }
            if *pattern_idx + 1 == WIGIG_DISCOVERY_SUB_ELEMENTS =>
        {
            check_discovery_response(net, tx.frame.src);
        }
        FrameKind::Training => {}
        FrameKind::Beacon => match delivered {
            Some(true) => {
                let me = tx.frame.dst.expect("beacons are addressed");
                let peer = tx.frame.src;
                // A delivered beacon proves the link carries frames: clear
                // the sender's loss streak and recovery budget.
                if let Some(w) = net.devices[peer].wigig_mut() {
                    w.beacon_fail_streak = 0;
                    w.loss_recovery_attempts = 0;
                }
                update_link_snr(net, me, peer);
                // The station replies to the dock's beacon (not recursively).
                let reply_is_due = net.devices[me]
                    .wigig()
                    .map(|w| w.role == crate::device::WigigRole::Station)
                    .unwrap_or(false);
                if reply_is_due && !net.medium.is_transmitting(me) {
                    let seq = net.next_seq();
                    let pattern = PatKey::Qo((seq % 32) as usize);
                    let frame =
                        DeferredFrame::new(me, Some(peer), DeferredKind::Beacon, seq, pattern);
                    let at = net.now() + SIFS;
                    net.devices[me].stats.beacons_tx += 1;
                    net.queue.schedule(at, NetEv::SendFrame(frame));
                }
            }
            Some(false) => note_beacon_loss(net, tx.frame.src),
            None => {}
        },
        FrameKind::Rts if delivered == Some(true) => {
            let responder = tx.frame.dst.expect("rts addressed");
            // Virtual carrier sense: grant the CTS only if the
            // responder's own medium is clear — this is what protects
            // the receiver from transmitters the RTS sender cannot
            // hear (the hidden-interferer case of §4.4).
            let clear = !net.medium.is_busy_for(responder, CTS_GRANT_THRESHOLD_DBM)
                && !net.medium.is_transmitting(responder);
            if clear {
                let sector = net.devices[responder]
                    .wigig()
                    .map(|w| w.tx_sector)
                    .unwrap_or(0);
                let seq = net.next_seq();
                let frame = DeferredFrame::new(
                    responder,
                    Some(tx.frame.src),
                    DeferredKind::Cts,
                    seq,
                    PatKey::Dir(sector),
                );
                let at = net.now() + SIFS;
                net.queue.schedule(at, NetEv::SendFrame(frame));
            } else {
                net.devices[responder].stats.cs_defers += 1;
            }
        }
        FrameKind::Cts if delivered == Some(true) => {
            let owner = tx.frame.dst.expect("cts addressed");
            // Clearing `pending_cts` supersedes the RTS's CTS timeout.
            let pending = net.devices[owner].wigig_mut().and_then(|w| {
                w.cts_fail_streak = 0;
                w.pending_cts.take()
            });
            if pending.is_some() {
                let at = net.now() + SIFS;
                net.queue.schedule(at, NetEv::TxopData { dev: owner });
            }
        }
        FrameKind::Data { mpdus, .. } if delivered == Some(true) => {
            let receiver = tx.frame.dst.expect("data addressed");
            for m in mpdus {
                net.devices[receiver].stats.mpdus_rx += 1;
                net.devices[receiver].stats.bytes_rx += m.bytes as u64;
                net.delivered.push(Delivery::Mpdu {
                    dev: receiver,
                    src: tx.frame.src,
                    bytes: m.bytes,
                    tag: m.tag,
                });
            }
            let sector = net.devices[receiver]
                .wigig()
                .map(|w| w.tx_sector)
                .unwrap_or(0);
            let seq = net.next_seq();
            let frame = DeferredFrame::new(
                receiver,
                Some(tx.frame.src),
                DeferredKind::Ack,
                seq,
                PatKey::Dir(sector),
            );
            let at = net.now() + SIFS;
            net.queue.schedule(at, NetEv::SendFrame(frame));
        }
        FrameKind::Ack if delivered == Some(true) => {
            let owner = tx.frame.dst.expect("ack addressed");
            let txop_max;
            let proceed = {
                let Some(w) = net.devices[owner].wigig_mut() else {
                    return;
                };
                txop_max = w.cfg.txop_max;
                // Taking `awaiting_ack` supersedes the frame's ACK timeout.
                if let Some(aa) = w.awaiting_ack.take() {
                    w.adapter.on_frame_result(true);
                    w.retry = 0;
                    w.cw = CW_MIN;
                    w.ack_fail_streak = 0;
                    w.loss_recovery_attempts = 0;
                    net.mpdu_pool.put(aa.mpdus);
                    true
                } else {
                    false
                }
            };
            if proceed {
                net.devices[owner].stats.acks_rx += 1;
                let now = net.now();
                let (more, in_budget) = {
                    let w = net.devices[owner].wigig().expect("wigig");
                    (!w.queue.is_empty(), now.since(w.txop_start) < txop_max)
                };
                if more && in_budget {
                    let at = now + SIFS;
                    net.queue.schedule(at, NetEv::TxopData { dev: owner });
                } else {
                    if let Some(w) = net.devices[owner].wigig_mut() {
                        w.in_txop = false;
                    }
                    if more {
                        backoff_and_contend(net, owner);
                    }
                }
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::Device;
    use crate::net::NetConfig;
    use mmwave_channel::Environment;
    use mmwave_geom::{Point, Room};
    use mmwave_sim::ctx::SimCtx;

    /// An instantly associated 2 m link whose dock has a backlog to send.
    fn loaded_link() -> (Net, usize) {
        let cfg = NetConfig {
            seed: 3,
            enable_fading: false,
            ..NetConfig::default()
        };
        let mut net = Net::with_ctx(Environment::new(Room::open_space()), cfg, &SimCtx::new());
        let dock = net.add_device(Device::wigig_dock(
            net.ctx(),
            "dock",
            Point::new(0.0, 0.0),
            Angle::ZERO,
            13,
        ));
        let laptop = net.add_device(Device::wigig_laptop(
            net.ctx(),
            "laptop",
            Point::new(2.0, 0.0),
            Angle::from_degrees(180.0),
            11,
        ));
        net.associate_instantly(dock, laptop);
        for tag in 0..64 {
            net.push_mpdu(dock, 1500, tag);
        }
        (net, dock)
    }

    /// Everything a timeout handler may touch: the device's MAC state and
    /// counters, the RNG, the event queue and the delivery log.
    fn snapshot(net: &Net, dev: usize) -> String {
        let d = &net.devices[dev];
        let w = d.wigig().expect("wigig");
        format!(
            "{:?} {:?} {:?} {:?} {:?} cw={} retry={} txop={} contending={} \
             streaks={}/{}/{}/{} {:?} {:?} queued={} delivered={}",
            w.state,
            w.queue,
            w.awaiting_ack,
            w.pending_cts,
            w.adapter,
            w.cw,
            w.retry,
            w.in_txop,
            w.contending,
            w.cts_fail_streak,
            w.ack_fail_streak,
            w.beacon_fail_streak,
            w.loss_recovery_attempts,
            d.stats,
            net.rng,
            net.queue.len(),
            net.delivered.len(),
        )
    }

    /// Step the event loop until `pending` reports a sequence number.
    fn run_until_pending(
        net: &mut Net,
        dev: usize,
        pending: fn(&Net, usize) -> Option<u64>,
    ) -> u64 {
        loop {
            if let Some(seq) = pending(net, dev) {
                return seq;
            }
            assert!(net.step(), "event queue ran dry");
        }
    }

    #[test]
    fn superseded_timeouts_change_nothing() {
        let (mut net, dock) = loaded_link();
        let rts = run_until_pending(&mut net, dock, |n, d| {
            n.devices[d].wigig().expect("wigig").pending_cts
        });
        let before = snapshot(&net, dock);
        // A CTS timeout left over from an earlier RTS is a no-op.
        on_cts_timeout(&mut net, dock, rts - 1);
        assert_eq!(snapshot(&net, dock), before);
        // The timeout of the pending RTS is not.
        on_cts_timeout(&mut net, dock, rts);
        assert_ne!(snapshot(&net, dock), before);

        let (mut net, dock) = loaded_link();
        let data = run_until_pending(&mut net, dock, |n, d| {
            let w = n.devices[d].wigig().expect("wigig");
            w.awaiting_ack.as_ref().map(|aa| aa.seq)
        });
        let before = snapshot(&net, dock);
        // An ACK timeout left over from an earlier data PPDU is a no-op.
        on_ack_timeout(&mut net, dock, data - 1);
        assert_eq!(snapshot(&net, dock), before);
        on_ack_timeout(&mut net, dock, data);
        assert_ne!(snapshot(&net, dock), before);
    }
}
