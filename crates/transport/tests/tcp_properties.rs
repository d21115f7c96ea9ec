//! Property tests for the TCP model: sequence-number and congestion
//! invariants under arbitrary delivery/loss/reorder schedules.
//!
//! Std-only: the delivery scripts are drawn from deterministic `SimRng`
//! streams with fixed seeds (no proptest — the workspace builds offline).
//! Failures print the case number, which reproduces the exact script.

use mmwave_sim::ctx::SimCtx;
use mmwave_sim::rng::SimRng;
use mmwave_sim::time::SimTime;
use mmwave_transport::tcp::TcpAction;
use mmwave_transport::{TcpConfig, TcpFlow};

/// A random interleaving script: each step either delivers a data segment
/// to the receiver (possibly out of order or duplicated), delivers the
/// latest ACK to the sender, or advances time to the next timer.
#[derive(Clone, Debug)]
enum Step {
    DeliverData { skip: u8, dup: bool },
    DeliverAck,
    AdvanceTimer,
}

fn gen_script(r: &mut SimRng) -> Vec<Step> {
    let n = 1 + (r.next_u64() % 119) as usize;
    (0..n)
        .map(|_| match r.next_u64() % 3 {
            0 => Step::DeliverData {
                skip: (r.next_u64() % 3) as u8,
                dup: r.chance(0.5),
            },
            1 => Step::DeliverAck,
            _ => Step::AdvanceTimer,
        })
        .collect()
}

#[test]
fn tcp_invariants_hold() {
    for case in 0..96u64 {
        let mut r = SimRng::root(case).stream("tcp-script");
        let script = gen_script(&mut r);
        let window_kb = 2 + r.next_u64() % 126;
        let cfg = TcpConfig {
            bottleneck: None,
            ..TcpConfig::bulk(0, 1, window_kb * 1024)
        };
        let mss = cfg.mss;
        let mut flow = TcpFlow::with_ctx(1, cfg, SimTime::ZERO, &SimCtx::new());
        let mut now = SimTime::ZERO;
        // Segments "in flight" between sender and receiver.
        let mut air: Vec<u64> = Vec::new();
        let mut last_ack: Option<u64> = None;
        let mut prev_una = 0u64;
        let mut prev_rcv_bytes = 0u64;

        let push_actions = |actions: Vec<TcpAction>, air: &mut Vec<u64>| {
            for a in actions {
                let TcpAction::Push { tag, bytes, .. } = a;
                // Decode: data segments have bytes == mss.
                if bytes == mss {
                    air.push(tag & ((1 << 48) - 1));
                }
            }
        };

        let actions = flow.pump(now, 0);
        push_actions(actions, &mut air);

        for step in script {
            now += mmwave_sim::time::SimDuration::from_micros(37);
            match step {
                Step::DeliverData { skip, dup } => {
                    if air.is_empty() {
                        continue;
                    }
                    let idx = (skip as usize).min(air.len() - 1);
                    let seq = if dup && idx > 0 {
                        air[idx - 1]
                    } else {
                        air.remove(idx)
                    };
                    if let Some(ack) = flow.on_data(seq, now) {
                        let TcpAction::Push { tag, .. } = ack;
                        last_ack = Some(tag & ((1 << 48) - 1));
                    }
                }
                Step::DeliverAck => {
                    if let Some(cum) = last_ack {
                        flow.on_ack(cum, now);
                        if let Some(rt) = flow.take_fast_retransmit(now) {
                            push_actions(vec![rt], &mut air);
                        }
                        let actions = flow.pump(now, 0);
                        push_actions(actions, &mut air);
                    }
                }
                Step::AdvanceTimer => {
                    if let Some(t) = flow.next_timer() {
                        now = now.max(t);
                        let actions = flow.pump(now, 0);
                        push_actions(actions, &mut air);
                    }
                }
            }

            // --- invariants ---
            let (una, nxt) = flow.sender_progress();
            assert!(una <= nxt, "case {case}: snd_una beyond snd_nxt");
            assert!(
                una >= prev_una,
                "case {case}: cumulative ack went backwards"
            );
            prev_una = una;
            assert_eq!(flow.stats.bytes_acked, una * mss as u64, "case {case}");
            assert!(flow.stats.bytes_received >= prev_rcv_bytes, "case {case}");
            prev_rcv_bytes = flow.stats.bytes_received;
            assert!(
                flow.cwnd_segments() >= 1.0,
                "case {case}: cwnd collapsed below 1"
            );
            // Window clamp respected at send time: in-flight never exceeds
            // clamp + 1 segment of slack (the retransmit).
            let clamp = (window_kb * 1024) / mss as u64 + 2;
            assert!(
                nxt - una <= clamp.max(5),
                "case {case}: flight {} > clamp {}",
                nxt - una,
                clamp
            );
        }
    }
}

/// A lossless in-order channel delivers and acknowledges everything:
/// eventually `finished()` with exact byte counts.
#[test]
fn lossless_channel_completes() {
    for case in 0..48u64 {
        let mut r = SimRng::root(case).stream("tcp-lossless");
        let total_segs = 1 + r.next_u64() % 199;
        let cfg = TcpConfig {
            bottleneck: None,
            total_bytes: Some(total_segs * 1500),
            ..TcpConfig::bulk(0, 1, 1 << 20)
        };
        let mut flow = TcpFlow::with_ctx(1, cfg, SimTime::ZERO, &SimCtx::new());
        let mut now = SimTime::ZERO;
        let mut air: std::collections::VecDeque<u64> = Default::default();
        for _ in 0..10_000 {
            if flow.finished() {
                break;
            }
            now += mmwave_sim::time::SimDuration::from_micros(50);
            for a in flow.pump(now, 0) {
                let TcpAction::Push { tag, bytes, .. } = a;
                if bytes == 1500 {
                    air.push_back(tag & ((1 << 48) - 1));
                }
            }
            let mut cum = None;
            while let Some(seq) = air.pop_front() {
                if let Some(TcpAction::Push { tag, .. }) = flow.on_data(seq, now) {
                    cum = Some(tag & ((1 << 48) - 1));
                }
            }
            // Flush any delayed ack via its timer.
            if cum.is_none() {
                if let Some(t) = flow.next_timer() {
                    now = now.max(t);
                    for a in flow.pump(now, 0) {
                        let TcpAction::Push { tag, bytes, .. } = a;
                        if bytes == 1500 {
                            air.push_back(tag & ((1 << 48) - 1));
                        } else {
                            cum = Some(tag & ((1 << 48) - 1));
                        }
                    }
                }
            }
            if let Some(c) = cum {
                flow.on_ack(c, now);
            }
        }
        assert!(
            flow.finished(),
            "case {case}: flow did not finish: {:?}",
            flow.sender_progress()
        );
        assert_eq!(flow.stats.bytes_acked, total_segs * 1500, "case {case}");
        assert_eq!(flow.stats.retransmits, 0, "case {case}");
    }
}
