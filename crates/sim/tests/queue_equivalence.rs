//! Differential test: `EventQueue` (a binary heap, a `U64Set` of
//! tombstones and a peek memo) must pop a byte-identical event order to
//! a plain reference model on randomized workloads.
//!
//! The model below is the queue's contract written the obvious way: one
//! heap of whole `(at, seq, payload)` entries, a `HashSet` of
//! tombstones, sequential ids, `(at, seq)` min-order, and a `len` that
//! every successful cancel decrements. This suite drives the queue (the
//! `wheel` side of each `Pair`) and the model with identical
//! schedule/cancel/pop/peek interleavings — including equal-timestamp
//! bursts, cancels of already-popped ids, double cancels, and
//! timestamps from nanoseconds to 2⁵⁰ ns apart — and requires the full
//! observable transcript (pop results, peek times, cancel return values,
//! lengths) to match exactly.

use mmwave_sim::ctx::SimCtx;
use mmwave_sim::queue::{EventId, EventQueue};
use mmwave_sim::rng::SimRng;
use mmwave_sim::time::SimTime;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};

/// Reference model: a min-heap of `(at, seq, payload)` with the same id,
/// tombstone and `len` rules as `EventQueue`. Ids are sequence numbers.
#[derive(Default)]
struct HeapQueue {
    heap: BinaryHeap<Reverse<(SimTime, u64, u64)>>,
    tombstones: HashSet<u64>,
    next_seq: u64,
    live: usize,
}

impl HeapQueue {
    fn schedule(&mut self, at: SimTime, payload: u64) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse((at, seq, payload)));
        self.live += 1;
        seq
    }

    /// Like the queue, the model does not know which ids have fired: a
    /// cancel of a fired id plants a dead tombstone and reports true.
    fn cancel(&mut self, seq: u64) -> bool {
        let fresh = seq < self.next_seq && self.tombstones.insert(seq);
        if fresh {
            self.live = self.live.saturating_sub(1);
        }
        fresh
    }

    fn pop(&mut self) -> Option<(SimTime, u64)> {
        while let Some(Reverse((at, seq, payload))) = self.heap.pop() {
            if !self.tombstones.remove(&seq) {
                self.live = self.live.saturating_sub(1);
                return Some((at, payload));
            }
        }
        None
    }

    fn peek_time(&mut self) -> Option<SimTime> {
        while let Some(&Reverse((at, seq, _))) = self.heap.peek() {
            if !self.tombstones.remove(&seq) {
                return Some(at);
            }
            self.heap.pop();
        }
        None
    }
}

/// One observable step of queue behavior, recorded from each side.
#[derive(PartialEq, Eq, Debug)]
enum Observation {
    Popped(Option<(SimTime, u64)>),
    Peeked(Option<SimTime>),
    Cancelled(bool),
    Len(usize),
}

/// Handle of a scheduled event: the model's sequence id, which is also
/// the event's index in `Pair::ids`.
type Handle = u64;

struct Pair {
    wheel: EventQueue<u64>,
    heap: HeapQueue,
    /// Queue ids in scheduling order.
    ids: Vec<EventId>,
    transcript: usize,
}

impl Pair {
    fn new() -> Pair {
        Pair {
            wheel: EventQueue::with_ctx(&SimCtx::new()),
            heap: HeapQueue::default(),
            ids: Vec::new(),
            transcript: 0,
        }
    }

    fn schedule(&mut self, at: SimTime, payload: u64) -> Handle {
        let id = self.wheel.schedule(at, payload);
        let seq = self.heap.schedule(at, payload);
        assert_eq!(format!("{id:?}"), format!("EventId({seq})"), "same ids");
        self.ids.push(id);
        seq
    }

    fn check(&mut self, a: Observation, b: Observation) {
        assert_eq!(a, b, "divergence at transcript step {}", self.transcript);
        self.transcript += 1;
    }

    fn pop(&mut self) -> Option<(SimTime, u64)> {
        let a = self.wheel.pop();
        let b = self.heap.pop();
        self.check(Observation::Popped(a), Observation::Popped(b));
        a
    }

    fn peek(&mut self) {
        let a = Observation::Peeked(self.wheel.peek_time());
        let b = Observation::Peeked(self.heap.peek_time());
        self.check(a, b);
    }

    fn cancel(&mut self, h: Handle) {
        let a = Observation::Cancelled(self.wheel.cancel(self.ids[h as usize]));
        let b = Observation::Cancelled(self.heap.cancel(h));
        self.check(a, b);
    }

    fn len(&mut self) {
        let a = Observation::Len(self.wheel.len());
        let b = Observation::Len(self.heap.live);
        self.check(a, b);
    }

    fn drain(&mut self) {
        while self.pop().is_some() {}
        self.len();
    }
}

/// Timestamps drawn across many orders of magnitude: mostly dense
/// (µs-scale deltas around a moving "now"), sometimes bursty at one
/// instant, sometimes far future (up to 2⁵⁰ ns ahead).
fn random_time(rng: &mut SimRng, now: u64) -> SimTime {
    let shape = rng.next_u64() % 100;
    let delta = match shape {
        0..=59 => rng.next_u64() % 20_000,       // dense: < 20 µs
        60..=84 => rng.next_u64() % 3_000_000,   // MAC-scale: < 3 ms
        85..=94 => rng.next_u64() % 200_000_000, // beacon-scale: < 200 ms
        _ => rng.next_u64() % (1 << 50),         // far future
    };
    SimTime::from_nanos(now.saturating_add(delta))
}

#[test]
fn randomized_schedule_cancel_pop_interleavings_match() {
    for seed in 0..8u64 {
        let mut rng = SimRng::root(0xEE11_0000 + seed);
        let mut pair = Pair::new();
        let mut live_ids: Vec<Handle> = Vec::new();
        let mut dead_ids: Vec<Handle> = Vec::new();
        let mut now = 0u64;
        let mut payload = 0u64;
        for _ in 0..4_000 {
            match rng.next_u64() % 100 {
                // Schedule (55%): random time relative to the last pop.
                0..=54 => {
                    let at = random_time(&mut rng, now);
                    let id = pair.schedule(at, payload);
                    payload += 1;
                    live_ids.push(id);
                }
                // Equal-timestamp burst (10%): FIFO order must hold.
                55..=64 => {
                    let at = random_time(&mut rng, now);
                    for _ in 0..(1 + rng.next_u64() % 12) {
                        let id = pair.schedule(at, payload);
                        payload += 1;
                        live_ids.push(id);
                    }
                }
                // Pop (20%).
                65..=84 => {
                    if let Some((at, _)) = pair.pop() {
                        now = at.as_nanos();
                    }
                }
                // Cancel a pending id (8%).
                85..=92 => {
                    if !live_ids.is_empty() {
                        let i = (rng.next_u64() as usize) % live_ids.len();
                        let id = live_ids.swap_remove(i);
                        pair.cancel(id);
                        dead_ids.push(id);
                    }
                }
                // Cancel an already-popped or already-cancelled id (4%).
                93..=96 => {
                    if !dead_ids.is_empty() {
                        let i = (rng.next_u64() as usize) % dead_ids.len();
                        let id = dead_ids[i];
                        pair.cancel(id);
                    }
                }
                // Peek / len probes (3%).
                _ => {
                    pair.peek();
                    pair.len();
                }
            }
        }
        // Anything popped from here on was never tracked as live/dead by
        // the driver, but the transcript comparison still covers it.
        pair.drain();
    }
}

#[test]
fn equal_timestamp_burst_with_cancels_matches() {
    let mut pair = Pair::new();
    let at = SimTime::from_micros(40);
    let ids: Vec<Handle> = (0..256).map(|i| pair.schedule(at, i)).collect();
    // Cancel every third, including after some pops.
    for id in ids.iter().step_by(3).take(40) {
        pair.cancel(*id);
    }
    for _ in 0..100 {
        pair.pop();
    }
    for id in ids.iter().step_by(3).skip(40) {
        pair.cancel(*id); // many of these already popped
    }
    pair.drain();
}

#[test]
fn cancel_of_popped_ids_never_kills_later_events() {
    let mut pair = Pair::new();
    let early: Vec<Handle> = (0..32)
        .map(|i| pair.schedule(SimTime::from_nanos(i), i))
        .collect();
    for _ in 0..32 {
        pair.pop();
    }
    // All already fired: neither side tracks that, so every cancel
    // reports true (and shrinks `len`) on both — and must not affect the
    // events scheduled next.
    for id in early {
        pair.cancel(id);
    }
    for i in 0..32u64 {
        pair.schedule(SimTime::from_micros(1 + i), 100 + i);
    }
    pair.drain();
}
