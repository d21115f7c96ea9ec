//! Differential test: `EventQueue` (a front slot ahead of a binary
//! heap) must pop a byte-identical event order to a plain reference
//! model on randomized workloads.
//!
//! The model below is the queue's contract written the obvious way, and
//! it shares no code with `BinaryHeap`: a `Vec` of `(at, seq, payload)`
//! entries with sequential `seq`, scanned for the minimum `(at, seq)` on
//! every pop and peek. This suite drives the queue and the model with
//! identical schedule/pop/peek interleavings — including equal-timestamp
//! bursts, timestamps from nanoseconds to 2⁵⁰ ns apart, and the shallow
//! MAC-shaped traffic that exercises the queue's front slot — and
//! requires the full observable transcript (pop results, peek times,
//! lengths) to match exactly.

use mmwave_sim::ctx::SimCtx;
use mmwave_sim::queue::EventQueue;
use mmwave_sim::rng::SimRng;
use mmwave_sim::time::SimTime;

/// Reference model: an unordered list scanned for its earliest entry.
#[derive(Default)]
struct VecQueue {
    entries: Vec<(SimTime, u64, u64)>,
    next_seq: u64,
}

impl VecQueue {
    fn schedule(&mut self, at: SimTime, payload: u64) {
        self.entries.push((at, self.next_seq, payload));
        self.next_seq += 1;
    }

    /// Index of the entry with the minimum `(at, seq)`.
    fn front(&self) -> Option<usize> {
        let mut best: Option<usize> = None;
        for (i, &(at, seq, _)) in self.entries.iter().enumerate() {
            if best.is_none_or(|b| (at, seq) < (self.entries[b].0, self.entries[b].1)) {
                best = Some(i);
            }
        }
        best
    }

    fn pop(&mut self) -> Option<(SimTime, u64)> {
        let i = self.front()?;
        let (at, _, payload) = self.entries.swap_remove(i);
        Some((at, payload))
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.front().map(|i| self.entries[i].0)
    }
}

/// One observable step of queue behavior, recorded from each side.
#[derive(PartialEq, Eq, Debug)]
enum Observation {
    Popped(Option<(SimTime, u64)>),
    Peeked(Option<SimTime>),
    Len(usize),
}

struct Pair {
    queue: EventQueue<u64>,
    model: VecQueue,
    transcript: usize,
}

impl Pair {
    fn new() -> Pair {
        Pair {
            queue: EventQueue::with_ctx(&SimCtx::new()),
            model: VecQueue::default(),
            transcript: 0,
        }
    }

    fn schedule(&mut self, at: SimTime, payload: u64) {
        self.queue.schedule(at, payload);
        self.model.schedule(at, payload);
    }

    fn check(&mut self, a: Observation, b: Observation) {
        assert_eq!(a, b, "divergence at transcript step {}", self.transcript);
        self.transcript += 1;
    }

    fn pop(&mut self) -> Option<(SimTime, u64)> {
        let a = self.queue.pop();
        let b = self.model.pop();
        self.check(Observation::Popped(a), Observation::Popped(b));
        a
    }

    fn peek(&mut self) {
        let a = Observation::Peeked(self.queue.peek_time());
        let b = Observation::Peeked(self.model.peek_time());
        self.check(a, b);
    }

    fn len(&mut self) {
        let a = Observation::Len(self.queue.len());
        let b = Observation::Len(self.model.entries.len());
        self.check(a, b);
    }

    fn drain(&mut self) {
        while self.pop().is_some() {}
        self.len();
        assert!(self.queue.is_empty());
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
fn randomized_schedule_pop_peek_interleavings_match() {
    for seed in 0..8u64 {
        let mut rng = SimRng::root(0xEE11_0000 + seed);
        let mut pair = Pair::new();
        let mut now = 0u64;
        let mut payload = 0u64;
        for _ in 0..4_000 {
            match rng.next_u64() % 100 {
                // Schedule (55%): random time relative to the last pop.
                0..=54 => {
                    let at = random_time(&mut rng, now);
                    pair.schedule(at, payload);
                    payload += 1;
                }
                // Equal-timestamp burst (10%): FIFO order must hold.
                55..=64 => {
                    let at = random_time(&mut rng, now);
                    for _ in 0..(1 + rng.next_u64() % 12) {
                        pair.schedule(at, payload);
                        payload += 1;
                    }
                }
                // Pop (32%).
                65..=96 => {
                    if let Some((at, _)) = pair.pop() {
                        now = at.as_nanos();
                    }
                }
                // Peek / len probes (3%).
                _ => {
                    pair.peek();
                    pair.len();
                }
            }
        }
        pair.drain();
    }
}

#[test]
fn equal_timestamp_bursts_match() {
    let mut pair = Pair::new();
    let at = SimTime::from_micros(40);
    for i in 0..256 {
        pair.schedule(at, i);
    }
    for _ in 0..100 {
        pair.pop();
    }
    // Joining the same instant after pops: behind every older event.
    for i in 256..320 {
        pair.schedule(at, i);
        pair.peek();
    }
    pair.len();
    pair.drain();
}

#[test]
fn shallow_mac_shaped_workloads_match() {
    // The MAC's shape: 0–4 pending events, most scheduled a few µs after
    // the last pop (a frame end, a SIFS reply), some tying with or landing
    // before the earliest pending one, one far beacon tick now and then,
    // and pops that often empty the queue.
    for seed in 0..8u64 {
        let mut rng = SimRng::root(0xEE22_0000 + seed);
        let mut pair = Pair::new();
        let mut now = 0u64;
        let mut payload = 0u64;
        for _ in 0..20_000 {
            let depth = pair.model.entries.len();
            if depth == 0 || (depth < 4 && rng.next_u64() % 2 == 0) {
                let front = pair.model.peek_time().map(|t| t.as_nanos());
                let at = match (rng.next_u64() % 8, front) {
                    (0, Some(f)) => f,
                    (1, Some(f)) => f.saturating_sub(rng.next_u64() % 3_000).max(now),
                    (2, _) => now + 1_100_000,
                    _ => now + rng.next_u64() % 5_000,
                };
                pair.schedule(SimTime::from_nanos(at), payload);
                payload += 1;
            } else if rng.next_u64() % 32 == 0 {
                pair.peek();
                pair.len();
            } else if let Some((at, _)) = pair.pop() {
                now = at.as_nanos();
            }
        }
        pair.drain();
    }
}
