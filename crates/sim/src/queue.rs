//! A deterministically ordered event queue.
//!
//! Events at equal timestamps pop in the order they were scheduled
//! (FIFO by a monotonically increasing sequence number), which makes the
//! whole simulation deterministic regardless of queue internals.
//!
//! There is no cancellation. A simulator whose timer may become moot (the
//! MAC's CTS and ACK timeouts) tags the event with the sequence number of
//! the frame it guards and ignores it when it fires for a frame that is no
//! longer pending.
//!
//! The queue is a binary min-heap of `(at, seq, payload)` entries behind
//! a one-entry `front` slot. An entry that sorts before everything
//! pending goes to the slot instead of the heap: the MAC schedules its
//! next event (a frame end, a SIFS reply, the next TXOP frame) just ahead
//! of a few far timers, so many pops (three in four of an idle link's
//! beacon exchange) take the slot without a heap sift.
//! A queue in steady state reuses the heap's buffer and never allocates.
//! A test-local reference model (a `Vec` scanned for its minimum) lives in
//! `tests/queue_equivalence.rs`, which proves both pop identical event
//! orders on randomized schedule/pop/peek workloads.

use crate::ctx::SimCtx;
use crate::metrics::Counter;
use crate::time::SimTime;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// A scheduled event, ordered by `(at, seq)` alone: the payload needs no
/// `Ord`, and `seq` makes every key unique.
struct Entry<E> {
    at: SimTime,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// Priority queue of `(SimTime, payload)` pairs with stable FIFO
/// tie-breaks.
///
/// ```
/// use mmwave_sim::ctx::SimCtx;
/// use mmwave_sim::queue::EventQueue;
/// use mmwave_sim::time::SimTime;
///
/// let mut q = EventQueue::with_ctx(&SimCtx::new());
/// q.schedule(SimTime::from_micros(10), "a");
/// q.schedule(SimTime::from_micros(5), "b");
/// assert_eq!(q.peek_time(), Some(SimTime::from_micros(5)));
/// assert_eq!(q.pop(), Some((SimTime::from_micros(5), "b")));
/// assert_eq!(q.pop(), Some((SimTime::from_micros(10), "a")));
/// assert_eq!(q.pop(), None);
/// ```
pub struct EventQueue<E> {
    /// The earliest pending entry, if it was scheduled ahead of every
    /// entry in `heap`; it then sorts before all of them.
    front: Option<Entry<E>>,
    /// The other pending entries, earliest on top.
    heap: BinaryHeap<Reverse<Entry<E>>>,
    next_seq: u64,
    ctx: SimCtx,
}

impl<E> EventQueue<E> {
    /// An empty queue streaming its counter updates (pops, depth
    /// watermark) into `ctx`.
    pub fn with_ctx(ctx: &SimCtx) -> Self {
        EventQueue {
            front: None,
            heap: BinaryHeap::new(),
            next_seq: 0,
            ctx: ctx.clone(),
        }
    }

    /// Schedule `payload` to fire at `at`.
    pub fn schedule(&mut self, at: SimTime, payload: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let entry = Entry { at, seq, payload };
        // `seq` is the largest yet, so the entry sorts first exactly when
        // `at` is strictly earlier than the earliest pending entry.
        let first = match &self.front {
            Some(front) => at < front.at,
            None => self.heap.peek().is_none_or(|Reverse(top)| at < top.at),
        };
        if !first {
            self.heap.push(Reverse(entry));
        } else if let Some(displaced) = self.front.replace(entry) {
            self.heap.push(Reverse(displaced));
        }
        self.ctx.raise(Counter::PeakQueueDepth, self.len() as u64);
    }

    /// Remove and return the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let Entry { at, payload, .. } = match self.front.take() {
            Some(front) => front,
            None => self.heap.pop()?.0,
        };
        self.ctx.bump(Counter::EventsPopped);
        Some((at, payload))
    }

    /// Timestamp of the earliest event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        match &self.front {
            Some(front) => Some(front.at),
            None => self.heap.peek().map(|Reverse(top)| top.at),
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len() + usize::from(self.front.is_some())
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.front.is_none() && self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::with_ctx(&SimCtx::new());
        q.schedule(t(30), 3);
        q.schedule(t(10), 1);
        q.schedule(t(20), 2);
        assert_eq!(q.pop(), Some((t(10), 1)));
        assert_eq!(q.pop(), Some((t(20), 2)));
        assert_eq!(q.pop(), Some((t(30), 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn equal_times_pop_fifo() {
        let mut q = EventQueue::with_ctx(&SimCtx::new());
        for i in 0..100 {
            q.schedule(t(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t(5), i)));
        }
    }

    #[test]
    fn peek_time_leaves_the_front_queued() {
        let mut q = EventQueue::with_ctx(&SimCtx::new());
        assert_eq!(q.peek_time(), None);
        q.schedule(t(5), 2);
        q.schedule(t(1), 1);
        assert_eq!(q.peek_time(), Some(t(1)));
        assert_eq!(q.peek_time(), Some(t(1)));
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some((t(1), 1)));
        assert_eq!(q.peek_time(), Some(t(5)));
    }

    #[test]
    fn len_tracks_live_events() {
        let mut q = EventQueue::with_ctx(&SimCtx::new());
        assert!(q.is_empty());
        q.schedule(t(1), ());
        q.schedule(t(2), ());
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
        q.pop();
        assert_eq!(q.len(), 0);
        assert!(q.is_empty());
    }

    #[test]
    fn metrics_count_pops_and_peak_depth() {
        let ctx = SimCtx::new();
        let mut q = EventQueue::with_ctx(&ctx);
        q.schedule(t(10), "a");
        q.schedule(t(20), "b");
        q.schedule(t(30), "c");
        q.pop();
        q.schedule(t(40), "d");
        while q.pop().is_some() {}
        let m = ctx.counters();
        assert_eq!(m.events_popped, 4);
        assert_eq!(m.peak_queue_depth, 3);
    }

    #[test]
    fn a_displaced_front_keeps_at_seq_order() {
        let mut q = EventQueue::with_ctx(&SimCtx::new());
        q.schedule(t(10), "a"); // into the empty slot
        q.schedule(t(10), "b"); // ties with the front: to the heap
        q.schedule(t(20), "c");
        q.schedule(t(5), "d"); // displaces "a" into the heap
        assert!(q.front.as_ref().is_some_and(|f| f.payload == "d"));
        q.schedule(t(5), "e"); // ties with the new front: to the heap
        q.schedule(t(10), "f"); // ties with the displaced front
        assert_eq!(q.len(), 6);
        for (at, v) in [
            (5, "d"),
            (5, "e"),
            (10, "a"),
            (10, "b"),
            (10, "f"),
            (20, "c"),
        ] {
            assert_eq!(q.pop(), Some((t(at), v)));
        }
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn peek_and_len_see_a_lone_front() {
        let mut q = EventQueue::with_ctx(&SimCtx::new());
        q.schedule(t(7), 1);
        assert!(q.front.is_some() && q.heap.is_empty());
        assert_eq!(q.peek_time(), Some(t(7)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        assert_eq!(q.pop(), Some((t(7), 1)));
        assert!(q.is_empty());
        // Earlier than the heap's top after the front has popped: back
        // into the slot.
        q.schedule(t(9), 2);
        q.schedule(t(30), 3);
        assert_eq!(q.pop(), Some((t(9), 2)));
        q.schedule(t(12), 4);
        assert!(q.front.is_some() && q.heap.len() == 1);
        assert_eq!(q.peek_time(), Some(t(12)));
        assert_eq!(q.len(), 2);
        // A tie with the heap's top while the slot is empty queues behind it.
        assert_eq!(q.pop(), Some((t(12), 4)));
        q.schedule(t(30), 5);
        assert_eq!(q.pop(), Some((t(30), 3)));
        assert_eq!(q.pop(), Some((t(30), 5)));
    }

    #[test]
    fn peak_depth_counts_the_front() {
        let ctx = SimCtx::new();
        let mut q = EventQueue::with_ctx(&ctx);
        q.schedule(t(5), ());
        assert_eq!(ctx.counters().peak_queue_depth, 1);
        q.schedule(t(1), ()); // displaces the front
        q.schedule(t(9), ());
        assert_eq!(ctx.counters().peak_queue_depth, 3);
    }

    #[test]
    fn pops_in_time_order_across_wheel_levels() {
        let mut q = EventQueue::with_ctx(&SimCtx::new());
        // Timestamps from 0 to `u64::MAX`: neighbours a nanosecond apart,
        // power-of-two boundaries and far-future outliers, scheduled out
        // of order.
        let times = [
            7u64,
            1,
            1_000,
            1_023,
            1_024,
            65_536,
            65_537,
            4_194_304,
            1 << 40,
            (1 << 40) + 1,
            u64::MAX,
            0,
            3_000_000_000,
        ];
        for (i, &ns) in times.iter().enumerate() {
            q.schedule(SimTime::from_nanos(ns), i as u64);
        }
        let mut sorted = times;
        sorted.sort();
        for &ns in &sorted {
            let (at, _) = q.pop().expect("event present");
            assert_eq!(at, SimTime::from_nanos(ns));
        }
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn wheel_schedules_into_current_slot_after_pops() {
        // After a pop, schedule events at, before, and just after the
        // popped time; all must still pop in (at, seq) order.
        let mut q = EventQueue::with_ctx(&SimCtx::new());
        q.schedule(SimTime::from_nanos(1 << 20), 0);
        assert_eq!(q.pop(), Some((SimTime::from_nanos(1 << 20), 0)));
        q.schedule(SimTime::from_nanos((1 << 20) + 10), 1);
        q.schedule(SimTime::from_nanos(5), 2); // before the last pop
        q.schedule(SimTime::from_nanos((1 << 20) + 10), 3); // FIFO with 1
        q.schedule(SimTime::from_nanos((1 << 20) + 2_000), 4);
        assert_eq!(q.pop(), Some((SimTime::from_nanos(5), 2)));
        assert_eq!(q.pop(), Some((SimTime::from_nanos((1 << 20) + 10), 1)));
        assert_eq!(q.pop(), Some((SimTime::from_nanos((1 << 20) + 10), 3)));
        assert_eq!(q.pop(), Some((SimTime::from_nanos((1 << 20) + 2_000), 4)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn wheel_interleaves_pops_and_far_schedules() {
        // Repeatedly pop the front and schedule a strictly later event,
        // with gaps spanning many orders of magnitude.
        let mut q = EventQueue::with_ctx(&SimCtx::new());
        let mut at = 1u64;
        q.schedule(SimTime::from_nanos(at), 0);
        for i in 1..200u64 {
            let (got, _) = q.pop().expect("front event");
            assert_eq!(got.as_nanos(), at);
            at = at.wrapping_mul(3).wrapping_add(i) % (1 << 50) + at + 1;
            q.schedule(SimTime::from_nanos(at), i);
        }
    }

    #[test]
    fn equal_times_pop_fifo_after_advance() {
        let mut q = EventQueue::with_ctx(&SimCtx::new());
        q.schedule(t(50), 0);
        assert!(q.pop().is_some());
        for i in 1..=64u64 {
            q.schedule(t(70), i);
        }
        for i in 1..=64u64 {
            assert_eq!(q.pop(), Some((t(70), i)));
        }
    }
}
