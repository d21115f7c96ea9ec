//! A cancellable event queue with deterministic ordering.
//!
//! Events at equal timestamps pop in the order they were scheduled
//! (FIFO by a monotonically increasing sequence number), which makes the
//! whole simulation deterministic regardless of queue internals.
//! Cancellation is *lazy*: a cancelled entry stays queued and is
//! discarded when it surfaces, which keeps `cancel` O(1).
//!
//! The queue is a binary min-heap of `(at, seq, payload)` entries, so a
//! queue in steady state reuses the heap's buffer and never allocates.
//! The heap is O(log n) per operation, and the simulator's queues are
//! shallow: at seed 1 in quick mode every registered experiment peaks at
//! 41 or fewer pending events except `churn` (91) and `enterprise`
//! (336). A test-local reference model with the same ids, tombstones and
//! `len` semantics lives in `tests/queue_equivalence.rs`, which proves
//! both pop identical event orders on randomized schedule/cancel
//! workloads.

use crate::ctx::SimCtx;
use crate::metrics::Counter;
use crate::time::SimTime;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// Handle identifying a scheduled event; used to cancel it.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct EventId(u64);

/// Open-addressed set of raw `u64` keys — the lazy-cancellation tombstone
/// store.
///
/// Every `pop` consults this set, so with `HashSet<EventId>` the queue's
/// hot path paid a full SipHash round per event. Event ids are plain
/// sequence numbers; one Fibonacci multiply spreads them perfectly well,
/// and linear probing with backward-shift deletion (no tombstone markers)
/// keeps lookups a couple of cache lines at the typical (tiny) occupancy.
struct U64Set {
    /// Power-of-two slot array; `EMPTY` marks a free slot.
    slots: Vec<u64>,
    mask: usize,
    len: usize,
}

/// Free-slot sentinel. Event sequence numbers count up from zero, so a
/// queue would have to schedule 2⁶⁴ − 1 events before colliding with it.
const EMPTY: u64 = u64::MAX;

impl U64Set {
    fn new() -> U64Set {
        U64Set {
            slots: Vec::new(),
            mask: 0,
            len: 0,
        }
    }

    /// Home slot: Fibonacci hashing (golden-ratio multiply, top bits).
    #[inline]
    fn home(&self, key: u64) -> usize {
        (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) as usize & self.mask
    }

    fn grow(&mut self) {
        let cap = (self.slots.len() * 2).max(16);
        let old = std::mem::replace(&mut self.slots, vec![EMPTY; cap]);
        self.mask = cap - 1;
        self.len = 0;
        for k in old {
            if k != EMPTY {
                self.insert(k);
            }
        }
    }

    /// Insert; returns false if the key was already present.
    fn insert(&mut self, key: u64) -> bool {
        debug_assert_ne!(key, EMPTY, "sentinel key");
        // Keep occupancy under 3/4 so probe chains stay short.
        if self.len * 4 >= self.slots.len() * 3 {
            self.grow();
        }
        let mut i = self.home(key);
        loop {
            let k = self.slots[i];
            if k == EMPTY {
                self.slots[i] = key;
                self.len += 1;
                return true;
            }
            if k == key {
                return false;
            }
            i = (i + 1) & self.mask;
        }
    }

    #[cfg(test)]
    fn contains(&self, key: u64) -> bool {
        if self.len == 0 {
            return false;
        }
        let mut i = self.home(key);
        loop {
            let k = self.slots[i];
            if k == EMPTY {
                return false;
            }
            if k == key {
                return true;
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Remove; returns true if the key was present. Uses backward-shift
    /// deletion: later entries of the probe chain slide into the hole so
    /// no deleted-marker state is ever needed.
    fn remove(&mut self, key: u64) -> bool {
        if self.len == 0 {
            return false;
        }
        let mut i = self.home(key);
        loop {
            let k = self.slots[i];
            if k == EMPTY {
                return false;
            }
            if k == key {
                break;
            }
            i = (i + 1) & self.mask;
        }
        self.slots[i] = EMPTY;
        self.len -= 1;
        let mut j = (i + 1) & self.mask;
        while self.slots[j] != EMPTY {
            let h = self.home(self.slots[j]);
            // `slots[j]` may move into the hole at `i` iff its home lies
            // at or before `i` along its probe path (Knuth's distance
            // criterion, cyclic arithmetic).
            if (j.wrapping_sub(h) & self.mask) >= (j.wrapping_sub(i) & self.mask) {
                self.slots[i] = self.slots[j];
                self.slots[j] = EMPTY;
                i = j;
            }
            j = (j + 1) & self.mask;
        }
        true
    }
}

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

/// Priority queue of `(SimTime, payload)` pairs with stable FIFO tie-breaks
/// and O(1) cancellation.
///
/// ```
/// use mmwave_sim::ctx::SimCtx;
/// use mmwave_sim::queue::EventQueue;
/// use mmwave_sim::time::SimTime;
///
/// let mut q = EventQueue::with_ctx(&SimCtx::new());
/// let a = q.schedule(SimTime::from_micros(10), "a");
/// let _b = q.schedule(SimTime::from_micros(5), "b");
/// q.cancel(a);
/// assert_eq!(q.pop(), Some((SimTime::from_micros(5), "b")));
/// assert_eq!(q.pop(), None);
/// ```
pub struct EventQueue<E> {
    /// Pending entries, earliest on top. Cancelled entries stay until
    /// they surface.
    heap: BinaryHeap<Reverse<Entry<E>>>,
    cancelled: U64Set,
    next_seq: u64,
    live: usize,
    /// Memoized front `(at, seq)` from the last [`Self::peek_time`], valid
    /// until a pop, a strictly-earlier schedule, or a cancel of that very
    /// event. Driver loops peek between every event; the memo makes the
    /// repeat peeks free of heap work (tombstone drains).
    peeked: Option<(SimTime, u64)>,
    ctx: SimCtx,
}

impl<E> EventQueue<E> {
    /// An empty queue streaming its counter updates (pops, cancels, depth
    /// watermark) into `ctx`.
    pub fn with_ctx(ctx: &SimCtx) -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            cancelled: U64Set::new(),
            next_seq: 0,
            live: 0,
            peeked: None,
            ctx: ctx.clone(),
        }
    }

    /// Schedule `payload` to fire at `at`. Returns a handle for cancellation.
    pub fn schedule(&mut self, at: SimTime, payload: E) -> EventId {
        let seq = self.next_seq;
        self.next_seq += 1;
        // A new event displaces the memoized front only if strictly
        // earlier — at an equal timestamp the FIFO rule keeps the older
        // (lower-seq) event in front.
        if self.peeked.is_some_and(|(t, _)| at < t) {
            self.peeked = None;
        }
        self.heap.push(Reverse(Entry { at, seq, payload }));
        self.live += 1;
        self.ctx.raise(Counter::PeakQueueDepth, self.live as u64);
        EventId(seq)
    }

    /// Cancel a previously scheduled event. Returns false for an id this
    /// queue never issued or one already cancelled, and true otherwise.
    ///
    /// The queue does not track which ids have fired, so cancelling an
    /// event that already fired also returns true: it plants a tombstone
    /// that never matches, decrements [`Self::len`] and counts as a
    /// cancel. Callers cancel only events they know are pending.
    pub fn cancel(&mut self, id: EventId) -> bool {
        if id.0 >= self.next_seq {
            return false;
        }
        if self.peeked.is_some_and(|(_, s)| s == id.0) {
            self.peeked = None;
        }
        if self.cancelled.insert(id.0) {
            // Clamped: cancels of fired ids can outnumber pending events.
            self.live = self.live.saturating_sub(1);
            self.ctx.bump(Counter::EventsCancelled);
            true
        } else {
            false
        }
    }

    /// Remove and return the earliest live event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.peeked = None;
        while let Some(Reverse(Entry { at, seq, payload })) = self.heap.pop() {
            if self.cancelled.remove(seq) {
                continue; // tombstoned
            }
            // Saturating for the same reason `cancel` clamps: a cancel of
            // an already-popped id spuriously decrements `live`, and the
            // surviving events must still pop without underflow.
            self.live = self.live.saturating_sub(1);
            self.ctx.bump(Counter::EventsPopped);
            return Some((at, payload));
        }
        None
    }

    /// Timestamp of the earliest live event without removing it.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        if let Some((at, _)) = self.peeked {
            return Some(at);
        }
        // Drain tombstones off the top so peek is accurate.
        while let Some(Reverse(front)) = self.heap.peek() {
            let (at, seq) = (front.at, front.seq);
            if self.cancelled.remove(seq) {
                self.heap.pop();
            } else {
                self.peeked = Some((at, seq));
                return Some(at);
            }
        }
        None
    }

    /// Number of live (non-cancelled) events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True if no live events remain.
    pub fn is_empty(&self) -> bool {
        self.live == 0
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
    fn cancel_removes_event() {
        let mut q = EventQueue::with_ctx(&SimCtx::new());
        let a = q.schedule(t(1), "a");
        q.schedule(t(2), "b");
        assert!(q.cancel(a));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((t(2), "b")));
        assert!(q.is_empty());
    }

    #[test]
    fn double_cancel_returns_false() {
        let mut q = EventQueue::with_ctx(&SimCtx::new());
        let a = q.schedule(t(1), ());
        assert!(q.cancel(a));
        assert!(!q.cancel(a));
    }

    #[test]
    fn cancel_after_pop_leaves_later_events_alone() {
        let mut q = EventQueue::with_ctx(&SimCtx::new());
        let a = q.schedule(t(1), ());
        assert_eq!(q.pop(), Some((t(1), ())));
        // The event already fired; the queue does not track that, so the
        // cancel reports true and marks a tombstone that will never
        // match — which must not confuse later events.
        assert!(q.cancel(a));
        let b = q.schedule(t(2), ());
        assert!(b != a);
        assert_eq!(q.pop(), Some((t(2), ())));
    }

    #[test]
    fn peek_time_skips_cancelled() {
        let mut q = EventQueue::with_ctx(&SimCtx::new());
        let a = q.schedule(t(1), 1);
        q.schedule(t(5), 2);
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(t(5)));
        assert_eq!(q.pop(), Some((t(5), 2)));
    }

    #[test]
    fn u64set_insert_contains_remove_across_growth() {
        let mut s = U64Set::new();
        assert!(!s.contains(0));
        assert!(!s.remove(0));
        for k in 0..1000u64 {
            assert!(s.insert(k), "first insert of {k}");
            assert!(!s.insert(k), "duplicate insert of {k}");
        }
        for k in 0..1000u64 {
            assert!(s.contains(k));
        }
        assert!(!s.contains(1000));
        // Remove evens; odds must survive every backward shift.
        for k in (0..1000u64).step_by(2) {
            assert!(s.remove(k));
            assert!(!s.remove(k), "double remove of {k}");
        }
        for k in 0..1000u64 {
            assert_eq!(s.contains(k), k % 2 == 1, "key {k}");
        }
        // Reinsert into the holes.
        for k in (0..1000u64).step_by(2) {
            assert!(s.insert(k));
        }
        assert_eq!(s.len, 1000);
    }

    #[test]
    fn u64set_handles_colliding_keys() {
        // Keys a multiple of a large power of two apart collide in small
        // tables, exercising probe chains and backward-shift deletion.
        let mut s = U64Set::new();
        let keys: Vec<u64> = (0..48).map(|i| i << 32).collect();
        for &k in &keys {
            assert!(s.insert(k));
        }
        for &k in &keys {
            assert!(s.contains(k));
        }
        // Delete from the middle of chains and re-verify the rest.
        for (i, &k) in keys.iter().enumerate() {
            if i % 3 == 0 {
                assert!(s.remove(k));
            }
        }
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(s.contains(k), i % 3 != 0);
        }
    }

    #[test]
    fn len_tracks_live_events() {
        let mut q = EventQueue::with_ctx(&SimCtx::new());
        assert!(q.is_empty());
        let a = q.schedule(t(1), ());
        let _ = q.schedule(t(2), ());
        assert_eq!(q.len(), 2);
        q.cancel(a);
        assert_eq!(q.len(), 1);
        q.pop();
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn metrics_count_pops_cancels_and_peak_depth() {
        let ctx = SimCtx::new();
        let mut q = EventQueue::with_ctx(&ctx);
        let a = q.schedule(t(10), "a");
        q.schedule(t(20), "b");
        q.schedule(t(30), "c");
        assert!(q.cancel(a));
        while q.pop().is_some() {}
        let m = ctx.counters();
        assert_eq!(m.events_popped, 2);
        assert_eq!(m.events_cancelled, 1);
        assert_eq!(m.peak_queue_depth, 3);
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
