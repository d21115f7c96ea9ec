//! A cancellable event queue with deterministic ordering.
//!
//! Events at equal timestamps pop in the order they were scheduled
//! (FIFO by a monotonically increasing sequence number), which makes the
//! whole simulation deterministic regardless of queue internals.
//! Cancellation is *lazy*: a cancelled entry stays queued and is
//! discarded when it surfaces, which keeps `cancel` O(1).
//!
//! The queue is a hierarchical timer wheel: near-O(1) schedule/pop for
//! the dense-timer regime the MAC and transport layers generate
//! (per-frame TX timers, RTO, pacer ticks). A binary-heap reference
//! model with the same ids, tombstones and `len` semantics lives in
//! `tests/queue_equivalence.rs`, which proves both pop identical event
//! orders on randomized schedule/cancel workloads.

use crate::ctx::SimCtx;
use crate::metrics::Counter;
use crate::time::SimTime;

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

    #[inline]
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

struct Entry<E> {
    at: SimTime,
    seq: u64,
    payload: E,
}

/// Slots per wheel level (64 → a `u64` occupancy bitmask per level).
const WHEEL_SLOTS: usize = 64;
/// log2 of the level-0 slot width: 2¹⁰ ns ≈ 1 µs, matching the natural
/// spacing of MAC/transport timers so a slot holds only a few events.
const WHEEL_SHIFT0: u32 = 10;
/// Levels. Each level widens slots by 64×, so nine levels cover all 64
/// bits of `SimTime` (10 + 9·6 = 64) — no overflow list is ever needed.
const WHEEL_LEVELS: usize = 9;

/// Hierarchical timer wheel keyed by `(at, seq)`.
///
/// Every pending event lives either in the **stage** — the sorted
/// contents of the level-0 slot the cursor currently points at — or in a
/// level-`l` slot indexed by bits `[sh(l), sh(l)+6)` of its timestamp,
/// where `l` is the level of the most significant bit in which the
/// timestamp differs from the cursor. That placement rule yields the two
/// invariants `advance` relies on:
///
/// 1. events at level `l` share the cursor's timestamp bits *above*
///    level `l`, so they all fall inside the current level-`l+1` slot —
///    any occupied lower level is therefore strictly earlier than any
///    occupied higher level; and
/// 2. their level-`l` slot digit is strictly greater than the cursor's,
///    so within a level the smallest occupied slot index (one
///    `trailing_zeros` on the occupancy mask) is the earliest and no
///    wrap-around ambiguity exists.
///
/// Popping drains the stage; when it empties, the cursor jumps straight
/// to the next occupied slot (no tick-by-tick stepping), cascading
/// higher-level slots downward as they are reached. Each event cascades
/// at most `WHEEL_LEVELS − 1` times over its lifetime.
struct TimerWheel<E> {
    /// `WHEEL_LEVELS × WHEEL_SLOTS` buckets, level-major.
    slots: Vec<Vec<Entry<E>>>,
    /// Per-level bitmask of non-empty slots.
    occupied: [u64; WHEEL_LEVELS],
    /// Contents of the cursor's level-0 slot, sorted descending by
    /// `(at, seq)` so the earliest event pops from the back.
    stage: Vec<Entry<E>>,
    /// Cursor: start of the stage's level-0 slot, in nanoseconds.
    elapsed: u64,
    /// Total entries held (stage + all slots), including tombstoned ones.
    items: usize,
}

impl<E> TimerWheel<E> {
    fn new() -> Self {
        TimerWheel {
            slots: (0..WHEEL_LEVELS * WHEEL_SLOTS)
                .map(|_| Vec::new())
                .collect(),
            occupied: [0; WHEEL_LEVELS],
            stage: Vec::new(),
            elapsed: 0,
            items: 0,
        }
    }

    #[inline]
    fn shift(level: usize) -> u32 {
        WHEEL_SHIFT0 + 6 * level as u32
    }

    fn push(&mut self, entry: Entry<E>) {
        self.items += 1;
        self.place(entry);
    }

    /// Bucket `entry` relative to the current cursor.
    fn place(&mut self, entry: Entry<E>) {
        let t = entry.at.as_nanos();
        if (t >> WHEEL_SHIFT0) <= (self.elapsed >> WHEEL_SHIFT0) {
            // The cursor's own slot, or the past: goes straight into the
            // stage at its sorted position (descending, pop-from-back).
            let key = (entry.at, entry.seq);
            let pos = self.stage.partition_point(|e| (e.at, e.seq) > key);
            self.stage.insert(pos, entry);
        } else {
            // Differing slot ⇒ some bit ≥ WHEEL_SHIFT0 differs.
            let msb = 63 - (t ^ self.elapsed).leading_zeros();
            let level = ((msb - WHEEL_SHIFT0) / 6) as usize;
            let slot = ((t >> Self::shift(level)) & 63) as usize;
            self.slots[level * WHEEL_SLOTS + slot].push(entry);
            self.occupied[level] |= 1 << slot;
        }
    }

    /// Move the cursor to the next occupied slot and fill the stage.
    /// Precondition: the stage is empty and `items > 0`.
    ///
    /// Buffer discipline: slot `Vec`s are never dropped, only swapped or
    /// restored, so the steady state performs zero allocations — the
    /// property that lets the wheel beat an (allocation-free) binary heap.
    fn refill_stage(&mut self) {
        while self.stage.is_empty() {
            let level = (0..WHEEL_LEVELS)
                .find(|&l| self.occupied[l] != 0)
                .expect("wheel holds items but every slot is empty");
            let slot = self.occupied[level].trailing_zeros() as usize;
            let idx = level * WHEEL_SLOTS + slot;
            self.occupied[level] &= !(1u64 << slot);
            // Jump the cursor to the start of that slot: keep the bits
            // above the level's digit, set the digit, zero the rest.
            let sh = Self::shift(level);
            let prefix = if sh + 6 >= 64 {
                0
            } else {
                self.elapsed >> (sh + 6) << (sh + 6)
            };
            self.elapsed = prefix | ((slot as u64) << sh);
            if level == 0 {
                // The (empty) stage trades buffers with the slot: the slot
                // keeps a reusable allocation, the stage gets the entries.
                std::mem::swap(&mut self.stage, &mut self.slots[idx]);
                self.stage
                    .sort_unstable_by(|a, b| (b.at, b.seq).cmp(&(a.at, a.seq)));
            } else {
                // Cascade: re-bucket against the advanced cursor. Entries
                // land strictly below `level` (their timestamps now agree
                // with the cursor through this level's digit) or in the
                // stage, never back in this slot — so the drained buffer
                // can be handed back afterwards, capacity intact.
                let mut entries = std::mem::take(&mut self.slots[idx]);
                for e in entries.drain(..) {
                    self.place(e);
                }
                self.slots[idx] = entries;
            }
        }
    }

    fn pop_front(&mut self) -> Option<Entry<E>> {
        if self.items == 0 {
            return None;
        }
        if self.stage.is_empty() {
            self.refill_stage();
        }
        self.items -= 1;
        Some(self.stage.pop().expect("refilled stage is non-empty"))
    }

    fn peek_front(&mut self) -> Option<(SimTime, u64)> {
        if self.items == 0 {
            return None;
        }
        if self.stage.is_empty() {
            self.refill_stage();
        }
        self.stage.last().map(|e| (e.at, e.seq))
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
    wheel: TimerWheel<E>,
    cancelled: U64Set,
    next_seq: u64,
    live: usize,
    /// Memoized front `(at, seq)` from the last [`Self::peek_time`], valid
    /// until a pop, a strictly-earlier schedule, or a cancel of that very
    /// event. Driver loops peek between every event; the memo makes the
    /// repeat peeks free of wheel work (stage refills, tombstone drains).
    peeked: Option<(SimTime, u64)>,
    ctx: SimCtx,
}

impl<E> EventQueue<E> {
    /// An empty queue streaming its counter updates (pops, cancels, depth
    /// watermark) into `ctx`.
    pub fn with_ctx(ctx: &SimCtx) -> Self {
        EventQueue {
            wheel: TimerWheel::new(),
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
        self.wheel.push(Entry { at, seq, payload });
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
        while let Some(Entry { at, seq, payload }) = self.wheel.pop_front() {
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
        while let Some((at, seq)) = self.wheel.peek_front() {
            if self.cancelled.contains(seq) {
                self.wheel.pop_front();
                self.cancelled.remove(seq);
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
        // Spans all wheel levels: sub-slot, same-level, and far-future
        // timestamps, scheduled out of order.
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
        // After the cursor has advanced, schedule events at, before, and
        // just after the cursor; all must still pop in (at, seq) order.
        let mut q = EventQueue::with_ctx(&SimCtx::new());
        q.schedule(SimTime::from_nanos(1 << 20), 0);
        assert_eq!(q.pop(), Some((SimTime::from_nanos(1 << 20), 0)));
        q.schedule(SimTime::from_nanos((1 << 20) + 10), 1);
        q.schedule(SimTime::from_nanos(5), 2); // in the cursor's past
        q.schedule(SimTime::from_nanos((1 << 20) + 10), 3); // FIFO with 1
        q.schedule(SimTime::from_nanos((1 << 20) + 2_000), 4); // next slot
        assert_eq!(q.pop(), Some((SimTime::from_nanos(5), 2)));
        assert_eq!(q.pop(), Some((SimTime::from_nanos((1 << 20) + 10), 1)));
        assert_eq!(q.pop(), Some((SimTime::from_nanos((1 << 20) + 10), 3)));
        assert_eq!(q.pop(), Some((SimTime::from_nanos((1 << 20) + 2_000), 4)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn wheel_interleaves_pops_and_far_schedules() {
        // Repeatedly pop the front and schedule strictly later events so
        // the cursor jumps across level boundaries many times.
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
