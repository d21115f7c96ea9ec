//! The explicit simulation context.
//!
//! [`SimCtx`] bundles everything that used to live in ambient state —
//! thread-local engine counters, the thread-local codebook cache, the
//! process-global link-gain bypass flag — into one cheaply-cloneable
//! handle that is threaded explicitly through every layer. Two `Net`s
//! stepped interleaved on one thread therefore accumulate independent
//! counters and independent caches by construction, and the counters a
//! campaign task reports are a pure function of that task rather than of
//! whichever thread happened to run it.
//!
//! Internally a `SimCtx` is an `Rc` around one `Cell` per engine
//! [`Counter`], the link-gain [`CacheMode`], and a small type-keyed
//! extension map. The extension map solves the dependency direction:
//! `mmwave-sim` sits at the bottom of the workspace and cannot name the
//! codebook cache and campaign pool (`mmwave-phy`) or the
//! congestion-control override (`mmwave-transport`), so downstream crates
//! install their per-context stores via [`SimCtx::ext_or_insert_with`].
//!
//! Cloning a `SimCtx` clones the `Rc` — clones share counters and caches.
//! A fresh context ([`SimCtx::new`]) shares nothing with any other.
//!
//! `SimCtx` is deliberately `!Send`: contexts, and the `Net`s that hold
//! them, live and die on one thread (each campaign pool thread builds a
//! fresh context per task).

use crate::metrics::{Counter, EngineCounters, Fold};
use std::any::{Any, TypeId};
use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// Whether link-gain lookups through a context memoize or recompute.
///
/// `Bypass` exists to prove the cache sound: a bypassed run performs the
/// identical bookkeeping (counters, generations) but recomputes every
/// gain, so cached and bypassed campaigns must produce byte-identical
/// artifacts.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum CacheMode {
    /// Memoize link gains and sector tables (the default).
    #[default]
    Cached,
    /// Recompute every lookup (validation / benchmarking baseline).
    Bypass,
}

struct CtxInner {
    /// One cell per [`Counter`], indexed by the counter's discriminant.
    counters: [Cell<u64>; Counter::COUNT],
    cache_mode: CacheMode,
    /// Type-keyed extension slots: downstream crates park their
    /// per-context stores here (codebook cache, campaign pool, cc
    /// override). Linear scan — a context carries a handful of slots at
    /// most.
    ext: RefCell<Vec<(TypeId, Rc<dyn Any>)>>,
}

/// Explicit simulation context: counter sink, cache-mode policy, and
/// per-context cache slots. See the module docs.
#[derive(Clone)]
pub struct SimCtx {
    inner: Rc<CtxInner>,
}

impl Default for SimCtx {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for SimCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimCtx")
            .field("counters", &self.counters())
            .field("cache_mode", &self.cache_mode())
            .finish_non_exhaustive()
    }
}

impl SimCtx {
    /// A fresh context with zeroed counters and [`CacheMode::Cached`].
    pub fn new() -> SimCtx {
        Self::with_cache_mode(CacheMode::default())
    }

    /// A fresh context with an explicit link-gain cache mode.
    pub fn with_cache_mode(mode: CacheMode) -> SimCtx {
        SimCtx {
            inner: Rc::new(CtxInner {
                counters: std::array::from_fn(|_| Cell::new(0)),
                cache_mode: mode,
                ext: RefCell::new(Vec::new()),
            }),
        }
    }

    /// The link-gain cache mode caches built through this context adopt.
    pub fn cache_mode(&self) -> CacheMode {
        self.inner.cache_mode
    }

    /// True if `other` is a clone of this context (shares state with it).
    pub fn shares_state_with(&self, other: &SimCtx) -> bool {
        Rc::ptr_eq(&self.inner, &other.inner)
    }

    #[inline]
    fn cell(&self, c: Counter) -> &Cell<u64> {
        &self.inner.counters[c as usize]
    }

    /// Read the accumulated counters.
    pub fn counters(&self) -> EngineCounters {
        let mut out = EngineCounters::default();
        for c in Counter::ALL {
            out[c] = self.cell(c).get();
        }
        out
    }

    /// Fold previously captured counters into this context under each
    /// counter's [`Fold`] rule.
    ///
    /// For when a computation's *result* is cached and reused: capture the
    /// counter delta while computing ([`EngineCounters::since`]), store it
    /// with the cached value, and merge it on every cache hit. Each
    /// consumer then reports the same counters whether it filled the cache
    /// or read it.
    pub fn merge_counters(&self, other: EngineCounters) {
        for c in Counter::ALL {
            let cell = self.cell(c);
            cell.set(c.fold().apply(cell.get(), other[c]));
        }
    }

    /// Count one occurrence of a [`Fold::Sum`] counter.
    #[inline]
    pub fn bump(&self, c: Counter) {
        self.add(c, 1);
    }

    /// Count `n` occurrences of a [`Fold::Sum`] counter (0 is a no-op).
    #[inline]
    pub fn add(&self, c: Counter, n: u64) {
        debug_assert_eq!(c.fold(), Fold::Sum, "{} is not a sum", c.name());
        let cell = self.cell(c);
        cell.set(cell.get() + n);
    }

    /// Offer a reading to a [`Fold::Max`] counter; the context keeps the
    /// watermark.
    #[inline]
    pub fn raise(&self, c: Counter, value: u64) {
        debug_assert_eq!(c.fold(), Fold::Max, "{} is not a watermark", c.name());
        let cell = self.cell(c);
        cell.set(cell.get().max(value));
    }

    /// Fetch this context's extension slot of type `T`, installing
    /// `f()` on first access. Clones of a context share slots; distinct
    /// contexts never do.
    pub fn ext_or_insert_with<T: Any>(&self, f: impl FnOnce() -> T) -> Rc<T> {
        let tid = TypeId::of::<T>();
        {
            let ext = self.inner.ext.borrow();
            if let Some((_, v)) = ext.iter().find(|(t, _)| *t == tid) {
                return Rc::clone(v).downcast::<T>().expect("ext slot type");
            }
        }
        // Build outside the borrow: `f` may itself touch the context.
        let v = Rc::new(f());
        self.inner
            .ext
            .borrow_mut()
            .push((tid, Rc::clone(&v) as Rc<dyn Any>));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_context_counts_from_zero() {
        let ctx = SimCtx::new();
        assert_eq!(ctx.counters(), EngineCounters::default());
        ctx.bump(Counter::EventsPopped);
        ctx.bump(Counter::EventsPopped);
        ctx.raise(Counter::PeakQueueDepth, 3);
        ctx.raise(Counter::PeakQueueDepth, 1);
        ctx.add(Counter::LinkGainHits, 3);
        ctx.bump(Counter::CodebookMisses);
        ctx.add(Counter::SpatialPrunedPairs, 4);
        ctx.add(Counter::SpatialPrunedPairs, 0);
        let s = ctx.counters();
        assert_eq!(s.events_popped, 2);
        assert_eq!(s.peak_queue_depth, 3);
        assert_eq!(s.link_gain_hits, 3);
        assert_eq!(s.codebook_misses, 1);
        assert_eq!(s.spatial_pruned_pairs, 4);
        assert_eq!(s.fields().filter(|&(_, v)| v != 0).count(), 5);
    }

    #[test]
    fn merge_is_additive_with_depth_watermark() {
        let ctx = SimCtx::new();
        ctx.raise(Counter::PeakQueueDepth, 5);
        let mut c = EngineCounters::default();
        for (i, k) in Counter::ALL.into_iter().enumerate() {
            c[k] = i as u64 + 1;
        }
        ctx.merge_counters(c);
        ctx.merge_counters(c);
        let s = ctx.counters();
        for (i, k) in Counter::ALL.into_iter().enumerate() {
            let want = match k.fold() {
                Fold::Sum => 2 * (i as u64 + 1),
                Fold::Max => 5,
            };
            assert_eq!(s[k], want, "{}", k.name());
        }
        assert_eq!(s.peak_queue_depth, 5, "depth merges as a watermark");
    }

    #[test]
    fn clones_share_state_and_fresh_contexts_do_not() {
        let a = SimCtx::new();
        let b = a.clone();
        let c = SimCtx::new();
        assert!(a.shares_state_with(&b));
        assert!(!a.shares_state_with(&c));
        b.bump(Counter::EventsPopped);
        assert_eq!(a.counters().events_popped, 1, "clones share counters");
        assert_eq!(c.counters().events_popped, 0, "fresh contexts do not");
    }

    #[test]
    fn cache_mode_is_set_at_construction() {
        assert_eq!(SimCtx::new().cache_mode(), CacheMode::Cached);
        let b = SimCtx::with_cache_mode(CacheMode::Bypass);
        assert_eq!(b.cache_mode(), CacheMode::Bypass);
        assert_eq!(b.clone().cache_mode(), CacheMode::Bypass);
    }

    #[test]
    fn ext_slots_memoize_per_type_and_per_context() {
        struct Slot(Cell<u32>);
        let ctx = SimCtx::new();
        let first = ctx.ext_or_insert_with(|| Slot(Cell::new(7)));
        first.0.set(42);
        let again = ctx.ext_or_insert_with(|| Slot(Cell::new(0)));
        assert!(Rc::ptr_eq(&first, &again), "same slot on repeat access");
        assert_eq!(again.0.get(), 42);
        let clone_view = ctx.clone().ext_or_insert_with(|| Slot(Cell::new(0)));
        assert_eq!(clone_view.0.get(), 42, "clones share slots");
        let other = SimCtx::new();
        let fresh = other.ext_or_insert_with(|| Slot(Cell::new(0)));
        assert_eq!(fresh.0.get(), 0, "fresh contexts get fresh slots");
    }
}
