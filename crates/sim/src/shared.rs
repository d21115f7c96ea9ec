//! Campaign-scoped shared results.
//!
//! Some deterministic sub-results are needed by several tasks of one
//! campaign: the TCP-throughput sweep behind Figs. 9–11 and the §4.1
//! aggregation summary is the same simulation for all four of its
//! consumers at one seed. Every campaign task runs on a fresh
//! [`SimCtx`](crate::ctx::SimCtx), so a per-context cache never sees a
//! second consumer. [`SharedResults`] is the campaign-wide store instead:
//! one instance per campaign. It rides in the campaign's codebook pool
//! (`mmwave_phy::CodebookPrebuild`), which every task's context has
//! installed, and is `Send + Sync` so tasks on every thread reach it.
//!
//! * **Type-keyed.** This crate sits below every crate whose results it
//!   stores, so entries are keyed by value of any `PartialEq` key type
//!   and hold a value of any type; each user keys by a type of its own.
//! * **Once per key.** Each entry is a [`OnceLock`]. A task that needs a
//!   key another thread is filling blocks until that fill lands and
//!   does not recompute. A fill that panics leaves the key empty, so the
//!   next task that needs it computes it (the panic itself lands in the
//!   filling task's record).
//! * **Bounded.** At most [`SHARED_CAP`] entries, across all key types;
//!   inserting past the cap evicts the least recently used entry. A miss
//!   on an evicted key recomputes, and deterministic fills recompute the
//!   same bytes.
//!
//! Determinism is the caller's contract: a key must name everything its
//! fill reads, so that which task filled an entry is unobservable.

use std::any::Any;
use std::sync::{Arc, Mutex, OnceLock};

/// Most entries a [`SharedResults`] holds at once. A full-mode TCP sweep
/// is about 1.1 MB, so eight stay under 9 MB. The campaign dispatches
/// seed-major within a cost tier, so the consumers of one seed's sweep are
/// dispatched back to back and reuse it however many seeds the campaign
/// runs: the cap need only cover the seeds in flight at once.
pub const SHARED_CAP: usize = 8;

/// Fill and reuse counts of one [`SharedResults`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SharedStats {
    /// Lookups whose fill ran here and completed.
    pub computed: u64,
    /// Lookups answered from an entry another lookup filled.
    pub reused: u64,
    /// Most entries held at once (never above [`SHARED_CAP`]).
    pub peak_held: usize,
}

struct Entry {
    /// The caller's key, as its own type.
    key: Box<dyn Any + Send + Sync>,
    /// An `OnceLock<V>` for the key's value type `V`.
    cell: Arc<dyn Any + Send + Sync>,
}

#[derive(Default)]
struct Inner {
    /// Least recently used first.
    entries: Vec<Entry>,
    stats: SharedStats,
}

/// A bounded, thread-safe map of deterministic results filled lazily,
/// once per key. See the module docs.
#[derive(Default)]
pub struct SharedResults {
    inner: Mutex<Inner>,
}

impl SharedResults {
    /// The value for `key`, running `fill` only if no entry holds it yet.
    /// Returns the value and whether this call's `fill` produced it.
    ///
    /// The lock is held only to find or insert the key's entry; `fill`
    /// runs outside it, so lookups of other keys never wait on a fill.
    pub fn get_or_fill<K, V>(&self, key: K, fill: impl FnOnce() -> V) -> (V, bool)
    where
        K: PartialEq + Send + Sync + 'static,
        V: Clone + Send + Sync + 'static,
    {
        let cell = {
            let mut inner = self.lock();
            let found = inner
                .entries
                .iter()
                .position(|e| e.key.downcast_ref::<K>() == Some(&key));
            let entry = match found {
                Some(i) => inner.entries.remove(i),
                None => {
                    if inner.entries.len() == SHARED_CAP {
                        inner.entries.remove(0);
                    }
                    Entry {
                        key: Box::new(key),
                        cell: Arc::new(OnceLock::<V>::new()),
                    }
                }
            };
            let cell = Arc::clone(&entry.cell);
            inner.entries.push(entry);
            inner.stats.peak_held = inner.stats.peak_held.max(inner.entries.len());
            cell.downcast::<OnceLock<V>>()
                .expect("a key type maps to one value type")
        };
        let mut computed = false;
        let value = cell
            .get_or_init(|| {
                computed = true;
                fill()
            })
            .clone();
        let mut inner = self.lock();
        if computed {
            inner.stats.computed += 1;
        } else {
            inner.stats.reused += 1;
        }
        (value, computed)
    }

    /// Fill and reuse counts so far.
    pub fn stats(&self) -> SharedStats {
        self.lock().stats
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // What can panic under the lock — a key's `PartialEq`, the
        // value-type check — runs before or after the entry list is
        // updated, never in the middle, so a poisoned map is still valid.
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{self, AssertUnwindSafe};
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::mpsc;

    #[test]
    fn fills_once_per_key_and_reuses_after() {
        let pool = SharedResults::default();
        let one = || "one".to_string();
        assert_eq!(pool.get_or_fill(1u64, one), ("one".into(), true));
        assert_eq!(pool.get_or_fill(1u64, String::new), ("one".into(), false));
        assert_eq!(
            pool.get_or_fill(2u64, || "two".to_string()),
            ("two".into(), true)
        );
        let s = pool.stats();
        assert_eq!((s.computed, s.reused, s.peak_held), (2, 1, 2));
    }

    #[test]
    fn key_types_do_not_collide() {
        #[derive(PartialEq)]
        struct Other(u64);
        let pool = SharedResults::default();
        pool.get_or_fill(7u64, || 1u32);
        let (v, computed) = pool.get_or_fill(Other(7), || 2u32);
        assert_eq!((v, computed), (2, true));
    }

    #[test]
    fn never_holds_more_than_the_cap_and_evicts_least_recently_used() {
        let pool = SharedResults::default();
        for k in 0..20u64 {
            pool.get_or_fill(k, || k);
            // Touch key 0 so it stays the most recently used.
            pool.get_or_fill(0u64, || 0u64);
        }
        assert_eq!(pool.stats().peak_held, SHARED_CAP);
        assert_eq!(pool.get_or_fill(0u64, || 99u64), (0, false));
        // Key 1 was evicted long ago: a miss recomputes the same value.
        assert_eq!(pool.get_or_fill(1u64, || 1u64), (1, true));
    }

    #[test]
    fn lookups_during_a_fill_wait_for_it_and_reuse_it() {
        let pool = SharedResults::default();
        let fills = AtomicU32::new(0);
        let (pool, fills) = (&pool, &fills);
        let (in_fill_tx, in_fill) = mpsc::channel();
        let (go, go_rx) = mpsc::channel::<()>();
        std::thread::scope(|s| {
            // The filler holds its fill open until the other lookups have
            // been started against the entry it is filling.
            s.spawn(move || {
                pool.get_or_fill("sweep", || {
                    fills.fetch_add(1, Ordering::SeqCst);
                    in_fill_tx.send(()).expect("test alive");
                    go_rx.recv().expect("test alive");
                    42u64
                })
            });
            in_fill.recv().expect("filler started");
            let waiters: Vec<_> = (0..3)
                .map(|_| {
                    s.spawn(move || {
                        pool.get_or_fill("sweep", || {
                            fills.fetch_add(1, Ordering::SeqCst);
                            0u64
                        })
                    })
                })
                .collect();
            go.send(()).expect("filler alive");
            for w in waiters {
                assert_eq!(w.join().expect("waiter"), (42, false));
            }
        });
        assert_eq!(fills.load(Ordering::SeqCst), 1);
        let s = pool.stats();
        assert_eq!((s.computed, s.reused), (1, 3));
    }

    #[test]
    fn a_panicking_fill_leaves_the_key_empty() {
        let pool = SharedResults::default();
        let crashed = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.get_or_fill(3u64, || -> u64 { panic!("fill crashed") })
        }));
        assert!(crashed.is_err());
        assert_eq!(pool.get_or_fill(3u64, || 9u64), (9, true));
        assert_eq!(pool.stats().computed, 1, "the crashed fill is not counted");
    }
}
