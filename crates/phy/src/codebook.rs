//! Beam codebooks: the predefined pattern sets consumer devices sweep.
//!
//! Millimetre-wave transceivers avoid per-packet beam computation by
//! selecting from a *codebook* of predefined antenna configurations (§2,
//! "Beam Steering"). The paper observes two codebooks on the D5000:
//!
//! * a **directional** codebook used during data transmission — highly
//!   directional sectors fanned across the serviced cone;
//! * a **quasi-omni** codebook of exactly **32 wide patterns** swept by the
//!   device-discovery frame (Fig. 3), each imperfect, with deep gaps
//!   (Fig. 16).
//!
//! Both are built here from a [`PhasedArray`], so every imperfection in the
//! pattern (side lobes, gaps, scan loss at the sector fan's edge) comes from
//! the array model, not from hand-drawn shapes.

use crate::array::{ArrayFingerprint, Complex, PhasedArray, SynthScratch};
use mmwave_geom::Angle;
use mmwave_sim::ctx::SimCtx;
use mmwave_sim::metrics::Counter;
use mmwave_sim::shared::SharedResults;
use std::cell::RefCell;
use std::f64::consts::PI;
use std::sync::Arc;

/// What a codebook is for.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CodebookKind {
    /// Narrow sectors for data transmission.
    Directional,
    /// Wide patterns for device discovery / beam training.
    QuasiOmni,
}

/// One codebook entry: a nominal steering direction and its realized
/// (imperfect) pattern.
#[derive(Clone, Debug)]
pub struct Sector {
    /// Index within the codebook.
    pub id: usize,
    /// Nominal steering azimuth (array-local).
    pub steer: Angle,
    /// The realized gain pattern.
    pub pattern: crate::pattern::AntennaPattern,
}

/// An ordered set of sectors.
///
/// The sector vector sits behind an `Arc`: cloning a codebook (and hitting
/// the memoization cache below) shares the synthesized patterns instead of
/// copying 32 × 720 samples. Codebooks are immutable after construction, so
/// sharing is unobservable apart from pointer identity.
#[derive(Clone, Debug)]
pub struct Codebook {
    kind: CodebookKind,
    sectors: Arc<Vec<Sector>>,
}

/// Identity of a memoized codebook: the array's exact configuration
/// fingerprint plus the codebook kind and parameters, all bit-exact. Equal
/// keys guarantee bit-identical sector patterns (see [`ArrayFingerprint`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct CacheKey {
    array: ArrayFingerprint,
    kind: CodebookKind,
    n: usize,
    half_span_bits: u64,
}

/// Memoized codebooks of one simulation context, installed in the
/// context's extension slot on first use. Linear-scanned (the working set
/// is a handful of entries; scanning short keys beats hashing them).
///
/// Per-context rather than per-thread: two `Net`s interleaved on one
/// thread keep independent codebook caches, and a campaign task's hit/miss
/// counters are a pure function of the task — its context is born empty —
/// rather than of which tasks ran earlier on the worker thread.
#[derive(Default)]
struct CodebookStore {
    entries: RefCell<Vec<(CacheKey, Codebook)>>,
}

/// Upper bound on memoized codebooks per context. Seed sweeps construct
/// hundreds of distinct arrays; evicting the oldest entry keeps that
/// bounded while leaving the steady-state working set (a few devices ×
/// two codebooks) untouched.
const CACHE_CAP: usize = 64;

/// The campaign-scoped pool: pre-synthesized codebooks plus the
/// campaign's [`SharedResults`], shareable across contexts and threads.
///
/// A campaign of N tasks otherwise pays the cold sector synthesis once
/// *per task* — each task's context is born with an empty codebook cache
/// by design (per-task counters must not depend on worker scheduling).
/// The pool keeps that determinism contract: its codebooks are built
/// **once, before any task runs**, are immutable afterwards (`Arc` of a
/// frozen entry list), and the pool is installed into every task's
/// context. A task's cache then resolves a miss from the pool — recorded
/// as a *prebuilt hit*, a pure function of the task itself — instead of
/// synthesizing.
///
/// The shared results are the lazily filled half: deterministic
/// sub-results several tasks need (the Figs. 9–11 TCP sweep), computed
/// once per key by whichever task needs them first. Their users key
/// them by everything the fill reads and replay the fill's counter delta
/// on reuse, so they keep the same contract.
///
/// Everything inside sits behind `Arc`s and is `Send + Sync`, so the
/// campaign pool's threads share one copy: clones share both halves.
#[derive(Clone, Default)]
pub struct CodebookPrebuild {
    entries: Arc<Vec<(CacheKey, Codebook)>>,
    shared: Arc<SharedResults>,
}

/// Per-context slot holding the installed prebuilt pool (empty until
/// [`CodebookPrebuild::install`]).
#[derive(Default)]
struct PrebuiltSlot(std::cell::OnceCell<CodebookPrebuild>);

/// Per-context pattern-synthesis scratch, shared by every codebook build in
/// the context so cold synthesis allocates no per-call accumulators.
#[derive(Default)]
struct SynthSlot(RefCell<SynthScratch>);

/// Synthesize one sector batch through the context's shared scratch.
fn synth_batch(
    ctx: &SimCtx,
    array: &PhasedArray,
    rows: &[Vec<Complex>],
) -> Vec<crate::pattern::AntennaPattern> {
    let row_views: Vec<&[Complex]> = rows.iter().map(|r| r.as_slice()).collect();
    let slot = ctx.ext_or_insert_with(SynthSlot::default);
    let mut scratch = slot.0.borrow_mut();
    array.patterns_from_weight_rows(&mut scratch, &row_views)
}

impl CodebookPrebuild {
    /// Synthesize the standard device codebooks for `arrays` — the
    /// directional data codebook for every array, plus the 32-entry
    /// quasi-omni discovery codebook where the geometry supports it —
    /// into a frozen pool. This is the campaign's single cold synthesis.
    pub fn standard(arrays: &[PhasedArray]) -> CodebookPrebuild {
        let scratch = SimCtx::new();
        for a in arrays {
            Codebook::directional_default(&scratch, a);
            // The 32-entry discovery sweep needs 28 adjacent-pair
            // patterns, i.e. ≥ 8 columns (4 phases × 7 pairs). WiGig
            // devices build it; the 6-column WiHD arrays never do.
            if a.config().columns >= 8 {
                Codebook::quasi_omni_32(&scratch, a);
            }
        }
        let store = scratch.ext_or_insert_with(CodebookStore::default);
        let entries = store.entries.borrow().clone();
        CodebookPrebuild {
            entries: Arc::new(entries),
            shared: Arc::default(),
        }
    }

    /// [`Self::standard`] over the canonical calibration arrays every
    /// stock experiment's devices are built from (dock/laptop pairs A and
    /// B, WiHD source and sink). Tasks that vary array seeds simply miss
    /// the pool and synthesize privately, exactly as before.
    pub fn standard_devices() -> CodebookPrebuild {
        use crate::calib;
        let arrays = [
            PhasedArray::new(crate::antenna::ArrayConfig::wigig_2x8(calib::DOCK_SEED)),
            PhasedArray::new(crate::antenna::ArrayConfig::wigig_2x8(calib::LAPTOP_SEED)),
            PhasedArray::new(crate::antenna::ArrayConfig::wigig_2x8(calib::DOCK_B_SEED)),
            PhasedArray::new(crate::antenna::ArrayConfig::wigig_2x8(calib::LAPTOP_B_SEED)),
            PhasedArray::new(crate::antenna::ArrayConfig::wihd_24(calib::WIHD_TX_SEED)),
            PhasedArray::new(crate::antenna::ArrayConfig::wihd_24(calib::WIHD_RX_SEED)),
        ];
        CodebookPrebuild::standard(&arrays)
    }

    /// Number of codebooks in the pool.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the pool holds nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The campaign's shared results (fill and reuse counts live here).
    pub fn shared(&self) -> &Arc<SharedResults> {
        &self.shared
    }

    /// The shared results of the pool installed in `ctx`, if any.
    pub fn shared_of(ctx: &SimCtx) -> Option<Arc<SharedResults>> {
        let slot = ctx.ext_or_insert_with(PrebuiltSlot::default);
        slot.0.get().map(|pool| Arc::clone(&pool.shared))
    }

    /// Install the pool into `ctx`: subsequent codebook-cache misses in
    /// that context consult the pool before synthesizing, and
    /// [`Self::shared_of`] reaches the shared results. First install wins;
    /// later installs on the same context are ignored (contexts are
    /// normally born, installed into, and discarded per task).
    pub fn install(&self, ctx: &SimCtx) {
        let slot = ctx.ext_or_insert_with(PrebuiltSlot::default);
        let _ = slot.0.set(self.clone());
    }
}

/// Number of codebooks currently memoized in `ctx` (for tests).
pub fn cache_len(ctx: &SimCtx) -> usize {
    ctx.ext_or_insert_with(CodebookStore::default)
        .entries
        .borrow()
        .len()
}

impl Codebook {
    /// Look `key` up in `ctx`'s codebook store, synthesizing via `build`
    /// on a miss. Hit/miss counts flow into the context's counters.
    fn cached(ctx: &SimCtx, key: CacheKey, build: impl FnOnce() -> Vec<Sector>) -> Codebook {
        let store = ctx.ext_or_insert_with(CodebookStore::default);
        let hit = store
            .entries
            .borrow()
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, cb)| cb.clone());
        if let Some(cb) = hit {
            ctx.bump(Counter::CodebookHits);
            return cb;
        }
        // Not in this context's cache: an installed prebuilt pool answers
        // before we synthesize. The entry is copied into the per-context
        // store (sharing the `Arc`ed sectors), so each pool resolution is
        // counted exactly once per context and later requests are plain
        // hits — steady state is indistinguishable from a cold synthesis.
        let slot = ctx.ext_or_insert_with(PrebuiltSlot::default);
        if let Some(pool) = slot.0.get() {
            if let Some((_, cb)) = pool.entries.iter().find(|(k, _)| *k == key) {
                ctx.bump(Counter::CodebookPrebuiltHits);
                let cb = cb.clone();
                let mut cache = store.entries.borrow_mut();
                if cache.len() == CACHE_CAP {
                    cache.remove(0);
                }
                cache.push((key, cb.clone()));
                return cb;
            }
        }
        ctx.bump(Counter::CodebookMisses);
        let cb = Codebook {
            kind: key.kind,
            sectors: Arc::new(build()),
        };
        let mut cache = store.entries.borrow_mut();
        if cache.len() == CACHE_CAP {
            cache.remove(0);
        }
        cache.push((key, cb.clone()));
        cb
    }
    /// Build a directional codebook: `n` sectors with steering azimuths
    /// fanned uniformly over ±`half_span`. The D5000's serviced area is a
    /// 120°-wide cone, but the paper finds it operating over a wider range
    /// indoors, so the default fan reaches ±77.5°.
    pub fn directional(ctx: &SimCtx, array: &PhasedArray, n: usize, half_span: f64) -> Codebook {
        assert!(n >= 2 && half_span > 0.0 && half_span < PI);
        let key = CacheKey {
            array: array.fingerprint(),
            kind: CodebookKind::Directional,
            n,
            half_span_bits: half_span.to_bits(),
        };
        Codebook::cached(ctx, key, || {
            // Batched synthesis: all sector weight rows in one pass over
            // the angle grid (bit-identical to per-sector synthesis).
            let steers: Vec<Angle> = (0..n)
                .map(|i| {
                    let frac = i as f64 / (n - 1) as f64;
                    Angle::from_radians(-half_span + 2.0 * half_span * frac)
                })
                .collect();
            let rows: Vec<Vec<Complex>> =
                steers.iter().map(|&s| array.steering_weights(s)).collect();
            let patterns = synth_batch(ctx, array, &rows);
            steers
                .into_iter()
                .zip(patterns)
                .enumerate()
                .map(|(id, (steer, pattern))| Sector { id, steer, pattern })
                .collect()
        })
    }

    /// The default directional codebook used by the WiGig device models:
    /// 32 sectors over ±77.5°.
    pub fn directional_default(ctx: &SimCtx, array: &PhasedArray) -> Codebook {
        Codebook::directional(ctx, array, 32, 77.5f64.to_radians())
    }

    /// Build the 32-entry quasi-omni discovery codebook.
    ///
    /// Each entry activates a small subset of columns:
    /// * entries 0–27: adjacent pairs `(i, i+1)` with one of four phase
    ///   offsets — a 2-element interferometer whose wide (≈ 60° HPBW) beam
    ///   squints with the phase offset;
    /// * entries 28–31: pairs spaced two columns apart, whose grating lobes
    ///   carve the deep gaps seen in Fig. 16.
    ///
    /// The sweep order is fixed, matching the D5000's repeatable
    /// sub-element sequence (§3.2 relies on this to average patterns
    /// across discovery frames).
    pub fn quasi_omni_32(ctx: &SimCtx, array: &PhasedArray) -> Codebook {
        let cols = array.config().columns;
        assert!(cols >= 4, "quasi-omni codebook needs at least 4 columns");
        let key = CacheKey {
            array: array.fingerprint(),
            kind: CodebookKind::QuasiOmni,
            n: 32,
            half_span_bits: 0,
        };
        Codebook::cached(ctx, key, || {
            let phases = [0.0, PI / 2.0, PI, -PI / 2.0];
            let mut steers = Vec::with_capacity(32);
            let mut rows = Vec::with_capacity(32);
            'outer: for &dp in &phases {
                for i in 0..cols - 1 {
                    // Nominal direction of a 2-element pair with phase
                    // difference dp at λ/2 spacing: sinθ = dp/π.
                    steers.push(Angle::from_radians((dp / PI).clamp(-1.0, 1.0).asin()));
                    rows.push(array.quasi_omni_weights(&[(i, 0.0), (i + 1, dp)]));
                    if rows.len() == 28 {
                        break 'outer;
                    }
                }
            }
            // Spaced pairs: grating-lobed wide patterns.
            for k in 0..4 {
                let i = k % (cols - 2);
                let dp = phases[k % 4];
                steers.push(Angle::ZERO);
                rows.push(array.quasi_omni_weights(&[(i, 0.0), (i + 2, dp)]));
            }
            debug_assert_eq!(rows.len(), 32);
            // One batched pass synthesizes the whole discovery sweep.
            let patterns = synth_batch(ctx, array, &rows);
            steers
                .into_iter()
                .zip(patterns)
                .enumerate()
                .map(|(id, (steer, pattern))| Sector { id, steer, pattern })
                .collect()
        })
    }

    /// Codebook kind.
    pub fn kind(&self) -> CodebookKind {
        self.kind
    }

    /// Number of sectors.
    pub fn len(&self) -> usize {
        self.sectors.len()
    }

    /// True if the codebook is empty (never constructed this way).
    pub fn is_empty(&self) -> bool {
        self.sectors.is_empty()
    }

    /// Sector by index; panics on out-of-range.
    pub fn sector(&self, id: usize) -> &Sector {
        &self.sectors[id]
    }

    /// All sectors in sweep order.
    pub fn sectors(&self) -> &[Sector] {
        &self.sectors
    }

    /// The sector whose realized pattern has the highest gain towards
    /// `toward` (array-local azimuth) — what an exhaustive sector sweep
    /// against an omni peer would select.
    pub fn best_toward(&self, toward: Angle) -> &Sector {
        self.sectors
            .iter()
            .max_by(|a, b| {
                a.pattern
                    .gain_dbi(toward)
                    .partial_cmp(&b.pattern.gain_dbi(toward))
                    .expect("finite gains")
            })
            .expect("non-empty codebook")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::antenna::ArrayConfig;

    fn wigig_array() -> PhasedArray {
        PhasedArray::new(ArrayConfig::wigig_2x8(11))
    }

    fn ctx() -> SimCtx {
        SimCtx::new()
    }

    #[test]
    fn directional_codebook_spans_fan() {
        let cb = Codebook::directional_default(&ctx(), &wigig_array());
        assert_eq!(cb.len(), 32);
        assert_eq!(cb.kind(), CodebookKind::Directional);
        assert!((cb.sector(0).steer.degrees() + 77.5).abs() < 1e-9);
        assert!((cb.sector(31).steer.degrees() - 77.5).abs() < 1e-9);
        // Steering azimuths are strictly increasing.
        for w in cb.sectors().windows(2) {
            assert!(w[1].steer.degrees() > w[0].steer.degrees());
        }
    }

    #[test]
    fn directional_sectors_point_roughly_at_their_steer() {
        // With 2-bit shifters and manufacturing errors an occasional sector
        // squints badly (that is the paper's point!), but the large
        // majority of inner sectors must still point near their nominal
        // steering azimuth.
        let cb = Codebook::directional_default(&ctx(), &wigig_array());
        let inner: Vec<_> = cb
            .sectors()
            .iter()
            .filter(|s| s.steer.degrees().abs() < 50.0)
            .collect();
        let good = inner
            .iter()
            .filter(|s| s.pattern.peak().direction.distance(s.steer) < 12f64.to_radians())
            .count();
        assert!(
            good * 10 >= inner.len() * 8,
            "only {good}/{} inner sectors point at their steer",
            inner.len()
        );
    }

    #[test]
    fn best_toward_picks_matching_sector() {
        let cb = Codebook::directional_default(&ctx(), &wigig_array());
        let target = Angle::from_degrees(30.0);
        let best = cb.best_toward(target);
        // The chosen sector's gain towards the target beats the average
        // sector by a clear margin.
        let avg: f64 = cb
            .sectors()
            .iter()
            .map(|s| s.pattern.gain_dbi(target))
            .sum::<f64>()
            / cb.len() as f64;
        assert!(best.pattern.gain_dbi(target) > avg + 3.0);
    }

    #[test]
    fn quasi_omni_has_32_entries() {
        let cb = Codebook::quasi_omni_32(&ctx(), &wigig_array());
        assert_eq!(cb.len(), 32);
        assert_eq!(cb.kind(), CodebookKind::QuasiOmni);
        for (i, s) in cb.sectors().iter().enumerate() {
            assert_eq!(s.id, i);
        }
    }

    #[test]
    fn quasi_omni_wider_than_directional() {
        let arr = wigig_array();
        let ctx = ctx();
        let qo = Codebook::quasi_omni_32(&ctx, &arr);
        let dir = Codebook::directional_default(&ctx, &arr);
        let qo_hpbw: f64 =
            qo.sectors().iter().map(|s| s.pattern.hpbw()).sum::<f64>() / qo.len() as f64;
        let dir_hpbw: f64 =
            dir.sectors().iter().map(|s| s.pattern.hpbw()).sum::<f64>() / dir.len() as f64;
        assert!(qo_hpbw > 2.0 * dir_hpbw, "qo {qo_hpbw} dir {dir_hpbw}");
    }

    #[test]
    fn quasi_omni_sweep_order_is_deterministic() {
        let arr = wigig_array();
        // Distinct contexts: the second build synthesizes from scratch.
        let a = Codebook::quasi_omni_32(&ctx(), &arr);
        let b = Codebook::quasi_omni_32(&ctx(), &arr);
        for (sa, sb) in a.sectors().iter().zip(b.sectors()) {
            assert_eq!(sa.pattern.samples(), sb.pattern.samples());
        }
    }

    #[test]
    fn cache_hits_share_sectors_and_count() {
        let ctx = ctx();
        let arr = wigig_array();
        let a = Codebook::directional_default(&ctx, &arr);
        let b = Codebook::directional_default(&ctx, &arr);
        assert!(
            Arc::ptr_eq(&a.sectors, &b.sectors),
            "hit must share the synthesized sectors"
        );
        // A different error seed is a different fingerprint: no sharing.
        let c = Codebook::directional_default(&ctx, &PhasedArray::new(ArrayConfig::wigig_2x8(12)));
        assert!(!Arc::ptr_eq(&a.sectors, &c.sectors));
        // Same array, different kind/params: distinct entries.
        let q = Codebook::quasi_omni_32(&ctx, &arr);
        assert!(!Arc::ptr_eq(&a.sectors, &q.sectors));
        let s = ctx.counters();
        assert_eq!(s.codebook_hits, 1);
        assert_eq!(s.codebook_misses, 3);
        assert_eq!(cache_len(&ctx), 3);
    }

    #[test]
    fn distinct_contexts_keep_distinct_caches() {
        let arr = wigig_array();
        let ctx_a = ctx();
        let ctx_b = ctx();
        let a = Codebook::directional_default(&ctx_a, &arr);
        let b = Codebook::directional_default(&ctx_b, &arr);
        assert!(
            !Arc::ptr_eq(&a.sectors, &b.sectors),
            "separate contexts must not share cache entries"
        );
        assert_eq!(ctx_a.counters().codebook_misses, 1);
        assert_eq!(ctx_b.counters().codebook_misses, 1);
        assert_eq!(ctx_b.counters().codebook_hits, 0);
    }

    #[test]
    fn cached_codebook_equals_fresh_synthesis() {
        let ctx = ctx();
        let arr = wigig_array();
        let first = Codebook::directional_default(&ctx, &arr);
        let hit = Codebook::directional_default(&ctx, &arr);
        // A fresh context has an empty cache: full synthesis.
        let fresh = Codebook::directional_default(&SimCtx::new(), &arr);
        for ((a, b), c) in first
            .sectors()
            .iter()
            .zip(hit.sectors())
            .zip(fresh.sectors())
        {
            assert_eq!(a.pattern.samples(), b.pattern.samples());
            assert_eq!(a.pattern.samples(), c.pattern.samples());
        }
    }

    #[test]
    fn cache_evicts_oldest_beyond_cap() {
        let ctx = ctx();
        // Distinct error seeds → distinct fingerprints; overflow the cap
        // (tiny 2-sector codebooks keep this fast).
        for seed in 0..(CACHE_CAP as u64 + 4) {
            Codebook::directional(
                &ctx,
                &PhasedArray::new(ArrayConfig::wigig_2x8(seed)),
                2,
                0.5,
            );
        }
        assert_eq!(cache_len(&ctx), CACHE_CAP);
    }

    #[test]
    fn prebuilt_pool_resolves_canonical_arrays_without_synthesis() {
        let pool = CodebookPrebuild::standard_devices();
        // 6 canonical arrays × directional + 4 wigig arrays × quasi-omni.
        assert_eq!(pool.len(), 10);

        let ctx = ctx();
        pool.install(&ctx);
        let dock = PhasedArray::new(ArrayConfig::wigig_2x8(crate::calib::DOCK_SEED));
        let a = Codebook::directional_default(&ctx, &dock);
        let s = ctx.counters();
        assert_eq!(s.codebook_prebuilt_hits, 1, "pool answers the cold miss");
        assert_eq!(s.codebook_misses, 0, "no synthesis for a canonical array");
        // Second request is a plain per-context hit sharing the pool's
        // sectors — steady state is indistinguishable from cold synthesis.
        let b = Codebook::directional_default(&ctx, &dock);
        assert!(Arc::ptr_eq(&a.sectors, &b.sectors));
        let s = ctx.counters();
        assert_eq!(s.codebook_prebuilt_hits, 1);
        assert_eq!(s.codebook_hits, 1);

        // Pool contents are byte-identical to a private synthesis.
        let fresh = Codebook::directional_default(&SimCtx::new(), &dock);
        for (pa, pf) in a.sectors().iter().zip(fresh.sectors()) {
            assert_eq!(pa.pattern.samples(), pf.pattern.samples());
        }

        // A non-canonical seed misses the pool and synthesizes privately.
        Codebook::directional_default(&ctx, &wigig_array());
        let s = ctx.counters();
        assert_eq!(s.codebook_misses, 1);
        assert_eq!(s.codebook_prebuilt_hits, 1);
    }

    #[test]
    fn prebuilt_pool_is_shareable_across_threads() {
        let pool = CodebookPrebuild::standard_devices();
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let p = pool.clone();
                std::thread::spawn(move || {
                    let ctx = SimCtx::new();
                    p.install(&ctx);
                    let dock = PhasedArray::new(ArrayConfig::wigig_2x8(crate::calib::DOCK_SEED));
                    Codebook::directional_default(&ctx, &dock);
                    ctx.counters().codebook_prebuilt_hits
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), 1);
        }
    }

    #[test]
    fn quasi_omni_union_covers_front_hemisphere() {
        // Together the 32 patterns must reach a pairing device anywhere in
        // the serviced cone (the D5000's spec is a 120°-wide cone, i.e.
        // ±60°): max-over-patterns gain within 12 dB of the best direction.
        // Outside the cone, element roll-off makes holes physical.
        let cb = Codebook::quasi_omni_32(&ctx(), &wigig_array());
        let best_of = |a: Angle| -> f64 {
            cb.sectors()
                .iter()
                .map(|s| s.pattern.gain_dbi(a))
                .fold(f64::MIN, f64::max)
        };
        let overall_best = (-60..=60)
            .map(|d| best_of(Angle::from_degrees(d as f64)))
            .fold(f64::MIN, f64::max);
        for d in (-60..=60).step_by(5) {
            let g = best_of(Angle::from_degrees(d as f64));
            assert!(
                g > overall_best - 12.0,
                "coverage hole at {d}°: {g} vs {overall_best}"
            );
        }
    }
}
