//! Memoized radiometric link gains with generation-based invalidation.
//!
//! The frame-level experiments simulate thousands of frames over a *static*
//! room with a *finite* set of codebook patterns, yet the naive radiometric
//! chain recomputes ray-trace lookups, per-path pattern interpolation and
//! `powf`-based dB↔linear conversions on every frame start. This module
//! memoizes the quantity all of those computations reduce to: the total
//! **linear pattern-weighted link gain**
//!
//! ```text
//! G(src, src_pat, dst, dst_pat) = Σ_paths  L_p · g_src(θ_dep) · g_dst(θ_arr)
//! ```
//!
//! where `L_p = 10^(−path_loss/10)` folds Friis, oxygen absorption and
//! reflection losses into one linear factor per path, and the pattern gains
//! are evaluated in the linear domain from pre-resolved sample indices.
//! Received power is then one table lookup plus additive dB offsets:
//! `rx_dbm = lin_to_db(G) + tx_power − impl_loss + per-device offsets`.
//!
//! ## Interning and the reverse view
//!
//! Path sets are interned once per *unordered* device pair under the
//! canonical key `(min_idx, max_idx)`. By ray reciprocity the reverse link
//! uses the same geometry with departure and arrival swapped: a traced path
//! stores, at each endpoint, the world azimuth toward its first bounce, and
//! that azimuth serves as departure when the endpoint transmits and as
//! arrival when it receives. No second trace, no second entry.
//!
//! ## Generations instead of flushes
//!
//! Every device carries two monotonically increasing generation counters:
//!
//! * `pos_gen` — bumped when the device moves. Interned paths and all gains
//!   involving the device become stale.
//! * `orient_gen` — bumped when the device rotates in place. Paths stay
//!   valid (geometry is unchanged); only the pattern-weighted gains and the
//!   resolved sample indices go stale.
//!
//! Staleness is checked lazily by stamp comparison at lookup time, so a
//! bump is O(1) and never touches entries of unaffected pairs — replacing
//! the previous whole-table `invalidate_paths()` flush.
//!
//! ## Bypass mode
//!
//! [`CacheMode::Bypass`] performs *identical bookkeeping* — the same
//! interning, the same stamps, the same hit/miss/invalidation counters —
//! but always returns a freshly recomputed value instead of trusting a
//! memoized entry. A full experiment run in bypass mode must therefore
//! produce byte-identical campaign artifacts (counters included) to a
//! cached run; any divergence means a stale entry leaked through the
//! generation scheme. The campaign determinism suite asserts exactly that.

use crate::environment::Environment;
use crate::node::RadioNode;
use mmwave_phy::{db_to_lin, lin_to_db, path_loss_db, AntennaPattern, Codebook};
use mmwave_sim::ctx::SimCtx;
use mmwave_sim::hash::FastMap;
use mmwave_sim::metrics::Counter;

// The cache mode lives on the simulation context; re-exported here because
// it is, first and foremost, the link-gain cache's policy knob.
pub use mmwave_sim::ctx::CacheMode;

/// Opaque pattern identity *within one device*. The cache never inspects
/// patterns; callers assign stable ids (e.g. sector index, with a flag bit
/// for quasi-omni patterns) and guarantee that equal `(device, PatId)`
/// always denotes the same pattern samples. Ids must be below 2¹⁶: the
/// cache packs them into a one-word key (see [`gain_key`]).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct PatId(pub u32);

/// The gain-entry key of `src → dst` with the given pattern ids, packed
/// into one word: 16 bits each for the two device indices and the two
/// pattern ids. A key that overflowed its field would alias another
/// link's entry and silently return that link's gain, so the ranges are
/// checked in release builds too.
fn gain_key(src: usize, dst: usize, src_pat: PatId, dst_pat: PatId) -> u64 {
    const FIELD: usize = 1 << 16;
    assert!(
        src < FIELD && dst < FIELD,
        "device index {} beyond the gain key's 16 bits",
        src.max(dst)
    );
    assert!(
        (src_pat.0.max(dst_pat.0) as usize) < FIELD,
        "pattern id {:#x} beyond the gain key's 16 bits",
        src_pat.0.max(dst_pat.0)
    );
    (src as u64) << 48 | (dst as u64) << 32 | (src_pat.0 as u64) << 16 | dst_pat.0 as u64
}

/// Local cache-activity counters (the same events also stream into the
/// cache's [`SimCtx`] for campaign artifacts).
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct CacheStats {
    /// Gain lookups answered by a stamp-current entry.
    pub gain_hits: u64,
    /// Gain lookups that computed (cold) or recomputed (stale) an entry.
    pub gain_misses: u64,
    /// Sector-table lookups answered by a stamp-current table.
    pub table_hits: u64,
    /// Sector tables built or rebuilt.
    pub table_builds: u64,
    /// Ray traces performed to fill or refresh an interned path set.
    pub path_traces: u64,
    /// Invalidation events (position/orientation bumps and global flushes).
    pub invalidations: u64,
}

/// The traced paths of one interned pair with their direction-independent
/// radiometrics pre-folded, stored as parallel arrays (structure of arrays):
/// the gain folds iterate one quantity across all paths at a time, so each
/// fold walks one dense slice instead of striding through per-path structs.
#[derive(Clone, Debug, Default)]
struct FoldedPaths {
    /// `10^(−path_loss/10)` per path: Friis + oxygen + reflection, linear.
    base_lin: Vec<f64>,
    /// World azimuth from the lower-indexed endpoint toward its first
    /// bounce (departure when `lo` transmits, arrival when it receives).
    lo_world: Vec<mmwave_geom::Angle>,
    /// World azimuth from the higher-indexed endpoint toward its last
    /// bounce (arrival when `lo` transmits, departure when `hi` does).
    hi_world: Vec<mmwave_geom::Angle>,
}

impl FoldedPaths {
    fn len(&self) -> usize {
        self.base_lin.len()
    }

    /// The endpoint-side world azimuths, one per path.
    fn world(&self, side: Side) -> &[mmwave_geom::Angle] {
        match side {
            Side::Lo => &self.lo_world,
            Side::Hi => &self.hi_world,
        }
    }
}

/// Pattern sample indices resolved for one endpoint of an interned pair,
/// as parallel arrays in path order (the SoA mate of [`FoldedPaths`]).
#[derive(Clone, Debug, Default)]
struct Resolved {
    /// Orientation generation of the endpoint when resolved.
    orient_gen: u64,
    /// Sample count of the pattern family the triples index into.
    n: usize,
    /// Lower sample index per path.
    i0: Vec<u32>,
    /// Upper (wrapped) sample index per path.
    i1: Vec<u32>,
    /// Interpolation fraction per path.
    frac: Vec<f64>,
}

/// Interned path set for one unordered device pair.
#[derive(Clone, Debug)]
struct PairEntry {
    lo_pos_gen: u64,
    hi_pos_gen: u64,
    paths: FoldedPaths,
    lo_res: Resolved,
    hi_res: Resolved,
}

/// Generation stamp a gain entry was computed under: position and
/// orientation generations of source and destination.
type Stamp = (u64, u64, u64, u64);

#[derive(Clone, Copy, Debug)]
struct GainEntry {
    stamp: Stamp,
    lin: f64,
    /// `lin_to_db(lin)` memoized at fill time (`NEG_INFINITY` for a dead
    /// link). The conversion is deterministic in the bits of `lin`, so a
    /// hit returns exactly what recomputing would — and the per-frame
    /// receive-power path stays free of `log10`.
    db: f64,
}

/// The memoized sector sweep for one unordered device pair, in canonical
/// orientation (`lo` is the lower device index).
#[derive(Clone, Debug)]
struct TableEntry {
    stamp: Stamp,
    n_lo: usize,
    n_hi: usize,
    /// Argmax of the total linear link gain over every sector pair, as
    /// `(s_lo, s_hi, gain_lin)`; ties keep the first pair in lo-major
    /// scan order.
    best: (usize, usize, f64),
}

/// Memoized radiometric link gains, keyed by device indices and [`PatId`]s.
///
/// The cache is device-representation-agnostic: callers pass explicit
/// device indices (stable within one scenario), node poses and pattern
/// ids per call, and the patterns themselves when a gain must be
/// computed. See the module docs for the memoization and invalidation
/// scheme.
#[derive(Clone, Debug)]
pub struct LinkGainCache {
    mode: CacheMode,
    ctx: SimCtx,
    pos_gen: Vec<u64>,
    orient_gen: Vec<u64>,
    pairs: FastMap<(usize, usize), PairEntry>,
    /// Keyed by [`gain_key`].
    gains: FastMap<u64, GainEntry>,
    tables: FastMap<(usize, usize), TableEntry>,
    stats: CacheStats,
}

impl LinkGainCache {
    /// A cache adopting `ctx`'s cache mode and streaming its hit/miss/
    /// invalidation counters into `ctx`.
    pub fn with_ctx(ctx: &SimCtx) -> LinkGainCache {
        LinkGainCache {
            mode: ctx.cache_mode(),
            ctx: ctx.clone(),
            pos_gen: Vec::new(),
            orient_gen: Vec::new(),
            pairs: FastMap::default(),
            gains: FastMap::default(),
            tables: FastMap::default(),
            stats: CacheStats::default(),
        }
    }

    /// Operating mode.
    pub fn mode(&self) -> CacheMode {
        self.mode
    }

    /// Local activity counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// The simulation context this cache records into.
    pub fn ctx(&self) -> &SimCtx {
        &self.ctx
    }

    /// Grow the generation vectors to cover device index `idx`.
    pub fn ensure_device(&mut self, idx: usize) {
        if idx >= self.pos_gen.len() {
            self.pos_gen.resize(idx + 1, 0);
            self.orient_gen.resize(idx + 1, 0);
        }
    }

    /// Device `idx` moved: its interned paths and every gain involving it
    /// are stale from now on. O(1) — staleness is detected lazily.
    pub fn bump_position(&mut self, idx: usize) {
        self.ensure_device(idx);
        self.pos_gen[idx] += 1;
        self.record_invalidation();
    }

    /// Device `idx` rotated in place: geometry (paths) stays valid, but
    /// pattern-weighted gains and resolved sample indices are stale. O(1).
    pub fn bump_orientation(&mut self, idx: usize) {
        self.ensure_device(idx);
        self.orient_gen[idx] += 1;
        self.record_invalidation();
    }

    /// Global flush: everything involving any known device becomes stale.
    /// Kept for scene-level changes (e.g. the environment itself changed);
    /// per-device bumps are preferred.
    pub fn invalidate_all(&mut self) {
        for g in &mut self.pos_gen {
            *g += 1;
        }
        for g in &mut self.orient_gen {
            *g += 1;
        }
        self.record_invalidation();
    }

    fn record_invalidation(&mut self) {
        self.stats.invalidations += 1;
        self.ctx.bump(Counter::LinkGainInvalidations);
    }

    /// Total linear pattern-weighted link gain from `src` (transmitting
    /// with the pattern identified by `src_pat`) to `dst` (receiving with
    /// `dst_pat`), and its dB form (`NEG_INFINITY` for a dead link). The
    /// linear gain is `0.0` when no propagation path exists; multiply it
    /// by linear tx power and chain losses — or add their dB equivalents
    /// to the dB form — to get received power. The conversion is memoized
    /// with the gain entry, so the warm path costs no `log10` — the value
    /// is bit-identical to converting the linear gain fresh.
    ///
    /// `patterns` returns the `(src, dst)` antenna patterns the ids
    /// denote. It is called only to compute a gain: on a miss, or on any
    /// lookup in [`CacheMode::Bypass`]. A warm hit needs the ids alone.
    #[allow(clippy::too_many_arguments)]
    pub fn link_gain_lin_db<'p>(
        &mut self,
        env: &Environment,
        src: &RadioNode,
        src_idx: usize,
        src_pat: PatId,
        dst: &RadioNode,
        dst_idx: usize,
        dst_pat: PatId,
        patterns: impl FnOnce() -> (&'p AntennaPattern, &'p AntennaPattern),
    ) -> (f64, f64) {
        debug_assert_ne!(src_idx, dst_idx, "self-link has no radiometric meaning");
        self.ensure_device(src_idx.max(dst_idx));
        // The gain entry is checked before the pair: an entry whose stamp
        // matches was computed after the pair was interned at these very
        // position generations, so on a cached hit the pair probe would
        // be a no-op.
        let stamp: Stamp = (
            self.pos_gen[src_idx],
            self.orient_gen[src_idx],
            self.pos_gen[dst_idx],
            self.orient_gen[dst_idx],
        );
        let gkey = gain_key(src_idx, dst_idx, src_pat, dst_pat);
        match self.gains.get(&gkey) {
            Some(g) if g.stamp == stamp => {
                let (lin, db) = (g.lin, g.db);
                self.stats.gain_hits += 1;
                self.ctx.bump(Counter::LinkGainHits);
                if self.mode == CacheMode::Cached {
                    return (lin, db);
                }
                // Bypass: fall through and recompute; the interned inputs
                // are identical, so a correct cache yields a bit-identical
                // value.
            }
            _ => {
                self.stats.gain_misses += 1;
                self.ctx.bump(Counter::LinkGainMisses);
            }
        }

        let src_is_lo = src_idx < dst_idx;
        let (lo, hi) = if src_is_lo {
            (src_idx, dst_idx)
        } else {
            (dst_idx, src_idx)
        };
        let (lo_node, hi_node) = if src_is_lo { (src, dst) } else { (dst, src) };
        self.ensure_pair(env, lo, lo_node, hi, hi_node);

        let (lo_orient, hi_orient) = (self.orient_gen[lo], self.orient_gen[hi]);
        let entry = self.pairs.get_mut(&(lo, hi)).expect("pair interned above");
        let (src_pattern, dst_pattern) = patterns();
        let (lo_pat, hi_pat) = if src_is_lo {
            (src_pattern, dst_pattern)
        } else {
            (dst_pattern, src_pattern)
        };
        refresh_resolution(
            &mut entry.lo_res,
            &entry.paths,
            lo_node,
            lo_pat,
            lo_orient,
            Side::Lo,
        );
        refresh_resolution(
            &mut entry.hi_res,
            &entry.paths,
            hi_node,
            hi_pat,
            hi_orient,
            Side::Hi,
        );
        let (src_res, dst_res) = if src_is_lo {
            (&entry.lo_res, &entry.hi_res)
        } else {
            (&entry.hi_res, &entry.lo_res)
        };
        let lin = weighted_sum(&entry.paths, src_res, src_pattern, dst_res, dst_pattern);
        let db = if lin > 0.0 {
            lin_to_db(lin)
        } else {
            f64::NEG_INFINITY
        };

        self.gains.insert(gkey, GainEntry { stamp, lin, db });
        (lin, db)
    }

    /// Best sector pair between `a` and `b` sweeping both codebooks:
    /// `(a_sector, b_sector, gain_lin)` maximizing the linear link gain.
    /// The full table is memoized per unordered pair, so the reverse sweep
    /// and repeated retraining are lookups; ties resolve to the first cell
    /// in canonical (lower-index-major) scan order for both directions.
    #[allow(clippy::too_many_arguments)]
    pub fn best_sector_pair(
        &mut self,
        env: &Environment,
        a: &RadioNode,
        a_idx: usize,
        cb_a: &Codebook,
        b: &RadioNode,
        b_idx: usize,
        cb_b: &Codebook,
    ) -> (usize, usize, f64) {
        debug_assert_ne!(a_idx, b_idx, "self-link has no radiometric meaning");
        self.ensure_device(a_idx.max(b_idx));
        let a_is_lo = a_idx < b_idx;
        let (lo, hi) = if a_is_lo {
            (a_idx, b_idx)
        } else {
            (b_idx, a_idx)
        };
        let (lo_node, hi_node) = if a_is_lo { (a, b) } else { (b, a) };
        let (cb_lo, cb_hi) = if a_is_lo { (cb_a, cb_b) } else { (cb_b, cb_a) };

        self.ensure_pair(env, lo, lo_node, hi, hi_node);

        let stamp: Stamp = (
            self.pos_gen[lo],
            self.orient_gen[lo],
            self.pos_gen[hi],
            self.orient_gen[hi],
        );
        let hit = matches!(
            self.tables.get(&(lo, hi)),
            Some(t) if t.stamp == stamp && t.n_lo == cb_lo.len() && t.n_hi == cb_hi.len()
        );
        let best = if hit {
            self.stats.table_hits += 1;
            self.ctx.bump(Counter::LinkGainHits);
            match self.mode {
                CacheMode::Cached => self.tables[&(lo, hi)].best,
                CacheMode::Bypass => {
                    self.build_table(lo, lo_node, cb_lo, hi, hi_node, cb_hi, stamp)
                        .best
                }
            }
        } else {
            self.stats.table_builds += 1;
            self.ctx.bump(Counter::LinkGainMisses);
            let table = self.build_table(lo, lo_node, cb_lo, hi, hi_node, cb_hi, stamp);
            let best = table.best;
            self.tables.insert((lo, hi), table);
            best
        };
        if a_is_lo {
            best
        } else {
            (best.1, best.0, best.2)
        }
    }

    /// Intern (or refresh) the path set of the canonical pair `(lo, hi)`.
    fn ensure_pair(
        &mut self,
        env: &Environment,
        lo: usize,
        lo_node: &RadioNode,
        hi: usize,
        hi_node: &RadioNode,
    ) {
        let (lo_pos, hi_pos) = (self.pos_gen[lo], self.pos_gen[hi]);
        let fresh = matches!(
            self.pairs.get(&(lo, hi)),
            Some(e) if e.lo_pos_gen == lo_pos && e.hi_pos_gen == hi_pos
        );
        if fresh {
            return;
        }
        let traced = env.paths(lo_node.position, hi_node.position);
        let mut paths = FoldedPaths::default();
        paths.base_lin.reserve_exact(traced.len());
        paths.lo_world.reserve_exact(traced.len());
        paths.hi_world.reserve_exact(traced.len());
        for p in traced.iter() {
            paths
                .base_lin
                .push(db_to_lin(-path_loss_db(env.budget.freq_hz, p)));
            paths.lo_world.push(p.departure);
            paths.hi_world.push(p.arrival);
        }
        self.stats.path_traces += 1;
        self.pairs.insert(
            (lo, hi),
            PairEntry {
                lo_pos_gen: lo_pos,
                hi_pos_gen: hi_pos,
                paths,
                lo_res: Resolved::default(),
                hi_res: Resolved::default(),
            },
        );
    }

    /// Build the full sector-pair table for the canonical pair `(lo, hi)`.
    #[allow(clippy::too_many_arguments)]
    fn build_table(
        &mut self,
        lo: usize,
        lo_node: &RadioNode,
        cb_lo: &Codebook,
        hi: usize,
        hi_node: &RadioNode,
        cb_hi: &Codebook,
        stamp: Stamp,
    ) -> TableEntry {
        let (lo_orient, hi_orient) = (self.orient_gen[lo], self.orient_gen[hi]);
        let entry = self.pairs.get_mut(&(lo, hi)).expect("pair interned above");
        let n_paths = entry.paths.len();
        // Resolve endpoint sample triples against the codebook's sample
        // count (all sectors of one codebook share a resolution).
        if !cb_lo.is_empty() {
            let pat = &cb_lo.sector(0).pattern;
            refresh_resolution(
                &mut entry.lo_res,
                &entry.paths,
                lo_node,
                pat,
                lo_orient,
                Side::Lo,
            );
        }
        if !cb_hi.is_empty() {
            let pat = &cb_hi.sector(0).pattern;
            refresh_resolution(
                &mut entry.hi_res,
                &entry.paths,
                hi_node,
                pat,
                hi_orient,
                Side::Hi,
            );
        }
        // Per-sector linear gains along each path, per endpoint.
        let g_lo = sector_gains(cb_lo, &entry.lo_res, lo_node, &entry.paths, Side::Lo);
        let g_hi = sector_gains(cb_hi, &entry.hi_res, hi_node, &entry.paths, Side::Hi);

        let (n_lo, n_hi) = (cb_lo.len(), cb_hi.len());
        let mut best = (0usize, 0usize, f64::NEG_INFINITY);
        for s_lo in 0..n_lo {
            let gl = &g_lo[s_lo * n_paths..(s_lo + 1) * n_paths];
            for s_hi in 0..n_hi {
                let gh = &g_hi[s_hi * n_paths..(s_hi + 1) * n_paths];
                let mut sum = 0.0;
                for ((&base, &l), &h) in entry.paths.base_lin.iter().zip(gl).zip(gh) {
                    sum += base * l * h;
                }
                if sum > best.2 {
                    best = (s_lo, s_hi, sum);
                }
            }
        }
        if best.2 == f64::NEG_INFINITY {
            best = (0, 0, 0.0);
        }
        TableEntry {
            stamp,
            n_lo,
            n_hi,
            best,
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Side {
    Lo,
    Hi,
}

/// Refresh one endpoint's resolved sample triples if its orientation
/// generation or the pattern family's sample count changed.
fn refresh_resolution(
    res: &mut Resolved,
    paths: &FoldedPaths,
    node: &RadioNode,
    pattern: &AntennaPattern,
    orient_gen: u64,
    side: Side,
) {
    if res.orient_gen == orient_gen && res.n == pattern.len() && res.i0.len() == paths.len() {
        return;
    }
    res.i0.clear();
    res.i1.clear();
    res.frac.clear();
    for &world in paths.world(side) {
        let (i0, i1, frac) = pattern.sample_pos(node.to_local(world));
        res.i0.push(i0 as u32);
        res.i1.push(i1 as u32);
        res.frac.push(frac);
    }
    res.orient_gen = orient_gen;
    res.n = pattern.len();
}

/// Σ over paths of `base_lin · g_src · g_dst`, with both pattern gains
/// replayed from pre-resolved triples. The accumulation order (path 0, 1,
/// …) and the per-path product order match the original per-struct fold
/// exactly, so the sum is bit-identical.
fn weighted_sum(
    paths: &FoldedPaths,
    src_res: &Resolved,
    src_pattern: &AntennaPattern,
    dst_res: &Resolved,
    dst_pattern: &AntennaPattern,
) -> f64 {
    let mut sum = 0.0;
    for (i, &base) in paths.base_lin.iter().enumerate() {
        sum +=
            base * src_pattern.gain_lin_at(
                src_res.i0[i] as usize,
                src_res.i1[i] as usize,
                src_res.frac[i],
            ) * dst_pattern.gain_lin_at(
                dst_res.i0[i] as usize,
                dst_res.i1[i] as usize,
                dst_res.frac[i],
            );
    }
    sum
}

/// Linear gain of every sector of `cb` along every path, row-major
/// `[sector][path]`. Uses the endpoint's resolved triples when the sector
/// pattern matches their sample count, else falls back to a direct lookup.
fn sector_gains(
    cb: &Codebook,
    res: &Resolved,
    node: &RadioNode,
    paths: &FoldedPaths,
    side: Side,
) -> Vec<f64> {
    let mut out = Vec::with_capacity(cb.len() * paths.len());
    for s in cb.sectors() {
        if s.pattern.len() == res.n {
            for i in 0..res.i0.len() {
                out.push(s.pattern.gain_lin_at(
                    res.i0[i] as usize,
                    res.i1[i] as usize,
                    res.frac[i],
                ));
            }
        } else {
            for &world in paths.world(side) {
                out.push(s.pattern.gain_lin(node.to_local(world)));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmwave_geom::{Angle, Point};
    use mmwave_phy::{lin_to_db, ArrayConfig, PhasedArray};

    fn scene() -> (Environment, Vec<RadioNode>) {
        let env = Environment::new(mmwave_geom::ConferenceRoom::new().room);
        let nodes = vec![
            RadioNode::new(0, "a", Point::new(1.0, 1.0), Angle::from_degrees(30.0)),
            RadioNode::new(1, "b", Point::new(5.0, 2.5), Angle::from_degrees(200.0)),
            RadioNode::new(2, "c", Point::new(3.0, 2.8), Angle::from_degrees(-90.0)),
        ];
        (env, nodes)
    }

    fn pat(gain: f64, width_deg: f64) -> AntennaPattern {
        AntennaPattern::from_fn(720, |a| {
            (gain - (a.distance(Angle::ZERO).to_degrees() / width_deg).powi(2)).max(-25.0)
        })
    }

    /// The unmemoized reference: re-trace and sum in the linear domain.
    fn brute_force(
        env: &Environment,
        src: &RadioNode,
        src_pattern: &AntennaPattern,
        dst: &RadioNode,
        dst_pattern: &AntennaPattern,
    ) -> f64 {
        env.paths(src.position, dst.position)
            .iter()
            .map(|p| {
                db_to_lin(-path_loss_db(env.budget.freq_hz, p))
                    * src_pattern.gain_lin(src.to_local(p.departure))
                    * dst_pattern.gain_lin(dst.to_local(p.arrival))
            })
            .sum()
    }

    #[test]
    fn matches_brute_force_both_directions() {
        let (env, nodes) = scene();
        let mut cache = LinkGainCache::with_ctx(&SimCtx::new());
        let pa = pat(18.0, 12.0);
        let pb = pat(14.0, 20.0);
        let fwd = cache
            .link_gain_lin_db(&env, &nodes[0], 0, PatId(0), &nodes[1], 1, PatId(1), || {
                (&pa, &pb)
            })
            .0;
        let rev = cache
            .link_gain_lin_db(&env, &nodes[1], 1, PatId(1), &nodes[0], 0, PatId(0), || {
                (&pb, &pa)
            })
            .0;
        let reference = brute_force(&env, &nodes[0], &pa, &nodes[1], &pb);
        assert!(
            (fwd / reference - 1.0).abs() < 1e-9,
            "fwd {fwd} ref {reference}"
        );
        // Reciprocity: the derived reverse view is the same physics.
        assert!((rev / fwd - 1.0).abs() < 1e-12, "rev {rev} fwd {fwd}");
        // And only one trace happened for the pair.
        assert_eq!(cache.stats().path_traces, 1);
    }

    #[test]
    fn second_lookup_is_a_hit_with_identical_value() {
        let (env, nodes) = scene();
        let mut cache = LinkGainCache::with_ctx(&SimCtx::new());
        let p = pat(16.0, 15.0);
        let q = pat(10.0, 30.0);
        let first = cache
            .link_gain_lin_db(&env, &nodes[0], 0, PatId(3), &nodes[2], 2, PatId(7), || {
                (&p, &q)
            })
            .0;
        let second = cache
            .link_gain_lin_db(&env, &nodes[0], 0, PatId(3), &nodes[2], 2, PatId(7), || {
                (&p, &q)
            })
            .0;
        assert_eq!(first.to_bits(), second.to_bits());
        let s = cache.stats();
        assert_eq!((s.gain_misses, s.gain_hits), (1, 1));
        // The warm hit answered from the gain entry alone: no path trace
        // beyond the cold lookup's.
        assert_eq!(s.path_traces, 1);
    }

    #[test]
    fn a_warm_hit_never_reads_the_patterns() {
        let (env, nodes) = scene();
        let p = pat(16.0, 15.0);
        let mut cache = LinkGainCache::with_ctx(&SimCtx::new());
        let (a, b) = (&nodes[0], &nodes[1]);
        let cold = cache.link_gain_lin_db(&env, a, 0, PatId(2), b, 1, PatId(5), || (&p, &p));
        let warm = cache.link_gain_lin_db(&env, a, 0, PatId(2), b, 1, PatId(5), || {
            panic!("patterns read on a warm hit")
        });
        assert_eq!(cold.0.to_bits(), warm.0.to_bits());
        assert_eq!((cache.stats().gain_misses, cache.stats().gain_hits), (1, 1));
    }

    #[test]
    fn bypass_reads_the_patterns_on_every_lookup() {
        let (env, nodes) = scene();
        let p = pat(16.0, 15.0);
        let mut cache = LinkGainCache::with_ctx(&SimCtx::with_cache_mode(CacheMode::Bypass));
        let mut reads = 0;
        for _ in 0..3 {
            cache.link_gain_lin_db(&env, &nodes[0], 0, PatId(2), &nodes[1], 1, PatId(5), || {
                reads += 1;
                (&p, &p)
            });
        }
        assert_eq!(reads, 3);
        assert_eq!(cache.stats().gain_hits, 2);
    }

    #[test]
    fn rotation_invalidates_only_touching_pairs_and_keeps_paths() {
        let (env, nodes) = scene();
        let mut cache = LinkGainCache::with_ctx(&SimCtx::new());
        let p = pat(16.0, 15.0);
        // Warm all three pairs.
        for (s, d) in [(0usize, 1usize), (0, 2), (1, 2)] {
            cache.link_gain_lin_db(&env, &nodes[s], s, PatId(0), &nodes[d], d, PatId(0), || {
                (&p, &p)
            });
        }
        assert_eq!(cache.stats().path_traces, 3);
        assert_eq!(cache.stats().gain_misses, 3);

        // Rotate device 0 in place.
        cache.bump_orientation(0);
        let mut rotated = nodes[0].clone();
        rotated.orientation = rotated.orientation + Angle::from_degrees(40.0);
        let before = cache.stats();
        let stale = cache
            .link_gain_lin_db(&env, &rotated, 0, PatId(0), &nodes[1], 1, PatId(0), || {
                (&p, &p)
            })
            .0;
        cache.link_gain_lin_db(&env, &rotated, 0, PatId(0), &nodes[2], 2, PatId(0), || {
            (&p, &p)
        });
        let fresh_pair = cache
            .link_gain_lin_db(&env, &nodes[1], 1, PatId(0), &nodes[2], 2, PatId(0), || {
                (&p, &p)
            })
            .0;
        let after = cache.stats();
        // Pairs touching device 0 recomputed; the (1,2) pair was a pure hit.
        assert_eq!(after.gain_misses - before.gain_misses, 2);
        assert_eq!(after.gain_hits - before.gain_hits, 1);
        // Rotation must never re-trace geometry.
        assert_eq!(after.path_traces, 3);
        // And the recomputed gain really reflects the new orientation.
        let reference = brute_force(&env, &rotated, &p, &nodes[1], &p);
        assert!((stale / reference - 1.0).abs() < 1e-9);
        let _ = fresh_pair;
    }

    #[test]
    fn move_invalidates_paths_of_touching_pairs_only() {
        let (env, nodes) = scene();
        let mut cache = LinkGainCache::with_ctx(&SimCtx::new());
        let p = pat(16.0, 15.0);
        for (s, d) in [(0usize, 1usize), (0, 2), (1, 2)] {
            cache.link_gain_lin_db(&env, &nodes[s], s, PatId(0), &nodes[d], d, PatId(0), || {
                (&p, &p)
            });
        }
        cache.bump_position(1);
        let mut moved = nodes[1].clone();
        moved.position = Point::new(5.8, 1.2);
        let gain = cache
            .link_gain_lin_db(&env, &nodes[0], 0, PatId(0), &moved, 1, PatId(0), || {
                (&p, &p)
            })
            .0;
        cache.link_gain_lin_db(&env, &moved, 1, PatId(0), &nodes[2], 2, PatId(0), || {
            (&p, &p)
        });
        cache.link_gain_lin_db(&env, &nodes[0], 0, PatId(0), &nodes[2], 2, PatId(0), || {
            (&p, &p)
        });
        let s = cache.stats();
        // Two pairs re-traced ((0,1) and (1,2)); (0,2) untouched.
        assert_eq!(s.path_traces, 5);
        assert_eq!(s.gain_misses, 5);
        assert_eq!(s.gain_hits, 1);
        assert_eq!(s.invalidations, 1);
        let reference = brute_force(&env, &nodes[0], &p, &moved, &p);
        assert!((gain / reference - 1.0).abs() < 1e-9);
    }

    #[test]
    fn bypass_mode_matches_cached_values_and_counters() {
        let (env, nodes) = scene();
        let p = pat(18.0, 10.0);
        let q = pat(12.0, 25.0);
        let run = |mode: CacheMode| {
            let mut cache = LinkGainCache::with_ctx(&SimCtx::with_cache_mode(mode));
            let mut out = Vec::new();
            for _ in 0..3 {
                out.push(
                    cache
                        .link_gain_lin_db(
                            &env,
                            &nodes[0],
                            0,
                            PatId(0),
                            &nodes[1],
                            1,
                            PatId(1),
                            || (&p, &q),
                        )
                        .0,
                );
            }
            cache.bump_orientation(1);
            let mut rot = nodes[1].clone();
            rot.orientation = rot.orientation + Angle::from_degrees(-15.0);
            out.push(
                cache
                    .link_gain_lin_db(&env, &nodes[0], 0, PatId(0), &rot, 1, PatId(1), || (&p, &q))
                    .0,
            );
            (out, cache.stats())
        };
        let (cached_vals, cached_stats) = run(CacheMode::Cached);
        let (bypass_vals, bypass_stats) = run(CacheMode::Bypass);
        for (c, b) in cached_vals.iter().zip(&bypass_vals) {
            assert_eq!(c.to_bits(), b.to_bits());
        }
        assert_eq!(cached_stats, bypass_stats);
    }

    #[test]
    fn sector_table_matches_exhaustive_sweep_both_directions() {
        let (env, nodes) = scene();
        let cb_ctx = SimCtx::new();
        let array = PhasedArray::new(ArrayConfig::wigig_2x8(16));
        let cb_a = Codebook::directional(&cb_ctx, &array, 12, 60f64.to_radians());
        let array_b = PhasedArray::new(ArrayConfig::wigig_2x8(111));
        let cb_b = Codebook::directional(&cb_ctx, &array_b, 9, 50f64.to_radians());

        let mut cache = LinkGainCache::with_ctx(&SimCtx::new());
        let (sa, sb, lin) = cache.best_sector_pair(&env, &nodes[0], 0, &cb_a, &nodes[1], 1, &cb_b);

        // Exhaustive unmemoized sweep.
        let mut best = (0usize, 0usize, f64::NEG_INFINITY);
        for i in 0..cb_a.len() {
            for j in 0..cb_b.len() {
                let g = brute_force(
                    &env,
                    &nodes[0],
                    &cb_a.sector(i).pattern,
                    &nodes[1],
                    &cb_b.sector(j).pattern,
                );
                if g > best.2 {
                    best = (i, j, g);
                }
            }
        }
        assert_eq!((sa, sb), (best.0, best.1));
        assert!((lin / best.2 - 1.0).abs() < 1e-9);

        // The reverse sweep is a table hit with swapped sectors.
        let before = cache.stats();
        let (sb2, sa2, lin2) =
            cache.best_sector_pair(&env, &nodes[1], 1, &cb_b, &nodes[0], 0, &cb_a);
        let after = cache.stats();
        assert_eq!((sa2, sb2), (sa, sb));
        assert_eq!(lin2.to_bits(), lin.to_bits());
        assert_eq!(after.table_hits - before.table_hits, 1);
        assert_eq!(after.table_builds, 1);
    }

    #[test]
    fn sector_table_rebuilds_after_rotation() {
        let (env, nodes) = scene();
        let array = PhasedArray::new(ArrayConfig::wigig_2x8(16));
        let cb = Codebook::directional_default(&SimCtx::new(), &array);
        let mut cache = LinkGainCache::with_ctx(&SimCtx::new());
        let first = cache.best_sector_pair(&env, &nodes[0], 0, &cb, &nodes[1], 1, &cb);
        cache.bump_orientation(0);
        let mut rot = nodes[0].clone();
        rot.orientation = rot.orientation + Angle::from_degrees(70.0);
        let second = cache.best_sector_pair(&env, &rot, 0, &cb, &nodes[1], 1, &cb);
        assert_eq!(cache.stats().table_builds, 2);
        // A 70° twist steers the chosen sector away from the old one.
        assert_ne!(first.0, second.0);
        // But geometry was never re-traced.
        assert_eq!(cache.stats().path_traces, 1);
    }

    #[test]
    fn mode_comes_from_the_construction_context() {
        assert_eq!(
            LinkGainCache::with_ctx(&SimCtx::new()).mode(),
            CacheMode::Cached
        );
        let bypass_ctx = SimCtx::with_cache_mode(CacheMode::Bypass);
        assert_eq!(
            LinkGainCache::with_ctx(&bypass_ctx).mode(),
            CacheMode::Bypass
        );
    }

    #[test]
    fn cache_counters_stream_into_the_construction_context() {
        let (env, nodes) = scene();
        let ctx = SimCtx::new();
        let mut cache = LinkGainCache::with_ctx(&ctx);
        let p = pat(16.0, 15.0);
        for _ in 0..2 {
            cache.link_gain_lin_db(&env, &nodes[0], 0, PatId(0), &nodes[1], 1, PatId(0), || {
                (&p, &p)
            });
        }
        cache.bump_orientation(0);
        let c = ctx.counters();
        assert_eq!(c.link_gain_misses, 1);
        assert_eq!(c.link_gain_hits, 1);
        assert_eq!(c.link_gain_invalidations, 1);
    }

    #[test]
    fn short_link_has_positive_but_sub_unity_gain() {
        let (env, _) = scene();
        let a = RadioNode::new(0, "a", Point::new(1.0, 1.0), Angle::ZERO);
        let b = RadioNode::new(1, "b", Point::new(2.0, 1.0), Angle::ZERO);
        let p = AntennaPattern::isotropic(0.0);
        let mut cache = LinkGainCache::with_ctx(&SimCtx::new());
        let g = cache
            .link_gain_lin_db(&env, &a, 0, PatId(0), &b, 1, PatId(0), || (&p, &p))
            .0;
        assert!(g > 0.0);
        assert!(
            lin_to_db(g) < 0.0,
            "a 1 m 60 GHz link has negative net gain"
        );
    }

    #[test]
    fn gain_keys_keep_every_field_apart() {
        assert_eq!(
            gain_key(0xfffe, 1, PatId(0x8003), PatId(0x7fff)),
            0xfffe_0001_8003_7fff
        );
        let k = gain_key(1, 2, PatId(3), PatId(4));
        assert_ne!(k, gain_key(2, 1, PatId(3), PatId(4)));
        assert_ne!(k, gain_key(1, 2, PatId(4), PatId(3)));
    }

    #[test]
    #[should_panic(expected = "device index 65536 beyond")]
    fn gain_key_refuses_a_device_index_that_would_alias() {
        gain_key(0, 1 << 16, PatId(0), PatId(0));
    }

    #[test]
    #[should_panic(expected = "pattern id 0x80000000 beyond")]
    fn gain_key_refuses_a_pattern_id_that_would_alias() {
        gain_key(0, 1, PatId(1 << 31), PatId(0));
    }
}
