//! Spatial interference graph: who can possibly hear whom.
//!
//! At enterprise density (tens of rooms, 100+ links) most device pairs are
//! so far apart — through so many opaque partitions — that their coupling
//! sits tens of dB below the noise floor. Evaluating the full radiometric
//! chain (path trace, pattern folding, cache bookkeeping) for those pairs
//! is pure overhead. This module prunes them *provably*:
//!
//! * [`coupling_bound_dbm`] — a conservative analytic ceiling on the power
//!   any pattern pair could deliver over distance `d`: peak gains at both
//!   ends, every path as short as the direct line, all paths combining in
//!   phase-free power sum, plus a configured margin for per-device power
//!   offsets and control-frame boosts. Monotone decreasing in `d`.
//! * [`cutoff_distance_m`] — the distance beyond which that ceiling falls
//!   below the configured floor, found by bisection.
//! * [`SpatialIndex`] — a coarse uniform grid (cell edge = cutoff) over
//!   device positions; the 3×3 neighborhood of a cell is a superset of
//!   every device within the cutoff.
//!
//! Pairs beyond the cutoff contribute exactly −300 dBm. [`PruneMode`]
//! mirrors the link-gain cache's `CacheMode` differential idiom:
//! `Enforce` skips the skippable math, `Audit` performs a counter-free
//! recomputation of every pruned pair and panics if one exceeds the
//! floor — so an enforce-mode and an audit-mode campaign must produce
//! byte-identical artifacts, and any unsound bound aborts the audit run.

use crate::environment::Environment;
use mmwave_geom::{shared_tree, Point};
use mmwave_phy::{fspl_db, oxygen_loss_db};
use mmwave_sim::ctx::SimCtx;
use mmwave_sim::hash::FastMap;
use std::cell::Cell;

/// Whether spatial pruning skips the pruned math or verifies it.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum PruneMode {
    /// Skip evaluation for pairs beyond the cutoff (the fast path).
    #[default]
    Enforce,
    /// Evaluate every pruned pair through a counter-free side computation
    /// and panic if it reaches the floor; return −300 dBm exactly like
    /// `Enforce`. Counters fire identically by construction.
    Audit,
}

impl PruneMode {
    /// Stable identifier (CLI flag value, test labels).
    pub fn as_str(self) -> &'static str {
        match self {
            PruneMode::Enforce => "enforce",
            PruneMode::Audit => "audit",
        }
    }

    /// Inverse of [`PruneMode::as_str`] (the `--prune` flag).
    pub fn parse(s: &str) -> Option<PruneMode> {
        match s {
            "enforce" => Some(PruneMode::Enforce),
            "audit" => Some(PruneMode::Audit),
            _ => None,
        }
    }
}

/// Conservative inputs to the coupling bound.
#[derive(Clone, Copy, Debug)]
pub struct SpatialConfig {
    /// Pairs whose coupling ceiling is below this receive exactly −300 dBm.
    /// −120 dBm sits ≈ 50 dB under the ~−71.5 dBm noise floor: even one
    /// hundred such interferers summed stay > 25 dB below noise.
    pub floor_dbm: f64,
    /// Ceiling on any device pattern's peak gain, dBi. Trained WiGig
    /// arrays synthesize ≤ ~17 dBi; 20 leaves headroom.
    pub max_gain_dbi: f64,
    /// Additive headroom for per-device power offsets (WiHD runs 8 dB
    /// hotter) and control-frame boosts (6 dB).
    pub margin_db: f64,
}

impl Default for SpatialConfig {
    fn default() -> SpatialConfig {
        SpatialConfig {
            floor_dbm: -120.0,
            max_gain_dbi: 20.0,
            margin_db: 16.0,
        }
    }
}

/// Ceiling on the power any transmission from one device of a pair could
/// deliver at the other over separation `d`, in dBm.
///
/// Every enumerable path is at least `d` long (unfolded reflections only
/// lengthen), loses at least free-space + oxygen over that length, and
/// gains at most `max_gain_dbi` at each end; at most
/// `1 + W + W·(W−1)` paths exist for `W` reflective walls, and they
/// combine incoherently (power sum). Per-device power offsets, boosts and
/// the per-run atmospheric term are covered by `margin_db` and the
/// environment's own budget terms.
pub fn coupling_bound_dbm(env: &Environment, cfg: &SpatialConfig, n_mirrors: usize, d: f64) -> f64 {
    let n_paths = (1 + n_mirrors + n_mirrors * n_mirrors.saturating_sub(1)) as f64;
    env.budget.tx_power_dbm - env.budget.implementation_loss_db - env.extra_loss_db
        + 2.0 * cfg.max_gain_dbi
        + cfg.margin_db
        + 10.0 * n_paths.log10()
        - fspl_db(env.budget.freq_hz, d)
        - oxygen_loss_db(d)
}

/// The separation beyond which [`coupling_bound_dbm`] is strictly below
/// `cfg.floor_dbm`, found by bisection on the monotone bound. Clamped to
/// [0.05 m, 10 km]; returns the upper end of the final bracket, so every
/// distance greater than the result is provably below the floor.
pub fn cutoff_distance_m(env: &Environment, cfg: &SpatialConfig) -> f64 {
    let n = shared_tree(&env.room, &env.trace).node_count();
    let bound = |d: f64| coupling_bound_dbm(env, cfg, n, d);
    let (mut lo, mut hi) = (0.05, 10_000.0);
    if bound(hi) >= cfg.floor_dbm {
        return hi; // nothing is prunable within any indoor scale
    }
    if bound(lo) < cfg.floor_dbm {
        return lo; // everything beyond near-field is prunable
    }
    for _ in 0..64 {
        let mid = 0.5 * (lo + hi);
        if bound(mid) >= cfg.floor_dbm {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    hi
}

/// Coarse uniform grid over device positions. Cell edge equals the
/// coupling cutoff, so the 3×3 neighborhood of any point is a superset of
/// every device within the cutoff of it.
#[derive(Clone, Debug)]
pub struct SpatialIndex {
    cutoff_m: f64,
    cell_m: f64,
    pos: Vec<Point>,
    cells: FastMap<(i64, i64), Vec<usize>>,
}

impl SpatialIndex {
    /// An empty index with the given coupling cutoff.
    pub fn new(cutoff_m: f64) -> SpatialIndex {
        assert!(cutoff_m > 0.0 && cutoff_m.is_finite());
        SpatialIndex {
            cutoff_m,
            cell_m: cutoff_m.max(1.0),
            pos: Vec::new(),
            cells: FastMap::default(),
        }
    }

    /// Number of registered devices.
    pub fn tracked(&self) -> usize {
        self.pos.len()
    }

    fn cell_of(&self, p: Point) -> (i64, i64) {
        (
            (p.x / self.cell_m).floor() as i64,
            (p.y / self.cell_m).floor() as i64,
        )
    }

    /// Register device `idx`'s position, or move an already-registered
    /// device. Devices must be registered in index order (0, 1, 2, …).
    pub fn set_position(&mut self, idx: usize, p: Point) {
        if idx == self.pos.len() {
            self.pos.push(p);
            self.cells.entry(self.cell_of(p)).or_default().push(idx);
            return;
        }
        assert!(
            idx < self.pos.len(),
            "positions must be registered in order"
        );
        let old = self.pos[idx];
        let (oc, nc) = (self.cell_of(old), self.cell_of(p));
        self.pos[idx] = p;
        if oc != nc {
            let bucket = self.cells.get_mut(&oc).expect("tracked cell");
            bucket.retain(|&d| d != idx);
            self.cells.entry(nc).or_default().push(idx);
        }
    }

    /// The registered position of device `idx`.
    pub fn position(&self, idx: usize) -> Point {
        self.pos[idx]
    }

    /// True if two positions are geometrically coupled (within the cutoff).
    pub fn coupled(&self, a: Point, b: Point) -> bool {
        a.distance(b) <= self.cutoff_m
    }

    /// Collect every device in the 3×3 cell neighborhood of `center` into
    /// `out` (cleared first) — a superset of all devices within the
    /// cutoff. Order is deterministic: cell-major, insertion order within
    /// a cell.
    pub fn neighbors_into(&self, center: Point, out: &mut Vec<usize>) {
        out.clear();
        let (cx, cy) = self.cell_of(center);
        for dx in -1..=1 {
            for dy in -1..=1 {
                if let Some(bucket) = self.cells.get(&(cx + dx, cy + dy)) {
                    out.extend_from_slice(bucket);
                }
            }
        }
    }
}

/// Per-context prune-mode override slot (the `cc::install_override`
/// idiom): a campaign stamps the mode into every task's context instead
/// of threading a parameter through each experiment constructor.
struct PruneOverride(Cell<Option<PruneMode>>);

/// Force every spatially-pruned medium built through `ctx` into `mode`.
pub fn install_override(ctx: &SimCtx, mode: PruneMode) {
    ctx.ext_or_insert_with(|| PruneOverride(Cell::new(None)))
        .0
        .set(Some(mode));
}

/// The prune mode installed on `ctx`, if any.
pub fn override_of(ctx: &SimCtx) -> Option<PruneMode> {
    ctx.ext_or_insert_with(|| PruneOverride(Cell::new(None)))
        .0
        .get()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmwave_geom::Room;

    fn env() -> Environment {
        Environment::new(Room::open_space())
    }

    #[test]
    fn bound_is_monotone_decreasing_in_distance() {
        let e = env();
        let cfg = SpatialConfig::default();
        let mut prev = f64::INFINITY;
        for d in [0.1, 0.5, 1.0, 3.0, 10.0, 40.0, 200.0, 2000.0] {
            let b = coupling_bound_dbm(&e, &cfg, 4, d);
            assert!(b <= prev, "bound rose at {d} m");
            prev = b;
        }
    }

    #[test]
    fn more_mirrors_raise_the_bound() {
        let e = env();
        let cfg = SpatialConfig::default();
        assert!(coupling_bound_dbm(&e, &cfg, 20, 5.0) > coupling_bound_dbm(&e, &cfg, 0, 5.0));
    }

    #[test]
    fn cutoff_is_sound_and_tight() {
        let e = env();
        let cfg = SpatialConfig::default();
        let cut = cutoff_distance_m(&e, &cfg);
        assert!(cut > 1.0 && cut < 10_000.0, "cutoff {cut}");
        let n = 0; // open space: LoS only
        assert!(coupling_bound_dbm(&e, &cfg, n, cut * 1.001) < cfg.floor_dbm);
        assert!(coupling_bound_dbm(&e, &cfg, n, cut * 0.9) >= cfg.floor_dbm);
    }

    #[test]
    fn raising_the_floor_shrinks_the_cutoff() {
        let e = env();
        let lo = SpatialConfig {
            floor_dbm: -140.0,
            ..SpatialConfig::default()
        };
        let hi = SpatialConfig {
            floor_dbm: -100.0,
            ..SpatialConfig::default()
        };
        assert!(cutoff_distance_m(&e, &hi) < cutoff_distance_m(&e, &lo));
    }

    #[test]
    fn grid_neighborhood_covers_everything_within_cutoff() {
        let mut idx = SpatialIndex::new(7.0);
        let pts: Vec<Point> = (0..60)
            .map(|i| {
                let a = i as f64 * 0.7;
                Point::new(30.0 * (a.sin() * 0.5 + 0.5), 25.0 * (a.cos() * 0.5 + 0.5))
            })
            .collect();
        for (i, &p) in pts.iter().enumerate() {
            idx.set_position(i, p);
        }
        let mut out = Vec::new();
        for (i, &p) in pts.iter().enumerate() {
            idx.neighbors_into(p, &mut out);
            for (j, &q) in pts.iter().enumerate() {
                if p.distance(q) <= idx.cutoff_m {
                    assert!(out.contains(&j), "device {j} within cutoff of {i} missed");
                }
            }
        }
    }

    #[test]
    fn grid_tracks_moves_across_cells() {
        let mut idx = SpatialIndex::new(2.0);
        idx.set_position(0, Point::new(0.5, 0.5));
        idx.set_position(1, Point::new(100.0, 100.0));
        let mut out = Vec::new();
        idx.neighbors_into(Point::new(0.0, 0.0), &mut out);
        assert_eq!(out, vec![0]);
        idx.set_position(1, Point::new(1.0, 1.0));
        idx.neighbors_into(Point::new(0.0, 0.0), &mut out);
        assert!(out.contains(&0) && out.contains(&1));
        idx.set_position(0, Point::new(-50.0, 3.0));
        idx.neighbors_into(Point::new(0.0, 0.0), &mut out);
        assert_eq!(out, vec![1]);
    }

    #[test]
    fn override_slot_is_per_context() {
        let ctx = SimCtx::new();
        assert_eq!(override_of(&ctx), None);
        install_override(&ctx, PruneMode::Audit);
        assert_eq!(override_of(&ctx), Some(PruneMode::Audit));
        assert_eq!(override_of(&ctx.clone()), Some(PruneMode::Audit));
        assert_eq!(override_of(&SimCtx::new()), None);
    }
}
