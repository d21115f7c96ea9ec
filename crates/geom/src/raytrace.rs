//! Image-method (mirror-source) ray tracing.
//!
//! At 60 GHz, propagation is quasi-optical: energy travels along the line of
//! sight and along a handful of specular reflections. The paper shows
//! (§4.3) that first-order *and second-order* wall reflections carry enough
//! energy to matter for both range extension (Fig. 20) and interference
//! (Figs. 18, 19, 23). This module enumerates exactly those paths:
//!
//! * order 0 — the line of sight, if unobstructed;
//! * order 1 — one specular bounce off any wall;
//! * order 2 — two bounces off any ordered pair of distinct walls.
//!
//! Each returned [`PropPath`] carries the geometry the PHY layer needs:
//! total length (for Friis loss and delay), the departure azimuth at the
//! transmitter and arrival azimuth at the receiver (for antenna-pattern
//! weighting), and the summed material reflection loss.

use crate::angle::Angle;
use crate::material::Material;
use crate::room::{Room, Wall, Zone};
use crate::segment::{Segment, GEOM_EPS};
use crate::vec2::{Point, Vec2};
use std::sync::Arc;

/// Skip radius for obstruction tests at path endpoints and bounce points,
/// in metres. Legs legitimately begin/end on reflecting walls; a crossing
/// within 1 mm of a leg endpoint is that same wall, not an obstruction.
pub const SKIP_NEAR: f64 = 1e-3;

/// How far inside a declared zone both endpoints of a pair must lie for
/// [`trace_paths`] to use that zone's lists, and how close to the zone a
/// wall must come to be on them, in metres. Twice [`SKIP_NEAR`], so that
/// under the closed-zone contract a leg leaving the zone crosses a
/// boundary wall farther than `SKIP_NEAR` from both of its ends, where
/// that wall obstructs it (see [`ZoneLists`]).
const ZONE_MARGIN: f64 = 2.0 * SKIP_NEAR;

/// Kind of propagation path.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PathKind {
    /// Direct, unobstructed line of sight.
    LineOfSight,
    /// Specular reflection path with the given bounce count (1 or 2).
    Reflected {
        /// Number of wall bounces.
        order: usize,
    },
}

/// One propagation path from a transmitter to a receiver.
#[derive(Clone, Debug)]
pub struct PropPath {
    /// LoS or reflected.
    pub kind: PathKind,
    /// Total unfolded path length in metres.
    pub length_m: f64,
    /// Azimuth at which the path leaves the transmitter.
    pub departure: Angle,
    /// Azimuth *from which* the path arrives at the receiver (i.e. pointing
    /// from the receiver towards the last bounce or the transmitter). This
    /// is the direction a rotating horn must face to capture the path.
    pub arrival: Angle,
    /// Sum of per-bounce reflection losses, in dB (0 for LoS).
    pub reflection_loss_db: f64,
    /// Path polyline: transmitter, bounce points…, receiver.
    pub vertices: Vec<Point>,
    /// Materials bounced off, in order.
    pub materials: Vec<Material>,
    /// Labels of the walls bounced off, in order.
    pub wall_labels: Vec<String>,
}

impl PropPath {
    /// Reflection order (0 for LoS).
    pub fn order(&self) -> usize {
        match self.kind {
            PathKind::LineOfSight => 0,
            PathKind::Reflected { order } => order,
        }
    }

    /// Propagation delay in seconds (speed of light in air).
    pub fn delay_s(&self) -> f64 {
        self.length_m / 299_792_458.0
    }
}

/// Ray-tracing configuration.
#[derive(Clone, Copy, Debug)]
pub struct TraceConfig {
    /// Maximum reflection order to enumerate (0, 1 or 2).
    pub max_order: usize,
    /// Bounces off materials with reflection loss above this are skipped
    /// (absorbers and humans reflect nothing useful).
    pub max_bounce_loss_db: f64,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            max_order: 2,
            max_bounce_loss_db: 20.0,
        }
    }
}

fn make_path(kind: PathKind, vertices: &[Point], bounces: &[(&Material, &str)]) -> PropPath {
    debug_assert!(vertices.len() >= 2);
    let length_m = vertices.windows(2).map(|w| w[0].distance(w[1])).sum();
    let departure = Angle::from_radians((vertices[1] - vertices[0]).angle());
    let n = vertices.len();
    let arrival = Angle::from_radians((vertices[n - 2] - vertices[n - 1]).angle());
    PropPath {
        kind,
        length_m,
        departure,
        arrival,
        reflection_loss_db: bounces.iter().map(|(m, _)| m.reflection_loss_db()).sum(),
        vertices: vertices.to_vec(),
        materials: bounces.iter().map(|(m, _)| **m).collect(),
        wall_labels: bounces.iter().map(|(_, l)| l.to_string()).collect(),
    }
}

/// Check every leg of `vertices` for obstructions.
fn legs_clear(room: &Room, vertices: &[Point]) -> bool {
    vertices.windows(2).all(|w| {
        // Degenerate legs (bounce point coincides with an endpoint, e.g. in
        // a wall corner) invalidate the path.
        w[0].distance(w[1]) > SKIP_NEAR && room.is_clear(w[0], w[1], SKIP_NEAR)
    })
}

/// `Segment::intersect`-exact obstruction sweep for one leg `p → q` over
/// the tree's precomputed wall constants. `tol_t` depends only on the leg
/// (the reference recomputes `r.length()` — a libm `hypot` — per wall), and
/// `tol_u` comes precomputed per wall, so the loop body is pure mul/div
/// arithmetic. Every comparison reproduces the reference expression on the
/// same bits, so the decision matches `Room::is_clear(p, q, SKIP_NEAR)`
/// wall for wall (disabled walls never obstruct and are simply absent).
fn leg_is_clear(walls: &[ClearWall], p: Point, q: Point, r: Vec2, tol_t: f64) -> bool {
    for w in walls {
        let denom = r.cross(w.s);
        if denom.abs() < GEOM_EPS {
            continue;
        }
        let ap = w.a - p;
        let t = ap.cross(w.s) / denom;
        let u = ap.cross(r) / denom;
        if t > tol_t && t < 1.0 - tol_t && u >= -w.tol_u && u <= 1.0 + w.tol_u {
            let x = p + r * t;
            if x.distance(p) > SKIP_NEAR && x.distance(q) > SKIP_NEAR {
                return false;
            }
        }
    }
    true
}

/// [`legs_clear`] over the precomputed wall constants: the degenerate-leg
/// check and the obstruction tolerance share one `r.length()` per leg
/// (`Point::distance` is `(q − p).length()`, the exact same expression).
fn legs_clear_fast(walls: &[ClearWall], vertices: &[Point]) -> bool {
    vertices.windows(2).all(|w| {
        let r = w[1] - w[0];
        let rl = r.length();
        rl > SKIP_NEAR && leg_is_clear(walls, w[0], w[1], r, GEOM_EPS / rl.max(GEOM_EPS))
    })
}

/// One mirror surface in the shared image tree: a reflective wall's anchor
/// point and unit direction, precomputed once per geometry generation so
/// per-pair tracing does not re-filter walls or re-normalize directions.
///
/// The stored `a`/`d` are bit-copies of what the reference enumeration
/// computes per pair (`w.seg.a` and `w.seg.direction()`), so mirroring an
/// endpoint across a node performs the identical float operations.
#[derive(Clone, Copy, Debug)]
pub struct MirrorNode {
    /// Index of the wall in `room.walls()`.
    pub wall: usize,
    /// Wall anchor point (`seg.a`).
    pub a: Point,
    /// Wall unit direction (`seg.direction()`).
    pub d: Vec2,
}

/// One enabled wall's obstruction-test constants, precomputed once per
/// geometry generation. `s` is the raw extent `seg.b − seg.a` (exactly what
/// `Segment::intersect` derives per call) and `tol_u` its length tolerance
/// `GEOM_EPS / s.length().max(GEOM_EPS)` — the only wall-dependent `hypot`
/// in the obstruction test. Covers **all** enabled walls (not just the
/// reflective ones), in `room.walls()` order, so a sweep over this array
/// is decision-identical to `Room::is_clear`.
#[derive(Clone, Copy, Debug)]
pub struct ClearWall {
    /// Wall anchor (`seg.a`).
    pub a: Point,
    /// Raw extent `seg.b − seg.a` (not normalized).
    pub s: Vec2,
    /// `GEOM_EPS / s.length().max(GEOM_EPS)`, the `u`-parameter tolerance.
    pub tol_u: f64,
}

/// One declared zone's share of the image tree: the mirror nodes and
/// clear walls that come within `ZONE_MARGIN` (2 mm) of the zone, each a
/// subsequence of the whole room's list in the same order.
///
/// A pair whose endpoints both lie more than `ZONE_MARGIN` inside the zone
/// is traced against these lists alone, and the result is bit-identical
/// to the whole room's under the closed-zone contract of
/// [`Room::add_zone`] (every point of the zone's boundary lies on an
/// enabled wall):
///
/// * Take a distance δ between `SKIP_NEAR` and `ZONE_MARGIN`. A candidate
///   path whose bounce points all lie within δ of the zone has every leg
///   within δ of it (the grown rectangle is convex), so each wall that
///   bounces it or can obstruct it is on the lists, and both enumerations
///   reach the same verdict on it.
/// * A candidate with a bounce point farther out has a first or last leg
///   (with at most two bounces, every bounce point ends one) that runs
///   from an endpoint more than `ZONE_MARGIN` inside to a point more than
///   δ outside. It crosses the boundary at more than
///   `SKIP_NEAR` from both of its ends, on an enabled wall that is on the
///   lists and obstructs it, so the whole room's enumeration rejects the
///   path too.
///
/// Filtering keeps the room order, so accepted paths also reach the
/// (stable) length sort in the same order.
#[derive(Clone, Debug)]
pub struct ZoneLists {
    /// The zone the lists belong to.
    pub zone: Zone,
    /// Reflective walls near the zone, in `room.walls()` order.
    pub nodes: Vec<MirrorNode>,
    /// Enabled walls near the zone, in `room.walls()` order.
    pub clear: Vec<ClearWall>,
}

impl ZoneLists {
    /// True if `p` lies more than `ZONE_MARGIN` inside the zone.
    fn holds(&self, p: Point) -> bool {
        let z = &self.zone;
        p.x > z.min.x + ZONE_MARGIN
            && p.x < z.max.x - ZONE_MARGIN
            && p.y > z.min.y + ZONE_MARGIN
            && p.y < z.max.y - ZONE_MARGIN
    }
}

/// True if `seg`'s bounding box comes within `ZONE_MARGIN` of `z`: a
/// superset of the walls that meet the zone grown by that margin.
fn near_zone(seg: Segment, z: &Zone) -> bool {
    seg.a.x.min(seg.b.x) <= z.max.x + ZONE_MARGIN
        && seg.a.x.max(seg.b.x) >= z.min.x - ZONE_MARGIN
        && seg.a.y.min(seg.b.y) <= z.max.y + ZONE_MARGIN
        && seg.a.y.max(seg.b.y) >= z.min.y - ZONE_MARGIN
}

/// Per-room mirror-image expansion, computed once per geometry generation
/// and shared across all device pairs.
///
/// First-order images are one mirror application per node; second-order
/// images are every ordered pair of distinct nodes, walked in the same
/// nested order as the reference enumeration. Since images depend on the
/// transmitter position, the tree stores the mirror *surfaces* (not the
/// images themselves); what it saves per pair is the wall filtering, the
/// direction normalizations (one sqrt per wall per order per pair in the
/// reference) and the reflective-wall allocation. For every declared zone
/// it also keeps the [`ZoneLists`] a pair inside that zone is traced
/// against, so an office on a floor of closed offices pays for its own
/// walls, not the floor's.
#[derive(Clone, Debug)]
pub struct ImageTree {
    generation: u64,
    loss_bits: u64,
    /// Reflective walls in `room.walls()` order (the reference filter order).
    pub nodes: Vec<MirrorNode>,
    /// Obstruction-test constants for every *enabled* wall, in
    /// `room.walls()` order — the SoA side of [`ClearWall`].
    pub clear: Vec<ClearWall>,
    /// One entry per declared zone, in `room.zones()` order.
    pub zones: Vec<ZoneLists>,
}

impl ImageTree {
    /// Build the expansion for `room` under `cfg`'s bounce-loss cap.
    pub fn build(room: &Room, cfg: &TraceConfig) -> ImageTree {
        let walls = room.walls();
        let lists = |keep: &dyn Fn(&Wall) -> bool| -> (Vec<MirrorNode>, Vec<ClearWall>) {
            let nodes = walls
                .iter()
                .enumerate()
                .filter(|(_, w)| {
                    w.enabled
                        && w.material.reflection_loss_db() <= cfg.max_bounce_loss_db
                        && keep(w)
                })
                .map(|(i, w)| MirrorNode {
                    wall: i,
                    a: w.seg.a,
                    d: w.seg.direction(),
                })
                .collect();
            let clear = walls
                .iter()
                .filter(|w| w.enabled && keep(w))
                .map(|w| {
                    let s = w.seg.b - w.seg.a;
                    ClearWall {
                        a: w.seg.a,
                        s,
                        tol_u: GEOM_EPS / s.length().max(GEOM_EPS),
                    }
                })
                .collect();
            (nodes, clear)
        };
        let (nodes, clear) = lists(&|_| true);
        let zones = room
            .zones()
            .iter()
            .map(|&zone| {
                let (nodes, clear) = lists(&|w| near_zone(w.seg, &zone));
                ZoneLists { zone, nodes, clear }
            })
            .collect();
        ImageTree {
            generation: room.generation(),
            loss_bits: cfg.max_bounce_loss_db.to_bits(),
            nodes,
            clear,
            zones,
        }
    }

    /// Number of mirror surfaces (first-order branching factor).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The mirror nodes and clear walls that a pair `tx → rx` is traced
    /// against: the first zone's [`ZoneLists`] that holds both endpoints,
    /// else the whole room's.
    fn lists_for(&self, tx: Point, rx: Point) -> (&[MirrorNode], &[ClearWall]) {
        match self.zones.iter().find(|z| z.holds(tx) && z.holds(rx)) {
            Some(z) => (&z.nodes, &z.clear),
            None => (&self.nodes, &self.clear),
        }
    }
}

/// The room's shared image tree for `cfg`, rebuilt only when the geometry
/// generation or the bounce-loss cap changed since the last call.
pub fn shared_tree(room: &Room, cfg: &TraceConfig) -> Arc<ImageTree> {
    let mut slot = room.tree_slot().borrow_mut();
    if let Some(t) = slot.as_ref() {
        if t.generation == room.generation() && t.loss_bits == cfg.max_bounce_loss_db.to_bits() {
            return Arc::clone(t);
        }
    }
    let t = Arc::new(ImageTree::build(room, cfg));
    *slot = Some(Arc::clone(&t));
    t
}

/// Enumerate all unobstructed propagation paths from `tx` to `rx` in `room`,
/// up to `cfg.max_order` specular reflections. Paths are returned sorted by
/// increasing length (the LoS first when present).
///
/// Internally walks the room's cached [`ImageTree`], shared across all
/// device pairs, over one zone's [`ZoneLists`] when both endpoints lie
/// inside that zone; output is byte-identical to
/// [`trace_paths_reference`] (proven by `tests/image_tree_equivalence.rs`).
pub fn trace_paths(room: &Room, tx: Point, rx: Point, cfg: &TraceConfig) -> Vec<PropPath> {
    let mut paths = Vec::new();
    if tx.distance(rx) <= GEOM_EPS {
        return paths;
    }

    let tree = shared_tree(room, cfg);
    let (nodes, clear) = tree.lists_for(tx, rx);
    let walls = room.walls();

    // Order 0: line of sight. No degenerate-leg guard here — the reference
    // applies only `is_clear` to the LoS leg (the pair-coincidence test
    // above already ran), so the sweep is called directly.
    let r = rx - tx;
    if leg_is_clear(clear, tx, rx, r, GEOM_EPS / r.length().max(GEOM_EPS)) {
        paths.push(make_path(PathKind::LineOfSight, &[tx, rx], &[]));
    }

    // Order 1: mirror tx across each node; the bounce point is where the
    // image–rx segment crosses the wall. Candidate vertices live on the
    // stack; only accepted paths allocate (inside `make_path`).
    if cfg.max_order >= 1 {
        for node in nodes {
            let w = &walls[node.wall];
            let image = tx.mirror_across(node.a, node.d);
            if image.distance(rx) <= GEOM_EPS {
                continue;
            }
            let Some((_, bounce)) = w.seg.intersect(image, rx) else {
                continue;
            };
            let verts = [tx, bounce, rx];
            if legs_clear_fast(clear, &verts) {
                paths.push(make_path(
                    PathKind::Reflected { order: 1 },
                    &verts,
                    &[(&w.material, w.label.as_str())],
                ));
            }
        }
    }

    // Order 2: mirror tx across node 1, then that image across node 2;
    // unfold from the receiver back through both walls.
    if cfg.max_order >= 2 {
        for (i, n1) in nodes.iter().enumerate() {
            let w1 = &walls[n1.wall];
            let image1 = tx.mirror_across(n1.a, n1.d);
            for (j, n2) in nodes.iter().enumerate() {
                if i == j {
                    continue;
                }
                let w2 = &walls[n2.wall];
                let image2 = image1.mirror_across(n2.a, n2.d);
                if image2.distance(rx) <= GEOM_EPS {
                    continue;
                }
                let Some((_, b2)) = w2.seg.intersect(image2, rx) else {
                    continue;
                };
                if image1.distance(b2) <= GEOM_EPS {
                    continue;
                }
                let Some((_, b1)) = w1.seg.intersect(image1, b2) else {
                    continue;
                };
                let verts = [tx, b1, b2, rx];
                if legs_clear_fast(clear, &verts) {
                    paths.push(make_path(
                        PathKind::Reflected { order: 2 },
                        &verts,
                        &[
                            (&w1.material, w1.label.as_str()),
                            (&w2.material, w2.label.as_str()),
                        ],
                    ));
                }
            }
        }
    }

    paths.sort_by(|a, b| a.length_m.partial_cmp(&b.length_m).expect("finite lengths"));
    paths
}

/// The original per-pair enumeration, kept as the differential-test oracle:
/// it re-derives the reflective wall set and every mirror direction for
/// each (tx, rx) pair. [`trace_paths`] must match it bit for bit.
pub fn trace_paths_reference(
    room: &Room,
    tx: Point,
    rx: Point,
    cfg: &TraceConfig,
) -> Vec<PropPath> {
    let mut paths = Vec::new();
    if tx.distance(rx) <= GEOM_EPS {
        return paths;
    }

    // Order 0: line of sight.
    if room.is_clear(tx, rx, SKIP_NEAR) {
        paths.push(make_path(PathKind::LineOfSight, &[tx, rx], &[]));
    }

    let reflective: Vec<_> = room
        .walls()
        .iter()
        .filter(|w| w.enabled && w.material.reflection_loss_db() <= cfg.max_bounce_loss_db)
        .collect();

    // Order 1: mirror tx across each wall; the bounce point is where the
    // image–rx segment crosses the wall.
    if cfg.max_order >= 1 {
        for w in &reflective {
            let d = w.seg.direction();
            let image = tx.mirror_across(w.seg.a, d);
            if image.distance(rx) <= GEOM_EPS {
                continue;
            }
            let Some((_, bounce)) = w.seg.intersect(image, rx) else {
                continue;
            };
            let verts = [tx, bounce, rx];
            if legs_clear(room, &verts) {
                paths.push(make_path(
                    PathKind::Reflected { order: 1 },
                    &verts,
                    &[(&w.material, w.label.as_str())],
                ));
            }
        }
    }

    // Order 2: mirror tx across w1, then that image across w2; unfold from
    // the receiver back through both walls.
    if cfg.max_order >= 2 {
        for (i, w1) in reflective.iter().enumerate() {
            let d1 = w1.seg.direction();
            let image1 = tx.mirror_across(w1.seg.a, d1);
            for (j, w2) in reflective.iter().enumerate() {
                if i == j {
                    continue;
                }
                let d2 = w2.seg.direction();
                let image2 = image1.mirror_across(w2.seg.a, d2);
                if image2.distance(rx) <= GEOM_EPS {
                    continue;
                }
                let Some((_, b2)) = w2.seg.intersect(image2, rx) else {
                    continue;
                };
                if image1.distance(b2) <= GEOM_EPS {
                    continue;
                }
                let Some((_, b1)) = w1.seg.intersect(image1, b2) else {
                    continue;
                };
                let verts = [tx, b1, b2, rx];
                if legs_clear(room, &verts) {
                    paths.push(make_path(
                        PathKind::Reflected { order: 2 },
                        &verts,
                        &[
                            (&w1.material, w1.label.as_str()),
                            (&w2.material, w2.label.as_str()),
                        ],
                    ));
                }
            }
        }
    }

    paths.sort_by(|a, b| a.length_m.partial_cmp(&b.length_m).expect("finite lengths"));
    paths
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::room::{Room, Wall};
    use crate::segment::Segment;
    use crate::vec2::Vec2;

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    fn mirror_room() -> Room {
        // A single metal wall along the x-axis from (0,0) to (10,0).
        Room::open_space().with_wall(Wall::new(
            Segment::new(p(0.0, 0.0), p(10.0, 0.0)),
            Material::Metal,
            "mirror",
        ))
    }

    #[test]
    fn open_space_has_only_los() {
        let paths = trace_paths(
            &Room::open_space(),
            p(0.0, 0.0),
            p(5.0, 0.0),
            &TraceConfig::default(),
        );
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].kind, PathKind::LineOfSight);
        assert!((paths[0].length_m - 5.0).abs() < 1e-12);
        assert!((paths[0].departure.degrees() - 0.0).abs() < 1e-9);
        assert!((paths[0].arrival.degrees().abs() - 180.0).abs() < 1e-9);
    }

    #[test]
    fn single_mirror_geometry() {
        // TX at (2,1), RX at (6,1): LoS of length 4 plus one bounce at (4,0)
        // with total length 2·√(2²+1²) = 2√5.
        let paths = trace_paths(
            &mirror_room(),
            p(2.0, 1.0),
            p(6.0, 1.0),
            &TraceConfig::default(),
        );
        assert_eq!(paths.len(), 2);
        assert_eq!(paths[0].kind, PathKind::LineOfSight);
        let refl = &paths[1];
        assert_eq!(refl.kind, PathKind::Reflected { order: 1 });
        assert!((refl.length_m - 2.0 * 5f64.sqrt()).abs() < 1e-9);
        let bounce = refl.vertices[1];
        assert!((bounce.x - 4.0).abs() < 1e-9 && bounce.y.abs() < 1e-9);
        // Specular: angle of incidence equals angle of reflection.
        let in_dir = (bounce - refl.vertices[0]).normalized();
        let out_dir = (refl.vertices[2] - bounce).normalized();
        let n = Vec2::new(0.0, 1.0);
        assert!((in_dir.dot(n) + out_dir.dot(n)).abs() < 1e-9);
        assert!((refl.reflection_loss_db - Material::Metal.reflection_loss_db()).abs() < 1e-12);
    }

    #[test]
    fn bounce_point_must_lie_on_wall_segment() {
        // Wall only spans x ∈ [0,10]; a would-be bounce at x = 15 is invalid.
        let paths = trace_paths(
            &mirror_room(),
            p(14.0, 1.0),
            p(16.0, 1.0),
            &TraceConfig::default(),
        );
        assert_eq!(paths.len(), 1, "only LoS should remain");
        assert_eq!(paths[0].kind, PathKind::LineOfSight);
    }

    #[test]
    fn blocked_los_leaves_reflection() {
        let mut room = mirror_room();
        // Absorbing screen between TX and RX, above the mirror, blocking LoS
        // but not the floor bounce.
        room.add_obstacle(
            Segment::new(p(4.0, 0.5), p(4.0, 2.0)),
            Material::Absorber,
            "screen",
        );
        let paths = trace_paths(&room, p(2.0, 1.0), p(6.0, 1.0), &TraceConfig::default());
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].kind, PathKind::Reflected { order: 1 });
    }

    #[test]
    fn disabled_mirror_produces_no_bounce() {
        let mut room = mirror_room();
        let idx = room.find_wall("mirror").expect("mirror wall");
        room.set_wall_enabled(idx, false);
        let paths = trace_paths(&room, p(2.0, 1.0), p(6.0, 1.0), &TraceConfig::default());
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].kind, PathKind::LineOfSight);
        room.set_wall_enabled(idx, true);
        let paths = trace_paths(&room, p(2.0, 1.0), p(6.0, 1.0), &TraceConfig::default());
        assert_eq!(paths.len(), 2, "re-enabled mirror reflects again");
    }

    #[test]
    fn absorber_produces_no_bounce() {
        let room = Room::open_space().with_wall(Wall::new(
            Segment::new(p(0.0, 0.0), p(10.0, 0.0)),
            Material::Absorber,
            "absorber floor",
        ));
        let paths = trace_paths(&room, p(2.0, 1.0), p(6.0, 1.0), &TraceConfig::default());
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].kind, PathKind::LineOfSight);
    }

    #[test]
    fn parallel_mirrors_give_second_order() {
        // Metal walls at y=0 and y=3; TX and RX between them. Expect LoS,
        // two order-1 and at least two order-2 paths (floor→ceiling and
        // ceiling→floor).
        let room = Room::open_space()
            .with_wall(Wall::new(
                Segment::new(p(-50.0, 0.0), p(50.0, 0.0)),
                Material::Metal,
                "floor",
            ))
            .with_wall(Wall::new(
                Segment::new(p(-50.0, 3.0), p(50.0, 3.0)),
                Material::Metal,
                "ceiling",
            ));
        let paths = trace_paths(&room, p(0.0, 1.0), p(6.0, 1.0), &TraceConfig::default());
        let by_order = |o: usize| paths.iter().filter(|p| p.order() == o).count();
        assert_eq!(by_order(0), 1);
        assert_eq!(by_order(1), 2);
        assert_eq!(by_order(2), 2);
        // Order-2 paths accumulate two bounces of loss.
        for path in paths.iter().filter(|p| p.order() == 2) {
            assert!(
                (path.reflection_loss_db - 2.0 * Material::Metal.reflection_loss_db()).abs()
                    < 1e-12
            );
            assert_eq!(path.materials.len(), 2);
            assert_eq!(path.vertices.len(), 4);
        }
    }

    #[test]
    fn order_2_specular_at_both_bounces() {
        let room = Room::open_space()
            .with_wall(Wall::new(
                Segment::new(p(-50.0, 0.0), p(50.0, 0.0)),
                Material::Metal,
                "floor",
            ))
            .with_wall(Wall::new(
                Segment::new(p(-50.0, 3.0), p(50.0, 3.0)),
                Material::Metal,
                "ceiling",
            ));
        let paths = trace_paths(&room, p(0.0, 1.0), p(6.0, 1.0), &TraceConfig::default());
        for path in paths.iter().filter(|p| p.order() == 2) {
            for k in 1..=2 {
                let prev = path.vertices[k - 1];
                let here = path.vertices[k];
                let next = path.vertices[k + 1];
                let n = Vec2::new(0.0, 1.0); // both walls horizontal
                let i = (here - prev).normalized();
                let o = (next - here).normalized();
                assert!((i.dot(n) + o.dot(n)).abs() < 1e-9, "non-specular bounce");
            }
        }
    }

    #[test]
    fn max_order_caps_enumeration() {
        let room = Room::rectangular(
            8.0,
            4.0,
            (
                Material::Metal,
                Material::Metal,
                Material::Metal,
                Material::Metal,
            ),
        );
        let tx = p(1.0, 2.0);
        let rx = p(7.0, 2.0);
        let n0 = trace_paths(
            &room,
            tx,
            rx,
            &TraceConfig {
                max_order: 0,
                ..Default::default()
            },
        )
        .len();
        let n1 = trace_paths(
            &room,
            tx,
            rx,
            &TraceConfig {
                max_order: 1,
                ..Default::default()
            },
        )
        .len();
        let n2 = trace_paths(
            &room,
            tx,
            rx,
            &TraceConfig {
                max_order: 2,
                ..Default::default()
            },
        )
        .len();
        assert_eq!(n0, 1);
        assert!(n1 > n0);
        assert!(n2 > n1);
    }

    #[test]
    fn paths_sorted_by_length_and_los_is_shortest() {
        let room = Room::rectangular(
            9.0,
            3.25,
            (
                Material::Wood,
                Material::Glass,
                Material::Brick,
                Material::Brick,
            ),
        );
        let paths = trace_paths(&room, p(0.5, 1.3), p(8.5, 1.3), &TraceConfig::default());
        assert!(paths.len() >= 3);
        for w in paths.windows(2) {
            assert!(w[0].length_m <= w[1].length_m);
        }
        assert_eq!(paths[0].kind, PathKind::LineOfSight);
    }

    #[test]
    fn arrival_points_back_along_last_leg() {
        let paths = trace_paths(
            &mirror_room(),
            p(2.0, 1.0),
            p(6.0, 1.0),
            &TraceConfig::default(),
        );
        let refl = paths.iter().find(|p| p.order() == 1).expect("bounce path");
        // Last leg rises from the floor bounce to RX, so the arrival azimuth
        // (looking back from RX) must point down-left: between -90° and -180°.
        let deg = refl.arrival.degrees();
        assert!((-180.0..=-90.0).contains(&deg), "arrival {deg}");
    }

    #[test]
    fn delay_matches_length() {
        let paths = trace_paths(
            &Room::open_space(),
            p(0.0, 0.0),
            p(3.0, 0.0),
            &TraceConfig::default(),
        );
        let d = paths[0].delay_s();
        assert!((d - 3.0 / 299_792_458.0).abs() < 1e-18);
    }
}
