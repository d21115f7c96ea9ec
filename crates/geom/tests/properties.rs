//! Property-based tests for the geometric invariants the ray tracer
//! depends on. If any of these break, reflection figures (18–20) silently
//! produce wrong lobes, so they are pinned here.
//!
//! Std-only: mmwave-geom has no dependencies, so the cases are drawn from
//! a tiny inline SplitMix64 generator with fixed seeds. Failures print the
//! case number, which reproduces the exact inputs.

use mmwave_geom::{
    trace_paths, Angle, Material, PathKind, Point, Room, Segment, TraceConfig, Vec2, Wall,
};
use std::f64::consts::PI;

const CASES: u64 = 128;

/// Minimal deterministic generator (SplitMix64) for test-case synthesis.
struct Gen(u64);

impl Gen {
    fn new(case: u64) -> Gen {
        Gen(case.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x5851_f42d_4c95_7f2d)
    }
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
    fn f64_in(&mut self, lo: f64, hi: f64) -> f64 {
        let u = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        lo + (hi - lo) * u
    }
    fn coord(&mut self) -> f64 {
        self.f64_in(-50.0, 50.0)
    }
}

/// Specular reflection preserves vector length for any unit normal.
#[test]
fn reflect_preserves_length() {
    for case in 0..CASES {
        let mut g = Gen::new(case);
        let (vx, vy) = (g.coord(), g.coord());
        if vx.abs() <= 1e-6 && vy.abs() <= 1e-6 {
            continue;
        }
        let ang = g.f64_in(-PI, PI);
        let v = Vec2::new(vx, vy);
        let n = Vec2::from_angle(ang);
        let r = v.reflect(n);
        assert!((r.length() - v.length()).abs() < 1e-9, "case {case}");
        // Reflecting twice about the same normal is the identity.
        let rr = r.reflect(n);
        assert!(
            (rr.x - v.x).abs() < 1e-9 && (rr.y - v.y).abs() < 1e-9,
            "case {case}"
        );
    }
}

/// Mirroring a point across a line is an involution and preserves the
/// distance to the line.
#[test]
fn mirror_involution() {
    for case in 0..CASES {
        let mut g = Gen::new(1_000 + case);
        let p = Point::new(g.coord(), g.coord());
        let a = Point::new(g.coord(), g.coord());
        let d = Vec2::from_angle(g.f64_in(-PI, PI));
        let m = p.mirror_across(a, d);
        let back = m.mirror_across(a, d);
        assert!(back.distance(p) < 1e-8, "case {case}");
    }
}

/// Angle normalization always lands in (-180, 180] and diff is
/// antisymmetric.
#[test]
fn angle_normalization() {
    for case in 0..CASES {
        let mut g = Gen::new(2_000 + case);
        let deg = g.f64_in(-10_000.0, 10_000.0);
        let deg2 = g.f64_in(-10_000.0, 10_000.0);
        let a = Angle::from_degrees(deg);
        assert!(
            a.degrees() > -180.0 - 1e-9 && a.degrees() <= 180.0 + 1e-9,
            "case {case}"
        );
        let b = Angle::from_degrees(deg2);
        let d1 = a.diff(b).radians();
        let d2 = b.diff(a).radians();
        // Antisymmetric except at the ±π boundary where both map to +π.
        if d1.abs() < PI - 1e-9 {
            assert!((d1 + d2).abs() < 1e-9, "case {case}");
        }
        assert!(a.distance(b) <= PI + 1e-12, "case {case}");
    }
}

/// Segment intersection, when it reports a hit, returns a point on both
/// segments.
#[test]
fn intersection_point_on_both() {
    for case in 0..CASES {
        let mut g = Gen::new(3_000 + case);
        let a = Point::new(g.coord(), g.coord());
        let b = Point::new(g.coord(), g.coord());
        let p = Point::new(g.coord(), g.coord());
        let q = Point::new(g.coord(), g.coord());
        if a.distance(b) <= 1e-3 || p.distance(q) <= 1e-3 {
            continue;
        }
        let seg = Segment::new(a, b);
        if let Some((t, x)) = seg.intersect(p, q) {
            assert!(t > 0.0 && t < 1.0, "case {case}");
            assert!(seg.distance_to(x) < 1e-6, "case {case}");
            // x on segment p->q too.
            let pq = Segment::new(p, q);
            assert!(pq.distance_to(x) < 1e-6, "case {case}");
        }
    }
}

/// In a rectangular metal room every traced path obeys physics:
/// LoS length equals the euclidean distance, reflected paths are longer,
/// every bounce is specular, and losses grow with order.
#[test]
fn traced_paths_are_physical() {
    for case in 0..CASES {
        let mut g = Gen::new(4_000 + case);
        let tx = Point::new(g.f64_in(0.5, 7.5), g.f64_in(0.5, 3.5));
        let rx = Point::new(g.f64_in(0.5, 7.5), g.f64_in(0.5, 3.5));
        if tx.distance(rx) <= 0.2 {
            continue;
        }
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
        let paths = trace_paths(&room, tx, rx, &TraceConfig::default());
        let euclid = tx.distance(rx);
        let mut saw_los = false;
        for path in &paths {
            match path.kind {
                PathKind::LineOfSight => {
                    saw_los = true;
                    assert!((path.length_m - euclid).abs() < 1e-9, "case {case}");
                    assert!(path.reflection_loss_db == 0.0, "case {case}");
                }
                PathKind::Reflected { order } => {
                    assert!(path.length_m > euclid - 1e-9, "case {case}");
                    assert_eq!(path.materials.len(), order, "case {case}");
                    assert!(
                        (path.reflection_loss_db
                            - order as f64 * Material::Metal.reflection_loss_db())
                        .abs()
                            < 1e-9,
                        "case {case}"
                    );
                    // Specularity at every bounce: walls are axis-aligned,
                    // so the incident and outgoing direction components
                    // normal to the wall flip sign.
                    for k in 1..path.vertices.len() - 1 {
                        let prev = path.vertices[k - 1];
                        let here = path.vertices[k];
                        let next = path.vertices[k + 1];
                        let horizontal_wall = here.y.abs() < 1e-6 || (here.y - 4.0).abs() < 1e-6;
                        let n = if horizontal_wall {
                            Vec2::new(0.0, 1.0)
                        } else {
                            Vec2::new(1.0, 0.0)
                        };
                        let i = (here - prev).normalized();
                        let o = (next - here).normalized();
                        assert!(
                            (i.dot(n) + o.dot(n)).abs() < 1e-6,
                            "case {case}: non-specular"
                        );
                    }
                }
            }
        }
        assert!(saw_los, "case {case}: LoS must exist in an empty room");
        // Sorted by length.
        for w in paths.windows(2) {
            assert!(w[0].length_m <= w[1].length_m + 1e-12, "case {case}");
        }
    }
}

/// Obstruction is symmetric: p→q blocked iff q→p blocked.
#[test]
fn clearness_symmetric() {
    for case in 0..CASES {
        let mut g = Gen::new(5_000 + case);
        let room = Room::open_space().with_wall(Wall::new(
            Segment::new(Point::new(4.0, 0.0), Point::new(4.0, 2.0)),
            Material::Brick,
            "divider",
        ));
        let p = Point::new(g.f64_in(0.5, 8.5), g.f64_in(0.5, 2.5));
        let q = Point::new(g.f64_in(0.5, 8.5), g.f64_in(0.5, 2.5));
        if p.distance(q) <= 1e-3 {
            continue;
        }
        assert_eq!(
            room.is_clear(p, q, 1e-6),
            room.is_clear(q, p, 1e-6),
            "case {case}"
        );
    }
}
