//! Differential test: the shared-image-tree tracer must emit byte-identical
//! paths to the per-pair reference enumeration on randomized workloads.
//!
//! `trace_paths` walks a per-room mirror expansion built once per geometry
//! generation; `trace_paths_reference` re-derives the reflective wall set
//! and every mirror direction per (tx, rx) pair. The two share `make_path`,
//! `legs_clear` and the sort, so the only thing that can diverge is the
//! wall set, the walk order, or the floating-point mirror arithmetic. This
//! suite drives both with identical randomized rooms, poses, trace orders
//! and mid-stream wall mutations — and requires every field of every
//! returned path to match to the bit (`f64::to_bits`), mirroring the
//! `queue_equivalence.rs` transcript pattern.
//!
//! Rooms with declared zones add the zone-scoped lists: a pair inside one
//! closed office is traced against that office's walls only, which must
//! again match the reference that sees the whole floor.

use mmwave_geom::{
    trace_paths, trace_paths_reference, Material, Point, Room, Segment, TraceConfig, Wall,
    SKIP_NEAR,
};
use mmwave_sim::rng::SimRng;

const MATERIALS: [Material; 6] = [
    Material::Metal,
    Material::Wood,
    Material::Glass,
    Material::Brick,
    Material::Absorber,
    Material::Human,
];

fn uniform(rng: &mut SimRng, lo: f64, hi: f64) -> f64 {
    let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
    lo + (hi - lo) * u
}

fn random_point(rng: &mut SimRng) -> Point {
    Point::new(uniform(rng, -2.0, 12.0), uniform(rng, -2.0, 8.0))
}

fn random_wall(rng: &mut SimRng, idx: usize) -> Wall {
    let a = random_point(rng);
    let mut b = random_point(rng);
    while a.distance(b) < 0.1 {
        b = random_point(rng);
    }
    let material = MATERIALS[(rng.next_u64() as usize) % MATERIALS.len()];
    Wall::new(Segment::new(a, b), material, format!("wall-{idx}"))
}

fn random_config(rng: &mut SimRng) -> TraceConfig {
    TraceConfig {
        max_order: (rng.next_u64() % 3) as usize,
        max_bounce_loss_db: [5.0, 16.0, 20.0, 1000.0][(rng.next_u64() as usize) % 4],
    }
}

/// Assert element-wise bit equality of the two tracers for one pair.
fn check_pair(room: &Room, tx: Point, rx: Point, cfg: &TraceConfig, step: usize) {
    let fast = trace_paths(room, tx, rx, cfg);
    let refr = trace_paths_reference(room, tx, rx, cfg);
    assert_eq!(
        fast.len(),
        refr.len(),
        "path count diverges at step {step} (tx {tx}, rx {rx}, cfg {cfg:?})"
    );
    for (k, (f, r)) in fast.iter().zip(&refr).enumerate() {
        let at = format!("step {step}, path {k} (tx {tx}, rx {rx})");
        assert_eq!(f.kind, r.kind, "kind diverges at {at}");
        assert_eq!(
            f.length_m.to_bits(),
            r.length_m.to_bits(),
            "length bits diverge at {at}"
        );
        assert_eq!(
            f.departure.degrees().to_bits(),
            r.departure.degrees().to_bits(),
            "departure bits diverge at {at}"
        );
        assert_eq!(
            f.arrival.degrees().to_bits(),
            r.arrival.degrees().to_bits(),
            "arrival bits diverge at {at}"
        );
        assert_eq!(
            f.reflection_loss_db.to_bits(),
            r.reflection_loss_db.to_bits(),
            "loss bits diverge at {at}"
        );
        assert_eq!(f.vertices.len(), r.vertices.len(), "vertex count at {at}");
        for (fv, rv) in f.vertices.iter().zip(&r.vertices) {
            assert_eq!(fv.x.to_bits(), rv.x.to_bits(), "vertex x bits at {at}");
            assert_eq!(fv.y.to_bits(), rv.y.to_bits(), "vertex y bits at {at}");
        }
        assert_eq!(f.materials, r.materials, "materials diverge at {at}");
        assert_eq!(f.wall_labels, r.wall_labels, "labels diverge at {at}");
    }
}

#[test]
fn randomized_rooms_poses_and_orders_match_reference() {
    for seed in 0..12u64 {
        let mut rng = SimRng::root(0x1A6E_7000 + seed);
        let n_walls = 1 + (rng.next_u64() as usize) % 8;
        let mut room = Room::open_space();
        for i in 0..n_walls {
            room.add_wall(random_wall(&mut rng, i));
        }
        // Many pairs against one room: the shared tree is built once and
        // reused, while the reference re-derives everything — any staleness
        // or ordering difference shows up as a bit mismatch.
        for step in 0..60 {
            let cfg = random_config(&mut rng);
            let tx = random_point(&mut rng);
            let rx = random_point(&mut rng);
            check_pair(&room, tx, rx, &cfg, step);
        }
    }
}

#[test]
fn wall_mutations_between_pairs_rebuild_the_tree() {
    for seed in 0..6u64 {
        let mut rng = SimRng::root(0x1A6E_8000 + seed);
        let mut room = Room::open_space();
        for i in 0..5 {
            room.add_wall(random_wall(&mut rng, i));
        }
        for step in 0..80 {
            match rng.next_u64() % 10 {
                // Toggle a wall (30%): the tree's reflective set changes.
                0..=2 => {
                    let idx = (rng.next_u64() as usize) % room.walls().len();
                    let enabled = rng.next_u64() & 1 == 0;
                    room.set_wall_enabled(idx, enabled);
                }
                // Move a wall (20%): anchors and directions change.
                3..=4 => {
                    let idx = (rng.next_u64() as usize) % room.walls().len();
                    let w = random_wall(&mut rng, idx);
                    room.set_wall_segment(idx, w.seg);
                }
                // Grow the room (10%).
                5 => {
                    let i = room.walls().len();
                    room.add_wall(random_wall(&mut rng, i));
                }
                _ => {}
            }
            let cfg = random_config(&mut rng);
            let tx = random_point(&mut rng);
            let rx = random_point(&mut rng);
            check_pair(&room, tx, rx, &cfg, step);
        }
    }
}

#[test]
fn degenerate_and_on_wall_endpoints_match_reference() {
    let mut room = Room::rectangular(
        9.0,
        3.25,
        (
            Material::Wood,
            Material::Glass,
            Material::Brick,
            Material::Brick,
        ),
    );
    room.add_obstacle(
        Segment::new(Point::new(4.0, 0.5), Point::new(4.0, 2.0)),
        Material::Absorber,
        "screen",
    );
    let cfg = TraceConfig::default();
    let probe = Point::new(2.0, 1.3);
    // Coincident endpoints (both must return no paths).
    check_pair(&room, probe, probe, &cfg, 0);
    // Endpoint exactly on a wall, and within the skip radius of one.
    check_pair(&room, Point::new(0.0, 1.3), Point::new(8.0, 1.6), &cfg, 1);
    check_pair(&room, Point::new(1e-6, 1.3), Point::new(8.0, 1.6), &cfg, 2);
    // Endpoint in a corner.
    check_pair(&room, Point::new(0.01, 0.01), Point::new(8.0, 3.0), &cfg, 3);
    // Symmetric swap.
    check_pair(&room, Point::new(8.0, 1.6), Point::new(0.0, 1.3), &cfg, 4);
}

/// A row-major grid of closed offices, each declared a zone: four
/// boundary walls of random material (reflective or absorbing), plus
/// `interior` random walls strictly inside. With `gap == 0.0` neighbours
/// share one partition wall on their common border; otherwise a corridor
/// of width `gap` separates them. Returns the room and the offices'
/// `(min, max)` corners.
fn office_floor(
    rng: &mut SimRng,
    cols: usize,
    rows: usize,
    gap: f64,
    interior: usize,
) -> (Room, Vec<(Point, Point)>) {
    let (w, h) = (4.0, 3.0);
    let mut room = Room::open_space();
    let mut offices = Vec::new();
    for r in 0..rows {
        for c in 0..cols {
            let min = Point::new(c as f64 * (w + gap), r as f64 * (h + gap));
            let max = Point::new(min.x + w, min.y + h);
            let corners = [
                (min, Point::new(max.x, min.y)),
                (Point::new(max.x, min.y), max),
                (max, Point::new(min.x, max.y)),
                (Point::new(min.x, max.y), min),
            ];
            for (i, (a, b)) in corners.into_iter().enumerate() {
                // Shared partitions: the left and bottom walls of an
                // office are its neighbours' right and top walls.
                let shared = gap == 0.0 && ((i == 3 && c > 0) || (i == 0 && r > 0));
                if !shared {
                    let material = MATERIALS[(rng.next_u64() as usize) % MATERIALS.len()];
                    room.add_obstacle(Segment::new(a, b), material, format!("o{r}{c}-{i}"));
                }
            }
            for k in 0..interior {
                let a = point_inside(rng, min, max, 0.1);
                let mut b = point_inside(rng, min, max, 0.1);
                while a.distance(b) < 0.1 {
                    b = point_inside(rng, min, max, 0.1);
                }
                let material = MATERIALS[(rng.next_u64() as usize) % MATERIALS.len()];
                room.add_obstacle(Segment::new(a, b), material, format!("in{r}{c}-{k}"));
            }
            room.add_zone(min, max);
            offices.push((min, max));
        }
    }
    (room, offices)
}

/// A uniform point at least `margin` inside the rectangle `min..max`.
fn point_inside(rng: &mut SimRng, min: Point, max: Point, margin: f64) -> Point {
    Point::new(
        uniform(rng, min.x + margin, max.x - margin),
        uniform(rng, min.y + margin, max.y - margin),
    )
}

#[test]
fn closed_offices_match_reference_inside_and_across_zones() {
    for seed in 0..8u64 {
        let mut rng = SimRng::root(0x1A6E_9000 + seed);
        let gap = if seed % 2 == 0 { 0.0 } else { 0.4 };
        let (room, offices) = office_floor(&mut rng, 3, 2, gap, 1 + seed as usize % 3);
        assert!(mmwave_geom::shared_tree(&room, &TraceConfig::default())
            .zones
            .iter()
            .all(|z| z.clear.len() < room.walls().len()));
        for step in 0..80 {
            let cfg = random_config(&mut rng);
            let (min, max) = offices[(rng.next_u64() as usize) % offices.len()];
            // Endpoints at least SKIP_NEAR inside: mostly well inside,
            // some hugging the walls from 1 mm to a few margins.
            let margin = match rng.next_u64() % 4 {
                0 => SKIP_NEAR * uniform(&mut rng, 1.0, 5.0),
                _ => SKIP_NEAR,
            };
            let tx = point_inside(&mut rng, min, max, margin);
            let rx = match rng.next_u64() % 5 {
                // Another office, or the corridor / outside the floor.
                0 => {
                    let (m2, x2) = offices[(rng.next_u64() as usize) % offices.len()];
                    point_inside(&mut rng, m2, x2, SKIP_NEAR)
                }
                1 => random_point(&mut rng),
                _ => point_inside(&mut rng, min, max, margin),
            };
            check_pair(&room, tx, rx, &cfg, step);
        }
    }
}

#[test]
fn zone_edge_endpoints_match_reference() {
    let mut rng = SimRng::root(0x1A6E_A000);
    let (room, offices) = office_floor(&mut rng, 2, 1, 0.0, 2);
    let cfg = TraceConfig::default();
    let (min, max) = offices[0];
    let border = max.x; // the partition the two offices share
    let mut step = 0;
    // Each inset from exactly SKIP_NEAR through the 2 mm zone margin and
    // beyond, on every side of the first office.
    for inset in [1.0, 1.5, 2.0, 2.000_001, 2.5, 10.0].map(|k| k * SKIP_NEAR) {
        let probes = [
            Point::new(min.x + inset, 1.1),
            Point::new(max.x - inset, 1.9),
            Point::new(2.3, min.y + inset),
            Point::new(1.7, max.y - inset),
            Point::new(min.x + inset, min.y + inset),
        ];
        for &tx in &probes {
            for &rx in &probes {
                check_pair(&room, tx, rx, &cfg, step);
                step += 1;
            }
            check_pair(&room, tx, Point::new(2.0, 1.5), &cfg, step);
            step += 1;
        }
    }
    // Endpoints on the shared border belong to both offices: neither
    // office's lists may be used for them.
    for (a, b) in [(0.7, 2.2), (1.5, 1.5), (0.0, 3.0), (2.9, 0.4)] {
        check_pair(
            &room,
            Point::new(border, a),
            Point::new(border, b),
            &cfg,
            step,
        );
        check_pair(
            &room,
            Point::new(border, a),
            Point::new(1.0, b),
            &cfg,
            step + 1,
        );
        check_pair(
            &room,
            Point::new(border, a),
            Point::new(7.0, b),
            &cfg,
            step + 2,
        );
        step += 3;
    }
}

#[test]
fn reflective_walls_near_a_zone_from_outside_match_reference() {
    let mut room = Room::rectangular(
        4.0,
        3.0,
        (
            Material::Brick,
            Material::Absorber,
            Material::Glass,
            Material::Wood,
        ),
    );
    room.add_zone(Point::new(0.0, 0.0), Point::new(4.0, 3.0));
    // Metal outside the office: touching its right wall end-on, lying
    // along its top wall's line past the corner, and parallel to its left
    // wall 1.5 mm (inside the margin) and 3 mm (outside it) away.
    let outside = [
        ((4.0, 1.5), (5.5, 1.5)),
        ((4.0, 3.0), (6.0, 3.0)),
        ((-0.0015, 0.2), (-0.0015, 2.8)),
        ((-0.003, 0.2), (-0.003, 2.8)),
        ((1.0, -0.5), (3.0, -0.0005)),
    ];
    for (i, ((ax, ay), (bx, by))) in outside.into_iter().enumerate() {
        room.add_obstacle(
            Segment::new(Point::new(ax, ay), Point::new(bx, by)),
            Material::Metal,
            format!("outside-{i}"),
        );
    }
    let mut rng = SimRng::root(0x1A6E_B000);
    let (min, max) = (Point::new(0.0, 0.0), Point::new(4.0, 3.0));
    for step in 0..300 {
        let cfg = random_config(&mut rng);
        let margin = SKIP_NEAR * uniform(&mut rng, 1.0, 4.0);
        let tx = point_inside(&mut rng, min, max, margin);
        let rx = point_inside(&mut rng, min, max, margin);
        check_pair(&room, tx, rx, &cfg, step);
    }
}

#[test]
fn zone_declared_after_the_first_trace_rebuilds_the_tree() {
    let mut rng = SimRng::root(0x1A6E_C000);
    let mut room = Room::rectangular(
        4.0,
        3.0,
        (
            Material::Metal,
            Material::Brick,
            Material::Glass,
            Material::Absorber,
        ),
    );
    room.add_obstacle(
        Segment::new(Point::new(1.0, 1.0), Point::new(1.0, 2.0)),
        Material::Metal,
        "cabinet",
    );
    // Another office to the right, not yet declared a zone either.
    room.add_obstacle(
        Segment::new(Point::new(5.0, 0.0), Point::new(5.0, 3.0)),
        Material::Metal,
        "far wall",
    );
    let cfg = TraceConfig::default();
    let (min, max) = (Point::new(0.0, 0.0), Point::new(4.0, 3.0));
    let pairs: Vec<(Point, Point)> = (0..40)
        .map(|_| {
            (
                point_inside(&mut rng, min, max, 0.01),
                point_inside(&mut rng, min, max, 0.01),
            )
        })
        .collect();
    for (step, &(tx, rx)) in pairs.iter().enumerate() {
        check_pair(&room, tx, rx, &cfg, step);
    }
    let generation = room.generation();
    assert!(mmwave_geom::shared_tree(&room, &cfg).zones.is_empty());
    room.add_zone(min, max);
    assert_eq!(room.generation(), generation, "a zone changes no path");
    let tree = mmwave_geom::shared_tree(&room, &cfg);
    assert_eq!(tree.zones.len(), 1, "the declaration rebuilt the tree");
    assert_eq!(tree.zones[0].clear.len(), 5, "the office's own walls");
    assert_eq!(tree.zones[0].nodes.len(), 4, "metal, glass, brick, cabinet");
    for (step, &(tx, rx)) in pairs.iter().enumerate() {
        check_pair(&room, tx, rx, &cfg, 100 + step);
    }
}
