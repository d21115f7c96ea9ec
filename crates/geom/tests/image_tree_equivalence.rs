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

use mmwave_geom::{
    trace_paths, trace_paths_reference, Material, Point, Room, Segment, TraceConfig, Wall,
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
