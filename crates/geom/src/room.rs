//! Environments assembled from material walls.
//!
//! A [`Room`] is a bag of [`Wall`]s (wall = segment + material + label).
//! Walls both *block* paths that would penetrate them and *reflect* paths
//! that bounce off them; purely absorptive obstacles (humans, the shielding
//! elements of Fig. 7) are walls too — the ray tracer simply never finds a
//! useful bounce off them because of their reflection loss.
//!
//! [`ConferenceRoom`] reconstructs the exact measurement room of the paper's
//! Fig. 4: 9 m × 3.25 m, wood on the receiver-side wall, brick along the
//! top, a glass window front along the bottom, and the six probe locations
//! A–F.

use crate::material::Material;
use crate::raytrace::ImageTree;
use crate::segment::Segment;
use crate::vec2::Point;
use std::cell::RefCell;
use std::sync::Arc;

/// A wall: a segment of a given material with a diagnostic label.
#[derive(Clone, Debug)]
pub struct Wall {
    /// The wall's footprint in the plane.
    pub seg: Segment,
    /// Surface material (determines reflection/penetration loss).
    pub material: Material,
    /// Human-readable label used in reports ("window", "wood wall", …).
    pub label: String,
    /// Disabled walls neither block nor reflect — a scenario parking a
    /// blocker "off stage" without changing wall indices.
    pub enabled: bool,
}

impl Wall {
    /// Construct a wall (enabled).
    pub fn new(seg: Segment, material: Material, label: impl Into<String>) -> Wall {
        Wall {
            seg,
            material,
            label: label.into(),
            enabled: true,
        }
    }
}

/// An axis-aligned rectangular region declared opaque: every wall on its
/// boundary fully blocks propagation, so no path connects a point inside
/// the zone to a point outside it. Zones are an opt-in contract that
/// scopes cache invalidation after wall mutations, the spatial prune and
/// the ray tracer's wall lists — see [`Room::add_zone`].
#[derive(Clone, Copy, Debug)]
pub struct Zone {
    /// Lower-left corner (inclusive).
    pub min: Point,
    /// Upper-right corner (inclusive).
    pub max: Point,
}

impl Zone {
    /// True if `p` lies inside the zone (boundary inclusive, so a wall on
    /// the shared border of two zones belongs to both).
    pub fn contains(&self, p: Point) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }
}

/// An environment: a set of walls (possibly none — outdoor measurements).
#[derive(Clone, Debug, Default)]
pub struct Room {
    walls: Vec<Wall>,
    /// Bumped on every wall mutation; keys the shared image tree and lets
    /// external caches detect geometry changes cheaply.
    generation: u64,
    zones: Vec<Zone>,
    /// Lazily built mirror-image expansion shared across all device pairs.
    /// Clones share the same (immutable) tree until either side mutates.
    tree: RefCell<Option<Arc<ImageTree>>>,
}

impl Room {
    /// An open space with no walls (the paper's outdoor beam-pattern range).
    pub fn open_space() -> Room {
        Room::default()
    }

    /// Add a wall; returns `self` for builder-style chaining.
    pub fn with_wall(mut self, wall: Wall) -> Room {
        self.add_wall(wall);
        self
    }

    /// Add a wall in place; returns its stable index (walls are never
    /// removed, so indices stay valid for the room's lifetime).
    pub fn add_wall(&mut self, wall: Wall) -> usize {
        self.walls.push(wall);
        self.generation += 1;
        self.walls.len() - 1
    }

    /// Convenience: add an absorbing obstacle (shielding element, blockage).
    /// Returns the wall index for later mutation.
    pub fn add_obstacle(
        &mut self,
        seg: Segment,
        material: Material,
        label: impl Into<String>,
    ) -> usize {
        self.add_wall(Wall::new(seg, material, label))
    }

    /// All walls (including disabled ones; clearance checks skip those).
    pub fn walls(&self) -> &[Wall] {
        &self.walls
    }

    /// Index of the first wall with this label, if any.
    pub fn find_wall(&self, label: &str) -> Option<usize> {
        self.walls.iter().position(|w| w.label == label)
    }

    /// Move/reshape a wall in place (scenario mutation). Callers owning a
    /// link-gain cache must invalidate it after this.
    pub fn set_wall_segment(&mut self, idx: usize, seg: Segment) {
        self.walls[idx].seg = seg;
        self.generation += 1;
    }

    /// Enable or disable a wall in place (scenario mutation). Callers owning
    /// a link-gain cache must invalidate it after this.
    pub fn set_wall_enabled(&mut self, idx: usize, enabled: bool) {
        self.walls[idx].enabled = enabled;
        self.generation += 1;
    }

    /// Geometry generation: bumped on every wall addition or mutation.
    /// Zone declarations do not count — under their contract they change
    /// no path — so caches keyed on it survive them. The shared image tree
    /// does not: [`Room::add_zone`] drops it, because the tree keeps
    /// per-zone lists.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Declare an axis-aligned opaque zone and return its index.
    ///
    /// Contract (caller-asserted, not checked): every boundary of the zone
    /// is covered by enabled walls, which fully block propagation, so no
    /// path can connect the inside of the zone to the outside. Three users
    /// rely on it:
    /// - a wall mutation inside one zone cannot change any path whose
    ///   endpoints both lie outside the affected zones, which lets callers
    ///   scope cache invalidation instead of flushing every pair;
    /// - the spatial interference graph prunes every pair split by a zone
    ///   boundary without tracing it;
    /// - the ray tracer traces a pair lying inside the zone against only
    ///   the walls near it (`raytrace::ZoneLists`).
    ///
    /// Declaring a zone drops the cached image tree, so the next trace
    /// rebuilds it with this zone's lists. It leaves
    /// [`Room::generation`] alone.
    pub fn add_zone(&mut self, min: Point, max: Point) -> usize {
        assert!(min.x <= max.x && min.y <= max.y, "inverted zone corners");
        self.zones.push(Zone { min, max });
        *self.tree.get_mut() = None;
        self.zones.len() - 1
    }

    /// All declared opaque zones.
    pub fn zones(&self) -> &[Zone] {
        &self.zones
    }

    /// Index of the first zone containing `p`, if any.
    pub fn zone_of(&self, p: Point) -> Option<usize> {
        self.zones.iter().position(|z| z.contains(p))
    }

    /// Indices of every zone containing the whole segment (both endpoints;
    /// a partition wall on the border of two zones belongs to both). Used
    /// to find which zones a wall mutation can affect.
    pub fn zones_of_segment(&self, seg: Segment) -> Vec<usize> {
        self.zones
            .iter()
            .enumerate()
            .filter(|(_, z)| z.contains(seg.a) && z.contains(seg.b))
            .map(|(i, _)| i)
            .collect()
    }

    /// Internal slot for the cached shared image tree (see `raytrace`).
    pub(crate) fn tree_slot(&self) -> &RefCell<Option<Arc<ImageTree>>> {
        &self.tree
    }

    /// An axis-aligned rectangular room `[0,w] × [0,h]` with per-side
    /// materials `(left, bottom, right, top)`.
    pub fn rectangular(
        w: f64,
        h: f64,
        (left, bottom, right, top): (Material, Material, Material, Material),
    ) -> Room {
        assert!(w > 0.0 && h > 0.0);
        let p = Point::new;
        Room::default()
            .with_wall(Wall::new(
                Segment::new(p(0.0, 0.0), p(0.0, h)),
                left,
                "left wall",
            ))
            .with_wall(Wall::new(
                Segment::new(p(0.0, 0.0), p(w, 0.0)),
                bottom,
                "bottom wall",
            ))
            .with_wall(Wall::new(
                Segment::new(p(w, 0.0), p(w, h)),
                right,
                "right wall",
            ))
            .with_wall(Wall::new(Segment::new(p(0.0, h), p(w, h)), top, "top wall"))
    }

    /// True if the open segment `p → q` is free of wall crossings
    /// (crossings within `skip_near` metres of either endpoint are ignored,
    /// so a leg that starts or ends *on* a reflecting wall is not blocked
    /// by that same wall).
    pub fn is_clear(&self, p: Point, q: Point, skip_near: f64) -> bool {
        self.walls
            .iter()
            .all(|w| !w.enabled || !w.seg.obstructs(p, q, skip_near))
    }

    /// The first wall obstructing `p → q` (closest to `p`), if any.
    pub fn first_obstruction(&self, p: Point, q: Point, skip_near: f64) -> Option<&Wall> {
        self.walls
            .iter()
            .filter(|w| w.enabled)
            .filter_map(|w| {
                w.seg.intersect(p, q).and_then(|(t, x)| {
                    (x.distance(p) > skip_near && x.distance(q) > skip_near).then_some((t, w))
                })
            })
            .min_by(|(t1, _), (t2, _)| t1.partial_cmp(t2).expect("finite parameters"))
            .map(|(_, w)| w)
    }
}

/// The paper's conference room (Fig. 4) with its six probe locations.
///
/// Dimensions and probe spacing follow the figure annotations: the room is
/// 9 m × 3.25 m; probe columns are 1.85 m apart; the two probe rows sit at
/// 1.3 m and 1.3 + 0.65 ≈ 1.95 m from the bottom wall. The material layout
/// follows the figure: the receiver-side (left) wall is wood, the top wall
/// is brick, and the bottom wall is the glass window front the paper's
/// position-F analysis refers to.
#[derive(Clone, Debug)]
pub struct ConferenceRoom {
    /// The room geometry.
    pub room: Room,
    /// Transmitter position (right end of the room).
    pub tx: Point,
    /// Receiver position (left end of the room).
    pub rx: Point,
    /// Probe locations A–F in figure order.
    pub probes: [(char, Point); 6],
}

impl ConferenceRoom {
    /// Room width in metres.
    pub const WIDTH: f64 = 9.0;
    /// Room height in metres.
    pub const HEIGHT: f64 = 3.25;

    /// Build the room.
    pub fn new() -> ConferenceRoom {
        let room = Room::rectangular(
            Self::WIDTH,
            Self::HEIGHT,
            (
                Material::Wood,
                Material::Glass,
                Material::Brick,
                Material::Brick,
            ),
        );
        // Link axis: RX near the left (wood) wall, TX near the right wall,
        // both at the lower row height, matching the figure.
        let rx = Point::new(0.35, 1.3);
        let tx = Point::new(8.65, 1.3);
        // Probe columns at 1.85 m spacing from the left wall; upper row at
        // 1.95 m, lower row at 0.65 m (figure's 1.3 m / 1.6 m annotations
        // measure the row offsets from the link axis).
        let col = |i: f64| 1.85 * i;
        let probes = [
            ('A', Point::new(col(3.0), 1.95)),
            ('B', Point::new(col(2.0), 1.95)),
            ('C', Point::new(col(1.0), 1.95)),
            ('D', Point::new(col(2.0), 0.65)),
            ('E', Point::new(col(3.0), 0.65)),
            ('F', Point::new(col(4.0), 0.65)),
        ];
        ConferenceRoom {
            room,
            tx,
            rx,
            probes,
        }
    }

    /// Probe position by letter.
    pub fn probe(&self, letter: char) -> Point {
        self.probes
            .iter()
            .find(|(c, _)| *c == letter)
            .map(|(_, p)| *p)
            .unwrap_or_else(|| panic!("no probe {letter}"))
    }
}

impl Default for ConferenceRoom {
    fn default() -> Self {
        ConferenceRoom::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_space_is_always_clear() {
        let r = Room::open_space();
        assert!(r.is_clear(Point::new(0.0, 0.0), Point::new(100.0, 50.0), 0.0));
        assert!(r
            .first_obstruction(Point::new(0.0, 0.0), Point::new(1.0, 1.0), 0.0)
            .is_none());
    }

    #[test]
    fn rectangular_room_walls() {
        let r = Room::rectangular(
            4.0,
            3.0,
            (
                Material::Wood,
                Material::Glass,
                Material::Brick,
                Material::Brick,
            ),
        );
        assert_eq!(r.walls().len(), 4);
        // Interior point to interior point: clear.
        assert!(r.is_clear(Point::new(1.0, 1.0), Point::new(3.0, 2.0), 0.0));
        // Interior to exterior: blocked.
        assert!(!r.is_clear(Point::new(1.0, 1.0), Point::new(10.0, 1.0), 0.0));
    }

    #[test]
    fn first_obstruction_picks_closest() {
        let mut r = Room::open_space();
        let p = Point::new;
        r.add_obstacle(
            Segment::new(p(2.0, -1.0), p(2.0, 1.0)),
            Material::Wood,
            "near",
        );
        r.add_obstacle(
            Segment::new(p(5.0, -1.0), p(5.0, 1.0)),
            Material::Brick,
            "far",
        );
        let w = r
            .first_obstruction(p(0.0, 0.0), p(10.0, 0.0), 0.0)
            .expect("blocked");
        assert_eq!(w.label, "near");
    }

    #[test]
    fn skip_near_allows_wall_grazes() {
        let mut r = Room::open_space();
        let p = Point::new;
        r.add_obstacle(
            Segment::new(p(0.0, -1.0), p(0.0, 1.0)),
            Material::Metal,
            "mirror",
        );
        // Leg starting 1 µm from the mirror (i.e. effectively on it).
        assert!(r.is_clear(p(1e-6, 0.0), p(5.0, 0.0), 1e-3));
    }

    #[test]
    fn disabled_wall_neither_blocks_nor_obstructs() {
        let mut r = Room::open_space();
        let p = Point::new;
        let idx = r.add_obstacle(
            Segment::new(p(2.0, -1.0), p(2.0, 1.0)),
            Material::Human,
            "body",
        );
        assert!(!r.is_clear(p(0.0, 0.0), p(4.0, 0.0), 0.0));
        r.set_wall_enabled(idx, false);
        assert!(r.is_clear(p(0.0, 0.0), p(4.0, 0.0), 0.0));
        assert!(r.first_obstruction(p(0.0, 0.0), p(4.0, 0.0), 0.0).is_none());
        r.set_wall_enabled(idx, true);
        assert!(!r.is_clear(p(0.0, 0.0), p(4.0, 0.0), 0.0));
    }

    #[test]
    fn wall_can_be_found_and_moved() {
        let mut r = Room::open_space();
        let p = Point::new;
        let idx = r.add_obstacle(
            Segment::new(p(2.0, -1.0), p(2.0, 1.0)),
            Material::Human,
            "body",
        );
        assert_eq!(r.find_wall("body"), Some(idx));
        assert_eq!(r.find_wall("ghost"), None);
        // Step the blocker sideways out of the link corridor.
        r.set_wall_segment(idx, Segment::new(p(2.0, 5.0), p(2.0, 7.0)));
        assert!(r.is_clear(p(0.0, 0.0), p(4.0, 0.0), 0.0));
        // And back in.
        r.set_wall_segment(idx, Segment::new(p(2.0, -1.0), p(2.0, 1.0)));
        assert!(!r.is_clear(p(0.0, 0.0), p(4.0, 0.0), 0.0));
    }

    #[test]
    fn conference_room_layout() {
        let c = ConferenceRoom::new();
        assert_eq!(c.room.walls().len(), 4);
        // TX and RX are inside and can see each other.
        assert!(c.room.is_clear(c.tx, c.rx, 0.0));
        // All probes are inside the room.
        for (_, p) in c.probes {
            assert!(p.x > 0.0 && p.x < ConferenceRoom::WIDTH);
            assert!(p.y > 0.0 && p.y < ConferenceRoom::HEIGHT);
        }
        // Figure order: A is right of B is right of C.
        assert!(c.probe('A').x > c.probe('B').x && c.probe('B').x > c.probe('C').x);
        // F is the rightmost probe, on the lower row.
        assert!(c.probe('F').x > c.probe('E').x);
        assert!(c.probe('F').y < 1.0);
    }

    #[test]
    fn conference_room_materials() {
        let c = ConferenceRoom::new();
        let mat = |label: &str| {
            c.room
                .walls()
                .iter()
                .find(|w| w.label == label)
                .expect("wall")
                .material
        };
        assert_eq!(mat("left wall"), Material::Wood);
        assert_eq!(mat("bottom wall"), Material::Glass);
        assert_eq!(mat("top wall"), Material::Brick);
        assert_eq!(mat("right wall"), Material::Brick);
    }
}
