//! # mmwave-geom — 2-D geometry for indoor 60 GHz propagation
//!
//! The paper's reflection and interference findings (Figs. 4, 5, 7, 18–20,
//! 23) are geometric phenomena: signals bounce off brick, glass, wood and
//! metal surfaces, sometimes twice, and obstacles block the line of sight.
//! This crate provides the geometric substrate:
//!
//! * [`vec2`] / [`angle`] — points, vectors and azimuth angles with correct
//!   wrap-around arithmetic (every antenna pattern is indexed by azimuth).
//! * [`material`] — reflection losses of the wall materials the paper's
//!   conference room is built from.
//! * [`segment`] — wall segments, ray–segment intersection, specular
//!   reflection and mirroring.
//! * [`room`] — environments assembled from walls and blockers, including
//!   a constructor for the exact conference room of Fig. 4.
//! * [`raytrace`] — the image (mirror-source) method that enumerates every
//!   unobstructed propagation path between two points with up to two wall
//!   bounces, yielding path length, departure/arrival azimuths and the
//!   cumulative reflection loss.
//!
//! All geometry is planar: the paper measures azimuthal beam patterns and
//! places every device at comparable height, so the third dimension adds
//! nothing the evaluation needs.

pub mod angle;
pub mod material;
pub mod raytrace;
pub mod room;
pub mod segment;
pub mod vec2;

pub use angle::{arc, full_circle, Angle};
pub use material::Material;
pub use raytrace::{
    shared_tree, trace_paths, trace_paths_reference, ClearWall, ImageTree, MirrorNode, PathKind,
    PropPath, TraceConfig, ZoneLists, SKIP_NEAR,
};
pub use room::{ConferenceRoom, Room, Wall, Zone};
pub use segment::Segment;
pub use vec2::{Point, Vec2};
