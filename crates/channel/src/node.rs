//! Positioned, oriented radios.

use crate::propagate::LinkEnd;
use mmwave_geom::{Angle, Point};
use mmwave_phy::AntennaPattern;
use std::fmt;

/// Identifier of a radio node within a scenario.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub usize);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A radio node: a position and the world azimuth its array boresight
/// points at. The antenna *pattern* is not stored here — devices swap
/// patterns constantly (sector sweeps, quasi-omni discovery), so patterns
/// are passed per call.
#[derive(Clone, Debug)]
pub struct RadioNode {
    /// Identifier.
    pub id: NodeId,
    /// Diagnostic name ("Dock A", "HDMI TX", …).
    pub label: String,
    /// Position in the room plane, metres.
    pub position: Point,
    /// World azimuth of the array boresight.
    pub orientation: Angle,
}

impl RadioNode {
    /// Construct a node.
    pub fn new(id: usize, label: impl Into<String>, position: Point, orientation: Angle) -> Self {
        RadioNode {
            id: NodeId(id),
            label: label.into(),
            position,
            orientation,
        }
    }

    /// Convert a world azimuth into this node's array-local azimuth.
    pub fn to_local(&self, world: Angle) -> Angle {
        world - self.orientation
    }

    /// World azimuth from this node towards a point.
    pub fn azimuth_to(&self, p: Point) -> Angle {
        Angle::from_radians((p - self.position).angle())
    }

    /// This node as one end of a link, using `pattern` (mounted on this
    /// node, so its boresight is the node's orientation).
    pub fn with_pattern<'a>(&self, pattern: &'a AntennaPattern) -> LinkEnd<'a> {
        LinkEnd::new(self.orientation, pattern)
    }

    /// Point the boresight at a target position.
    pub fn face(&mut self, target: Point) {
        self.orientation = self.azimuth_to(target);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_conversion() {
        let n = RadioNode::new(0, "dock", Point::new(0.0, 0.0), Angle::from_degrees(90.0));
        // A world direction of 90° is boresight (0° local).
        assert!(n.to_local(Angle::from_degrees(90.0)).radians().abs() < 1e-12);
        assert!((n.to_local(Angle::from_degrees(135.0)).degrees() - 45.0).abs() < 1e-9);
    }

    #[test]
    fn azimuth_to_points_at_target() {
        let n = RadioNode::new(0, "a", Point::new(1.0, 1.0), Angle::ZERO);
        let az = n.azimuth_to(Point::new(1.0, 5.0));
        assert!((az.degrees() - 90.0).abs() < 1e-9);
    }

    #[test]
    fn face_aligns_boresight() {
        let mut n = RadioNode::new(0, "a", Point::new(0.0, 0.0), Angle::ZERO);
        n.face(Point::new(-3.0, 0.0));
        assert!((n.orientation.degrees().abs() - 180.0).abs() < 1e-9);
        assert!(
            n.to_local(n.azimuth_to(Point::new(-3.0, 0.0)))
                .radians()
                .abs()
                < 1e-12
        );
    }

    #[test]
    fn gain_toward_uses_orientation() {
        let pat = AntennaPattern::from_fn(720, |a| 20.0 - a.distance(Angle::ZERO).to_degrees());
        let n = RadioNode::new(0, "a", Point::ORIGIN, Angle::from_degrees(45.0));
        // Towards 45° world = boresight: full gain.
        let end = n.with_pattern(&pat);
        assert!((end.gain_toward(Angle::from_degrees(45.0)) - 20.0).abs() < 0.01);
        // Towards 75° world = 30° off boresight.
        assert!((end.gain_toward(Angle::from_degrees(75.0)) - (20.0 - 30.0)).abs() < 0.1);
    }
}
