//! Azimuth angles with wrap-around arithmetic.
//!
//! Beam patterns, angular profiles (Figs. 16–20) and scan positions are all
//! indexed by azimuth. Doing modular arithmetic on raw radians is a classic
//! source of off-by-2π bugs, so [`Angle`] normalizes to (-π, π] and provides
//! the shortest signed difference.

use crate::vec2::Vec2;
use std::f64::consts::{PI, TAU};
use std::fmt;
use std::ops::{Add, Neg, Sub};

/// An azimuth angle, stored normalized to the half-open interval (-π, π].
#[derive(Clone, Copy, PartialEq, PartialOrd, Debug, Default)]
pub struct Angle(f64);

impl Angle {
    /// Zero azimuth (boresight / +x axis).
    pub const ZERO: Angle = Angle(0.0);

    /// From radians (normalized on construction).
    pub fn from_radians(rad: f64) -> Angle {
        debug_assert!(rad.is_finite());
        let mut a = rad % TAU;
        if a <= -PI {
            a += TAU;
        } else if a > PI {
            a -= TAU;
        }
        Angle(a)
    }

    /// From degrees.
    pub fn from_degrees(deg: f64) -> Angle {
        Angle::from_radians(deg.to_radians())
    }

    /// Radians in (-π, π].
    pub fn radians(self) -> f64 {
        self.0
    }

    /// Degrees in (-180, 180].
    pub fn degrees(self) -> f64 {
        self.0.to_degrees()
    }

    /// Unit vector pointing along this azimuth.
    pub fn unit(self) -> Vec2 {
        Vec2::from_angle(self.0)
    }

    /// Shortest signed angular difference `self - other`, in (-π, π].
    pub fn diff(self, other: Angle) -> Angle {
        Angle::from_radians(self.0 - other.0)
    }

    /// Absolute shortest angular distance to `other`, in [0, π].
    pub fn distance(self, other: Angle) -> f64 {
        self.diff(other).0.abs()
    }

    /// True if `self` lies within ± `half_width` of `center` (shortest arc).
    pub fn within(self, center: Angle, half_width: f64) -> bool {
        self.distance(center) <= half_width
    }
}

impl Add for Angle {
    type Output = Angle;
    fn add(self, rhs: Angle) -> Angle {
        Angle::from_radians(self.0 + rhs.0)
    }
}
impl Sub for Angle {
    type Output = Angle;
    fn sub(self, rhs: Angle) -> Angle {
        Angle::from_radians(self.0 - rhs.0)
    }
}
impl Neg for Angle {
    type Output = Angle;
    fn neg(self) -> Angle {
        Angle::from_radians(-self.0)
    }
}

impl fmt::Display for Angle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1}°", self.degrees())
    }
}

/// Evenly spaced azimuths covering the full circle: `n` angles starting at
/// `start`, stepping 360°/n. Used by the rotation scans.
pub fn full_circle(n: usize, start: Angle) -> Vec<Angle> {
    assert!(n > 0);
    (0..n)
        .map(|i| start + Angle::from_radians(TAU * i as f64 / n as f64))
        .collect()
}

/// Evenly spaced azimuths on an arc from `from` to `to` inclusive
/// (`n ≥ 2` positions). Mirrors the paper's 100-position semicircle scan.
pub fn arc(n: usize, from: Angle, to: Angle) -> Vec<Angle> {
    assert!(n >= 2);
    let span = to.diff(from).radians();
    (0..n)
        .map(|i| from + Angle::from_radians(span * i as f64 / (n - 1) as f64))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-12;

    #[test]
    fn normalization() {
        assert!((Angle::from_degrees(370.0).degrees() - 10.0).abs() < 1e-9);
        assert!((Angle::from_degrees(-190.0).degrees() - 170.0).abs() < 1e-9);
        assert!((Angle::from_degrees(180.0).degrees() - 180.0).abs() < 1e-9);
        // -180 normalizes to +180 (the interval is half-open at -π).
        assert!((Angle::from_degrees(-180.0).degrees() - 180.0).abs() < 1e-9);
    }

    #[test]
    fn diff_takes_shortest_arc() {
        let a = Angle::from_degrees(170.0);
        let b = Angle::from_degrees(-170.0);
        assert!((a.diff(b).degrees() + 20.0).abs() < 1e-9);
        assert!((b.diff(a).degrees() - 20.0).abs() < 1e-9);
        assert!((a.distance(b) - 20f64.to_radians()).abs() < EPS);
    }

    #[test]
    fn within_wraps() {
        let c = Angle::from_degrees(175.0);
        assert!(Angle::from_degrees(-175.0).within(c, 15f64.to_radians()));
        assert!(!Angle::from_degrees(-150.0).within(c, 15f64.to_radians()));
    }

    #[test]
    fn unit_vector_matches() {
        let a = Angle::from_degrees(90.0);
        let u = a.unit();
        assert!(u.x.abs() < EPS && (u.y - 1.0).abs() < EPS);
    }

    #[test]
    fn full_circle_spacing() {
        let angles = full_circle(360, Angle::ZERO);
        assert_eq!(angles.len(), 360);
        assert!((angles[90].degrees() - 90.0).abs() < 1e-9);
        assert!((angles[270].degrees() + 90.0).abs() < 1e-9);
    }

    #[test]
    fn arc_endpoints() {
        let a = arc(100, Angle::from_degrees(-90.0), Angle::from_degrees(90.0));
        assert_eq!(a.len(), 100);
        assert!((a[0].degrees() + 90.0).abs() < 1e-9);
        assert!((a[99].degrees() - 90.0).abs() < 1e-9);
        // Monotone increasing along the arc.
        for w in a.windows(2) {
            assert!(w[1].degrees() > w[0].degrees());
        }
    }
}
