//! Planar points, velocity vectors and axis-aligned boxes.
//!
//! The paper assumes every mobile node (MN) "can acquire its location
//! information such as geographical position, moving velocity, and moving
//! direction, using some devices such as a GPS" (§3). This module provides
//! the value types those readings are expressed in. All coordinates are in
//! metres, all velocities in metres/second.

use serde::{Deserialize, Serialize};

/// A position in the plane, in metres.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Point {
    /// Easting component (metres).
    pub x: f64,
    /// Northing component (metres).
    pub y: f64,
}

/// A velocity (or any displacement) vector, in metres/second (or metres).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Vec2 {
    /// Easting component.
    pub x: f64,
    /// Northing component.
    pub y: f64,
}

impl Point {
    /// Origin shorthand.
    pub const ORIGIN: Point = Point { x: 0.0, y: 0.0 };

    /// Creates a point from its components.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Euclidean distance to `other`.
    #[inline]
    pub fn distance(&self, other: Point) -> f64 {
        self.distance_sq(other).sqrt()
    }

    /// Squared Euclidean distance to `other`. Cheaper than [`Point::distance`]
    /// when only comparisons are needed (hot path in neighbour queries).
    #[inline]
    pub fn distance_sq(&self, other: Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// Vector from `self` to `other`.
    #[inline]
    pub fn vector_to(&self, other: Point) -> Vec2 {
        Vec2 {
            x: other.x - self.x,
            y: other.y - self.y,
        }
    }

    /// The point reached after moving with velocity `v` for `dt` seconds.
    #[inline]
    pub fn advanced(&self, v: Vec2, dt: f64) -> Point {
        Point {
            x: self.x + v.x * dt,
            y: self.y + v.y * dt,
        }
    }

    /// Linear interpolation between `self` (t = 0) and `other` (t = 1).
    #[inline]
    pub fn lerp(&self, other: Point, t: f64) -> Point {
        Point {
            x: self.x + (other.x - self.x) * t,
            y: self.y + (other.y - self.y) * t,
        }
    }

    /// Component-wise midpoint.
    #[inline]
    pub fn midpoint(&self, other: Point) -> Point {
        self.lerp(other, 0.5)
    }
}

impl Vec2 {
    /// Zero vector shorthand.
    pub const ZERO: Vec2 = Vec2 { x: 0.0, y: 0.0 };

    /// Creates a vector from its components.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Vec2 { x, y }
    }

    /// Builds a vector from a heading angle (radians, counter-clockwise from
    /// +x) and a magnitude.
    #[inline]
    pub fn from_heading(heading: f64, magnitude: f64) -> Self {
        Vec2 {
            x: heading.cos() * magnitude,
            y: heading.sin() * magnitude,
        }
    }

    /// Euclidean norm.
    #[inline]
    pub fn magnitude(&self) -> f64 {
        (self.x * self.x + self.y * self.y).sqrt()
    }

    /// Squared Euclidean norm.
    #[inline]
    pub fn magnitude_sq(&self) -> f64 {
        self.x * self.x + self.y * self.y
    }

    /// Dot product.
    #[inline]
    pub fn dot(&self, other: Vec2) -> f64 {
        self.x * other.x + self.y * other.y
    }

    /// Unit vector in the same direction, or zero if the vector is zero.
    #[inline]
    pub fn normalized(&self) -> Vec2 {
        let m = self.magnitude();
        if m == 0.0 {
            Vec2::ZERO
        } else {
            Vec2 {
                x: self.x / m,
                y: self.y / m,
            }
        }
    }

    /// Scales the vector by `s`.
    #[inline]
    pub fn scaled(&self, s: f64) -> Vec2 {
        Vec2 {
            x: self.x * s,
            y: self.y * s,
        }
    }
}

impl std::ops::Add<Vec2> for Point {
    type Output = Point;
    #[inline]
    fn add(self, rhs: Vec2) -> Point {
        Point {
            x: self.x + rhs.x,
            y: self.y + rhs.y,
        }
    }
}

impl std::ops::Sub<Point> for Point {
    type Output = Vec2;
    #[inline]
    fn sub(self, rhs: Point) -> Vec2 {
        Vec2 {
            x: self.x - rhs.x,
            y: self.y - rhs.y,
        }
    }
}

impl std::ops::Add for Vec2 {
    type Output = Vec2;
    #[inline]
    fn add(self, rhs: Vec2) -> Vec2 {
        Vec2 {
            x: self.x + rhs.x,
            y: self.y + rhs.y,
        }
    }
}

impl std::ops::Sub for Vec2 {
    type Output = Vec2;
    #[inline]
    fn sub(self, rhs: Vec2) -> Vec2 {
        Vec2 {
            x: self.x - rhs.x,
            y: self.y - rhs.y,
        }
    }
}

impl std::ops::Mul<f64> for Vec2 {
    type Output = Vec2;
    #[inline]
    fn mul(self, rhs: f64) -> Vec2 {
        self.scaled(rhs)
    }
}

/// An axis-aligned rectangle, `min` inclusive, `max` exclusive on queries
/// that clamp, inclusive on containment checks (simulation areas are closed).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Aabb {
    /// Lower-left corner.
    pub min: Point,
    /// Upper-right corner.
    pub max: Point,
}

impl Aabb {
    /// Creates a box from opposite corners; the corners may be given in any
    /// order.
    pub fn new(a: Point, b: Point) -> Self {
        Aabb {
            min: Point::new(a.x.min(b.x), a.y.min(b.y)),
            max: Point::new(a.x.max(b.x), a.y.max(b.y)),
        }
    }

    /// A box of the given width and height whose lower-left corner is the
    /// origin. This is the usual shape of a simulated deployment area.
    pub fn from_size(width: f64, height: f64) -> Self {
        Aabb {
            min: Point::ORIGIN,
            max: Point::new(width, height),
        }
    }

    /// Width (metres).
    #[inline]
    pub fn width(&self) -> f64 {
        self.max.x - self.min.x
    }

    /// Height (metres).
    #[inline]
    pub fn height(&self) -> f64 {
        self.max.y - self.min.y
    }

    /// Geometric centre. The paper's identifier mapping (§4.1) uses the
    /// "central coordinate ... of the whole network" as a system parameter.
    #[inline]
    pub fn center(&self) -> Point {
        self.min.midpoint(self.max)
    }

    /// Whether the (closed) box contains `p`.
    #[inline]
    pub fn contains(&self, p: Point) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }

    /// The nearest point inside the box to `p` (identity when `p` is inside).
    #[inline]
    pub fn clamp(&self, p: Point) -> Point {
        Point {
            x: p.x.clamp(self.min.x, self.max.x),
            y: p.y.clamp(self.min.y, self.max.y),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_is_euclidean() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert_eq!(a.distance(b), 5.0);
        assert_eq!(a.distance_sq(b), 25.0);
    }

    #[test]
    fn advance_moves_along_velocity() {
        let p = Point::new(1.0, 1.0);
        let v = Vec2::new(2.0, -1.0);
        let q = p.advanced(v, 2.0);
        assert_eq!(q, Point::new(5.0, -1.0));
    }

    #[test]
    fn vector_algebra() {
        let v = Vec2::new(3.0, 4.0);
        assert_eq!(v.magnitude(), 5.0);
        let u = v.normalized();
        assert!((u.magnitude() - 1.0).abs() < 1e-12);
        assert!((u.dot(v) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn heading_round_trip() {
        for deg in [0.0_f64, 45.0, 90.0, 135.0, 180.0, -90.0] {
            let rad = deg.to_radians();
            let v = Vec2::from_heading(rad, 2.0);
            assert!((v.magnitude() - 2.0).abs() < 1e-12);
            let back = v.y.atan2(v.x);
            let diff = (back - rad).rem_euclid(std::f64::consts::TAU);
            assert!(
                diff < 1e-9 || (std::f64::consts::TAU - diff) < 1e-9,
                "deg {deg}"
            );
        }
    }

    #[test]
    fn zero_vector_normalizes_to_zero() {
        assert_eq!(Vec2::ZERO.normalized(), Vec2::ZERO);
    }

    #[test]
    fn aabb_contains_and_clamps() {
        let b = Aabb::from_size(100.0, 50.0);
        assert!(b.contains(Point::new(0.0, 0.0)));
        assert!(b.contains(Point::new(100.0, 50.0)));
        assert!(!b.contains(Point::new(100.1, 10.0)));
        assert_eq!(b.clamp(Point::new(120.0, -5.0)), Point::new(100.0, 0.0));
        assert_eq!(b.center(), Point::new(50.0, 25.0));
    }

    #[test]
    fn aabb_corner_order_is_normalized() {
        let b = Aabb::new(Point::new(5.0, 7.0), Point::new(1.0, 2.0));
        assert_eq!(b.min, Point::new(1.0, 2.0));
        assert_eq!(b.max, Point::new(5.0, 7.0));
        assert_eq!(b.width(), 4.0);
        assert_eq!(b.height(), 5.0);
    }

    #[test]
    fn point_vector_ops() {
        let a = Point::new(1.0, 2.0);
        let b = Point::new(4.0, 6.0);
        let v = b - a;
        assert_eq!(v, Vec2::new(3.0, 4.0));
        assert_eq!(a + v, b);
        assert_eq!(a.midpoint(b), Point::new(2.5, 4.0));
    }
}
