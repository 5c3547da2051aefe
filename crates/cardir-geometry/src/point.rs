//! Points (and vectors) in the Euclidean plane.

use std::fmt;
use std::ops::{Add, Div, Mul, Neg, Sub};

/// A point — equivalently a vector — in `R^2`.
///
/// The y axis points north, matching the paper's figures: larger `y` is
/// further north, larger `x` is further east.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// East–west coordinate.
    pub x: f64,
    /// South–north coordinate.
    pub y: f64,
}

impl Point {
    /// Creates a point from its coordinates.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// The origin `(0, 0)`.
    pub const ORIGIN: Point = Point { x: 0.0, y: 0.0 };

    /// Returns `true` when both coordinates are finite (not NaN/±∞).
    #[inline]
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }

    /// Euclidean dot product.
    #[inline]
    pub fn dot(self, other: Point) -> f64 {
        self.x * other.x + self.y * other.y
    }

    /// 2-D cross product (the z component of the 3-D cross product).
    ///
    /// Positive when `other` is counter-clockwise from `self`.
    #[inline]
    pub fn cross(self, other: Point) -> f64 {
        self.x * other.y - self.y * other.x
    }

    /// Squared Euclidean norm.
    #[inline]
    pub fn norm_sq(self) -> f64 {
        self.dot(self)
    }

    /// Euclidean norm.
    #[inline]
    pub fn norm(self) -> f64 {
        self.norm_sq().sqrt()
    }

    /// Euclidean distance to another point.
    #[inline]
    pub fn distance(self, other: Point) -> f64 {
        (self - other).norm()
    }

    /// The midpoint of the segment from `self` to `other`.
    #[inline]
    pub fn midpoint(self, other: Point) -> Point {
        Point::new((self.x + other.x) / 2.0, (self.y + other.y) / 2.0)
    }

    /// Linear interpolation: `self` at `t = 0`, `other` at `t = 1`.
    #[inline]
    pub fn lerp(self, other: Point, t: f64) -> Point {
        Point::new(
            self.x + (other.x - self.x) * t,
            self.y + (other.y - self.y) * t,
        )
    }
}

/// Orientation of the ordered triple `(a, b, c)`.
///
/// Returns a positive value when the triple turns counter-clockwise, a
/// negative value when it turns clockwise, and zero when collinear.
#[inline]
pub fn orient(a: Point, b: Point, c: Point) -> f64 {
    (b - a).cross(c - a)
}

impl Add for Point {
    type Output = Point;
    #[inline]
    fn add(self, rhs: Point) -> Point {
        Point::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl Sub for Point {
    type Output = Point;
    #[inline]
    fn sub(self, rhs: Point) -> Point {
        Point::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl Neg for Point {
    type Output = Point;
    #[inline]
    fn neg(self) -> Point {
        Point::new(-self.x, -self.y)
    }
}

impl Mul<f64> for Point {
    type Output = Point;
    #[inline]
    fn mul(self, rhs: f64) -> Point {
        Point::new(self.x * rhs, self.y * rhs)
    }
}

impl Div<f64> for Point {
    type Output = Point;
    #[inline]
    fn div(self, rhs: f64) -> Point {
        Point::new(self.x / rhs, self.y / rhs)
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

impl From<(f64, f64)> for Point {
    #[inline]
    fn from((x, y): (f64, f64)) -> Self {
        Point::new(x, y)
    }
}

/// Shorthand constructor, convenient in tests and examples.
#[inline]
pub fn pt(x: f64, y: f64) -> Point {
    Point::new(x, y)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_ops() {
        let a = pt(1.0, 2.0);
        let b = pt(3.0, -1.0);
        assert_eq!(a + b, pt(4.0, 1.0));
        assert_eq!(a - b, pt(-2.0, 3.0));
        assert_eq!(-a, pt(-1.0, -2.0));
        assert_eq!(a * 2.0, pt(2.0, 4.0));
        assert_eq!(b / 2.0, pt(1.5, -0.5));
    }

    #[test]
    fn dot_and_cross() {
        let a = pt(1.0, 0.0);
        let b = pt(0.0, 1.0);
        assert_eq!(a.dot(b), 0.0);
        assert_eq!(a.cross(b), 1.0); // b is CCW from a
        assert_eq!(b.cross(a), -1.0);
    }

    #[test]
    fn norms_and_distance() {
        let a = pt(3.0, 4.0);
        assert_eq!(a.norm_sq(), 25.0);
        assert_eq!(a.norm(), 5.0);
        assert_eq!(Point::ORIGIN.distance(a), 5.0);
    }

    #[test]
    fn midpoint_and_lerp() {
        let a = pt(0.0, 0.0);
        let b = pt(2.0, 4.0);
        assert_eq!(a.midpoint(b), pt(1.0, 2.0));
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.lerp(b, 0.25), pt(0.5, 1.0));
    }

    #[test]
    fn orientation_predicate() {
        let a = pt(0.0, 0.0);
        let b = pt(1.0, 0.0);
        assert!(orient(a, b, pt(1.0, 1.0)) > 0.0); // left turn (CCW)
        assert!(orient(a, b, pt(1.0, -1.0)) < 0.0); // right turn (CW)
        assert_eq!(orient(a, b, pt(2.0, 0.0)), 0.0); // collinear
    }

    #[test]
    fn finiteness() {
        assert!(pt(1.0, 2.0).is_finite());
        assert!(!pt(f64::NAN, 0.0).is_finite());
        assert!(!pt(0.0, f64::INFINITY).is_finite());
    }

    #[test]
    fn display_and_from_tuple() {
        let p: Point = (1.5, -2.0).into();
        assert_eq!(format!("{p}"), "(1.5, -2)");
    }
}
