//! Integer-nanometre points and small vector helpers.

use std::fmt;
use std::ops::{Add, AddAssign, Neg, Sub, SubAssign};

/// A point (or 2-vector) on the integer nanometre grid.
///
/// # Example
///
/// ```
/// use maskfrac_geom::Point;
///
/// let a = Point::new(3, 4);
/// let b = Point::new(-1, 2);
/// assert_eq!(a + b, Point::new(2, 6));
/// assert_eq!(a - b, Point::new(4, 2));
/// assert_eq!(a.norm(), 5.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Point {
    /// Horizontal coordinate in nanometres.
    pub x: i64,
    /// Vertical coordinate in nanometres.
    pub y: i64,
}

impl Point {
    /// Creates a point from nanometre coordinates.
    #[inline]
    pub const fn new(x: i64, y: i64) -> Self {
        Point { x, y }
    }

    /// Dot product, treating both points as vectors.
    #[inline]
    pub(crate) const fn dot(self, other: Point) -> i64 {
        self.x * other.x + self.y * other.y
    }

    /// Z-component of the cross product `self × other`.
    ///
    /// Positive when `other` is counter-clockwise from `self`.
    #[inline]
    pub(crate) const fn cross(self, other: Point) -> i64 {
        self.x * other.y - self.y * other.x
    }

    /// Squared Euclidean length of the vector.
    #[inline]
    pub(crate) const fn norm_sq(self) -> i64 {
        self.x * self.x + self.y * self.y
    }

    /// Euclidean length of the vector.
    #[inline]
    pub fn norm(self) -> f64 {
        (self.norm_sq() as f64).sqrt()
    }

    /// Euclidean distance to `other`.
    #[inline]
    pub fn distance(self, other: Point) -> f64 {
        (other - self).norm()
    }

    /// Squared Euclidean distance to `other`.
    #[inline]
    pub(crate) const fn distance_sq(self, other: Point) -> i64 {
        (other.x - self.x) * (other.x - self.x) + (other.y - self.y) * (other.y - self.y)
    }

    /// Returns this point as an `(f64, f64)` pair.
    #[inline]
    pub(crate) fn to_f64(self) -> (f64, f64) {
        (self.x as f64, self.y as f64)
    }

    /// Euclidean distance from this point to the closed segment `a`–`b`.
    pub fn distance_to_segment(self, a: Point, b: Point) -> f64 {
        let ab = b - a;
        let ap = self - a;
        let len_sq = ab.norm_sq();
        if len_sq == 0 {
            return self.distance(a);
        }
        let t = ap.dot(ab) as f64 / len_sq as f64;
        let t = t.clamp(0.0, 1.0);
        let px = a.x as f64 + t * ab.x as f64;
        let py = a.y as f64 + t * ab.y as f64;
        let dx = self.x as f64 - px;
        let dy = self.y as f64 - py;
        (dx * dx + dy * dy).sqrt()
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

impl Add for Point {
    type Output = Point;
    #[inline]
    fn add(self, rhs: Point) -> Point {
        Point::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl AddAssign for Point {
    #[inline]
    fn add_assign(&mut self, rhs: Point) {
        self.x += rhs.x;
        self.y += rhs.y;
    }
}

impl Sub for Point {
    type Output = Point;
    #[inline]
    fn sub(self, rhs: Point) -> Point {
        Point::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl SubAssign for Point {
    #[inline]
    fn sub_assign(&mut self, rhs: Point) {
        self.x -= rhs.x;
        self.y -= rhs.y;
    }
}

impl Neg for Point {
    type Output = Point;
    #[inline]
    fn neg(self) -> Point {
        Point::new(-self.x, -self.y)
    }
}

impl From<(i64, i64)> for Point {
    #[inline]
    fn from((x, y): (i64, i64)) -> Self {
        Point::new(x, y)
    }
}

impl From<Point> for (i64, i64) {
    #[inline]
    fn from(p: Point) -> Self {
        (p.x, p.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let a = Point::new(1, 2);
        let b = Point::new(3, -4);
        assert_eq!(a + b, Point::new(4, -2));
        assert_eq!(a - b, Point::new(-2, 6));
        assert_eq!(-a, Point::new(-1, -2));
        let mut c = a;
        c += b;
        assert_eq!(c, Point::new(4, -2));
        c -= b;
        assert_eq!(c, a);
    }

    #[test]
    fn products() {
        let a = Point::new(2, 0);
        let b = Point::new(0, 3);
        assert_eq!(a.dot(b), 0);
        assert_eq!(a.cross(b), 6);
        assert_eq!(b.cross(a), -6);
    }

    #[test]
    fn norms_and_distances() {
        let a = Point::new(0, 0);
        let b = Point::new(3, 4);
        assert_eq!(b.norm_sq(), 25);
        assert_eq!(b.norm(), 5.0);
        assert_eq!(a.distance(b), 5.0);
        assert_eq!(a.distance_sq(b), 25);
    }

    #[test]
    fn segment_distance_clamps_to_endpoints() {
        let a = Point::new(0, 0);
        let b = Point::new(10, 0);
        assert_eq!(Point::new(5, 3).distance_to_segment(a, b), 3.0);
        assert_eq!(Point::new(-4, 3).distance_to_segment(a, b), 5.0);
        assert_eq!(Point::new(14, 3).distance_to_segment(a, b), 5.0);
        assert_eq!(Point::new(7, 0).distance_to_segment(a, a), 7.0);
    }

    #[test]
    fn display_and_conversions() {
        let p = Point::new(-3, 9);
        assert_eq!(p.to_string(), "(-3, 9)");
        assert_eq!(Point::from((-3, 9)), p);
        let t: (i64, i64) = p.into();
        assert_eq!(t, (-3, 9));
        assert_eq!(p.to_f64(), (-3.0, 9.0));
    }
}
