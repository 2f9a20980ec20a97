//! Axis-parallel rectangles — the geometry of a VSB e-beam shot.

use crate::point::Point;
use std::fmt;

/// An axis-parallel rectangle with integer nanometre corners.
///
/// `Rect` stores the bottom-left corner `(x0, y0)` and top-right corner
/// `(x1, y1)` with `x0 <= x1` and `y0 <= y1`. A variable-shaped-beam *shot*
/// is exactly such a rectangle; its width is `x1 - x0` and height `y1 - y0`.
///
/// Membership tests treat the rectangle as the **closed** region
/// `[x0, x1] × [y0, y1]` in continuous nm space, which matches the exposure
/// model: intensity is a function of continuous position and a pixel samples
/// it at its centre.
///
/// # Example
///
/// ```
/// use maskfrac_geom::Rect;
///
/// let shot = Rect::new(10, 20, 60, 45).expect("well-formed");
/// assert_eq!(shot.width(), 50);
/// assert_eq!(shot.height(), 25);
/// assert_eq!(shot.area(), 1250);
/// assert!(shot.contains_f64(10.0, 45.0));
/// assert!(!shot.contains_f64(9.9, 30.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rect {
    x0: i64,
    y0: i64,
    x1: i64,
    y1: i64,
}

impl Rect {
    /// Creates a rectangle from bottom-left `(x0, y0)` and top-right
    /// `(x1, y1)` corners.
    ///
    /// Returns `None` if `x0 > x1` or `y0 > y1`. Zero-width or zero-height
    /// (degenerate) rectangles are allowed; use [`Rect::is_degenerate`] to
    /// detect them.
    #[inline]
    pub fn new(x0: i64, y0: i64, x1: i64, y1: i64) -> Option<Self> {
        if x0 <= x1 && y0 <= y1 {
            Some(Rect { x0, y0, x1, y1 })
        } else {
            None
        }
    }

    /// Creates a rectangle from two arbitrary opposite corners, normalizing
    /// the coordinate order.
    #[inline]
    pub(crate) fn from_corners(a: Point, b: Point) -> Self {
        Rect {
            x0: a.x.min(b.x),
            y0: a.y.min(b.y),
            x1: a.x.max(b.x),
            y1: a.y.max(b.y),
        }
    }

    /// Creates the bounding box of a non-empty set of points.
    ///
    /// Returns `None` for an empty iterator.
    pub(crate) fn bounding<I: IntoIterator<Item = Point>>(points: I) -> Option<Self> {
        let mut it = points.into_iter();
        let first = it.next()?;
        let mut r = Rect::from_corners(first, first);
        for p in it {
            r.x0 = r.x0.min(p.x);
            r.y0 = r.y0.min(p.y);
            r.x1 = r.x1.max(p.x);
            r.y1 = r.y1.max(p.y);
        }
        Some(r)
    }

    /// Bottom-left x coordinate (the paper's `x_bl`).
    #[inline]
    pub const fn x0(&self) -> i64 {
        self.x0
    }

    /// Bottom-left y coordinate (the paper's `y_bl`).
    #[inline]
    pub const fn y0(&self) -> i64 {
        self.y0
    }

    /// Top-right x coordinate (the paper's `x_tr`).
    #[inline]
    pub const fn x1(&self) -> i64 {
        self.x1
    }

    /// Top-right y coordinate (the paper's `y_tr`).
    #[inline]
    pub const fn y1(&self) -> i64 {
        self.y1
    }

    /// Bottom-left corner.
    #[inline]
    pub const fn bottom_left(&self) -> Point {
        Point::new(self.x0, self.y0)
    }

    /// Bottom-right corner.
    #[inline]
    pub(crate) const fn bottom_right(&self) -> Point {
        Point::new(self.x1, self.y0)
    }

    /// Top-left corner.
    #[inline]
    pub(crate) const fn top_left(&self) -> Point {
        Point::new(self.x0, self.y1)
    }

    /// Top-right corner.
    #[inline]
    pub(crate) const fn top_right(&self) -> Point {
        Point::new(self.x1, self.y1)
    }

    /// Width in nanometres.
    #[inline]
    pub const fn width(&self) -> i64 {
        self.x1 - self.x0
    }

    /// Height in nanometres.
    #[inline]
    pub const fn height(&self) -> i64 {
        self.y1 - self.y0
    }

    /// Area in nm².
    #[inline]
    pub const fn area(&self) -> i64 {
        self.width() * self.height()
    }

    /// The smaller of width and height.
    #[inline]
    pub fn min_side(&self) -> i64 {
        self.width().min(self.height())
    }

    /// Whether the rectangle has zero width or zero height.
    #[inline]
    pub const fn is_degenerate(&self) -> bool {
        self.x0 == self.x1 || self.y0 == self.y1
    }

    /// Centre of the rectangle in continuous coordinates.
    #[inline]
    pub fn center_f64(&self) -> (f64, f64) {
        (
            (self.x0 + self.x1) as f64 / 2.0,
            (self.y0 + self.y1) as f64 / 2.0,
        )
    }

    /// Whether the closed rectangle contains the integer point `p`.
    #[inline]
    pub const fn contains(&self, p: Point) -> bool {
        self.x0 <= p.x && p.x <= self.x1 && self.y0 <= p.y && p.y <= self.y1
    }

    /// Whether the closed rectangle contains the continuous point `(x, y)`.
    #[inline]
    pub fn contains_f64(&self, x: f64, y: f64) -> bool {
        self.x0 as f64 <= x && x <= self.x1 as f64 && self.y0 as f64 <= y && y <= self.y1 as f64
    }

    /// Whether `other` lies entirely within `self` (closed containment).
    #[inline]
    pub const fn contains_rect(&self, other: &Rect) -> bool {
        self.x0 <= other.x0 && other.x1 <= self.x1 && self.y0 <= other.y0 && other.y1 <= self.y1
    }

    /// Whether the closed rectangles intersect (shared boundary counts).
    #[inline]
    pub const fn intersects(&self, other: &Rect) -> bool {
        self.x0 <= other.x1 && other.x0 <= self.x1 && self.y0 <= other.y1 && other.y0 <= self.y1
    }

    /// Intersection of the two closed rectangles, if non-empty.
    pub fn intersection(&self, other: &Rect) -> Option<Rect> {
        Rect::new(
            self.x0.max(other.x0),
            self.y0.max(other.y0),
            self.x1.min(other.x1),
            self.y1.min(other.y1),
        )
    }

    /// Smallest rectangle containing both inputs.
    pub fn union_bbox(&self, other: &Rect) -> Rect {
        Rect {
            x0: self.x0.min(other.x0),
            y0: self.y0.min(other.y0),
            x1: self.x1.max(other.x1),
            y1: self.y1.max(other.y1),
        }
    }

    /// Rectangle grown outward by `margin` on every side.
    ///
    /// A negative margin shrinks the rectangle; returns `None` if it would
    /// invert.
    pub fn expand(&self, margin: i64) -> Option<Rect> {
        Rect::new(
            self.x0 - margin,
            self.y0 - margin,
            self.x1 + margin,
            self.y1 + margin,
        )
    }

    /// Rectangle translated by the vector `d`.
    #[inline]
    pub fn translate(&self, d: Point) -> Rect {
        Rect {
            x0: self.x0 + d.x,
            y0: self.y0 + d.y,
            x1: self.x1 + d.x,
            y1: self.y1 + d.y,
        }
    }

    /// Returns a copy with one edge coordinate replaced.
    ///
    /// `edge` selects which coordinate to set. Returns `None` if the result
    /// would have negative width or height.
    pub fn with_edge(&self, edge: Edge, value: i64) -> Option<Rect> {
        let (x0, y0, x1, y1) = match edge {
            Edge::Left => (value, self.y0, self.x1, self.y1),
            Edge::Right => (self.x0, self.y0, value, self.y1),
            Edge::Bottom => (self.x0, value, self.x1, self.y1),
            Edge::Top => (self.x0, self.y0, self.x1, value),
        };
        Rect::new(x0, y0, x1, y1)
    }

    /// The coordinate of the given edge (`x` for left/right, `y` for
    /// bottom/top).
    pub const fn edge(&self, edge: Edge) -> i64 {
        match edge {
            Edge::Left => self.x0,
            Edge::Right => self.x1,
            Edge::Bottom => self.y0,
            Edge::Top => self.y1,
        }
    }

    /// Euclidean distance from the continuous point `(x, y)` to the closed
    /// rectangle (zero if inside).
    pub fn distance_to_point_f64(&self, x: f64, y: f64) -> f64 {
        let dx = (self.x0 as f64 - x).max(0.0).max(x - self.x1 as f64);
        let dy = (self.y0 as f64 - y).max(0.0).max(y - self.y1 as f64);
        (dx * dx + dy * dy).sqrt()
    }

    /// The rectangle's outline as a counter-clockwise point ring.
    pub(crate) fn corners(&self) -> [Point; 4] {
        [
            self.bottom_left(),
            self.bottom_right(),
            self.top_right(),
            self.top_left(),
        ]
    }
}

impl fmt::Display for Rect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}, {}]x[{}, {}]",
            self.x0, self.x1, self.y0, self.y1
        )
    }
}

/// One of the four edges of a [`Rect`].
///
/// Used by the shot-refinement step, which moves individual shot edges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Edge {
    /// The `x = x0` edge.
    Left,
    /// The `x = x1` edge.
    Right,
    /// The `y = y0` edge.
    Bottom,
    /// The `y = y1` edge.
    Top,
}

impl Edge {
    /// All four edges, in a fixed iteration order.
    pub const ALL: [Edge; 4] = [Edge::Left, Edge::Right, Edge::Bottom, Edge::Top];
}

impl fmt::Display for Edge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Edge::Left => "left",
            Edge::Right => "right",
            Edge::Bottom => "bottom",
            Edge::Top => "top",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let r = Rect::new(1, 2, 5, 9).unwrap();
        assert_eq!(r.x0(), 1);
        assert_eq!(r.y0(), 2);
        assert_eq!(r.x1(), 5);
        assert_eq!(r.y1(), 9);
        assert_eq!(r.width(), 4);
        assert_eq!(r.height(), 7);
        assert_eq!(r.area(), 28);
        assert_eq!(r.min_side(), 4);
        assert!(!r.is_degenerate());
        assert!(Rect::new(5, 0, 1, 1).is_none());
        assert!(Rect::new(0, 0, 0, 5).unwrap().is_degenerate());
    }

    #[test]
    fn from_corners_normalizes() {
        let r = Rect::from_corners(Point::new(5, 9), Point::new(1, 2));
        assert_eq!(r, Rect::new(1, 2, 5, 9).unwrap());
    }

    #[test]
    fn bounding_box_of_points() {
        let pts = [Point::new(3, -1), Point::new(-2, 4), Point::new(0, 0)];
        let r = Rect::bounding(pts).unwrap();
        assert_eq!(r, Rect::new(-2, -1, 3, 4).unwrap());
        assert!(Rect::bounding(std::iter::empty()).is_none());
    }

    #[test]
    fn containment_and_intersection() {
        let a = Rect::new(0, 0, 10, 10).unwrap();
        let b = Rect::new(5, 5, 15, 15).unwrap();
        assert!(a.intersects(&b));
        assert_eq!(a.intersection(&b), Rect::new(5, 5, 10, 10));
        assert!(a.contains(Point::new(10, 10)));
        assert!(!a.contains(Point::new(11, 0)));
        assert!(a.contains_rect(&Rect::new(2, 2, 8, 8).unwrap()));
        assert!(!a.contains_rect(&b));
        let c = Rect::new(20, 20, 30, 30).unwrap();
        assert!(!a.intersects(&c));
        assert!(a.intersection(&c).is_none());
        assert_eq!(a.union_bbox(&c), Rect::new(0, 0, 30, 30).unwrap());
    }

    #[test]
    fn touching_rectangles_intersect() {
        let a = Rect::new(0, 0, 10, 10).unwrap();
        let b = Rect::new(10, 0, 20, 10).unwrap();
        assert!(a.intersects(&b));
        let i = a.intersection(&b).unwrap();
        assert!(i.is_degenerate());
        assert_eq!(i.area(), 0);
    }

    #[test]
    fn expand_translate() {
        let r = Rect::new(0, 0, 10, 10).unwrap();
        assert_eq!(r.expand(2), Rect::new(-2, -2, 12, 12));
        assert_eq!(r.expand(-6), None);
        assert_eq!(
            r.translate(Point::new(3, -4)),
            Rect::new(3, -4, 13, 6).unwrap()
        );
    }

    #[test]
    fn edge_manipulation() {
        let r = Rect::new(0, 0, 10, 10).unwrap();
        assert_eq!(r.edge(Edge::Left), 0);
        assert_eq!(r.edge(Edge::Top), 10);
        let moved = r.with_edge(Edge::Right, 15).unwrap();
        assert_eq!(moved.width(), 15);
        assert!(r.with_edge(Edge::Left, 11).is_none());
        assert_eq!(Edge::ALL.len(), 4);
    }

    #[test]
    fn distances() {
        let r = Rect::new(0, 0, 10, 10).unwrap();
        assert_eq!(r.distance_to_point_f64(5.0, 5.0), 0.0);
        assert_eq!(r.distance_to_point_f64(13.0, 14.0), 5.0);
        assert_eq!(r.distance_to_point_f64(-3.0, 5.0), 3.0);
    }

    #[test]
    fn corners_are_ccw() {
        let r = Rect::new(0, 0, 4, 2).unwrap();
        let c = r.corners();
        // Shoelace of the corner ring must be positive (CCW).
        let mut area2 = 0i64;
        for i in 0..4 {
            let p = c[i];
            let q = c[(i + 1) % 4];
            area2 += p.cross(q);
        }
        assert_eq!(area2, 2 * r.area());
    }

    #[test]
    fn display() {
        let r = Rect::new(1, 2, 3, 4).unwrap();
        assert_eq!(r.to_string(), "[1, 3]x[2, 4]");
        assert_eq!(Edge::Bottom.to_string(), "bottom");
    }
}
