//! Simple closed polygons digitized on the mask grid.

use crate::point::Point;
use crate::rect::Rect;
use std::fmt;

/// Error constructing a [`Polygon`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolygonError {
    /// Fewer than three distinct vertices.
    TooFewVertices,
    /// Two consecutive vertices coincide.
    DuplicateVertex,
    /// The ring has zero signed area.
    ZeroArea,
}

impl fmt::Display for PolygonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PolygonError::TooFewVertices => "polygon needs at least three vertices",
            PolygonError::DuplicateVertex => "polygon has two consecutive identical vertices",
            PolygonError::ZeroArea => "polygon ring has zero area",
        };
        f.write_str(s)
    }
}

impl std::error::Error for PolygonError {}

/// A simple closed polygon stored as a counter-clockwise vertex ring.
///
/// The last vertex connects implicitly back to the first. Construction
/// normalizes orientation to counter-clockwise (interior on the left) so the
/// boundary-traversal logic in the fracturer can infer inside/outside from
/// edge direction alone.
///
/// Mask target shapes — including "curvilinear" ILT shapes, which arrive
/// digitized on the 1 nm writing grid — are represented with this type.
///
/// # Example
///
/// ```
/// use maskfrac_geom::{Point, Polygon};
///
/// // An L-shape, given clockwise; the constructor flips it to CCW.
/// let l = Polygon::new(vec![
///     Point::new(0, 0), Point::new(0, 20), Point::new(10, 20),
///     Point::new(10, 10), Point::new(20, 10), Point::new(20, 0),
/// ]).expect("simple ring");
/// assert!(l.area2() > 0);
/// assert!(l.is_rectilinear());
/// assert!(l.contains_f64(5.0, 5.0));
/// assert!(!l.contains_f64(15.0, 15.0));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Polygon {
    vertices: Vec<Point>,
}

impl Polygon {
    /// Creates a polygon from a vertex ring (implicitly closed).
    ///
    /// The ring is normalized to counter-clockwise orientation. A trailing
    /// vertex equal to the first is dropped.
    ///
    /// # Errors
    ///
    /// Returns an error if the ring has fewer than three vertices, repeats a
    /// vertex consecutively, or encloses zero area. Self-intersection is
    /// *not* detected (callers produce rings from rasterized contours, which
    /// are simple by construction).
    pub fn new(mut vertices: Vec<Point>) -> Result<Self, PolygonError> {
        if vertices.len() > 1 && vertices.first() == vertices.last() {
            vertices.pop();
        }
        if vertices.len() < 3 {
            return Err(PolygonError::TooFewVertices);
        }
        for i in 0..vertices.len() {
            if vertices[i] == vertices[(i + 1) % vertices.len()] {
                return Err(PolygonError::DuplicateVertex);
            }
        }
        let area2 = signed_area2(&vertices);
        if area2 == 0 {
            return Err(PolygonError::ZeroArea);
        }
        if area2 < 0 {
            vertices.reverse();
        }
        Ok(Polygon { vertices })
    }

    /// Creates the polygon outline of a non-degenerate rectangle.
    ///
    /// # Panics
    ///
    /// Panics if `rect` is degenerate (zero width or height).
    pub fn from_rect(rect: Rect) -> Self {
        assert!(!rect.is_degenerate(), "degenerate rect has no polygon");
        Polygon {
            vertices: rect.corners().to_vec(),
        }
    }

    /// The counter-clockwise vertex ring.
    #[inline]
    pub fn vertices(&self) -> &[Point] {
        &self.vertices
    }

    /// Number of vertices.
    #[inline]
    pub fn len(&self) -> usize {
        self.vertices.len()
    }

    /// Always `false`: a valid polygon has at least three vertices.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Twice the (positive) enclosed area, exact in integer arithmetic.
    pub fn area2(&self) -> i64 {
        signed_area2(&self.vertices)
    }

    /// Enclosed area in nm² as `f64`.
    pub fn area(&self) -> f64 {
        self.area2() as f64 / 2.0
    }

    /// Axis-aligned bounding box.
    pub fn bbox(&self) -> Rect {
        Rect::bounding(self.vertices.iter().copied())
            .expect("polygon has at least three vertices")
    }

    /// Iterator over directed boundary edges `(v_k, v_{k+1})`, including the
    /// closing edge.
    pub(crate) fn edges(&self) -> impl Iterator<Item = (Point, Point)> + '_ {
        let n = self.vertices.len();
        (0..n).map(move |i| (self.vertices[i], self.vertices[(i + 1) % n]))
    }

    /// Whether every edge is axis-parallel.
    pub fn is_rectilinear(&self) -> bool {
        self.edges().all(|(a, b)| a.x == b.x || a.y == b.y)
    }

    /// Checks that the ring is simple: no two non-adjacent edges intersect
    /// or touch, and no vertex is a spike (consecutive edges doubling
    /// back).
    ///
    /// [`Polygon::new`] does not check this — rasterized contours are
    /// simple by construction — but externally supplied layouts are not,
    /// so the fracturing front-door validates with this test. `O(n²)` in
    /// the vertex count, which is fine at mask-shape sizes (simplified
    /// boundaries run tens of vertices).
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first defect found:
    /// a spiked vertex, two crossing edges, or a self-touch.
    pub fn check_simple(&self) -> Result<(), String> {
        let v = &self.vertices;
        let n = v.len();
        // Spikes: collinear consecutive edges that reverse direction.
        for i in 0..n {
            let a = v[i];
            let b = v[(i + 1) % n];
            let c = v[(i + 2) % n];
            let ab = b - a;
            let bc = c - b;
            if ab.x * bc.y - ab.y * bc.x == 0 && ab.x * bc.x + ab.y * bc.y < 0 {
                return Err(format!("spike at vertex {b}"));
            }
        }
        // Non-adjacent edge pairs may not intersect or touch.
        for i in 0..n {
            for j in (i + 1)..n {
                let adjacent = j == i + 1 || (i == 0 && j == n - 1);
                if adjacent {
                    continue;
                }
                let (p1, p2) = (v[i], v[(i + 1) % n]);
                let (q1, q2) = (v[j], v[(j + 1) % n]);
                if segments_intersect(p1, p2, q1, q2) {
                    return Err(format!(
                        "edge {p1}->{p2} intersects edge {q1}->{q2}"
                    ));
                }
            }
        }
        Ok(())
    }

    /// Even-odd (ray casting) point-in-polygon test for a continuous point.
    ///
    /// Points exactly on the boundary may report either side; the fracturing
    /// pipeline never depends on boundary pixels because they fall in the
    /// don't-care band `Px`.
    pub fn contains_f64(&self, x: f64, y: f64) -> bool {
        let mut inside = false;
        let n = self.vertices.len();
        let mut j = n - 1;
        for i in 0..n {
            let (xi, yi) = self.vertices[i].to_f64();
            let (xj, yj) = self.vertices[j].to_f64();
            if (yi > y) != (yj > y) {
                let x_cross = xi + (y - yi) / (yj - yi) * (xj - xi);
                if x < x_cross {
                    inside = !inside;
                }
            }
            j = i;
        }
        inside
    }

    /// Euclidean distance from a continuous point to the polygon boundary.
    pub fn distance_to_boundary_f64(&self, x: f64, y: f64) -> f64 {
        let mut best = f64::INFINITY;
        for (a, b) in self.edges() {
            let d = segment_distance_f64(x, y, a, b);
            if d < best {
                best = d;
            }
        }
        best
    }

    /// Polygon translated by vector `d`.
    pub fn translate(&self, d: Point) -> Polygon {
        Polygon {
            vertices: self.vertices.iter().map(|&v| v + d).collect(),
        }
    }

    /// Whether two polygons trace the same closed ring, ignoring which
    /// vertex the ring happens to start at.
    ///
    /// Derived `==` compares vertex sequences exactly, so two rings that
    /// differ only by a cyclic rotation (e.g. a polygon reconstructed
    /// from its [canonical form](crate::d4::canonicalize)) compare
    /// unequal there; this is the geometric identity.
    pub fn ring_eq(&self, other: &Polygon) -> bool {
        let n = self.vertices.len();
        if n != other.vertices.len() {
            return false;
        }
        let Some(start) = other.vertices.iter().position(|v| *v == self.vertices[0]) else {
            return false;
        };
        (0..n).all(|i| self.vertices[i] == other.vertices[(start + i) % n])
    }

    /// Polygon transformed by a D4 symmetry about the origin.
    ///
    /// The ring is re-normalized to counter-clockwise orientation (a
    /// mirror reverses it), so the result is a valid [`Polygon`] with
    /// the same area.
    pub fn transform(&self, t: crate::d4::D4) -> Polygon {
        let mut vertices: Vec<Point> = self.vertices.iter().map(|&v| t.apply(v)).collect();
        if t.mirrored() {
            // Reversing [v0, v1, …, vn] yields [vn, …, v1, v0]; rotate
            // the start back to the image of v0 so the ring start is a
            // pure function of the input ring, not of its length.
            vertices.reverse();
            vertices.rotate_right(1);
        }
        Polygon { vertices }
    }
}

impl fmt::Display for Polygon {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "polygon[{} vertices, area {}]", self.len(), self.area())
    }
}

/// Orientation of `c` relative to the directed line `a -> b`:
/// positive = left, negative = right, zero = collinear.
fn orient(a: Point, b: Point, c: Point) -> i64 {
    (b - a).cross(c - a)
}

/// Whether collinear point `p` lies within the closed bbox of `a -> b`.
fn on_segment_bbox(a: Point, b: Point, p: Point) -> bool {
    p.x >= a.x.min(b.x) && p.x <= a.x.max(b.x) && p.y >= a.y.min(b.y) && p.y <= a.y.max(b.y)
}

/// Whether closed segments `p1-p2` and `q1-q2` share any point (proper
/// crossing, endpoint touch, or collinear overlap). Exact in integers.
fn segments_intersect(p1: Point, p2: Point, q1: Point, q2: Point) -> bool {
    let d1 = orient(q1, q2, p1);
    let d2 = orient(q1, q2, p2);
    let d3 = orient(p1, p2, q1);
    let d4 = orient(p1, p2, q2);
    if ((d1 > 0 && d2 < 0) || (d1 < 0 && d2 > 0)) && ((d3 > 0 && d4 < 0) || (d3 < 0 && d4 > 0)) {
        return true;
    }
    (d1 == 0 && on_segment_bbox(q1, q2, p1))
        || (d2 == 0 && on_segment_bbox(q1, q2, p2))
        || (d3 == 0 && on_segment_bbox(p1, p2, q1))
        || (d4 == 0 && on_segment_bbox(p1, p2, q2))
}

fn signed_area2(vertices: &[Point]) -> i64 {
    let n = vertices.len();
    let mut acc = 0i64;
    for i in 0..n {
        acc += vertices[i].cross(vertices[(i + 1) % n]);
    }
    acc
}

fn segment_distance_f64(x: f64, y: f64, a: Point, b: Point) -> f64 {
    let (ax, ay) = a.to_f64();
    let (bx, by) = b.to_f64();
    let dx = bx - ax;
    let dy = by - ay;
    let len_sq = dx * dx + dy * dy;
    if len_sq == 0.0 {
        return ((x - ax).powi(2) + (y - ay).powi(2)).sqrt();
    }
    let t = (((x - ax) * dx + (y - ay) * dy) / len_sq).clamp(0.0, 1.0);
    let px = ax + t * dx;
    let py = ay + t * dy;
    ((x - px).powi(2) + (y - py).powi(2)).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square() -> Polygon {
        Polygon::from_rect(Rect::new(0, 0, 10, 10).unwrap())
    }

    #[test]
    fn construction_validates() {
        assert_eq!(
            Polygon::new(vec![Point::new(0, 0), Point::new(1, 0)]),
            Err(PolygonError::TooFewVertices)
        );
        assert_eq!(
            Polygon::new(vec![Point::new(0, 0), Point::new(0, 0), Point::new(1, 1)]),
            Err(PolygonError::DuplicateVertex)
        );
        assert_eq!(
            Polygon::new(vec![Point::new(0, 0), Point::new(5, 5), Point::new(10, 10)]),
            Err(PolygonError::ZeroArea)
        );
        // Explicitly closed ring is accepted.
        let p = Polygon::new(vec![
            Point::new(0, 0),
            Point::new(4, 0),
            Point::new(4, 4),
            Point::new(0, 0),
        ])
        .unwrap();
        assert_eq!(p.len(), 3);
    }

    #[test]
    fn orientation_normalized_to_ccw() {
        let cw = Polygon::new(vec![
            Point::new(0, 0),
            Point::new(0, 10),
            Point::new(10, 10),
            Point::new(10, 0),
        ])
        .unwrap();
        assert!(cw.area2() > 0);
        assert_eq!(cw.area2(), 200);
    }

    #[test]
    fn rect_round_trip() {
        let s = square();
        assert_eq!(s.area2(), 200);
        assert_eq!(s.area(), 100.0);
        assert_eq!(s.bbox(), Rect::new(0, 0, 10, 10).unwrap());
        assert!(s.is_rectilinear());
    }

    #[test]
    fn non_rectilinear_detected() {
        let tri = Polygon::new(vec![Point::new(0, 0), Point::new(10, 0), Point::new(5, 8)])
            .unwrap();
        assert!(!tri.is_rectilinear());
    }

    #[test]
    fn point_in_polygon() {
        let s = square();
        assert!(s.contains_f64(5.0, 5.0));
        assert!(!s.contains_f64(-0.5, 5.0));
        assert!(!s.contains_f64(10.5, 5.0));
    }

    #[test]
    fn point_in_l_shape() {
        let l = Polygon::new(vec![
            Point::new(0, 0),
            Point::new(20, 0),
            Point::new(20, 10),
            Point::new(10, 10),
            Point::new(10, 20),
            Point::new(0, 20),
        ])
        .unwrap();
        assert!(l.contains_f64(5.0, 15.0));
        assert!(l.contains_f64(15.0, 5.0));
        assert!(!l.contains_f64(15.0, 15.0));
    }

    #[test]
    fn boundary_distance() {
        let s = square();
        assert_eq!(s.distance_to_boundary_f64(5.0, 5.0), 5.0);
        assert_eq!(s.distance_to_boundary_f64(5.0, 12.0), 2.0);
        assert_eq!(s.distance_to_boundary_f64(0.0, 0.0), 0.0);
    }

    #[test]
    fn translate_preserves_shape() {
        let s = square().translate(Point::new(7, -3));
        assert_eq!(s.bbox(), Rect::new(7, -3, 17, 7).unwrap());
        assert_eq!(s.area2(), 200);
    }

    #[test]
    fn edges_count_and_closure() {
        let s = square();
        let edges: Vec<_> = s.edges().collect();
        assert_eq!(edges.len(), 4);
        assert_eq!(edges[3].1, edges[0].0);
    }
}

#[cfg(test)]
mod simplicity_tests {
    use super::*;

    fn poly(pts: &[(i64, i64)]) -> Polygon {
        Polygon::new(pts.iter().map(|&(x, y)| Point::new(x, y)).collect()).unwrap()
    }

    #[test]
    fn convex_and_rectilinear_rings_are_simple() {
        assert!(poly(&[(0, 0), (10, 0), (10, 10), (0, 10)])
            .check_simple()
            .is_ok());
        assert!(
            poly(&[(0, 0), (20, 0), (20, 10), (10, 10), (10, 20), (0, 20)])
                .check_simple()
                .is_ok()
        );
    }

    #[test]
    fn bowtie_is_not_simple() {
        // Lopsided hourglass: edges (0,0)-(10,10) and (10,0)-(0,5) cross,
        // and the lobes differ in size so the signed area is not zero.
        let p = poly(&[(0, 0), (10, 10), (10, 0), (0, 5)]);
        let err = p.check_simple().unwrap_err();
        assert!(err.contains("intersects"), "{err}");
    }

    #[test]
    fn self_touching_ring_is_not_simple() {
        // A figure that pinches to a single shared vertex at (10, 10).
        let p = poly(&[
            (0, 0),
            (10, 0),
            (10, 10),
            (20, 10),
            (20, 20),
            (10, 20),
            (10, 10),
            (0, 10),
        ]);
        assert!(p.check_simple().is_err());
    }

    #[test]
    fn spike_is_not_simple() {
        // Zero-width antenna along the top edge.
        let p = poly(&[(0, 0), (10, 0), (10, 10), (5, 10), (5, 15), (5, 10), (0, 10)]);
        let err = p.check_simple().unwrap_err();
        assert!(err.contains("spike"), "{err}");
    }

    #[test]
    fn collinear_continuation_is_simple() {
        // A redundant midpoint on an edge is not a defect.
        assert!(poly(&[(0, 0), (5, 0), (10, 0), (10, 10), (0, 10)])
            .check_simple()
            .is_ok());
    }

    #[test]
    fn segment_intersection_cases() {
        let p = |x, y| Point::new(x, y);
        assert!(segments_intersect(p(0, 0), p(10, 10), p(0, 10), p(10, 0)));
        assert!(segments_intersect(p(0, 0), p(10, 0), p(5, 0), p(5, 5)), "T-touch");
        assert!(segments_intersect(p(0, 0), p(10, 0), p(5, 0), p(15, 0)), "overlap");
        assert!(!segments_intersect(p(0, 0), p(10, 0), p(0, 1), p(10, 1)));
        assert!(!segments_intersect(p(0, 0), p(10, 0), p(11, 0), p(20, 0)));
    }
}
