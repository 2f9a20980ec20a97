//! The D4 symmetry group (axis-aligned mirrors and 90° rotations) and
//! canonical polygon forms.
//!
//! Hierarchical mask data places each library cell by translation plus
//! one of the eight D4 symmetries. Fracturing results transfer exactly
//! under these transforms — an axis-aligned shot rectangle maps to an
//! axis-aligned shot rectangle — so two placements whose geometries
//! differ only by a D4 symmetry can share one fracturing result. The
//! [`canonicalize`] function computes the shared representative: a
//! unique polygon per D4-and-translation orbit, plus the transform that
//! maps it back onto the input.
//!
//! # Conventions
//!
//! A [`D4`] element acts about the origin as *mirror first, rotate
//! second*: `M90` mirrors across the x-axis (`y → −y`) and then rotates
//! 90° counter-clockwise. Placement transforms compose the same way
//! (the GDSII `STRANS` convention).
//!
//! # Example
//!
//! ```
//! use maskfrac_geom::{canonicalize, D4, Point, Polygon};
//!
//! let l = Polygon::new(vec![
//!     Point::new(0, 0), Point::new(20, 0), Point::new(20, 10),
//!     Point::new(10, 10), Point::new(10, 20), Point::new(0, 20),
//! ]).unwrap();
//! let c = canonicalize(&l);
//! // Every D4 image of the L canonicalizes to the same polygon.
//! for t in D4::ALL {
//!     assert_eq!(canonicalize(&l.transform(t)).polygon, c.polygon);
//! }
//! // The stored transform maps the canonical form back onto the input.
//! assert!(c.polygon.transform(c.from_canonical).translate(c.offset).ring_eq(&l));
//! ```

use crate::point::Point;
use crate::polygon::Polygon;
use crate::rect::Rect;
use std::fmt;

/// One of the eight symmetries of the square: a quarter-turn rotation,
/// optionally preceded by a mirror across the x-axis.
///
/// `R<k>` rotates `k` degrees counter-clockwise about the origin;
/// `M<k>` first mirrors `y → −y`, then rotates `k` degrees.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum D4 {
    /// Identity.
    #[default]
    R0,
    /// Rotate 90° counter-clockwise.
    R90,
    /// Rotate 180°.
    R180,
    /// Rotate 270° counter-clockwise.
    R270,
    /// Mirror across the x-axis (`y → −y`).
    M0,
    /// Mirror across the x-axis, then rotate 90° counter-clockwise.
    M90,
    /// Mirror across the x-axis, then rotate 180° (equivalently, mirror
    /// across the y-axis).
    M180,
    /// Mirror across the x-axis, then rotate 270° counter-clockwise.
    M270,
}

impl D4 {
    /// All eight elements, in the canonical tie-breaking order used by
    /// [`canonicalize`].
    pub const ALL: [D4; 8] = [
        D4::R0,
        D4::R90,
        D4::R180,
        D4::R270,
        D4::M0,
        D4::M90,
        D4::M180,
        D4::M270,
    ];

    /// Builds an element from its mirror flag and quarter turns
    /// (`turns` is taken modulo 4).
    pub(crate) const fn from_parts(mirrored: bool, turns: u8) -> D4 {
        match (mirrored, turns % 4) {
            (false, 0) => D4::R0,
            (false, 1) => D4::R90,
            (false, 2) => D4::R180,
            (false, _) => D4::R270,
            (true, 0) => D4::M0,
            (true, 1) => D4::M90,
            (true, 2) => D4::M180,
            (true, _) => D4::M270,
        }
    }

    /// Whether the element includes the mirror.
    pub(crate) const fn mirrored(self) -> bool {
        matches!(self, D4::M0 | D4::M90 | D4::M180 | D4::M270)
    }

    /// Counter-clockwise quarter turns applied after the optional
    /// mirror (0–3).
    pub(crate) const fn turns(self) -> u8 {
        match self {
            D4::R0 | D4::M0 => 0,
            D4::R90 | D4::M90 => 1,
            D4::R180 | D4::M180 => 2,
            D4::R270 | D4::M270 => 3,
        }
    }

    /// Whether this is the identity.
    pub const fn is_identity(self) -> bool {
        matches!(self, D4::R0)
    }

    /// Stable small-integer code (0–7): `turns + 4·mirrored`. Used by
    /// persisted formats (journals, cache artifacts), so it must never
    /// change meaning.
    pub const fn index(self) -> u8 {
        self.turns() + if self.mirrored() { 4 } else { 0 }
    }

    /// Applies the transform to a point (about the origin).
    #[inline]
    pub(crate) const fn apply(self, p: Point) -> Point {
        let y = if self.mirrored() { -p.y } else { p.y };
        let x = p.x;
        match self.turns() {
            0 => Point::new(x, y),
            1 => Point::new(-y, x),
            2 => Point::new(-x, -y),
            _ => Point::new(y, -x),
        }
    }

    /// The composition "`self`, then `next`" (both about the origin).
    ///
    /// For any point `p`: `a.then(b).apply(p) == b.apply(a.apply(p))`.
    #[cfg(test)]
    pub(crate) const fn then(self, next: D4) -> D4 {
        // With R = quarter turn and M = x-axis mirror, M R^k = R^(-k) M,
        // so R^k2 M^m2 · R^k1 M^m1 = R^(k2 ± k1) M^(m2 ⊕ m1).
        let turns = if next.mirrored() {
            next.turns() + 4 - self.turns()
        } else {
            next.turns() + self.turns()
        };
        D4::from_parts(self.mirrored() != next.mirrored(), turns % 4)
    }

    /// The inverse element: `t.then(t.inverse())` is the identity.
    pub(crate) const fn inverse(self) -> D4 {
        if self.mirrored() {
            // Every mirrored element of D4 is a reflection, hence an
            // involution.
            self
        } else {
            D4::from_parts(false, 4 - self.turns())
        }
    }

    /// Applies the transform to an axis-aligned rectangle. The image of
    /// an axis-aligned rectangle under D4 is again axis-aligned, which
    /// is what lets fractured shots instantiate by transform.
    pub fn apply_rect(self, rect: &Rect) -> Rect {
        Rect::from_corners(self.apply(rect.bottom_left()), self.apply(rect.top_right()))
    }

    /// Stable lowercase label (`"r0"`, `"m90"`, …) used by the layout
    /// text format.
    pub const fn label(self) -> &'static str {
        match self {
            D4::R0 => "r0",
            D4::R90 => "r90",
            D4::R180 => "r180",
            D4::R270 => "r270",
            D4::M0 => "m0",
            D4::M90 => "m90",
            D4::M180 => "m180",
            D4::M270 => "m270",
        }
    }

    /// Parses a [`label`](Self::label) back into an element.
    pub fn parse(s: &str) -> Option<D4> {
        D4::ALL.into_iter().find(|t| t.label() == s)
    }
}

impl fmt::Display for D4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A polygon's canonical form under translation and D4 symmetry; see
/// [`canonicalize`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Canonical {
    /// The canonical representative: bounding box anchored at the
    /// origin, vertex ring started at its lexicographically smallest
    /// vertex, and lexicographically least among all eight D4 images.
    pub polygon: Polygon,
    /// Transform mapping the canonical polygon back onto the input's
    /// orientation.
    pub from_canonical: D4,
    /// Translation completing the mapping:
    /// `polygon.transform(from_canonical).translate(offset)` traces the
    /// input's ring exactly (up to which vertex the ring starts at —
    /// the canonical form normalizes the start; compare with
    /// [`Polygon::ring_eq`]).
    pub offset: Point,
}

/// Rotates a CCW ring to start at its lexicographically smallest
/// vertex. Ring vertices are distinct, so the start is unique.
fn normalize_ring_start(vertices: &[Point]) -> Vec<Point> {
    let min = vertices
        .iter()
        .enumerate()
        .min_by_key(|(_, p)| *p)
        .map(|(i, _)| i)
        .unwrap_or(0);
    let mut out = Vec::with_capacity(vertices.len());
    out.extend_from_slice(&vertices[min..]);
    out.extend_from_slice(&vertices[..min]);
    out
}

/// Computes the canonical form of a polygon under translation and the
/// eight D4 symmetries.
///
/// Two polygons have equal canonical forms **iff** one can be mapped
/// onto the other by a D4 symmetry plus a translation — so the
/// canonical form's vertex bytes are a content address for "geometry up
/// to placement", and any result computed on the canonical form (such
/// as a shot list) transfers to every member of the orbit through
/// [`Canonical::from_canonical`] and [`Canonical::offset`].
///
/// The representative is deterministic: among the eight origin-anchored,
/// start-normalized D4 images, the lexicographically smallest vertex
/// sequence wins; ties (symmetric polygons) resolve to the first
/// transform in [`D4::ALL`] order, so the recorded transform is stable
/// too.
pub fn canonicalize(polygon: &Polygon) -> Canonical {
    let mut best: Option<(Vec<Point>, D4)> = None;
    for t in D4::ALL {
        let image = polygon.transform(t);
        let anchor = image.bbox().bottom_left();
        let ring = normalize_ring_start(
            &image
                .vertices()
                .iter()
                .map(|&p| p - anchor)
                .collect::<Vec<_>>(),
        );
        match &best {
            Some((incumbent, _)) if *incumbent <= ring => {}
            _ => best = Some((ring, t)),
        }
    }
    let (ring, to_canonical) = best.expect("D4::ALL is non-empty");
    let polygon_c = Polygon::new(ring).expect("D4 image of a valid polygon is valid");
    let from_canonical = to_canonical.inverse();
    // canonical = T(input) − bbox_bl(T(input)), so
    // input = T⁻¹(canonical) + T⁻¹(bbox_bl(T(input))).
    let anchor = polygon.transform(to_canonical).bbox().bottom_left();
    let offset = from_canonical.apply(anchor);
    debug_assert!(polygon_c
        .transform(from_canonical)
        .translate(offset)
        .ring_eq(polygon));
    Canonical {
        polygon: polygon_c,
        from_canonical,
        offset,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l_shape() -> Polygon {
        Polygon::new(vec![
            Point::new(3, -2),
            Point::new(23, -2),
            Point::new(23, 8),
            Point::new(13, 8),
            Point::new(13, 18),
            Point::new(3, 18),
        ])
        .unwrap()
    }

    #[test]
    fn apply_matches_matrix_action() {
        let p = Point::new(3, 1);
        assert_eq!(D4::R0.apply(p), Point::new(3, 1));
        assert_eq!(D4::R90.apply(p), Point::new(-1, 3));
        assert_eq!(D4::R180.apply(p), Point::new(-3, -1));
        assert_eq!(D4::R270.apply(p), Point::new(1, -3));
        assert_eq!(D4::M0.apply(p), Point::new(3, -1));
        assert_eq!(D4::M90.apply(p), Point::new(1, 3));
        assert_eq!(D4::M180.apply(p), Point::new(-3, 1));
        assert_eq!(D4::M270.apply(p), Point::new(-1, -3));
    }

    #[test]
    fn composition_matches_pointwise_application() {
        let probes = [Point::new(5, 2), Point::new(-3, 7), Point::new(0, -4)];
        for a in D4::ALL {
            for b in D4::ALL {
                let c = a.then(b);
                for p in probes {
                    assert_eq!(c.apply(p), b.apply(a.apply(p)), "{a} then {b}");
                }
            }
        }
    }

    #[test]
    fn inverses_cancel() {
        for t in D4::ALL {
            assert_eq!(t.then(t.inverse()), D4::R0, "{t}");
            assert_eq!(t.inverse().then(t), D4::R0, "{t}");
        }
    }

    #[test]
    fn group_is_closed_and_has_unique_products() {
        for a in D4::ALL {
            let row: Vec<D4> = D4::ALL.iter().map(|&b| a.then(b)).collect();
            let mut sorted = row.clone();
            sorted.sort();
            sorted.dedup();
            assert_eq!(sorted.len(), 8, "row of {a} must be a permutation");
        }
    }

    #[test]
    fn labels_round_trip() {
        for t in D4::ALL {
            assert_eq!(D4::parse(t.label()), Some(t));
        }
        assert_eq!(D4::parse("r45"), None);
    }

    #[test]
    fn index_round_trips_and_is_stable() {
        for (i, t) in D4::ALL.into_iter().enumerate() {
            assert_eq!(t.index() as usize, i, "{t}");
        }
    }

    #[test]
    fn rect_transform_stays_axis_aligned() {
        let r = Rect::new(2, 3, 12, 8).unwrap();
        for t in D4::ALL {
            let img = t.apply_rect(&r);
            let (w, h) = (r.width(), r.height());
            if t.turns() % 2 == 0 {
                assert_eq!((img.width(), img.height()), (w, h), "{t}");
            } else {
                assert_eq!((img.width(), img.height()), (h, w), "{t}");
            }
            assert_eq!(img.area(), r.area(), "{t}");
        }
    }

    #[test]
    fn canonical_form_is_d4_invariant() {
        let l = l_shape();
        let base = canonicalize(&l);
        assert_eq!(base.polygon.bbox().bottom_left(), Point::new(0, 0));
        for t in D4::ALL {
            let c = canonicalize(&l.transform(t).translate(Point::new(-57, 1234)));
            assert_eq!(c.polygon, base.polygon, "{t}");
        }
    }

    #[test]
    fn canonical_transform_reconstructs_the_input() {
        let l = l_shape();
        for t in D4::ALL {
            let moved = l.transform(t).translate(Point::new(41, -7));
            let c = canonicalize(&moved);
            assert!(
                c.polygon
                    .transform(c.from_canonical)
                    .translate(c.offset)
                    .ring_eq(&moved),
                "{t}"
            );
        }
    }

    #[test]
    fn symmetric_polygon_canonicalizes_to_identity_transform() {
        // A square is fixed by all of D4; the tie must break to R0.
        let sq = Polygon::from_rect(Rect::new(10, 20, 50, 60).unwrap());
        let c = canonicalize(&sq);
        assert_eq!(c.from_canonical, D4::R0);
        assert_eq!(c.offset, Point::new(10, 20));
    }

    #[test]
    fn distinct_orbits_get_distinct_canonicals() {
        let a = canonicalize(&l_shape());
        let b = canonicalize(&Polygon::from_rect(Rect::new(0, 0, 20, 10).unwrap()));
        assert_ne!(a.polygon, b.polygon);
    }
}
