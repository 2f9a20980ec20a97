//! Shot corner point extraction (paper §3, Fig. 1).
//!
//! After the target boundary is simplified, each boundary segment is
//! translated into *shot corner points* — locations where a corner of some
//! rectangular shot should sit, tagged with which corner (BL/BR/TL/TR):
//!
//! * horizontal/vertical segments are written by a single shot edge, so
//!   they contribute their two endpoints, pushed outward *along* the
//!   segment to pre-compensate corner rounding (the paper shifts by
//!   `Lth/√2`; this implementation uses the model's corner inset, which is
//!   that shift's physical meaning — see `extract_shot_corners`);
//! * any other segment is written by corner rounding: corner points are
//!   spaced `Lth` apart along the segment and pushed outward
//!   *perpendicular* to it (outside the shape);
//! * segments shorter than `Lth` are skipped — neighbouring segments'
//!   corner points cover them.
//!
//! Two same-type points produced at the *same* convex polygon vertex (the
//! meeting point of two axis-parallel segments) are merged immediately —
//! they are one geometric corner, but their shifted positions land exactly
//! `Lth` apart, which a pure distance cut cannot separate from the
//! deliberately `Lth`-spaced staircase points of a diagonal run. The
//! remaining same-type points are then clustered with a `0.75·Lth` cut
//! (strictly below `Lth` so staircase spacing survives integer-grid
//! rounding).

use maskfrac_geom::{Point, Polygon};

/// Which corner of a shot a corner point represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CornerType {
    /// Bottom-left shot corner.
    BottomLeft,
    /// Bottom-right shot corner.
    BottomRight,
    /// Top-left shot corner.
    TopLeft,
    /// Top-right shot corner.
    TopRight,
}

impl CornerType {
    /// Whether this corner lies on the left edge of its shot.
    #[inline]
    pub(crate) fn is_left(&self) -> bool {
        matches!(self, CornerType::BottomLeft | CornerType::TopLeft)
    }

    /// Whether this corner lies on the bottom edge of its shot.
    #[inline]
    pub(crate) fn is_bottom(&self) -> bool {
        matches!(self, CornerType::BottomLeft | CornerType::BottomRight)
    }

    /// Corner type pointing into the quadrant of the outward direction
    /// `(dx, dy)`: the shot corner that pokes toward `(dx, dy)`.
    fn from_outward(dx: f64, dy: f64) -> CornerType {
        match (dx >= 0.0, dy >= 0.0) {
            (true, true) => CornerType::TopRight,
            (true, false) => CornerType::BottomRight,
            (false, true) => CornerType::TopLeft,
            (false, false) => CornerType::BottomLeft,
        }
    }
}

/// A shot corner point: location plus corner type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ShotCorner {
    /// Location on the nm grid.
    pub pos: Point,
    /// Which corner of a shot sits here.
    pub kind: CornerType,
}

/// A corner point in continuous coordinates during extraction.
struct RawCorner {
    x: f64,
    y: f64,
    kind: CornerType,
    /// Index of the polygon vertex this endpoint belongs to, for
    /// axis-parallel segment endpoints; `None` for staircase points.
    anchor: Option<usize>,
}

/// Extracts shot corner points from a simplified target boundary.
///
/// `simplified` must be the RDP-simplified ring (counter-clockwise); `lth`
/// is the model-derived threshold length in nm. `axis_shift` is how far
/// H/V segment endpoints are pushed outward along their segment and
/// `perp_shift` how far staircase points are pushed perpendicular off
/// their segment — the pipeline passes the model's corner insets (the
/// contour of a shot corner is pulled inside the corner by exactly that
/// much, so shifting by it pre-compensates the rounding the paper's
/// `Lth/√2` shift targets). Same-vertex merging is applied (see the module
/// docs); general proximity clustering is a separate step
/// ([`cluster_corners`]).
///
/// # Panics
///
/// Panics if `lth` is not strictly positive or a shift is negative.
pub fn extract_shot_corners(
    simplified: &Polygon,
    lth: f64,
    axis_shift: f64,
    perp_shift: f64,
) -> Vec<ShotCorner> {
    extract_shot_corners_from_ring(simplified.vertices(), lth, axis_shift, perp_shift)
}

/// Ring-slice variant of [`extract_shot_corners`] for callers that walk
/// boundaries which are not stored as CCW polygons — hole rings of a
/// [`maskfrac_geom::Region`] are traversed clockwise so the region
/// interior stays on the left.
///
/// # Panics
///
/// Panics under the same conditions as [`extract_shot_corners`].
pub(crate) fn extract_shot_corners_from_ring(
    ring: &[Point],
    lth: f64,
    axis_shift: f64,
    perp_shift: f64,
) -> Vec<ShotCorner> {
    assert!(lth > 0.0, "lth must be positive");
    assert!(
        axis_shift >= 0.0 && perp_shift >= 0.0,
        "shifts must be nonnegative"
    );
    match try_extract_shot_corners_from_ring(ring, lth, axis_shift, perp_shift) {
        Ok(corners) => corners,
        // The asserts above already rejected every error case.
        Err(e) => panic!("corner extraction failed: {e}"),
    }
}

/// Non-panicking variant of [`extract_shot_corners_from_ring`].
///
/// # Errors
///
/// [`crate::FractureError::InvalidOptions`] when `lth` is not strictly
/// positive or a shift is negative.
#[allow(clippy::neg_cmp_op_on_partial_ord)] // `!(x > 0)` also rejects NaN
pub(crate) fn try_extract_shot_corners_from_ring(
    ring: &[Point],
    lth: f64,
    axis_shift: f64,
    perp_shift: f64,
) -> Result<Vec<ShotCorner>, crate::FractureError> {
    if !(lth > 0.0) {
        return Err(crate::FractureError::InvalidOptions {
            message: format!("lth {lth} must be positive"),
        });
    }
    if !(axis_shift >= 0.0 && perp_shift >= 0.0) {
        return Err(crate::FractureError::InvalidOptions {
            message: format!("shifts ({axis_shift}, {perp_shift}) must be nonnegative"),
        });
    }
    Ok(extract_ring_corners_unchecked(ring, lth, axis_shift, perp_shift))
}

fn extract_ring_corners_unchecked(
    ring: &[Point],
    lth: f64,
    axis_shift: f64,
    perp_shift: f64,
) -> Vec<ShotCorner> {
    let n = ring.len();
    let mut raw: Vec<RawCorner> = Vec::new();

    let edges = (0..n).map(|i| (ring[i], ring[(i + 1) % n]));
    for (i, (a, b)) in edges.enumerate() {
        let d = b - a;
        let len = d.norm();
        if len < lth {
            continue; // covered by neighbours' corner points
        }
        let ux = d.x as f64 / len;
        let uy = d.y as f64 / len;
        if a.x == b.x || a.y == b.y {
            // Axis-parallel segment: one shot edge writes it. Push the two
            // endpoint corners outward along the segment axis.
            let (ka, kb) = axis_corner_types(d);
            raw.push(RawCorner {
                x: a.x as f64 - ux * axis_shift,
                y: a.y as f64 - uy * axis_shift,
                kind: ka,
                anchor: Some(i),
            });
            raw.push(RawCorner {
                x: b.x as f64 + ux * axis_shift,
                y: b.y as f64 + uy * axis_shift,
                kind: kb,
                anchor: Some((i + 1) % n),
            });
        } else {
            // Oblique segment: corner rounding writes it. Points every lth
            // along the segment, pushed lth/√2 outside the shape. The ring
            // is CCW (interior left), so the outward normal is the right
            // of the direction.
            let nx = uy;
            let ny = -ux;
            let kind = CornerType::from_outward(nx, ny);
            let count = (len / lth).floor() as usize + 1;
            let margin = (len - lth * (count - 1) as f64) / 2.0;
            for k in 0..count {
                let s = margin + k as f64 * lth;
                raw.push(RawCorner {
                    x: a.x as f64 + ux * s + nx * perp_shift,
                    y: a.y as f64 + uy * s + ny * perp_shift,
                    kind,
                    anchor: None,
                });
            }
        }
    }

    // Same-vertex merge: two same-type endpoints anchored at one polygon
    // vertex are a single geometric corner.
    let mut merged: Vec<(f64, f64, CornerType, f64)> = Vec::new(); // (Σx, Σy, kind, count)
    let mut keyed: std::collections::BTreeMap<(usize, u8), usize> = std::collections::BTreeMap::new();
    for rc in &raw {
        match rc.anchor {
            Some(v) => {
                let key = (v, corner_rank(rc.kind));
                if let Some(&slot) = keyed.get(&key) {
                    merged[slot].0 += rc.x;
                    merged[slot].1 += rc.y;
                    merged[slot].3 += 1.0;
                } else {
                    keyed.insert(key, merged.len());
                    merged.push((rc.x, rc.y, rc.kind, 1.0));
                }
            }
            None => merged.push((rc.x, rc.y, rc.kind, 1.0)),
        }
    }

    merged
        .into_iter()
        .map(|(sx, sy, kind, count)| ShotCorner {
            pos: Point::new((sx / count).round() as i64, (sy / count).round() as i64),
            kind,
        })
        .collect()
}

/// Corner types for the endpoints of an axis-parallel CCW boundary segment
/// with direction `d` (returns `(type_at_start, type_at_end)`).
fn axis_corner_types(d: Point) -> (CornerType, CornerType) {
    if d.y == 0 {
        if d.x > 0 {
            // Rightward: interior above ⇒ bottom edge of the shape.
            (CornerType::BottomLeft, CornerType::BottomRight)
        } else {
            // Leftward: interior below ⇒ top edge.
            (CornerType::TopRight, CornerType::TopLeft)
        }
    } else if d.y > 0 {
        // Upward: interior to the left ⇒ right edge of the shape.
        (CornerType::BottomRight, CornerType::TopRight)
    } else {
        // Downward: interior to the right ⇒ left edge.
        (CornerType::TopLeft, CornerType::BottomLeft)
    }
}

/// Canonical ordering of corner types (used as map keys).
pub(crate) fn corner_rank(kind: CornerType) -> u8 {
    match kind {
        CornerType::BottomLeft => 0,
        CornerType::BottomRight => 1,
        CornerType::TopLeft => 2,
        CornerType::TopRight => 3,
    }
}

/// Clusters same-type corner points closer than `0.75·lth`, replacing each
/// cluster with its centroid (single-linkage; deterministic).
///
/// The cut is strictly below `Lth` so the deliberately `Lth`-spaced
/// staircase points of diagonal segments are never absorbed, even after
/// integer-grid rounding (which can shrink their spacing by up to ~1.4 nm).
pub fn cluster_corners(corners: &[ShotCorner], lth: f64) -> Vec<ShotCorner> {
    let cut = 0.75 * lth;
    let n = corners.len();
    let mut parent: Vec<usize> = (0..n).collect();

    fn find(parent: &mut Vec<usize>, i: usize) -> usize {
        if parent[i] != i {
            let root = find(parent, parent[i]);
            parent[i] = root;
        }
        parent[i]
    }
    for i in 0..n {
        for j in (i + 1)..n {
            if corners[i].kind == corners[j].kind
                && corners[i].pos.distance(corners[j].pos) < cut
            {
                let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
                if ri != rj {
                    parent[ri.max(rj)] = ri.min(rj);
                }
            }
        }
    }

    let mut sums: std::collections::BTreeMap<usize, (i64, i64, i64)> =
        std::collections::BTreeMap::new();
    for (i, corner) in corners.iter().enumerate() {
        let root = find(&mut parent, i);
        let e = sums.entry(root).or_insert((0, 0, 0));
        e.0 += corner.pos.x;
        e.1 += corner.pos.y;
        e.2 += 1;
    }
    sums.into_iter()
        .map(|(root, (sx, sy, count))| ShotCorner {
            pos: Point::new(
                (sx as f64 / count as f64).round() as i64,
                (sy as f64 / count as f64).round() as i64,
            ),
            kind: corners[root].kind,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use maskfrac_geom::Rect;

    const LTH: f64 = 8.0;
    const AXIS_SHIFT: f64 = 2.0;
    const PERP_SHIFT: f64 = 3.0;

    fn square(side: i64) -> Polygon {
        Polygon::from_rect(Rect::new(0, 0, side, side).unwrap())
    }

    fn extract(p: &Polygon) -> Vec<ShotCorner> {
        extract_shot_corners(p, LTH, AXIS_SHIFT, PERP_SHIFT)
    }

    #[test]
    fn square_produces_four_merged_corners() {
        let corners = extract(&square(60));
        assert_eq!(corners.len(), 4, "vertex merge collapses edge endpoints");
        for kind in [
            CornerType::BottomLeft,
            CornerType::BottomRight,
            CornerType::TopLeft,
            CornerType::TopRight,
        ] {
            assert_eq!(
                corners.iter().filter(|c| c.kind == kind).count(),
                1,
                "{kind:?} appears once"
            );
        }
    }

    #[test]
    fn merged_corner_overhangs_diagonally() {
        let corners = extract(&square(60));
        // Endpoint shift AXIS_SHIFT along each incident edge; the merge
        // centroid overhangs the geometric corner by half that per axis.
        let half = (AXIS_SHIFT / 2.0).round() as i64;
        let bl = corners
            .iter()
            .find(|c| c.kind == CornerType::BottomLeft)
            .unwrap();
        assert_eq!(bl.pos, Point::new(-half, -half));
        let tr = corners
            .iter()
            .find(|c| c.kind == CornerType::TopRight)
            .unwrap();
        assert_eq!(tr.pos, Point::new(60 + half, 60 + half));
    }

    #[test]
    fn cluster_keeps_merged_square_corners() {
        let corners = extract(&square(60));
        let clustered = cluster_corners(&corners, LTH);
        assert_eq!(clustered.len(), 4);
    }

    #[test]
    fn short_segments_skipped() {
        // 5 nm notch in a big square: its segments are < lth and vanish.
        let p = Polygon::new(vec![
            Point::new(0, 0),
            Point::new(60, 0),
            Point::new(60, 28),
            Point::new(55, 28),
            Point::new(55, 33),
            Point::new(60, 33),
            Point::new(60, 60),
            Point::new(0, 60),
        ])
        .unwrap();
        let corners = extract(&p);
        let notch_pts = corners
            .iter()
            .filter(|c| (26..=35).contains(&c.pos.y) && c.pos.x < 58)
            .count();
        assert_eq!(notch_pts, 0, "notch edges shorter than lth are skipped");
    }

    #[test]
    fn diagonal_segment_gets_spaced_corners() {
        // CCW triangle with hypotenuse from (60,0) to (0,60): boundary
        // direction is up-left, interior below-left, outward up-right ⇒
        // top-right corners.
        let p = Polygon::new(vec![Point::new(0, 0), Point::new(60, 0), Point::new(0, 60)])
            .unwrap();
        let corners = extract(&p);
        let diag: Vec<_> = corners
            .iter()
            .filter(|c| c.kind == CornerType::TopRight)
            .collect();
        // Hypotenuse length ≈ 84.9 ⇒ floor(84.9/8)+1 = 11 points.
        assert_eq!(diag.len(), 11);
        for c in &diag {
            assert!(
                c.pos.x + c.pos.y > 60,
                "corner {:?} must sit outside the hypotenuse",
                c.pos
            );
        }
        for w in diag.windows(2) {
            let d = w[0].pos.distance(w[1].pos);
            assert!((d - LTH).abs() < 1.5, "spacing {d}");
        }
        // And clustering must keep the full staircase.
        let clustered = cluster_corners(&corners, LTH);
        assert_eq!(
            clustered.iter().filter(|c| c.kind == CornerType::TopRight).count(),
            11
        );
    }

    #[test]
    fn corner_type_predicates() {
        assert!(CornerType::BottomLeft.is_left());
        assert!(CornerType::BottomLeft.is_bottom());
        assert!(!CornerType::TopRight.is_left());
        assert!(!CornerType::TopRight.is_bottom());
    }

    #[test]
    fn clustering_keeps_distant_points() {
        let pts = vec![
            ShotCorner { pos: Point::new(0, 0), kind: CornerType::BottomLeft },
            ShotCorner { pos: Point::new(100, 0), kind: CornerType::BottomLeft },
            ShotCorner { pos: Point::new(0, 2), kind: CornerType::TopRight },
        ];
        let c = cluster_corners(&pts, 8.0);
        assert_eq!(c.len(), 3, "different types and distant points survive");
    }

    #[test]
    fn clustering_averages_positions() {
        let pts = vec![
            ShotCorner { pos: Point::new(0, 0), kind: CornerType::BottomLeft },
            ShotCorner { pos: Point::new(4, 0), kind: CornerType::BottomLeft },
        ];
        let c = cluster_corners(&pts, 8.0);
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].pos, Point::new(2, 0));
    }

    #[test]
    fn clustering_is_transitive() {
        // Chain 0-4-8 with cut 0.75·8 = 6: 0 and 8 link through 4.
        let pts = vec![
            ShotCorner { pos: Point::new(0, 0), kind: CornerType::TopLeft },
            ShotCorner { pos: Point::new(4, 0), kind: CornerType::TopLeft },
            ShotCorner { pos: Point::new(8, 0), kind: CornerType::TopLeft },
        ];
        let c = cluster_corners(&pts, 8.0);
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].pos, Point::new(4, 0));
    }

    #[test]
    fn clustering_respects_cut() {
        // Distance 7 >= 0.75·8 = 6: kept apart.
        let pts = vec![
            ShotCorner { pos: Point::new(0, 0), kind: CornerType::TopLeft },
            ShotCorner { pos: Point::new(7, 0), kind: CornerType::TopLeft },
        ];
        assert_eq!(cluster_corners(&pts, 8.0).len(), 2);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_nonpositive_lth() {
        extract_shot_corners(&square(20), 0.0, 1.0, 1.0);
    }
}
