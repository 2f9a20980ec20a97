//! Regions: polygons with holes.
//!
//! Aggressive ILT output is not always simply connected — mask openings
//! can enclose islands (donut-like contours). A [`Region`] is an outer
//! ring minus a set of hole rings, all digitized on the writing grid.

use crate::polygon::{Polygon, PolygonError};
use crate::raster::{Bitmap, Frame};
use crate::rect::Rect;
use std::fmt;

/// A polygon with holes: the point set `outer \ (hole₁ ∪ hole₂ ∪ …)`.
///
/// Both the outer ring and the holes are stored as counter-clockwise
/// [`Polygon`]s; the region's boundary orientation conventions (interior
/// on the left) are recovered by walking holes in reverse where needed.
///
/// # Example
///
/// ```
/// use maskfrac_geom::{Point, Polygon, Rect, region::Region};
///
/// let outer = Polygon::from_rect(Rect::new(0, 0, 60, 60).expect("rect"));
/// let hole = Polygon::from_rect(Rect::new(20, 20, 40, 40).expect("rect"));
/// let donut = Region::new(outer, vec![hole]).expect("hole inside outer");
/// assert_eq!(donut.holes().len(), 1);
/// assert_eq!(donut.area(), 3600.0 - 400.0); // the hole is not area
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Region {
    outer: Polygon,
    holes: Vec<Polygon>,
}

/// Error constructing a [`Region`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegionError {
    /// A hole ring is invalid as a polygon.
    InvalidHole(PolygonError),
    /// A hole is not strictly inside the outer ring.
    HoleOutsideOuter,
}

impl fmt::Display for RegionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegionError::InvalidHole(e) => write!(f, "invalid hole ring: {e}"),
            RegionError::HoleOutsideOuter => f.write_str("hole is not inside the outer ring"),
        }
    }
}

impl std::error::Error for RegionError {}

impl Region {
    /// Creates a region from an outer ring and hole rings.
    ///
    /// # Errors
    ///
    /// Returns [`RegionError::HoleOutsideOuter`] when any hole vertex is
    /// not inside the outer ring. Hole–hole disjointness is the caller's
    /// responsibility (hole unions are not validated).
    pub fn new(outer: Polygon, holes: Vec<Polygon>) -> Result<Self, RegionError> {
        for hole in &holes {
            let all_inside = hole
                .vertices()
                .iter()
                .all(|v| outer.contains_f64(v.x as f64 + 0.01, v.y as f64 + 0.01)
                    || outer.contains_f64(v.x as f64 - 0.01, v.y as f64 - 0.01));
            if !all_inside {
                return Err(RegionError::HoleOutsideOuter);
            }
        }
        Ok(Region { outer, holes })
    }

    /// A region without holes.
    pub fn simple(outer: Polygon) -> Self {
        Region {
            outer,
            holes: Vec::new(),
        }
    }

    /// The outer ring.
    #[inline]
    pub fn outer(&self) -> &Polygon {
        &self.outer
    }

    /// The hole rings (counter-clockwise, like all [`Polygon`]s).
    #[inline]
    pub fn holes(&self) -> &[Polygon] {
        &self.holes
    }

    /// Bounding box (of the outer ring).
    pub fn bbox(&self) -> Rect {
        self.outer.bbox()
    }

    /// Enclosed area: outer minus holes.
    pub fn area(&self) -> f64 {
        self.outer.area() - self.holes.iter().map(Polygon::area).sum::<f64>()
    }

    /// Point-in-region test: inside the outer ring and outside every hole.
    #[cfg(test)]
    pub(crate) fn contains_f64(&self, x: f64, y: f64) -> bool {
        self.outer.contains_f64(x, y) && !self.holes.iter().any(|h| h.contains_f64(x, y))
    }

    /// Rasterizes the region: outer ring filled, holes cleared.
    pub fn rasterize(&self, frame: Frame) -> Bitmap {
        let mut bm = Bitmap::rasterize(&self.outer, frame);
        for hole in &self.holes {
            let hole_bm = Bitmap::rasterize(hole, frame);
            for (ix, iy) in hole_bm.iter_set() {
                bm.set(ix, iy, false);
            }
        }
        bm
    }
}

impl From<Polygon> for Region {
    fn from(outer: Polygon) -> Self {
        Region::simple(outer)
    }
}

impl fmt::Display for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "region[outer {} vertices, {} holes, area {:.0}]",
            self.outer.len(),
            self.holes.len(),
            self.area()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn donut() -> Region {
        let outer = Polygon::from_rect(Rect::new(0, 0, 60, 60).unwrap());
        let hole = Polygon::from_rect(Rect::new(20, 20, 40, 40).unwrap());
        Region::new(outer, vec![hole]).unwrap()
    }

    #[test]
    fn containment_respects_holes() {
        let d = donut();
        assert!(d.contains_f64(10.0, 30.0));
        assert!(!d.contains_f64(30.0, 30.0));
        assert!(!d.contains_f64(-5.0, 30.0));
    }

    #[test]
    fn area_subtracts_holes() {
        let d = donut();
        assert_eq!(d.area(), 3600.0 - 400.0);
    }

    #[test]
    fn rasterize_clears_holes() {
        let d = donut();
        let frame = Frame::covering(d.bbox(), 2);
        let bm = d.rasterize(frame);
        assert_eq!(bm.count_ones() as f64, d.area());
        let (ix, iy) = frame.pixel_of(30.0, 30.0).unwrap();
        assert!(!bm.get(ix, iy));
        let (jx, jy) = frame.pixel_of(10.0, 30.0).unwrap();
        assert!(bm.get(jx, jy));
    }

    #[test]
    fn hole_outside_is_rejected() {
        let outer = Polygon::from_rect(Rect::new(0, 0, 30, 30).unwrap());
        let hole = Polygon::from_rect(Rect::new(40, 40, 50, 50).unwrap());
        assert_eq!(
            Region::new(outer, vec![hole]),
            Err(RegionError::HoleOutsideOuter)
        );
    }

    #[test]
    fn simple_region_from_polygon() {
        let p = Polygon::from_rect(Rect::new(0, 0, 20, 20).unwrap());
        let r: Region = p.clone().into();
        assert_eq!(r.outer(), &p);
        assert!(r.holes().is_empty());
        assert_eq!(r.area(), p.area());
        assert_eq!(r.to_string(), "region[outer 4 vertices, 0 holes, area 400]");
    }
}
