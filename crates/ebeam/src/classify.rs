//! Pixel classification: `Pon`, `Poff` and the don't-care band `Px`.
//!
//! The fracturing constraint (paper §2, Eq. 4) is evaluated on pixels:
//! pixels inside the target and farther than the CD tolerance `γ` from its
//! boundary must print (`Itot ≥ ρ`), pixels outside and farther than `γ`
//! must not (`Itot < ρ`), and pixels within `γ` of the boundary are
//! unconstrained.

use maskfrac_geom::morph::boundary_band;
use maskfrac_geom::{Bitmap, Frame, Polygon, Region};

/// Constraint class of one pixel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PixelClass {
    /// Inside the target, beyond the tolerance band: must print.
    On,
    /// Outside the target, beyond the tolerance band: must not print.
    Off,
    /// Within `γ` of the target boundary: unconstrained (`Px`).
    Band,
}

impl PixelClass {
    /// Signed cost orientation: `-1` for [`PixelClass::On`] (cost accrues
    /// below the threshold), `+1` for [`PixelClass::Off`] (cost accrues at
    /// or above it), `0` for the unconstrained [`PixelClass::Band`]. With
    /// this, `pixel_cost(class, x, rho)` equals
    /// `max(sign * (x - rho), 0)` bit-for-bit, which branchless inner
    /// loops exploit (see
    /// [`crate::violations::cost_delta_for_strip`]).
    #[inline]
    pub(crate) fn cost_sign(self) -> f64 {
        match self {
            PixelClass::On => -1.0,
            PixelClass::Off => 1.0,
            PixelClass::Band => 0.0,
        }
    }
}

/// Classification of every pixel of a frame against a target shape.
///
/// # Example
///
/// ```
/// use maskfrac_ebeam::{Classification, PixelClass};
/// use maskfrac_geom::{Point, Polygon, Rect};
///
/// let target = Polygon::from_rect(Rect::new(0, 0, 40, 40).expect("rect"));
/// let cls = Classification::build(&target, 2.0, 20);
/// let frame = cls.frame();
/// let (ix, iy) = frame.pixel_of(20.0, 20.0).expect("inside frame");
/// assert_eq!(cls.class(ix, iy), PixelClass::On);
/// let (bx, by) = frame.pixel_of(0.5, 20.0).expect("inside frame");
/// assert_eq!(cls.class(bx, by), PixelClass::Band);
/// ```
#[derive(Debug, Clone)]
pub struct Classification {
    frame: Frame,
    classes: Vec<PixelClass>,
    target: Bitmap,
}

impl Classification {
    /// Classifies the pixels of a frame covering `target` with `margin` nm
    /// of surround (use at least the model's support radius so off-target
    /// intensity is fully constrained).
    ///
    /// `gamma` is the CD tolerance in nm; the band is realized
    /// morphologically with a disc of radius `⌈γ⌉` pixels, matching the
    /// 1 nm pixel pitch.
    ///
    /// # Panics
    ///
    /// Panics if `gamma` is negative.
    pub fn build(target: &Polygon, gamma: f64, margin: i64) -> Self {
        Self::build_region(&Region::simple(target.clone()), gamma, margin)
    }

    /// Classifies the pixels of a frame covering a [`Region`] (a polygon
    /// with holes): hole interiors are `Poff`, hole boundaries get their
    /// own don't-care band.
    ///
    /// # Panics
    ///
    /// Panics if `gamma` is negative.
    pub fn build_region(target: &Region, gamma: f64, margin: i64) -> Self {
        Self::build_region_reusing(target, gamma, margin, Vec::new())
    }

    /// [`Classification::build_region`], recycling `classes` as the class
    /// buffer (cleared, then grown if too small — never shrunk). Scratch
    /// arenas pass the previous shape's buffer back here so steady-state
    /// layout fracturing does not reallocate the class grid per shape.
    ///
    /// # Panics
    ///
    /// Panics if `gamma` is negative.
    pub fn build_region_reusing(
        target: &Region,
        gamma: f64,
        margin: i64,
        mut classes: Vec<PixelClass>,
    ) -> Self {
        assert!(gamma >= 0.0, "gamma must be nonnegative");
        let frame = Frame::covering(target.bbox(), margin);
        let inside = target.rasterize(frame);
        let band = boundary_band(&inside, gamma.ceil() as i64);

        classes.clear();
        classes.reserve(frame.len());
        for iy in 0..frame.height() {
            for ix in 0..frame.width() {
                let class = if band.get(ix, iy) {
                    PixelClass::Band
                } else if inside.get(ix, iy) {
                    PixelClass::On
                } else {
                    PixelClass::Off
                };
                classes.push(class);
            }
        }
        Classification {
            frame,
            classes,
            target: inside,
        }
    }

    /// Consumes the classification, returning the class buffer for reuse
    /// (see [`Classification::build_region_reusing`]).
    pub fn into_classes(self) -> Vec<PixelClass> {
        self.classes
    }

    /// The classified pixel frame.
    #[inline]
    pub fn frame(&self) -> Frame {
        self.frame
    }

    /// Class of pixel `(ix, iy)`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if out of range.
    #[inline]
    pub fn class(&self, ix: usize, iy: usize) -> PixelClass {
        self.classes[self.frame.index(ix, iy)]
    }

    /// Contiguous classes of row `iy` restricted to columns `xs`; the
    /// slice-at-once counterpart of [`Classification::class`] for
    /// window-scan inner loops (see [`crate::IntensityMap::row`]).
    ///
    /// # Panics
    ///
    /// Panics if the row or column range is out of frame.
    #[inline]
    pub(crate) fn class_row(&self, iy: usize, xs: std::ops::Range<usize>) -> &[PixelClass] {
        let base = self.frame.index(0, iy);
        &self.classes[base + xs.start..base + xs.end]
    }

    /// The rasterized target (pixel centre inside the polygon), before the
    /// band is carved out.
    #[inline]
    pub fn target_bitmap(&self) -> &Bitmap {
        &self.target
    }

    /// Number of pixels of `class`.
    #[cfg(test)]
    pub(crate) fn count(&self, class: PixelClass) -> usize {
        self.classes.iter().filter(|&&c| c == class).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maskfrac_geom::{Point, Rect};

    fn square_classification() -> Classification {
        let target = Polygon::from_rect(Rect::new(0, 0, 40, 40).unwrap());
        Classification::build(&target, 2.0, 20)
    }

    #[test]
    fn counts_are_exhaustive() {
        let c = square_classification();
        let [on, off, band] =
            [PixelClass::On, PixelClass::Off, PixelClass::Band].map(|k| c.count(k));
        assert_eq!(on + off + band, c.frame().len());
        assert!(on > 0 && off > 0 && band > 0);
    }

    #[test]
    fn deep_inside_is_on() {
        let c = square_classification();
        let (ix, iy) = c.frame().pixel_of(20.0, 20.0).unwrap();
        assert_eq!(c.class(ix, iy), PixelClass::On);
    }

    #[test]
    fn far_outside_is_off() {
        let c = square_classification();
        let (ix, iy) = c.frame().pixel_of(-10.0, 20.0).unwrap();
        assert_eq!(c.class(ix, iy), PixelClass::Off);
    }

    #[test]
    fn boundary_neighbourhood_is_band() {
        let c = square_classification();
        for (x, y) in [(0.5, 20.5), (39.5, 20.5), (20.5, 1.5), (20.5, 41.5)] {
            let (ix, iy) = c.frame().pixel_of(x, y).unwrap();
            assert_eq!(c.class(ix, iy), PixelClass::Band, "at ({x}, {y})");
        }
    }

    #[test]
    fn band_width_matches_gamma() {
        let c = square_classification();
        // gamma = 2: pixels at distance > 2 from the boundary are not band.
        let (ix, iy) = c.frame().pixel_of(3.5, 20.5).unwrap();
        assert_eq!(c.class(ix, iy), PixelClass::On);
        let (ox, oy) = c.frame().pixel_of(-3.5, 20.5).unwrap();
        assert_eq!(c.class(ox, oy), PixelClass::Off);
    }

    #[test]
    fn zero_gamma_has_no_band() {
        let target = Polygon::from_rect(Rect::new(0, 0, 20, 20).unwrap());
        let c = Classification::build(&target, 0.0, 10);
        assert_eq!(c.count(PixelClass::Band), 0);
        assert_eq!(c.count(PixelClass::On), 400);
    }

    #[test]
    fn l_shape_concave_corner_banded() {
        let l = Polygon::new(vec![
            Point::new(0, 0),
            Point::new(40, 0),
            Point::new(40, 20),
            Point::new(20, 20),
            Point::new(20, 40),
            Point::new(0, 40),
        ])
        .unwrap();
        let c = Classification::build(&l, 2.0, 20);
        let (ix, iy) = c.frame().pixel_of(20.5, 20.5).unwrap();
        assert_eq!(c.class(ix, iy), PixelClass::Band);
        let (jx, jy) = c.frame().pixel_of(10.0, 10.0).unwrap();
        assert_eq!(c.class(jx, jy), PixelClass::On);
        let (kx, ky) = c.frame().pixel_of(30.0, 30.0).unwrap();
        assert_eq!(c.class(kx, ky), PixelClass::Off);
    }
}
