//! Conventional (non-model-based) rectilinear partitioning.
//!
//! Before model-based fracturing, mask data prep treated fracturing as a
//! geometric *partitioning* problem: cover the rectilinear target with
//! non-overlapping axis-parallel rectangles (paper §1, refs [5–7]). This
//! module provides that conventional substrate. It is used directly as the
//! "conventional" baseline and as the seed of the PROTO-EDA surrogate.
//!
//! [`partition_slabs`] merges row runs vertically while their x-extent is
//! unchanged (the classic slab/trapezoid decomposition, near-minimal for
//! shapes whose boundary staircase is coarse).

use crate::raster::{Bitmap, Frame};
use crate::rect::Rect;

/// Partitions the set pixels into vertically-merged row runs (slabs).
///
/// A run is merged with the slab directly below when both have exactly the
/// same x-extent, so each output rectangle is a maximal stack of identical
/// runs. The output is a partition: rectangles are disjoint and their union
/// is exactly the set region.
///
/// # Example
///
/// ```
/// use maskfrac_geom::{Bitmap, Frame, Point};
/// use maskfrac_geom::partition::partition_slabs;
///
/// let mut bm = Bitmap::new(4, 4);
/// for iy in 0..4 { for ix in 0..4 { bm.set(ix, iy, true); } }
/// let rects = partition_slabs(&bm, Frame::new(Point::new(0, 0), 4, 4));
/// assert_eq!(rects.len(), 1); // a filled square is one slab
/// ```
pub fn partition_slabs(bitmap: &Bitmap, frame: Frame) -> Vec<Rect> {
    #[derive(Clone, Copy)]
    struct OpenSlab {
        x0: usize,
        x1: usize,
        y0: usize,
    }

    let ox = frame.origin().x;
    let oy = frame.origin().y;
    let mut rects = Vec::new();
    let mut open: Vec<OpenSlab> = Vec::new();

    for iy in 0..=bitmap.height() {
        // Runs of the current row (empty when past the last row).
        let mut runs: Vec<(usize, usize)> = Vec::new();
        if iy < bitmap.height() {
            let mut ix = 0;
            while ix < bitmap.width() {
                if bitmap.get(ix, iy) {
                    let start = ix;
                    while ix < bitmap.width() && bitmap.get(ix, iy) {
                        ix += 1;
                    }
                    runs.push((start, ix));
                } else {
                    ix += 1;
                }
            }
        }

        let mut next_open: Vec<OpenSlab> = Vec::with_capacity(runs.len());
        let mut matched = vec![false; open.len()];
        for &(x0, x1) in &runs {
            let continued = open
                .iter()
                .position(|s| s.x0 == x0 && s.x1 == x1)
                .filter(|&i| !matched[i]);
            if let Some(i) = continued {
                matched[i] = true;
                next_open.push(open[i]);
            } else {
                next_open.push(OpenSlab { x0, x1, y0: iy });
            }
        }
        // Close slabs that did not continue.
        for (i, slab) in open.iter().enumerate() {
            if !matched[i] {
                rects.push(
                    Rect::new(
                        ox + slab.x0 as i64,
                        oy + slab.y0 as i64,
                        ox + slab.x1 as i64,
                        oy + iy as i64,
                    )
                    .expect("slab is well-formed"),
                );
            }
        }
        open = next_open;
    }
    rects
}

/// Approximate slab decomposition with a horizontal tolerance.
///
/// Like [`partition_slabs`], but a row run continues the slab below when
/// both its x-extents are within `tol` pixels of the slab's **running
/// average** extent (comparing to the average rather than the previous
/// row bounds the total drift, so a smoothly bulging region cannot chain
/// into one meaningless slab); the slab is emitted with its rounded
/// average extent at close time. The output is **not** an exact partition
/// — rectangles approximate the region within about `tol` — which is
/// exactly what a model-based cleanup stage wants as a seed: digitized
/// curvilinear shapes produce a staircase of 1-pixel runs that exact
/// slabbing turns into slivers, while tolerant slabbing yields a compact
/// near-cover.
pub fn partition_slabs_tolerant(bitmap: &Bitmap, frame: Frame, tol: i64) -> Vec<Rect> {
    struct OpenSlab {
        sum_x0: i64,
        sum_x1: i64,
        rows: i64,
        y0: usize,
    }

    impl OpenSlab {
        fn avg(&self) -> (f64, f64) {
            (
                self.sum_x0 as f64 / self.rows as f64,
                self.sum_x1 as f64 / self.rows as f64,
            )
        }
    }

    let ox = frame.origin().x;
    let oy = frame.origin().y;
    let mut rects = Vec::new();
    let mut open: Vec<OpenSlab> = Vec::new();

    let close = |slab: &OpenSlab, y_end: usize, rects: &mut Vec<Rect>| {
        let x0 = (slab.sum_x0 as f64 / slab.rows as f64).round() as i64;
        let x1 = (slab.sum_x1 as f64 / slab.rows as f64).round() as i64;
        if x1 > x0 {
            rects.push(
                Rect::new(ox + x0, oy + slab.y0 as i64, ox + x1, oy + y_end as i64)
                    .expect("slab is well-formed"),
            );
        }
    };

    for iy in 0..=bitmap.height() {
        let mut runs: Vec<(usize, usize)> = Vec::new();
        if iy < bitmap.height() {
            let mut ix = 0;
            while ix < bitmap.width() {
                if bitmap.get(ix, iy) {
                    let start = ix;
                    while ix < bitmap.width() && bitmap.get(ix, iy) {
                        ix += 1;
                    }
                    runs.push((start, ix));
                } else {
                    ix += 1;
                }
            }
        }

        let mut next_open: Vec<OpenSlab> = Vec::with_capacity(runs.len());
        let mut matched = vec![false; open.len()];
        for &(x0, x1) in &runs {
            let continued = open.iter().position(|s| {
                let (a0, a1) = s.avg();
                (a0 - x0 as f64).abs() <= tol as f64 && (a1 - x1 as f64).abs() <= tol as f64
            });
            match continued.filter(|&i| !matched[i]) {
                Some(i) => {
                    matched[i] = true;
                    let s = &open[i];
                    next_open.push(OpenSlab {
                        sum_x0: s.sum_x0 + x0 as i64,
                        sum_x1: s.sum_x1 + x1 as i64,
                        rows: s.rows + 1,
                        y0: s.y0,
                    });
                }
                None => next_open.push(OpenSlab {
                    sum_x0: x0 as i64,
                    sum_x1: x1 as i64,
                    rows: 1,
                    y0: iy,
                }),
            }
        }
        for (i, slab) in open.iter().enumerate() {
            if !matched[i] {
                close(slab, iy, &mut rects);
            }
        }
        open = next_open;
    }
    rects
}

/// Verifies that `rects` is a partition of the set pixels of `bitmap`:
/// disjoint and exactly covering. Returns `true` iff both hold.
///
/// Intended for tests and debug assertions; cost is `O(total rect area)`.
pub fn is_partition_of(rects: &[Rect], bitmap: &Bitmap, frame: Frame) -> bool {
    let mut cover = Bitmap::new(bitmap.width(), bitmap.height());
    let ox = frame.origin().x;
    let oy = frame.origin().y;
    for r in rects {
        for iy in (r.y0() - oy)..(r.y1() - oy) {
            for ix in (r.x0() - ox)..(r.x1() - ox) {
                if ix < 0 || iy < 0 || ix as usize >= cover.width() || iy as usize >= cover.height()
                {
                    return false;
                }
                if cover.get(ix as usize, iy as usize) {
                    return false; // overlap
                }
                cover.set(ix as usize, iy as usize, true);
            }
        }
    }
    cover == *bitmap
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::Point;
    use crate::polygon::Polygon;

    fn frame(w: usize, h: usize) -> Frame {
        Frame::new(Point::new(0, 0), w, h)
    }

    fn l_shape_bitmap() -> (Bitmap, Frame) {
        let l = Polygon::new(vec![
            Point::new(0, 0),
            Point::new(6, 0),
            Point::new(6, 2),
            Point::new(2, 2),
            Point::new(2, 6),
            Point::new(0, 6),
        ])
        .unwrap();
        let f = frame(6, 6);
        (Bitmap::rasterize(&l, f), f)
    }

    #[test]
    fn slabs_merge_rows() {
        let (bm, f) = l_shape_bitmap();
        let rects = partition_slabs(&bm, f);
        assert!(is_partition_of(&rects, &bm, f));
        assert_eq!(rects.len(), 2, "L-shape slabs: bottom bar + left column");
    }

    #[test]
    fn slabs_on_full_square() {
        let mut bm = Bitmap::new(5, 5);
        for iy in 0..5 {
            for ix in 0..5 {
                bm.set(ix, iy, true);
            }
        }
        let rects = partition_slabs(&bm, frame(5, 5));
        assert_eq!(rects.len(), 1);
        assert_eq!(rects[0], Rect::new(0, 0, 5, 5).unwrap());
    }

    #[test]
    fn slabs_on_empty_bitmap() {
        let bm = Bitmap::new(5, 5);
        assert!(partition_slabs(&bm, frame(5, 5)).is_empty());
    }

    #[test]
    fn slabs_handle_two_towers() {
        // Two disjoint vertical towers sharing rows: per-row matching must
        // keep them separate and continuous.
        let mut bm = Bitmap::new(7, 4);
        for iy in 0..4 {
            bm.set(1, iy, true);
            bm.set(5, iy, true);
        }
        let f = frame(7, 4);
        let rects = partition_slabs(&bm, f);
        assert!(is_partition_of(&rects, &bm, f));
        assert_eq!(rects.len(), 2);
        for r in &rects {
            assert_eq!(r.height(), 4);
            assert_eq!(r.width(), 1);
        }
    }

    #[test]
    fn slabs_handle_t_shape() {
        // T-shape: wide top bar, narrow stem.
        let mut bm = Bitmap::new(7, 6);
        for ix in 0..7 {
            bm.set(ix, 4, true);
            bm.set(ix, 5, true);
        }
        for iy in 0..4 {
            bm.set(3, iy, true);
        }
        let f = frame(7, 6);
        let rects = partition_slabs(&bm, f);
        assert!(is_partition_of(&rects, &bm, f));
        assert_eq!(rects.len(), 2);
    }

    #[test]
    fn frame_offset_respected() {
        let mut bm = Bitmap::new(2, 2);
        bm.set(0, 0, true);
        let f = Frame::new(Point::new(100, 200), 2, 2);
        let rects = partition_slabs(&bm, f);
        assert_eq!(rects, vec![Rect::new(100, 200, 101, 201).unwrap()]);
        assert!(is_partition_of(&rects, &bm, f));
    }

    #[test]
    fn tolerant_slabs_zero_tol_matches_exact() {
        let (bm, f) = l_shape_bitmap();
        let exact = partition_slabs(&bm, f);
        let tolerant = partition_slabs_tolerant(&bm, f, 0);
        assert_eq!(exact.len(), tolerant.len());
        assert!(is_partition_of(&tolerant, &bm, f));
    }

    #[test]
    fn tolerant_slabs_absorb_staircase() {
        // A 1-px-per-row staircase: exact slabbing gives one rect per row,
        // tolerant slabbing (tol >= 1) gives a single rect.
        let mut bm = Bitmap::new(12, 6);
        for iy in 0..6 {
            for ix in 0..(6 + iy) {
                bm.set(ix, iy, true);
            }
        }
        let f = frame(12, 6);
        assert_eq!(partition_slabs(&bm, f).len(), 6);
        // Drift is bounded by the running-average comparison, so tol 1
        // still splits the staircase, just less finely than exact slabs.
        let fine = partition_slabs_tolerant(&bm, f, 1);
        assert!(fine.len() > 1 && fine.len() < 6, "{fine:?}");
        // A tolerance covering the whole 5 px rise absorbs it into one.
        let coarse = partition_slabs_tolerant(&bm, f, 3);
        assert_eq!(coarse.len(), 1, "{coarse:?}");
        let r = coarse[0];
        assert_eq!(r.y0(), 0);
        assert_eq!(r.y1(), 6);
        // Averaged extent lands mid-staircase.
        assert!((r.x1() - 8).abs() <= 1, "{r}");
    }

    #[test]
    fn tolerant_slabs_respect_tolerance_limit() {
        // Step of 4 px exceeds tol 2: two slabs.
        let mut bm = Bitmap::new(12, 4);
        for iy in 0..2 {
            for ix in 0..4 {
                bm.set(ix, iy, true);
            }
        }
        for iy in 2..4 {
            for ix in 0..8 {
                bm.set(ix, iy, true);
            }
        }
        let f = frame(12, 4);
        assert_eq!(partition_slabs_tolerant(&bm, f, 2).len(), 2);
        assert_eq!(partition_slabs_tolerant(&bm, f, 4).len(), 1);
    }

    #[test]
    fn is_partition_rejects_overlap_and_gap() {
        let (bm, f) = l_shape_bitmap();
        let mut rects = partition_slabs(&bm, f);
        let extra = rects[0];
        rects.push(extra);
        assert!(!is_partition_of(&rects, &bm, f), "duplicate rect overlaps");
        rects.pop();
        rects.pop();
        assert!(!is_partition_of(&rects, &bm, f), "missing rect leaves gap");
    }
}
