//! Connected-component labeling of bitmaps.
//!
//! The shot-addition move (paper §4.3) merges failing pixels with a Boolean
//! OR into polygons — i.e. it groups neighbouring failing pixels into
//! connected components — and then works with each component's bounding box.

use crate::raster::Bitmap;
use crate::rect::Rect;

/// A 4-connected component of set pixels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Component {
    /// Pixel coordinates belonging to the component.
    pub pixels: Vec<(usize, usize)>,
    /// Bounding box in **pixel index** space: `x0..x1 × y0..y1` half-open,
    /// expressed as a `Rect` with `x0 = min ix`, `x1 = max ix + 1`, etc.
    pub bbox: Rect,
}

/// Labels the 4-connected components of the set pixels.
///
/// Components are returned in deterministic order (by their lowest-index
/// pixel, row-major from the bottom row).
///
/// # Example
///
/// ```
/// use maskfrac_geom::{Bitmap, label_components};
///
/// let mut bm = Bitmap::new(5, 5);
/// bm.set(0, 0, true);
/// bm.set(1, 0, true);
/// bm.set(4, 4, true);
/// let comps = label_components(&bm);
/// assert_eq!(comps.len(), 2);
/// assert_eq!(comps[0].pixels.len(), 2);
/// ```
pub fn label_components(bitmap: &Bitmap) -> Vec<Component> {
    let w = bitmap.width();
    let h = bitmap.height();
    let mut visited = vec![false; w * h];
    let mut components = Vec::new();
    let mut stack: Vec<(usize, usize)> = Vec::new();

    for iy in 0..h {
        for ix in 0..w {
            if !bitmap.get(ix, iy) || visited[iy * w + ix] {
                continue;
            }
            let mut pixels = Vec::new();
            let (mut min_x, mut min_y, mut max_x, mut max_y) = (ix, iy, ix, iy);
            stack.push((ix, iy));
            visited[iy * w + ix] = true;
            while let Some((cx, cy)) = stack.pop() {
                pixels.push((cx, cy));
                min_x = min_x.min(cx);
                max_x = max_x.max(cx);
                min_y = min_y.min(cy);
                max_y = max_y.max(cy);
                let mut try_push = |nx: i64, ny: i64, stack: &mut Vec<(usize, usize)>| {
                    if nx >= 0 && ny >= 0 {
                        let (nx, ny) = (nx as usize, ny as usize);
                        if nx < w && ny < h && bitmap.get(nx, ny) && !visited[ny * w + nx] {
                            visited[ny * w + nx] = true;
                            stack.push((nx, ny));
                        }
                    }
                };
                try_push(cx as i64 - 1, cy as i64, &mut stack);
                try_push(cx as i64 + 1, cy as i64, &mut stack);
                try_push(cx as i64, cy as i64 - 1, &mut stack);
                try_push(cx as i64, cy as i64 + 1, &mut stack);
            }
            pixels.sort_unstable();
            components.push(Component {
                pixels,
                bbox: Rect::new(
                    min_x as i64,
                    min_y as i64,
                    max_x as i64 + 1,
                    max_y as i64 + 1,
                )
                .expect("min <= max by construction"),
            });
        }
    }
    components
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_bitmap_has_no_components() {
        assert!(label_components(&Bitmap::new(4, 4)).is_empty());
    }

    #[test]
    fn single_block() {
        let mut bm = Bitmap::new(6, 6);
        for iy in 1..4 {
            for ix in 2..5 {
                bm.set(ix, iy, true);
            }
        }
        let comps = label_components(&bm);
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0].pixels.len(), 9);
        assert_eq!(comps[0].bbox, Rect::new(2, 1, 5, 4).unwrap());
    }

    #[test]
    fn diagonal_pixels_are_separate() {
        let mut bm = Bitmap::new(4, 4);
        bm.set(0, 0, true);
        bm.set(1, 1, true);
        let comps = label_components(&bm);
        assert_eq!(comps.len(), 2, "4-connectivity must not join diagonals");
    }

    #[test]
    fn u_shape_is_one_component() {
        let mut bm = Bitmap::new(5, 5);
        for iy in 0..4 {
            bm.set(0, iy, true);
            bm.set(4, iy, true);
        }
        for ix in 0..5 {
            bm.set(ix, 0, true);
        }
        let comps = label_components(&bm);
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0].pixels.len(), 11);
        assert_eq!(comps[0].bbox, Rect::new(0, 0, 5, 4).unwrap());
    }

    #[test]
    fn deterministic_order() {
        let mut bm = Bitmap::new(6, 2);
        bm.set(5, 0, true);
        bm.set(0, 0, true);
        bm.set(2, 1, true);
        let comps = label_components(&bm);
        assert_eq!(comps.len(), 3);
        assert_eq!(comps[0].pixels, vec![(0, 0)]);
        assert_eq!(comps[1].pixels, vec![(5, 0)]);
        assert_eq!(comps[2].pixels, vec![(2, 1)]);
    }
}
