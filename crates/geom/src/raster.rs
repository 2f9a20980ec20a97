//! Pixel frames, binary bitmaps and scanline polygon rasterization.
//!
//! The fixed-dose fracturing problem is evaluated on a pixel sampling of the
//! target shape (paper §2): a [`Frame`] anchors a pixel grid in absolute
//! nanometre coordinates and a [`Bitmap`] stores one bit per pixel. The
//! pixel pitch is 1 nm throughout (the paper's `Δp`), so pixel `(i, j)` of a
//! frame with origin `(ox, oy)` covers `[ox+i, ox+i+1) × [oy+j, oy+j+1)` nm
//! and samples at its centre.

use crate::point::Point;
use crate::polygon::Polygon;
use crate::rect::Rect;
use std::fmt;

/// A pixel grid anchored in absolute nanometre coordinates.
///
/// # Example
///
/// ```
/// use maskfrac_geom::{Frame, Point};
///
/// let frame = Frame::new(Point::new(-5, 10), 20, 8);
/// assert_eq!(frame.pixel_center(0, 0), (-4.5, 10.5));
/// assert_eq!(frame.len(), 160);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Frame {
    origin: Point,
    width: usize,
    height: usize,
}

impl Frame {
    /// Creates a frame with the given origin (bottom-left pixel corner, nm)
    /// and size in pixels.
    pub fn new(origin: Point, width: usize, height: usize) -> Self {
        Frame {
            origin,
            width,
            height,
        }
    }

    /// Creates the smallest frame covering `rect` expanded by `margin` nm on
    /// every side.
    ///
    /// The margin accommodates the proximity-effect support: intensity is
    /// negligible but nonzero up to `3σ` outside a shot, so classification
    /// frames are grown accordingly.
    pub fn covering(rect: Rect, margin: i64) -> Self {
        let x0 = rect.x0() - margin;
        let y0 = rect.y0() - margin;
        let x1 = rect.x1() + margin;
        let y1 = rect.y1() + margin;
        Frame {
            origin: Point::new(x0, y0),
            width: (x1 - x0).max(0) as usize,
            height: (y1 - y0).max(0) as usize,
        }
    }

    /// Bottom-left corner of pixel `(0, 0)` in nm.
    #[inline]
    pub const fn origin(&self) -> Point {
        self.origin
    }

    /// Width in pixels.
    #[inline]
    pub const fn width(&self) -> usize {
        self.width
    }

    /// Height in pixels.
    #[inline]
    pub const fn height(&self) -> usize {
        self.height
    }

    /// Total number of pixels.
    #[inline]
    pub const fn len(&self) -> usize {
        self.width * self.height
    }

    /// Whether the frame contains no pixels.
    #[inline]
    pub const fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Centre of pixel `(ix, iy)` in absolute nm.
    #[inline]
    pub fn pixel_center(&self, ix: usize, iy: usize) -> (f64, f64) {
        (
            self.origin.x as f64 + ix as f64 + 0.5,
            self.origin.y as f64 + iy as f64 + 0.5,
        )
    }

    /// Linear index of pixel `(ix, iy)` in row-major order.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the pixel is out of range.
    #[inline]
    pub fn index(&self, ix: usize, iy: usize) -> usize {
        debug_assert!(ix < self.width && iy < self.height);
        iy * self.width + ix
    }

    /// Pixel containing the absolute nm point `(x, y)`, if inside the frame.
    pub fn pixel_of(&self, x: f64, y: f64) -> Option<(usize, usize)> {
        let fx = x - self.origin.x as f64;
        let fy = y - self.origin.y as f64;
        if fx < 0.0 || fy < 0.0 {
            return None;
        }
        let ix = fx.floor() as usize;
        let iy = fy.floor() as usize;
        if ix < self.width && iy < self.height {
            Some((ix, iy))
        } else {
            None
        }
    }

    /// Range of pixel x-indices whose centres fall in `[x0, x1]` nm, clamped
    /// to the frame.
    pub fn clamp_x_range(&self, x0: f64, x1: f64) -> std::ops::Range<usize> {
        clamp_range(x0 - self.origin.x as f64, x1 - self.origin.x as f64, self.width)
    }

    /// Range of pixel y-indices whose centres fall in `[y0, y1]` nm, clamped
    /// to the frame.
    pub fn clamp_y_range(&self, y0: f64, y1: f64) -> std::ops::Range<usize> {
        clamp_range(y0 - self.origin.y as f64, y1 - self.origin.y as f64, self.height)
    }
}

/// Indices `i` with `lo <= i + 0.5 <= hi`, clamped to `0..n`.
fn clamp_range(lo: f64, hi: f64, n: usize) -> std::ops::Range<usize> {
    let start = (lo - 0.5).ceil().max(0.0) as usize;
    let end = ((hi - 0.5).floor() as i64 + 1).clamp(0, n as i64) as usize;
    start.min(n)..end.max(start.min(n))
}

/// A dense row-major bit grid.
///
/// # Example
///
/// ```
/// use maskfrac_geom::Bitmap;
///
/// let mut bm = Bitmap::new(4, 3);
/// bm.set(1, 2, true);
/// assert!(bm.get(1, 2));
/// assert_eq!(bm.count_ones(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitmap {
    width: usize,
    height: usize,
    bits: Vec<bool>,
}

impl Bitmap {
    /// Creates an all-zero bitmap of the given pixel size.
    pub fn new(width: usize, height: usize) -> Self {
        Bitmap {
            width,
            height,
            bits: vec![false; width * height],
        }
    }

    /// Width in pixels.
    #[inline]
    pub const fn width(&self) -> usize {
        self.width
    }

    /// Height in pixels.
    #[inline]
    pub const fn height(&self) -> usize {
        self.height
    }

    /// Value of pixel `(ix, iy)`; out-of-range pixels read as `false`.
    #[inline]
    pub fn get(&self, ix: usize, iy: usize) -> bool {
        if ix < self.width && iy < self.height {
            self.bits[iy * self.width + ix]
        } else {
            false
        }
    }

    /// Signed-coordinate variant of [`get`](Self::get); negative coordinates
    /// read as `false`.
    #[inline]
    pub(crate) fn get_i64(&self, ix: i64, iy: i64) -> bool {
        if ix < 0 || iy < 0 {
            false
        } else {
            self.get(ix as usize, iy as usize)
        }
    }

    /// Sets pixel `(ix, iy)`.
    ///
    /// # Panics
    ///
    /// Panics if the pixel is out of range.
    #[inline]
    pub fn set(&mut self, ix: usize, iy: usize, value: bool) {
        assert!(ix < self.width && iy < self.height, "pixel out of range");
        self.bits[iy * self.width + ix] = value;
    }

    /// Number of set pixels.
    pub fn count_ones(&self) -> usize {
        self.bits.iter().filter(|&&b| b).count()
    }

    /// Iterator over the coordinates of all set pixels.
    pub fn iter_set(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let w = self.width;
        self.bits
            .iter()
            .enumerate()
            .filter(|(_, &b)| b)
            .map(move |(i, _)| (i % w, i / w))
    }

    /// Rasterizes a polygon into a fresh bitmap: pixel set iff its centre is
    /// inside the polygon (even-odd rule), evaluated by scanline crossing so
    /// the cost is `O(pixels + edges·height)`.
    pub fn rasterize(polygon: &Polygon, frame: Frame) -> Bitmap {
        let mut bm = Bitmap::new(frame.width(), frame.height());
        if frame.is_empty() {
            return bm;
        }
        let verts = polygon.vertices();
        let n = verts.len();
        let mut crossings: Vec<f64> = Vec::with_capacity(8);
        for iy in 0..frame.height() {
            let y = frame.origin().y as f64 + iy as f64 + 0.5;
            crossings.clear();
            for i in 0..n {
                let a = verts[i];
                let b = verts[(i + 1) % n];
                let (ay, by) = (a.y as f64, b.y as f64);
                if (ay > y) != (by > y) {
                    let t = (y - ay) / (by - ay);
                    crossings.push(a.x as f64 + t * (b.x as f64 - a.x as f64));
                }
            }
            crossings.sort_by(|p, q| p.partial_cmp(q).expect("finite crossings"));
            let mut k = 0;
            while k + 1 < crossings.len() {
                let (x_in, x_out) = (crossings[k], crossings[k + 1]);
                for ix in frame.clamp_x_range(x_in, x_out) {
                    bm.set(ix, iy, true);
                }
                k += 2;
            }
        }
        bm
    }

    /// Traces the boundary loops of the set region.
    ///
    /// Each loop is returned as a polygon whose edges follow pixel
    /// boundaries in **frame-local** nm coordinates (origin at pixel (0,0)
    /// corner); collinear runs are collapsed. Outer boundaries are
    /// counter-clockwise. Hole loops (if the region has holes) are also
    /// CCW after [`Polygon::new`] normalization — callers that need the
    /// largest outer contour should use
    /// [`largest_outer_contour`](Self::largest_outer_contour).
    pub fn trace_boundaries(&self) -> Vec<Polygon> {
        use std::collections::HashMap;

        // Directed boundary edges keyed by start point; interior on the left,
        // so outer loops come out counter-clockwise (e.g. a left boundary
        // edge runs downward from (x, y+1) to (x, y)).
        let mut out_edges: HashMap<Point, Vec<Point>> = HashMap::new();
        let mut push = |from: Point, to: Point| out_edges.entry(from).or_default().push(to);
        for iy in 0..self.height as i64 {
            for ix in 0..self.width as i64 {
                if !self.get_i64(ix, iy) {
                    continue;
                }
                if !self.get_i64(ix, iy - 1) {
                    push(Point::new(ix, iy), Point::new(ix + 1, iy));
                }
                if !self.get_i64(ix + 1, iy) {
                    push(Point::new(ix + 1, iy), Point::new(ix + 1, iy + 1));
                }
                if !self.get_i64(ix, iy + 1) {
                    push(Point::new(ix + 1, iy + 1), Point::new(ix, iy + 1));
                }
                if !self.get_i64(ix - 1, iy) {
                    push(Point::new(ix, iy + 1), Point::new(ix, iy));
                }
            }
        }

        let mut loops = Vec::new();
        // Deterministic iteration: sort start points.
        let mut starts: Vec<Point> = out_edges.keys().copied().collect();
        starts.sort();
        for start in starts {
            while let Some(first_to) = out_edges.get_mut(&start).and_then(|v| v.pop()) {
                let mut ring = vec![start, first_to];
                let mut prev = start;
                let mut cur = first_to;
                while cur != start {
                    let nexts = out_edges
                        .get_mut(&cur)
                        .expect("boundary edges form closed loops");
                    // At a checkerboard junction two continuations exist;
                    // prefer the left turn to keep the traced region simple.
                    let dir = cur - prev;
                    let left = Point::new(-dir.y, dir.x);
                    let pick = nexts
                        .iter()
                        .position(|&n| n - cur == left)
                        .unwrap_or(nexts.len() - 1);
                    let next = nexts.swap_remove(pick);
                    ring.push(next);
                    prev = cur;
                    cur = next;
                }
                ring.pop(); // drop the repeated start vertex
                collapse_collinear(&mut ring);
                if let Ok(poly) = Polygon::new(ring) {
                    loops.push(poly);
                }
            }
        }
        loops
    }

    /// The largest boundary loop by enclosed area, in frame-local nm
    /// coordinates, or `None` for an all-zero bitmap.
    pub fn largest_outer_contour(&self) -> Option<Polygon> {
        self.trace_boundaries()
            .into_iter()
            .max_by_key(|p| p.area2())
    }
}

impl fmt::Display for Bitmap {
    /// Renders the bitmap as rows of `#`/`.` characters, top row first.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for iy in (0..self.height).rev() {
            for ix in 0..self.width {
                f.write_str(if self.get(ix, iy) { "#" } else { "." })?;
            }
            f.write_str("\n")?;
        }
        Ok(())
    }
}

fn collapse_collinear(ring: &mut Vec<Point>) {
    if ring.len() < 3 {
        return;
    }
    let mut out: Vec<Point> = Vec::with_capacity(ring.len());
    let n = ring.len();
    for i in 0..n {
        let prev = ring[(i + n - 1) % n];
        let cur = ring[i];
        let next = ring[(i + 1) % n];
        if (cur - prev).cross(next - cur) != 0 {
            out.push(cur);
        }
    }
    *ring = out;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_mapping() {
        let f = Frame::new(Point::new(-5, 10), 20, 8);
        assert_eq!(f.pixel_center(0, 0), (-4.5, 10.5));
        assert_eq!(f.pixel_center(19, 7), (14.5, 17.5));
        assert_eq!(f.index(3, 2), 2 * 20 + 3);
        assert_eq!(f.pixel_of(-4.5, 10.5), Some((0, 0)));
        assert_eq!(f.pixel_of(-5.5, 10.5), None);
        assert_eq!(f.pixel_of(14.999, 17.999), Some((19, 7)));
        assert_eq!(f.pixel_of(15.1, 17.0), None);
    }

    #[test]
    fn frame_covering() {
        let r = Rect::new(0, 0, 10, 6).unwrap();
        let f = Frame::covering(r, 3);
        assert_eq!(f.origin(), Point::new(-3, -3));
        assert_eq!(f.width(), 16);
        assert_eq!(f.height(), 12);
    }

    #[test]
    fn clamp_ranges() {
        let f = Frame::new(Point::new(0, 0), 10, 10);
        // centres 0.5..9.5; [2.0, 5.0] contains centres 2.5, 3.5, 4.5.
        assert_eq!(f.clamp_x_range(2.0, 5.0), 2..5);
        assert_eq!(f.clamp_x_range(-100.0, 100.0), 0..10);
        assert_eq!(f.clamp_y_range(9.6, 20.0), 10..10);
        assert!(f.clamp_x_range(5.0, 2.0).is_empty());
    }

    #[test]
    fn bitmap_basics() {
        let mut bm = Bitmap::new(4, 3);
        assert_eq!(bm.count_ones(), 0);
        bm.set(1, 2, true);
        bm.set(3, 0, true);
        assert!(bm.get(1, 2));
        assert!(!bm.get(0, 0));
        assert!(!bm.get(100, 100));
        assert!(!bm.get_i64(-1, 0));
        assert_eq!(bm.count_ones(), 2);
        let set: Vec<_> = bm.iter_set().collect();
        assert_eq!(set, vec![(3, 0), (1, 2)]);
    }

    #[test]
    fn rasterize_square() {
        let poly = Polygon::from_rect(Rect::new(2, 2, 6, 5).unwrap());
        let frame = Frame::new(Point::new(0, 0), 8, 8);
        let bm = Bitmap::rasterize(&poly, frame);
        assert_eq!(bm.count_ones(), 4 * 3);
        assert!(bm.get(2, 2));
        assert!(bm.get(5, 4));
        assert!(!bm.get(6, 2));
        assert!(!bm.get(2, 5));
    }

    #[test]
    fn rasterize_l_shape() {
        let l = Polygon::new(vec![
            Point::new(0, 0),
            Point::new(4, 0),
            Point::new(4, 2),
            Point::new(2, 2),
            Point::new(2, 4),
            Point::new(0, 4),
        ])
        .unwrap();
        let bm = Bitmap::rasterize(&l, Frame::new(Point::new(0, 0), 5, 5));
        assert_eq!(bm.count_ones(), 8 + 4);
        assert!(bm.get(3, 1));
        assert!(!bm.get(3, 3));
    }

    #[test]
    fn rasterize_diagonal_triangle() {
        // Slope 7/8 so no pixel centre falls exactly on the hypotenuse.
        let tri = Polygon::new(vec![Point::new(0, 0), Point::new(8, 0), Point::new(0, 7)])
            .unwrap();
        let bm = Bitmap::rasterize(&tri, Frame::new(Point::new(0, 0), 8, 8));
        // Half the square minus the staircase; must match centre-in-triangle.
        for ix in 0..8 {
            for iy in 0..8 {
                let inside = tri.contains_f64(ix as f64 + 0.5, iy as f64 + 0.5);
                assert_eq!(bm.get(ix, iy), inside, "pixel ({ix},{iy})");
            }
        }
    }

    #[test]
    fn contour_of_square_round_trips() {
        let poly = Polygon::from_rect(Rect::new(1, 1, 5, 4).unwrap());
        let bm = Bitmap::rasterize(&poly, Frame::new(Point::new(0, 0), 8, 8));
        let traced = bm.largest_outer_contour().unwrap();
        assert_eq!(traced.area2(), poly.area2());
        assert_eq!(traced.bbox(), poly.bbox());
        assert_eq!(traced.len(), 4);
    }

    #[test]
    fn contour_of_l_shape() {
        let l = Polygon::new(vec![
            Point::new(0, 0),
            Point::new(4, 0),
            Point::new(4, 2),
            Point::new(2, 2),
            Point::new(2, 4),
            Point::new(0, 4),
        ])
        .unwrap();
        let bm = Bitmap::rasterize(&l, Frame::new(Point::new(0, 0), 6, 6));
        let traced = bm.largest_outer_contour().unwrap();
        assert_eq!(traced.area2(), l.area2());
        assert_eq!(traced.len(), 6);
        assert!(traced.is_rectilinear());
    }

    #[test]
    fn contour_of_disjoint_regions_picks_largest() {
        let mut bm = Bitmap::new(10, 10);
        // 3x3 block and a single pixel.
        for ix in 0..3 {
            for iy in 0..3 {
                bm.set(ix, iy, true);
            }
        }
        bm.set(8, 8, true);
        let loops = bm.trace_boundaries();
        assert_eq!(loops.len(), 2);
        let largest = bm.largest_outer_contour().unwrap();
        assert_eq!(largest.area2(), 18);
    }

    #[test]
    fn empty_bitmap_has_no_contour() {
        let bm = Bitmap::new(5, 5);
        assert!(bm.largest_outer_contour().is_none());
        assert!(bm.trace_boundaries().is_empty());
    }

    #[test]
    fn display_renders_grid() {
        let mut bm = Bitmap::new(2, 2);
        bm.set(0, 1, true);
        assert_eq!(bm.to_string(), "#.\n..\n");
    }
}
