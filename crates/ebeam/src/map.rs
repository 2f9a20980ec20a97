//! Accumulated intensity over a pixel grid, with incremental updates.
//!
//! Iterative shot refinement moves one shot edge at a time and needs the
//! total intensity `Itot = Σ_s I_s` kept up to date cheaply. Because each
//! shot's intensity is separable and has bounded support (`3σ`), adding or
//! removing a shot touches only a local window and costs
//! `O(w + h)` edge-profile evaluations plus `O(w·h)` multiply-adds.
//!
//! # Evaluation strategy and exactness contract
//!
//! Every update is *separable*: the shot's 2-D intensity over the window
//! is the outer product of two 1-D edge-profile vectors (`fx` per column,
//! `fy` per row), so a `w×h` window costs `w + h` profile evaluations —
//! never `w·h`. Profiles are `ExposureModel::edge_factor` at the pixel
//! centres, read from the model's pixel-offset table of the interpolated
//! edge-profile LUT (see [`crate::intensity`]), and the
//! multiply-add composition loops are deterministic and sequential per
//! row: `add_shot` / `remove_shot` and
//! the row-visiting kernels `IntensityMap::apply_shot_rows` /
//! `IntensityMap::replace_shot_rows` all produce byte-identical grids for
//! the same mutation sequence, which is what the refinement parity harness
//! pins.

use crate::intensity::ExposureModel;
use maskfrac_geom::{Frame, Rect};

/// `row[i] += fx[i] * fyv` across a window row, four lanes at a time.
///
/// Every pixel's update is independent, so chunking into explicit
/// `[f64; 4]`-shaped blocks is bit-exact with the scalar loop — the
/// fixed lane width just hands the backend straight-line vector code
/// instead of relying on the autovectorizer's judgement, and keeps the
/// result invariant under any future re-tiling of the surrounding loop.
#[inline]
fn axpy_row(row: &mut [f64], fx: &[f64], fyv: f64) {
    debug_assert_eq!(row.len(), fx.len());
    let mut rows = row.chunks_exact_mut(4);
    let mut fxs = fx.chunks_exact(4);
    for (r, f) in rows.by_ref().zip(fxs.by_ref()) {
        r[0] += f[0] * fyv;
        r[1] += f[1] * fyv;
        r[2] += f[2] * fyv;
        r[3] += f[3] * fyv;
    }
    for (v, &f) in rows.into_remainder().iter_mut().zip(fxs.remainder()) {
        *v += f * fyv;
    }
}

/// Total-intensity grid for a set of shots on a pixel frame.
///
/// The map does not own the shot list — callers (the fracturers) do — it
/// only maintains `Itot` under [`add_shot`](Self::add_shot) /
/// [`remove_shot`](Self::remove_shot) so the two stay consistent by
/// construction as long as every mutation is mirrored.
///
/// # Example
///
/// ```
/// use maskfrac_ebeam::{ExposureModel, IntensityMap};
/// use maskfrac_geom::{Frame, Point, Rect};
///
/// let model = ExposureModel::paper_default();
/// let frame = Frame::new(Point::new(-20, -20), 90, 90);
/// let mut map = IntensityMap::new(model, frame);
/// let shot = Rect::new(0, 0, 50, 50).expect("rect");
/// map.add_shot(&shot);
/// let (ix, iy) = (45, 45); // pixel centred at (25.5, 25.5) nm
/// assert!(map.value(ix, iy) > 0.99);
/// map.remove_shot(&shot);
/// assert!(map.value(ix, iy).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct IntensityMap {
    model: ExposureModel,
    frame: Frame,
    values: Vec<f64>,
    // Grow-only scratch for per-application edge factors, reused across
    // calls so the steady-state hot path performs no heap allocation.
    // Two pairs: `replace_shot_rows` needs both rects' factors live at once.
    fx: Vec<f64>,
    fy: Vec<f64>,
    fx2: Vec<f64>,
    fy2: Vec<f64>,
    // The pre-update copy of the row the `*_rows` kernels hand out.
    prev: Vec<f64>,
}

impl IntensityMap {
    /// Creates an all-zero intensity map over `frame`.
    pub fn new(model: ExposureModel, frame: Frame) -> Self {
        IntensityMap::with_values(model, frame, Vec::new())
    }

    /// Creates an all-zero intensity map over `frame`, recycling `values`
    /// as the backing store (grown if too small, never shrunk).
    ///
    /// This is the scratch-arena entry point: the fracturer's per-worker
    /// `FractureScratch` hands the previous shape's buffer back so
    /// steady-state layout fracturing allocates nothing per shape.
    pub fn with_values(model: ExposureModel, frame: Frame, mut values: Vec<f64>) -> Self {
        values.clear();
        values.resize(frame.len(), 0.0);
        IntensityMap {
            model,
            frame,
            values,
            fx: Vec::new(),
            fy: Vec::new(),
            fx2: Vec::new(),
            fy2: Vec::new(),
            prev: Vec::new(),
        }
    }

    /// Consumes the map, returning the backing value buffer for reuse.
    pub fn into_values(self) -> Vec<f64> {
        self.values
    }

    /// The exposure model.
    #[inline]
    pub fn model(&self) -> &ExposureModel {
        &self.model
    }

    /// The pixel frame.
    #[inline]
    pub(crate) fn frame(&self) -> Frame {
        self.frame
    }

    /// Total intensity at pixel `(ix, iy)`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the pixel is out of range.
    #[inline]
    pub fn value(&self, ix: usize, iy: usize) -> f64 {
        self.values[self.frame.index(ix, iy)]
    }

    /// Contiguous intensity values of row `iy` restricted to columns `xs`.
    ///
    /// The candidate-scoring inner loop iterates millions of window pixels;
    /// handing out the row slice once removes the per-pixel index
    /// arithmetic and bounds checks of [`IntensityMap::value`].
    ///
    /// # Panics
    ///
    /// Panics if the row or column range is out of frame.
    #[inline]
    pub(crate) fn row(&self, iy: usize, xs: std::ops::Range<usize>) -> &[f64] {
        let base = self.frame.index(0, iy);
        &self.values[base + xs.start..base + xs.end]
    }

    /// Adds a shot's intensity.
    pub fn add_shot(&mut self, shot: &Rect) {
        self.apply_shot(shot, 1.0);
    }

    /// Removes a previously added shot's intensity.
    pub fn remove_shot(&mut self, shot: &Rect) {
        self.apply_shot(shot, -1.0);
    }

    /// Replaces `old` with `new` (e.g. after an edge move) in a single
    /// pass over the union of the two affected windows, bit-exact with
    /// `remove_shot` + `add_shot`, handing each updated row of the union
    /// window to `visit` as `(iy, x0, old_row, new_row)`: the row's
    /// values before and after the update, starting at column `x0`.
    ///
    /// For the common small-edge-move case the windows almost coincide, so
    /// fusing subtract-and-add into one traversal halves the memory walked
    /// versus two passes. Bit-exact with the two-pass path: per pixel the
    /// operations are independent f64 adds applied in the same order
    /// (old's subtraction before new's addition), each restricted to its
    /// own rect's affected window. A row that both windows cross is
    /// reported over the hull of their column ranges; columns in neither
    /// window come back unchanged.
    pub(crate) fn replace_shot_rows<F: FnMut(usize, usize, &[f64], &[f64])>(
        &mut self,
        old: &Rect,
        new: &Rect,
        mut visit: F,
    ) {
        let (xs_o, ys_o) = self.affected_window(old);
        let (xs_n, ys_n) = self.affected_window(new);
        let old_live = !xs_o.is_empty() && !ys_o.is_empty();
        let new_live = !xs_n.is_empty() && !ys_n.is_empty();
        if !old_live || !new_live {
            // At most one side touches the frame: nothing to fuse.
            if old_live {
                self.apply_shot_rows(old, -1.0, visit);
            } else if new_live {
                self.apply_shot_rows(new, 1.0, visit);
            }
            return;
        }
        maskfrac_obs::counter!("ebeam.kernel.convolutions").add(2);
        let (mut fx_o, mut fy_o) = (std::mem::take(&mut self.fx), std::mem::take(&mut self.fy));
        let (mut fx_n, mut fy_n) = (std::mem::take(&mut self.fx2), std::mem::take(&mut self.fy2));
        let mut prev = std::mem::take(&mut self.prev);
        self.fill_edge_factors(old, &xs_o, &ys_o, &mut fx_o, &mut fy_o);
        self.fill_edge_factors(new, &xs_n, &ys_n, &mut fx_n, &mut fy_n);
        let width = self.frame.width();
        for iy in ys_o.start.min(ys_n.start)..ys_o.end.max(ys_n.end) {
            let (in_o, in_n) = (ys_o.contains(&iy), ys_n.contains(&iy));
            let xs = match (in_o, in_n) {
                (true, true) => xs_o.start.min(xs_n.start)..xs_o.end.max(xs_n.end),
                (true, false) => xs_o.clone(),
                (false, true) => xs_n.clone(),
                (false, false) => continue, // between disjoint windows
            };
            let row = &mut self.values[iy * width + xs.start..iy * width + xs.end];
            prev.clear();
            prev.extend_from_slice(row);
            if in_o {
                let fyv = -fy_o[iy - ys_o.start];
                let cols = xs_o.start - xs.start..xs_o.end - xs.start;
                axpy_row(&mut row[cols], &fx_o, fyv);
            }
            if in_n {
                let fyv = fy_n[iy - ys_n.start];
                let cols = xs_n.start - xs.start..xs_n.end - xs.start;
                axpy_row(&mut row[cols], &fx_n, fyv);
            }
            visit(iy, xs.start, &prev, row);
        }
        (self.fx, self.fy) = (fx_o, fy_o);
        (self.fx2, self.fy2) = (fx_n, fy_n);
        self.prev = prev;
    }

    /// Pixel-index window over which `shot`'s intensity is non-negligible.
    pub(crate) fn affected_window(
        &self,
        shot: &Rect,
    ) -> (std::ops::Range<usize>, std::ops::Range<usize>) {
        let r = self.model.support_radius_px() as f64;
        let xs = self
            .frame
            .clamp_x_range(shot.x0() as f64 - r, shot.x1() as f64 + r);
        let ys = self
            .frame
            .clamp_y_range(shot.y0() as f64 - r, shot.y1() as f64 + r);
        (xs, ys)
    }

    /// Recomputes the map from scratch for the given shot set.
    ///
    /// Seeds refinement's map from its initial shot list, and lets tests
    /// and consistency checks confirm that a sequence of incremental
    /// updates did not drift.
    pub fn rebuild<'a, I: IntoIterator<Item = &'a Rect>>(&mut self, shots: I) {
        self.values.iter_mut().for_each(|v| *v = 0.0);
        for s in shots {
            self.add_shot(s);
        }
    }

    /// Maximum absolute difference from another map of identical frame.
    ///
    /// # Panics
    ///
    /// Panics if the frames differ.
    pub fn max_abs_diff(&self, other: &IntensityMap) -> f64 {
        assert_eq!(self.frame, other.frame, "frames must match");
        self.values
            .iter()
            .zip(&other.values)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    /// Fills `fx`/`fy` with the shot's separable edge factors over the
    /// window — one per column/row. Buffers are cleared and re-filled in
    /// place (grow-only, no steady-state allocation).
    pub(crate) fn fill_edge_factors(
        &self,
        shot: &Rect,
        xs: &std::ops::Range<usize>,
        ys: &std::ops::Range<usize>,
        fx: &mut Vec<f64>,
        fy: &mut Vec<f64>,
    ) {
        let origin = self.frame.origin();
        self.model
            .fill_pixel_edge_factors(shot.x0(), shot.x1(), origin.x, xs.clone(), fx);
        self.model
            .fill_pixel_edge_factors(shot.y0(), shot.y1(), origin.y, ys.clone(), fy);
    }

    fn apply_shot(&mut self, shot: &Rect, sign: f64) {
        let (xs, ys) = self.affected_window(shot);
        if xs.is_empty() || ys.is_empty() {
            return;
        }
        maskfrac_obs::counter!("ebeam.kernel.convolutions").incr();
        let (mut fx, mut fy) = (std::mem::take(&mut self.fx), std::mem::take(&mut self.fy));
        self.fill_edge_factors(shot, &xs, &ys, &mut fx, &mut fy);
        let width = self.frame.width();
        for (j, iy) in ys.clone().enumerate() {
            let base = iy * width;
            let fyv = fy[j] * sign;
            // Explicit four-lane multiply-add over contiguous slices, the
            // same per-pixel `old + fx·fyv` as `apply_shot_rows`.
            axpy_row(&mut self.values[base + xs.start..base + xs.end], &fx, fyv);
        }
        (self.fx, self.fy) = (fx, fy);
    }

    /// Applies `sign ×` the shot's intensity, handing each updated window
    /// row to `visit` as `(iy, x0, old_row, new_row)`: the row's values
    /// before and after the update, starting at column `x0`.
    ///
    /// This is the hook incremental violation tracking hangs off
    /// ([`crate::violations::ViolationTracker`]): the caller sees the
    /// exact per-pixel transition the map performs, so a running failure
    /// summary stays consistent with a from-scratch re-evaluation of the
    /// final map. The new values are bit-identical to
    /// [`add_shot`](Self::add_shot) / [`remove_shot`](Self::remove_shot);
    /// the old row is copied into grow-only scratch first, so the call
    /// allocates nothing in steady state.
    pub(crate) fn apply_shot_rows<F: FnMut(usize, usize, &[f64], &[f64])>(
        &mut self,
        shot: &Rect,
        sign: f64,
        mut visit: F,
    ) {
        let (xs, ys) = self.affected_window(shot);
        if xs.is_empty() || ys.is_empty() {
            return;
        }
        maskfrac_obs::counter!("ebeam.kernel.convolutions").incr();
        let (mut fx, mut fy) = (std::mem::take(&mut self.fx), std::mem::take(&mut self.fy));
        let mut prev = std::mem::take(&mut self.prev);
        self.fill_edge_factors(shot, &xs, &ys, &mut fx, &mut fy);
        let width = self.frame.width();
        for (j, iy) in ys.clone().enumerate() {
            let row = &mut self.values[iy * width + xs.start..iy * width + xs.end];
            prev.clear();
            prev.extend_from_slice(row);
            axpy_row(row, &fx, fy[j] * sign);
            visit(iy, xs.start, &prev, row);
        }
        (self.fx, self.fy) = (fx, fy);
        self.prev = prev;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maskfrac_geom::Point;

    fn map() -> IntensityMap {
        IntensityMap::new(
            ExposureModel::paper_default(),
            Frame::new(Point::new(-25, -25), 120, 120),
        )
    }

    #[test]
    fn add_matches_direct_evaluation() {
        let mut m = map();
        let shot = Rect::new(0, 0, 40, 30).unwrap();
        m.add_shot(&shot);
        for &(ix, iy) in &[(30usize, 30usize), (25, 25), (70, 40), (5, 5)] {
            let (x, y) = m.frame().pixel_center(ix, iy);
            let want = m.model().shot_intensity(&shot, x, y);
            assert!(
                (m.value(ix, iy) - want).abs() < 1e-12,
                "pixel ({ix}, {iy})"
            );
        }
    }

    #[test]
    fn add_then_remove_is_identity() {
        let mut m = map();
        let a = Rect::new(0, 0, 40, 30).unwrap();
        let b = Rect::new(20, 10, 60, 55).unwrap();
        m.add_shot(&a);
        m.add_shot(&b);
        m.remove_shot(&a);
        m.remove_shot(&b);
        let zero = map();
        assert!(m.max_abs_diff(&zero) < 1e-12);
    }

    #[test]
    fn incremental_matches_rebuild() {
        let mut m = map();
        let shots = vec![
            Rect::new(0, 0, 30, 30).unwrap(),
            Rect::new(25, 5, 65, 40).unwrap(),
            Rect::new(-10, 20, 20, 70).unwrap(),
        ];
        for s in &shots {
            m.add_shot(s);
        }
        // Jiggle: remove/re-add with a moved edge, then undo.
        let moved = shots[1].with_edge(maskfrac_geom::rect::Edge::Right, 70).unwrap();
        m.replace_shot_rows(&shots[1], &moved, |_, _, _, _| {});
        m.replace_shot_rows(&moved, &shots[1], |_, _, _, _| {});

        let mut fresh = map();
        fresh.rebuild(shots.iter());
        assert!(m.max_abs_diff(&fresh) < 1e-12);
    }

    #[test]
    fn shot_outside_frame_is_noop() {
        let mut m = map();
        let far = Rect::new(4000, 4000, 4100, 4100).unwrap();
        m.add_shot(&far);
        let zero = map();
        assert_eq!(m.max_abs_diff(&zero), 0.0);
    }

    #[test]
    fn overlapping_shots_accumulate() {
        let mut m = map();
        let s = Rect::new(0, 0, 40, 40).unwrap();
        m.add_shot(&s);
        m.add_shot(&s);
        let (ix, iy) = (45usize, 45usize); // centre (20.5, 20.5)
        assert!((m.value(ix, iy) - 2.0).abs() < 1e-4, "double dose saturates at 2");
    }

    #[test]
    fn fused_replace_matches_two_pass_bitwise() {
        // The fused union-window pass must be indistinguishable from
        // remove+add down to the last ULP — greedy refinement decisions
        // key off exact f64 values.
        let base = vec![
            Rect::new(0, 0, 30, 30).unwrap(),
            Rect::new(25, 5, 65, 40).unwrap(),
            Rect::new(-10, 20, 20, 70).unwrap(),
        ];
        let moves = [
            // Small edge move: windows almost coincide (the common case).
            (Rect::new(25, 5, 65, 40).unwrap(), Rect::new(25, 5, 67, 40).unwrap()),
            // Disjoint relocation: union window is two separated bands.
            (Rect::new(0, 0, 30, 30).unwrap(), Rect::new(50, 60, 80, 90).unwrap()),
            // Partially off-frame on one side.
            (Rect::new(-10, 20, 20, 70).unwrap(), Rect::new(-40, 20, -10, 70).unwrap()),
            // Entirely off-frame old (degenerate fallback branch).
            (Rect::new(4000, 4000, 4100, 4100).unwrap(), Rect::new(10, 10, 40, 40).unwrap()),
        ];
        for (old, new) in &moves {
            let mut fused = map();
            let mut twopass = map();
            for s in &base {
                fused.add_shot(s);
                twopass.add_shot(s);
            }
            let before = fused.clone();
            let mut rows = Vec::new();
            fused.replace_shot_rows(old, new, |iy, x0, o, n| {
                rows.push((iy, x0, o.to_vec(), n.to_vec()))
            });
            twopass.remove_shot(old);
            twopass.add_shot(new);
            assert_rows_report_the_update(&before, &fused, &rows);
            let (w, h) = (fused.frame().width(), fused.frame().height());
            for iy in 0..h {
                for ix in 0..w {
                    assert_eq!(
                        fused.value(ix, iy).to_bits(),
                        twopass.value(ix, iy).to_bits(),
                        "pixel ({ix}, {iy}) for move {old:?} -> {new:?}"
                    );
                }
            }
        }
    }

    /// Rows a `*_rows` kernel reported, as `(iy, x0, old_row, new_row)`.
    type Rows = Vec<(usize, usize, Vec<f64>, Vec<f64>)>;

    /// The reported rows hold exactly the values of `before` and `after`,
    /// and cover every pixel whose value changed.
    fn assert_rows_report_the_update(before: &IntensityMap, after: &IntensityMap, rows: &Rows) {
        let (w, h) = (after.frame().width(), after.frame().height());
        let mut covered = vec![false; w * h];
        for (iy, x0, old, new) in rows {
            assert_eq!(old.len(), new.len());
            for (k, (o, n)) in old.iter().zip(new).enumerate() {
                assert_eq!(o.to_bits(), before.value(x0 + k, *iy).to_bits());
                assert_eq!(n.to_bits(), after.value(x0 + k, *iy).to_bits());
                covered[iy * w + x0 + k] = true;
            }
        }
        for iy in 0..h {
            for ix in 0..w {
                let changed = before.value(ix, iy).to_bits() != after.value(ix, iy).to_bits();
                assert!(
                    !changed || covered[iy * w + ix],
                    "pixel ({ix}, {iy}) unreported"
                );
            }
        }
    }

    #[test]
    fn apply_rows_match_add_and_remove_bitwise() {
        let a = Rect::new(0, 0, 30, 30).unwrap();
        let b = Rect::new(25, 5, 65, 40).unwrap();
        let (mut rowwise, mut plain) = (map(), map());
        let far = Rect::new(-40, 20, -10, 70).unwrap();
        for (shot, sign) in [(a, 1.0), (b, 1.0), (a, -1.0), (far, 1.0)] {
            let before = rowwise.clone();
            let mut rows = Vec::new();
            rowwise.apply_shot_rows(&shot, sign, |iy, x0, o, n| {
                rows.push((iy, x0, o.to_vec(), n.to_vec()))
            });
            if sign > 0.0 {
                plain.add_shot(&shot);
            } else {
                plain.remove_shot(&shot);
            }
            assert_rows_report_the_update(&before, &rowwise, &rows);
            assert!(!rows.is_empty());
            let bits = |m: &IntensityMap| m.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&rowwise), bits(&plain), "{shot} ({sign})");
        }
    }

    #[test]
    fn window_clamps_to_frame() {
        let m = map();
        let shot = Rect::new(-100, -100, -30, 200).unwrap();
        let (xs, ys) = m.affected_window(&shot);
        assert!(xs.start == 0);
        assert!(xs.end <= m.frame().width());
        assert!(ys.start == 0 && ys.end == m.frame().height());
    }
}
