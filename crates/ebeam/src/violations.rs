//! Failing pixels and the shot-refinement cost function.
//!
//! A pixel *fails* (paper Eq. 4) when it is in `Pon` with `Itot < ρ` or in
//! `Poff` with `Itot ≥ ρ`. Shot refinement minimizes the continuous cost
//! (paper Eq. 5)
//!
//! ```text
//! cost_ref = Σ_{p ∈ Pfail} |Itot(p) − ρ|
//! ```
//!
//! which is a more sensitive progress signal than the raw failing-pixel
//! count.

use crate::classify::{Classification, PixelClass};
use crate::intensity::ExposureModel;
use crate::map::IntensityMap;
use maskfrac_geom::{Bitmap, Rect};

/// Aggregate violation state of a fracturing solution.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FailureSummary {
    /// Failing pixels in `Pon` (under-exposed target interior).
    pub on_fails: usize,
    /// Failing pixels in `Poff` (over-exposed surround).
    pub off_fails: usize,
    /// The continuous refinement cost `Σ |Itot − ρ|` over failing pixels.
    pub cost: f64,
}

impl FailureSummary {
    /// Total failing pixel count `|Pfail|`.
    #[inline]
    pub fn fail_count(&self) -> usize {
        self.on_fails + self.off_fails
    }

    /// Whether the solution satisfies every constrained pixel.
    #[inline]
    pub fn is_feasible(&self) -> bool {
        self.fail_count() == 0
    }
}

/// Cost contribution of one pixel: `|I − ρ|` if the pixel fails, else 0.
#[inline]
pub(crate) fn pixel_cost(class: PixelClass, intensity: f64, rho: f64) -> f64 {
    match class {
        PixelClass::On if intensity < rho => rho - intensity,
        PixelClass::Off if intensity >= rho => intensity - rho,
        _ => 0.0,
    }
}

/// Whether a pixel of the given class fails at the given intensity.
#[inline]
pub(crate) fn pixel_fails(class: PixelClass, intensity: f64, rho: f64) -> bool {
    match class {
        PixelClass::On => intensity < rho,
        PixelClass::Off => intensity >= rho,
        PixelClass::Band => false,
    }
}

/// Evaluates the failure summary of the current intensity map by a full
/// scan over the frame.
///
/// # Panics
///
/// Panics if the classification and map frames differ.
pub fn evaluate(cls: &Classification, map: &IntensityMap) -> FailureSummary {
    scan(cls, map, |_, _, _, _, _| {})
}

/// The full-frame scan behind [`evaluate`], reporting every constrained
/// pixel to `visit` as `(ix, iy, class, intensity, fails)` so
/// [`ViolationTracker`] can count its tiles and mark its live pixels in
/// the same pass.
fn scan(
    cls: &Classification,
    map: &IntensityMap,
    mut visit: impl FnMut(usize, usize, PixelClass, f64, bool),
) -> FailureSummary {
    assert_eq!(cls.frame(), map.frame(), "frames must match");
    maskfrac_obs::counter!("ebeam.intensity.evaluations").incr();
    let rho = map.model().rho();
    let mut summary = FailureSummary::default();
    for iy in 0..cls.frame().height() {
        for ix in 0..cls.frame().width() {
            let class = cls.class(ix, iy);
            if class == PixelClass::Band {
                continue;
            }
            let i = map.value(ix, iy);
            let fails = pixel_fails(class, i, rho);
            if fails {
                match class {
                    PixelClass::On => summary.on_fails += 1,
                    PixelClass::Off => summary.off_fails += 1,
                    PixelClass::Band => unreachable!(),
                }
                summary.cost += (i - rho).abs();
            }
            visit(ix, iy, class, i, fails);
        }
    }
    summary
}

/// Side, in pixels, of the square tiles [`ViolationTracker`] counts
/// failing pixels in.
const TILE_PX: usize = 16;

/// Tile-count lane of a constrained class: failing `Pon` pixels in lane
/// 0, failing `Poff` pixels in lane 1.
#[inline]
fn lane(class: PixelClass) -> usize {
    match class {
        PixelClass::On => 0,
        PixelClass::Off => 1,
        PixelClass::Band => unreachable!("band pixels never fail"),
    }
}

/// Row-major index of the tile holding pixel `(ix, iy)` in a frame
/// `tiles_x` tiles wide.
#[inline]
fn tile_index(tiles_x: usize, ix: usize, iy: usize) -> usize {
    (iy / TILE_PX) * tiles_x + ix / TILE_PX
}

/// Half-width of the band around `ρ` inside which a passing pixel is
/// *live* for [`ViolationTracker::score_strip`]: twice the peak edge
/// factor of a 1 nm strip (`≈ 0.180` at the paper's σ = 6.25 nm).
///
/// A strip is scored over live pixels only when its peak intensity is at
/// most this band less [`SPARSE_MARGIN`]. That admits every 1 and 2 nm
/// edge strip (their peaks are at most that band, `≈ 0.090` and `≈ 0.178`
/// at σ = 6.25 nm, times an along-edge factor `<= 1`) and leaves wider
/// strips and whole-shot probes on the dense scan. See
/// `docs/performance.md`, "Live-pixel scoring".
fn live_band(model: &ExposureModel) -> f64 {
    2.0 * model.edge_factor(0.0, 1.0, 0.5)
}

/// Slack below the live band that a strip's peak must leave for the
/// sparse walk: a pixel outside the band still passes the move with at
/// least this margin, far above `f64` rounding at intensities `<= 1`.
const SPARSE_MARGIN: f64 = 1e-9;

/// Whether a pixel is live: constrained, and failing or within `band`
/// of `ρ`.
#[inline]
fn is_live(class: PixelClass, fails: bool, intensity: f64, rho: f64, band: f64) -> bool {
    class != PixelClass::Band && (fails || (intensity - rho).abs() <= band)
}

/// Bits per word of the live-pixel mask.
const WORD_PX: usize = 64;

/// One strip scored by [`ViolationTracker::score_strip`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StripScore {
    /// The change in `cost_ref`, bit-identical to [`cost_delta_for_strip`].
    pub delta: f64,
    /// Pixels whose cost term was computed.
    pub px_scanned: u64,
    /// Whether only live pixels were visited (`false`: the strip's peak
    /// exceeded the live band's margin and the dense window scan ran).
    pub sparse: bool,
}

/// A running [`FailureSummary`] kept in lockstep with an
/// [`IntensityMap`].
///
/// Iterative refinement (paper §4) historically re-evaluated the whole
/// frame every iteration to learn how many pixels fail; with bounded 3σ
/// kernel support that is almost all wasted work, because one accepted
/// edge move only changes intensities inside the moved strip's support
/// window. The tracker rides the row kernels
/// `IntensityMap::apply_shot_rows` / `IntensityMap::replace_shot_rows`
/// instead: every mutation routed through [`apply`](Self::apply) or
/// [`replace`](Self::replace) updates the failing `Pon`/`Poff` counts from
/// the exact per-pixel transitions the map performs, visiting only the
/// pixels that were live or that crossed or neared `ρ`, so the counts equal
/// what [`evaluate`] would return on the final map (bit-for-bit for the
/// counts; the continuous cost accumulates in a different order and may
/// drift by a few ULPs).
///
/// The same transitions keep per-tile counts of failing `Pon` and failing
/// `Poff` pixels over 16×16 px tiles, which back the exact candidate
/// screen [`may_improve`](Self::may_improve), and a per-pixel mask of
/// *live* pixels (constrained, and failing or near `ρ`), which backs the
/// exact sparse scorer [`score_strip`](Self::score_strip).
///
/// # Example
///
/// ```
/// use maskfrac_ebeam::violations::{evaluate, ViolationTracker};
/// use maskfrac_ebeam::{Classification, ExposureModel, IntensityMap};
/// use maskfrac_geom::{Polygon, Rect};
///
/// let target = Polygon::from_rect(Rect::new(0, 0, 40, 40).unwrap());
/// let model = ExposureModel::paper_default();
/// let cls = Classification::build(&target, 2.0, model.support_radius_px() + 2);
/// let mut map = IntensityMap::new(model, cls.frame());
/// let mut tracker = ViolationTracker::new(&cls, &map);
/// tracker.apply(&cls, &mut map, &Rect::new(0, 0, 40, 40).unwrap(), 1.0);
/// assert_eq!(tracker.summary().fail_count(), evaluate(&cls, &map).fail_count());
/// ```
#[derive(Debug, Clone)]
pub struct ViolationTracker {
    summary: FailureSummary,
    /// Tile columns of the frame.
    tiles_x: usize,
    /// Failing-pixel counts per tile, row-major, one [`lane`] each.
    tiles: Vec<[u32; 2]>,
    /// Mask words per frame row.
    words_x: usize,
    /// Live pixels ([`is_live`]), one bit per pixel: pixel `(ix, iy)` is
    /// bit `ix % 64` of word `iy * words_x + ix / 64`.
    live: Vec<u64>,
    /// [`live_band`] of the map's model.
    band: f64,
    /// Pixels folded into the books since the last
    /// [`publish_px_tracked`](Self::publish_px_tracked).
    px_tracked: u64,
}

impl ViolationTracker {
    /// Starts tracking from a full evaluation of the current map.
    ///
    /// # Panics
    ///
    /// Panics if the classification and map frames differ.
    pub fn new(cls: &Classification, map: &IntensityMap) -> Self {
        let mut tracker = ViolationTracker {
            summary: FailureSummary::default(),
            tiles_x: 0,
            tiles: Vec::new(),
            words_x: 0,
            live: Vec::new(),
            band: 0.0,
            px_tracked: 0,
        };
        tracker.resync(cls, map);
        tracker
    }

    /// The current running summary.
    #[inline]
    pub fn summary(&self) -> FailureSummary {
        self.summary
    }

    /// Applies `sign ×` the rect's intensity to the map while folding the
    /// per-pixel failure transitions into the running summary.
    ///
    /// Every map mutation must go through here (or
    /// [`replace`](Self::replace), or be followed by
    /// [`resync`](Self::resync)) for the summary to stay valid.
    ///
    /// Only the pixels whose books can change are visited: per 64-px word
    /// of a row, those that were live before the update or that crossed
    /// `ρ` or ended within the live band of it. They are visited in the
    /// row-major order of a full visit, so the counts, tiles, live mask
    /// and running cost are bit-identical to folding in every pixel of the
    /// support window. See `docs/performance.md`, "Sparse apply and fused
    /// bias".
    pub fn apply(&mut self, cls: &Classification, map: &mut IntensityMap, rect: &Rect, sign: f64) {
        debug_assert_eq!(cls.frame(), map.frame(), "frames must match");
        let rho = map.model().rho();
        map.apply_shot_rows(rect, sign, |iy, x0, old, new| {
            self.track_row(cls, rho, iy, x0, old, new);
        });
    }

    /// Replaces `old` with `new` in the map (`IntensityMap::replace_shot_rows`)
    /// and folds each pixel's before/after pair into the books in one
    /// pass.
    ///
    /// The map, counts, tiles and live mask end exactly as after
    /// `apply(old, -1.0)` then `apply(new, 1.0)`. The running cost may
    /// differ from that pair by a few ULPs: a pixel inside both shots is
    /// folded in once, instead of being removed and added back.
    pub fn replace(
        &mut self,
        cls: &Classification,
        map: &mut IntensityMap,
        old: &Rect,
        new: &Rect,
    ) {
        debug_assert_eq!(cls.frame(), map.frame(), "frames must match");
        let rho = map.model().rho();
        map.replace_shot_rows(old, new, |iy, x0, before, after| {
            self.track_row(cls, rho, iy, x0, before, after);
        });
    }

    /// Publishes the pixels folded into the books since the last call as
    /// the `ebeam.apply.px_tracked` counter (once per batch of updates,
    /// not per update, to keep the shared counter off the hot path).
    pub fn publish_px_tracked(&mut self) {
        maskfrac_obs::counter!("ebeam.apply.px_tracked").add(std::mem::take(&mut self.px_tracked));
    }

    /// Folds one updated map row, columns `x0..` of row `iy` going from
    /// `old` to `new`, into the books.
    ///
    /// Per 64-px word it visits, in ascending `ix`, the pixels that were
    /// live before the update or that `hit`: crossed `ρ` or ended within
    /// the live band of it. Every other pixel is `Band`, or passed with a
    /// margin above the band and stays on the same side of `ρ` with a
    /// margin still above it: its pass/fail state and its live bit are
    /// unchanged and its cost term is `+0.0` before and after, so
    /// [`track`](Self::track) would leave the books untouched.
    fn track_row(
        &mut self,
        cls: &Classification,
        rho: f64,
        iy: usize,
        x0: usize,
        old: &[f64],
        new: &[f64],
    ) {
        let (x1, band) = (x0 + new.len(), self.band);
        for w in x0 / WORD_PX..x1.div_ceil(WORD_PX) {
            let (lo, hi) = ((w * WORD_PX).max(x0), ((w + 1) * WORD_PX).min(x1));
            let mut hit = 0u64;
            let pairs = old[lo - x0..hi - x0].iter().zip(&new[lo - x0..hi - x0]);
            for (bit, (&o, &n)) in (lo % WORD_PX..).zip(pairs) {
                let crossed = (o < rho) != (n < rho);
                let near = (n - rho).abs() <= band;
                hit |= u64::from(crossed | near) << bit;
            }
            let cols = (!0u64 >> (WORD_PX - (hi - lo))) << (lo % WORD_PX);
            let mut bits = (self.live[iy * self.words_x + w] & cols) | hit;
            self.px_tracked += u64::from(bits.count_ones());
            while bits != 0 {
                let ix = w * WORD_PX + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                self.track(cls, rho, ix, iy, old[ix - x0], new[ix - x0]);
            }
        }
    }

    /// Folds one pixel's transition from `old` to `new` into the failing
    /// counts, the tile counts, the live mask and the running cost.
    #[inline]
    fn track(&mut self, cls: &Classification, rho: f64, ix: usize, iy: usize, old: f64, new: f64) {
        if old.to_bits() == new.to_bits() {
            return; // zero edge factor: nothing changed
        }
        let class = cls.class(ix, iy);
        if class == PixelClass::Band {
            return;
        }
        let fails = pixel_fails(class, new, rho);
        let failed = pixel_fails(class, old, rho);
        let band = self.band;
        if is_live(class, fails, new, rho, band) != is_live(class, failed, old, rho, band) {
            self.live[iy * self.words_x + ix / WORD_PX] ^= 1 << (ix % WORD_PX);
        }
        if fails != failed {
            let count = match class {
                PixelClass::On => &mut self.summary.on_fails,
                PixelClass::Off => &mut self.summary.off_fails,
                PixelClass::Band => unreachable!(),
            };
            let tile = &mut self.tiles[tile_index(self.tiles_x, ix, iy)][lane(class)];
            if fails {
                *count += 1;
                *tile += 1;
            } else {
                *count -= 1;
                *tile -= 1;
            }
        }
        // A pixel passing before and after would add an exact +0.0,
        // which leaves the (never −0.0) running cost unchanged.
        if fails || failed {
            self.summary.cost += pixel_cost(class, new, rho) - pixel_cost(class, old, rho);
        }
    }

    /// Re-derives the summary, the tile counts and the live mask from one
    /// full scan (used after mutations that bypassed
    /// [`apply`](Self::apply), and by consistency checks).
    pub fn resync(&mut self, cls: &Classification, map: &IntensityMap) {
        let frame = cls.frame();
        let tiles_x = frame.width().div_ceil(TILE_PX);
        let words_x = frame.width().div_ceil(WORD_PX);
        let (rho, band) = (map.model().rho(), live_band(map.model()));
        let (tiles, live) = (&mut self.tiles, &mut self.live);
        tiles.clear();
        tiles.resize(tiles_x * frame.height().div_ceil(TILE_PX), [0, 0]);
        live.clear();
        live.resize(words_x * frame.height(), 0);
        self.tiles_x = tiles_x;
        self.words_x = words_x;
        self.band = band;
        self.summary = scan(cls, map, |ix, iy, class, i, fails| {
            if fails {
                tiles[tile_index(tiles_x, ix, iy)][lane(class)] += 1;
            }
            if is_live(class, fails, i, rho, band) {
                live[iy * words_x + ix / WORD_PX] |= 1 << (ix % WORD_PX);
            }
        });
    }

    /// [`cost_delta_for_strip`], bit for bit, visiting only live pixels
    /// when that is exact.
    ///
    /// Edge factors are `>= 0`, so the move changes no pixel's intensity
    /// by more than the strip's peak `max(fx) · max(fy)`. When that peak
    /// is at most the live band less a fixed slack `δ = 1e-9`, a pixel
    /// that is not live passes with a margin above the band, still passes
    /// after the move with a margin above `δ`, and its cost term is an
    /// exact `±0.0`. The dense scan's lane
    /// accumulators start at `+0.0` and can never become `−0.0`, so
    /// adding such a term leaves them unchanged: walking only the live
    /// bits of each window row in ascending `ix`, into the same lane
    /// `(ix − xs.start) & 3`, reproduces every lane sum exactly. Strips
    /// with a larger peak take the dense scan.
    pub fn score_strip(
        &self,
        cls: &Classification,
        map: &IntensityMap,
        strip: &Rect,
        sign: f64,
    ) -> StripScore {
        strip_score(cls, map, strip, sign, Some(self))
    }

    /// The sparse window scan of [`score_strip`](Self::score_strip): the
    /// dense scan's terms and lanes, restricted to live pixels. Returns
    /// the delta and the number of terms computed.
    #[allow(clippy::too_many_arguments)]
    fn live_scored_delta(
        &self,
        cls: &Classification,
        map: &IntensityMap,
        fx: &[f64],
        fy: &[f64],
        sign: f64,
        rho: f64,
        xs: &std::ops::Range<usize>,
        ys: &std::ops::Range<usize>,
    ) -> (f64, u64) {
        let mut acc = [0.0f64; 4];
        let mut scanned = 0u64;
        let (w0, w1) = (xs.start / WORD_PX, (xs.end - 1) / WORD_PX);
        // Masks of the window's columns in its first and last word.
        let head = !0u64 << (xs.start % WORD_PX);
        let tail = !0u64 >> (WORD_PX - 1 - (xs.end - 1) % WORD_PX);
        for (j, iy) in ys.clone().enumerate() {
            let fyv = fy[j] * sign;
            if fyv == 0.0 {
                continue;
            }
            let values = map.row(iy, xs.clone());
            let classes = cls.class_row(iy, xs.clone());
            let words = &self.live[iy * self.words_x + w0..=iy * self.words_x + w1];
            for (w, &word) in (w0..).zip(words) {
                let mut bits = word;
                if w == w0 {
                    bits &= head;
                }
                if w == w1 {
                    bits &= tail;
                }
                while bits != 0 {
                    let k = w * WORD_PX + bits.trailing_zeros() as usize - xs.start;
                    bits &= bits - 1;
                    let s = classes[k].cost_sign();
                    let old = values[k];
                    let new = old + fx[k] * fyv;
                    acc[k & 3] += (s * (new - rho)).max(0.0) - (s * (old - rho)).max(0.0);
                    scanned += 1;
                }
            }
        }
        ((acc[0] + acc[1]) + (acc[2] + acc[3]), scanned)
    }

    /// Whether adding (`sign > 0`) or removing (`sign < 0`) `strip`'s
    /// intensity can lower `cost_ref` at all. When this is `false`,
    /// [`cost_delta_for_strip`] returns a value `>= 0` (up to rounding
    /// far below the greedy engine's `-1e-9` acceptance bar), so the
    /// candidate need not be scored.
    ///
    /// Edge factors are `>= 0` (the profile `Φ` is monotone), so a grow
    /// strip only raises intensities and a shrink strip only lowers them.
    /// Each pixel's cost term `max(s·(I − ρ), 0)` is monotone in `I`, so
    /// a grow strip can only reduce the terms of failing `Pon` pixels and
    /// a shrink strip only those of failing `Poff` pixels; every other
    /// pixel in the window adds a term `>= 0`. The check therefore asks
    /// whether any tile overlapping the strip's
    /// `affected_window` holds a failing
    /// pixel of the one class the move can help.
    pub fn may_improve(&self, map: &IntensityMap, strip: &Rect, sign: f64) -> bool {
        let (lane, fails) = if sign > 0.0 {
            (0, self.summary.on_fails)
        } else {
            (1, self.summary.off_fails)
        };
        if fails == 0 {
            return false;
        }
        let (xs, ys) = map.affected_window(strip);
        if xs.is_empty() || ys.is_empty() {
            return false;
        }
        let (tx0, tx1) = (xs.start / TILE_PX, (xs.end - 1) / TILE_PX);
        (ys.start / TILE_PX..=(ys.end - 1) / TILE_PX).any(|ty| {
            let row = ty * self.tiles_x;
            self.tiles[row + tx0..=row + tx1]
                .iter()
                .any(|t| t[lane] > 0)
        })
    }
}

/// Bitmaps of failing `Pon` and failing `Poff` pixels (in frame pixel
/// coordinates), for the add-shot / remove-shot moves.
pub fn fail_bitmaps(cls: &Classification, map: &IntensityMap) -> (Bitmap, Bitmap) {
    assert_eq!(cls.frame(), map.frame(), "frames must match");
    let rho = map.model().rho();
    let w = cls.frame().width();
    let h = cls.frame().height();
    let mut on_fail = Bitmap::new(w, h);
    let mut off_fail = Bitmap::new(w, h);
    for iy in 0..h {
        for ix in 0..w {
            match cls.class(ix, iy) {
                PixelClass::On if map.value(ix, iy) < rho => on_fail.set(ix, iy, true),
                PixelClass::Off if map.value(ix, iy) >= rho => off_fail.set(ix, iy, true),
                _ => {}
            }
        }
    }
    (on_fail, off_fail)
}

/// Change in `cost_ref` if the intensity of the 1-pixel-wide `strip`
/// rectangle were added (`sign = +1`) or subtracted (`sign = -1`) from the
/// map — the inner loop of greedy shot-edge adjustment.
///
/// Only pixels within the model's support radius of the strip can change,
/// so the scan window is local. The map itself is not modified.
pub fn cost_delta_for_strip(
    cls: &Classification,
    map: &IntensityMap,
    strip: &Rect,
    sign: f64,
) -> f64 {
    strip_score(cls, map, strip, sign, None).delta
}

/// Scores a strip as [`cost_delta_for_strip`] describes: over the live
/// pixels of `tracker` when its [`score_strip`](ViolationTracker::score_strip)
/// argument makes that exact, otherwise over the whole window.
fn strip_score(
    cls: &Classification,
    map: &IntensityMap,
    strip: &Rect,
    sign: f64,
    tracker: Option<&ViolationTracker>,
) -> StripScore {
    let rho = map.model().rho();
    let (xs, ys) = map.affected_window(strip);
    if xs.is_empty() || ys.is_empty() {
        return StripScore {
            delta: 0.0,
            px_scanned: 0,
            sparse: false,
        };
    }
    // Separable edge factors: one per column/row of the window. The
    // buffers are thread-local and grow-only — each layout worker
    // refines its own shapes, and a per-call Vec pair here was the last
    // steady-state allocation on the scoring path.
    STRIP_FACTORS.with(|cell| {
        let (fx, fy) = &mut *cell.borrow_mut();
        map.fill_edge_factors(strip, &xs, &ys, fx, fy);
        let sparse = tracker.filter(|t| {
            let peak = fx.iter().fold(0.0, |m: f64, &f| m.max(f))
                * fy.iter().fold(0.0, |m: f64, &f| m.max(f));
            peak <= t.band - SPARSE_MARGIN
        });
        let (delta, px_scanned) = match sparse {
            Some(t) => t.live_scored_delta(cls, map, fx, fy, sign, rho, &xs, &ys),
            None => lane_scored_delta(cls, map, fx, fy, sign, rho, &xs, &ys),
        };
        StripScore {
            delta,
            px_scanned,
            sparse: sparse.is_some(),
        }
    })
}

/// The window scan of [`cost_delta_for_strip`]: accumulates each
/// pixel's cost term into four fixed accumulator lanes, reduced through a
/// fixed tree. Returns the delta and the number of terms computed.
///
/// This loop is the refinement engine's hottest path (tens of thousands
/// of strip scorings per clip), so it is written branch-free: row slices
/// instead of per-pixel `(ix, iy)` indexing, and `pixel_cost` folded into
/// its `max(sign * (x - rho), 0)` form ([`PixelClass::cost_sign`]) —
/// bit-exact transformations (IEEE-754 guarantees `-(x - rho) == rho -
/// x`, and pixels the branchy form skipped contribute an exact `+0.0`).
///
/// Each row chunk's terms are computed elementwise into a stack array (no
/// serial dependency, so the backend emits straight SIMD), then folded
/// into `acc[i & 3]` — four independent FMA-friendly chains instead of
/// one serial dependency the autovectorizer could never break without
/// `-ffast-math`. Because `CHUNK` is a multiple of 4, the lane a pixel
/// lands in is `(row index) & 3` regardless of chunk boundaries, and the
/// final reduction `(acc[0] + acc[1]) + (acc[2] + acc[3])` is a fixed
/// tree: the result is a pure function of the window contents —
/// deterministic and stable under any future
/// re-tiling of the chunk loop. It is *not* the same f64 the pre-lane
/// serial fold produced (ULP-level reassociation); the parity gates only
/// pin determinism and cross-engine parity within a build, both of which
/// hold by construction.
#[allow(clippy::too_many_arguments)]
fn lane_scored_delta(
    cls: &Classification,
    map: &IntensityMap,
    fx: &[f64],
    fy: &[f64],
    sign: f64,
    rho: f64,
    xs: &std::ops::Range<usize>,
    ys: &std::ops::Range<usize>,
) -> (f64, u64) {
    // Fixed chunk width for the scoring inner loop. 16 f64 lanes span two
    // AVX-512 / four AVX2 registers — wide enough to keep the vector
    // units busy, small enough to live on the stack.
    const CHUNK: usize = 16;
    let mut acc = [0.0f64; 4];
    let mut terms = [0.0f64; CHUNK];
    let mut rows = 0u64;
    for (j, iy) in ys.clone().enumerate() {
        let fyv = fy[j] * sign;
        if fyv == 0.0 {
            continue;
        }
        rows += 1;
        let values = map.row(iy, xs.clone());
        let classes = cls.class_row(iy, xs.clone());
        for ((fxc, clc), vc) in fx
            .chunks(CHUNK)
            .zip(classes.chunks(CHUNK))
            .zip(values.chunks(CHUNK))
        {
            let n = fxc.len();
            for k in 0..n {
                let s = clc[k].cost_sign();
                let old = vc[k];
                let new = old + fxc[k] * fyv;
                terms[k] = (s * (new - rho)).max(0.0) - (s * (old - rho)).max(0.0);
            }
            for (k, &t) in terms[..n].iter().enumerate() {
                acc[k & 3] += t;
            }
        }
    }
    (
        (acc[0] + acc[1]) + (acc[2] + acc[3]),
        rows * xs.len() as u64,
    )
}

thread_local! {
    /// Per-thread edge-factor scratch for [`cost_delta_for_strip`]
    /// (`fx`, `fy`). Grow-only; cleared and refilled on every call.
    static STRIP_FACTORS: std::cell::RefCell<(Vec<f64>, Vec<f64>)> =
        const { std::cell::RefCell::new((Vec::new(), Vec::new())) };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intensity::ExposureModel;
    use maskfrac_geom::rect::Edge;
    use maskfrac_geom::{Point, Polygon, Rect};

    fn setup(shots: &[Rect]) -> (Classification, IntensityMap) {
        let target = Polygon::from_rect(Rect::new(0, 0, 40, 40).unwrap());
        let model = ExposureModel::paper_default();
        let cls = Classification::build(&target, 2.0, model.support_radius_px() + 2);
        let mut map = IntensityMap::new(model, cls.frame());
        for s in shots {
            map.add_shot(s);
        }
        (cls, map)
    }

    #[test]
    fn empty_solution_fails_everywhere_inside() {
        let (cls, map) = setup(&[]);
        let s = evaluate(&cls, &map);
        let on = cls.count(PixelClass::On);
        assert_eq!(s.on_fails, on);
        assert_eq!(s.off_fails, 0);
        assert!((s.cost - 0.5 * on as f64).abs() < 1e-9);
        assert!(!s.is_feasible());
    }

    #[test]
    fn exact_shot_is_feasible() {
        // A shot exactly matching the square target prints it: edges sit at
        // the boundary where I = 0.5 and the gamma band absorbs rounding.
        let (cls, map) = setup(&[Rect::new(0, 0, 40, 40).unwrap()]);
        let s = evaluate(&cls, &map);
        assert!(s.is_feasible(), "summary: {s:?}");
    }

    #[test]
    fn oversized_shot_fails_off_pixels() {
        let (cls, map) = setup(&[Rect::new(-10, -10, 50, 50).unwrap()]);
        let s = evaluate(&cls, &map);
        assert_eq!(s.on_fails, 0);
        assert!(s.off_fails > 0);
        assert!(s.cost > 0.0);
    }

    #[test]
    fn fail_bitmaps_match_summary() {
        let (cls, map) = setup(&[Rect::new(0, 0, 40, 20).unwrap()]);
        let s = evaluate(&cls, &map);
        let (on_fail, off_fail) = fail_bitmaps(&cls, &map);
        assert_eq!(on_fail.count_ones(), s.on_fails);
        assert_eq!(off_fail.count_ones(), s.off_fails);
        assert!(s.on_fails > 0, "half-covered square under-exposes the top");
    }

    #[test]
    fn pixel_cost_cases() {
        assert!((pixel_cost(PixelClass::On, 0.3, 0.5) - 0.2).abs() < 1e-12);
        assert_eq!(pixel_cost(PixelClass::On, 0.7, 0.5), 0.0);
        assert!((pixel_cost(PixelClass::Off, 0.7, 0.5) - 0.2).abs() < 1e-12);
        assert_eq!(pixel_cost(PixelClass::Off, 0.3, 0.5), 0.0);
        assert_eq!(pixel_cost(PixelClass::Band, 0.0, 0.5), 0.0);
        // Off pixel exactly at threshold fails (Eq. 4 is strict for Poff).
        assert!(pixel_fails(PixelClass::Off, 0.5, 0.5));
        assert!(!pixel_fails(PixelClass::On, 0.5, 0.5));
    }

    #[test]
    fn strip_delta_matches_full_reevaluation() {
        let shot = Rect::new(0, 0, 40, 30).unwrap();
        let (cls, mut map) = setup(&[shot]);
        let before = evaluate(&cls, &map);
        // Candidate move: extend the top edge by 1 px, i.e. add the strip.
        let strip = Rect::new(0, 30, 40, 31).unwrap();
        let predicted = cost_delta_for_strip(&cls, &map, &strip, 1.0);
        map.add_shot(&strip);
        let after = evaluate(&cls, &map);
        assert!(
            (after.cost - before.cost - predicted).abs() < 1e-9,
            "predicted {predicted}, actual {}",
            after.cost - before.cost
        );
        assert!(predicted < 0.0, "growing toward the target must help");
    }

    /// Failing-pixel tile counts recounted pixel by pixel from scratch.
    fn recount_tiles(cls: &Classification, map: &IntensityMap) -> Vec<[u32; 2]> {
        let frame = cls.frame();
        let tiles_x = frame.width().div_ceil(TILE_PX);
        let mut tiles = vec![[0u32; 2]; tiles_x * frame.height().div_ceil(TILE_PX)];
        let rho = map.model().rho();
        for iy in 0..frame.height() {
            for ix in 0..frame.width() {
                let class = cls.class(ix, iy);
                if pixel_fails(class, map.value(ix, iy), rho) {
                    tiles[tile_index(tiles_x, ix, iy)][lane(class)] += 1;
                }
            }
        }
        tiles
    }

    /// Live-pixel mask recounted pixel by pixel from scratch.
    fn recount_live(cls: &Classification, map: &IntensityMap) -> Vec<u64> {
        let frame = cls.frame();
        let words_x = frame.width().div_ceil(WORD_PX);
        let mut live = vec![0u64; words_x * frame.height()];
        let (rho, band) = (map.model().rho(), live_band(map.model()));
        for iy in 0..frame.height() {
            for ix in 0..frame.width() {
                let (class, i) = (cls.class(ix, iy), map.value(ix, iy));
                let near = (i - rho).abs() <= band;
                if class != PixelClass::Band && (pixel_fails(class, i, rho) || near) {
                    live[iy * words_x + ix / WORD_PX] |= 1 << (ix % WORD_PX);
                }
            }
        }
        live
    }

    #[test]
    fn tracker_matches_full_evaluation_through_a_mutation_sequence() {
        let (cls, mut map) = setup(&[]);
        let mut tracker = ViolationTracker::new(&cls, &map);
        assert_eq!(tracker.summary(), evaluate(&cls, &map));
        assert_eq!(tracker.tiles, recount_tiles(&cls, &map));
        assert_eq!(tracker.live, recount_live(&cls, &map));
        assert!(
            tracker.tiles.iter().any(|t| t[0] > 0),
            "empty solution fails inside"
        );
        // A churny sequence: add, grow an edge, shrink another, remove a
        // shot, partial re-add. After every step the running counts must
        // equal a from-scratch scan exactly; the cost to within ULP noise.
        let steps: [(Rect, f64); 6] = [
            (Rect::new(0, 0, 40, 30).unwrap(), 1.0),
            (Rect::new(0, 30, 40, 31).unwrap(), 1.0),  // grow top
            (Rect::new(39, 0, 40, 31).unwrap(), -1.0), // shrink right
            (Rect::new(5, 5, 25, 25).unwrap(), 1.0),   // overlapping add
            (Rect::new(5, 5, 25, 25).unwrap(), -1.0),  // and remove
            (Rect::new(0, 31, 39, 40).unwrap(), 1.0),  // fill the rest
        ];
        for (rect, sign) in steps {
            tracker.apply(&cls, &mut map, &rect, sign);
            let full = evaluate(&cls, &map);
            assert_eq!(tracker.summary().on_fails, full.on_fails, "{rect} {sign}");
            assert_eq!(tracker.summary().off_fails, full.off_fails, "{rect} {sign}");
            assert!(
                (tracker.summary().cost - full.cost).abs() < 1e-9,
                "{rect} {sign}: tracked {} vs full {}",
                tracker.summary().cost,
                full.cost
            );
            assert_eq!(tracker.tiles, recount_tiles(&cls, &map), "{rect} {sign}");
            assert_eq!(tracker.live, recount_live(&cls, &map), "{rect} {sign}");
            assert!(tracker.live.iter().any(|&w| w != 0), "{rect} {sign}");
        }
        // resync after an untracked mutation restores exactness.
        map.add_shot(&Rect::new(-8, -8, 2, 2).unwrap());
        tracker.resync(&cls, &map);
        assert_eq!(tracker.summary(), evaluate(&cls, &map));
        assert_eq!(tracker.tiles, recount_tiles(&cls, &map));
        assert_eq!(tracker.live, recount_live(&cls, &map));
        assert!(
            tracker.tiles.iter().any(|t| t[1] > 0),
            "the corner shot overexposes"
        );
    }

    /// The classification of an L-shaped target, so shot sets leave
    /// under- and over-exposed regions far apart from each other.
    fn l_target() -> (Classification, ExposureModel) {
        let target = Polygon::new(vec![
            Point::new(0, 0),
            Point::new(90, 0),
            Point::new(90, 30),
            Point::new(30, 30),
            Point::new(30, 90),
            Point::new(0, 90),
        ])
        .unwrap();
        let model = ExposureModel::paper_default();
        let cls = Classification::build(&target, 2.0, model.support_radius_px() + 2);
        (cls, model)
    }

    /// The bookkeeping `apply` did before it went sparse: every pixel of
    /// the support window is folded into the books. Returns the window's
    /// pixel count.
    fn dense_apply(
        tracker: &mut ViolationTracker,
        cls: &Classification,
        map: &mut IntensityMap,
        rect: &Rect,
        sign: f64,
    ) -> u64 {
        let rho = map.model().rho();
        let mut window = 0;
        map.apply_shot_rows(rect, sign, |iy, x0, old, new| {
            for (k, (&o, &n)) in old.iter().zip(new).enumerate() {
                tracker.track(cls, rho, x0 + k, iy, o, n);
            }
            window += old.len() as u64;
        });
        window
    }

    fn map_bits(map: &IntensityMap) -> Vec<u64> {
        let frame = map.frame();
        (0..frame.height())
            .flat_map(|iy| (0..frame.width()).map(move |ix| map.value(ix, iy).to_bits()))
            .collect()
    }

    /// The sparse `apply` and the fused `replace` keep the same books as
    /// the dense reference through churny sequences on the L target: 1 and
    /// 2 nm edge strips of both signs, whole-shot adds and removes, and
    /// bias moves of every shot. Maps, counts, tiles and live masks match
    /// exactly after every step; `apply`'s running cost matches bit for
    /// bit, `replace`'s within rounding of a full evaluation.
    #[test]
    fn sparse_apply_matches_dense_reference() {
        use maskfrac_geom::rng::{for_cases, StdRng};
        let (cls, model) = l_target();
        let rho = model.rho();
        let pick = |rng: &mut StdRng, len: usize| rng.gen_range(0..=len as i64 - 1) as usize;
        // (window px, px tracked, live bits set, live bits cleared,
        //  upward crossings, downward crossings)
        let mut seen = [0u64; 6];
        for_cases(64, |rng| {
            let mut map = IntensityMap::new(model.clone(), cls.frame());
            let mut ref_map = map.clone();
            let mut tracker = ViolationTracker::new(&cls, &map);
            let mut reference = tracker.clone();
            let mut shots: Vec<Rect> = Vec::new();
            for step in 0..24 {
                let (before, live_before) = (map_bits(&map), tracker.live.clone());
                let mut window = 0;
                let mut fused = false;
                match rng.gen_range(0..=5) {
                    0 | 1 if shots.len() < 5 => {
                        let (x0, y0) = (rng.gen_range(-8..=60), rng.gen_range(-8..=60));
                        let (w, h) = (rng.gen_range(12..=50), rng.gen_range(12..=50));
                        let shot = Rect::new(x0, y0, x0 + w, y0 + h).unwrap();
                        tracker.apply(&cls, &mut map, &shot, 1.0);
                        window += dense_apply(&mut reference, &cls, &mut ref_map, &shot, 1.0);
                        shots.push(shot);
                    }
                    2 if !shots.is_empty() => {
                        let shot = shots.swap_remove(pick(rng, shots.len()));
                        tracker.apply(&cls, &mut map, &shot, -1.0);
                        window += dense_apply(&mut reference, &cls, &mut ref_map, &shot, -1.0);
                    }
                    3 if !shots.is_empty() => {
                        // Bias: every shot grows or shrinks 1 nm per side.
                        fused = true;
                        let d = if rng.gen_range(0..=1) == 0 { 1 } else { -1 };
                        for shot in &mut shots {
                            let s = *shot;
                            let grown = Rect::new(s.x0() - d, s.y0() - d, s.x1() + d, s.y1() + d);
                            let Some(new) = grown else { continue };
                            tracker.replace(&cls, &mut map, &s, &new);
                            window += dense_apply(&mut reference, &cls, &mut ref_map, &s, -1.0);
                            window += dense_apply(&mut reference, &cls, &mut ref_map, &new, 1.0);
                            *shot = new;
                        }
                    }
                    _ if !shots.is_empty() => {
                        // Move one edge by 1 or 2 nm.
                        let i = pick(rng, shots.len());
                        let (s, d) = (shots[i], rng.gen_range(1..=2));
                        let edge = Edge::ALL[pick(rng, 4)];
                        let grow = rng.gen_range(0..=1) == 0;
                        let outward = if matches!(edge, Edge::Left | Edge::Bottom) {
                            -d
                        } else {
                            d
                        };
                        let at = s.edge(edge) + if grow { outward } else { -outward };
                        let Some(moved) = s.with_edge(edge, at) else {
                            continue;
                        };
                        let (lo, hi) = (s.edge(edge).min(at), s.edge(edge).max(at));
                        let strip = if matches!(edge, Edge::Left | Edge::Right) {
                            Rect::new(lo, s.y0(), hi, s.y1())
                        } else {
                            Rect::new(s.x0(), lo, s.x1(), hi)
                        }
                        .unwrap();
                        let sign = if grow { 1.0 } else { -1.0 };
                        tracker.apply(&cls, &mut map, &strip, sign);
                        window += dense_apply(&mut reference, &cls, &mut ref_map, &strip, sign);
                        shots[i] = moved;
                    }
                    _ => continue,
                }
                let what = format!("step {step} ({})", if fused { "replace" } else { "apply" });
                assert_eq!(map_bits(&map), map_bits(&ref_map), "{what}: map");
                let (got, want) = (tracker.summary, reference.summary);
                assert_eq!(
                    (got.on_fails, got.off_fails),
                    (want.on_fails, want.off_fails),
                    "{what}"
                );
                assert_eq!(tracker.tiles, reference.tiles, "{what}: tiles");
                assert_eq!(tracker.live, reference.live, "{what}: live mask");
                if fused {
                    let full = evaluate(&cls, &map).cost;
                    assert!(
                        (got.cost - full).abs() <= 1e-9,
                        "{what}: cost {} vs {full}",
                        got.cost
                    );
                    // Later steps compare `apply`'s cost bit for bit again.
                    reference.summary.cost = got.cost;
                } else {
                    assert_eq!(got.cost.to_bits(), want.cost.to_bits(), "{what}: cost");
                }
                seen[0] += window;
                seen[1] += std::mem::take(&mut tracker.px_tracked);
                for (a, b) in live_before.iter().zip(&tracker.live) {
                    seen[2] += u64::from((b & !a).count_ones());
                    seen[3] += u64::from((a & !b).count_ones());
                }
                for (a, b) in before.iter().zip(map_bits(&map)) {
                    let (a, b) = (f64::from_bits(*a), f64::from_bits(b));
                    seen[4] += u64::from(a < rho && b >= rho);
                    seen[5] += u64::from(a >= rho && b < rho);
                }
            }
        });
        // Non-vacuous: the sparse walk skipped window pixels, and live
        // bits and crossings went both ways.
        let [window, tracked, set, cleared, up, down] = seen;
        assert!(
            tracked > 0 && tracked < window,
            "tracked {tracked} of {window} px"
        );
        assert!(
            set > 0 && cleared > 0,
            "live bits set {set}, cleared {cleared}"
        );
        assert!(up > 0 && down > 0, "crossings up {up}, down {down}");
    }

    /// Soundness of the failing-tile screen: across random shot sets and
    /// ±1 / ±2 nm edge strips of both signs, a strip `may_improve` rules
    /// out never has a negative cost delta. Deterministic seeded sweep.
    #[test]
    fn screened_strips_never_lower_the_cost() {
        let mut state: u64 = 0x2545_f491_4f6c_dd1d;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut rng = move |lo: i64, hi: i64| lo + (next() % ((hi - lo + 1) as u64)) as i64;
        let (cls, model) = l_target();
        let (mut screened, mut improving) = ([0usize; 2], [0usize; 2]);
        for trial in 0..40 {
            let mut map = IntensityMap::new(model.clone(), cls.frame());
            let mut tracker = ViolationTracker::new(&cls, &map);
            let mut shots = Vec::new();
            for _ in 0..rng(1, 4) {
                let (x0, y0) = (rng(-8, 40), rng(-8, 40));
                let shot = Rect::new(x0, y0, x0 + rng(12, 60), y0 + rng(12, 60)).unwrap();
                tracker.apply(&cls, &mut map, &shot, 1.0);
                shots.push(shot);
            }
            for _ in 0..120 {
                let s = shots[rng(0, shots.len() as i64 - 1) as usize];
                let d = rng(1, 2);
                let sign = if rng(0, 1) == 0 { 1.0 } else { -1.0 };
                // The strip a grow (sign +1) or shrink (sign -1) of one
                // edge by d nm sweeps.
                let grow = sign > 0.0;
                let strip = match (rng(0, 3), grow) {
                    (0, true) => Rect::new(s.x0() - d, s.y0(), s.x0(), s.y1()),
                    (0, false) => Rect::new(s.x0(), s.y0(), s.x0() + d, s.y1()),
                    (1, true) => Rect::new(s.x1(), s.y0(), s.x1() + d, s.y1()),
                    (1, false) => Rect::new(s.x1() - d, s.y0(), s.x1(), s.y1()),
                    (2, true) => Rect::new(s.x0(), s.y0() - d, s.x1(), s.y0()),
                    (2, false) => Rect::new(s.x0(), s.y0(), s.x1(), s.y0() + d),
                    (_, true) => Rect::new(s.x0(), s.y1(), s.x1(), s.y1() + d),
                    (_, false) => Rect::new(s.x0(), s.y1() - d, s.x1(), s.y1()),
                }
                .unwrap();
                let side = usize::from(!grow);
                let dc = cost_delta_for_strip(&cls, &map, &strip, sign);
                if !tracker.may_improve(&map, &strip, sign) {
                    screened[side] += 1;
                    assert!(
                        dc >= 0.0,
                        "trial {trial}: screened {strip} ({sign}) has delta {dc}"
                    );
                } else if dc < -1e-9 {
                    improving[side] += 1;
                    // Take the move, so later strips see an evolving map.
                    tracker.apply(&cls, &mut map, &strip, sign);
                    assert_eq!(tracker.tiles, recount_tiles(&cls, &map));
                }
            }
        }
        // Non-vacuous: both signs were screened and both improved.
        assert!(screened.iter().all(|&n| n > 0), "screened {screened:?}");
        assert!(improving.iter().all(|&n| n > 0), "improving {improving:?}");
    }

    #[test]
    fn strip_delta_negative_direction() {
        let shot = Rect::new(0, 0, 40, 40).unwrap();
        let (cls, mut map) = setup(&[shot]);
        // Candidate move: shrink the right edge by 1 px (subtract strip).
        let strip = Rect::new(39, 0, 40, 40).unwrap();
        let predicted = cost_delta_for_strip(&cls, &map, &strip, -1.0);
        let before = evaluate(&cls, &map);
        map.remove_shot(&strip);
        let after = evaluate(&cls, &map);
        assert!((after.cost - before.cost - predicted).abs() < 1e-9);
    }
}
