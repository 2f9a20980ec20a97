//! Shot intensity under the proximity model (paper Eqs. 1–3).
//!
//! The intensity of a rectangular shot is its indicator function convolved
//! with the Gaussian kernel. For the untruncated kernel this factorizes
//! into two 1-D edge profiles:
//!
//! ```text
//! I_s(x, y) = fx(x) · fy(y)
//! fx(x) = ½ [erf((x1 − x)/σ) − erf((x0 − x)/σ)]     (same for fy)
//! ```
//!
//! The paper's kernel is truncated at `3σ`, which perturbs intensities by
//! at most `exp(−9) ≈ 1.2·10⁻⁴` of mass — two orders of magnitude below
//! the CD-tolerance scale the algorithms operate at. [`ExposureModel`]
//! therefore uses the untruncated closed form and treats `3σ` purely as
//! the *locality* radius for windowed updates (see
//! [`ExposureModel::support_radius`] for the exact bookkeeping of what
//! each representation leaves outside that window).
//!
//! # Evaluation paths and their exactness contracts
//!
//! Every kernel evaluation in the workspace goes through one of two
//! paths:
//!
//! 1. **Interpolated LUT** (`ExposureModel::edge_factor`,
//!    [`ExposureModel::shot_intensity`]) — the hot path, mirroring the
//!    paper's "lookup table based method": `Φ(t) = ½(1 + erf(t))`
//!    tabulated at 512 samples per unit of `t = d/σ` over `±4σ`, linearly
//!    interpolated. Absolute error vs direct `erf` is below `10⁻⁶`. This
//!    path defines the workspace's **bit-exactness contract**: refinement
//!    baselines, the parity harness and the CI shot-count gates all
//!    assume edge factors come from this table with this accumulation
//!    order. Fills on the pixel grid (the intensity map's updates and the
//!    strip scorer) read the same `f64` values from `PixelPhi`, the
//!    model's tabulation of this table at every integer pixel offset.
//! 2. **Reference quadrature**
//!    ([`ExposureModel::shot_intensity_truncated_ref`]) — midpoint
//!    integration of the *truncated* kernel over the kernel–shot
//!    intersection. `O((6σ/step)²)` per point; exists solely to validate
//!    the closed form in tests (they agree to the truncation mass,
//!    ~`1.2·10⁻⁴`, plus quadrature error).

use crate::erf::erf;
use crate::kernel::ProximityKernel;
use maskfrac_geom::Rect;
use std::sync::Arc;

/// Resolution of the edge-profile lookup table, in samples per unit of
/// `t = distance/σ`.
const LUT_PER_UNIT: usize = 512;
/// Half-range of the lookup table in units of `σ` (profile is saturated
/// beyond).
const LUT_RANGE: f64 = 4.0;

/// The fixed-dose e-beam exposure model: Gaussian proximity kernel plus
/// the print threshold `ρ`.
///
/// # Example
///
/// ```
/// use maskfrac_ebeam::ExposureModel;
/// use maskfrac_geom::Rect;
///
/// let model = ExposureModel::paper_default();
/// let shot = Rect::new(0, 0, 50, 50).expect("rect");
/// let center = model.shot_intensity(&shot, 25.0, 25.0);
/// let corner = model.shot_intensity(&shot, 0.0, 0.0);
/// assert!(center > 0.99);
/// assert!((corner - 0.25).abs() < 1e-3); // two half-edges: 0.5 × 0.5
/// ```
#[derive(Clone)]
pub struct ExposureModel {
    kernel: ProximityKernel,
    rho: f64,
    /// [`PixelPhi`] of `σ`: shared, so a clone costs a refcount.
    pixel_phi: Arc<PixelPhi>,
}

// Equality and `Debug` are those of (σ, ρ): the table is derived from σ.
impl PartialEq for ExposureModel {
    fn eq(&self, other: &Self) -> bool {
        self.kernel == other.kernel && self.rho == other.rho
    }
}

impl std::fmt::Debug for ExposureModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExposureModel")
            .field("kernel", &self.kernel)
            .field("rho", &self.rho)
            .finish()
    }
}

impl ExposureModel {
    /// Creates a model with kernel parameter `sigma` (nm) and print
    /// threshold `rho`.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is not positive or `rho` is outside `(0, 1)`.
    pub fn new(sigma: f64, rho: f64) -> Self {
        assert!(rho > 0.0 && rho < 1.0, "rho must be in (0, 1)");
        ExposureModel {
            kernel: ProximityKernel::new(sigma),
            rho,
            pixel_phi: Arc::new(PixelPhi::new(sigma)),
        }
    }

    /// The paper's evaluation parameters: `σ = 6.25 nm`, `ρ = 0.5`.
    pub fn paper_default() -> Self {
        ExposureModel::new(6.25, 0.5)
    }

    /// Folds long-range backscatter into the model as an effective
    /// threshold shift (an extension beyond the paper, which models
    /// forward scattering only).
    ///
    /// The full double-Gaussian exposure is
    /// `I = (F + η·B) / (1 + η)` with `F` the forward term this model
    /// computes and `B` the backscatter convolution. The backscatter range
    /// `β ≈ 10 µm` dwarfs a clip, so over one clip `B` is effectively the
    /// constant local *pattern density*; the print condition
    /// `I ≥ ρ` is then exactly `F ≥ ρ(1+η) − η·density`. This constructor
    /// returns a model with that effective forward threshold — all
    /// fracturing machinery applies unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `eta` is negative, `density` is outside `[0, 1]`, or the
    /// effective threshold leaves `(0, 1)` (a density so high nothing can
    /// stay unprinted, or so low nothing prints — upstream dose correction
    /// must handle those regimes).
    ///
    /// # Example
    ///
    /// ```
    /// use maskfrac_ebeam::ExposureModel;
    ///
    /// // η = 0.6, 40 % local pattern density.
    /// let m = ExposureModel::paper_default().with_backscatter(0.6, 0.4);
    /// // Effective forward threshold: 0.5·1.6 − 0.6·0.4 = 0.56.
    /// assert!((m.rho() - 0.56).abs() < 1e-12);
    /// ```
    pub fn with_backscatter(self, eta: f64, density: f64) -> Self {
        assert!(eta >= 0.0, "backscatter ratio must be nonnegative");
        assert!((0.0..=1.0).contains(&density), "density must be in [0, 1]");
        let rho_eff = self.rho * (1.0 + eta) - eta * density;
        assert!(
            rho_eff > 0.0 && rho_eff < 1.0,
            "effective threshold {rho_eff} out of range; correct the base dose upstream"
        );
        ExposureModel::new(self.sigma(), rho_eff)
    }

    /// Kernel parameter `σ` in nm.
    #[inline]
    pub fn sigma(&self) -> f64 {
        self.kernel.sigma()
    }

    /// Print threshold `ρ`.
    #[inline]
    pub fn rho(&self) -> f64 {
        self.rho
    }

    /// Radius (nm) beyond which a shot's intensity is treated as zero.
    ///
    /// This is the truncation radius `3σ` of the paper's kernel (Eq. 2),
    /// and it is the single locality constant every windowed update in
    /// the workspace keys on. The two representations bracket it
    /// differently:
    ///
    /// * the **truncated kernel** ([`ProximityKernel::value`]) is
    ///   identically zero beyond `3σ` by definition;
    /// * the **untruncated closed form** this model evaluates still
    ///   leaves `½·erfc(3) ≈ 1.1·10⁻⁵` of edge profile at `3σ` and only
    ///   decays below `10⁻⁶` near `3.37σ` — so clamping updates to the
    ///   `3σ` window drops up to ~`1.1·10⁻⁵` of intensity per strip
    ///   operation (the bound asserted by the map-consistency tests), and
    ///   the edge-profile tables saturate at `4σ`, where the residue is
    ///   below `2·10⁻⁸`.
    ///
    /// Both residues sit orders of magnitude below the `γ`-band tolerance
    /// the fracturing constraints are evaluated at; see
    /// `support_radius_is_three_sigma_and_pins_the_residues` for the
    /// pinned numbers.
    #[inline]
    pub fn support_radius(&self) -> f64 {
        self.kernel.support_radius()
    }

    /// Support radius rounded up to whole pixels (1 nm), plus one pixel of
    /// slack for centre-offset effects.
    #[inline]
    pub fn support_radius_px(&self) -> i64 {
        self.support_radius().ceil() as i64 + 1
    }

    /// 1-D edge factor for a shot spanning `[a, b]`, evaluated at `t`.
    ///
    /// Hot-path evaluation (see the module docs): `Φ((b−t)/σ) − Φ((a−t)/σ)`
    /// through the shared interpolated lookup table. This is the exactness
    /// reference for the bit-parity harness.
    #[inline]
    pub(crate) fn edge_factor(&self, a: f64, b: f64, t: f64) -> f64 {
        let s = self.sigma();
        let lut = edge_lut();
        lut.phi((b - t) / s) - lut.phi((a - t) / s)
    }

    /// Fills `out` with the edge factors of the span `[a, b]` at the
    /// pixel centres `origin + i + 0.5`, one per `i` in `cols` — bit for
    /// bit `edge_factor(a, b, origin + i + 0.5)`, through [`PixelPhi`]
    /// instead of the interpolated table. Clears `out` first (grow-only,
    /// no steady-state allocation).
    pub(crate) fn fill_pixel_edge_factors(
        &self,
        a: i64,
        b: i64,
        origin: i64,
        cols: std::ops::Range<usize>,
        out: &mut Vec<f64>,
    ) {
        let phi = &*self.pixel_phi;
        out.clear();
        out.extend(cols.map(|i| {
            let p = origin + i as i64;
            phi.at(b - p) - phi.at(a - p)
        }));
    }

    /// Intensity of shot `s` at the continuous point `(x, y)` using the
    /// separable closed form through the lookup table.
    #[inline]
    pub fn shot_intensity(&self, s: &Rect, x: f64, y: f64) -> f64 {
        let fx = self.edge_factor(s.x0() as f64, s.x1() as f64, x);
        if fx <= 0.0 {
            return 0.0;
        }
        let fy = self.edge_factor(s.y0() as f64, s.y1() as f64, y);
        fx * fy
    }

    /// Intensity via direct `erf` evaluation (no lookup table). Slower;
    /// used to bound the LUT interpolation error in tests.
    pub fn shot_intensity_exact(&self, s: &Rect, x: f64, y: f64) -> f64 {
        let sg = self.sigma();
        let fx = 0.5 * (erf((s.x1() as f64 - x) / sg) - erf((s.x0() as f64 - x) / sg));
        let fy = 0.5 * (erf((s.y1() as f64 - y) / sg) - erf((s.y0() as f64 - y) / sg));
        fx * fy
    }

    /// Reference intensity under the **truncated** kernel, by midpoint
    /// quadrature of the kernel over its intersection with the shot.
    ///
    /// The quadrature domain is the exact intersection of the shot with
    /// the kernel's `[−3σ, 3σ]²` bounding box (an earlier version sampled
    /// the whole bounding box and point-tested shot containment, which
    /// resolved shot edges only to `O(step)` and contradicted this very
    /// doc comment — see the truncation audit). With the domain aligned,
    /// the integrand is smooth except on the truncation circle, where the
    /// kernel's jump is only `e⁻⁹/(πσ²)`, so quadrature error is
    /// `O(step²)` plus a negligible circle term.
    ///
    /// Cost is `O((6σ/step)²)`; this exists to validate the closed form
    /// (they differ by at most the truncation mass, ~`1.2·10⁻⁴`).
    pub fn shot_intensity_truncated_ref(&self, s: &Rect, x: f64, y: f64, step: f64) -> f64 {
        let r = self.support_radius();
        let x0 = (s.x0() as f64).max(x - r);
        let x1 = (s.x1() as f64).min(x + r);
        let y0 = (s.y0() as f64).max(y - r);
        let y1 = (s.y1() as f64).min(y + r);
        if x0 >= x1 || y0 >= y1 {
            return 0.0;
        }
        let nx = ((x1 - x0) / step).ceil().max(1.0) as i64;
        let ny = ((y1 - y0) / step).ceil().max(1.0) as i64;
        let hx = (x1 - x0) / nx as f64;
        let hy = (y1 - y0) / ny as f64;
        let mut acc = 0.0;
        for iy in 0..ny {
            let dy = y0 + (iy as f64 + 0.5) * hy - y;
            for ix in 0..nx {
                let dx = x0 + (ix as f64 + 0.5) * hx - x;
                acc += self.kernel.value(dx, dy);
            }
        }
        acc * hx * hy
    }
}

impl Default for ExposureModel {
    fn default() -> Self {
        ExposureModel::paper_default()
    }
}

/// Lookup table for `Φ(t) = ½(1 + erf(t))` with linear interpolation.
///
/// The table is in normalized units `t = distance/σ`, so it is independent
/// of any particular model's `σ` and a single process-wide instance serves
/// every [`ExposureModel`]. Before this sharing, every `ExposureModel`
/// clone or deserialize rebuilt the 4097-entry table (4097 `erf` evals) —
/// measurable when the layout driver hands a model clone to each worker.
#[derive(Debug)]
struct EdgeLut {
    values: Vec<f64>,
}

/// The process-wide shared edge-profile table; built once, on first use.
static EDGE_LUT: std::sync::OnceLock<EdgeLut> = std::sync::OnceLock::new();

/// Returns the shared lookup table, building it on first call
/// (`ebeam.lut.builds` counts the builds — it must stay at 1 per process).
#[inline]
fn edge_lut() -> &'static EdgeLut {
    EDGE_LUT.get_or_init(|| {
        // Spanned so the one-time build shows up in the trace/event
        // stream (it charges whichever worker loses the init race).
        let _span = maskfrac_obs::span("ebeam.lut.build");
        maskfrac_obs::counter!("ebeam.lut.builds").incr();
        EdgeLut::new()
    })
}

impl EdgeLut {
    fn new() -> Self {
        let n = (2.0 * LUT_RANGE) as usize * LUT_PER_UNIT + 1;
        let values = (0..n)
            .map(|i| {
                let t = -LUT_RANGE + i as f64 / LUT_PER_UNIT as f64;
                0.5 * (1.0 + erf(t))
            })
            .collect();
        EdgeLut { values }
    }

    #[inline]
    fn phi(&self, t: f64) -> f64 {
        if t <= -LUT_RANGE {
            return 0.0;
        }
        if t >= LUT_RANGE {
            return 1.0;
        }
        let pos = (t + LUT_RANGE) * LUT_PER_UNIT as f64;
        let i = pos as usize;
        let frac = pos - i as f64;
        // `i + 1` is in range because t < LUT_RANGE strictly.
        self.values[i] * (1.0 - frac) + self.values[i + 1] * frac
    }
}

/// `Φ((n − 0.5)/σ)` through [`EdgeLut::phi`] for every integer `n`: the
/// profile term of an edge at integer coordinate `e` seen from the centre
/// of pixel `p`, with `n = e − p`.
///
/// Pixel centres sit at `p + 0.5` for integer `p`, so `e − (p + 0.5)` is
/// exactly `n − 0.5` in `f64` (every operand is a small integer or half
/// integer), and `edge_factor(a, b, p + 0.5)` is exactly
/// `at(b − p) − at(a − p)`: the same division, the same table lookup, the
/// same subtraction. Beyond `|n| ≈ 4σ` the interpolated table saturates
/// to exactly `0.0` or `1.0`, so the entries span `n` in `lo..lo + len`
/// with both end entries saturated, and [`at`](Self::at) clamps `n` into
/// that range. About `8σ` entries (53 at σ = 6.25 nm).
#[derive(Debug)]
struct PixelPhi {
    /// The `n` of `values[0]`.
    lo: i64,
    values: Vec<f64>,
}

impl PixelPhi {
    fn new(sigma: f64) -> Self {
        // `(±k − 0.5)/σ` lies at least `0.5/σ` beyond `±4`.
        let k = (LUT_RANGE * sigma).ceil() as i64 + 1;
        let lut = edge_lut();
        let values: Vec<f64> = (-k..=k)
            .map(|n| lut.phi((n as f64 - 0.5) / sigma))
            .collect();
        assert!(
            values[0] == 0.0 && values[values.len() - 1] == 1.0,
            "pixel Φ table for σ = {sigma} does not saturate at its ends"
        );
        PixelPhi { lo: -k, values }
    }

    /// `Φ((n − 0.5)/σ)`, bit for bit.
    #[inline]
    fn at(&self, n: i64) -> f64 {
        let last = self.values.len() as i64 - 1;
        self.values[(n - self.lo).clamp(0, last) as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> ExposureModel {
        ExposureModel::paper_default()
    }

    fn big_shot() -> Rect {
        Rect::new(-200, -200, 200, 200).unwrap()
    }

    #[test]
    fn saturates_deep_inside() {
        let m = model();
        assert!((m.shot_intensity(&big_shot(), 0.0, 0.0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn straight_edge_is_half() {
        let m = model();
        let v = m.shot_intensity(&big_shot(), 200.0, 0.0);
        assert!((v - 0.5).abs() < 1e-6, "edge value {v}");
    }

    #[test]
    fn corner_is_quarter() {
        let m = model();
        let v = m.shot_intensity(&big_shot(), 200.0, 200.0);
        assert!((v - 0.25).abs() < 1e-6, "corner value {v}");
    }

    #[test]
    fn decays_to_zero_outside() {
        let m = model();
        let r = m.support_radius();
        // The closed form (untruncated) leaves erfc(3)/2 ≈ 1.1e-5 at 3σ.
        let v = m.shot_intensity(&big_shot(), 200.0 + r, 0.0);
        assert!(v < 2e-5, "beyond 3 sigma: {v}");
        let v4 = m.shot_intensity(&big_shot(), 200.0 + 4.0 * m.sigma(), 0.0);
        assert!(v4 < 1e-8, "beyond 4 sigma: {v4}");
    }

    #[test]
    fn symmetric_about_shot_center() {
        let m = model();
        let s = Rect::new(0, 0, 30, 20).unwrap();
        for (dx, dy) in [(5.0, 3.0), (12.0, 8.0), (20.0, 15.0)] {
            let a = m.shot_intensity(&s, 15.0 - dx, 10.0 - dy);
            let b = m.shot_intensity(&s, 15.0 + dx, 10.0 + dy);
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn monotone_in_shot_size() {
        let m = model();
        let small = Rect::new(0, 0, 20, 20).unwrap();
        let large = Rect::new(-5, -5, 25, 25).unwrap();
        for (x, y) in [(10.0, 10.0), (0.0, 0.0), (25.0, 10.0), (40.0, 10.0)] {
            assert!(
                m.shot_intensity(&large, x, y) >= m.shot_intensity(&small, x, y) - 1e-12,
                "containment must not reduce intensity at ({x}, {y})"
            );
        }
    }

    #[test]
    fn lut_matches_exact_erf() {
        let m = model();
        let s = Rect::new(3, -7, 41, 22).unwrap();
        let mut worst = 0.0f64;
        for i in 0..60 {
            let x = -20.0 + i as f64 * 1.37;
            for j in 0..40 {
                let y = -25.0 + j as f64 * 1.61;
                let d = (m.shot_intensity(&s, x, y) - m.shot_intensity_exact(&s, x, y)).abs();
                worst = worst.max(d);
            }
        }
        assert!(worst < 1e-6, "LUT error {worst}");
    }

    #[test]
    fn closed_form_matches_truncated_reference() {
        let m = model();
        let s = Rect::new(0, 0, 25, 18).unwrap();
        for (x, y) in [(12.5, 9.0), (0.0, 9.0), (25.0, 18.0), (30.0, 9.0), (-5.0, -5.0)] {
            let closed = m.shot_intensity(&s, x, y);
            let reference = m.shot_intensity_truncated_ref(&s, x, y, 0.05);
            assert!(
                (closed - reference).abs() < 3e-4,
                "at ({x}, {y}): closed {closed} vs truncated {reference}"
            );
        }
    }

    #[test]
    fn additivity_of_adjacent_shots() {
        // Two shots sharing an edge must sum to the intensity of their union.
        let m = model();
        let a = Rect::new(0, 0, 20, 30).unwrap();
        let b = Rect::new(20, 0, 45, 30).unwrap();
        let u = Rect::new(0, 0, 45, 30).unwrap();
        for (x, y) in [(20.0, 15.0), (10.0, 15.0), (33.0, 2.0), (50.0, 15.0)] {
            let sum = m.shot_intensity_exact(&a, x, y) + m.shot_intensity_exact(&b, x, y);
            let whole = m.shot_intensity_exact(&u, x, y);
            assert!((sum - whole).abs() < 1e-12, "at ({x}, {y})");
        }
    }

    /// The truncation-radius audit test: pins `3σ` as the one locality
    /// constant and the residues each representation leaves there, so the
    /// constants and the doc comments in `kernel.rs` / `intensity.rs` /
    /// `erf.rs` cannot silently drift apart again.
    #[test]
    fn support_radius_is_three_sigma_and_pins_the_residues() {
        let m = model();
        // The locality constant is exactly 3σ, shared by model and kernel.
        assert_eq!(m.support_radius(), 3.0 * m.sigma());
        assert_eq!(m.support_radius(), m.kernel.support_radius());
        // The truncated kernel is identically zero beyond it...
        assert_eq!(m.kernel.value(m.support_radius() + 1e-9, 0.0), 0.0);
        assert!(m.kernel.value(m.support_radius() - 1e-9, 0.0) > 0.0);
        // ...while the closed form's straight-edge profile leaves exactly
        // ½·erfc(3) ≈ 1.1e-5 there (NOT below 1e-6, as a doc comment once
        // claimed): the profile only crosses 1e-6 near 3.37σ.
        let edge = 0.5 * (1.0 - crate::erf::erf(3.0));
        assert!((1.0e-5..1.2e-5).contains(&edge), "residue at 3σ: {edge}");
        let v3 = m.shot_intensity_exact(&big_shot(), 200.0 + m.support_radius(), 0.0);
        assert!((v3 - edge).abs() < 1e-7, "profile at 3σ: {v3} vs {edge}");
        assert!(v3 > 1e-6, "the 3σ residue is above 1e-6, not below");
        let v337 = m.shot_intensity_exact(&big_shot(), 200.0 + 3.37 * m.sigma(), 0.0);
        assert!(v337 < 1.1e-6, "profile decays through 1e-6 near 3.37σ: {v337}");
        // The tables saturate at 4σ, where the residue is below 2e-8.
        let v4 = 0.5 * (1.0 - crate::erf::erf(4.0));
        assert!(v4 < 2e-8, "residue at 4σ: {v4}");
    }

    /// Property test (satellite of the separable rewrite): across
    /// randomized shots, evaluation points and kernel widths, the
    /// separable closed form agrees with the dense truncated-kernel
    /// quadrature to the documented tolerance (truncation mass ~1.2e-4
    /// plus quadrature error). Deterministic seeded sweep so the test is
    /// reproducible in every environment.
    #[test]
    fn separable_form_matches_dense_quadrature_on_random_shots() {
        let mut state: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut rng = move |lo: i64, hi: i64| lo + (next() % ((hi - lo + 1) as u64)) as i64;
        for trial in 0..40 {
            let sigma = [3.0, 4.5, 6.25, 9.0][trial % 4];
            let m = ExposureModel::new(sigma, 0.5);
            let x0 = rng(-30, 10);
            let y0 = rng(-30, 10);
            let s = Rect::new(x0, y0, x0 + rng(8, 60), y0 + rng(8, 60)).unwrap();
            // Points spread over interior, edge band and outside.
            let px = x0 as f64 + rng(-15, 75) as f64 * 0.97;
            let py = y0 as f64 + rng(-15, 75) as f64 * 1.03;
            let closed = m.shot_intensity(&s, px, py);
            let dense = m.shot_intensity_truncated_ref(&s, px, py, 0.1);
            assert!(
                (closed - dense).abs() < 4e-4,
                "trial {trial}: σ={sigma} shot={s} at ({px}, {py}): \
                 separable {closed} vs dense {dense}"
            );
        }
    }

    /// Edge factors of a non-empty span are never negative. The exact
    /// candidate screen (`ViolationTracker::may_improve`) rests on this:
    /// adding a strip only raises intensities, removing one only lowers
    /// them.
    #[test]
    fn edge_factor_is_nonnegative_for_ordered_edges() {
        for sigma in [3.0, 6.25, 9.0, 25.0] {
            let m = ExposureModel::new(sigma, 0.5);
            for a in [-37.0, 0.0, 0.5, 12.0] {
                for width in [1.0, 2.0, 3.0, 40.0] {
                    let b = a + width;
                    let (lo, hi) = (a - 5.0 * sigma, b + 5.0 * sigma);
                    let steps = ((hi - lo) / 0.013) as usize;
                    for k in 0..=steps {
                        let t = lo + k as f64 * 0.013;
                        let f = m.edge_factor(a, b, t);
                        assert!(f >= 0.0, "σ={sigma} [{a}, {b}] at {t}: {f}");
                    }
                }
            }
        }
    }

    /// The pixel-offset table fills edge factors bit for bit as
    /// `edge_factor` at the pixel centres, for 1 nm, 2 nm and long spans,
    /// frame origins of either sign, and windows reaching past both
    /// saturation ends of the profile.
    #[test]
    fn pixel_fill_is_bit_identical_to_edge_factor() {
        use maskfrac_geom::rng::for_cases;
        let mut out = Vec::new();
        for sigma in [3.0, 6.25, 9.0, 25.0] {
            let m = ExposureModel::new(sigma, 0.5);
            let reach = (5.0 * sigma) as i64;
            for_cases(64, |rng| {
                let a = rng.gen_range(-300..=300);
                let b = a + [1, 2, rng.gen_range(3..=400)][rng.gen_range(0..=2) as usize];
                let origin = a - reach - rng.gen_range(0..=40);
                let cols = (a - reach - origin) as usize..(b + reach - origin) as usize;
                m.fill_pixel_edge_factors(a, b, origin, cols.clone(), &mut out);
                assert_eq!((out[0], out[out.len() - 1]), (0.0, 0.0), "σ={sigma}");
                for (i, &f) in cols.zip(&out) {
                    let t = origin as f64 + i as f64 + 0.5;
                    let reference = m.edge_factor(a as f64, b as f64, t);
                    assert_eq!(
                        f.to_bits(),
                        reference.to_bits(),
                        "σ={sigma} [{a}, {b}] at {t}: table {f} vs {reference}"
                    );
                }
            });
        }
    }

    #[test]
    fn paper_parameters() {
        let m = ExposureModel::paper_default();
        assert_eq!(m.sigma(), 6.25);
        assert_eq!(m.rho(), 0.5);
        assert_eq!(m.support_radius(), 18.75);
        assert_eq!(m.support_radius_px(), 20);
        assert_eq!(m, ExposureModel::default());
    }

    #[test]
    #[should_panic(expected = "rho")]
    fn rejects_bad_rho() {
        ExposureModel::new(6.25, 1.5);
    }

    #[test]
    fn backscatter_shifts_threshold() {
        let m = ExposureModel::paper_default().with_backscatter(0.6, 0.4);
        assert!((m.rho() - 0.56).abs() < 1e-12);
        // Zero eta is a no-op.
        let same = ExposureModel::paper_default().with_backscatter(0.0, 0.9);
        assert_eq!(same.rho(), 0.5);
        // Higher density lowers the forward threshold (fog helps print).
        let dense = ExposureModel::paper_default().with_backscatter(0.6, 0.8);
        let sparse = ExposureModel::paper_default().with_backscatter(0.6, 0.1);
        assert!(dense.rho() < sparse.rho());
    }

    #[test]
    #[should_panic(expected = "effective threshold")]
    fn backscatter_rejects_unprintable_regime() {
        // eta = 1, density = 1: everything prints; rho_eff = 0.
        ExposureModel::paper_default().with_backscatter(1.0, 1.0);
    }
}
