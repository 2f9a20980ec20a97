//! E-beam proximity-effect exposure model.
//!
//! Masks are written by variable-shaped-beam (VSB) tools that expose
//! axis-parallel rectangles ("shots"). Forward scattering of electrons
//! blurs each shot: the deposited intensity is the shot's indicator
//! function convolved with a Gaussian point-spread function (paper §2,
//! Eqs. 1–3):
//!
//! ```text
//! G(x, y) = exp(-(x² + y²)/σ²) / (πσ²)   for √(x²+y²) ≤ 3σ, else 0
//! I_s     = G ⋆ R_s
//! ```
//!
//! This crate provides that model and everything the fracturing algorithms
//! need on top of it:
//!
//! * `erf` (crate-internal) — scalar error function (no external math
//!   dependency);
//! * [`kernel`] — the truncated Gaussian PSF;
//! * [`intensity`] — closed-form separable shot intensity, a lookup-table
//!   fast path, and a slow truncated-kernel reference integrator;
//! * [`map`] — an intensity accumulation grid with incremental shot
//!   add/remove, the workhorse of iterative shot refinement;
//! * [`classify`] — pixel classification into `Pon` / `Poff` / `Px`;
//! * [`violations`] — failing pixels and the refinement cost function;
//! * [`lth`] — numeric derivation of `Lth`, the longest 45° segment a
//!   shot corner can synthesize within CD tolerance.
//!
//! # Example
//!
//! ```
//! use maskfrac_ebeam::ExposureModel;
//! use maskfrac_geom::Rect;
//!
//! let model = ExposureModel::new(6.25, 0.5);
//! let shot = Rect::new(0, 0, 100, 100).expect("rect");
//! // Deep inside the shot the dose saturates at 1.
//! assert!((model.shot_intensity(&shot, 50.0, 50.0) - 1.0).abs() < 1e-6);
//! // On a long straight edge it is exactly the threshold 0.5.
//! assert!((model.shot_intensity(&shot, 0.0, 50.0) - 0.5).abs() < 1e-6);
//! ```

#![warn(missing_docs)]

pub mod classify;
pub mod contour;
mod erf;
pub mod intensity;
pub mod kernel;
pub mod lth;
pub mod map;
pub mod violations;

pub use classify::{Classification, PixelClass};
pub use contour::intensity_contours;
pub use intensity::ExposureModel;
pub use kernel::ProximityKernel;
pub use map::IntensityMap;
pub use violations::{evaluate, FailureSummary, ViolationTracker};
