//! Model-based mask fracturing — the DAC'15 method.
//!
//! Covers a target mask shape with a minimal set of (possibly overlapping)
//! rectangular e-beam shots while accounting for the proximity effect, in
//! two stages:
//!
//! 1. [`approx`] — **graph-coloring-based approximate fracturing** (§3):
//!    the simplified boundary is translated into shot corner points, shot
//!    selection becomes a minimum clique partition of the corner
//!    compatibility graph, and each color class of the inverse graph's
//!    greedy coloring becomes one shot.
//! 2. [`mod@refine`] — **iterative shot refinement** (§4, Algorithm 1): greedy
//!    shot-edge adjustment under a `2σ` blocking rule, whole-solution
//!    biasing, and shot addition/removal/merging drive the failing-pixel
//!    cost (Eq. 5) to zero.
//!
//! [`ModelBasedFracturer`] packages both behind one call.
//!
//! # Example
//!
//! ```
//! use maskfrac_fracture::{FractureConfig, ModelBasedFracturer};
//! use maskfrac_geom::{Point, Polygon};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A T-shaped target on the 1 nm grid.
//! let target = Polygon::new(vec![
//!     Point::new(0, 40), Point::new(90, 40), Point::new(90, 70),
//!     Point::new(0, 70),
//! ])?;
//! let result = ModelBasedFracturer::new(FractureConfig::default()).fracture(&target);
//! assert!(result.summary.is_feasible());
//! assert_eq!(result.shot_count(), 1);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod approx;
pub mod config;
pub mod corner;
pub mod error;
pub mod faults;
pub mod pipeline;
pub mod refine;
pub mod report;
pub mod scratch;
pub mod validate;

pub use approx::{approximate_fracture, approximate_fracture_region, ApproxFracture};
pub use config::FractureConfig;
pub use corner::{CornerType, ShotCorner};
pub use error::{FractureError, FractureStatus, Stage, TargetDefect};
pub use faults::{Fault, FaultPlan, FaultScope};
pub use pipeline::{FractureResult, ModelBasedFracturer};
pub use refine::{reduce_shots, refine, IterationRecord, RefineOutcome, MAX_REFINE_THREADS};
pub use report::verify_shots;
pub use scratch::FractureScratch;
pub use validate::validate_target;
