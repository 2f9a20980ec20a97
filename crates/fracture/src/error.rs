//! Structured error taxonomy and per-shape status reporting.
//!
//! Production mask-data-prep runs fracture billions of shapes; a single
//! malformed polygon or pathological refinement run must degrade that one
//! shape, not abort the job. This module defines the vocabulary the rest
//! of the workspace uses to talk about partial failure:
//!
//! * [`FractureError`] — a typed, recoverable error naming what went wrong
//!   and in which [`Stage`] of the pipeline;
//! * [`FractureStatus`] — the per-shape outcome tag every
//!   [`crate::FractureResult`] carries: `Ok`, `Degraded` (usable but not
//!   proven feasible, e.g. a deadline expired), `Fallback` (produced by a
//!   simpler baseline fracturer after the model-based pipeline failed), or
//!   `Failed` (no usable shot list).

use std::fmt;

/// Pipeline stage an error is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Input validation / repair front-door.
    Validate,
    /// Graph-coloring approximate fracturing (§3).
    Approx,
    /// Iterative shot refinement (§4).
    Refine,
    /// Post-feasibility shot-reduction sweep.
    Reduce,
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Stage::Validate => "validate",
            Stage::Approx => "approx",
            Stage::Refine => "refine",
            Stage::Reduce => "reduce",
        };
        f.write_str(name)
    }
}

/// Why a target shape was rejected by the validation front-door.
#[derive(Debug, Clone, PartialEq)]
pub enum TargetDefect {
    /// The target encloses no area.
    Empty,
    /// The target's bounding box is thinner than the minimum shot side, so
    /// no legal shot can write it.
    TooSmall {
        /// Smaller side of the target bounding box in nm.
        min_side: i64,
        /// Configured minimum shot side `Lmin` in nm.
        lmin: i64,
    },
    /// The target's bounding box exceeds the per-shape extent budget —
    /// clip-level geometry must be partitioned upstream, not fed to the
    /// per-shape pipeline (the intensity-map grid is dense in the bbox).
    TooLarge {
        /// Larger side of the target bounding box in nm.
        extent: i64,
        /// Configured per-shape extent cap in nm.
        max_extent: i64,
    },
    /// A boundary ring is not a simple polygon (self-intersecting,
    /// self-touching, or spiked).
    NonSimple {
        /// Which ring: `None` for the outer boundary, `Some(i)` for hole `i`.
        hole: Option<usize>,
        /// Human-readable defect description from the geometry check.
        detail: String,
    },
}

impl fmt::Display for TargetDefect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TargetDefect::Empty => write!(f, "target encloses no area"),
            TargetDefect::TooSmall { min_side, lmin } => write!(
                f,
                "target bbox min side {min_side} nm is below the minimum shot side {lmin} nm"
            ),
            TargetDefect::TooLarge { extent, max_extent } => write!(
                f,
                "target bbox extent {extent} nm exceeds the per-shape cap {max_extent} nm"
            ),
            TargetDefect::NonSimple { hole: None, detail } => {
                write!(f, "outer boundary is not simple: {detail}")
            }
            TargetDefect::NonSimple {
                hole: Some(i),
                detail,
            } => write!(f, "hole {i} boundary is not simple: {detail}"),
        }
    }
}

/// Recoverable fracturing error.
#[derive(Debug, Clone, PartialEq)]
pub enum FractureError {
    /// The configuration failed [`crate::FractureConfig::validate`].
    InvalidConfig {
        /// First offending field, human-readable.
        message: String,
    },
    /// The target shape was rejected by the validation front-door.
    InvalidTarget(TargetDefect),
    /// Auxiliary options (e.g. the `lth` of
    /// [`crate::corner::try_extract_shot_corners_from_ring`]) are
    /// inconsistent.
    InvalidOptions {
        /// What is inconsistent.
        message: String,
    },
    /// The wall-clock budget expired before a feasible solution was found.
    DeadlineExpired {
        /// Time spent before giving up, in milliseconds.
        elapsed_ms: u64,
        /// The configured budget, in milliseconds.
        budget_ms: u64,
    },
    /// An internal stage failed unexpectedly (including a captured panic
    /// payload when a worker thread unwound).
    Internal {
        /// Stage the failure is attributed to.
        stage: Stage,
        /// Captured reason.
        message: String,
    },
}

impl fmt::Display for FractureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FractureError::InvalidConfig { message } => {
                write!(f, "invalid fracture config: {message}")
            }
            FractureError::InvalidTarget(defect) => write!(f, "invalid target: {defect}"),
            FractureError::InvalidOptions { message } => write!(f, "invalid options: {message}"),
            FractureError::DeadlineExpired {
                elapsed_ms,
                budget_ms,
            } => write!(
                f,
                "deadline expired after {elapsed_ms} ms (budget {budget_ms} ms)"
            ),
            FractureError::Internal { stage, message } => {
                write!(f, "internal error in {stage} stage: {message}")
            }
        }
    }
}

impl std::error::Error for FractureError {}

impl FractureError {
    /// Builds an [`FractureError::Internal`] from a payload captured by
    /// `std::panic::catch_unwind` (payloads are `&str` or `String` for
    /// every `panic!`/`assert!` in this workspace).
    pub fn from_panic(stage: Stage, payload: &(dyn std::any::Any + Send)) -> Self {
        let message = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        };
        FractureError::Internal { stage, message }
    }
}

/// Per-shape outcome tag.
///
/// Ordered by decreasing quality: `Ok < Degraded < Fallback < Failed`
/// under `Ord`, so the worst status of a batch is simply the `max`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum FractureStatus {
    /// The model-based pipeline produced a feasible shot list.
    #[default]
    Ok,
    /// A usable shot list exists but is not proven feasible — the deadline
    /// expired or refinement exhausted its budget on a residue.
    Degraded,
    /// The model-based pipeline failed; a simpler fallback fracturer
    /// produced the shot list.
    Fallback,
    /// No usable shot list could be produced.
    Failed,
}

impl FractureStatus {
    /// Whether the shot list may be written to the mask (possibly with
    /// review): everything except [`FractureStatus::Failed`].
    #[inline]
    pub fn is_usable(&self) -> bool {
        !matches!(self, FractureStatus::Failed)
    }

    /// Whether the result needs operator attention (anything but `Ok`).
    #[inline]
    pub fn needs_review(&self) -> bool {
        !matches!(self, FractureStatus::Ok)
    }

    /// Stable lower-case label for reports and CLI output.
    pub fn label(&self) -> &'static str {
        match self {
            FractureStatus::Ok => "ok",
            FractureStatus::Degraded => "degraded",
            FractureStatus::Fallback => "fallback",
            FractureStatus::Failed => "failed",
        }
    }

    /// Counts one delivered shape under this status
    /// (`fracture.status.<label>`). Whoever hands a result out calls it
    /// exactly once per shape — the pipeline and the fallback ladder
    /// never do — so the tallies sum to the shapes delivered.
    pub fn tally(&self) {
        maskfrac_obs::counter(match self {
            FractureStatus::Ok => "fracture.status.ok",
            FractureStatus::Degraded => "fracture.status.degraded",
            FractureStatus::Fallback => "fracture.status.fallback",
            FractureStatus::Failed => "fracture.status.failed",
        })
        .incr();
    }
}

impl fmt::Display for FractureStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_orders_by_severity() {
        assert!(FractureStatus::Ok < FractureStatus::Degraded);
        assert!(FractureStatus::Degraded < FractureStatus::Fallback);
        assert!(FractureStatus::Fallback < FractureStatus::Failed);
        let worst = [FractureStatus::Ok, FractureStatus::Fallback]
            .into_iter()
            .max()
            .unwrap();
        assert_eq!(worst, FractureStatus::Fallback);
    }

    #[test]
    fn status_usability() {
        assert!(FractureStatus::Ok.is_usable());
        assert!(FractureStatus::Degraded.is_usable());
        assert!(FractureStatus::Fallback.is_usable());
        assert!(!FractureStatus::Failed.is_usable());
        assert!(!FractureStatus::Ok.needs_review());
        assert!(FractureStatus::Degraded.needs_review());
    }

    #[test]
    fn errors_display_their_context() {
        let e = FractureError::InvalidTarget(TargetDefect::TooSmall { min_side: 4, lmin: 10 });
        assert!(e.to_string().contains("4 nm"));
        assert!(e.to_string().contains("10 nm"));
        let e = FractureError::DeadlineExpired { elapsed_ms: 120, budget_ms: 100 };
        assert!(e.to_string().contains("120 ms"));
        let e = FractureError::Internal { stage: Stage::Refine, message: "boom".into() };
        assert!(e.to_string().contains("refine"));
        assert!(e.to_string().contains("boom"));
    }

    #[test]
    fn panic_payload_is_captured() {
        let caught =
            std::panic::catch_unwind(|| panic!("synthetic failure {}", 7)).unwrap_err();
        let e = FractureError::from_panic(Stage::Approx, caught.as_ref());
        match &e {
            FractureError::Internal { stage, message } => {
                assert_eq!(*stage, Stage::Approx);
                assert!(message.contains("synthetic failure 7"));
            }
            other => panic!("unexpected variant {other:?}"),
        }
    }
}
