//! Baseline mask-fracturing heuristics the paper compares against.
//!
//! * [`gsc`] — **greedy set cover** (Jiang & Zakhor SPIE'14 style): pick,
//!   repeatedly, the inside-the-target candidate rectangle covering the
//!   most still-failing `Pon` pixels.
//! * [`mp`] — **matching pursuit** (Jiang & Zakhor SPIE'11 style): pick,
//!   repeatedly, the candidate whose normalized correlation with the
//!   residual (target minus accumulated intensity) is largest.
//! * [`proto`] — **PROTO-EDA surrogate**: the commercial prototype the
//!   paper benchmarks is closed source; public descriptions characterize
//!   it as conventional-partition-seeded model-based optimization. The
//!   surrogate seeds with a tolerant slab decomposition and polishes with
//!   the same refinement machinery as the paper's method (see `DESIGN.md`
//!   §5 for why this preserves the comparison's shape).
//! * [`conventional`] — plain geometric partitioning with no proximity
//!   model at all, the pre-model-based state of practice.
//!
//! All baselines implement [`MaskFracturer`], as does the paper's method
//! ([`ModelBasedFracturer`]) and the exhaustive referee
//! ([`ExhaustiveOptimal`]), so the experiment harness and the CLI treat
//! every method uniformly. `fracture` is each method's one entry point.
//!
//! # Example
//!
//! ```
//! use maskfrac_baselines::{GreedySetCover, MaskFracturer};
//! use maskfrac_fracture::FractureConfig;
//! use maskfrac_geom::{Polygon, Rect};
//!
//! let target = Polygon::from_rect(Rect::new(0, 0, 60, 40).expect("rect"));
//! let gsc = GreedySetCover::new(FractureConfig::default());
//! let result = gsc.fracture(&target);
//! assert!(result.shot_count() >= 1);
//! ```

#![warn(missing_docs)]

mod candidates;
pub mod conventional;
pub mod exact;
pub mod fallback;
pub mod gsc;
pub mod mp;
pub mod proto;

pub use conventional::Conventional;
pub use exact::ExhaustiveOptimal;
pub use fallback::{FallbackFracturer, FallbackOutcome};
pub use gsc::GreedySetCover;
pub use mp::MatchingPursuit;
pub use proto::ProtoEda;

use maskfrac_fracture::{FractureResult, FractureStatus, ModelBasedFracturer};
use maskfrac_geom::Polygon;

/// Status tag for a baseline run: feasible is `Ok`, anything else is
/// `Degraded` (every baseline returns its best-effort shot list rather
/// than aborting).
pub(crate) fn status_of(summary: &maskfrac_ebeam::FailureSummary) -> FractureStatus {
    if summary.is_feasible() {
        FractureStatus::Ok
    } else {
        FractureStatus::Degraded
    }
}

/// A mask-fracturing method, as the experiment harness sees it.
pub trait MaskFracturer {
    /// Short method name used in table rows (e.g. `"gsc"`).
    fn name(&self) -> &'static str;

    /// Fractures one target shape.
    fn fracture(&self, target: &Polygon) -> FractureResult;
}

impl MaskFracturer for ModelBasedFracturer {
    fn name(&self) -> &'static str {
        "ours"
    }

    fn fracture(&self, target: &Polygon) -> FractureResult {
        ModelBasedFracturer::fracture(self, target)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maskfrac_fracture::FractureConfig;
    use maskfrac_geom::{Point, Rect};

    fn l_shape() -> Polygon {
        Polygon::new(vec![
            Point::new(0, 0),
            Point::new(80, 0),
            Point::new(80, 30),
            Point::new(30, 30),
            Point::new(30, 80),
            Point::new(0, 80),
        ])
        .unwrap()
    }

    #[test]
    fn all_methods_produce_valid_min_size_shots() {
        let cfg = FractureConfig::default();
        let target = l_shape();
        let methods: Vec<Box<dyn MaskFracturer>> = vec![
            Box::new(ModelBasedFracturer::new(cfg.clone())),
            Box::new(GreedySetCover::new(cfg.clone())),
            Box::new(MatchingPursuit::new(cfg.clone())),
            Box::new(ProtoEda::new(cfg.clone())),
            Box::new(Conventional::new(cfg.clone())),
        ];
        for m in &methods {
            let r = m.fracture(&target);
            assert!(!r.shots.is_empty(), "{} returned no shots", m.name());
            if m.name() != "conventional" {
                for s in &r.shots {
                    assert!(
                        s.min_side() >= cfg.min_shot_size,
                        "{}: shot {s} under min size",
                        m.name()
                    );
                }
            }
        }
    }

    #[test]
    fn ours_beats_or_ties_gsc_on_simple_shapes() {
        let cfg = FractureConfig::default();
        let target = l_shape();
        let ours = ModelBasedFracturer::new(cfg.clone()).fracture(&target);
        let gsc = GreedySetCover::new(cfg).fracture(&target);
        // On one tiny shape either may win by a shot; the suite-level
        // comparison lives in the table2/table3 harness and integration
        // tests. Here we only pin that ours is in the same class.
        assert!(
            ours.shot_count() <= gsc.shot_count() + 1,
            "ours {} vs gsc {}",
            ours.shot_count(),
            gsc.shot_count()
        );
    }

    #[test]
    fn method_names_are_distinct() {
        let cfg = FractureConfig::default();
        let names = [
            ModelBasedFracturer::new(cfg.clone()).name(),
            GreedySetCover::new(cfg.clone()).name(),
            MatchingPursuit::new(cfg.clone()).name(),
            ProtoEda::new(cfg.clone()).name(),
            Conventional::new(cfg).name(),
        ];
        let set: std::collections::BTreeSet<_> = names.iter().collect();
        assert_eq!(set.len(), names.len());
    }

    #[test]
    fn square_is_cheap_for_everyone() {
        let cfg = FractureConfig::default();
        let target = Polygon::from_rect(Rect::new(0, 0, 50, 50).unwrap());
        assert_eq!(
            ModelBasedFracturer::new(cfg.clone())
                .fracture(&target)
                .shot_count(),
            1
        );
        assert!(GreedySetCover::new(cfg.clone()).fracture(&target).shot_count() <= 3);
        assert!(ProtoEda::new(cfg).fracture(&target).shot_count() <= 2);
    }
}
