//! PROTO-EDA surrogate.
//!
//! The paper benchmarks a *prototype version of capability within a
//! commercial EDA tool for e-beam mask shot decomposition* — closed
//! source, executable unavailable. Public descriptions (Lin et al.
//! SPIE'11; the ICCAD'14 benchmarking paper) characterize that class of
//! tool as conventional-fracturing-seeded, model-based optimization that
//! does not aggressively explore overlapping shots. This surrogate
//! reproduces that behaviour profile:
//!
//! 1. seed with a **tolerant slab decomposition** of the target (a
//!    conventional partition that absorbs the digitization staircase);
//! 2. enforce the minimum shot size on the seeds;
//! 3. polish with the same iterative shot refinement used by the paper's
//!    method (edge moves, bias, add/remove, merge), which models the
//!    tool's proximity-aware cleanup.
//!
//! What it *lacks* relative to the paper's method is the overlap-seeking
//! graph-coloring construction — exactly the paper's claimed advantage —
//! so the surrogate is expected to land between GSC and the proposed
//! method, as PROTO-EDA does in the published tables. See `DESIGN.md` §5.

use crate::MaskFracturer;
use maskfrac_ebeam::Classification;
use maskfrac_fracture::{refine, FractureConfig, FractureResult};
use maskfrac_geom::partition::partition_slabs_tolerant;
use maskfrac_geom::{Bitmap, Polygon, Rect};
use std::time::Instant;

/// The PROTO-EDA surrogate fracturer.
#[derive(Debug, Clone)]
pub struct ProtoEda {
    config: FractureConfig,
    /// Slab-merge tolerance in nm (≈ σ absorbs the digitization staircase).
    slab_tolerance: i64,
}

impl ProtoEda {
    /// Creates the surrogate with slab tolerance `σ` rounded to nm.
    pub fn new(config: FractureConfig) -> Self {
        let slab_tolerance = (config.sigma * 0.6).round() as i64;
        // "Prototype capability": a bounded cleanup budget, reflecting the
        // tool's ~1 s/shape envelope rather than an exhaustive search.
        let config = FractureConfig {
            max_iterations: 600,
            max_plateau_restarts: 6,
            ..config
        };
        ProtoEda {
            config,
            slab_tolerance,
        }
    }
}

impl MaskFracturer for ProtoEda {
    fn name(&self) -> &'static str {
        "proto-eda"
    }

    /// Runs the surrogate on one target.
    fn fracture(&self, target: &Polygon) -> FractureResult {
        let start = Instant::now();
        let model = self.config.model();
        let cls = Classification::build(
            target,
            self.config.gamma,
            model.support_radius_px() + 2,
        );
        // Conventional seed: tolerant slabs over the rasterized target.
        let bitmap = Bitmap::rasterize(target, cls.frame());
        let mut seeds: Vec<Rect> = partition_slabs_tolerant(&bitmap, cls.frame(), self.slab_tolerance)
            .into_iter()
            .filter_map(|r| enforce_min_size(r, self.config.min_shot_size))
            .collect();
        seeds.dedup();
        let approx_shot_count = seeds.len();

        // Model-based cleanup: same refinement engine as the paper's
        // method, but on partition seeds.
        let outcome = refine(&cls, &model, &self.config, seeds);
        FractureResult {
            status: crate::status_of(&outcome.summary),
            shots: outcome.shots,
            summary: outcome.summary,
            iterations: outcome.iterations,
            approx_shot_count,
            runtime: start.elapsed(),
            deadline_hit: outcome.deadline_hit,
        }
    }
}

/// Grows a rectangle symmetrically to the minimum shot size, or drops
/// sliver seeds that would mostly hang outside any reasonable cover.
fn enforce_min_size(rect: Rect, min: i64) -> Option<Rect> {
    // Slivers thinner than half the minimum are artifacts of the tolerant
    // decomposition; the refinement add-shot move re-creates them properly
    // if they were real.
    if rect.width() < min / 2 || rect.height() < min / 2 {
        return None;
    }
    let grow_x = (min - rect.width()).max(0);
    let grow_y = (min - rect.height()).max(0);
    Rect::new(
        rect.x0() - grow_x / 2,
        rect.y0() - grow_y / 2,
        rect.x0() - grow_x / 2 + rect.width().max(min),
        rect.y0() - grow_y / 2 + rect.height().max(min),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use maskfrac_geom::Point;

    #[test]
    fn square_seeds_one_slab() {
        let target = Polygon::from_rect(Rect::new(0, 0, 50, 50).unwrap());
        let r = ProtoEda::new(FractureConfig::default()).fracture(&target);
        assert!(r.summary.is_feasible(), "{:?}", r.summary);
        assert!(r.shot_count() <= 2);
    }

    #[test]
    fn l_shape_is_fixed_by_refinement() {
        let target = Polygon::new(vec![
            Point::new(0, 0),
            Point::new(80, 0),
            Point::new(80, 30),
            Point::new(30, 30),
            Point::new(30, 80),
            Point::new(0, 80),
        ])
        .unwrap();
        let r = ProtoEda::new(FractureConfig::default()).fracture(&target);
        assert!(r.summary.is_feasible(), "{:?}", r.summary);
        assert!(r.shot_count() <= 4);
    }

    #[test]
    fn min_size_enforcement() {
        assert_eq!(enforce_min_size(Rect::new(0, 0, 3, 40).unwrap(), 10), None);
        let grown = enforce_min_size(Rect::new(0, 0, 7, 40).unwrap(), 10).unwrap();
        assert_eq!(grown.width(), 10);
        assert_eq!(grown.height(), 40);
        let kept = enforce_min_size(Rect::new(0, 0, 30, 40).unwrap(), 10).unwrap();
        assert_eq!(kept, Rect::new(0, 0, 30, 40).unwrap());
    }
}
