//! Conventional (pre-model-based) fracturing baseline.
//!
//! Treats fracturing as pure geometric partitioning of the rasterized
//! target — non-overlapping rectangles, no proximity model (paper §1,
//! refs [5–7]). Included to quantify what model awareness buys: on
//! digitized curvilinear shapes the partition explodes into staircase
//! slivers, which is precisely why the industry moved to model-based
//! fracturing.

use crate::MaskFracturer;
use maskfrac_ebeam::violations::evaluate;
use maskfrac_ebeam::{Classification, IntensityMap};
use maskfrac_fracture::{FractureConfig, FractureResult};
use maskfrac_geom::partition::partition_slabs;
use maskfrac_geom::{Bitmap, Polygon};
use std::time::Instant;

/// The conventional partition fracturer: the slab decomposition of the
/// rasterized target.
#[derive(Debug, Clone)]
pub struct Conventional {
    config: FractureConfig,
}

impl Conventional {
    /// Creates the conventional baseline.
    pub fn new(config: FractureConfig) -> Self {
        Conventional { config }
    }
}

impl MaskFracturer for Conventional {
    fn name(&self) -> &'static str {
        "conventional"
    }

    /// Runs conventional partitioning on one target.
    fn fracture(&self, target: &Polygon) -> FractureResult {
        let start = Instant::now();
        let model = self.config.model();
        let cls = Classification::build(
            target,
            self.config.gamma,
            model.support_radius_px() + 2,
        );
        let bitmap = Bitmap::rasterize(target, cls.frame());
        let shots = partition_slabs(&bitmap, cls.frame());
        let mut map = IntensityMap::new(model, cls.frame());
        for s in &shots {
            map.add_shot(s);
        }
        let summary = evaluate(&cls, &map);
        FractureResult {
            approx_shot_count: shots.len(),
            status: crate::status_of(&summary),
            shots,
            summary,
            iterations: 0,
            runtime: start.elapsed(),
            deadline_hit: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maskfrac_geom::{Point, Rect};

    #[test]
    fn square_is_one_rect() {
        let target = Polygon::from_rect(Rect::new(0, 0, 50, 50).unwrap());
        let r = Conventional::new(FractureConfig::default()).fracture(&target);
        assert_eq!(r.shot_count(), 1);
        assert!(r.summary.is_feasible());
    }

    #[test]
    fn partition_is_exact_cover() {
        let target = Polygon::new(vec![
            Point::new(0, 0),
            Point::new(80, 0),
            Point::new(80, 30),
            Point::new(30, 30),
            Point::new(30, 80),
            Point::new(0, 80),
        ])
        .unwrap();
        let r = Conventional::new(FractureConfig::default()).fracture(&target);
        assert_eq!(r.shot_count(), 2);
        assert!(r.summary.is_feasible());
        // Shots are disjoint (partition, not cover).
        for (i, a) in r.shots.iter().enumerate() {
            for b in &r.shots[i + 1..] {
                let inter = a.intersection(b);
                assert!(inter.is_none_or(|r| r.is_degenerate()));
            }
        }
    }

    #[test]
    fn slabs_on_plus_and_comb() {
        let plus = Polygon::new(vec![
            Point::new(10, 0),
            Point::new(25, 0),
            Point::new(25, 10),
            Point::new(40, 10),
            Point::new(40, 25),
            Point::new(25, 25),
            Point::new(25, 40),
            Point::new(10, 40),
            Point::new(10, 25),
            Point::new(0, 25),
            Point::new(0, 10),
            Point::new(10, 10),
        ])
        .unwrap();
        let cfg = FractureConfig::default();
        // The plus slabs into its optimum: bottom arm, bar, top arm.
        assert_eq!(
            Conventional::new(cfg.clone()).fracture(&plus).shot_count(),
            3
        );
        let comb = Polygon::new(vec![
            Point::new(0, 0),
            Point::new(70, 0),
            Point::new(70, 30),
            Point::new(55, 30),
            Point::new(55, 15),
            Point::new(45, 15),
            Point::new(45, 30),
            Point::new(25, 30),
            Point::new(25, 15),
            Point::new(15, 15),
            Point::new(15, 30),
            Point::new(0, 30),
        ])
        .unwrap();
        // The comb slabs into its base plus one rectangle per tooth.
        assert_eq!(Conventional::new(cfg).fracture(&comb).shot_count(), 4);
    }

    #[test]
    fn curvilinear_shape_explodes_shot_count() {
        use maskfrac_shapes::ilt::{generate_ilt_clip, IltParams};
        let clip = generate_ilt_clip(&IltParams::default());
        let r = Conventional::new(FractureConfig::default()).fracture(&clip);
        assert!(
            r.shot_count() > 30,
            "staircase slivers: {} shots",
            r.shot_count()
        );
    }
}
