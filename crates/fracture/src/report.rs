//! Independent solution verification.

use crate::config::FractureConfig;
use maskfrac_ebeam::{evaluate, Classification, FailureSummary, IntensityMap};
use maskfrac_geom::{Polygon, Rect};

/// Re-simulates a shot list from scratch against a target and returns its
/// violation summary.
///
/// This is the impartial referee used by the tests and the experiment
/// harness: it shares no state with whichever method produced the shots.
///
/// # Example
///
/// ```
/// use maskfrac_fracture::{verify_shots, FractureConfig};
/// use maskfrac_geom::{Polygon, Rect};
///
/// let target = Polygon::from_rect(Rect::new(0, 0, 40, 40).expect("rect"));
/// let shots = vec![Rect::new(0, 0, 40, 40).expect("rect")];
/// let summary = verify_shots(&target, &shots, &FractureConfig::default());
/// assert!(summary.is_feasible());
/// ```
pub fn verify_shots(
    target: &Polygon,
    shots: &[Rect],
    config: &FractureConfig,
) -> FailureSummary {
    let model = config.model();
    let cls = Classification::build(target, config.gamma, model.support_radius_px() + 2);
    let mut map = IntensityMap::new(model, cls.frame());
    for s in shots {
        map.add_shot(s);
    }
    evaluate(&cls, &map)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verify_detects_infeasible_solution() {
        let target = Polygon::from_rect(Rect::new(0, 0, 40, 40).unwrap());
        let summary = verify_shots(&target, &[], &FractureConfig::default());
        assert!(!summary.is_feasible());
        assert!(summary.on_fails > 0);
    }

    #[test]
    fn verify_accepts_exact_solution() {
        let target = Polygon::from_rect(Rect::new(0, 0, 40, 40).unwrap());
        let shots = vec![Rect::new(0, 0, 40, 40).unwrap()];
        assert!(verify_shots(&target, &shots, &FractureConfig::default()).is_feasible());
    }
}
