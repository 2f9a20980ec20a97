//! Exhaustive (branch-and-bound) optimal fracturing for tiny shapes.
//!
//! The benchmarking work the paper builds on used a 12-hour ILP to bound
//! the optimal shot count. This module bounds it for *tiny* instances
//! only (1–2 shot optima on shapes up to ~90 nm; it solves none of the
//! generated benchmarks, running out of nodes even where a 3-shot
//! solution is known): depth-first search over a candidate pool with
//! set-cover branching (every solution must cover the first failing
//! `Pon` pixel, so branching is restricted to candidates covering it),
//! incremental intensity maps, and a node budget. When the budget is
//! not exhausted the returned count is **provably optimal over the
//! candidate pool** — which makes it the referee for optimality tests of
//! the heuristics on small shapes. [`FractureConfig::deadline`] bounds
//! the search's wall clock; a search it cuts returns no solution.

use crate::candidates::pursuit_candidates;
use crate::MaskFracturer;
use maskfrac_ebeam::violations::{evaluate, fail_bitmaps};
use maskfrac_ebeam::{Classification, IntensityMap};
use maskfrac_fracture::{FractureConfig, FractureResult};
use maskfrac_geom::{Polygon, Rect};
use std::time::Instant;

/// Search nodes an exhaustive search may visit. A search that stays
/// within it is provably optimal over the candidate pool.
const NODE_BUDGET: usize = 2_000_000;

/// Search nodes between two reads of the clock against the deadline.
const DEADLINE_CHECK_NODES: usize = 1024;

/// Result of an exhaustive search.
#[derive(Debug, Clone)]
struct ExactOutcome {
    /// The best (fewest-shot) feasible solution found, if any.
    shots: Option<Vec<Rect>>,
    /// Search nodes visited; at most [`NODE_BUDGET`] makes the result
    /// provably optimal.
    nodes: usize,
    /// Whether the deadline cut the search short.
    deadline_hit: bool,
}

/// What one search may still spend: nodes, and wall clock when a
/// deadline is set.
#[derive(Debug)]
struct Budget {
    nodes: usize,
    deadline: Option<Instant>,
    deadline_hit: bool,
}

impl Budget {
    /// Whether the search must stop: past the node budget or the
    /// deadline.
    fn spent(&self) -> bool {
        self.nodes > NODE_BUDGET || self.deadline_hit
    }

    /// Counts one visited node, reading the clock every
    /// [`DEADLINE_CHECK_NODES`] nodes. The clock never changes which
    /// nodes a search that runs to completion visits.
    fn visit(&mut self) {
        self.nodes += 1;
        if self.nodes.is_multiple_of(DEADLINE_CHECK_NODES)
            && self.deadline.is_some_and(|d| Instant::now() >= d)
        {
            self.deadline_hit = true;
        }
    }
}

/// The exhaustive-optimal fracturer.
///
/// # Example
///
/// ```
/// use maskfrac_baselines::{ExhaustiveOptimal, MaskFracturer};
/// use maskfrac_fracture::FractureConfig;
/// use maskfrac_geom::{Polygon, Rect};
///
/// let target = Polygon::from_rect(Rect::new(0, 0, 30, 30).expect("rect"));
/// let result = ExhaustiveOptimal::new(FractureConfig::default()).fracture(&target);
/// assert!(result.summary.is_feasible());
/// assert_eq!(result.shot_count(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct ExhaustiveOptimal {
    config: FractureConfig,
}

impl ExhaustiveOptimal {
    /// Creates the searcher.
    pub fn new(config: FractureConfig) -> Self {
        ExhaustiveOptimal { config }
    }

    /// Searches for the minimum feasible shot count up to `max_shots`,
    /// giving up at `deadline`.
    fn search(
        &self,
        target: &Polygon,
        max_shots: usize,
        deadline: Option<Instant>,
    ) -> ExactOutcome {
        let model = self.config.model();
        let cls = Classification::build(
            target,
            self.config.gamma,
            model.support_radius_px() + 2,
        );
        let pool = pursuit_candidates(target, &cls, &self.config);
        let mut budget = Budget {
            nodes: 0,
            deadline,
            deadline_hit: false,
        };
        let mut found: Option<Vec<Rect>> = None;
        for k in 1..=max_shots {
            let mut map = IntensityMap::new(model.clone(), cls.frame());
            let mut chosen: Vec<Rect> = Vec::with_capacity(k);
            self.dfs(&cls, &pool, &mut map, &mut chosen, k, &mut budget, &mut found);
            if budget.spent() || found.is_some() {
                break;
            }
        }
        ExactOutcome {
            shots: found,
            nodes: budget.nodes,
            deadline_hit: budget.deadline_hit,
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn dfs(
        &self,
        cls: &Classification,
        pool: &[Rect],
        map: &mut IntensityMap,
        chosen: &mut Vec<Rect>,
        k: usize,
        budget: &mut Budget,
        found: &mut Option<Vec<Rect>>,
    ) {
        if found.is_some() || budget.spent() {
            return;
        }
        budget.visit();
        if budget.deadline_hit {
            return;
        }
        let summary = evaluate(cls, map);
        if summary.is_feasible() {
            *found = Some(chosen.clone());
            return;
        }
        if chosen.len() == k {
            return;
        }
        // Set-cover branching: the chosen set must eventually satisfy the
        // first failing Pon pixel, and only shots containing it (within
        // the blur reach) can.
        let (on_fail, _) = fail_bitmaps(cls, map);
        let witness = on_fail.iter_set().next();
        let Some((wx, wy)) = witness else {
            // Only Poff failures remain: adding shots cannot fix them.
            return;
        };
        let (cx, cy) = cls.frame().pixel_center(wx, wy);
        let reach = map.model().sigma(); // a shot further away cannot lift it to rho
        for r in pool {
            if r.distance_to_point_f64(cx, cy) > reach {
                continue;
            }
            // Symmetry breaking: enforce non-decreasing candidate order.
            if let Some(last) = chosen.last() {
                if rect_key(r) < rect_key(last) {
                    continue;
                }
            }
            chosen.push(*r);
            map.add_shot(r);
            self.dfs(cls, pool, map, chosen, k, budget, found);
            map.remove_shot(r);
            chosen.pop();
            if found.is_some() || budget.spent() {
                return;
            }
        }
    }
}

impl MaskFracturer for ExhaustiveOptimal {
    fn name(&self) -> &'static str {
        "exact"
    }

    /// Runs the search and packages it as a [`FractureResult`] (selecting
    /// `max_shots = 6`). Infeasible/unproven searches, and searches the
    /// deadline cuts (`deadline_hit`), return the empty shot list with the
    /// all-failing summary.
    fn fracture(&self, target: &Polygon) -> FractureResult {
        let start = Instant::now();
        let deadline = self.config.deadline.map(|d| start + d);
        let outcome = self.search(target, 6, deadline);
        let shots = outcome.shots.unwrap_or_default();
        let summary = maskfrac_fracture::verify_shots(target, &shots, &self.config);
        let status = if summary.is_feasible() {
            maskfrac_fracture::FractureStatus::Ok
        } else if shots.is_empty() {
            maskfrac_fracture::FractureStatus::Failed
        } else {
            maskfrac_fracture::FractureStatus::Degraded
        };
        FractureResult {
            approx_shot_count: shots.len(),
            status,
            shots,
            summary,
            iterations: outcome.nodes,
            runtime: start.elapsed(),
            deadline_hit: outcome.deadline_hit,
        }
    }
}

fn rect_key(r: &Rect) -> (i64, i64, i64, i64) {
    (r.x0(), r.y0(), r.x1(), r.y1())
}

#[cfg(test)]
mod tests {
    use super::*;
    use maskfrac_geom::Point;

    #[test]
    fn square_optimal_is_one() {
        let target = Polygon::from_rect(Rect::new(0, 0, 40, 40).unwrap());
        let outcome = ExhaustiveOptimal::new(FractureConfig::default()).search(&target, 3, None);
        assert!(outcome.nodes <= NODE_BUDGET);
        assert_eq!(outcome.shots.unwrap().len(), 1);
    }

    #[test]
    fn l_shape_optimal_is_two() {
        let target = Polygon::new(vec![
            Point::new(0, 0),
            Point::new(60, 0),
            Point::new(60, 25),
            Point::new(25, 25),
            Point::new(25, 60),
            Point::new(0, 60),
        ])
        .unwrap();
        let outcome = ExhaustiveOptimal::new(FractureConfig::default()).search(&target, 3, None);
        assert!(outcome.nodes <= NODE_BUDGET);
        let shots = outcome.shots.unwrap();
        assert_eq!(shots.len(), 2, "{shots:?}");
    }

    #[test]
    fn infeasible_within_budget_reports_none() {
        // A plus sign needs at least 2 shots; capping at 1 must fail
        // provenly.
        let target = Polygon::new(vec![
            Point::new(25, 0),
            Point::new(50, 0),
            Point::new(50, 25),
            Point::new(75, 25),
            Point::new(75, 50),
            Point::new(50, 50),
            Point::new(50, 75),
            Point::new(25, 75),
            Point::new(25, 50),
            Point::new(0, 50),
            Point::new(0, 25),
            Point::new(25, 25),
        ])
        .unwrap();
        let outcome = ExhaustiveOptimal::new(FractureConfig::default()).search(&target, 1, None);
        assert!(outcome.shots.is_none());
        assert!(outcome.nodes <= NODE_BUDGET);
    }

    #[test]
    fn deadline_cuts_the_search_short() {
        let model = FractureConfig::default().model();
        let agb1 = maskfrac_shapes::generated_suite(&model).swap_remove(0);
        assert_eq!(agb1.id, "AGB-1");
        let cfg = FractureConfig {
            deadline: Some(std::time::Duration::from_millis(50)),
            ..FractureConfig::default()
        };
        let start = Instant::now();
        let result = ExhaustiveOptimal::new(cfg).fracture(&agb1.polygon);
        let took = start.elapsed();
        assert!(result.deadline_hit, "no deadline hit after {took:?}");
        assert!(took < std::time::Duration::from_secs(2), "took {took:?}");
        assert_eq!(result.status, maskfrac_fracture::FractureStatus::Failed);
        assert!(result.shots.is_empty());
    }

    #[test]
    fn heuristic_matches_exact_on_tiny_shapes() {
        // The paper's method should find the optimum on trivial instances.
        let cfg = FractureConfig::default();
        let exact = ExhaustiveOptimal::new(cfg.clone());
        let heuristic = maskfrac_fracture::ModelBasedFracturer::new(cfg);
        for (name, target) in [
            (
                "square",
                Polygon::from_rect(Rect::new(0, 0, 35, 35).unwrap()),
            ),
            (
                "bar",
                Polygon::from_rect(Rect::new(0, 0, 90, 20).unwrap()),
            ),
        ] {
            let best = exact.search(&target, 3, None);
            let ours = heuristic.fracture(&target);
            assert!(ours.summary.is_feasible(), "{name}");
            assert_eq!(
                ours.shot_count(),
                best.shots.expect("feasible").len(),
                "{name}: heuristic must match the proven optimum"
            );
        }
    }
}
