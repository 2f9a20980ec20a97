//! Exhaustive (branch-and-bound) optimal fracturing for tiny shapes.
//!
//! The benchmarking work the paper builds on used a 12-hour ILP to bound
//! the optimal shot count. This module bounds it for *tiny* instances
//! only (1–2 shot optima on shapes up to ~90 nm; it solves none of the
//! generated benchmarks, running out of nodes even where a 3-shot
//! solution is known): iterative-deepening depth-first search over a
//! candidate pool with incremental intensity maps and a node budget.
//!
//! Each node branches on the first failing `Pon` pixel (the *witness*):
//!
//! * **Slack rule.** With `r` shots left the witness must still gain
//!   `ρ − I(w)`, so at least one of those shots adds `(ρ − I(w))/r` or
//!   more there; only such candidates are branched on (less a small
//!   tolerance, so rounding cannot cut a solution).
//! * **Exclusion branching.** A node's i-th branch bars that node's
//!   branches 1…i−1 from its subtree: a solution whose first qualifying
//!   shot is the i-th is still reached, and no shot set is searched
//!   twice in different orders.
//!
//! A search that completes within the budget and the deadline therefore
//! proves that no feasible shot list over the pool is shorter than the
//! one it returns (or, returning none, that none of at most the searched
//! length exists) — which makes it the referee for optimality tests of
//! the heuristics on small shapes. It proves nothing about shots outside
//! the pool. [`FractureConfig::deadline`] bounds the search's wall clock;
//! a search it cuts returns no solution.

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

/// How far below the slack rule's bound a candidate's estimated gain at
/// the witness may fall and still be branched on. The estimate
/// ([`maskfrac_ebeam::ExposureModel::shot_intensity`]) is within 1e-6
/// per edge factor of the map's own contribution, and never below it
/// outside the map's support window.
const SLACK_TOLERANCE: f64 = 1e-5;

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
        let cls = Classification::build(
            target,
            self.config.gamma,
            self.config.model().support_radius_px() + 2,
        );
        let pool = pursuit_candidates(target, &cls, &self.config);
        self.search_pool(&cls, &pool, max_shots, deadline)
    }

    /// [`Self::search`] over an explicit candidate pool.
    fn search_pool(
        &self,
        cls: &Classification,
        pool: &[Rect],
        max_shots: usize,
        deadline: Option<Instant>,
    ) -> ExactOutcome {
        let mut search = Search {
            cls,
            pool,
            map: IntensityMap::new(self.config.model(), cls.frame()),
            chosen: Vec::with_capacity(max_shots),
            barred: vec![false; pool.len()],
            budget: Budget {
                nodes: 0,
                deadline,
                deadline_hit: false,
            },
            found: None,
        };
        for k in 1..=max_shots {
            search.dfs(k);
            if search.budget.spent() || search.found.is_some() {
                break;
            }
        }
        ExactOutcome {
            shots: search.found,
            nodes: search.budget.nodes,
            deadline_hit: search.budget.deadline_hit,
        }
    }
}

/// The state one search threads through its nodes.
struct Search<'a> {
    cls: &'a Classification,
    pool: &'a [Rect],
    /// Intensity of `chosen`.
    map: IntensityMap,
    chosen: Vec<Rect>,
    /// Pool entries an ancestor's earlier branch already covered, barred
    /// from the current subtree.
    barred: Vec<bool>,
    budget: Budget,
    found: Option<Vec<Rect>>,
}

impl Search<'_> {
    /// Extends `chosen` to at most `k` shots, stopping at the first
    /// feasible list.
    fn dfs(&mut self, k: usize) {
        if self.found.is_some() || self.budget.spent() {
            return;
        }
        self.budget.visit();
        if self.budget.deadline_hit {
            return;
        }
        if evaluate(self.cls, &self.map).is_feasible() {
            self.found = Some(self.chosen.clone());
            return;
        }
        let left = k - self.chosen.len();
        if left == 0 {
            return;
        }
        let (on_fail, _) = fail_bitmaps(self.cls, &self.map);
        let Some((wx, wy)) = on_fail.iter_set().next() else {
            // Only Poff failures remain: adding shots cannot fix them.
            return;
        };
        let (cx, cy) = self.cls.frame().pixel_center(wx, wy);
        let model = self.map.model();
        let need = (model.rho() - self.map.value(wx, wy)) / left as f64 - SLACK_TOLERANCE;
        let branches: Vec<usize> = (0..self.pool.len())
            .filter(|&i| !self.barred[i] && model.shot_intensity(&self.pool[i], cx, cy) >= need)
            .collect();
        for &i in &branches {
            let shot = self.pool[i];
            self.chosen.push(shot);
            self.map.add_shot(&shot);
            self.dfs(k);
            self.map.remove_shot(&shot);
            self.chosen.pop();
            if self.found.is_some() || self.budget.spent() {
                break;
            }
            self.barred[i] = true;
        }
        for &i in &branches {
            self.barred[i] = false;
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
    fn finds_generating_solutions_in_every_d4_orientation() {
        // A generated benchmark is written exactly by its generating
        // shots. With the pool set to those shots, a sound search finds
        // a solution with at most as many, in every orientation: D4 maps
        // the pixel grid and the kernel onto themselves.
        use maskfrac_geom::D4;
        use maskfrac_shapes::{generate_benchmark, GeneratedParams};
        let cfg = FractureConfig::default();
        let model = cfg.model();
        let exact = ExhaustiveOptimal::new(cfg.clone());
        let mut missed = Vec::new();
        for (shots, seeds) in [(2, 10), (3, 5)] {
            for seed in 0..seeds {
                let generated = generate_benchmark(
                    &model,
                    &GeneratedParams {
                        shots,
                        seed,
                        ..GeneratedParams::default()
                    },
                );
                for t in D4::ALL {
                    let target = generated.polygon.transform(t);
                    let pool: Vec<Rect> = generated
                        .generating_shots
                        .iter()
                        .map(|r| t.apply_rect(r))
                        .collect();
                    let cls =
                        Classification::build(&target, cfg.gamma, model.support_radius_px() + 2);
                    let mut map = IntensityMap::new(model.clone(), cls.frame());
                    pool.iter().for_each(|r| map.add_shot(r));
                    assert!(
                        evaluate(&cls, &map).is_feasible(),
                        "{shots} shots, seed {seed}, {}: generating shots infeasible",
                        t.label()
                    );
                    let found = exact.search_pool(&cls, &pool, shots, None).shots;
                    if found.is_none_or(|f| f.len() > shots) {
                        missed.push(format!("{shots} shots, seed {seed}, {}", t.label()));
                    }
                }
            }
        }
        assert!(
            missed.is_empty(),
            "missed {} of 120: {missed:?}",
            missed.len()
        );
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
