//! The end-to-end model-based fracturer.

use crate::approx::approximate_fracture_region;
use crate::config::FractureConfig;
use crate::error::{FractureError, FractureStatus, Stage};
use crate::faults::{self, Fault};
use crate::refine::{reduce_shots, refine_until_with};
use crate::scratch::FractureScratch;
use crate::validate::validate_target;
use maskfrac_ebeam::{Classification, ExposureModel, FailureSummary};
use maskfrac_geom::{Frame, Polygon, Rect, Region};
use std::time::{Duration, Instant};

/// Output of a fracturing run.
#[derive(Debug, Clone)]
pub struct FractureResult {
    /// The final shot list.
    pub shots: Vec<Rect>,
    /// Violation summary of `shots` (zero failing pixels when feasible).
    pub summary: FailureSummary,
    /// Refinement iterations executed.
    pub iterations: usize,
    /// Shot count after the approximate stage, before refinement.
    pub approx_shot_count: usize,
    /// Wall-clock time of the whole run.
    pub runtime: Duration,
    /// Outcome tag: `Ok` when feasible, `Degraded` when the shot list is
    /// best-effort (deadline expired or the refinement budget ran out on
    /// an infeasible residue). The `Fallback`/`Failed` tags are assigned
    /// by batch drivers such as `maskfrac_mdp::fracture_layout_opts`.
    pub status: FractureStatus,
    /// Whether the per-shape wall-clock deadline cut refinement short
    /// (the ledger's deadline-degraded flag; implies `Degraded` unless a
    /// later rung recovered).
    pub deadline_hit: bool,
}

impl FractureResult {
    /// Number of e-beam shots — the paper's primary metric.
    #[inline]
    pub fn shot_count(&self) -> usize {
        self.shots.len()
    }
}

/// The paper's model-based mask fracturer: graph-coloring approximate
/// fracturing (§3) followed by iterative shot refinement (§4).
///
/// Construction resolves `Lth` from the exposure model once, so repeated
/// [`fracture`](Self::fracture) calls on different shapes (a mask has
/// billions) share the setup.
///
/// # Example
///
/// ```
/// use maskfrac_fracture::{FractureConfig, ModelBasedFracturer};
/// use maskfrac_geom::{Point, Polygon};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let target = Polygon::new(vec![
///     Point::new(0, 0), Point::new(60, 0), Point::new(60, 30),
///     Point::new(30, 30), Point::new(30, 60), Point::new(0, 60),
/// ])?;
/// let fracturer = ModelBasedFracturer::new(FractureConfig::default());
/// let result = fracturer.fracture(&target);
/// assert!(result.summary.is_feasible());
/// assert!(result.shot_count() <= 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ModelBasedFracturer {
    config: FractureConfig,
    model: ExposureModel,
    lth: f64,
}

impl ModelBasedFracturer {
    /// Creates a fracturer, deriving `Lth` from the model.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`FractureConfig::validate`].
    pub fn new(config: FractureConfig) -> Self {
        match Self::try_new(config) {
            Ok(f) => f,
            Err(e) => panic!("{e}"),
        }
    }

    /// Non-panicking variant of [`new`](Self::new).
    ///
    /// # Errors
    ///
    /// [`FractureError::InvalidConfig`] when `config` fails
    /// [`FractureConfig::validate`].
    pub fn try_new(config: FractureConfig) -> Result<Self, FractureError> {
        if let Err(message) = config.validate() {
            return Err(FractureError::InvalidConfig { message });
        }
        let model = config.model();
        let lth = config.resolve_lth();
        Ok(ModelBasedFracturer { config, model, lth })
    }

    /// The configuration this fracturer runs with.
    #[inline]
    pub fn config(&self) -> &FractureConfig {
        &self.config
    }

    /// The exposure model.
    #[inline]
    pub fn model(&self) -> &ExposureModel {
        &self.model
    }

    /// The resolved `Lth` in nm.
    #[inline]
    pub fn lth(&self) -> f64 {
        self.lth
    }

    /// Builds the pixel classification for `target` with the margin the
    /// pipeline uses (support radius + slack).
    pub fn classify(&self, target: &Polygon) -> Classification {
        Classification::build(target, self.config.gamma, self.model.support_radius_px() + 2)
    }

    /// Fractures one target shape with a fresh [`FractureScratch`].
    ///
    /// A convenience wrapper over the same pipeline as
    /// [`try_fracture`](Self::try_fracture), minus its validation and
    /// fault probe: the target is trusted as given.
    pub fn fracture(&self, target: &Polygon) -> FractureResult {
        self.fracture_with(target, &mut FractureScratch::new())
    }

    /// [`fracture`](Self::fracture) with an explicit per-worker
    /// [`FractureScratch`] arena; results are identical to `fracture`.
    ///
    /// It stays only because the benchmark crate (`perf/`) measures this
    /// path; every other caller uses [`try_fracture`](Self::try_fracture).
    pub fn fracture_with(&self, target: &Polygon, scratch: &mut FractureScratch) -> FractureResult {
        let deadline = self.config.deadline.map(|d| Instant::now() + d);
        self.run_pipeline(&Region::simple(target.clone()), deadline, scratch)
    }

    /// Fractures a target region (a polygon, possibly with holes): the
    /// one fallible core every validating caller goes through.
    ///
    /// Rejects degenerate targets with a typed error instead of feeding
    /// them to the pipeline and honours an armed
    /// [fault-injection plan](crate::faults). The intensity grid, the
    /// class grid and the refinement engine's candidate cache are
    /// recycled through `scratch`, so a worker fracturing many shapes
    /// allocates nothing per shape in steady state; the result does not
    /// depend on what `scratch` held before.
    ///
    /// # Errors
    ///
    /// [`FractureError::InvalidTarget`] for targets rejected by
    /// [`validate_target`]; [`FractureError::Internal`] when a pipeline
    /// stage fails (including injected faults).
    pub fn try_fracture(
        &self,
        target: &Region,
        scratch: &mut FractureScratch,
    ) -> Result<FractureResult, FractureError> {
        validate_target(target, &self.config)?;
        match faults::fire("pipeline", self.fault_key(target)) {
            Some(Fault::Panic) => {
                panic!("injected fault: pipeline panic (fault-injection harness)")
            }
            Some(Fault::Timeout) => {
                // Act out an already-expired budget: refinement returns
                // its best-so-far immediately.
                return Ok(self.run_pipeline(target, Some(Instant::now()), scratch));
            }
            Some(Fault::Infeasible) => {
                return Err(FractureError::Internal {
                    stage: Stage::Refine,
                    message: "injected infeasible residue (fault-injection harness)".into(),
                });
            }
            // Crash probes belong to the journal write path (the process
            // dies there, torn-write style); in-pipeline they are inert.
            Some(Fault::CrashPoint) | None => {}
        }
        let deadline = self.config.deadline.map(|d| Instant::now() + d);
        Ok(self.run_pipeline(target, deadline, scratch))
    }

    /// Deterministic per-(shape, config) fingerprint for fault-injection
    /// probes: a retry under a different config draws a fresh decision.
    fn fault_key(&self, target: &Region) -> u64 {
        let b = target.bbox();
        let mut bytes = Vec::with_capacity(8 * 8);
        for v in [
            b.x0(),
            b.y0(),
            b.x1(),
            b.y1(),
            target.outer().len() as i64,
            target.holes().len() as i64,
            self.config.max_iterations as i64,
            self.config.gamma.to_bits() as i64,
        ] {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        faults::fingerprint(&bytes)
    }

    /// The pipeline itself, against an absolute deadline covering every
    /// stage (classification, approximation, refinement, reduction). All
    /// large working buffers come from (and return to) `scratch`.
    fn run_pipeline(
        &self,
        target: &Region,
        deadline: Option<Instant>,
        scratch: &mut FractureScratch,
    ) -> FractureResult {
        let _shape_span = maskfrac_obs::span("fracture.shape");
        let start = Instant::now();
        let margin = self.model.support_radius_px() + 2;
        let cls = {
            let _span = maskfrac_obs::span("fracture.classify");
            let needed = Frame::covering(target.bbox(), margin).len();
            Classification::build_region_reusing(
                target,
                self.config.gamma,
                margin,
                scratch.take_classes(needed),
            )
        };
        let approx = approximate_fracture_region(target, &cls, &self.model, &self.config, self.lth);
        let mut outcome = refine_until_with(
            &cls,
            &self.model,
            &self.config,
            approx.shots.clone(),
            deadline,
            scratch,
        );
        let deadline_over = || deadline.is_some_and(|d| Instant::now() >= d);
        if !outcome.summary.is_feasible() && !deadline_over() {
            let _restart_span = maskfrac_obs::span("fracture.restart");
            maskfrac_obs::counter!("fracture.restarts").incr();
            // Robustness restart: the coloring seed occasionally lands in a
            // basin Algorithm 1 cannot leave (offset staircase arms where
            // every single-edge move trades on- for off-violations).
            // Reseed once from a conventional tolerant-slab partition —
            // non-overlapping, feasibility-friendly — and keep whichever
            // result is better by (failing pixels, shot count).
            let bitmap = target.rasterize(cls.frame());
            let tol = (self.config.sigma * 0.6).round() as i64;
            let seeds: Vec<Rect> = maskfrac_geom::partition::partition_slabs_tolerant(
                &bitmap,
                cls.frame(),
                tol,
            )
            .into_iter()
            .filter(|r| r.min_side() >= self.config.min_shot_size / 2)
            .filter_map(|r| {
                Rect::new(
                    r.x0(),
                    r.y0(),
                    r.x1().max(r.x0() + self.config.min_shot_size),
                    r.y1().max(r.y0() + self.config.min_shot_size),
                )
            })
            .collect();
            if !seeds.is_empty() {
                let restarted =
                    refine_until_with(&cls, &self.model, &self.config, seeds, deadline, scratch);
                if (restarted.summary.fail_count(), restarted.shots.len())
                    < (outcome.summary.fail_count(), outcome.shots.len())
                {
                    outcome = restarted;
                }
            }
        }
        if self.config.reduction_sweep && outcome.summary.is_feasible() && !deadline_over() {
            let reduced = reduce_shots(
                &cls,
                &self.model,
                &self.config,
                outcome.shots.clone(),
                deadline,
                scratch,
            );
            outcome.deadline_hit |= reduced.deadline_hit;
            if reduced.shots.len() < outcome.shots.len() {
                outcome.iterations += reduced.iterations;
                outcome.shots = reduced.shots;
                outcome.summary = reduced.summary;
            }
        }
        // Last consumer of the classification is behind us: recycle its
        // class grid for the next shape on this worker.
        scratch.put_classes(cls.into_classes());
        // Feasible is Ok even when the deadline cut the run short — the
        // deliverable is proven. Infeasible best-effort is Degraded.
        let status = if outcome.summary.is_feasible() {
            FractureStatus::Ok
        } else {
            FractureStatus::Degraded
        };
        maskfrac_obs::counter!("fracture.shots_emitted").add(outcome.shots.len() as u64);
        maskfrac_obs::registry()
            .histogram("fracture.shots_per_shape")
            .record(outcome.shots.len() as f64);
        FractureResult {
            shots: outcome.shots,
            summary: outcome.summary,
            iterations: outcome.iterations,
            approx_shot_count: approx.shots.len(),
            runtime: start.elapsed(),
            status,
            deadline_hit: outcome.deadline_hit,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maskfrac_geom::Point;

    fn square(side: i64) -> Region {
        Polygon::from_rect(Rect::new(0, 0, side, side).unwrap()).into()
    }

    #[test]
    fn square_is_one_shot() {
        let f = ModelBasedFracturer::new(FractureConfig::default());
        let target = Polygon::from_rect(Rect::new(0, 0, 50, 50).unwrap());
        let r = f.fracture(&target);
        assert!(r.summary.is_feasible(), "{:?}", r.summary);
        assert_eq!(r.shot_count(), 1);
    }

    #[test]
    fn rectangle_is_one_shot() {
        let f = ModelBasedFracturer::new(FractureConfig::default());
        let target = Polygon::from_rect(Rect::new(0, 0, 120, 25).unwrap());
        let r = f.fracture(&target);
        assert!(r.summary.is_feasible(), "{:?}", r.summary);
        assert_eq!(r.shot_count(), 1, "shots: {:?}", r.shots);
    }

    #[test]
    fn l_shape_is_two_shots() {
        let f = ModelBasedFracturer::new(FractureConfig::default());
        let target = Polygon::new(vec![
            Point::new(0, 0),
            Point::new(80, 0),
            Point::new(80, 30),
            Point::new(30, 30),
            Point::new(30, 80),
            Point::new(0, 80),
        ])
        .unwrap();
        let r = f.fracture(&target);
        assert!(r.summary.is_feasible(), "{:?}", r.summary);
        assert!(r.shot_count() <= 3, "L-shape: {:?}", r.shots);
    }

    #[test]
    fn traced_run_exposes_stages() {
        let f = ModelBasedFracturer::new(FractureConfig::default());
        let target = Polygon::from_rect(Rect::new(0, 0, 40, 40).unwrap());
        let result = f.fracture(&target);
        let cls = f.classify(&target);
        let approx = crate::approximate_fracture(&target, &cls, f.model(), f.config(), f.lth());
        let outcome = crate::refine(&cls, f.model(), f.config(), approx.shots.clone());
        assert_eq!(result.approx_shot_count, approx.shots.len());
        assert_eq!(result.iterations, outcome.iterations);
        assert!(!approx.corners.is_empty());
        assert!(approx.simplified.len() >= 4);
    }

    #[test]
    fn lth_is_resolved_once() {
        let f = ModelBasedFracturer::new(FractureConfig {
            lth_override: Some(9.0),
            ..FractureConfig::default()
        });
        assert_eq!(f.lth(), 9.0);
    }

    #[test]
    #[should_panic(expected = "invalid fracture config")]
    fn invalid_config_panics() {
        ModelBasedFracturer::new(FractureConfig {
            gamma: -1.0,
            ..FractureConfig::default()
        });
    }

    #[test]
    fn try_new_reports_typed_config_error() {
        let err = ModelBasedFracturer::try_new(FractureConfig {
            rho: 2.0,
            ..FractureConfig::default()
        })
        .unwrap_err();
        assert!(matches!(err, crate::FractureError::InvalidConfig { .. }), "{err:?}");
    }

    #[test]
    fn feasible_run_is_tagged_ok() {
        // `try_fracture` probes the process-global fault plan: hold its
        // lock with nothing armed so a fault test alongside cannot inject.
        let _quiet = crate::faults::arm_scoped(crate::FaultPlan::uniform(0, 0.0));
        let f = ModelBasedFracturer::new(FractureConfig::default());
        let r = f
            .try_fracture(&square(50), &mut FractureScratch::new())
            .unwrap();
        assert!(r.summary.is_feasible());
        assert_eq!(r.status, crate::FractureStatus::Ok);
    }

    #[test]
    fn try_fracture_rejects_sliver_with_typed_error() {
        let f = ModelBasedFracturer::new(FractureConfig::default());
        let sliver = Polygon::from_rect(Rect::new(0, 0, 60, 4).unwrap());
        let err = f
            .try_fracture(&sliver.into(), &mut FractureScratch::new())
            .unwrap_err();
        assert!(
            matches!(err, crate::FractureError::InvalidTarget(_)),
            "expected InvalidTarget, got {err:?}"
        );
    }

    #[test]
    fn expired_deadline_returns_best_effort_fast() {
        use std::time::Duration;
        // A deadline of zero: the pipeline must return the approximate
        // stage's best-so-far immediately instead of burning Nmax
        // iterations, and must tag an infeasible deliverable Degraded.
        let f = ModelBasedFracturer::new(FractureConfig {
            deadline: Some(Duration::ZERO),
            ..FractureConfig::default()
        });
        let target = Polygon::new(vec![
            Point::new(0, 0),
            Point::new(80, 0),
            Point::new(80, 30),
            Point::new(30, 30),
            Point::new(30, 80),
            Point::new(0, 80),
        ])
        .unwrap();
        let started = std::time::Instant::now();
        let r = f.fracture(&target);
        assert!(started.elapsed() < Duration::from_secs(5), "must not run the full budget");
        if !r.summary.is_feasible() {
            assert_eq!(r.status, crate::FractureStatus::Degraded);
        }
    }

    #[test]
    fn injected_infeasible_fault_is_a_typed_error() {
        let _scope = crate::faults::arm_scoped(crate::FaultPlan::only(
            99,
            crate::Fault::Infeasible,
            1.0,
        ));
        let f = ModelBasedFracturer::new(FractureConfig::default());
        let err = f
            .try_fracture(&square(50), &mut FractureScratch::new())
            .unwrap_err();
        match err {
            crate::FractureError::Internal { stage, message } => {
                assert_eq!(stage, crate::Stage::Refine);
                assert!(message.contains("injected"), "{message}");
            }
            other => panic!("expected Internal, got {other:?}"),
        }
    }

    #[test]
    fn injected_panic_fault_unwinds() {
        let _scope =
            crate::faults::arm_scoped(crate::FaultPlan::only(7, crate::Fault::Panic, 1.0));
        let f = ModelBasedFracturer::new(FractureConfig::default());
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            f.try_fracture(&square(50), &mut FractureScratch::new())
        }));
        assert!(caught.is_err(), "panic fault must unwind");
    }

    #[test]
    fn injected_timeout_fault_still_returns_a_result() {
        let _scope =
            crate::faults::arm_scoped(crate::FaultPlan::only(13, crate::Fault::Timeout, 1.0));
        let f = ModelBasedFracturer::new(FractureConfig::default());
        let r = f
            .try_fracture(&square(50), &mut FractureScratch::new())
            .unwrap();
        assert!(r.status.is_usable());
    }
}

#[cfg(test)]
mod region_tests {
    use super::*;
    use maskfrac_geom::Polygon;

    /// Holds the fault-plan lock with nothing armed: the plan is
    /// process-global, and `try_fracture` probes it, so a fault test
    /// running alongside must not inject into these runs.
    fn no_faults() -> crate::FaultScope {
        crate::faults::arm_scoped(crate::FaultPlan::uniform(0, 0.0))
    }

    #[test]
    fn donut_region_fractures_feasibly() {
        // A square annulus: 90x90 outer with a 30x30 central hole.
        let outer = Polygon::from_rect(Rect::new(0, 0, 90, 90).unwrap());
        let hole = Polygon::from_rect(Rect::new(30, 30, 60, 60).unwrap());
        let donut = Region::new(outer, vec![hole]).unwrap();
        let f = ModelBasedFracturer::new(FractureConfig::default());
        let _quiet = no_faults();
        let r = f.try_fracture(&donut, &mut FractureScratch::new()).unwrap();
        assert!(r.summary.is_feasible(), "{:?}", r.summary);
        // A square annulus needs ~4 overlapping shots.
        assert!(
            (3..=6).contains(&r.shot_count()),
            "annulus shots: {:?}",
            r.shots
        );
        // No shot may cover the hole centre (it would violate Poff there).
        for s in &r.shots {
            assert!(
                !s.contains_f64(45.0, 45.0),
                "shot {s} prints into the hole"
            );
        }
    }

    #[test]
    fn region_of_simple_polygon_matches_polygon_path() {
        let target = Polygon::from_rect(Rect::new(0, 0, 50, 50).unwrap());
        let f = ModelBasedFracturer::new(FractureConfig::default());
        let a = f.fracture(&target);
        let _quiet = no_faults();
        let b = f
            .try_fracture(&Region::simple(target), &mut FractureScratch::new())
            .unwrap();
        assert_eq!(a.shots, b.shots);
        assert_eq!(a.summary, b.summary);
    }
}
