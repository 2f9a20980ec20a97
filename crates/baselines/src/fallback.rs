//! Crash-proof fracturing with a fallback ladder.
//!
//! Production mask data prep cannot afford to lose a whole layout because
//! one pathological shape panics the optimizer. [`FallbackFracturer`]
//! wraps the paper's model-based method in a fixed ladder of five
//! increasingly conservative rungs, each isolated behind `catch_unwind`
//! and walked in order until one delivers:
//!
//! 1. **`ours`** — [`ModelBasedFracturer::try_fracture`], the validating
//!    front door;
//! 2. **`ours-retry`** — one re-attempt allowing one extra refinement
//!    iteration, which also draws a fresh fault injection decision for
//!    transient injected faults. It runs at once: fault decisions are a
//!    pure hash of `(seed, stage, key)`, so waiting could not change it;
//! 3. **`ours-degraded`** — a deliberately coarser configuration
//!    (quartered iteration budget, no reduction sweep, one plateau
//!    restart); a delivery here is at least [`FractureStatus::Degraded`];
//! 4. **`proto-eda`** — the tolerant-slab-seeded surrogate baseline,
//!    tagged [`FractureStatus::Fallback`];
//! 5. **`conventional`** — plain geometric partitioning, the method of
//!    last resort, also tagged `Fallback`.
//!
//! A baseline rung only *delivers* a non-empty shot list; a rung that
//! comes back empty (proto-eda's min-size filter can drop every slab of
//! a sub-`lmin` sliver) is recorded as a failure cause and the ladder
//! keeps descending.
//!
//! Only when every rung fails does the outcome carry
//! [`FractureStatus::Failed`] — with an empty shot list and the collected
//! failure causes, never a propagated panic.
//!
//! The ladder tallies no `fracture.status.*` counter: whoever delivers
//! the outcome does, once per shape ([`FractureStatus::tally`]).

use crate::conventional::Conventional;
use crate::proto::ProtoEda;
use crate::MaskFracturer;
use maskfrac_ebeam::FailureSummary;
use maskfrac_fracture::{
    FractureConfig, FractureError, FractureResult, FractureScratch, FractureStatus,
    ModelBasedFracturer,
};
use maskfrac_geom::{Polygon, Region};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// What the fallback ladder delivered for one shape.
#[derive(Debug, Clone)]
pub struct FallbackOutcome {
    /// The delivered result. Status is the rung's own tag for the
    /// model-based rungs (`Ok`/`Degraded`), [`FractureStatus::Fallback`]
    /// when a baseline produced the shots, and [`FractureStatus::Failed`]
    /// (empty shot list) when every rung failed.
    pub result: FractureResult,
    /// Which rung delivered: `"ours"`, `"ours-retry"`, `"ours-degraded"`,
    /// `"proto-eda"`, `"conventional"`, or `"none"`.
    pub method: &'static str,
    /// Rungs attempted (1 when the first attempt succeeded).
    pub attempts: u32,
    /// Failure causes of the rungs that did not deliver, oldest first;
    /// `None` when the first attempt succeeded.
    pub error: Option<String>,
}

/// A fracturer that never panics and never returns without a verdict.
///
/// # Example
///
/// ```
/// use maskfrac_baselines::FallbackFracturer;
/// use maskfrac_fracture::{FractureConfig, FractureStatus};
/// use maskfrac_geom::{Polygon, Rect};
///
/// let f = FallbackFracturer::new(FractureConfig::default());
/// let out = f.fracture(&Polygon::from_rect(Rect::new(0, 0, 50, 50).expect("rect")));
/// assert_eq!(out.result.status, FractureStatus::Ok);
/// assert_eq!(out.method, "ours");
/// assert_eq!(out.attempts, 1);
/// ```
pub struct FallbackFracturer {
    config: FractureConfig,
    /// The five rungs in ladder order.
    rungs: [Rung; 5],
}

/// One rung of the ladder: its method label, what it runs, and the
/// least status a delivery from it carries.
struct Rung {
    method: &'static str,
    engine: Engine,
    floor: FractureStatus,
}

/// What a rung runs.
enum Engine {
    /// A model-based configuration, or why it could not be built.
    Model(Result<ModelBasedFracturer, String>),
    /// A baseline, built per call inside the rung's panic guard (an
    /// invalid configuration may panic its constructor).
    Baseline(fn(FractureConfig) -> Box<dyn MaskFracturer>),
}

impl FallbackFracturer {
    /// Builds the ladder. An invalid `config` is not an error here — the
    /// model-based rungs will report it and the ladder falls through to
    /// the baselines (whose own constructors run inside the rung guard).
    pub fn new(config: FractureConfig) -> Self {
        let model = |cfg: FractureConfig| {
            Engine::Model(ModelBasedFracturer::try_new(cfg).map_err(|e| e.to_string()))
        };
        // The retry allows one more refinement iteration: a harmless
        // perturbation that changes the per-(shape, config)
        // fault injection fingerprint, so it draws an independent
        // decision under injected faults.
        let retry = FractureConfig {
            max_iterations: config.max_iterations.saturating_add(1),
            ..config.clone()
        };
        let rungs = [
            Rung {
                method: "ours",
                engine: model(config.clone()),
                floor: FractureStatus::Ok,
            },
            Rung {
                method: "ours-retry",
                engine: model(retry),
                floor: FractureStatus::Ok,
            },
            Rung {
                method: "ours-degraded",
                engine: model(degraded_config(&config)),
                floor: FractureStatus::Degraded,
            },
            Rung {
                method: "proto-eda",
                engine: Engine::Baseline(|cfg| Box::new(ProtoEda::new(cfg))),
                floor: FractureStatus::Fallback,
            },
            Rung {
                method: "conventional",
                engine: Engine::Baseline(|cfg| Box::new(Conventional::new(cfg))),
                floor: FractureStatus::Fallback,
            },
        ];
        FallbackFracturer { config, rungs }
    }

    /// Fractures one shape, descending the ladder until a rung delivers.
    /// Panics in any rung are caught and recorded, not propagated.
    pub fn fracture(&self, target: &Polygon) -> FallbackOutcome {
        self.fracture_with(target, &mut FractureScratch::new())
    }

    /// [`fracture`](Self::fracture) with an explicit per-worker
    /// [`FractureScratch`] arena: the model-based rungs recycle their
    /// working buffers across calls. A rung that panics simply never
    /// returns its buffers (the arena regrows them); results are identical
    /// to [`fracture`](Self::fracture).
    pub fn fracture_with(
        &self,
        target: &Polygon,
        scratch: &mut FractureScratch,
    ) -> FallbackOutcome {
        let _ladder_span = maskfrac_obs::span("fallback.ladder");
        let start = Instant::now();
        let mut errors: Vec<String> = Vec::new();
        let region = Region::simple(target.clone());

        for (attempts, rung) in (1..).zip(&self.rungs) {
            maskfrac_obs::counter(rung_attempt_counter(rung.method)).incr();
            let delivered = match &rung.engine {
                Engine::Model(Ok(f)) => guarded(|| f.try_fracture(&region, &mut *scratch)),
                Engine::Model(Err(cause)) => Err(cause.clone()),
                // An empty shot list is not a delivery: proto-eda's
                // min-size filter can drop every slab of a sub-`lmin`
                // sliver, and accepting that would hand the caller a
                // Fallback status with nothing to write.
                Engine::Baseline(build) => {
                    match guarded(|| Ok(build(self.config.clone()).fracture(target))) {
                        Ok(result) if result.shots.is_empty() => {
                            Err("delivered an empty shot list".to_owned())
                        }
                        other => other,
                    }
                }
            };
            match delivered {
                Ok(mut result) => {
                    result.status = result.status.max(rung.floor);
                    maskfrac_obs::counter(rung_delivered_counter(rung.method)).incr();
                    return FallbackOutcome {
                        result,
                        method: rung.method,
                        attempts,
                        error: join_errors(&errors),
                    };
                }
                Err(cause) => {
                    maskfrac_obs::counter!("fallback.rung_failures").incr();
                    errors.push(format!("{}: {cause}", rung.method));
                }
            }
        }

        FallbackOutcome {
            result: FractureResult {
                shots: Vec::new(),
                summary: FailureSummary {
                    on_fails: 0,
                    off_fails: 0,
                    cost: 0.0,
                },
                iterations: 0,
                approx_shot_count: 0,
                runtime: start.elapsed(),
                status: FractureStatus::Failed,
                deadline_hit: false,
            },
            method: "none",
            attempts: self.rungs.len() as u32,
            error: join_errors(&errors),
        }
    }
}

/// Counter name for attempts of one ladder rung (names are interned
/// statics because the metric registry keys on `&'static str`).
fn rung_attempt_counter(method: &str) -> &'static str {
    match method {
        "ours" => "fallback.rung.ours.attempts",
        "ours-retry" => "fallback.rung.ours-retry.attempts",
        "ours-degraded" => "fallback.rung.ours-degraded.attempts",
        "proto-eda" => "fallback.rung.proto-eda.attempts",
        _ => "fallback.rung.conventional.attempts",
    }
}

/// Counter name for deliveries of one ladder rung.
fn rung_delivered_counter(method: &str) -> &'static str {
    match method {
        "ours" => "fallback.rung.ours.delivered",
        "ours-retry" => "fallback.rung.ours-retry.delivered",
        "ours-degraded" => "fallback.rung.ours-degraded.delivered",
        "proto-eda" => "fallback.rung.proto-eda.delivered",
        _ => "fallback.rung.conventional.delivered",
    }
}

/// The degraded-tier configuration: a deliberately coarser variant of
/// `config` that finishes fast when the full-budget attempts could not —
/// a quarter of the iteration budget, no reduction sweep, a single
/// plateau restart. Validation knobs (`min_shot_size`, model
/// parameters) are untouched, and the 4096 nm extent cap is a constant:
/// a shape the front door rejects is still rejected here and falls
/// through to the baselines.
fn degraded_config(config: &FractureConfig) -> FractureConfig {
    FractureConfig {
        max_iterations: (config.max_iterations / 4).max(1),
        reduction_sweep: false,
        max_plateau_restarts: 1,
        ..config.clone()
    }
}

/// Runs one rung, converting both typed errors and panics into a cause
/// string.
fn guarded<F>(rung: F) -> Result<FractureResult, String>
where
    F: FnOnce() -> Result<FractureResult, FractureError>,
{
    match catch_unwind(AssertUnwindSafe(rung)) {
        Ok(Ok(result)) => Ok(result),
        Ok(Err(e)) => Err(e.to_string()),
        Err(payload) => Err(format!("panicked: {}", panic_text(payload.as_ref()))),
    }
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

fn join_errors(errors: &[String]) -> Option<String> {
    if errors.is_empty() {
        None
    } else {
        Some(errors.join("; "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maskfrac_fracture::{faults, Fault, FaultPlan};
    use maskfrac_geom::Rect;

    #[test]
    fn clean_shape_takes_the_first_rung() {
        let f = FallbackFracturer::new(FractureConfig::default());
        let out = f.fracture(&Polygon::from_rect(Rect::new(0, 0, 50, 50).unwrap()));
        assert_eq!(out.method, "ours");
        assert_eq!(out.attempts, 1);
        assert!(out.error.is_none());
        assert_eq!(out.result.status, FractureStatus::Ok);
        assert_eq!(out.result.shot_count(), 1);
    }

    #[test]
    fn degenerate_sliver_falls_back_to_a_baseline() {
        // Thinner than min_shot_size: the validating front door rejects
        // it, both model-based rungs fail, a baseline still delivers.
        let f = FallbackFracturer::new(FractureConfig::default());
        let out = f.fracture(&Polygon::from_rect(Rect::new(0, 0, 60, 4).unwrap()));
        assert_eq!(out.result.status, FractureStatus::Fallback);
        assert!(out.attempts >= 3, "attempts: {}", out.attempts);
        let cause = out.error.expect("causes recorded");
        assert!(cause.contains("ours:"), "{cause}");
        assert!(!out.result.shots.is_empty(), "fallback must deliver shots");
    }

    #[test]
    fn invalid_config_still_yields_a_verdict() {
        let f = FallbackFracturer::new(FractureConfig {
            gamma: -1.0,
            ..FractureConfig::default()
        });
        let out = f.fracture(&Polygon::from_rect(Rect::new(0, 0, 50, 50).unwrap()));
        // The baselines may panic on the invalid config too; either way
        // the ladder returns instead of aborting.
        assert!(out.result.status >= FractureStatus::Fallback);
        assert!(out.error.expect("causes").contains("ours:"));
    }

    #[test]
    fn injected_panic_is_caught_and_ridden_out() {
        let _scope = faults::arm_scoped(FaultPlan::only(7, Fault::Panic, 1.0));
        let f = FallbackFracturer::new(FractureConfig::default());
        let out = f.fracture(&Polygon::from_rect(Rect::new(0, 0, 50, 50).unwrap()));
        // Both model-based rungs panic (rate 1.0); proto-eda delivers.
        assert_eq!(out.result.status, FractureStatus::Fallback);
        assert!(out.error.expect("causes").contains("panicked"));
        assert!(!out.result.shots.is_empty());
    }

    #[test]
    fn retry_budget_controls_model_attempts() {
        // A sliver fails validation on every model-based attempt and is
        // dropped whole by proto-eda's min-size filter, so it walks the
        // whole ladder: the primary attempt and its one retry, then the
        // degraded tier, proto-eda and conventional, in that order.
        let f = FallbackFracturer::new(FractureConfig::default());
        let out = f.fracture(&Polygon::from_rect(Rect::new(0, 0, 60, 4).unwrap()));
        assert_eq!(out.result.status, FractureStatus::Fallback);
        assert_eq!(out.method, "conventional");
        assert_eq!(out.attempts, 5);
        let causes: Vec<&str> = out
            .error
            .as_deref()
            .unwrap_or("")
            .split("; ")
            .map(|c| c.split(':').next().unwrap_or(""))
            .collect();
        assert_eq!(causes, ["ours", "ours-retry", "ours-degraded", "proto-eda"]);
        assert!(
            out.error.as_deref().unwrap_or("").contains("empty shot list"),
            "proto-eda's dropped delivery is recorded as a cause"
        );
    }

    #[test]
    fn degraded_tier_delivery_is_journaled_as_degraded() {
        // Fault decisions are a pure hash of (seed, stage, config
        // fingerprint), and the degraded tier runs under a different
        // configuration than the full-budget attempts — so some seed
        // panics the primary attempt and its retry but spares the
        // degraded one. Scan for it deterministically.
        let target = Polygon::from_rect(Rect::new(0, 0, 50, 50).unwrap());
        let f = FallbackFracturer::new(FractureConfig::default());
        let mut seen_degraded = false;
        for seed in 0..64u64 {
            let _scope = faults::arm_scoped(FaultPlan::only(seed, Fault::Panic, 0.5));
            let out = f.fracture(&target);
            if out.method == "ours-degraded" {
                assert!(
                    out.result.status >= FractureStatus::Degraded,
                    "degraded delivery must not report a clean status"
                );
                let causes = out.error.expect("model-based causes recorded");
                assert!(
                    causes.contains("ours:") && causes.contains("ours-retry:"),
                    "{causes}"
                );
                assert_eq!(out.attempts, 3, "ours + ours-retry + ours-degraded");
                seen_degraded = true;
                break;
            }
        }
        assert!(seen_degraded, "no seed in 0..64 exercised the degraded tier");
    }

    #[test]
    fn injected_timeout_keeps_the_model_based_rung() {
        let _scope = faults::arm_scoped(FaultPlan::only(13, Fault::Timeout, 1.0));
        let f = FallbackFracturer::new(FractureConfig::default());
        let out = f.fracture(&Polygon::from_rect(Rect::new(0, 0, 50, 50).unwrap()));
        // Timeouts return best-so-far from the model-based rung — no
        // fallback needed, though the result may be Degraded.
        assert_eq!(out.method, "ours");
        assert!(out.result.status.is_usable());
    }
}
