//! Crash-proof fracturing with a fallback ladder.
//!
//! Production mask data prep cannot afford to lose a whole layout because
//! one pathological shape panics the optimizer. [`FallbackFracturer`]
//! wraps the paper's model-based method in a ladder of increasingly
//! conservative attempts, each isolated behind `catch_unwind`:
//!
//! 1. **model-based** — [`ModelBasedFracturer::try_fracture`], the
//!    validating front door;
//! 2. **model-based retries** — up to [`RetryPolicy::retries`] more
//!    attempts under perturbed configurations (each allows one extra
//!    refinement iteration, which also draws a fresh fault-injection
//!    decision for transient injected faults), separated by the policy's
//!    bounded exponential backoff;
//! 3. **model-based degraded** — a deliberately coarser configuration
//!    (quartered iteration budget, no reduction sweep, no plateau
//!    restarts) once the retry budget is exhausted; a delivery here is
//!    journaled as at-least-[`FractureStatus::Degraded`];
//! 4. **proto-eda** — the tolerant-slab-seeded surrogate baseline,
//!    tagged [`FractureStatus::Fallback`];
//! 5. **conventional** — plain geometric partitioning, the method of
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

use crate::conventional::Conventional;
use crate::proto::ProtoEda;
use crate::MaskFracturer;
use maskfrac_ebeam::FailureSummary;
use maskfrac_fracture::{
    FractureConfig, FractureError, FractureResult, FractureScratch, FractureStatus,
    ModelBasedFracturer, RetryPolicy,
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
    policy: RetryPolicy,
    /// Model-based attempts in ladder order: `model[0]` is the primary
    /// configuration, `model[i]` allows `i` extra refinement iterations.
    model: Vec<Result<ModelBasedFracturer, String>>,
    /// The coarser degraded-tier fracturer, tried after the retry budget
    /// is exhausted and before the baseline rungs.
    degraded: Result<ModelBasedFracturer, String>,
}

impl FallbackFracturer {
    /// Builds the ladder under the default [`RetryPolicy`] (one retry,
    /// matching the original two-rung model-based ladder).
    pub fn new(config: FractureConfig) -> Self {
        Self::with_policy(config, RetryPolicy::default())
    }

    /// Builds the ladder with an explicit supervisor `policy`. An
    /// invalid `config` is not an error here — the model-based rungs
    /// will report it and the ladder falls through to the baselines
    /// (whose own constructors are also guarded).
    pub fn with_policy(config: FractureConfig, policy: RetryPolicy) -> Self {
        // Each re-attempt allows one more refinement iteration: a
        // harmless perturbation that changes the per-(shape, config)
        // fault-injection fingerprint, so every retry draws an
        // independent decision under injected faults.
        let model = (0..policy.model_attempts() as usize)
            .map(|extra| {
                let cfg = FractureConfig {
                    max_iterations: config.max_iterations.saturating_add(extra),
                    ..config.clone()
                };
                ModelBasedFracturer::try_new(cfg).map_err(|e| e.to_string())
            })
            .collect();
        let degraded =
            ModelBasedFracturer::try_new(degraded_config(&config)).map_err(|e| e.to_string());
        FallbackFracturer {
            config,
            policy,
            model,
            degraded,
        }
    }

    /// The configuration the ladder runs with.
    pub fn config(&self) -> &FractureConfig {
        &self.config
    }

    /// The supervisor policy the ladder runs under.
    pub fn policy(&self) -> &RetryPolicy {
        &self.policy
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
        let mut attempts = 0u32;
        let region = Region::simple(target.clone());

        for (retry_index, fracturer) in self.model.iter().enumerate() {
            let method = if retry_index == 0 { "ours" } else { "ours-retry" };
            if retry_index > 0 {
                // Bounded exponential pause before every re-attempt: a
                // transient cause (injected panic, contended machine) is
                // not immediately re-hit.
                let pause = self.policy.backoff(retry_index as u32);
                if !pause.is_zero() {
                    maskfrac_obs::counter!("fallback.backoff_sleeps").incr();
                    std::thread::sleep(pause);
                }
            }
            attempts += 1;
            maskfrac_obs::counter(rung_attempt_counter(method)).incr();
            match fracturer {
                Ok(f) => match guarded(|| f.try_fracture(&region, &mut *scratch)) {
                    Ok(result) => {
                        maskfrac_obs::counter(rung_delivered_counter(method)).incr();
                        return FallbackOutcome {
                            result,
                            method,
                            attempts,
                            error: join_errors(&errors),
                        }
                    }
                    Err(cause) => {
                        maskfrac_obs::counter!("fallback.rung_failures").incr();
                        errors.push(format!("{method}: {cause}"));
                    }
                },
                Err(cause) => {
                    maskfrac_obs::counter!("fallback.rung_failures").incr();
                    errors.push(format!("{method}: {cause}"));
                }
            }
        }

        // Degraded tier: the retry budget is exhausted, so trade shot
        // quality for a verdict under a coarser configuration before
        // surrendering to the baselines. A delivery here is always
        // journaled as at-least-Degraded, even if the coarse run itself
        // came back clean.
        attempts += 1;
        maskfrac_obs::counter(rung_attempt_counter("ours-degraded")).incr();
        match &self.degraded {
            Ok(f) => match guarded(|| f.try_fracture(&region, &mut *scratch)) {
                Ok(mut result) => {
                    if result.status < FractureStatus::Degraded {
                        result.status = FractureStatus::Degraded;
                        maskfrac_obs::counter!("fracture.status.degraded").incr();
                    }
                    maskfrac_obs::counter(rung_delivered_counter("ours-degraded")).incr();
                    return FallbackOutcome {
                        result,
                        method: "ours-degraded",
                        attempts,
                        error: join_errors(&errors),
                    };
                }
                Err(cause) => {
                    maskfrac_obs::counter!("fallback.rung_failures").incr();
                    errors.push(format!("ours-degraded: {cause}"));
                }
            },
            Err(cause) => {
                maskfrac_obs::counter!("fallback.rung_failures").incr();
                errors.push(format!("ours-degraded: {cause}"));
            }
        }

        type Rung<'a> = Box<dyn FnOnce() -> FractureResult + 'a>;
        let proto_cfg = self.config.clone();
        let conv_cfg = self.config.clone();
        let rungs: [(&'static str, Rung<'_>); 2] = [
            (
                "proto-eda",
                Box::new(move || ProtoEda::new(proto_cfg).fracture(target)),
            ),
            (
                "conventional",
                Box::new(move || Conventional::new(conv_cfg).fracture(target)),
            ),
        ];
        for (method, rung) in rungs {
            attempts += 1;
            maskfrac_obs::counter(rung_attempt_counter(method)).incr();
            match guarded(|| Ok(rung())) {
                // An empty shot list is not a delivery: proto-eda's
                // min-size filter can drop every slab of a sub-`lmin`
                // sliver, and accepting that as "usable" would hand the
                // caller a Fallback status with nothing to write (the
                // `robustness --inject` empty-shot-list violation).
                // Fall through to the next rung instead.
                Ok(result) if result.shots.is_empty() => {
                    maskfrac_obs::counter!("fallback.rung_failures").incr();
                    errors.push(format!("{method}: delivered an empty shot list"));
                }
                Ok(mut result) => {
                    result.status = FractureStatus::Fallback;
                    maskfrac_obs::counter(rung_delivered_counter(method)).incr();
                    maskfrac_obs::counter!("fracture.status.fallback").incr();
                    return FallbackOutcome {
                        result,
                        method,
                        attempts,
                        error: join_errors(&errors),
                    };
                }
                Err(cause) => {
                    maskfrac_obs::counter!("fallback.rung_failures").incr();
                    errors.push(format!("{method}: {cause}"));
                }
            }
        }

        maskfrac_obs::counter!("fracture.status.failed").incr();
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
            attempts,
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
/// plateau restart. Validation knobs (`min_shot_size`, `max_extent`,
/// model parameters) are untouched: a shape the front door rejects is
/// still rejected here and falls through to the baselines.
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
        // dropped whole by proto-eda's min-size filter, so the attempt
        // count exposes the ladder length directly:
        // (1 + retries) model rungs + degraded + proto-eda + conventional.
        let sliver = Polygon::from_rect(Rect::new(0, 0, 60, 4).unwrap());
        for retries in [0u32, 1, 3] {
            let f = FallbackFracturer::with_policy(
                FractureConfig::default(),
                RetryPolicy {
                    retries,
                    backoff_base_ms: 0,
                    backoff_max_ms: 0,
                },
            );
            let out = f.fracture(&sliver);
            assert_eq!(out.result.status, FractureStatus::Fallback);
            assert_eq!(out.attempts, retries + 4, "retries={retries}");
            assert!(out.error.as_deref().unwrap_or("").contains("ours-degraded:"));
            assert!(
                out.error.as_deref().unwrap_or("").contains("empty shot list"),
                "proto-eda's dropped delivery is recorded as a cause"
            );
        }
    }

    #[test]
    fn degraded_tier_delivery_is_journaled_as_degraded() {
        // Fault decisions are a pure hash of (seed, stage, config
        // fingerprint), and the degraded tier runs under a different
        // configuration than the full-budget attempts — so some seed
        // panics the primary attempt but spares the degraded one. Scan
        // for it deterministically.
        let target = Polygon::from_rect(Rect::new(0, 0, 50, 50).unwrap());
        let f = FallbackFracturer::with_policy(FractureConfig::default(), RetryPolicy::none());
        let mut seen_degraded = false;
        for seed in 0..64u64 {
            let _scope = faults::arm_scoped(FaultPlan::only(seed, Fault::Panic, 0.5));
            let out = f.fracture(&target);
            if out.method == "ours-degraded" {
                assert!(
                    out.result.status >= FractureStatus::Degraded,
                    "degraded delivery must not report a clean status"
                );
                assert!(out.error.expect("primary cause recorded").contains("ours:"));
                assert_eq!(out.attempts, 2, "ours + ours-degraded");
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
