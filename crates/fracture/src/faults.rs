//! Deterministic, seeded fault injection for robustness testing.
//!
//! The crash-proofing in [`maskfrac_mdp`](../../mdp) (per-shape
//! `catch_unwind`, retry, fallback ladder) is only trustworthy if it is
//! exercised; real panics are too rare to test against. This harness lets
//! a test or the `robustness` bench *arm* a [`FaultPlan`] that makes the
//! pipeline fail on a deterministic, seed-selected subset of shapes:
//!
//! * [`Fault::Panic`] — the pipeline panics mid-run (exercises
//!   `catch_unwind` isolation);
//! * [`Fault::Timeout`] — the pipeline behaves as if its wall-clock
//!   deadline expired immediately (exercises degraded best-so-far paths);
//! * [`Fault::Infeasible`] — the pipeline reports an infeasible residue
//!   (exercises the fallback ladder);
//! * [`Fault::CrashPoint`] — the *process* should die at this probe
//!   (exercises durable checkpoint/resume; see `docs/robustness.md`).
//!   Unlike the in-process kinds, crash probes live on the journal write
//!   path in `maskfrac-mdp`, and the actor is expected to tear the write
//!   in progress and `abort()` — a crash harness decision, never an
//!   in-process error.
//!
//! Decisions are *pure*: a splitmix64 hash of `(seed, stage, key)` — no
//! RNG state — so they are independent of thread scheduling and identical
//! across reruns. The per-shape `key` incorporates the configuration
//! fingerprint, so a retry under a relaxed config draws a fresh decision.
//!
//! Arming is process-global and scoped: [`arm_scoped`] returns an RAII
//! guard that serialises concurrent users (tests in one binary run in
//! parallel) and disarms on drop. The probes are always compiled in;
//! with no plan armed, [`fire`] takes one lock and returns `None`.

use std::sync::{Mutex, MutexGuard};

/// A fault the harness can force.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Fault {
    /// Panic mid-pipeline.
    Panic,
    /// Behave as if the wall-clock deadline expired immediately.
    Timeout,
    /// Report an infeasible residue from refinement.
    Infeasible,
    /// Kill the process at this probe (torn-write crash injection).
    CrashPoint,
}

/// Seeded fault schedule: one rate per fault kind, laid out as
/// consecutive bands of a single draw.
///
/// For a given probe the unit sample `r = hash(seed, stage, key)` in
/// `[0, 1)` selects `Panic` when `r < panic_rate`, `Timeout` when
/// `r < panic_rate + timeout_rate`, `Infeasible` when
/// `r < panic_rate + timeout_rate + infeasible_rate`, and `CrashPoint`
/// when `r` falls in the next `crash_rate`-wide band. The kinds are
/// therefore mutually exclusive per probe, and each fires at its rate
/// only while the bands fit in `[0, 1)`: once the rates sum past 1, the
/// bands that start past 1 never fire and the one straddling 1 is cut
/// short. Crash probes are
/// opt-in: [`FaultPlan::uniform`] keeps `crash_rate` at zero so the
/// in-process robustness suites never kill their own test binary; use
/// [`FaultPlan::with_crash_rate`] or [`FaultPlan::only`] to arm crashes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed of the deterministic schedule.
    pub seed: u64,
    /// Probability of [`Fault::Panic`] per probe.
    pub panic_rate: f64,
    /// Probability of [`Fault::Timeout`] per probe.
    pub timeout_rate: f64,
    /// Probability of [`Fault::Infeasible`] per probe.
    pub infeasible_rate: f64,
    /// Probability of [`Fault::CrashPoint`] per probe.
    pub crash_rate: f64,
}

impl FaultPlan {
    /// A plan firing each in-process fault kind with the same `rate`.
    /// Crash probes stay disarmed; chain [`FaultPlan::with_crash_rate`]
    /// to add them.
    pub fn uniform(seed: u64, rate: f64) -> Self {
        FaultPlan {
            seed,
            panic_rate: rate,
            timeout_rate: rate,
            infeasible_rate: rate,
            crash_rate: 0.0,
        }
    }

    /// A plan that fires only `fault`, with probability `rate`.
    pub fn only(seed: u64, fault: Fault, rate: f64) -> Self {
        let mut plan = FaultPlan {
            seed,
            panic_rate: 0.0,
            timeout_rate: 0.0,
            infeasible_rate: 0.0,
            crash_rate: 0.0,
        };
        match fault {
            Fault::Panic => plan.panic_rate = rate,
            Fault::Timeout => plan.timeout_rate = rate,
            Fault::Infeasible => plan.infeasible_rate = rate,
            Fault::CrashPoint => plan.crash_rate = rate,
        }
        plan
    }

    /// The same plan with its crash-probe band set to `rate`.
    pub fn with_crash_rate(mut self, rate: f64) -> Self {
        self.crash_rate = rate;
        self
    }

    /// Pure decision for one probe point.
    pub fn decide(&self, stage: &str, key: u64) -> Option<Fault> {
        let r = unit_sample(self.seed ^ fnv1a(stage.as_bytes()) ^ key.wrapping_mul(GOLDEN));
        if r < self.panic_rate {
            Some(Fault::Panic)
        } else if r < self.panic_rate + self.timeout_rate {
            Some(Fault::Timeout)
        } else if r < self.panic_rate + self.timeout_rate + self.infeasible_rate {
            Some(Fault::Infeasible)
        } else if r < self.panic_rate + self.timeout_rate + self.infeasible_rate + self.crash_rate {
            Some(Fault::CrashPoint)
        } else {
            None
        }
    }
}

const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(GOLDEN);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn unit_sample(x: u64) -> f64 {
    // Top 53 bits -> [0, 1).
    (splitmix64(x) >> 11) as f64 / (1u64 << 53) as f64
}

/// Stable fingerprint of a probe subject (shape geometry, config knobs).
/// Combine fingerprints with `^` or [`u64::wrapping_mul`] as needed.
pub fn fingerprint(bytes: &[u8]) -> u64 {
    fnv1a(bytes)
}

static PLAN: Mutex<Option<FaultPlan>> = Mutex::new(None);
static SCOPE: Mutex<()> = Mutex::new(());

/// RAII guard returned by [`arm_scoped`]: serialises armers and disarms
/// the global plan on drop.
#[must_use = "the plan is disarmed when the scope drops"]
pub struct FaultScope {
    _serial: MutexGuard<'static, ()>,
}

impl Drop for FaultScope {
    fn drop(&mut self) {
        *PLAN.lock().unwrap_or_else(|e| e.into_inner()) = None;
    }
}

/// Arms `plan` process-wide until the returned scope drops.
///
/// Blocks while another scope is alive, so concurrent tests cannot
/// observe each other's plans. A panic while armed poisons nothing
/// observable: both locks recover from poisoning.
pub fn arm_scoped(plan: FaultPlan) -> FaultScope {
    let serial = SCOPE.lock().unwrap_or_else(|e| e.into_inner());
    *PLAN.lock().unwrap_or_else(|e| e.into_inner()) = Some(plan);
    FaultScope { _serial: serial }
}

/// Whether the armed plan can change a fracturing result: a nonzero
/// panic, timeout or infeasible rate. Crash probes only end the process,
/// so under a crash-only plan (or none) every result is still a pure
/// function of geometry and config, and safe to persist.
pub fn alters_results() -> bool {
    PLAN.lock()
        .unwrap_or_else(|e| e.into_inner())
        .is_some_and(|p| p.panic_rate > 0.0 || p.timeout_rate > 0.0 || p.infeasible_rate > 0.0)
}

/// Probe the harness at a named stage. Returns the fault to act out, if
/// any.
#[inline]
pub fn fire(stage: &str, key: u64) -> Option<Fault> {
    let plan = *PLAN.lock().unwrap_or_else(|e| e.into_inner());
    plan.and_then(|p| p.decide(stage, key))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic() {
        let plan = FaultPlan::uniform(42, 0.1);
        for key in 0..100u64 {
            assert_eq!(plan.decide("pipeline", key), plan.decide("pipeline", key));
        }
    }

    #[test]
    fn rates_are_roughly_respected() {
        let plan = FaultPlan::uniform(7, 0.1);
        let fired = (0..10_000u64)
            .filter(|&k| plan.decide("pipeline", k).is_some())
            .count();
        // 30% aggregate rate; allow generous slack for the hash.
        assert!((2_400..=3_600).contains(&fired), "fired {fired}/10000");
    }

    #[test]
    fn zero_rate_never_fires() {
        let plan = FaultPlan::uniform(3, 0.0);
        assert!((0..1_000u64).all(|k| plan.decide("x", k).is_none()));
    }

    #[test]
    fn only_constrains_kind() {
        let plan = FaultPlan::only(11, Fault::Timeout, 0.5);
        for k in 0..1_000u64 {
            if let Some(f) = plan.decide("pipeline", k) {
                assert_eq!(f, Fault::Timeout);
            }
        }
    }

    #[test]
    fn scope_arms_and_disarms() {
        assert_eq!(fire("scope-test", 1), None);
        {
            let _scope = arm_scoped(FaultPlan::uniform(1, 1.0));
            assert!(alters_results());
            assert!(fire("scope-test", 1).is_some());
        }
        assert!(!alters_results());
        {
            let _scope = arm_scoped(FaultPlan::only(1, Fault::CrashPoint, 1.0));
            assert!(!alters_results(), "crash probes leave results pure");
        }
        assert_eq!(fire("scope-test", 1), None);
    }

    #[test]
    fn uniform_plans_never_draw_a_crash() {
        let plan = FaultPlan::uniform(9, 0.2);
        assert!((0..10_000u64).all(|k| plan.decide("journal.append", k) != Some(Fault::CrashPoint)));
    }

    #[test]
    fn crash_band_sits_after_the_in_process_bands() {
        let plan = FaultPlan::uniform(13, 0.1).with_crash_rate(0.3);
        let mut counts = [0usize; 4];
        for k in 0..10_000u64 {
            match plan.decide("journal.append", k) {
                Some(Fault::Panic) => counts[0] += 1,
                Some(Fault::Timeout) => counts[1] += 1,
                Some(Fault::Infeasible) => counts[2] += 1,
                Some(Fault::CrashPoint) => counts[3] += 1,
                None => {}
            }
        }
        // Each in-process band ~10%, crash band ~30%.
        for c in &counts[..3] {
            assert!((600..=1_400).contains(c), "in-process band {counts:?}");
        }
        assert!((2_400..=3_600).contains(&counts[3]), "crash band {counts:?}");
        // Adding a crash band must not disturb the in-process decisions.
        let base = FaultPlan::uniform(13, 0.1);
        for k in 0..1_000u64 {
            if let Some(f) = base.decide("journal.append", k) {
                assert_eq!(plan.decide("journal.append", k), Some(f));
            }
        }
    }

    #[test]
    fn only_crash_point_fires_nothing_else() {
        let plan = FaultPlan::only(17, Fault::CrashPoint, 1.0);
        for k in 0..100u64 {
            assert_eq!(plan.decide("journal.append", k), Some(Fault::CrashPoint));
        }
    }

    #[test]
    fn stage_and_key_decorrelate() {
        let plan = FaultPlan::uniform(5, 0.15);
        let a: Vec<_> = (0..64u64).map(|k| plan.decide("approx", k)).collect();
        let b: Vec<_> = (0..64u64).map(|k| plan.decide("refine", k)).collect();
        assert_ne!(a, b, "different stages must draw independent samples");
    }
}
