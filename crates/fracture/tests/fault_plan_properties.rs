//! Property tests for the fault injection plan: `decide` is a pure
//! function of `(plan, stage, key)` — deterministic across repeated
//! calls and reconstructed plans, independent between stages, and the
//! crash band never disturbs the in-process bands it sits behind.

use maskfrac_fracture::{Fault, FaultPlan};
use maskfrac_geom::rng::{for_cases, StdRng};

const STAGES: [&str; 4] = ["region", "refine", "journal.append", "lth"];

fn stage(rng: &mut StdRng) -> &'static str {
    STAGES[rng.gen_range(0..=3) as usize]
}

#[test]
fn decide_is_deterministic_per_seed_stage_and_key() {
    for_cases(64, |rng| {
        let seed = rng.next_u64();
        let rate = rng.gen_range(0.0..0.32);
        let crash = rng.gen_range(0.0..0.32);
        let stage = stage(rng);
        let key = rng.next_u64();
        let plan = FaultPlan::uniform(seed, rate).with_crash_rate(crash);
        let first = plan.decide(stage, key);
        // Repeated calls and an independently reconstructed plan agree.
        assert_eq!(first, plan.decide(stage, key));
        let rebuilt = FaultPlan::uniform(seed, rate).with_crash_rate(crash);
        assert_eq!(first, rebuilt.decide(stage, key));
    });
}

#[test]
fn crash_band_never_perturbs_in_process_decisions() {
    for_cases(64, |rng| {
        let seed = rng.next_u64();
        let rate = rng.gen_range(0.0..0.32);
        let crash = rng.gen_range(0.0..0.9);
        let stage = stage(rng);
        let key = rng.next_u64();
        // The crash band sits strictly after panic/timeout/infeasible:
        // arming it may convert a `None` into a crash, but an in-process
        // fault decision must be byte-for-byte unchanged.
        let without = FaultPlan::uniform(seed, rate).decide(stage, key);
        let with = FaultPlan::uniform(seed, rate)
            .with_crash_rate(crash)
            .decide(stage, key);
        match without {
            Some(fault) => assert_eq!(with, Some(fault)),
            None => assert!(matches!(with, None | Some(Fault::CrashPoint))),
        }
    });
}

#[test]
fn stages_draw_independent_samples() {
    for_cases(64, |rng| {
        let (seed, key) = (rng.next_u64(), rng.next_u64());
        // A full-rate single-band plan fires on every stage; which band
        // is immaterial — the point is no stage short-circuits another.
        let plan = FaultPlan::only(seed, Fault::Panic, 1.0);
        for stage in STAGES {
            assert_eq!(plan.decide(stage, key), Some(Fault::Panic));
        }
        // And a zero-rate plan never fires anywhere.
        let quiet = FaultPlan::uniform(seed, 0.0);
        for stage in STAGES {
            assert_eq!(quiet.decide(stage, key), None);
        }
    });
}
