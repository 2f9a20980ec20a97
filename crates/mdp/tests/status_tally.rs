//! The `fracture.status.*` counters count each delivered library entry
//! exactly once, whichever tier served it: a freshly computed shape, a
//! dedup-cache hit, a persistent geometry-cache load, or a degraded-tier
//! delivery of the fallback ladder.
//!
//! Lives in its own integration-test binary because it asserts on deltas
//! of process-global counters (and arms process-global fault plans); all
//! scenarios run sequentially inside one test function.

use maskfrac_fracture::{faults, FaultPlan, FractureConfig, FractureStatus};
use maskfrac_mdp::{fracture_layout_opts, load_layout, LayoutFractureReport, LayoutOptions};
use std::collections::BTreeMap;

const STATUSES: [FractureStatus; 4] = [
    FractureStatus::Ok,
    FractureStatus::Degraded,
    FractureStatus::Fallback,
    FractureStatus::Failed,
];

fn tallies() -> BTreeMap<FractureStatus, usize> {
    STATUSES
        .into_iter()
        .map(|status| {
            let name = format!("fracture.status.{}", status.label());
            let count = maskfrac_obs::registry().snapshot().counters.get(&name).copied();
            (status, count.unwrap_or(0) as usize)
        })
        .collect()
}

/// Runs the layout and asserts the status counters moved by exactly the
/// report's own per-status shape counts.
fn run_and_check(what: &str, options: &LayoutOptions) -> LayoutFractureReport {
    let layout = load_layout(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/layouts/smoke.layout"
    ))
    .expect("smoke layout loads");
    let before = tallies();
    let report = fracture_layout_opts(&layout, &FractureConfig::default(), options);
    let after = tallies();
    let delta: BTreeMap<FractureStatus, usize> = STATUSES
        .into_iter()
        .map(|s| (s, after[&s] - before[&s]))
        .filter(|&(_, n)| n > 0)
        .collect();
    assert_eq!(delta, report.status_counts(), "{what}: tallies vs ledger");
    report
}

#[test]
fn status_counters_sum_to_the_ledger_on_every_tier() {
    let dir = std::env::temp_dir().join(format!("maskfrac-status-tally-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cached = LayoutOptions {
        threads: 2,
        geom_cache: Some(dir.clone()),
        ..LayoutOptions::default()
    };
    let cold = run_and_check("cold", &cached);
    assert!(cold.per_shape.iter().any(|s| s.cache == "computed"));
    let warm = run_and_check("warm geometry cache", &cached);
    assert!(
        warm.per_shape.iter().all(|s| s.cache != "computed"),
        "warm run computed a shape"
    );
    assert!(warm.per_shape.iter().any(|s| s.cache == "disk"));
    let _ = std::fs::remove_dir_all(&dir);

    // Under injected faults some seed makes the degraded tier deliver; a
    // delivery there is tallied as degraded only.
    let plain = LayoutOptions {
        threads: 2,
        ..LayoutOptions::default()
    };
    let degraded_seed = (0..32u64).find(|&seed| {
        let _scope = faults::arm_scoped(FaultPlan::uniform(seed, 0.3));
        let report = run_and_check(&format!("fault seed {seed}"), &plain);
        report.per_shape.iter().any(|s| s.method == "ours-degraded")
    });
    assert!(
        degraded_seed.is_some(),
        "no fault seed in 0..32 made the degraded tier deliver"
    );
}
