//! The reduce sweep's attempt counters on one clip.
//!
//! Its own test binary: the metrics registry is process-global, so no
//! other sweep may run while the counter deltas are read.

use maskfrac_fracture::refine::{reduce_shots, refine};
use maskfrac_fracture::{
    approximate_fracture, FractureConfig, FractureScratch, ModelBasedFracturer,
};

#[test]
fn reduce_counters_match_the_removed_shots() {
    let cfg = FractureConfig {
        reduction_sweep: false,
        refine_threads: 1,
        ..FractureConfig::default()
    };
    let fracturer = ModelBasedFracturer::new(cfg.clone());
    let clip = maskfrac_shapes::ilt_suite()
        .into_iter()
        .find(|c| c.id == "Clip-1")
        .expect("Clip-1 exists");
    let cls = fracturer.classify(&clip.polygon);
    let approx = approximate_fracture(
        &clip.polygon,
        &cls,
        fracturer.model(),
        &cfg,
        fracturer.lth(),
    );
    let refined = refine(&cls, fracturer.model(), &cfg, approx.shots);
    assert!(
        refined.summary.is_feasible(),
        "the sweep needs a feasible start"
    );

    let counter = |name| maskfrac_obs::counter(name).get();
    let names = [
        "fracture.reduce.attempts",
        "fracture.reduce.accepted",
        "fracture.reduce.rejected_iterations",
    ];
    let before = names.map(counter);
    let reduced = reduce_shots(
        &cls,
        fracturer.model(),
        &cfg,
        refined.shots.clone(),
        None,
        &mut FractureScratch::new(),
    );
    let [attempts, accepted, rejected_iterations] =
        [0, 1, 2].map(|i| counter(names[i]) - before[i]);

    let removed = (refined.shots.len() - reduced.shots.len()) as u64;
    assert!(removed > 0, "the sweep removed nothing from Clip-1");
    assert_eq!(accepted, removed);
    assert!(attempts >= accepted);
    // Every sweep ends with a round whose tries all fail.
    assert!(attempts > accepted && rejected_iterations > 0);
    assert!(rejected_iterations <= reduced.iterations as u64);
}
