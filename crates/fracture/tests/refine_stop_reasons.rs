//! Every refinement run counts exactly one stop reason.
//!
//! Its own test binary: the metrics registry is process-global, so no
//! other refinement may run while the counter deltas are read.

use maskfrac_ebeam::Classification;
use maskfrac_fracture::refine::{reduce_shots, refine, RefineOutcome};
use maskfrac_fracture::{
    approximate_fracture, FractureConfig, FractureScratch, ModelBasedFracturer,
};
use maskfrac_geom::Rect;

const STOPS: [&str; 4] = [
    "fracture.refine.stop.converged",
    "fracture.refine.stop.deadline",
    "fracture.refine.stop.plateau",
    "fracture.refine.stop.iteration_cap",
];

fn stop_counts() -> [u64; 4] {
    STOPS.map(|name| maskfrac_obs::counter(name).get())
}

/// The stop counters' deltas across `run`, with its result.
fn stops_of<T>(run: impl FnOnce() -> T) -> ([u64; 4], T) {
    let before = stop_counts();
    let out = run();
    let after = stop_counts();
    ([0, 1, 2, 3].map(|i| after[i] - before[i]), out)
}

/// A clip's classification and approximate solution.
fn start(
    fracturer: &ModelBasedFracturer,
    cfg: &FractureConfig,
    id: &str,
) -> (Classification, Vec<Rect>) {
    let clip = maskfrac_shapes::ilt_suite()
        .into_iter()
        .find(|c| c.id == id)
        .expect("clip exists");
    let cls = fracturer.classify(&clip.polygon);
    let approx = approximate_fracture(&clip.polygon, &cls, fracturer.model(), cfg, fracturer.lth());
    (cls, approx.shots)
}

#[test]
fn each_refinement_counts_one_stop_reason() {
    let cfg = FractureConfig {
        reduction_sweep: false,
        refine_threads: 1,
        ..FractureConfig::default()
    };
    let fracturer = ModelBasedFracturer::new(cfg.clone());
    let model = fracturer.model();
    let (clip1, clip1_shots) = start(&fracturer, &cfg, "Clip-1");
    let (clip4, clip4_shots) = start(&fracturer, &cfg, "Clip-4");

    let (stops, converged) = stops_of(|| refine(&clip1, model, &cfg, clip1_shots.clone()));
    assert!(converged.summary.is_feasible());
    assert_eq!(stops, [1, 0, 0, 0], "Clip-1 converges");

    let capped = FractureConfig {
        max_iterations: 3,
        ..cfg.clone()
    };
    let (stops, out) = stops_of(|| refine(&clip1, model, &capped, clip1_shots.clone()));
    assert_eq!(out.iterations, 3);
    assert_eq!(stops, [0, 0, 0, 1], "3 iterations hit the cap");

    let expired = FractureConfig {
        deadline: Some(std::time::Duration::ZERO),
        ..cfg.clone()
    };
    let (stops, out) = stops_of(|| refine(&clip1, model, &expired, clip1_shots.clone()));
    assert!(out.deadline_hit);
    assert_eq!(stops, [0, 1, 0, 0], "an expired deadline stops the run");

    // Clip-4 keeps an infeasible residue the restarts cannot clear.
    let (stops, out): (_, RefineOutcome) = stops_of(|| refine(&clip4, model, &cfg, clip4_shots));
    assert!(!out.summary.is_feasible());
    assert!(out.iterations < cfg.max_iterations);
    assert_eq!(stops, [0, 0, 1, 0], "Clip-4 stops on plateau");

    // The reduce sweep runs one bounded refinement per try.
    let attempts = || maskfrac_obs::counter("fracture.reduce.attempts").get();
    let tries = attempts();
    let mut scratch = FractureScratch::new();
    let (stops, reduced) = stops_of(|| {
        reduce_shots(
            &clip1,
            model,
            &cfg,
            converged.shots.clone(),
            None,
            &mut scratch,
        )
    });
    let tries = attempts() - tries;
    assert!(reduced.shots.len() < converged.shots.len());
    assert!(tries > 1);
    assert_eq!(stops.iter().sum::<u64>(), tries, "stops {stops:?}");
}
