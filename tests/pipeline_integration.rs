//! Cross-crate integration tests: the full fracturing pipeline against
//! the benchmark suite, verified by independent re-simulation.

use maskfrac::baselines::{MaskFracturer, ProtoEda};
use maskfrac::fracture::{verify_shots, FractureConfig, FractureScratch, ModelBasedFracturer};
use maskfrac::shapes::{generated_suite, ilt_suite};

/// A trimmed config keeps CI latency low without changing the physics.
fn fast_config() -> FractureConfig {
    FractureConfig {
        max_iterations: 600,
        ..FractureConfig::default()
    }
}

#[test]
fn small_ilt_clips_fracture_feasibly() {
    let fracturer = ModelBasedFracturer::new(fast_config());
    for clip in ilt_suite() {
        // The three smallest clips keep this test quick.
        if !["Clip-1", "Clip-3", "Clip-6"].contains(&clip.id.as_str()) {
            continue;
        }
        let result = fracturer.fracture(&clip.polygon);
        assert!(
            result.summary.is_feasible(),
            "{}: {:?}",
            clip.id,
            result.summary
        );
        // The returned summary must agree with an independent referee.
        let verdict = verify_shots(&clip.polygon, &result.shots, fracturer.config());
        assert_eq!(verdict.fail_count(), 0, "{}", clip.id);
        // Shot counts land in the ballpark of the paper's per-clip bounds.
        assert!(
            result.shot_count() <= 2 * clip.reference.upper_bound as usize + 4,
            "{}: {} shots vs paper UB {}",
            clip.id,
            result.shot_count(),
            clip.reference.upper_bound
        );
    }
}

#[test]
fn generated_benchmarks_close_to_known_optimal() {
    let cfg = fast_config();
    let model = cfg.model();
    let fracturer = ModelBasedFracturer::new(cfg);
    for clip in generated_suite(&model) {
        if !["AGB-1", "AGB-5", "RGB-1", "RGB-3"].contains(&clip.id.as_str()) {
            continue;
        }
        let result = fracturer.fracture(&clip.polygon);
        assert!(
            result.summary.is_feasible(),
            "{}: {:?}",
            clip.id,
            result.summary
        );
        assert!(
            result.shot_count() <= 2 * clip.optimal,
            "{}: {} shots vs optimal {}",
            clip.id,
            result.shot_count(),
            clip.optimal
        );
    }
}

#[test]
fn pipeline_is_deterministic() {
    let clip = ilt_suite().swap_remove(0);
    let fracturer = ModelBasedFracturer::new(fast_config());
    let a = fracturer.fracture(&clip.polygon);
    let b = fracturer.fracture(&clip.polygon);
    assert_eq!(a.shots, b.shots);
    assert_eq!(a.summary, b.summary);
}

#[test]
fn every_shot_respects_min_size_across_suite() {
    let cfg = fast_config();
    let fracturer = ModelBasedFracturer::new(cfg.clone());
    for clip in ilt_suite().into_iter().take(4) {
        let result = fracturer.fracture(&clip.polygon);
        for s in &result.shots {
            assert!(
                s.min_side() >= cfg.min_shot_size,
                "{}: {s} below Lmin",
                clip.id
            );
        }
    }
}

#[test]
fn ours_beats_proto_surrogate_on_suite_total() {
    // The paper's headline: the proposed method needs fewer shots than the
    // partition-seeded tool surrogate, summed over the suite.
    let cfg = fast_config();
    let ours = ModelBasedFracturer::new(cfg.clone());
    let proto = ProtoEda::new(cfg);
    let mut ours_total = 0usize;
    let mut proto_total = 0usize;
    for clip in ilt_suite() {
        if !["Clip-1", "Clip-3", "Clip-6", "Clip-7"].contains(&clip.id.as_str()) {
            continue;
        }
        ours_total += ours.fracture(&clip.polygon).shot_count();
        proto_total += proto.fracture(&clip.polygon).shot_count();
    }
    assert!(
        ours_total <= proto_total,
        "ours {ours_total} vs proto {proto_total}"
    );
}

#[test]
fn degenerate_targets_yield_typed_errors_not_panics() {
    use maskfrac::fracture::{FractureError, TargetDefect};
    use maskfrac::geom::{Point, Polygon, Rect};
    let fracturer = ModelBasedFracturer::new(fast_config());
    let try_fracture =
        |target: Polygon| fracturer.try_fracture(&target.into(), &mut FractureScratch::new());

    let sliver = Polygon::from_rect(Rect::new(0, 0, 60, 4).unwrap());
    assert!(matches!(
        try_fracture(sliver).unwrap_err(),
        FractureError::InvalidTarget(TargetDefect::TooSmall { .. })
    ));

    let pinch = Polygon::new(vec![
        Point::new(0, 0),
        Point::new(30, 0),
        Point::new(30, 30),
        Point::new(60, 30),
        Point::new(60, 60),
        Point::new(30, 60),
        Point::new(30, 30),
        Point::new(0, 30),
    ])
    .unwrap();
    assert!(matches!(
        try_fracture(pinch).unwrap_err(),
        FractureError::InvalidTarget(TargetDefect::NonSimple { .. })
    ));

    // A bbox that would dwarf the intensity-map grid is rejected by
    // arithmetic, not by an allocation attempt.
    let huge = Polygon::from_rect(Rect::new(0, 0, 500_000, 500_000).unwrap());
    let started = std::time::Instant::now();
    assert!(matches!(
        try_fracture(huge).unwrap_err(),
        FractureError::InvalidTarget(TargetDefect::TooLarge { .. })
    ));
    assert!(started.elapsed() < std::time::Duration::from_secs(1));
}

#[test]
fn deadline_bounded_run_returns_within_two_deadlines() {
    use std::time::{Duration, Instant};
    // Generous budget: debug-mode classification/approximation (which the
    // deadline does not bound) must fit comfortably inside the 2x slack.
    let deadline = Duration::from_millis(1000);
    let fracturer = ModelBasedFracturer::new(FractureConfig {
        deadline: Some(deadline),
        ..fast_config()
    });
    for clip in ilt_suite() {
        if clip.id != "Clip-3" {
            continue;
        }
        let started = Instant::now();
        let result = fracturer.fracture(&clip.polygon);
        let elapsed = started.elapsed();
        assert!(
            elapsed <= 2 * deadline,
            "{}: {} ms against a {} ms budget",
            clip.id,
            elapsed.as_millis(),
            deadline.as_millis()
        );
        // Best-so-far semantics: a usable (Ok or Degraded) deliverable,
        // and the tag must be honest about feasibility.
        assert!(result.status.is_usable());
        assert_eq!(
            result.status == maskfrac::fracture::FractureStatus::Ok,
            result.summary.is_feasible()
        );
    }
}

#[test]
fn layout_fallback_ladder_survives_a_degenerate_shape_end_to_end() {
    use maskfrac::geom::{Polygon, Rect};
    use maskfrac::mdp::{fracture_layout_opts, Layout, LayoutOptions, Placement};
    let mut layout = Layout::new("mixed");
    layout.add_shape("good", Polygon::from_rect(Rect::new(0, 0, 50, 50).unwrap()));
    layout.add_shape("sliver", Polygon::from_rect(Rect::new(0, 0, 60, 4).unwrap()));
    layout.place("good", Placement::at(0, 0));
    layout.place("sliver", Placement::at(0, 200));
    let options = LayoutOptions {
        threads: 2,
        ..LayoutOptions::default()
    };
    let report = fracture_layout_opts(&layout, &fast_config(), &options);
    assert_eq!(report.per_shape.len(), 2);
    for s in &report.per_shape {
        assert!(s.status.is_usable(), "{}: {:?}", s.shape, s.status);
        assert!(s.shots_per_instance > 0, "{} delivered no shots", s.shape);
    }
    assert_eq!(
        report.worst_status(),
        maskfrac::fracture::FractureStatus::Fallback
    );
}
