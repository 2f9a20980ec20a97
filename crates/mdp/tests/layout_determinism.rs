//! Thread-count determinism of `LayoutFractureReport` with the sharded
//! dedup cache enabled and fault injection armed.
//!
//! Fault decisions are pure hashes of (seed, stage, shape fingerprint),
//! so an armed plan stresses the interesting paths — panicking rungs,
//! fallback deliveries, retries — while staying reproducible. The report
//! (including the per-shape status/method/attempts/error fields) must be
//! identical no matter how shapes are spread over workers.
//!
//! Own test binary: `arm_scoped` arms a process-global fault plan.

use maskfrac_fracture::{faults, Fault, FaultPlan, FractureConfig};
use maskfrac_geom::{Point, Polygon, Rect};
use maskfrac_mdp::{
    fracture_layout_opts, Layout, LayoutFractureReport, LayoutOptions, Placement,
};

/// A mixed layout: clean squares (some geometry-aliased), an L-shape, and
/// a degenerate sliver that exercises the fallback ladder even without
/// injected faults.
fn mixed_layout() -> Layout {
    let mut layout = Layout::new("mixed");
    layout.add_shape("sq40", Polygon::from_rect(Rect::new(0, 0, 40, 40).unwrap()));
    layout.add_shape("sq40-alias", Polygon::from_rect(Rect::new(0, 0, 40, 40).unwrap()));
    layout.add_shape("sq25", Polygon::from_rect(Rect::new(0, 0, 25, 25).unwrap()));
    layout.add_shape(
        "ell",
        Polygon::new(vec![
            Point::new(0, 0),
            Point::new(80, 0),
            Point::new(80, 30),
            Point::new(30, 30),
            Point::new(30, 80),
            Point::new(0, 80),
        ])
        .unwrap(),
    );
    layout.add_shape("sliver", Polygon::from_rect(Rect::new(0, 0, 60, 4).unwrap()));
    for (i, name) in ["sq40", "sq40-alias", "sq25", "ell", "sliver"]
        .iter()
        .enumerate()
    {
        layout.place(name, Placement::at(0, i as i64 * 200));
        layout.place(name, Placement::at(500, i as i64 * 200));
    }
    layout
}

/// Everything except the wall-clock runtime field.
fn strip(report: &LayoutFractureReport) -> Vec<ShapeRow> {
    report
        .per_shape
        .iter()
        .map(|s| ShapeRow {
            shape: s.shape.clone(),
            shots_per_instance: s.shots_per_instance,
            instances: s.instances,
            fail_pixels: s.fail_pixels,
            status: format!("{:?}", s.status),
            method: s.method.clone(),
            error: s.error.clone(),
            attempts: s.attempts,
        })
        .collect()
}

#[derive(Debug, PartialEq)]
struct ShapeRow {
    shape: String,
    shots_per_instance: usize,
    instances: usize,
    fail_pixels: usize,
    status: String,
    method: String,
    error: Option<String>,
    attempts: u32,
}

#[test]
fn report_is_identical_across_thread_counts_under_injected_faults() {
    // Rate 0.5: pure per-shape decisions make some shapes panic on the
    // primary rung (and independently on the retry) while others sail
    // through — a mix of Ok, Fallback, and multi-attempt rows.
    let _scope = faults::arm_scoped(FaultPlan::only(42, Fault::Panic, 0.5));
    let layout = mixed_layout();
    let cfg = FractureConfig::default();

    let reference_report = fracture_layout_opts(
        &layout,
        &cfg,
        &LayoutOptions {
            threads: 1,
            ..LayoutOptions::default()
        },
    );
    let reference = strip(&reference_report);
    // The sliver guarantees at least one non-"ours" row even if every
    // fault coin lands on "no fault".
    assert!(
        reference.iter().any(|r| r.method != "ours"),
        "expected at least one fallback/retry row: {reference:?}"
    );

    for threads in [2usize, 4, 8] {
        let report = fracture_layout_opts(
            &layout,
            &cfg,
            &LayoutOptions {
                threads,
                ..LayoutOptions::default()
            },
        );
        assert_eq!(
            strip(&report),
            reference,
            "LayoutFractureReport must be thread-count invariant ({threads} threads)"
        );
        // Aggregates follow row equality, but assert the headline ones
        // explicitly — they are what the bench publishes.
        assert_eq!(report.total_shots(), reference_report.total_shots());
        assert_eq!(report.total_fail_pixels(), reference_report.total_fail_pixels());
        assert_eq!(report.worst_status(), reference_report.worst_status());
    }
}
