//! Integration tests for the observability layer: the RunReport schema
//! round-trip and metric aggregation across the multi-threaded layout
//! driver.
//!
//! Metric counters are process-global and `cargo test` runs tests in
//! parallel within this binary, so assertions on shared pipeline counters
//! are deltas (`>=`), while exact-summation checks use dedicated counter
//! names no other test touches.

use maskfrac::fracture::FractureConfig;
use maskfrac::geom::{Polygon, Rect};
use maskfrac::mdp::{fracture_layout_opts, Layout, LayoutOptions, Placement};
use maskfrac::obs::{self, RunReport, ShapeRecord, SCHEMA_NAME, SCHEMA_VERSION};
use std::time::Instant;

fn square(side: i64) -> Polygon {
    Polygon::from_rect(Rect::new(0, 0, side, side).expect("rect"))
}

fn threads(threads: usize) -> LayoutOptions {
    LayoutOptions {
        threads,
        ..LayoutOptions::default()
    }
}

#[test]
fn run_report_round_trips_through_json() {
    obs::counter("fracture.status.ok").add(0); // ensure the name exists
    let report = RunReport::capture("integration-test", Instant::now()).with_shapes(vec![
        ShapeRecord {
            id: "sq40".into(),
            status: "ok".into(),
            method: "ours".into(),
            shots: 1,
            fail_pixels: 0,
            runtime_s: 0.01,
            attempts: 1,
            iterations: 12,
            on_fail_pixels: 0,
            off_fail_pixels: 0,
            cache: "computed".into(),
            deadline_hit: false,
        },
    ]);
    assert_eq!(report.schema, SCHEMA_NAME);
    assert_eq!(report.schema_version, SCHEMA_VERSION);
    report.validate().expect("fresh capture validates");

    let json = report.to_json().expect("serializes");
    let back = RunReport::from_json(&json).expect("parses");
    assert_eq!(back, report);
    back.validate().expect("round-tripped report validates");
}

#[test]
fn run_report_save_load_via_files() {
    let dir = std::env::temp_dir().join("maskfrac-obs-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("report.json");
    let report = RunReport::capture("integration-test", Instant::now());
    report.save(&path).expect("saves");
    let back = RunReport::load(&path).expect("loads");
    std::fs::remove_file(&path).ok();
    assert_eq!(back, report);
}

#[test]
fn counters_sum_across_layout_worker_threads() {
    // Exact summation on a counter name owned by this test alone,
    // incremented from scoped worker threads exactly like the layout
    // driver's workers increment the shared pipeline counters.
    let tally = obs::counter("test.obs.exact_tally");
    let before = tally.get();
    std::thread::scope(|scope| {
        for _ in 0..4 {
            scope.spawn(|| {
                for _ in 0..250 {
                    tally.incr();
                }
            });
        }
    });
    assert_eq!(tally.get() - before, 1000, "no increments lost across threads");

    // The real layout driver: its workers bump the same process-global
    // cells, so the per-shape counter must grow by at least the number of
    // distinct shapes this run fractured (other tests run concurrently in
    // this binary and may add more — never fewer).
    let shapes_before = obs::registry()
        .snapshot()
        .counters
        .get("mdp.shapes_fractured")
        .copied()
        .unwrap_or(0);

    let mut layout = Layout::new("obs-tally");
    for (i, side) in [30i64, 35, 40, 45, 50, 55].iter().enumerate() {
        let name = format!("sq{side}");
        layout.add_shape(&name, square(*side));
        layout.place(&name, Placement::at(i as i64 * 200, 0));
    }
    let report = fracture_layout_opts(&layout, &FractureConfig::default(), &threads(4));
    assert_eq!(report.per_shape.len(), 6);

    let shapes_after = obs::registry().snapshot().counters["mdp.shapes_fractured"];
    assert!(
        shapes_after - shapes_before >= 6,
        "mdp.shapes_fractured grew by {} (< 6)",
        shapes_after - shapes_before
    );
}

#[test]
fn layout_run_populates_pipeline_stage_spans_and_counters() {
    let snap_before = obs::registry().snapshot();
    let stage_count =
        |snap: &obs::MetricsSnapshot, name: &str| snap.stages.get(name).map_or(0, |s| s.count);
    let counter_of = |snap: &obs::MetricsSnapshot, name: &str| {
        snap.counters.get(name).copied().unwrap_or(0)
    };

    let mut layout = Layout::new("obs-stages");
    layout.add_shape("sq", square(42));
    layout.place("sq", Placement::at(0, 0));
    let report = fracture_layout_opts(&layout, &FractureConfig::default(), &threads(2));
    assert_eq!(report.total_shots(), 1);

    let snap = obs::registry().snapshot();
    for stage in [
        "mdp.fracture_layout",
        "fallback.ladder",
        "fracture.shape",
        "fracture.classify",
        "fracture.approx",
        "fracture.refine",
    ] {
        assert!(
            stage_count(&snap, stage) > stage_count(&snap_before, stage),
            "stage {stage} did not record a span"
        );
    }
    assert!(
        counter_of(&snap, "fracture.shots_emitted")
            > counter_of(&snap_before, "fracture.shots_emitted")
    );
    assert!(
        counter_of(&snap, "ebeam.kernel.convolutions")
            > counter_of(&snap_before, "ebeam.kernel.convolutions")
    );
    assert!(
        counter_of(&snap, "fracture.status.ok") > counter_of(&snap_before, "fracture.status.ok")
    );

    // And the snapshot turns into a validating report.
    let run = RunReport::capture("integration-test", Instant::now());
    run.validate().expect("live snapshot validates");
    assert!(run.statuses.contains_key("ok"));
}

#[test]
fn geometry_dedup_cache_serves_identical_shapes() {
    let snap_before = obs::registry().snapshot();
    let hits_before = snap_before.counters.get("mdp.cache.hits").copied().unwrap_or(0);

    let mut layout = Layout::new("obs-dedup");
    // Two names, one geometry: the second must be a cache hit.
    layout.add_shape("a", square(48));
    layout.add_shape("b", square(48));
    layout.place("a", Placement::at(0, 0));
    layout.place("b", Placement::at(500, 0));
    let report = fracture_layout_opts(&layout, &FractureConfig::default(), &threads(1));

    assert_eq!(report.per_shape.len(), 2);
    let (a, b) = (&report.per_shape[0], &report.per_shape[1]);
    assert_eq!(a.shots_per_instance, b.shots_per_instance);
    assert_eq!(a.status, b.status);
    assert_eq!(a.method, b.method);

    let hits_after = obs::registry().snapshot().counters["mdp.cache.hits"];
    assert!(
        hits_after > hits_before,
        "identical geometry under a second name must hit the dedup cache"
    );
}
