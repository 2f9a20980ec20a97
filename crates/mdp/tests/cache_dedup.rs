//! Regression test for the layout dedup cache: the fracturing pipeline
//! must run *exactly once per distinct geometry* at any thread count.
//!
//! Lives in its own integration-test binary because it asserts on deltas
//! of process-global counters; sharing a process with unrelated tests
//! would make the deltas racy. All scenarios run sequentially inside one
//! test function for the same reason.

use maskfrac_fracture::FractureConfig;
use maskfrac_geom::{Polygon, Rect};
use maskfrac_mdp::{fracture_layout_opts, Layout, LayoutFractureReport, LayoutOptions, Placement};

/// Layout with 9 library entries but only 3 distinct geometries: each
/// geometry appears under three names, every entry placed twice.
fn aliased_layout() -> Layout {
    let geometries = [
        Rect::new(0, 0, 40, 40).unwrap(),
        Rect::new(0, 0, 30, 30).unwrap(),
        Rect::new(0, 0, 80, 30).unwrap(),
    ];
    let mut layout = Layout::new("aliased");
    let mut row = 0i64;
    for (g, rect) in geometries.iter().enumerate() {
        for alias in 0..3 {
            let name = format!("g{g}-alias{alias}");
            layout.add_shape(&name, Polygon::from_rect(*rect));
            layout.place(&name, Placement::at(0, row * 200));
            layout.place(&name, Placement::at(1000, row * 200));
            row += 1;
        }
    }
    layout
}

fn counter(name: &'static str) -> u64 {
    maskfrac_obs::counter(name).get()
}

/// One report row minus the wall-clock field: (shape, shots_per_instance,
/// instances, fail_pixels, method, attempts).
type ReportRow = (String, usize, usize, usize, String, u32);

/// Report rows with the wall-clock field dropped (the only
/// run-to-run-variable field).
fn rows(report: &LayoutFractureReport) -> Vec<ReportRow> {
    report
        .per_shape
        .iter()
        .map(|s| {
            (
                s.shape.clone(),
                s.shots_per_instance,
                s.instances,
                s.fail_pixels,
                s.method.clone(),
                s.attempts,
            )
        })
        .collect()
}

#[test]
fn pipeline_runs_exactly_once_per_distinct_geometry() {
    let layout = aliased_layout();
    let cfg = FractureConfig::default();
    const DISTINCT: u64 = 3;
    const ENTRIES: u64 = 9;

    let mut reference: Option<Vec<ReportRow>> = None;
    for threads in [1usize, 2, 8] {
        let (misses0, hits0) = (counter("mdp.cache.misses"), counter("mdp.cache.hits"));
        let options = LayoutOptions {
            threads,
            ..LayoutOptions::default()
        };
        let report = fracture_layout_opts(&layout, &cfg, &options);
        let misses = counter("mdp.cache.misses") - misses0;
        let hits = counter("mdp.cache.hits") - hits0;
        assert_eq!(
            misses, DISTINCT,
            "pipeline must run exactly once per distinct geometry at {threads} threads"
        );
        assert_eq!(
            hits,
            ENTRIES - DISTINCT,
            "every aliased entry must be served from cache at {threads} threads"
        );
        assert_eq!(report.per_shape.len(), ENTRIES as usize);
        match &reference {
            None => reference = Some(rows(&report)),
            Some(expected) => assert_eq!(&rows(&report), expected, "at {threads} threads"),
        }
    }

    // In-flight waits only ever happen on concurrent runs; the serial run
    // can never block behind another worker. (Whether the multi-threaded
    // runs actually overlapped is scheduling-dependent, so only the
    // "computed exactly once" guarantee above is asserted for them.)

    // Cache off: every library entry is fractured independently and the
    // cache counters stay untouched — yet the report is identical.
    let (misses0, hits0) = (counter("mdp.cache.misses"), counter("mdp.cache.hits"));
    let uncached = fracture_layout_opts(
        &layout,
        &cfg,
        &LayoutOptions {
            threads: 2,
            dedup_cache: false,
            ..LayoutOptions::default()
        },
    );
    assert_eq!(counter("mdp.cache.misses") - misses0, 0);
    assert_eq!(counter("mdp.cache.hits") - hits0, 0);
    assert_eq!(
        rows(&uncached),
        reference.expect("reference rows"),
        "cache mode must not change the report"
    );
}
