//! Regression test for layout dedup: the fracturing pipeline must run
//! *exactly once per distinct geometry* at any thread count, and every
//! per-shape row but its wall clock must be the same at any thread count.
//!
//! Lives in its own integration-test binary because it asserts on deltas
//! of process-global counters; sharing a process with unrelated tests
//! would make the deltas racy. All scenarios run sequentially inside one
//! test function for the same reason.

use maskfrac_fracture::FractureConfig;
use maskfrac_geom::{Polygon, Rect};
use maskfrac_mdp::{
    fracture_layout_opts, Layout, LayoutFractureReport, LayoutOptions, Placement,
    ShapeFractureStats,
};

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

/// Report rows with the wall clock, the one run-to-run-variable field,
/// zeroed.
fn rows(report: &LayoutFractureReport) -> Vec<ShapeFractureStats> {
    report
        .per_shape
        .iter()
        .map(|s| ShapeFractureStats {
            runtime_s: 0.0,
            ..s.clone()
        })
        .collect()
}

/// The no-dedup reference: every library entry fractured alone, as a
/// single-shape layout with the same placements, relabelled with the
/// tier the aliased run must report (the first alias of each geometry in
/// library order computes it, the others share it).
fn single_shape_reference(layout: &Layout, cfg: &FractureConfig) -> Vec<ShapeFractureStats> {
    layout
        .shapes()
        .flat_map(|(name, polygon)| {
            let mut alone = Layout::new(&layout.name);
            alone.add_shape(name, polygon.clone());
            for (_, placement) in layout.placements().filter(|(n, _)| *n == name) {
                alone.place(name, placement);
            }
            let report = fracture_layout_opts(&alone, cfg, &LayoutOptions::default());
            rows(&report).into_iter().map(|row| ShapeFractureStats {
                cache: if row.shape.ends_with("alias0") {
                    "computed"
                } else {
                    "hit"
                }
                .to_owned(),
                ..row
            })
        })
        .collect()
}

#[test]
fn pipeline_runs_exactly_once_per_distinct_geometry() {
    let layout = aliased_layout();
    let cfg = FractureConfig::default();
    const DISTINCT: u64 = 3;
    const ENTRIES: u64 = 9;

    let reference = single_shape_reference(&layout, &cfg);
    assert_eq!(reference.len(), ENTRIES as usize);
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
            "every aliased entry must share its geometry's result at {threads} threads"
        );
        assert_eq!(rows(&report), reference, "at {threads} threads");
        for s in report.per_shape.iter().filter(|s| s.cache == "hit") {
            assert_eq!(
                s.runtime_s, 0.0,
                "{} shares a result, so spends no time",
                s.shape
            );
        }
    }
}
