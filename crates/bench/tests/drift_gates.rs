//! Drift gates: pinned shot counts, work counters and suite fingerprints
//! for the refine, frame, flat-layout, hierarchical-layout and
//! fault injection suites.
//!
//! Every table here is exact. A change that moves one shot, one failing
//! pixel or one counted candidate fails the gate with a message naming
//! the shape, the pinned value and the value it got. If the change is
//! intended, re-pin the table in the same commit and say why. Each suite
//! also pins its [`suite_fingerprint`]: a generator change then fails by
//! name instead of surfacing as unexplained shot drift.
//!
//! This is its own test binary because the metrics registry and the fault
//! plan are process-global. The gates take one lock so none of them sees
//! another's counters or armed faults.

use maskfrac_bench::{layout_fingerprint, run_injection_suite, suite_fingerprint};
use maskfrac_ebeam::Classification;
use maskfrac_fracture::refine::{refine, RefineOutcome};
use maskfrac_fracture::{approximate_fracture, FractureConfig, ModelBasedFracturer};
use maskfrac_geom::{canonicalize, Point, Polygon, Rect, D4};
use maskfrac_mdp::{fracture_layout_opts, Layout, LayoutFractureReport, LayoutOptions, Placement};
use maskfrac_obs::RunReport;
use std::collections::BTreeSet;
use std::fmt::Debug;
use std::sync::{Mutex, MutexGuard};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Collects every pinned-vs-measured mismatch of one gate, so a failing
/// run reports all of them at once.
#[derive(Default)]
struct Drift(Vec<String>);

impl Drift {
    fn check<T: PartialEq + Debug>(&mut self, what: &str, pinned: T, got: T) {
        if pinned != got {
            self.0
                .push(format!("{what}: pinned {pinned:?}, got {got:?}"));
        }
    }

    fn fingerprint(&mut self, pinned: u64, got: u64) {
        if pinned != got {
            self.0.push(format!(
                "suite fingerprint: pinned {pinned}, got {got} (the suite geometry changed; \
                 re-pin this gate's tables)"
            ));
        }
    }

    fn assert_none(self, gate: &str) {
        assert!(
            self.0.is_empty(),
            "{gate} drift:\n  {}",
            self.0.join("\n  ")
        );
    }
}

/// Seeded xorshift64 that generates the frame and layout suites; the
/// geometry must be bit-identical everywhere the gates run.
struct XorShift64(u64);

impl XorShift64 {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    /// Draw from `lo..=hi` (the modulo bias is irrelevant here).
    fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next() % ((hi - lo + 1) as u64)) as i64
    }
}

/// One target's shared start: its classification and approximate
/// solution.
type Start<'a> = (&'a str, Classification, Vec<Rect>);

/// Refines every start solution.
fn refine_all(
    fracturer: &ModelBasedFracturer,
    base: &FractureConfig,
    starts: &[Start],
) -> Vec<RefineOutcome> {
    starts
        .iter()
        .map(|(_, cls, shots)| refine(cls, fracturer.model(), base, shots.clone()))
        .collect()
}

/// Classifies and approximately fractures each target: the shared start
/// solution every refinement mode begins from.
fn approximate_starts<'a>(
    fracturer: &ModelBasedFracturer,
    base: &FractureConfig,
    targets: impl IntoIterator<Item = (&'a str, &'a Polygon)>,
) -> Vec<Start<'a>> {
    targets
        .into_iter()
        .map(|(id, target)| {
            let cls = fracturer.classify(target);
            let approx =
                approximate_fracture(target, &cls, fracturer.model(), base, fracturer.lth());
            (id, cls, approx.shots)
        })
        .collect()
}

const REFINE_FINGERPRINT: u64 = 3_493_204_092_389_518_303;

/// Refine gate: (clip, shots, failing pixels) after §4 refinement from
/// the approximate solution, reduction sweep off.
const REFINE_PINNED: [(&str, usize, usize); 3] =
    [("Clip-1", 7, 0), ("Clip-5", 11, 5), ("Clip-10", 15, 0)];

/// Work counters of the three refinement runs together.
const REFINE_COUNTERS: [(&str, u64); 6] = [
    ("refine.candidates.scored", 33_498),
    ("refine.candidates.screened", 19_200),
    ("refine.candidates.improving", 12_806),
    ("refine.window.px_scanned", 5_878_363),
    ("fracture.refine.iterations", 616),
    ("ebeam.apply.px_tracked", 966_886),
];

#[test]
fn refine_gate_clip_shots_and_work_counters() {
    let _serial = serial();
    let base = FractureConfig {
        reduction_sweep: false,
        ..FractureConfig::default()
    };
    let fracturer = ModelBasedFracturer::new(base.clone());
    let clips = maskfrac_shapes::ilt_suite();
    let selected: Vec<_> = REFINE_PINNED
        .iter()
        .map(|(id, ..)| clips.iter().find(|c| c.id == *id).expect("clip exists"))
        .collect();
    let mut drift = Drift::default();
    drift.fingerprint(
        REFINE_FINGERPRINT,
        suite_fingerprint(selected.iter().map(|c| (c.id.as_str(), &c.polygon))),
    );

    let starts = approximate_starts(
        &fracturer,
        &base,
        selected.iter().map(|c| (c.id.as_str(), &c.polygon)),
    );
    // Counters are process-global and monotone; with the gates
    // serialized, the delta across the runs is exactly their work.
    let before = REFINE_COUNTERS.map(|(name, _)| maskfrac_obs::counter(name).get());
    let outs = refine_all(&fracturer, &base, &starts);
    for ((name, pinned), before) in REFINE_COUNTERS.into_iter().zip(before) {
        drift.check(name, pinned, maskfrac_obs::counter(name).get() - before);
    }
    for ((id, shots, fails), out) in REFINE_PINNED.iter().zip(&outs) {
        drift.check(&format!("{id} shots"), *shots, out.shots.len());
        drift.check(&format!("{id} fail px"), *fails, out.summary.fail_count());
    }
    drift.assert_none("refine gate");
}

const FRAME_FINGERPRINT: u64 = 8_953_276_151_389_861_047;

/// Frame gate: (staircase, shots, failing pixels), same protocol as the
/// refine gate on targets a few times the clips' size.
const FRAME_PINNED: [(&str, usize, usize); 3] =
    [("Frame-1", 7, 0), ("Frame-2", 8, 0), ("Frame-3", 6, 0)];

/// One rising staircase with `steps` columns: column `i` spans
/// `X[i-1]..X[i]` and reaches height `Y[i]`, both cumulative sequences
/// strictly increasing, emitted counter-clockwise (simple and
/// rectilinear by construction).
fn staircase(rng: &mut XorShift64, steps: usize, lo: i64, hi: i64) -> Polygon {
    let mut xs = vec![0i64];
    let mut ys = vec![0i64];
    for _ in 0..steps {
        xs.push(xs.last().unwrap() + rng.range(lo, hi));
        ys.push(ys.last().unwrap() + rng.range(lo, hi));
    }
    let (w, h) = (*xs.last().unwrap(), *ys.last().unwrap());
    let mut ring = vec![Point::new(0, 0), Point::new(w, 0), Point::new(w, h)];
    for i in (1..=steps).rev() {
        ring.push(Point::new(xs[i - 1], ys[i]));
        if i > 1 {
            ring.push(Point::new(xs[i - 1], ys[i - 1]));
        }
    }
    Polygon::new(ring).expect("staircase ring is simple and rectilinear")
}

#[test]
fn frame_gate_staircase_shots() {
    let _serial = serial();
    let mut rng = XorShift64(0x6672_616d_6562_6e63); // "framebnc"
    let frames: Vec<(String, Polygon)> = (1..=FRAME_PINNED.len())
        .map(|i| (format!("Frame-{i}"), staircase(&mut rng, 5, 18, 34)))
        .collect();
    let mut drift = Drift::default();
    drift.fingerprint(
        FRAME_FINGERPRINT,
        suite_fingerprint(frames.iter().map(|(id, p)| (id.as_str(), p))),
    );

    let base = FractureConfig {
        reduction_sweep: false,
        ..FractureConfig::default()
    };
    let fracturer = ModelBasedFracturer::new(base.clone());
    let starts = approximate_starts(
        &fracturer,
        &base,
        frames.iter().map(|(id, p)| (id.as_str(), p)),
    );
    let outs = refine_all(&fracturer, &base, &starts);
    for ((id, shots, fails), out) in FRAME_PINNED.iter().zip(&outs) {
        drift.check(&format!("{id} shots"), *shots, out.shots.len());
        drift.check(&format!("{id} fail px"), *fails, out.summary.fail_count());
    }
    drift.assert_none("frame gate");
}

/// One per-shape report row minus wall clock and cache label:
/// (shape, shots per instance, instances, fail pixels, method, attempts).
type ReportRow = (String, usize, usize, usize, String, u32);

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

/// Checks every row of `report` against one pinned (shots, fail px)
/// value shared by all shapes of the suite.
fn check_each_shape(drift: &mut Drift, report: &LayoutFractureReport, shots: usize, fails: usize) {
    for s in &report.per_shape {
        drift.check(&format!("{} shots", s.shape), shots, s.shots_per_instance);
        drift.check(&format!("{} fail px", s.shape), fails, s.fail_pixels);
    }
}

const FLAT_FINGERPRINT: u64 = 2_845_170_725_726_685_901;
const LAYOUT_SEED: u64 = 0x6d61_736b_6672_6163; // "maskfrac"

/// Flat layout gate: 6 distinct rectangles × 4 library aliases = 24
/// shapes, each placed 8 times; every shape takes 1 shot, 0 fail px.
const FLAT_SHAPES: usize = 24;
const FLAT_SHOTS_EACH: usize = 1;

/// `distinct` rectangles (sides 20–60 nm), each registered under
/// `aliases` names, each name placed `placements` times on a grid.
fn flat_layout(distinct: usize, aliases: usize, placements: usize) -> Layout {
    let mut rng = XorShift64(LAYOUT_SEED);
    let mut layout = Layout::new("synthetic");
    let mut row = 0i64;
    for g in 0..distinct {
        let rect = Rect::new(0, 0, rng.range(20, 60), rng.range(20, 60)).expect("positive sides");
        for a in 0..aliases {
            let name = format!("g{g}-a{a}");
            layout.add_shape(&name, Polygon::from_rect(rect));
            for p in 0..placements {
                layout.place(&name, Placement::at(p as i64 * 200, row * 200));
            }
            row += 1;
        }
    }
    layout
}

#[test]
fn flat_layout_gate_is_identical_across_threads_and_dedup() {
    let _serial = serial();
    let layout = flat_layout(6, 4, 8);
    let mut drift = Drift::default();
    drift.fingerprint(FLAT_FINGERPRINT, suite_fingerprint(layout.shapes()));

    let cfg = FractureConfig::default();
    let modes = [(1, false), (4, false), (1, true), (2, true), (4, true)];
    let reports: Vec<LayoutFractureReport> = modes
        .iter()
        .map(|&(threads, dedup_cache)| {
            let opts = LayoutOptions {
                threads,
                dedup_cache,
                ..LayoutOptions::default()
            };
            fracture_layout_opts(&layout, &cfg, &opts)
        })
        .collect();
    for (&(threads, dedup), report) in modes.iter().zip(&reports).skip(1) {
        assert_eq!(
            rows(report),
            rows(&reports[0]),
            "t{threads} dedup={dedup} diverged from t1 without dedup"
        );
    }
    drift.check("shapes", FLAT_SHAPES, reports[0].per_shape.len());
    check_each_shape(&mut drift, &reports[0], FLAT_SHOTS_EACH, 0);
    drift.assert_none("flat layout gate");
}

const HIER_FINGERPRINT: u64 = 4_921_801_390_163_070_485;

/// Hierarchical gate: 120 asymmetric L cells × 850 D4 placements; every
/// cell takes 2 shots, 0 fail px.
const HIER_CELLS: usize = 120;
const HIER_PLACEMENTS: usize = 850;
const HIER_SHOTS_EACH: usize = 2;
const HIER_TOTAL_SHOTS: usize = 204_000;

/// `cells` asymmetric L cells (every dimension pair distinct, so their D4
/// orbits are disjoint), each placed `placements` times under a seeded
/// mix of all eight D4 transforms.
fn hier_layout(cells: usize, placements: usize) -> Layout {
    let mut rng = XorShift64(LAYOUT_SEED ^ 0x6869_6572); // ^ "hier"
    let mut layout = Layout::new("hier-synthetic");
    for c in 0..cells as i64 {
        let (w, h) = (40 + 2 * (c % 30), 44 + 6 * (c / 30));
        let (ax, ay) = (16 + 2 * (c % 3), 18 + 2 * (c % 5));
        let cell = Polygon::new(vec![
            Point::new(0, 0),
            Point::new(w, 0),
            Point::new(w, ay),
            Point::new(ax, ay),
            Point::new(ax, h),
            Point::new(0, h),
        ])
        .expect("valid L cell");
        let name = format!("cell{c:03}");
        layout.add_shape(&name, cell);
        for p in 0..placements as i64 {
            let t = D4::ALL[(rng.next() % 8) as usize];
            let (x, y) = ((p % 320) * 150, (p / 320) * 150 + c * 600);
            layout.place(&name, Placement::transformed(x, y, t));
        }
    }
    layout
}

#[test]
fn hier_layout_gate_cold_then_warm_geometry_cache() {
    let _serial = serial();
    let layout = hier_layout(HIER_CELLS, HIER_PLACEMENTS);
    let mut drift = Drift::default();
    drift.fingerprint(HIER_FINGERPRINT, layout_fingerprint(&layout));
    let canonical: BTreeSet<Vec<Point>> = layout
        .shapes()
        .map(|(_, p)| canonicalize(p).polygon.vertices().to_vec())
        .collect();
    assert_eq!(
        canonical.len(),
        HIER_CELLS,
        "cells must be pairwise non-congruent"
    );
    assert_eq!(layout.instance_count(), HIER_CELLS * HIER_PLACEMENTS);

    let cache_dir = std::env::temp_dir().join(format!(
        "maskfrac-drift-gates-hier-geomcache-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let opts = LayoutOptions {
        threads: 4,
        geom_cache: Some(cache_dir.clone()),
        ..LayoutOptions::default()
    };
    let cfg = FractureConfig::default();
    let cold = fracture_layout_opts(&layout, &cfg, &opts);
    let warm = fracture_layout_opts(&layout, &cfg, &opts);
    let _ = std::fs::remove_dir_all(&cache_dir);

    let computed =
        |r: &LayoutFractureReport| r.per_shape.iter().filter(|s| s.cache == "computed").count();
    drift.check("cold computed cells", HIER_CELLS, computed(&cold));
    drift.check("warm computed cells", 0, computed(&warm));
    drift.check("cold total shots", HIER_TOTAL_SHOTS, cold.total_shots());
    drift.check("warm total shots", HIER_TOTAL_SHOTS, warm.total_shots());
    check_each_shape(&mut drift, &cold, HIER_SHOTS_EACH, 0);
    let warm_labels: BTreeSet<&str> = warm.per_shape.iter().map(|s| s.cache.as_str()).collect();
    assert!(
        warm_labels.is_subset(&BTreeSet::from(["disk", "hit"])),
        "warm run computed something: {warm_labels:?}"
    );
    assert_eq!(
        rows(&warm),
        rows(&cold),
        "warm run diverged from the cold run"
    );
    drift.assert_none("hier layout gate");
}

const ROBUSTNESS_FINGERPRINT: u64 = 6_027_016_853_137_959_392;

/// Fault-injection gate under `FaultPlan::uniform(0xF417, 0.3)` (the
/// `robustness --inject` defaults): (shape, delivering method, shots).
const ROBUSTNESS_PINNED: [(&str, &str, usize); 11] = [
    ("Clip-1", "ours", 7),
    ("Clip-2", "ours", 13),
    ("Clip-3", "ours-degraded", 5),
    ("Clip-4", "proto-eda", 15),
    ("Clip-5", "ours", 10),
    ("Clip-6", "ours-retry", 5),
    ("Clip-7", "ours", 4),
    ("Clip-8", "proto-eda", 19),
    ("Clip-9", "ours", 26),
    ("Clip-10", "ours-retry", 9),
    ("sliver", "conventional", 1),
];

#[test]
fn robustness_gate_fault_injected_suite() {
    let _serial = serial();
    let started = std::time::Instant::now();
    let outcome = run_injection_suite(0xF417, 0.3);
    assert!(
        outcome.violations.is_empty(),
        "violations: {:?}",
        outcome.violations
    );
    let mut drift = Drift::default();
    drift.fingerprint(ROBUSTNESS_FINGERPRINT, outcome.fingerprint);
    let got: Vec<(&str, &str, usize)> = outcome
        .shapes
        .iter()
        .map(|s| (s.id.as_str(), s.method.as_str(), s.shots))
        .collect();
    drift.check("shapes", ROBUSTNESS_PINNED.len(), got.len());
    for (pinned, got) in ROBUSTNESS_PINNED.iter().zip(&got) {
        drift.check(
            &format!("{} (method, shots)", pinned.0),
            (pinned.1, pinned.2),
            (got.1, got.2),
        );
    }
    drift.assert_none("robustness gate");

    // The run report round-trips through its JSON form with every
    // section a consumer reads populated.
    let report = RunReport::capture("robustness", started).with_shapes(outcome.shapes);
    report.validate().expect("run report is valid");
    let report = RunReport::from_json(&report.to_json().expect("serializes")).expect("parses");
    assert_eq!(report.schema, "maskfrac.run-report");
    assert_eq!(report.schema_version, 2);
    assert!(!report.stages.is_empty(), "no stages");
    assert!(!report.statuses.is_empty(), "no statuses");
    assert!(!report.shapes.is_empty(), "no shapes");
}
