//! What a layout run may persist: a result bent by an injected
//! in-process fault never reaches the geometry cache or the checkpoint
//! journal, and neither does one whose deadline cut refinement short.
//!
//! Own test binary: the scenarios arm process-global fault plans.

use maskfrac_fracture::{faults, FaultPlan, FractureConfig};
use maskfrac_mdp::{
    fracture_layout_journaled, fracture_layout_opts, load_layout, CheckpointOptions, Layout,
    LayoutFractureReport, LayoutOptions, ShapeFractureStats,
};
use std::path::{Path, PathBuf};
use std::time::Duration;

fn smoke_layout() -> Layout {
    load_layout(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/layouts/smoke.layout"
    ))
    .expect("smoke layout loads")
}

fn tmp_path(tag: &str) -> PathBuf {
    let path =
        std::env::temp_dir().join(format!("maskfrac-persistence-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&path);
    let _ = std::fs::remove_file(&path);
    path
}

/// A row with wall time and the cache label blanked: everything else
/// must agree between a clean run and any tier serving it.
fn essence(report: &LayoutFractureReport) -> Vec<ShapeFractureStats> {
    report
        .per_shape
        .iter()
        .map(|s| ShapeFractureStats {
            runtime_s: 0.0,
            cache: String::new(),
            ..s.clone()
        })
        .collect()
}

/// Geometry-cache artifacts under `root`, one per persisted geometry.
fn artifacts(root: &Path) -> usize {
    std::fs::read_dir(root)
        .into_iter()
        .flatten()
        .flatten()
        .flat_map(|ns| std::fs::read_dir(ns.path()).into_iter().flatten().flatten())
        .filter(|f| f.path().extension().is_some_and(|e| e == "mfg"))
        .count()
}

#[test]
fn fault_injected_results_are_never_persisted() {
    let layout = smoke_layout();
    let cfg = FractureConfig::default();
    let clean = {
        let _scope = faults::arm_scoped(FaultPlan::uniform(0, 0.0));
        fracture_layout_opts(
            &layout,
            &cfg,
            &LayoutOptions {
                threads: 2,
                ..LayoutOptions::default()
            },
        )
    };
    // Injected timeouts also mark their results `deadline_hit`, which
    // the deadline rule alone keeps out of both tiers; the second plan
    // injects no timeouts, so only the fault rule can keep its bent
    // results out.
    let plans = [
        FaultPlan::uniform(1, 0.5),
        FaultPlan {
            timeout_rate: 0.0,
            ..FaultPlan::uniform(1, 0.5)
        },
    ];
    for (i, plan) in plans.into_iter().enumerate() {
        let cache = tmp_path(&format!("faults-cache-{i}"));
        let journal = tmp_path(&format!("faults-journal-{i}.mfj"));
        let options = LayoutOptions {
            threads: 2,
            geom_cache: Some(cache.clone()),
        };
        {
            let _scope = faults::arm_scoped(plan);
            let faulted = fracture_layout_journaled(
                &layout,
                &cfg,
                &options,
                &CheckpointOptions {
                    path: journal.clone(),
                    resume: false,
                },
            )
            .expect("journal opens");
            assert_ne!(
                essence(&faulted),
                essence(&clean),
                "plan {i} must bend some result for this test to mean anything"
            );
        }
        assert_eq!(
            artifacts(&cache),
            0,
            "plan {i}: a faulted run stored cache artifacts"
        );

        // A clean rerun on the same cache directory and the same journal
        // must compute every shape afresh and match the uncached clean run.
        let rerun = fracture_layout_journaled(
            &layout,
            &cfg,
            &options,
            &CheckpointOptions {
                path: journal.clone(),
                resume: true,
            },
        )
        .expect("journal resumes");
        assert_eq!(essence(&rerun), essence(&clean), "plan {i}");
        assert!(
            rerun
                .per_shape
                .iter()
                .all(|s| s.cache != "resumed" && s.cache != "disk"),
            "plan {i}: a faulted run's record was served: {:?}",
            rerun.per_shape.iter().map(|s| &s.cache).collect::<Vec<_>>()
        );
        assert_eq!(rerun.shape_shots, clean.shape_shots, "plan {i}");
        assert!(
            artifacts(&cache) > 0,
            "plan {i}: the clean rerun persists its results"
        );
        let _ = std::fs::remove_dir_all(&cache);
        let _ = std::fs::remove_file(&journal);
    }
}

#[test]
fn deadline_cut_results_are_not_persisted() {
    // Hold an inert plan so a fault plan armed by the test above cannot
    // switch persistence off underneath this one.
    let _scope = faults::arm_scoped(FaultPlan::uniform(0, 0.0));
    let cache = tmp_path("deadline-cache");
    let cfg = FractureConfig {
        deadline: Some(Duration::from_nanos(1)),
        ..FractureConfig::default()
    };
    let report = fracture_layout_opts(
        &smoke_layout(),
        &cfg,
        &LayoutOptions {
            geom_cache: Some(cache.clone()),
            ..LayoutOptions::default()
        },
    );
    let computed: Vec<&ShapeFractureStats> = report
        .per_shape
        .iter()
        .filter(|s| s.cache == "computed")
        .collect();
    assert!(
        computed.iter().any(|s| s.deadline_hit),
        "the 1 ns deadline must cut some shape short"
    );
    let persisted = computed.iter().filter(|s| !s.deadline_hit).count();
    assert_eq!(artifacts(&cache), persisted);
    let _ = std::fs::remove_dir_all(&cache);
}
