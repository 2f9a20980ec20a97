//! Regression guardrails over the benchmark suite: pinned expectations
//! for the fixed-seed instances, with tolerances wide enough to absorb
//! legitimate heuristic tuning but tight enough to catch algorithmic
//! regressions (the experiment harness doubles as a regression test, per
//! DESIGN.md §11).

use maskfrac::baselines::{GreedySetCover, MaskFracturer, ProtoEda};
use maskfrac::fracture::{FractureConfig, ModelBasedFracturer};
use maskfrac::shapes::ilt_suite;

/// Pinned per-clip expectations for the paper's method on the small and
/// medium clips (clip id, max shots, max failing pixels).
const PINNED: &[(&str, usize, usize)] = &[
    ("Clip-1", 5, 0),
    ("Clip-2", 11, 0),
    ("Clip-3", 5, 0),
    ("Clip-5", 12, 0),
    ("Clip-6", 4, 0),
    ("Clip-7", 6, 0),
    ("Clip-10", 13, 5),
];

#[test]
fn ours_stays_within_pinned_budgets() {
    let ours = ModelBasedFracturer::new(FractureConfig::default());
    let clips = ilt_suite();
    for &(id, max_shots, max_fails) in PINNED {
        let clip = clips.iter().find(|c| c.id == id).expect("clip exists");
        let r = ours.fracture(&clip.polygon);
        assert!(
            r.shot_count() <= max_shots,
            "{id}: {} shots exceeds pinned budget {max_shots}",
            r.shot_count()
        );
        assert!(
            r.summary.fail_count() <= max_fails,
            "{id}: {} failing pixels exceeds pinned budget {max_fails}",
            r.summary.fail_count()
        );
    }
}

#[test]
fn method_ranking_holds_on_subset() {
    // The paper's ordering on suite totals: ours <= proto-eda < gsc.
    let cfg = FractureConfig::default();
    let methods: Vec<Box<dyn MaskFracturer>> = vec![
        Box::new(ModelBasedFracturer::new(cfg.clone())),
        Box::new(ProtoEda::new(cfg.clone())),
        Box::new(GreedySetCover::new(cfg)),
    ];
    let subset = ["Clip-1", "Clip-3", "Clip-5", "Clip-6", "Clip-7"];
    let clips = ilt_suite();
    let mut totals = [0usize; 3];
    for id in subset {
        let clip = clips.iter().find(|c| c.id == id).expect("clip exists");
        for (i, m) in methods.iter().enumerate() {
            totals[i] += m.fracture(&clip.polygon).shot_count();
        }
    }
    let [ours, proto, gsc] = totals;
    assert!(ours <= proto, "ours {ours} vs proto {proto}");
    assert!(proto < gsc, "proto {proto} vs gsc {gsc}");
}
