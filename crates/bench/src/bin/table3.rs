//! Regenerates paper **Table 3**: the comparison on ten generated
//! benchmark shapes with known optimal shot count (`AGB-1…5`, `RGB-1…5`;
//! optimal counts 3, 16, 17, 7, 3, 5, 7, 5, 9, 6 as in the paper).
//!
//! Run with `cargo run -p maskfrac-bench --release --bin table3`.

use maskfrac_baselines::{GreedySetCover, MaskFracturer, MatchingPursuit, ProtoEda};
use maskfrac_bench::{normalized_sum, print_clip_row, run_methods, save_json, ClipResult};
use maskfrac_fracture::{FractureConfig, ModelBasedFracturer};
use std::process::ExitCode;

fn main() -> ExitCode {
    maskfrac_bench::run_bench("table3", &[], |_, _| {
        table3();
        Ok(ExitCode::SUCCESS)
    })
}

fn table3() {
    let cfg = FractureConfig::default();
    let model = cfg.model();
    let methods: Vec<Box<dyn MaskFracturer>> = vec![
        Box::new(GreedySetCover::new(cfg.clone())),
        Box::new(MatchingPursuit::new(cfg.clone())),
        Box::new(ProtoEda::new(cfg.clone())),
        Box::new(ModelBasedFracturer::new(cfg.clone())),
    ];

    println!("== Table 3: generated benchmark shapes with known optimal ==");
    println!(
        "{:8}  {:>7}  | {:^24} | {:^24} | {:^24} | {:^24}",
        "Clip", "optimal", "GSC", "MP", "PROTO-EDA", "ours"
    );

    let mut results: Vec<ClipResult> = Vec::new();
    for clip in maskfrac_shapes::generated_suite(&model) {
        let rows = run_methods(&methods, &clip.polygon);
        let result = ClipResult {
            clip: clip.id.clone(),
            optimal: Some(clip.optimal),
            paper_bounds: None,
            rows,
        };
        print_clip_row(&result);
        results.push(result);
    }

    println!();
    let optimal_sum: usize = results.iter().filter_map(|c| c.optimal).sum();
    println!(
        "{:12} {:>10} {:>12} {:>28}",
        "method", "Σ shots", "Σ runtime", "Σ normalized (optimal = 10.0)"
    );
    for m in &methods {
        let shots: usize = results
            .iter()
            .filter_map(|c| c.shots_of(m.name()))
            .sum();
        let runtime: f64 = results
            .iter()
            .flat_map(|c| &c.rows)
            .filter(|r| r.method == m.name())
            .map(|r| r.runtime_s)
            .sum();
        let norm = normalized_sum(&results, m.name());
        println!("{:12} {shots:>10} {runtime:>11.2}s {norm:>28.2}", m.name());
    }
    println!("(Σ optimal = {optimal_sum})");

    println!();
    println!("paper Table 3 (for comparison):");
    println!("  Σ shots        — optimal 78, GSC 269, MP 193, PROTO-EDA 169, ours 119");
    println!("  Σ normalized   — GSC 33.42, MP 26.91, PROTO-EDA 22.31, ours 14.12 (optimal 10)");
    println!("  (paper notes: PROTO-EDA and their method keep some failing pixels here)");

    save_json("table3.json", &results.iter().map(ClipResult::to_json).collect());
}
