//! Regenerates paper **Table 2**: shot count and runtime on the ten ILT
//! clips for GSC, MP, PROTO-EDA (surrogate) and the proposed method, plus
//! the sum of normalized shot count.
//!
//! The paper normalizes by the ILP upper bound from the benchmarking
//! suite; since our clips are synthetic (see `DESIGN.md` §5) the
//! normalizer here is the best shot count achieved by any method on that
//! clip, which plays the same role. The paper's published values are
//! echoed next to ours for side-by-side comparison in `EXPERIMENTS.md`.
//!
//! Run with `cargo run -p maskfrac-bench --release --bin table2`.

use maskfrac_baselines::{GreedySetCover, MaskFracturer, MatchingPursuit, ProtoEda};
use maskfrac_bench::{normalized_sum, print_clip_row, run_methods, save_json, ClipResult};
use maskfrac_fracture::{FractureConfig, ModelBasedFracturer};
use std::process::ExitCode;

fn main() -> ExitCode {
    maskfrac_bench::run_bench("table2", &[], |_, _| {
        table2();
        Ok(ExitCode::SUCCESS)
    })
}

fn table2() {
    let cfg = FractureConfig::default();
    let methods: Vec<Box<dyn MaskFracturer>> = vec![
        Box::new(GreedySetCover::new(cfg.clone())),
        Box::new(MatchingPursuit::new(cfg.clone())),
        Box::new(ProtoEda::new(cfg.clone())),
        Box::new(ModelBasedFracturer::new(cfg.clone())),
    ];

    println!("== Table 2: real-ILT-style mask shapes ==");
    println!(
        "{:8}  {:>6}  | {:^24} | {:^24} | {:^24} | {:^24}",
        "Clip", "LB/UB*", "GSC", "MP", "PROTO-EDA", "ours"
    );
    println!("  (*paper's reported ILP bounds for the real clip with this index)");

    let mut results: Vec<ClipResult> = Vec::new();
    for clip in maskfrac_shapes::ilt_suite() {
        let rows = run_methods(&methods, &clip.polygon);
        let result = ClipResult {
            clip: clip.id.clone(),
            optimal: None,
            paper_bounds: Some((clip.reference.lower_bound, clip.reference.upper_bound)),
            rows,
        };
        print_clip_row(&result);
        results.push(result);
    }

    println!();
    let mut totals: Vec<(String, usize, f64, f64)> = Vec::new();
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
        totals.push((m.name().to_owned(), shots, runtime, norm));
    }
    println!("{:12} {:>10} {:>12} {:>26}", "method", "Σ shots", "Σ runtime", "Σ normalized shot count");
    for (name, shots, runtime, norm) in &totals {
        println!("{name:12} {shots:>10} {runtime:>11.2}s {norm:>26.2}");
    }

    println!();
    println!("paper Table 2 (real ILT clips, for comparison):");
    println!("  Σ shots        — GSC 189, MP 112, PROTO-EDA 131, ours 103");
    println!("  Σ normalized   — GSC 21.49, MP 14.54, PROTO-EDA 15.96, ours 12.26 (wrt ILP UB)");

    save_json("table2.json", &results.iter().map(ClipResult::to_json).collect());
}
