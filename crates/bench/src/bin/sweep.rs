//! Extension experiment: how the shot count moves with the CD tolerance
//! `γ` and the blur `σ` — the sensitivity the paper's fixed evaluation
//! point (γ = 2 nm, σ = 6.25 nm) sits inside.
//!
//! Looser tolerance admits coarser boundary approximation and longer
//! `Lth` (fewer staircase corners); more blur lengthens `Lth` but also
//! makes tight features harder, so the trend is not monotone everywhere.
//!
//! Run with `cargo run -p maskfrac-bench --release --bin sweep`.
//! Honours `--trace` and `--metrics-out <path>`, and always writes the
//! machine-readable run report `results/BENCH_sweep.json` (see
//! `docs/observability.md`).

use maskfrac_bench::{run_bench, save_json};
use maskfrac_fracture::{FractureConfig, ModelBasedFracturer};
use maskfrac_obs::json::Value;
use maskfrac_obs::ShapeRecord;
use std::process::ExitCode;

#[derive(Debug)]
struct SweepRow {
    gamma: f64,
    sigma: f64,
    lth: f64,
    total_shots: usize,
    total_fail_pixels: usize,
    total_runtime_s: f64,
}

impl SweepRow {
    fn to_json(&self) -> Value {
        Value::object([
            ("gamma", Value::from(self.gamma)),
            ("sigma", self.sigma.into()),
            ("lth", self.lth.into()),
            ("total_shots", self.total_shots.into()),
            ("total_fail_pixels", self.total_fail_pixels.into()),
            ("total_runtime_s", self.total_runtime_s.into()),
        ])
    }
}

const SWEEP_CLIPS: [&str; 3] = ["Clip-1", "Clip-5", "Clip-10"];

fn run_point(gamma: f64, sigma: f64, shapes: &mut Vec<ShapeRecord>) -> SweepRow {
    let cfg = FractureConfig {
        gamma,
        sigma,
        ..FractureConfig::default()
    };
    let fracturer = ModelBasedFracturer::new(cfg);
    let clips = maskfrac_shapes::ilt_suite();
    let mut total_shots = 0;
    let mut total_fail_pixels = 0;
    let mut total_runtime_s = 0.0;
    for id in SWEEP_CLIPS {
        let clip = clips.iter().find(|c| c.id == id).expect("clip exists");
        let r = fracturer.fracture(&clip.polygon);
        total_shots += r.shot_count();
        total_fail_pixels += r.summary.fail_count();
        total_runtime_s += r.runtime.as_secs_f64();
        shapes.push(ShapeRecord {
            id: format!("g{gamma}-s{sigma}:{id}"),
            status: r.status.label().to_owned(),
            method: "ours".to_owned(),
            shots: r.shot_count(),
            fail_pixels: r.summary.fail_count(),
            runtime_s: r.runtime.as_secs_f64(),
            attempts: 1,
            iterations: r.iterations,
            on_fail_pixels: r.summary.on_fails,
            off_fail_pixels: r.summary.off_fails,
            deadline_hit: r.deadline_hit,
            ..ShapeRecord::default()
        });
    }
    let row = SweepRow {
        gamma,
        sigma,
        lth: fracturer.lth(),
        total_shots,
        total_fail_pixels,
        total_runtime_s,
    };
    println!(
        "gamma {gamma:>4.1}  sigma {sigma:>5.2}  Lth {:>6.2}  ->  {:>4} shots  {:>4} fails  {:>6.2}s",
        row.lth, row.total_shots, row.total_fail_pixels, row.total_runtime_s
    );
    row
}

fn main() -> ExitCode {
    run_bench("sweep", &[], |_, shapes| {
        sweep(shapes);
        Ok(ExitCode::SUCCESS)
    })
}

fn sweep(shapes: &mut Vec<ShapeRecord>) {
    println!("== Parameter sweep over {} clips ==", SWEEP_CLIPS.len());
    let mut rows = Vec::new();

    println!("\nCD tolerance sweep (sigma = 6.25 nm):");
    for gamma in [1.0, 1.5, 2.0, 3.0, 4.0] {
        rows.push(run_point(gamma, 6.25, shapes));
    }

    println!("\nblur sweep (gamma = 2 nm):");
    for sigma in [4.0, 5.0, 6.25, 8.0, 10.0] {
        if sigma == 6.25 {
            continue; // already measured above
        }
        rows.push(run_point(2.0, sigma, shapes));
    }

    save_json("sweep.json", &rows.iter().map(SweepRow::to_json).collect());
}
