//! Extension experiment: statistical robustness of the Table 2 ranking,
//! plus the fault-injection hardening harness.
//!
//! The paper (and our Table 2) evaluates ten fixed clips. The default
//! mode draws twenty *fresh* random ILT clips and reports the
//! distribution of the per-clip shot-count ratio ours / PROTO-EDA and
//! ours / GSC, so the headline comparison is not an artifact of the
//! suite's particular seeds.
//!
//! `--inject [--seed N] [--rate R]` instead runs the benchmark suite
//! through the crash-proof fallback ladder with deterministic faults
//! (panics, timeouts, infeasible residues) armed at rate `R` (default
//! 0.3), asserting that the process never aborts, every shape comes back
//! with a [`FractureStatus`](maskfrac_fracture::FractureStatus), and
//! every non-`Failed` outcome carries shots. It finishes with a
//! deadline-bounded layout run that must return within twice the
//! configured deadline. Exit code is non-zero if any invariant is
//! violated.
//!
//! Run with `cargo run -p maskfrac-bench --release --bin robustness
//! [-- --inject]`. Both modes honour `--trace` (stderr span tree) and
//! `--metrics-out <path>` (run-report copy), and always write the
//! machine-readable run report `results/BENCH_robustness.json` (see
//! `docs/observability.md`). The `--inject` suite's shot counts are
//! pinned in `crates/bench/tests/drift_gates.rs`.

use maskfrac_baselines::{FallbackFracturer, GreedySetCover, MaskFracturer, ProtoEda};
use maskfrac_bench::{
    apply_obs_flags, finish_run_report, run_injection_suite, save_json, suite_fingerprint,
};
use maskfrac_fracture::{FractureConfig, ModelBasedFracturer};
use maskfrac_obs::json::Value;
use maskfrac_obs::ShapeRecord;
use maskfrac_shapes::ilt::{generate_ilt_clip, IltParams};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

#[derive(Debug)]
struct RobustnessRow {
    seed: u64,
    ours_shots: usize,
    ours_fails: usize,
    proto_shots: usize,
    gsc_shots: usize,
}

impl RobustnessRow {
    fn to_json(&self) -> Value {
        Value::object([
            ("seed", Value::from(self.seed)),
            ("ours_shots", self.ours_shots.into()),
            ("ours_fails", self.ours_fails.into()),
            ("proto_shots", self.proto_shots.into()),
            ("gsc_shots", self.gsc_shots.into()),
        ])
    }
}

fn mean_and_std(values: &[f64]) -> (f64, f64) {
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
    (mean, var.sqrt())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let started = Instant::now();
    let obs = apply_obs_flags(&args);
    let mut shapes = Vec::new();
    let code = if args.iter().any(|a| a == "--inject") {
        let seed = flag_value(&args, "--seed").unwrap_or(0xF417);
        let rate = flag_value(&args, "--rate").unwrap_or(0.3);
        injection_harness(seed, rate, &mut shapes)
    } else {
        ranking_study(&mut shapes);
        ExitCode::SUCCESS
    };
    finish_run_report("robustness", started, &obs, shapes);
    code
}

fn flag_value<T: std::str::FromStr>(args: &[String], flag: &str) -> Option<T> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
}

/// Runs the benchmark suite through the fallback ladder under armed
/// deterministic faults ([`run_injection_suite`]), then a
/// deadline-bounded layout run. Returns a non-zero exit code if any
/// robustness invariant is violated.
fn injection_harness(seed: u64, rate: f64, shapes: &mut Vec<ShapeRecord>) -> ExitCode {
    println!("== Fault injection: suite under panics/timeouts/infeasible residues ==");
    println!("plan: seed {seed}, per-kind rate {rate:.2}");
    let cfg = FractureConfig::default();
    let outcome = run_injection_suite(seed, rate);
    maskfrac_obs::counter!("robustness.bench.suite_fingerprint").add(outcome.fingerprint);
    println!("suite fingerprint {:#018x}", outcome.fingerprint);
    let mut violations = outcome.violations;
    shapes.extend(outcome.shapes);
    let mut status_counts: BTreeMap<&str, usize> = BTreeMap::new();
    for s in shapes.iter() {
        *status_counts.entry(s.status.as_str()).or_insert(0) += 1;
    }
    println!("suite statuses: {status_counts:?}");

    // Deadline demo, faults disarmed: a bounded run must come back within
    // twice the budget (slack for the unbounded classification stage).
    let deadline = Duration::from_millis(500);
    let bounded = FallbackFracturer::new(FractureConfig {
        deadline: Some(deadline),
        ..cfg
    });
    let clip = generate_ilt_clip(&IltParams {
        base_radius: 46.0,
        irregularity: 0.22,
        lobes: 3,
        seed: 0x00DE_AD11,
        ..IltParams::default()
    });
    let started = Instant::now();
    let out = bounded.fracture(&clip);
    let elapsed = started.elapsed();
    println!(
        "deadline demo: {} ms budget -> {} shots [{}] in {} ms",
        deadline.as_millis(),
        out.result.shot_count(),
        out.result.status,
        elapsed.as_millis()
    );
    if elapsed > 2 * deadline {
        violations.push(format!(
            "deadline-bounded run took {} ms against a {} ms budget",
            elapsed.as_millis(),
            deadline.as_millis()
        ));
    }

    if violations.is_empty() {
        println!("fault injection: zero aborts, all invariants hold");
        ExitCode::SUCCESS
    } else {
        for v in &violations {
            eprintln!("VIOLATION: {v}");
        }
        ExitCode::FAILURE
    }
}

fn ranking_study(shapes: &mut Vec<ShapeRecord>) {
    let cfg = FractureConfig::default();
    let ours = ModelBasedFracturer::new(cfg.clone());
    let proto = ProtoEda::new(cfg.clone());
    let gsc = GreedySetCover::new(cfg);

    println!("== Robustness: 20 fresh random clips ==");
    let clips: Vec<(String, maskfrac_geom::Polygon)> = (0..20u64)
        .map(|k| {
            let clip = generate_ilt_clip(&IltParams {
                base_radius: 34.0 + 3.0 * (k % 8) as f64,
                irregularity: 0.15 + 0.02 * (k % 6) as f64,
                lobes: 1 + (k % 3) as usize,
                seed: 0x40B0_5700 + k,
                ..IltParams::default()
            });
            (format!("random-clip-{k}"), clip)
        })
        .collect();
    let fingerprint = suite_fingerprint(clips.iter().map(|(id, p)| (id.as_str(), p)));
    maskfrac_obs::counter!("robustness.bench.suite_fingerprint").add(fingerprint);
    println!("suite fingerprint {fingerprint:#018x}");
    println!(
        "{:>6} {:>11} {:>11} {:>10} {:>12} {:>11}",
        "seed", "ours", "proto-eda", "gsc", "ours/proto", "ours/gsc"
    );
    let mut rows = Vec::new();
    let mut vs_proto = Vec::new();
    let mut vs_gsc = Vec::new();
    for (k, (id, clip)) in clips.iter().enumerate() {
        let k = k as u64;
        let r_ours = ours.fracture(clip);
        let r_proto = proto.fracture(clip);
        let r_gsc = gsc.fracture(clip);
        let ratio_proto = r_ours.shot_count() as f64 / r_proto.shot_count().max(1) as f64;
        let ratio_gsc = r_ours.shot_count() as f64 / r_gsc.shot_count().max(1) as f64;
        vs_proto.push(ratio_proto);
        vs_gsc.push(ratio_gsc);
        println!(
            "{:>6} {:>7} sh {:>2}f {:>8} sh {:>7} sh {:>12.2} {:>11.2}",
            k,
            r_ours.shot_count(),
            r_ours.summary.fail_count(),
            r_proto.shot_count(),
            r_gsc.shot_count(),
            ratio_proto,
            ratio_gsc
        );
        rows.push(RobustnessRow {
            seed: 0x40B0_5700 + k,
            ours_shots: r_ours.shot_count(),
            ours_fails: r_ours.summary.fail_count(),
            proto_shots: r_proto.shot_count(),
            gsc_shots: r_gsc.shot_count(),
        });
        shapes.push(ShapeRecord {
            id: id.clone(),
            status: r_ours.status.label().to_owned(),
            method: "ours".to_owned(),
            shots: r_ours.shot_count(),
            fail_pixels: r_ours.summary.fail_count(),
            runtime_s: r_ours.runtime.as_secs_f64(),
            attempts: 1,
            iterations: r_ours.iterations,
            on_fail_pixels: r_ours.summary.on_fails,
            off_fail_pixels: r_ours.summary.off_fails,
            deadline_hit: r_ours.deadline_hit,
            ..ShapeRecord::default()
        });
    }

    let (mp, sp) = mean_and_std(&vs_proto);
    let (mg, sg) = mean_and_std(&vs_gsc);
    let wins_proto = vs_proto.iter().filter(|&&r| r <= 1.0).count();
    let wins_gsc = vs_gsc.iter().filter(|&&r| r <= 1.0).count();
    println!("\nours/proto-eda ratio: mean {mp:.2} ± {sp:.2} (ties-or-wins on {wins_proto}/20 clips)");
    println!("ours/gsc ratio:       mean {mg:.2} ± {sg:.2} (ties-or-wins on {wins_gsc}/20 clips)");
    save_json("robustness.json", &rows.iter().map(RobustnessRow::to_json).collect());
}
