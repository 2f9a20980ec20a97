//! Shared reporting plumbing for the experiment harness.
//!
//! The binaries in this crate regenerate the paper's evaluation artifacts:
//!
//! * `table2` — shot count and runtime on the ten ILT clips, for GSC, MP,
//!   the PROTO-EDA surrogate, and the paper's method (paper Table 2);
//! * `table3` — the same comparison on the ten generated benchmarks with
//!   known optimal shot counts (paper Table 3);
//! * `figures` — SVG reproductions of the paper's illustrations
//!   (Figs. 1–5);
//! * `ablation` — sensitivity of the method to its design choices
//!   (coloring heuristic, overlap threshold, `NH`, `Lth` derivation,
//!   reduction sweep).
//!
//! Each binary prints the paper-format rows and writes machine-readable
//! JSON under `results/`. Those that write a run report start through
//! [`run_bench`], which gives them the `maskfrac` CLI's observability
//! flags and failure policy.
//!
//! The library also holds what the binaries share with the drift gates
//! in `tests/drift_gates.rs`: the suite fingerprints
//! ([`suite_fingerprint`], [`layout_fingerprint`]) and the fault-injected
//! suite run ([`run_injection_suite`]).

#![warn(missing_docs)]

use maskfrac_baselines::{FallbackFracturer, MaskFracturer};
use maskfrac_fracture::{faults, FaultPlan, FractureConfig, FractureStatus};
use maskfrac_geom::{Polygon, Rect};
use maskfrac_mdp::{Layout, LayoutOptions, Placement};
use maskfrac_obs::json::Value;
use maskfrac_obs::ShapeRecord;
use std::error::Error;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// One method's result on one benchmark instance.
#[derive(Debug, Clone, PartialEq)]
pub struct MethodRow {
    /// Method name.
    pub method: String,
    /// Shot count (the paper's primary metric).
    pub shot_count: usize,
    /// Failing pixels of the returned solution.
    pub fail_pixels: usize,
    /// Wall-clock runtime in seconds.
    pub runtime_s: f64,
}

/// All methods' results on one benchmark instance.
#[derive(Debug, Clone, PartialEq)]
pub struct ClipResult {
    /// Instance id (`Clip-3`, `AGB-1`, …).
    pub clip: String,
    /// Known optimal shot count (generated benchmarks only).
    pub optimal: Option<usize>,
    /// The paper's reported LB/UB for the corresponding real clip
    /// (ILT clips only; reference metadata, not our normalizer).
    pub paper_bounds: Option<(u32, u32)>,
    /// Per-method rows.
    pub rows: Vec<MethodRow>,
}

impl MethodRow {
    /// The row as a JSON object, fields in declaration order.
    pub fn to_json(&self) -> Value {
        Value::object([
            ("method", Value::from(self.method.as_str())),
            ("shot_count", self.shot_count.into()),
            ("fail_pixels", self.fail_pixels.into()),
            ("runtime_s", self.runtime_s.into()),
        ])
    }
}

impl ClipResult {
    /// The result as a JSON object; absent `optimal` and `paper_bounds`
    /// are left out.
    pub fn to_json(&self) -> Value {
        let mut entries = vec![("clip", Value::from(self.clip.as_str()))];
        if let Some(optimal) = self.optimal {
            entries.push(("optimal", optimal.into()));
        }
        if let Some((lb, ub)) = self.paper_bounds {
            entries.push(("paper_bounds", vec![lb, ub].into()));
        }
        entries.push((
            "rows",
            Value::Array(self.rows.iter().map(MethodRow::to_json).collect()),
        ));
        Value::object(entries)
    }

    /// Shot count of the named method.
    pub fn shots_of(&self, method: &str) -> Option<usize> {
        self.rows
            .iter()
            .find(|r| r.method == method)
            .map(|r| r.shot_count)
    }

    /// The per-clip normalizer: the known optimal when available, else the
    /// best (smallest) shot count any method achieved.
    pub fn normalizer(&self) -> usize {
        self.optimal.unwrap_or_else(|| {
            self.rows
                .iter()
                .map(|r| r.shot_count)
                .min()
                .unwrap_or(1)
                .max(1)
        })
    }
}

/// Runs every method on one target shape.
pub fn run_methods(methods: &[Box<dyn MaskFracturer>], target: &Polygon) -> Vec<MethodRow> {
    methods
        .iter()
        .map(|m| {
            let r = m.fracture(target);
            MethodRow {
                method: m.name().to_owned(),
                shot_count: r.shot_count(),
                fail_pixels: r.summary.fail_count(),
                runtime_s: r.runtime.as_secs_f64(),
            }
        })
        .collect()
}

/// Sum over clips of `shots / normalizer` for one method — the paper's
/// "sum of normalized shot count" (suboptimality) metric.
pub fn normalized_sum(results: &[ClipResult], method: &str) -> f64 {
    results
        .iter()
        .map(|c| {
            c.shots_of(method)
                .map(|s| s as f64 / c.normalizer() as f64)
                .unwrap_or(0.0)
        })
        .sum()
}

/// Resolves the `results/` output directory (created on demand) relative
/// to the workspace root.
pub fn results_dir() -> PathBuf {
    let dir = workspace_root().join("results");
    std::fs::create_dir_all(&dir).expect("can create results dir");
    dir
}

fn workspace_root() -> PathBuf {
    // CARGO_MANIFEST_DIR = <root>/crates/bench at compile time.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("bench crate lives two levels below the workspace root")
        .to_path_buf()
}

/// Writes `value` as pretty JSON to `results/<filename>`.
pub fn save_json(filename: &str, value: &Value) {
    let path = results_dir().join(filename);
    std::fs::write(&path, value.pretty()).expect("can write results file");
    println!("wrote {}", path.display());
}

/// The front door of every bench binary that writes a run report.
///
/// Reads the process arguments through
/// [`ObsFlags::parse`](maskfrac_obs::ObsFlags::parse) (the binary's
/// `own` flags plus the shared observability flags), runs `body` with
/// them and a ledger to fill, then finishes the run report as
/// `results/BENCH_<binary>.json` (plus `--metrics-out`). An error from
/// any step prints `error: …` and exits non-zero, as the `maskfrac`
/// CLI does; a failure exit code from `body` still writes the report.
pub fn run_bench(
    binary: &str,
    own: &[&str],
    body: impl FnOnce(&[String], &mut Vec<ShapeRecord>) -> Result<ExitCode, Box<dyn Error>>,
) -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let started = std::time::Instant::now();
    let run = || -> Result<ExitCode, Box<dyn Error>> {
        let obs = maskfrac_obs::ObsFlags::parse(&args, own)?;
        let mut shapes = Vec::new();
        let code = body(&args, &mut shapes)?;
        let default_path = results_dir().join(format!("BENCH_{binary}.json"));
        obs.finish(binary, started, shapes, Some(&default_path))?;
        Ok(code)
    };
    run().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        ExitCode::FAILURE
    })
}

/// Prints one table row in the paper's layout.
pub fn print_clip_row(result: &ClipResult) {
    print!("{:8}", result.clip);
    if let Some((lb, ub)) = result.paper_bounds {
        print!("  {lb:>2}/{ub:<3}", );
    }
    if let Some(opt) = result.optimal {
        print!("  opt {opt:>3}");
    }
    for row in &result.rows {
        print!(
            "  | {:>3} sh {:>4} f {:>6.2} s",
            row.shot_count, row.fail_pixels, row.runtime_s
        );
    }
    println!();
}

fn push_shape(bytes: &mut Vec<u8>, id: &str, polygon: &Polygon) {
    bytes.extend_from_slice(id.as_bytes());
    for p in polygon.vertices() {
        bytes.extend_from_slice(&p.x.to_le_bytes());
        bytes.extend_from_slice(&p.y.to_le_bytes());
    }
}

/// FNV-1a hash of a suite's shape ids and vertex coordinates, in order.
/// Shot counts are only comparable between runs over the same geometry,
/// so the drift gates pin this next to the shot counts: a generator
/// change fails there by name instead of as unexplained drift.
pub fn suite_fingerprint<'a>(shapes: impl IntoIterator<Item = (&'a str, &'a Polygon)>) -> u64 {
    let mut bytes = Vec::new();
    for (id, polygon) in shapes {
        push_shape(&mut bytes, id, polygon);
    }
    faults::fingerprint(&bytes)
}

/// [`suite_fingerprint`] of a layout's library, followed by every
/// placement (shape name, offset and D4 transform index): a hierarchical
/// run's totals depend on the instance mix, not just the cells.
pub fn layout_fingerprint(layout: &Layout) -> u64 {
    let mut bytes = Vec::new();
    for (name, polygon) in layout.shapes() {
        push_shape(&mut bytes, name, polygon);
    }
    for (name, placement) in layout.placements() {
        bytes.extend_from_slice(name.as_bytes());
        bytes.extend_from_slice(&placement.offset.x.to_le_bytes());
        bytes.extend_from_slice(&placement.offset.y.to_le_bytes());
        bytes.push(placement.transform.index());
    }
    faults::fingerprint(&bytes)
}

/// What [`run_injection_suite`] observed.
#[derive(Debug, Clone)]
pub struct InjectionOutcome {
    /// [`suite_fingerprint`] of the fractured suite.
    pub fingerprint: u64,
    /// One ledger row per suite shape, in suite order.
    pub shapes: Vec<ShapeRecord>,
    /// Every broken robustness invariant, one line each.
    pub violations: Vec<String>,
}

/// Runs the ten ILT clips plus a degenerate sliver through the fallback
/// ladder, then through the 4-worker layout driver, with
/// `FaultPlan::uniform(seed, rate)` armed for the whole run. Records a violation when a usable status
/// comes back without shots, when `Failed` has no recorded cause, or when
/// the layout run loses a shape. The armed plan is process-global:
/// callers must not fracture anything else concurrently.
pub fn run_injection_suite(seed: u64, rate: f64) -> InjectionOutcome {
    let cfg = FractureConfig::default();
    let _scope = faults::arm_scoped(FaultPlan::uniform(seed, rate));
    let ladder = FallbackFracturer::new(cfg.clone());
    let mut clips: Vec<(String, Polygon)> = maskfrac_shapes::ilt_suite()
        .into_iter()
        .map(|c| (c.id, c.polygon))
        .collect();
    clips.push((
        "sliver".into(),
        Polygon::from_rect(Rect::new(0, 0, 60, 4).expect("rect")),
    ));
    let fingerprint = suite_fingerprint(clips.iter().map(|(id, p)| (id.as_str(), p)));
    let mut shapes = Vec::new();
    let mut violations = Vec::new();
    for (id, polygon) in &clips {
        let out = ladder.fracture(polygon);
        shapes.push(ShapeRecord {
            id: id.clone(),
            status: out.result.status.label().to_owned(),
            method: out.method.to_owned(),
            shots: out.result.shot_count(),
            fail_pixels: out.result.summary.fail_count(),
            runtime_s: out.result.runtime.as_secs_f64(),
            attempts: out.attempts as usize,
            iterations: out.result.iterations,
            on_fail_pixels: out.result.summary.on_fails,
            off_fail_pixels: out.result.summary.off_fails,
            deadline_hit: out.result.deadline_hit,
            ..ShapeRecord::default()
        });
        println!(
            "  {:10} [{} via {}] {} shots in {} attempt(s){}",
            id,
            out.result.status,
            out.method,
            out.result.shot_count(),
            out.attempts,
            out.error.as_deref().map(|e| format!(" — {e}")).unwrap_or_default()
        );
        if out.result.status != FractureStatus::Failed && out.result.shots.is_empty() {
            violations.push(format!("{id}: usable status but empty shot list"));
        }
        if out.result.status == FractureStatus::Failed && out.error.is_none() {
            violations.push(format!("{id}: Failed without a recorded cause"));
        }
    }

    // The multi-threaded layout driver under the same plan.
    let mut layout = Layout::new("inject-demo");
    for (i, (id, polygon)) in clips.iter().enumerate() {
        layout.add_shape(id, polygon.clone());
        layout.place(id, Placement::at(i as i64 * 1000, 0));
    }
    let options = LayoutOptions {
        threads: 4,
        ..LayoutOptions::default()
    };
    let report = maskfrac_mdp::fracture_layout_opts(&layout, &cfg, &options);
    if report.per_shape.len() != clips.len() {
        violations.push(format!(
            "layout run lost shapes: {} of {} reported",
            report.per_shape.len(),
            clips.len()
        ));
    }
    println!(
        "layout run: {} shapes, worst status {}, status counts {:?}",
        report.per_shape.len(),
        report.worst_status(),
        report
            .status_counts()
            .iter()
            .map(|(k, v)| (k.label(), *v))
            .collect::<Vec<_>>()
    );
    InjectionOutcome {
        fingerprint,
        shapes,
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ClipResult {
        ClipResult {
            clip: "Clip-1".into(),
            optimal: None,
            paper_bounds: Some((3, 4)),
            rows: vec![
                MethodRow {
                    method: "gsc".into(),
                    shot_count: 8,
                    fail_pixels: 0,
                    runtime_s: 0.1,
                },
                MethodRow {
                    method: "ours".into(),
                    shot_count: 4,
                    fail_pixels: 0,
                    runtime_s: 0.2,
                },
            ],
        }
    }

    #[test]
    fn normalizer_uses_best_method_without_optimal() {
        let c = sample();
        assert_eq!(c.normalizer(), 4);
        assert_eq!(c.shots_of("gsc"), Some(8));
        assert_eq!(c.shots_of("nope"), None);
    }

    #[test]
    fn normalizer_prefers_known_optimal() {
        let mut c = sample();
        c.optimal = Some(3);
        assert_eq!(c.normalizer(), 3);
    }

    #[test]
    fn normalized_sum_accumulates() {
        let a = sample();
        let mut b = sample();
        b.clip = "Clip-2".into();
        let results = vec![a, b];
        assert!((normalized_sum(&results, "gsc") - 4.0).abs() < 1e-12);
        assert!((normalized_sum(&results, "ours") - 2.0).abs() < 1e-12);
    }

    #[test]
    fn clip_result_json_leaves_out_absent_metadata() {
        let mut c = sample();
        let v = c.to_json();
        assert_eq!(v["paper_bounds"], Value::from(vec![3u32, 4]));
        assert_eq!(v.get("optimal"), None);
        assert_eq!(v["rows"][1]["method"].as_str(), Some("ours"));
        c.paper_bounds = None;
        c.optimal = Some(3);
        let v = c.to_json();
        assert_eq!(v.get("paper_bounds"), None);
        assert_eq!(v["optimal"].as_u64(), Some(3));
    }

    #[test]
    fn results_dir_exists() {
        let dir = results_dir();
        assert!(dir.ends_with("results"));
        assert!(dir.exists());
    }
}
