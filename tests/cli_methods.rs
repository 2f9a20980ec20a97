//! `maskfrac fracture` runs every method through one front door: a
//! valid shape comes back as a shot list the independent verifier
//! accepts, a degenerate one as a typed error naming the shape.
//! `maskfrac fracture-layout` takes no supervisor-tuning flags: its
//! fallback ladder and hung-shape watchdog are fixed. Both commands read
//! their flags through `maskfrac::obs::flags`: a value flag without its
//! value fails naming the flag, and the observability artifacts they
//! write pass their own validators.

use maskfrac::geom::{Point, Polygon, Rect};
use maskfrac::shapes::io::ShapeFile;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const METHODS: [&str; 6] = ["ours", "gsc", "mp", "proto-eda", "conventional", "exact"];

/// A fresh temp directory per test, so no test removes another's files.
fn scratch_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("maskfrac-cli-{test}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn maskfrac(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_maskfrac"))
        .args(args)
        .output()
        .expect("spawn maskfrac")
}

const CLIP: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/benchmarks/clip-1.json");
const SMOKE_LAYOUT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/layouts/smoke.layout");

fn write_shape(dir: &Path, id: &str, polygon: Polygon) -> String {
    let path = dir.join(format!("{id}.json"));
    ShapeFile {
        id: id.to_owned(),
        polygon,
        shots: Vec::new(),
    }
    .save(&path)
    .unwrap();
    path.to_str().unwrap().to_owned()
}

#[test]
fn every_method_fractures_an_l_and_rejects_a_sliver() {
    let dir = scratch_dir("methods");
    // 80×80 nm L with 30 nm arms.
    let l = Polygon::new(vec![
        Point::new(0, 0),
        Point::new(80, 0),
        Point::new(80, 30),
        Point::new(30, 30),
        Point::new(30, 80),
        Point::new(0, 80),
    ])
    .unwrap();
    let l_path = write_shape(&dir, "l-80", l);
    let sliver = Polygon::from_rect(Rect::new(0, 0, 60, 4).unwrap());
    let sliver_path = write_shape(&dir, "sliver-60x4", sliver);

    for method in METHODS {
        let out_path = dir.join(format!("l-80-{method}.shots.json"));
        let out_path = out_path.to_str().unwrap();
        let run = maskfrac(&["fracture", &l_path, "--method", method, "--out", out_path]);
        assert!(
            run.status.success(),
            "{method} on the L: {}",
            String::from_utf8_lossy(&run.stderr)
        );
        let verify = maskfrac(&["verify", out_path]);
        let stdout = String::from_utf8_lossy(&verify.stdout);
        assert!(verify.status.success(), "verify after {method}: {stdout}");
        assert!(
            stdout.contains("FEASIBLE") && !stdout.contains("INFEASIBLE"),
            "{method}: {stdout}"
        );

        let run = maskfrac(&["fracture", &sliver_path, "--method", method]);
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert!(
            !run.status.success(),
            "{method} accepted the sliver: {}",
            String::from_utf8_lossy(&run.stdout)
        );
        assert!(
            stderr.contains("\"sliver-60x4\""),
            "{method}: error does not name the shape: {stderr}"
        );
        assert!(stderr.contains("invalid target"), "{method}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn fracture_layout_rejects_supervisor_tuning_flags() {
    let layout = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/layouts/smoke.layout");
    for (flag, value) in [
        ("--retries", "2"),
        ("--hung-multiple", "4"),
        ("--watchdog-min-samples", "8"),
    ] {
        let run = maskfrac(&["fracture-layout", layout, flag, value]);
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert!(!run.status.success(), "{flag} was accepted");
        assert!(
            stderr.contains(&format!("unknown flag {flag}")),
            "{flag}: {stderr}"
        );
    }
}

#[test]
fn fracture_commands_reject_refine_threads() {
    // Refinement inside one shape is serial: neither command takes a
    // scoring-thread count.
    let shape = concat!(env!("CARGO_MANIFEST_DIR"), "/benchmarks/clip-1.json");
    let layout = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/layouts/smoke.layout");
    for (command, input) in [("fracture", shape), ("fracture-layout", layout)] {
        let run = maskfrac(&[command, input, "--refine-threads", "2"]);
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert!(!run.status.success(), "{command} accepted --refine-threads");
        assert!(
            stderr.contains("unknown flag --refine-threads"),
            "{command}: {stderr}"
        );
    }
}

#[test]
fn fracture_layout_rejects_overflowing_fault_bands() {
    let layout = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/layouts/smoke.layout");
    // 3·R + crash rate > 1: a fault band would start past the draw's end.
    for flags in [
        &["--fault-rate", "0.5"][..],
        &["--fault-rate", "0.3", "--fault-crash-rate", "0.2"][..],
    ] {
        let mut args = vec!["fracture-layout", layout];
        args.extend_from_slice(flags);
        let run = maskfrac(&args);
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert!(!run.status.success(), "{flags:?} was accepted");
        assert!(
            stderr.contains("overflow the fault bands") && stderr.contains("3·R"),
            "{flags:?}: {stderr}"
        );
    }
}

#[test]
fn fracture_rejects_progress_ms() {
    // The progress sampler reports shapes done out of a layout's total;
    // only fracture-layout takes it.
    let run = maskfrac(&["fracture", CLIP, "--progress-ms", "1"]);
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(!run.status.success(), "fracture accepted --progress-ms");
    assert!(stderr.contains("unknown flag --progress-ms"), "{stderr}");
}

#[test]
fn value_flags_without_a_value_fail_naming_the_flag() {
    let dir = scratch_dir("missing-values");
    for args in [
        &["fracture", CLIP, "--metrics-out", "--trace"][..],
        &["fracture", CLIP, "--metrics-out"][..],
        &["fracture", CLIP, "--out"][..],
        &["fracture-layout", SMOKE_LAYOUT, "--events-out", "--trace"][..],
        &["fracture-layout", SMOKE_LAYOUT, "--threads"][..],
    ] {
        let flag = args[2];
        let run = Command::new(env!("CARGO_BIN_EXE_maskfrac"))
            .args(args)
            .current_dir(&dir)
            .output()
            .expect("spawn maskfrac");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert!(!run.status.success(), "{args:?} was accepted");
        assert!(
            stderr.contains(&format!("{flag} needs a value")),
            "{args:?}: {stderr}"
        );
    }
    // Nothing was written under the name of the flag that followed.
    assert!(!dir.join("--trace").exists());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn fracture_layout_writes_valid_observability_artifacts() {
    let dir = scratch_dir("artifacts");
    let report = dir.join("report.json");
    let trace = dir.join("trace.json");
    let events = dir.join("events.jsonl");
    let run = maskfrac(&[
        "fracture-layout",
        SMOKE_LAYOUT,
        "--threads",
        "2",
        "--metrics-out",
        report.to_str().unwrap(),
        "--trace-out",
        trace.to_str().unwrap(),
        "--events-out",
        events.to_str().unwrap(),
    ]);
    assert!(
        run.status.success(),
        "{}",
        String::from_utf8_lossy(&run.stderr)
    );

    let loaded = maskfrac::obs::RunReport::load(&report).unwrap();
    loaded.validate().unwrap();
    assert_eq!(loaded.binary, "maskfrac");
    assert!(!loaded.shapes.is_empty(), "the report carries no ledger");

    let read = maskfrac::obs::event::read_jsonl(&std::fs::read(&events).unwrap()).unwrap();
    assert!(!read.is_empty(), "no events captured");
    maskfrac::obs::event::validate(&read).unwrap();

    let chrome = maskfrac::obs::json::parse(&std::fs::read_to_string(&trace).unwrap()).unwrap();
    let rows = chrome["traceEvents"].as_array().unwrap();
    assert_eq!(rows.len(), read.len(), "trace and JSON Lines disagree");
    std::fs::remove_dir_all(&dir).unwrap();
}
