//! Integration tests for the structured event stream: concurrent capture
//! across worker threads, Chrome-trace export validity, and the
//! bit-neutrality contract (instrumentation never changes shot output).
//!
//! Event capture is process-global, so every test that toggles it runs
//! under one mutex and filters drained events down to its own name
//! prefix before asserting.

use maskfrac::fracture::FractureConfig;
use maskfrac::obs::{self, event, json, Event, EventKind};
use std::collections::HashMap;
use std::sync::Mutex;

/// One mutex for every test that touches the process-global capture
/// flag — including the uninstrumented reference passes, which must not
/// flip capture off under a concurrently captured run.
static GATE: Mutex<()> = Mutex::new(());

fn capture_gate() -> std::sync::MutexGuard<'static, ()> {
    GATE.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Serializes tests that enable global event capture, draining leftovers
/// first so no test sees another's records. Restores capture-off.
fn with_capture<T>(f: impl FnOnce() -> T) -> T {
    let _gate = capture_gate();
    with_capture_locked(f)
}

/// [`with_capture`] for callers already holding [`capture_gate`]
/// (the gate mutex is not reentrant).
fn with_capture_locked<T>(f: impl FnOnce() -> T) -> T {
    let _ = event::drain();
    obs::set_capture(true);
    let out = f();
    obs::set_capture(false);
    let _ = event::drain();
    out
}

const THREADS: u32 = 8;
const REPS: usize = 5;

#[test]
fn concurrent_spans_resolve_parents_and_stay_monotonic() {
    let events = with_capture(|| {
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                scope.spawn(move || {
                    for rep in 0..REPS {
                        let _outer = obs::span("test.trace.outer");
                        event::point_with(
                            "test.trace.started",
                            [("worker", u64::from(t).into()), ("rep", (rep as u64).into())],
                        );
                        {
                            let _inner = obs::span("test.trace.inner");
                            event::point_with("test.trace.tick", []);
                        }
                    }
                });
            }
        });
        event::drain()
    });
    let ours: Vec<&Event> = events
        .iter()
        .filter(|e| e.name.starts_with("test.trace."))
        .collect();
    assert_eq!(
        ours.len(),
        THREADS as usize * REPS * 6, // 2 spans x begin+end, 2 points
        "every thread's records flushed"
    );

    // Full structural validation over everything captured under the lock:
    // balanced pairs, monotonic per-thread timestamps...
    event::validate(&events).expect("concurrent stream is structurally sound");

    // ...and every parent resolves to a span seen in the stream.
    let span_ids: std::collections::BTreeSet<u64> = events
        .iter()
        .filter(|e| e.kind != EventKind::Point)
        .map(|e| e.span_id)
        .collect();
    for e in &events {
        assert!(
            e.parent_id == event::NO_SPAN || span_ids.contains(&e.parent_id),
            "{} (span {}) has unresolved parent {}",
            e.name,
            e.span_id,
            e.parent_id
        );
    }

    // drain() orders by (thread, ts_us, span_id): re-check monotonicity
    // independently of validate().
    let mut last: HashMap<u32, u64> = HashMap::new();
    for e in &events {
        let prev = last.insert(e.thread, e.ts_us).unwrap_or(0);
        assert!(e.ts_us >= prev, "thread {} time regressed", e.thread);
    }

    // Points parent to their thread's innermost open span, so every tick
    // hangs off an inner span begun by the same thread.
    let begun_by: HashMap<u64, u32> = events
        .iter()
        .filter(|e| e.kind == EventKind::SpanBegin)
        .map(|e| (e.span_id, e.thread))
        .collect();
    for tick in ours.iter().filter(|e| e.name == "test.trace.tick") {
        assert_eq!(begun_by.get(&tick.parent_id), Some(&tick.thread));
    }
}

/// The Chrome trace row schema: string `name`/`cat`/`ph`, integer `ts`,
/// `pid` 1, u32 `tid`, an optional string `s`, and optional `args`
/// mapping names to numbers or strings.
fn assert_chrome_row(row: &json::Value) {
    for key in ["name", "cat", "ph"] {
        assert!(row[key].as_str().is_some(), "{key} not a string: {row:?}");
    }
    assert!(row["ts"].as_u64().is_some(), "ts not an integer: {row:?}");
    assert_eq!(row["pid"].as_u64(), Some(1), "pid: {row:?}");
    assert!(row["tid"].to_u32().is_ok(), "tid not a u32: {row:?}");
    if let Some(s) = row.get("s") {
        assert!(s.as_str().is_some(), "s not a string: {row:?}");
    }
    if let Some(args) = row.get("args") {
        let args = args.to_object().expect("args is an object");
        assert!(
            args.iter().all(|(_, v)| matches!(
                v,
                json::Value::U64(_) | json::Value::I64(_) | json::Value::F64(_) | json::Value::Str(_)
            )),
            "args values must be numbers or strings: {row:?}"
        );
    }
}

#[test]
fn concurrent_chrome_export_is_valid_json() {
    let events = with_capture(|| {
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                scope.spawn(move || {
                    let _s = obs::span("test.chrome.worker");
                    event::point_with("test.chrome.mark", [("worker", t.into())]);
                });
            }
        });
        event::drain()
    });
    let json = event::chrome_trace_json(&events).expect("serializes");
    assert!(json.starts_with("{\"traceEvents\":["));
    assert!(json.ends_with("\"displayTimeUnit\":\"ms\"}"));
    let doc = json::parse(&json).expect("valid JSON");
    assert_eq!(doc["displayTimeUnit"].as_str(), Some("ms"));
    let rows = doc["traceEvents"].as_array().expect("traceEvents array");
    rows.iter().for_each(assert_chrome_row);
    let count = |ph: &str| {
        rows.iter()
            .filter(|r| r["name"].as_str() == Some("test.chrome.worker"))
            .filter(|r| r["ph"].as_str() == Some(ph))
            .count()
    };
    assert_eq!(count("B"), 4);
    assert_eq!(count("E"), 4);
    let marks: Vec<_> = rows.iter().filter(|r| r["ph"].as_str() == Some("i")).collect();
    assert!(marks.len() >= 4, "every worker's mark exported");
    assert!(marks.iter().all(|r| r["s"].as_str() == Some("t")));
    assert!(rows
        .iter()
        .filter(|r| r["name"].as_str() == Some("test.chrome.mark"))
        .all(|r| r["args"]["worker"].as_u64().is_some_and(|w| w < 4)));
}

/// The acceptance contract: enabling every observability feature — event
/// capture, the progress sampler, the ledger-feeding layout driver —
/// must leave the shot output byte-for-byte identical.
#[test]
fn instrumentation_is_bit_neutral_on_clip_suite() {
    let cfg = FractureConfig::default();
    let fracturer = maskfrac::fracture::ModelBasedFracturer::new(cfg.clone());
    let clips: Vec<_> = maskfrac::shapes::ilt_suite().into_iter().take(3).collect();

    // Reference pass: no instrumentation. Hold the gate across both
    // passes so no parallel test flips capture mid-flight.
    let _gate = capture_gate();
    obs::set_capture(false);
    let plain: Vec<_> = clips
        .iter()
        .map(|c| fracturer.fracture(&c.polygon).shots)
        .collect();

    let instrumented: Vec<_> = with_capture_locked(|| {
        let sampler = obs::ProgressSampler::start(
            std::time::Duration::from_millis(10),
            Some(clips.len() as u64),
        );
        let shots = clips
            .iter()
            .map(|c| fracturer.fracture(&c.polygon).shots)
            .collect();
        sampler.stop();
        let events = event::drain();
        event::validate(&events).expect("captured stream is sound");
        shots
    });

    for ((c, a), b) in clips.iter().zip(&plain).zip(&instrumented) {
        assert_eq!(a, b, "{}: instrumentation changed the shot list", c.id);
    }
}

/// Same contract through the layout driver, where the per-shape ledger
/// fields (iterations, residual split, cache label, deadline flag) are
/// collected: the records must mirror the run without altering it.
#[test]
fn layout_ledger_is_bit_neutral_and_consistent() {
    use maskfrac::geom::{Polygon, Rect};
    use maskfrac::mdp::{fracture_layout_opts, Layout, LayoutOptions, Placement};

    let build = || {
        let mut layout = Layout::new("neutrality");
        for (i, side) in [30i64, 44, 58].iter().enumerate() {
            let name = format!("sq{side}");
            layout.add_shape(&name, Polygon::from_rect(Rect::new(0, 0, *side, *side).unwrap()));
            layout.place(&name, Placement::at(i as i64 * 200, 0));
        }
        layout
    };
    let cfg = FractureConfig::default();
    let options = LayoutOptions {
        threads: 2,
        ..LayoutOptions::default()
    };

    let _gate = capture_gate();
    obs::set_capture(false);
    let plain = fracture_layout_opts(&build(), &cfg, &options);
    let traced = with_capture_locked(|| fracture_layout_opts(&build(), &cfg, &options));

    assert_eq!(plain.per_shape.len(), traced.per_shape.len());
    for (a, b) in plain.per_shape.iter().zip(&traced.per_shape) {
        assert_eq!(a.shape, b.shape);
        assert_eq!(a.shots_per_instance, b.shots_per_instance, "{}", a.shape);
        assert_eq!(a.fail_pixels, b.fail_pixels, "{}", a.shape);
        assert_eq!(a.iterations, b.iterations, "{}", a.shape);
        assert_eq!(a.on_fail_pixels, b.on_fail_pixels, "{}", a.shape);
        assert_eq!(a.off_fail_pixels, b.off_fail_pixels, "{}", a.shape);
    }
    for s in &traced.per_shape {
        let rec = s.ledger_record();
        assert_eq!(rec.fail_pixels, rec.on_fail_pixels + rec.off_fail_pixels);
        assert!(
            maskfrac::obs::ledger::KNOWN_CACHE_LABELS.contains(&rec.cache.as_str()),
            "unknown cache label {:?}",
            rec.cache
        );
        assert!(!rec.deadline_hit, "no deadline configured");
    }
}
