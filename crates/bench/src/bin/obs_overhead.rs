//! Instrumentation overhead benchmark: wall clock of
//! `maskfrac_mdp::fracture_layout_opts` with structured event capture
//! off, on, and on with a live telemetry subscriber, on a seeded
//! synthetic layout.
//!
//! Observability must stay near-free when disabled and cheap when
//! enabled, and it must never change the shot output. This harness
//! measures both halves of that contract: it times repeated layout runs
//! in each capture mode, asserts the per-shape reports are identical row
//! by row across modes (bit neutrality), and reports the events captured
//! per run so the per-event cost can be derived. The `telemetry-on`
//! mode additionally binds a [`maskfrac_obs::TelemetryServer`] on
//! loopback and keeps a real `/events` NDJSON client attached for the
//! whole measurement, so the bus publish + wire-serialization path is
//! priced under the same bit-neutrality assertion.
//!
//! Run with `cargo run -p maskfrac-bench --release --bin obs_overhead`
//! (`--full` adds repetitions). Writes `results/obs_overhead_bench.json`
//! (the mode rows) and the machine-readable run report
//! `results/BENCH_obs_overhead.json` (see `docs/observability.md`).

use maskfrac_bench::{run_bench, save_json};
use maskfrac_fracture::FractureConfig;
use maskfrac_geom::{Polygon, Rect};
use maskfrac_mdp::{fracture_layout_opts, Layout, LayoutOptions, Placement};
use maskfrac_obs::json::Value;
use std::process::ExitCode;

const SEED: u64 = 0x6f62_735f_6f76_6572; // "obs_over"
const DISTINCT: usize = 5;
const ALIASES: usize = 3;
const PLACEMENTS: usize = 6;
const THREADS: usize = 2;

/// One capture-mode measurement.
#[derive(Debug)]
struct OverheadRow {
    mode: &'static str,
    capture: bool,
    reps: usize,
    /// Best (minimum) wall clock over the repetitions — the least noisy
    /// estimator on a shared machine.
    best_wall_s: f64,
    mean_wall_s: f64,
    /// Structured events captured per repetition (0 with capture off).
    events_per_rep: usize,
}

impl OverheadRow {
    fn to_json(&self) -> Value {
        Value::object([
            ("mode", Value::from(self.mode)),
            ("capture", self.capture.into()),
            ("reps", self.reps.into()),
            ("best_wall_s", self.best_wall_s.into()),
            ("mean_wall_s", self.mean_wall_s.into()),
            ("events_per_rep", self.events_per_rep.into()),
        ])
    }
}

/// Tiny seeded xorshift64 — the bench crate carries no RNG dependency,
/// and the layout must be bit-identical everywhere the bench runs.
struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    fn new(seed: u64) -> Self {
        XorShift64 { state: seed.max(1) }
    }

    fn next(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x
    }

    fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next() % ((hi - lo + 1) as u64)) as i64
    }
}

/// Builds the synthetic layout: `DISTINCT` rectangle geometries (sides
/// 20–60 nm), each under `ALIASES` names, each name placed `PLACEMENTS`
/// times on a grid.
fn synth_layout() -> Layout {
    let mut rng = XorShift64::new(SEED);
    let mut layout = Layout::new("obs-overhead");
    let mut row = 0i64;
    for g in 0..DISTINCT {
        let w = rng.range(20, 60);
        let h = rng.range(20, 60);
        let rect = Rect::new(0, 0, w, h).expect("positive sides");
        for a in 0..ALIASES {
            let name = format!("g{g}-a{a}");
            layout.add_shape(&name, Polygon::from_rect(rect));
            for p in 0..PLACEMENTS {
                layout.place(&name, Placement::at(p as i64 * 200, row * 200));
            }
            row += 1;
        }
    }
    layout
}

/// The shot-relevant slice of a per-shape report row, for the cross-mode
/// bit-neutrality assertion (wall-clock and cache-attribution fields are
/// run-dependent and excluded).
fn strip(report: &maskfrac_mdp::LayoutFractureReport) -> Vec<(String, usize, usize, usize)> {
    report
        .per_shape
        .iter()
        .map(|s| (s.shape.clone(), s.shots_per_instance, s.instances, s.fail_pixels))
        .collect()
}

/// A live `/events` client for the `telemetry-on` mode: a loopback
/// telemetry server plus a TCP reader draining the NDJSON stream into a
/// byte counter on its own thread, so the measured runs pay the real
/// publish + serialize + write path.
struct EventsClient {
    server: maskfrac_obs::TelemetryServer,
    reader: std::thread::JoinHandle<u64>,
}

impl EventsClient {
    fn start() -> EventsClient {
        use std::io::{Read, Write};
        let server =
            maskfrac_obs::TelemetryServer::bind("127.0.0.1:0").expect("can bind loopback");
        let addr = server.local_addr();
        let mut stream = std::net::TcpStream::connect(addr).expect("can connect to /events");
        write!(stream, "GET /events HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n")
            .expect("can send /events request");
        let reader = std::thread::spawn(move || {
            let mut bytes = 0u64;
            let mut buf = [0u8; 8192];
            loop {
                match stream.read(&mut buf) {
                    Ok(0) | Err(_) => return bytes,
                    Ok(n) => bytes += n as u64,
                }
            }
        });
        // Wait for the server to register the subscription so every rep
        // publishes to a live ring (bounded: the handler registers as
        // soon as it parses the request line).
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while !maskfrac_obs::bus::has_subscribers() {
            assert!(
                std::time::Instant::now() < deadline,
                "/events subscriber did not register within 5s"
            );
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        EventsClient { server, reader }
    }

    /// Shuts the server down and returns the bytes the client streamed.
    fn finish(self) -> u64 {
        drop(self.server); // closes the connection; the reader sees EOF
        self.reader.join().expect("events reader thread panicked")
    }
}

fn main() -> ExitCode {
    run_bench("obs_overhead", &["--full"], |args, _| {
        let full = args.iter().any(|a| a == "--full");
        obs_overhead(if full { 9 } else { 3 });
        Ok(ExitCode::SUCCESS)
    })
}

fn obs_overhead(reps: usize) {
    let layout = synth_layout();
    let cfg = FractureConfig::default();
    let opts = LayoutOptions { threads: THREADS, ..LayoutOptions::default() };
    println!(
        "== Event-capture overhead: {} entries, {} instances, {} threads, {reps} reps/mode ==",
        layout.shape_count(),
        layout.instance_count(),
        THREADS
    );

    // The caller's --trace-out/--events-out export must see only its own
    // run's events, so the measurement loop drains into a local buffer
    // and restores the caller's capture state afterwards.
    let caller_capture = maskfrac_obs::capture_enabled();
    let mut rows: Vec<OverheadRow> = Vec::new();
    let mut reference: Option<Vec<(String, usize, usize, usize)>> = None;

    for (mode, capture) in [
        ("capture-off", false),
        ("capture-on", true),
        ("telemetry-on", true),
    ] {
        maskfrac_obs::set_capture(capture);
        let client = (mode == "telemetry-on").then(EventsClient::start);
        let mut walls = Vec::with_capacity(reps);
        let mut events_per_rep = 0usize;
        for _ in 0..reps {
            maskfrac_obs::event::drain(); // start each rep from an empty stream
            let t0 = std::time::Instant::now();
            let report = fracture_layout_opts(&layout, &cfg, &opts);
            walls.push(t0.elapsed().as_secs_f64());
            events_per_rep = maskfrac_obs::event::drain().len();
            match &reference {
                None => reference = Some(strip(&report)),
                Some(want) => assert_eq!(
                    &strip(&report),
                    want,
                    "{mode} changed the shot output — instrumentation must be bit-neutral"
                ),
            }
        }
        if let Some(client) = client {
            let streamed = client.finish();
            let published = maskfrac_obs::registry()
                .snapshot()
                .counters
                .get("obs.bus.published")
                .copied()
                .unwrap_or(0);
            assert!(
                streamed > 0 && published > 0,
                "telemetry-on streamed nothing ({streamed} bytes, {published} published)"
            );
            println!("telemetry-on streamed {streamed} bytes over /events");
        }
        let best = walls.iter().copied().fold(f64::INFINITY, f64::min);
        let mean = walls.iter().sum::<f64>() / walls.len() as f64;
        println!(
            "{mode:<12}  best {best:>8.3}s  mean {mean:>8.3}s  {events_per_rep:>6} events/rep"
        );
        rows.push(OverheadRow {
            mode,
            capture,
            reps,
            best_wall_s: best,
            mean_wall_s: mean,
            events_per_rep,
        });
    }
    maskfrac_obs::set_capture(caller_capture);

    let off = rows[0].best_wall_s;
    let on = rows[1].best_wall_s;
    let telemetry = rows[2].best_wall_s;
    println!(
        "capture-on / capture-off = {:.3}x ({:+.1}% on best wall clock)",
        on / off.max(1e-12),
        (on / off.max(1e-12) - 1.0) * 100.0
    );
    println!(
        "telemetry-on / capture-on = {:.3}x ({:+.1}% on best wall clock)",
        telemetry / on.max(1e-12),
        (telemetry / on.max(1e-12) - 1.0) * 100.0
    );
    // A live subscriber must stay in the same cost class as plain
    // capture; the bound is loose because this runs on shared CI boxes.
    assert!(
        telemetry <= on * 4.0 + 0.5,
        "telemetry-on best wall clock {telemetry:.3}s blew past the \
         capture-on noise bound ({on:.3}s * 4 + 0.5s)"
    );

    save_json(
        "obs_overhead_bench.json",
        &rows.iter().map(OverheadRow::to_json).collect(),
    );
}
