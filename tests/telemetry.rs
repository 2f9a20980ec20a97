//! Integration tests for the live telemetry plane: the Prometheus
//! exposition formatter (checked against a mini text-format parser)
//! and the `/metrics`, `/healthz`, `/events` endpoints of
//! [`maskfrac::obs::TelemetryServer`] end to end over real sockets.
//!
//! Metric counters are process-global and tests in this binary run in
//! parallel, so value assertions are lower bounds on counters these
//! tests own, never exact equalities on shared pipeline counters.

use maskfrac::fracture::FractureConfig;
use maskfrac::geom::{Polygon, Rect};
use maskfrac::mdp::{fracture_layout_opts, Layout, LayoutOptions, Placement};
use maskfrac::obs::{
    self, prometheus_text, sanitize_metric_name, ExpositionSnapshot, TelemetryServer,
};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

// ---------------------------------------------------------------------
// Formatter: sanitization, buckets, ordering.
// ---------------------------------------------------------------------

#[test]
fn metric_names_sanitize_into_the_prometheus_charset() {
    for (dotted, want) in [
        ("mdp.cache.hits", "mdp_cache_hits"),
        ("obs.bus.published", "obs_bus_published"),
        ("fracture.refine.deadline_hits", "fracture_refine_deadline_hits"),
        ("7seg.display", "_7seg_display"),
        ("weird name/with:colon", "weird_name_with:colon"),
    ] {
        assert_eq!(sanitize_metric_name(dotted), want);
    }
    // Every output character must be legal for its position.
    for name in ["a.b", "9.lives", "", "Ωmega.cost"] {
        let s = sanitize_metric_name(name);
        let mut chars = s.chars();
        let first = chars.next().expect("sanitized names are never empty");
        assert!(first.is_ascii_alphabetic() || first == '_' || first == ':');
        assert!(chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'));
    }
}

#[test]
fn histogram_buckets_are_cumulative_and_capped_by_inf() {
    obs::histogram("t.telemetry.buckets").record(0.004);
    obs::histogram("t.telemetry.buckets").record(0.04);
    obs::histogram("t.telemetry.buckets").record(40.0);
    let snap = ExpositionSnapshot::capture();
    let series = snap
        .histograms
        .get("t.telemetry.buckets")
        .expect("recorded histogram is captured");
    let buckets = obs::expo::cumulative_buckets(series, obs::expo::DEFAULT_BUCKET_BOUNDS);
    let mut prev = 0u64;
    for &(_, count) in &buckets {
        assert!(count >= prev, "cumulative bucket counts may never decrease");
        prev = count;
    }
    let &(last_bound, last_count) = buckets.last().expect("at least the +Inf bucket");
    assert!(last_bound.is_infinite(), "the series must end at +Inf");
    assert_eq!(
        last_count, series.summary.count,
        "+Inf bucket carries the exact observation count"
    );
}

#[test]
fn exposition_orders_families_deterministically() {
    obs::counter("t.telemetry.order.a").incr();
    obs::counter("t.telemetry.order.b").incr();
    let snap = ExpositionSnapshot::capture();
    let first = prometheus_text(&snap);
    let second = prometheus_text(&snap);
    assert_eq!(first, second, "same snapshot must render identically");
    let a = first.find("t_telemetry_order_a").expect("counter a rendered");
    let b = first.find("t_telemetry_order_b").expect("counter b rendered");
    assert!(a < b, "lexicographic name order within the counter section");
}

// ---------------------------------------------------------------------
// Round-trip: parse the rendered document back with a mini parser.
// ---------------------------------------------------------------------

/// The samples of one text-format document: `name{labels}` → value.
fn parse_prometheus_text(text: &str) -> BTreeMap<String, f64> {
    let mut samples = BTreeMap::new();
    for line in text.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (key, value) = line.rsplit_once(' ').expect("sample lines are `key value`");
        let value: f64 = value.parse().expect("sample values parse as f64");
        assert!(
            samples.insert(key.to_owned(), value).is_none(),
            "duplicate sample {key}"
        );
    }
    samples
}

#[test]
fn rendered_metrics_round_trip_through_a_parser() {
    obs::counter("t.telemetry.roundtrip").add(11);
    obs::histogram("t.telemetry.roundtrip_hist").record(0.5);
    let snap = ExpositionSnapshot::capture();
    let text = prometheus_text(&snap);
    let samples = parse_prometheus_text(&text);

    // Every counter in the snapshot surfaces under its sanitized name
    // with its exact value.
    for (name, value) in &snap.counters {
        let sanitized = sanitize_metric_name(name);
        if let Some(&parsed) = samples.get(&sanitized) {
            assert_eq!(parsed as u64, *value, "counter {name} value survives");
        }
        // (collisions render first-wins; absent means a collision)
    }
    assert!(samples.get("t_telemetry_roundtrip").copied().unwrap_or(0.0) >= 11.0);

    // Histogram invariants hold for every rendered family: buckets are
    // cumulative and the +Inf bucket equals _count.
    for key in samples.keys() {
        let Some(family) = key.strip_suffix("_bucket{le=\"+Inf\"}") else {
            continue;
        };
        let inf = samples[key];
        let count = samples
            .get(&format!("{family}_count"))
            .expect("histogram family has _count");
        assert!(
            (inf - count).abs() < 0.5,
            "{family}: +Inf bucket {inf} != count {count}"
        );
        assert!(
            samples.contains_key(&format!("{family}_sum")),
            "{family}: missing _sum"
        );
        let mut prev = 0.0f64;
        for (k, &v) in samples.range(format!("{family}_bucket")..) {
            if !k.starts_with(&format!("{family}_bucket{{")) {
                break;
            }
            if k.ends_with("+Inf\"}") {
                continue; // BTreeMap order puts +Inf first; checked above
            }
            assert!(v >= prev || v <= inf, "{family}: bucket {k} exceeds +Inf");
            prev = prev.max(v);
        }
    }
}

// ---------------------------------------------------------------------
// Endpoints over real sockets.
// ---------------------------------------------------------------------

fn http_get(addr: std::net::SocketAddr, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to telemetry server");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set read timeout");
    write!(stream, "GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n")
        .expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let (head, body) = response
        .split_once("\r\n\r\n")
        .expect("response has a header/body split");
    (head.to_owned(), body.to_owned())
}

#[test]
fn metrics_endpoint_serves_parseable_exposition() {
    obs::counter("t.telemetry.scraped").add(5);
    let server = TelemetryServer::bind("127.0.0.1:0").expect("bind ephemeral loopback port");
    let (head, body) = http_get(server.local_addr(), "/metrics");
    assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
    assert!(head.contains("text/plain; version=0.0.4"), "{head}");
    let samples = parse_prometheus_text(&body);
    assert!(samples.get("t_telemetry_scraped").copied().unwrap_or(0.0) >= 5.0);
    assert!(body.contains("# TYPE t_telemetry_scraped counter"));
}

#[test]
fn healthz_reports_liveness_fields() {
    let server = TelemetryServer::bind("127.0.0.1:0").expect("bind ephemeral loopback port");
    let (head, body) = http_get(server.local_addr(), "/healthz");
    assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
    assert!(head.contains("application/json"), "{head}");
    for field in [
        "\"status\":\"ok\"",
        "\"uptime_s\"",
        "\"shapes_done\"",
        "\"shots_emitted\"",
        "\"anomalies\"",
        "\"bus\"",
        "\"published\"",
        "\"dropped\"",
    ] {
        assert!(body.contains(field), "healthz missing {field}: {body}");
    }
}

#[test]
fn unknown_paths_get_404_and_non_get_405() {
    let server = TelemetryServer::bind("127.0.0.1:0").expect("bind ephemeral loopback port");
    let (head, _) = http_get(server.local_addr(), "/favicon.ico");
    assert!(head.starts_with("HTTP/1.1 404 "), "{head}");

    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set read timeout");
    write!(stream, "POST /metrics HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n")
        .expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    assert!(response.starts_with("HTTP/1.1 405 "), "{response}");
}

#[test]
fn events_endpoint_streams_ledger_events_from_a_live_run() {
    let server = TelemetryServer::bind("127.0.0.1:0").expect("bind ephemeral loopback port");
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect to /events");
    stream
        .set_read_timeout(Some(Duration::from_millis(250)))
        .expect("set read timeout");
    write!(stream, "GET /events HTTP/1.1\r\nHost: test\r\n\r\n").expect("send request");

    let mut layout = Layout::new("telemetry-events");
    for (i, side) in [31i64, 37, 41, 43].iter().enumerate() {
        let name = format!("sq{side}");
        layout.add_shape(&name, Polygon::from_rect(Rect::new(0, 0, *side, *side).expect("rect")));
        layout.place(&name, Placement::at(i as i64 * 200, 0));
    }

    // Fracture until the subscriber (registered when the server parses
    // the request) catches a run; the first run may start before the
    // subscription lands, so allow a couple of attempts.
    let mut collected = String::new();
    let mut buf = [0u8; 16384];
    let options = LayoutOptions {
        threads: 2,
        ..LayoutOptions::default()
    };
    'attempts: for _ in 0..10 {
        let report = fracture_layout_opts(&layout, &FractureConfig::default(), &options);
        assert_eq!(report.per_shape.len(), 4);
        for _ in 0..20 {
            match stream.read(&mut buf) {
                Ok(0) => break 'attempts,
                Ok(n) => collected.push_str(&String::from_utf8_lossy(&buf[..n])),
                Err(_) => {} // read timeout; emit another run if needed
            }
            if collected.contains("mdp.shape_done") {
                break 'attempts;
            }
        }
    }
    assert!(
        collected.contains("\"name\":\"mdp.shape_done\""),
        "no ledger event streamed over /events; got: {collected}"
    );
    // NDJSON framing: past the HTTP headers, every non-blank line is
    // one JSON object.
    let body = collected
        .split_once("\r\n\r\n")
        .map(|(_, body)| body)
        .unwrap_or(&collected);
    for line in body.lines().filter(|l| !l.is_empty()) {
        // The trailing line may be cut mid-object by the socket read;
        // only fully-framed lines must look like objects.
        if body.ends_with(line) && !body.ends_with('\n') {
            continue;
        }
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "malformed NDJSON line: {line}"
        );
    }
    drop(server);
}
