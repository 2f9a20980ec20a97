//! Dependency-free telemetry server (`--telemetry-listen ADDR`).
//!
//! A minimal HTTP/1.1 endpoint on [`std::net::TcpListener`] — no async
//! runtime, no HTTP crate — serving three read-only views of a running
//! process:
//!
//! | Endpoint   | Content                                             |
//! |------------|-----------------------------------------------------|
//! | `/metrics` | Prometheus text exposition of the whole registry    |
//! | `/healthz` | JSON liveness: uptime, shapes done, anomaly flags   |
//! | `/events`  | Live NDJSON stream of bus events until client hangup|
//!
//! Every connection is `Connection: close`; `/metrics` and `/healthz`
//! answer one request and disconnect, `/events` subscribes to the
//! broadcast bus ([`crate::bus`]) and streams one JSON event object
//! per line (the same encoding as the `--events-out` artifact, see
//! `crate::event::event_json_line`) until the client hangs up or the
//! server shuts down. A stalled `/events` client only ever loses its
//! own events (bounded ring, drop-not-block) — it cannot slow a
//! worker.
//!
//! The accept loop and each connection run on plain named threads;
//! dropping the [`TelemetryServer`] guard stops the listener and joins
//! them, so a CLI run exits cleanly with no leaked sockets.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::event::event_json_line;
use crate::json::Value;
use crate::expo::{prometheus_text, ExpositionSnapshot};
use crate::metrics::counter;
use crate::{bus, report};

/// Ring capacity for each `/events` subscriber: large enough to absorb
/// scrape-interval bursts from a full-speed layout run.
const EVENTS_RING_CAPACITY: usize = 8192;

/// How long `/events` waits for the next bus event before emitting a
/// keep-alive blank line (blank lines are skipped by NDJSON readers
/// and let the server notice a hung-up client between events).
const EVENTS_POLL: Duration = Duration::from_millis(200);

/// Poll interval of the non-blocking accept loop.
const ACCEPT_POLL: Duration = Duration::from_millis(20);

/// A running telemetry endpoint; dropping it shuts the listener down
/// and joins every connection thread.
#[derive(Debug)]
pub struct TelemetryServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl TelemetryServer {
    /// Binds `addr` (e.g. `127.0.0.1:9184`, or port `0` for an
    /// ephemeral port — read it back via [`local_addr`]) and starts
    /// serving on a background thread.
    ///
    /// [`local_addr`]: TelemetryServer::local_addr
    ///
    /// # Errors
    ///
    /// Propagates bind/configuration failures (address in use,
    /// permission denied, thread spawn failure).
    pub fn bind(addr: &str) -> std::io::Result<TelemetryServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let started = Instant::now();
        let flag = Arc::clone(&shutdown);
        let accept = std::thread::Builder::new()
            .name("obs-telemetry".to_owned())
            .spawn(move || accept_loop(&listener, &flag, started))?;
        Ok(TelemetryServer {
            addr: local,
            shutdown,
            accept: Some(accept),
        })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for TelemetryServer {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
    }
}

fn accept_loop(listener: &TcpListener, shutdown: &Arc<AtomicBool>, started: Instant) {
    let mut connections: Vec<JoinHandle<()>> = Vec::new();
    while !shutdown.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                connections.retain(|handle| !handle.is_finished());
                let flag = Arc::clone(shutdown);
                let spawned = std::thread::Builder::new()
                    .name("obs-telemetry-conn".to_owned())
                    .spawn(move || handle_connection(stream, &flag, started));
                if let Ok(handle) = spawned {
                    connections.push(handle);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
    for handle in connections {
        let _ = handle.join();
    }
}

/// Reads the request line and drains the headers, returning the method
/// and path. `None` on malformed or oversized requests (the connection
/// is just closed).
fn read_request(stream: &mut TcpStream) -> Option<(String, String)> {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).ok()?;
    let mut parts = line.split_whitespace();
    let method = parts.next()?.to_owned();
    let path = parts.next()?.to_owned();
    // Drain headers so the client isn't mid-send when we respond.
    let mut total = line.len();
    loop {
        let mut header = String::new();
        match reader.read_line(&mut header) {
            Ok(0) => break,
            Ok(n) => {
                total += n;
                if header == "\r\n" || header == "\n" {
                    break;
                }
                if total > 16 * 1024 {
                    return None;
                }
            }
            Err(_) => return None,
        }
    }
    Some((method, path))
}

fn write_response(stream: &mut TcpStream, status: u16, content_type: &str, body: &str) {
    let reason = match status {
        200 => "OK",
        404 => "Not Found",
        405 => "Method Not Allowed",
        _ => "Error",
    };
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let _ = stream
        .write_all(head.as_bytes())
        .and_then(|()| stream.write_all(body.as_bytes()))
        .and_then(|()| stream.flush());
}

fn handle_connection(mut stream: TcpStream, shutdown: &AtomicBool, started: Instant) {
    let Some((method, path)) = read_request(&mut stream) else {
        return;
    };
    if method != "GET" {
        write_response(&mut stream, 405, "text/plain; charset=utf-8", "GET only\n");
        return;
    }
    match path.as_str() {
        "/metrics" => {
            let body = prometheus_text(&ExpositionSnapshot::capture());
            write_response(
                &mut stream,
                200,
                "text/plain; version=0.0.4; charset=utf-8",
                &body,
            );
        }
        "/healthz" => {
            let body = healthz_json(started);
            write_response(&mut stream, 200, "application/json", &body);
        }
        "/events" => stream_events(stream, shutdown),
        _ => write_response(
            &mut stream,
            404,
            "text/plain; charset=utf-8",
            "not found; try /metrics, /healthz or /events\n",
        ),
    }
}

/// Liveness JSON. The anomaly flags mirror the run-report ledger's
/// vocabulary ([`crate::ledger`]): deadline hits, fallback-ladder
/// engagements, degraded statuses, and outright failures observed so
/// far.
fn healthz_json(started: Instant) -> String {
    let deadline_hits = counter("fracture.refine.deadline_hits").get();
    let fallbacks = counter("fracture.status.fallback").get();
    let degraded = counter("fracture.status.degraded").get();
    let failed = counter("fracture.status.failed").get();
    let clean = deadline_hits == 0 && fallbacks == 0 && degraded == 0 && failed == 0;
    // Millisecond resolution, as the endpoint has always reported it.
    let uptime_s = (started.elapsed().as_secs_f64() * 1e3).round() / 1e3;
    Value::object([
        ("status", Value::from("ok")),
        ("schema", report::SCHEMA_NAME.into()),
        ("uptime_s", uptime_s.into()),
        ("shapes_done", counter("mdp.shapes_fractured").get().into()),
        ("shots_emitted", counter("fracture.shots_emitted").get().into()),
        (
            "anomalies",
            Value::object([
                ("clean", Value::from(clean)),
                ("deadline_hits", deadline_hits.into()),
                ("fallbacks", fallbacks.into()),
                ("degraded", degraded.into()),
                ("failed", failed.into()),
            ]),
        ),
        (
            "bus",
            Value::object([
                ("published", Value::from(counter("obs.bus.published").get())),
                ("dropped", counter("obs.bus.dropped").get().into()),
                ("subscribers_live", bus::live_subscribers().into()),
            ]),
        ),
    ])
    .compact()
}

/// Streams bus events as NDJSON until the client hangs up or the
/// server shuts down. Quiet periods emit keep-alive blank lines so a
/// hung-up client is detected within [`EVENTS_POLL`]-ish latency even
/// when no events flow.
fn stream_events(mut stream: TcpStream, shutdown: &AtomicBool) {
    let subscriber = bus::subscribe_with_capacity(EVENTS_RING_CAPACITY);
    let head = "HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\nCache-Control: no-store\r\nConnection: close\r\n\r\n";
    let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
    if stream
        .write_all(head.as_bytes())
        .and_then(|()| stream.flush())
        .is_err()
    {
        return;
    }
    let mut idle_polls = 0u32;
    while !shutdown.load(Ordering::Relaxed) {
        match subscriber.recv_timeout(EVENTS_POLL) {
            Some(event) => {
                idle_polls = 0;
                let mut chunk = event_json_line(&event);
                chunk.push('\n');
                // Piggy-back whatever else queued up behind it.
                for queued in subscriber.try_drain() {
                    chunk.push_str(&event_json_line(&queued));
                    chunk.push('\n');
                }
                if stream
                    .write_all(chunk.as_bytes())
                    .and_then(|()| stream.flush())
                    .is_err()
                {
                    return;
                }
            }
            None => {
                idle_polls += 1;
                // ~1s of quiet: probe the connection with a blank line.
                if idle_polls >= 5 {
                    idle_polls = 0;
                    if stream
                        .write_all(b"\n")
                        .and_then(|()| stream.flush())
                        .is_err()
                    {
                        return;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    fn http_get(addr: SocketAddr, path: &str) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        write!(stream, "GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n")
            .expect("request");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("response");
        response
    }

    #[test]
    fn serves_metrics_healthz_and_404() {
        counter("t.serve.pings").add(7);
        let server = TelemetryServer::bind("127.0.0.1:0").expect("bind");
        let addr = server.local_addr();

        let metrics = http_get(addr, "/metrics");
        assert!(metrics.starts_with("HTTP/1.1 200 OK\r\n"), "{metrics}");
        assert!(metrics.contains("# TYPE t_serve_pings counter"));

        let health = http_get(addr, "/healthz");
        assert!(health.starts_with("HTTP/1.1 200 OK\r\n"), "{health}");
        assert!(health.contains("\"status\":\"ok\""));
        assert!(health.contains("\"uptime_s\""));
        assert!(health.contains("\"anomalies\""));

        let missing = http_get(addr, "/nope");
        assert!(missing.starts_with("HTTP/1.1 404 "), "{missing}");
    }

    #[test]
    fn events_endpoint_streams_published_points() {
        let server = TelemetryServer::bind("127.0.0.1:0").expect("bind");
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_millis(200)))
            .expect("timeout");
        write!(stream, "GET /events HTTP/1.1\r\nHost: test\r\n\r\n").expect("request");

        // Emit until the subscriber (created when the server handles the
        // request) sees a point and it arrives on the wire.
        let mut collected = String::new();
        let mut buf = [0u8; 4096];
        for _ in 0..100 {
            crate::event::point_with("t.serve.streamed", []);
            match stream.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => collected.push_str(&String::from_utf8_lossy(&buf[..n])),
                Err(_) => {} // read timeout: retry with a fresh point
            }
            if collected.contains("t.serve.streamed") {
                break;
            }
        }
        assert!(
            collected.contains("\"name\":\"t.serve.streamed\""),
            "no streamed event in: {collected}"
        );
        drop(server); // joins the connection thread promptly
    }
}
