//! In-process observability for the fracturing pipeline.
//!
//! The paper's whole claim is quantitative — shot count and runtime versus
//! conventional fracturing — so every binary in this workspace needs to see
//! *where* shots and milliseconds go inside a run. This crate is that
//! layer, deliberately dependency-free (no `tracing` / `metrics` crates;
//! the container builds offline) and cheap enough to leave always-on:
//!
//! * [`metrics`] — a process-global registry of atomic [`Counter`]s and
//!   locked [`Histogram`]s. Worker threads increment the same cells, so a
//!   multi-threaded [`fracture_layout_opts`] run aggregates for free.
//! * [`mod@span`] — RAII wall-clock spans around pipeline stages. Every span
//!   records `{count, total, min, max}` per name into the registry;
//!   with [`set_trace`] enabled it also prints an indented enter/exit
//!   tree to stderr (the `--trace` CLI flag).
//! * [`report`] — the versioned, machine-readable [`RunReport`] JSON
//!   schema (`--metrics-out`), documented field-by-field in
//!   `docs/observability.md` and consumed by the bench harness as
//!   `results/BENCH_*.json`. Schema v2 embeds the per-shape ledger,
//!   its worst-K outlier table and anomaly flags ([`ledger`]), and
//!   p50/p90/p99 quantiles on every stage row.
//! * [`event`] — the lock-light structured event stream behind
//!   `--trace-out`: per-thread buffered `span_begin`/`span_end`/point
//!   records, flushed at run end to JSON Lines and exportable as a
//!   Chrome trace (Perfetto / `chrome://tracing`).
//! * [`progress`] — the `--progress-ms` live progress sampler: a thread
//!   that periodically reads the registry's atomic counters and prints
//!   one shapes/shots/cache-hit line to stderr without pausing workers.
//! * [`bus`] — the live broadcast event bus: bounded per-subscriber
//!   rings fed by the same span/point/ledger emission sites, with
//!   drop-not-block delivery (`obs.bus.published` / `obs.bus.dropped`).
//! * [`json`] — the in-tree JSON value type, parser and writers behind
//!   every JSON artifact (reports, event streams, traces).
//! * [`expo`] — the Prometheus text exposition of the whole registry
//!   (sanitized names, `# TYPE` lines, cumulative buckets) as a pure
//!   function.
//! * [`serve`] — the dependency-free `--telemetry-listen` HTTP server:
//!   `GET /metrics` (Prometheus text), `GET /healthz` (JSON liveness),
//!   `GET /events` (live NDJSON stream off the bus).
//! * [`flags`] — the one front door for the flags above: every binary
//!   reads, applies and finishes them through [`ObsFlags`], and reads
//!   its own `--flag value` pairs with the same reader.
//!
//! [`fracture_layout_opts`]: https://docs.rs/maskfrac-mdp
//!
//! # Example
//!
//! ```
//! use maskfrac_obs as obs;
//!
//! {
//!     let _stage = obs::span("example.stage");
//!     obs::counter("example.widgets").add(3);
//!     obs::histogram("example.latency_s").record(0.25);
//! }
//! let snap = obs::registry().snapshot();
//! assert_eq!(snap.counters["example.widgets"], 3);
//! assert_eq!(snap.stages["example.stage"].count, 1);
//! ```

#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod bus;
pub mod event;
pub mod expo;
pub mod flags;
pub mod json;
pub mod ledger;
pub mod metrics;
pub mod progress;
pub mod report;
pub mod serve;
pub mod span;

pub use event::{capture_enabled, point_with, set_capture, Event, EventKind, FieldValue};
pub use expo::{prometheus_text, sanitize_metric_name, ExpositionSnapshot, HistogramSeries};
pub use flags::ObsFlags;
pub use ledger::{Anomalies, OutlierRow};
pub use metrics::{
    counter, histogram, registry, Counter, Histogram, HistogramSummary, MetricsSnapshot, Registry,
    StageStats,
};
pub use progress::{ProgressSampler, ProgressSnapshot};
pub use report::{RunReport, ShapeRecord, SCHEMA_NAME, SCHEMA_VERSION};
pub use serve::TelemetryServer;
pub use span::{set_trace, span, SpanGuard};
