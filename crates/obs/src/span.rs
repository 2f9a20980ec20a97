//! RAII wall-clock spans around pipeline stages.
//!
//! [`span`] returns a guard that, on drop, records the elapsed time into
//! the global [`Registry`](crate::Registry) under the span's name — that
//! is where the per-stage rows of a [`RunReport`](crate::RunReport) come
//! from. When tracing is switched on ([`set_trace`], the `--trace` CLI
//! flag) each span additionally prints an indented enter/exit line to
//! stderr, producing a call-tree of the run:
//!
//! ```text
//! [trace t00] > fracture.shape
//! [trace t00]   > fracture.approx
//! [trace t00]     > fracture.approx.simplify
//! [trace t00]     < fracture.approx.simplify 0.000041s
//! [trace t00]   < fracture.approx 0.002310s
//! [trace t00] < fracture.shape 0.031022s
//! ```
//!
//! Each line is prefixed with the emitting thread's dense id
//! (`crate::event::thread_id`), so the interleaved output of a
//! multi-threaded layout run separates into per-worker trees (`grep
//! 't03'` recovers worker 3's tree). The indent depth is also
//! thread-local, so every worker prints its own coherent nesting.
//!
//! When [event capture](crate::event) is enabled, every span additionally
//! emits a `span_begin`/`span_end` [`Event`](crate::event::Event) pair
//! carrying its id, parent id and duration — the raw material of the
//! Chrome-trace export (`--trace-out`).
//!
//! The same event pair is offered to the live bus ([`crate::bus`])
//! whenever a subscriber is attached, even with file capture off.
//!
//! Spans are cheap when tracing, capture, and bus subscribers are all
//! off: one `Instant::now`, three relaxed atomic loads, plus one
//! histogram update at drop.

use crate::event;
use crate::metrics::registry;
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

static TRACE: AtomicBool = AtomicBool::new(false);

thread_local! {
    static DEPTH: Cell<usize> = const { Cell::new(0) };
}

/// Globally enables or disables stderr trace output for all spans.
pub fn set_trace(enabled: bool) {
    TRACE.store(enabled, Ordering::Relaxed);
}

/// Whether stderr trace output is currently enabled.
pub(crate) fn trace_enabled() -> bool {
    TRACE.load(Ordering::Relaxed)
}

/// Opens a span named `name`; the returned guard records its wall-clock
/// duration into the global registry when dropped.
///
/// Bind it to a named variable (`let _stage = span(..)`), not `_`, which
/// would drop immediately and time nothing.
#[must_use = "binding to `_` drops the guard immediately and times nothing"]
pub fn span(name: &'static str) -> SpanGuard {
    if trace_enabled() {
        let depth = DEPTH.with(|d| {
            let depth = d.get();
            d.set(depth + 1);
            depth
        });
        eprintln!(
            "[trace t{:02}] {:indent$}> {name}",
            event::thread_id(),
            "",
            indent = depth * 2
        );
    }
    let event_span = event::begin_span(name);
    SpanGuard {
        name,
        started: Instant::now(),
        event_span,
    }
}

/// Guard returned by [`span`]; records elapsed wall-clock time on drop.
#[derive(Debug)]
pub struct SpanGuard {
    name: &'static str,
    started: Instant,
    /// Structured-event routing token, when capture or a live bus
    /// subscriber was on at creation.
    event_span: Option<event::SpanToken>,
}

impl SpanGuard {
    /// The span's name.
    #[cfg(test)]
    pub(crate) fn name(&self) -> &'static str {
        self.name
    }

    /// Elapsed seconds since the span opened (the span keeps running).
    #[cfg(test)]
    pub(crate) fn elapsed_s(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let elapsed = self.started.elapsed();
        registry().record_span(self.name, elapsed);
        if let Some(token) = self.event_span {
            event::end_span(self.name, token, elapsed.as_micros() as u64);
        }
        if trace_enabled() {
            let depth = DEPTH.with(|d| {
                let depth = d.get().saturating_sub(1);
                d.set(depth);
                depth
            });
            eprintln!(
                "[trace t{:02}] {:indent$}< {} {:.6}s",
                event::thread_id(),
                "",
                self.name,
                elapsed.as_secs_f64(),
                indent = depth * 2
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_records_into_global_registry() {
        {
            let guard = span("t.span.unit");
            assert_eq!(guard.name(), "t.span.unit");
            assert!(guard.elapsed_s() >= 0.0);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let snap = registry().snapshot();
        let s = snap.stages["t.span.unit"];
        assert!(s.count >= 1);
        assert!(s.total_s > 0.0);
        assert!(s.min_s <= s.max_s);
    }

    #[test]
    fn nested_spans_each_record() {
        {
            let _outer = span("t.span.outer");
            let _inner = span("t.span.inner");
        }
        let snap = registry().snapshot();
        assert!(snap.stages["t.span.outer"].count >= 1);
        assert!(snap.stages["t.span.inner"].count >= 1);
    }

    #[test]
    fn trace_toggle_round_trips() {
        // Other tests run in parallel and read the flag, so restore it.
        let before = trace_enabled();
        set_trace(true);
        assert!(trace_enabled());
        set_trace(false);
        assert!(!trace_enabled());
        set_trace(before);
    }
}
