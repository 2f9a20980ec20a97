//! Lock-light structured trace events.
//!
//! The span tree of [`mod@crate::span`] aggregates *durations*; this module
//! records *individual occurrences*, so a layout run's thread utilization
//! and the dedup cache's block/compute handoffs become visible after the
//! fact. Worker threads append to their own buffers (one short, otherwise
//! uncontended mutex each — contended only at flush), so capture stays
//! cheap at layout scale; with capture disabled the cost is a single
//! relaxed atomic load per span.
//!
//! Every record is an [`Event`]:
//!
//! ```json
//! {"ts_us":1234,"thread":2,"span_id":17,"parent_id":9,
//!  "name":"fracture.shape","kind":"span_end","fields":{"elapsed_us":531}}
//! ```
//!
//! * spans emit `span_begin`/`span_end` pairs (same `span_id`) via the
//!   existing [`span`](crate::span()) guards — no call sites change;
//! * [`point_with`] adds instantaneous records parented to the
//!   innermost open span of the calling thread;
//! * [`drain`] flushes every thread buffer at run end;
//! * `write_jsonl` serializes the native JSON Lines form and
//!   [`chrome_trace_json`] the Chrome trace format (`--trace-out`,
//!   loadable in Perfetto or `chrome://tracing`).
//!
//! Every emitted event is also offered to the live broadcast bus
//! ([`crate::bus`]): a live subscriber (the `--progress-ms` sampler, a
//! `/events` telemetry client) activates emission even when file
//! capture is off, but bus-only events never enter the thread buffers,
//! so the file artifacts and their [`validate`] invariants are
//! unchanged by wire consumers coming and going.
//!
//! Capture is observational only: enabling it never changes pipeline
//! results (asserted by the bit-neutrality tests).

#[cfg(test)]
use crate::json;
use crate::json::Value;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

static CAPTURE: AtomicBool = AtomicBool::new(false);
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD_ID: AtomicU32 = AtomicU32::new(0);

/// `span_id`/`parent_id` value meaning "no span" (top-level).
pub const NO_SPAN: u64 = 0;

/// Microsecond clock shared by every event: elapsed since the first use
/// in the process. `Instant` is monotonic, so per-thread timestamps never
/// run backwards.
fn epoch() -> &'static Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now)
}

fn now_us() -> u64 {
    epoch().elapsed().as_micros() as u64
}

/// Globally enables or disables event capture. Capture off (the default)
/// reduces every hook to one relaxed atomic load; already-buffered events
/// are kept until [`drain`].
pub fn set_capture(enabled: bool) {
    // Pin the epoch before the first event so ts_us = 0 is "capture
    // enabled", not "first event recorded".
    if enabled {
        let _ = epoch();
    }
    CAPTURE.store(enabled, Ordering::Relaxed);
}

/// Whether event capture is currently enabled.
#[inline]
pub fn capture_enabled() -> bool {
    CAPTURE.load(Ordering::Relaxed)
}

/// What an [`Event`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A span opened (`span_id` identifies the pair).
    SpanBegin,
    /// A span closed; `fields.elapsed_us` carries its duration.
    SpanEnd,
    /// An instantaneous point record ([`point_with`]).
    Point,
}

impl EventKind {
    /// The kind's name in the JSON Lines export.
    fn label(self) -> &'static str {
        match self {
            EventKind::SpanBegin => "span_begin",
            EventKind::SpanEnd => "span_end",
            EventKind::Point => "point",
        }
    }
}

/// A structured field value attached to an event.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer payload (counts, ids, microseconds).
    U64(u64),
    /// Floating-point payload.
    F64(f64),
    /// Short string payload (labels, statuses).
    Str(String),
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}

impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_owned())
    }
}

/// One structured trace record.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Microseconds since the process trace epoch; monotonic per thread.
    pub ts_us: u64,
    /// Small dense id of the emitting thread (order of first emission).
    pub thread: u32,
    /// Id of the span this record belongs to ([`NO_SPAN`] for top-level
    /// points). `span_begin`/`span_end` pairs share one id; points get a
    /// fresh id of their own.
    pub span_id: u64,
    /// Id of the enclosing span at emission time, [`NO_SPAN`] at top level.
    pub parent_id: u64,
    /// Dotted event name (span name, or the point's own name).
    pub name: String,
    /// Record kind.
    pub kind: EventKind,
    /// Structured payload; empty for most span records.
    pub fields: BTreeMap<String, FieldValue>,
}

/// One thread's event buffer: appended only by its owning thread, drained
/// by [`drain`]. The mutex is therefore uncontended on the hot path.
#[derive(Debug, Default)]
struct ThreadBuf {
    events: Mutex<Vec<Event>>,
}

/// All thread buffers ever registered (buffers outlive their threads so a
/// finished worker's events still flush).
fn sink() -> &'static Mutex<Vec<Arc<ThreadBuf>>> {
    static SINK: OnceLock<Mutex<Vec<Arc<ThreadBuf>>>> = OnceLock::new();
    SINK.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static LOCAL_BUF: RefCell<Option<Arc<ThreadBuf>>> = const { RefCell::new(None) };
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static THREAD_ID: Cell<u32> = const { Cell::new(u32::MAX) };
}

/// Dense id of the calling thread, assigned on first use (also used by
/// the `--trace` stderr tree to prefix lines).
pub(crate) fn thread_id() -> u32 {
    THREAD_ID.with(|cell| {
        let id = cell.get();
        if id != u32::MAX {
            return id;
        }
        let id = NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed);
        cell.set(id);
        id
    })
}

fn with_local_buf(f: impl FnOnce(&ThreadBuf)) {
    LOCAL_BUF.with(|slot| {
        let mut slot = slot.borrow_mut();
        let buf = slot.get_or_insert_with(|| {
            let buf = Arc::new(ThreadBuf::default());
            sink()
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner())
                .push(Arc::clone(&buf));
            buf
        });
        f(buf);
    });
}

fn push(event: Event) {
    with_local_buf(|buf| {
        buf.events
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .push(event);
    });
}

/// Routes one finished record: always offered to the live bus, and
/// appended to the calling thread's capture buffer only when the
/// emission site saw capture enabled (`captured`). Keeping the two
/// destinations independent is what lets a `/events` subscriber attach
/// to an uninstrumented run without perturbing file artifacts.
fn emit(event: Event, captured: bool) {
    crate::bus::publish(&event);
    if captured {
        push(event);
    }
}

/// Innermost open span of the calling thread, [`NO_SPAN`] at top level.
fn current_parent() -> u64 {
    SPAN_STACK.with(|stack| stack.borrow().last().copied().unwrap_or(NO_SPAN))
}

/// What [`begin_span`] hands the span guard: the span id plus whether
/// the begin record landed in the capture buffers. The end record goes
/// wherever the begin went, so buffered begin/end pairs stay balanced
/// even if capture or bus subscribers change mid-span.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SpanToken {
    pub(crate) id: u64,
    captured: bool,
}

/// Called by [`span`](crate::span) at guard creation. Returns a token
/// when the record went anywhere (capture buffers and/or the live
/// bus), `None` when both sinks are off — the guard passes it back to
/// [`end_span`] at drop.
pub(crate) fn begin_span(name: &'static str) -> Option<SpanToken> {
    let captured = capture_enabled();
    if !captured && !crate::bus::has_subscribers() {
        return None;
    }
    let span_id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let parent_id = current_parent();
    emit(
        Event {
            ts_us: now_us(),
            thread: thread_id(),
            span_id,
            parent_id,
            name: name.to_owned(),
            kind: EventKind::SpanBegin,
            fields: BTreeMap::new(),
        },
        captured,
    );
    SPAN_STACK.with(|stack| stack.borrow_mut().push(span_id));
    Some(SpanToken {
        id: span_id,
        captured,
    })
}

/// Called by the span guard at drop when [`begin_span`] returned a
/// token. Pops the span off the thread's stack and records the end
/// event into the same sinks the begin reached (even if capture was
/// switched off mid-span, so buffered pairs stay balanced).
pub(crate) fn end_span(name: &'static str, token: SpanToken, elapsed_us: u64) {
    let span_id = token.id;
    let parent_id = SPAN_STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        // Guards drop in LIFO order on a thread, so the top is ours; be
        // tolerant anyway (a guard moved across threads pops nothing).
        if stack.last() == Some(&span_id) {
            stack.pop();
        } else if let Some(pos) = stack.iter().rposition(|&id| id == span_id) {
            stack.remove(pos);
        }
        stack.last().copied().unwrap_or(NO_SPAN)
    });
    let mut fields = BTreeMap::new();
    fields.insert("elapsed_us".to_owned(), FieldValue::U64(elapsed_us));
    emit(
        Event {
            ts_us: now_us(),
            thread: thread_id(),
            span_id,
            parent_id,
            name: name.to_owned(),
            kind: EventKind::SpanEnd,
            fields,
        },
        token.captured,
    );
}

/// Records an instantaneous event with structured fields, parented to
/// the innermost open span of the calling thread. A no-op (two relaxed
/// atomic loads) when capture is off and no bus subscriber is live.
pub fn point_with<const N: usize>(name: &str, fields: [(&str, FieldValue); N]) {
    let captured = capture_enabled();
    if !captured && !crate::bus::has_subscribers() {
        return;
    }
    let span_id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    emit(
        Event {
            ts_us: now_us(),
            thread: thread_id(),
            span_id,
            parent_id: current_parent(),
            name: name.to_owned(),
            kind: EventKind::Point,
            fields: fields
                .into_iter()
                .map(|(k, v)| (k.to_owned(), v))
                .collect(),
        },
        captured,
    );
}

/// Flushes every thread's buffer and returns all captured events, sorted
/// by `(thread, ts_us, span_id)` so each thread's records read in order.
/// Buffers are emptied; capture state is left unchanged.
pub fn drain() -> Vec<Event> {
    let mut events = Vec::new();
    let sink = sink().lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    for buf in sink.iter() {
        let mut local = buf
            .events
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        events.append(&mut local);
    }
    drop(sink);
    events.sort_by_key(|e| (e.thread, e.ts_us, e.span_id));
    events
}

/// Checks the structural invariants of a drained event list: every
/// `parent_id` refers to a recorded span (or [`NO_SPAN`]), every
/// `span_begin` has a matching `span_end` on the same thread, and
/// timestamps are monotonic per thread.
pub fn validate(events: &[Event]) -> Result<(), String> {
    use std::collections::{BTreeSet, HashMap};
    let mut span_ids: BTreeSet<u64> = BTreeSet::new();
    for e in events {
        if e.kind != EventKind::Point {
            span_ids.insert(e.span_id);
        }
    }
    let mut begins: HashMap<u64, (u32, &str)> = HashMap::new();
    let mut last_ts: HashMap<u32, u64> = HashMap::new();
    for e in events {
        if let Some(&prev) = last_ts.get(&e.thread) {
            if e.ts_us < prev {
                return Err(format!(
                    "thread {} timestamps regress: {} -> {} at {:?}",
                    e.thread, prev, e.ts_us, e.name
                ));
            }
        }
        last_ts.insert(e.thread, e.ts_us);
        if e.parent_id != NO_SPAN && !span_ids.contains(&e.parent_id) {
            return Err(format!(
                "event {:?} (span {}) has unresolved parent {}",
                e.name, e.span_id, e.parent_id
            ));
        }
        match e.kind {
            EventKind::SpanBegin => {
                if begins.insert(e.span_id, (e.thread, &e.name)).is_some() {
                    return Err(format!("span {} began twice", e.span_id));
                }
            }
            EventKind::SpanEnd => {
                match begins.remove(&e.span_id) {
                    None => return Err(format!("span {} ended without beginning", e.span_id)),
                    Some((thread, name)) => {
                        if thread != e.thread || name != e.name {
                            return Err(format!(
                                "span {} begin/end mismatch: {name:?}@t{thread} vs {:?}@t{}",
                                e.span_id, e.name, e.thread
                            ));
                        }
                    }
                }
            }
            EventKind::Point => {}
        }
    }
    if let Some(&open) = begins.keys().next() {
        return Err(format!("span {open} never ended"));
    }
    Ok(())
}

/// Serializes one event as one JSON Lines object; the telemetry
/// server's `/events` endpoint streams exactly these lines as NDJSON.
pub(crate) fn event_json_line(e: &Event) -> String {
    let mut row = vec![
        ("ts_us", Value::from(e.ts_us)),
        ("thread", e.thread.into()),
        ("span_id", e.span_id.into()),
        ("parent_id", e.parent_id.into()),
        ("name", e.name.as_str().into()),
        ("kind", e.kind.label().into()),
    ];
    if !e.fields.is_empty() {
        let fields = e.fields.iter().map(|(k, v)| (k.as_str(), field_json(v)));
        row.push(("fields", Value::object(fields)));
    }
    Value::object(row).compact()
}

/// Writes events as JSON Lines: one [`Event`] object per line.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub(crate) fn write_jsonl<W: Write>(events: &[Event], mut w: W) -> io::Result<()> {
    for e in events {
        w.write_all(event_json_line(e).as_bytes())?;
        w.write_all(b"\n")?;
    }
    Ok(())
}

/// Parses a JSON Lines byte stream back into events (blank lines are
/// skipped).
///
/// # Errors
///
/// The first malformed line aborts parsing with its error.
#[cfg(test)]
fn read_jsonl(bytes: &[u8]) -> io::Result<Vec<Event>> {
    let text = std::str::from_utf8(bytes)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    let mut events = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let event = json::parse(line)
            .and_then(|v| event_from_json(&v))
            .map_err(|e| json::Error::new(format!("line {}: {e}", i + 1)))?;
        events.push(event);
    }
    Ok(events)
}

#[cfg(test)]
fn event_from_json(v: &Value) -> Result<Event, json::Error> {
    let label = v.field("kind")?.to_str()?;
    let kind = [EventKind::SpanBegin, EventKind::SpanEnd, EventKind::Point]
        .into_iter()
        .find(|k| k.label() == label)
        .ok_or_else(|| json::Error::new(format!("unknown event kind {label:?}")))?;
    let fields = match v.get("fields") {
        None => BTreeMap::new(),
        Some(f) => f
            .to_object()?
            .iter()
            .map(|(k, v)| Ok((k.clone(), field_from_json(v)?)))
            .collect::<Result<_, json::Error>>()?,
    };
    Ok(Event {
        ts_us: v.field("ts_us")?.to_u64()?,
        thread: v.field("thread")?.to_u32()?,
        span_id: v.field("span_id")?.to_u64()?,
        parent_id: v.field("parent_id")?.to_u64()?,
        name: v.field("name")?.to_str()?.to_owned(),
        kind,
        fields,
    })
}

/// A field payload: non-negative integers are `U64`, other numbers
/// `F64`, strings `Str`.
#[cfg(test)]
fn field_from_json(v: &Value) -> Result<FieldValue, json::Error> {
    match v {
        Value::U64(n) => Ok(FieldValue::U64(*n)),
        Value::Str(s) => Ok(FieldValue::Str(s.clone())),
        other => other.to_f64().map(FieldValue::F64),
    }
}

/// A field value as a JSON scalar (non-finite floats become strings so
/// the value survives the round trip).
fn field_json(v: &FieldValue) -> Value {
    match v {
        FieldValue::U64(n) => Value::U64(*n),
        FieldValue::F64(x) if x.is_finite() => Value::F64(*x),
        FieldValue::F64(x) => Value::Str(x.to_string()),
        FieldValue::Str(s) => s.as_str().into(),
    }
}

/// Serializes events as a Chrome trace document (the `--trace-out`
/// artifact): `{"traceEvents": [...]}` with `B`/`E` duration records for
/// spans and `i` instant records for points, loadable in Perfetto or
/// `chrome://tracing`. Thread ids map to `tid`, the process is always
/// `pid` 1; `span_id`/`parent_id` ride along in `args`. One trace event
/// per line.
///
/// # Errors
///
/// Infallible today; the `io::Result` reserves room for streaming output.
pub fn chrome_trace_json(events: &[Event]) -> io::Result<String> {
    let mut out = String::with_capacity(events.len() * 96 + 64);
    out.push_str("{\"traceEvents\":[");
    for (i, e) in events.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        let ph = match e.kind {
            EventKind::SpanBegin => "B",
            EventKind::SpanEnd => "E",
            EventKind::Point => "i",
        };
        let mut row = vec![
            ("name", Value::from(e.name.as_str())),
            ("cat", "maskfrac".into()),
            ("ph", ph.into()),
            ("ts", e.ts_us.into()),
            ("pid", 1u64.into()),
            ("tid", e.thread.into()),
        ];
        if e.kind == EventKind::Point {
            row.push(("s", "t".into()));
        }
        let mut args = vec![("span_id".to_owned(), Value::from(e.span_id))];
        if e.parent_id != NO_SPAN {
            args.push(("parent_id".to_owned(), e.parent_id.into()));
        }
        args.extend(e.fields.iter().map(|(k, v)| (k.clone(), field_json(v))));
        row.push(("args", Value::Object(args)));
        Value::object(row).write_compact(&mut out);
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}");
    Ok(out)
}

/// Drains all captured events and writes both artifacts in one sweep:
/// the Chrome trace to `trace_out` and/or the JSON Lines stream to
/// `events_out` (either may be `None`). Returns the drained events so
/// callers can additionally inspect or [`validate`] them.
///
/// # Errors
///
/// File I/O or serialization failures, naming the offending path.
pub fn flush_to_files(
    trace_out: Option<&std::path::Path>,
    events_out: Option<&std::path::Path>,
) -> io::Result<Vec<Event>> {
    let events = drain();
    if let Some(path) = events_out {
        let file = std::fs::File::create(path)?;
        write_jsonl(&events, io::BufWriter::new(file))?;
    }
    if let Some(path) = trace_out {
        std::fs::write(path, chrome_trace_json(&events)? + "\n")?;
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Capture is process-global; tests that enable it serialize here so
    /// they never see each other's events.
    fn with_capture_lock<T>(f: impl FnOnce() -> T) -> T {
        static GATE: Mutex<()> = Mutex::new(());
        let _gate = GATE.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        let _ = drain(); // discard leftovers from unrelated spans
        set_capture(true);
        let out = f();
        set_capture(false);
        out
    }

    #[test]
    fn disabled_capture_records_nothing() {
        // Not under the lock: capture may be on from a concurrent test, so
        // only assert the cheap invariant that our own point is absent.
        set_capture(false);
        point_with("t.event.invisible", []);
        let events = drain();
        assert!(events.iter().all(|e| e.name != "t.event.invisible"));
    }

    #[test]
    fn spans_pair_up_and_nest() {
        let mut events = with_capture_lock(|| {
            {
                let _outer = crate::span("t.event.outer");
                let _inner = crate::span("t.event.inner");
                point_with("t.event.tick", []);
            }
            drain()
        });
        // Other tests in this binary may have running spans while capture
        // is on; keep only this test's records (same-thread parentage
        // keeps their ids self-contained).
        events.retain(|e| e.name.starts_with("t.event."));
        let find = |name: &str, kind: EventKind| {
            events
                .iter()
                .find(|e| e.name == name && e.kind == kind)
                .unwrap_or_else(|| panic!("missing {name} {kind:?}"))
        };
        let outer_b = find("t.event.outer", EventKind::SpanBegin);
        let inner_b = find("t.event.inner", EventKind::SpanBegin);
        let inner_e = find("t.event.inner", EventKind::SpanEnd);
        let tick = find("t.event.tick", EventKind::Point);
        assert_eq!(outer_b.parent_id, NO_SPAN);
        assert_eq!(inner_b.parent_id, outer_b.span_id);
        assert_eq!(inner_e.span_id, inner_b.span_id);
        assert_eq!(tick.parent_id, inner_b.span_id);
        assert!(inner_e.fields.contains_key("elapsed_us"));
        validate(&events).expect("structurally sound");
    }

    #[test]
    fn jsonl_round_trips() {
        let events = with_capture_lock(|| {
            let _s = crate::span("t.event.jsonl");
            point_with("t.event.payload", [("shots", 42u64.into()), ("m", "ours".into())]);
            drop(_s);
            drain()
        });
        let mut buf = Vec::new();
        write_jsonl(&events, &mut buf).expect("writes");
        let back = read_jsonl(&buf).expect("parses");
        assert_eq!(back, events);
        let payload = back
            .iter()
            .find(|e| e.name == "t.event.payload")
            .expect("payload present");
        assert_eq!(payload.fields["shots"], FieldValue::U64(42));
        assert_eq!(payload.fields["m"], FieldValue::Str("ours".into()));
    }

    /// The Chrome trace row schema: string `name`/`cat`/`ph`, integer
    /// `ts`, `pid` 1, u32 `tid`, an optional string `s`, and optional
    /// `args` mapping names to numbers or strings.
    fn assert_chrome_row(row: &Value) {
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
                    Value::U64(_) | Value::I64(_) | Value::F64(_) | Value::Str(_)
                )),
                "args values must be numbers or strings: {row:?}"
            );
        }
    }

    #[test]
    fn chrome_export_is_valid_json_with_paired_phases() {
        let events = with_capture_lock(|| {
            {
                let _s = crate::span("t.event.chrome");
                point_with("t.event.instant", []);
            }
            drain()
        });
        let json = chrome_trace_json(&events).expect("serializes");
        let doc = json::parse(&json).expect("valid JSON");
        assert_eq!(doc["displayTimeUnit"].as_str(), Some("ms"));
        let rows = doc["traceEvents"].as_array().expect("rows");
        rows.iter().for_each(assert_chrome_row);
        let is = |r: &Value, name: &str, ph: &str| {
            r["name"].as_str() == Some(name) && r["ph"].as_str() == Some(ph)
        };
        let of = |name: &str, ph: &str| rows.iter().filter(|r| is(r, name, ph)).count();
        assert_eq!(of("t.event.chrome", "B"), 1);
        assert_eq!(of("t.event.chrome", "E"), 1);
        assert_eq!(of("t.event.instant", "i"), 1);
        let begin = rows
            .iter()
            .find(|r| is(r, "t.event.chrome", "B"))
            .expect("begin row");
        assert_eq!(begin["cat"].as_str(), Some("maskfrac"));
        assert_eq!(begin["pid"].as_u64(), Some(1));
        assert!(begin["args"]["span_id"].as_u64().is_some());
        let instant = rows
            .iter()
            .find(|r| is(r, "t.event.instant", "i"))
            .expect("instant row");
        assert_eq!(instant["s"].as_str(), Some("t"));
        assert!(instant["ts"].as_u64() >= begin["ts"].as_u64());
        assert_eq!(instant["tid"], begin["tid"]);
    }

    #[test]
    fn chrome_export_escapes_payload_strings() {
        let mut fields = BTreeMap::new();
        fields.insert(
            "label".to_owned(),
            FieldValue::Str("quote\" slash\\ tab\t".to_owned()),
        );
        let events = vec![Event {
            ts_us: 1,
            thread: 0,
            span_id: 7,
            parent_id: NO_SPAN,
            name: "escape\ncheck".into(),
            kind: EventKind::Point,
            fields,
        }];
        let json = chrome_trace_json(&events).expect("serializes");
        let doc = json::parse(&json).expect("valid JSON");
        let row = &doc["traceEvents"][0];
        assert_eq!(row["name"].as_str(), Some("escape\ncheck"));
        assert_eq!(row["args"]["label"].as_str(), Some("quote\" slash\\ tab\t"));
    }

    #[test]
    fn validate_rejects_unresolved_parent() {
        let mut fields = BTreeMap::new();
        fields.insert("elapsed_us".to_owned(), FieldValue::U64(1));
        let events = vec![Event {
            ts_us: 0,
            thread: 0,
            span_id: 5,
            parent_id: 999,
            name: "broken".into(),
            kind: EventKind::Point,
            fields,
        }];
        assert!(validate(&events).unwrap_err().contains("unresolved parent"));
    }

    #[test]
    fn validate_rejects_unbalanced_span() {
        let events = vec![Event {
            ts_us: 0,
            thread: 0,
            span_id: 5,
            parent_id: NO_SPAN,
            name: "open".into(),
            kind: EventKind::SpanBegin,
            fields: BTreeMap::new(),
        }];
        assert!(validate(&events).unwrap_err().contains("never ended"));
    }
}
