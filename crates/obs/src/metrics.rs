//! Process-global metrics registry: atomic counters, histograms, and
//! per-span stage statistics.
//!
//! Cells are registered on first use and live for the process lifetime
//! (they are leaked, bounded by metric-name cardinality), so a handle
//! obtained once — e.g. through the [`counter!`](crate::counter!) macro —
//! stays valid across [`Registry::reset`] and can be hammered from any
//! thread with relaxed atomics. Aggregation across the worker threads of
//! a layout run is therefore automatic: everyone increments the same cell.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, RwLock};
use std::time::Duration;

/// A monotonically increasing event count.
///
/// Increments are relaxed atomic adds — safe and cheap from any thread.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one to the counter.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// Retained-sample cap per histogram. When the reservoir fills it is
/// decimated to every other sample and the keep-stride doubles, so memory
/// stays bounded while the kept samples remain a deterministic systematic
/// sample of the whole stream (no RNG — snapshots are reproducible).
const RESERVOIR_CAP: usize = 2048;

#[derive(Debug, Clone)]
struct HistState {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    /// Systematic sample of observations, for quantile estimates.
    samples: Vec<f32>,
    /// Keep every `stride`-th observation (doubles on decimation).
    stride: u32,
    /// Observations until the next kept sample (0 = keep the next one).
    phase: u32,
}

impl HistState {
    const EMPTY: HistState = HistState {
        count: 0,
        sum: 0.0,
        min: f64::INFINITY,
        max: f64::NEG_INFINITY,
        samples: Vec::new(),
        stride: 1,
        phase: 0,
    };

    fn record(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        if self.phase == 0 {
            self.samples.push(v as f32);
            self.phase = self.stride - 1;
            if self.samples.len() >= RESERVOIR_CAP {
                let mut keep = false;
                self.samples.retain(|_| {
                    keep = !keep;
                    keep
                });
                self.stride = self.stride.saturating_mul(2);
            }
        } else {
            self.phase -= 1;
        }
    }
}

/// Nearest-rank quantile of an unsorted sample copy (`q` in `[0, 1]`),
/// clamped into `[min, max]` so f32 reservoir rounding can never push an
/// estimate outside the exactly-tracked bounds.
fn sample_quantile(samples: &[f32], q: f64, min: f64, max: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted: Vec<f32> = samples.to_vec();
    sorted.sort_by(f32::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    f64::from(sorted[rank - 1]).clamp(min, max)
}

/// A streaming value distribution: count, sum, min, max (and hence mean).
///
/// Recording takes a short mutex; intended for per-shape or per-stage
/// granularity, not per-pixel hot loops (use a [`Counter`] and batch
/// there).
#[derive(Debug)]
pub struct Histogram {
    state: Mutex<HistState>,
}

impl Histogram {
    fn new() -> Self {
        Histogram {
            state: Mutex::new(HistState::EMPTY),
        }
    }

    /// Records one observation.
    pub fn record(&self, v: f64) {
        self.lock().record(v);
    }

    /// Snapshot of the distribution so far.
    pub(crate) fn summary(&self) -> HistogramSummary {
        HistogramSummary::from_state(&self.lock())
    }

    /// Copy of the retained systematic sample, in arrival order.
    ///
    /// The Prometheus exposition ([`crate::expo`]) synthesizes
    /// cumulative buckets from this sample (exact up to the reservoir
    /// cap, a deterministic stride sample of the stream beyond it).
    pub(crate) fn samples(&self) -> Vec<f32> {
        self.lock().samples.clone()
    }

    fn reset(&self) {
        *self.lock() = HistState::EMPTY;
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HistState> {
        // A panicking recorder must not take observability down with it.
        self.state
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

/// Serializable summary of a [`Histogram`].
///
/// The quantile fields are estimates over a bounded deterministic sample
/// of the stream (exact up to `RESERVOIR_CAP` observations), always
/// within `[min, max]`; they default to 0 when parsing pre-quantile
/// (schema v1) reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSummary {
    /// Number of recorded observations.
    pub count: u64,
    /// Sum of all observations.
    pub sum: f64,
    /// Smallest observation (0 when `count` is 0).
    pub min: f64,
    /// Largest observation (0 when `count` is 0).
    pub max: f64,
    /// Median estimate (0 when `count` is 0).
    pub p50: f64,
    /// 90th-percentile estimate (0 when `count` is 0).
    pub p90: f64,
    /// 99th-percentile estimate (0 when `count` is 0).
    pub p99: f64,
}

impl HistogramSummary {
    fn from_state(s: &HistState) -> Self {
        if s.count == 0 {
            HistogramSummary {
                count: 0,
                sum: 0.0,
                min: 0.0,
                max: 0.0,
                p50: 0.0,
                p90: 0.0,
                p99: 0.0,
            }
        } else {
            HistogramSummary {
                count: s.count,
                sum: s.sum,
                min: s.min,
                max: s.max,
                p50: sample_quantile(&s.samples, 0.50, s.min, s.max),
                p90: sample_quantile(&s.samples, 0.90, s.min, s.max),
                p99: sample_quantile(&s.samples, 0.99, s.min, s.max),
            }
        }
    }

    /// Mean observation, or 0 for an empty histogram.
    #[cfg(test)]
    pub(crate) fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// Serializable wall-clock statistics of one span name (one pipeline
/// stage): how many times it ran and how long it took.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageStats {
    /// Number of completed spans.
    pub count: u64,
    /// Total wall-clock seconds across all spans.
    pub total_s: f64,
    /// Shortest single span, seconds.
    pub min_s: f64,
    /// Longest single span, seconds.
    pub max_s: f64,
    /// Median span duration estimate, seconds (see
    /// [`HistogramSummary`] for sampling semantics; 0 in v1 reports).
    pub p50_s: f64,
    /// 90th-percentile span duration estimate, seconds.
    pub p90_s: f64,
    /// 99th-percentile span duration estimate, seconds.
    pub p99_s: f64,
}

impl StageStats {
    /// Mean span duration in seconds, or 0 when no spans completed.
    #[cfg(test)]
    pub(crate) fn mean_s(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_s / self.count as f64
        }
    }
}

/// A point-in-time copy of every metric in a [`Registry`], in the shape
/// the [`RunReport`](crate::RunReport) embeds.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Histogram summaries by name.
    pub histograms: BTreeMap<String, HistogramSummary>,
    /// Per-stage (span) wall-clock statistics by span name.
    pub stages: BTreeMap<String, StageStats>,
}

/// The metric store: named counters, histograms, and span statistics.
///
/// Use the process-global instance via [`registry`]; a standalone
/// `Registry` exists only for tests.
#[derive(Debug, Default)]
pub struct Registry {
    counters: RwLock<BTreeMap<&'static str, &'static Counter>>,
    histograms: RwLock<BTreeMap<&'static str, &'static Histogram>>,
    spans: RwLock<BTreeMap<&'static str, &'static Histogram>>,
}

impl Registry {
    /// Creates an empty registry (tests only; production code uses
    /// [`registry`]).
    pub(crate) fn new() -> Self {
        Registry::default()
    }

    /// The counter registered under `name`, created on first use.
    ///
    /// The returned handle is `'static`: hoist it out of hot loops (or use
    /// the [`counter!`](crate::counter!) caching macro) to skip the map
    /// lookup.
    pub(crate) fn counter(&self, name: &'static str) -> &'static Counter {
        if let Some(c) = self.read(&self.counters).get(name) {
            return c;
        }
        self
            .write(&self.counters)
            .entry(name)
            .or_insert_with(|| Box::leak(Box::new(Counter::default())))
    }

    /// The histogram registered under `name`, created on first use.
    pub fn histogram(&self, name: &'static str) -> &'static Histogram {
        Self::get_or_insert(&self.histograms, name)
    }

    /// Records one completed span of `name` lasting `elapsed`.
    pub(crate) fn record_span(&self, name: &'static str, elapsed: Duration) {
        Self::get_or_insert(&self.spans, name).record(elapsed.as_secs_f64());
    }

    /// Copies every metric out of the registry.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = self
            .read(&self.counters)
            .iter()
            .map(|(&k, v)| (k.to_owned(), v.get()))
            .collect();
        let histograms = self
            .read(&self.histograms)
            .iter()
            .map(|(&k, v)| (k.to_owned(), v.summary()))
            .collect();
        // A span name registered before a `reset` and not recorded since
        // has no stage to report: `RunReport::validate` rejects count-0
        // rows.
        let stages = self
            .read(&self.spans)
            .iter()
            .filter_map(|(&k, v)| {
                let s = v.summary();
                (s.count > 0).then(|| {
                    (
                        k.to_owned(),
                        StageStats {
                            count: s.count,
                            total_s: s.sum,
                            min_s: s.min,
                            max_s: s.max,
                            p50_s: s.p50,
                            p90_s: s.p90,
                            p99_s: s.p99,
                        },
                    )
                })
            })
            .collect();
        MetricsSnapshot {
            counters,
            histograms,
            stages,
        }
    }

    /// Visits every value histogram as `(name, handle)`, in name order.
    /// Used by the Prometheus exposition to read sample reservoirs that
    /// [`MetricsSnapshot`] (a frozen report schema) does not carry.
    pub(crate) fn visit_histograms(&self, mut f: impl FnMut(&'static str, &Histogram)) {
        for (&name, h) in self.read(&self.histograms).iter() {
            f(name, h);
        }
    }

    /// Visits every span-duration histogram as `(name, handle)`, in
    /// name order (durations are recorded in seconds).
    pub(crate) fn visit_spans(&self, mut f: impl FnMut(&'static str, &Histogram)) {
        for (&name, h) in self.read(&self.spans).iter() {
            f(name, h);
        }
    }

    /// Zeroes every metric. Registered names (and handles already held by
    /// callers) stay valid — values restart from zero.
    pub fn reset(&self) {
        for c in self.read(&self.counters).values() {
            c.reset();
        }
        for h in self.read(&self.histograms).values() {
            h.reset();
        }
        for h in self.read(&self.spans).values() {
            h.reset();
        }
    }

    fn get_or_insert(
        map: &RwLock<BTreeMap<&'static str, &'static Histogram>>,
        name: &'static str,
    ) -> &'static Histogram {
        if let Some(h) = map
            .read()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .get(name)
        {
            return h;
        }
        map.write()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .entry(name)
            .or_insert_with(|| Box::leak(Box::new(Histogram::new())))
    }

    fn read<'a, T>(
        &self,
        lock: &'a RwLock<BTreeMap<&'static str, T>>,
    ) -> std::sync::RwLockReadGuard<'a, BTreeMap<&'static str, T>> {
        lock.read().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn write<'a, T>(
        &self,
        lock: &'a RwLock<BTreeMap<&'static str, T>>,
    ) -> std::sync::RwLockWriteGuard<'a, BTreeMap<&'static str, T>> {
        lock.write()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

/// The process-global registry every instrumented crate records into.
pub fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::new)
}

/// Shorthand for `registry().counter(name)`.
pub fn counter(name: &'static str) -> &'static Counter {
    registry().counter(name)
}

/// Shorthand for `registry().histogram(name)`.
pub fn histogram(name: &'static str) -> &'static Histogram {
    registry().histogram(name)
}

/// Resolves a counter once and caches the `'static` handle in place, so
/// hot loops skip the registry map lookup entirely.
///
/// ```
/// use maskfrac_obs::counter;
///
/// for _ in 0..1000 {
///     counter!("example.hot_loop").incr();
/// }
/// assert!(maskfrac_obs::counter("example.hot_loop").get() >= 1000);
/// ```
#[macro_export]
macro_rules! counter {
    ($name:literal) => {{
        static CELL: ::std::sync::OnceLock<&'static $crate::metrics::Counter> =
            ::std::sync::OnceLock::new();
        *CELL.get_or_init(|| $crate::metrics::counter($name))
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_reset() {
        let r = Registry::new();
        let c = r.counter("t.counter");
        c.incr();
        c.add(4);
        assert_eq!(c.get(), 5);
        assert_eq!(r.snapshot().counters["t.counter"], 5);
        r.reset();
        assert_eq!(c.get(), 0, "handle stays valid across reset");
        c.incr();
        assert_eq!(r.snapshot().counters["t.counter"], 1);
    }

    #[test]
    fn histogram_summary_tracks_bounds() {
        let r = Registry::new();
        let h = r.histogram("t.hist");
        for v in [2.0, 8.0, 5.0] {
            h.record(v);
        }
        let s = h.summary();
        assert_eq!(s.count, 3);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 8.0);
        assert!((s.mean() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn quantiles_are_exact_below_the_reservoir_cap() {
        let r = Registry::new();
        let h = r.histogram("t.hist.quantiles");
        // 1..=100 in a scrambled order: quantiles must not depend on
        // arrival order.
        for i in 0..100u64 {
            h.record(((i * 37) % 100 + 1) as f64);
        }
        let s = h.summary();
        assert_eq!(s.count, 100);
        assert_eq!(s.p50, 50.0);
        assert_eq!(s.p90, 90.0);
        assert_eq!(s.p99, 99.0);
        assert!(s.min <= s.p50 && s.p50 <= s.p90 && s.p90 <= s.p99 && s.p99 <= s.max);
    }

    #[test]
    fn quantiles_survive_reservoir_decimation() {
        let r = Registry::new();
        let h = r.histogram("t.hist.decimated");
        // 3x the cap: the reservoir decimates twice; estimates stay close
        // on a uniform ramp and inside the exact bounds.
        let n = (super::RESERVOIR_CAP * 3) as u64;
        for i in 1..=n {
            h.record(i as f64);
        }
        let s = h.summary();
        assert_eq!(s.count, n);
        assert!((s.p50 - n as f64 * 0.5).abs() < n as f64 * 0.02, "p50 {}", s.p50);
        assert!((s.p90 - n as f64 * 0.9).abs() < n as f64 * 0.02, "p90 {}", s.p90);
        assert!(s.min <= s.p50 && s.p99 <= s.max);
    }

    #[test]
    fn stage_stats_carry_quantiles() {
        let r = Registry::new();
        for ms in [10u64, 20, 30, 40] {
            r.record_span("t.stage.q", Duration::from_millis(ms));
        }
        let s = r.snapshot().stages["t.stage.q"];
        assert!(s.p50_s >= s.min_s && s.p50_s <= s.p90_s);
        assert!(s.p99_s <= s.max_s + 1e-9);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let r = Registry::new();
        let s = r.histogram("t.empty").summary();
        assert_eq!(s.count, 0);
        assert_eq!(s.min, 0.0);
        assert_eq!(s.max, 0.0);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn spans_land_in_stage_stats() {
        let r = Registry::new();
        r.record_span("t.stage", Duration::from_millis(10));
        r.record_span("t.stage", Duration::from_millis(30));
        let snap = r.snapshot();
        let s = snap.stages["t.stage"];
        assert_eq!(s.count, 2);
        assert!(s.total_s >= 0.04 - 1e-9);
        assert!(s.min_s <= s.max_s);
        assert!((s.mean_s() - s.total_s / 2.0).abs() < 1e-12);
    }

    #[test]
    fn counters_sum_across_threads() {
        // The cross-thread aggregation contract: N threads hammering one
        // cell lose nothing.
        let r = Registry::new();
        let c = r.counter("t.parallel");
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..1000 {
                        c.incr();
                    }
                });
            }
        });
        assert_eq!(c.get(), 8000);
    }

    #[test]
    fn global_registry_is_a_singleton() {
        let a = registry().counter("t.global");
        let b = counter("t.global");
        a.incr();
        assert!(std::ptr::eq(a, b));
        assert!(b.get() >= 1);
    }
}
