//! The versioned, machine-readable run report (`--metrics-out`).
//!
//! A [`RunReport`] is the JSON document every instrumented binary can
//! emit at exit: the full metrics snapshot (per-stage wall-clock stats
//! with p50/p90/p99 quantiles, counters, histograms), a roll-up of
//! per-shape [`FractureStatus`] outcomes, the optional per-shape ledger
//! rows, and — since schema version 2 — the ledger's worst-K outlier
//! table and anomaly flags (see [`crate::ledger`]). The schema is
//! versioned — consumers check [`SCHEMA_NAME`] / [`SCHEMA_VERSION`]
//! before trusting field layout — and documented field-by-field in
//! `docs/observability.md`.
//!
//! [`FractureStatus`]: https://docs.rs/maskfrac-fracture

use crate::json::{self, Value};
use crate::ledger::{self, Anomalies, OutlierRow};
use crate::metrics::{registry, HistogramSummary, MetricsSnapshot, StageStats};
use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::time::{Instant, SystemTime};

/// Schema identifier stored in [`RunReport::schema`].
pub const SCHEMA_NAME: &str = "maskfrac.run-report";

/// Current schema version stored in [`RunReport::schema_version`].
///
/// Bump on any breaking change to the field layout; additive optional
/// fields do not require a bump. Version history:
///
/// * **1** — stages/counters/histograms/statuses + basic shape rows.
/// * **2** — stage rows and histogram summaries carry p50/p90/p99;
///   shape rows gain `iterations`, `on_fail_pixels`, `off_fail_pixels`,
///   `cache`, `deadline_hit`; the report gains the ledger's `outliers`
///   table and `anomalies` flags.
pub const SCHEMA_VERSION: u32 = 2;

/// Counter-name prefix whose suffixes are mirrored into
/// [`RunReport::statuses`] (e.g. `fracture.status.ok`).
pub(crate) const STATUS_COUNTER_PREFIX: &str = "fracture.status.";

const KNOWN_STATUSES: [&str; 4] = ["ok", "degraded", "fallback", "failed"];

/// One run of an instrumented binary, serialized to `--metrics-out`.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Always [`SCHEMA_NAME`]; consumers reject anything else.
    pub schema: String,
    /// Always [`SCHEMA_VERSION`] for reports written by this crate.
    pub schema_version: u32,
    /// Which binary produced the report (`"robustness"`, `"maskfrac"`, ...).
    pub binary: String,
    /// Report creation time, seconds since the Unix epoch.
    pub created_unix_s: u64,
    /// Whole-run wall-clock time, seconds.
    pub wall_time_s: f64,
    /// Per-stage wall-clock statistics, keyed by span name.
    pub stages: BTreeMap<String, StageStats>,
    /// Counter values, keyed by counter name.
    pub counters: BTreeMap<String, u64>,
    /// Histogram summaries, keyed by histogram name.
    pub histograms: BTreeMap<String, HistogramSummary>,
    /// Shape-outcome roll-up: [`FractureStatus`] label → shape count.
    /// Mirrored from counters prefixed `STATUS_COUNTER_PREFIX`.
    ///
    /// [`FractureStatus`]: https://docs.rs/maskfrac-fracture
    pub statuses: BTreeMap<String, u64>,
    /// Optional per-shape ledger rows (see [`RunReport::with_shapes`]).
    pub shapes: Vec<ShapeRecord>,
    /// Worst-`ledger::OUTLIER_K` shapes by runtime, slowest first.
    /// Derived from `shapes` by [`RunReport::with_shapes`].
    pub outliers: Vec<OutlierRow>,
    /// Shape-level anomaly flags (deadline / fallback / failed /
    /// residual). Derived from `shapes` by [`RunReport::with_shapes`].
    pub anomalies: Anomalies,
}

/// Per-shape ledger row inside a [`RunReport`].
///
/// Fields beyond the v1 set (`iterations` onward) default when absent so
/// rows written by producers that predate them still parse; `Default`
/// gives producers without an enriched source (e.g. bench harnesses that
/// only know shots/fails/runtime) a `..Default::default()` tail.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ShapeRecord {
    /// Shape identifier (library name or index).
    pub id: String,
    /// [`FractureStatus`] label: `ok`, `degraded`, `fallback`, or `failed`.
    ///
    /// [`FractureStatus`]: https://docs.rs/maskfrac-fracture
    pub status: String,
    /// Delivering fallback-ladder rung (`ours`, `ours-retry`, `proto-eda`,
    /// `conventional`, or `none`).
    pub method: String,
    /// Shots emitted for one instance of the shape.
    pub shots: usize,
    /// Pixels still failing the EPE check after fracturing
    /// (`on_fail_pixels + off_fail_pixels` when the split is known).
    pub fail_pixels: usize,
    /// Wall-clock seconds spent fracturing this shape (all attempts).
    pub runtime_s: f64,
    /// Fallback-ladder rungs attempted (1 = first rung delivered).
    pub attempts: usize,
    /// Shot-refinement iterations spent on the shape.
    pub iterations: usize,
    /// Residual Pon violations: interior pixels still below threshold.
    pub on_fail_pixels: usize,
    /// Residual Poff violations: exterior pixels still above threshold.
    pub off_fail_pixels: usize,
    /// Which tier served the shape: one of
    /// [`ledger::KNOWN_CACHE_LABELS`] (`computed`, `hit`, `resumed`,
    /// `disk`), or empty when the producing path has no cache.
    pub cache: String,
    /// Whether the per-shape wall-clock deadline cut refinement short.
    pub deadline_hit: bool,
}

impl RunReport {
    /// Builds a report from a metrics snapshot.
    ///
    /// Counters named `fracture.status.<label>` are mirrored into
    /// [`RunReport::statuses`] keyed by `<label>`.
    pub(crate) fn from_snapshot(binary: &str, wall_time_s: f64, snapshot: MetricsSnapshot) -> Self {
        let statuses = snapshot
            .counters
            .iter()
            .filter_map(|(name, &value)| {
                name.strip_prefix(STATUS_COUNTER_PREFIX)
                    .map(|label| (label.to_owned(), value))
            })
            .collect();
        RunReport {
            schema: SCHEMA_NAME.to_owned(),
            schema_version: SCHEMA_VERSION,
            binary: binary.to_owned(),
            created_unix_s: SystemTime::now()
                .duration_since(SystemTime::UNIX_EPOCH)
                .map(|d| d.as_secs())
                .unwrap_or(0),
            wall_time_s,
            stages: snapshot.stages,
            counters: snapshot.counters,
            histograms: snapshot.histograms,
            statuses,
            shapes: Vec::new(),
            outliers: Vec::new(),
            anomalies: Anomalies::default(),
        }
    }

    /// Snapshots the global registry into a report for `binary`, with
    /// wall-clock time measured from `started`.
    pub fn capture(binary: &str, started: Instant) -> Self {
        RunReport::from_snapshot(
            binary,
            started.elapsed().as_secs_f64(),
            registry().snapshot(),
        )
    }

    /// Attaches per-shape ledger rows (builder style) and derives the
    /// worst-K [`outliers`](Self::outliers) table and
    /// [`anomalies`](Self::anomalies) flags from them.
    #[must_use]
    pub fn with_shapes(mut self, shapes: Vec<ShapeRecord>) -> Self {
        self.outliers = ledger::worst_outliers(&shapes, ledger::OUTLIER_K);
        self.anomalies = ledger::flag_anomalies(&shapes);
        self.shapes = shapes;
        self
    }

    /// Checks the report's internal invariants.
    ///
    /// Verifies the schema name/version, that every stage row is
    /// well-formed (`count > 0`, finite totals, `min <= max`, ordered
    /// quantiles inside `[min, max]`), that histogram summaries are
    /// consistent, that status and cache labels are drawn from their
    /// known sets, and that the outlier table and anomaly flags are
    /// consistent with the shape rows.
    pub fn validate(&self) -> Result<(), String> {
        if self.schema != SCHEMA_NAME {
            return Err(format!(
                "schema mismatch: expected {SCHEMA_NAME:?}, got {:?}",
                self.schema
            ));
        }
        if self.schema_version != SCHEMA_VERSION {
            return Err(format!(
                "schema_version mismatch: expected {SCHEMA_VERSION}, got {}",
                self.schema_version
            ));
        }
        if self.binary.is_empty() {
            return Err("binary name is empty".to_owned());
        }
        if !self.wall_time_s.is_finite() || self.wall_time_s < 0.0 {
            return Err(format!("wall_time_s not a finite duration: {}", self.wall_time_s));
        }
        for (name, s) in &self.stages {
            if s.count == 0 {
                return Err(format!("stage {name:?} recorded with count 0"));
            }
            if !(s.total_s.is_finite() && s.min_s.is_finite() && s.max_s.is_finite()) {
                return Err(format!("stage {name:?} has non-finite timings"));
            }
            if s.min_s > s.max_s {
                return Err(format!("stage {name:?} has min_s > max_s"));
            }
            if s.total_s + 1e-9 < s.max_s {
                return Err(format!("stage {name:?} has total_s < max_s"));
            }
            check_quantiles(name, s.p50_s, s.p90_s, s.p99_s, s.min_s, s.max_s)?;
        }
        for (name, h) in &self.histograms {
            if h.count > 0 && h.min > h.max {
                return Err(format!("histogram {name:?} has min > max"));
            }
            if !(h.sum.is_finite() && h.min.is_finite() && h.max.is_finite()) {
                return Err(format!("histogram {name:?} has non-finite values"));
            }
            if h.count > 0 {
                check_quantiles(name, h.p50, h.p90, h.p99, h.min, h.max)?;
            }
        }
        for label in self.statuses.keys() {
            if !KNOWN_STATUSES.contains(&label.as_str()) {
                return Err(format!("unknown fracture status label {label:?}"));
            }
        }
        for shape in &self.shapes {
            if !KNOWN_STATUSES.contains(&shape.status.as_str()) {
                return Err(format!(
                    "shape {:?} has unknown status label {:?}",
                    shape.id, shape.status
                ));
            }
            if !shape.runtime_s.is_finite() || shape.runtime_s < 0.0 {
                return Err(format!("shape {:?} has invalid runtime_s", shape.id));
            }
            if !shape.cache.is_empty()
                && !ledger::KNOWN_CACHE_LABELS.contains(&shape.cache.as_str())
            {
                return Err(format!(
                    "shape {:?} has unknown cache label {:?}",
                    shape.id, shape.cache
                ));
            }
            // Producers that know the Pon/Poff split must keep it
            // consistent with the total; 0/0 means "split unknown".
            let split = shape.on_fail_pixels + shape.off_fail_pixels;
            if split != 0 && split != shape.fail_pixels {
                return Err(format!(
                    "shape {:?}: on+off fail pixels {split} != fail_pixels {}",
                    shape.id, shape.fail_pixels
                ));
            }
        }
        if self.outliers.len() > ledger::OUTLIER_K {
            return Err(format!(
                "outlier table has {} rows, cap is {}",
                self.outliers.len(),
                ledger::OUTLIER_K
            ));
        }
        if !self.shapes.is_empty() {
            for row in &self.outliers {
                if !self.shapes.iter().any(|s| s.id == row.id) {
                    return Err(format!("outlier {:?} has no shape row", row.id));
                }
            }
        }
        self.anomalies.check()?;
        Ok(())
    }

    /// Serializes the report as pretty-printed JSON. Empty `shapes`,
    /// `outliers` and anomaly id lists are left out.
    pub fn to_json(&self) -> Result<String, io::Error> {
        let count = |n: &u64| Value::from(*n);
        let mut top = vec![
            ("schema", Value::from(self.schema.as_str())),
            ("schema_version", self.schema_version.into()),
            ("binary", self.binary.as_str().into()),
            ("created_unix_s", self.created_unix_s.into()),
            ("wall_time_s", self.wall_time_s.into()),
            ("stages", keyed_json(&self.stages, stage_json)),
            ("counters", keyed_json(&self.counters, count)),
            ("histograms", keyed_json(&self.histograms, histogram_json)),
            ("statuses", keyed_json(&self.statuses, count)),
        ];
        if !self.shapes.is_empty() {
            top.push(("shapes", self.shapes.iter().map(shape_json).collect()));
        }
        if !self.outliers.is_empty() {
            top.push(("outliers", self.outliers.iter().map(outlier_json).collect()));
        }
        top.push(("anomalies", anomalies_json(&self.anomalies)));
        Ok(Value::object(top).pretty())
    }

    /// Parses a report from JSON (does not [`validate`](Self::validate)).
    /// Fields added after schema v1 default when absent.
    pub fn from_json(json: &str) -> Result<Self, io::Error> {
        Ok(report_from_json(&json::parse(json)?)?)
    }

    /// Writes the report as pretty-printed JSON to `path`.
    pub fn save(&self, path: &Path) -> Result<(), io::Error> {
        std::fs::write(path, self.to_json()? + "\n")
    }

    /// Reads and parses (but does not validate) a report from `path`.
    pub fn load(path: &Path) -> Result<Self, io::Error> {
        RunReport::from_json(&std::fs::read_to_string(path)?)
    }
}

fn keyed_json<T>(map: &BTreeMap<String, T>, write: impl Fn(&T) -> Value) -> Value {
    Value::object(map.iter().map(|(k, v)| (k.as_str(), write(v))))
}

fn stage_json(s: &StageStats) -> Value {
    Value::object([
        ("count", s.count.into()),
        ("total_s", s.total_s.into()),
        ("min_s", s.min_s.into()),
        ("max_s", s.max_s.into()),
        ("p50_s", s.p50_s.into()),
        ("p90_s", s.p90_s.into()),
        ("p99_s", s.p99_s.into()),
    ])
}

fn histogram_json(h: &HistogramSummary) -> Value {
    Value::object([
        ("count", h.count.into()),
        ("sum", h.sum.into()),
        ("min", h.min.into()),
        ("max", h.max.into()),
        ("p50", h.p50.into()),
        ("p90", h.p90.into()),
        ("p99", h.p99.into()),
    ])
}

fn shape_json(s: &ShapeRecord) -> Value {
    Value::object([
        ("id", Value::from(s.id.as_str())),
        ("status", s.status.as_str().into()),
        ("method", s.method.as_str().into()),
        ("shots", s.shots.into()),
        ("fail_pixels", s.fail_pixels.into()),
        ("runtime_s", s.runtime_s.into()),
        ("attempts", s.attempts.into()),
        ("iterations", s.iterations.into()),
        ("on_fail_pixels", s.on_fail_pixels.into()),
        ("off_fail_pixels", s.off_fail_pixels.into()),
        ("cache", s.cache.as_str().into()),
        ("deadline_hit", s.deadline_hit.into()),
    ])
}

fn outlier_json(o: &OutlierRow) -> Value {
    Value::object([
        ("id", Value::from(o.id.as_str())),
        ("runtime_s", o.runtime_s.into()),
        ("shots", o.shots.into()),
        ("status", o.status.as_str().into()),
        ("method", o.method.as_str().into()),
    ])
}

fn anomalies_json(a: &Anomalies) -> Value {
    let mut entries = Vec::new();
    for (name, count, ids) in a.flags() {
        entries.push((format!("{name}_count"), Value::from(count)));
        if !ids.is_empty() {
            entries.push((name.to_owned(), Value::from(ids.to_vec())));
        }
    }
    Value::object(entries)
}

/// Reads `key` with `read`, or `T::default()` when the field is absent.
fn or_default<'a, T: Default>(
    v: &'a Value,
    key: &str,
    read: impl FnOnce(&'a Value) -> Result<T, json::Error>,
) -> Result<T, json::Error> {
    v.get(key).map_or(Ok(T::default()), read)
}

fn string(v: &Value) -> Result<String, json::Error> {
    v.to_str().map(str::to_owned)
}

fn keyed<T>(
    v: &Value,
    read: impl Fn(&Value) -> Result<T, json::Error>,
) -> Result<BTreeMap<String, T>, json::Error> {
    v.to_object()?
        .iter()
        .map(|(k, v)| Ok((k.clone(), read(v)?)))
        .collect()
}

fn report_from_json(v: &Value) -> Result<RunReport, json::Error> {
    let stage = |s: &Value| -> Result<StageStats, json::Error> {
        Ok(StageStats {
            count: s.field("count")?.to_u64()?,
            total_s: s.field("total_s")?.to_f64()?,
            min_s: s.field("min_s")?.to_f64()?,
            max_s: s.field("max_s")?.to_f64()?,
            p50_s: or_default(s, "p50_s", Value::to_f64)?,
            p90_s: or_default(s, "p90_s", Value::to_f64)?,
            p99_s: or_default(s, "p99_s", Value::to_f64)?,
        })
    };
    let histogram = |h: &Value| -> Result<HistogramSummary, json::Error> {
        Ok(HistogramSummary {
            count: h.field("count")?.to_u64()?,
            sum: h.field("sum")?.to_f64()?,
            min: h.field("min")?.to_f64()?,
            max: h.field("max")?.to_f64()?,
            p50: or_default(h, "p50", Value::to_f64)?,
            p90: or_default(h, "p90", Value::to_f64)?,
            p99: or_default(h, "p99", Value::to_f64)?,
        })
    };
    let outlier = |o: &Value| -> Result<OutlierRow, json::Error> {
        Ok(OutlierRow {
            id: string(o.field("id")?)?,
            runtime_s: o.field("runtime_s")?.to_f64()?,
            shots: o.field("shots")?.to_usize()?,
            status: string(o.field("status")?)?,
            method: string(o.field("method")?)?,
        })
    };
    let rows = |key: &str| -> Result<&[Value], json::Error> {
        or_default(v, key, Value::to_array)
    };
    Ok(RunReport {
        schema: string(v.field("schema")?)?,
        schema_version: v.field("schema_version")?.to_u32()?,
        binary: string(v.field("binary")?)?,
        created_unix_s: v.field("created_unix_s")?.to_u64()?,
        wall_time_s: v.field("wall_time_s")?.to_f64()?,
        stages: keyed(v.field("stages")?, stage)?,
        counters: keyed(v.field("counters")?, Value::to_u64)?,
        histograms: keyed(v.field("histograms")?, histogram)?,
        statuses: keyed(v.field("statuses")?, Value::to_u64)?,
        shapes: rows("shapes")?.iter().map(shape_from_json).collect::<Result<_, _>>()?,
        outliers: rows("outliers")?.iter().map(outlier).collect::<Result<_, _>>()?,
        anomalies: or_default(v, "anomalies", anomalies_from_json)?,
    })
}

/// Parses one `shapes` row; fields beyond the v1 set default.
fn shape_from_json(s: &Value) -> Result<ShapeRecord, json::Error> {
    Ok(ShapeRecord {
        id: string(s.field("id")?)?,
        status: string(s.field("status")?)?,
        method: string(s.field("method")?)?,
        shots: s.field("shots")?.to_usize()?,
        fail_pixels: s.field("fail_pixels")?.to_usize()?,
        runtime_s: s.field("runtime_s")?.to_f64()?,
        attempts: s.field("attempts")?.to_usize()?,
        iterations: or_default(s, "iterations", Value::to_usize)?,
        on_fail_pixels: or_default(s, "on_fail_pixels", Value::to_usize)?,
        off_fail_pixels: or_default(s, "off_fail_pixels", Value::to_usize)?,
        cache: or_default(s, "cache", string)?,
        deadline_hit: or_default(s, "deadline_hit", Value::to_bool)?,
    })
}

fn anomalies_from_json(a: &Value) -> Result<Anomalies, json::Error> {
    let ids = |key: &str| -> Result<Vec<String>, json::Error> {
        or_default(a, key, |v| v.to_array()?.iter().map(string).collect())
    };
    Ok(Anomalies {
        deadline_hit_count: a.field("deadline_hit_count")?.to_u64()?,
        deadline_hit: ids("deadline_hit")?,
        fallback_count: a.field("fallback_count")?.to_u64()?,
        fallback: ids("fallback")?,
        failed_count: a.field("failed_count")?.to_u64()?,
        failed: ids("failed")?,
        residual_count: a.field("residual_count")?.to_u64()?,
        residual: ids("residual")?,
    })
}

/// Shared quantile sanity check for stage rows and histogram summaries.
fn check_quantiles(
    name: &str,
    p50: f64,
    p90: f64,
    p99: f64,
    min: f64,
    max: f64,
) -> Result<(), String> {
    if !(p50.is_finite() && p90.is_finite() && p99.is_finite()) {
        return Err(format!("{name:?} has non-finite quantiles"));
    }
    if !(p50 <= p90 && p90 <= p99) {
        return Err(format!("{name:?} has unordered quantiles p50/p90/p99"));
    }
    if p50 + 1e-9 < min || p99 > max + 1e-9 {
        return Err(format!("{name:?} has quantiles outside [min, max]"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_snapshot() -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        snap.counters.insert("fracture.shots_emitted".to_owned(), 42);
        snap.counters.insert("fracture.status.ok".to_owned(), 3);
        snap.counters.insert("fracture.status.fallback".to_owned(), 1);
        snap.stages.insert(
            "fracture.shape".to_owned(),
            StageStats {
                count: 4,
                total_s: 0.4,
                min_s: 0.05,
                max_s: 0.2,
                p50_s: 0.1,
                p90_s: 0.18,
                p99_s: 0.2,
            },
        );
        snap
    }

    fn sample_shape(id: &str) -> ShapeRecord {
        ShapeRecord {
            id: id.to_owned(),
            status: "ok".to_owned(),
            method: "ours".to_owned(),
            shots: 12,
            fail_pixels: 0,
            runtime_s: 0.03,
            attempts: 1,
            iterations: 6,
            on_fail_pixels: 0,
            off_fail_pixels: 0,
            cache: "computed".to_owned(),
            deadline_hit: false,
        }
    }

    #[test]
    fn statuses_are_mirrored_from_prefixed_counters() {
        let report = RunReport::from_snapshot("test", 1.0, sample_snapshot());
        assert_eq!(report.statuses["ok"], 3);
        assert_eq!(report.statuses["fallback"], 1);
        assert!(!report.statuses.contains_key("shots_emitted"));
        report.validate().unwrap();
    }

    #[test]
    fn json_round_trip_preserves_report() {
        let report = RunReport::from_snapshot("test", 2.5, sample_snapshot())
            .with_shapes(vec![sample_shape("inv_x1")]);
        let back = RunReport::from_json(&report.to_json().unwrap()).unwrap();
        assert_eq!(back, report);
        back.validate().unwrap();
    }

    #[test]
    fn with_shapes_derives_outliers_and_anomalies() {
        let mut slow = sample_shape("slow");
        slow.runtime_s = 9.0;
        slow.status = "fallback".to_owned();
        slow.method = "conventional".to_owned();
        slow.attempts = 3;
        let report = RunReport::from_snapshot("test", 1.0, sample_snapshot())
            .with_shapes(vec![sample_shape("fast"), slow]);
        assert_eq!(report.outliers[0].id, "slow");
        assert_eq!(report.anomalies.fallback, vec!["slow"]);
        assert_eq!(report.anomalies.fallback_count, 1);
        report.validate().unwrap();
    }

    #[test]
    fn v1_shape_rows_parse_with_defaulted_ledger_fields() {
        let row = r#"{
            "id": "legacy", "status": "ok", "method": "ours",
            "shots": 5, "fail_pixels": 0, "runtime_s": 0.01, "attempts": 1
        }"#;
        let shape = shape_from_json(&json::parse(row).unwrap()).unwrap();
        assert_eq!(shape.iterations, 0);
        assert_eq!(shape.cache, "");
        assert!(!shape.deadline_hit);
    }

    #[test]
    fn validate_rejects_wrong_schema() {
        let mut report = RunReport::from_snapshot("test", 1.0, sample_snapshot());
        report.schema = "something.else".to_owned();
        assert!(report.validate().unwrap_err().contains("schema mismatch"));
    }

    #[test]
    fn validate_rejects_stale_schema_version() {
        let mut report = RunReport::from_snapshot("test", 1.0, sample_snapshot());
        report.schema_version = 1;
        assert!(report
            .validate()
            .unwrap_err()
            .contains("schema_version mismatch"));
    }

    #[test]
    fn validate_rejects_bad_stage_row() {
        let mut report = RunReport::from_snapshot("test", 1.0, sample_snapshot());
        report.stages.insert(
            "broken".to_owned(),
            StageStats {
                count: 0,
                total_s: 0.0,
                min_s: 0.0,
                max_s: 0.0,
                p50_s: 0.0,
                p90_s: 0.0,
                p99_s: 0.0,
            },
        );
        assert!(report.validate().unwrap_err().contains("count 0"));
    }

    #[test]
    fn validate_rejects_unordered_quantiles() {
        let mut report = RunReport::from_snapshot("test", 1.0, sample_snapshot());
        if let Some(s) = report.stages.get_mut("fracture.shape") {
            s.p90_s = s.p50_s - 0.01;
        }
        assert!(report
            .validate()
            .unwrap_err()
            .contains("unordered quantiles"));
    }

    #[test]
    fn validate_rejects_unknown_status_label() {
        let mut report = RunReport::from_snapshot("test", 1.0, sample_snapshot());
        report.statuses.insert("exploded".to_owned(), 1);
        assert!(report
            .validate()
            .unwrap_err()
            .contains("unknown fracture status"));
    }

    #[test]
    fn validate_rejects_unknown_cache_label() {
        let mut shape = sample_shape("s");
        shape.cache = "warm".to_owned();
        let report =
            RunReport::from_snapshot("test", 1.0, sample_snapshot()).with_shapes(vec![shape]);
        assert!(report.validate().unwrap_err().contains("cache label"));
    }

    #[test]
    fn validate_rejects_inconsistent_residual_split() {
        let mut shape = sample_shape("s");
        shape.fail_pixels = 3;
        shape.on_fail_pixels = 1;
        shape.off_fail_pixels = 1;
        let report =
            RunReport::from_snapshot("test", 1.0, sample_snapshot()).with_shapes(vec![shape]);
        assert!(report.validate().unwrap_err().contains("fail_pixels"));
    }

    #[test]
    fn capture_reads_the_global_registry() {
        crate::counter("t.report.capture").add(7);
        let report = RunReport::capture("test", Instant::now());
        assert!(report.counters["t.report.capture"] >= 7);
        assert!(report.wall_time_s >= 0.0);
    }
}
