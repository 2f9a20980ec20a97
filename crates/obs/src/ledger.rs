//! Per-shape ledger aggregation: outliers and anomaly flags.
//!
//! A layout run fractures thousands of shapes; the aggregate counters say
//! how the *run* went, the per-shape rows ([`ShapeRecord`]) say how each
//! *shape* went — and this module condenses those rows into the two
//! things an operator actually scans first in a
//! [`RunReport`](crate::RunReport) v2:
//!
//! * a **worst-K outlier table** (`worst_outliers`) — the shapes that
//!   dominated the wall clock, with their shot counts and statuses;
//! * **anomaly flags** ([`Anomalies`]) — which shapes hit the deadline,
//!   fell back to a baseline, failed outright, or finished with residual
//!   violating pixels. Id lists are truncated to
//!   `MAX_ANOMALY_IDS` entries (counts stay exact) so a pathological
//!   run cannot bloat the report.
//!
//! The ledger itself is the `shapes` array: one record per library
//! geometry, threaded up from the fracture pipeline
//! (`iterations`, Pon/Poff residuals, deadline flag), the fallback ladder
//! (`method`, `attempts`) and the layout driver's dedup cache (`cache`).

use crate::report::ShapeRecord;

/// How many shapes the worst-K outlier table keeps.
pub(crate) const OUTLIER_K: usize = 10;

/// Cap on every anomaly id list; the `*_count` fields stay exact.
pub(crate) const MAX_ANOMALY_IDS: usize = 32;

/// Cache-outcome labels a [`ShapeRecord::cache`] may carry. The empty
/// string is also accepted (records from paths without a dedup cache).
pub const KNOWN_CACHE_LABELS: [&str; 4] = ["computed", "hit", "resumed", "disk"];

/// One row of the worst-K outlier table: a shape that dominated the run's
/// wall clock.
#[derive(Debug, Clone, PartialEq)]
pub struct OutlierRow {
    /// Shape identifier (matches a `shapes` row).
    pub id: String,
    /// Wall-clock seconds spent on the shape.
    pub runtime_s: f64,
    /// Shots emitted for one instance.
    pub shots: usize,
    /// `FractureStatus` label of the shape.
    pub status: String,
    /// Delivering fallback-ladder rung.
    pub method: String,
}

/// Shape-level anomaly flags of one run. Each list carries at most
/// `MAX_ANOMALY_IDS` shape ids; the paired count is always exact.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Anomalies {
    /// Shapes whose refinement was cut short by the wall-clock deadline.
    pub deadline_hit_count: u64,
    /// Ids of deadline-cut shapes (truncated).
    pub deadline_hit: Vec<String>,
    /// Shapes delivered by a fallback-ladder baseline rung.
    pub fallback_count: u64,
    /// Ids of fallback-delivered shapes (truncated).
    pub fallback: Vec<String>,
    /// Shapes for which every ladder rung failed.
    pub failed_count: u64,
    /// Ids of failed shapes (truncated).
    pub failed: Vec<String>,
    /// Shapes that finished with residual violating pixels
    /// (`on_fail_pixels + off_fail_pixels > 0`).
    pub residual_count: u64,
    /// Ids of residual shapes (truncated).
    pub residual: Vec<String>,
}

impl Anomalies {
    /// Whether no shape raised any flag.
    #[cfg(test)]
    pub(crate) fn is_clean(&self) -> bool {
        self.deadline_hit_count == 0
            && self.fallback_count == 0
            && self.failed_count == 0
            && self.residual_count == 0
    }

    /// Each flag as `(name, exact count, truncated ids)`, in report
    /// order.
    pub(crate) fn flags(&self) -> [(&'static str, u64, &[String]); 4] {
        [
            ("deadline_hit", self.deadline_hit_count, &self.deadline_hit),
            ("fallback", self.fallback_count, &self.fallback),
            ("failed", self.failed_count, &self.failed),
            ("residual", self.residual_count, &self.residual),
        ]
    }

    /// Internal consistency: every id list within its cap and never
    /// longer than its exact count.
    pub(crate) fn check(&self) -> Result<(), String> {
        for (name, count, ids) in self.flags() {
            if ids.len() as u64 > count {
                return Err(format!(
                    "anomaly {name:?} lists {} ids but counts {count}",
                    ids.len()
                ));
            }
            if ids.len() > MAX_ANOMALY_IDS {
                return Err(format!(
                    "anomaly {name:?} exceeds the id cap: {} > {MAX_ANOMALY_IDS}",
                    ids.len()
                ));
            }
        }
        Ok(())
    }
}

/// Flags every anomalous shape among `shapes`.
pub(crate) fn flag_anomalies(shapes: &[ShapeRecord]) -> Anomalies {
    let mut a = Anomalies::default();
    let push = (|count: &mut u64, ids: &mut Vec<String>, id: &str| {
        *count += 1;
        if ids.len() < MAX_ANOMALY_IDS {
            ids.push(id.to_owned());
        }
    }) as fn(&mut u64, &mut Vec<String>, &str);
    for s in shapes {
        if s.deadline_hit {
            push(&mut a.deadline_hit_count, &mut a.deadline_hit, &s.id);
        }
        match s.status.as_str() {
            "fallback" => push(&mut a.fallback_count, &mut a.fallback, &s.id),
            "failed" => push(&mut a.failed_count, &mut a.failed, &s.id),
            _ => {}
        }
        if s.fail_pixels > 0 {
            push(&mut a.residual_count, &mut a.residual, &s.id);
        }
    }
    a
}

/// The worst-`k` shapes by runtime, slowest first (ties broken by id so
/// the table is deterministic).
pub(crate) fn worst_outliers(shapes: &[ShapeRecord], k: usize) -> Vec<OutlierRow> {
    let mut rows: Vec<&ShapeRecord> = shapes.iter().collect();
    rows.sort_by(|a, b| {
        b.runtime_s
            .total_cmp(&a.runtime_s)
            .then_with(|| a.id.cmp(&b.id))
    });
    rows.truncate(k);
    rows.into_iter()
        .map(|s| OutlierRow {
            id: s.id.clone(),
            runtime_s: s.runtime_s,
            shots: s.shots,
            status: s.status.clone(),
            method: s.method.clone(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape(id: &str, status: &str, runtime_s: f64, fail_pixels: usize) -> ShapeRecord {
        ShapeRecord {
            id: id.into(),
            status: status.into(),
            method: "ours".into(),
            shots: 3,
            fail_pixels,
            runtime_s,
            attempts: 1,
            iterations: 5,
            on_fail_pixels: fail_pixels,
            off_fail_pixels: 0,
            cache: "computed".into(),
            deadline_hit: false,
        }
    }

    #[test]
    fn outliers_are_sorted_and_truncated() {
        let shapes: Vec<ShapeRecord> = (0..15)
            .map(|i| shape(&format!("s{i:02}"), "ok", i as f64 * 0.1, 0))
            .collect();
        let rows = worst_outliers(&shapes, 3);
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].id, "s14");
        assert!(rows[0].runtime_s >= rows[1].runtime_s);
        assert!(rows[1].runtime_s >= rows[2].runtime_s);
    }

    #[test]
    fn anomalies_flag_each_condition() {
        let mut slow = shape("deadline", "degraded", 1.0, 4);
        slow.deadline_hit = true;
        let shapes = vec![
            shape("clean", "ok", 0.1, 0),
            slow,
            shape("fb", "fallback", 0.2, 0),
            shape("dead", "failed", 0.0, 0),
        ];
        let a = flag_anomalies(&shapes);
        assert!(!a.is_clean());
        assert_eq!(a.deadline_hit, vec!["deadline"]);
        assert_eq!(a.fallback, vec!["fb"]);
        assert_eq!(a.failed, vec!["dead"]);
        assert_eq!(a.residual, vec!["deadline"]);
        assert_eq!(a.residual_count, 1);
        a.check().expect("consistent");
    }

    #[test]
    fn anomaly_id_lists_truncate_but_counts_do_not() {
        let shapes: Vec<ShapeRecord> = (0..(MAX_ANOMALY_IDS + 9))
            .map(|i| shape(&format!("f{i}"), "fallback", 0.1, 0))
            .collect();
        let a = flag_anomalies(&shapes);
        assert_eq!(a.fallback_count, (MAX_ANOMALY_IDS + 9) as u64);
        assert_eq!(a.fallback.len(), MAX_ANOMALY_IDS);
        a.check().expect("consistent");
    }

    #[test]
    fn clean_run_is_clean() {
        let shapes = vec![shape("a", "ok", 0.1, 0)];
        assert!(flag_anomalies(&shapes).is_clean());
    }
}
