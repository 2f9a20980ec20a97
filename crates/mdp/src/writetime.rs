//! VSB mask write-time estimation.
//!
//! "The number of shots is proportional to mask write time" (paper §1,
//! citing the write-time-estimation literature). A variable-shaped-beam
//! tool exposes one rectangle per flash; per shot it pays the exposure
//! flash itself plus deflection/settling overhead, and periodically the
//! mechanical stage moves between writing fields. This module provides
//! that first-order model so shot-count savings can be expressed in
//! hours of tool time.


/// First-order VSB write-time model.
///
/// Defaults are calibrated so that a modern critical mask
/// (~10¹⁰–10¹¹ shots) lands in the "more than two days" regime the paper
/// quotes from the 2013 mask-industry survey.
#[derive(Debug, Clone, PartialEq)]
pub struct WriteTimeModel {
    /// Exposure flash time per shot, seconds (dose / current density).
    pub flash_s: f64,
    /// Beam deflection + settle overhead per shot, seconds.
    pub settle_s: f64,
    /// Stage-move overhead per writing field, seconds.
    pub stage_move_s: f64,
    /// Shots per writing field (sets how often the stage moves).
    pub shots_per_field: u64,
}

impl Default for WriteTimeModel {
    fn default() -> Self {
        WriteTimeModel {
            flash_s: 0.4e-6,
            settle_s: 0.6e-6,
            stage_move_s: 0.01,
            shots_per_field: 5_000,
        }
    }
}

/// Estimated write time for a shot count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WriteTimeReport {
    /// Total shots.
    pub shots: u64,
    /// Beam time (flash + settle), seconds.
    pub beam_s: f64,
    /// Stage overhead, seconds.
    pub stage_s: f64,
}

impl WriteTimeReport {
    /// Total write time in seconds.
    pub fn total_s(&self) -> f64 {
        self.beam_s + self.stage_s
    }

    /// Total write time in hours.
    pub fn total_hours(&self) -> f64 {
        self.total_s() / 3600.0
    }
}

impl WriteTimeModel {
    /// Estimates the write time for `shots` shots.
    pub fn estimate(&self, shots: u64) -> WriteTimeReport {
        let beam_s = shots as f64 * (self.flash_s + self.settle_s);
        let fields = shots.div_ceil(self.shots_per_field.max(1));
        let stage_s = fields as f64 * self.stage_move_s;
        WriteTimeReport {
            shots,
            beam_s,
            stage_s,
        }
    }

    /// Relative write-time change from `before` to `after` shots
    /// (negative = faster). With per-shot costs dominating, this tracks
    /// the shot-count change almost exactly — the proportionality the
    /// paper leans on.
    pub(crate) fn relative_change(&self, before: u64, after: u64) -> f64 {
        let b = self.estimate(before).total_s();
        if b == 0.0 {
            return 0.0;
        }
        (self.estimate(after).total_s() - b) / b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_time_is_monotone_in_shots() {
        let m = WriteTimeModel::default();
        let a = m.estimate(1_000_000).total_s();
        let b = m.estimate(2_000_000).total_s();
        assert!(b > a);
        // Near-proportional: doubling shots ≈ doubles time.
        assert!((b / a - 2.0).abs() < 0.01);
    }

    #[test]
    fn critical_mask_takes_days() {
        // ~2×10^11 shots is a heavy multi-patterning critical layer.
        let m = WriteTimeModel::default();
        let report = m.estimate(200_000_000_000);
        assert!(
            report.total_hours() > 48.0,
            "got {:.1} h",
            report.total_hours()
        );
    }

    #[test]
    fn ten_percent_fewer_shots_is_ten_percent_faster() {
        let m = WriteTimeModel::default();
        let change = m.relative_change(1_000_000_000, 900_000_000);
        assert!((change + 0.10).abs() < 0.005, "change = {change}");
    }

    #[test]
    fn stage_overhead_counts_fields() {
        let m = WriteTimeModel {
            stage_move_s: 1.0,
            shots_per_field: 100,
            ..WriteTimeModel::default()
        };
        let r = m.estimate(250);
        assert_eq!(r.stage_s, 3.0, "ceil(250/100) = 3 fields");
        assert_eq!(r.shots, 250);
    }

    #[test]
    fn zero_shots_zero_time() {
        let m = WriteTimeModel::default();
        let r = m.estimate(0);
        assert_eq!(r.total_s(), 0.0);
        assert_eq!(m.relative_change(0, 100), 0.0);
    }
}
