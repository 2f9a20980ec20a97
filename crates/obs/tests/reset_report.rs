//! A run report captured after `Registry::reset` validates.
//!
//! Its own test binary: the metrics registry is process-global, and a
//! reset would race the other tests' spans.

use maskfrac_obs::{registry, span, RunReport};
use std::time::Instant;

#[test]
fn report_after_reset_validates() {
    let started = Instant::now();
    drop(span("reset_report.stage"));
    assert_eq!(registry().snapshot().stages["reset_report.stage"].count, 1);
    registry().reset();
    let report = RunReport::capture("reset_report", started);
    assert!(
        !report.stages.contains_key("reset_report.stage"),
        "a stage with no spans since the reset is reported"
    );
    assert_eq!(report.validate(), Ok(()));
}
