//! Live progress snapshots for long layout runs.
//!
//! [`ProgressSampler::start`] spawns one sampler thread that wakes every
//! `interval` and prints a single stderr line built from the global
//! [`Registry`](crate::Registry)'s atomic counters:
//!
//! ```text
//! [progress] 4.0s shapes 118/512 shots 1204 cache-hit 38.2%
//! ```
//!
//! The sampler only *reads* relaxed atomics — workers are never paused,
//! no locks are shared with the hot path, and output goes to stderr so
//! stdout results stay machine-parsable. Counter handles are resolved
//! once up front; the loop itself does no registry-map lookups.
//!
//! The `cache-hit` ratio spans *both* dedup tiers: the layout driver's
//! per-run dedup (`mdp.cache.*`) and the persistent `--geom-cache` disk
//! tier (`mdp.geomcache.*`) — a warm disk cache therefore reports its
//! true hit rate even though every disk hit is also a dedup miss.
//!
//! Counters are process-global and cumulative, so the sampler records a
//! baseline at start and reports deltas — a second run in the same
//! process starts from zero again.
//!
//! Stop it explicitly with [`ProgressSampler::stop`] (prints one final
//! line — even when the whole run finished inside the first interval —
//! and returns that final snapshot) or just drop it (same final line,
//! no snapshot back). Both signal a condvar, so shutdown is prompt even
//! with a long interval.

use crate::metrics::{counter, Counter};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Counters the sampler reads, resolved once at start.
struct Sources {
    shapes: &'static Counter,
    shots: &'static Counter,
    cache_hits: &'static Counter,
    cache_misses: &'static Counter,
    geom_hits: &'static Counter,
}

impl Sources {
    fn resolve() -> Self {
        Sources {
            shapes: counter("mdp.shapes_fractured"),
            shots: counter("fracture.shots_emitted"),
            cache_hits: counter("mdp.cache.hits"),
            cache_misses: counter("mdp.cache.misses"),
            geom_hits: counter("mdp.geomcache.hits"),
        }
    }

    /// Hits across both tiers. A disk hit is recorded as a dedup miss
    /// *and* a `mdp.geomcache.hits`, so the sum never double counts.
    fn hits(&self) -> u64 {
        self.cache_hits.get() + self.geom_hits.get()
    }

    /// Cache lookups: every library entry served outside a journal
    /// replay is one dedup hit or miss, and every disk consultation
    /// happens inside one of those misses.
    fn lookups(&self) -> u64 {
        self.cache_hits.get() + self.cache_misses.get()
    }

    fn snapshot(
        &self,
        baseline: &ProgressSnapshot,
        elapsed: Duration,
        total: Option<u64>,
    ) -> ProgressSnapshot {
        ProgressSnapshot {
            elapsed_s: elapsed.as_secs_f64(),
            shapes_done: self.shapes.get().saturating_sub(baseline.shapes_done),
            total_shapes: total,
            shots: self.shots.get().saturating_sub(baseline.shots),
            cache_hits: self.hits().saturating_sub(baseline.cache_hits),
            cache_lookups: self.lookups().saturating_sub(baseline.cache_lookups),
        }
    }

    fn baseline(&self) -> ProgressSnapshot {
        ProgressSnapshot {
            elapsed_s: 0.0,
            shapes_done: self.shapes.get(),
            total_shapes: None,
            shots: self.shots.get(),
            cache_hits: self.hits(),
            cache_lookups: self.lookups(),
        }
    }
}

/// One progress observation; `line` renders the stderr row.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgressSnapshot {
    /// Seconds since the sampler started.
    pub elapsed_s: f64,
    /// Shapes fractured so far (delta from sampler start).
    pub shapes_done: u64,
    /// Expected shape total when the caller knows it.
    pub total_shapes: Option<u64>,
    /// Shots emitted so far (delta from sampler start).
    pub shots: u64,
    /// Cache hits so far across both dedup tiers — per-run dedup
    /// (`mdp.cache.hits`) plus persistent disk (`mdp.geomcache.hits`)
    /// — as a delta from sampler start.
    pub cache_hits: u64,
    /// Distinct cache lookups so far across both tiers (delta from
    /// sampler start); see the module docs for the tier accounting.
    pub cache_lookups: u64,
}

impl ProgressSnapshot {
    /// Renders the snapshot as the stderr progress line (no newline).
    pub(crate) fn line(&self) -> String {
        let shapes = match self.total_shapes {
            Some(total) => format!("{}/{}", self.shapes_done, total),
            None => self.shapes_done.to_string(),
        };
        let cache = if self.cache_lookups == 0 {
            "-".to_owned()
        } else {
            format!(
                "{:.1}%",
                100.0 * self.cache_hits as f64 / self.cache_lookups as f64
            )
        };
        format!(
            "[progress] {:.1}s shapes {shapes} shots {} cache-hit {cache}",
            self.elapsed_s, self.shots
        )
    }
}

/// Periodic stderr progress reporter; see the module docs.
#[derive(Debug)]
pub struct ProgressSampler {
    gate: Arc<(Mutex<bool>, Condvar)>,
    latest: Arc<Mutex<Option<ProgressSnapshot>>>,
    handle: Option<JoinHandle<()>>,
}

impl ProgressSampler {
    /// Starts a sampler printing every `interval`. Pass `total_shapes`
    /// when the caller knows the layout's shape count so lines read
    /// `shapes 118/512` instead of `shapes 118`.
    pub fn start(interval: Duration, total_shapes: Option<u64>) -> Self {
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let latest = Arc::new(Mutex::new(None));
        let thread_gate = Arc::clone(&gate);
        let thread_latest = Arc::clone(&latest);
        let sources = Sources::resolve();
        let baseline = sources.baseline();
        let started = Instant::now();
        let handle = std::thread::Builder::new()
            .name("obs-progress".into())
            .spawn(move || {
                let (stop, cv) = &*thread_gate;
                let mut stopped = match stop.lock() {
                    Ok(g) => g,
                    Err(_) => return,
                };
                loop {
                    // Re-check the flag before parking: stop() may have
                    // signalled between this thread's spawn and its
                    // first wait, and a condvar notify with no waiter
                    // is lost — parking after it would sleep out the
                    // whole interval.
                    let timed_out = if *stopped {
                        false
                    } else {
                        match cv.wait_timeout(stopped, interval) {
                            Ok((next, timeout)) => {
                                stopped = next;
                                timeout.timed_out()
                            }
                            Err(_) => return,
                        }
                    };
                    let snap = sources.snapshot(&baseline, started.elapsed(), total_shapes);
                    if let Ok(mut slot) = thread_latest.lock() {
                        *slot = Some(snap.clone());
                    }
                    if *stopped {
                        // Final line, so runs shorter than the interval
                        // still report their totals.
                        eprintln!("{}", snap.line());
                        return;
                    }
                    if timed_out {
                        eprintln!("{}", snap.line());
                    }
                }
            })
            .ok();
        ProgressSampler {
            gate,
            latest,
            handle,
        }
    }

    /// Stops the sampler and returns its final snapshot; the thread
    /// prints one final progress line first, so even runs shorter than
    /// the interval report their totals. `None` only if the sampler
    /// thread could not run at all.
    pub fn stop(mut self) -> Option<ProgressSnapshot> {
        self.signal_stop();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
        self.latest
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .clone()
    }

    fn signal_stop(&self) {
        let (stop, cv) = &*self.gate;
        if let Ok(mut stopped) = stop.lock() {
            *stopped = true;
        }
        cv.notify_all();
    }
}

impl Drop for ProgressSampler {
    fn drop(&mut self) {
        self.signal_stop();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_formats_with_and_without_total() {
        let snap = ProgressSnapshot {
            elapsed_s: 4.05,
            shapes_done: 118,
            total_shapes: Some(512),
            shots: 1204,
            cache_hits: 382,
            cache_lookups: 1000,
        };
        assert_eq!(
            snap.line(),
            "[progress] 4.0s shapes 118/512 shots 1204 cache-hit 38.2%"
        );
        let open = ProgressSnapshot {
            total_shapes: None,
            cache_lookups: 0,
            ..snap
        };
        assert_eq!(open.line(), "[progress] 4.0s shapes 118 shots 1204 cache-hit -");
    }

    #[test]
    fn sampler_starts_and_stops_promptly() {
        let started = Instant::now();
        let sampler = ProgressSampler::start(Duration::from_secs(3600), None);
        drop(sampler); // must not wait out the hour-long interval
        assert!(started.elapsed() < Duration::from_secs(30));
    }

    #[test]
    fn snapshots_are_deltas_from_the_baseline() {
        let sources = Sources::resolve();
        let baseline = sources.baseline();
        counter("mdp.shapes_fractured").add(7);
        counter("fracture.shots_emitted").add(21);
        let snap = sources.snapshot(&baseline, Duration::from_millis(1500), Some(9));
        assert!(snap.shapes_done >= 7);
        assert!(snap.shots >= 21);
        assert_eq!(snap.total_shapes, Some(9));
        assert!((snap.elapsed_s - 1.5).abs() < 1e-9);
    }

    #[test]
    fn cache_ratio_includes_the_disk_tier() {
        let sources = Sources::resolve();
        let baseline = sources.baseline();
        // A warm --geom-cache run: every lookup misses the per-run
        // dedup, but three of four geometries come back from disk.
        counter("mdp.cache.misses").add(4);
        counter("mdp.geomcache.hits").add(3);
        counter("mdp.geomcache.misses").add(1);
        let snap = sources.snapshot(&baseline, Duration::from_secs(1), None);
        assert!(
            snap.cache_hits >= 3,
            "disk hits must count as cache hits, got {}",
            snap.cache_hits
        );
        assert!(
            snap.cache_lookups >= 4,
            "disk lookups must not inflate the denominator, got {}",
            snap.cache_lookups
        );
        assert!(
            snap.cache_hits <= snap.cache_lookups,
            "ratio must stay <= 100%: {} / {}",
            snap.cache_hits,
            snap.cache_lookups
        );
    }

    #[test]
    fn final_snapshot_is_returned_for_sub_interval_runs() {
        // Hour-long interval: the run "finishes" before the first tick,
        // yet stop() still produces the final observation.
        let sampler = ProgressSampler::start(Duration::from_secs(3600), Some(5));
        counter("mdp.shapes_fractured").add(2);
        let snap = sampler.stop().expect("final snapshot");
        assert_eq!(snap.total_shapes, Some(5));
        assert!(snap.shapes_done >= 2);
    }
}
