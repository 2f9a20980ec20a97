//! Per-worker scratch arena for the fracturing hot path.
//!
//! Layout-scale fracturing runs the whole pipeline once per distinct
//! shape; without reuse every shape pays fresh heap allocations for the
//! intensity grid, the class grid, and the refinement engine's candidate
//! cache. [`FractureScratch`] recycles those buffers between shapes on the
//! same worker thread: buffers are taken out of the arena at the start of
//! a stage and handed back (grown, never shrunk) when the stage finishes,
//! so steady-state per-shape allocation drops to zero once the arena has
//! seen the largest shape.
//!
//! The arena is deliberately *lossy under panics*: a stage that unwinds
//! simply never returns its buffers, leaving empty vectors behind. The
//! next shape regrows them — correctness never depends on the arena's
//! contents, only allocation economy does.
//!
//! Reuse is observable through two counters (see `docs/observability.md`):
//! `ebeam.scratch.reuses` counts takes served from an already-large-enough
//! buffer, `ebeam.scratch.grows` counts takes that had to (re)allocate.

use crate::refine::EngineScratch;
use maskfrac_ebeam::PixelClass;

/// Recyclable buffers threaded through
/// [`ModelBasedFracturer`](crate::ModelBasedFracturer) and the refinement
/// engine. One arena per worker thread; never shared.
///
/// # Example
///
/// ```
/// use maskfrac_fracture::{FractureConfig, FractureScratch, ModelBasedFracturer};
/// use maskfrac_geom::{Polygon, Rect};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let fracturer = ModelBasedFracturer::new(FractureConfig::default());
/// let mut scratch = FractureScratch::new();
/// for side in [40, 50, 60] {
///     let target = Polygon::from_rect(Rect::new(0, 0, side, side).expect("rect"));
///     // One arena for every shape: buffers are reused, results unchanged.
///     let result = fracturer.try_fracture(&target.into(), &mut scratch)?;
///     assert!(result.summary.is_feasible());
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct FractureScratch {
    map_values: Vec<f64>,
    classes: Vec<PixelClass>,
    pub(crate) engine: EngineScratch,
}

impl FractureScratch {
    /// Creates an empty arena. Buffers grow on first use.
    pub fn new() -> Self {
        FractureScratch::default()
    }

    /// Takes the intensity-grid buffer for a map of `needed` pixels.
    pub(crate) fn take_map_values(&mut self, needed: usize) -> Vec<f64> {
        note_take(self.map_values.capacity(), needed);
        std::mem::take(&mut self.map_values)
    }

    /// Returns the intensity-grid buffer to the arena.
    pub(crate) fn put_map_values(&mut self, values: Vec<f64>) {
        // Keep the larger buffer: nested stages (reduction sweep inside
        // the pipeline) may hand back more than one candidate.
        if values.capacity() > self.map_values.capacity() {
            self.map_values = values;
        }
    }

    /// Takes the class-grid buffer for a frame of `needed` pixels.
    pub(crate) fn take_classes(&mut self, needed: usize) -> Vec<PixelClass> {
        note_take(self.classes.capacity(), needed);
        std::mem::take(&mut self.classes)
    }

    /// Returns the class-grid buffer to the arena.
    pub(crate) fn put_classes(&mut self, classes: Vec<PixelClass>) {
        if classes.capacity() > self.classes.capacity() {
            self.classes = classes;
        }
    }
}

/// Records whether a take was served without reallocation.
fn note_take(capacity: usize, needed: usize) {
    if capacity >= needed && needed > 0 {
        maskfrac_obs::counter!("ebeam.scratch.reuses").incr();
    } else {
        maskfrac_obs::counter!("ebeam.scratch.grows").incr();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_are_grow_only_and_keep_the_larger() {
        let mut s = FractureScratch::new();
        let mut big = s.take_map_values(8);
        big.resize(1000, 0.0);
        s.put_map_values(big);
        let cap = s.map_values.capacity();
        assert!(cap >= 1000);
        // Handing back a smaller buffer must not shrink the arena.
        s.put_map_values(Vec::with_capacity(10));
        assert_eq!(s.map_values.capacity(), cap);
        // A take for anything that fits is a reuse.
        let again = s.take_map_values(500);
        assert!(again.capacity() >= 1000);
    }
}
