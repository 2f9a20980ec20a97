//! Input validation front-door.
//!
//! Mask layouts arrive from external tools and are not trustworthy:
//! sub-resolution slivers, self-touching rings and clip-sized outlines
//! all occur in practice. Feeding them to the pipeline used to produce
//! panics or pathological runtimes deep inside refinement; the
//! front-door rejects them up front with a typed
//! [`FractureError::InvalidTarget`].

use crate::config::FractureConfig;
use crate::error::{FractureError, TargetDefect};
use maskfrac_geom::Region;

/// Largest allowed side of a target's bounding box in nm. The
/// per-shape intensity map is dense in the bbox, so bigger shapes belong
/// to clip-level partitioning upstream, not to this pipeline.
const MAX_EXTENT: i64 = 4096;

/// Validates a target region against `cfg`.
///
/// Checks, in order:
///
/// 1. the region encloses positive area;
/// 2. the bounding box is at least `Lmin` (`cfg.min_shot_size`) on its
///    smaller side — thinner targets admit no legal shot;
/// 3. the bounding box does not exceed 4096 nm on its larger side — the
///    per-shape intensity map is dense in the bbox, so clip-scale
///    geometry must be partitioned upstream;
/// 4. the outer ring and every hole ring are simple polygons.
///
/// # Errors
///
/// The first failing check, as [`FractureError::InvalidTarget`].
pub fn validate_target(target: &Region, cfg: &FractureConfig) -> Result<(), FractureError> {
    if target.area() <= 0.0 {
        return Err(FractureError::InvalidTarget(TargetDefect::Empty));
    }
    let bbox = target.bbox();
    if bbox.min_side() < cfg.min_shot_size {
        return Err(FractureError::InvalidTarget(TargetDefect::TooSmall {
            min_side: bbox.min_side(),
            lmin: cfg.min_shot_size,
        }));
    }
    let extent = bbox.width().max(bbox.height());
    if extent > MAX_EXTENT {
        return Err(FractureError::InvalidTarget(TargetDefect::TooLarge {
            extent,
            max_extent: MAX_EXTENT,
        }));
    }
    if let Err(detail) = target.outer().check_simple() {
        return Err(FractureError::InvalidTarget(TargetDefect::NonSimple {
            hole: None,
            detail,
        }));
    }
    for (i, hole) in target.holes().iter().enumerate() {
        if let Err(detail) = hole.check_simple() {
            return Err(FractureError::InvalidTarget(TargetDefect::NonSimple {
                hole: Some(i),
                detail,
            }));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use maskfrac_geom::{Point, Polygon, Rect};

    fn cfg() -> FractureConfig {
        FractureConfig::default()
    }

    fn square(side: i64) -> Region {
        Region::simple(Polygon::from_rect(Rect::new(0, 0, side, side).unwrap()))
    }

    #[test]
    fn clean_square_passes() {
        assert!(validate_target(&square(50), &cfg()).is_ok());
    }

    #[test]
    fn sliver_is_too_small() {
        let sliver = Region::simple(Polygon::from_rect(Rect::new(0, 0, 50, 4).unwrap()));
        match validate_target(&sliver, &cfg()) {
            Err(FractureError::InvalidTarget(TargetDefect::TooSmall { min_side, lmin })) => {
                assert_eq!(min_side, 4);
                assert_eq!(lmin, 10);
            }
            other => panic!("expected TooSmall, got {other:?}"),
        }
    }

    #[test]
    fn clip_scale_outline_is_too_large() {
        let huge = Region::simple(Polygon::from_rect(Rect::new(0, 0, 100_000, 60).unwrap()));
        match validate_target(&huge, &cfg()) {
            Err(FractureError::InvalidTarget(TargetDefect::TooLarge { extent, .. })) => {
                assert_eq!(extent, 100_000);
            }
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }

    #[test]
    fn bowtie_is_non_simple() {
        // Edges (0,0)-(40,40) and (40,0)-(0,20) cross; the lobes differ
        // in size so the ring's signed area is not zero.
        let bowtie = Polygon::new(vec![
            Point::new(0, 0),
            Point::new(40, 40),
            Point::new(40, 0),
            Point::new(0, 20),
        ])
        .unwrap();
        match validate_target(&Region::simple(bowtie), &cfg()) {
            Err(FractureError::InvalidTarget(TargetDefect::NonSimple { hole: None, .. })) => {}
            other => panic!("expected NonSimple, got {other:?}"),
        }
    }
}
