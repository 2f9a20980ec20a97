//! Integration tests for the region (polygon-with-holes) pipeline.

use maskfrac::fracture::{FractureConfig, FractureScratch, ModelBasedFracturer};
use maskfrac::geom::{Polygon, Rect, Region};
use maskfrac::shapes::ilt::{generate_ilt_donut, IltParams};

#[test]
fn donut_suite_fractures_with_tiny_residues() {
    let fracturer = ModelBasedFracturer::new(FractureConfig::default());
    for seed in [11u64, 23, 47] {
        let donut = generate_ilt_donut(&IltParams {
            base_radius: 52.0,
            seed,
            ..IltParams::default()
        });
        let result = fracturer
            .try_fracture(&donut, &mut FractureScratch::new())
            .expect("a valid donut");
        assert!(
            result.summary.fail_count() <= 4,
            "seed {seed}: {:?}",
            result.summary
        );
        // If the donut actually has a hole, no shot may fully blanket it.
        if let Some(hole) = donut.holes().first() {
            let hb = hole.bbox();
            let (hx, hy) = (
                (hb.x0() + hb.x1()) as f64 / 2.0,
                (hb.y0() + hb.y1()) as f64 / 2.0,
            );
            // The hole centre pixel must not print: re-simulate and check.
            let cls = maskfrac::ebeam::Classification::build_region(
                &donut,
                FractureConfig::default().gamma,
                fracturer.model().support_radius_px() + 2,
            );
            let mut map =
                maskfrac::ebeam::IntensityMap::new(fracturer.model().clone(), cls.frame());
            for s in &result.shots {
                map.add_shot(s);
            }
            let (ix, iy) = cls.frame().pixel_of(hx, hy).expect("hole centre in frame");
            assert!(
                map.value(ix, iy) < fracturer.model().rho(),
                "seed {seed}: hole centre prints at {:.3}",
                map.value(ix, iy)
            );
        }
    }
}

#[test]
fn square_annulus_classification_marks_hole_as_off() {
    use maskfrac::ebeam::{Classification, PixelClass};
    let outer = Polygon::from_rect(Rect::new(0, 0, 90, 90).expect("rect"));
    let hole = Polygon::from_rect(Rect::new(30, 30, 60, 60).expect("rect"));
    let donut = Region::new(outer, vec![hole]).expect("hole inside");
    let cls = Classification::build_region(&donut, 2.0, 22);
    let frame = cls.frame();
    let (cx, cy) = frame.pixel_of(45.0, 45.0).expect("hole centre");
    assert_eq!(cls.class(cx, cy), PixelClass::Off);
    let (rx, ry) = frame.pixel_of(15.0, 45.0).expect("rim");
    assert_eq!(cls.class(rx, ry), PixelClass::On);
    // Hole boundary has its own band.
    let (bx, by) = frame.pixel_of(30.5, 45.0).expect("hole edge");
    assert_eq!(cls.class(bx, by), PixelClass::Band);
}

#[test]
fn hole_boundaries_contribute_corner_points() {
    use maskfrac::fracture::approximate_fracture_region;
    let cfg = FractureConfig::default();
    let model = cfg.model();
    let outer = Polygon::from_rect(Rect::new(0, 0, 100, 100).expect("rect"));
    let hole = Polygon::from_rect(Rect::new(35, 35, 65, 65).expect("rect"));
    let donut = Region::new(outer, vec![hole]).expect("hole inside");
    let cls = maskfrac::ebeam::Classification::build_region(&donut, cfg.gamma, 22);
    let lth = ModelBasedFracturer::new(cfg.clone()).lth();
    let approx = approximate_fracture_region(&donut, &cls, &model, &cfg, lth);
    // Corner points must appear both outside the outer ring and around
    // the hole (strictly inside the outer bbox but near the hole).
    let near_hole = approx
        .corners
        .iter()
        .filter(|c| (25..=75).contains(&c.pos.x) && (25..=75).contains(&c.pos.y))
        .count();
    assert!(near_hole >= 4, "hole contributed {near_hole} corner points");
    let outer_ring = approx
        .corners
        .iter()
        .filter(|c| c.pos.x < 10 || c.pos.x > 90 || c.pos.y < 10 || c.pos.y > 90)
        .count();
    assert!(outer_ring >= 4, "outer ring contributed {outer_ring}");
}
