//! Property-based tests for the fracturing pipeline's building blocks.

use maskfrac_ebeam::{Classification, PixelClass};
use maskfrac_fracture::corner::{cluster_corners, extract_shot_corners};
use maskfrac_fracture::refine::{polish_edges, reduce_shots, refine};
use maskfrac_fracture::{CornerType, FractureConfig, FractureScratch};
use maskfrac_geom::rng::{for_cases, StdRng};
use maskfrac_geom::{Point, Polygon, Rect};

fn rect_polygon(rng: &mut StdRng) -> Polygon {
    let (w, h) = (rng.gen_range(20..=79), rng.gen_range(20..=79));
    Polygon::from_rect(Rect::new(0, 0, w, h).expect("rect"))
}

fn l_polygon_with(w: i64, h: i64, aw: i64, ah: i64) -> Polygon {
    Polygon::new(vec![
        Point::new(0, 0),
        Point::new(w, 0),
        Point::new(w, ah),
        Point::new(aw, ah),
        Point::new(aw, h),
        Point::new(0, h),
    ])
    .expect("simple L")
}

fn l_polygon(rng: &mut StdRng) -> Polygon {
    // Arm widths >= 28 nm keep interior spikes and overlaps comfortably
    // printable at the paper's sigma.
    let (w, h) = (rng.gen_range(60..=99), rng.gen_range(60..=99));
    let (aw, ah) = (rng.gen_range(28..=41), rng.gen_range(28..=41));
    l_polygon_with(w, h, aw, ah)
}

#[test]
fn corner_extraction_covers_all_sides() {
    for_cases(16, |rng| {
        let poly = rect_polygon(rng);
        let lth = rng.gen_range(6.0..16.0);
        let corners = extract_shot_corners(&poly, lth, 2.4, 3.4);
        // A rectangle with sides >= lth yields one merged corner per type.
        if poly.bbox().min_side() as f64 >= lth {
            assert_eq!(corners.len(), 4);
            for kind in [
                CornerType::BottomLeft,
                CornerType::BottomRight,
                CornerType::TopLeft,
                CornerType::TopRight,
            ] {
                assert_eq!(corners.iter().filter(|c| c.kind == kind).count(), 1);
            }
        }
        // Clustering never increases the count and preserves types present.
        let clustered = cluster_corners(&corners, lth);
        assert!(clustered.len() <= corners.len());
    });
}

fn check_refine_respects_min_size_and_improves(poly: &Polygon) {
    let cfg = FractureConfig {
        max_iterations: 250,
        ..FractureConfig::default()
    };
    let model = cfg.model();
    let cls = Classification::build(poly, cfg.gamma, model.support_radius_px() + 2);
    // Deliberately poor initial solution: one min-size shot in a corner.
    let seed = vec![Rect::new(2, 2, 2 + cfg.min_shot_size, 2 + cfg.min_shot_size).expect("rect")];
    let out = refine(&cls, &model, &cfg, seed);
    for s in &out.shots {
        assert!(s.min_side() >= cfg.min_shot_size);
    }
    // Refinement must improve on the seed's violation count massively.
    let frame = cls.frame();
    let on = (0..frame.height())
        .flat_map(|iy| (0..frame.width()).map(move |ix| (ix, iy)))
        .filter(|&(ix, iy)| cls.class(ix, iy) == PixelClass::On)
        .count();
    assert!(out.summary.fail_count() < on / 2);
}

#[test]
fn refine_respects_min_size_and_improves() {
    for_cases(16, |rng| {
        check_refine_respects_min_size_and_improves(&l_polygon(rng))
    });
}

/// Returns `false` (rejecting the input) when the L's arms do not admit a
/// feasible spiked solution to start from.
fn check_reduce_shots_never_worsens(poly: &Polygon) -> bool {
    let cfg = FractureConfig {
        max_iterations: 300,
        ..FractureConfig::default()
    };
    let model = cfg.model();
    let cls = Classification::build(poly, cfg.gamma, model.support_radius_px() + 2);
    // Obtain a feasible solution first, then spike it with a
    // redundant interior shot; the sweep must remove it again.
    let verts = poly.vertices();
    let (aw, ah) = (verts[3].x, verts[2].y);
    let bbox = poly.bbox();
    let seed = vec![
        Rect::new(0, 0, bbox.x1(), ah).expect("arm 1"),
        Rect::new(0, 0, aw, bbox.y1()).expect("arm 2"),
    ];
    let feasible = refine(&cls, &model, &cfg, seed);
    if !feasible.summary.is_feasible() {
        return false;
    }
    let mut spiked = feasible.shots.clone();
    // Redundant shot at the centre of the bottom arm, >= 10 nm from
    // every boundary so the extra dose bleeds nowhere harmful.
    let (cx, cy) = (bbox.x1() / 2, ah / 2);
    spiked.push(Rect::new(cx - 5, cy - 5, cx + 5, cy + 5).expect("interior"));
    if !maskfrac_fracture::verify_shots(poly, &spiked, &cfg).is_feasible() {
        return false;
    }
    let out = reduce_shots(
        &cls,
        &model,
        &cfg,
        spiked.clone(),
        None,
        &mut FractureScratch::new(),
    );
    assert!(out.summary.is_feasible());
    assert!(
        out.shots.len() < spiked.len(),
        "redundant shot must go: {:?}",
        out.shots
    );
    true
}

#[test]
fn reduce_shots_never_worsens() {
    for_cases(16, |rng| check_reduce_shots_never_worsens(&l_polygon(rng)));
}

#[test]
fn polish_edges_preserves_shot_count() {
    for_cases(16, |rng| {
        let poly = rect_polygon(rng);
        let cfg = FractureConfig::default();
        let model = cfg.model();
        let cls = Classification::build(&poly, cfg.gamma, model.support_radius_px() + 2);
        let bbox = poly.bbox();
        // Slightly offset cover.
        let shots = vec![Rect::new(2, -2, bbox.x1() + 2, bbox.y1() - 2).expect("rect")];
        let out = polish_edges(&cls, &model, &cfg, shots.clone(), 120);
        assert_eq!(out.shots.len(), shots.len());
        let before = maskfrac_fracture::verify_shots(&poly, &shots, &cfg);
        assert!(out.summary.cost <= before.cost + 1e-9);
    });
}

// Robustness: the validating front door either fractures a rectangle
// or rejects it with a typed error — it never panics, whatever the
// dimensions.
#[test]
fn try_fracture_never_panics_on_rect_targets() {
    for_cases(8, |rng| {
        let (w, h) = (rng.gen_range(1..=69), rng.gen_range(1..=69));
        let f = maskfrac_fracture::ModelBasedFracturer::new(FractureConfig::default());
        let poly = Polygon::from_rect(Rect::new(0, 0, w, h).expect("rect"));
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            f.try_fracture(&poly.into(), &mut FractureScratch::new())
        }));
        assert!(outcome.is_ok(), "panicked on {w}x{h}");
        if let Ok(Ok(r)) = outcome {
            assert!(r.status.is_usable());
        }
    });
}

mod degenerate_inputs {
    use maskfrac_fracture::{
        FractureConfig, FractureError, FractureResult, FractureScratch, ModelBasedFracturer,
        TargetDefect,
    };
    use maskfrac_geom::{Point, Polygon, Rect};

    fn fracturer() -> ModelBasedFracturer {
        ModelBasedFracturer::new(FractureConfig::default())
    }

    fn try_fracture(target: Polygon) -> Result<FractureResult, FractureError> {
        fracturer().try_fracture(&target.into(), &mut FractureScratch::new())
    }

    #[test]
    fn empty_or_flat_rings_are_typed_construction_errors() {
        assert!(Polygon::new(vec![]).is_err());
        assert!(Polygon::new(vec![Point::new(0, 0), Point::new(10, 0)]).is_err());
        // Collinear ring: zero area.
        assert!(
            Polygon::new(vec![Point::new(0, 0), Point::new(10, 0), Point::new(20, 0)]).is_err()
        );
    }

    #[test]
    fn single_pixel_target_is_rejected_not_panicked() {
        let err = try_fracture(Polygon::from_rect(Rect::new(0, 0, 1, 1).unwrap())).unwrap_err();
        assert!(
            matches!(
                err,
                FractureError::InvalidTarget(TargetDefect::TooSmall { .. })
            ),
            "{err:?}"
        );
    }

    #[test]
    fn sub_lmin_sliver_is_rejected() {
        let cfg = FractureConfig::default();
        let sliver = Polygon::from_rect(Rect::new(0, 0, 60, cfg.min_shot_size - 1).unwrap());
        let err = try_fracture(sliver).unwrap_err();
        match err {
            FractureError::InvalidTarget(TargetDefect::TooSmall { min_side, lmin }) => {
                assert_eq!(min_side, cfg.min_shot_size - 1);
                assert_eq!(lmin, cfg.min_shot_size);
            }
            other => panic!("expected TooSmall, got {other:?}"),
        }
    }

    #[test]
    fn self_touching_ring_is_rejected() {
        // Two squares pinched together at (10, 10).
        let pinch = Polygon::new(vec![
            Point::new(0, 0),
            Point::new(10, 0),
            Point::new(10, 10),
            Point::new(20, 10),
            Point::new(20, 20),
            Point::new(10, 20),
            Point::new(10, 10),
            Point::new(0, 10),
        ])
        .unwrap();
        let err = try_fracture(pinch).unwrap_err();
        assert!(
            matches!(
                err,
                FractureError::InvalidTarget(TargetDefect::NonSimple { .. })
            ),
            "{err:?}"
        );
    }

    #[test]
    fn oversized_target_is_rejected_before_gridding() {
        // Far beyond max_extent: must be rejected by arithmetic on the
        // bbox, long before an intensity-map grid could be allocated.
        let huge = Polygon::from_rect(Rect::new(0, 0, 1_000_000, 1_000_000).unwrap());
        let started = std::time::Instant::now();
        let err = try_fracture(huge).unwrap_err();
        assert!(started.elapsed() < std::time::Duration::from_secs(1));
        assert!(
            matches!(
                err,
                FractureError::InvalidTarget(TargetDefect::TooLarge { .. })
            ),
            "{err:?}"
        );
    }
}
