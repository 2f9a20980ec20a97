//! Property-based integration tests: random rectilinear targets are
//! fractured and the solutions re-verified from scratch.

use maskfrac::ebeam::{evaluate, Classification, IntensityMap};
use maskfrac::fracture::{FractureConfig, ModelBasedFracturer};
use maskfrac::geom::rng::{for_cases, StdRng};
use maskfrac::geom::Point;
use maskfrac::geom::{Bitmap, Frame, Polygon, Rect};

/// A connected union of 1–3 chained rectangles on a 12 nm placement
/// grid, so every feature and every step between rects is comfortably
/// printable (≥ 24 nm sides, jogs of 0 or ≥ 12 nm — nearly aligned edges
/// would create few-nm ledges that are physically unfixable at fixed
/// dose within γ = 2 nm at σ = 6.25). `None` (the case is rejected) when
/// the union does not trace to a region of at least 24 × 24 nm.
fn target(rng: &mut StdRng) -> Option<Polygon> {
    const GRID: i64 = 12;
    let mut bm = Bitmap::new(140, 140);
    let mut cursor = (24i64, 24i64);
    for _ in 0..rng.gen_range(1..=3) {
        let (dx, dy) = (rng.gen_range(0..=3), rng.gen_range(0..=3));
        let (w, h) = (rng.gen_range(2..=4) * GRID, rng.gen_range(2..=4) * GRID);
        let x0 = (cursor.0 + (dx - 2) * GRID).clamp(0, 84);
        let y0 = (cursor.1 + (dy - 2) * GRID).clamp(0, 84);
        for iy in y0..(y0 + h).min(139) {
            for ix in x0..(x0 + w).min(139) {
                bm.set(ix as usize, iy as usize, true);
            }
        }
        cursor = (x0 + w / 2 / GRID * GRID, y0 + h / 2 / GRID * GRID);
    }
    // Keep only the largest connected region (chaining usually
    // connects them; if not, the contour picks the biggest).
    bm.largest_outer_contour()
        .filter(|p| p.area() >= 24.0 * 24.0)
}

fn ring(vertices: &[(i64, i64)]) -> Polygon {
    Polygon::new(vertices.iter().map(|&(x, y)| Point::new(x, y)).collect()).expect("simple ring")
}

/// Targets that once failed `fracture_solutions_verify_independently`,
/// run as fixed cases ahead of the random ones.
#[rustfmt::skip]
const REGRESSIONS: [&[(i64, i64)]; 4] = [
    &[(0, 0), (18, 0), (18, 14), (48, 14), (48, 40), (0, 40)],
    &[(0, 0), (34, 0), (34, 36), (39, 36), (39, 53), (45, 53),
      (45, 78), (39, 78), (39, 85), (1, 85), (1, 37), (0, 37)],
    &[(0, 0), (48, 0), (48, 24), (36, 24), (36, 36), (12, 36), (12, 24), (0, 24)],
    &[(0, 0), (36, 0), (36, 12), (48, 12), (48, 60), (24, 60), (24, 96), (0, 96)],
];

fn check_fracture_solution_verifies_independently(target: &Polygon) {
    let cfg = FractureConfig {
        max_iterations: 400,
        ..FractureConfig::default()
    };
    let fracturer = ModelBasedFracturer::new(cfg.clone());
    let result = fracturer.fracture(target);

    // Re-simulate from scratch.
    let cls = Classification::build(target, cfg.gamma, 22);
    let mut map = IntensityMap::new(cfg.model(), cls.frame());
    for s in &result.shots {
        map.add_shot(s);
    }
    let summary = evaluate(&cls, &map);
    assert_eq!(summary.fail_count(), result.summary.fail_count());

    // Invariants: min shot size; all shots near the target.
    let bbox = target.bbox().expand(30).expect("bbox grows");
    for s in &result.shots {
        assert!(s.min_side() >= cfg.min_shot_size);
        assert!(bbox.contains_rect(s), "shot {s} strays far from target");
    }
    // Chained-rect targets are near-ideal inputs, but the union can
    // still form bumps shorter than 2σ whose corners are physically
    // marginal at fixed dose (the paper reports the same residual
    // failing pixels on its wavy shapes). Demand at-most-marginal
    // residues: a handful of pixels, all within a hair of threshold.
    assert!(
        summary.fail_count() <= 4 && summary.cost < 0.25,
        "{summary:?}"
    );
}

#[test]
fn fracture_solutions_verify_independently() {
    for vertices in REGRESSIONS {
        check_fracture_solution_verifies_independently(&ring(vertices));
    }
    for_cases(8, |rng| {
        let Some(target) = target(rng) else {
            return false;
        };
        check_fracture_solution_verifies_independently(&target);
        true
    });
}

#[test]
fn single_rectangles_fracture_to_one_shot() {
    for_cases(8, |rng| {
        let (w, h) = (rng.gen_range(16..=119), rng.gen_range(16..=119));
        let target = Polygon::from_rect(Rect::new(0, 0, w, h).expect("rect"));
        let fracturer = ModelBasedFracturer::new(FractureConfig::default());
        let result = fracturer.fracture(&target);
        assert!(result.summary.is_feasible());
        assert_eq!(result.shot_count(), 1, "shots: {:?}", result.shots);
        // The single shot hugs the rectangle within the corner overhang.
        let s = result.shots[0];
        assert!(s.x0().abs() <= 4 && s.y0().abs() <= 4);
        assert!((s.x1() - w).abs() <= 4 && (s.y1() - h).abs() <= 4);
    });
}

#[test]
fn classification_frames_cover_model_support() {
    // The frame margin used by the pipeline must cover 3 sigma, or Poff
    // constraints would silently vanish at the frame edge.
    let cfg = FractureConfig::default();
    let model = cfg.model();
    let target = Polygon::from_rect(Rect::new(0, 0, 30, 30).expect("rect"));
    let fracturer = ModelBasedFracturer::new(cfg.clone());
    let cls = fracturer.classify(&target);
    let margin_x = -cls.frame().origin().x;
    assert!(margin_x as f64 >= model.support_radius());
    // And the frame is anchored consistently with pixel mapping.
    let f: Frame = cls.frame();
    assert_eq!(
        f.pixel_of(0.5, 0.5).map(|(ix, iy)| f.pixel_center(ix, iy)),
        Some((0.5, 0.5))
    );
}
