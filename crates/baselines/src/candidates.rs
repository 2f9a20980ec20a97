//! Shared candidate-rectangle generation for the cover-style baselines.
//!
//! Greedy set cover and matching pursuit both search over a finite pool of
//! axis-parallel candidate shots. The pool is spanned by the coordinate
//! grid of the RDP-simplified target boundary (plus small corner-inset
//! offsets), which is how the published heuristics keep the candidate
//! space tractable: interesting shot edges align with target features.

use maskfrac_ebeam::Classification;
use maskfrac_fracture::FractureConfig;
use maskfrac_geom::rdp::simplify_ring;
use maskfrac_geom::sat::Sat;
use maskfrac_geom::{Polygon, Rect};

/// Maximum coordinates kept per axis; the grid is thinned evenly beyond.
/// The inside-fraction test is O(1) via a summed-area table, so the pool
/// can afford a fine grid.
const MAX_COORDS_PER_AXIS: usize = 36;

/// Fraction of a candidate's pixels that must be on target pixels.
fn candidate_pool(
    target: &Polygon,
    cls: &Classification,
    cfg: &FractureConfig,
    min_inside: f64,
) -> Vec<Rect> {
    let simplified = simplify_ring(target, cfg.gamma);
    let inset = 2i64; // corner-inset-scale offsets enrich the grid
    let mut xs: Vec<i64> = Vec::new();
    let mut ys: Vec<i64> = Vec::new();
    for v in simplified.vertices() {
        xs.extend([v.x - inset, v.x, v.x + inset]);
        ys.extend([v.y - inset, v.y, v.y + inset]);
    }
    xs.sort_unstable();
    xs.dedup();
    ys.sort_unstable();
    ys.dedup();
    thin(&mut xs, MAX_COORDS_PER_AXIS);
    thin(&mut ys, MAX_COORDS_PER_AXIS);

    let sat = Sat::build(cls.target_bitmap());
    let frame = cls.frame();
    let mut pool = Vec::new();
    for (i, &x0) in xs.iter().enumerate() {
        for &x1 in &xs[i + 1..] {
            if x1 - x0 < cfg.min_shot_size {
                continue;
            }
            for (j, &y0) in ys.iter().enumerate() {
                for &y1 in &ys[j + 1..] {
                    if y1 - y0 < cfg.min_shot_size {
                        continue;
                    }
                    let r = Rect::new(x0, y0, x1, y1).expect("ordered coords");
                    let inside = sat.count(
                        frame.clamp_x_range(r.x0() as f64, r.x1() as f64),
                        frame.clamp_y_range(r.y0() as f64, r.y1() as f64),
                    );
                    if inside as f64 / r.area() as f64 >= min_inside {
                        pool.push(r);
                    }
                }
            }
        }
    }
    pool
}

/// Candidates for greedy set cover: rectangles essentially inside the
/// target (so adding one cannot create meaningful `Poff` violations).
pub(crate) fn cover_candidates(
    target: &Polygon,
    cls: &Classification,
    cfg: &FractureConfig,
) -> Vec<Rect> {
    // Fully inside: a single interior shot can never violate `Poff`
    // (only stacked boundary overlaps can), so the cover loop stays clean.
    candidate_pool(target, cls, cfg, 0.999)
}

/// Candidates for matching pursuit: a looser pool — the correlation score
/// itself penalizes hanging outside the target.
pub(crate) fn pursuit_candidates(
    target: &Polygon,
    cls: &Classification,
    cfg: &FractureConfig,
) -> Vec<Rect> {
    candidate_pool(target, cls, cfg, 0.60)
}

/// Fraction of the rectangle's pixels (by its own area) whose centres are
/// target pixels.
#[cfg(test)]
pub(crate) fn fraction_on_target(cls: &Classification, rect: &Rect) -> f64 {
    if rect.is_degenerate() {
        return 0.0;
    }
    let frame = cls.frame();
    let xs = frame.clamp_x_range(rect.x0() as f64, rect.x1() as f64);
    let ys = frame.clamp_y_range(rect.y0() as f64, rect.y1() as f64);
    let mut inside = 0i64;
    for iy in ys {
        for ix in xs.clone() {
            if cls.target_bitmap().get(ix, iy) {
                inside += 1;
            }
        }
    }
    inside as f64 / rect.area() as f64
}

fn thin(coords: &mut Vec<i64>, max: usize) {
    if coords.len() <= max {
        return;
    }
    let n = coords.len();
    let kept: Vec<i64> = (0..max)
        .map(|i| coords[i * (n - 1) / (max - 1)])
        .collect();
    *coords = kept;
    coords.dedup();
}

#[cfg(test)]
mod tests {
    use super::*;
    use maskfrac_geom::Point;

    fn setup() -> (Polygon, Classification, FractureConfig) {
        let target = Polygon::new(vec![
            Point::new(0, 0),
            Point::new(80, 0),
            Point::new(80, 30),
            Point::new(30, 30),
            Point::new(30, 80),
            Point::new(0, 80),
        ])
        .unwrap();
        let cfg = FractureConfig::default();
        let cls = Classification::build(&target, cfg.gamma, 22);
        (target, cls, cfg)
    }

    #[test]
    fn cover_candidates_stay_inside() {
        let (target, cls, cfg) = setup();
        let pool = cover_candidates(&target, &cls, &cfg);
        assert!(!pool.is_empty());
        for r in &pool {
            assert!(fraction_on_target(&cls, r) >= 0.97);
            assert!(r.min_side() >= cfg.min_shot_size);
        }
    }

    #[test]
    fn pursuit_pool_is_larger() {
        let (target, cls, cfg) = setup();
        let cover = cover_candidates(&target, &cls, &cfg);
        let pursuit = pursuit_candidates(&target, &cls, &cfg);
        assert!(pursuit.len() >= cover.len());
    }

    #[test]
    fn thinning_caps_grid() {
        let mut coords: Vec<i64> = (0..200).collect();
        thin(&mut coords, 20);
        assert!(coords.len() <= 20);
        assert_eq!(*coords.first().unwrap(), 0);
        assert_eq!(*coords.last().unwrap(), 199);
    }

    #[test]
    fn pool_covers_whole_target() {
        // Union of cover candidates must reach every deep-interior pixel.
        let (_, cls, cfg) = setup();
        let (target, _, _) = setup();
        let pool = cover_candidates(&target, &cls, &cfg);
        for (x, y) in [(15.0, 15.0), (60.0, 15.0), (15.0, 60.0)] {
            assert!(
                pool.iter().any(|r| r.contains_f64(x, y)),
                "no candidate covers ({x}, {y})"
            );
        }
    }
}
