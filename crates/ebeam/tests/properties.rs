//! Property-based tests for the exposure model.

use maskfrac_ebeam::violations::{cost_delta_for_strip, evaluate};
use maskfrac_ebeam::{Classification, ExposureModel, IntensityMap, PixelClass, ViolationTracker};
use maskfrac_geom::rng::{for_cases, StdRng};
use maskfrac_geom::{Point, Polygon, Rect};

/// Pixels of `class` in `cls`.
fn count(cls: &Classification, class: PixelClass) -> usize {
    let frame = cls.frame();
    (0..frame.height())
        .flat_map(|iy| (0..frame.width()).map(move |ix| (ix, iy)))
        .filter(|&(ix, iy)| cls.class(ix, iy) == class)
        .count()
}

fn shot(rng: &mut StdRng) -> Rect {
    let (x, y) = (rng.gen_range(-30..=59), rng.gen_range(-30..=59));
    let (w, h) = (rng.gen_range(10..=59), rng.gen_range(10..=59));
    Rect::new(x, y, x + w, y + h).expect("w,h > 0")
}

/// A shot and a sample point in `lo..hi` on both axes.
fn shot_and_point(rng: &mut StdRng, lo: f64, hi: f64) -> (Rect, f64, f64) {
    let shot = shot(rng);
    (shot, rng.gen_range(lo..hi), rng.gen_range(lo..hi))
}

#[test]
fn intensity_is_bounded() {
    for_cases(256, |rng| {
        let (shot, x, y) = shot_and_point(rng, -60.0, 120.0);
        let m = ExposureModel::paper_default();
        let v = m.shot_intensity(&shot, x, y);
        assert!((0.0..=1.0 + 1e-12).contains(&v), "I = {v}");
    });
}

#[test]
fn intensity_lut_matches_exact() {
    for_cases(256, |rng| {
        let (shot, x, y) = shot_and_point(rng, -60.0, 120.0);
        let m = ExposureModel::paper_default();
        let lut = m.shot_intensity(&shot, x, y);
        let exact = m.shot_intensity_exact(&shot, x, y);
        assert!((lut - exact).abs() < 1e-6);
    });
}

#[test]
fn intensity_additive_across_split() {
    for_cases(256, |rng| {
        let shot = shot(rng);
        let frac = rng.gen_range(0.2..0.8);
        let (x, y) = (rng.gen_range(-40.0..100.0), rng.gen_range(-40.0..100.0));
        // Splitting a shot along a vertical line preserves total intensity.
        let m = ExposureModel::paper_default();
        let cut = shot.x0() + ((shot.width() as f64 * frac) as i64).clamp(1, shot.width() - 1);
        let left = Rect::new(shot.x0(), shot.y0(), cut, shot.y1()).expect("ordered");
        let right = Rect::new(cut, shot.y0(), shot.x1(), shot.y1()).expect("ordered");
        let whole = m.shot_intensity_exact(&shot, x, y);
        let parts = m.shot_intensity_exact(&left, x, y) + m.shot_intensity_exact(&right, x, y);
        assert!((whole - parts).abs() < 1e-12);
    });
}

#[test]
fn map_incremental_matches_rebuild() {
    for_cases(256, |rng| {
        let shots: Vec<Rect> = (0..rng.gen_range(1..=5)).map(|_| shot(rng)).collect();
        let m = ExposureModel::paper_default();
        let frame = maskfrac_geom::Frame::new(maskfrac_geom::Point::new(-50, -50), 180, 180);
        let mut incremental = IntensityMap::new(m.clone(), frame);
        // Add all, remove every other, re-add them.
        for s in &shots {
            incremental.add_shot(s);
        }
        for s in shots.iter().step_by(2) {
            incremental.remove_shot(s);
        }
        for s in shots.iter().step_by(2) {
            incremental.add_shot(s);
        }
        let mut rebuilt = IntensityMap::new(m, frame);
        rebuilt.rebuild(shots.iter());
        assert!(incremental.max_abs_diff(&rebuilt) < 1e-9);
    });
}

#[test]
fn strip_delta_predicts_full_evaluation() {
    for_cases(256, |rng| {
        let shot = shot(rng);
        let edge_pick = rng.gen_range(0..=3);
        let sign_pick = rng.gen_range(0..=1) == 1;
        let m = ExposureModel::paper_default();
        let target = Polygon::from_rect(Rect::new(0, 0, 50, 50).expect("rect"));
        let cls = Classification::build(&target, 2.0, m.support_radius_px() + 2);
        let mut map = IntensityMap::new(m, cls.frame());
        map.add_shot(&shot);

        // A random 1-px strip on one side of the shot.
        let strip = match edge_pick {
            0 => Rect::new(shot.x0() - 1, shot.y0(), shot.x0(), shot.y1()),
            1 => Rect::new(shot.x1(), shot.y0(), shot.x1() + 1, shot.y1()),
            2 => Rect::new(shot.x0(), shot.y0() - 1, shot.x1(), shot.y0()),
            _ => Rect::new(shot.x0(), shot.y1(), shot.x1(), shot.y1() + 1),
        }
        .expect("strip ordered");
        let sign = if sign_pick { 1.0 } else { -1.0 };

        let before = evaluate(&cls, &map);
        let predicted = cost_delta_for_strip(&cls, &map, &strip, sign);
        if sign > 0.0 {
            map.add_shot(&strip);
        } else {
            map.remove_shot(&strip);
        }
        let after = evaluate(&cls, &map);
        assert!(
            (after.cost - before.cost - predicted).abs() < 1e-9,
            "predicted {predicted}, actual {}",
            after.cost - before.cost
        );
    });
}

/// A uniform index into a non-empty list of `len` items.
fn pick(rng: &mut StdRng, len: usize) -> usize {
    rng.gen_range(0..=len as i64 - 1) as usize
}

/// The strip a grow (`sign = +1`) or shrink (`sign = -1`) of one random
/// edge of `shot` by 1 to 4 nm sweeps.
fn edge_strip(rng: &mut StdRng, shot: &Rect, sign: f64) -> Rect {
    let (s, d) = (shot, rng.gen_range(1..=4));
    match (rng.gen_range(0..=3), sign > 0.0) {
        (0, true) => Rect::new(s.x0() - d, s.y0(), s.x0(), s.y1()),
        (0, false) => Rect::new(s.x0(), s.y0(), s.x0() + d, s.y1()),
        (1, true) => Rect::new(s.x1(), s.y0(), s.x1() + d, s.y1()),
        (1, false) => Rect::new(s.x1() - d, s.y0(), s.x1(), s.y1()),
        (2, true) => Rect::new(s.x0(), s.y0() - d, s.x1(), s.y0()),
        (2, false) => Rect::new(s.x0(), s.y0(), s.x1(), s.y0() + d),
        (_, true) => Rect::new(s.x0(), s.y1(), s.x1(), s.y1() + d),
        (_, false) => Rect::new(s.x0(), s.y1() - d, s.x1(), s.y1()),
    }
    .expect("shots are at least 10 nm on a side")
}

/// Live-pixel scoring is bit-identical to the dense window scan: on
/// random shot sets, through churny tracked mutation sequences and after
/// a resync, every 1 to 4 nm edge strip of either sign scores to the
/// same `f64` bits either way. (Every 1 and 2 nm strip must take the
/// live-pixel walk; the 3 and 4 nm ones peak above the live band and
/// check that the tracker falls back to the dense scan.)
#[test]
fn tracker_scoring_is_bit_identical_to_the_dense_scan() {
    // An L-shaped target, so random shots leave under- and over-exposed
    // regions side by side.
    let target = Polygon::new(vec![
        Point::new(0, 0),
        Point::new(90, 0),
        Point::new(90, 30),
        Point::new(30, 30),
        Point::new(30, 90),
        Point::new(0, 90),
    ])
    .expect("L ring");
    let model = ExposureModel::paper_default();
    let cls = Classification::build(&target, 2.0, model.support_radius_px() + 2);
    let (mut sparse, mut dense, mut negative) = (0usize, 0usize, 0usize);
    let mut sparse_2nm = 0usize;
    for_cases(64, |rng| {
        let mut map = IntensityMap::new(model.clone(), cls.frame());
        let mut tracker = ViolationTracker::new(&cls, &map);
        let mut shots: Vec<Rect> = Vec::new();
        let mut check =
            |rng: &mut StdRng, map: &IntensityMap, tracker: &ViolationTracker, shots: &[Rect]| {
                for _ in 0..4 {
                    let shot = shots[pick(rng, shots.len())];
                    let sign = if rng.gen_range(0..=1) == 0 { 1.0 } else { -1.0 };
                    let strip = edge_strip(rng, &shot, sign);
                    let score = tracker.score_strip(&cls, map, &strip, sign);
                    let dense_delta = cost_delta_for_strip(&cls, map, &strip, sign);
                    assert_eq!(
                        score.delta.to_bits(),
                        dense_delta.to_bits(),
                        "{strip} ({sign}): tracker {} vs dense {dense_delta}",
                        score.delta
                    );
                    // Every 1 and 2 nm strip peaks within the live band's
                    // margin.
                    let depth = strip.width().min(strip.height());
                    assert!(score.sparse || depth > 2, "{strip} took the dense scan");
                    sparse_2nm += usize::from(depth == 2);
                    if score.sparse {
                        sparse += 1;
                    } else {
                        dense += 1;
                    }
                    negative += usize::from(dense_delta < 0.0);
                }
            };
        for _ in 0..20 {
            // Churn: add a shot, drop one, or move one of its edges.
            match rng.gen_range(0..=3) {
                0 if shots.len() < 5 => {
                    let (x0, y0) = (rng.gen_range(-8..=60), rng.gen_range(-8..=60));
                    let (w, h) = (rng.gen_range(12..=50), rng.gen_range(12..=50));
                    let shot = Rect::new(x0, y0, x0 + w, y0 + h).expect("w, h > 0");
                    tracker.apply(&cls, &mut map, &shot, 1.0);
                    shots.push(shot);
                }
                1 if shots.len() > 1 => {
                    let shot = shots.swap_remove(pick(rng, shots.len()));
                    tracker.apply(&cls, &mut map, &shot, -1.0);
                }
                _ if !shots.is_empty() => {
                    // Move an edge by 1 to 4 nm. `shots` only steers which
                    // strips get scored, so it keeps the unmoved shot.
                    let i = pick(rng, shots.len());
                    let sign = if rng.gen_range(0..=1) == 0 { 1.0 } else { -1.0 };
                    let strip = edge_strip(rng, &shots[i], sign);
                    tracker.apply(&cls, &mut map, &strip, sign);
                }
                _ => {
                    let shot = Rect::new(0, 0, 30, 30).expect("square");
                    tracker.apply(&cls, &mut map, &shot, 1.0);
                    shots.push(shot);
                }
            }
            check(rng, &map, &tracker, &shots);
        }
        // An untracked mutation, then a resync: the rebuilt live mask
        // must score exactly too.
        let extra = Rect::new(-6, -6, 20, 20).expect("rect");
        map.add_shot(&extra);
        shots.push(extra);
        tracker.resync(&cls, &map);
        check(rng, &map, &tracker, &shots);
    });
    // Non-vacuous: both scoring paths ran, 2 nm strips among the sparse
    // ones, and some strips improved.
    assert!(sparse > 0 && dense > 0, "sparse {sparse}, dense {dense}");
    assert!(sparse_2nm > 0, "no 2 nm strip was scored");
    assert!(
        negative > 0,
        "no improving strip among {} scored",
        sparse + dense
    );
}

#[test]
fn classification_is_exhaustive_and_consistent() {
    for_cases(256, |rng| {
        let (w, h) = (rng.gen_range(20..=69), rng.gen_range(20..=69));
        let gamma = rng.gen_range(1.0..4.0);
        let target = Polygon::from_rect(Rect::new(0, 0, w, h).expect("rect"));
        let cls = Classification::build(&target, gamma, 25);
        let [on, off, band] =
            [PixelClass::On, PixelClass::Off, PixelClass::Band].map(|k| count(&cls, k));
        assert_eq!(on + off + band, cls.frame().len());
        // Interior shrinks as gamma grows.
        let tight = Classification::build(&target, 0.5, 25);
        assert!(on <= count(&tight, PixelClass::On));
    });
}
