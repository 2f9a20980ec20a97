//! Property-based tests for the geometry substrate.

use maskfrac_geom::morph::{boundary_band, dilate, erode};
use maskfrac_geom::partition::{is_partition_of, partition_slabs};
use maskfrac_geom::rdp::{max_deviation, simplify_polyline, simplify_ring};
use maskfrac_geom::rng::{for_cases, StdRng};
use maskfrac_geom::{label_components, Bitmap, Frame, Point, Polygon, Rect};

/// A random well-formed rectangle within a small window.
fn rect(rng: &mut StdRng) -> Rect {
    let (x, y) = (rng.gen_range(0..=39), rng.gen_range(0..=39));
    let (w, h) = (rng.gen_range(1..=19), rng.gen_range(1..=19));
    Rect::new(x, y, x + w, y + h).expect("w,h > 0")
}

/// A random rectilinear polygon as the traced union of 1..5 rects, or
/// `None` when the union cannot be traced (the case is then rejected).
fn rectilinear_polygon(rng: &mut StdRng) -> Option<Polygon> {
    let n = rng.gen_range(1..=4);
    let mut bm = Bitmap::new(64, 64);
    for _ in 0..n {
        let r = rect(rng);
        for iy in r.y0()..r.y1() {
            for ix in r.x0()..r.x1() {
                bm.set(ix as usize, iy as usize, true);
            }
        }
    }
    bm.largest_outer_contour()
}

#[test]
fn rect_intersection_commutes() {
    for_cases(256, |rng| {
        let (a, b) = (rect(rng), rect(rng));
        assert_eq!(a.intersection(&b), b.intersection(&a));
        assert_eq!(a.intersects(&b), b.intersects(&a));
        if let Some(i) = a.intersection(&b) {
            assert!(a.contains_rect(&i));
            assert!(b.contains_rect(&i));
        }
    });
}

#[test]
fn rect_union_bbox_contains_both() {
    for_cases(256, |rng| {
        let (a, b) = (rect(rng), rect(rng));
        let u = a.union_bbox(&b);
        assert!(u.contains_rect(&a));
        assert!(u.contains_rect(&b));
    });
}

#[test]
fn polygon_area_matches_raster_count() {
    for_cases(256, |rng| {
        let Some(poly) = rectilinear_polygon(rng) else {
            return false;
        };
        // For a rectilinear polygon on the integer grid, the enclosed area
        // equals the number of interior pixel centres.
        let frame = Frame::covering(poly.bbox(), 2);
        let bm = Bitmap::rasterize(
            &poly.translate(Point::new(-frame.origin().x, -frame.origin().y)),
            Frame::new(Point::new(0, 0), frame.width(), frame.height()),
        );
        assert_eq!(bm.count_ones() as i64 * 2, poly.area2());
        true
    });
}

#[test]
fn raster_agrees_with_point_in_polygon() {
    for_cases(256, |rng| {
        let Some(poly) = rectilinear_polygon(rng) else {
            return false;
        };
        let frame = Frame::covering(poly.bbox(), 2);
        let bm = Bitmap::rasterize(&poly, frame);
        // Spot-check a grid of pixels rather than all of them.
        for iy in (0..frame.height()).step_by(3) {
            for ix in (0..frame.width()).step_by(3) {
                let (x, y) = frame.pixel_center(ix, iy);
                assert_eq!(
                    bm.get(ix, iy),
                    poly.contains_f64(x, y),
                    "pixel ({ix}, {iy}) disagrees"
                );
            }
        }
        true
    });
}

#[test]
fn contour_round_trip_preserves_area() {
    for_cases(256, |rng| {
        let Some(poly) = rectilinear_polygon(rng) else {
            return false;
        };
        let frame = Frame::covering(poly.bbox(), 2);
        let bm = Bitmap::rasterize(&poly, frame);
        let loops = bm.trace_boundaries();
        // Outer loops minus holes must equal the pixel count; with no holes
        // in rect unions (there can be!), sum of largest is a lower bound.
        let largest = bm.largest_outer_contour().expect("non-empty");
        assert!(largest.area2() / 2 <= bm.count_ones() as i64 + largest.len() as i64);
        assert!(!loops.is_empty());
        true
    });
}

#[test]
fn rdp_polyline_never_exceeds_tolerance() {
    for_cases(256, |rng| {
        let n = rng.gen_range(2..=59);
        let pts: Vec<Point> = (0..n)
            .map(|_| Point::new(rng.gen_range(0..=199), rng.gen_range(-5..=4)))
            .collect();
        let tol = rng.gen_range(0.5..8.0);
        let s = simplify_polyline(&pts, tol);
        assert!(s.len() >= 2);
        assert_eq!(s[0], pts[0]);
        assert_eq!(*s.last().unwrap(), *pts.last().unwrap());
        for p in &pts {
            let best = s
                .windows(2)
                .map(|w| p.distance_to_segment(w[0], w[1]))
                .fold(f64::INFINITY, f64::min);
            assert!(best <= tol + 1e-9, "deviation {best} > tol {tol}");
        }
    });
}

#[test]
fn rdp_ring_bound_holds() {
    for_cases(256, |rng| {
        let Some(poly) = rectilinear_polygon(rng) else {
            return false;
        };
        let tol = rng.gen_range(0.5..4.0);
        let s = simplify_ring(&poly, tol);
        assert!(s.len() <= poly.len());
        if s != poly {
            assert!(max_deviation(&poly, &s) <= tol + 1e-9);
        }
        true
    });
}

#[test]
fn partitions_are_valid() {
    for_cases(256, |rng| {
        let Some(poly) = rectilinear_polygon(rng) else {
            return false;
        };
        let frame = Frame::covering(poly.bbox(), 1);
        let bm = Bitmap::rasterize(&poly, frame);
        let slabs = partition_slabs(&bm, frame);
        assert!(is_partition_of(&slabs, &bm, frame));
        true
    });
}

#[test]
fn dilate_contains_original() {
    for_cases(256, |rng| {
        let Some(poly) = rectilinear_polygon(rng) else {
            return false;
        };
        let r = rng.gen_range(1..=2);
        let frame = Frame::covering(poly.bbox(), 4);
        let bm = Bitmap::rasterize(&poly, frame);
        let d = dilate(&bm, r);
        for (ix, iy) in bm.iter_set() {
            assert!(d.get(ix, iy));
        }
        let e = erode(&bm, r);
        for (ix, iy) in e.iter_set() {
            assert!(bm.get(ix, iy));
        }
        true
    });
}

#[test]
fn band_is_dilate_minus_erode() {
    for_cases(256, |rng| {
        let Some(poly) = rectilinear_polygon(rng) else {
            return false;
        };
        let r = rng.gen_range(1..=2);
        let frame = Frame::covering(poly.bbox(), 4);
        let bm = Bitmap::rasterize(&poly, frame);
        let band = boundary_band(&bm, r);
        let d = dilate(&bm, r);
        let e = erode(&bm, r);
        for iy in 0..bm.height() {
            for ix in 0..bm.width() {
                assert_eq!(band.get(ix, iy), d.get(ix, iy) && !e.get(ix, iy));
            }
        }
        true
    });
}

#[test]
fn components_partition_set_pixels() {
    for_cases(256, |rng| {
        let Some(poly) = rectilinear_polygon(rng) else {
            return false;
        };
        let frame = Frame::covering(poly.bbox(), 1);
        let bm = Bitmap::rasterize(&poly, frame);
        let comps = label_components(&bm);
        let total: usize = comps.iter().map(|c| c.pixels.len()).sum();
        assert_eq!(total, bm.count_ones());
        // Every pixel appears exactly once across components.
        let mut seen = Bitmap::new(bm.width(), bm.height());
        for c in &comps {
            for &(ix, iy) in &c.pixels {
                assert!(!seen.get(ix, iy), "pixel in two components");
                seen.set(ix, iy, true);
                assert!(bm.get(ix, iy));
                // Bounding box contains the pixel.
                assert!(c.bbox.contains(Point::new(ix as i64, iy as i64)));
            }
        }
        true
    });
}
