//! Regenerates the paper's illustrations (Figs. 1–5, plus fig6) as SVG files under
//! `results/`.
//!
//! * **fig1** — RDP boundary approximation of a mask clip and the shot
//!   corner points extracted from it (colored by corner type);
//! * **fig2** — corner rounding of a single shot: the printed `ρ`-contour
//!   near a shot corner and the 45° chord defining `Lth`;
//! * **fig3** — graph-coloring-based approximate fracturing: corner
//!   points, color classes, and the placed shots;
//! * **fig4** — a degenerate color class: the minimum-size shot seeded by
//!   two same-edge corner points, extended to the opposite boundary;
//! * **fig5** — the shot-merge criteria: an aligned pair merged by
//!   vertical extension, and a pair whose merge would expose `Poff`.
//! * **fig6** (extension) — Algorithm 1 convergence: cost and shot count
//!   per iteration of the refinement run seeded by the fig3 solution.
//!
//! Run with `cargo run -p maskfrac-bench --release --bin figures`
//! (optionally pass a subset: `-- fig1 fig3`).

use maskfrac_bench::results_dir;
use maskfrac_ebeam::lth::{compute_lth, corner_inset_per_axis};
use maskfrac_ebeam::{Classification, ExposureModel};
use maskfrac_fracture::{
    approximate_fracture, refine, ApproxFracture, CornerType, FractureConfig, ModelBasedFracturer,
};
use maskfrac_geom::rdp::simplify_ring;
use maskfrac_geom::svg::{Style, SvgCanvas};
use maskfrac_geom::{Point, Polygon, Rect};
use maskfrac_shapes::ilt::{generate_ilt_clip, IltParams};

fn corner_color(kind: CornerType) -> &'static str {
    match kind {
        CornerType::BottomLeft => "#d62728",
        CornerType::BottomRight => "#1f77b4",
        CornerType::TopLeft => "#2ca02c",
        CornerType::TopRight => "#9467bd",
    }
}

fn save(name: &str, svg: String) {
    let path = results_dir().join(name);
    std::fs::write(&path, svg).expect("can write figure");
    println!("wrote {}", path.display());
}

fn demo_clip() -> Polygon {
    generate_ilt_clip(&IltParams {
        base_radius: 40.0,
        lobes: 2,
        seed: 0xF16_0001,
        ..IltParams::default()
    })
}

/// The pipeline's first two steps on `clip`: its pixel classification
/// and its approximate solution (§3).
fn approximate(
    fracturer: &ModelBasedFracturer,
    clip: &Polygon,
) -> (Classification, ApproxFracture) {
    let cls = fracturer.classify(clip);
    let approx = approximate_fracture(
        clip,
        &cls,
        fracturer.model(),
        fracturer.config(),
        fracturer.lth(),
    );
    (cls, approx)
}

/// Fig. 1: boundary approximation + shot corner extraction.
fn fig1() {
    let cfg = FractureConfig::default();
    let fracturer = ModelBasedFracturer::new(cfg.clone());
    let clip = demo_clip();
    let (_, approx) = approximate(&fracturer, &clip);

    let view = clip.bbox().expand(25).expect("bbox grows");
    let mut canvas = SvgCanvas::new(view, 6.0);
    canvas.polygon(&clip, &Style::filled("#dde6f2"));
    canvas.polygon(
        &simplify_ring(&clip, cfg.gamma),
        &Style::outline("#444444", 0.8).with_dash("3 2"),
    );
    canvas.polygon(&approx.simplified, &Style::outline("#000000", 0.5));
    for c in &approx.corners {
        canvas.circle(c.pos, 1.6, &Style::filled(corner_color(c.kind)));
    }
    canvas.text(
        Point::new(view.x0() + 2, view.y1() - 4),
        4.0,
        "Fig 1: RDP-simplified boundary (dashed) and shot corner points by type",
    );
    save("fig1_boundary_approximation.svg", canvas.finish());
}

/// Fig. 2: corner rounding and Lth.
fn fig2() {
    let model = ExposureModel::paper_default();
    let gamma = 2.0;
    let lth = compute_lth(&model, gamma);
    let inset = corner_inset_per_axis(&model);

    // A large shot occupying the third quadrant with its corner at (0, 0).
    let shot = Rect::new(-80, -80, 0, 0).expect("rect");
    let view = Rect::new(-40, -40, 25, 25).expect("rect");
    let mut canvas = SvgCanvas::new(view, 10.0);
    canvas.rect(&shot, &Style::filled("#dde6f2"));
    canvas.rect(&shot, &Style::outline("#555555", 0.4).with_dash("2 2"));

    // Printed rho-contour of the corner, marched along x.
    let mut contour: Vec<(f64, f64)> = Vec::new();
    let mut x = -38.0;
    while x <= 1.0 {
        // Solve I(x, y) = rho by bisection along y.
        let (mut lo, mut hi) = (-38.0f64, 20.0f64);
        for _ in 0..50 {
            let mid = 0.5 * (lo + hi);
            if model.shot_intensity(&shot, x, mid) >= model.rho() {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        contour.push((x, 0.5 * (lo + hi)));
        x += 0.5;
    }
    canvas.polyline_f64(&contour, &Style::outline("#d62728", 0.8));

    // The minimax 45° chord of length Lth.
    let c = 2.0 * inset + gamma * std::f64::consts::SQRT_2;
    let half = lth / 2.0;
    let center = (-c / 2.0, -c / 2.0);
    let dir = (std::f64::consts::FRAC_1_SQRT_2, -std::f64::consts::FRAC_1_SQRT_2);
    canvas.polyline_f64(
        &[
            (center.0 - dir.0 * half, center.1 - dir.1 * half),
            (center.0 + dir.0 * half, center.1 + dir.1 * half),
        ],
        &Style::outline("#1f77b4", 0.8),
    );
    canvas.text(
        Point::new(view.x0() + 2, view.y1() - 3),
        2.2,
        &format!("Fig 2: corner rounding; Lth = {lth:.1} nm at gamma = {gamma} nm"),
    );
    save("fig2_corner_rounding_lth.svg", canvas.finish());
}

/// Fig. 3: graph-coloring-based approximate fracturing.
fn fig3() {
    let cfg = FractureConfig::default();
    let fracturer = ModelBasedFracturer::new(cfg);
    let clip = demo_clip();
    let (_, approx) = approximate(&fracturer, &clip);

    let view = clip.bbox().expand(25).expect("bbox grows");
    let mut canvas = SvgCanvas::new(view, 6.0);
    canvas.polygon(&clip, &Style::filled("#eeeeee"));
    let palette = [
        "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b", "#e377c2",
        "#7f7f7f", "#bcbd22", "#17becf",
    ];
    for (ci, class) in approx.color_classes.iter().enumerate() {
        let color = palette[ci % palette.len()];
        for &i in class {
            canvas.circle(approx.corners[i].pos, 1.8, &Style::filled(color));
        }
    }
    for (si, shot) in approx.shots.iter().enumerate() {
        let color = palette[si % palette.len()];
        canvas.rect(
            shot,
            &Style::outline(color, 0.9).with_opacity(0.9),
        );
    }
    canvas.text(
        Point::new(view.x0() + 2, view.y1() - 4),
        4.0,
        "Fig 3: corner points colored by clique (inverse-graph coloring); one shot per color",
    );
    save("fig3_graph_coloring.svg", canvas.finish());
}

/// Fig. 4: degenerate color class extension.
fn fig4() {
    // A plain rectangle target; seed only its two top corner points so the
    // placed shot's bottom edge is free and extends to the bottom boundary.
    let target = Polygon::from_rect(Rect::new(0, 0, 60, 45).expect("rect"));
    let view = Rect::new(-15, -15, 75, 60).expect("rect");
    let mut canvas = SvgCanvas::new(view, 7.0);
    canvas.polygon(&target, &Style::filled("#dde6f2"));

    let min_shot = Rect::new(0, 35, 60, 45).expect("rect");
    canvas.rect(&min_shot, &Style::outline("#999999", 0.6).with_dash("2 2"));
    let extended = Rect::new(0, 0, 60, 45).expect("rect");
    canvas.rect(&extended, &Style::outline("#d62728", 0.9));
    canvas.circle(Point::new(0, 45), 1.6, &Style::filled("#2ca02c"));
    canvas.circle(Point::new(60, 45), 1.6, &Style::filled("#9467bd"));
    canvas.line(
        Point::new(30, 35),
        Point::new(30, 0),
        &Style::outline("#d62728", 0.5).with_dash("1 1"),
    );
    canvas.text(
        Point::new(-13, 55),
        3.0,
        "Fig 4: a TL+TR color class seeds a minimum-height shot (dashed);",
    );
    canvas.text(
        Point::new(-13, 50),
        3.0,
        "the free bottom edge extends to the opposite target boundary (red)",
    );
    save("fig4_shot_extension.svg", canvas.finish());
}

/// Fig. 5: merge criteria.
fn fig5() {
    let view = Rect::new(-10, -15, 175, 80).expect("rect");
    let mut canvas = SvgCanvas::new(view, 6.0);

    // Left: target column with two x-aligned shots -> merge accepted.
    let target_a = Polygon::from_rect(Rect::new(0, 0, 40, 60).expect("rect"));
    canvas.polygon(&target_a, &Style::filled("#dde6f2"));
    canvas.rect(&Rect::new(0, 0, 40, 26).expect("rect"), &Style::outline("#1f77b4", 0.8));
    canvas.rect(&Rect::new(0, 34, 40, 60).expect("rect"), &Style::outline("#1f77b4", 0.8));
    canvas.rect(
        &Rect::new(0, 0, 40, 60).expect("rect"),
        &Style::outline("#2ca02c", 1.2).with_dash("3 2"),
    );

    // Right: two arms of a U with aligned shots -> merge rejected (the
    // union crosses the gap and would expose Poff pixels).
    let u = Polygon::new(vec![
        Point::new(90, 0),
        Point::new(165, 0),
        Point::new(165, 60),
        Point::new(140, 60),
        Point::new(140, 20),
        Point::new(115, 20),
        Point::new(115, 60),
        Point::new(90, 60),
    ])
    .expect("ring");
    canvas.polygon(&u, &Style::filled("#dde6f2"));
    canvas.rect(&Rect::new(92, 25, 113, 58).expect("rect"), &Style::outline("#1f77b4", 0.8));
    canvas.rect(&Rect::new(142, 25, 163, 58).expect("rect"), &Style::outline("#1f77b4", 0.8));
    canvas.rect(
        &Rect::new(92, 25, 163, 58).expect("rect"),
        &Style::outline("#d62728", 1.2).with_dash("3 2"),
    );
    canvas.text(
        Point::new(-8, 72),
        3.5,
        "Fig 5: aligned shots merge by extension when >90% of the union is inside (green);",
    );
    canvas.text(
        Point::new(-8, 66),
        3.5,
        "a union crossing exposed area is rejected (red)",
    );
    save("fig5_merge_criteria.svg", canvas.finish());
}

/// Extension figure: refinement convergence — `cost_ref` and shot count
/// per iteration of Algorithm 1 on one clip.
fn fig6() {
    let cfg = FractureConfig::default();
    let fracturer = ModelBasedFracturer::new(cfg);
    let clip = demo_clip();
    let (cls, approx) = approximate(&fracturer, &clip);
    let outcome = refine(&cls, fracturer.model(), fracturer.config(), approx.shots);
    let history = &outcome.history;
    if history.is_empty() {
        println!("fig6: no refinement iterations to plot");
        return;
    }

    let max_cost = history.iter().map(|h| h.cost).fold(1e-9, f64::max);
    let n = history.len() as f64;
    // Plot area 200x100 nm-units.
    let view = Rect::new(-20, -20, 220, 120).expect("rect");
    let mut canvas = SvgCanvas::new(view, 4.0);
    canvas.line(Point::new(0, 0), Point::new(200, 0), &Style::outline("#000", 0.5));
    canvas.line(Point::new(0, 0), Point::new(0, 100), &Style::outline("#000", 0.5));
    let cost_curve: Vec<(f64, f64)> = history
        .iter()
        .enumerate()
        .map(|(i, h)| (200.0 * i as f64 / n, 100.0 * h.cost / max_cost))
        .collect();
    canvas.polyline_f64(&cost_curve, &Style::outline("#d62728", 0.8));
    let max_shots = history.iter().map(|h| h.shots).max().unwrap_or(1) as f64;
    let shot_curve: Vec<(f64, f64)> = history
        .iter()
        .enumerate()
        .map(|(i, h)| (200.0 * i as f64 / n, 100.0 * h.shots as f64 / max_shots))
        .collect();
    canvas.polyline_f64(&shot_curve, &Style::outline("#1f77b4", 0.8).with_dash("3 2"));
    canvas.text(
        Point::new(-15, 112),
        4.0,
        &format!(
            "Fig 6 (extension): Algorithm 1 convergence — cost (red, max {max_cost:.1}) and shot count (blue, max {max_shots:.0}) over {} iterations",
            history.len()
        ),
    );
    save("fig6_refinement_convergence.svg", canvas.finish());
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let want = |name: &str| args.is_empty() || args.iter().any(|a| a == name);
    if want("fig1") {
        fig1();
    }
    if want("fig2") {
        fig2();
    }
    if want("fig3") {
        fig3();
    }
    if want("fig4") {
        fig4();
    }
    if want("fig5") {
        fig5();
    }
    if want("fig6") {
        fig6();
    }
}
