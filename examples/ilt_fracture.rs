//! Fracture a synthetic curvilinear ILT clip — the workload the paper's
//! introduction motivates — and render the result as an SVG.
//!
//! ```sh
//! cargo run --release --example ilt_fracture
//! ```
//!
//! Writes `ilt_fracture.svg` to the working directory.

use maskfrac::ebeam::{evaluate, Classification, IntensityMap};
use maskfrac::fracture::{approximate_fracture, FractureConfig, ModelBasedFracturer};
use maskfrac::geom::svg::{Style, SvgCanvas};
use maskfrac::shapes::ilt::{generate_ilt_clip, IltParams};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A two-lobed ILT-style blob, digitized at 1 nm.
    let clip = generate_ilt_clip(&IltParams {
        base_radius: 50.0,
        irregularity: 0.22,
        lobes: 2,
        seed: 2026,
        ..IltParams::default()
    });
    println!(
        "clip: {} vertices, area {:.0} nm², bbox {}",
        clip.len(),
        clip.area(),
        clip.bbox()
    );

    let config = FractureConfig::default();
    let fracturer = ModelBasedFracturer::new(config.clone());
    let result = fracturer.fracture(&clip);
    // The approximate stage on its own, for the simplified boundary.
    let approx = approximate_fracture(
        &clip,
        &fracturer.classify(&clip),
        fracturer.model(),
        &config,
        fracturer.lth(),
    );
    println!(
        "approximate stage: {} shots; refined: {} shots, {} failing pixels, {:.2} s",
        result.approx_shot_count,
        result.shot_count(),
        result.summary.fail_count(),
        result.runtime.as_secs_f64()
    );

    // Simulate the final dose and count printed pixels for a sanity line.
    let cls = Classification::build(&clip, config.gamma, 22);
    let mut map = IntensityMap::new(config.model(), cls.frame());
    for s in &result.shots {
        map.add_shot(s);
    }
    let summary = evaluate(&cls, &map);
    println!("re-simulated summary: {summary:?}");

    // Render target, simplified boundary, shots, and the contour the
    // e-beam actually prints (the rho iso-line of the dose map).
    let view = clip.bbox().expand(20).ok_or("bbox cannot grow")?;
    let mut canvas = SvgCanvas::new(view, 5.0);
    canvas.polygon(&clip, &Style::filled("#dde6f2"));
    canvas.polygon(&approx.simplified, &Style::outline("#888888", 0.5).with_dash("3 2"));
    for shot in &result.shots {
        canvas.rect(shot, &Style::outline("#d62728", 0.8).with_opacity(0.9));
    }
    for line in maskfrac::ebeam::intensity_contours(&map, config.rho) {
        canvas.polyline_f64(&line, &Style::outline("#2ca02c", 1.0));
    }
    std::fs::write("ilt_fracture.svg", canvas.finish())?;
    println!(
        "wrote ilt_fracture.svg ({} shots; printed contour in green)",
        result.shot_count()
    );
    Ok(())
}
