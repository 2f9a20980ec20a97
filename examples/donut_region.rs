//! Fracture a donut-shaped ILT region — a mask opening with an island —
//! demonstrating the region (polygon-with-holes) pipeline.
//!
//! ```sh
//! cargo run --release --example donut_region
//! ```

use maskfrac::fracture::{FractureConfig, FractureScratch, ModelBasedFracturer};
use maskfrac::geom::svg::{Style, SvgCanvas};
use maskfrac::shapes::ilt::{generate_ilt_donut, IltParams};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let donut = generate_ilt_donut(&IltParams {
        base_radius: 55.0,
        seed: 11,
        ..IltParams::default()
    });
    println!(
        "target: {donut} (hole area {:.0} nm²)",
        donut.holes().iter().map(|h| h.area()).sum::<f64>()
    );

    let fracturer = ModelBasedFracturer::new(FractureConfig::default());
    let result = fracturer.try_fracture(&donut, &mut FractureScratch::new())?;
    println!(
        "fractured into {} shots, {} failing pixels, {:.2} s",
        result.shot_count(),
        result.summary.fail_count(),
        result.runtime.as_secs_f64()
    );

    // No shot may blanket the hole: check the hole's interior pole.
    let hole = &donut.holes()[0];
    let hb = hole.bbox();
    let (hx, hy) = ((hb.x0() + hb.x1()) as f64 / 2.0, (hb.y0() + hb.y1()) as f64 / 2.0);
    let covering = result.shots.iter().filter(|s| s.contains_f64(hx, hy)).count();
    println!("shots covering the hole centre: {covering} (must be 0 in a feasible solution)");

    let view = donut.bbox().expand(20).ok_or("bbox cannot grow")?;
    let mut canvas = SvgCanvas::new(view, 5.0);
    canvas.polygon(donut.outer(), &Style::filled("#dde6f2"));
    for hole in donut.holes() {
        canvas.polygon(hole, &Style::filled("#ffffff"));
    }
    for shot in &result.shots {
        canvas.rect(shot, &Style::outline("#d62728", 0.8));
    }
    std::fs::write("donut_region.svg", canvas.finish())?;
    println!("wrote donut_region.svg");
    Ok(())
}
