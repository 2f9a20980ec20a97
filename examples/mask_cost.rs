//! The paper's economics, end to end: fracture a small layout with the
//! conventional baseline and with the model-based method, and translate
//! the shot-count difference into mask write time and dollars.
//!
//! ```sh
//! cargo run --release --example mask_cost
//! ```

use maskfrac::baselines::{Conventional, MaskFracturer};
use maskfrac::fracture::FractureConfig;
use maskfrac::mdp::{fracture_layout_opts, CostModel, Layout, LayoutOptions, Placement};
use maskfrac::shapes::ilt::{generate_ilt_clip, IltParams};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A toy "critical layer": three distinct ILT cells, heavily reused.
    let mut layout = Layout::new("critical-layer-demo");
    for (i, reps) in [(0u64, 400usize), (1, 250), (2, 150)] {
        let cell = generate_ilt_clip(&IltParams {
            base_radius: 38.0 + 6.0 * i as f64,
            seed: 0xC057 + i,
            ..IltParams::default()
        });
        let name = format!("ilt-cell-{i}");
        layout.add_shape(&name, cell);
        for r in 0..reps {
            layout.place(&name, Placement::at((r as i64 % 20) * 400, (r as i64 / 20) * 400));
        }
    }
    println!(
        "layout: {} distinct shapes, {} placed instances",
        layout.shape_count(),
        layout.instance_count()
    );

    // Conventional fracturing (geometric partition, no model).
    let cfg = FractureConfig::default();
    let conventional = Conventional::new(cfg.clone());
    let counts = layout.placement_counts();
    let mut conventional_shots = 0usize;
    for (name, poly) in layout.shapes() {
        let per_instance = conventional.fracture(poly).shot_count();
        conventional_shots += per_instance * counts[name];
    }

    // Model-based fracturing over the whole layout (multi-threaded).
    let options = LayoutOptions {
        threads: 4,
        ..LayoutOptions::default()
    };
    let report = fracture_layout_opts(&layout, &cfg, &options);
    let model_based_shots = report.total_shots();
    println!("\nper-shape results (model-based):");
    for s in &report.per_shape {
        println!(
            "  {:12} {:>3} shots/instance x {:>4} instances ({} failing px)",
            s.shape, s.shots_per_instance, s.instances, s.fail_pixels
        );
    }
    println!(
        "\nconventional: {conventional_shots} shots;  model-based: {model_based_shots} shots \
         ({:.1} % reduction)",
        100.0 * (conventional_shots - model_based_shots) as f64 / conventional_shots as f64
    );

    // Scale the ratio up to a realistic critical-mask shot budget and run
    // the paper's cost arithmetic.
    let cost = CostModel::default();
    let base: u64 = 50_000_000_000; // a heavy critical layer
    let improved = (base as f64 * model_based_shots as f64 / conventional_shots as f64) as u64;
    let impact = cost.evaluate(base, improved);
    let wt_before = cost.write_time.estimate(base);
    let wt_after = cost.write_time.estimate(improved);
    println!(
        "\nscaled to a {base} shot critical layer:\n  write time {:.1} h -> {:.1} h ({:+.1} %)\n  mask cost {:+.2} % => ${:.0} saved per mask set",
        wt_before.total_hours(),
        wt_after.total_hours(),
        100.0 * impact.write_time_change,
        100.0 * impact.mask_cost_change,
        impact.savings_usd
    );
    Ok(())
}
