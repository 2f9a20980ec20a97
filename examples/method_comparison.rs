//! Compare all fracturing methods on one shape — a miniature of the
//! paper's Table 2 for interactive exploration.
//!
//! ```sh
//! cargo run --release --example method_comparison [seed]
//! ```

use maskfrac::baselines::{Conventional, GreedySetCover, MaskFracturer, MatchingPursuit, ProtoEda};
use maskfrac::fracture::{FractureConfig, ModelBasedFracturer};
use maskfrac::shapes::ilt::{generate_ilt_clip, IltParams};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let seed: u64 = std::env::args()
        .nth(1)
        .map(|s| s.parse())
        .transpose()?
        .unwrap_or(7);

    let clip = generate_ilt_clip(&IltParams {
        base_radius: 45.0,
        seed,
        ..IltParams::default()
    });
    println!(
        "shape: seed {seed}, {} vertices, bbox {}",
        clip.len(),
        clip.bbox()
    );

    let cfg = FractureConfig::default();
    let methods: Vec<Box<dyn MaskFracturer>> = vec![
        Box::new(Conventional::new(cfg.clone())),
        Box::new(GreedySetCover::new(cfg.clone())),
        Box::new(MatchingPursuit::new(cfg.clone())),
        Box::new(ProtoEda::new(cfg.clone())),
        Box::new(ModelBasedFracturer::new(cfg)),
    ];

    println!(
        "\n{:14} {:>8} {:>12} {:>12}",
        "method", "shots", "fail pixels", "runtime"
    );
    let mut best: Option<(usize, String)> = None;
    for m in &methods {
        let r = m.fracture(&clip);
        println!(
            "{:14} {:>8} {:>12} {:>10.0} ms",
            m.name(),
            r.shot_count(),
            r.summary.fail_count(),
            r.runtime.as_secs_f64() * 1e3
        );
        // Track the best *feasible-enough* solution (model-based methods).
        if m.name() != "conventional"
            && best
                .as_ref()
                .is_none_or(|(s, _)| r.shot_count() < *s)
        {
            best = Some((r.shot_count(), m.name().to_owned()));
        }
    }
    if let Some((shots, name)) = best {
        println!("\nfewest shots among model-based methods: {name} ({shots})");
    }
    Ok(())
}
