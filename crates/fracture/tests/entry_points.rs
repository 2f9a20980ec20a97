//! Every shape-level entry point gives the same result, and one reused
//! scratch arena changes nothing.
//!
//! The 10 ILT clips and the 10 generated shapes run in a seeded shuffled
//! order, so the arena that `fracture_with` and `try_fracture` share both
//! grows (a larger frame follows a smaller one) and shrinks (a smaller
//! frame reuses a larger buffer) between shapes.

use maskfrac_baselines::MaskFracturer;
use maskfrac_fracture::{FractureConfig, FractureScratch, ModelBasedFracturer};
use maskfrac_geom::rng::StdRng;
use maskfrac_geom::Polygon;

#[test]
fn entry_points_agree_with_a_reused_arena() {
    let fracturer = ModelBasedFracturer::new(FractureConfig::default());
    let mut shapes: Vec<(String, Polygon)> = maskfrac_shapes::ilt_suite()
        .into_iter()
        .map(|c| (c.id, c.polygon))
        .chain(
            maskfrac_shapes::generated_suite(fracturer.model())
                .into_iter()
                .map(|c| (c.id, c.polygon)),
        )
        .collect();
    assert_eq!(shapes.len(), 20);
    let mut rng = StdRng::seed_from_u64(0x05C4_A7C4);
    for i in (1..shapes.len()).rev() {
        let j = rng.gen_range(0..=i as i64) as usize;
        shapes.swap(i, j);
    }

    // The arena must really grow and shrink across the shuffled order.
    let frames: Vec<usize> = shapes
        .iter()
        .map(|(_, p)| fracturer.classify(p).frame().len())
        .collect();
    assert!(
        frames.windows(2).any(|w| w[1] > w[0]),
        "frames never grow: {frames:?}"
    );
    assert!(
        frames.windows(2).any(|w| w[1] < w[0]),
        "frames never shrink: {frames:?}"
    );

    let mut reused = FractureScratch::new();
    for (id, polygon) in &shapes {
        let fresh = fracturer.fracture(polygon);
        let with = fracturer.fracture_with(polygon, &mut reused);
        let tried = fracturer
            .try_fracture(&polygon.clone().into(), &mut reused)
            .unwrap_or_else(|e| panic!("{id}: {e}"));
        let harness = MaskFracturer::fracture(&fracturer, polygon);
        for (how, other) in [
            ("fracture_with", &with),
            ("try_fracture", &tried),
            ("MaskFracturer", &harness),
        ] {
            assert_eq!(
                other.shots, fresh.shots,
                "{id}: {how} shots differ from fracture"
            );
            assert_eq!(
                other.summary, fresh.summary,
                "{id}: {how} summary differs from fracture"
            );
        }
    }
}
