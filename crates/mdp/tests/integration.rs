//! MDP-layer integration: layout text I/O → multi-threaded fracturing →
//! write time → cost, plus ordering over a real fractured shot list.

use maskfrac_fracture::FractureConfig;
use maskfrac_geom::rng::for_cases;
use maskfrac_mdp::ordering::order_shots;
use maskfrac_mdp::{
    fracture_layout_opts, parse_layout, write_layout, CostModel, Layout, LayoutOptions, Placement,
    WriteTimeModel,
};
use maskfrac_shapes::ilt::{generate_ilt_clip, IltParams};

#[test]
fn end_to_end_layout_flow() {
    // Build a layout with one ILT cell reused 10 times, round-trip it
    // through the text format, fracture it, and run the economics.
    let mut layout = Layout::new("flow-test");
    let cell = generate_ilt_clip(&IltParams {
        base_radius: 35.0,
        seed: 3,
        ..IltParams::default()
    });
    layout.add_shape("cell", cell);
    for k in 0..10 {
        layout.place("cell", Placement::at(k * 200, 0));
    }
    let round_tripped = parse_layout(&write_layout(&layout)).expect("round trip");
    assert_eq!(layout, round_tripped);

    let options = LayoutOptions {
        threads: 3,
        ..LayoutOptions::default()
    };
    let report = fracture_layout_opts(&round_tripped, &FractureConfig::default(), &options);
    assert_eq!(report.per_shape.len(), 1);
    let per_instance = report.per_shape[0].shots_per_instance;
    assert!(per_instance >= 1);
    assert_eq!(report.total_shots(), per_instance * 10);

    // Economics: fewer shots -> cheaper mask, via the write-time model.
    let wt = WriteTimeModel::default();
    let baseline = (report.total_shots() * 3) as u64; // a worse fracturer
    let improved = report.total_shots() as u64;
    let impact = CostModel::default().evaluate(baseline, improved);
    assert!(impact.mask_cost_change < 0.0, "saving expected: {impact:?}");
    assert!(wt.estimate(improved).total_s() < wt.estimate(baseline).total_s());
}

#[test]
fn ordering_improves_on_fractured_clip() {
    let clip = generate_ilt_clip(&IltParams {
        base_radius: 50.0,
        seed: 9,
        ..IltParams::default()
    });
    let result =
        maskfrac_fracture::ModelBasedFracturer::new(FractureConfig::default()).fracture(&clip);
    let report = order_shots(&result.shots, 30);
    assert!(report.travel_after <= report.travel_before + 1e-9);
    assert_eq!(report.order.len(), result.shots.len());
}

#[test]
fn layout_text_round_trips_for_random_layouts() {
    for_cases(16, |rng| {
        let sides: Vec<(i64, i64)> = (0..rng.gen_range(1..=3))
            .map(|_| (rng.gen_range(12..=59), rng.gen_range(12..=59)))
            .collect();
        let placements: Vec<(usize, i64, i64)> = (0..rng.gen_range(0..=9))
            .map(|_| {
                let si = rng.gen_range(0..=3) as usize;
                (si, rng.gen_range(-500..=499), rng.gen_range(-500..=499))
            })
            .collect();
        let mut layout = Layout::new("prop");
        for (i, &(w, h)) in sides.iter().enumerate() {
            layout.add_shape(
                &format!("s{i}"),
                maskfrac_geom::Polygon::from_rect(
                    maskfrac_geom::Rect::new(0, 0, w, h).expect("rect"),
                ),
            );
        }
        for (si, dx, dy) in placements {
            let name = format!("s{}", si % sides.len());
            layout.place(&name, Placement::at(dx, dy));
        }
        let text = write_layout(&layout);
        let back = parse_layout(&text).expect("generated text parses");
        assert_eq!(layout, back);
    });
}
