//! Property-based tests for the graph substrate.

use maskfrac_geom::rng::{for_cases, StdRng};
use maskfrac_graph::{clique_partition, color, is_proper, ColoringStrategy, Graph};

/// A uniform index in `lo..=hi`.
fn index(rng: &mut StdRng, lo: usize, hi: usize) -> usize {
    rng.gen_range(lo as i64..=hi as i64) as usize
}

/// A random graph on 2..24 vertices with up to 79 candidate edges.
fn graph(rng: &mut StdRng) -> Graph {
    let n = index(rng, 2, 23);
    let mut g = Graph::new(n);
    for _ in 0..index(rng, 0, 79) {
        let (u, v) = (index(rng, 0, 23) % n, index(rng, 0, 23) % n);
        if u != v {
            g.add_edge(u, v);
        }
    }
    g
}

#[test]
fn all_strategies_yield_proper_colorings() {
    for_cases(256, |rng| {
        let g = graph(rng);
        for strategy in [
            ColoringStrategy::Sequential,
            ColoringStrategy::WelshPowell,
            ColoringStrategy::Dsatur,
        ] {
            let c = color(&g, strategy);
            assert!(is_proper(&g, &c.colors), "{strategy:?}");
            // Greedy colorings use at most max_degree + 1 colors.
            let max_degree = (0..g.vertex_count())
                .map(|v| g.degree(v))
                .max()
                .unwrap_or(0);
            assert!(c.color_count <= max_degree + 1);
        }
    });
}

#[test]
fn clique_partition_is_exhaustive_and_valid() {
    for_cases(256, |rng| {
        let g = graph(rng);
        let classes = clique_partition(&g, ColoringStrategy::Sequential);
        let mut seen = vec![false; g.vertex_count()];
        for class in &classes {
            for (i, &u) in class.iter().enumerate() {
                assert!(!seen[u], "vertex {u} in two cliques");
                seen[u] = true;
                for &v in &class[i + 1..] {
                    assert!(g.has_edge(u, v), "{u}-{v} not adjacent");
                }
            }
        }
        assert!(seen.iter().all(|&s| s), "a vertex was dropped");
    });
}
