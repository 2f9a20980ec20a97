//! Graph substrate: undirected graphs, vertex coloring, clique partition.
//!
//! The approximate-fracturing step (paper §3) models shot selection as a
//! **minimum clique partition**: vertices are shot corner points, an edge
//! joins two corner points that could be corners of one valid shot, and
//! each clique of the graph corresponds to a shot. Clique partition is
//! NP-complete; following the paper (and Bhasker & Samad), it is solved by
//! **coloring the inverse graph** with a simple sequential greedy heuristic
//! (Matula, Marble & Isaacson). Welsh–Powell and DSATUR orderings are also
//! provided for the ablation benches.
//!
//! # Example
//!
//! ```
//! use maskfrac_graph::{Graph, ColoringStrategy, clique_partition};
//!
//! // A 4-cycle: {0-1, 1-2, 2-3, 3-0}. Minimum clique partition has 2
//! // cliques (two opposite edges).
//! let mut g = Graph::new(4);
//! g.add_edge(0, 1);
//! g.add_edge(1, 2);
//! g.add_edge(2, 3);
//! g.add_edge(3, 0);
//! let cliques = clique_partition(&g, ColoringStrategy::Sequential);
//! assert_eq!(cliques.len(), 2);
//! ```

#![warn(missing_docs)]

pub mod coloring;
pub mod graph;

pub use coloring::{color, is_proper, Coloring, ColoringStrategy};
pub use graph::Graph;

/// Partitions the vertices of `graph` into cliques by coloring the inverse
/// graph: two vertices get the same color only if they are non-adjacent in
/// the inverse graph, i.e. adjacent in `graph` — so each color class is a
/// clique.
///
/// Returns the classes sorted by their smallest vertex; every vertex
/// appears in exactly one class.
pub fn clique_partition(graph: &Graph, strategy: ColoringStrategy) -> Vec<Vec<usize>> {
    let inverse = graph.complement();
    let coloring = color(&inverse, strategy);
    let mut classes: Vec<Vec<usize>> = vec![Vec::new(); coloring.color_count];
    for (v, &c) in coloring.colors.iter().enumerate() {
        classes[c].push(v);
    }
    classes.retain(|c| !c.is_empty());
    classes.sort_by_key(|c| c[0]);
    classes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clique_partition_classes_are_cliques() {
        // Two triangles joined by one edge.
        let mut g = Graph::new(6);
        for &(u, v) in &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)] {
            g.add_edge(u, v);
        }
        for strategy in [
            ColoringStrategy::Sequential,
            ColoringStrategy::WelshPowell,
            ColoringStrategy::Dsatur,
        ] {
            let classes = clique_partition(&g, strategy);
            let mut seen = [false; 6];
            for class in &classes {
                for (i, &u) in class.iter().enumerate() {
                    assert!(!seen[u]);
                    seen[u] = true;
                    for &v in &class[i + 1..] {
                        assert!(g.has_edge(u, v), "{u}-{v} must be adjacent in a clique");
                    }
                }
            }
            assert!(seen.iter().all(|&s| s));
            assert!(classes.len() <= 3, "two triangles partition into <= 3 cliques");
        }
    }

    #[test]
    fn edgeless_graph_partitions_into_singletons() {
        let g = Graph::new(5);
        let classes = clique_partition(&g, ColoringStrategy::Sequential);
        assert_eq!(classes.len(), 5);
        assert!(classes.iter().all(|c| c.len() == 1));
    }

    #[test]
    fn complete_graph_is_one_clique() {
        let mut g = Graph::new(6);
        for u in 0..6 {
            for v in (u + 1)..6 {
                g.add_edge(u, v);
            }
        }
        let classes = clique_partition(&g, ColoringStrategy::Sequential);
        assert_eq!(classes.len(), 1);
        assert_eq!(classes[0].len(), 6);
    }

    #[test]
    fn empty_graph() {
        let g = Graph::new(0);
        assert!(clique_partition(&g, ColoringStrategy::Sequential).is_empty());
    }
}
