//! Undirected simple graphs over vertices `0..n`.

use std::collections::BTreeSet;
use std::fmt;

/// An undirected simple graph with a fixed vertex set `0..n`.
///
/// Adjacency is stored as sorted sets per vertex, giving deterministic
/// neighbour iteration (coloring results must be reproducible run to run).
///
/// # Example
///
/// ```
/// use maskfrac_graph::Graph;
///
/// let mut g = Graph::new(3);
/// g.add_edge(0, 2);
/// assert!(g.has_edge(2, 0));
/// assert_eq!(g.degree(0), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    adjacency: Vec<BTreeSet<usize>>,
    edge_count: usize,
}

impl Graph {
    /// Creates an edgeless graph on `n` vertices.
    pub fn new(n: usize) -> Self {
        Graph {
            adjacency: vec![BTreeSet::new(); n],
            edge_count: 0,
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn vertex_count(&self) -> usize {
        self.adjacency.len()
    }

    /// Number of edges.
    #[inline]
    pub(crate) fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Adds the undirected edge `{u, v}`. Self-loops and duplicate edges
    /// are ignored.
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` is out of range.
    pub fn add_edge(&mut self, u: usize, v: usize) {
        assert!(u < self.vertex_count() && v < self.vertex_count(), "vertex out of range");
        if u == v {
            return;
        }
        if self.adjacency[u].insert(v) {
            self.adjacency[v].insert(u);
            self.edge_count += 1;
        }
    }

    /// Whether the edge `{u, v}` exists.
    #[inline]
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        self.adjacency.get(u).is_some_and(|s| s.contains(&v))
    }

    /// Iterator over the neighbours of `u` in ascending order.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub(crate) fn neighbors(&self, u: usize) -> impl Iterator<Item = usize> + '_ {
        self.adjacency[u].iter().copied()
    }

    /// Degree of vertex `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    #[inline]
    pub fn degree(&self, u: usize) -> usize {
        self.adjacency[u].len()
    }

    /// The complement ("inverse") graph: same vertices, an edge wherever
    /// `self` has none.
    pub(crate) fn complement(&self) -> Graph {
        let n = self.vertex_count();
        let mut g = Graph::new(n);
        for u in 0..n {
            for v in (u + 1)..n {
                if !self.has_edge(u, v) {
                    g.add_edge(u, v);
                }
            }
        }
        g
    }
}

impl fmt::Display for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "graph[{} vertices, {} edges]",
            self.vertex_count(),
            self.edge_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_query_edges() {
        let mut g = Graph::new(4);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(0, 2));
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.neighbors(1).collect::<Vec<_>>(), vec![0, 2]);
    }

    #[test]
    fn duplicates_and_self_loops_ignored() {
        let mut g = Graph::new(3);
        g.add_edge(0, 1);
        g.add_edge(1, 0);
        g.add_edge(2, 2);
        assert_eq!(g.edge_count(), 1);
        assert!(!g.has_edge(2, 2));
    }

    #[test]
    fn complement_of_path() {
        // Path 0-1-2: complement has single edge 0-2.
        let mut g = Graph::new(3);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        let c = g.complement();
        assert_eq!(c.edge_count(), 1);
        assert!(c.has_edge(0, 2));
        assert!(!c.has_edge(0, 1));
    }

    #[test]
    fn complement_involution() {
        let mut g = Graph::new(5);
        for &(u, v) in &[(0, 1), (1, 3), (2, 4), (0, 4)] {
            g.add_edge(u, v);
        }
        assert_eq!(g.complement().complement(), g);
    }

    #[test]
    fn complement_involution_holds() {
        maskfrac_geom::rng::for_cases(256, |rng| {
            let n = rng.gen_range(2..=23) as usize;
            let mut g = Graph::new(n);
            for _ in 0..rng.gen_range(0..=79) {
                let (u, v) = (
                    rng.gen_range(0..=23) as usize % n,
                    rng.gen_range(0..=23) as usize % n,
                );
                g.add_edge(u, v);
            }
            assert_eq!(g.complement().complement(), g);
        });
    }

    #[test]
    fn out_of_range_queries_are_false() {
        let g = Graph::new(2);
        assert!(!g.has_edge(5, 0));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn add_edge_validates() {
        Graph::new(2).add_edge(0, 7);
    }

    #[test]
    fn display() {
        let mut g = Graph::new(3);
        g.add_edge(0, 1);
        assert_eq!(g.to_string(), "graph[3 vertices, 1 edges]");
    }
}
