//! Compact weighted undirected graphs used as MWIS instances.

/// An undirected vertex-weighted graph with sorted, deduplicated adjacency
/// lists and no self-loops.
///
/// Vertices are dense `u32` indices in `0..len()`. Weights are non-negative
/// `f64` values (input-set weights in the OCT reduction).
#[derive(Debug, Clone, PartialEq)]
pub struct Graph {
    adj: Vec<Vec<u32>>,
    weights: Vec<f64>,
    num_edges: usize,
}

impl Graph {
    /// Builds a graph over `weights.len()` vertices from an edge list.
    ///
    /// Self-loops are rejected; duplicate edges are collapsed.
    ///
    /// # Panics
    /// Panics if an endpoint is out of range, if an edge is a self-loop, or
    /// if any weight is negative or non-finite.
    pub fn new(weights: Vec<f64>, edges: &[(u32, u32)]) -> Self {
        let n = weights.len();
        for (i, &w) in weights.iter().enumerate() {
            assert!(
                w.is_finite() && w >= 0.0,
                "vertex {i} has invalid weight {w}"
            );
        }
        let mut adj = vec![Vec::new(); n];
        for &(a, b) in edges {
            assert!(
                (a as usize) < n && (b as usize) < n,
                "edge ({a},{b}) out of range"
            );
            assert_ne!(a, b, "self-loop at vertex {a}");
            adj[a as usize].push(b);
            adj[b as usize].push(a);
        }
        let mut num_edges = 0;
        for list in &mut adj {
            list.sort_unstable();
            list.dedup();
            num_edges += list.len();
        }
        Self {
            adj,
            weights,
            num_edges: num_edges / 2,
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// `true` when the graph has no vertices.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// Number of (undirected) edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Weight of vertex `v`.
    #[inline]
    pub fn weight(&self, v: u32) -> f64 {
        self.weights[v as usize]
    }

    /// Sorted neighbor list of `v`.
    #[inline]
    pub fn neighbors(&self, v: u32) -> &[u32] {
        &self.adj[v as usize]
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: u32) -> usize {
        self.adj[v as usize].len()
    }

    /// `true` when `{a, b}` is an edge.
    pub fn has_edge(&self, a: u32, b: u32) -> bool {
        self.adj[a as usize].binary_search(&b).is_ok()
    }

    /// Total weight of all vertices.
    pub fn total_weight(&self) -> f64 {
        self.weights.iter().sum()
    }

    /// Splits the graph into connected components.
    ///
    /// Returns, per component, the list of original vertex ids (sorted) and
    /// the induced subgraph over locally re-indexed vertices
    /// (`component[i] ↦ i`).
    pub fn connected_components(&self) -> Vec<(Vec<u32>, Graph)> {
        let n = self.len();
        let mut comp = vec![u32::MAX; n];
        let mut components: Vec<Vec<u32>> = Vec::new();
        let mut stack = Vec::new();
        for start in 0..n as u32 {
            if comp[start as usize] != u32::MAX {
                continue;
            }
            let id = components.len() as u32;
            let mut members = vec![start];
            comp[start as usize] = id;
            stack.push(start);
            while let Some(v) = stack.pop() {
                for &u in self.neighbors(v) {
                    if comp[u as usize] == u32::MAX {
                        comp[u as usize] = id;
                        members.push(u);
                        stack.push(u);
                    }
                }
            }
            members.sort_unstable();
            components.push(members);
        }
        // One local-index map serves every component: an induced edge never
        // leaves its component, so only the current members' entries are read.
        // `local` ascends over the sorted members, so mapping a sorted,
        // deduplicated neighbor list keeps it sorted and deduplicated.
        let mut local = vec![0u32; n];
        components
            .into_iter()
            .map(|members| {
                for (i, &v) in members.iter().enumerate() {
                    local[v as usize] = i as u32;
                }
                let adj: Vec<Vec<u32>> = members
                    .iter()
                    .map(|&v| {
                        self.neighbors(v)
                            .iter()
                            .map(|&u| local[u as usize])
                            .collect()
                    })
                    .collect();
                let sub = Graph {
                    num_edges: adj.iter().map(Vec::len).sum::<usize>() / 2,
                    adj,
                    weights: members.iter().map(|&v| self.weight(v)).collect(),
                };
                (members, sub)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path3() -> Graph {
        Graph::new(vec![1.0, 2.0, 1.0], &[(0, 1), (1, 2)])
    }

    #[test]
    fn builds_sorted_dedup_adjacency() {
        let g = Graph::new(vec![1.0; 3], &[(0, 1), (1, 0), (2, 1)]);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn has_edge_and_degree() {
        let g = path3();
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(0, 2));
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.degree(0), 1);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn rejects_self_loops() {
        let _ = Graph::new(vec![1.0; 2], &[(1, 1)]);
    }

    #[test]
    #[should_panic(expected = "invalid weight")]
    fn rejects_negative_weights() {
        let _ = Graph::new(vec![-1.0], &[]);
    }

    #[test]
    fn components_split_and_reindex() {
        // 0-1  2-3-4   5
        let g = Graph::new(vec![1.0; 6], &[(0, 1), (2, 3), (3, 4)]);
        let comps = g.connected_components();
        assert_eq!(comps.len(), 3);
        assert_eq!(comps[0].0, vec![0, 1]);
        assert_eq!(comps[1].0, vec![2, 3, 4]);
        assert_eq!(comps[2].0, vec![5]);
        let (_, sub) = &comps[1];
        assert_eq!(sub.len(), 3);
        assert_eq!(sub.num_edges(), 2);
        assert!(sub.has_edge(0, 1) && sub.has_edge(1, 2) && !sub.has_edge(0, 2));
    }

    #[test]
    fn components_of_many_singletons_and_a_few_paths() {
        // Paths 3-7-11 and 20-21, the rest singletons; weights tell the
        // vertices apart after re-indexing.
        let n = 40u32;
        let weights: Vec<f64> = (0..n).map(|v| v as f64 + 1.0).collect();
        let g = Graph::new(weights, &[(7, 11), (3, 7), (20, 21)]);
        let comps = g.connected_components();
        assert_eq!(comps.len(), n as usize - 3);
        for (members, sub) in &comps {
            let start = members[0];
            let expect: Vec<u32> = match start {
                3 => vec![3, 7, 11],
                20 => vec![20, 21],
                _ => vec![start],
            };
            assert_eq!(members, &expect);
            assert_eq!(sub.len(), expect.len());
            for (i, &v) in members.iter().enumerate() {
                assert_eq!(sub.weight(i as u32), g.weight(v));
            }
            assert_eq!(sub.num_edges(), expect.len() - 1);
            for i in 1..members.len() as u32 {
                assert!(sub.has_edge(i - 1, i));
            }
        }
        let starts: Vec<u32> = comps.iter().map(|(m, _)| m[0]).collect();
        let expect: Vec<u32> = (0..n).filter(|v| ![7, 11, 21].contains(v)).collect();
        assert_eq!(starts, expect);
    }

    #[test]
    fn total_weight_sums() {
        assert_eq!(path3().total_weight(), 4.0);
    }
}
