//! Compact weighted undirected graphs used as MWIS instances.

/// An undirected vertex-weighted graph with sorted, deduplicated adjacency
/// lists and no self-loops, stored in compressed sparse row (CSR) form: the
/// neighbours of `v` are `adj[offsets[v]..offsets[v + 1]]`.
///
/// Vertices are dense `u32` indices in `0..len()`. Weights are non-negative
/// `f64` values (input-set weights in the OCT reduction).
#[derive(Debug, Clone, PartialEq)]
pub struct Graph {
    offsets: Vec<usize>,
    adj: Vec<u32>,
    weights: Vec<f64>,
}

impl Graph {
    /// Builds a graph over `weights.len()` vertices from an edge list.
    ///
    /// Self-loops are rejected; duplicate edges are collapsed. Runs in
    /// `O(n + m)` without a comparison sort: every edge is scattered both
    /// ways into an unsorted CSR, and one transposition pass over the
    /// sources in ascending order writes each list sorted, duplicates next
    /// to each other, to be collapsed in place.
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
        let mut offsets = vec![0usize; n + 1];
        for &(a, b) in edges {
            assert!(
                (a as usize) < n && (b as usize) < n,
                "edge ({a},{b}) out of range"
            );
            assert_ne!(a, b, "self-loop at vertex {a}");
            offsets[a as usize + 1] += 1;
            offsets[b as usize + 1] += 1;
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        // Scatter each edge both ways, in edge-list order.
        let mut cursor = offsets[..n].to_vec();
        let mut scattered = vec![0u32; offsets[n]];
        for &(a, b) in edges {
            scattered[cursor[a as usize]] = b;
            cursor[a as usize] += 1;
            scattered[cursor[b as usize]] = a;
            cursor[b as usize] += 1;
        }
        // Transpose: `u` appears in `v`'s list as often as `v` in `u`'s, so
        // the lists keep their lengths, and with the sources visited in
        // ascending order each list fills in ascending order.
        cursor.copy_from_slice(&offsets[..n]);
        let mut adj = vec![0u32; offsets[n]];
        for u in 0..n {
            for &v in &scattered[offsets[u]..offsets[u + 1]] {
                adj[cursor[v as usize]] = u as u32;
                cursor[v as usize] += 1;
            }
        }
        // Collapse adjacent duplicates in place, list by list.
        let mut write = 0;
        let mut start = 0;
        for v in 0..n {
            let end = offsets[v + 1];
            for read in start..end {
                if read == start || adj[read] != adj[read - 1] {
                    adj[write] = adj[read];
                    write += 1;
                }
            }
            start = end;
            offsets[v + 1] = write;
        }
        adj.truncate(write);
        Self {
            offsets,
            adj,
            weights,
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
        self.adj.len() / 2
    }

    /// Weight of vertex `v`.
    #[inline]
    pub fn weight(&self, v: u32) -> f64 {
        self.weights[v as usize]
    }

    /// Sorted neighbor list of `v`.
    #[inline]
    pub fn neighbors(&self, v: u32) -> &[u32] {
        &self.adj[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: u32) -> usize {
        self.offsets[v as usize + 1] - self.offsets[v as usize]
    }

    /// `true` when `{a, b}` is an edge.
    pub fn has_edge(&self, a: u32, b: u32) -> bool {
        self.neighbors(a).binary_search(&b).is_ok()
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
        // The members of every component, one run after another, each run
        // sorted once its search is done; a run doubles as its search's
        // queue.
        let mut members: Vec<u32> = Vec::with_capacity(n);
        let mut bounds = vec![0];
        let mut seen = vec![false; n];
        for start in 0..n as u32 {
            if seen[start as usize] {
                continue;
            }
            let first = members.len();
            seen[start as usize] = true;
            members.push(start);
            let mut next = first;
            while let Some(&v) = members.get(next) {
                next += 1;
                for &u in self.neighbors(v) {
                    if !seen[u as usize] {
                        seen[u as usize] = true;
                        members.push(u);
                    }
                }
            }
            members[first..].sort_unstable();
            bounds.push(members.len());
        }
        // One local-index map serves every component: an induced edge never
        // leaves its component, so only the current members' entries are read.
        // `local` ascends over the sorted members, so mapping a sorted,
        // deduplicated neighbor list keeps it sorted and deduplicated, and
        // the mapped lists, concatenated in member order, are the
        // subgraph's CSR.
        let mut local = vec![0u32; n];
        bounds
            .windows(2)
            .map(|run| {
                let members = &members[run[0]..run[1]];
                for (i, &v) in members.iter().enumerate() {
                    local[v as usize] = i as u32;
                }
                let mut offsets = Vec::with_capacity(members.len() + 1);
                offsets.push(0);
                let mut adj = Vec::with_capacity(members.iter().map(|&v| self.degree(v)).sum());
                for &v in members {
                    adj.extend(self.neighbors(v).iter().map(|&u| local[u as usize]));
                    offsets.push(adj.len());
                }
                let sub = Graph {
                    offsets,
                    adj,
                    weights: members.iter().map(|&v| self.weight(v)).collect(),
                };
                (members.to_vec(), sub)
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
