//! Maximum-weight independent set (MWIS) solvers.
//!
//! The CTCR algorithm of *Automated Category Tree Construction in E-Commerce*
//! (SIGMOD 2022) resolves categorization conflicts by reducing them to MWIS
//! instances: a **conflict graph** (edges = 2-conflicts) for the Exact variant
//! and a **conflict hypergraph** (edges of size 2 and 3) for every other
//! variant. The paper uses the exact branch-and-reduce solver of Lamm et al.
//! (ALENEX 2019) on graphs and the partitioning-based algorithm of
//! Halldórsson–Losievskaja on sparse hypergraphs. This crate provides
//! from-scratch equivalents:
//!
//! * [`graph::Graph`] — compact weighted undirected graphs in CSR form,
//!   built from an edge list in `O(n + m)` without a comparison sort;
//! * [`exact`] — branch-and-reduce exact MWIS with weighted reductions
//!   (isolated-vertex take, degree-1 fold, neighborhood-weight take,
//!   domination) and a greedy weighted-clique-cover upper bound;
//! * [`local`] — weighted greedy construction plus (1,2)-swap local search,
//!   used both for initial lower bounds and as the fallback when an instance
//!   exceeds the exact-search budget; on dense graphs the search tests
//!   adjacency on bit rows, a 64-bit word at a time, with the same answers
//!   as on adjacency lists, and the insertion sweep skips the vertices
//!   whose eviction a running blocked weight proves to fail;
//! * [`hypergraph`] — MWIS on hypergraphs with edges of size ≥ 2, with an
//!   exact hitting-set-style branch-and-bound and a greedy/local-search
//!   fallback;
//! * [`solver`] — a budgeted facade choosing between the exact solver and the
//!   fallback, reporting whether the returned solution is provably optimal.
//!
//! All solvers are deterministic for a fixed seed.

pub mod exact;
pub mod graph;
pub mod hypergraph;
pub mod local;
pub mod solver;

pub use graph::Graph;
pub use hypergraph::Hypergraph;
pub use solver::{MisSolution, SolveBudget, Solver};

/// Verifies that `sol` is an independent set in `g` (no edge has both
/// endpoints selected) and returns its total weight.
///
/// Returns `None` when the selection is not independent.
pub fn verify_graph_solution(g: &Graph, sol: &[u32]) -> Option<f64> {
    let mut selected = vec![false; g.len()];
    for &v in sol {
        selected[v as usize] = true;
    }
    for &v in sol {
        for &u in g.neighbors(v) {
            if selected[u as usize] {
                return None;
            }
        }
    }
    Some(sol.iter().map(|&v| g.weight(v)).sum())
}

/// Verifies that `sol` is independent in the hypergraph `h` (no hyperedge is
/// fully selected) and returns its total weight; `None` if some edge is
/// violated.
pub fn verify_hypergraph_solution(h: &Hypergraph, sol: &[u32]) -> Option<f64> {
    let mut selected = vec![false; h.len()];
    for &v in sol {
        selected[v as usize] = true;
    }
    for edge in h.edges() {
        if edge.iter().all(|&v| selected[v as usize]) {
            return None;
        }
    }
    Some(sol.iter().map(|&v| h.weight(v)).sum())
}
