//! Budgeted solver facade used by CTCR.

use oct_obs::Metrics;
use oct_resilience::Budget;

use crate::{exact, graph::Graph, hypergraph, local, Hypergraph};

/// Search-effort budget for a MWIS solve.
#[derive(Debug, Clone)]
pub struct SolveBudget {
    /// Maximum branch-and-bound nodes before falling back to local search.
    pub nodes: u64,
    /// Perturbation rounds for the local-search fallback / polish.
    pub local_search_rounds: usize,
    /// Seed for randomized components (deterministic per seed).
    pub seed: u64,
    /// Wall-clock budget; on expiry the exact search returns its
    /// best-so-far and the remainder falls back to greedy + local search.
    pub wall: Budget,
}

impl Default for SolveBudget {
    fn default() -> Self {
        Self {
            nodes: 2_000_000,
            local_search_rounds: 50,
            seed: 0xC7C12,
            wall: Budget::unlimited(),
        }
    }
}

impl SolveBudget {
    /// A tiny budget that effectively forces the heuristic path; used by the
    /// `repro ablations` run comparing exact vs. heuristic conflict resolution.
    pub fn heuristic_only() -> Self {
        Self {
            nodes: 0,
            ..Self::default()
        }
    }

    /// The default node budget under a wall-clock [`Budget`].
    pub fn with_wall(wall: Budget) -> Self {
        Self {
            wall,
            ..Self::default()
        }
    }
}

/// A solved independent set with provenance information.
#[derive(Debug, Clone)]
pub struct MisSolution {
    /// Selected vertices, sorted ascending.
    pub vertices: Vec<u32>,
    /// Total weight of the selection.
    pub weight: f64,
    /// Whether the solver proved optimality.
    pub optimal: bool,
    /// Whether the wall-clock budget expired during the solve (the
    /// solution then comes from the anytime best-so-far / fallback path).
    pub deadline_expired: bool,
}

/// Facade selecting between the exact solvers and heuristics.
#[derive(Debug, Clone, Default)]
pub struct Solver {
    budget: SolveBudget,
}

impl Solver {
    /// Creates a solver with the given budget.
    pub fn new(budget: SolveBudget) -> Self {
        Self { budget }
    }

    /// Solves MWIS on an ordinary graph (the Exact-variant conflict graph).
    pub fn solve_graph(&self, g: &Graph) -> MisSolution {
        self.solve_graph_with_metrics(g, &Metrics::disabled())
    }

    /// [`Solver::solve_graph`] with solver-progress telemetry: records
    /// `mis/nodes_explored`, and increments `mis/budget_exhausted` /
    /// `mis/heuristic_fallback` / `mis/local_search_improved` as those
    /// paths engage.
    pub fn solve_graph_with_metrics(&self, g: &Graph, metrics: &Metrics) -> MisSolution {
        if self.budget.nodes == 0 || self.budget.wall.expired() {
            let deadline_expired = self.budget.wall.expired();
            if deadline_expired {
                metrics.incr("budget/expired");
            }
            metrics.incr("mis/heuristic_fallback");
            let init = local::greedy(g);
            let sol =
                local::local_search(g, &init, self.budget.local_search_rounds, self.budget.seed);
            let weight = sol.iter().map(|&v| g.weight(v)).sum();
            return MisSolution {
                vertices: sol,
                weight,
                optimal: false,
                deadline_expired,
            };
        }
        let res = exact::solve_with(g, self.budget.nodes, &self.budget.wall);
        metrics.add("mis/nodes_explored", res.nodes_used);
        if res.deadline_expired {
            metrics.incr("budget/expired");
        }
        if res.optimal {
            MisSolution {
                vertices: res.solution,
                weight: res.weight,
                optimal: true,
                deadline_expired: false,
            }
        } else {
            metrics.incr("mis/budget_exhausted");
            // Polish the budget-capped result with local search and keep the
            // better of the two.
            let polished = local::local_search(
                g,
                &res.solution,
                self.budget.local_search_rounds,
                self.budget.seed,
            );
            let polished_weight: f64 = polished.iter().map(|&v| g.weight(v)).sum();
            if polished_weight > res.weight {
                metrics.incr("mis/local_search_improved");
                MisSolution {
                    vertices: polished,
                    weight: polished_weight,
                    optimal: false,
                    deadline_expired: res.deadline_expired,
                }
            } else {
                MisSolution {
                    vertices: res.solution,
                    weight: res.weight,
                    optimal: false,
                    deadline_expired: res.deadline_expired,
                }
            }
        }
    }

    /// Solves MWIS on a conflict hypergraph (edges of size 2 and 3).
    ///
    /// Each branch-and-bound node scans the edge list, so on dense
    /// instances the node budget is scaled down to keep the total work
    /// bounded (the greedy + local-search fallback then carries the
    /// solution quality, as in the partitioning-based algorithms the paper
    /// cites for non-sparse hypergraphs).
    pub fn solve_hypergraph(&self, h: &Hypergraph) -> MisSolution {
        self.solve_hypergraph_with_metrics(h, &Metrics::disabled())
    }

    /// [`Solver::solve_hypergraph`] with solver-progress telemetry (see
    /// [`Solver::solve_graph_with_metrics`]); additionally records the
    /// density-scaled node budget as the `mis/effective_node_budget` gauge.
    pub fn solve_hypergraph_with_metrics(&self, h: &Hypergraph, metrics: &Metrics) -> MisSolution {
        const WORK_CAP: u64 = 200_000_000;
        let per_node = h.edges().len() as u64 + 1;
        let effective = self.budget.nodes.min((WORK_CAP / per_node).max(1_000));
        metrics.gauge("mis/effective_node_budget", effective as f64);
        let res = hypergraph::solve_with(h, effective, &self.budget.wall);
        metrics.add("mis/nodes_explored", res.nodes_used);
        if res.deadline_expired {
            metrics.incr("budget/expired");
        }
        if !res.optimal {
            metrics.incr("mis/budget_exhausted");
        }
        MisSolution {
            vertices: res.solution,
            weight: res.weight,
            optimal: res.optimal,
            deadline_expired: res.deadline_expired,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graph_facade_solves_exactly() {
        let g = Graph::new(vec![1.0, 5.0, 1.0], &[(0, 1), (1, 2)]);
        let sol = Solver::default().solve_graph(&g);
        assert!(sol.optimal);
        assert_eq!(sol.vertices, vec![1]);
        assert_eq!(sol.weight, 5.0);
    }

    #[test]
    fn heuristic_only_path_is_valid() {
        let g = Graph::new(vec![1.0; 4], &[(0, 1), (1, 2), (2, 3)]);
        let sol = Solver::new(SolveBudget::heuristic_only()).solve_graph(&g);
        assert!(!sol.optimal);
        assert!(crate::verify_graph_solution(&g, &sol.vertices).is_some());
        assert_eq!(sol.weight, 2.0);
    }

    #[test]
    fn metrics_record_solver_progress() {
        let g = Graph::new(vec![1.0, 5.0, 1.0], &[(0, 1), (1, 2)]);
        let m = Metrics::enabled();
        let sol = Solver::default().solve_graph_with_metrics(&g, &m);
        assert!(sol.optimal);
        let report = m.report();
        // Reductions may solve a tiny graph without expanding any node, but
        // the counter must be present after an exact solve.
        assert!(report.counter("mis/nodes_explored").is_some());
        assert_eq!(report.counter("mis/budget_exhausted"), None);

        let m = Metrics::enabled();
        let sol = Solver::new(SolveBudget::heuristic_only()).solve_graph_with_metrics(&g, &m);
        assert!(!sol.optimal);
        assert_eq!(m.report().counter("mis/heuristic_fallback"), Some(1));

        let h = Hypergraph::new(vec![1.0, 1.0, 1.0], vec![vec![0, 1, 2]]);
        let m = Metrics::enabled();
        let sol = Solver::default().solve_hypergraph_with_metrics(&h, &m);
        assert!(sol.optimal);
        let report = m.report();
        assert!(report.counter("mis/nodes_explored").unwrap_or(0) > 0);
        assert!(report.gauge("mis/effective_node_budget").unwrap_or(0.0) >= 1_000.0);
    }

    #[test]
    fn expired_wall_budget_degrades_both_facades() {
        use oct_resilience::Budget;
        let g = Graph::new(vec![1.0; 4], &[(0, 1), (1, 2), (2, 3)]);
        let m = Metrics::enabled();
        let sol = Solver::new(SolveBudget::with_wall(Budget::expired_now()))
            .solve_graph_with_metrics(&g, &m);
        assert!(!sol.optimal);
        assert!(sol.deadline_expired);
        assert!(crate::verify_graph_solution(&g, &sol.vertices).is_some());
        assert_eq!(m.report().counter("budget/expired"), Some(1));

        let h = Hypergraph::new(vec![1.0, 1.0, 1.0], vec![vec![0, 1, 2]]);
        let m = Metrics::enabled();
        let sol = Solver::new(SolveBudget::with_wall(Budget::expired_now()))
            .solve_hypergraph_with_metrics(&h, &m);
        assert!(!sol.optimal);
        assert!(sol.deadline_expired);
        assert!(crate::verify_hypergraph_solution(&h, &sol.vertices).is_some());
        assert_eq!(m.report().counter("budget/expired"), Some(1));
    }

    #[test]
    fn hypergraph_facade() {
        let h = Hypergraph::new(vec![1.0, 1.0, 1.0], vec![vec![0, 1, 2]]);
        let sol = Solver::default().solve_hypergraph(&h);
        assert!(sol.optimal);
        assert_eq!(sol.weight, 2.0);
    }
}
