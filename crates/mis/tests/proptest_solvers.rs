//! Property-based tests for the MWIS solvers.

use oct_mis::{
    exact, hypergraph, local, verify_graph_solution, verify_hypergraph_solution, Graph, Hypergraph,
    Solver,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Random small graph: vertex weights and an edge list.
fn arb_graph(max_n: usize) -> impl Strategy<Value = Graph> {
    (2..=max_n).prop_flat_map(|n| {
        let weights = prop::collection::vec(0.0f64..50.0, n);
        let edges = prop::collection::vec((0..n as u32, 0..n as u32), 0..n * 3);
        (weights, edges).prop_map(|(w, raw)| {
            let edges: Vec<(u32, u32)> = raw
                .into_iter()
                .filter(|&(a, b)| a != b)
                .map(|(a, b)| (a.min(b), a.max(b)))
                .collect();
            Graph::new(w, &edges)
        })
    })
}

fn brute_force_graph(g: &Graph) -> f64 {
    let n = g.len();
    assert!(n <= 16, "brute force cap");
    let mut best = 0.0f64;
    for mask in 0u32..(1 << n) {
        let sel: Vec<u32> = (0..n as u32).filter(|&v| mask >> v & 1 == 1).collect();
        if let Some(w) = verify_graph_solution(g, &sel) {
            best = best.max(w);
        }
    }
    best
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn exact_matches_brute_force(g in arb_graph(12)) {
        let res = exact::solve(&g, u64::MAX);
        prop_assert!(res.optimal);
        let verified = verify_graph_solution(&g, &res.solution)
            .expect("solution must be independent");
        // Summation order differs between solver and verifier: tolerate ULPs.
        prop_assert!((verified - res.weight).abs() < 1e-6);
        let brute = brute_force_graph(&g);
        prop_assert!((res.weight - brute).abs() < 1e-6,
            "exact {} vs brute {}", res.weight, brute);
    }

    /// `Graph::new`'s linear-time build equals sorting and deduplicating
    /// each vertex's list, whatever the order, orientation and repetition
    /// of the edge list: the list as drawn, shuffled, reversed and flipped,
    /// and followed by its own reversal. Graphs of 0 and 1 vertices and
    /// isolated vertices are included.
    #[test]
    fn build_equals_the_sort_and_dedup_reference(
        n in 0usize..40,
        raw in prop::collection::vec((any::<u32>(), any::<u32>()), 0..120),
        seed in any::<u64>(),
    ) {
        let edges: Vec<(u32, u32)> = raw
            .iter()
            .map(|&(a, b)| (a % n.max(1) as u32, b % n.max(1) as u32))
            .filter(|&(a, b)| a != b)
            .collect();
        let mut reference = vec![Vec::new(); n];
        for &(a, b) in &edges {
            reference[a as usize].push(b);
            reference[b as usize].push(a);
        }
        for list in &mut reference {
            list.sort_unstable();
            list.dedup();
        }
        let mut shuffled = edges.clone();
        let mut rng = StdRng::seed_from_u64(seed);
        for i in (1..shuffled.len()).rev() {
            shuffled.swap(i, rng.gen_range(0..=i));
        }
        let reversed: Vec<(u32, u32)> = edges.iter().rev().map(|&(a, b)| (b, a)).collect();
        let doubled: Vec<(u32, u32)> = edges.iter().chain(&reversed).copied().collect();
        let weights: Vec<f64> = (0..n).map(|v| v as f64).collect();
        for list in [&edges, &shuffled, &reversed, &doubled] {
            let g = Graph::new(weights.clone(), list);
            prop_assert_eq!(g.len(), n);
            prop_assert_eq!(g.num_edges(), reference.iter().map(Vec::len).sum::<usize>() / 2);
            for (v, want) in reference.iter().enumerate() {
                prop_assert_eq!(g.neighbors(v as u32), &want[..]);
                prop_assert_eq!(g.degree(v as u32), want.len());
                prop_assert_eq!(g.weight(v as u32), v as f64);
            }
        }
    }

    /// Each component's subgraph, built from the parent's sorted lists,
    /// equals `Graph::new` over the component's induced edge list.
    #[test]
    fn component_subgraphs_equal_induced_rebuilds(g in arb_graph(40)) {
        let comps = g.connected_components();
        prop_assert_eq!(comps.iter().map(|(m, _)| m.len()).sum::<usize>(), g.len());
        for (members, sub) in &comps {
            let local = |v: u32| members.binary_search(&v).expect("edges stay inside") as u32;
            let induced: Vec<(u32, u32)> = members
                .iter()
                .flat_map(|&v| g.neighbors(v).iter().map(move |&u| (v, u)))
                .filter(|&(v, u)| v < u)
                .map(|(v, u)| (local(v), local(u)))
                .collect();
            let weights = members.iter().map(|&v| g.weight(v)).collect();
            prop_assert_eq!(sub, &Graph::new(weights, &induced));
        }
    }

    #[test]
    fn greedy_is_always_independent(g in arb_graph(24)) {
        let sol = local::greedy(&g);
        prop_assert!(verify_graph_solution(&g, &sol).is_some());
    }

    #[test]
    fn local_search_never_worse_than_greedy(g in arb_graph(20)) {
        let init = local::greedy(&g);
        let init_w: f64 = init.iter().map(|&v| g.weight(v)).sum();
        let improved = local::local_search(&g, &init, 10, 1);
        let improved_w: f64 = improved.iter().map(|&v| g.weight(v)).sum();
        prop_assert!(verify_graph_solution(&g, &improved).is_some());
        prop_assert!(improved_w + 1e-9 >= init_w);
    }

    #[test]
    fn exact_never_below_greedy(g in arb_graph(14)) {
        let res = exact::solve(&g, u64::MAX);
        let greedy_w: f64 = local::greedy(&g).iter().map(|&v| g.weight(v)).sum();
        prop_assert!(res.weight + 1e-9 >= greedy_w);
    }

    #[test]
    fn budget_zero_is_valid_and_flagged(g in arb_graph(16)) {
        let res = exact::solve(&g, 0);
        prop_assert!(verify_graph_solution(&g, &res.solution).is_some());
    }
}

/// Random hypergraph with edges of size 2 and 3.
fn arb_hypergraph(max_n: usize) -> impl Strategy<Value = Hypergraph> {
    (3..=max_n).prop_flat_map(|n| {
        let weights = prop::collection::vec(0.0f64..50.0, n);
        let edges = prop::collection::vec(prop::collection::vec(0..n as u32, 2..=3), 0..n * 2);
        (weights, edges).prop_map(|(w, raw)| {
            let edges: Vec<Vec<u32>> = raw
                .into_iter()
                .map(|mut e| {
                    e.sort_unstable();
                    e.dedup();
                    e
                })
                .filter(|e| e.len() >= 2)
                .collect();
            Hypergraph::new(w, edges)
        })
    })
}

fn brute_force_hyper(h: &Hypergraph) -> f64 {
    let n = h.len();
    assert!(n <= 14);
    let mut best = 0.0f64;
    for mask in 0u32..(1 << n) {
        let sel: Vec<u32> = (0..n as u32).filter(|&v| mask >> v & 1 == 1).collect();
        if let Some(w) = verify_hypergraph_solution(h, &sel) {
            best = best.max(w);
        }
    }
    best
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn hypergraph_exact_matches_brute_force(h in arb_hypergraph(10)) {
        let res = hypergraph::solve(&h, u64::MAX);
        prop_assert!(res.optimal);
        let verified = verify_hypergraph_solution(&h, &res.solution)
            .expect("solution must be independent");
        prop_assert!((verified - res.weight).abs() < 1e-6);
        let brute = brute_force_hyper(&h);
        prop_assert!((res.weight - brute).abs() < 1e-6,
            "exact {} vs brute {}", res.weight, brute);
    }

    #[test]
    fn hypergraph_greedy_independent(h in arb_hypergraph(14)) {
        let sol = hypergraph::greedy(&h);
        prop_assert!(verify_hypergraph_solution(&h, &sol).is_some());
    }

    #[test]
    fn pair_only_hypergraph_agrees_with_graph_solver(g in arb_graph(11)) {
        // A hypergraph with only size-2 edges is an ordinary MWIS instance:
        // both solvers must find the same optimum weight.
        let weights: Vec<f64> = (0..g.len() as u32).map(|v| g.weight(v)).collect();
        let mut edges: Vec<Vec<u32>> = Vec::new();
        for v in 0..g.len() as u32 {
            for &u in g.neighbors(v) {
                if v < u {
                    edges.push(vec![v, u]);
                }
            }
        }
        let h = Hypergraph::new(weights, edges);
        let hyper = Solver::default().solve_hypergraph(&h);
        let graph = Solver::default().solve_graph(&g);
        prop_assert!(hyper.optimal && graph.optimal);
        prop_assert!((hyper.weight - graph.weight).abs() < 1e-6,
            "hyper {} vs graph {}", hyper.weight, graph.weight);
    }
}
