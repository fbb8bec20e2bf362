//! Differential suite for the MWIS local search: `local::local_search` and
//! `local::repair` return exactly the `Vec<u32>` of the plain
//! neighbour-list reference search in `local_oracle`, on both sides of the
//! bit-row rule (`n·⌈n/64⌉ ≤ m`) and at the word boundaries of the rows.

mod local_oracle;

use oct_mis::{local, Graph};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Vertex counts at and around the 64-bit word boundaries.
const BOUNDARY_SIZES: [usize; 6] = [1, 63, 64, 65, 128, 129];

/// Edge probability at which the expected edge count meets the row rule.
fn rule_density(n: usize) -> f64 {
    if n < 2 {
        return 1.0;
    }
    (2 * n.div_ceil(64)) as f64 / (n - 1) as f64
}

fn uses_rows(g: &Graph) -> bool {
    let n = g.len();
    n > 0 && n * n.div_ceil(64) <= g.num_edges()
}

/// A `G(n, p)` graph with `p = ratio ×` the row-rule density (capped at 1)
/// and weights in thirds, zero included, so that ties and inexact sums
/// both occur.
fn graph(n: usize, ratio: f64, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let p = (ratio * rule_density(n)).min(1.0);
    let weights = (0..n)
        .map(|_| rng.gen_range(0u32..10) as f64 / 3.0)
        .collect();
    let mut edges = Vec::new();
    for a in 0..n as u32 {
        for b in a + 1..n as u32 {
            if rng.gen_bool(p) {
                edges.push((a, b));
            }
        }
    }
    Graph::new(weights, &edges)
}

/// A `G(n, p)` graph like [`graph`] whose weights span sixteen orders of
/// magnitude: 1e16 and its thirds beside 1.0, 1.5, 1.75 and thirds. A running
/// sum of such weights rounds, and cancels when a heavy neighbour leaves
/// the selection, so the sweep's skip is sound only through its error
/// bound.
fn wide_graph(n: usize, ratio: f64, seed: u64) -> Graph {
    const PALETTE: [f64; 9] = [
        1e16,
        1e16 / 3.0,
        2e16 / 3.0,
        1.0,
        1.5,
        1.75,
        1.0 / 3.0,
        2.0 / 3.0,
        0.0,
    ];
    let mut rng = StdRng::seed_from_u64(seed);
    let p = (ratio * rule_density(n)).min(1.0);
    let weights = (0..n)
        .map(|_| PALETTE[rng.gen_range(0..PALETTE.len())])
        .collect();
    let mut edges = Vec::new();
    for a in 0..n as u32 {
        for b in a + 1..n as u32 {
            if rng.gen_bool(p) {
                edges.push((a, b));
            }
        }
    }
    Graph::new(weights, &edges)
}

/// Runs both searches from the greedy start, and both repairs from `hint`,
/// against the oracle.
fn check(g: &Graph, hint: &[u32], rounds: usize, seed: u64) -> Result<(), String> {
    let init = local::greedy(g);
    let got = local::local_search(g, &init, rounds, seed);
    let want = local_oracle::local_search(g, &init, rounds, seed);
    if got != want {
        return Err(format!("local_search: {got:?} != oracle {want:?}"));
    }
    let got = local::repair(g, hint, rounds, seed);
    let want = local_oracle::repair(g, hint, rounds, seed);
    if got != want {
        return Err(format!("repair {hint:?}: {got:?} != oracle {want:?}"));
    }
    Ok(())
}

#[test]
fn boundary_sizes_match_the_oracle_on_both_sides_of_the_row_rule() {
    let (mut rows, mut lists) = (0, 0);
    for (i, &n) in BOUNDARY_SIZES.iter().enumerate() {
        for (j, ratio) in [0.0, 0.7, 1.4, 6.0, 30.0].into_iter().enumerate() {
            let g = graph(n, ratio, (i * 10 + j) as u64);
            if uses_rows(&g) {
                rows += 1;
            } else {
                lists += 1;
            }
            let hint: Vec<u32> = (0..n as u32 + 3).step_by(3).collect();
            if let Err(e) = check(&g, &hint, 20, 7 + j as u64) {
                panic!("n={n} ratio={ratio}: {e}");
            }
        }
    }
    assert!(rows >= 6 && lists >= 6, "rows {rows}, lists {lists}");
}

#[test]
fn wide_dynamic_range_weights_match_the_oracle() {
    // The hint selects 1 and 2, so 3's running sum is fl(1e16 + 1.5) =
    // 1e16 + 2. Then 0 evicts 1, leaving 2 as 3's only blocker, and the sum
    // cancels to 2 against an exact 1.5: 3 (1.75) must still evict 2.
    let g = Graph::new(vec![2e16, 1e16, 1.5, 1.75], &[(0, 1), (1, 3), (2, 3)]);
    check(&g, &[1, 2], 0, 1).expect("cancelling running sum");
    assert_eq!(local::repair(&g, &[1, 2], 0, 1), vec![0, 3]);
    for (i, &n) in [8, 30, 64, 65, 129].iter().enumerate() {
        for (j, ratio) in [0.7, 1.4, 6.0, 30.0].into_iter().enumerate() {
            for k in 0..2u64 {
                let seed = (i * 100 + j * 10) as u64 + k;
                let g = wide_graph(n, ratio, seed);
                let hint: Vec<u32> = (0..n as u32).step_by(2).collect();
                if let Err(e) = check(&g, &hint, 20, seed) {
                    panic!("n={n} ratio={ratio} seed={seed}: {e}");
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn local_search_and_repair_match_the_oracle(
        size in (0usize..10, 2usize..=200),
        ratio in 0.0f64..12.0,
        graph_seed in any::<u64>(),
        raw_hint in prop::collection::vec(any::<u32>(), 0..40),
        rounds in 0usize..=20,
        seed in any::<u64>(),
    ) {
        let n = BOUNDARY_SIZES.get(size.0).copied().unwrap_or(size.1);
        let g = graph(n, ratio, graph_seed);
        // Hints reach past `n`, so some are out of range.
        let hint: Vec<u32> = raw_hint.iter().map(|&v| v % (n as u32 + 4)).collect();
        if let Err(e) = check(&g, &hint, rounds, seed) {
            prop_assert!(false, "n={} m={} rows={}: {}", n, g.num_edges(), uses_rows(&g), e);
        }
    }
}
