//! Property test: the parallel scorer is bit-identical to the serial one.
//!
//! `score_tree_with` at `threads >= 2` partitions the tree into frontier
//! subtrees and merges per-worker results; this test checks that the merge
//! (including every tie-break) reproduces the serial `TreeScore` exactly —
//! same totals, same per-set best categories, same similarities — on random
//! instances and random tree shapes at 1, 2, and 4 threads. The point
//! queries (`PointIndex::best_cover` and `best_cover_among` over every
//! slot) must report the same cover per set, bit for bit. Random trees
//! place items in several branches and carry removed (tombstone) slots.

use oct_core::prelude::*;
use oct_core::score::{score_tree_with, ScoreOptions};
use oct_resilience::Budget;
use proptest::prelude::*;

/// Builds a random tree the same way the model proptests do: each op adds a
/// category under a random live parent, assigns an item to one, or removes
/// a random live non-root category (splicing its children and items to its
/// parent and leaving a tombstone slot).
fn tree_from_ops(ops: &[(u8, u32, u32)]) -> CategoryTree {
    let mut tree = CategoryTree::new();
    for &(op, target, item) in ops {
        let live = tree.live_categories();
        let parent = live[(target as usize) % live.len()];
        match op {
            0 => {
                tree.add_category(parent);
            }
            1 => tree.assign_item(parent, item),
            _ => {
                if live.len() > 1 {
                    tree.remove_category(live[1 + (target as usize) % (live.len() - 1)]);
                }
            }
        }
    }
    tree
}

fn instance_from_sets(raw_sets: Vec<(Vec<u32>, f64)>, delta: f64) -> Instance {
    let sets: Vec<InputSet> = raw_sets
        .into_iter()
        .map(|(items, w)| InputSet::new(ItemSet::new(items), w))
        .collect();
    Instance::new(100, sets, Similarity::jaccard_threshold(delta))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn score_parallel_matches_serial(
        ops in prop::collection::vec((0u8..3, 0u32..20, 0u32..100), 1..80),
        raw_sets in prop::collection::vec(
            (prop::collection::vec(0u32..100, 1..15), 0.1f64..50.0), 1..12),
        delta10 in 1u32..=10,
    ) {
        let tree = tree_from_ops(&ops);
        let instance = instance_from_sets(raw_sets, delta10 as f64 / 10.0);
        let serial = score_tree_with(&instance, &tree, &ScoreOptions::serial());
        for threads in [2usize, 4] {
            let parallel =
                score_tree_with(&instance, &tree, &ScoreOptions::with_threads(threads));
            prop_assert_eq!(
                &serial, &parallel,
                "threads={} diverged from serial", threads
            );
        }
        let point = PointIndex::build(&tree, 100);
        let all_slots: Vec<CatId> = (0..tree.len() as CatId).collect();
        let budget = Budget::unlimited();
        for (s, set) in instance.sets.iter().enumerate() {
            let items = set.items.as_slice();
            let exhaustive = point.best_cover(items, &instance.similarity, &budget);
            let reranked = point.best_cover_among(items, &all_slots, &instance.similarity, &budget);
            let batch = &serial.per_set[s];
            for cover in [exhaustive, reranked] {
                prop_assert_eq!(cover.best_category, batch.best_category, "set {}", s);
                prop_assert_eq!(cover.similarity.to_bits(), batch.similarity.to_bits());
                prop_assert_eq!(cover.precision.to_bits(), batch.precision.to_bits());
                prop_assert_eq!(cover.covered, batch.covered);
            }
        }
        // Structural invariants of the result itself.
        prop_assert!(serial.normalized >= 0.0 && serial.normalized <= 1.0 + 1e-12);
        for cover in &serial.per_set {
            prop_assert_eq!(cover.covered, cover.similarity > 0.0);
            prop_assert_eq!(cover.covered, cover.best_category.is_some());
        }
    }
}
