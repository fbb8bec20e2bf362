//! Property test: tree scoring is bit-identical to the reference scorer.
//!
//! `score_tree_with` scores set by set on a dense view of the tree, across
//! up to the configured number of workers; this test checks that it
//! reproduces `score_tree_reference` exactly — same totals, same per-set
//! best categories, same similarities — at 1, 2 and 4 threads, under all
//! six similarity variants with per-set thresholds. Random trees mix deep
//! single chains with bushy parts, place items in several branches, twice
//! in one category and (through removed categories, whose items join their
//! parent's) twice on one root path, and keep tombstone slots. The point
//! queries (`PointIndex::best_cover` and `best_cover_among` over every
//! slot) must report the same cover per set, bit for bit.

use oct_core::prelude::*;
use oct_core::score::{score_tree_reference, score_tree_with, ScoreOptions};
use oct_resilience::Budget;
use proptest::prelude::*;

const NUM_ITEMS: u32 = 100;

/// Builds a random tree: each op adds a category under a random live
/// parent, assigns an item to one, assigns an item twice to one, grows a
/// chain of up to 16 categories under one (one item at its tip), or removes
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
            2 => tree.assign_items(parent, [item, item]),
            3 => {
                let mut tip = parent;
                for _ in 0..=item % 16 {
                    tip = tree.add_category(tip);
                }
                tree.assign_item(tip, item);
            }
            _ => {
                if live.len() > 1 {
                    tree.remove_category(live[1 + (target as usize) % (live.len() - 1)]);
                }
            }
        }
    }
    tree
}

fn similarity(kind: u8, delta: f64) -> Similarity {
    match kind {
        0 => Similarity::jaccard_cutoff(delta),
        1 => Similarity::jaccard_threshold(delta),
        2 => Similarity::f1_cutoff(delta),
        3 => Similarity::f1_threshold(delta),
        4 => Similarity::perfect_recall(delta),
        _ => Similarity::exact(),
    }
}

fn instance_from_sets(raw_sets: Vec<(Vec<u32>, f64, u32)>, similarity: Similarity) -> Instance {
    let sets: Vec<InputSet> = raw_sets
        .into_iter()
        .map(|(items, w, threshold10)| {
            // 0 keeps the instance's threshold.
            let set = InputSet::new(ItemSet::new(items), w);
            match threshold10 {
                0 => set,
                t10 => set.with_threshold(t10 as f64 / 10.0),
            }
        })
        .collect();
    Instance::new(NUM_ITEMS, sets, similarity)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn scoring_matches_the_reference_at_every_cap(
        ops in prop::collection::vec((0u8..5, 0u32..20, 0u32..NUM_ITEMS), 1..80),
        raw_sets in prop::collection::vec(
            (
                prop::collection::vec(0u32..NUM_ITEMS, 1..15),
                0.1f64..50.0,
                0u32..=10,
            ),
            1..12,
        ),
        kind in 0u8..6,
        delta10 in 1u32..=10,
    ) {
        let tree = tree_from_ops(&ops);
        let instance = instance_from_sets(raw_sets, similarity(kind, delta10 as f64 / 10.0));
        let reference = score_tree_reference(&instance, &tree);
        for threads in [1usize, 2, 4] {
            let score = score_tree_with(&instance, &tree, &ScoreOptions::with_threads(threads));
            prop_assert_eq!(score.total.to_bits(), reference.total.to_bits());
            prop_assert_eq!(
                &score, &reference,
                "threads={} diverged from the reference", threads
            );
        }
        let point = PointIndex::build(&tree, NUM_ITEMS);
        let all_slots: Vec<CatId> = (0..tree.len() as CatId).collect();
        let budget = Budget::unlimited();
        for (s, set) in instance.sets.iter().enumerate() {
            let items = set.items.as_slice();
            let delta = instance.threshold_of(s);
            let similarity = Similarity { delta, ..instance.similarity };
            let exhaustive = point.best_cover(items, &similarity, &budget);
            let reranked = point.best_cover_among(items, &all_slots, &similarity, &budget);
            let batch = &reference.per_set[s];
            for cover in [exhaustive, reranked] {
                prop_assert_eq!(cover.best_category, batch.best_category, "set {}", s);
                prop_assert_eq!(cover.similarity.to_bits(), batch.similarity.to_bits());
                prop_assert_eq!(cover.precision.to_bits(), batch.precision.to_bits());
                prop_assert_eq!(cover.covered, batch.covered);
            }
        }
        // Structural invariants of the result itself.
        prop_assert!(reference.normalized >= 0.0 && reference.normalized <= 1.0 + 1e-12);
        for cover in &reference.per_set {
            prop_assert_eq!(cover.covered, cover.similarity > 0.0);
            prop_assert_eq!(cover.covered, cover.best_category.is_some());
        }
    }
}
