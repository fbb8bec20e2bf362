//! Property tests for `navigation::limit_fanout`: the fan-out reducer must
//! be score-free across instances, similarity variants, and δ — including
//! chunk-boundary group counts where one grouping pass still leaves more
//! groups than the limit and the parent is re-queued.

use oct_core::input::{InputSet, Instance};
use oct_core::itemset::ItemSet;
use oct_core::navigation::limit_fanout;
use oct_core::score::score_tree;
use oct_core::similarity::Similarity;
use oct_core::tree::{CategoryTree, ROOT};
use proptest::prelude::*;

const UNIVERSE: u32 = 200;

/// All three similarity variants across a δ sweep (the vendored proptest
/// has no `prop_oneof`, so variants are tagged).
fn arb_similarity() -> impl Strategy<Value = Similarity> {
    (0u8..3, 3u32..=9).prop_map(|(kind, d10)| {
        let delta = d10 as f64 / 10.0;
        match kind {
            0 => Similarity::jaccard_threshold(delta),
            1 => Similarity::f1_threshold(delta),
            _ => Similarity::perfect_recall(delta),
        }
    })
}

fn arb_instance() -> impl Strategy<Value = Instance> {
    let set = prop::collection::vec(0..UNIVERSE, 2..30);
    (
        prop::collection::vec((set, 1u32..10), 2..24),
        arb_similarity(),
    )
        .prop_map(|(raw, sim)| {
            let sets: Vec<InputSet> = raw
                .into_iter()
                .map(|(items, w)| InputSet::new(ItemSet::new(items), w as f64))
                .filter(|s| !s.items.is_empty())
                .collect();
            Instance::new(UNIVERSE, sets, sim)
        })
}

/// A wide tree: partition the universe into `k` contiguous chunks, one
/// category per chunk under the root — fan-out `k` forces grouping, and
/// `k > max_children²` forces the re-queue path.
fn wide_partition_tree(k: usize) -> CategoryTree {
    let mut tree = CategoryTree::new();
    let per = (UNIVERSE as usize).div_ceil(k);
    let items: Vec<u32> = (0..UNIVERSE).collect();
    for chunk in items.chunks(per) {
        let cat = tree.add_category(ROOT);
        tree.assign_items(cat, chunk.iter().copied());
    }
    tree
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn limit_fanout_never_lowers_the_score(
        instance in arb_instance(),
        k in 5usize..64,
        max_children in 2usize..6,
    ) {
        let mut tree = wide_partition_tree(k);
        let before = score_tree(&instance, &tree);
        let added = limit_fanout(&mut tree, max_children);
        let after = score_tree(&instance, &tree);
        prop_assert!(
            after.total + 1e-9 >= before.total,
            "score dropped from {} to {} (k={}, max_children={}, added={})",
            before.total, after.total, k, max_children, added
        );
        for cat in tree.live_categories() {
            prop_assert!(tree.children(cat).len() <= max_children);
        }
        prop_assert_eq!(tree.materialize()[ROOT as usize].len(), UNIVERSE as usize);
        prop_assert!(tree.validate(&instance).is_ok());
    }

    /// Chunk-boundary sweep: every `(children, max_children)` combination up
    /// to 80×5, which includes all `groups > max_children` re-queue cases.
    #[test]
    fn regrouping_bounds_fanout_for_every_group_count(
        children in 2usize..=80,
        max_children in 2usize..=5,
    ) {
        let mut tree = CategoryTree::new();
        for i in 0..children {
            let cat = tree.add_category(ROOT);
            tree.assign_item(cat, i as u32);
        }
        limit_fanout(&mut tree, max_children);
        for cat in tree.live_categories() {
            prop_assert!(tree.children(cat).len() <= max_children);
        }
        prop_assert_eq!(tree.materialize()[ROOT as usize].len(), children);
    }
}
