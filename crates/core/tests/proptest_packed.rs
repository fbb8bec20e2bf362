//! Differential property tests for the set substrate: every [`ItemSet`]
//! operation must agree with a `BTreeSet` oracle on adversarial shapes
//! (empty sets, singletons, dense contiguous runs, sparse spread-out ids,
//! ids at the top of the `u32` range, and pairs of very different sizes
//! that drive the galloping intersection), and [`classify_pair`] on the
//! co-occurrence kernel's counts must equal a structural oracle across all
//! six similarity variants and a δ grid.

use std::collections::BTreeSet;

use oct_core::conflict::{classify_pair, intersecting_pairs};
use oct_core::input::{InputSet, Instance};
use oct_core::itemset::ItemSet;
use oct_core::similarity::Similarity;
use proptest::prelude::*;

mod classify_oracle;
use classify_oracle::oracle_class;

/// Adversarial item-id vectors: dense runs against singletons and sparse
/// spreads (the size ratios that switch the intersection between merging
/// and galloping), ids on 1024-aligned boundaries, and ids at the top of
/// the `u32` range. The vendored proptest has no `prop_oneof`, so one
/// tagged strategy derives each shape from shared raw draws.
fn arb_items() -> impl Strategy<Value = Vec<u32>> {
    (
        0u32..7,
        prop::collection::vec(0u32..4096, 0..60),
        0u32..100_000,
        1usize..400,
    )
        .prop_map(|(tag, raw, base, len)| match tag {
            // Empty and singleton sets.
            0 => Vec::new(),
            1 => vec![base],
            // Dense contiguous run.
            2 => (base..base + len as u32).collect(),
            // Sparse spread-out ids.
            3 => raw.iter().map(|&r| r * 83_003 + base).collect(),
            // Clustered at the first and last ids of 1024-aligned blocks.
            4 => raw
                .iter()
                .map(|&r| (r % 64) * 1024 + if r % 2 == 0 { 0 } else { 1023 })
                .collect(),
            // A strided run inside one 1024-id block.
            5 => (0..20 + raw.len() as u32)
                .map(|i| (base % 1000) * 1024 + (i * 21) % 1024)
                .collect(),
            // Ids at the very top of the u32 range.
            _ => raw.iter().map(|&r| u32::MAX - r).collect(),
        })
}

fn oracle(items: &[u32]) -> BTreeSet<u32> {
    items.iter().copied().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Agreement of every set operation with the BTreeSet oracle.
    #[test]
    fn itemset_matches_oracle(a in arb_items(), b in arb_items()) {
        let (sa, sb) = (oracle(&a), oracle(&b));
        let (ia, ib) = (ItemSet::new(a.clone()), ItemSet::new(b.clone()));

        // Cardinality and membership.
        prop_assert_eq!(ia.len(), sa.len());
        prop_assert_eq!(ia.is_empty(), sa.is_empty());
        for &x in sa.iter().take(50) {
            prop_assert!(ia.contains(x));
        }
        for &x in sb.iter().take(50) {
            prop_assert_eq!(ia.contains(x), sa.contains(&x));
        }

        // Binary operations.
        let inter_oracle = sa.intersection(&sb).count();
        prop_assert_eq!(ia.intersection_size(&ib), inter_oracle);
        prop_assert_eq!(ib.intersection_size(&ia), inter_oracle);
        prop_assert_eq!(ia.union_size(&ib), sa.union(&sb).count());
        prop_assert_eq!(ia.is_disjoint(&ib), inter_oracle == 0);
        prop_assert_eq!(ia.is_subset_of(&ib), sa.is_subset(&sb));
        prop_assert_eq!(ib.is_subset_of(&ia), sb.is_subset(&sa));
        let diff_oracle: Vec<u32> = sa.difference(&sb).copied().collect();
        let diff = ia.difference(&ib);
        prop_assert_eq!(diff.as_slice(), &diff_oracle[..]);

        // Iteration order and canonical form.
        let sorted: Vec<u32> = sa.iter().copied().collect();
        prop_assert_eq!(ia.as_slice(), &sorted[..]);
        prop_assert_eq!(ia.iter().collect::<Vec<u32>>(), sorted.clone());
        prop_assert_eq!(ItemSet::from_sorted(sorted), ia);
    }
}

/// Instances with overlapping sets over a modest universe, so intersecting
/// pairs (the classifier's domain) occur often.
fn arb_instance(similarity: Similarity) -> impl Strategy<Value = Instance> {
    let set = (0u32..12, 2usize..20).prop_flat_map(|(cluster, len)| {
        let base = cluster * 24;
        prop::collection::vec(base..base + 48, len)
    });
    prop::collection::vec((set, 1u32..6), 2..24).prop_map(move |raw| {
        let sets: Vec<InputSet> = raw
            .into_iter()
            .map(|(items, w)| InputSet::new(ItemSet::new(items), w as f64))
            .filter(|s| !s.items.is_empty())
            .collect();
        Instance::new(12 * 24 + 48, sets, similarity)
    })
}

/// The six similarity variants at threshold `delta`.
fn variants(delta: f64) -> [Similarity; 6] {
    [
        Similarity::jaccard_cutoff(delta),
        Similarity::jaccard_threshold(delta),
        Similarity::f1_cutoff(delta),
        Similarity::f1_threshold(delta),
        Similarity::perfect_recall(delta),
        Similarity::exact(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `classify_pair` on the enumerated counts ≡ the structural oracle on
    /// every intersecting pair, for all six variants and a δ grid covering
    /// loose to strict.
    #[test]
    fn classify_packed_equals_scalar_on_all_variants(
        seed_instance in arb_instance(Similarity::exact()),
        delta_idx in 0usize..7,
    ) {
        const DELTA_GRID: [f64; 7] = [0.05, 0.25, 0.50, 0.60, 0.75, 0.90, 0.99];
        let delta = DELTA_GRID[delta_idx];
        for similarity in variants(delta) {
            let instance = Instance::new(
                seed_instance.num_items,
                seed_instance.sets.clone(),
                similarity,
            );
            for pair in intersecting_pairs(&instance, 1) {
                let (hi, lo) = (pair.hi as usize, pair.lo as usize);
                let (inter, eff) = (pair.inter as usize, pair.eff_inter as usize);
                let class = classify_pair(&instance, hi, lo, inter, eff);
                prop_assert_eq!(
                    class,
                    oracle_class(&instance, hi, lo),
                    "variant {:?} δ={} pair ({hi},{lo})",
                    similarity.kind, delta
                );
            }
        }
    }
}
