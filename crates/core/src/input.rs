//! `OCT` problem instances: weighted candidate categories over an item
//! universe.

use std::cmp::Ordering;

use crate::csr::CsrIndex;
use crate::itemset::{ItemId, ItemSet};
use crate::similarity::{Similarity, EPS};

/// One candidate category: an item set the solution should contain a
/// similar category for (a search-query result set, an existing-tree
/// category, a taxonomist-curated property set, …).
#[derive(Debug, Clone)]
pub struct InputSet {
    /// The items of the candidate category.
    pub items: ItemSet,
    /// Non-negative importance weight (e.g. average daily query frequency).
    pub weight: f64,
    /// Optional per-set similarity threshold overriding the instance `δ`.
    pub threshold: Option<f64>,
    /// Optional human-readable label (query text / category name); used for
    /// labeling the produced categories.
    pub label: Option<String>,
}

impl InputSet {
    /// A weighted, unlabeled candidate category.
    pub fn new(items: ItemSet, weight: f64) -> Self {
        Self {
            items,
            weight,
            threshold: None,
            label: None,
        }
    }

    /// Attaches a label.
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = Some(label.into());
        self
    }

    /// Overrides the similarity threshold for this set only.
    pub fn with_threshold(mut self, delta: f64) -> Self {
        self.threshold = Some(delta);
        self
    }
}

/// A complete `OCT` instance: `⟨Q, W⟩` plus the similarity variant and the
/// per-item branch bounds.
#[derive(Debug, Clone)]
pub struct Instance {
    /// Universe size; item ids must be `< num_items`.
    pub num_items: u32,
    /// The candidate categories `Q` with their weights `W`.
    pub sets: Vec<InputSet>,
    /// Similarity variant and default threshold.
    pub similarity: Similarity,
    /// Per-item upper bound on the number of branches the item may appear
    /// on. `None` means the ubiquitous bound of 1 for every item.
    pub item_bounds: Option<Vec<u8>>,
}

impl Instance {
    /// Creates an instance with uniform item bound 1.
    ///
    /// # Panics
    /// Panics when a set references an item `≥ num_items`, a weight is
    /// negative/non-finite, or a per-set threshold is out of `(0, 1]`.
    pub fn new(num_items: u32, sets: Vec<InputSet>, similarity: Similarity) -> Self {
        let instance = Self {
            num_items,
            sets,
            similarity,
            item_bounds: None,
        };
        instance.validate();
        instance
    }

    /// Sets per-item branch bounds (`bounds.len() == num_items`, each ≥ 1).
    ///
    /// # Panics
    /// Panics on length mismatch or a zero bound.
    pub fn with_item_bounds(mut self, bounds: Vec<u8>) -> Self {
        assert_eq!(
            bounds.len(),
            self.num_items as usize,
            "bounds length must equal num_items"
        );
        assert!(bounds.iter().all(|&b| b >= 1), "item bounds must be ≥ 1");
        self.item_bounds = Some(bounds);
        self
    }

    fn validate(&self) {
        for (i, set) in self.sets.iter().enumerate() {
            assert!(
                set.weight.is_finite() && set.weight >= 0.0,
                "set {i} has invalid weight {}",
                set.weight
            );
            if let Some(t) = set.threshold {
                assert!(
                    t > 0.0 && t <= 1.0 + EPS,
                    "set {i} has invalid threshold {t}"
                );
            }
            if let Some(&max) = set.items.as_slice().last() {
                assert!(
                    max < self.num_items,
                    "set {i} references item {max} ≥ num_items {}",
                    self.num_items
                );
            }
        }
    }

    /// Number of input sets `n = |Q|`.
    #[inline]
    pub fn num_sets(&self) -> usize {
        self.sets.len()
    }

    /// The effective threshold for set `idx` (per-set override or default).
    #[inline]
    pub fn threshold_of(&self, idx: usize) -> f64 {
        self.sets[idx].threshold.unwrap_or(self.similarity.delta)
    }

    /// The branch bound of item `i` (1 unless overridden).
    #[inline]
    pub fn bound_of(&self, item: ItemId) -> u8 {
        self.item_bounds.as_ref().map_or(1, |b| b[item as usize])
    }

    /// Sum of all set weights — the normalization constant for scores.
    pub fn total_weight(&self) -> f64 {
        self.sets.iter().map(|s| s.weight).sum()
    }

    /// Inverted index: for each item, the ascending list of input-set
    /// indices containing it, in CSR form (one flat posting buffer instead
    /// of a `Vec` per item — see [`CsrIndex`]).
    pub fn inverted_index(&self) -> CsrIndex {
        CsrIndex::build(self.num_items, self.sets.iter().map(|s| s.items.as_slice()))
    }

    /// `true` when `index` has the shape of this instance's inverted index:
    /// one posting list per item and one posting per set membership. Entry
    /// points that take a shared index check it, so an index built from
    /// another (say, last batch's) instance fails loudly in debug builds.
    pub(crate) fn is_indexed_by(&self, index: &CsrIndex) -> bool {
        index.num_items() == self.num_items as usize
            && index.num_postings() == self.sets.iter().map(|s| s.items.len()).sum::<usize>()
    }

    /// The paper's ranking (§3.2): sets sorted by [`Self::rank_order`].
    /// Returns `rank[set_idx] ∈ 0..n` where rank 0 is the largest set.
    pub fn ranks(&self) -> Vec<u32> {
        let mut order: Vec<u32> = (0..self.num_sets() as u32).collect();
        order.sort_by(|&a, &b| self.rank_order(a, b));
        let mut rank = vec![0u32; self.num_sets()];
        for (r, &idx) in order.iter().enumerate() {
            rank[idx as usize] = r as u32;
        }
        rank
    }

    /// The one ranking comparator: size descending, then weight ascending
    /// (heavier same-size sets rank lower in the tree), ties broken by
    /// index. `Less` means set `a` ranks before (above) set `b`. The batch
    /// analysis sorts by it ([`Self::ranks`]); the stream engine orients
    /// each pair by it alone, since restricted to two sets it *is* the
    /// global order.
    pub(crate) fn rank_order(&self, a: u32, b: u32) -> Ordering {
        let (sa, sb) = (&self.sets[a as usize], &self.sets[b as usize]);
        sb.items
            .len()
            .cmp(&sa.items.len())
            .then(sa.weight.total_cmp(&sb.weight))
            .then(a.cmp(&b))
    }
}

/// Builds the toy instance of the paper's Figure 2 (items `a..=i` mapped to
/// `0..=8`): `q1 = {a,b,c,d,e}` w=2, `q2 = {a,b}` w=1, `q3 = {c,d,e,f}` w=1,
/// `q4 = {a,b,f,g,h,i}` w=1 (the long-sleeve shirts of Figure 3).
pub fn figure2_instance(similarity: Similarity) -> Instance {
    let sets = vec![
        InputSet::new(ItemSet::new(vec![0, 1, 2, 3, 4]), 2.0).with_label("q1: black shirt"),
        InputSet::new(ItemSet::new(vec![0, 1]), 1.0).with_label("q2: black adidas shirt"),
        InputSet::new(ItemSet::new(vec![2, 3, 4, 5]), 1.0).with_label("q3: nike shirt"),
        InputSet::new(ItemSet::new(vec![0, 1, 5, 6, 7, 8]), 1.0).with_label("q4: long sleeve"),
    ];
    Instance::new(9, sets, similarity)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::similarity::SimilarityKind;

    #[test]
    fn figure2_shape() {
        let inst = figure2_instance(Similarity::jaccard_cutoff(0.6));
        assert_eq!(inst.num_sets(), 4);
        assert_eq!(inst.total_weight(), 5.0);
        assert_eq!(inst.sets[0].items.len(), 5);
    }

    #[test]
    fn ranks_follow_size_then_weight() {
        // Two size-2 sets with different weights: the heavier ranks later.
        let sets = vec![
            InputSet::new(ItemSet::new(vec![0, 1]), 5.0),
            InputSet::new(ItemSet::new(vec![2, 3]), 1.0),
            InputSet::new(ItemSet::new(vec![0, 1, 2]), 1.0),
        ];
        let inst = Instance::new(4, sets, Similarity::jaccard_threshold(0.6));
        let ranks = inst.ranks();
        assert_eq!(ranks[2], 0, "largest set ranks first");
        assert_eq!(ranks[1], 1, "lighter of the size-2 sets next");
        assert_eq!(ranks[0], 2, "heavier same-size set ranks last");
    }

    #[test]
    fn threshold_override() {
        let sets = vec![
            InputSet::new(ItemSet::new(vec![0]), 1.0).with_threshold(0.4),
            InputSet::new(ItemSet::new(vec![1]), 1.0),
        ];
        let inst = Instance::new(2, sets, Similarity::jaccard_threshold(0.8));
        assert_eq!(inst.threshold_of(0), 0.4);
        assert_eq!(inst.threshold_of(1), 0.8);
    }

    #[test]
    fn bounds_default_to_one() {
        let inst = Instance::new(
            3,
            vec![InputSet::new(ItemSet::new(vec![0, 2]), 1.0)],
            Similarity::exact(),
        );
        assert_eq!(inst.bound_of(0), 1);
        let inst = inst.with_item_bounds(vec![2, 1, 1]);
        assert_eq!(inst.bound_of(0), 2);
    }

    #[test]
    fn inverted_index_lists_sets_per_item() {
        let inst = figure2_instance(Similarity::new(SimilarityKind::Exact, 1.0));
        let idx = inst.inverted_index();
        assert_eq!(&idx[0], &[0, 1, 3][..]); // item a in q1, q2, q4
        assert_eq!(&idx[5], &[2, 3][..]); // item f in q3, q4
        assert_eq!(&idx[8], &[3][..]); // item i only in q4
        assert_eq!(idx.num_items(), 9);
        assert_eq!(idx.num_postings(), 5 + 2 + 4 + 6);
    }

    #[test]
    #[should_panic(expected = "references item")]
    fn rejects_out_of_universe_items() {
        let _ = Instance::new(
            2,
            vec![InputSet::new(ItemSet::new(vec![5]), 1.0)],
            Similarity::exact(),
        );
    }

    #[test]
    #[should_panic(expected = "invalid weight")]
    fn rejects_negative_weight() {
        let _ = Instance::new(
            2,
            vec![InputSet::new(ItemSet::new(vec![0]), -3.0)],
            Similarity::exact(),
        );
    }
}
