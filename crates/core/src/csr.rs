//! The CSR inverted index: for each item, the input sets (or the tree
//! categories) containing it.
//!
//! The per-item posting lists live in one flat `ids` buffer addressed by an
//! `offsets` array, so building the index is two passes over the input (no
//! per-item allocations) and scanning it walks contiguous memory. It is the
//! substrate of every all-pairs count in the crate: the co-occurrence
//! kernel of [`crate::conflict`], tree scoring and item assignment all
//! read it (see *Efficient tree-structured categorical retrieval*,
//! PAPERS.md).

use crate::itemset::ItemId;

/// A compressed-sparse-row inverted index: for each item, the ascending list
/// of input-set indices containing it, stored as one flat `ids` buffer
/// addressed through `offsets` (length `num_items + 1`).
///
/// Construction is two passes with two allocations total, and iteration
/// walks contiguous memory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrIndex {
    offsets: Box<[u32]>,
    ids: Box<[u32]>,
}

impl CsrIndex {
    /// Builds the index from member-item rows over a universe of
    /// `num_items`; row `r`'s items post `r`. Rows are supplied in ascending
    /// id order (the natural iteration order of `Instance::sets`, or of a
    /// tree's category slots), which makes every posting list ascending.
    pub fn build<'a>(num_items: u32, rows: impl Iterator<Item = &'a [ItemId]> + Clone) -> Self {
        let n = num_items as usize;
        // Pass 1: posting-list lengths.
        let mut offsets = vec![0u32; n + 1];
        for row in rows.clone() {
            for &item in row {
                offsets[item as usize + 1] += 1;
            }
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        // Pass 2: fill. `cursor` tracks the next free slot per item.
        let mut ids = vec![0u32; offsets[n] as usize];
        let mut cursor = offsets.clone();
        for (s, row) in rows.enumerate() {
            for &item in row {
                let slot = &mut cursor[item as usize];
                ids[*slot as usize] = s as u32;
                *slot += 1;
            }
        }
        Self {
            offsets: offsets.into_boxed_slice(),
            ids: ids.into_boxed_slice(),
        }
    }

    /// Universe size (number of items indexed).
    #[inline]
    pub fn num_items(&self) -> usize {
        self.offsets.len() - 1
    }

    /// `true` when the universe is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.num_items() == 0
    }

    /// Total posting entries (`Σ_item |sets_of(item)|`).
    #[inline]
    pub fn num_postings(&self) -> usize {
        self.ids.len()
    }

    /// The ascending set indices containing `item`.
    #[inline]
    pub fn sets_of(&self, item: ItemId) -> &[u32] {
        let lo = self.offsets[item as usize] as usize;
        let hi = self.offsets[item as usize + 1] as usize;
        &self.ids[lo..hi]
    }

    /// Iterates `(item, posting list)` over the whole universe.
    pub fn entries(&self) -> impl Iterator<Item = (ItemId, &[u32])> + '_ {
        (0..self.num_items() as u32).map(move |item| (item, self.sets_of(item)))
    }
}

impl std::ops::Index<usize> for CsrIndex {
    type Output = [u32];

    #[inline]
    fn index(&self, item: usize) -> &[u32] {
        self.sets_of(item as ItemId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::itemset::ItemSet;

    #[test]
    fn csr_matches_nested_shape() {
        let sets = [
            ItemSet::new(vec![0, 1, 2]),
            ItemSet::new(vec![1, 3]),
            ItemSet::new(vec![0, 3, 4]),
        ];
        let index = CsrIndex::build(6, sets.iter().map(ItemSet::as_slice));
        assert_eq!(index.num_items(), 6);
        assert_eq!(index.num_postings(), 8);
        assert_eq!(index.sets_of(0), &[0, 2]);
        assert_eq!(index.sets_of(1), &[0, 1]);
        assert_eq!(index.sets_of(3), &[1, 2]);
        assert_eq!(index.sets_of(5), &[] as &[u32]);
        assert_eq!(&index[4], &[2][..]);
        let collected: Vec<(u32, Vec<u32>)> = index
            .entries()
            .map(|(item, sets)| (item, sets.to_vec()))
            .collect();
        assert_eq!(collected.len(), 6);
        assert_eq!(collected[2], (2, vec![0]));
    }

    #[test]
    fn csr_empty_universe() {
        let index = CsrIndex::build(0, std::iter::empty());
        assert!(index.is_empty());
        assert_eq!(index.num_postings(), 0);
        assert_eq!(index.entries().count(), 0);
    }
}
