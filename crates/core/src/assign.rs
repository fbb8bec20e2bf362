//! Item assignment (paper Algorithm 2).
//!
//! After the tree skeleton is built (one category per selected input set),
//! items are distributed:
//!
//! 1. **Single-branch items** — an item whose selected sets all lie on one
//!    branch goes to the deepest of their categories (Algorithm 1 lines
//!    16–19: each category then holds its own items plus its descendants').
//! 2. **Duplicates** — items appearing in sets covered on *different*
//!    branches must be partitioned. An iterative greedy targets the
//!    uncovered set with the highest *gain factor* (weight / cover gap),
//!    fills its gap with the duplicates of the highest *branch gain*, and
//!    assigns each at the lowest relevant category of its matched branch.
//! 3. **Leftovers** — duplicates that can no longer complete any cover are
//!    placed by highest marginal gain to the cutoff score, never uncovering
//!    an already-covered set; items that would only hurt stay unassigned
//!    (they end up in `C_misc`).
//!
//! Raised per-item bounds are honored: an item may be assigned to up to
//! `bound(i)` pairwise branch-disjoint categories.
//!
//! Assignment never changes the tree's shape: placements are buffered and
//! flushed into the tree at the end. So every per-category quantity lives
//! in a dense `Vec` indexed by [`CatId`], ancestry is one comparison of
//! preorder intervals computed up front, and the walks that update sizes
//! visit only target-bearing categories (the only ones whose sizes are
//! read). Targets map one-to-one onto categories: each has its own.

use crate::csr::CsrIndex;
use crate::input::Instance;
use crate::itemset::ItemId;
use crate::similarity::{SimilarityKind, EPS};
use crate::tree::{CatId, CategoryTree, ROOT};
use crate::util::ceil_tolerant;

/// "None" in the dense maps: no target, no category, no placement.
const NONE: u32 = u32::MAX;

/// Outcome statistics of an assignment run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AssignStats {
    /// Items assigned in the single-branch stage.
    pub initial_assigned: usize,
    /// Duplicate placements made while completing covers.
    pub duplicates_assigned: usize,
    /// Leftover placements made by marginal gain.
    pub leftover_assigned: usize,
    /// Items that remained unassigned (for `C_misc`).
    pub left_unassigned: usize,
    /// Targets covered after assignment (by their own category).
    pub covered_targets: usize,
}

/// Assigns items of the targeted input sets into `tree`.
///
/// `targets` maps input-set indices to their dedicated categories (the
/// conflict-free sets `S` in CTCR, all of `Q` in CCT): distinct sets,
/// distinct non-root categories. When `greedy_duplicates` is false only the
/// single-branch stage runs (the Exact / Perfect-Recall specializations,
/// where duplicates cannot arise among selected sets).
pub fn assign_items(
    instance: &Instance,
    tree: &mut CategoryTree,
    targets: &[(u32, CatId)],
    greedy_duplicates: bool,
) -> AssignStats {
    let index = instance.inverted_index();
    assign_items_indexed(instance, &index, tree, targets, greedy_duplicates)
}

/// [`assign_items`] over `index`, the inverted index of `instance`, which
/// a construction builds once and shares between its stages.
pub(crate) fn assign_items_indexed(
    instance: &Instance,
    index: &CsrIndex,
    tree: &mut CategoryTree,
    targets: &[(u32, CatId)],
    greedy_duplicates: bool,
) -> AssignStats {
    debug_assert!(instance.is_indexed_by(index), "stale inverted index");
    let mut state = AssignState::new(instance, index, tree, targets);
    let mut stats = AssignStats::default();

    // Stage 1: single-branch items (precision-polluting ones deferred when
    // the variant tolerates recall errors).
    let mut remaining = state.assign_single_branch(greedy_duplicates, &mut stats);

    if greedy_duplicates {
        // Stage 2: cover-completing duplicates.
        state.cover_loop(&mut remaining, &mut stats);
        // Stage 3: leftovers by marginal cutoff gain.
        state.place_leftovers(&mut remaining, &mut stats);
    }
    stats.left_unassigned = (0..instance.num_items)
        .filter(|&item| remaining[item as usize] > 0 && !state.is_placed(item))
        .count();
    stats.covered_targets = targets
        .iter()
        .filter(|&&(s, c)| state.is_covered(s, c))
        .count();
    state.commit();
    stats
}

struct AssignState<'a> {
    instance: &'a Instance,
    tree: &'a mut CategoryTree,
    targets: &'a [(u32, CatId)],
    /// item → input sets containing it.
    index: &'a CsrIndex,
    /// Category → the input set it targets (`NONE` without a target).
    target_of_cat: Vec<u32>,
    /// Input set → its category (`NONE` when the set is not a target).
    cat_of_set: Vec<CatId>,
    /// Preorder position per category; its subtree occupies the positions
    /// `enter[c]..end[c]`.
    enter: Vec<u32>,
    end: Vec<u32>,
    /// Nearest strict ancestor with a target (`NONE` when there is none).
    target_parent: Vec<CatId>,
    /// Number of strict ancestors with a target.
    target_ancestors: Vec<u32>,
    /// `|C|` per target-bearing category (full, deduplicated).
    full_size: Vec<usize>,
    /// `|C ∩ q(C)|` per target-bearing category.
    inter: Vec<usize>,
    /// Gain factor (weight / cover gap, 0 when covered) per target-bearing
    /// category, as of the current round's scan of the cover loop.
    gain: Vec<f64>,
    /// Pending direct-item placements `(cat, item)` to flush into the tree.
    pending: Vec<(CatId, ItemId)>,
    /// Item → position in `pending` of its latest placement (`NONE` when
    /// unplaced); `earlier[p]` links placement `p` to the item's previous
    /// one, so an item's placements form a list through `pending`.
    latest: Vec<u32>,
    earlier: Vec<u32>,
}

impl<'a> AssignState<'a> {
    fn new(
        instance: &'a Instance,
        index: &'a CsrIndex,
        tree: &'a mut CategoryTree,
        targets: &'a [(u32, CatId)],
    ) -> Self {
        let len = tree.len();
        let mut target_of_cat = vec![NONE; len];
        let mut cat_of_set = vec![NONE; instance.num_sets()];
        for &(s, c) in targets {
            debug_assert!(
                c != ROOT && !tree.is_removed(c),
                "target {s} on the root or a removed category"
            );
            debug_assert!(
                cat_of_set[s as usize] == NONE && target_of_cat[c as usize] == NONE,
                "targets are not one-to-one at set {s}, category {c}"
            );
            target_of_cat[c as usize] = s;
            cat_of_set[s as usize] = c;
        }
        // Parents precede children in preorder, so one forward pass fills
        // the top-down arrays.
        let (order, enter, end) = tree.preorder_intervals();
        let mut target_parent = vec![NONE; len];
        let mut target_ancestors = vec![0; len];
        for &c in &order {
            if let Some(p) = tree.parent(c) {
                let (c, p) = (c as usize, p as usize);
                let p_is_target = target_of_cat[p] != NONE;
                target_parent[c] = if p_is_target {
                    p as CatId
                } else {
                    target_parent[p]
                };
                target_ancestors[c] = target_ancestors[p] + u32::from(p_is_target);
            }
        }
        Self {
            instance,
            tree,
            targets,
            index,
            target_of_cat,
            cat_of_set,
            enter,
            end,
            target_parent,
            target_ancestors,
            full_size: vec![0; len],
            inter: vec![0; len],
            gain: vec![0.0; len],
            pending: Vec::new(),
            latest: vec![NONE; instance.num_items as usize],
            earlier: Vec::new(),
        }
    }

    /// `true` when `a` is `b` or an ancestor of it.
    #[inline]
    fn is_ancestor_or_self(&self, a: CatId, b: CatId) -> bool {
        let b = self.enter[b as usize];
        self.enter[a as usize] <= b && b < self.end[a as usize]
    }

    /// `true` when `a` and `b` lie on one root path (equal, or one is an
    /// ancestor of the other).
    #[inline]
    fn same_branch(&self, a: CatId, b: CatId) -> bool {
        self.is_ancestor_or_self(a, b) || self.is_ancestor_or_self(b, a)
    }

    /// The categories `item` has been (pending-)placed at, latest first.
    fn placements(&self, item: ItemId) -> impl Iterator<Item = CatId> + '_ {
        let first = self.latest[item as usize];
        std::iter::successors((first != NONE).then_some(first), |&p| {
            let prev = self.earlier[p as usize];
            (prev != NONE).then_some(prev)
        })
        .map(|p| self.pending[p as usize].0)
    }

    fn is_placed(&self, item: ItemId) -> bool {
        self.latest[item as usize] != NONE
    }

    /// `true` when `cat`'s target set contains `item` (`cat` has a target).
    #[inline]
    fn target_holds(&self, cat: CatId, item: ItemId) -> bool {
        let s = self.target_of_cat[cat as usize];
        self.instance.sets[s as usize].items.contains(item)
    }

    /// Stage 1. Returns each item's remaining bound for the greedy stages:
    /// its bound when deferred, 0 when placed here or in no target set.
    ///
    /// With recall-tolerant variants (`defer_polluting`), a single-branch
    /// item is only assigned eagerly when every target-bearing ancestor of
    /// its destination also contains it — otherwise eager assignment would
    /// degrade ancestor precision beyond what the pairwise
    /// covered-together analysis budgeted (the aggregate-error effect the
    /// paper notes in §3.2). Deferred items flow into the gap-driven
    /// greedy, which takes only as many as each cover needs.
    fn assign_single_branch(&mut self, defer_polluting: bool, stats: &mut AssignStats) -> Vec<u8> {
        let mut remaining = vec![0u8; self.instance.num_items as usize];
        let index = self.index;
        for item in 0..self.instance.num_items {
            let cats = || {
                index[item as usize]
                    .iter()
                    .map(|&s| self.cat_of_set[s as usize])
                    .filter(|&c| c != NONE)
            };
            // The deepest category, the one with the most target-bearing
            // ancestors; all others must be its ancestors.
            let Some(deepest) = cats().max_by_key(|&c| self.target_ancestors[c as usize]) else {
                continue;
            };
            let one_branch = cats().all(|c| self.is_ancestor_or_self(c, deepest));
            // On one branch, the item's other categories are the
            // target-bearing ancestors of `deepest` that contain it; it
            // pollutes when `deepest` has any other target-bearing ancestor.
            let pollutes =
                || self.target_ancestors[deepest as usize] as usize != cats().count() - 1;
            if one_branch && !(defer_polluting && pollutes()) {
                self.place(item, deepest);
                stats.initial_assigned += 1;
            } else {
                remaining[item as usize] = self.instance.bound_of(item);
            }
        }
        remaining
    }

    /// Records the placement of `item` at the target-bearing `cat`, adding
    /// it to the sizes and intersections of `cat` and its target-bearing
    /// ancestors up to the first that already holds the item (through an
    /// earlier placement in its subtree).
    fn place(&mut self, item: ItemId, cat: CatId) {
        debug_assert!(
            self.target_of_cat[cat as usize] != NONE,
            "placement off target"
        );
        let mut node = cat;
        while node != NONE
            && !self
                .placements(item)
                .any(|e| self.is_ancestor_or_self(node, e))
        {
            self.full_size[node as usize] += 1;
            if self.target_holds(node, item) {
                self.inter[node as usize] += 1;
            }
            node = self.target_parent[node as usize];
        }
        self.earlier.push(self.latest[item as usize]);
        self.latest[item as usize] = self.pending.len() as u32;
        self.pending.push((cat, item));
    }

    /// Whether placing `item` at `cat` keeps branch-disjointness: no existing
    /// placement may be an ancestor/descendant of (or equal to) `cat`.
    fn placement_legal(&self, item: ItemId, cat: CatId) -> bool {
        self.placements(item).all(|n| !self.same_branch(n, cat))
    }

    fn is_covered(&self, set: u32, cat: CatId) -> bool {
        let s = set as usize;
        self.instance.similarity.covers_with(
            self.instance.threshold_of(s),
            self.instance.sets[s].items.len(),
            self.full_size[cat as usize],
            self.inter[cat as usize],
        )
    }

    /// Number of extra items from `q` needed in `cat` to reach the
    /// threshold; `None` when already covered.
    fn cover_gap(&self, set: u32, cat: CatId) -> Option<usize> {
        if self.is_covered(set, cat) {
            return None;
        }
        let s = set as usize;
        let q_len = self.instance.sets[s].items.len();
        let c_len = self.full_size[cat as usize];
        let inter = self.inter[cat as usize];
        let delta = self.instance.threshold_of(s);
        let gap = match self.instance.similarity.kind {
            SimilarityKind::JaccardCutoff | SimilarityKind::JaccardThreshold => {
                // Adding j items of q∖C keeps the union u constant:
                // (inter + j) / u ≥ δ.
                let union = q_len + c_len - inter;
                ceil_tolerant(delta * union as f64) - inter as i64
            }
            SimilarityKind::F1Cutoff | SimilarityKind::F1Threshold => {
                // 2(inter + j) / (q_len + c_len + j) ≥ δ.
                ceil_tolerant((delta * (q_len + c_len) as f64 - 2.0 * inter as f64) / (2.0 - delta))
            }
            SimilarityKind::PerfectRecall | SimilarityKind::Exact => {
                // Not used by these variants (no duplicate stage), but keep a
                // sensible answer: missing recall items.
                (q_len - inter) as i64
            }
        };
        Some(gap.max(1) as usize)
    }

    /// Of `dup_list` (the duplicates of one target set), those still
    /// assignable to `cat`'s branch.
    fn available_from<'l>(
        &'l self,
        dup_list: &'l [ItemId],
        cat: CatId,
        remaining: &'l [u8],
    ) -> impl Iterator<Item = ItemId> + 'l {
        dup_list
            .iter()
            .copied()
            .filter(|&i| remaining[i as usize] > 0)
            .filter(move |&i| self.placement_legal(i, cat))
    }

    /// Stage 2: iteratively complete covers (Algorithm 2 lines 3–9).
    ///
    /// Each round scans every target once: it records the target's gain
    /// factor in `gain` (which the round's chain scoring then reads) and
    /// checks that the target's availability — how many of its duplicates
    /// its branch can still take — fills its gap. Availability is counted
    /// once; a placement of item `i` at `node` changes legality only for
    /// `i`, so it decrements exactly the targets containing `i` whose
    /// category could take `i` before and cannot after (`i`'s bound ran
    /// out, or the category is on `node`'s branch).
    fn cover_loop(&mut self, remaining: &mut [u8], stats: &mut AssignStats) {
        // Per-target duplicate lists and per-duplicate target postings (in
        // `targets` order), computed once: membership is static; only
        // remaining bounds and legality change between rounds.
        let dup_lists: Vec<Vec<ItemId>> = self
            .targets
            .iter()
            .map(|&(s, _)| {
                self.instance.sets[s as usize]
                    .items
                    .iter()
                    .filter(|&i| remaining[i as usize] > 0)
                    .collect()
            })
            .collect();
        let postings =
            CsrIndex::build(self.instance.num_items, dup_lists.iter().map(Vec::as_slice));
        let mut available: Vec<usize> = self
            .targets
            .iter()
            .zip(&dup_lists)
            .map(|(&(_, c), list)| self.available_from(list, c, remaining).count())
            .collect();
        let mut marks = ChainMarks::new(self.tree.len());
        loop {
            // Candidates: uncovered targets whose gap can be filled now.
            let mut best: Option<(f64, u32, usize, usize)> = None;
            for (t, &(s, c)) in self.targets.iter().enumerate() {
                let Some(gap) = self.cover_gap(s, c) else {
                    self.gain[c as usize] = 0.0;
                    continue;
                };
                let gain = self.instance.sets[s as usize].weight / gap as f64;
                self.gain[c as usize] = gain;
                if available[t] < gap {
                    continue;
                }
                let better = match best {
                    None => true,
                    Some((bg, bs, _, _)) => gain > bg + EPS || ((gain - bg).abs() <= EPS && s < bs),
                };
                if better {
                    best = Some((gain, s, t, gap));
                }
            }
            let Some((_, _, t, gap)) = best else {
                return;
            };
            let c = self.targets[t].1;
            // Branch gain: descend from C(q̂) to the best chain per item.
            // Ties prefer items with the least demand from *other* branches,
            // so contested duplicates stay available for their own covers.
            let mut scored: Vec<(f64, f64, ItemId, CatId)> = self
                .available_from(&dup_lists[t], c, remaining)
                .map(|item| {
                    let holders = postings.sets_of(item);
                    let (gain, node) = self.best_chain(holders, c, &mut marks);
                    let outside = (self.total_gain(holders) - gain).max(0.0);
                    (gain, outside, item, node)
                })
                .collect();
            // A count above what the round finds would pick `t` again
            // every round with nothing placed: fail instead of spinning.
            assert_eq!(available[t], scored.len(), "stale availability");
            scored.sort_by(|a, b| {
                b.0.total_cmp(&a.0)
                    .then(a.1.total_cmp(&b.1))
                    .then(a.2.cmp(&b.2))
            });
            for &(_, _, item, node) in scored.iter().take(gap) {
                let rem = &mut remaining[item as usize];
                *rem -= 1;
                let exhausted = *rem == 0;
                for &u in postings.sets_of(item) {
                    let cat = self.targets[u as usize].1;
                    if self.placement_legal(item, cat) && (exhausted || self.same_branch(node, cat))
                    {
                        available[u as usize] -= 1;
                    }
                }
                self.place(item, node);
                stats.duplicates_assigned += 1;
            }
        }
    }

    /// The best downward chain below (and including) `start` for the item
    /// whose target positions are `holders`: total gain factor of the
    /// uncovered targets on the chain that contain the item, and the deepest
    /// chain category containing it (the "lowest relevant category on its
    /// matched branch").
    ///
    /// Only subtrees holding one of the item's categories can add gain or
    /// a deepest category, so the search marks the paths from those
    /// categories up to `start` and descends along marked children only;
    /// an unmarked subtree would score `(0.0, None)`, which never wins.
    fn best_chain(&self, holders: &[u32], start: CatId, marks: &mut ChainMarks) -> (f64, CatId) {
        let epoch = marks.next_epoch();
        for &u in holders {
            let cat = self.targets[u as usize].1;
            marks.holds[cat as usize] = epoch;
            if !self.is_ancestor_or_self(start, cat) {
                continue;
            }
            let mut node = cat;
            while marks.on_path[node as usize] != epoch {
                marks.on_path[node as usize] = epoch;
                if node == start {
                    break;
                }
                node = self.tree.parent(node).expect("below start");
            }
        }
        // Ancestors contribute to every branch; they never change the
        // arg-max over chains, so the search only descends. Categories
        // without a target, or whose target lacks the item, add 0.
        let mut ancestor_gain = 0.0;
        let mut a = self.target_parent[start as usize];
        while a != NONE {
            if marks.holds[a as usize] == epoch {
                ancestor_gain += self.gain[a as usize];
            }
            a = self.target_parent[a as usize];
        }
        let (down_gain, deepest) = self.chain_down(start, marks, epoch);
        (ancestor_gain + down_gain, deepest.unwrap_or(start))
    }

    fn chain_down(&self, node: CatId, marks: &ChainMarks, epoch: u32) -> (f64, Option<CatId>) {
        let contains = marks.holds[node as usize] == epoch;
        let own = if contains {
            self.gain[node as usize]
        } else {
            0.0
        };
        let mut best_gain = 0.0;
        let mut best_deepest = None;
        for &child in self.tree.children(node) {
            if marks.on_path[child as usize] != epoch {
                continue;
            }
            let (g, d) = self.chain_down(child, marks, epoch);
            if g > best_gain || (g == best_gain && d.is_some() && best_deepest.is_none()) {
                best_gain = g;
                best_deepest = d;
            }
        }
        let deepest = best_deepest.or(if contains { Some(node) } else { None });
        (own + best_gain, deepest)
    }

    /// Sum of gain factors of *all* uncovered targets containing an item,
    /// given the positions in `targets` of the targets whose sets contain
    /// it (ascending, so the terms add up in `targets` order).
    fn total_gain(&self, holders: &[u32]) -> f64 {
        holders
            .iter()
            .map(|&u| self.gain[self.targets[u as usize].1 as usize])
            .fold(0.0, |sum, gain| sum + gain)
    }

    /// Stage 3 (Algorithm 2 lines 10–12): place remaining never-assigned
    /// duplicates by highest marginal gain to the cutoff score, skipping
    /// placements that would uncover a covered target.
    fn place_leftovers(&mut self, remaining: &mut [u8], stats: &mut AssignStats) {
        let index = self.index;
        for item in 0..self.instance.num_items {
            // A partially used duplicate is already on some branch. An
            // unplaced one may go to any of its categories.
            if remaining[item as usize] == 0 || self.is_placed(item) {
                continue;
            }
            // Only the targets whose sets contain the item are candidates.
            let mut best: Option<(f64, CatId)> = None;
            for &s in &index[item as usize] {
                let c = self.cat_of_set[s as usize];
                if c == NONE {
                    continue;
                }
                let Some(delta) = self.marginal_gain(item, c) else {
                    continue; // would uncover something
                };
                let better = match best {
                    None => delta >= 0.0,
                    Some((bd, bc)) => delta > bd + EPS || ((delta - bd).abs() <= EPS && c < bc),
                };
                if better {
                    best = Some((delta, c));
                }
            }
            if let Some((_, c)) = best {
                self.place(item, c);
                remaining[item as usize] -= 1;
                stats.leftover_assigned += 1;
            }
        }
    }

    /// Marginal cutoff-score change of adding `item` at `cat`, summed over
    /// the affected targets (`cat` and its target-bearing ancestors);
    /// `None` when the addition would uncover a covered target.
    fn marginal_gain(&self, item: ItemId, cat: CatId) -> Option<f64> {
        let mut total = 0.0;
        let mut node = cat;
        while node != NONE {
            let si = self.target_of_cat[node as usize] as usize;
            let q_len = self.instance.sets[si].items.len();
            let c_len = self.full_size[node as usize];
            let inter = self.inter[node as usize];
            let new_inter = inter + usize::from(self.target_holds(node, item));
            let delta = self.instance.threshold_of(si);
            let base = self.instance.similarity.kind.base();
            let covered_before = self
                .instance
                .similarity
                .covers_with(delta, q_len, c_len, inter);
            let covered_after =
                self.instance
                    .similarity
                    .covers_with(delta, q_len, c_len + 1, new_inter);
            if covered_before && !covered_after {
                return None;
            }
            let before = base.eval(q_len, c_len, inter);
            let after = base.eval(q_len, c_len + 1, new_inter);
            total += self.instance.sets[si].weight * (after - before);
            node = self.target_parent[node as usize];
        }
        Some(total)
    }

    /// Flushes pending placements into the tree.
    fn commit(self) {
        let pending = self.pending;
        let tree = self.tree;
        for (cat, item) in pending {
            tree.assign_item(cat, item);
        }
    }
}

/// Stamped scratch of [`AssignState::best_chain`], reused across calls:
/// `holds[c] == epoch` when `c`'s target contains the current item, and
/// `on_path[c] == epoch` when `c` lies between one of those categories and
/// the search's start.
struct ChainMarks {
    holds: Vec<u32>,
    on_path: Vec<u32>,
    epoch: u32,
}

impl ChainMarks {
    fn new(len: usize) -> Self {
        Self {
            holds: vec![0; len],
            on_path: vec![0; len],
            epoch: 0,
        }
    }

    /// A stamp no slot holds yet (clearing the slots when the counter
    /// wraps).
    fn next_epoch(&mut self) -> u32 {
        if self.epoch == u32::MAX {
            self.holds.fill(0);
            self.on_path.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.epoch
    }
}

/// The assignment before its state became dense: hash maps keyed by
/// category, set and item, parent-chain ancestry, availability recounted
/// from whole duplicate lists, and chain scoring over whole subtrees. Kept
/// as the oracle the dense state must match placement for placement.
#[cfg(test)]
mod oracle {
    use super::AssignStats;
    use crate::csr::CsrIndex;
    use crate::input::Instance;
    use crate::itemset::ItemId;
    use crate::similarity::{SimilarityKind, EPS};
    use crate::tree::{CatId, CategoryTree};
    use crate::util::ceil_tolerant;
    use std::collections::HashMap;

    pub(super) fn assign_items(
        instance: &Instance,
        index: &CsrIndex,
        tree: &mut CategoryTree,
        targets: &[(u32, CatId)],
        greedy_duplicates: bool,
    ) -> AssignStats {
        debug_assert!(instance.is_indexed_by(index), "stale inverted index");
        let mut state = AssignState::new(instance, index, tree, targets);
        let mut stats = AssignStats::default();

        // Stage 1: single-branch items (precision-polluting ones deferred when
        // the variant tolerates recall errors).
        let mut duplicates = state.assign_single_branch(greedy_duplicates, &mut stats);

        if greedy_duplicates {
            // Stage 2: cover-completing duplicates.
            state.cover_loop(&mut duplicates, &mut stats);
            // Stage 3: leftovers by marginal cutoff gain.
            state.place_leftovers(&mut duplicates, &mut stats);
        }
        stats.left_unassigned = duplicates
            .iter()
            .filter(|(_, rem)| **rem > 0)
            .filter(|(item, _)| state.assignments.get(*item).is_none_or(Vec::is_empty))
            .count();
        stats.covered_targets = state
            .targets
            .iter()
            .filter(|&&(s, c)| state.is_covered(s, c))
            .count();
        state.commit();
        stats
    }

    struct AssignState<'a> {
        instance: &'a Instance,
        tree: &'a mut CategoryTree,
        targets: Vec<(u32, CatId)>,
        /// item → input sets containing it.
        index: &'a CsrIndex,
        target_of_cat: HashMap<CatId, u32>,
        cat_of_set: HashMap<u32, CatId>,
        /// `|C|` per category (full, deduplicated).
        full_size: Vec<usize>,
        /// `|C ∩ q(C)|` per category with a target.
        inter: Vec<usize>,
        /// item → categories it has been (pending-)assigned to.
        assignments: HashMap<ItemId, Vec<CatId>>,
        /// Pending direct-item assignments to flush into the tree.
        pending: Vec<(CatId, ItemId)>,
    }

    impl<'a> AssignState<'a> {
        fn new(
            instance: &'a Instance,
            index: &'a CsrIndex,
            tree: &'a mut CategoryTree,
            targets: &[(u32, CatId)],
        ) -> Self {
            let len = tree.len();
            let mut target_of_cat = HashMap::default();
            let mut cat_of_set = HashMap::default();
            for &(s, c) in targets {
                target_of_cat.insert(c, s);
                cat_of_set.insert(s, c);
            }
            Self {
                instance,
                tree,
                targets: targets.to_vec(),
                index,
                target_of_cat,
                cat_of_set,
                full_size: vec![0; len],
                inter: vec![0; len],
                assignments: HashMap::default(),
                pending: Vec::new(),
            }
        }

        /// Stage 1. Returns the items deferred to the greedy stages with their
        /// remaining bounds.
        ///
        /// With recall-tolerant variants (`defer_polluting`), a single-branch
        /// item is only assigned eagerly when every target-bearing ancestor of
        /// its destination also contains it — otherwise eager assignment would
        /// degrade ancestor precision beyond what the pairwise
        /// covered-together analysis budgeted (the aggregate-error effect the
        /// paper notes in §3.2). Deferred items flow into the gap-driven
        /// greedy, which takes only as many as each cover needs.
        fn assign_single_branch(
            &mut self,
            defer_polluting: bool,
            stats: &mut AssignStats,
        ) -> HashMap<ItemId, u8> {
            let mut duplicates: HashMap<ItemId, u8> = HashMap::default();
            for item in 0..self.instance.num_items {
                let cats: Vec<CatId> = self.index[item as usize]
                    .iter()
                    .filter_map(|s| self.cat_of_set.get(s).copied())
                    .collect();
                if cats.is_empty() {
                    continue;
                }
                // Deepest category; all others must be its ancestors (or equal).
                let deepest = *cats
                    .iter()
                    .max_by_key(|&&c| self.tree.depth(c))
                    .expect("non-empty");
                let one_branch = cats
                    .iter()
                    .all(|&c| c == deepest || self.tree.is_ancestor(c, deepest));
                if one_branch && (!defer_polluting || !self.pollutes_ancestors(item, deepest)) {
                    self.place(item, deepest);
                    stats.initial_assigned += 1;
                } else {
                    duplicates.insert(item, self.instance.bound_of(item));
                }
            }
            duplicates
        }

        /// `true` when placing `item` at `cat` would enter the full set of a
        /// target-bearing ancestor whose set lacks the item.
        fn pollutes_ancestors(&self, item: ItemId, cat: CatId) -> bool {
            self.tree.ancestors(cat).into_iter().any(|a| {
                self.target_of_cat
                    .get(&a)
                    .is_some_and(|&s| !self.instance.sets[s as usize].items.contains(item))
            })
        }

        /// Records the assignment of `item` at `cat`, updating sizes and
        /// intersections of `cat` and its ancestors with branch-dedup.
        fn place(&mut self, item: ItemId, cat: CatId) {
            // Nodes already containing the item in their full sets.
            let existing = self.assignments.entry(item).or_default().clone();
            let mut covered_nodes: Vec<CatId> = Vec::new();
            for &e in &existing {
                covered_nodes.push(e);
                covered_nodes.extend(self.tree.ancestors(e));
            }
            let mut chain = vec![cat];
            chain.extend(self.tree.ancestors(cat));
            for node in chain {
                if covered_nodes.contains(&node) {
                    continue;
                }
                self.full_size[node as usize] += 1;
                if let Some(&s) = self.target_of_cat.get(&node) {
                    if self.instance.sets[s as usize].items.contains(item) {
                        self.inter[node as usize] += 1;
                    }
                }
            }
            self.assignments
                .get_mut(&item)
                .expect("entry created above")
                .push(cat);
            self.pending.push((cat, item));
        }

        /// Whether placing `item` at `cat` keeps branch-disjointness: no existing
        /// assignment may be an ancestor/descendant of (or equal to) `cat`.
        fn placement_legal(&self, item: ItemId, cat: CatId) -> bool {
            self.assignments.get(&item).is_none_or(|nodes| {
                nodes.iter().all(|&n| {
                    n != cat && !self.tree.is_ancestor(n, cat) && !self.tree.is_ancestor(cat, n)
                })
            })
        }

        fn is_covered(&self, set: u32, cat: CatId) -> bool {
            let s = set as usize;
            self.instance.similarity.covers_with(
                self.instance.threshold_of(s),
                self.instance.sets[s].items.len(),
                self.full_size[cat as usize],
                self.inter[cat as usize],
            )
        }

        /// Number of extra items from `q` needed in `cat` to reach the
        /// threshold; `None` when already covered.
        fn cover_gap(&self, set: u32, cat: CatId) -> Option<usize> {
            if self.is_covered(set, cat) {
                return None;
            }
            let s = set as usize;
            let q_len = self.instance.sets[s].items.len();
            let c_len = self.full_size[cat as usize];
            let inter = self.inter[cat as usize];
            let delta = self.instance.threshold_of(s);
            let gap = match self.instance.similarity.kind {
                SimilarityKind::JaccardCutoff | SimilarityKind::JaccardThreshold => {
                    // Adding j items of q∖C keeps the union u constant:
                    // (inter + j) / u ≥ δ.
                    let union = q_len + c_len - inter;
                    ceil_tolerant(delta * union as f64) - inter as i64
                }
                SimilarityKind::F1Cutoff | SimilarityKind::F1Threshold => {
                    // 2(inter + j) / (q_len + c_len + j) ≥ δ.
                    ceil_tolerant(
                        (delta * (q_len + c_len) as f64 - 2.0 * inter as f64) / (2.0 - delta),
                    )
                }
                SimilarityKind::PerfectRecall | SimilarityKind::Exact => {
                    // Not used by these variants (no duplicate stage), but keep a
                    // sensible answer: missing recall items.
                    (q_len - inter) as i64
                }
            };
            Some(gap.max(1) as usize)
        }

        /// Of `dup_list` (the duplicates of one target set), those still
        /// assignable to `cat`'s branch.
        fn available_from<'l>(
            &'l self,
            dup_list: &'l [ItemId],
            cat: CatId,
            duplicates: &'l HashMap<ItemId, u8>,
        ) -> impl Iterator<Item = ItemId> + 'l {
            dup_list
                .iter()
                .copied()
                .filter(|i| duplicates.get(i).is_some_and(|&rem| rem > 0))
                .filter(move |&i| self.placement_legal(i, cat))
        }

        /// Stage 2: iteratively complete covers (Algorithm 2 lines 3–9).
        ///
        /// A target's availability (how many of its duplicates its branch can
        /// still take) changes only when one of those duplicates is placed, so
        /// it is cached per target and cleared, on each placement, for the
        /// targets whose sets contain the placed item.
        fn cover_loop(&mut self, duplicates: &mut HashMap<ItemId, u8>, stats: &mut AssignStats) {
            // Per-target duplicate lists and per-duplicate target postings (in
            // `targets` order), computed once: membership is static; only
            // remaining bounds and legality change between rounds.
            let mut postings: HashMap<ItemId, Vec<usize>> = HashMap::default();
            let dup_lists: Vec<Vec<ItemId>> = self
                .targets
                .iter()
                .enumerate()
                .map(|(t, &(s, _))| {
                    let list: Vec<ItemId> = self.instance.sets[s as usize]
                        .items
                        .iter()
                        .filter(|i| duplicates.contains_key(i))
                        .collect();
                    for &item in &list {
                        postings.entry(item).or_default().push(t);
                    }
                    list
                })
                .collect();
            let mut available: Vec<Option<usize>> = vec![None; self.targets.len()];
            loop {
                // Candidates: uncovered targets whose gap can be filled now.
                let mut best: Option<(f64, u32, usize, usize)> = None;
                for (t, &(s, c)) in self.targets.iter().enumerate() {
                    let Some(gap) = self.cover_gap(s, c) else {
                        continue;
                    };
                    let avail = *available[t].get_or_insert_with(|| {
                        self.available_from(&dup_lists[t], c, duplicates).count()
                    });
                    if avail < gap {
                        continue;
                    }
                    let gain = self.instance.sets[s as usize].weight / gap as f64;
                    let better = match best {
                        None => true,
                        Some((bg, bs, _, _)) => {
                            gain > bg + EPS || ((gain - bg).abs() <= EPS && s < bs)
                        }
                    };
                    if better {
                        best = Some((gain, s, t, gap));
                    }
                }
                let Some((_, _, t, gap)) = best else {
                    return;
                };
                let c = self.targets[t].1;
                // Branch gain: descend from C(q̂) to the best chain per item.
                // Ties prefer items with the least demand from *other* branches,
                // so contested duplicates stay available for their own covers.
                let mut scored: Vec<(f64, f64, ItemId, CatId)> = self
                    .available_from(&dup_lists[t], c, duplicates)
                    .map(|item| {
                        let (gain, node) = self.best_chain(item, c);
                        let outside = (self.total_gain(&postings[&item], item) - gain).max(0.0);
                        (gain, outside, item, node)
                    })
                    .collect();
                debug_assert_eq!(available[t], Some(scored.len()), "stale availability");
                scored.sort_by(|a, b| {
                    b.0.total_cmp(&a.0)
                        .then(a.1.total_cmp(&b.1))
                        .then(a.2.cmp(&b.2))
                });
                for &(_, _, item, node) in scored.iter().take(gap) {
                    self.place(item, node);
                    let rem = duplicates.get_mut(&item).expect("candidate is a duplicate");
                    *rem -= 1;
                    stats.duplicates_assigned += 1;
                    for &u in &postings[&item] {
                        available[u] = None;
                    }
                }
            }
        }

        /// The best downward chain for `item` below (and including) `start`:
        /// total gain-factor of uncovered targets containing `item` on the
        /// chain, and the deepest chain category containing `item` (the
        /// "lowest relevant category on its matched branch").
        fn best_chain(&self, item: ItemId, start: CatId) -> (f64, CatId) {
            // Ancestors contribute to every branch; they never change the
            // arg-max over chains, so the search only descends.
            let mut ancestor_gain = 0.0;
            for a in self.tree.ancestors(start) {
                ancestor_gain += self.node_gain(item, a);
            }
            let (down_gain, deepest) = self.chain_down(item, start);
            (ancestor_gain + down_gain, deepest.unwrap_or(start))
        }

        fn chain_down(&self, item: ItemId, node: CatId) -> (f64, Option<CatId>) {
            let own = self.node_gain(item, node);
            let contains = self
                .target_of_cat
                .get(&node)
                .is_some_and(|&s| self.instance.sets[s as usize].items.contains(item));
            let mut best_gain = 0.0;
            let mut best_deepest = None;
            for &child in self.tree.children(node) {
                let (g, d) = self.chain_down(item, child);
                if g > best_gain || (g == best_gain && d.is_some() && best_deepest.is_none()) {
                    best_gain = g;
                    best_deepest = d;
                }
            }
            let deepest = best_deepest.or(if contains { Some(node) } else { None });
            (own + best_gain, deepest)
        }

        /// Sum of gain factors of *all* uncovered targets containing `item`,
        /// given the positions in `targets` of the targets whose sets contain
        /// it (ascending, so the terms add up in `targets` order).
        fn total_gain(&self, postings: &[usize], item: ItemId) -> f64 {
            postings
                .iter()
                .map(|&t| self.node_gain(item, self.targets[t].1))
                .fold(0.0, |sum, gain| sum + gain)
        }

        /// Gain factor contributed by `node`'s target for `item` (0 when the
        /// target is covered, lacks `item`, or the node has no target).
        fn node_gain(&self, item: ItemId, node: CatId) -> f64 {
            let Some(&s) = self.target_of_cat.get(&node) else {
                return 0.0;
            };
            if !self.instance.sets[s as usize].items.contains(item) {
                return 0.0;
            }
            match self.cover_gap(s, node) {
                Some(gap) => self.instance.sets[s as usize].weight / gap as f64,
                None => 0.0,
            }
        }

        /// Stage 3 (Algorithm 2 lines 10–12): place remaining never-assigned
        /// duplicates by highest marginal gain to the cutoff score, skipping
        /// placements that would uncover a covered target.
        fn place_leftovers(
            &mut self,
            duplicates: &mut HashMap<ItemId, u8>,
            stats: &mut AssignStats,
        ) {
            let mut items: Vec<ItemId> = duplicates
                .iter()
                .filter(|(_, rem)| **rem > 0)
                .map(|(&i, _)| i)
                .collect();
            items.sort_unstable();
            // Only the targets whose sets contain the item are candidates.
            for item in items {
                if self.assignments.get(&item).is_some_and(|v| !v.is_empty()) {
                    continue; // partially used duplicate: already on some branch
                }
                let mut best: Option<(f64, CatId)> = None;
                for &s in &self.index[item as usize] {
                    let Some(&c) = self.cat_of_set.get(&s) else {
                        continue;
                    };
                    if !self.placement_legal(item, c) {
                        continue;
                    }
                    let Some(delta) = self.marginal_gain(item, c) else {
                        continue; // would uncover something
                    };
                    let better = match best {
                        None => delta >= 0.0,
                        Some((bd, bc)) => delta > bd + EPS || ((delta - bd).abs() <= EPS && c < bc),
                    };
                    if better {
                        best = Some((delta, c));
                    }
                }
                if let Some((_, c)) = best {
                    self.place(item, c);
                    *duplicates.get_mut(&item).expect("leftover") -= 1;
                    stats.leftover_assigned += 1;
                }
            }
        }

        /// Marginal cutoff-score change of adding `item` at `cat`, summed over
        /// the affected targets (`cat` and its target-bearing ancestors);
        /// `None` when the addition would uncover a covered target.
        fn marginal_gain(&self, item: ItemId, cat: CatId) -> Option<f64> {
            let mut affected = vec![cat];
            affected.extend(self.tree.ancestors(cat));
            let mut total = 0.0;
            for node in affected {
                let Some(&s) = self.target_of_cat.get(&node) else {
                    continue;
                };
                let si = s as usize;
                let q_len = self.instance.sets[si].items.len();
                let c_len = self.full_size[node as usize];
                let inter = self.inter[node as usize];
                let in_q = self.instance.sets[si].items.contains(item);
                let new_inter = inter + usize::from(in_q);
                let delta = self.instance.threshold_of(si);
                let base = self.instance.similarity.kind.base();
                let covered_before = self
                    .instance
                    .similarity
                    .covers_with(delta, q_len, c_len, inter);
                let covered_after =
                    self.instance
                        .similarity
                        .covers_with(delta, q_len, c_len + 1, new_inter);
                if covered_before && !covered_after {
                    return None;
                }
                let before = base.eval(q_len, c_len, inter);
                let after = base.eval(q_len, c_len + 1, new_inter);
                total += self.instance.sets[si].weight * (after - before);
            }
            Some(total)
        }

        /// Flushes pending placements into the tree.
        fn commit(self) {
            let pending = self.pending;
            let tree = self.tree;
            for (cat, item) in pending {
                tree.assign_item(cat, item);
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::input::{InputSet, Instance};
    use crate::itemset::ItemSet;
    use crate::persist::encode_tree;
    use crate::score::score_tree;
    use crate::similarity::Similarity;
    use crate::tree::{CategoryTree, ROOT};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Paper Figure 6: q1 = {a,b,c,f} w2, q2 = {a,b} w1, q3 = {a,b,c,d,e} w3
    /// under threshold Jaccard δ = 0.6. No conflicts; three sibling
    /// categories; {f,d,e} are single-branch, {a,b,c} duplicates.
    fn figure6() -> (Instance, CategoryTree, Vec<(u32, CatId)>) {
        let sets = vec![
            InputSet::new(ItemSet::new(vec![0, 1, 2, 5]), 2.0),
            InputSet::new(ItemSet::new(vec![0, 1]), 1.0),
            InputSet::new(ItemSet::new(vec![0, 1, 2, 3, 4]), 3.0),
        ];
        let instance = Instance::new(6, sets, Similarity::jaccard_threshold(0.6));
        let mut tree = CategoryTree::new();
        let c1 = tree.add_category(ROOT);
        let c2 = tree.add_category(ROOT);
        let c3 = tree.add_category(ROOT);
        (instance, tree, vec![(0, c1), (1, c2), (2, c3)])
    }

    #[test]
    fn figure6_assignment_covers_q1_and_q3() {
        let (instance, mut tree, targets) = figure6();
        let stats = assign_items(&instance, &mut tree, &targets, true);
        // Single-branch items: f (only q1), d and e (only q3).
        assert_eq!(stats.initial_assigned, 3);
        // Duplicates a, b, c: the paper walk-through covers q1 (gain 2/1
        // via item c) then q3 (gain 3/2 via a, b).
        assert_eq!(stats.duplicates_assigned, 3);
        let score = score_tree(&instance, &tree);
        assert!(score.per_set[0].covered, "q1 covered");
        assert!(score.per_set[2].covered, "q3 covered");
        // q2 = {a,b} is not covered by its own category at this stage
        // (intermediate categories handle it later).
        let full = tree.materialize();
        // Walkthrough: q3 (gain 3/1) takes duplicate c — the least contested
        // duplicate — reaching J = 3/5; q1 (gain 2/2) then takes a and b,
        // reaching J = 3/4.
        assert_eq!(full[targets[2].1 as usize], ItemSet::new(vec![2, 3, 4]));
        assert_eq!(full[targets[0].1 as usize], ItemSet::new(vec![0, 1, 5]));
        assert!(tree.validate(&instance).is_ok());
    }

    #[test]
    fn single_branch_items_go_to_deepest_category() {
        // Nested sets on one branch: q_big ⊃ q_small.
        let sets = vec![
            InputSet::new(ItemSet::new(vec![0, 1, 2, 3]), 1.0),
            InputSet::new(ItemSet::new(vec![0, 1]), 1.0),
        ];
        let instance = Instance::new(4, sets, Similarity::exact());
        let mut tree = CategoryTree::new();
        let big = tree.add_category(ROOT);
        let small = tree.add_category(big);
        let stats = assign_items(&instance, &mut tree, &[(0, big), (1, small)], false);
        assert_eq!(stats.initial_assigned, 4);
        assert_eq!(tree.direct_items(small), &[0, 1]);
        assert_eq!(tree.direct_items(big), &[2, 3]);
        let full = tree.materialize();
        assert_eq!(full[big as usize].len(), 4);
        assert_eq!(stats.covered_targets, 2);
    }

    #[test]
    fn exact_assignment_reproduces_input_sets() {
        let sets = vec![
            InputSet::new(ItemSet::new(vec![0, 1]), 1.0),
            InputSet::new(ItemSet::new(vec![2, 3, 4]), 1.0),
        ];
        let instance = Instance::new(6, sets, Similarity::exact());
        let mut tree = CategoryTree::new();
        let a = tree.add_category(ROOT);
        let b = tree.add_category(ROOT);
        assign_items(&instance, &mut tree, &[(0, a), (1, b)], false);
        let full = tree.materialize();
        assert_eq!(full[a as usize], ItemSet::new(vec![0, 1]));
        assert_eq!(full[b as usize], ItemSet::new(vec![2, 3, 4]));
    }

    #[test]
    fn duplicates_respect_bounds_of_two() {
        // Item 0 shared by two disjoint-branch sets, bound 2: it may serve
        // both categories.
        let sets = vec![
            InputSet::new(ItemSet::new(vec![0, 1]), 1.0),
            InputSet::new(ItemSet::new(vec![0, 2]), 1.0),
        ];
        let instance = Instance::new(3, sets, Similarity::jaccard_threshold(1.0))
            .with_item_bounds(vec![2, 1, 1]);
        let mut tree = CategoryTree::new();
        let a = tree.add_category(ROOT);
        let b = tree.add_category(ROOT);
        let stats = assign_items(&instance, &mut tree, &[(0, a), (1, b)], true);
        assert!(tree.validate(&instance).is_ok());
        assert_eq!(stats.covered_targets, 2, "both sets fully matched");
        let full = tree.materialize();
        assert!(full[a as usize].contains(0) && full[b as usize].contains(0));
    }

    #[test]
    fn cover_loop_prioritizes_gain_factor() {
        // Two uncovered sets compete for one shared duplicate; the heavier
        // (same gap) must win it.
        let sets = vec![
            InputSet::new(ItemSet::new(vec![0, 1]), 5.0),
            InputSet::new(ItemSet::new(vec![0, 2]), 1.0),
        ];
        let instance = Instance::new(3, sets, Similarity::jaccard_threshold(1.0));
        let mut tree = CategoryTree::new();
        let a = tree.add_category(ROOT);
        let b = tree.add_category(ROOT);
        assign_items(&instance, &mut tree, &[(0, a), (1, b)], true);
        let score = score_tree(&instance, &tree);
        assert!(score.per_set[0].covered, "heavy set covered");
        assert!(!score.per_set[1].covered, "light set sacrificed");
    }

    #[test]
    fn placed_duplicate_refreshes_other_targets_availability() {
        // δ = 1. Round 1: A (gain 10) takes shared duplicate 0. B = {0,3,5}
        // still needs both 0 and 3, so it can no longer be filled, and C
        // (gain 0.1) takes 3 in round 2. A stale availability count for B
        // (two duplicates) would let B (gain 0.5) claim 3 instead.
        let sets = vec![
            InputSet::new(ItemSet::new(vec![0, 1]), 10.0),
            InputSet::new(ItemSet::new(vec![0, 3, 5]), 1.0),
            InputSet::new(ItemSet::new(vec![3, 6]), 0.1),
        ];
        let instance = Instance::new(7, sets, Similarity::jaccard_threshold(1.0));
        let mut tree = CategoryTree::new();
        let a = tree.add_category(ROOT);
        let b = tree.add_category(ROOT);
        let c = tree.add_category(ROOT);
        let stats = assign_items(&instance, &mut tree, &[(0, a), (1, b), (2, c)], true);
        assert_eq!(stats.duplicates_assigned, 2);
        let full = tree.materialize();
        assert_eq!(full[a as usize], ItemSet::new(vec![0, 1]));
        assert_eq!(full[b as usize], ItemSet::new(vec![5]));
        assert_eq!(full[c as usize], ItemSet::new(vec![3, 6]));
        assert_eq!(stats.covered_targets, 2);
    }

    #[test]
    fn leftovers_do_not_uncover() {
        // One set exactly covered; a stray duplicate belonging to an
        // uncoverable set must not be dumped into the covered category if
        // that would break its threshold.
        let sets = vec![
            InputSet::new(ItemSet::new(vec![0, 1]), 3.0),
            InputSet::new(ItemSet::new(vec![1, 2]), 1.0),
        ];
        // δ = 1: C(q1) = {0,1} exactly; item 2 can't join without breaking it.
        let instance = Instance::new(3, sets, Similarity::jaccard_threshold(1.0));
        let mut tree = CategoryTree::new();
        let a = tree.add_category(ROOT);
        let b = tree.add_category(ROOT);
        let stats = assign_items(&instance, &mut tree, &[(0, a), (1, b)], true);
        let score = score_tree(&instance, &tree);
        assert!(score.per_set[0].covered);
        // Item 2 ends up either in C(q2) (harmless) or unassigned.
        assert!(tree.validate(&instance).is_ok());
        let _ = stats;
    }

    #[test]
    fn no_targets_is_a_noop() {
        let sets = vec![InputSet::new(ItemSet::new(vec![0]), 1.0)];
        let instance = Instance::new(1, sets, Similarity::jaccard_threshold(0.5));
        let mut tree = CategoryTree::new();
        let stats = assign_items(&instance, &mut tree, &[], true);
        assert_eq!(stats.initial_assigned, 0);
        assert_eq!(stats.covered_targets, 0);
    }

    /// A random instance, target tree and stage switch drawn from `seed`:
    /// up to 14 sets over up to 30 items, windows of the universe so that
    /// sets overlap and nest; one of the four Jaccard/F1 forms at a random
    /// threshold (some sets with their own; now and then an Exact or
    /// Perfect-Recall instance, which runs stage 1 only); item bounds of
    /// 1..=3 in half the cases; and a random subset of the sets as targets,
    /// each on its own category of a flat, nested or dendrogram-shaped tree.
    pub(crate) fn random_case(seed: u64) -> (Instance, CategoryTree, Vec<(u32, CatId)>, bool) {
        let mut rng = StdRng::seed_from_u64(seed);
        let num_items = rng.gen_range(2u32..30);
        let num_sets = rng.gen_range(1usize..14);
        let sets: Vec<InputSet> = (0..num_sets)
            .map(|_| {
                let lo = rng.gen_range(0..num_items);
                let hi = rng.gen_range(lo + 1..=num_items);
                let density = rng.gen_range(0.3..1.0);
                let mut items: Vec<ItemId> = (lo..hi).filter(|_| rng.gen_bool(density)).collect();
                if items.is_empty() {
                    items.push(lo);
                }
                let weight = if rng.gen_bool(0.5) {
                    rng.gen_range(0u32..6) as f64
                } else {
                    rng.gen_range(0.0..5.0)
                };
                let set = InputSet::new(ItemSet::new(items), weight);
                if rng.gen_bool(0.2) {
                    set.with_threshold(rng.gen_range(0.3..1.0))
                } else {
                    set
                }
            })
            .collect();
        let delta = if rng.gen_bool(0.5) {
            [0.5, 0.6, 0.75, 0.8, 1.0][rng.gen_range(0usize..5)]
        } else {
            rng.gen_range(0.3..1.0)
        };
        let similarity = match rng.gen_range(0u32..9) {
            0 | 1 => Similarity::jaccard_threshold(delta),
            2 | 3 => Similarity::jaccard_cutoff(delta),
            4 | 5 => Similarity::f1_threshold(delta),
            6 | 7 => Similarity::f1_cutoff(delta),
            _ if rng.gen_bool(0.5) => Similarity::perfect_recall(delta),
            _ => Similarity::exact(),
        };
        let greedy = !similarity.kind.requires_perfect_recall();
        let mut instance = Instance::new(num_items, sets, similarity);
        if rng.gen_bool(0.5) {
            let bounds = (0..num_items).map(|_| rng.gen_range(1u8..=3)).collect();
            instance = instance.with_item_bounds(bounds);
        }
        // Targets: a random subset of the sets, in random order.
        let mut sets: Vec<u32> = (0..num_sets as u32)
            .filter(|_| rng.gen_bool(0.85))
            .collect();
        for i in (1..sets.len()).rev() {
            sets.swap(i, rng.gen_range(0..=i));
        }
        let mut tree = CategoryTree::new();
        let mut targets = Vec::new();
        match rng.gen_range(0u32..3) {
            0 => {
                for &s in &sets {
                    targets.push((s, tree.add_category(ROOT)));
                }
            }
            1 => {
                // Nested: each category under the root or a random earlier
                // one, with some target-less categories in between.
                let mut parents = vec![ROOT];
                for &s in &sets {
                    let mut parent = parents[rng.gen_range(0..parents.len())];
                    if rng.gen_bool(0.2) {
                        parent = tree.add_category(parent);
                        parents.push(parent);
                    }
                    let cat = tree.add_category(parent);
                    parents.push(cat);
                    targets.push((s, cat));
                }
            }
            _ => {
                // Dendrogram: targets are leaves under random binary splits
                // without targets of their own, in 1–3 top-level groups.
                fn split(
                    tree: &mut CategoryTree,
                    parent: CatId,
                    sets: &[u32],
                    rng: &mut StdRng,
                    targets: &mut Vec<(u32, CatId)>,
                ) {
                    if let [s] = sets {
                        targets.push((*s, tree.add_category(parent)));
                        return;
                    }
                    let node = tree.add_category(parent);
                    let k = rng.gen_range(1..sets.len());
                    split(tree, node, &sets[..k], rng, targets);
                    split(tree, node, &sets[k..], rng, targets);
                }
                let mut rest = &sets[..];
                while !rest.is_empty() {
                    let k = rng.gen_range(1..=rest.len().min(1 + sets.len() / 2));
                    split(&mut tree, ROOT, &rest[..k], &mut rng, &mut targets);
                    rest = &rest[k..];
                }
            }
        }
        (instance, tree, targets, greedy)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// The dense state places every item where the hash-map original
        /// does: equal stats and byte-equal trees on random instances.
        #[test]
        fn dense_state_matches_the_oracle(seed in any::<u64>()) {
            let (instance, tree, targets, greedy) = random_case(seed);
            let index = instance.inverted_index();
            let mut dense = tree.clone();
            let mut reference = tree;
            let got = assign_items_indexed(&instance, &index, &mut dense, &targets, greedy);
            let want = oracle::assign_items(&instance, &index, &mut reference, &targets, greedy);
            prop_assert_eq!(got, want, "stats (seed {})", seed);
            prop_assert_eq!(
                encode_tree(&dense).to_vec(),
                encode_tree(&reference).to_vec(),
                "tree bytes (seed {})",
                seed
            );
        }
    }
}
