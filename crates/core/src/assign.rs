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

use crate::csr::CsrIndex;
use crate::input::Instance;
use crate::itemset::ItemId;
use crate::similarity::{SimilarityKind, EPS};
use crate::tree::{CatId, CategoryTree};
use crate::util::{ceil_tolerant, FxHashMap};

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
/// conflict-free sets `S` in CTCR, all of `Q` in CCT). When
/// `greedy_duplicates` is false only the single-branch stage runs (the
/// Exact / Perfect-Recall specializations, where duplicates cannot arise
/// among selected sets).
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
    target_of_cat: FxHashMap<CatId, u32>,
    cat_of_set: FxHashMap<u32, CatId>,
    /// `|C|` per category (full, deduplicated).
    full_size: Vec<usize>,
    /// `|C ∩ q(C)|` per category with a target.
    inter: Vec<usize>,
    /// item → categories it has been (pending-)assigned to.
    assignments: FxHashMap<ItemId, Vec<CatId>>,
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
        let mut target_of_cat = FxHashMap::default();
        let mut cat_of_set = FxHashMap::default();
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
            assignments: FxHashMap::default(),
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
    ) -> FxHashMap<ItemId, u8> {
        let mut duplicates: FxHashMap<ItemId, u8> = FxHashMap::default();
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
        duplicates: &'l FxHashMap<ItemId, u8>,
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
    fn cover_loop(&mut self, duplicates: &mut FxHashMap<ItemId, u8>, stats: &mut AssignStats) {
        // Per-target duplicate lists and per-duplicate target postings (in
        // `targets` order), computed once: membership is static; only
        // remaining bounds and legality change between rounds.
        let mut postings: FxHashMap<ItemId, Vec<usize>> = FxHashMap::default();
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
    fn place_leftovers(&mut self, duplicates: &mut FxHashMap<ItemId, u8>, stats: &mut AssignStats) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::{InputSet, Instance};
    use crate::itemset::ItemSet;
    use crate::score::score_tree;
    use crate::similarity::Similarity;
    use crate::tree::{CategoryTree, ROOT};

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
}
