//! Post-construction cover repair (an extension beyond the paper).
//!
//! The paper's pairwise conflict analysis cannot see *aggregate*
//! higher-order effects: a large set may be pairwise-compatible with each
//! of its many overlapping siblings, yet the greedy assignment scatters its
//! items across branches and the set ends (just) below its threshold —
//! §3.2 acknowledges this residual error. After the intermediate-category
//! stage, such sets typically have a candidate category within a few
//! percent of the threshold.
//!
//! This stage closes those gaps without ever breaking an existing cover:
//! for each uncovered set (heaviest first) it finds the best candidate
//! category and greedily plans
//! 1. **adds** of still-unassigned items of the set to the candidate, and
//! 2. **removals** of foreign items from the candidate's subtree when every
//!    covered set counting on them retains its threshold (slack-aware
//!    trimming; removed items return to the unassigned pool → `C_misc`),
//!
//! going ahead only when the planned moves would reach the threshold. A set
//! that no plan could bring to its threshold, even with every unassigned
//! item added and every foreign item trimmed, is skipped before any safety
//! check is run.
//! Commits are per move, not per plan: each move's safety is rechecked when
//! it is applied, a move that became unsafe is skipped, and the moves
//! already applied for the set stay committed even when the set ends below
//! its threshold. The tree stays valid and no protected cover breaks.
//!
//! The candidate search is one pass per set of the [`ChainCounter`]: each
//! item of the set walks its locations up the parent chain, counting every
//! category it reaches once, so only categories that share an item with
//! the set are ever scored. Repair moves items as it goes, so it counts
//! over the live tree rather than over a [`TreeView`], which is built once
//! and never edited. Category sizes and item locations come from the tree
//! view of the opening score.

use crate::input::Instance;
use crate::itemset::{ItemId, ItemSet};
use crate::score::{score_tree_viewed, ScoreOptions, TreeScore, TreeView};
use crate::tree::{CatId, CategoryTree, ChainCounter, ROOT};
use crate::util::FxHashMap;

/// Outcome of a repair pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RepairStats {
    /// Input sets newly covered by the pass.
    pub newly_covered: usize,
    /// Items added to candidate categories.
    pub items_added: usize,
    /// Foreign items trimmed out of candidate subtrees.
    pub items_removed: usize,
}

/// A covered set's protection record: its cover at `cat` must stay ≥ δ.
struct Protection {
    set: u32,
    cat: CatId,
    inter: usize,
}

/// Each item's direct-assignment categories in one flat buffer. Item `i`
/// owns the slots `start[i]..start[i + 1]`, as many as it had placements
/// when repair began and at least one; the first `len[i]` are in use.
/// Removals free slots, and an add only goes to an item with none in use,
/// so the slots always suffice.
struct Locations {
    start: Vec<u32>,
    len: Vec<u32>,
    cats: Vec<CatId>,
}

impl Locations {
    /// The placements `view` read off the tree.
    fn new(view: &TreeView) -> Self {
        let n = view.num_items();
        let mut start = Vec::with_capacity(n + 1);
        let mut len = Vec::with_capacity(n);
        let mut cats = Vec::new();
        for item in 0..n as ItemId {
            let ranks = view.locations(item);
            start.push(cats.len() as u32);
            len.push(ranks.len() as u32);
            cats.extend(ranks.iter().map(|&r| view.category(r)));
            if ranks.is_empty() {
                cats.push(ROOT);
            }
        }
        start.push(cats.len() as u32);
        Self { start, len, cats }
    }

    /// The categories `item` is directly assigned to.
    fn of(&self, item: ItemId) -> &[CatId] {
        let lo = self.start[item as usize] as usize;
        &self.cats[lo..lo + self.len[item as usize] as usize]
    }

    fn push(&mut self, item: ItemId, cat: CatId) {
        let i = item as usize;
        let slot = (self.start[i] + self.len[i]) as usize;
        assert!(
            slot < self.start[i + 1] as usize,
            "item {item} has a free slot"
        );
        self.cats[slot] = cat;
        self.len[i] += 1;
    }

    fn remove(&mut self, item: ItemId, cat: CatId) {
        let i = item as usize;
        let lo = self.start[i] as usize;
        let live = &mut self.cats[lo..lo + self.len[i] as usize];
        if let Some(pos) = live.iter().position(|&c| c == cat) {
            let last = live.len() - 1;
            live.swap(pos, last);
            self.len[i] -= 1;
        }
    }
}

/// The moves planned for one uncovered set: the first `a` of `adds` and
/// the first `r` of `removals` are committed.
struct Plan {
    adds: Vec<ItemId>,
    removals: Vec<(ItemId, CatId)>,
    a: usize,
    r: usize,
}

struct RepairState<'a> {
    instance: &'a Instance,
    tree: &'a mut CategoryTree,
    /// Full-set size per category slot.
    node_size: Vec<usize>,
    locations: Locations,
    /// Protections indexed by category.
    protections: Vec<Protection>,
    by_cat: FxHashMap<CatId, Vec<usize>>,
    /// Preorder intervals of the categories (repair moves items, never
    /// categories): `b` is in `a`'s subtree iff `enter[b]` is in
    /// `enter[a]..end[a]`.
    enter: Vec<u32>,
    end: Vec<u32>,
    /// Candidate-search scratch over the tree's category slots.
    counter: ChainCounter,
}

impl<'a> RepairState<'a> {
    /// The state of `tree` as it stands, with one protection per set that
    /// `score` (the tree's score) finds covered. Sizes and locations come
    /// from `view`, the view that `score` was computed on; a covered set's
    /// intersection with its best category counts the set's items with a
    /// location inside the category's preorder interval.
    fn new(
        instance: &'a Instance,
        tree: &'a mut CategoryTree,
        score: &TreeScore,
        view: &TreeView,
    ) -> Self {
        let locations = Locations::new(view);
        let node_size = view.sizes_by_category(tree.len());
        // An item is in `full(c)` when one of its locations enters `c`'s
        // preorder interval.
        let (_, enter, end) = tree.preorder_intervals();
        let mut protections = Vec::new();
        let mut by_cat: FxHashMap<CatId, Vec<usize>> = FxHashMap::default();
        for (idx, cover) in score.per_set.iter().enumerate() {
            let Some(cat) = cover.best_category.filter(|_| cover.covered) else {
                continue;
            };
            let subtree = enter[cat as usize]..end[cat as usize];
            let inter = instance.sets[idx]
                .items
                .iter()
                .filter(|&item| {
                    locations
                        .of(item)
                        .iter()
                        .any(|&l| subtree.contains(&enter[l as usize]))
                })
                .count();
            by_cat.entry(cat).or_default().push(protections.len());
            protections.push(Protection {
                set: idx as u32,
                cat,
                inter,
            });
        }
        let counter = ChainCounter::new(tree.len());
        Self {
            instance,
            tree,
            node_size,
            locations,
            protections,
            by_cat,
            enter,
            end,
            counter,
        }
    }

    fn threshold(&self, set: u32) -> f64 {
        self.instance.threshold_of(set as usize)
    }

    /// Whether a protection still covers with adjusted counts.
    fn still_covers(&self, p: &Protection, d_len: i64, d_inter: i64) -> bool {
        let q_len = self.instance.sets[p.set as usize].items.len();
        let c_len = (self.node_size[p.cat as usize] as i64 + d_len).max(0) as usize;
        let inter = (p.inter as i64 + d_inter).max(0) as usize;
        self.instance.similarity.covers_with(
            self.threshold(p.set),
            q_len,
            c_len,
            inter.min(c_len).min(q_len),
        )
    }

    /// Whether adding (`sign` = +1) or removing (−1) `item`'s direct
    /// assignment at `node` keeps every protection on `node`'s chain
    /// covered. An added item must be globally unassigned, so it is in no
    /// affected full set yet.
    fn is_safe(&self, item: ItemId, node: CatId, sign: i64) -> bool {
        self.tree.path_to_root(node).all(|a| {
            self.by_cat.get(&a).is_none_or(|ids| {
                ids.iter().all(|&pi| {
                    let p = &self.protections[pi];
                    let in_q = self.instance.sets[p.set as usize].items.contains(item);
                    self.still_covers(p, sign, sign * i64::from(in_q))
                })
            })
        })
    }

    /// The lowest ancestor of `node` (itself included) whose subtree holds
    /// another placement of `item`, if any. From there up, the full sets
    /// keep `item` whether or not it is placed at `node`.
    fn shared_ancestor(&self, item: ItemId, node: CatId) -> Option<CatId> {
        let others = self.locations.of(item).iter().filter(|&&l| l != node);
        others
            .filter_map(|&l| {
                self.tree.path_to_root(node).find(|&a| {
                    (self.enter[a as usize]..self.end[a as usize]).contains(&self.enter[l as usize])
                })
            })
            .max_by_key(|&a| self.enter[a as usize])
    }

    /// Applies the size and protection-intersection changes of moving
    /// `item` in (`sign` = +1) or out (−1) at `node`: along `node`'s chain
    /// strictly below [`Self::shared_ancestor`], as full sets count an item
    /// once however many placements it has in them.
    fn shift_counts(&mut self, item: ItemId, node: CatId, sign: isize) {
        let shift = |count: usize| count.checked_add_signed(sign).expect("count stays ≥ 0");
        let stop = self.shared_ancestor(item, node);
        for a in self
            .tree
            .path_to_root(node)
            .take_while(|&a| Some(a) != stop)
        {
            self.node_size[a as usize] = shift(self.node_size[a as usize]);
            for &pi in self.by_cat.get(&a).map_or(&[][..], Vec::as_slice) {
                let p = &mut self.protections[pi];
                if self.instance.sets[p.set as usize].items.contains(item) {
                    p.inter = shift(p.inter);
                }
            }
        }
    }

    /// Commits an addition.
    fn apply_add(&mut self, item: ItemId, node: CatId) {
        self.shift_counts(item, node, 1);
        self.tree.assign_item(node, item);
        self.locations.push(item, node);
        debug_assert!(
            self.sizes_are_fresh(),
            "sizes after adding {item} at {node}"
        );
    }

    /// Commits a removal; the item returns to the unassigned pool.
    fn apply_remove(&mut self, item: ItemId, node: CatId) {
        self.shift_counts(item, node, -1);
        // Detach from the tree and the location map.
        let mut direct = self.tree.direct_items(node).to_vec();
        let pos = direct.iter().position(|&i| i == item);
        direct.remove(pos.expect("removed item is direct at node"));
        debug_assert!(!direct.contains(&item), "one occurrence per node");
        self.tree.replace_direct_items(node, direct);
        self.locations.remove(item, node);
        debug_assert!(
            self.sizes_are_fresh(),
            "sizes after removing {item} at {node}"
        );
    }

    /// Whether `node_size` equals the deduplicated full-set sizes counted
    /// afresh from the tree.
    fn sizes_are_fresh(&self) -> bool {
        let view = TreeView::new(self.tree, self.instance.num_items);
        self.node_size == view.sizes_by_category(self.tree.len())
    }

    /// The non-root category with the highest `J(q, full(cat))` and its
    /// intersection size; ties go to the lowest `CatId`. `inter(q, cat)`
    /// counts the q-items with a location in `cat`'s subtree (the chain
    /// counter: an item placed in two branches counts once at their common
    /// ancestors). Cost: the q-items' chain lengths, not `|live| × |q|`.
    fn best_candidate(&mut self, q: &ItemSet) -> Option<(CatId, usize)> {
        let placements = q.iter().map(|item| self.locations.of(item));
        let counts = self.counter.count(placements, |c| self.tree.parent(c));
        let mut best: Option<(f64, CatId, usize)> = None;
        for (cat, inter) in counts.into_iter().filter(|&(cat, _)| cat != ROOT) {
            let union = q.len() + self.node_size[cat as usize] - inter;
            let j = inter as f64 / union as f64;
            if best.is_none_or(|(bj, _, _)| j > bj) {
                best = Some((j, cat, inter));
            }
        }
        best.map(|(_, cat, inter)| (cat, inter))
    }

    /// The cover predicate of a set of `q_len` items with threshold
    /// `delta` at a category of `size` items, as a function of `a` adds of
    /// unassigned q-items (intersection and size both grow), `r` removals
    /// of foreign items (size shrinks) and the current intersection.
    fn reaches(
        &self,
        q_len: usize,
        delta: f64,
        size: usize,
    ) -> impl Fn(usize, usize, usize) -> bool + '_ {
        move |a, r, inter| {
            let c_len = size + a - r.min(size + a);
            let inter = (inter + a).min(q_len).min(c_len);
            self.instance
                .similarity
                .covers_with(delta, q_len, c_len, inter)
        }
    }

    /// Whether any plan for `q` at `cat` can reach the threshold: the
    /// predicate with every unassigned q-item added and
    /// `min(foreign direct entries, size − inter)` removals. Up to
    /// `size − inter` removals every move only helps; past it the
    /// intersection is capped at the category's size and the predicate is
    /// no longer monotone, so the bound stops there. Needs no safety check.
    fn can_reach(&self, q: &ItemSet, cat: CatId, inter: usize, delta: f64) -> bool {
        let size = self.node_size[cat as usize];
        let unassigned = q.iter().filter(|&i| self.locations.of(i).is_empty());
        let foreign: usize = self
            .tree
            .subtree(cat)
            .into_iter()
            .map(|node| {
                let direct = self.tree.direct_items(node);
                direct.iter().filter(|&&i| !q.contains(i)).count()
            })
            .sum();
        let removals = foreign.min(size.saturating_sub(inter));
        self.reaches(q.len(), delta, size)(unassigned.count(), removals, inter)
    }

    /// Plans moves for `q` at `cat`: adds of globally-unassigned q-items,
    /// then safe removals of foreign items from the subtree, until the
    /// cover predicate holds or options run out. `None` when it never
    /// holds.
    fn plan(&self, q: &ItemSet, cat: CatId, inter: usize, delta: f64) -> Option<Plan> {
        let adds: Vec<ItemId> = q
            .iter()
            .filter(|&i| self.locations.of(i).is_empty())
            .filter(|&i| self.is_safe(i, cat, 1))
            .collect();
        // Foreign candidates: direct items in the subtree not in q.
        let mut removals: Vec<(ItemId, CatId)> = Vec::new();
        for node in self.tree.subtree(cat) {
            for &i in self.tree.direct_items(node) {
                if !q.contains(i) && self.is_safe(i, node, -1) {
                    removals.push((i, node));
                }
            }
        }
        let reaches = self.reaches(q.len(), delta, self.node_size[cat as usize]);
        let (mut a, mut r) = (0, 0);
        while !reaches(a, r, inter) && a < adds.len() {
            a += 1;
        }
        while !reaches(a, r, inter) && r < removals.len() {
            r += 1;
        }
        reaches(a, r, inter).then_some(Plan {
            adds,
            removals,
            a,
            r,
        })
    }
}

/// Runs the repair pass. Returns statistics; the tree is modified in place
/// and stays valid (no item gains branches, some lose one).
pub fn repair(instance: &Instance, tree: &mut CategoryTree) -> RepairStats {
    repair_with(instance, tree, true)
}

/// The repair pass; `precheck` skips, before any safety check, the sets
/// that [`RepairState::can_reach`] rules out. It changes no outcome.
fn repair_with(instance: &Instance, tree: &mut CategoryTree, precheck: bool) -> RepairStats {
    let mut stats = RepairStats::default();
    let (score, view) = score_tree_viewed(instance, tree, &ScoreOptions::default());
    let mut state = RepairState::new(instance, tree, &score, &view);
    drop(view);

    // Uncovered sets, heaviest first.
    let mut uncovered: Vec<u32> = score
        .per_set
        .iter()
        .enumerate()
        .filter(|(_, c)| !c.covered)
        .map(|(i, _)| i as u32)
        .collect();
    uncovered.sort_by(|&a, &b| {
        instance.sets[b as usize]
            .weight
            .total_cmp(&instance.sets[a as usize].weight)
    });

    for s in uncovered {
        let q = &instance.sets[s as usize].items;
        if q.is_empty() {
            continue;
        }
        let delta = instance.threshold_of(s as usize);
        let Some((cat, mut inter)) = state.best_candidate(q) else {
            continue;
        };
        if precheck && !state.can_reach(q, cat, inter, delta) {
            continue;
        }
        let Some(plan) = state.plan(q, cat, inter, delta) else {
            continue; // cannot close the gap safely
        };
        // Commit move by move. Safety is rechecked per move because earlier
        // commits may consume slack; a move that became unsafe is skipped
        // and the set's other moves still go in, so a set can end up
        // partially repaired and still uncovered.
        let mut committed_adds = 0;
        let mut committed_removes = 0;
        for &item in plan.adds.iter().take(plan.a) {
            if state.is_safe(item, cat, 1) {
                state.apply_add(item, cat);
                committed_adds += 1;
                inter += 1;
            }
        }
        for &(item, node) in plan.removals.iter().take(plan.r) {
            if state.is_safe(item, node, -1) {
                state.apply_remove(item, node);
                committed_removes += 1;
            }
        }
        stats.items_added += committed_adds;
        stats.items_removed += committed_removes;
        // Verify the cover landed; protect it so later repairs keep it.
        if instance.similarity.covers_with(
            delta,
            q.len(),
            state.node_size[cat as usize],
            inter.min(q.len()),
        ) {
            stats.newly_covered += 1;
            state
                .by_cat
                .entry(cat)
                .or_default()
                .push(state.protections.len());
            state.protections.push(Protection { set: s, cat, inter });
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assign::{assign_items_indexed, tests::random_case};
    use crate::ctcr::add_intermediate_categories;
    use crate::input::InputSet;
    use crate::itemset::ItemSet;
    use crate::score::score_tree;
    use crate::similarity::{Similarity, SimilarityKind};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Every committed move leaves each category's size and each
        /// protection's intersection equal to a fresh deduplicated count of
        /// the tree, also when the moved item keeps another placement in
        /// the subtree (random_case raises item bounds up to 3). Random
        /// removals and adds, not the planner's, so that both happen next
        /// to other placements of the same item.
        #[test]
        fn moves_keep_deduplicated_counts(seed in any::<u64>()) {
            let (instance, mut tree, targets, greedy) = random_case(seed);
            assign_items_indexed(&instance, &instance.inverted_index(), &mut tree, &targets, greedy);
            if seed % 2 == 1 {
                add_intermediate_categories(&instance, &mut tree, &targets);
            }
            let (score, view) = score_tree_viewed(&instance, &tree, &ScoreOptions::default());
            let categories: Vec<CatId> = tree.subtree(ROOT).into_iter().filter(|&c| c != ROOT).collect();
            let mut state = RepairState::new(&instance, &mut tree, &score, &view);
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..40 {
                let item = rng.gen_range(0..instance.num_items);
                let placed = state.locations.of(item).to_vec();
                let slots = state.locations.start[item as usize + 1] - state.locations.start[item as usize];
                if !placed.is_empty() && rng.gen_bool(0.5) {
                    state.apply_remove(item, placed[rng.gen_range(0..placed.len())]);
                } else if let Some(&node) = categories.get(rng.gen_range(0..categories.len().max(1))) {
                    if placed.len() >= slots as usize || placed.contains(&node) {
                        continue;
                    }
                    state.apply_add(item, node);
                } else {
                    continue;
                }
                let fresh = TreeView::new(state.tree, instance.num_items);
                prop_assert_eq!(
                    &state.node_size,
                    &fresh.sizes_by_category(state.tree.len()),
                    "sizes (seed {})",
                    seed
                );
                let full = state.tree.materialize();
                for p in &state.protections {
                    let want = instance.sets[p.set as usize].items.intersection_size(&full[p.cat as usize]);
                    prop_assert_eq!(p.inter, want, "protection of set {} (seed {})", p.set, seed);
                }
            }
        }

        /// The counted set-up equals the one read off materialized full
        /// sets: every category's size and every protection's intersection
        /// with its best category, on assigned random trees with and
        /// without intermediate categories.
        #[test]
        fn counted_setup_matches_materialized_sets(seed in any::<u64>()) {
            let (instance, mut tree, targets, greedy) = random_case(seed);
            assign_items_indexed(&instance, &instance.inverted_index(), &mut tree, &targets, greedy);
            if seed % 2 == 1 {
                add_intermediate_categories(&instance, &mut tree, &targets);
            }
            let score = score_tree(&instance, &tree);
            let full = tree.materialize();
            let want: Vec<(u32, CatId, usize)> = score
                .per_set
                .iter()
                .enumerate()
                .filter(|(_, cover)| cover.covered)
                .filter_map(|(s, cover)| {
                    let cat = cover.best_category?;
                    let inter = instance.sets[s].items.intersection_size(&full[cat as usize]);
                    Some((s as u32, cat, inter))
                })
                .collect();
            let view = TreeView::new(&tree, instance.num_items);
            let mut probe = tree.clone();
            let state = RepairState::new(&instance, &mut probe, &score, &view);
            prop_assert_eq!(
                &state.node_size,
                &full.iter().map(ItemSet::len).collect::<Vec<_>>(),
                "sizes (seed {})",
                seed
            );
            let got: Vec<(u32, CatId, usize)> = state
                .protections
                .iter()
                .map(|p| (p.set, p.cat, p.inter))
                .collect();
            prop_assert_eq!(got, want, "protections (seed {})", seed);
        }

        /// Skipping the sets that no plan can bring to their threshold
        /// changes nothing: the same trees and statistics as the planner
        /// that runs every safety check first, under every variant, on
        /// assigned random trees with and without intermediate categories.
        #[test]
        fn precheck_changes_no_outcome(seed in any::<u64>()) {
            let (base, skeleton, targets, _) = random_case(seed);
            for kind in [
                SimilarityKind::JaccardCutoff,
                SimilarityKind::JaccardThreshold,
                SimilarityKind::F1Cutoff,
                SimilarityKind::F1Threshold,
                SimilarityKind::PerfectRecall,
                SimilarityKind::Exact,
            ] {
                let instance = Instance {
                    similarity: Similarity { kind, ..base.similarity },
                    ..base.clone()
                };
                let index = instance.inverted_index();
                let mut tree = skeleton.clone();
                let greedy = !kind.requires_perfect_recall();
                assign_items_indexed(&instance, &index, &mut tree, &targets, greedy);
                if seed % 2 == 1 {
                    add_intermediate_categories(&instance, &mut tree, &targets);
                }
                let mut exhaustive = tree.clone();
                let stats = repair_with(&instance, &mut tree, true);
                let want = repair_with(&instance, &mut exhaustive, false);
                prop_assert_eq!(&stats, &want, "{:?} (seed {})", kind, seed);
                prop_assert_eq!(format!("{tree:?}"), format!("{exhaustive:?}"));
            }
        }
    }

    #[test]
    fn tops_up_with_unassigned_items() {
        // q = {0..4}; category holds {0,1,2}; items 3,4 unassigned.
        // δ = 0.8 needs 4/5: adding both unassigned items gives 5/5.
        let sets = vec![InputSet::new(ItemSet::new(vec![0, 1, 2, 3, 4]), 1.0)];
        let instance = Instance::new(5, sets, Similarity::jaccard_threshold(0.8));
        let mut tree = CategoryTree::new();
        let c = tree.add_category(ROOT);
        tree.assign_items(c, [0, 1, 2]);
        let stats = repair(&instance, &mut tree);
        assert_eq!(stats.newly_covered, 1);
        assert!(stats.items_added >= 1);
        let score = score_tree(&instance, &tree);
        assert!(score.per_set[0].covered);
        assert!(tree.validate(&instance).is_ok());
    }

    #[test]
    fn trims_foreign_items_with_slack() {
        // q = {0,1,2}; category holds {0,1,2,9,8} (J = 3/5 < 0.7). Items
        // 8, 9 belong to no covered set: trimming them covers q.
        let sets = vec![InputSet::new(ItemSet::new(vec![0, 1, 2]), 1.0)];
        let instance = Instance::new(10, sets, Similarity::jaccard_threshold(0.7));
        let mut tree = CategoryTree::new();
        let c = tree.add_category(ROOT);
        tree.assign_items(c, [0, 1, 2, 8, 9]);
        let stats = repair(&instance, &mut tree);
        assert_eq!(stats.newly_covered, 1);
        assert!(stats.items_removed >= 1);
        let score = score_tree(&instance, &tree);
        assert!(score.per_set[0].covered);
    }

    #[test]
    fn never_uncovers_protected_sets() {
        // Two sets share a category's items: q1 = {0,1,2} covered exactly;
        // q2 = {1,2,3} uncovered. Trimming item 0 would help q2 but break
        // q1's exact cover at δ = 1 — must be refused.
        let sets = vec![
            InputSet::new(ItemSet::new(vec![0, 1, 2]), 5.0),
            InputSet::new(ItemSet::new(vec![1, 2, 3]), 1.0),
        ];
        let instance = Instance::new(4, sets, Similarity::jaccard_threshold(1.0));
        let mut tree = CategoryTree::new();
        let c = tree.add_category(ROOT);
        tree.assign_items(c, [0, 1, 2]);
        let before = score_tree(&instance, &tree);
        assert!(before.per_set[0].covered);
        let _ = repair(&instance, &mut tree);
        let after = score_tree(&instance, &tree);
        assert!(after.per_set[0].covered, "protected cover must survive");
    }

    #[test]
    fn noop_when_everything_covered() {
        let sets = vec![InputSet::new(ItemSet::new(vec![0, 1]), 1.0)];
        let instance = Instance::new(2, sets, Similarity::jaccard_threshold(0.9));
        let mut tree = CategoryTree::new();
        let c = tree.add_category(ROOT);
        tree.assign_items(c, [0, 1]);
        let stats = repair(&instance, &mut tree);
        assert_eq!(stats, RepairStats::default());
    }

    #[test]
    fn equal_similarity_goes_to_lowest_category_id() {
        // q = {0..4}: c1 = {0,1} and c2 = {2,3} both give J = 2/5. The tie
        // goes to c1 (the lower id): unassigned item 4 tops it up to 3/5.
        let sets = vec![InputSet::new(ItemSet::new(vec![0, 1, 2, 3, 4]), 1.0)];
        let instance = Instance::new(20, sets, Similarity::jaccard_threshold(0.6));
        let mut tree = CategoryTree::new();
        let c1 = tree.add_category(ROOT);
        let c2 = tree.add_category(ROOT);
        let junk = tree.add_category(ROOT);
        tree.assign_items(c1, [0, 1]);
        tree.assign_items(c2, [2, 3]);
        tree.assign_items(junk, 10..20u32);
        let stats = repair(&instance, &mut tree);
        assert_eq!(stats.newly_covered, 1);
        assert_eq!(tree.direct_items(c1), &[0, 1, 4]);
        assert_eq!(tree.direct_items(c2), &[2, 3]);
    }

    #[test]
    fn item_in_sibling_branches_counts_once_at_common_ancestor() {
        // Item 0 (bound 2) sits in both children of p, so p's full set is
        // {0, 5} and inter(q, p) = 1, not 2: J(q, p) = 1/3 < J(q, a) = 1/2.
        // Counting it twice would make p (J = 1) the candidate.
        let sets = vec![InputSet::new(ItemSet::new(vec![0, 1]), 1.0)];
        let instance = Instance::new(6, sets, Similarity::jaccard_threshold(0.9))
            .with_item_bounds(vec![2, 1, 1, 1, 1, 1]);
        let mut tree = CategoryTree::new();
        let p = tree.add_category(ROOT);
        let a = tree.add_category(p);
        let b = tree.add_category(p);
        tree.assign_items(a, [0]);
        tree.assign_items(b, [0, 5]);
        let stats = repair(&instance, &mut tree);
        assert_eq!(
            stats,
            RepairStats {
                newly_covered: 1,
                items_added: 1,
                items_removed: 0,
            }
        );
        assert_eq!(tree.direct_items(a), &[0, 1]);
        assert_eq!(tree.direct_items(b), &[0, 5]);
        assert!(tree.direct_items(p).is_empty());
        assert!(tree.validate(&instance).is_ok());
    }

    #[test]
    fn refused_move_keeps_earlier_moves_of_the_set() {
        // P = {20..23} is covered at x = {0,1,20,21,22,23} (J = 4/6) with
        // slack for losing one of its items, not two. q = {0..3} is best
        // at c = {0,1,20,21} (J = 1/3) and the plan trims 20 and 21 to
        // reach 2/4. Trimming 20 commits; trimming 21 is then refused, so
        // q stays uncovered at 2/5 with the first trim still in place.
        let sets = vec![
            InputSet::new(ItemSet::new(vec![20, 21, 22, 23]), 10.0),
            InputSet::new(ItemSet::new(vec![0, 1, 2, 3]), 1.0),
        ];
        let instance = Instance::new(40, sets, Similarity::jaccard_threshold(0.5));
        let mut tree = CategoryTree::new();
        let x = tree.add_category(ROOT);
        let c = tree.add_category(x);
        let y = tree.add_category(ROOT);
        tree.assign_items(x, [22, 23]);
        tree.assign_items(c, [0, 1, 20, 21]);
        tree.assign_items(y, [2, 3].into_iter().chain(30..38u32));
        let before = score_tree(&instance, &tree);
        assert_eq!(before.per_set[0].best_category, Some(x));
        assert!(before.per_set[0].covered && !before.per_set[1].covered);
        let stats = repair(&instance, &mut tree);
        assert_eq!(
            stats,
            RepairStats {
                newly_covered: 0,
                items_added: 0,
                items_removed: 1,
            }
        );
        assert_eq!(tree.direct_items(c), &[0, 1, 21]);
        let after = score_tree(&instance, &tree);
        assert!(after.per_set[0].covered, "protected cover must survive");
        assert!(!after.per_set[1].covered, "partial repair stays uncovered");
        assert!(tree.validate(&instance).is_ok());
    }

    #[test]
    fn skips_unreachable_gaps() {
        // q of 10 items; only 2 exist anywhere; δ = 0.9 unreachable.
        let sets = vec![InputSet::new(ItemSet::new((0..10).collect()), 1.0)];
        let instance = Instance::new(20, sets, Similarity::jaccard_threshold(0.9));
        let mut tree = CategoryTree::new();
        let c = tree.add_category(ROOT);
        tree.assign_items(c, [0, 11, 12, 13, 14, 15, 16, 17, 18, 19]);
        // Adds available: items 1..10 are unassigned, so it CAN top up.
        // Tighten: make them assigned elsewhere on another branch.
        let other = tree.add_category(ROOT);
        tree.assign_items(other, 1..10u32);
        let stats = repair(&instance, &mut tree);
        // Foreign trimming alone: removing 11..19 gives C = {0}: J = 1/10.
        assert_eq!(stats.newly_covered, 0);
        assert!(tree.validate(&instance).is_ok());
    }
}
