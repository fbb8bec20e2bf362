//! Point queries: score a *single* item set against a prebuilt tree.
//!
//! Batch scoring ([`crate::score`]) scores a whole instance against a tree
//! — the right shape for evaluation runs, and the wrong one for a serving
//! daemon that answers one query at a time against a long-lived tree. A
//! [`PointIndex`] is the scoring kernel's dense tree view (post-order
//! ranks, parents, depths, an item → location CSR and deduplicated
//! `|full(C)|`), built once per tree. A lookup is the kernel's one-set
//! pass over the query's known items: it reaches the categories whose
//! subtree holds a query item, in post order, and scores each with its
//! complete `|q ∩ full(C)|`. The cost is the query's placements plus the
//! categories it reaches; no category's item set is materialized.
//!
//! Every lookup scores with [`Cover::new`] and folds with [`Cover::beats`]
//! in the order batch scoring uses, so a point query over a set returns
//! the very cover [`crate::score::score_tree`] reports for it: the two are
//! one pass, and tests pin the bits. Top-k rankings sort with
//! [`Cover::exact_cmp`]. Only categories that share an item with the query
//! are scored.
//!
//! Point lookups are [`Budget`]-aware for serving: the budget is checked
//! before the first candidate and every [`DEADLINE_STRIDE`] candidates
//! after; on expiry the rest of the pass is left unscored and the partial
//! best is returned flagged [`degraded`](PointCover::degraded) —
//! pessimistic, never wrong, matching the batch path's degraded-scoring
//! contract.

use oct_resilience::Budget;

use crate::score::{Cover, Hits, SetCover, TreeView};
use crate::similarity::Similarity;
use crate::tree::{CatId, CategoryTree};
use crate::vector::{VectorIndex, DEFAULT_EF_SEARCH};

/// How often (in candidate categories) a point query reads the wall clock.
const DEADLINE_STRIDE: u64 = 64;

/// Candidate pool floor for top-k navigation: reranking a few extra
/// candidates is cheap and buys recall headroom when k is small.
pub const TOPK_POOL_FLOOR: usize = 32;

/// Immutable per-tree index answering single-set cover queries: the
/// scoring kernel's view of the tree.
///
/// Build once per tree snapshot ([`PointIndex::build`]), then share freely:
/// lookups take `&self`, so a serving daemon can hand one `Arc`'d index to
/// every worker and swap in a fresh one atomically when the tree rebuilds.
#[derive(Debug, Clone)]
pub struct PointIndex {
    /// The live categories in post order, over a universe that holds
    /// every assigned item.
    view: TreeView,
}

/// One ranked cover from a top-k query: a category with its exact
/// (reranked) scores.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankedCover {
    /// The category.
    pub cat: CatId,
    /// Its exact similarity under the queried variant.
    pub similarity: f64,
    /// Its precision (`|C ∩ q| / |C|`).
    pub precision: f64,
}

/// Best cover of one queried item set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PointCover {
    /// The winning category (`None` when nothing scores above zero).
    pub best_category: Option<CatId>,
    /// Its similarity under the queried variant.
    pub similarity: f64,
    /// Its precision (`|C ∩ q| / |C|`; 1 when undefined).
    pub precision: f64,
    /// `true` when the best similarity passes the variant's threshold
    /// (same predicate as batch scoring's per-set `covered`).
    pub covered: bool,
    /// Candidate categories actually evaluated.
    pub evaluated: usize,
    /// `true` when the budget expired mid-scan and candidates were skipped
    /// — the reported cover is then a valid pessimistic lower bound.
    pub degraded: bool,
}

/// A top-k navigation answer (see [`PointIndex::navigate`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Navigation {
    /// The ANN beam width the candidates were searched with.
    pub ef: usize,
    /// The ranked covers, best first.
    pub covers: Vec<RankedCover>,
    /// `true` when the budget expired during the rerank.
    pub degraded: bool,
}

impl PointIndex {
    /// Indexes `tree` for point lookups over a universe of `num_items`,
    /// extended to hold every item assigned in the tree.
    pub fn build(tree: &CategoryTree, num_items: u32) -> Self {
        let live = tree.category_ids().filter(|&c| !tree.is_removed(c));
        let max_assigned = live.flat_map(|c| tree.direct_items(c).iter().max()).max();
        let universe = num_items.max(max_assigned.map_or(0, |&m| m + 1));
        Self {
            view: TreeView::new(tree, universe),
        }
    }

    /// Number of live categories indexed.
    pub fn len(&self) -> usize {
        self.view.len()
    }

    /// `true` when the indexed tree has no live categories.
    pub fn is_empty(&self) -> bool {
        self.view.len() == 0
    }

    /// Number of item slots in the inverted index.
    pub fn num_items(&self) -> u32 {
        self.view.num_items() as u32
    }

    /// Best cover of `items` (treated as a set; duplicates are ignored)
    /// under `similarity`, stopping early — pessimistically — once
    /// `budget` expires.
    ///
    /// Items outside the indexed universe stay in the query *size*: they
    /// can never intersect any category, so — exactly as batch
    /// [`score_tree`](crate::score::score_tree) semantics over a set
    /// containing them — they penalize the similarity denominator rather
    /// than silently inflating the reported cover.
    pub fn best_cover(
        &self,
        items: &[u32],
        similarity: &Similarity,
        budget: &Budget,
    ) -> PointCover {
        self.best_of(items, None, similarity, budget)
    }

    /// Best cover of `items` evaluated over `candidates` only — the exact
    /// rerank half of narrow-then-rerank candidate generation (candidates
    /// typically come from [`crate::vector::VectorIndex::candidates_for`]).
    ///
    /// Query-size semantics, tie-break, and the budget contract are
    /// byte-identical to [`best_cover`](Self::best_cover); the only
    /// difference is the candidate universe. Whenever `candidates` contains
    /// every category intersecting the query (ANN recall 1 — guaranteed
    /// with a beam covering the whole index), the result equals the
    /// exhaustive scan's. Unknown, removed, or duplicate candidate ids are
    /// skipped; evaluation order is the exhaustive scan's post order
    /// regardless of input order.
    pub fn best_cover_among(
        &self,
        items: &[u32],
        candidates: &[CatId],
        similarity: &Similarity,
        budget: &Budget,
    ) -> PointCover {
        self.best_of(items, Some(&sorted(candidates)), similarity, budget)
    }

    /// The top `k` covers of `items` among `candidates`, best first, with
    /// exact (reranked) scores — the serving half of `NAVIGATE <k>`.
    ///
    /// Ranking is [`Cover::exact_cmp`] — no epsilon banding, so the order
    /// is a pure function of the inputs and byte-identical across runs and
    /// replicas. Only positive-similarity categories are returned, so fewer
    /// than `k` entries means nothing else intersected. Unknown, removed or
    /// duplicate candidate ids are skipped. On budget expiry the scan stops
    /// and the partial ranking over the evaluated candidates is returned
    /// with `degraded = true` — pessimistic, never wrong.
    pub fn top_covers_among(
        &self,
        items: &[u32],
        candidates: &[CatId],
        k: usize,
        similarity: &Similarity,
        budget: &Budget,
    ) -> (Vec<RankedCover>, bool) {
        let mut scored: Vec<Cover> = Vec::new();
        let among = sorted(candidates);
        let (_, degraded) = self.scan(items, Some(&among), similarity, budget, |cover| {
            if cover.similarity > 0.0 {
                scored.push(cover);
            }
        });
        scored.sort_unstable_by(Cover::exact_cmp);
        let ranked = scored.iter().take(k).map(|c| RankedCover {
            cat: c.cat,
            similarity: c.similarity,
            precision: c.precision,
        });
        (ranked.collect(), degraded)
    }

    /// The top-k `NAVIGATE` policy, shared by the serving daemon and the
    /// offline CLI: `ann` narrows to a pool of `max(k, TOPK_POOL_FLOOR)`
    /// candidates with beam `ef = max(ef or DEFAULT_EF_SEARCH, pool)`, and
    /// [`top_covers_among`](Self::top_covers_among) reranks them exactly.
    pub fn navigate(
        &self,
        ann: &VectorIndex,
        items: &[u32],
        k: usize,
        ef: Option<usize>,
        similarity: &Similarity,
        budget: &Budget,
    ) -> Navigation {
        let pool = k.max(TOPK_POOL_FLOOR);
        let ef = ef.unwrap_or(DEFAULT_EF_SEARCH).max(pool);
        let candidates = ann.candidates_for(items, pool, ef);
        let (covers, degraded) = self.top_covers_among(items, &candidates, k, similarity, budget);
        Navigation {
            ef,
            covers,
            degraded,
        }
    }

    /// The best cover of `items` among `among` (every category when
    /// `None`), folded with [`Cover::beats`].
    fn best_of(
        &self,
        items: &[u32],
        among: Option<&[CatId]>,
        similarity: &Similarity,
        budget: &Budget,
    ) -> PointCover {
        let mut best: Option<Cover> = None;
        let (evaluated, degraded) = self.scan(items, among, similarity, budget, |cover| {
            if cover.beats(best.as_ref()) {
                best = Some(cover);
            }
        });
        let cover = SetCover::from(best);
        PointCover {
            best_category: cover.best_category,
            similarity: cover.similarity,
            precision: cover.precision,
            covered: cover.covered,
            evaluated,
            degraded,
        }
    }

    /// The kernel's one-set pass: scores every category that shares an
    /// item with `items` and is in `among` (sorted; every category when
    /// `None`), in post order, and hands it to `visit`. Returns the number
    /// of covers scored and whether the budget cut the pass short.
    ///
    /// The query is deduplicated and keeps its unknown items in its size
    /// (see [`best_cover`](Self::best_cover)); only the known ones are
    /// walked. A candidate list is checked against the budget before its
    /// first entry, so an expired budget degrades it even when no
    /// candidate intersects the query.
    fn scan(
        &self,
        items: &[u32],
        among: Option<&[CatId]>,
        similarity: &Similarity,
        budget: &Budget,
        mut visit: impl FnMut(Cover),
    ) -> (usize, bool) {
        let query = sorted(items);
        let known = query.partition_point(|&i| (i as usize) < self.view.num_items());
        let limited = budget.is_limited();
        let mut checks = 0u64;
        let mut expired = || {
            checks += 1;
            limited && budget.check_every(checks - 1, DEADLINE_STRIDE)
        };
        if among.is_some_and(|c| !c.is_empty()) && expired() {
            return (0, true);
        }
        let (mut evaluated, mut degraded) = (0, false);
        let wanted =
            |rank| among.is_none_or(|c| c.binary_search(&self.view.category(rank)).is_ok());
        Hits::new(&self.view).for_each(&self.view, &query[..known], |rank, inter| {
            if degraded || !wanted(rank as u32) {
                return;
            }
            if expired() {
                degraded = true;
                return;
            }
            visit(
                self.view
                    .cover(rank, similarity, similarity.delta, query.len(), inter),
            );
            evaluated += 1;
        });
        (evaluated, degraded)
    }
}

/// `ids` sorted and deduplicated.
fn sorted(ids: &[u32]) -> Vec<u32> {
    let mut ids = ids.to_vec();
    ids.sort_unstable();
    ids.dedup();
    ids
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::{figure2_instance, InputSet, Instance};
    use crate::itemset::ItemSet;
    use crate::score::score_tree;
    use crate::tree::ROOT;

    /// The paper's Figure 2 tree `T1`.
    fn figure2_t1() -> CategoryTree {
        let mut t = CategoryTree::new();
        let c1 = t.add_category(ROOT);
        let c2 = t.add_category(ROOT);
        let c3 = t.add_category(c1);
        let c4 = t.add_category(c1);
        t.assign_items(c3, [0, 1]);
        t.assign_items(c4, [2, 3, 4, 5]);
        t.assign_items(c2, [6, 7, 8]);
        t
    }

    #[test]
    fn point_cover_matches_batch_scoring() {
        for similarity in [
            Similarity::perfect_recall(0.8),
            Similarity::jaccard_cutoff(0.6),
            Similarity::jaccard_threshold(0.6),
            Similarity::f1_cutoff(0.5),
        ] {
            let inst = figure2_instance(similarity);
            let tree = figure2_t1();
            let batch = score_tree(&inst, &tree);
            let index = PointIndex::build(&tree, inst.num_items);
            for (s, set) in inst.sets.iter().enumerate() {
                let point =
                    index.best_cover(set.items.as_slice(), &similarity, &Budget::unlimited());
                let expect = &batch.per_set[s];
                assert_eq!(
                    point.best_category, expect.best_category,
                    "{similarity:?} set {s}"
                );
                assert!((point.similarity - expect.similarity).abs() < 1e-12);
                assert!((point.precision - expect.precision).abs() < 1e-12);
                assert_eq!(point.covered, expect.covered);
                assert!(!point.degraded);
            }
        }
    }

    #[test]
    fn duplicates_are_ignored_but_unknown_items_count() {
        let tree = figure2_t1();
        let index = PointIndex::build(&tree, 9);
        let similarity = Similarity::jaccard_cutoff(0.1);
        let clean = index.best_cover(&[0, 1], &similarity, &Budget::unlimited());
        let duplicated = index.best_cover(&[1, 0, 0, 1], &similarity, &Budget::unlimited());
        assert_eq!(clean, duplicated, "duplicates are set-collapsed");
        assert!(clean.covered);
        // An out-of-universe id enlarges the query set: it can never
        // intersect, so the Jaccard denominator grows and similarity drops
        // — exactly what batch scoring reports for such a set.
        let noisy = index.best_cover(&[1, 0, 999_999], &similarity, &Budget::unlimited());
        assert_eq!(noisy.best_category, clean.best_category);
        assert!(
            noisy.similarity < clean.similarity,
            "unknown item must penalize: {noisy:?} vs {clean:?}"
        );
        assert!((noisy.similarity - 2.0 / 3.0).abs() < 1e-12, "J = 2/3");
        // The largest id and the first id past the universe are unknown
        // like any other, however the query orders them.
        for unknown in [u32::MAX, 9] {
            let cover = index.best_cover(&[unknown, 1, 0], &similarity, &Budget::unlimited());
            assert_eq!(cover, noisy, "unknown id {unknown}");
        }
        let both = index.best_cover(
            &[u32::MAX, 0, 9, 1, u32::MAX],
            &similarity,
            &Budget::unlimited(),
        );
        assert!(
            (both.similarity - 2.0 / 4.0).abs() < 1e-12,
            "J = 2/4: {both:?}"
        );
    }

    #[test]
    fn unknown_items_match_batch_scorer_semantics() {
        // The same sets scored by the batch path, where "unknown" ids are
        // ordinary universe items that simply belong to no category. The
        // point queries also send each set with its id 999 replaced by
        // `u32::MAX`, which no batch universe can hold.
        let tree = figure2_t1();
        let index = PointIndex::build(&tree, 9);
        // Built with no universe, as `octree navigate` does: the index
        // grows to the assigned items and must answer like the full one.
        let bare = PointIndex::build(&tree, 0);
        assert_eq!(bare.num_items(), 9);
        let all = tree.live_categories();
        for similarity in [
            Similarity::jaccard_cutoff(0.3),
            Similarity::jaccard_threshold(0.5),
            Similarity::f1_cutoff(0.3),
            Similarity::perfect_recall(0.5),
        ] {
            let sets = vec![
                InputSet::new(ItemSet::new(vec![0, 1, 999]), 1.0),
                InputSet::new(ItemSet::new(vec![2, 3, 4, 5, 77, 78]), 1.0),
                InputSet::new(ItemSet::new(vec![6, 7, 8]), 1.0),
                InputSet::new(ItemSet::new(vec![900, 901]), 1.0),
                InputSet::new(ItemSet::new(vec![5, 6, 9, 999]), 1.0),
            ];
            let instance = Instance::new(1000, sets, similarity);
            let batch = score_tree(&instance, &tree);
            for (s, set) in instance.sets.iter().enumerate() {
                let items = set.items.as_slice();
                let widened: Vec<u32> = (items.iter())
                    .map(|&i| if i == 999 { u32::MAX } else { i })
                    .collect();
                let expect = &batch.per_set[s];
                for query in [items, &widened] {
                    let point = index.best_cover(query, &similarity, &Budget::unlimited());
                    assert_eq!(
                        point.best_category, expect.best_category,
                        "{similarity:?} set {s}"
                    );
                    assert_eq!(
                        point.similarity.to_bits(),
                        expect.similarity.to_bits(),
                        "{similarity:?} set {s}: {point:?} vs {expect:?}"
                    );
                    assert_eq!(point.precision.to_bits(), expect.precision.to_bits());
                    assert_eq!(point.covered, expect.covered);
                    let unlimited = Budget::unlimited();
                    assert_eq!(bare.best_cover(query, &similarity, &unlimited), point);
                    assert_eq!(
                        bare.best_cover_among(query, &all, &similarity, &unlimited),
                        index.best_cover_among(query, &all, &similarity, &unlimited)
                    );
                    assert_eq!(
                        bare.top_covers_among(query, &all, 10, &similarity, &unlimited),
                        index.top_covers_among(query, &all, 10, &similarity, &unlimited)
                    );
                }
            }
        }
    }

    #[test]
    fn rerank_over_all_live_categories_equals_exhaustive_scan() {
        // Figure 2 plus one live empty category and one removed slot,
        // reranked over every slot: an empty query must not score the empty
        // category's `0/0` as a cover, nor surface the removed slot.
        let mut sparse = figure2_t1();
        sparse.add_category(ROOT);
        let removed = sparse.add_category(ROOT);
        sparse.remove_category(removed);
        let all_slots: Vec<CatId> = (0..sparse.len() as CatId).collect();
        let inputs = [
            (figure2_t1(), figure2_t1().live_categories()),
            (sparse, all_slots),
        ];
        for (tree, all) in inputs {
            let index = PointIndex::build(&tree, 9);
            for similarity in [
                Similarity::jaccard_cutoff(0.3),
                Similarity::jaccard_threshold(0.6),
                Similarity::f1_cutoff(0.5),
                Similarity::perfect_recall(0.8),
            ] {
                for query in [
                    vec![0, 1],
                    vec![2, 3, 4],
                    vec![0, 1, 2, 3, 4, 5, 6, 7, 8],
                    vec![5, 6, 700],
                    vec![],
                ] {
                    let exhaustive = index.best_cover(&query, &similarity, &Budget::unlimited());
                    let reranked =
                        index.best_cover_among(&query, &all, &similarity, &Budget::unlimited());
                    assert_eq!(exhaustive.best_category, reranked.best_category);
                    assert!((exhaustive.similarity - reranked.similarity).abs() < 1e-12);
                    assert!((exhaustive.precision - reranked.precision).abs() < 1e-12);
                    assert_eq!(exhaustive.covered, reranked.covered);
                }
                let (top, _) =
                    index.top_covers_among(&[], &all, 3, &similarity, &Budget::unlimited());
                assert!(top.is_empty(), "{similarity:?}: {top:?}");
            }
        }
    }

    #[test]
    fn top_covers_rank_deterministically_and_lead_with_the_best() {
        let tree = figure2_t1();
        let index = PointIndex::build(&tree, 9);
        let all = tree.live_categories();
        let similarity = Similarity::jaccard_cutoff(0.1);
        let (top, degraded) =
            index.top_covers_among(&[0, 1, 2], &all, 3, &similarity, &Budget::unlimited());
        assert!(!degraded);
        assert!(!top.is_empty() && top.len() <= 3);
        // Best-first: monotone similarity, and duplicates of the ranking
        // are impossible (categories are unique).
        for pair in top.windows(2) {
            assert!(pair[0].similarity >= pair[1].similarity);
            assert_ne!(pair[0].cat, pair[1].cat);
        }
        // Candidate order must not matter.
        let mut shuffled = all.clone();
        shuffled.reverse();
        let (again, _) =
            index.top_covers_among(&[0, 1, 2], &shuffled, 3, &similarity, &Budget::unlimited());
        assert_eq!(top, again);
    }

    #[test]
    fn top_covers_respect_expired_budget() {
        let tree = figure2_t1();
        let index = PointIndex::build(&tree, 9);
        let all = tree.live_categories();
        let (top, degraded) = index.top_covers_among(
            &[0, 1, 2],
            &all,
            3,
            &Similarity::jaccard_cutoff(0.1),
            &Budget::expired_now(),
        );
        assert!(degraded);
        assert!(top.is_empty(), "first strided check already expired");
    }

    #[test]
    fn expired_budget_degrades_candidates_that_miss_the_query() {
        // The budget is read before the first candidate, not only at the
        // categories the query reaches: no candidate here intersects it.
        let index = PointIndex::build(&figure2_t1(), 9);
        let similarity = Similarity::jaccard_cutoff(0.1);
        let (query, missing) = ([6, 7], [1, 3, 4]);
        let cover = index.best_cover_among(&query, &missing, &similarity, &Budget::expired_now());
        assert!(cover.degraded);
        assert_eq!(cover.evaluated, 0);
        assert_eq!(cover.best_category, None);
        let (top, degraded) =
            index.top_covers_among(&query, &missing, 3, &similarity, &Budget::expired_now());
        assert!(degraded);
        assert!(top.is_empty());
        // Unlimited, the same lookups evaluate nothing and are exact.
        let unlimited = index.best_cover_among(&query, &missing, &similarity, &Budget::unlimited());
        assert!(!unlimited.degraded);
        assert_eq!(unlimited.evaluated, 0);
    }

    #[test]
    fn empty_query_and_empty_tree_cover_nothing() {
        let similarity = Similarity::jaccard_cutoff(0.5);
        let index = PointIndex::build(&figure2_t1(), 9);
        let cover = index.best_cover(&[], &similarity, &Budget::unlimited());
        assert_eq!(cover.best_category, None);
        assert!(!cover.covered);
        let empty = PointIndex::build(&CategoryTree::new(), 9);
        // The bare root still materializes (empty), so only a zero-score
        // cover is possible.
        let cover = empty.best_cover(&[0, 1], &similarity, &Budget::unlimited());
        assert_eq!(cover.best_category, None);
        assert!(!empty.is_empty(), "root is live");
    }

    #[test]
    fn expired_budget_degrades_pessimistically() {
        let index = PointIndex::build(&figure2_t1(), 9);
        let similarity = Similarity::jaccard_cutoff(0.6);
        let cover = index.best_cover(&[0, 1, 2], &similarity, &Budget::expired_now());
        assert!(cover.degraded);
        assert_eq!(cover.evaluated, 0, "first strided check already expired");
        assert_eq!(cover.best_category, None);
        let full = index.best_cover(&[0, 1, 2], &similarity, &Budget::unlimited());
        assert!(
            full.similarity >= cover.similarity,
            "degraded is a lower bound"
        );
    }

    #[test]
    fn item_in_sibling_branches_counts_once_at_common_ancestor() {
        // Item 0 is direct in siblings a and b and in their parent p, so
        // `|{0} ∩ full(C)|` is 1 at p and at the root; counting every
        // placement would report 3 there.
        let mut tree = CategoryTree::new();
        let p = tree.add_category(ROOT);
        let a = tree.add_category(p);
        let b = tree.add_category(p);
        let c = tree.add_category(ROOT);
        tree.assign_items(a, [0]);
        tree.assign_items(b, [0, 5]);
        tree.assign_items(p, [0, 7]);
        tree.assign_items(c, [1, 2]);
        let index = PointIndex::build(&tree, 8);
        let full = tree.materialize();
        let similarity = Similarity::jaccard_cutoff(0.1);
        let all = tree.live_categories();
        let (top, _) = index.top_covers_among(&[0], &all, 10, &similarity, &Budget::unlimited());
        for cat in [p, ROOT] {
            let cover = top
                .iter()
                .find(|r| r.cat == cat)
                .expect("cat intersects {0}");
            let inter = cover.precision * full[cat as usize].len() as f64;
            assert!((inter - 1.0).abs() < 1e-12, "cat {cat}: {cover:?}");
        }
        // The exhaustive lookup agrees with batch scoring, whose winners
        // here are a ({0}), p ({0, 7}) and the root (every item).
        let sets = [vec![0], vec![0, 5], vec![0, 7], vec![0, 1, 2, 5, 7]];
        let sets = sets.map(|s| InputSet::new(ItemSet::new(s), 1.0));
        let instance = Instance::new(8, sets.to_vec(), similarity);
        let batch = score_tree(&instance, &tree);
        for (s, set) in instance.sets.iter().enumerate() {
            let point = index.best_cover(set.items.as_slice(), &similarity, &Budget::unlimited());
            let expect = &batch.per_set[s];
            assert_eq!(point.best_category, expect.best_category, "set {s}");
            assert_eq!(point.similarity.to_bits(), expect.similarity.to_bits());
            assert_eq!(point.precision.to_bits(), expect.precision.to_bits());
        }
        let winners: Vec<_> = batch.per_set.iter().map(|c| c.best_category).collect();
        assert_eq!(winners, [Some(a), Some(b), Some(p), Some(ROOT)]);
    }

    #[test]
    fn removed_categories_never_win() {
        let mut tree = figure2_t1();
        let batch_winner = 3; // c3 = {0, 1}
        tree.remove_category(batch_winner);
        let index = PointIndex::build(&tree, 9);
        let cover = index.best_cover(
            &[0, 1],
            &Similarity::jaccard_cutoff(0.1),
            &Budget::unlimited(),
        );
        assert_ne!(cover.best_category, Some(batch_winner));
        assert!(cover.best_category.is_some(), "an ancestor still covers");
    }
}
