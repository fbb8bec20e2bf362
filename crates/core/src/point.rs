//! Point queries: score a *single* item set against a prebuilt tree.
//!
//! Batch scoring ([`crate::score`]) aggregates a whole tree against a whole
//! instance — the right shape for evaluation runs, and entirely the wrong
//! shape for a serving daemon that answers one query at a time against a
//! long-lived tree. This module splits that work: a [`PointIndex`] is built
//! once per tree (each item's direct categories, the parent array, category
//! sizes and depths). A query's `|q ∩ C|` counts come from walking its
//! items' direct categories up their parent chains, with the chain counter
//! repair's candidate search also uses: the cost is the sum of the items'
//! chain lengths, proportional to the query, not the tree, and no
//! category's item set is materialized.
//!
//! Every lookup scores candidates with [`Cover::new`] and folds them
//! with [`Cover::beats`], the order batch scoring uses, so a point query
//! over a set returns exactly the cover [`crate::score::score_tree`] would
//! report for it; tests pin that equivalence. Top-k rankings sort with
//! [`Cover::exact_cmp`]. Like batch scoring, only categories that share an
//! item with the query are scored.
//!
//! Point lookups are [`Budget`]-aware for serving: on expiry the candidate
//! scan stops early and the partial best is returned flagged
//! [`degraded`](PointCover::degraded) — pessimistic, never wrong, matching
//! the batch path's degraded-scoring contract.

use oct_resilience::Budget;

use crate::csr::CsrIndex;
use crate::itemset::ItemId;
use crate::score::{category_depths, Cover, SetCover};
use crate::similarity::Similarity;
use crate::tree::{CatId, CategoryTree, ChainCounter};
use crate::vector::{VectorIndex, DEFAULT_EF_SEARCH};

/// How often (in categories) a point query reads the wall clock.
const DEADLINE_STRIDE: u64 = 64;

/// Candidate pool floor for top-k navigation: reranking a few extra
/// candidates is cheap and buys recall headroom when k is small.
pub const TOPK_POOL_FLOOR: usize = 32;

/// Immutable per-tree index answering single-set cover queries. It keeps
/// only the tree's shape (each item's direct categories, each category's
/// parent) and counts a query's intersections up the parent chains.
///
/// Build once per tree snapshot ([`PointIndex::build`]), then share freely:
/// lookups take `&self`, so a serving daemon can hand one `Arc`'d index to
/// every worker and swap in a fresh one atomically when the tree rebuilds.
#[derive(Debug, Clone)]
pub struct PointIndex {
    /// `item → live categories it is directly assigned to`, ascending.
    direct: CsrIndex,
    /// Parent per category slot (`None` for the root and removed slots).
    parents: Vec<Option<CatId>>,
    /// Full (deduplicated-subtree) size per category slot, 0 for removed
    /// slots — counted by one chain walk over every item at build time.
    cat_sizes: Vec<u32>,
    /// Depth per category slot (root = 0).
    depths: Vec<u32>,
    /// Number of live categories indexed.
    live_categories: usize,
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
    /// Indexes `tree` for point lookups. `num_items` sizes the inverted
    /// index; items assigned in the tree beyond it extend it automatically.
    pub fn build(tree: &CategoryTree, num_items: u32) -> Self {
        let live_items = |c| (!tree.is_removed(c)).then(|| tree.direct_items(c));
        let rows: Vec<&[ItemId]> = tree
            .category_ids()
            .map(|c| live_items(c).unwrap_or_default())
            .collect();
        let max_assigned = rows.iter().flat_map(|r| r.iter().max()).max();
        let slots = num_items.max(max_assigned.map_or(0, |&m| m + 1));
        let direct = CsrIndex::build(slots, rows.iter().copied());
        let parents: Vec<Option<CatId>> = tree.category_ids().map(|c| tree.parent(c)).collect();
        // With every item as the query, the counter yields `|full(C)|`.
        let mut cat_sizes = vec![0u32; tree.len()];
        let every_item = direct.entries().map(|(_, cats)| cats);
        for (cat, n) in ChainCounter::new(tree.len()).count(every_item, |c| parents[c as usize]) {
            cat_sizes[cat as usize] = n as u32;
        }
        Self {
            direct,
            parents,
            cat_sizes,
            depths: category_depths(tree),
            live_categories: tree.live_categories().len(),
        }
    }

    /// Number of live categories indexed.
    pub fn len(&self) -> usize {
        self.live_categories
    }

    /// `true` when the indexed tree has no live categories.
    pub fn is_empty(&self) -> bool {
        self.live_categories == 0
    }

    /// Number of item slots in the inverted index.
    pub fn num_items(&self) -> u32 {
        self.direct.num_items() as u32
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
        let (q_len, counts) = self.query_counts(items);
        self.best_of(q_len, counts.into_iter(), similarity, budget)
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
    /// skipped; evaluation order is ascending category id regardless of
    /// input order.
    pub fn best_cover_among(
        &self,
        items: &[u32],
        candidates: &[CatId],
        similarity: &Similarity,
        budget: &Budget,
    ) -> PointCover {
        let (q_len, pairs) = self.candidate_pairs(items, candidates);
        self.best_of(q_len, pairs, similarity, budget)
    }

    /// The top `k` covers of `items` among `candidates`, best first, with
    /// exact (reranked) scores — the serving half of `NAVIGATE <k>`.
    ///
    /// Ranking is [`Cover::exact_cmp`] — no epsilon banding, so the order
    /// is a pure function of the inputs and byte-identical across runs and
    /// replicas. Only positive-similarity categories are returned, so fewer
    /// than `k` entries means nothing else intersected. Unknown, removed or
    /// duplicate candidate ids are skipped. On budget expiry the scan stops
    /// and the partial ranking over the evaluated prefix is returned with
    /// `degraded = true` — pessimistic, never wrong.
    pub fn top_covers_among(
        &self,
        items: &[u32],
        candidates: &[CatId],
        k: usize,
        similarity: &Similarity,
        budget: &Budget,
    ) -> (Vec<RankedCover>, bool) {
        let (q_len, pairs) = self.candidate_pairs(items, candidates);
        let mut scored: Vec<Cover> = Vec::new();
        let (_, degraded) = self.scan(q_len, pairs, similarity, budget, |cover| {
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

    /// The best cover among `(cat, |C ∩ q|)` pairs for a query of `q_len`
    /// items, folded with [`Cover::beats`].
    fn best_of(
        &self,
        q_len: usize,
        pairs: impl Iterator<Item = (CatId, usize)>,
        similarity: &Similarity,
        budget: &Budget,
    ) -> PointCover {
        let mut best: Option<Cover> = None;
        let (evaluated, degraded) = self.scan(q_len, pairs, similarity, budget, |cover| {
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

    /// Scores every pair with `|C ∩ q| > 0` in order and hands it to
    /// `visit`, checking `budget` as it goes. Returns the number of covers
    /// scored and whether the budget cut the scan short.
    fn scan(
        &self,
        q_len: usize,
        pairs: impl Iterator<Item = (CatId, usize)>,
        similarity: &Similarity,
        budget: &Budget,
        mut visit: impl FnMut(Cover),
    ) -> (usize, bool) {
        let limited = budget.is_limited();
        let mut evaluated = 0;
        for (seen, (cat, inter)) in pairs.enumerate() {
            if limited && budget.check_every(seen as u64, DEADLINE_STRIDE) {
                return (evaluated, true);
            }
            // A category sharing no item with the query scores 0 for any
            // non-empty query; skipping it keeps an empty query from
            // scoring an empty category's `0/0` as 1.
            if inter == 0 {
                continue;
            }
            let (delta, depth) = (similarity.delta, self.depths[cat as usize]);
            let c_len = self.cat_sizes[cat as usize] as usize;
            let cover = Cover::new(similarity, delta, q_len, c_len, inter, cat, depth);
            visit(cover);
            evaluated += 1;
        }
        (evaluated, false)
    }

    /// The deduplicated query size (unknown items included — see
    /// [`best_cover`](Self::best_cover)) and `(cat, |C ∩ q|)` for every
    /// category sharing an item with the query, ascending by category id.
    fn query_counts(&self, items: &[u32]) -> (usize, Vec<(CatId, usize)>) {
        let mut query = items.to_vec();
        query.sort_unstable();
        query.dedup();
        // Unknown items, beyond the index, have no categories to walk.
        let known = query.partition_point(|&i| (i as usize) < self.direct.num_items());
        let placements = query[..known].iter().map(|&i| self.direct.sets_of(i));
        let parent = |c: CatId| self.parents[c as usize];
        (
            query.len(),
            ChainCounter::new(self.parents.len()).count(placements, parent),
        )
    }

    /// The deduplicated query size and `(cat, |C ∩ q|)` pairs over the
    /// valid candidate slots, ascending and deduplicated. Each candidate
    /// looks its count up in the query's chain walk, 0 when not reached.
    fn candidate_pairs(
        &self,
        items: &[u32],
        candidates: &[CatId],
    ) -> (usize, impl Iterator<Item = (CatId, usize)>) {
        let (q_len, counts) = self.query_counts(items);
        let mut ordered: Vec<CatId> = candidates
            .iter()
            .copied()
            .filter(|&c| (c as usize) < self.cat_sizes.len())
            .collect();
        ordered.sort_unstable();
        ordered.dedup();
        let pairs = ordered.into_iter().map(move |cat| {
            let found = counts.binary_search_by_key(&cat, |&(c, _)| c);
            (cat, found.map_or(0, |i| counts[i].1))
        });
        (q_len, pairs)
    }
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
    }

    #[test]
    fn unknown_items_match_batch_scorer_semantics() {
        // The same sets scored by the batch path, where "unknown" ids are
        // ordinary universe items that simply belong to no category.
        let tree = figure2_t1();
        let index = PointIndex::build(&tree, 9);
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
            ];
            let instance = Instance::new(1000, sets, similarity);
            let batch = score_tree(&instance, &tree);
            for (s, set) in instance.sets.iter().enumerate() {
                let point =
                    index.best_cover(set.items.as_slice(), &similarity, &Budget::unlimited());
                let expect = &batch.per_set[s];
                assert_eq!(
                    point.best_category, expect.best_category,
                    "{similarity:?} set {s}"
                );
                assert!(
                    (point.similarity - expect.similarity).abs() < 1e-12,
                    "{similarity:?} set {s}: {point:?} vs {expect:?}"
                );
                assert!((point.precision - expect.precision).abs() < 1e-12);
                assert_eq!(point.covered, expect.covered);
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
