//! The data-preparation pipeline of §5.1.
//!
//! Raw queries become `OCT` input sets through four steps:
//! 1. **cleaning** — drop infrequent queries (below the frequency floor)
//!    and queries whose results scatter over more than 10 branches of the
//!    existing tree;
//! 2. **result-set computation** — drop items below the relevance
//!    threshold (0.8 for Jaccard/F1 variants, 0.9 for Perfect-Recall and
//!    Exact, per the paper's tuning);
//! 3. **weighting** — weight = average daily frequency;
//! 4. **merging** — near-duplicate result sets (similarity in
//!    `[δ + ¾(1−δ), 1]`) merge into one set with the combined weight.
//!
//! Merging is agglomerative: the most similar pair merges first, and the
//! merged set may then merge again. [`merge_similar`] scores every
//! intersecting pair once, found through an inverted index of items to
//! set positions, and queues the eligible ones. A pair is skipped before
//! its intersection is counted when even full overlap,
//! `eval(|a|, |b|, min(|a|, |b|))`, stays below the cutoff; every base
//! measure is non-decreasing in the intersection size, so that value
//! bounds the pair's similarity. Deletion is lazy. Each position carries
//! a stamp, and each queued pair records the stamps of its two positions.
//! A merge of `i < j` rewrites position `i`, removes `j` and moves the
//! last set into `j` (`swap_remove`). It bumps the stamps of all three
//! positions, which retires their queued pairs, updates the index in
//! place and rescores only the partners of the sets now at `i` and `j`.
//! The moved set's similarities are unchanged; it is rescored because its
//! position is its tie-break key. A merge thus costs two partner scans
//! instead of a rescan of every pair.
//!
//! The queue is an ordered set rather than a binary heap for one reason:
//! similarities within `1e-12` of each other tie, and the tie goes to the
//! lowest `(i, j)`. Equal fractions can round to neighbouring `f64`s (the
//! recall/precision mean adds two quotients), so a pair a rounding step
//! below the top may still win the tie. The set finds such pairs with one
//! range query under the top.

use std::cmp::Ordering;
use std::collections::BTreeSet;

use oct_core::input::{InputSet, Instance};
use oct_core::itemset::ItemSet;
use oct_core::similarity::{BaseMeasure, Similarity, SimilarityKind};
use oct_core::tree::CategoryTree;

use crate::existing_tree::branch_of_items;
use crate::queries::QueryLog;

/// Pipeline configuration.
#[derive(Debug, Clone, Copy)]
pub struct PreprocessConfig {
    /// Frequency floor (the paper's confidential `X`).
    pub min_daily_frequency: f64,
    /// Maximum existing-tree branches a result set may touch.
    pub max_branches: usize,
    /// Merge near-duplicate result sets.
    pub merge_similar: bool,
    /// Ignore frequencies and weight every query 1 (public datasets).
    pub uniform_weights: bool,
}

impl Default for PreprocessConfig {
    fn default() -> Self {
        Self {
            min_daily_frequency: 1.0,
            max_branches: 10,
            merge_similar: true,
            uniform_weights: false,
        }
    }
}

/// What the pipeline did, for reporting and the §5.4 ablations.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PreprocessStats {
    /// Queries in the raw log.
    pub raw_queries: usize,
    /// Dropped by the frequency floor.
    pub dropped_infrequent: usize,
    /// Dropped by branch scatter.
    pub dropped_scattered: usize,
    /// Dropped because the thresholded result set became too small.
    pub dropped_empty: usize,
    /// Merges performed.
    pub merged: usize,
    /// Final input-set count.
    pub final_sets: usize,
}

/// The paper's relevance threshold for a similarity variant: 0.9 for the
/// recall-strict variants, 0.8 otherwise.
pub fn relevance_threshold(kind: SimilarityKind) -> f32 {
    if kind.requires_perfect_recall() {
        0.9
    } else {
        0.8
    }
}

/// Runs the pipeline, producing an [`Instance`] over the catalog universe.
pub fn build_instance(
    num_items: u32,
    log: &QueryLog,
    existing: &CategoryTree,
    similarity: Similarity,
    config: &PreprocessConfig,
) -> (Instance, PreprocessStats) {
    let mut stats = PreprocessStats {
        raw_queries: log.queries.len(),
        ..PreprocessStats::default()
    };
    let branch = branch_of_items(existing, num_items);
    let relevance = relevance_threshold(similarity.kind);

    let mut sets: Vec<InputSet> = Vec::new();
    for q in &log.queries {
        if q.daily_frequency < config.min_daily_frequency {
            stats.dropped_infrequent += 1;
            continue;
        }
        // Relevance cutoff.
        let items: Vec<u32> = q
            .results
            .iter()
            .filter(|&&(_, rel)| rel >= relevance)
            .map(|&(item, _)| item)
            .collect();
        if items.len() < 2 {
            stats.dropped_empty += 1;
            continue;
        }
        // Branch-scatter cleaning.
        let mut branches: Vec<u32> = items.iter().map(|&i| branch[i as usize]).collect();
        branches.sort_unstable();
        branches.dedup();
        if branches.len() > config.max_branches {
            stats.dropped_scattered += 1;
            continue;
        }
        let weight = if config.uniform_weights {
            1.0
        } else {
            q.daily_frequency
        };
        sets.push(InputSet::new(ItemSet::new(items), weight).with_label(q.text.clone()));
    }

    if config.merge_similar {
        (sets, stats.merged) = merge_similar(sets, similarity);
    }
    stats.final_sets = sets.len();
    (Instance::new(num_items, sets, similarity), stats)
}

/// Merges near-duplicate result sets. While some pair has base similarity
/// in `[δ + ¾(1−δ), 1]`, the most similar pair `i < j` becomes one set at
/// `i` (union of items, summed weight, the heavier set's label) and the
/// last set moves into `j` (`swap_remove`). Similarities within `1e-12` of
/// each other tie, and a tie goes to the lowest `(i, j)`. Returns the
/// merged sets and the number of merges.
///
/// Candidate pairs wait in a priority queue with lazy deletion (see the
/// module docs), so a merge rescores the partners of two sets rather than
/// every intersecting pair.
pub fn merge_similar(mut sets: Vec<InputSet>, similarity: Similarity) -> (Vec<InputSet>, usize) {
    let delta = similarity.delta;
    let universe = sets
        .iter()
        .filter_map(|s| s.items.as_slice().last())
        .max()
        .map_or(0, |&m| m as usize + 1);
    let mut postings: Vec<Vec<usize>> = vec![Vec::new(); universe];
    for (i, s) in sets.iter().enumerate() {
        for item in s.items.iter() {
            postings[item as usize].push(i);
        }
    }
    let mut queue = MergeQueue {
        base: similarity.kind.base(),
        cutoff: delta + 0.75 * (1.0 - delta) - 1e-9,
        pairs: BTreeSet::new(),
        stamps: vec![0; sets.len()],
        seen: vec![0; sets.len()],
        epoch: 0,
    };
    for i in 0..sets.len() {
        queue.score_partners(i, &sets, &postings, |x| x > i);
    }

    let mut merges = 0;
    while let Some(Pair { i, j, .. }) = queue.pop_best() {
        let last = sets.len() - 1;
        // Postings: `j` leaves, `i` gains `j`'s new items, `last` becomes `j`.
        for item in sets[j].items.iter() {
            let posting = &mut postings[item as usize];
            let at = posting.iter().position(|&x| x == j).expect("indexed");
            posting.swap_remove(at);
            if !sets[i].items.contains(item) {
                posting.push(i);
            }
        }
        if j != last {
            for item in sets[last].items.iter() {
                let posting = &mut postings[item as usize];
                let at = posting.iter().position(|&x| x == last).expect("indexed");
                posting[at] = j;
            }
        }
        let merged_items = sets[i].items.union(&sets[j].items);
        let weight = sets[i].weight + sets[j].weight;
        let label = if sets[i].weight >= sets[j].weight {
            sets[i].label.take()
        } else {
            sets[j].label.take()
        };
        let mut merged = InputSet::new(merged_items, weight);
        merged.label = label;
        sets.swap_remove(j);
        sets[i] = merged;
        merges += 1;

        for slot in [i, j, last] {
            queue.stamps[slot] += 1;
        }
        queue.score_partners(i, &sets, &postings, |_| true);
        if j != last {
            // The moved set's similarities are unchanged, but its index —
            // its tie-break key — is new. Its pair with `i` is already in.
            queue.score_partners(j, &sets, &postings, |x| x != i);
        }
    }
    (sets, merges)
}

/// How far apart two similarities may be and still tie.
const TIE_EPS: f64 = 1e-12;

/// A candidate merge: base similarity of positions `i < j`, with the
/// stamps both positions had when it was scored.
#[derive(Debug, Clone, Copy)]
struct Pair {
    sim: f64,
    i: usize,
    j: usize,
    stamps: (u32, u32),
}

impl Pair {
    /// Below every pair of similarity `sim`, above every less similar one.
    fn floor(sim: f64) -> Self {
        Self {
            sim,
            i: usize::MAX,
            j: usize::MAX,
            stamps: (0, 0),
        }
    }
}

impl PartialEq for Pair {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Pair {}

impl Ord for Pair {
    /// Greater is merged first: higher similarity, then lower `(i, j)`.
    /// The stamps keep a stale and a current entry of one pair apart.
    fn cmp(&self, other: &Self) -> Ordering {
        self.sim
            .total_cmp(&other.sim)
            .then_with(|| (other.i, other.j).cmp(&(self.i, self.j)))
            .then_with(|| self.stamps.cmp(&other.stamps))
    }
}

impl PartialOrd for Pair {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Eligible pairs with lazy deletion: a merge bumps the stamps of the
/// positions it rewrites, which retires every pair scored against them.
struct MergeQueue {
    base: BaseMeasure,
    /// Lowest similarity that merges.
    cutoff: f64,
    pairs: BTreeSet<Pair>,
    /// Per position, bumped whenever the set at that position changes.
    stamps: Vec<u32>,
    /// Per position, the last `epoch` whose partner scan visited it.
    seen: Vec<u32>,
    /// Counts partner scans.
    epoch: u32,
}

impl MergeQueue {
    fn is_current(&self, pair: &Pair) -> bool {
        pair.stamps == (self.stamps[pair.i], self.stamps[pair.j])
    }

    /// Removes and returns the next pair to merge: the lowest `(i, j)`
    /// among current pairs tied with the most similar one.
    fn pop_best(&mut self) -> Option<Pair> {
        let top = loop {
            let pair = self.pairs.pop_last()?;
            if self.is_current(&pair) {
                break pair;
            }
        };
        // Exact ties already sort by index; near ties sit just below.
        let near = self
            .pairs
            .range(Pair::floor(top.sim - TIE_EPS)..Pair::floor(top.sim))
            .filter(|p| self.is_current(p))
            .min_by_key(|p| (p.i, p.j))
            .copied();
        match near {
            Some(pair) if (pair.i, pair.j) < (top.i, top.j) => {
                self.pairs.remove(&pair);
                self.pairs.insert(top);
                Some(pair)
            }
            _ => Some(top),
        }
    }

    /// Queues every eligible pair of `p` with an intersecting partner `x`
    /// for which `keep(x)`. The size bound `eval(|a|, |b|, min(|a|, |b|))`
    /// skips partners that cannot reach the cutoff before their
    /// intersection is counted.
    fn score_partners(
        &mut self,
        p: usize,
        sets: &[InputSet],
        postings: &[Vec<usize>],
        keep: impl Fn(usize) -> bool,
    ) {
        self.epoch += 1;
        self.seen[p] = self.epoch;
        for item in sets[p].items.iter() {
            for &x in &postings[item as usize] {
                if self.seen[x] == self.epoch || !keep(x) {
                    continue;
                }
                self.seen[x] = self.epoch;
                let (i, j) = (p.min(x), p.max(x));
                let (a, b) = (&sets[i].items, &sets[j].items);
                if self.base.eval(a.len(), b.len(), a.len().min(b.len())) < self.cutoff {
                    continue;
                }
                let sim = self.base.eval(a.len(), b.len(), a.intersection_size(b));
                if sim >= self.cutoff {
                    self.pairs.insert(Pair {
                        sim,
                        i,
                        j,
                        stamps: (self.stamps[i], self.stamps[j]),
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{Catalog, Domain};
    use crate::datasets::{generate, DatasetName};
    use crate::existing_tree::{existing_tree, ExistingTreeConfig};
    use crate::queries::{generate_queries, QueryConfig, RawQuery};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The reference merge: after every merge, rebuild the inverted index
    /// and rescan every intersecting pair for the most similar one.
    fn merge_similar_rescan(
        mut sets: Vec<InputSet>,
        similarity: Similarity,
    ) -> (Vec<InputSet>, usize) {
        let delta = similarity.delta;
        let cutoff = delta + 0.75 * (1.0 - delta);
        let base = similarity.kind.base();
        let mut merges = 0;
        loop {
            let mut by_item: std::collections::HashMap<u32, Vec<usize>> =
                std::collections::HashMap::new();
            for (i, s) in sets.iter().enumerate() {
                for item in s.items.iter() {
                    by_item.entry(item).or_default().push(i);
                }
            }
            let mut pair: Option<(f64, usize, usize)> = None;
            let mut seen: std::collections::HashSet<(usize, usize)> =
                std::collections::HashSet::new();
            for posting in by_item.values() {
                for (x, &i) in posting.iter().enumerate() {
                    for &j in &posting[x + 1..] {
                        let key = (i.min(j), i.max(j));
                        if !seen.insert(key) {
                            continue;
                        }
                        let (a, b) = (&sets[key.0].items, &sets[key.1].items);
                        let sim = base.eval(a.len(), b.len(), a.intersection_size(b));
                        if sim < cutoff - 1e-9 {
                            continue;
                        }
                        let better = match pair {
                            None => true,
                            Some((bs, bi, bj)) => {
                                sim > bs + 1e-12 || ((sim - bs).abs() <= 1e-12 && key < (bi, bj))
                            }
                        };
                        if better {
                            pair = Some((sim, key.0, key.1));
                        }
                    }
                }
            }
            let Some((_, i, j)) = pair else {
                return (sets, merges);
            };
            let merged_items = sets[i].items.union(&sets[j].items);
            let weight = sets[i].weight + sets[j].weight;
            let label = if sets[i].weight >= sets[j].weight {
                sets[i].label.clone()
            } else {
                sets[j].label.clone()
            };
            let mut merged = InputSet::new(merged_items, weight);
            merged.label = label;
            sets.swap_remove(j);
            sets[i] = merged;
            merges += 1;
        }
    }

    fn assert_same_sets(heap: &[InputSet], oracle: &[InputSet], context: &str) {
        assert_eq!(heap.len(), oracle.len(), "{context}: set count");
        for (k, (h, o)) in heap.iter().zip(oracle).enumerate() {
            assert_eq!(h.items, o.items, "{context}: items of set {k}");
            assert_eq!(
                h.weight.to_bits(),
                o.weight.to_bits(),
                "{context}: weight of set {k}"
            );
            assert_eq!(h.label, o.label, "{context}: label of set {k}");
            assert_eq!(h.threshold, o.threshold, "{context}: threshold of set {k}");
        }
    }

    /// Preprocesses `log` with the heap merge and with the rescan oracle,
    /// asserts identical instances and stats, and returns the merge count.
    fn heap_matches_oracle(
        num_items: u32,
        log: &QueryLog,
        existing: &CategoryTree,
        similarity: Similarity,
        config: &PreprocessConfig,
        context: &str,
    ) -> usize {
        let (heap, heap_stats) = build_instance(num_items, log, existing, similarity, config);
        let unmerged = PreprocessConfig {
            merge_similar: false,
            ..*config
        };
        let (raw, mut oracle_stats) =
            build_instance(num_items, log, existing, similarity, &unmerged);
        let (oracle, merges) = merge_similar_rescan(raw.sets, similarity);
        oracle_stats.merged = merges;
        oracle_stats.final_sets = oracle.len();
        assert_eq!(heap_stats, oracle_stats, "{context}: stats");
        assert_same_sets(&heap.sets, &oracle, context);
        merges
    }

    /// A log over 40 items whose queries are copies of 8 base result sets,
    /// exact (ties at similarity 1.0) or with one or two items swapped in
    /// or out; frequencies in {1, 2, 3} tie the label choice too.
    fn duplicate_heavy_log(seed: u64) -> QueryLog {
        let mut rng = StdRng::seed_from_u64(seed);
        let bases: Vec<Vec<u32>> = (0..8)
            .map(|_| {
                let len = rng.gen_range(6..16);
                (0..len).map(|_| rng.gen_range(0..40u32)).collect()
            })
            .collect();
        let queries = (0..60)
            .map(|q| {
                let mut items = bases[rng.gen_range(0..bases.len())].clone();
                if rng.gen_bool(0.6) {
                    for _ in 0..rng.gen_range(1..3) {
                        if rng.gen_bool(0.5) {
                            items.push(rng.gen_range(0..40u32));
                        } else {
                            items.pop();
                        }
                    }
                }
                RawQuery {
                    predicates: Vec::new(),
                    text: format!("q{q}"),
                    daily_frequency: f64::from(rng.gen_range(1..4u32)),
                    results: items.into_iter().map(|i| (i, 1.0)).collect(),
                }
            })
            .collect();
        QueryLog { queries }
    }

    const ALL_KINDS: [SimilarityKind; 6] = [
        SimilarityKind::JaccardCutoff,
        SimilarityKind::JaccardThreshold,
        SimilarityKind::F1Cutoff,
        SimilarityKind::F1Threshold,
        SimilarityKind::PerfectRecall,
        SimilarityKind::Exact,
    ];

    #[test]
    fn heap_merge_matches_rescan_on_duplicate_heavy_logs() {
        let config = PreprocessConfig {
            min_daily_frequency: 0.0,
            max_branches: usize::MAX,
            ..PreprocessConfig::default()
        };
        let mut merges = 0;
        for seed in 0..8 {
            let log = duplicate_heavy_log(seed);
            for kind in ALL_KINDS {
                let deltas: &[f64] = if kind == SimilarityKind::Exact {
                    &[1.0]
                } else {
                    &[0.5, 0.7, 0.9]
                };
                for &delta in deltas {
                    let similarity = Similarity::new(kind, delta);
                    merges += heap_matches_oracle(
                        40,
                        &log,
                        &CategoryTree::new(),
                        similarity,
                        &config,
                        &format!("seed {seed}, {kind:?} δ={delta}"),
                    );
                }
            }
        }
        assert!(merges > 1000, "the logs must exercise merging: {merges}");
    }

    #[test]
    fn heap_merge_matches_rescan_on_datasets() {
        let grid = [
            (DatasetName::A, 0.1, Similarity::jaccard_threshold(0.8)),
            (DatasetName::B, 0.02, Similarity::f1_cutoff(0.5)),
            (DatasetName::C, 0.01, Similarity::exact()),
            (DatasetName::D, 0.01, Similarity::perfect_recall(0.5)),
            (DatasetName::D, 0.01, Similarity::jaccard_cutoff(0.6)),
        ];
        for (name, scale, similarity) in grid {
            let ds = generate(name, scale, similarity);
            let config = PreprocessConfig {
                uniform_weights: ds.spec.uniform_weights,
                ..PreprocessConfig::default()
            };
            let merges = heap_matches_oracle(
                ds.catalog.len() as u32,
                &ds.log,
                &ds.existing,
                similarity,
                &config,
                &format!("{name:?}@{scale} {:?}", similarity.kind),
            );
            assert!(merges > 0, "{name:?}@{scale}: no merges to compare");
        }
    }

    #[test]
    fn tie_break_uses_the_index_after_swap_remove() {
        // B = 0..10 is 10/11-similar to both A = B + {10} (position 2) and
        // C = B + {11} (position 5), while A and C are 10/12-similar: only
        // one of A and C can merge with B. The duplicates at 0 and 1 merge
        // first, which moves C from position 5 to 1: the tie between
        // (2, 3) and C's pair, once (3, 5) and now (1, 3), goes to C.
        let base: Vec<u32> = (0..10).collect();
        let with = |extra: u32| InputSet::new(ItemSet::new([&base[..], &[extra]].concat()), 1.0);
        let sets = vec![
            InputSet::new(ItemSet::new(vec![20, 21, 22]), 1.0).with_label("x0"),
            InputSet::new(ItemSet::new(vec![20, 21, 22]), 1.0).with_label("x1"),
            with(10).with_label("a"),
            InputSet::new(ItemSet::new(base.clone()), 2.0).with_label("b"),
            InputSet::new(ItemSet::new(vec![30, 31]), 1.0).with_label("w"),
            with(11).with_label("c"),
        ];
        let similarity = Similarity::jaccard_threshold(0.6);
        let (merged, merges) = merge_similar(sets.clone(), similarity);
        let (oracle, _) = merge_similar_rescan(sets, similarity);
        assert_same_sets(&merged, &oracle, "hand-built");
        assert_eq!(merges, 2);
        let labels: Vec<&str> = merged.iter().map(|s| s.label.as_deref().unwrap()).collect();
        assert_eq!(labels, ["x0", "b", "a", "w"]);
        let bc: Vec<u32> = (0..10).chain([11]).collect();
        assert_eq!(merged[1].items.as_slice(), &bc[..]);
    }

    fn setup() -> (Catalog, QueryLog, CategoryTree) {
        let cat = Catalog::generate(Domain::Fashion, 4000, 42);
        let log = generate_queries(&cat, &QueryConfig::default());
        let tree = existing_tree(&cat, &ExistingTreeConfig::default());
        (cat, log, tree)
    }

    #[test]
    fn builds_valid_instance() {
        let (cat, log, tree) = setup();
        let (instance, stats) = build_instance(
            cat.len() as u32,
            &log,
            &tree,
            Similarity::jaccard_threshold(0.8),
            &PreprocessConfig::default(),
        );
        assert!(stats.final_sets > 50, "{stats:?}");
        assert_eq!(instance.num_sets(), stats.final_sets);
        assert!(instance.sets.iter().all(|s| s.items.len() >= 2));
        assert!(instance.sets.iter().all(|s| s.weight > 0.0));
    }

    #[test]
    fn frequency_floor_drops_tail() {
        let (cat, log, tree) = setup();
        let config = PreprocessConfig {
            min_daily_frequency: 50.0,
            ..PreprocessConfig::default()
        };
        let (_, stats) = build_instance(
            cat.len() as u32,
            &log,
            &tree,
            Similarity::jaccard_threshold(0.8),
            &config,
        );
        assert!(stats.dropped_infrequent > 100, "{stats:?}");
    }

    #[test]
    fn perfect_recall_uses_stricter_relevance() {
        assert_eq!(relevance_threshold(SimilarityKind::PerfectRecall), 0.9);
        assert_eq!(relevance_threshold(SimilarityKind::Exact), 0.9);
        assert_eq!(relevance_threshold(SimilarityKind::JaccardThreshold), 0.8);
        let (cat, log, tree) = setup();
        let (pr, _) = build_instance(
            cat.len() as u32,
            &log,
            &tree,
            Similarity::perfect_recall(0.8),
            &PreprocessConfig::default(),
        );
        let (jac, _) = build_instance(
            cat.len() as u32,
            &log,
            &tree,
            Similarity::jaccard_threshold(0.8),
            &PreprocessConfig::default(),
        );
        // Stricter relevance can only shrink result sets.
        let pr_total: usize = pr.sets.iter().map(|s| s.items.len()).sum();
        let jac_total: usize = jac.sets.iter().map(|s| s.items.len()).sum();
        assert!(pr_total <= jac_total);
    }

    #[test]
    fn merging_reduces_sets_and_preserves_weight() {
        let (cat, log, tree) = setup();
        let unmerged_cfg = PreprocessConfig {
            merge_similar: false,
            ..PreprocessConfig::default()
        };
        let sim = Similarity::jaccard_threshold(0.8);
        let (merged, mstats) = build_instance(
            cat.len() as u32,
            &log,
            &tree,
            sim,
            &PreprocessConfig::default(),
        );
        let (unmerged, _) = build_instance(cat.len() as u32, &log, &tree, sim, &unmerged_cfg);
        assert!(merged.num_sets() <= unmerged.num_sets());
        assert!(
            (merged.total_weight() - unmerged.total_weight()).abs() < 1e-6,
            "merging must conserve weight mass"
        );
        assert_eq!(unmerged.num_sets() - merged.num_sets(), mstats.merged);
    }

    #[test]
    fn uniform_weights_for_public_data() {
        let (cat, log, tree) = setup();
        let config = PreprocessConfig {
            uniform_weights: true,
            merge_similar: false,
            ..PreprocessConfig::default()
        };
        let (instance, _) = build_instance(
            cat.len() as u32,
            &log,
            &tree,
            Similarity::perfect_recall(0.6),
            &config,
        );
        assert!(instance.sets.iter().all(|s| (s.weight - 1.0).abs() < 1e-12));
    }

    #[test]
    fn scatter_cleaning_drops_multi_branch_queries() {
        let (cat, log, tree) = setup();
        let strict = PreprocessConfig {
            max_branches: 1,
            ..PreprocessConfig::default()
        };
        let (_, stats) = build_instance(
            cat.len() as u32,
            &log,
            &tree,
            Similarity::jaccard_threshold(0.8),
            &strict,
        );
        assert!(stats.dropped_scattered > 0, "{stats:?}");
    }
}
