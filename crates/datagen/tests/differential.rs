//! Differential suite of the CSR-index substrate on the generated datasets:
//! the inverted-index paths must be an invisible substitution for plain
//! `ItemSet` algebra. On small renditions of the paper's datasets A and B
//! this proves
//!
//! * production tree scoring (the set-major kernel on a dense tree view) is
//!   bit-identical to the naive `ItemSet`-union reference scorer,
//! * `intersecting_pairs` (the co-occurrence kernel over the CSR inverted
//!   index) matches brute-force pair enumeration exactly, and
//! * `classify_pair` on those counts agrees with a structural oracle
//!   (recounted intersections, `ItemSet` subset tests, exact-integer §3.3
//!   predicates) on every intersecting pair, for all six similarity
//!   variants over a δ grid.
//!
//! On the IC-Q tree of dataset A (large enough that neither path below
//! degenerates to its small-tree shortcut) it also proves
//!
//! * narrow-then-rerank (`VectorIndex::candidates_for` +
//!   `PointIndex::best_cover_among`) returns the exhaustive
//!   `PointIndex::best_cover` answer whenever that winner is in the pool,
//! * tree scoring under every thread cap is bit-identical to the reference.

use oct_core::baselines::{ic_q, BaselineConfig};
use oct_core::conflict::{classify_pair, intersecting_pairs};
use oct_core::input::Instance;
use oct_core::score::{score_tree, score_tree_reference, score_tree_with, ScoreOptions};
use oct_core::similarity::Similarity;
use oct_core::tree::CategoryTree;
use oct_core::vector::{VectorConfig, VectorIndex, DEFAULT_EF_SEARCH};
use oct_core::PointIndex;
use oct_datagen::{generate, DatasetName};

#[path = "../../core/tests/classify_oracle/mod.rs"]
mod classify_oracle;
use classify_oracle::oracle_class;

/// The dataset grid: paper datasets A (Fashion, weighted) and B at small
/// scale, under different variants so both arithmetic families are hit.
fn grid() -> Vec<(DatasetName, f64, Similarity)> {
    vec![
        (DatasetName::A, 0.05, Similarity::jaccard_threshold(0.8)),
        (DatasetName::A, 0.05, Similarity::exact()),
        (DatasetName::B, 0.03, Similarity::f1_threshold(0.6)),
        (DatasetName::B, 0.03, Similarity::perfect_recall(0.7)),
    ]
}

#[test]
fn production_scoring_is_bit_identical_to_reference() {
    for (name, scale, similarity) in grid() {
        let ds = generate(name, scale, similarity);
        let result = ic_q(&ds.instance, &BaselineConfig::default()).expect("valid instance");
        let reference = score_tree_reference(&ds.instance, &result.tree);
        let production = score_tree(&ds.instance, &result.tree);
        assert_eq!(
            production.total.to_bits(),
            reference.total.to_bits(),
            "{name:?}: total diverges: {} vs {}",
            production.total,
            reference.total
        );
        assert_eq!(
            production.normalized.to_bits(),
            reference.normalized.to_bits(),
            "{name:?}: normalized diverges"
        );
        assert_eq!(production, reference, "{name:?}: full TreeScore diverges");
    }
}

/// Brute-force scalar pair enumeration: every `i < j` with a non-empty
/// intersection, ordered by rank, with bound-1 effective intersections.
fn brute_force_pairs(instance: &Instance) -> Vec<(u32, u32, u32, u32)> {
    let ranks = instance.ranks();
    let n = instance.num_sets();
    let mut pairs = Vec::new();
    for i in 0..n {
        for j in (i + 1)..n {
            let qa = &instance.sets[i].items;
            let qb = &instance.sets[j].items;
            let shared = qa.intersection(qb);
            if shared.is_empty() {
                continue;
            }
            let eff = shared
                .iter()
                .filter(|&item| instance.bound_of(item) == 1)
                .count() as u32;
            let (hi, lo) = if ranks[i] < ranks[j] {
                (i as u32, j as u32)
            } else {
                (j as u32, i as u32)
            };
            pairs.push((hi, lo, shared.len() as u32, eff));
        }
    }
    pairs.sort_unstable();
    pairs
}

#[test]
fn intersecting_pairs_match_brute_force_enumeration() {
    for (name, scale, similarity) in grid() {
        let ds = generate(name, scale, similarity);
        let expected = brute_force_pairs(&ds.instance);
        let actual: Vec<(u32, u32, u32, u32)> = intersecting_pairs(&ds.instance, 2)
            .iter()
            .map(|p| (p.hi, p.lo, p.inter, p.eff_inter))
            .collect();
        assert_eq!(
            actual.len(),
            expected.len(),
            "{name:?}: pair count diverges"
        );
        assert_eq!(actual, expected, "{name:?}: pair list diverges");
    }
}

#[test]
fn pair_classification_agrees_across_substrates() {
    const DELTA_GRID: [f64; 7] = [0.05, 0.25, 0.50, 0.60, 0.75, 0.90, 0.99];
    for (name, scale) in [(DatasetName::A, 0.05), (DatasetName::B, 0.03)] {
        let ds = generate(name, scale, Similarity::exact());
        // Ranks (and so the pair list) do not depend on the variant.
        let pairs = intersecting_pairs(&ds.instance, 1);
        let variants = DELTA_GRID.iter().flat_map(|&delta| {
            [
                Similarity::jaccard_cutoff(delta),
                Similarity::jaccard_threshold(delta),
                Similarity::f1_cutoff(delta),
                Similarity::f1_threshold(delta),
                Similarity::perfect_recall(delta),
            ]
        });
        for similarity in variants.chain([Similarity::exact()]) {
            let instance = Instance {
                similarity,
                ..ds.instance.clone()
            };
            for pair in &pairs {
                let (hi, lo) = (pair.hi as usize, pair.lo as usize);
                let (inter, eff) = (pair.inter as usize, pair.eff_inter as usize);
                assert_eq!(
                    classify_pair(&instance, hi, lo, inter, eff),
                    oracle_class(&instance, hi, lo),
                    "{name:?} {:?} δ={}: pair ({hi},{lo}) classified differently",
                    similarity.kind,
                    similarity.delta
                );
            }
        }
    }
}

/// Dataset A at a small scale and its IC-Q tree, which has 1,400
/// categories: more than the ANN beam and the parallel-scoring floor.
fn ic_q_on_a() -> (Instance, CategoryTree) {
    let ds = generate(DatasetName::A, 0.05, Similarity::jaccard_threshold(0.8));
    let tree = ic_q(&ds.instance, &BaselineConfig::default())
        .expect("valid instance")
        .tree;
    (ds.instance, tree)
}

#[test]
fn narrowed_cover_matches_exhaustive_when_the_winner_is_in_the_pool() {
    const WINDOW: usize = 8;
    const POOL: usize = 32;
    let (instance, tree) = ic_q_on_a();
    let point = PointIndex::build(&tree, instance.num_items);
    let ann = VectorIndex::for_tree(&tree, &VectorConfig::default());
    let ef = POOL.max(DEFAULT_EF_SEARCH);
    assert!(
        ann.len() > ef,
        "{} categories: a beam of {ef} would search them all",
        ann.len()
    );
    // Under the instance's own 0.8 threshold a union of several sets never
    // clears δ, so score under a permissive cutoff to get real winners.
    let similarity = Similarity::jaccard_cutoff(0.1);
    let budget = ScoreOptions::default().budget;

    let mut in_pool = 0;
    for chunk in instance.sets.chunks(WINDOW) {
        let mut query: Vec<u32> = chunk
            .iter()
            .flat_map(|s| s.items.as_slice().iter().copied())
            .collect();
        query.sort_unstable();
        query.dedup();
        let exhaustive = point.best_cover(&query, &similarity, &budget);
        let Some(winner) = exhaustive.best_category else {
            continue;
        };
        let candidates = ann.candidates_for(&query, POOL, ef);
        if !candidates.contains(&winner) {
            continue;
        }
        in_pool += 1;
        let narrowed = point.best_cover_among(&query, &candidates, &similarity, &budget);
        assert_eq!(narrowed.best_category, exhaustive.best_category);
        assert_eq!(
            narrowed.similarity.to_bits(),
            exhaustive.similarity.to_bits()
        );
        assert_eq!(narrowed.precision.to_bits(), exhaustive.precision.to_bits());
        assert_eq!(narrowed.covered, exhaustive.covered);
    }
    assert!(in_pool > 0, "no exhaustive winner made the candidate pool");
}

#[test]
fn parallel_scoring_matches_serial_on_a_large_tree() {
    let (instance, tree) = ic_q_on_a();
    // A deep item dendrogram: the shape whose long chains the set-major
    // kernel walks. Thread counts are caps, and this instance is too small
    // to split, so every count must equal the reference exactly; the split
    // itself is checked through explicit set ranges in `score`'s unit
    // tests.
    let depth = tree.category_ids().map(|c| tree.depth(c)).max();
    assert!(depth > Some(40), "depth {depth:?}: too shallow");
    let reference = score_tree_reference(&instance, &tree);
    for threads in [1, 2, 4] {
        let score = score_tree_with(&instance, &tree, &ScoreOptions::with_threads(threads));
        assert_eq!(
            score.total.to_bits(),
            reference.total.to_bits(),
            "threads={threads}: total diverges"
        );
        assert_eq!(score, reference, "threads={threads}: TreeScore diverges");
    }
}
