//! The Clustering-based Category Tree algorithm — CCT (paper §4,
//! Algorithm 3).
//!
//! Instead of resolving conflicts explicitly, CCT derives the tree
//! *structure* by agglomerative clustering of the input sets and lets the
//! greedy item assignment resolve conflicts implicitly (once a conflicting
//! set's cover becomes impossible, the greedy stops wasting items on it).
//!
//! The embedding of each set captures the *global context*: the `i`-th
//! coordinate of `E(q)` is the similarity of `q` to the `i`-th input set —
//! Jaccard or F1 per the variant, `(recall + precision) / 2` for
//! Perfect-Recall. The dendrogram of a UPGMA (average-linkage) clustering
//! over Euclidean distances becomes the tree template with one leaf
//! category per input set; items are assigned by Algorithm 2 and the tree
//! is condensed exactly as in CTCR.
//!
//! Both the embeddings and the raw-pairwise ablation
//! (`global_embeddings: false`, which clusters on `1 − base` directly)
//! read their intersection counts from
//! [`intersecting_pairs`](crate::conflict::intersecting_pairs), the
//! co-occurrence kernel CTCR's conflict analysis uses, so no all-pairs
//! set intersection runs here. One inverted index serves that kernel and
//! item assignment; condensing and scoring read a dense view of the tree.

use std::time::Duration;

use oct_cluster::{cluster_with_metrics, CondensedMatrix, Dendrogram, Linkage};
use oct_obs::Metrics;
use oct_resilience::Budget;

use crate::assign::{assign_items_indexed, AssignStats};
use crate::conflict::{intersecting_pairs_indexed, RankedPair};
use crate::csr::CsrIndex;
use crate::ctcr::condense;
use crate::input::Instance;
use crate::score::{score_tree_with, ScoreOptions, TreeScore};
use crate::tree::{CatId, CategoryTree, ROOT};

/// Tuning knobs for CCT.
#[derive(Debug, Clone)]
pub struct CctConfig {
    /// Linkage criterion (the paper uses average; others are ablations).
    pub linkage: Linkage,
    /// Worker threads for the pairwise-similarity computation.
    pub threads: usize,
    /// Use the paper's global-context embeddings; when false, cluster on
    /// raw pairwise dissimilarity directly (ablation).
    pub global_embeddings: bool,
    /// Telemetry sink (see [`crate::ctcr::CtcrConfig::metrics`]); disabled
    /// by default.
    pub metrics: Metrics,
}

impl Default for CctConfig {
    fn default() -> Self {
        Self {
            linkage: Linkage::Average,
            threads: std::thread::available_parallelism().map_or(1, |p| p.get()),
            global_embeddings: true,
            metrics: Metrics::disabled(),
        }
    }
}

/// Diagnostics of a CCT run.
#[derive(Debug, Clone)]
pub struct CctStats {
    /// Item-assignment statistics.
    pub assign: AssignStats,
    /// Wall-clock spent clustering.
    pub cluster_time: Duration,
    /// Total wall-clock.
    pub total_time: Duration,
}

/// The result of a CCT run.
#[derive(Debug, Clone)]
pub struct CctResult {
    /// The constructed category tree.
    pub tree: CategoryTree,
    /// Surviving `(input set, leaf category)` pairs.
    pub targets: Vec<(u32, CatId)>,
    /// Run diagnostics.
    pub stats: CctStats,
    /// Final score over the instance.
    pub score: TreeScore,
}

/// Computes the paper's global-context embeddings as sparse vectors: the
/// `i`-th coordinate of `E(q_j)` is `base(q_j, q_i)` (non-zero only for
/// intersecting pairs, plus the diagonal).
pub fn embeddings(instance: &Instance, threads: usize) -> Vec<Vec<(u32, f32)>> {
    embeddings_indexed(instance, &instance.inverted_index(), threads)
}

/// [`embeddings`] over `index`, the inverted index of `instance`.
fn embeddings_indexed(
    instance: &Instance,
    index: &CsrIndex,
    threads: usize,
) -> Vec<Vec<(u32, f32)>> {
    let n = instance.num_sets();
    let base = instance.similarity.kind.base();
    let mut rows: Vec<Vec<(u32, f32)>> = (0..n).map(|j| vec![(j as u32, 1.0)]).collect();
    for p in pairs_of(instance, index, threads) {
        let (a, b) = (p.hi as usize, p.lo as usize);
        let qa = instance.sets[a].items.len();
        let qb = instance.sets[b].items.len();
        let sim = base.eval(qa, qb, p.inter as usize) as f32;
        if sim > 0.0 {
            rows[a].push((b as u32, sim));
            rows[b].push((a as u32, sim));
        }
    }
    for row in &mut rows {
        row.sort_unstable_by_key(|&(c, _)| c);
    }
    rows
}

/// The raw-pairwise ablation's matrix: dissimilarity `1 − base(q_i, q_j)`
/// for every pair. Every cell starts at the disjoint value
/// `1 − base(|q_i|, |q_j|, 0)` (not always 1: an empty set has recall 1
/// under Perfect-Recall), and the intersecting pairs overwrite theirs from
/// the kernel's counts, the same integers a set merge would produce.
fn raw_pairwise_matrix(instance: &Instance, index: &CsrIndex, threads: usize) -> CondensedMatrix {
    let n = instance.num_sets();
    let base = instance.similarity.kind.base();
    let sizes: Vec<usize> = instance.sets.iter().map(|s| s.items.len()).collect();
    let dissimilarity =
        |i: usize, j: usize, inter: usize| 1.0 - base.eval(sizes[i], sizes[j], inter) as f32;
    let mut m = CondensedMatrix::zeros(n);
    for i in 0..n {
        for j in (i + 1)..n {
            m.set(i, j, dissimilarity(i, j, 0));
        }
    }
    for p in pairs_of(instance, index, threads) {
        let (i, j) = (p.hi.min(p.lo) as usize, p.hi.max(p.lo) as usize);
        m.set(i, j, dissimilarity(i, j, p.inter as usize));
    }
    m
}

/// Every intersecting pair of `instance`, counted over `index` (see
/// [`intersecting_pairs`](crate::conflict::intersecting_pairs)).
fn pairs_of(instance: &Instance, index: &CsrIndex, threads: usize) -> Vec<RankedPair> {
    intersecting_pairs_indexed(instance, index, threads, &Budget::unlimited()).0
}

/// Runs CCT over `instance`.
pub fn run(instance: &Instance, config: &CctConfig) -> CctResult {
    let metrics = &config.metrics;
    let run_span = metrics.span("cct");
    let n = instance.num_sets();
    let index = instance.inverted_index();

    // Stage 1-2: embeddings + agglomerative clustering.
    let stage = run_span.child("cluster");
    let dendrogram = if n == 0 {
        Dendrogram::new(0, Vec::new())
    } else if config.global_embeddings {
        let rows = {
            let _embed = stage.child("embed");
            embeddings_indexed(instance, &index, config.threads)
        };
        let matrix = CondensedMatrix::euclidean_sparse_with(&rows, config.threads, metrics)
            .expect("matrix fill workers do not panic on valid embeddings");
        // Embedding coordinates are similarities in [0, 1], so every
        // pairwise distance is finite.
        cluster_with_metrics(matrix, config.linkage, metrics).expect("finite distances")
    } else {
        // Ablation: cluster on raw pairwise dissimilarity. Dissimilarities
        // are 1 − sim with sim ∈ [0, 1]: always finite.
        let m = raw_pairwise_matrix(instance, &index, config.threads);
        cluster_with_metrics(m, config.linkage, metrics).expect("finite distances")
    };
    let cluster_time = stage.elapsed();
    drop(stage);

    // Stage 3: tree template from the dendrogram. Internal dendrogram nodes
    // become internal categories; every input set gets a leaf category.
    let stage = run_span.child("template");
    let mut tree = CategoryTree::new();
    let mut cat_of_node: Vec<CatId> = vec![ROOT; dendrogram.num_nodes().max(n)];
    // Walk merge nodes from the root down so parents exist first.
    let roots = dendrogram.roots();
    let mut stack: Vec<(u32, CatId)> = roots.iter().map(|&r| (r, ROOT)).collect();
    while let Some((node, parent)) = stack.pop() {
        let cat = tree.add_category(parent);
        cat_of_node[node as usize] = cat;
        if let Some((a, b)) = dendrogram.children(node) {
            stack.push((a, cat));
            stack.push((b, cat));
        } else if let Some(label) = &instance.sets[node as usize].label {
            tree.set_label(cat, label.clone());
        }
    }
    let targets: Vec<(u32, CatId)> = (0..n as u32)
        .map(|s| (s, cat_of_node[s as usize]))
        .collect();
    drop(stage);

    // Stage 4: item assignment (Algorithm 2) over all of Q.
    let assign_stats = {
        let _stage = run_span.child("assign");
        assign_items_indexed(instance, &index, &mut tree, &targets, true)
    };

    // Stage 5-6: condense; Stage 7: C_misc.
    {
        let _stage = run_span.child("condense");
        condense(instance, &mut tree);
    }
    tree.add_misc_category(instance.num_items);

    let score = {
        let _stage = run_span.child("score");
        let options = ScoreOptions {
            threads: config.threads,
            metrics: metrics.clone(),
            ..ScoreOptions::default()
        };
        score_tree_with(instance, &tree, &options)
    };
    let surviving: Vec<(u32, CatId)> = targets
        .iter()
        .copied()
        .filter(|&(_, c)| !tree.is_removed(c))
        .collect();
    CctResult {
        tree,
        targets: surviving,
        stats: CctStats {
            assign: assign_stats,
            cluster_time,
            total_time: run_span.elapsed(),
        },
        score,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::{figure2_instance, InputSet, Instance};
    use crate::itemset::ItemSet;
    use crate::similarity::Similarity;

    #[test]
    fn figure7_threshold_jaccard_covers_everything() {
        // Paper Figure 7 runs CCT on the Figure 2 input with threshold
        // Jaccard δ = 0.6 and reaches the optimum: all of Q covered.
        let instance = figure2_instance(Similarity::jaccard_threshold(0.6));
        let result = run(&instance, &CctConfig::default());
        assert!(result.tree.validate(&instance).is_ok());
        assert_eq!(
            result.score.covered_count(),
            4,
            "per-set: {:?}",
            result.score.per_set
        );
        assert!((result.score.normalized - 1.0).abs() < 1e-9);
    }

    #[test]
    fn embeddings_are_similarities() {
        let instance = figure2_instance(Similarity::jaccard_threshold(0.6));
        let rows = embeddings(&instance, 1);
        // E(q1)[q2] = J(q1,q2) = 2/5.
        let e12 = rows[0]
            .iter()
            .find(|&&(c, _)| c == 1)
            .map(|&(_, v)| v)
            .expect("q1 and q2 intersect");
        assert!((e12 - 0.4).abs() < 1e-6);
        // Diagonals are 1.
        assert!(rows.iter().enumerate().all(|(j, r)| r
            .iter()
            .any(|&(c, v)| c == j as u32 && (v - 1.0).abs() < 1e-6)));
    }

    #[test]
    fn handles_single_set() {
        let instance = Instance::new(
            3,
            vec![InputSet::new(ItemSet::new(vec![0, 1]), 2.0)],
            Similarity::jaccard_threshold(0.8),
        );
        let result = run(&instance, &CctConfig::default());
        assert!(result.score.per_set[0].covered);
        assert!(result.tree.validate(&instance).is_ok());
    }

    #[test]
    fn handles_empty_instance() {
        let instance = Instance::new(0, vec![], Similarity::jaccard_threshold(0.8));
        let result = run(&instance, &CctConfig::default());
        assert_eq!(result.score.total, 0.0);
    }

    #[test]
    fn perfect_recall_uses_rp_embedding_and_stays_valid() {
        let instance = figure2_instance(Similarity::perfect_recall(0.8));
        let result = run(&instance, &CctConfig::default());
        assert!(result.tree.validate(&instance).is_ok());
        // CCT is a heuristic; it must at least cover the two nested sets.
        assert!(
            result.score.covered_count() >= 2,
            "{:?}",
            result.score.per_set
        );
    }

    #[test]
    fn metrics_capture_stages_and_cluster_merges() {
        let instance = figure2_instance(Similarity::jaccard_threshold(0.6));
        let metrics = Metrics::enabled();
        let config = CctConfig {
            metrics: metrics.clone(),
            ..CctConfig::default()
        };
        let result = run(&instance, &config);
        let report = metrics.report();
        for stage in [
            "cct",
            "cct/cluster",
            "cct/cluster/embed",
            "cct/template",
            "cct/assign",
            "cct/condense",
            "cct/score",
        ] {
            assert!(report.span(stage).is_some(), "missing span {stage}");
        }
        // A full dendrogram over n input sets has n − 1 merges.
        let n = instance.num_sets() as u64;
        assert_eq!(report.counter("cluster/leaves"), Some(n));
        assert_eq!(report.counter("cluster/merges"), Some(n - 1));
        assert!(report.span("cct").expect("run span").total >= result.stats.cluster_time);
    }

    #[test]
    fn ablation_raw_pairwise_runs() {
        let instance = figure2_instance(Similarity::jaccard_threshold(0.6));
        let config = CctConfig {
            global_embeddings: false,
            ..CctConfig::default()
        };
        let result = run(&instance, &config);
        assert!(result.tree.validate(&instance).is_ok());
        assert!(result.score.covered_count() >= 3);
    }

    #[test]
    fn raw_pairwise_matrix_matches_brute_force() {
        // An empty set, nested, crossing and disjoint pairs: every cell
        // must equal `1 − base` over a direct `ItemSet` intersection.
        let sets = [vec![], vec![0, 1, 2, 3], vec![1, 2], vec![2, 3, 4], vec![5]];
        for similarity in [
            Similarity::jaccard_threshold(0.8),
            Similarity::f1_cutoff(0.8),
            Similarity::perfect_recall(0.8),
        ] {
            let instance = Instance::new(
                6,
                sets.iter()
                    .map(|items| InputSet::new(ItemSet::new(items.clone()), 1.0))
                    .collect(),
                similarity,
            );
            let base = similarity.kind.base();
            let m = raw_pairwise_matrix(&instance, &instance.inverted_index(), 1);
            for i in 0..sets.len() {
                for j in (i + 1)..sets.len() {
                    let (a, b) = (&instance.sets[i].items, &instance.sets[j].items);
                    let sim = base.eval(a.len(), b.len(), a.intersection_size(b));
                    assert_eq!(
                        m.get(i, j).to_bits(),
                        (1.0 - sim as f32).to_bits(),
                        "{:?} cell ({i}, {j})",
                        similarity.kind
                    );
                }
            }
        }
    }

    #[test]
    fn identical_sets_cluster_adjacently() {
        let instance = Instance::new(
            4,
            vec![
                InputSet::new(ItemSet::new(vec![0, 1]), 1.0),
                InputSet::new(ItemSet::new(vec![0, 1]), 1.0),
                InputSet::new(ItemSet::new(vec![2, 3]), 1.0),
            ],
            Similarity::jaccard_threshold(0.9),
        );
        let result = run(&instance, &CctConfig::default());
        assert!(result.tree.validate(&instance).is_ok());
        // The two identical sets share items; one cover serves both.
        assert!(result.score.per_set[0].covered);
        assert!(result.score.per_set[1].covered);
    }
}
