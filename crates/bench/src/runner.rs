//! Shared algorithm-runner utilities for the experiments.

use oct_core::baselines::{self, BaselineConfig};
use oct_core::cct::{self, CctConfig};
use oct_core::ctcr::{self, CtcrConfig};
use oct_core::input::Instance;
use oct_core::score::{score_tree_with, ScoreOptions};
use oct_core::tree::CategoryTree;
use oct_datagen::embeddings::item_embeddings;
use oct_datagen::GeneratedDataset;

/// Normalized scores of the five compared algorithms on one instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlgoScores {
    /// The MIS-based algorithm (§3).
    pub ctcr: f64,
    /// The clustering-based algorithm (§4).
    pub cct: f64,
    /// Item clustering by semantic (title) embeddings.
    pub ic_s: f64,
    /// Item clustering by set membership.
    pub ic_q: f64,
    /// The existing manually-built tree.
    pub et: f64,
}

impl AlgoScores {
    /// `(name, score)` pairs in display order.
    pub fn rows(&self) -> [(&'static str, f64); 5] {
        [
            ("CTCR", self.ctcr),
            ("CCT", self.cct),
            ("IC-S", self.ic_s),
            ("IC-Q", self.ic_q),
            ("ET", self.et),
        ]
    }
}

/// Runner knobs shared by all experiments.
#[derive(Debug, Clone, Default)]
pub struct RunnerConfig {
    /// CTCR configuration.
    pub ctcr: CtcrConfig,
    /// CCT configuration.
    pub cct: CctConfig,
    /// Baseline (item clustering) configuration.
    pub baseline: BaselineConfig,
    /// Scoring options for the standalone (baseline / ET) score passes.
    pub score: ScoreOptions,
}

/// The δ-independent baseline trees of a dataset: IC-S and IC-Q cluster
/// items (no threshold involved) and ET is fixed, so a δ sweep can build
/// them once and only re-score.
pub struct BaselineTrees {
    /// IC-S item-clustering tree.
    pub ic_s: CategoryTree,
    /// IC-Q item-clustering tree.
    pub ic_q: CategoryTree,
}

/// Builds the IC-S and IC-Q trees for a dataset.
pub fn build_baseline_trees(dataset: &GeneratedDataset, config: &RunnerConfig) -> BaselineTrees {
    let embeddings = item_embeddings(&dataset.catalog);
    let ic_s = baselines::ic_s(&dataset.instance, &embeddings, &config.baseline)
        .expect("datagen embeddings are dense, uniform, and finite");
    let ic_q = baselines::ic_q(&dataset.instance, &config.baseline)
        .expect("membership rows are self-generated and well-formed");
    BaselineTrees {
        ic_s: ic_s.tree,
        ic_q: ic_q.tree,
    }
}

/// Scores all five algorithms on `instance`, rebuilding only the
/// δ-dependent trees (CTCR, CCT) and re-scoring the fixed baselines.
pub fn score_with_baselines(
    dataset: &GeneratedDataset,
    instance: &Instance,
    baselines_trees: &BaselineTrees,
    config: &RunnerConfig,
) -> AlgoScores {
    let ctcr_result = ctcr::run(instance, &config.ctcr);
    let cct_result = cct::run(instance, &config.cct);
    AlgoScores {
        ctcr: ctcr_result.score.normalized,
        cct: cct_result.score.normalized,
        ic_s: score_tree_with(instance, &baselines_trees.ic_s, &config.score).normalized,
        ic_q: score_tree_with(instance, &baselines_trees.ic_q, &config.score).normalized,
        et: score_tree_with(instance, &dataset.existing, &config.score).normalized,
    }
}

/// One-shot convenience: build baselines and score everything once.
pub fn run_all_algorithms(
    dataset: &GeneratedDataset,
    instance: &Instance,
    config: &RunnerConfig,
) -> AlgoScores {
    let trees = build_baseline_trees(dataset, config);
    score_with_baselines(dataset, instance, &trees, config)
}

/// Rebuilds an instance under a different default threshold `delta`,
/// keeping the same sets and weights (δ sweeps must not re-generate data).
pub fn with_delta(instance: &Instance, delta: f64) -> Instance {
    let mut sets = instance.sets.clone();
    for s in &mut sets {
        s.threshold = None;
    }
    let similarity = oct_core::similarity::Similarity::new(instance.similarity.kind, delta);
    let mut out = Instance::new(instance.num_items, sets, similarity);
    out.item_bounds = instance.item_bounds.clone();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use oct_core::similarity::Similarity;
    use oct_datagen::{generate, DatasetName};

    #[test]
    fn runner_produces_scores_in_range() {
        let ds = generate(DatasetName::A, 0.02, Similarity::jaccard_threshold(0.7));
        let scores = run_all_algorithms(&ds, &ds.instance, &RunnerConfig::default());
        for (name, s) in scores.rows() {
            assert!((0.0..=1.0).contains(&s), "{name} score {s} out of range");
        }
        // The headline claim: CTCR leads.
        assert!(scores.ctcr >= scores.cct, "{scores:?}");
        assert!(scores.ctcr >= scores.ic_s, "{scores:?}");
        assert!(scores.ctcr >= scores.ic_q, "{scores:?}");
        assert!(scores.ctcr >= scores.et, "{scores:?}");
    }

    #[test]
    fn with_delta_changes_threshold_only() {
        let ds = generate(DatasetName::A, 0.02, Similarity::jaccard_threshold(0.9));
        let relaxed = with_delta(&ds.instance, 0.5);
        assert_eq!(relaxed.num_sets(), ds.instance.num_sets());
        assert_eq!(relaxed.similarity.delta, 0.5);
        assert_eq!(relaxed.similarity.kind, ds.instance.similarity.kind);
    }

    #[test]
    fn baseline_trees_are_delta_independent() {
        let ds = generate(DatasetName::A, 0.01, Similarity::jaccard_threshold(0.9));
        let config = RunnerConfig::default();
        let trees = build_baseline_trees(&ds, &config);
        let strict = score_with_baselines(&ds, &ds.instance, &trees, &config);
        let relaxed_inst = with_delta(&ds.instance, 0.5);
        let relaxed = score_with_baselines(&ds, &relaxed_inst, &trees, &config);
        // Same trees, laxer threshold ⇒ baseline scores may only rise.
        assert!(relaxed.ic_s + 1e-9 >= strict.ic_s);
        assert!(relaxed.ic_q + 1e-9 >= strict.ic_q);
    }
}
