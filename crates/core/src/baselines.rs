//! The evaluation baselines of §5.2: IC-S and IC-Q.
//!
//! Both cluster the *items* directly (unlike CCT, which clusters the input
//! sets) and read the cluster hierarchy off as the category tree:
//!
//! * **IC-S** — items embedded from their (product-title) semantics; the
//!   embeddings are supplied by the caller (`oct-datagen` derives them from
//!   the synthetic catalog attributes, standing in for the paper's
//!   domain-tuned title-embedding model);
//! * **IC-Q** — items embedded by input-set membership: coordinate `i` of
//!   an item's vector is 1 iff the item appears in the `i`-th input set.
//!
//! Small inputs use exact agglomerative clustering (as the adapted \[18\]
//! does); larger inputs fall back to bisecting 2-means, which produces the
//! same kind of binary hierarchy without the `O(n²)` distance matrix.
//! The existing-tree baseline (ET) is data, not an algorithm — it is
//! produced by the data generator.

use oct_cluster::bisecting::{bisect, BisectConfig, BisectNode};
use oct_cluster::{cluster, ClusterError, CondensedMatrix, Linkage};

use crate::input::Instance;
use crate::itemset::ItemId;
use crate::score::{score_tree, TreeScore};
use crate::tree::{CategoryTree, ROOT};

/// Typed failures of the item-clustering baselines.
///
/// These entry points take caller-supplied embeddings (CLI paths, serving
/// pipelines), so malformed input must surface as a value, not a panic —
/// `run_isolated` containment stays the last resort for genuine bugs, not
/// the API for predictable bad input.
#[derive(Debug, Clone, PartialEq)]
pub enum BaselineError {
    /// `item_embeddings.len() != instance.num_items`.
    EmbeddingCount {
        /// Required row count (`instance.num_items`).
        expected: usize,
        /// Supplied row count.
        found: usize,
    },
    /// An embedding row disagrees with row 0 on dimension.
    RaggedEmbedding {
        /// First offending row.
        row: usize,
        /// Dimension of row 0.
        expected: usize,
        /// Dimension found.
        found: usize,
    },
    /// An embedding coordinate is NaN or infinite.
    NonFiniteEmbedding {
        /// First offending row.
        row: usize,
    },
    /// The clustering layer rejected the derived distances (or a contained
    /// worker panic).
    Cluster(ClusterError),
}

impl std::fmt::Display for BaselineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BaselineError::EmbeddingCount { expected, found } => {
                write!(f, "{found} embeddings for {expected} universe items")
            }
            BaselineError::RaggedEmbedding {
                row,
                expected,
                found,
            } => write!(
                f,
                "embedding row {row} has dimension {found}, expected {expected}"
            ),
            BaselineError::NonFiniteEmbedding { row } => {
                write!(f, "embedding row {row} has a non-finite coordinate")
            }
            BaselineError::Cluster(inner) => inner.fmt(f),
        }
    }
}

impl std::error::Error for BaselineError {}

impl From<ClusterError> for BaselineError {
    fn from(inner: ClusterError) -> Self {
        BaselineError::Cluster(inner)
    }
}

/// Above this item count the baselines switch from exact agglomerative
/// clustering to bisecting 2-means.
pub const AGGLOMERATIVE_LIMIT: usize = 3000;

/// Configuration for the item-clustering baselines.
#[derive(Debug, Clone)]
pub struct BaselineConfig {
    /// Item count cutoff for the exact agglomerative path.
    pub agglomerative_limit: usize,
    /// Bisecting k-means settings for the large path.
    pub bisect: BisectConfig,
}

impl Default for BaselineConfig {
    fn default() -> Self {
        Self {
            agglomerative_limit: AGGLOMERATIVE_LIMIT,
            bisect: BisectConfig::default(),
        }
    }
}

/// Result of an item-clustering baseline.
#[derive(Debug, Clone)]
pub struct BaselineResult {
    /// The produced category tree.
    pub tree: CategoryTree,
    /// Its score over the instance.
    pub score: TreeScore,
}

/// IC-S: cluster items by the supplied semantic embeddings.
///
/// `item_embeddings[i]` must be the dense vector of item `i`
/// (`len == instance.num_items`).
///
/// # Errors
/// Returns [`BaselineError`] on an embedding-count mismatch, rows of unequal
/// dimension, or non-finite embedding coordinates.
pub fn ic_s(
    instance: &Instance,
    item_embeddings: &[Vec<f32>],
    config: &BaselineConfig,
) -> Result<BaselineResult, BaselineError> {
    if item_embeddings.len() != instance.num_items as usize {
        return Err(BaselineError::EmbeddingCount {
            expected: instance.num_items as usize,
            found: item_embeddings.len(),
        });
    }
    validate_rows(item_embeddings)?;
    let tree = tree_from_vectors(item_embeddings, config)?;
    let score = score_tree(instance, &tree);
    Ok(BaselineResult { tree, score })
}

/// Rejects ragged and non-finite embedding rows before they reach the
/// clustering layer, so both the exact and the bisecting path see only
/// well-formed input.
fn validate_rows(rows: &[Vec<f32>]) -> Result<(), BaselineError> {
    let expected = rows.first().map_or(0, Vec::len);
    for (row, r) in rows.iter().enumerate() {
        if r.len() != expected {
            return Err(BaselineError::RaggedEmbedding {
                row,
                expected,
                found: r.len(),
            });
        }
        if r.iter().any(|x| !x.is_finite()) {
            return Err(BaselineError::NonFiniteEmbedding { row });
        }
    }
    Ok(())
}

/// IC-Q: cluster items by input-set membership vectors.
///
/// # Errors
/// The membership rows are self-generated and always well-formed, so errors
/// can only come from the clustering layer's `run_isolated` containment
/// (a contained worker panic) — the last-resort path.
pub fn ic_q(instance: &Instance, config: &BaselineConfig) -> Result<BaselineResult, BaselineError> {
    let index = instance.inverted_index();
    let n = instance.num_items as usize;
    let tree = if n <= config.agglomerative_limit {
        // Exact path on sparse membership vectors.
        let rows: Vec<Vec<(u32, f32)>> = index
            .entries()
            .map(|(_, sets)| sets.iter().map(|&s| (s, 1.0)).collect())
            .collect();
        let matrix = CondensedMatrix::euclidean_sparse(&rows)?;
        tree_from_dendrogram(n, matrix)?
    } else {
        // Large path: hash memberships into a fixed-width dense vector.
        const DIM: usize = 64;
        let rows: Vec<Vec<f32>> = index
            .entries()
            .map(|(_, sets)| {
                let mut v = vec![0.0f32; DIM];
                for &s in sets {
                    let h = (s as u64).wrapping_mul(0x9E3779B97F4A7C15);
                    v[(h % DIM as u64) as usize] += 1.0;
                }
                v
            })
            .collect();
        tree_from_bisect(&rows, &config.bisect)
    };
    let score = score_tree(instance, &tree);
    Ok(BaselineResult { tree, score })
}

/// Rows must already be validated (`validate_rows`); the clustering layer
/// still double-checks and its errors propagate as [`BaselineError::Cluster`].
fn tree_from_vectors(
    rows: &[Vec<f32>],
    config: &BaselineConfig,
) -> Result<CategoryTree, BaselineError> {
    if rows.len() <= config.agglomerative_limit {
        let matrix = CondensedMatrix::euclidean_dense(rows)?;
        tree_from_dendrogram(rows.len(), matrix)
    } else {
        Ok(tree_from_bisect(rows, &config.bisect))
    }
}

fn tree_from_dendrogram(
    num_items: usize,
    matrix: CondensedMatrix,
) -> Result<CategoryTree, BaselineError> {
    let dendrogram = cluster(matrix, Linkage::Average)?;
    let mut tree = CategoryTree::new();
    let mut stack: Vec<(u32, u32)> = dendrogram.roots().into_iter().map(|r| (r, ROOT)).collect();
    while let Some((node, parent)) = stack.pop() {
        match dendrogram.children(node) {
            Some((a, b)) => {
                let cat = tree.add_category(parent);
                stack.push((a, cat));
                stack.push((b, cat));
            }
            None => {
                // Leaves are single items: fold them into the parent as
                // direct items rather than one category per item.
                debug_assert!((node as usize) < num_items);
                tree.assign_item(parent, node as ItemId);
            }
        }
    }
    Ok(tree)
}

fn tree_from_bisect(rows: &[Vec<f32>], config: &BisectConfig) -> CategoryTree {
    let hierarchy = bisect(rows, config);
    let mut tree = CategoryTree::new();
    build_bisect(&hierarchy, ROOT, &mut tree);
    tree
}

fn build_bisect(node: &BisectNode, parent: u32, tree: &mut CategoryTree) {
    match node {
        BisectNode::Leaf(points) => {
            let cat = tree.add_category(parent);
            tree.assign_items(cat, points.iter().copied());
        }
        BisectNode::Split(a, b) => {
            let cat = tree.add_category(parent);
            build_bisect(a, cat, tree);
            build_bisect(b, cat, tree);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::{InputSet, Instance};
    use crate::itemset::ItemSet;
    use crate::similarity::Similarity;

    /// Six items in two obvious semantic groups; two input sets matching
    /// the groups. The baselines should cover both.
    fn grouped_instance() -> (Instance, Vec<Vec<f32>>) {
        let sets = vec![
            InputSet::new(ItemSet::new(vec![0, 1, 2]), 1.0),
            InputSet::new(ItemSet::new(vec![3, 4, 5]), 1.0),
        ];
        let instance = Instance::new(6, sets, Similarity::jaccard_threshold(0.9));
        let embeddings: Vec<Vec<f32>> = (0..6)
            .map(|i| {
                if i < 3 {
                    vec![0.0 + i as f32 * 0.01, 0.0]
                } else {
                    vec![10.0 + i as f32 * 0.01, 10.0]
                }
            })
            .collect();
        (instance, embeddings)
    }

    #[test]
    fn ic_s_recovers_semantic_groups() {
        let (instance, embeddings) = grouped_instance();
        let result =
            ic_s(&instance, &embeddings, &BaselineConfig::default()).expect("valid embeddings");
        assert!(result.tree.validate(&instance).is_ok());
        assert_eq!(
            result.score.covered_count(),
            2,
            "{:?}",
            result.score.per_set
        );
    }

    #[test]
    fn ic_q_recovers_membership_groups() {
        let (instance, _) = grouped_instance();
        let result = ic_q(&instance, &BaselineConfig::default()).expect("valid instance");
        assert!(result.tree.validate(&instance).is_ok());
        assert_eq!(
            result.score.covered_count(),
            2,
            "{:?}",
            result.score.per_set
        );
    }

    #[test]
    fn ic_s_bisecting_path_is_valid() {
        let (instance, embeddings) = grouped_instance();
        let config = BaselineConfig {
            agglomerative_limit: 2, // force the bisecting path
            bisect: oct_cluster::bisecting::BisectConfig {
                min_cluster: 3,
                ..Default::default()
            },
        };
        let result = ic_s(&instance, &embeddings, &config).expect("valid embeddings");
        assert!(result.tree.validate(&instance).is_ok());
        assert!(result.score.covered_count() >= 1);
    }

    #[test]
    fn ic_q_bisecting_path_is_valid() {
        let (instance, _) = grouped_instance();
        let config = BaselineConfig {
            agglomerative_limit: 2,
            ..BaselineConfig::default()
        };
        let result = ic_q(&instance, &config).expect("valid instance");
        assert!(result.tree.validate(&instance).is_ok());
    }

    #[test]
    fn ic_s_rejects_wrong_embedding_count() {
        let (instance, _) = grouped_instance();
        let err = ic_s(&instance, &[vec![0.0]], &BaselineConfig::default())
            .expect_err("count mismatch must be rejected");
        assert_eq!(
            err,
            BaselineError::EmbeddingCount {
                expected: 6,
                found: 1
            }
        );
    }

    #[test]
    fn ic_s_rejects_ragged_embeddings() {
        let (instance, mut embeddings) = grouped_instance();
        embeddings[3] = vec![1.0, 2.0, 3.0];
        let err = ic_s(&instance, &embeddings, &BaselineConfig::default())
            .expect_err("ragged rows must be rejected");
        assert_eq!(
            err,
            BaselineError::RaggedEmbedding {
                row: 3,
                expected: 2,
                found: 3
            }
        );
    }

    #[test]
    fn ic_s_rejects_non_finite_embeddings() {
        let (instance, mut embeddings) = grouped_instance();
        embeddings[2][1] = f32::NAN;
        for config in [
            BaselineConfig::default(),
            BaselineConfig {
                agglomerative_limit: 2, // bisecting path must reject too
                ..BaselineConfig::default()
            },
        ] {
            let err = ic_s(&instance, &embeddings, &config)
                .expect_err("non-finite coordinates must be rejected");
            assert_eq!(err, BaselineError::NonFiniteEmbedding { row: 2 });
        }
    }

    #[test]
    fn baseline_errors_display_their_shape() {
        let err = BaselineError::EmbeddingCount {
            expected: 6,
            found: 1,
        };
        assert_eq!(err.to_string(), "1 embeddings for 6 universe items");
        let err = BaselineError::NonFiniteEmbedding { row: 2 };
        assert!(err.to_string().contains("row 2"));
    }

    #[test]
    fn handles_items_in_no_set() {
        let sets = vec![InputSet::new(ItemSet::new(vec![0, 1]), 1.0)];
        let instance = Instance::new(4, sets, Similarity::jaccard_threshold(0.5));
        let result = ic_q(&instance, &BaselineConfig::default()).expect("valid instance");
        assert!(result.tree.validate(&instance).is_ok());
        // Items 2 and 3 have zero membership vectors and cluster together
        // away from {0,1}, so the set is still coverable.
        assert!(result.score.covered_count() >= 1);
    }
}
