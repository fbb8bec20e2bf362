//! # oct-core — Automated Category Tree Construction
//!
//! A Rust implementation of *Automated Category Tree Construction in
//! E-Commerce* (Avron, Gershtein, Guy, Milo, Novgorodov — SIGMOD 2022).
//!
//! The **Optimal Category Tree** problem (`OCT`) takes weighted candidate
//! categories (item sets — typically search-query result sets) and builds a
//! category tree maximizing `Σ_q W(q) · max_{C∈T} S(q, C)` subject to the
//! e-commerce constraint that every item lives on a bounded number of
//! root-to-leaf branches.
//!
//! ## Quick start
//!
//! ```
//! use oct_core::prelude::*;
//!
//! // Universe of 6 items; two candidate categories from a query log.
//! let sets = vec![
//!     InputSet::new(ItemSet::new(vec![0, 1, 2]), 3.0).with_label("memory cards"),
//!     InputSet::new(ItemSet::new(vec![3, 4, 5]), 1.0).with_label("tripods"),
//! ];
//! let instance = Instance::new(6, sets, Similarity::jaccard_threshold(0.8));
//!
//! let result = ctcr::run(&instance, &CtcrConfig::default());
//! assert_eq!(result.score.covered_count(), 2);
//! assert!(result.tree.validate(&instance).is_ok());
//! ```
//!
//! ## Modules
//!
//! * [`input`] / [`itemset`] / [`similarity`] — the problem model (§2);
//! * [`csr`] — the CSR inverted index behind every all-pairs count;
//! * [`tree`] / [`score`] — the solution space and objective;
//! * [`conflict`] — 2-/3-conflict analysis (§3.1–3.3);
//! * [`ctcr`] — the MIS-based Category Tree Conflict Resolver (§3);
//! * [`assign`] — the greedy item-assignment procedure (Algorithm 2);
//! * [`cct`] — the clustering-based algorithm (§4);
//! * [`baselines`] — the IC-S / IC-Q comparison algorithms (§5.2);
//! * [`update`] — continual conservative updates (§2.3);
//! * [`incremental`] — streaming maintenance under query-log deltas with
//!   localized conflict/MIS repair (extension, see DESIGN.md §16);
//! * [`labeling`] / [`navigation`] — the taxonomist aids of §2.3;
//! * [`workflow`] — the human-in-the-loop reemployment loop of §5.4;
//! * [`repair`] — a slack-aware cover-repair stage (extension, see DESIGN.md);
//! * [`facets`] / [`dot`] — faceted-search analysis and Graphviz export;
//! * [`vector`] — a deterministic ANN index over category centroid
//!   embeddings for narrow-then-rerank candidate generation (DESIGN.md §19);
//! * [`persist`] — compact binary persistence of instances and trees.

#![warn(missing_docs)]

pub mod assign;
pub mod baselines;
pub mod cct;
pub mod conflict;
pub mod csr;
pub mod ctcr;
pub mod dot;
pub mod facets;
pub mod incremental;
pub mod input;
pub mod itemset;
pub mod labeling;
pub mod navigation;
pub mod persist;
pub mod point;
pub mod repair;
pub mod score;
pub mod similarity;
pub mod tree;
pub mod update;
pub mod util;
pub mod vector;
pub mod workflow;

pub use cct::CctConfig;
pub use csr::CsrIndex;
pub use ctcr::CtcrConfig;
pub use input::{InputSet, Instance};
pub use itemset::{ItemId, ItemSet};
pub use point::{PointCover, PointIndex};
pub use score::{score_tree, score_tree_with, ScoreOptions, TreeScore};
pub use similarity::{Similarity, SimilarityKind};
pub use tree::{CatId, CategoryTree, ROOT};
pub use vector::{VectorConfig, VectorError, VectorIndex};

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::baselines::{self, BaselineConfig, BaselineError};
    pub use crate::cct::{self, CctConfig};
    pub use crate::csr::CsrIndex;
    pub use crate::ctcr::{self, CtcrConfig};
    pub use crate::dot;
    pub use crate::facets;
    pub use crate::incremental::{
        self, BatchOutcome, DeltaBatch, SetDelta, SetId, StreamConfig, StreamEngine,
    };
    pub use crate::input::{InputSet, Instance};
    pub use crate::itemset::{ItemId, ItemSet};
    pub use crate::labeling;
    pub use crate::navigation;
    pub use crate::persist;
    pub use crate::point::{PointCover, PointIndex};
    pub use crate::repair;
    pub use crate::score::{score_tree, score_tree_with, ScoreOptions, TreeScore};
    pub use crate::similarity::{Similarity, SimilarityKind};
    pub use crate::tree::{CatId, CategoryTree, ROOT};
    pub use crate::update;
    pub use crate::vector::{self, VectorConfig, VectorError, VectorIndex};
    pub use crate::workflow;
}
