//! Seeded inputs: the paper's datasets, relabeled by the run seed, and the
//! small random tools the workloads draw from.
//!
//! The seed relabels; it does not resize. Every run builds datasets A and B
//! from their fixed generator specs, then applies a seed-drawn permutation
//! to item ids and to query order (after windowing, for the stream, so the
//! same queries spike and fade in every run). The inputs differ from seed to seed
//! (ids, set order and therefore every tie-break), while the amount of work
//! stays the same. Logs drawn with other generator seeds change the work
//! itself: on dataset A at scale 0.5 one CTCR build took anywhere from
//! 0.83 s to 2.6 s across six generator seeds, a spread no regression bound
//! could sit inside.

use oct_core::tree::{CategoryTree, ROOT};
use oct_core::{Instance, Similarity};
use oct_datagen::catalog::Catalog;
use oct_datagen::datasets::{DatasetName, DatasetSpec};
use oct_datagen::existing_tree::{existing_tree, ExistingTreeConfig};
use oct_datagen::preprocess::{build_instance, PreprocessConfig};
use oct_datagen::queries::{generate_queries, QueryConfig, QueryLog};

/// SplitMix64: a tiny, seedable generator (the benchmark must not depend on
/// the generator the program itself uses).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and a stream label, so independent draws from
    /// one run seed do not overlap.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Self(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, values: &mut [T]) {
        for i in (1..values.len()).rev() {
            values.swap(i, self.below(i + 1));
        }
    }
}

/// One dataset's raw inputs: the query log and the existing tree that
/// preprocessing cleans against.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// `"A"` or `"B"`.
    pub name: &'static str,
    /// Universe size.
    pub num_items: u32,
    /// The relabeled raw query log.
    pub log: QueryLog,
    /// The relabeled existing tree.
    pub existing: CategoryTree,
}

impl Dataset {
    /// Dataset `name` at `scale`, generated from its fixed spec, with item
    /// ids permuted by `seed`; queries stay in generator order (see
    /// [`Dataset::shuffled`]). Mirrors `oct_datagen::datasets::generate_spec`
    /// up to (not including) preprocessing, which the workloads time.
    pub fn generate(name: DatasetName, scale: f64, seed: u64) -> Self {
        let spec = DatasetSpec::of(name);
        let items = ((spec.items as f64 * scale) as usize).max(300);
        let raw_queries = ((spec.raw_queries as f64 * scale) as usize).max(40);
        let catalog = Catalog::generate(spec.domain, items, spec.seed);
        let existing = existing_tree(&catalog, &ExistingTreeConfig::default());
        let config = QueryConfig {
            num_queries: raw_queries,
            top_k: spec.top_k,
            seed: spec.seed.wrapping_mul(0x9E37_79B9),
            ..QueryConfig::default()
        };
        let mut log = generate_queries(&catalog, &config);
        let mut perm: Vec<u32> = (0..items as u32).collect();
        Rng::new(seed, name as u64 + 1).shuffle(&mut perm);
        for q in &mut log.queries {
            for (item, _) in &mut q.results {
                *item = perm[*item as usize];
            }
        }
        Self {
            name: name.as_str(),
            num_items: items as u32,
            log,
            existing: relabel_tree(&existing, &perm),
        }
    }

    /// The run seed's order of this dataset's queries. A query's position
    /// is its set id downstream, so the order decides every tie-break.
    pub fn query_order(&self, seed: u64) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.log.queries.len()).collect();
        Rng::new(seed, 0x51 + self.num_items as u64).shuffle(&mut order);
        order
    }

    /// This dataset with its queries in [`Dataset::query_order`].
    pub fn shuffled(mut self, seed: u64) -> Self {
        self.log.queries = permute(&self.log.queries, &self.query_order(seed));
        self
    }

    /// The paper's preprocessing (§5.1) of this dataset into an instance.
    pub fn instance(&self, similarity: Similarity) -> Instance {
        let config = PreprocessConfig::default();
        build_instance(
            self.num_items,
            &self.log,
            &self.existing,
            similarity,
            &config,
        )
        .0
    }
}

/// `values` in `order`.
pub fn permute<T: Clone>(values: &[T], order: &[usize]) -> Vec<T> {
    order.iter().map(|&i| values[i].clone()).collect()
}

/// Copies `tree` with every item `i` renamed to `perm[i]`.
fn relabel_tree(tree: &CategoryTree, perm: &[u32]) -> CategoryTree {
    let mut out = CategoryTree::new();
    let mut renamed = vec![ROOT; tree.len()];
    for cat in tree.subtree(ROOT) {
        let new = match tree.parent(cat) {
            Some(parent) => out.add_category(renamed[parent as usize]),
            None => ROOT,
        };
        renamed[cat as usize] = new;
        if let Some(label) = tree.label(cat) {
            out.set_label(new, label);
        }
        out.assign_items(
            new,
            tree.direct_items(cat).iter().map(|&i| perm[i as usize]),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_ids() {
        let a = Dataset::generate(DatasetName::A, 0.02, 7).shuffled(7);
        let b = Dataset::generate(DatasetName::A, 0.02, 7).shuffled(7);
        let c = Dataset::generate(DatasetName::A, 0.02, 8).shuffled(8);
        let ids = |d: &Dataset| -> Vec<u32> {
            d.log
                .queries
                .iter()
                .flat_map(|q| q.results.iter().map(|r| r.0))
                .collect()
        };
        assert_eq!(ids(&a), ids(&b));
        assert_ne!(ids(&a), ids(&c));
        // Relabeling keeps the work: same number of sets after preprocessing.
        let sim = Similarity::jaccard_threshold(0.8);
        assert_eq!(a.instance(sim).num_sets(), c.instance(sim).num_sets());
    }
}
