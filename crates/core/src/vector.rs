//! Embedding-native candidate generation: a deterministic, std-only
//! approximate-nearest-neighbor index over category centroid embeddings.
//!
//! The paper's CCT variant already embeds input sets; this module promotes
//! that idea into a first-class vector index for *serving*: every category
//! (and every query) is embedded by feature-hashing its item membership into
//! a fixed-dimension signed vector — the same hashing idiom the IC-Q
//! baseline's large path uses — and an HNSW graph over the category
//! centroids answers "which categories look like this item set" in
//! sub-linear time. Exact scoring then reranks only those candidates
//! (narrow-then-rerank), so the approximate stage can only cost recall,
//! never correctness of the scores it reports.
//!
//! ## Determinism
//!
//! Construction and search are pure functions of `(vectors, ids, config)`:
//!
//! * node levels come from `splitmix64(seed ^ slot)` — no RNG state;
//! * all float comparisons use [`f32::total_cmp`] with ascending-slot
//!   tie-breaks, so neighbor lists and beam traversals are reproducible
//!   across runs, replicas, and platforms (distances are sums/products of
//!   finite `f32`s evaluated in a fixed order);
//! * insertion order is slot order.
//!
//! Two replicas building an index from the same tree therefore hold
//! byte-identical graphs, which is what lets the router's whole-fleet
//! `NAVIGATE` rendezvous treat every replica as interchangeable.
//!
//! ## The `ef` knob
//!
//! [`VectorIndex::search`] takes a beam width `ef` (clamped to `>= k`):
//! wider beams visit more of the graph, trading latency for recall. Beams
//! at least as wide as the index degenerate to an exhaustive scan —
//! [`VectorIndex::scan`] — which makes "`ef` large enough ⇒ exact recall"
//! a guarantee rather than a tendency, and gives differential tests a
//! closed form for the exact answer.

use crate::tree::{CatId, CategoryTree};

/// Default embedding dimension (matches the IC-Q large-path hash width).
pub const DEFAULT_DIM: usize = 64;
/// Default max neighbors per node per layer (layer 0 keeps `2 * M`).
pub const DEFAULT_M: usize = 8;
/// Default construction beam width.
pub const DEFAULT_EF_CONSTRUCTION: usize = 64;
/// Default search beam width.
pub const DEFAULT_EF_SEARCH: usize = 64;
/// Default construction seed. Every replica must use the same seed for
/// byte-identical indexes; this is that fleet-wide default.
pub const DEFAULT_SEED: u64 = 0x0C7A_11CE_5EED_0001;

/// Construction parameters for a [`VectorIndex`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VectorConfig {
    /// Embedding dimension.
    pub dim: usize,
    /// Max neighbors per node per layer (layer 0 keeps `2 * m`).
    pub m: usize,
    /// Construction-time beam width.
    pub ef_construction: usize,
    /// Level-assignment seed.
    pub seed: u64,
}

impl Default for VectorConfig {
    fn default() -> Self {
        Self {
            dim: DEFAULT_DIM,
            m: DEFAULT_M,
            ef_construction: DEFAULT_EF_CONSTRUCTION,
            seed: DEFAULT_SEED,
        }
    }
}

/// Typed construction failures. Building from caller-supplied vectors is
/// total: bad input yields an error, never a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VectorError {
    /// A row's dimension disagrees with the config.
    RaggedRow {
        /// Offending row.
        index: usize,
        /// Expected dimension.
        expected: usize,
        /// Found dimension.
        found: usize,
    },
    /// A coordinate is NaN or infinite.
    NonFinite {
        /// Offending row.
        index: usize,
    },
    /// `ids` and `vectors` disagree on length.
    CountMismatch {
        /// Number of ids.
        ids: usize,
        /// Number of vectors.
        vectors: usize,
    },
    /// A degenerate config (`dim == 0` or `m < 2`).
    BadConfig(&'static str),
}

impl std::fmt::Display for VectorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VectorError::RaggedRow {
                index,
                expected,
                found,
            } => write!(f, "row {index} has dimension {found}, expected {expected}"),
            VectorError::NonFinite { index } => {
                write!(f, "row {index} has a non-finite coordinate")
            }
            VectorError::CountMismatch { ids, vectors } => {
                write!(f, "{ids} ids for {vectors} vectors")
            }
            VectorError::BadConfig(what) => write!(f, "bad config: {what}"),
        }
    }
}

impl std::error::Error for VectorError {}

/// splitmix64 — the same tiny deterministic mixer the chaos harness uses
/// for per-connection schedules.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Adds item `i`'s signed feature-hash contribution to `out`.
///
/// Each item deterministically owns one coordinate and a sign — a signed
/// random projection of the item-membership indicator vector, the same
/// hashing idiom as the IC-Q large path but with a sign bit so distinct
/// sets do not all drift toward the all-positive orthant.
fn add_item(out: &mut [f32], item: u32) {
    let h = splitmix64(u64::from(item).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let slot = (h % out.len() as u64) as usize;
    out[slot] += if h >> 63 == 0 { 1.0 } else { -1.0 };
}

/// Embeds an item set as an L2-normalized signed feature-hash centroid.
///
/// Duplicates are counted once (set semantics). The result is the zero
/// vector only for the empty set (or pathological full hash cancellation);
/// otherwise Euclidean distance between two embeddings is monotone in the
/// cosine of their membership indicators — a cheap, deterministic proxy
/// for set overlap.
pub fn embed_items(items: &[u32], dim: usize) -> Vec<f32> {
    let mut v = vec![0.0f32; dim.max(1)];
    let mut sorted: Vec<u32> = items.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    for &item in &sorted {
        add_item(&mut v, item);
    }
    normalize(&mut v);
    v
}

fn normalize(v: &mut [f32]) {
    let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
    if norm > 0.0 {
        for x in v.iter_mut() {
            *x /= norm;
        }
    }
}

/// Category centroid embeddings for every live, non-empty category of
/// `tree`: `(ids, vectors)` with `ids[i]` the [`CatId`] of row `i`.
///
/// Empty categories are excluded — they can never intersect a query, so
/// the exhaustive cover scan never evaluates them either, and excluding
/// them keeps "candidates ⊇ all intersecting categories" reachable with a
/// beam covering the whole index.
pub fn category_embeddings(tree: &CategoryTree, dim: usize) -> (Vec<CatId>, Vec<Vec<f32>>) {
    let full = tree.materialize();
    let mut ids = Vec::new();
    let mut vectors = Vec::new();
    for cat in tree.live_categories() {
        let set = &full[cat as usize];
        if set.is_empty() {
            continue;
        }
        ids.push(cat);
        vectors.push(embed_items(set.as_slice(), dim));
    }
    (ids, vectors)
}

/// An f32 distance ordered totally (ascending) with a slot tie-break.
/// All arithmetic here produces finite values (inputs are validated), so
/// `total_cmp` is both safe and bit-stable.
#[derive(Clone, Copy, PartialEq)]
struct Scored {
    dist: f32,
    slot: u32,
}

impl Eq for Scored {}

impl Ord for Scored {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.dist
            .total_cmp(&other.dist)
            .then(self.slot.cmp(&other.slot))
    }
}

impl PartialOrd for Scored {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A deterministic HNSW index over external `u32` ids.
#[derive(Debug, Clone, PartialEq)]
pub struct VectorIndex {
    pub(crate) config: VectorConfig,
    /// External id per slot (category id, or input-set index for CCT).
    pub(crate) ids: Vec<u32>,
    /// Row-major `n × dim` vectors.
    pub(crate) vectors: Vec<f32>,
    /// Top layer per slot.
    pub(crate) levels: Vec<u8>,
    /// `neighbors[layer][slot]` — adjacency per layer; slots above their
    /// level keep empty lists (layer 0 covers every slot).
    pub(crate) neighbors: Vec<Vec<Vec<u32>>>,
    /// Entry slot (a highest-level node; lowest slot on ties).
    pub(crate) entry: u32,
}

impl VectorIndex {
    /// Builds an index over `vectors` (validated: uniform `config.dim`
    /// rows, finite coordinates, one id per vector).
    pub fn build(
        ids: Vec<u32>,
        vectors: Vec<Vec<f32>>,
        config: &VectorConfig,
    ) -> Result<Self, VectorError> {
        if config.dim == 0 {
            return Err(VectorError::BadConfig("dim must be positive"));
        }
        if config.m < 2 {
            return Err(VectorError::BadConfig("m must be at least 2"));
        }
        if ids.len() != vectors.len() {
            return Err(VectorError::CountMismatch {
                ids: ids.len(),
                vectors: vectors.len(),
            });
        }
        let mut flat = Vec::with_capacity(vectors.len() * config.dim);
        for (index, row) in vectors.iter().enumerate() {
            if row.len() != config.dim {
                return Err(VectorError::RaggedRow {
                    index,
                    expected: config.dim,
                    found: row.len(),
                });
            }
            if row.iter().any(|x| !x.is_finite()) {
                return Err(VectorError::NonFinite { index });
            }
            flat.extend_from_slice(row);
        }
        let mut index = Self {
            config: config.clone(),
            ids,
            vectors: flat,
            levels: Vec::new(),
            neighbors: vec![Vec::new()],
            entry: 0,
        };
        index.link_all();
        Ok(index)
    }

    /// Builds the category-centroid index for `tree` (see
    /// [`category_embeddings`]). Infallible: tree-derived embeddings are
    /// finite and uniform by construction.
    pub fn for_tree(tree: &CategoryTree, config: &VectorConfig) -> Self {
        let (ids, vectors) = category_embeddings(tree, config.dim);
        Self::build(ids, vectors, config).expect("tree-derived embeddings are well-formed")
    }

    /// Number of indexed vectors.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// `true` when nothing is indexed.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The construction config.
    pub fn config(&self) -> &VectorConfig {
        &self.config
    }

    /// The external ids, slot order.
    pub fn ids(&self) -> &[u32] {
        &self.ids
    }

    fn row(&self, slot: u32) -> &[f32] {
        let dim = self.config.dim;
        &self.vectors[slot as usize * dim..(slot as usize + 1) * dim]
    }

    fn distance(&self, query: &[f32], slot: u32) -> f32 {
        let row = self.row(slot);
        let mut acc = 0.0f32;
        for (a, b) in query.iter().zip(row) {
            let d = a - b;
            acc += d * d;
        }
        acc
    }

    /// Deterministic level assignment: geometric with ratio `1/m`, from
    /// `splitmix64(seed ^ slot)`. Capped so a pathological hash cannot
    /// produce an absurd tower.
    fn level_for(&self, slot: u32) -> u8 {
        const MAX_LEVEL: u8 = 16;
        let mut h = splitmix64(self.config.seed ^ u64::from(slot));
        let mut level = 0u8;
        // Each level is kept with probability 1/m: consume ⌈log2 m⌉-ish
        // bits per trial via modulo on a remixed word.
        while level < MAX_LEVEL {
            if !h.is_multiple_of(self.config.m as u64) {
                break;
            }
            level += 1;
            h = splitmix64(h);
        }
        level
    }

    /// Beam search one layer: best-first from `entries`, beam `ef`,
    /// returning up to `ef` closest slots (ascending distance, slot
    /// tie-break).
    fn search_layer(&self, query: &[f32], entries: &[u32], ef: usize, layer: usize) -> Vec<Scored> {
        use std::collections::BinaryHeap;
        let mut visited = vec![false; self.ids.len()];
        // Min-heap of frontier (Reverse), max-heap of current best `ef`.
        let mut frontier: BinaryHeap<std::cmp::Reverse<Scored>> = BinaryHeap::new();
        let mut best: BinaryHeap<Scored> = BinaryHeap::new();
        for &slot in entries {
            if std::mem::replace(&mut visited[slot as usize], true) {
                continue;
            }
            let s = Scored {
                dist: self.distance(query, slot),
                slot,
            };
            frontier.push(std::cmp::Reverse(s));
            best.push(s);
        }
        while best.len() > ef {
            best.pop();
        }
        while let Some(std::cmp::Reverse(current)) = frontier.pop() {
            let worst = best.peek().copied();
            if let Some(w) = worst {
                if best.len() >= ef && Scored::cmp(&current, &w).is_gt() {
                    break;
                }
            }
            for &next in &self.neighbors[layer][current.slot as usize] {
                if std::mem::replace(&mut visited[next as usize], true) {
                    continue;
                }
                let s = Scored {
                    dist: self.distance(query, next),
                    slot: next,
                };
                if best.len() < ef || Scored::cmp(&s, best.peek().expect("non-empty")).is_lt() {
                    frontier.push(std::cmp::Reverse(s));
                    best.push(s);
                    while best.len() > ef {
                        best.pop();
                    }
                }
            }
        }
        let mut out = best.into_vec();
        out.sort_unstable();
        out
    }

    /// Links every slot in ascending order (the whole build).
    fn link_all(&mut self) {
        let n = self.ids.len();
        self.levels = (0..n as u32).map(|s| self.level_for(s)).collect();
        let max_level = self.levels.iter().copied().max().unwrap_or(0);
        self.neighbors = (0..=max_level as usize)
            .map(|_| vec![Vec::new(); n])
            .collect();
        if n == 0 {
            self.entry = 0;
            return;
        }
        // Entry: lowest slot among the highest-level nodes.
        self.entry = (0..n as u32)
            .find(|&s| self.levels[s as usize] == max_level)
            .expect("some slot has the max level");
        let mut inserted: Vec<u32> = Vec::with_capacity(n);
        for slot in 0..n as u32 {
            self.insert(slot, &inserted);
            inserted.push(slot);
        }
    }

    /// Inserts `slot` against the already-linked `inserted` prefix.
    fn insert(&mut self, slot: u32, inserted: &[u32]) {
        if inserted.is_empty() {
            return;
        }
        let query: Vec<f32> = self.row(slot).to_vec();
        let node_level = self.levels[slot as usize] as usize;
        // Greedy descent through layers above the node's level, starting
        // from the entry of the inserted prefix: the lowest slot of the
        // highest inserted level.
        let top = inserted
            .iter()
            .map(|&s| self.levels[s as usize] as usize)
            .max()
            .expect("non-empty prefix");
        let mut current = *inserted
            .iter()
            .find(|&&s| self.levels[s as usize] as usize == top)
            .expect("some inserted slot has the top level");
        for layer in (node_level + 1..=top).rev() {
            current = self.search_layer(&query, &[current], 1, layer)[0].slot;
        }
        // Connect on every layer the node occupies (that exists so far).
        let ef = self.config.ef_construction.max(self.config.m);
        let mut entries = vec![current];
        for layer in (0..=node_level.min(top)).rev() {
            let found = self.search_layer(&query, &entries, ef, layer);
            let cap = self.layer_cap(layer);
            let chosen: Vec<u32> = found.iter().take(self.config.m).map(|s| s.slot).collect();
            self.neighbors[layer][slot as usize] = chosen.clone();
            for &peer in &chosen {
                let list = &mut self.neighbors[layer][peer as usize];
                list.push(slot);
                if list.len() > cap {
                    self.prune(peer, layer, cap);
                }
            }
            entries = found.iter().map(|s| s.slot).collect();
        }
    }

    /// Max neighbors kept on `layer` (layer 0 is denser).
    fn layer_cap(&self, layer: usize) -> usize {
        if layer == 0 {
            self.config.m * 2
        } else {
            self.config.m
        }
    }

    /// Prunes `slot`'s layer list to its `cap` nearest (slot tie-break).
    fn prune(&mut self, slot: u32, layer: usize, cap: usize) {
        let query: Vec<f32> = self.row(slot).to_vec();
        let mut scored: Vec<Scored> = self.neighbors[layer][slot as usize]
            .iter()
            .map(|&s| Scored {
                dist: self.distance(&query, s),
                slot: s,
            })
            .collect();
        scored.sort_unstable();
        scored.truncate(cap);
        self.neighbors[layer][slot as usize] = scored.into_iter().map(|s| s.slot).collect();
    }

    /// Approximate `k` nearest ids to `query` with beam width `ef`
    /// (clamped to `>= k`): `(id, squared distance)` ascending, slot
    /// tie-break. A beam covering the whole index falls back to the
    /// exhaustive [`scan`](Self::scan), making exact recall a guarantee
    /// rather than a tendency at that setting.
    pub fn search(&self, query: &[f32], k: usize, ef: usize) -> Vec<(u32, f32)> {
        if self.ids.is_empty() || k == 0 {
            return Vec::new();
        }
        let ef = ef.max(k);
        if ef >= self.ids.len() {
            return self.scan(query, k);
        }
        let mut current = self.entry;
        for layer in (1..self.neighbors.len()).rev() {
            current = self.search_layer(query, &[current], 1, layer)[0].slot;
        }
        let found = self.search_layer(query, &[current], ef, 0);
        found
            .into_iter()
            .take(k)
            .map(|s| (self.ids[s.slot as usize], s.dist))
            .collect()
    }

    /// Exhaustive `k` nearest — the exact answer [`search`](Self::search)
    /// approximates; `O(n · dim)`.
    pub fn scan(&self, query: &[f32], k: usize) -> Vec<(u32, f32)> {
        let mut scored: Vec<Scored> = (0..self.ids.len() as u32)
            .map(|slot| Scored {
                dist: self.distance(query, slot),
                slot,
            })
            .collect();
        scored.sort_unstable();
        scored.truncate(k);
        scored
            .into_iter()
            .map(|s| (self.ids[s.slot as usize], s.dist))
            .collect()
    }

    /// Candidate ids for an item-set query: embed, search, and return the
    /// ids **ascending** — the deterministic evaluation order the exact
    /// reranker ([`crate::point::PointIndex::best_cover_among`]) expects.
    pub fn candidates_for(&self, items: &[u32], k: usize, ef: usize) -> Vec<u32> {
        let query = embed_items(items, self.config.dim);
        let mut ids: Vec<u32> = self
            .search(&query, k, ef)
            .into_iter()
            .map(|(id, _)| id)
            .collect();
        ids.sort_unstable();
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::{CategoryTree, ROOT};

    fn grid_vectors(n: usize, dim: usize) -> (Vec<u32>, Vec<Vec<f32>>) {
        // Deterministic scattered points: hash-derived coordinates.
        let ids: Vec<u32> = (0..n as u32).collect();
        let vectors = ids
            .iter()
            .map(|&i| {
                (0..dim)
                    .map(|d| {
                        let h = splitmix64(u64::from(i) * 31 + d as u64);
                        (h % 1000) as f32 / 1000.0
                    })
                    .collect()
            })
            .collect();
        (ids, vectors)
    }

    #[test]
    fn build_is_deterministic() {
        let (ids, vectors) = grid_vectors(200, 8);
        let config = VectorConfig {
            dim: 8,
            ..VectorConfig::default()
        };
        let a = VectorIndex::build(ids.clone(), vectors.clone(), &config).expect("build");
        let b = VectorIndex::build(ids, vectors, &config).expect("build");
        assert_eq!(a, b);
    }

    #[test]
    fn full_beam_equals_scan() {
        let (ids, vectors) = grid_vectors(150, 8);
        let config = VectorConfig {
            dim: 8,
            ..VectorConfig::default()
        };
        let index = VectorIndex::build(ids, vectors, &config).expect("build");
        let query = embed_items(&[1, 2, 3], 8);
        assert_eq!(index.search(&query, 10, 150), index.scan(&query, 10));
    }

    #[test]
    fn narrow_beam_recall_is_high_on_clustered_data() {
        // Two tight clusters; a query near one must retrieve from it.
        let mut ids = Vec::new();
        let mut vectors = Vec::new();
        for i in 0..100u32 {
            ids.push(i);
            let base = if i < 50 { 0.0 } else { 10.0 };
            vectors.push(vec![base + (i % 7) as f32 * 0.01, base]);
        }
        let config = VectorConfig {
            dim: 2,
            ..VectorConfig::default()
        };
        let index = VectorIndex::build(ids, vectors, &config).expect("build");
        let hits = index.search(&[10.0, 10.0], 5, 16);
        assert_eq!(hits.len(), 5);
        assert!(hits.iter().all(|&(id, _)| id >= 50), "{hits:?}");
    }

    #[test]
    fn rejects_bad_input() {
        let config = VectorConfig {
            dim: 2,
            ..VectorConfig::default()
        };
        assert!(matches!(
            VectorIndex::build(vec![0], vec![vec![1.0]], &config),
            Err(VectorError::RaggedRow { .. })
        ));
        assert!(matches!(
            VectorIndex::build(vec![0], vec![vec![f32::NAN, 0.0]], &config),
            Err(VectorError::NonFinite { index: 0 })
        ));
        assert!(matches!(
            VectorIndex::build(vec![0, 1], vec![vec![0.0, 0.0]], &config),
            Err(VectorError::CountMismatch { .. })
        ));
        assert!(matches!(
            VectorIndex::build(
                Vec::new(),
                Vec::new(),
                &VectorConfig {
                    dim: 0,
                    ..VectorConfig::default()
                }
            ),
            Err(VectorError::BadConfig(_))
        ));
    }

    #[test]
    fn empty_index_answers_empty() {
        let index = VectorIndex::build(Vec::new(), Vec::new(), &VectorConfig::default())
            .expect("empty build");
        assert!(index.is_empty());
        assert!(index
            .search(&embed_items(&[1], DEFAULT_DIM), 5, 64)
            .is_empty());
        assert!(index.candidates_for(&[1, 2], 5, 64).is_empty());
    }

    #[test]
    fn tree_index_excludes_empty_categories() {
        let mut tree = CategoryTree::new();
        let a = tree.add_category(ROOT);
        let empty = tree.add_category(ROOT);
        tree.assign_items(a, [0, 1, 2]);
        let index = VectorIndex::for_tree(&tree, &VectorConfig::default());
        assert!(index.ids().contains(&a));
        assert!(!index.ids().contains(&empty));
    }

    #[test]
    fn similar_sets_embed_close() {
        let dim = DEFAULT_DIM;
        let a = embed_items(&(0..100).collect::<Vec<_>>(), dim);
        let b = embed_items(&(0..95).collect::<Vec<_>>(), dim); // 95% overlap
        let c = embed_items(&(1000..1100).collect::<Vec<_>>(), dim); // disjoint
        let dist =
            |x: &[f32], y: &[f32]| -> f32 { x.iter().zip(y).map(|(p, q)| (p - q) * (p - q)).sum() };
        assert!(dist(&a, &b) < dist(&a, &c), "overlap must beat disjoint");
    }

    #[test]
    fn embed_dedups_items() {
        assert_eq!(embed_items(&[5, 5, 5, 2], 16), embed_items(&[2, 5], 16));
    }
}
