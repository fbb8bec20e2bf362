//! Streaming incremental maintenance of a category tree (extension; see
//! DESIGN.md §16).
//!
//! The batch pipeline ([`crate::ctcr`]) rebuilds everything from scratch on
//! every run. Real query logs drift continuously: new queries appear, demand
//! shifts, old queries die. This module maintains a tree under a stream of
//! [`DeltaBatch`]es — upserts and retirements of input sets identified by a
//! stable [`SetId`] — re-doing only the work a batch actually touches:
//!
//! 1. **Pair cache** — every intersecting pair's count and classification
//!    ([`PairClass`]) is cached over the last rebuild's instance indices,
//!    which a batch maps onto its own. The `(hi, lo)` orientation is
//!    pairwise-stable — it depends only on the two sets' sizes, weights,
//!    and ids — so an entry stays valid while both endpoints are untouched,
//!    whatever else the batch did, and its count while both keep their
//!    items. Pairs of a set upserted with the items it already had keep
//!    their counts and are re-oriented and re-classified by arithmetic
//!    alone (a weight change can flip the orientation of two equal-size
//!    sets). Only the sets whose items may have changed (new ids, upserts
//!    with other items, sets touched twice in the batch) are recounted,
//!    through the co-occurrence kernel the batch analysis uses
//!    ([`crate::conflict`]); everything else is reused.
//! 2. **Component solution cache** — the conflict graph is split into
//!    connected components; each component's MWIS solution is cached under a
//!    canonical signature (member ids, weights, edges). Components untouched
//!    by the batch hit the cache and keep their previous selection verbatim;
//!    touched components are re-solved by a *pure* per-component solver
//!    (exact branch-and-reduce for small components, seeded
//!    [`oct_mis::local::repair`] for large ones).
//! 3. **Shared tree build** — stages 4–8 of Algorithm 1 run through the very
//!    function the batch pipeline uses, over the one inverted index the
//!    batch builds for its kernel.
//!
//! The accumulated state is itself the batch [`Instance`] (sets in
//! ascending-id order) beside the ids that label it. A batch edits it in
//! place and the rebuild borrows it, so no batch copies the live sets.
//!
//! Because every cache is a pure function of the accumulated set state, the
//! incremental result is **bit-identical** to rebuilding from scratch over
//! the same state (asserted by the differential suite) — the caches only
//! save time, never change the answer. The engine's semantics match
//! [`crate::ctcr::run`] with `use_three_conflicts = false` and no
//! reemployment loop: conflicts are resolved on the pairwise conflict
//! *graph*, which is what makes localized repair sound.
//!
//! Every applied batch atomically checkpoints the state (and nothing but the
//! state — caches are re-derived on resume), so a `kill -9` mid-stream
//! resumes bit-identically.

use std::path::PathBuf;

use oct_mis::{local, Graph, SolveBudget, Solver};
use oct_obs::Metrics;

use crate::conflict::{classify_pair, CoCounter, PairClass, PairRole};
use crate::ctcr::{build_from_selection, CtcrConfig, SelectionContext};
use crate::input::{InputSet, Instance};
use crate::persist;
use crate::score::TreeScore;
use crate::similarity::{Similarity, EPS};
use crate::tree::CategoryTree;
use crate::util::{FxHashMap, FxHashSet};
use crate::workflow::{atomic_write, clean_stray_temps};

/// Stable identity of an input set across the stream. Instance indices
/// shift as sets come and go; ids never do.
pub type SetId = u64;

/// One change to the accumulated input-set state.
#[derive(Debug, Clone)]
pub enum SetDelta {
    /// Adds a new set or replaces the existing set with this id.
    Upsert {
        /// Stable identity of the set.
        id: SetId,
        /// The new content (items, weight, threshold, label).
        set: InputSet,
    },
    /// Removes the set with this id from the instance.
    Retire {
        /// Stable identity of the set.
        id: SetId,
    },
}

impl SetDelta {
    /// Shorthand for an upsert delta.
    pub fn upsert(id: SetId, set: InputSet) -> Self {
        SetDelta::Upsert { id, set }
    }

    /// Shorthand for a retire delta.
    pub fn retire(id: SetId) -> Self {
        SetDelta::Retire { id }
    }

    /// The id this delta touches.
    pub fn id(&self) -> SetId {
        match self {
            SetDelta::Upsert { id, .. } | SetDelta::Retire { id } => *id,
        }
    }
}

/// A group of deltas applied (and checkpointed, and published) atomically.
/// Deltas apply in order; a later delta for the same id wins.
#[derive(Debug, Clone, Default)]
pub struct DeltaBatch {
    /// The changes of this batch.
    pub deltas: Vec<SetDelta>,
}

impl DeltaBatch {
    /// A batch over the given deltas.
    pub fn new(deltas: Vec<SetDelta>) -> Self {
        Self { deltas }
    }

    /// `true` when the batch contains no deltas.
    pub fn is_empty(&self) -> bool {
        self.deltas.is_empty()
    }
}

/// Failures of the streaming engine.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamError {
    /// A delta carries data the instance cannot hold (bad weight, bad
    /// threshold, out-of-universe item).
    InvalidDelta(String),
    /// A retire delta names an id that is not live.
    UnknownSet(SetId),
    /// Checkpoint I/O failed.
    Io(String),
    /// A checkpoint decoded but does not match this engine's configuration,
    /// or failed to decode at all.
    Corrupt(String),
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::InvalidDelta(msg) => write!(f, "invalid delta: {msg}"),
            StreamError::UnknownSet(id) => write!(f, "retire of unknown set id {id}"),
            StreamError::Io(msg) => write!(f, "checkpoint I/O: {msg}"),
            StreamError::Corrupt(msg) => write!(f, "checkpoint unusable: {msg}"),
        }
    }
}

impl std::error::Error for StreamError {}

/// Configuration of a [`StreamEngine`].
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Universe size; delta items must be `< num_items`.
    pub num_items: u32,
    /// Similarity variant and default threshold.
    pub similarity: Similarity,
    /// Worker threads for scoring.
    pub threads: usize,
    /// Stage 6 on/off (see [`CtcrConfig::add_intermediates`]).
    pub add_intermediates: bool,
    /// Slack-aware cover repair on/off (see [`CtcrConfig::repair`]).
    pub repair: bool,
    /// Nesting extension on/off (see [`CtcrConfig::nest_contained`]).
    pub nest_contained: bool,
    /// Components up to this many vertices are solved exactly (deterministic
    /// node-budgeted branch-and-reduce); larger ones fall back to the
    /// seeded local search of [`oct_mis::local::repair`].
    pub exact_component_limit: usize,
    /// Perturbation rounds for the local-search fallback.
    pub local_search_rounds: usize,
    /// When set, every applied batch writes an atomic checkpoint here and
    /// [`StreamEngine::resume`] restores from it.
    pub checkpoint: Option<PathBuf>,
    /// Telemetry sink; records `incr/*` spans and counters.
    pub metrics: Metrics,
}

impl StreamConfig {
    /// A default configuration over the given universe and variant.
    pub fn new(num_items: u32, similarity: Similarity) -> Self {
        Self {
            num_items,
            similarity,
            threads: std::thread::available_parallelism().map_or(1, |p| p.get()),
            add_intermediates: true,
            repair: true,
            nest_contained: true,
            exact_component_limit: 24,
            local_search_rounds: 50,
            checkpoint: None,
            metrics: Metrics::disabled(),
        }
    }
}

/// A cached pair classification over the instance indices of the last
/// rebuild. `hi`/`lo` record the rank orientation, which depends only on
/// the two endpoint sets (size desc, weight asc, id asc) — never on third
/// parties — so orientation and class stay valid while both endpoints are
/// unchanged, and the count `inter` while both keep their items.
#[derive(Debug, Clone, Copy)]
struct CachedPair {
    hi: u32,
    lo: u32,
    inter: u32,
    class: PairClass,
}

/// What a batch did to one set, judged against the state at the batch's
/// start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Touch {
    /// No delta named the set.
    Untouched,
    /// One upsert kept the set's items; only its weight, threshold or label
    /// may differ, so its cached counts stand and only its pairs' orientation
    /// and class are re-derived.
    SameItems,
    /// A new set, an upsert with other items, a retire, or more than one
    /// delta in the batch: its pairs are evicted and recounted.
    Recount,
}

/// Counters describing how much work one batch actually did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchStats {
    /// Upsert deltas applied.
    pub upserts: usize,
    /// Retire deltas applied.
    pub retires: usize,
    /// Live sets after the batch.
    pub live_sets: usize,
    /// Pairs (re-)classified this batch: every intersecting pair with an
    /// endpoint the batch touched.
    pub reclassified_pairs: usize,
    /// The part of `reclassified_pairs` the co-occurrence kernel counted:
    /// pairs with an endpoint whose items may have changed. The rest kept
    /// their cached intersection counts.
    pub recounted_pairs: usize,
    /// Pairs whose cached classification was reused: neither endpoint was
    /// touched.
    pub cached_pairs: usize,
    /// 2-conflicts in the current conflict graph.
    pub conflicts2: usize,
    /// Connected components of the conflict graph.
    pub components: usize,
    /// Components whose previous solution was reused verbatim.
    pub reused_components: usize,
    /// Components re-solved this batch.
    pub solved_components: usize,
    /// Sets selected into the tree.
    pub selected: usize,
}

/// The rebuilt tree after one batch.
#[derive(Debug, Clone)]
pub struct BatchOutcome {
    /// Number of batches applied so far (the stream epoch).
    pub applied_batches: u64,
    /// The rebuilt category tree.
    pub tree: CategoryTree,
    /// Score of `tree` over the accumulated instance.
    pub score: TreeScore,
    /// Work counters for this batch.
    pub stats: BatchStats,
}

/// The streaming engine: accumulated set state plus the two caches.
#[derive(Debug, Clone)]
pub struct StreamEngine {
    config: StreamConfig,
    /// The live sets in ascending-id order, edited in place by each batch.
    instance: Instance,
    /// The live ids, ascending: `ids[i]` labels `instance.sets[i]`, and is
    /// the index space of `pairs`.
    ids: Vec<SetId>,
    applied_batches: u64,
    /// Every intersecting pair of the last rebuild, in no particular
    /// order: the graph built from it sorts its adjacency lists and the
    /// other aggregates are sets, so no output depends on the order.
    pairs: Vec<CachedPair>,
    /// Component signature → selected set ids.
    components: FxHashMap<u64, Vec<SetId>>,
}

impl StreamEngine {
    /// A fresh engine with no sets. Sweeps stray checkpoint temp files left
    /// by crashed predecessors.
    pub fn new(config: StreamConfig) -> Self {
        if let Some(path) = &config.checkpoint {
            clean_stray_temps(path);
        }
        Self {
            instance: Instance::new(config.num_items, Vec::new(), config.similarity),
            config,
            ids: Vec::new(),
            applied_batches: 0,
            pairs: Vec::new(),
            components: FxHashMap::default(),
        }
    }

    /// Restores an engine from `config.checkpoint`. Returns the engine and,
    /// when a checkpoint existed, the rebuilt [`BatchOutcome`] for its state
    /// (caches are re-derived — they are pure functions of the state, so
    /// the rebuilt tree is bit-identical to the pre-crash one). With no
    /// checkpoint file the engine starts fresh and the outcome is `None`.
    ///
    /// # Errors
    /// [`StreamError::Corrupt`] when the file exists but cannot be decoded
    /// or disagrees with `config` on universe or similarity;
    /// [`StreamError::Io`] on read failure.
    pub fn resume(config: StreamConfig) -> Result<(Self, Option<BatchOutcome>), StreamError> {
        let Some(path) = config.checkpoint.clone() else {
            return Ok((Self::new(config), None));
        };
        if !path.exists() {
            return Ok((Self::new(config), None));
        }
        let raw = std::fs::read(&path)
            .map_err(|e| StreamError::Io(format!("{}: {e}", path.display())))?;
        let cp = persist::decode_stream_checkpoint(bytes::Bytes::from(raw))
            .map_err(|e| StreamError::Corrupt(format!("{}: {e}", path.display())))?;
        if cp.instance.num_items != config.num_items {
            return Err(StreamError::Corrupt(format!(
                "checkpoint universe {} != configured {}",
                cp.instance.num_items, config.num_items
            )));
        }
        if cp.instance.similarity.kind != config.similarity.kind
            || cp.instance.similarity.delta != config.similarity.delta
        {
            return Err(StreamError::Corrupt(
                "checkpoint similarity differs from configuration".into(),
            ));
        }
        let mut engine = Self::new(config);
        engine.applied_batches = cp.applied_batches;
        engine.instance.sets = cp.instance.sets;
        engine.ids = cp.ids;
        let outcome = engine.rebuild();
        Ok((engine, Some(outcome)))
    }

    /// The engine's configuration.
    pub fn config(&self) -> &StreamConfig {
        &self.config
    }

    /// Number of batches applied so far.
    pub fn applied_batches(&self) -> u64 {
        self.applied_batches
    }

    /// Number of live sets.
    pub fn live_sets(&self) -> usize {
        self.ids.len()
    }

    /// `true` when a set with this id is live.
    pub fn contains(&self, id: SetId) -> bool {
        self.ids.binary_search(&id).is_ok()
    }

    /// The live ids, ascending.
    pub fn ids(&self) -> Vec<SetId> {
        self.ids.clone()
    }

    /// A copy of the accumulated state as a batch [`Instance`] (sets in
    /// ascending-id order — the engine's canonical index order).
    pub fn instance(&self) -> Instance {
        self.instance.clone()
    }

    /// Applies one batch: updates the state, repairs the caches, rebuilds
    /// the tree, and (when configured) writes an atomic checkpoint.
    ///
    /// Validation is all-or-nothing: on error the engine state is unchanged.
    ///
    /// # Errors
    /// [`StreamError::InvalidDelta`] / [`StreamError::UnknownSet`] on bad
    /// deltas; [`StreamError::Io`] when the checkpoint write fails (the
    /// in-memory state *has* advanced in that case — retry or abort).
    pub fn apply_batch(&mut self, batch: &DeltaBatch) -> Result<BatchOutcome, StreamError> {
        // The batch's net effect per id: its touch, judged against the
        // state at the batch's start by the id's first delta, and its last
        // content (`None` once retired). The whole batch is validated
        // against it before anything is touched.
        let mut net: FxHashMap<SetId, (Touch, Option<&InputSet>)> = FxHashMap::default();
        let (mut upserts, mut retires) = (0usize, 0usize);
        for delta in &batch.deltas {
            let id = delta.id();
            let last = match delta {
                SetDelta::Upsert { set, .. } => {
                    validate_set(self.config.num_items, id, set)?;
                    upserts += 1;
                    Some(set)
                }
                SetDelta::Retire { .. } => {
                    let live = net
                        .get(&id)
                        .map_or_else(|| self.contains(id), |(_, last)| last.is_some());
                    if !live {
                        return Err(StreamError::UnknownSet(id));
                    }
                    retires += 1;
                    None
                }
            };
            net.entry(id)
                .and_modify(|entry| *entry = (Touch::Recount, last))
                .or_insert_with(|| {
                    let prev = self.ids.binary_search(&id).ok();
                    let same_items = last
                        .zip(prev)
                        .is_some_and(|(set, i)| self.instance.sets[i].items == set.items);
                    let touch = if same_items {
                        Touch::SameItems
                    } else {
                        Touch::Recount
                    };
                    (touch, last)
                });
        }

        let metrics = self.config.metrics.clone();
        let span = metrics.span("incr");
        let stage = span.child("derive");
        let new_index = self.apply_net(&net);
        let mut touches = vec![Touch::Untouched; self.ids.len()];
        for (&id, &(touch, _)) in &net {
            if let Ok(i) = self.ids.binary_search(&id) {
                touches[i] = touch;
            }
        }
        drop(stage);
        self.applied_batches += 1;
        let outcome = self.rebuild_with(&span, &new_index, &touches, upserts, retires);
        drop(span);
        self.write_checkpoint()?;
        Ok(outcome)
    }

    /// Edits the state in place to the batch's net effect and returns the
    /// map from each index before the edit to its index after it, or to
    /// [`RETIRED`]. Replacements are assigned in place; retires and new ids
    /// merge into the ascending id list in one pass that moves the kept
    /// sets rather than copying them.
    fn apply_net(&mut self, net: &FxHashMap<SetId, (Touch, Option<&InputSet>)>) -> Vec<u32> {
        let mut retired = Vec::new();
        let mut added: Vec<(SetId, &InputSet)> = Vec::new();
        for (&id, &(_, last)) in net {
            match (self.ids.binary_search(&id), last) {
                (Ok(i), Some(set)) => self.instance.sets[i] = set.clone(),
                (Ok(i), None) => retired.push(i),
                (Err(_), Some(set)) => added.push((id, set)),
                (Err(_), None) => {}
            }
        }
        retired.sort_unstable();
        added.sort_unstable_by_key(|&(id, _)| id);
        let old_ids = std::mem::take(&mut self.ids);
        let old_sets = std::mem::take(&mut self.instance.sets);
        let len = old_ids.len() - retired.len() + added.len();
        self.ids.reserve(len);
        self.instance.sets.reserve(len);
        let mut new_index = Vec::with_capacity(old_ids.len());
        let (mut retired, mut added) =
            (retired.into_iter().peekable(), added.into_iter().peekable());
        for (i, (id, set)) in old_ids.into_iter().zip(old_sets).enumerate() {
            while let Some((new_id, new_set)) = added.next_if(|&(new_id, _)| new_id < id) {
                self.ids.push(new_id);
                self.instance.sets.push(new_set.clone());
            }
            if retired.next_if_eq(&i).is_some() {
                new_index.push(RETIRED);
                continue;
            }
            new_index.push(self.ids.len() as u32);
            self.ids.push(id);
            self.instance.sets.push(set);
        }
        for (new_id, new_set) in added {
            self.ids.push(new_id);
            self.instance.sets.push(new_set.clone());
        }
        new_index
    }

    /// Rebuilds from the current state treating *every* pair as dirty —
    /// used after [`StreamEngine::resume`] and by [`StreamEngine::batch_rerun`].
    pub fn rebuild(&mut self) -> BatchOutcome {
        self.pairs.clear();
        self.components.clear();
        let metrics = self.config.metrics.clone();
        let span = metrics.span("incr");
        let touches = vec![Touch::Recount; self.ids.len()];
        self.rebuild_with(&span, &[], &touches, 0, 0)
    }

    /// The from-scratch reference: clones the accumulated state into a fresh
    /// engine (no caches, no checkpoint) and rebuilds. The differential
    /// suite asserts this tree is byte-identical to the incremental one.
    pub fn batch_rerun(&self) -> BatchOutcome {
        let mut fresh = StreamEngine::new(StreamConfig {
            checkpoint: None,
            metrics: Metrics::disabled(),
            ..self.config.clone()
        });
        fresh.instance = self.instance.clone();
        fresh.ids = self.ids.clone();
        fresh.applied_batches = self.applied_batches;
        fresh.rebuild()
    }

    /// The shared rebuild over the edited state: repair the pair cache
    /// (over the indices before the edit, which `new_index` maps onto the
    /// current ones) around the sets `touches` flags by current index,
    /// re-derive aggregates, solve the conflict graph component-wise with
    /// solution reuse, and run stages 4–8.
    ///
    /// The whole-state work around classify and mis (the edit, the
    /// per-index flags and the index map before it, and the re-derivation
    /// of the aggregates here) records under one `derive` span, entered
    /// twice per applied batch and once by a full rebuild.
    fn rebuild_with(
        &mut self,
        span: &oct_obs::Span<'_>,
        new_index: &[u32],
        touches: &[Touch],
        upserts: usize,
        retires: usize,
    ) -> BatchOutcome {
        let metrics = &self.config.metrics;
        metrics.add("incr/upserts", upserts as u64);
        metrics.add("incr/retires", retires as u64);
        let (instance, ids) = (&self.instance, &self.ids);

        // Classify every pair with a touched endpoint. Cached pairs whose
        // endpoints kept their items keep their counts and are re-oriented
        // and re-classified by arithmetic alone; only the pairs of
        // `Recount` sets go through the co-occurrence kernel, whose cost is
        // proportional to the posting lists of those sets' items.
        let stage = span.child("classify");
        let recount = |i: u32| touches[i as usize] == Touch::Recount;
        let (mut cached, mut reoriented) = (0usize, 0usize);
        self.pairs.retain_mut(|p| {
            let (a, b) = (new_index[p.hi as usize], new_index[p.lo as usize]);
            if a == RETIRED || b == RETIRED || recount(a) || recount(b) {
                return false;
            }
            if touches[a as usize] == Touch::Untouched && touches[b as usize] == Touch::Untouched {
                // Index order is id order on both sides of the map, so the
                // orientation stands.
                (p.hi, p.lo) = (a, b);
                cached += 1;
            } else {
                let (hi, lo) = pair_orientation(instance, a, b);
                let inter = p.inter as usize;
                p.class = classify_pair(instance, hi as usize, lo as usize, inter, inter);
                (p.hi, p.lo) = (hi, lo);
                reoriented += 1;
            }
            true
        });
        let index = instance.inverted_index();
        let mut counter = CoCounter::new(instance, &index);
        let before = self.pairs.len();
        for ci in (0..ids.len() as u32).filter(|&ci| recount(ci)) {
            // A pair of two recounted sets is counted from its lower index
            // only.
            let skip = |other: u32| other < ci && recount(other);
            counter.partners(ci, skip, |other, inter, eff_inter| {
                // Stream instances raise no item bound, so the cache keeps
                // one count.
                debug_assert_eq!(inter, eff_inter, "no raised item bounds");
                let (hi, lo) = pair_orientation(instance, ci, other);
                let class = classify_pair(
                    instance,
                    hi as usize,
                    lo as usize,
                    inter as usize,
                    inter as usize,
                );
                self.pairs.push(CachedPair {
                    hi,
                    lo,
                    inter,
                    class,
                });
            });
        }
        let recounted = self.pairs.len() - before;
        let reclassified = recounted + reoriented;
        metrics.add("incr/reclassified_pairs", reclassified as u64);
        metrics.add("incr/recounted_pairs", recounted as u64);
        metrics.add("incr/cached_pairs", cached as u64);
        drop(stage);

        // Re-derive this batch's aggregates from the cache.
        let stage = span.child("derive");
        let mut conflicts2: Vec<(u32, u32)> = Vec::new();
        let mut must: FxHashSet<(u32, u32)> = FxHashSet::default();
        let mut nestable: FxHashSet<(u32, u32)> = FxHashSet::default();
        for p in &self.pairs {
            match p.class.role(instance, p.lo as usize, p.inter as usize) {
                Some(PairRole::Conflict) => conflicts2.push((p.hi, p.lo)),
                Some(PairRole::MustTogether) => {
                    must.insert((p.hi, p.lo));
                }
                Some(PairRole::Nestable) => {
                    nestable.insert((p.hi, p.lo));
                }
                None => {}
            }
        }
        drop(stage);

        // Component-wise MWIS with solution reuse: untouched components keep
        // their previous selection verbatim; the rest are re-solved by a
        // pure function of the component, so reuse never changes the result.
        // `mis/graph` builds the graph, its components and their
        // signatures; `mis/solve` looks them up and solves the misses.
        let stage = span.child("mis");
        let part = stage.child("graph");
        let weights: Vec<f64> = instance.sets.iter().map(|s| s.weight).collect();
        let comps: Vec<(u64, Vec<u32>, Graph)> = Graph::new(weights, &conflicts2)
            .connected_components()
            .into_iter()
            .map(|(members, sub)| (component_signature(ids, &members, &sub), members, sub))
            .collect();
        drop(part);
        let part = stage.child("solve");
        let num_components = comps.len();
        let mut next_components: FxHashMap<u64, Vec<SetId>> = FxHashMap::default();
        let mut selection_ids: Vec<SetId> = Vec::new();
        let (mut reused, mut solved) = (0usize, 0usize);
        for (sig, members, sub) in comps {
            let selected: Vec<SetId> = match self.components.get(&sig) {
                Some(prev) => {
                    reused += 1;
                    prev.clone()
                }
                None => {
                    solved += 1;
                    solve_component(
                        &sub,
                        self.config.exact_component_limit,
                        self.config.local_search_rounds,
                        sig,
                    )
                    .iter()
                    .map(|&v| ids[members[v as usize] as usize])
                    .collect()
                }
            };
            selection_ids.extend(selected.iter().copied());
            next_components.insert(sig, selected);
        }
        self.components = next_components;
        metrics.add("incr/components_reused", reused as u64);
        metrics.add("incr/components_solved", solved as u64);
        drop(part);
        drop(stage);

        // Stages 4–8, shared with the batch pipeline.
        let mut selection: Vec<u32> = selection_ids
            .iter()
            .map(|id| ids.binary_search(id).expect("selected sets are live") as u32)
            .collect();
        selection.sort_unstable();
        let ranks = instance.ranks();
        let ctx = SelectionContext {
            ranks: &ranks,
            must: &must,
            nestable: &nestable,
        };
        let ctcr_config = CtcrConfig {
            threads: self.config.threads,
            add_intermediates: self.config.add_intermediates,
            repair: self.config.repair,
            nest_contained: self.config.nest_contained,
            metrics: metrics.clone(),
            ..CtcrConfig::default()
        };
        let stages = build_from_selection(instance, &index, &ctx, &selection, &ctcr_config, span);
        let live_sets = ids.len();
        metrics.gauge("incr/live_sets", live_sets as f64);
        let stats = BatchStats {
            upserts,
            retires,
            live_sets,
            reclassified_pairs: reclassified,
            recounted_pairs: recounted,
            cached_pairs: cached,
            conflicts2: conflicts2.len(),
            components: num_components,
            reused_components: reused,
            solved_components: solved,
            selected: stages.selection.len(),
        };
        BatchOutcome {
            applied_batches: self.applied_batches,
            tree: stages.tree,
            score: stages.score,
            stats,
        }
    }

    /// Writes the state checkpoint (no-op without a configured path). Only
    /// the state is persisted — the caches are re-derived on resume.
    fn write_checkpoint(&self) -> Result<(), StreamError> {
        let Some(path) = &self.config.checkpoint else {
            return Ok(());
        };
        let encoded = persist::encode_stream_state(self.applied_batches, &self.ids, &self.instance);
        atomic_write(path, &encoded)
            .map_err(|e| StreamError::Io(format!("{}: {e}", path.display())))
    }
}

/// Rejects set data the [`Instance`] constructor would panic on.
fn validate_set(num_items: u32, id: SetId, set: &InputSet) -> Result<(), StreamError> {
    if !(set.weight.is_finite() && set.weight >= 0.0) {
        return Err(StreamError::InvalidDelta(format!(
            "set {id}: invalid weight {}",
            set.weight
        )));
    }
    if let Some(t) = set.threshold {
        if !(t > 0.0 && t <= 1.0 + EPS) {
            return Err(StreamError::InvalidDelta(format!(
                "set {id}: invalid threshold {t}"
            )));
        }
    }
    if let Some(&max) = set.items.as_slice().last() {
        if max >= num_items {
            return Err(StreamError::InvalidDelta(format!(
                "set {id}: item {max} ≥ num_items {num_items}"
            )));
        }
    }
    Ok(())
}

/// Marks an id of the last rebuild that is no longer live.
const RETIRED: u32 = u32::MAX;

/// Orients an intersecting index pair as `(hi, lo)` by the ranking
/// comparator ([`Instance::rank_order`]), which is what makes cached
/// orientations stable.
fn pair_orientation(instance: &Instance, a: u32, b: u32) -> (u32, u32) {
    if instance.rank_order(a, b).is_lt() {
        (a, b)
    } else {
        (b, a)
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv_u64(h: &mut u64, value: u64) {
    for byte in value.to_le_bytes() {
        *h ^= byte as u64;
        *h = h.wrapping_mul(FNV_PRIME);
    }
}

/// Canonical FNV-1a signature of one conflict-graph component: member ids,
/// member weights (bit patterns), and local edges. Two equal signatures mean
/// the component is untouched, so its previous solution — produced by a pure
/// function of exactly this data — can be reused verbatim.
fn component_signature(ids: &[SetId], members: &[u32], sub: &Graph) -> u64 {
    let mut h = FNV_OFFSET;
    fnv_u64(&mut h, members.len() as u64);
    for (local, &member) in members.iter().enumerate() {
        fnv_u64(&mut h, ids[member as usize]);
        fnv_u64(&mut h, sub.weight(local as u32).to_bits());
    }
    for v in 0..sub.len() as u32 {
        for &u in sub.neighbors(v) {
            if v < u {
                fnv_u64(&mut h, ((v as u64) << 32) | u as u64);
            }
        }
    }
    h
}

/// The pure per-component MWIS solver: a deterministic function of the
/// component alone (the signature seeds the local search), never of history.
fn solve_component(sub: &Graph, exact_limit: usize, rounds: usize, sig: u64) -> Vec<u32> {
    if sub.num_edges() == 0 {
        // Conflict-free singleton: always selected.
        return (0..sub.len() as u32).collect();
    }
    if sub.len() <= exact_limit {
        // Default budget, unlimited wall: the node cutoff is deterministic.
        Solver::new(SolveBudget::default())
            .solve_graph(sub)
            .vertices
    } else {
        local::repair(sub, &[], rounds, sig)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::itemset::ItemSet;
    use crate::persist::encode_tree;

    fn set(items: Vec<u32>, weight: f64) -> InputSet {
        InputSet::new(ItemSet::new(items), weight)
    }

    fn scratch_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("oct-incr-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        dir.join(name)
    }

    fn config(num_items: u32) -> StreamConfig {
        StreamConfig {
            threads: 1,
            ..StreamConfig::new(num_items, Similarity::jaccard_threshold(0.6))
        }
    }

    /// Tree bytes — the equality notion of the differential suite.
    fn tree_bytes(outcome: &BatchOutcome) -> Vec<u8> {
        encode_tree(&outcome.tree).to_vec()
    }

    #[test]
    fn incremental_matches_batch_rerun_over_a_delta_sequence() {
        let mut engine = StreamEngine::new(config(30));
        let batches = [
            DeltaBatch::new(vec![
                SetDelta::upsert(10, set((0..8).collect(), 3.0)),
                SetDelta::upsert(11, set((5..12).collect(), 2.0)),
                SetDelta::upsert(12, set((20..26).collect(), 1.0)),
            ]),
            // Update one set, add another in the same neighborhood.
            DeltaBatch::new(vec![
                SetDelta::upsert(11, set((6..14).collect(), 2.5)),
                SetDelta::upsert(13, set(vec![0, 1, 2], 1.0)),
            ]),
            // Retire and re-add elsewhere.
            DeltaBatch::new(vec![
                SetDelta::retire(10),
                SetDelta::upsert(14, set((24..30).collect(), 4.0)),
            ]),
        ];
        for (i, batch) in batches.iter().enumerate() {
            let incremental = engine.apply_batch(batch).expect("valid batch");
            let rerun = engine.batch_rerun();
            assert_eq!(
                tree_bytes(&incremental),
                tree_bytes(&rerun),
                "batch {i}: incremental tree must be bit-identical to a from-scratch rebuild"
            );
            assert_eq!(incremental.score.total, rerun.score.total);
            assert_eq!(incremental.applied_batches, i as u64 + 1);
            assert!(incremental.tree.validate(&engine.instance()).is_ok());
        }
    }

    #[test]
    fn untouched_components_and_pairs_are_reused() {
        let mut engine = StreamEngine::new(config(40));
        // Two independent clusters: items 0..10 and 20..30.
        engine
            .apply_batch(&DeltaBatch::new(vec![
                SetDelta::upsert(1, set((0..6).collect(), 2.0)),
                SetDelta::upsert(2, set((4..10).collect(), 1.0)),
                SetDelta::upsert(3, set((20..26).collect(), 2.0)),
                SetDelta::upsert(4, set((24..30).collect(), 1.0)),
            ]))
            .expect("seed batch");
        // Touch only the second cluster.
        let outcome = engine
            .apply_batch(&DeltaBatch::new(vec![SetDelta::upsert(
                4,
                set((23..30).collect(), 1.5),
            )]))
            .expect("update batch");
        assert!(
            outcome.stats.reused_components >= 1,
            "the untouched cluster's component must be reused: {:?}",
            outcome.stats
        );
        assert!(
            outcome.stats.cached_pairs >= 1,
            "the untouched cluster's pair must stay cached: {:?}",
            outcome.stats
        );
        // Only pairs touching set 4 were reclassified.
        assert!(outcome.stats.reclassified_pairs <= 2);
        assert_eq!(tree_bytes(&outcome), tree_bytes(&engine.batch_rerun()));
    }

    #[test]
    fn pair_cache_order_is_not_observable() {
        // The cache keeps whatever order retains and recounts leave; any
        // permutation of it must rebuild the same tree and statistics. Under
        // Exact every partial overlap is a conflict.
        let mut engine = StreamEngine::new(StreamConfig {
            threads: 1,
            ..StreamConfig::new(40, Similarity::exact())
        });
        engine
            .apply_batch(&DeltaBatch::new(vec![
                SetDelta::upsert(1, set((0..10).collect(), 3.0)),
                SetDelta::upsert(2, set((3..13).collect(), 2.0)),
                SetDelta::upsert(3, set((0..4).collect(), 1.0)),
                SetDelta::upsert(4, set((14..24).collect(), 2.5)),
                SetDelta::upsert(5, set((17..27).collect(), 1.0)),
                SetDelta::upsert(6, set((20..30).collect(), 4.0)),
            ]))
            .expect("seed batch");
        assert!(
            engine.pairs.len() >= 5,
            "{} cached pairs",
            engine.pairs.len()
        );
        let mut reversed = engine.clone();
        reversed.pairs.reverse();
        let mut rotated = engine.clone();
        rotated.pairs.rotate_left(2);
        let batch = DeltaBatch::new(vec![
            SetDelta::upsert(2, set((4..14).collect(), 2.0)),
            SetDelta::upsert(6, set((20..30).collect(), 0.5)),
            SetDelta::upsert(7, set((1..9).collect(), 1.5)),
        ]);
        let want = engine.apply_batch(&batch).expect("batch");
        assert!(want.stats.conflicts2 >= 3, "{:?}", want.stats);
        for mut permuted in [reversed, rotated] {
            let got = permuted.apply_batch(&batch).expect("batch");
            assert_eq!(tree_bytes(&got), tree_bytes(&want));
            assert_eq!(got.stats, want.stats);
            assert_eq!(got.score, want.score);
        }
    }

    /// Intersecting pairs of live sets with an endpoint in `touched`.
    fn pairs_touching(engine: &StreamEngine, touched: &[SetId]) -> usize {
        let (instance, ids) = (engine.instance(), engine.ids());
        let mut count = 0;
        for i in 0..ids.len() {
            for j in i + 1..ids.len() {
                let touches = touched.contains(&ids[i]) || touched.contains(&ids[j]);
                let (a, b) = (&instance.sets[i].items, &instance.sets[j].items);
                if touches && a.intersection_size(b) > 0 {
                    count += 1;
                }
            }
        }
        count
    }

    #[test]
    fn same_items_upserts_skip_the_kernel() {
        let mut engine = StreamEngine::new(StreamConfig {
            threads: 1,
            ..StreamConfig::new(20, Similarity::exact())
        });
        engine
            .apply_batch(&DeltaBatch::new(vec![
                SetDelta::upsert(1, set(vec![0, 1, 2], 1.0)),
                SetDelta::upsert(2, set(vec![0, 1, 2], 2.0)),
                SetDelta::upsert(3, set(vec![2, 3, 4], 1.0)),
                SetDelta::upsert(4, set(vec![4, 5], 1.0)),
                SetDelta::upsert(5, set(vec![10, 11], 1.0)),
            ]))
            .expect("seed");

        // Weight, threshold and label only. Set 1 turns heavier than its
        // equal twin 2, which flips the pair's (hi, lo) orientation.
        let outcome = engine
            .apply_batch(&DeltaBatch::new(vec![
                SetDelta::upsert(1, set(vec![0, 1, 2], 3.0)),
                SetDelta::upsert(
                    3,
                    set(vec![2, 3, 4], 1.0).with_threshold(0.5).with_label("x"),
                ),
            ]))
            .expect("same-items batch");
        assert_eq!(outcome.stats.recounted_pairs, 0, "{:?}", outcome.stats);
        assert_eq!(
            outcome.stats.reclassified_pairs,
            pairs_touching(&engine, &[1, 3])
        );
        assert_eq!(tree_bytes(&outcome), tree_bytes(&engine.batch_rerun()));

        // A retire and re-upsert of the same items, and two upserts of one
        // id, are recounted.
        let outcome = engine
            .apply_batch(&DeltaBatch::new(vec![
                SetDelta::retire(2),
                SetDelta::upsert(2, set(vec![0, 1, 2], 2.0)),
                SetDelta::upsert(4, set(vec![4, 5], 2.0)),
                SetDelta::upsert(4, set(vec![4, 5], 3.0)),
            ]))
            .expect("recount batch");
        let touching = pairs_touching(&engine, &[2, 4]);
        assert!(touching > 0);
        assert_eq!(
            outcome.stats.recounted_pairs, touching,
            "{:?}",
            outcome.stats
        );
        assert_eq!(outcome.stats.reclassified_pairs, touching);
        assert_eq!(tree_bytes(&outcome), tree_bytes(&engine.batch_rerun()));
    }

    #[test]
    fn checkpoint_resume_is_bit_identical() {
        let path = scratch_path("resume.stream");
        let _ = std::fs::remove_file(&path);
        let cfg = StreamConfig {
            checkpoint: Some(path.clone()),
            ..config(20)
        };
        let mut engine = StreamEngine::new(cfg.clone());
        engine
            .apply_batch(&DeltaBatch::new(vec![
                SetDelta::upsert(1, set((0..5).collect(), 1.0)),
                SetDelta::upsert(2, set((3..9).collect(), 2.0)),
            ]))
            .expect("batch 1");
        let before = engine
            .apply_batch(&DeltaBatch::new(vec![SetDelta::upsert(
                3,
                set((10..15).collect(), 1.0),
            )]))
            .expect("batch 2");

        // "kill -9": drop the engine; resume from the checkpoint file alone.
        let (mut resumed, outcome) = StreamEngine::resume(cfg).expect("resume");
        let outcome = outcome.expect("checkpoint existed");
        assert_eq!(resumed.applied_batches(), 2);
        assert_eq!(tree_bytes(&outcome), tree_bytes(&before));

        // The stream continues identically on both engines.
        let next = DeltaBatch::new(vec![SetDelta::retire(1)]);
        let a = engine.apply_batch(&next).expect("original continues");
        let b = resumed.apply_batch(&next).expect("resumed continues");
        assert_eq!(tree_bytes(&a), tree_bytes(&b));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn checkpoint_bytes_equal_the_owned_encoding() {
        // The engine edits its state in place and encodes it borrowed; the
        // file must hold the bytes of `encode_stream_checkpoint` over the
        // state replayed into an id-ordered map, after every batch.
        let path = scratch_path("owned.stream");
        let _ = std::fs::remove_file(&path);
        let mut engine = StreamEngine::new(StreamConfig {
            checkpoint: Some(path.clone()),
            ..config(30)
        });
        let batches = [
            DeltaBatch::new(vec![
                SetDelta::upsert(20, set((0..6).collect(), 2.0)),
                SetDelta::upsert(5, set((4..9).collect(), 1.0)),
                SetDelta::upsert(12, set((10..14).collect(), 3.0)),
            ]),
            // New ids before, between and after the live ones, a retire, a
            // same-items upsert, and a new id retired in its own batch.
            DeltaBatch::new(vec![
                SetDelta::upsert(1, set(vec![0, 1], 1.0)),
                SetDelta::upsert(15, set((12..18).collect(), 1.5)),
                SetDelta::retire(12),
                SetDelta::upsert(30, set((20..25).collect(), 2.0)),
                SetDelta::upsert(5, set((4..9).collect(), 4.0)),
                SetDelta::upsert(7, set(vec![3], 1.0)),
                SetDelta::retire(7),
            ]),
            // A retire and re-upsert, two upserts of one id, and retires at
            // both ends.
            DeltaBatch::new(vec![
                SetDelta::retire(20),
                SetDelta::upsert(20, set((1..7).collect(), 2.0)),
                SetDelta::upsert(15, set((12..16).collect(), 1.5)),
                SetDelta::upsert(15, set((12..16).collect(), 2.5)),
                SetDelta::retire(1),
                SetDelta::retire(30),
            ]),
        ];
        let mut replayed: std::collections::BTreeMap<SetId, InputSet> = Default::default();
        for batch in &batches {
            engine.apply_batch(batch).expect("valid batch");
            for delta in &batch.deltas {
                match delta {
                    SetDelta::Upsert { id, set } => replayed.insert(*id, set.clone()),
                    SetDelta::Retire { id } => replayed.remove(id),
                };
            }
            let owned = persist::StreamCheckpoint {
                applied_batches: engine.applied_batches(),
                ids: replayed.keys().copied().collect(),
                instance: Instance::new(
                    30,
                    replayed.values().cloned().collect(),
                    engine.config().similarity,
                ),
            };
            let written = std::fs::read(&path).expect("checkpoint written");
            assert_eq!(written, persist::encode_stream_checkpoint(&owned).to_vec());
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resume_without_checkpoint_starts_fresh() {
        let path = scratch_path("absent.stream");
        let _ = std::fs::remove_file(&path);
        let cfg = StreamConfig {
            checkpoint: Some(path),
            ..config(10)
        };
        let (engine, outcome) = StreamEngine::resume(cfg).expect("fresh start");
        assert!(outcome.is_none());
        assert_eq!(engine.live_sets(), 0);
    }

    #[test]
    fn corrupt_checkpoint_is_reported() {
        let path = scratch_path("corrupt.stream");
        std::fs::write(&path, b"not a checkpoint").expect("write garbage");
        let cfg = StreamConfig {
            checkpoint: Some(path.clone()),
            ..config(10)
        };
        let err = StreamEngine::resume(cfg).expect_err("garbage must not resume");
        assert!(matches!(err, StreamError::Corrupt(_)), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn invalid_deltas_leave_state_untouched() {
        let mut engine = StreamEngine::new(config(10));
        engine
            .apply_batch(&DeltaBatch::new(vec![SetDelta::upsert(
                1,
                set(vec![0, 1], 1.0),
            )]))
            .expect("seed");

        let bad_weight = DeltaBatch::new(vec![SetDelta::upsert(2, set(vec![2], f64::NAN))]);
        assert!(matches!(
            engine.apply_batch(&bad_weight),
            Err(StreamError::InvalidDelta(_))
        ));
        let out_of_universe = DeltaBatch::new(vec![SetDelta::upsert(2, set(vec![99], 1.0))]);
        assert!(matches!(
            engine.apply_batch(&out_of_universe),
            Err(StreamError::InvalidDelta(_))
        ));
        let unknown_retire = DeltaBatch::new(vec![SetDelta::retire(42)]);
        assert!(matches!(
            engine.apply_batch(&unknown_retire),
            Err(StreamError::UnknownSet(42))
        ));
        // A bad delta later in a batch rejects the whole batch.
        let mixed = DeltaBatch::new(vec![
            SetDelta::upsert(5, set(vec![3], 1.0)),
            SetDelta::retire(42),
        ]);
        assert!(engine.apply_batch(&mixed).is_err());
        assert!(!engine.contains(5), "rejected batch must not half-apply");
        assert_eq!(engine.live_sets(), 1);
        assert_eq!(engine.applied_batches(), 1);
    }

    #[test]
    fn retire_of_same_batch_upsert_is_legal() {
        let mut engine = StreamEngine::new(config(10));
        let outcome = engine
            .apply_batch(&DeltaBatch::new(vec![
                SetDelta::upsert(7, set(vec![0, 1], 1.0)),
                SetDelta::retire(7),
            ]))
            .expect("upsert-then-retire in one batch");
        assert_eq!(outcome.stats.live_sets, 0);
        assert_eq!(tree_bytes(&outcome), tree_bytes(&engine.batch_rerun()));
    }

    #[test]
    fn empty_engine_builds_the_trivial_tree() {
        let mut engine = StreamEngine::new(config(5));
        let outcome = engine.rebuild();
        assert_eq!(outcome.score.total, 0.0);
        assert!(outcome.tree.validate(&engine.instance()).is_ok());
    }

    #[test]
    fn metrics_record_incremental_spans_and_counters() {
        let metrics = Metrics::enabled();
        let mut engine = StreamEngine::new(StreamConfig {
            metrics: metrics.clone(),
            ..config(20)
        });
        engine
            .apply_batch(&DeltaBatch::new(vec![
                SetDelta::upsert(1, set((0..5).collect(), 1.0)),
                SetDelta::upsert(2, set((3..9).collect(), 2.0)),
            ]))
            .expect("batch");
        let report = metrics.report();
        for span in [
            "incr",
            "incr/derive",
            "incr/classify",
            "incr/mis",
            "incr/mis/graph",
            "incr/mis/solve",
            "incr/skeleton",
            "incr/score",
        ] {
            assert!(report.span(span).is_some(), "missing span {span}");
        }
        assert_eq!(report.span("incr/derive").map(|s| s.count), Some(2));
        assert_eq!(report.counter("incr/upserts"), Some(2));
        assert!(report.counter("incr/reclassified_pairs").is_some());
        assert!(report.counter("incr/recounted_pairs").is_some());
        assert!(report.counter("incr/components_solved").unwrap_or(0) >= 1);
    }

    #[test]
    fn exact_variant_stream_matches_rerun() {
        let mut engine = StreamEngine::new(StreamConfig {
            threads: 1,
            ..StreamConfig::new(12, Similarity::exact())
        });
        engine
            .apply_batch(&DeltaBatch::new(vec![
                SetDelta::upsert(1, set(vec![0, 1, 2, 3], 2.0)),
                SetDelta::upsert(2, set(vec![0, 1], 1.0)),
                SetDelta::upsert(3, set(vec![2, 3, 4], 1.5)),
            ]))
            .expect("seed");
        let outcome = engine
            .apply_batch(&DeltaBatch::new(vec![SetDelta::upsert(
                2,
                set(vec![0, 1, 4], 1.2),
            )]))
            .expect("update");
        assert_eq!(tree_bytes(&outcome), tree_bytes(&engine.batch_rerun()));
    }
}
