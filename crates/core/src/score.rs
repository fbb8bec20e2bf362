//! Tree scoring: `S(Q, W, T) = Σ_q W(q) · max_{C∈T} S(q, C)`.
//!
//! Scoring must handle two very different tree shapes: the compact trees
//! produced by CTCR/CCT (hundreds of categories) and the deep binary
//! dendrograms of the item-clustering baselines (one node per merge over up
//! to millions of items). Nothing is materialized per category.
//!
//! # A dense view, scored set by set
//!
//! Each pass builds one [`TreeView`]: the live categories ranked in post
//! order, parent and depth by rank, an item → location-ranks CSR and the
//! deduplicated `|full(C)|` of every category. The kernel then scores the
//! input sets one at a time, the tree-structured counting of *Efficient
//! tree-structured categorical retrieval* (PAPERS.md):
//!
//! - an item with one location adds 1 there and stamps its chain up to the
//!   first category the set already reached;
//! - an item with several locations (raised bounds, or two placements on
//!   one root path after `remove_category`) walks its chains under a stamp
//!   of its own and takes the 1 back where a chain meets one it walked, so
//!   it counts once at every common ancestor;
//! - the reached categories are visited in post order: each is scored with
//!   its now complete `|q ∩ full(C)|` and passes that count to its parent.
//!
//! A set costs its placements plus the categories it reaches, with a log
//! factor for sorting them, so the deep item dendrograms stay linear in
//! what a set intersects. Only intersecting `(set, category)` pairs are
//! scored, and no hashing is involved.
//!
//! # Identical at every thread count
//!
//! A set's candidates reach its [`Cover::beats`] fold in post order, the
//! order [`score_tree_reference`] offers them in, and with the same
//! integers; the winners are the same bits by construction. Sets are
//! independent, so a parallel pass gives each worker a contiguous range of
//! sets and concatenates the winners in range order: the serial result at
//! every split. A configured thread count is a cap, not an order: the pass
//! splits only when each worker gets [`MIN_POSTINGS_PER_WORKER`] set items.
//!
//! # One cover order
//!
//! [`Cover`] is the workspace's one score-and-rank kernel: batch scoring,
//! the reference scorer, [`covering_map`], the point queries of
//! [`crate::point`] and the router's per-shard merge all evaluate
//! `S(q, C)` through [`Cover::new`] and pick winners with
//! [`Cover::beats`]; top-k rankings sort with [`Cover::exact_cmp`].

use std::ops::Range;

use oct_obs::{Counter, Metrics};
use oct_resilience::{run_isolated, Budget, ExecutionError};

use crate::csr::CsrIndex;
use crate::input::Instance;
use crate::itemset::ItemId;
use crate::similarity::{Similarity, EPS};
use crate::tree::{CatId, CategoryTree, ROOT};
use crate::util::FxHashMap;

/// Set items (input postings) a scoring worker must get before a pass
/// splits its sets. The kernel costs about 5 ns per posting. On a 2-vCPU
/// VM (A@0.5's sets repeated 1–32 times over its Exact CTCR tree, median
/// of 21 passes) a 2-way split lost or tied up to about 184k postings per
/// worker and first won clearly at 367k (734k in all: 4.1–4.7 → 3.3–4.0
/// ms).
pub const MIN_POSTINGS_PER_WORKER: usize = 1 << 18;

/// Knobs for [`score_tree_with`].
#[derive(Debug, Clone)]
pub struct ScoreOptions {
    /// Worker cap: `0` = all cores, `1` = serial, `n` = at most `n`. A pass
    /// splits only when every worker gets [`MIN_POSTINGS_PER_WORKER`] set
    /// items, so small instances score serially under any cap.
    pub threads: usize,
    /// Telemetry sink; spans `score/view` (the tree view build) and
    /// `score/evaluate` (the per-set kernel and the reduction), counters
    /// `score/categories`, `score/candidates` (intersecting
    /// `(set, category)` pairs scored) and `score/workers` are recorded
    /// here.
    pub metrics: Metrics,
    /// Wall-clock budget. On expiry the pass stops evaluating further sets;
    /// they keep no cover, so the score is a valid, pessimistic lower
    /// bound.
    pub budget: Budget,
}

impl Default for ScoreOptions {
    fn default() -> Self {
        Self {
            threads: 0,
            metrics: Metrics::disabled(),
            budget: Budget::unlimited(),
        }
    }
}

impl ScoreOptions {
    /// Options forcing the serial path.
    pub fn serial() -> Self {
        Self {
            threads: 1,
            ..Self::default()
        }
    }

    /// Options with an explicit worker cap (`0` = all cores).
    pub fn with_threads(threads: usize) -> Self {
        Self {
            threads,
            ..Self::default()
        }
    }
}

/// How one input set is served by a tree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SetCover {
    /// The category attaining the maximum similarity (`None` when every
    /// category scores 0).
    pub best_category: Option<CatId>,
    /// `max_C S(q, C)` under the instance's similarity variant.
    pub similarity: f64,
    /// `true` when the set is *covered*: the best similarity passes the
    /// set's threshold.
    pub covered: bool,
    /// Precision of the best covering category (1 when undefined).
    pub precision: f64,
}

/// Full scoring breakdown of a tree over an instance.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeScore {
    /// Weighted total `Σ W(q) · S(q, T)`.
    pub total: f64,
    /// `total / Σ W(q)` — the paper's normalized score in `[0, 1]`.
    pub normalized: f64,
    /// Per-input-set cover information, indexed like `instance.sets`.
    pub per_set: Vec<SetCover>,
}

impl TreeScore {
    /// Number of covered input sets.
    pub fn covered_count(&self) -> usize {
        self.per_set.iter().filter(|c| c.covered).count()
    }

    /// Total weight of covered input sets.
    pub fn covered_weight(&self, instance: &Instance) -> f64 {
        self.per_set
            .iter()
            .zip(&instance.sets)
            .filter(|(c, _)| c.covered)
            .map(|(_, s)| s.weight)
            .sum()
    }
}

/// One category scored for one set: the value every best-cover decision
/// compares, in batch scoring, point queries and the router's merge.
///
/// Two orders are defined on it. [`beats`](Self::beats) is the EPS-banded
/// best-cover order that every arg-max fold uses. It is not transitive
/// inside the band, so it is never a sort key: rankings sort with
/// [`exact_cmp`](Self::exact_cmp), the same keys compared exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cover {
    /// The category.
    pub cat: CatId,
    /// `S(q, C)` under the queried variant and threshold.
    pub similarity: f64,
    /// `|C ∩ q| / |C|` (1 when `C` is empty).
    pub precision: f64,
    /// Depth of the category (root = 0).
    pub depth: u32,
}

impl Cover {
    /// Scores category `cat` (at `depth`) for a set from the cardinalities
    /// `|q|`, `|C|` and `|C ∩ q|` under `similarity` with threshold `delta`.
    #[inline]
    pub fn new(
        similarity: &Similarity,
        delta: f64,
        q_len: usize,
        c_len: usize,
        inter: usize,
        cat: CatId,
        depth: u32,
    ) -> Self {
        Self {
            cat,
            similarity: similarity.score_with(delta, q_len, c_len, inter),
            precision: if c_len == 0 {
                1.0
            } else {
                inter as f64 / c_len as f64
            },
            depth,
        }
    }

    /// The best-cover order: does `self` beat the incumbent?
    ///
    /// A cover wins whenever its similarity is positive and beats the
    /// incumbent; `EPS` is used only to band ties, inside which higher
    /// precision, then the deeper category, then the lower `CatId` win.
    /// Depth precedes the id so a fully-tied ancestor (the root
    /// materializes the same items as an only child) cannot displace the
    /// more specific category — the condensing stage keeps exactly the best
    /// coverers. (Keeping the `similarity > 0` requirement out of the EPS
    /// comparison fixes the old bug where a best similarity in `(0, EPS]`
    /// left `best_category: None`.)
    #[inline]
    pub fn beats(&self, incumbent: Option<&Cover>) -> bool {
        if self.similarity <= 0.0 {
            return false;
        }
        let Some(best) = incumbent else {
            return true;
        };
        if self.similarity > best.similarity + EPS {
            return true;
        }
        if (self.similarity - best.similarity).abs() > EPS {
            return false;
        }
        if self.precision > best.precision + EPS {
            return true;
        }
        if (self.precision - best.precision).abs() > EPS {
            return false;
        }
        (self.depth, std::cmp::Reverse(self.cat)) > (best.depth, std::cmp::Reverse(best.cat))
    }

    /// The exact ranking order, best first: `(similarity, precision, depth)`
    /// descending, then the lowest `CatId`, with no EPS band — a total
    /// order, so a sort by it is a pure function of its inputs.
    pub fn exact_cmp(&self, other: &Cover) -> std::cmp::Ordering {
        other
            .similarity
            .total_cmp(&self.similarity)
            .then(other.precision.total_cmp(&self.precision))
            .then(other.depth.cmp(&self.depth))
            .then(self.cat.cmp(&other.cat))
    }
}

impl From<Option<Cover>> for SetCover {
    /// A set's outcome from its winning cover (`None`: nothing scored
    /// above zero; [`Cover::beats`] never records a zero similarity).
    fn from(best: Option<Cover>) -> Self {
        Self {
            best_category: best.map(|c| c.cat),
            similarity: best.map_or(0.0, |c| c.similarity),
            covered: best.is_some(),
            precision: best.map_or(1.0, |c| c.precision),
        }
    }
}

/// Scores category `cat` (at `depth`, `|C| = c_len`) for input set `s`.
fn set_cover(
    instance: &Instance,
    s: usize,
    c_len: usize,
    inter: usize,
    cat: CatId,
    depth: u32,
) -> Cover {
    let q_len = instance.sets[s].items.len();
    let delta = instance.threshold_of(s);
    Cover::new(&instance.similarity, delta, q_len, c_len, inter, cat, depth)
}

/// Offers `cover` as the best cover of set `s`.
fn offer(best: &mut [Option<Cover>], s: usize, cover: Cover) {
    if cover.beats(best[s].as_ref()) {
        best[s] = Some(cover);
    }
}

/// Reduces per-set winners to the weighted total and per-set breakdown.
fn tree_score(instance: &Instance, best: &[Option<Cover>]) -> TreeScore {
    let mut total = 0.0;
    let mut per_set = Vec::with_capacity(best.len());
    for (&cover, set) in best.iter().zip(&instance.sets) {
        let cover = SetCover::from(cover);
        total += set.weight * cover.similarity;
        per_set.push(cover);
    }
    let denom = instance.total_weight();
    TreeScore {
        total,
        normalized: if denom > 0.0 { total / denom } else { 0.0 },
        per_set,
    }
}

/// Marks the root's parent in a [`TreeView`].
const NO_PARENT: u32 = u32::MAX;

/// A dense, read-only view of a tree, built once per scoring pass (and
/// once per tree by [`crate::point::PointIndex`]). Categories are addressed
/// by *rank*, their position in post order, so children precede parents
/// and the root comes last.
#[derive(Debug, Clone)]
pub(crate) struct TreeView {
    /// Rank → category id.
    order: Vec<CatId>,
    /// Parent rank by rank ([`NO_PARENT`] for the root).
    parent: Vec<u32>,
    /// Depth by rank (root = 0).
    depth: Vec<u32>,
    /// Deduplicated `|full(C)|` by rank.
    size: Vec<u32>,
    /// Item → ranks of its direct categories, ascending; a rank repeats
    /// when the item sits twice in one category.
    locations: CsrIndex,
    /// Item → its one location's rank, or [`UNPLACED`] / [`PLACED_MORE`]:
    /// one read for the common case, the CSR only for the rest.
    placement: Vec<u32>,
}

/// [`TreeView::placement`] of an item in no category.
const UNPLACED: u32 = u32::MAX;
/// [`TreeView::placement`] of an item with several locations.
const PLACED_MORE: u32 = u32::MAX - 1;

impl TreeView {
    /// The view of `tree` over a universe of `num_items`.
    ///
    /// # Panics
    /// Panics when the tree holds an item outside the universe.
    pub(crate) fn new(tree: &CategoryTree, num_items: u32) -> Self {
        let order = tree.post_order();
        let mut rank = vec![NO_PARENT; tree.len()];
        for (r, &cat) in order.iter().enumerate() {
            rank[cat as usize] = r as u32;
        }
        let parent: Vec<u32> = order
            .iter()
            .map(|&cat| tree.parent(cat).map_or(NO_PARENT, |p| rank[p as usize]))
            .collect();
        // Parents follow their children, so a backward pass goes top-down.
        let mut depth = vec![0u32; order.len()];
        for r in (0..order.len()).rev() {
            if parent[r] != NO_PARENT {
                depth[r] = depth[parent[r] as usize] + 1;
            }
        }
        let locations = CsrIndex::build(num_items, order.iter().map(|&c| tree.direct_items(c)));
        let size = distinct_sizes(&parent, &locations);
        let placement = (locations.entries())
            .map(|(_, ranks)| match ranks {
                [] => UNPLACED,
                &[rank] => rank,
                _ => PLACED_MORE,
            })
            .collect();
        Self {
            order,
            parent,
            depth,
            size,
            locations,
            placement,
        }
    }

    /// Number of live categories.
    pub(crate) fn len(&self) -> usize {
        self.order.len()
    }

    /// `|full(C)|` of every category slot of a tree with `slots` slots;
    /// removed categories get 0.
    pub(crate) fn sizes_by_category(&self, slots: usize) -> Vec<usize> {
        let mut sizes = vec![0; slots];
        for (&cat, &size) in self.order.iter().zip(&self.size) {
            sizes[cat as usize] = size as usize;
        }
        sizes
    }

    /// The categories `item` is directly assigned to, as ranks.
    pub(crate) fn locations(&self, item: ItemId) -> &[u32] {
        self.locations.sets_of(item)
    }

    /// The category at `rank`.
    pub(crate) fn category(&self, rank: u32) -> CatId {
        self.order[rank as usize]
    }

    /// Scores the category at `rank` for a set of `q_len` items sharing
    /// `inter` of them with it.
    pub(crate) fn cover(
        &self,
        rank: usize,
        similarity: &Similarity,
        delta: f64,
        q_len: usize,
        inter: usize,
    ) -> Cover {
        let c_len = self.size[rank] as usize;
        let (cat, depth) = (self.order[rank], self.depth[rank]);
        Cover::new(similarity, delta, q_len, c_len, inter, cat, depth)
    }

    /// Universe size.
    pub(crate) fn num_items(&self) -> usize {
        self.locations.num_items()
    }
}

/// Adds one placement at `rank` of an item placed more than once: the walk
/// up stamps each category with `stamp` and, where it meets a category the
/// item's earlier walks stamped, takes the 1 back, so once counts flow
/// child to parent the item counts once at every common ancestor. `reach`
/// sees every category the walk stamps.
fn add_placement(
    rank: u32,
    stamp: u32,
    count: &mut [u32],
    walked_by: &mut [u32],
    parent: &[u32],
    mut reach: impl FnMut(u32),
) {
    count[rank as usize] = count[rank as usize].wrapping_add(1);
    let mut r = rank;
    while r != NO_PARENT {
        if walked_by[r as usize] == stamp {
            count[r as usize] = count[r as usize].wrapping_sub(1);
            return;
        }
        walked_by[r as usize] = stamp;
        reach(r);
        r = parent[r as usize];
    }
}

/// Deduplicated `|full(C)|` by rank: each item adds 1 at its location, or,
/// when it has several, goes through [`add_placement`] under its id as the
/// stamp; then counts flow child to parent. Counts wrap, as a meeting
/// category can dip below zero until its children's counts arrive.
fn distinct_sizes(parent: &[u32], locations: &CsrIndex) -> Vec<u32> {
    let mut size = vec![0u32; parent.len()];
    let mut walked_by = vec![u32::MAX; parent.len()];
    for (item, ranks) in locations.entries() {
        if let &[rank] = ranks {
            size[rank as usize] = size[rank as usize].wrapping_add(1);
        } else {
            for &rank in ranks {
                add_placement(rank, item, &mut size, &mut walked_by, parent, |_| {});
            }
        }
    }
    for r in 0..parent.len() {
        if parent[r] != NO_PARENT {
            let p = parent[r] as usize;
            size[p] = size[p].wrapping_add(size[r]);
        }
    }
    size
}

/// Advances a running epoch, clearing `stamps` when it would wrap.
fn next_epoch(epoch: &mut u32, stamps: &mut [u32]) -> u32 {
    if *epoch == u32::MAX {
        stamps.fill(0);
        *epoch = 0;
    }
    *epoch += 1;
    *epoch
}

/// One worker's (or one point query's) scratch for the set-major kernel,
/// sized by the view.
pub(crate) struct Hits {
    /// Pending `|q ∩ full(C)|` by rank; all zero between sets.
    count: Vec<u32>,
    /// The set (as a running epoch) that last reached each rank.
    reached_by: Vec<u32>,
    set_epoch: u32,
    /// The multi-placement item (as a running epoch) that last walked each
    /// rank.
    walked_by: Vec<u32>,
    item_epoch: u32,
    /// The ranks the current set reached.
    reached: Vec<u32>,
}

impl Hits {
    pub(crate) fn new(view: &TreeView) -> Self {
        Self {
            count: vec![0; view.len()],
            reached_by: vec![0; view.len()],
            set_epoch: 0,
            walked_by: vec![0; view.len()],
            item_epoch: 0,
            reached: Vec::new(),
        }
    }

    /// Calls `visit(rank, |q ∩ full(C)|)` for every category whose subtree
    /// holds an item of `items`, in post order. `items` must be distinct
    /// and inside the view's universe.
    pub(crate) fn for_each(
        &mut self,
        view: &TreeView,
        items: &[ItemId],
        mut visit: impl FnMut(usize, usize),
    ) {
        let set = next_epoch(&mut self.set_epoch, &mut self.reached_by);
        let Self {
            count,
            reached_by,
            walked_by,
            item_epoch,
            reached,
            ..
        } = self;
        let parent = view.parent.as_slice();
        reached.clear();
        for &item in items {
            match view.placement[item as usize] {
                UNPLACED => {}
                PLACED_MORE => {
                    let stamp = next_epoch(item_epoch, walked_by);
                    for &rank in view.locations(item) {
                        add_placement(rank, stamp, count, walked_by, parent, |r| {
                            if reached_by[r as usize] != set {
                                reached_by[r as usize] = set;
                                reached.push(r);
                            }
                        });
                    }
                }
                rank => {
                    count[rank as usize] = count[rank as usize].wrapping_add(1);
                    let mut r = rank;
                    while r != NO_PARENT && reached_by[r as usize] != set {
                        reached_by[r as usize] = set;
                        reached.push(r);
                        r = parent[r as usize];
                    }
                }
            }
        }
        reached.sort_unstable();
        for &r in reached.iter() {
            let inter = std::mem::take(&mut count[r as usize]);
            if parent[r as usize] != NO_PARENT {
                let p = parent[r as usize] as usize;
                count[p] = count[p].wrapping_add(inter);
            }
            visit(r as usize, inter as usize);
        }
    }
}

/// Scores the sets of `range`: their winners, and whether the budget
/// expired before the last of them.
fn score_range(
    view: &TreeView,
    instance: &Instance,
    range: Range<usize>,
    budget: &Budget,
    candidates: &Counter,
) -> (Vec<Option<Cover>>, bool) {
    let mut hits = Hits::new(view);
    let mut best = vec![None; range.len()];
    let mut scored = 0u64;
    let mut expired = false;
    for (winner, s) in best.iter_mut().zip(range) {
        if budget.is_limited() && budget.expired() {
            expired = true;
            break;
        }
        let q = &instance.sets[s].items;
        let delta = instance.threshold_of(s);
        hits.for_each(view, q.as_slice(), |r, inter| {
            let cover = view.cover(r, &instance.similarity, delta, q.len(), inter);
            if cover.beats(winner.as_ref()) {
                *winner = Some(cover);
            }
            scored += 1;
        });
    }
    candidates.add(scored);
    (best, expired)
}

/// Scores every set, one contiguous range of `ranges` per worker, and
/// concatenates the winners in range order, which is the serial result at
/// every split. Returns the winners and whether the budget expired. Every
/// worker runs under `catch_unwind`; a panic in any of them surfaces as
/// [`ExecutionError::WorkerPanicked`].
fn score_sets(
    view: &TreeView,
    instance: &Instance,
    ranges: &[Range<usize>],
    budget: &Budget,
    candidates: &Counter,
) -> Result<(Vec<Option<Cover>>, bool), ExecutionError> {
    let work = |range: &Range<usize>| {
        run_isolated("score workers", || {
            score_range(view, instance, range.clone(), budget, candidates)
        })
    };
    let parts: Vec<_> = if let [range] = ranges {
        vec![work(range)]
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = ranges
                .iter()
                .map(|range| scope.spawn(move || work(range)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect()
        })
    };
    let mut best = Vec::with_capacity(instance.num_sets());
    let mut expired = false;
    for part in parts {
        let (winners, part_expired) = part?;
        best.extend(winners);
        expired |= part_expired;
    }
    Ok((best, expired))
}

/// Workers for a pass over `postings` set items: at most `threads` (`0` =
/// all cores) and `num_sets`, and no more than give each
/// [`MIN_POSTINGS_PER_WORKER`] items.
fn worker_count(postings: usize, num_sets: usize, threads: usize) -> usize {
    let cap = if threads == 0 {
        std::thread::available_parallelism().map_or(1, |p| p.get())
    } else {
        threads
    };
    cap.min(postings / MIN_POSTINGS_PER_WORKER)
        .min(num_sets)
        .max(1)
}

/// Splits the sets into at most `workers` non-empty contiguous ranges of
/// about equal item count (one range when there are no sets).
fn set_ranges(instance: &Instance, workers: usize) -> Vec<Range<usize>> {
    let n = instance.num_sets();
    let total: usize = instance.sets.iter().map(|set| set.items.len()).sum();
    let share = total.div_ceil(workers.max(1));
    let mut ranges = Vec::with_capacity(workers);
    let (mut lo, mut acc) = (0, 0);
    for (s, set) in instance.sets.iter().enumerate() {
        acc += set.items.len();
        if acc >= share && ranges.len() + 1 < workers && s + 1 < n {
            ranges.push(lo..s + 1);
            (lo, acc) = (s + 1, 0);
        }
    }
    ranges.push(lo..n);
    ranges
}

/// Scores `tree` against `instance` with default options: every core, once
/// the instance is large enough to split.
///
/// Runs in `O(Σ_q (placements(q) + reached(q) · log reached(q)))` after an
/// `O(V + Σ_C |direct(C)|)` view, where `reached(q)` counts the categories
/// whose subtree holds an item of `q`.
pub fn score_tree(instance: &Instance, tree: &CategoryTree) -> TreeScore {
    score_tree_with(instance, tree, &ScoreOptions::default())
}

/// Scores `tree` against `instance`, optionally across worker threads.
///
/// The output is identical for every thread count (see the module docs for
/// the argument); `parallel matches serial` is pinned by a proptest.
///
/// # Panics
/// Re-raises a scoring-worker panic (contained as a typed error by
/// [`try_score_tree_with`]) in the calling thread. Use the `try_` variant
/// where a worker panic must not unwind.
pub fn score_tree_with(
    instance: &Instance,
    tree: &CategoryTree,
    options: &ScoreOptions,
) -> TreeScore {
    try_score_tree_with(instance, tree, options).unwrap_or_else(|e| panic!("{e}"))
}

/// [`score_tree_with`] with scoring isolated: the view build and every
/// worker run under `catch_unwind`, so a panic surfaces as
/// [`ExecutionError::WorkerPanicked`] instead of unwinding (or, with
/// multiple panicking workers, aborting) the process.
///
/// # Errors
/// Returns [`ExecutionError::WorkerPanicked`] when scoring panics.
pub fn try_score_tree_with(
    instance: &Instance,
    tree: &CategoryTree,
    options: &ScoreOptions,
) -> Result<TreeScore, ExecutionError> {
    try_score_tree_viewed(instance, tree, options).map(|(score, _)| score)
}

/// [`score_tree_with`] that also returns the view it scored, for a caller
/// that reads category sizes or item locations next.
pub(crate) fn score_tree_viewed(
    instance: &Instance,
    tree: &CategoryTree,
    options: &ScoreOptions,
) -> (TreeScore, TreeView) {
    try_score_tree_viewed(instance, tree, options).unwrap_or_else(|e| panic!("{e}"))
}

fn try_score_tree_viewed(
    instance: &Instance,
    tree: &CategoryTree,
    options: &ScoreOptions,
) -> Result<(TreeScore, TreeView), ExecutionError> {
    let metrics = &options.metrics;
    let view = {
        let _span = metrics.span("score/view");
        run_isolated("score workers", || TreeView::new(tree, instance.num_items))?
    };
    metrics.add("score/categories", view.len() as u64);
    let _span = metrics.span("score/evaluate");
    let postings = instance.sets.iter().map(|set| set.items.len()).sum();
    let workers = worker_count(postings, instance.num_sets(), options.threads);
    let ranges = set_ranges(instance, workers);
    metrics.add("score/workers", ranges.len() as u64);
    let candidates = metrics.counter("score/candidates");
    let (best, expired) = score_sets(&view, instance, &ranges, &options.budget, &candidates)?;
    if expired {
        metrics.incr("budget/expired");
    }
    Ok((tree_score(instance, &best), view))
}

/// A deliberately naive reference scorer over plain [`ItemSet`]s: per
/// category it materializes the full subtree item set with scalar unions
/// and computes every `|C ∩ q|` with [`ItemSet::intersection_size`] — no
/// inverted index, no tree view, no threads.
///
/// Similarities and winners come from the same [`Cover::new`] and
/// [`Cover::beats`] on the same integers, offered in the same post order,
/// so the result is bit-identical to [`score_tree`]; the differential
/// suites pin the production kernel against this. Quadratic in practice —
/// test-sized inputs only.
pub fn score_tree_reference(instance: &Instance, tree: &CategoryTree) -> TreeScore {
    use crate::itemset::ItemSet;
    let mut best = vec![None; instance.num_sets()];
    let mut pending: FxHashMap<CatId, ItemSet> = FxHashMap::default();
    for cat in tree.post_order() {
        let mut items = ItemSet::new(tree.direct_items(cat).to_vec());
        for &child in tree.children(cat) {
            let child_items = pending.remove(&child).expect("child processed first");
            items = items.union(&child_items);
        }
        let (c_len, depth) = (items.len(), tree.depth(cat) as u32);
        for (s, set) in instance.sets.iter().enumerate() {
            let inter = items.intersection_size(&set.items);
            if inter == 0 {
                // The kernel only ever evaluates (category, set) pairs that
                // intersect; skip likewise so empty categories and disjoint
                // sets cannot diverge.
                continue;
            }
            let cover = set_cover(instance, s, c_len, inter, cat, depth);
            offer(&mut best, s, cover);
        }
        pending.insert(cat, items);
        if cat == ROOT {
            break;
        }
    }
    tree_score(instance, &best)
}

/// Computes, per live category, which input sets it covers (similarity
/// passes the set's threshold), ascending. Used by category labeling and
/// rendering.
pub fn covering_map(instance: &Instance, tree: &CategoryTree) -> FxHashMap<CatId, Vec<u32>> {
    let view = TreeView::new(tree, instance.num_items);
    let mut hits = Hits::new(&view);
    let mut covers: FxHashMap<CatId, Vec<u32>> = FxHashMap::default();
    for (s, set) in instance.sets.iter().enumerate() {
        let delta = instance.threshold_of(s);
        let q_len = set.items.len();
        hits.for_each(&view, set.items.as_slice(), |r, inter| {
            let c_len = view.size[r] as usize;
            if instance.similarity.covers_with(delta, q_len, c_len, inter) {
                covers.entry(view.order[r]).or_default().push(s as u32);
            }
        });
    }
    covers
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assign::{assign_items_indexed, tests::random_case};
    use crate::input::{figure2_instance, InputSet, Instance};
    use crate::itemset::ItemSet;
    use crate::similarity::Similarity;
    use crate::tree::CategoryTree;
    use proptest::prelude::*;

    /// Scores through the crate-private split: one worker per range.
    fn score_split(instance: &Instance, tree: &CategoryTree, ranges: &[Range<usize>]) -> TreeScore {
        let view = TreeView::new(tree, instance.num_items);
        let candidates = Metrics::disabled().counter("score/candidates");
        let (best, expired) =
            score_sets(&view, instance, ranges, &Budget::unlimited(), &candidates)
                .expect("no worker panics");
        assert!(!expired);
        tree_score(instance, &best)
    }

    /// `parts` contiguous ranges over `n` sets, as even as they divide.
    fn even_ranges(n: usize, parts: usize) -> Vec<Range<usize>> {
        (0..parts)
            .map(|p| p * n / parts..(p + 1) * n / parts)
            .collect()
    }

    /// Builds the paper's Figure 2 tree `T1` (Perfect-Recall optimum).
    fn figure2_t1() -> CategoryTree {
        let mut t = CategoryTree::new();
        let c1 = t.add_category(ROOT); // {a,b,c,d,e,f} via descendants
        let c2 = t.add_category(ROOT); // {g,h,i}
        let c3 = t.add_category(c1); // {a,b}
        let c4 = t.add_category(c1); // {c,d,e,f}
        t.assign_items(c3, [0, 1]);
        t.assign_items(c4, [2, 3, 4, 5]);
        t.assign_items(c2, [6, 7, 8]);
        t
    }

    #[test]
    fn expired_budget_scores_pessimistically_without_panicking() {
        let inst = figure2_instance(Similarity::perfect_recall(0.8));
        let full = score_tree(&inst, &figure2_t1());
        for threads in [1, 4] {
            let metrics = Metrics::enabled();
            let options = ScoreOptions {
                threads,
                metrics: metrics.clone(),
                budget: Budget::expired_now(),
            };
            let score = score_tree_with(&inst, &figure2_t1(), &options);
            // Unevaluated categories never become a best cover, so the
            // degraded score is a lower bound on the full score.
            assert!(score.total <= full.total + 1e-9, "threads={threads}");
            assert!(score.per_set.len() == full.per_set.len());
            assert_eq!(metrics.report().counter("budget/expired"), Some(1));
        }
        // A generous deadline evaluates everything.
        let options = ScoreOptions {
            budget: Budget::with_deadline(std::time::Duration::from_secs(600)),
            ..ScoreOptions::default()
        };
        assert_eq!(score_tree_with(&inst, &figure2_t1(), &options), full);
    }

    #[test]
    fn out_of_universe_item_panic_becomes_typed_error() {
        let inst = figure2_instance(Similarity::perfect_recall(0.8));
        // Item 9 is past the instance's nine items, so the inverted-index
        // lookup panics inside a scoring worker. It sits in a leaf, which
        // a worker aggregates at every thread count.
        let mut tree = figure2_t1();
        let leaf = tree.children(tree.children(ROOT)[0])[0];
        tree.assign_items(leaf, [9]);
        for threads in [1, 4] {
            let err = try_score_tree_with(&inst, &tree, &ScoreOptions::with_threads(threads))
                .expect_err("an out-of-universe item must surface as an error");
            let ExecutionError::WorkerPanicked { context, message } = err;
            assert_eq!(context, "score workers", "threads = {threads}");
            assert!(message.contains("out of bounds"), "{message}");
        }
        // The well-formed tree scores as usual.
        let score = try_score_tree_with(&inst, &figure2_t1(), &ScoreOptions::serial())
            .expect("every item is in the universe");
        assert!((score.total - 4.0).abs() < 1e-9);
    }

    #[test]
    fn perfect_recall_scores_figure2_t1() {
        let inst = figure2_instance(Similarity::perfect_recall(0.8));
        let score = score_tree(&inst, &figure2_t1());
        // Paper Example 2.1: q1, q2, q3 covered; q4 not. Total = 2+1+1 = 4.
        assert!((score.total - 4.0).abs() < 1e-9);
        assert!((score.normalized - 0.8).abs() < 1e-9);
        assert!(score.per_set[0].covered);
        assert!(score.per_set[1].covered);
        assert!(score.per_set[2].covered);
        assert!(!score.per_set[3].covered);
    }

    /// Builds the paper's Figure 2 tree `T2` (cutoff-Jaccard optimum).
    fn figure2_t2() -> CategoryTree {
        let mut t = CategoryTree::new();
        let c1 = t.add_category(ROOT); // {a,b,c,d,e}
        let c2 = t.add_category(ROOT); // {f,g,h,i}
        let c3 = t.add_category(c1); // {a,b}
        let c4 = t.add_category(c1); // {c,d,e}
        t.assign_items(c3, [0, 1]);
        t.assign_items(c4, [2, 3, 4]);
        t.assign_items(c2, [5, 6, 7, 8]);
        t
    }

    #[test]
    fn cutoff_jaccard_scores_figure2_t2() {
        let inst = figure2_instance(Similarity::jaccard_cutoff(0.6));
        let score = score_tree(&inst, &figure2_t2());
        // Paper Figure 2: 2·1 + 1·1 + 1·(3/4) + 1·(2/3) = 4 + 5/12.
        let expected = 2.0 + 1.0 + 0.75 + 2.0 / 3.0;
        assert!(
            (score.total - expected).abs() < 1e-9,
            "got {}, expected {expected}",
            score.total
        );
        assert_eq!(score.covered_count(), 4);
    }

    #[test]
    fn root_counts_as_a_category() {
        // A set equal to the whole universe is covered by the root.
        let sets = vec![InputSet::new(ItemSet::new(vec![0, 1, 2]), 1.0)];
        let inst = Instance::new(3, sets, Similarity::jaccard_threshold(0.9));
        let mut t = CategoryTree::new();
        let a = t.add_category(ROOT);
        t.assign_items(a, [0, 1]);
        t.assign_item(ROOT, 2);
        let score = score_tree(&inst, &t);
        assert!((score.total - 1.0).abs() < 1e-9);
        assert_eq!(score.per_set[0].best_category, Some(ROOT));
    }

    #[test]
    fn empty_tree_scores_zero() {
        let inst = figure2_instance(Similarity::jaccard_cutoff(0.5));
        let t = CategoryTree::new();
        let score = score_tree(&inst, &t);
        assert_eq!(score.total, 0.0);
        assert_eq!(score.covered_count(), 0);
    }

    #[test]
    fn ties_prefer_higher_precision() {
        // Two categories cover the set with threshold score 1; the one with
        // higher precision should be reported as best.
        let sets = vec![InputSet::new(ItemSet::new(vec![0, 1, 2, 3]), 1.0)];
        let inst = Instance::new(6, sets, Similarity::jaccard_threshold(0.6));
        let mut t2 = CategoryTree::new();
        let sloppy2 = t2.add_category(ROOT);
        let tight2 = t2.add_category(sloppy2);
        t2.assign_items(tight2, [0, 1, 2, 3]);
        t2.assign_items(sloppy2, [4, 5]);
        let score = score_tree(&inst, &t2);
        assert_eq!(score.per_set[0].best_category, Some(tight2));
        assert_eq!(score.per_set[0].precision, 1.0);
    }

    #[test]
    fn exact_ties_prefer_lower_category_id() {
        // Two sibling categories with symmetric items relative to the set:
        // same similarity, same precision, same depth — the lower id must
        // win, on the serial and every parallel path.
        let sets = vec![InputSet::new(ItemSet::new(vec![0, 1]), 1.0)];
        let inst = Instance::new(10, sets, Similarity::jaccard_cutoff(0.1));
        let mut t = CategoryTree::new();
        let a = t.add_category(ROOT);
        let b = t.add_category(ROOT);
        let filler = t.add_category(ROOT);
        t.assign_items(a, [0, 2]); // J = 1/3, precision 1/2
        t.assign_items(b, [1, 3]); // J = 1/3, precision 1/2
        t.assign_items(filler, [4, 5, 6, 7, 8, 9]); // keeps ROOT's J at 1/5
        for threads in [1, 2, 4] {
            let score = score_tree_with(&inst, &t, &ScoreOptions::with_threads(threads));
            assert_eq!(score.per_set[0].best_category, Some(a), "threads={threads}");
        }
    }

    #[test]
    fn full_ties_prefer_the_deeper_category() {
        // An only child materializes the same items as its parent: every
        // metric ties, and the deeper (more specific) category must win —
        // the condensing stage relies on this to keep the specific coverer.
        let sets = vec![InputSet::new(ItemSet::new(vec![0, 1]), 1.0)];
        let inst = Instance::new(2, sets, Similarity::jaccard_threshold(0.8));
        let mut t = CategoryTree::new();
        let leaf = t.add_category(ROOT);
        t.assign_items(leaf, [0, 1]);
        for threads in [1, 2] {
            let score = score_tree_with(&inst, &t, &ScoreOptions::with_threads(threads));
            assert_eq!(
                score.per_set[0].best_category,
                Some(leaf),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn tiny_positive_similarity_is_attributed() {
        // Regression for the (0, EPS] hole: a positive similarity at or
        // below EPS must still name a best category. Unreachable through the
        // public builders (it needs a union of ~1e9 items), so the predicate
        // is exercised directly.
        let eps_sim = EPS / 2.0;
        let cover = |cat, depth| Cover {
            cat,
            similarity: eps_sim,
            precision: 1.0,
            depth,
        };
        assert!(cover(3, 1).beats(None));
        // And it must not be *lost* to the EPS band once recorded: an
        // exactly-equal competitor with equal precision and depth only wins
        // by the lower id.
        let incumbent = cover(3, 1);
        assert!(!cover(5, 1).beats(Some(&incumbent)));
        assert!(cover(2, 1).beats(Some(&incumbent)));
        // Deeper beats the id on full ties; zero similarity never wins.
        assert!(cover(5, 2).beats(Some(&incumbent)));
        let zero = Cover {
            similarity: 0.0,
            ..cover(1, 1)
        };
        assert!(!zero.beats(None));
    }

    #[test]
    fn reference_scorer_matches_production_bitwise() {
        for similarity in [
            Similarity::perfect_recall(0.8),
            Similarity::jaccard_cutoff(0.6),
            Similarity::jaccard_threshold(0.6),
        ] {
            let inst = figure2_instance(similarity);
            for t in [figure2_t1(), figure2_t2(), CategoryTree::new()] {
                let production = score_tree(&inst, &t);
                let reference = score_tree_reference(&inst, &t);
                assert_eq!(production, reference, "{:?}", similarity.kind);
            }
        }
    }

    #[test]
    fn parallel_matches_serial_on_figure2() {
        for similarity in [
            Similarity::perfect_recall(0.8),
            Similarity::jaccard_cutoff(0.6),
            Similarity::jaccard_threshold(0.6),
        ] {
            let inst = figure2_instance(similarity);
            for t in [figure2_t1(), figure2_t2()] {
                let serial = score_tree_with(&inst, &t, &ScoreOptions::serial());
                for parts in [2, 3, 4] {
                    let parallel = score_split(&inst, &t, &even_ranges(inst.num_sets(), parts));
                    assert_eq!(serial, parallel, "parts={parts}");
                }
            }
        }
    }

    #[test]
    fn parallel_handles_deep_single_chains() {
        // A path tree: every set reaches most of the chain, and an item
        // placed twice on the one root path must count once.
        let sets = vec![
            InputSet::new(ItemSet::new(vec![0, 1, 2]), 1.0),
            InputSet::new(ItemSet::new(vec![5, 7]), 2.0),
            InputSet::new(ItemSet::new(vec![3, 4, 5, 6]), 1.0).with_threshold(0.5),
        ];
        let inst = Instance::new(8, sets, Similarity::jaccard_cutoff(0.1))
            .with_item_bounds(vec![1, 1, 1, 1, 1, 2, 1, 1]);
        let mut t = CategoryTree::new();
        let mut parent = ROOT;
        for item in 0..8 {
            parent = t.add_category(parent);
            t.assign_item(parent, item);
        }
        t.assign_item(2, 5);
        let reference = score_tree_reference(&inst, &t);
        assert_eq!(
            score_tree_with(&inst, &t, &ScoreOptions::serial()),
            reference
        );
        for parts in [2, 3] {
            assert_eq!(score_split(&inst, &t, &even_ranges(3, parts)), reference);
        }
    }

    #[test]
    fn work_is_bounded_by_the_intersecting_pairs() {
        // A 10,000-deep path with an item every 50 levels. Each set is
        // scored at exactly the categories it intersects, however deep.
        const DEPTH: usize = 10_000;
        let mut t = CategoryTree::new();
        let mut parent = ROOT;
        for level in 1..=DEPTH {
            parent = t.add_category(parent);
            if level % 50 == 1 {
                t.assign_item(parent, (level / 50) as ItemId);
            }
        }
        let sets = vec![
            InputSet::new(ItemSet::new(vec![0]), 1.0),
            InputSet::new(ItemSet::new(vec![3, 150, 199]), 1.0),
            InputSet::new(ItemSet::new((0..200).collect()), 2.0),
            InputSet::new(ItemSet::new(vec![7, 8]), 1.0).with_threshold(0.01),
        ];
        let inst = Instance::new(200, sets, Similarity::jaccard_cutoff(0.005));
        let full = t.materialize();
        let intersecting: usize = inst
            .sets
            .iter()
            .map(|set| {
                let meets = |items: &&ItemSet| items.intersection_size(&set.items) > 0;
                full.iter().filter(meets).count()
            })
            .sum();
        let metrics = Metrics::enabled();
        let options = ScoreOptions {
            metrics: metrics.clone(),
            ..ScoreOptions::serial()
        };
        let score = score_tree_with(&inst, &t, &options);
        assert_eq!(score, score_tree_reference(&inst, &t));
        let candidates = metrics.report().counter("score/candidates");
        assert_eq!(candidates, Some(intersecting as u64));
        assert!(
            intersecting > 2 * DEPTH,
            "the sets reach deep: {intersecting}"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Every split of the sets into contiguous worker ranges scores
        /// bit-identically to the reference, on assigned random trees
        /// (every variant, per-set thresholds, raised item bounds) with an
        /// item placed twice in one category and a removed category whose
        /// items join their parent's.
        #[test]
        fn split_matches_reference(seed in any::<u64>(), cut in any::<u64>()) {
            let (instance, mut tree, targets, greedy) = random_case(seed);
            assign_items_indexed(&instance, &instance.inverted_index(), &mut tree, &targets, greedy);
            let live = tree.live_categories();
            let pick = live[(cut as usize) % live.len()];
            if let Some(&item) = tree.direct_items(pick).first() {
                tree.assign_item(pick, item);
            }
            if live.len() > 1 {
                tree.remove_category(live[1 + (cut as usize / 7) % (live.len() - 1)]);
            }
            let reference = score_tree_reference(&instance, &tree);
            let n = instance.num_sets();
            prop_assert_eq!(&score_split(&instance, &tree, &even_ranges(n, 1)), &reference);
            for parts in [2, 4] {
                let split = score_split(&instance, &tree, &even_ranges(n, parts));
                prop_assert_eq!(&split, &reference, "parts={}", parts);
            }
        }
    }

    #[test]
    fn score_records_spans_and_counters() {
        let metrics = Metrics::enabled();
        let inst = figure2_instance(Similarity::perfect_recall(0.8));
        let options = ScoreOptions {
            threads: 2,
            metrics: metrics.clone(),
            ..ScoreOptions::default()
        };
        score_tree_with(&inst, &figure2_t1(), &options);
        let report = metrics.report();
        assert!(report.span("score/view").is_some());
        assert!(report.span("score/evaluate").is_some());
        // All five categories (incl. root) are in the view.
        assert_eq!(report.counter("score/categories"), Some(5));
        assert!(report.counter("score/candidates").unwrap_or(0) > 0);
        // Two threads are a cap: five sets are far too few to split.
        assert_eq!(report.counter("score/workers"), Some(1));
    }

    #[test]
    fn set_ranges_partition_the_sets() {
        let sizes = [3usize, 1, 4, 1, 5, 9, 2, 6];
        let sets: Vec<InputSet> = sizes
            .iter()
            .map(|&n| InputSet::new(ItemSet::new((0..n as u32).collect()), 1.0))
            .collect();
        let inst = Instance::new(10, sets, Similarity::jaccard_cutoff(0.5));
        // Below the per-worker cutoff every cap scores serially; above it
        // the cap holds, and no more workers than sets are asked for.
        let min = MIN_POSTINGS_PER_WORKER;
        for threads in [0, 1, 2, 8] {
            assert_eq!(worker_count(min - 1, 8, threads), 1, "threads={threads}");
        }
        assert_eq!(worker_count(4 * min, 8, 2), 2);
        assert_eq!(worker_count(4 * min, 8, 3), 3);
        assert_eq!(worker_count(3 * min, 8, 8), 3);
        assert_eq!(worker_count(64 * min, 8, 64), 8);
        assert_eq!(worker_count(64 * min, 0, 64), 1);
        // The ranges tile the sets in order, none empty.
        for workers in 1..=10 {
            let ranges = set_ranges(&inst, workers);
            assert!(ranges.len() <= workers, "workers={workers}");
            assert_eq!(ranges.first().map(|r| r.start), Some(0));
            assert_eq!(ranges.last().map(|r| r.end), Some(8));
            assert!(ranges.windows(2).all(|w| w[0].end == w[1].start));
            assert!(ranges.iter().all(|r| !r.is_empty()));
        }
    }

    #[test]
    fn covering_map_lists_covering_categories() {
        let inst = figure2_instance(Similarity::perfect_recall(0.8));
        let t = figure2_t1();
        let covers = covering_map(&inst, &t);
        // c1 (id 1) covers q1 (idx 0); c3 (id 3) covers q2; c4 covers q3.
        assert_eq!(covers.get(&1).cloned(), Some(vec![0]));
        assert_eq!(covers.get(&3).cloned(), Some(vec![1]));
        assert_eq!(covers.get(&4).cloned(), Some(vec![2]));
        assert!(!covers.contains_key(&2), "C2 covers nothing");
    }

    #[test]
    fn normalization_uses_total_weight() {
        let inst = figure2_instance(Similarity::perfect_recall(0.8));
        let score = score_tree(&inst, &figure2_t1());
        assert!((score.normalized - score.total / 5.0).abs() < 1e-12);
        assert!((score.covered_weight(&inst) - 4.0).abs() < 1e-9);
    }
}
