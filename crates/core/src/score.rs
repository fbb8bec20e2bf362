//! Tree scoring: `S(Q, W, T) = Σ_q W(q) · max_{C∈T} S(q, C)`.
//!
//! Scoring must handle two very different tree shapes: the compact trees
//! produced by CTCR/CCT (hundreds of categories) and the enormous binary
//! hierarchies produced by the item-clustering baselines (one node per
//! merge over up to millions of items). The implementation therefore avoids
//! materializing per-category item sets; it aggregates, bottom-up with
//! small-to-large merging, a map `input set → |C ∩ q|` together with the
//! deduplicated category size, evaluating every category against exactly
//! the sets it intersects.
//!
//! # Parallel evaluation
//!
//! [`score_tree_with`] splits the tree into disjoint subtrees along a
//! *frontier* (the root's children, recursively expanded until there are
//! enough pieces) and hands contiguous frontier chunks to
//! `std::thread::scope` workers. Each worker aggregates and evaluates its
//! subtrees into private best-cover arrays; the main thread merges the
//! per-worker winners in chunk order, finishes the *spine* (the expanded
//! ancestors, root last) from the workers' subtree aggregates, and reduces.
//!
//! The result is identical to the serial pass: aggregation is exact integer
//! set arithmetic, per-category similarities are computed by the same
//! [`Cover::new`] on the same integers, and the best cover of a set is the
//! maximum under [`Cover::beats`] — a fold whose result does not depend on
//! evaluation order when equal similarities are bit-equal (always the case
//! for the single-division Jaccard/F1/recall values; pathological
//! near-`EPS` spacings could in principle differ, which the EPS tie-band
//! makes non-transitive).
//!
//! # One cover order
//!
//! [`Cover`] is the workspace's one score-and-rank kernel: batch scoring,
//! the reference scorer, [`covering_map`], the point queries of
//! [`crate::point`] and the router's per-shard merge all evaluate
//! `S(q, C)` through [`Cover::new`] and pick winners with
//! [`Cover::beats`]; top-k rankings sort with [`Cover::exact_cmp`].

use oct_obs::{Counter, Metrics};
use oct_resilience::{run_isolated, Budget, ExecutionError};

use crate::csr::CsrIndex;
use crate::input::Instance;
use crate::similarity::{Similarity, EPS};
use crate::tree::{CatId, CategoryTree, ROOT};
use crate::util::{FxHashMap, FxHashSet};

/// Trees below this node count are scored serially under auto threading
/// (the scoring loop is cheaper than spawning).
pub const PARALLEL_MIN_CATEGORIES: usize = 512;

/// Stop expanding the frontier beyond this many subtrees.
const MAX_FRONTIER: usize = 4096;

/// How often (in categories) scoring loops read the wall clock.
pub(crate) const DEADLINE_STRIDE: u64 = 64;

/// Knobs for [`score_tree_with`].
#[derive(Debug, Clone)]
pub struct ScoreOptions {
    /// Worker threads: `0` = auto (all cores, serial for small trees),
    /// `1` = serial, `n ≥ 2` = always partition across `n` workers.
    pub threads: usize,
    /// Telemetry sink; spans `score/aggregate` / `score/evaluate` and
    /// counters `score/categories` / `score/candidates` are recorded here.
    pub metrics: Metrics,
    /// Wall-clock budget. On expiry the scoring pass keeps aggregating
    /// (cheap, needed for structural consistency) but stops evaluating
    /// further categories, so unevaluated categories simply never become a
    /// set's best cover — a valid, pessimistic score.
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

    /// Options with an explicit worker count (`0` = auto).
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

#[derive(Default)]
struct Agg {
    /// Deduplicated items of the category's subtree.
    items: FxHashSet<u32>,
    /// `input set → |C ∩ q|`.
    inter: FxHashMap<u32, u32>,
}

impl Agg {
    fn insert_item(&mut self, item: u32, index: &CsrIndex) {
        if self.items.insert(item) {
            for &set in &index[item as usize] {
                *self.inter.entry(set).or_insert(0) += 1;
            }
        }
    }
}

/// Aggregates category `cat` from its (already aggregated) children in
/// `pending` plus its direct items, with small-to-large merging.
fn aggregate_node(
    tree: &CategoryTree,
    cat: CatId,
    pending: &mut FxHashMap<CatId, Agg>,
    index: &CsrIndex,
) -> Agg {
    let mut agg = Agg::default();
    for &child in tree.children(cat) {
        let mut child_agg = pending.remove(&child).expect("child processed first");
        if child_agg.items.len() > agg.items.len() {
            std::mem::swap(&mut agg, &mut child_agg);
        }
        for item in child_agg.items {
            agg.insert_item(item, index);
        }
    }
    for &item in tree.direct_items(cat) {
        agg.insert_item(item, index);
    }
    agg
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

/// What every scoring step reads; workers share it by reference.
struct Ctx<'a> {
    instance: &'a Instance,
    tree: &'a CategoryTree,
    index: &'a CsrIndex,
    depths: Vec<u32>,
    budget: &'a Budget,
    categories: Counter,
    candidates: Counter,
}

/// One aggregation/evaluation pass over categories visited children
/// first: the serial pass, each parallel worker, and the parallel spine.
struct Pass<'a> {
    ctx: &'a Ctx<'a>,
    /// Best cover so far per input set.
    best: Vec<Option<Cover>>,
    /// Aggregates of visited categories whose parent is not visited yet.
    pending: FxHashMap<CatId, Agg>,
    seen: u64,
    expired: bool,
}

impl<'a> Pass<'a> {
    fn new(ctx: &'a Ctx<'a>) -> Self {
        Self {
            ctx,
            best: vec![None; ctx.instance.num_sets()],
            pending: FxHashMap::default(),
            seen: 0,
            expired: false,
        }
    }

    /// The per-category step: aggregates `cat` from its children, checks
    /// the budget and, until it expires, evaluates `cat` against every set
    /// it intersects. After expiry the pass keeps aggregating (ancestors
    /// need the aggregate) but evaluates nothing more.
    fn visit(&mut self, cat: CatId) {
        let ctx = self.ctx;
        let agg = aggregate_node(ctx.tree, cat, &mut self.pending, ctx.index);
        self.expired = self.expired
            || (ctx.budget.is_limited() && ctx.budget.check_every(self.seen, DEADLINE_STRIDE));
        self.seen += 1;
        if !self.expired {
            let c_len = agg.items.len();
            let depth = ctx.depths[cat as usize];
            ctx.candidates.add(agg.inter.len() as u64);
            for (&set, &inter) in &agg.inter {
                let s = set as usize;
                let cover = set_cover(ctx.instance, s, c_len, inter as usize, cat, depth);
                offer(&mut self.best, s, cover);
            }
            ctx.categories.incr();
        }
        self.pending.insert(cat, agg);
    }
}

/// Depth of every live category (root = 0), computed in one top-down pass.
pub(crate) fn category_depths(tree: &CategoryTree) -> Vec<u32> {
    let mut depth = vec![0u32; tree.len()];
    let order = tree.post_order();
    // Reverse post-order visits parents before children.
    for &cat in order.iter().rev() {
        for &child in tree.children(cat) {
            depth[child as usize] = depth[cat as usize] + 1;
        }
    }
    depth
}

/// Scores `tree` against `instance` serially. Equivalent to
/// [`score_tree_with`] with default options on a single-core host.
///
/// Runs in `O(Σ_i |S_i| · log V + Σ_C #intersected(C))` where `S_i` is the
/// set list of item `i` and `V` the number of categories.
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

/// [`score_tree_with`] with scoring workers isolated: every scoped worker
/// (and the serial pass) runs under `catch_unwind`, so a panic surfaces as
/// [`ExecutionError::WorkerPanicked`] instead of unwinding (or, with
/// multiple panicking workers, aborting) the process.
///
/// # Errors
/// Returns [`ExecutionError::WorkerPanicked`] when any scoring worker
/// panics.
pub fn try_score_tree_with(
    instance: &Instance,
    tree: &CategoryTree,
    options: &ScoreOptions,
) -> Result<TreeScore, ExecutionError> {
    try_score_tree_indexed(instance, &instance.inverted_index(), tree, options)
}

/// [`score_tree_with`] over `index`, the inverted index of `instance`,
/// which a construction builds once and shares between its stages.
pub(crate) fn score_tree_indexed(
    instance: &Instance,
    index: &CsrIndex,
    tree: &CategoryTree,
    options: &ScoreOptions,
) -> TreeScore {
    try_score_tree_indexed(instance, index, tree, options).unwrap_or_else(|e| panic!("{e}"))
}

/// [`try_score_tree_with`] over `index`, the inverted index of `instance`.
pub(crate) fn try_score_tree_indexed(
    instance: &Instance,
    index: &CsrIndex,
    tree: &CategoryTree,
    options: &ScoreOptions,
) -> Result<TreeScore, ExecutionError> {
    debug_assert!(instance.is_indexed_by(index), "stale inverted index");
    let metrics = &options.metrics;
    let threads = resolve_threads(options.threads, tree.len());
    let ctx = Ctx {
        instance,
        tree,
        index,
        depths: category_depths(tree),
        budget: &options.budget,
        categories: metrics.counter("score/categories"),
        candidates: metrics.counter("score/candidates"),
    };
    let (best, expired) = {
        let _span = metrics.span("score/aggregate");
        if threads <= 1 {
            run_isolated("score workers", || {
                let mut pass = Pass::new(&ctx);
                for cat in tree.post_order() {
                    pass.visit(cat);
                    if cat == ROOT {
                        break;
                    }
                }
                (pass.best, pass.expired)
            })?
        } else {
            score_parallel(&ctx, threads)?
        }
    };
    if expired {
        metrics.incr("budget/expired");
    }
    let _span = metrics.span("score/evaluate");
    Ok(tree_score(instance, &best))
}

/// Resolves the thread knob: `0` = auto (all cores, serial below
/// [`PARALLEL_MIN_CATEGORIES`] nodes), otherwise the explicit count.
fn resolve_threads(threads: usize, num_categories: usize) -> usize {
    if threads == 0 {
        if num_categories < PARALLEL_MIN_CATEGORIES {
            1
        } else {
            std::thread::available_parallelism().map_or(1, |p| p.get())
        }
    } else {
        threads
    }
}

/// Subtree node counts per category (children before parents).
fn subtree_sizes(tree: &CategoryTree) -> Vec<usize> {
    let mut sizes = vec![0usize; tree.len()];
    for cat in tree.post_order() {
        sizes[cat as usize] = 1 + tree
            .children(cat)
            .iter()
            .map(|&c| sizes[c as usize])
            .sum::<usize>();
        if cat == ROOT {
            break;
        }
    }
    sizes
}

/// Picks the *frontier* — disjoint subtree roots covering every non-spine
/// node — and marks the expanded ancestors (the *spine*, always containing
/// the root). Starts from the root's children and repeatedly expands the
/// largest frontier subtree in place until there are at least `target`
/// pieces (or nothing expandable remains).
fn frontier_and_spine(
    tree: &CategoryTree,
    sizes: &[usize],
    target: usize,
) -> (Vec<CatId>, Vec<bool>) {
    let mut is_spine = vec![false; tree.len()];
    is_spine[ROOT as usize] = true;
    let mut frontier: Vec<CatId> = tree.children(ROOT).to_vec();
    while frontier.len() < target && frontier.len() < MAX_FRONTIER {
        let expandable = frontier
            .iter()
            .enumerate()
            .filter(|&(_, &f)| !tree.children(f).is_empty())
            .max_by_key(|&(_, &f)| sizes[f as usize]);
        let Some((pos, &node)) = expandable else {
            break;
        };
        // A leaf-only frontier entry stays; splitting the biggest subtree
        // into its children keeps the pieces disjoint and order-preserving.
        frontier.remove(pos);
        is_spine[node as usize] = true;
        frontier.splice(pos..pos, tree.children(node).iter().copied());
    }
    (frontier, is_spine)
}

/// Splits `frontier` into at most `parts` contiguous chunks of roughly
/// equal total subtree size.
fn frontier_chunks(
    frontier: &[CatId],
    sizes: impl Fn(CatId) -> usize,
    parts: usize,
) -> Vec<(usize, usize)> {
    let total: usize = frontier.iter().map(|&f| sizes(f)).sum();
    if frontier.is_empty() {
        return Vec::new();
    }
    let target = total.div_ceil(parts.max(1));
    let mut out = Vec::new();
    let mut lo = 0;
    let mut acc = 0;
    for (i, &f) in frontier.iter().enumerate() {
        acc += sizes(f);
        if acc >= target && i + 1 < frontier.len() && out.len() + 1 < parts {
            out.push((lo, i + 1));
            lo = i + 1;
            acc = 0;
        }
    }
    out.push((lo, frontier.len()));
    out
}

/// The parallel aggregation/evaluation pass: frontier subtrees on workers,
/// spine on the main thread, winners merged in deterministic chunk order.
/// Returns the per-set winners and whether the budget expired. Every
/// worker runs under `catch_unwind`; a panic in any of them surfaces as
/// [`ExecutionError::WorkerPanicked`].
fn score_parallel(
    ctx: &Ctx<'_>,
    threads: usize,
) -> Result<(Vec<Option<Cover>>, bool), ExecutionError> {
    let tree = ctx.tree;
    let sizes = subtree_sizes(tree);
    let (frontier, is_spine) = frontier_and_spine(tree, &sizes, threads * 4);
    let chunks = frontier_chunks(&frontier, |f| sizes[f as usize], threads);

    // Each worker passes over whole frontier subtrees. A finished subtree
    // leaves only its root's aggregate pending, which is what the spine
    // pass needs.
    let workers: Vec<Result<Pass<'_>, ExecutionError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .iter()
            .map(|&(lo, hi)| {
                let chunk = &frontier[lo..hi];
                scope.spawn(move || {
                    run_isolated("score workers", || {
                        let mut pass = Pass::new(ctx);
                        for &f in chunk {
                            // Reversed pre-order: children before parents.
                            for cat in tree.subtree(f).into_iter().rev() {
                                pass.visit(cat);
                            }
                        }
                        pass
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });

    let mut spine = Pass::new(ctx);
    for worker in workers {
        let worker = worker?;
        for (s, cover) in worker.best.into_iter().enumerate() {
            if let Some(cover) = cover {
                offer(&mut spine.best, s, cover);
            }
        }
        spine.expired |= worker.expired;
        spine.pending.extend(worker.pending);
    }
    // Finish the spine bottom-up: every spine child is spine or frontier,
    // so its aggregate is already pending.
    for cat in tree.post_order() {
        if is_spine[cat as usize] {
            spine.visit(cat);
        }
        if cat == ROOT {
            break;
        }
    }
    Ok((spine.best, spine.expired))
}

/// A deliberately naive reference scorer over plain [`ItemSet`]s: per
/// category it materializes the full subtree item set with scalar unions
/// and computes every `|C ∩ q|` with [`ItemSet::intersection_size`] — no
/// inverted index, no hash-map aggregation, no threads.
///
/// Similarities and winners come from the same [`Cover::new`] and
/// [`Cover::beats`] on the same integers, so the result is bit-identical to
/// [`score_tree`]; the scalar-vs-packed differential suite pins the
/// production path (CSR index + hashed aggregation) against this. Quadratic
/// in practice — test-sized inputs only.
pub fn score_tree_reference(instance: &Instance, tree: &CategoryTree) -> TreeScore {
    use crate::itemset::ItemSet;
    let depths = category_depths(tree);
    let mut best = vec![None; instance.num_sets()];
    let mut pending: FxHashMap<CatId, ItemSet> = FxHashMap::default();
    for cat in tree.post_order() {
        let mut items = ItemSet::new(tree.direct_items(cat).to_vec());
        for &child in tree.children(cat) {
            let child_items = pending.remove(&child).expect("child processed first");
            items = items.union(&child_items);
        }
        let c_len = items.len();
        for (s, set) in instance.sets.iter().enumerate() {
            let inter = items.intersection_size(&set.items);
            if inter == 0 {
                // The aggregating path only ever evaluates (category, set)
                // pairs that intersect; skip likewise so empty categories
                // and disjoint sets cannot diverge.
                continue;
            }
            let cover = set_cover(instance, s, c_len, inter, cat, depths[cat as usize]);
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
/// passes the set's threshold). Used by category labeling and rendering.
pub fn covering_map(instance: &Instance, tree: &CategoryTree) -> FxHashMap<CatId, Vec<u32>> {
    let index = instance.inverted_index();
    let mut covers: FxHashMap<CatId, Vec<u32>> = FxHashMap::default();
    let mut pending: FxHashMap<CatId, Agg> = FxHashMap::default();
    for cat in tree.post_order() {
        let agg = aggregate_node(tree, cat, &mut pending, &index);
        let c_len = agg.items.len();
        // Depth only breaks ties, so it plays no part in this test.
        let mut covered: Vec<u32> = agg
            .inter
            .iter()
            .filter(|&(&set, &inter)| {
                set_cover(instance, set as usize, c_len, inter as usize, cat, 0).similarity > 0.0
            })
            .map(|(&set, _)| set)
            .collect();
        covered.sort_unstable();
        if !covered.is_empty() {
            covers.insert(cat, covered);
        }
        pending.insert(cat, agg);
        if cat == ROOT {
            break;
        }
    }
    covers
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::{figure2_instance, InputSet, Instance};
    use crate::itemset::ItemSet;
    use crate::similarity::Similarity;
    use crate::tree::CategoryTree;

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
                for threads in [2, 3, 4] {
                    let parallel = score_tree_with(&inst, &t, &ScoreOptions::with_threads(threads));
                    assert_eq!(serial, parallel, "threads={threads}");
                }
            }
        }
    }

    #[test]
    fn parallel_handles_deep_single_chains() {
        // A path tree has a one-element frontier at every expansion step —
        // the degenerate case for subtree partitioning.
        let sets = vec![InputSet::new(ItemSet::new(vec![0, 1, 2]), 1.0)];
        let inst = Instance::new(8, sets, Similarity::jaccard_cutoff(0.1));
        let mut t = CategoryTree::new();
        let mut parent = ROOT;
        for item in 0..8 {
            parent = t.add_category(parent);
            t.assign_item(parent, item);
        }
        let serial = score_tree_with(&inst, &t, &ScoreOptions::serial());
        let parallel = score_tree_with(&inst, &t, &ScoreOptions::with_threads(4));
        assert_eq!(serial, parallel);
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
        assert!(report.span("score/aggregate").is_some());
        assert!(report.span("score/evaluate").is_some());
        // All five categories (incl. root) evaluated exactly once.
        assert_eq!(report.counter("score/categories"), Some(5));
        assert!(report.counter("score/candidates").unwrap_or(0) > 0);
    }

    #[test]
    fn frontier_covers_tree_disjointly() {
        let t = figure2_t1();
        let (frontier, is_spine) = frontier_and_spine(&t, &subtree_sizes(&t), 8);
        let mut seen: Vec<CatId> = frontier.iter().flat_map(|&f| t.subtree(f)).collect();
        seen.extend(t.category_ids().filter(|&c| is_spine[c as usize]));
        seen.sort_unstable();
        assert_eq!(seen, t.live_categories(), "frontier + spine partition");
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
