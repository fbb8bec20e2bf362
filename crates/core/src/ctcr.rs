//! The Category Tree Conflict Resolver — CTCR (paper §3, Algorithm 1).
//!
//! Pipeline:
//! 1. rank the input sets (size desc, weight asc);
//! 2. classify intersecting pairs → 2-conflicts, must-together pairs; for
//!    `δ < 1` variants additionally derive 3-conflicts (§3.2);
//! 3. solve maximum-weight independent set on the conflict graph (Exact
//!    variant) or conflict hypergraph (everything else);
//! 4. build the tree skeleton: one category per selected set, parented by
//!    the closest higher-ranked must-together selected set;
//! 5. assign items (Algorithm 2; only the single-branch stage for the
//!    Exact / Perfect-Recall specializations);
//! 6. for the Jaccard/F1 variants, add intermediate categories recombining
//!    intersecting siblings (lines 21–23);
//! 7. for `δ < 1`, condense the tree (lines 24–25): drop items contained
//!    only in uncovered sets and categories that are not the best coverer
//!    of any set;
//! 8. add `C_misc` with the unassigned items (line 26).

use std::time::Duration;

use oct_mis::{Graph, Hypergraph, MisSolution, SolveBudget, Solver};
use oct_obs::{Counter, Metrics, Span};
use oct_resilience::Budget;

use crate::assign::{assign_items_indexed, AssignStats};
use crate::conflict::{analyze, analyze_indexed, CoCounter, ConflictAnalysis};
use crate::csr::CsrIndex;
use crate::input::Instance;
use crate::score::{score_tree_with, ScoreOptions, TreeScore};
use crate::similarity::SimilarityKind;
use crate::tree::{CatId, CategoryTree, ROOT};
use crate::util::{FxHashMap, FxHashSet};

/// Tuning knobs for CTCR.
#[derive(Debug, Clone)]
pub struct CtcrConfig {
    /// Budget for the MWIS solver.
    pub mis_budget: SolveBudget,
    /// Worker threads for conflict enumeration.
    pub threads: usize,
    /// Stage 6 on/off (ablation; the paper always runs it for Jaccard/F1).
    pub add_intermediates: bool,
    /// 3-conflict detection on/off (ablation; the paper always runs it for
    /// `δ < 1`).
    pub use_three_conflicts: bool,
    /// Slack-aware cover repair after the intermediate stage (an extension
    /// beyond the paper closing aggregate-precision gaps; see
    /// `crate::repair`). On by default; off reproduces the paper exactly.
    pub repair: bool,
    /// Nest a selected set under a higher-ranked selected near-superset
    /// even when the pair could be covered separately (extension; the
    /// paper separates all can-both pairs and recombines with intermediate
    /// categories). Nesting lets big sets inherit their subsets' items
    /// instead of competing for them under the branch bound.
    pub nest_contained: bool,
    /// Telemetry sink. The default [`Metrics::disabled`] handle turns every
    /// span and counter into a no-op; pass [`Metrics::enabled`] to collect a
    /// per-stage [`oct_obs::PipelineReport`].
    pub metrics: Metrics,
    /// Pipeline-wide wall-clock budget. On expiry every stage degrades
    /// rather than aborts: conflict enumeration truncates its scan, the
    /// MWIS solve falls back to greedy + local search, scoring stops
    /// evaluating, and the reemployment loop is skipped. A degraded run is
    /// flagged in [`CtcrStats::degraded`] and on the metrics handle.
    pub budget: Budget,
}

impl Default for CtcrConfig {
    fn default() -> Self {
        Self {
            mis_budget: SolveBudget::default(),
            threads: std::thread::available_parallelism().map_or(1, |p| p.get()),
            add_intermediates: true,
            use_three_conflicts: true,
            repair: true,
            nest_contained: true,
            metrics: Metrics::disabled(),
            budget: Budget::unlimited(),
        }
    }
}

/// Diagnostics of a CTCR run.
///
/// All wall-clock fields are sourced from the `oct-obs` stage spans of the
/// run (the same monotonic timers that feed [`CtcrConfig::metrics`]), so a
/// [`oct_obs::PipelineReport`] and these stats always agree.
#[derive(Debug, Clone)]
pub struct CtcrStats {
    /// Number of 2-conflicts found.
    pub conflicts2: usize,
    /// Number of 3-conflicts found (0 for the Exact variant).
    pub conflicts3: usize,
    /// Whether the MWIS solve was provably optimal.
    pub mis_optimal: bool,
    /// Weight of the selected conflict-free subset (an upper bound on the
    /// achievable covered weight for binary variants).
    pub mis_weight: f64,
    /// Number of selected input sets.
    pub selected: usize,
    /// Item-assignment statistics.
    pub assign: AssignStats,
    /// Wall-clock spent in conflict enumeration (once per run; every
    /// reemployment attempt shares it).
    pub conflict_time: Duration,
    /// Wall-clock spent in the MWIS solve (once per run, like
    /// `conflict_time`).
    pub mis_time: Duration,
    /// Wall-clock spent in item assignment (Algorithm 2).
    pub assign_time: Duration,
    /// Wall-clock spent adding intermediate categories.
    pub intermediate_time: Duration,
    /// Wall-clock spent in cover repair (zero when `repair` is off).
    pub repair_time: Duration,
    /// Wall-clock spent condensing.
    pub condense_time: Duration,
    /// Wall-clock spent in the final scoring pass.
    pub score_time: Duration,
    /// Wall-clock of the attempt that built the tree: the whole run up to
    /// it for the first attempt, stages 4–8 only for a reemployment one.
    pub total_time: Duration,
    /// `true` when the wall-clock budget expired mid-run and some stage
    /// fell back to a degraded mode (truncated conflict scan, heuristic
    /// MWIS, partial scoring). The tree is still structurally valid.
    pub degraded: bool,
}

/// The result of a CTCR run.
#[derive(Debug, Clone)]
pub struct CtcrResult {
    /// The constructed category tree.
    pub tree: CategoryTree,
    /// `(input set, dedicated category)` pairs for the selected sets whose
    /// categories survived condensing.
    pub targets: Vec<(u32, CatId)>,
    /// All sets selected by the MWIS solve (before condensing).
    pub selection: Vec<u32>,
    /// Branch parent among selected sets (`set → parent set`), from the
    /// skeleton construction.
    pub set_parent: FxHashMap<u32, u32>,
    /// Run diagnostics.
    pub stats: CtcrStats,
    /// Final score of `tree` over the instance.
    pub score: TreeScore,
}

/// Runs CTCR over `instance`.
///
/// For the binary variants, a failed *heavy* cover (a selected set whose
/// category ended below threshold because of aggregate precision pollution
/// from lighter covered descendants — the §3.2 residual error) triggers one
/// selection-level reemployment: the cheap polluters are excluded from the
/// MWIS selection and stages 4–8 re-run on the rest; the better-scoring
/// tree wins. This mirrors the taxonomists' reemployment workflow of §5.4,
/// automated.
pub fn run(instance: &Instance, config: &CtcrConfig) -> CtcrResult {
    // One inverted index, one conflict analysis and one MWIS solve serve
    // every attempt: a ban list only filters the solve's selection.
    let index = instance.inverted_index();
    let run_span = config.metrics.span("ctcr");
    let solved = Solved::new(instance, &index, config, &run_span);
    let no_bans = FxHashSet::default();
    let mut best = run_attempt(instance, &index, config, &solved, &no_bans, run_span);
    if !instance.similarity.kind.is_binary() {
        return best;
    }
    let mut banned: FxHashSet<u32> = FxHashSet::default();
    let mut latest = best.clone();
    for _ in 0..3 {
        // Out of time: keep the best tree so far instead of starting
        // another attempt.
        if config.budget.expired() {
            config.metrics.incr("budget/expired");
            config.metrics.mark_degraded();
            break;
        }
        let additions = polluter_ban_list(instance, &latest);
        let before = banned.len();
        banned.extend(additions);
        if banned.len() == before {
            break;
        }
        let span = config.metrics.span("ctcr");
        latest = run_attempt(instance, &index, config, &solved, &banned, span);
        if latest.score.total > best.score.total {
            best = latest.clone();
        }
    }
    config
        .metrics
        .gauge("ctcr/banned_sets", banned.len() as f64);
    best
}

/// Selects cheap covered descendants to ban: for each uncovered selected
/// set (heaviest first), pick covered descendant sets whose private items
/// pollute it, as long as their combined weight stays below the weight to
/// be rescued.
fn polluter_ban_list(instance: &Instance, result: &CtcrResult) -> FxHashSet<u32> {
    let covered: Vec<bool> = result.score.per_set.iter().map(|c| c.covered).collect();
    // children lists in the selected-set forest.
    let mut children: FxHashMap<u32, Vec<u32>> = FxHashMap::default();
    for (&child, &parent) in &result.set_parent {
        children.entry(parent).or_default().push(child);
    }
    let mut uncovered_heavy: Vec<u32> = result
        .selection
        .iter()
        .copied()
        .filter(|&s| !covered[s as usize])
        .collect();
    uncovered_heavy.sort_by(|&a, &b| {
        instance.sets[b as usize]
            .weight
            .total_cmp(&instance.sets[a as usize].weight)
    });
    let mut banned: FxHashSet<u32> = FxHashSet::default();
    for q in uncovered_heavy {
        // Descendants of q in the selected forest.
        let mut descendants = Vec::new();
        let mut stack = children.get(&q).cloned().unwrap_or_default();
        while let Some(d) = stack.pop() {
            descendants.push(d);
            stack.extend(children.get(&d).cloned().unwrap_or_default());
        }
        // Covered descendants, by pollution per unit weight.
        let q_items = &instance.sets[q as usize].items;
        let mut candidates: Vec<(f64, u32, f64, f64)> = descendants
            .iter()
            .copied()
            .filter(|&d| covered[d as usize] && !banned.contains(&d))
            .map(|d| {
                let d_set = &instance.sets[d as usize];
                let pollution = (d_set.items.len() - d_set.items.intersection_size(q_items)) as f64;
                let ratio = pollution / d_set.weight.max(1e-9);
                (ratio, d, d_set.weight, pollution)
            })
            .collect();
        candidates.sort_by(|a, b| b.0.total_cmp(&a.0));
        // Estimate the precision excess: the category's size is roughly
        // |q ∪ covered descendant sets| and must come down to ~|q|/δ. Stop
        // banning once enough pollution has been shed.
        let mut union = q_items.clone();
        for &d in &descendants {
            if covered[d as usize] {
                union = union.union(&instance.sets[d as usize].items);
            }
        }
        let delta = instance.threshold_of(q as usize);
        let mut shed_needed = union.len() as f64 - (q_items.len() as f64 / delta).floor();
        // A weak inequality lets uniform-weight instances trade a polluter
        // for an equally-weighted rescue; the caller keeps the better tree,
        // so a break-even swap can only help.
        let mut budget = instance.sets[q as usize].weight;
        for (ratio, d, w, pollution) in candidates {
            if ratio <= 0.0 || shed_needed <= 0.0 {
                break;
            }
            if w <= budget {
                banned.insert(d);
                budget -= w;
                shed_needed -= pollution;
            }
        }
    }
    banned
}

/// Stages 1–3 of a run (lines 1–10): the ranking, the conflicts and the
/// MWIS solve, which every reemployment attempt shares.
struct Solved {
    analysis: ConflictAnalysis,
    /// The analysis's must-together and nestable pairs, as sets.
    must: FxHashSet<(u32, u32)>,
    nestable: FxHashSet<(u32, u32)>,
    mis: MisSolution,
    conflict_time: Duration,
    mis_time: Duration,
}

impl Solved {
    /// Runs stages 1–3 under the `conflict` and `mis` children of
    /// `run_span`.
    fn new(
        instance: &Instance,
        index: &CsrIndex,
        config: &CtcrConfig,
        run_span: &Span<'_>,
    ) -> Self {
        let metrics = &config.metrics;
        let kind = instance.similarity.kind;
        let with_triples = kind != SimilarityKind::Exact && config.use_three_conflicts;

        // Stages 1-2: ranking + conflicts (lines 1-9).
        let stage = run_span.child("conflict");
        let analysis = analyze_indexed(
            instance,
            index,
            config.threads,
            with_triples,
            metrics,
            &config.budget,
        );
        let conflict_time = stage.elapsed();
        drop(stage);

        // Stage 3: MWIS (line 10). The pipeline budget caps the solve's wall
        // clock on top of the caller's node budget.
        let stage = run_span.child("mis");
        let mut mis_budget = config.mis_budget.clone();
        if config.budget.is_limited() {
            mis_budget.wall = config.budget.clone();
        }
        let solver = Solver::new(mis_budget);
        let weights: Vec<f64> = instance.sets.iter().map(|s| s.weight).collect();
        let mis = if kind == SimilarityKind::Exact {
            solver.solve_graph_with_metrics(&Graph::new(weights, &analysis.conflicts2), metrics)
        } else {
            let mut edges: Vec<Vec<u32>> = analysis
                .conflicts2
                .iter()
                .map(|&(a, b)| vec![a, b])
                .collect();
            edges.extend(analysis.conflicts3.iter().map(|t| t.to_vec()));
            solver.solve_hypergraph_with_metrics(&Hypergraph::new(weights, edges), metrics)
        };
        let mis_time = stage.elapsed();
        Self {
            must: analysis.must_together_set(),
            nestable: analysis.nestable_set(),
            analysis,
            mis,
            conflict_time,
            mis_time,
        }
    }
}

/// Stages 4–8 over the solve's selection minus `banned`, as one attempt
/// timed by `run_span`.
fn run_attempt(
    instance: &Instance,
    index: &CsrIndex,
    config: &CtcrConfig,
    solved: &Solved,
    banned: &FxHashSet<u32>,
    run_span: Span<'_>,
) -> CtcrResult {
    let metrics = &config.metrics;
    metrics.incr("ctcr/attempts");
    let Solved {
        analysis,
        must,
        nestable,
        mis,
        conflict_time,
        mis_time,
    } = solved;

    // Stages 4-8: shared with the incremental engine.
    let selection: Vec<u32> = mis
        .vertices
        .iter()
        .copied()
        .filter(|s| !banned.contains(s))
        .collect();
    let ctx = SelectionContext {
        ranks: &analysis.ranks,
        must,
        nestable,
    };
    let stages = build_from_selection(instance, index, &ctx, &selection, config, &run_span);

    let degraded = analysis.truncated
        || mis.deadline_expired
        || (config.budget.is_limited() && config.budget.expired());
    if degraded {
        metrics.mark_degraded();
    }
    let stats = CtcrStats {
        conflicts2: analysis.conflicts2.len(),
        conflicts3: analysis.conflicts3.len(),
        mis_optimal: mis.optimal,
        mis_weight: mis.weight,
        selected: stages.selection.len(),
        assign: stages.assign,
        conflict_time: *conflict_time,
        mis_time: *mis_time,
        assign_time: stages.assign_time,
        intermediate_time: stages.intermediate_time,
        repair_time: stages.repair_time,
        condense_time: stages.condense_time,
        score_time: stages.score_time,
        total_time: run_span.elapsed(),
        degraded,
    };
    CtcrResult {
        tree: stages.tree,
        targets: stages.targets,
        selection: stages.selection,
        set_parent: stages.set_parent,
        stats,
        score: stages.score,
    }
}

/// The conflict structure stage 4 consults when parenting the skeleton:
/// the instance ranking plus the must-together and nestable pair sets
/// (pairs are `(hi, lo)` with `rank[hi] < rank[lo]`).
pub(crate) struct SelectionContext<'a> {
    /// `ranks[set] ∈ 0..n`, rank 0 = largest set.
    pub ranks: &'a [u32],
    /// Must-together pairs.
    pub must: &'a FxHashSet<(u32, u32)>,
    /// Nestable pairs; the `nest_contained` switch and the perfect-recall
    /// exclusion are applied inside [`build_from_selection`], so callers
    /// pass the raw analysis output.
    pub nestable: &'a FxHashSet<(u32, u32)>,
}

/// Everything stages 4–8 produced for one selection.
pub(crate) struct StagesOutput {
    /// The finished tree (condensed, with `C_misc`).
    pub tree: CategoryTree,
    /// `(set, category)` pairs surviving condensing.
    pub targets: Vec<(u32, CatId)>,
    /// The selection sorted by rank — the category-creation order.
    pub selection: Vec<u32>,
    /// Branch parent among selected sets.
    pub set_parent: FxHashMap<u32, u32>,
    /// Item-assignment statistics.
    pub assign: AssignStats,
    /// Final score over the instance.
    pub score: TreeScore,
    /// Stage wall-clocks (sourced from children of `parent_span`).
    pub assign_time: Duration,
    /// See `assign_time`.
    pub intermediate_time: Duration,
    /// See `assign_time`; zero when repair is off.
    pub repair_time: Duration,
    /// See `assign_time`.
    pub condense_time: Duration,
    /// See `assign_time`.
    pub score_time: Duration,
}

/// Stages 4–8 of Algorithm 1 for an already-chosen conflict-free selection:
/// skeleton, item assignment, intermediates, repair, condensing, `C_misc`,
/// scoring. Deterministic in its inputs — both the batch pipeline and the
/// incremental engine build trees through this one function, which is what
/// makes their outputs bit-comparable. `index` is the inverted index of
/// `instance`; every stage that reads postings shares it.
pub(crate) fn build_from_selection(
    instance: &Instance,
    index: &CsrIndex,
    ctx: &SelectionContext<'_>,
    selection: &[u32],
    config: &CtcrConfig,
    parent_span: &oct_obs::Span<'_>,
) -> StagesOutput {
    let metrics = &config.metrics;
    let kind = instance.similarity.kind;

    // Stage 4: skeleton (lines 11-15).
    let stage = parent_span.child("skeleton");
    let mut selected: Vec<u32> = selection.to_vec();
    selected.sort_by_key(|&s| ctx.ranks[s as usize]);
    let mut tree = CategoryTree::new();
    let nest = config.nest_contained && !kind.requires_perfect_recall();
    let mut cat_of: FxHashMap<u32, CatId> = FxHashMap::default();
    let mut set_parent: FxHashMap<u32, u32> = FxHashMap::default();
    for (pos, &q) in selected.iter().enumerate() {
        // Closest higher-ranked selected set that must share a branch (or,
        // with the nesting extension, one that nearly contains q).
        let parent_set = selected[..pos]
            .iter()
            .rev()
            .find(|&&p| ctx.must.contains(&(p, q)) || (nest && ctx.nestable.contains(&(p, q))))
            .copied();
        let parent = parent_set.map(|p| cat_of[&p]).unwrap_or(ROOT);
        if let Some(p) = parent_set {
            set_parent.insert(q, p);
        }
        let cat = tree.add_category(parent);
        if let Some(label) = &instance.sets[q as usize].label {
            tree.set_label(cat, label.clone());
        }
        cat_of.insert(q, cat);
    }
    let targets: Vec<(u32, CatId)> = selected.iter().map(|&q| (q, cat_of[&q])).collect();
    metrics.add("ctcr/selected", selected.len() as u64);
    drop(stage);

    // Stage 5: item assignment (lines 16-20).
    let stage = parent_span.child("assign");
    let greedy_duplicates = !kind.requires_perfect_recall();
    let assign_stats =
        assign_items_indexed(instance, index, &mut tree, &targets, greedy_duplicates);
    let assign_time = stage.elapsed();
    drop(stage);

    // Stage 6: intermediate categories (lines 21-23).
    let stage = parent_span.child("intermediate");
    if greedy_duplicates && config.add_intermediates {
        add_intermediates_counted(
            instance,
            index,
            &mut tree,
            &targets,
            &metrics.counter("ctcr/intermediate_categories"),
        );
    }
    let intermediate_time = stage.elapsed();
    drop(stage);

    // Extension: slack-aware cover repair (see `crate::repair`).
    let repair_time = if config.repair {
        let stage = parent_span.child("repair");
        crate::repair::repair(instance, &mut tree);
        stage.elapsed()
    } else {
        Duration::ZERO
    };

    // Stage 7: condensing (lines 24-25).
    let stage = parent_span.child("condense");
    if kind != SimilarityKind::Exact {
        condense(instance, &mut tree);
    }
    let condense_time = stage.elapsed();
    drop(stage);

    // Stage 8: C_misc (line 26).
    tree.add_misc_category(instance.num_items);

    let stage = parent_span.child("score");
    let score_options = ScoreOptions {
        threads: config.threads,
        metrics: metrics.clone(),
        budget: config.budget.clone(),
    };
    let score = score_tree_with(instance, &tree, &score_options);
    let score_time = stage.elapsed();
    drop(stage);

    let surviving_targets: Vec<(u32, CatId)> = targets
        .iter()
        .copied()
        .filter(|&(_, c)| !tree.is_removed(c))
        .collect();
    StagesOutput {
        tree,
        targets: surviving_targets,
        selection: selected,
        set_parent,
        assign: assign_stats,
        score,
        assign_time,
        intermediate_time,
        repair_time,
        condense_time,
        score_time,
    }
}

/// Returns the conflict analysis CTCR would use (exposed for diagnostics
/// and the experiment harness).
pub fn conflicts(instance: &Instance, threads: usize) -> ConflictAnalysis {
    analyze(
        instance,
        threads,
        instance.similarity.kind != SimilarityKind::Exact,
    )
}

/// Lines 21–23: under every category with more than two children, repeatedly
/// insert an intermediate parent over the pair of children whose associated
/// sets share the largest fraction of the smaller set, until two children
/// remain or no two child sets intersect. The intermediate's associated set
/// is the union of its children's.
///
/// Each target names its own input set and its own category.
pub fn add_intermediate_categories(
    instance: &Instance,
    tree: &mut CategoryTree,
    targets: &[(u32, CatId)],
) {
    let index = instance.inverted_index();
    add_intermediates_counted(instance, &index, tree, targets, &Counter::default());
}

/// [`add_intermediate_categories`] over `index`, the inverted index of
/// `instance`, with a telemetry counter incremented once per intermediate
/// category created.
fn add_intermediates_counted(
    instance: &Instance,
    index: &CsrIndex,
    tree: &mut CategoryTree,
    targets: &[(u32, CatId)],
    merges: &Counter,
) {
    let mut set_of_cat = vec![NO_SET; tree.len()];
    for &(s, c) in targets {
        debug_assert_eq!(
            set_of_cat[c as usize], NO_SET,
            "two targets on category {c}"
        );
        set_of_cat[c as usize] = s;
    }
    let parents: Vec<CatId> = tree
        .live_categories()
        .into_iter()
        .filter(|&c| tree.children(c).len() > 2)
        .collect();
    let mut siblings = Siblings {
        instance,
        index,
        counter: CoCounter::new(instance, index),
        leaf_of_set: vec![NO_SET; instance.num_sets()],
    };
    for parent in parents {
        siblings.merge_intersecting_children(tree, parent, &set_of_cat, merges);
    }
}

/// No input set, no cluster.
const NO_SET: u32 = u32::MAX;

/// A heap entry of the lines 21–23 loop: the key `(i / min(|a|, |b|), a,
/// b)` over categories, then the cluster indices of `a` and `b` and `i = |a
/// ∩ b|`. No two entries share a pair, so the trailing fields never decide
/// the order.
type Candidate = (ordered::F64, CatId, CatId, u32, u32, u32);

/// The intermediate-category stage of one construction: the co-occurrence
/// kernel that seeds sibling intersections and, while a parent is being
/// processed, the cluster of each of its children's input sets.
struct Siblings<'a> {
    instance: &'a Instance,
    index: &'a CsrIndex,
    counter: CoCounter<'a>,
    /// Leaf cluster of each input set under the current parent; `NO_SET`
    /// elsewhere and between parents.
    leaf_of_set: Vec<u32>,
}

impl Siblings<'_> {
    /// Heap-driven implementation of the lines 21–23 loop for one parent.
    ///
    /// Clusters are the parent's target children (the leaves, in child
    /// order) and the merges made so far. A cluster's item set never
    /// changes (a merge makes a new cluster), so a heap entry stays valid
    /// exactly while both its clusters are live, and only counts are kept:
    /// [`CoCounter`] seeds the leaf pairs, and a merge `M = A ∪ B` gets `|M|
    /// = |A| + |B| − |A ∩ B|` and, for every live partner `C` of `A` or `B`,
    /// `|M ∩ C| = |A ∩ C| + |B ∩ C| − |A ∩ B ∩ C|`, the triple counts from
    /// one walk over the items of the smaller part. These are the integers
    /// a union-and-intersect implementation computes, so the heap keys, the
    /// merge order and the tree are the same.
    fn merge_intersecting_children(
        &mut self,
        tree: &mut CategoryTree,
        parent: CatId,
        set_of_cat: &[u32],
        merges: &Counter,
    ) {
        let leaves: Vec<(CatId, u32)> = tree
            .children(parent)
            .iter()
            .map(|&c| (c, set_of_cat.get(c as usize).copied().unwrap_or(NO_SET)))
            .filter(|&(_, s)| s != NO_SET)
            .collect();
        if leaves.len() < 2 {
            return;
        }
        for (leaf, &(_, s)) in leaves.iter().enumerate() {
            debug_assert_eq!(
                self.leaf_of_set[s as usize], NO_SET,
                "set {s} on two siblings"
            );
            self.leaf_of_set[s as usize] = leaf as u32;
        }
        let mut clusters = Clusters::new(self.instance, &leaves);
        let mut heap = std::collections::BinaryHeap::new();
        let leaf_of_set = &self.leaf_of_set;
        for (a, &(_, s)) in leaves.iter().enumerate() {
            let a = a as u32;
            // Each pair once, from its lower leaf.
            let skip = |o: u32| leaf_of_set[o as usize] == NO_SET || leaf_of_set[o as usize] < a;
            self.counter.partners(s, skip, |o, inter, _| {
                let b = leaf_of_set[o as usize];
                heap.push(if leaves[a as usize].0 < leaves[b as usize].0 {
                    clusters.link(a, b, inter)
                } else {
                    clusters.link(b, a, inter)
                });
            });
        }

        while tree.children(parent).len() > 2 {
            let Some((_, a_cat, b_cat, a, b, inter)) = heap.pop() else {
                break;
            };
            if !clusters.is_live(a) || !clusters.is_live(b) {
                continue;
            }
            let merged = tree.add_category(parent);
            merges.incr();
            tree.reparent(a_cat, merged);
            tree.reparent(b_cat, merged);
            // The new cluster intersects exactly the live partners of its
            // parts.
            let partners = clusters.sum_partners(a, b);
            self.subtract_triples(&mut clusters, a, b);
            let m = clusters.merge(a, b, inter, merged);
            for c in partners {
                let inter = std::mem::take(&mut clusters.shared[c as usize]);
                heap.push(clusters.link(m, c, inter));
            }
        }
        for &(_, s) in &leaves {
            self.leaf_of_set[s as usize] = NO_SET;
        }
    }

    /// Subtracts `|A ∩ B ∩ C|` from `clusters.shared[C]` for every live
    /// cluster `C` other than `A` and `B`, walking the items of the smaller
    /// part once: an item's live clusters are the roots of the leaves
    /// holding it.
    fn subtract_triples(&self, clusters: &mut Clusters, a: u32, b: u32) {
        let Clusters {
            size,
            sets,
            root,
            shared,
            ..
        } = clusters;
        let (p, q) = if size[a as usize] <= size[b as usize] {
            (a, b)
        } else {
            (b, a)
        };
        let mut others: Vec<u32> = Vec::new();
        for &s in &sets[p as usize] {
            'items: for item in self.instance.sets[s as usize].items.iter() {
                let (mut in_p, mut in_q) = (false, false);
                others.clear();
                for &o in self.index.sets_of(item) {
                    let leaf = self.leaf_of_set[o as usize];
                    if leaf == NO_SET {
                        continue;
                    }
                    let r = find(root, leaf);
                    if r == p {
                        // An item in several sets of `p` counts once, from
                        // the first of them.
                        if !in_p && o != s {
                            continue 'items;
                        }
                        in_p = true;
                    } else if r == q {
                        in_q = true;
                    } else if !others.contains(&r) {
                        others.push(r);
                    }
                }
                if in_q {
                    for &c in &others {
                        shared[c as usize] -= 1;
                    }
                }
            }
        }
    }
}

/// The clusters of one parent's lines 21–23 loop, indexed leaves first
/// (in child order), then merges in creation order.
struct Clusters {
    cat: Vec<CatId>,
    size: Vec<u32>,
    /// The input sets merged into each cluster; emptied when the cluster
    /// merges away.
    sets: Vec<Vec<u32>>,
    /// Union-find links: a cluster that merged away points toward the
    /// cluster that absorbed it; a live cluster is its own root.
    root: Vec<u32>,
    /// Every cluster that intersected a cluster when either was made, with
    /// the intersection size.
    partners: Vec<Vec<(u32, u32)>>,
    /// `|M ∩ C|` per cluster while a merge `M` is being counted; zero
    /// between merges.
    shared: Vec<u32>,
}

impl Clusters {
    fn new(instance: &Instance, leaves: &[(CatId, u32)]) -> Self {
        let k = leaves.len();
        Self {
            cat: leaves.iter().map(|&(c, _)| c).collect(),
            size: leaves
                .iter()
                .map(|&(_, s)| instance.sets[s as usize].items.len() as u32)
                .collect(),
            sets: leaves.iter().map(|&(_, s)| vec![s]).collect(),
            root: (0..k as u32).collect(),
            partners: vec![Vec::new(); k],
            shared: vec![0; 2 * k],
        }
    }

    fn is_live(&self, c: u32) -> bool {
        self.root[c as usize] == c
    }

    /// Records that `a` and `b` share `inter > 0` items and returns their
    /// heap entry, keyed `(fraction, cat[a], cat[b])`.
    fn link(&mut self, a: u32, b: u32, inter: u32) -> Candidate {
        self.partners[a as usize].push((b, inter));
        self.partners[b as usize].push((a, inter));
        let smaller = self.size[a as usize].min(self.size[b as usize]).max(1);
        let fraction = ordered::F64(f64::from(inter) / f64::from(smaller));
        let (a_cat, b_cat) = (self.cat[a as usize], self.cat[b as usize]);
        (fraction, a_cat, b_cat, a, b, inter)
    }

    /// Sums `|A ∩ C| + |B ∩ C|` into `shared[C]` for the live partners `C`
    /// of `a` and `b` other than themselves, and returns those partners.
    fn sum_partners(&mut self, a: u32, b: u32) -> Vec<u32> {
        let mut touched = Vec::new();
        for part in [a, b] {
            for &(c, inter) in &self.partners[part as usize] {
                if c != a && c != b && self.root[c as usize] == c {
                    if self.shared[c as usize] == 0 {
                        touched.push(c);
                    }
                    self.shared[c as usize] += inter;
                }
            }
        }
        touched
    }

    /// Merges live clusters `a` and `b` (which share `inter` items) into a
    /// new cluster at category `cat` and returns its index.
    fn merge(&mut self, a: u32, b: u32, inter: u32, cat: CatId) -> u32 {
        let m = self.cat.len() as u32;
        self.cat.push(cat);
        self.size
            .push(self.size[a as usize] + self.size[b as usize] - inter);
        let mut sets = std::mem::take(&mut self.sets[a as usize]);
        sets.append(&mut self.sets[b as usize]);
        self.sets.push(sets);
        self.root.push(m);
        self.root[a as usize] = m;
        self.root[b as usize] = m;
        self.partners.push(Vec::new());
        m
    }
}

/// The live cluster that cluster `c` merged into (path halving).
fn find(root: &mut [u32], mut c: u32) -> u32 {
    while root[c as usize] != c {
        let up = root[root[c as usize] as usize];
        root[c as usize] = up;
        c = up;
    }
    c
}

/// A total-ordered `f64` wrapper for heap keys (scores are finite).
mod ordered {
    /// Finite `f64` with `Ord` via `total_cmp`.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct F64(pub f64);
    impl Eq for F64 {}
    impl PartialOrd for F64 {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for F64 {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            self.0.total_cmp(&other.0)
        }
    }
}

/// The union-and-intersect implementation of lines 21–23 that the
/// count-based one replaced: every merge materializes `A ∪ B` and
/// intersects it with each live partner. Kept as the oracle of the
/// differential test below.
#[cfg(test)]
mod reference {
    use super::ordered;
    use crate::input::Instance;
    use crate::itemset::ItemSet;
    use crate::tree::{CatId, CategoryTree};
    use crate::util::{FxHashMap, FxHashSet};

    pub(super) fn add_intermediate_categories(
        instance: &Instance,
        tree: &mut CategoryTree,
        targets: &[(u32, CatId)],
    ) {
        let mut assoc: FxHashMap<CatId, ItemSet> = targets
            .iter()
            .map(|&(s, c)| (c, instance.sets[s as usize].items.clone()))
            .collect();
        let parents: Vec<CatId> = tree
            .live_categories()
            .into_iter()
            .filter(|&c| tree.children(c).len() > 2)
            .collect();
        for parent in parents {
            merge_intersecting_children(tree, parent, &mut assoc);
        }
    }

    fn merge_intersecting_children(
        tree: &mut CategoryTree,
        parent: CatId,
        assoc: &mut FxHashMap<CatId, ItemSet>,
    ) {
        let children: Vec<CatId> = tree
            .children(parent)
            .iter()
            .copied()
            .filter(|c| assoc.contains_key(c))
            .collect();
        if children.len() < 2 {
            return;
        }
        let mut containing: FxHashMap<u32, Vec<CatId>> = FxHashMap::default();
        for &c in &children {
            for item in assoc[&c].iter() {
                containing.entry(item).or_default().push(c);
            }
        }
        let mut inter: FxHashMap<(CatId, CatId), u32> = FxHashMap::default();
        for cats in containing.values() {
            for (i, &a) in cats.iter().enumerate() {
                for &b in &cats[i + 1..] {
                    *inter.entry((a.min(b), a.max(b))).or_insert(0) += 1;
                }
            }
        }
        let mut partners: FxHashMap<CatId, Vec<CatId>> = FxHashMap::default();
        let mut heap: std::collections::BinaryHeap<(ordered::F64, CatId, CatId)> =
            std::collections::BinaryHeap::new();
        let frac_of = |i: u32, a: usize, b: usize| ordered::F64(i as f64 / a.min(b).max(1) as f64);
        for (&(a, b), &i) in &inter {
            partners.entry(a).or_default().push(b);
            partners.entry(b).or_default().push(a);
            heap.push((frac_of(i, assoc[&a].len(), assoc[&b].len()), a, b));
        }
        let mut alive: FxHashSet<CatId> = children.iter().copied().collect();
        while tree.children(parent).len() > 2 {
            let Some((_, a, b)) = heap.pop() else {
                return;
            };
            if !alive.contains(&a) || !alive.contains(&b) {
                continue;
            }
            let merged_set = assoc[&a].union(&assoc[&b]);
            let merged = tree.add_category(parent);
            tree.reparent(a, merged);
            tree.reparent(b, merged);
            alive.remove(&a);
            alive.remove(&b);
            let mut candidates: Vec<CatId> = partners
                .remove(&a)
                .unwrap_or_default()
                .into_iter()
                .chain(partners.remove(&b).unwrap_or_default())
                .filter(|c| alive.contains(c))
                .collect();
            candidates.sort_unstable();
            candidates.dedup();
            let mut merged_partners = Vec::with_capacity(candidates.len());
            for c in candidates {
                let i = merged_set.intersection_size(&assoc[&c]);
                if i > 0 {
                    heap.push((
                        frac_of(i as u32, merged_set.len(), assoc[&c].len()),
                        merged,
                        c,
                    ));
                    merged_partners.push(c);
                    partners.entry(c).or_default().push(merged);
                }
            }
            partners.insert(merged, merged_partners);
            alive.insert(merged);
            assoc.insert(merged, merged_set);
        }
    }
}

/// Lines 24–25: remove items contained only in uncovered input sets, then
/// remove every category that is not the best-precision coverer of at least
/// one covered set.
pub fn condense(instance: &Instance, tree: &mut CategoryTree) {
    let rescore = |tree: &CategoryTree| score_tree_with(instance, tree, &ScoreOptions::default());
    // Items to keep: members of at least one covered set (or of no input
    // set at all — those are untouched catalog items).
    let before = rescore(tree);
    let mut in_any_set = vec![false; instance.num_items as usize];
    let mut in_covered = vec![false; instance.num_items as usize];
    for (set, cover) in instance.sets.iter().zip(&before.per_set) {
        for item in set.items.iter() {
            in_any_set[item as usize] = true;
            if cover.covered {
                in_covered[item as usize] = true;
            }
        }
    }
    tree.retain_items(|item| in_covered[item as usize] || !in_any_set[item as usize]);

    // Keep only best coverers (plus the root).
    let score = rescore(tree);
    let mut keep: FxHashSet<CatId> = FxHashSet::default();
    keep.insert(ROOT);
    for cover in &score.per_set {
        if cover.covered {
            if let Some(c) = cover.best_category {
                keep.insert(c);
            }
        }
    }
    for cat in tree.live_categories() {
        if !keep.contains(&cat) {
            tree.remove_category(cat);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::{figure2_instance, InputSet, Instance};
    use crate::itemset::ItemSet;
    use crate::similarity::Similarity;

    fn inst(sets: Vec<(Vec<u32>, f64)>, sim: Similarity, num_items: u32) -> Instance {
        Instance::new(
            num_items,
            sets.into_iter()
                .map(|(items, w)| InputSet::new(ItemSet::new(items), w))
                .collect(),
            sim,
        )
    }

    #[test]
    fn exact_variant_figure4() {
        // Figure 4: Exact variant over the Figure 2 input. The conflict
        // graph has q1-q3, q1-q4, q3-q4 edges; the optimal IS is
        // {q1, q2} (weight 3) or {q2, q4, ...}? q1 w2 + q2 w1 = 3 beats any
        // single crossing set + q2 (= 2). The tree covers both exactly.
        let instance = figure2_instance(Similarity::exact());
        let result = run(&instance, &CtcrConfig::default());
        assert!(result.stats.mis_optimal);
        assert_eq!(result.stats.conflicts2, 3);
        assert!((result.stats.mis_weight - 3.0).abs() < 1e-9);
        assert!((result.score.total - 3.0).abs() < 1e-9);
        assert!(result.score.per_set[0].covered);
        assert!(result.score.per_set[1].covered);
        assert!(result.tree.validate(&instance).is_ok());
        // q2 ⊂ q1: C(q2) must be a child of C(q1).
        let c1 = result.targets.iter().find(|&&(s, _)| s == 0).unwrap().1;
        let c2 = result.targets.iter().find(|&&(s, _)| s == 1).unwrap().1;
        assert!(result.tree.is_ancestor(c1, c2));
    }

    #[test]
    fn exact_scores_match_mis_weight() {
        // For the Exact variant the constructed tree covers exactly the IS.
        let instance = figure2_instance(Similarity::exact());
        let result = run(&instance, &CtcrConfig::default());
        assert!((result.score.total - result.stats.mis_weight).abs() < 1e-9);
    }

    #[test]
    fn perfect_recall_figure2() {
        // Paper Example 2.1: optimum 4 (q1, q2, q3 covered).
        let instance = figure2_instance(Similarity::perfect_recall(0.8));
        let result = run(&instance, &CtcrConfig::default());
        assert!(result.tree.validate(&instance).is_ok());
        assert!(
            (result.score.total - 4.0).abs() < 1e-9,
            "expected the optimal PR score 4, got {} (covered: {:?})",
            result.score.total,
            result
                .score
                .per_set
                .iter()
                .map(|c| c.covered)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn figure5_perfect_recall_optimal() {
        // Figure 5 instance: two 3-conflicts; optimum drops only the
        // lightest set q2, covering weight 3 + 2 + 2 = 7.
        let instance = inst(
            vec![
                (vec![0, 2, 3, 4, 5], 3.0),
                (vec![0, 1], 1.0),
                (vec![1, 6, 7], 2.0),
                (vec![0, 8, 9], 2.0),
            ],
            Similarity::perfect_recall(0.61),
            10,
        );
        let result = run(&instance, &CtcrConfig::default());
        assert_eq!(result.stats.conflicts3, 2);
        assert!((result.stats.mis_weight - 7.0).abs() < 1e-9);
        assert!(result.tree.validate(&instance).is_ok());
        assert!(
            (result.score.total - 7.0).abs() < 1e-9,
            "covered: {:?}",
            result
                .score
                .per_set
                .iter()
                .map(|c| c.covered)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn figure6_threshold_jaccard_full_pipeline() {
        // Figure 6 walkthrough: no conflicts, all three sets selected; the
        // intermediate category stage lets q2 be covered; final score 6.
        let instance = inst(
            vec![
                (vec![0, 1, 2, 5], 2.0),
                (vec![0, 1], 1.0),
                (vec![0, 1, 2, 3, 4], 3.0),
            ],
            Similarity::jaccard_threshold(0.6),
            6,
        );
        let result = run(&instance, &CtcrConfig::default());
        assert_eq!(result.stats.conflicts2 + result.stats.conflicts3, 0);
        assert!(result.tree.validate(&instance).is_ok());
        assert!(
            result.score.normalized > 0.8,
            "most weight should be covered, got {} ({:?})",
            result.score.normalized,
            result.score.per_set
        );
    }

    #[test]
    fn misc_category_holds_untouched_items() {
        let instance = inst(
            vec![(vec![0, 1], 1.0)],
            Similarity::jaccard_threshold(0.8),
            5,
        );
        let result = run(&instance, &CtcrConfig::default());
        // Items 2, 3, 4 belong to no set: they must live under a root child.
        let full = result.tree.materialize();
        assert_eq!(full[ROOT as usize].len(), 5);
    }

    #[test]
    fn empty_instance() {
        let instance = Instance::new(0, vec![], Similarity::jaccard_threshold(0.5));
        let result = run(&instance, &CtcrConfig::default());
        assert_eq!(result.score.total, 0.0);
        assert_eq!(result.tree.live_categories().len(), 1);
    }

    #[test]
    fn identical_sets_both_covered() {
        let instance = inst(
            vec![(vec![0, 1, 2], 2.0), (vec![0, 1, 2], 1.0)],
            Similarity::exact(),
            3,
        );
        let result = run(&instance, &CtcrConfig::default());
        assert!((result.score.total - 3.0).abs() < 1e-9);
        assert!(result.tree.validate(&instance).is_ok());
    }

    #[test]
    fn three_conflict_ablation_can_only_help_or_match() {
        let instance = inst(
            vec![
                (vec![0, 2, 3, 4, 5], 3.0),
                (vec![0, 1], 1.0),
                (vec![1, 6, 7], 2.0),
                (vec![0, 8, 9], 2.0),
            ],
            Similarity::perfect_recall(0.61),
            10,
        );
        let with = run(&instance, &CtcrConfig::default());
        let without = run(
            &instance,
            &CtcrConfig {
                use_three_conflicts: false,
                ..CtcrConfig::default()
            },
        );
        // Without 3-conflicts the MIS may select an infeasible triple; the
        // tree remains valid but can cover less.
        assert!(without.tree.validate(&instance).is_ok());
        assert!(with.score.total + 1e-9 >= without.score.total);
    }

    #[test]
    fn nested_chain_builds_deep_branch() {
        let instance = inst(
            vec![
                (vec![0, 1, 2, 3, 4, 5], 1.0),
                (vec![0, 1, 2, 3], 1.0),
                (vec![0, 1], 1.0),
            ],
            Similarity::exact(),
            6,
        );
        let result = run(&instance, &CtcrConfig::default());
        assert!((result.score.total - 3.0).abs() < 1e-9);
        let c0 = result.targets.iter().find(|&&(s, _)| s == 0).unwrap().1;
        let c1 = result.targets.iter().find(|&&(s, _)| s == 1).unwrap().1;
        let c2 = result.targets.iter().find(|&&(s, _)| s == 2).unwrap().1;
        assert!(result.tree.is_ancestor(c0, c1));
        assert!(result.tree.is_ancestor(c1, c2));
    }

    #[test]
    fn metrics_capture_stage_spans_and_counters() {
        let instance = figure2_instance(Similarity::jaccard_threshold(0.6));
        let metrics = Metrics::enabled();
        let config = CtcrConfig {
            metrics: metrics.clone(),
            ..CtcrConfig::default()
        };
        let result = run(&instance, &config);
        let report = metrics.report();
        for stage in [
            "ctcr",
            "ctcr/conflict",
            "ctcr/mis",
            "ctcr/skeleton",
            "ctcr/assign",
            "ctcr/intermediate",
            "ctcr/condense",
            "ctcr/score",
        ] {
            assert!(report.span(stage).is_some(), "missing span {stage}");
        }
        let attempts = report.counter("ctcr/attempts").expect("attempts recorded");
        assert!(attempts >= 1);
        assert_eq!(report.span("ctcr").expect("run span").count, attempts);
        // Counters aggregate over attempts, so they bound the final stats.
        assert!(report.counter("ctcr/selected").unwrap_or(0) >= result.stats.selected as u64);
        assert!(report.counter("conflict/intersecting_pairs").is_some());
        // The stats durations come from the very spans in the report.
        assert!(report.span("ctcr/mis").expect("mis span").total >= result.stats.mis_time);
    }

    #[test]
    fn disabled_metrics_change_nothing() {
        let instance = figure2_instance(Similarity::jaccard_threshold(0.6));
        let plain = run(&instance, &CtcrConfig::default());
        let metrics = Metrics::enabled();
        let instrumented = run(
            &instance,
            &CtcrConfig {
                metrics: metrics.clone(),
                ..CtcrConfig::default()
            },
        );
        assert_eq!(plain.score.total, instrumented.score.total);
        assert_eq!(plain.selection, instrumented.selection);
        assert!(CtcrConfig::default().metrics.report().is_empty());
    }

    #[test]
    fn expired_budget_degrades_but_completes() {
        // A pre-expired budget forces every stage onto its degraded path:
        // truncated conflict scan, heuristic MWIS, partial scoring, no
        // reemployment. The run must still produce a valid tree.
        let instance = figure2_instance(Similarity::jaccard_threshold(0.6));
        let metrics = Metrics::enabled();
        let config = CtcrConfig {
            budget: Budget::expired_now(),
            metrics: metrics.clone(),
            ..CtcrConfig::default()
        };
        let result = run(&instance, &config);
        assert!(result.stats.degraded, "expired budget must flag the run");
        assert!(result.tree.validate(&instance).is_ok());
        let report = metrics.report();
        assert!(report.degraded);
        assert!(report.counter("budget/expired").unwrap_or(0) >= 1);

        // A generous deadline changes nothing.
        let relaxed = run(
            &instance,
            &CtcrConfig {
                budget: Budget::with_deadline(Duration::from_secs(600)),
                ..CtcrConfig::default()
            },
        );
        assert!(!relaxed.stats.degraded);
        let unlimited = run(&instance, &CtcrConfig::default());
        assert_eq!(relaxed.score.total, unlimited.score.total);
    }

    #[test]
    fn weights_drive_mis_choice() {
        // Crossing pair: the heavier set must be selected.
        let instance = inst(
            vec![(vec![0, 1], 1.0), (vec![1, 2], 10.0)],
            Similarity::exact(),
            3,
        );
        let result = run(&instance, &CtcrConfig::default());
        assert!(!result.score.per_set[0].covered);
        assert!(result.score.per_set[1].covered);
        assert!((result.score.total - 10.0).abs() < 1e-9);
    }
}

#[cfg(test)]
mod extension_tests {
    use super::*;
    use crate::input::{InputSet, Instance};
    use crate::itemset::ItemSet;
    use crate::similarity::Similarity;

    /// Nesting: a big set plus several majority-contained subsets should
    /// all be coverable — the subsets feed the big set's category.
    #[test]
    fn nesting_lets_superset_inherit_subset_items() {
        let big: Vec<u32> = (0..40).collect();
        let sets = vec![
            InputSet::new(ItemSet::new(big), 10.0),
            InputSet::new(ItemSet::new((0..12).collect()), 1.0),
            InputSet::new(ItemSet::new((12..24).collect()), 1.0),
            InputSet::new(ItemSet::new((24..36).collect()), 1.0),
        ];
        let instance = Instance::new(40, sets, Similarity::jaccard_threshold(0.9));
        let nested = run(&instance, &CtcrConfig::default());
        assert!(nested.tree.validate(&instance).is_ok());
        assert!(
            nested.score.per_set[0].covered,
            "the big set must be covered: {:?}",
            nested.score.per_set
        );
        assert_eq!(nested.score.covered_count(), 4);
    }

    /// Reemployment: a heavy Perfect-Recall parent polluted by a light
    /// must-together child gets rescued by banning the child.
    #[test]
    fn reemployment_rescues_heavy_set_from_light_polluter() {
        // parent = {0..10}; child = {0, 10..18}: must-together at δ=0.62
        // (union 19, 10/19 < 0.62 → conflict? 10/19 = 0.526 < 0.62 →
        // 2-conflict, MIS picks parent alone). Use a geometry where both
        // get selected but the child's 8 private items break the parent:
        // δ = 0.55: union = 19 → 10/19 = 0.526 < 0.55 → still conflict.
        // δ = 0.52: together ok; C(parent) = 19 items, precision 0.526
        // ≥ 0.52 → fine. To expose pollution we need multiple children:
        let parent: Vec<u32> = (0..20).collect();
        let child1: Vec<u32> = vec![0, 20, 21, 22];
        let child2: Vec<u32> = vec![1, 23, 24, 25];
        let sets = vec![
            InputSet::new(ItemSet::new(parent), 50.0),
            InputSet::new(ItemSet::new(child1), 1.0),
            InputSet::new(ItemSet::new(child2), 1.0),
        ];
        // Pairwise: union(parent, child_i) = 23 → 20/23 = 0.87 ≥ 0.8 →
        // must-together (intersecting). Aggregate: C(parent) = 26 items →
        // precision 20/26 = 0.77 < 0.8 → parent uncovered without the
        // reemployment pass.
        let instance = Instance::new(26, sets, Similarity::perfect_recall(0.8));
        let result = run(&instance, &CtcrConfig::default());
        assert!(result.tree.validate(&instance).is_ok());
        assert!(
            result.score.per_set[0].covered,
            "the heavy parent must be rescued: {:?}",
            result.score.per_set
        );
        assert!(
            (result.score.total - 51.0).abs() < 1e-9,
            "parent + one child"
        );
    }

    /// Every extension switch off must still produce valid trees — and the
    /// extended default must never score worse.
    #[test]
    fn paper_exact_configuration_is_never_better() {
        let sets = vec![
            InputSet::new(ItemSet::new((0..30).collect()), 5.0),
            InputSet::new(ItemSet::new((0..10).collect()), 1.0),
            InputSet::new(ItemSet::new((10..20).collect()), 1.0),
            InputSet::new(ItemSet::new((25..35).collect()), 2.0),
        ];
        let instance = Instance::new(35, sets, Similarity::jaccard_threshold(0.8));
        let paper = CtcrConfig {
            repair: false,
            nest_contained: false,
            ..CtcrConfig::default()
        };
        let paper_result = run(&instance, &paper);
        let extended = run(&instance, &CtcrConfig::default());
        assert!(paper_result.tree.validate(&instance).is_ok());
        assert!(extended.tree.validate(&instance).is_ok());
        assert!(extended.score.total + 1e-9 >= paper_result.score.total);
    }
}

#[cfg(test)]
mod intermediate_tests {
    use super::*;
    use crate::assign::tests::random_case;
    use crate::persist::encode_tree;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// The count-based intermediates insert the same categories in the
        /// same order as the union-and-intersect oracle: byte-equal trees
        /// on random instances and target trees, before and after item
        /// assignment.
        #[test]
        fn counted_intermediates_match_the_union_oracle(seed in any::<u64>()) {
            let (instance, mut tree, targets, greedy) = random_case(seed);
            if seed % 2 == 1 {
                assign_items_indexed(&instance, &instance.inverted_index(), &mut tree, &targets, greedy);
            }
            let mut counted = tree.clone();
            let mut oracle = tree;
            add_intermediate_categories(&instance, &mut counted, &targets);
            reference::add_intermediate_categories(&instance, &mut oracle, &targets);
            prop_assert_eq!(
                encode_tree(&counted).to_vec(),
                encode_tree(&oracle).to_vec(),
                "tree bytes (seed {})",
                seed
            );
        }
    }
}
