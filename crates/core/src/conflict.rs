//! Conflict analysis (paper §3): covered-together / covered-separately
//! predicates per variant, and parallel enumeration of 2- and 3-conflicts.
//!
//! Terminology (for a pair of input sets with intersection size `I > 0`):
//! * *covered together* — both sets covered by categories on one branch,
//!   the larger (lower-ranking, in the paper's rank-1-is-largest sense) set
//!   above the smaller;
//! * *covered separately* — covered on different branches, which forces the
//!   shared bound-1 items to be partitioned between the branches;
//! * *2-conflict* — neither is possible: no tree covers both sets;
//! * *must-together* — together is possible and separately is not; such
//!   pairs end up on a common branch in the constructed tree.
//!
//! Disjoint pairs can always be covered separately, so only intersecting
//! pairs are interesting. One co-occurrence kernel, `CoCounter`, counts
//! them: for one set it walks the CSR posting lists of its items with a
//! dense per-set counter, yielding `(|q₁ ∩ q₂|, eff_inter)` for every
//! partner. [`intersecting_pairs`] runs it over all sets (each pair from its
//! lower index) and the stream engine over the changed sets. Pairs are
//! classified from those counts and the two set sizes alone. No variant
//! inspects set structure: even the Exact variant's nesting test is
//! `inter == min(|q_hi|, |q_lo|)`.

use oct_resilience::Budget;

use crate::csr::CsrIndex;
use crate::input::Instance;
use crate::similarity::{SimilarityKind, EPS};
use crate::util::{ceil_tolerant, floor_tolerant, FxHashMap, FxHashSet};

/// How often (in sets scanned) workers read the wall clock.
const DEADLINE_STRIDE: u64 = 64;

/// Instances over fewer items count their pairs on one thread (the same
/// cutover as the item-chunked scan this kernel replaced).
const PARALLEL_MIN_ITEMS: usize = 1024;

/// Classification of an intersecting pair of input sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairClass {
    /// The pair can be covered on one branch (larger set above).
    pub can_together: bool,
    /// The pair can be covered on different branches.
    pub can_separately: bool,
}

impl PairClass {
    /// Neither placement works: a 2-conflict.
    #[inline]
    pub fn is_conflict(self) -> bool {
        !self.can_together && !self.can_separately
    }

    /// Only the same-branch placement works.
    #[inline]
    pub fn must_together(self) -> bool {
        self.can_together && !self.can_separately
    }

    /// The pair's bucket in the conflict analysis, given `|q_lo|`'s set
    /// index `lo` and the pair's `inter`: the one rule both the batch
    /// analysis and the stream engine bucket by. `None` for a pair that
    /// can go either way without nesting.
    #[inline]
    pub(crate) fn role(self, instance: &Instance, lo: usize, inter: usize) -> Option<PairRole> {
        if self.is_conflict() {
            Some(PairRole::Conflict)
        } else if self.must_together() {
            Some(PairRole::MustTogether)
        } else if self.can_together {
            // Nesting is worthwhile once the majority of the lower set lies
            // inside the higher one: separating would burn shared items the
            // branch bound cannot duplicate.
            let lo_len = instance.sets[lo].items.len();
            ((inter as f64) + EPS >= 0.5 * lo_len as f64).then_some(PairRole::Nestable)
        } else {
            None
        }
    }
}

/// What one classified pair contributes to the conflict analysis (see
/// [`PairClass::role`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PairRole {
    /// Neither placement works: a 2-conflict.
    Conflict,
    /// Only the same-branch placement works.
    MustTogether,
    /// Either placement works, and the majority of the lower set lies in
    /// the higher one.
    Nestable,
}

/// Classifies an intersecting pair under the instance's variant.
///
/// `hi` is the set with the numerically lower rank (larger, placed higher);
/// `lo` the other. `inter` is `|q_hi ∩ q_lo| > 0`; `eff_inter` is the number
/// of shared items whose branch bound is 1 (equal to `inter` without raised
/// bounds) — items with bound > 1 may live on both branches and relax the
/// separately check (paper §3.3 *Extensions*).
///
/// Every variant is pure arithmetic over `(|q_hi|, |q_lo|, inter,
/// eff_inter, δ)`; the sets' items are never read. The Exact variant's
/// nesting test included: one set contains the other exactly when they
/// share all the items of the smaller one, `inter == min(|q_hi|, |q_lo|)`.
/// A lower-bound `inter` can only make the together test fail more often,
/// for every variant: a nested pair reads as crossing just as the
/// Jaccard/F1 together-slack shrinks.
pub fn classify_pair(
    instance: &Instance,
    hi: usize,
    lo: usize,
    inter: usize,
    eff_inter: usize,
) -> PairClass {
    debug_assert!(inter > 0, "only intersecting pairs are classified");
    let q1 = instance.sets[hi].items.len();
    let q2 = instance.sets[lo].items.len();
    let d1 = instance.threshold_of(hi);
    let d2 = instance.threshold_of(lo);
    match instance.similarity.kind {
        SimilarityKind::Exact => {
            debug_assert!(inter <= q1.min(q2), "inter exceeds the smaller set");
            PairClass {
                can_together: inter == q1.min(q2),
                can_separately: eff_inter == 0,
            }
        }
        SimilarityKind::PerfectRecall => {
            // Together: the higher category holds q_hi ∪ q_lo; its precision
            // w.r.t. q_hi is |q_hi| / |q_hi ∪ q_lo| and must reach δ_hi.
            let union = q1 + q2 - inter;
            let can_together = q1 as f64 + EPS >= d1 * union as f64;
            // Separately: recall 1 forbids dropping shared items, so only
            // bound-relaxed intersections allow separate branches.
            PairClass {
                can_together,
                can_separately: eff_inter == 0,
            }
        }
        SimilarityKind::JaccardCutoff | SimilarityKind::JaccardThreshold => {
            // Separately (paper §3.3): x_i = min(⌊|q_i|(1−δ_i)⌋, I); each
            // bound-1 shared item must be excluded from at least one side.
            let x1 = (floor_tolerant(q1 as f64 * (1.0 - d1)).max(0) as usize).min(eff_inter);
            let x2 = (floor_tolerant(q2 as f64 * (1.0 - d2)).max(0) as usize).min(eff_inter);
            let can_separately = eff_inter <= x1 + x2;
            // Together: the lower cover keeps y2 items outside q_hi ∩ q_lo;
            // the higher category absorbs them: need y2 ≤ |q_hi|(1−δ_hi)/δ_hi.
            let y2 = (ceil_tolerant(d2 * q2 as f64) - inter as i64).max(0) as f64;
            let can_together = y2 <= q1 as f64 * (1.0 - d1) / d1 + EPS;
            PairClass {
                can_together,
                can_separately,
            }
        }
        SimilarityKind::F1Cutoff | SimilarityKind::F1Threshold => {
            // Minimal covering-subset size for F1 ≥ δ with C ⊆ q:
            // s = ⌈δ|q| / (2−δ)⌉, so the recall slack is |q| − s.
            let s1 = ceil_tolerant(d1 * q1 as f64 / (2.0 - d1)).max(0) as usize;
            let s2 = ceil_tolerant(d2 * q2 as f64 / (2.0 - d2)).max(0) as usize;
            let x1 = q1.saturating_sub(s1).min(eff_inter);
            let x2 = q2.saturating_sub(s2).min(eff_inter);
            let can_separately = eff_inter <= x1 + x2;
            // Together: y2 foreign items in the higher category C = q_hi ∪ y2
            // give F1(q_hi, C) = 2|q_hi| / (2|q_hi| + y2) ≥ δ_hi
            // ⇔ y2 ≤ 2|q_hi|(1−δ_hi)/δ_hi.
            let y2 = (s2 as i64 - inter as i64).max(0) as f64;
            let can_together = y2 <= 2.0 * q1 as f64 * (1.0 - d1) / d1 + EPS;
            PairClass {
                can_together,
                can_separately,
            }
        }
    }
}

/// An intersecting pair `(a, b)` of input-set indices with its intersection
/// size and bound-1 intersection size; `a` is the higher-placed (lower-rank)
/// set.
#[derive(Debug, Clone, Copy)]
pub struct RankedPair {
    /// Higher set (lower rank value = larger).
    pub hi: u32,
    /// Lower set.
    pub lo: u32,
    /// `|q_hi ∩ q_lo|`.
    pub inter: u32,
    /// Shared items with branch bound 1.
    pub eff_inter: u32,
}

/// The co-occurrence kernel: counts one set's intersection with every set
/// it shares an item with, by walking the CSR posting lists of its items.
///
/// It keeps a dense `u32` counter per set, reset through a touched list.
/// Both all-pairs callers ([`intersecting_pairs_budgeted`] and the stream
/// engine's re-classification) count through it, so a pair's `inter` and
/// `eff_inter` are the same integers wherever they are read.
pub(crate) struct CoCounter<'a> {
    instance: &'a Instance,
    index: &'a CsrIndex,
    /// Shared items per partner set; all zero between calls.
    inter: Vec<u32>,
    /// Shared items with a raised branch bound per partner set; empty when
    /// the instance raises no bound, otherwise all zero between calls.
    relaxed: Vec<u32>,
    /// Partners with a nonzero `inter`, in first-touch order.
    touched: Vec<u32>,
}

impl<'a> CoCounter<'a> {
    /// A counter over `instance`, whose inverted index is `index`.
    pub(crate) fn new(instance: &'a Instance, index: &'a CsrIndex) -> Self {
        debug_assert!(instance.is_indexed_by(index), "stale inverted index");
        let n = instance.num_sets();
        Self {
            instance,
            index,
            inter: vec![0; n],
            relaxed: if instance.item_bounds.is_some() {
                vec![0; n]
            } else {
                Vec::new()
            },
            touched: Vec::new(),
        }
    }

    /// Calls `emit(o, |q_s ∩ q_o|, eff_inter)` once for every set `o ≠ s`
    /// that shares an item with set `s` and is not skipped, in first-touch
    /// order. `eff_inter` counts the shared items whose branch bound is 1.
    /// Skipped sets are never counted, so a caller that emits each pair
    /// from one side only saves half the visits.
    pub(crate) fn partners(
        &mut self,
        s: u32,
        skip: impl Fn(u32) -> bool,
        mut emit: impl FnMut(u32, u32, u32),
    ) {
        let bounded = !self.relaxed.is_empty();
        for item in self.instance.sets[s as usize].items.iter() {
            let relaxed = bounded && self.instance.bound_of(item) > 1;
            for &o in self.index.sets_of(item) {
                if o == s || skip(o) {
                    continue;
                }
                let count = &mut self.inter[o as usize];
                if *count == 0 {
                    self.touched.push(o);
                }
                *count += 1;
                if relaxed {
                    self.relaxed[o as usize] += 1;
                }
            }
        }
        for o in self.touched.drain(..) {
            let inter = std::mem::take(&mut self.inter[o as usize]);
            let relaxed = self.relaxed.get_mut(o as usize).map_or(0, std::mem::take);
            emit(o, inter, inter - relaxed);
        }
    }
}

/// Enumerates all intersecting input-set pairs with intersection sizes,
/// splitting the sets across `threads` workers.
pub fn intersecting_pairs(instance: &Instance, threads: usize) -> Vec<RankedPair> {
    intersecting_pairs_budgeted(instance, threads, &Budget::unlimited()).0
}

/// [`intersecting_pairs`] under a wall-clock [`Budget`]. Each pair is
/// counted by the co-occurrence kernel from its lower set index; worker `t`
/// of `T` takes sets `t, t + T, t + 2T, …` (the strided split balances the
/// triangular work) and, on expiry, stops at a set boundary. The second
/// return value is `true` when the scan was cut short: the list then holds
/// every pair emitted from the sets scanned so far (a prefix of each
/// worker's share) with exact counts, and misses the rest, so downstream
/// conflict detection under-reports and the resulting tree is degraded but
/// structurally valid. An already expired budget yields no pairs.
///
/// Every listed `inter` is exact, so in particular a lower bound on the
/// count the full scan would report; [`classify_pair`]'s together test
/// only gets harder on a lower bound, for every variant.
pub fn intersecting_pairs_budgeted(
    instance: &Instance,
    threads: usize,
    budget: &Budget,
) -> (Vec<RankedPair>, bool) {
    intersecting_pairs_indexed(instance, &instance.inverted_index(), threads, budget)
}

/// [`intersecting_pairs_budgeted`] over `index`, the inverted index of
/// `instance`.
pub(crate) fn intersecting_pairs_indexed(
    instance: &Instance,
    index: &CsrIndex,
    threads: usize,
    budget: &Budget,
) -> (Vec<RankedPair>, bool) {
    let ranks = instance.ranks();
    let n = instance.num_sets();
    let threads = if index.num_items() < PARALLEL_MIN_ITEMS {
        1
    } else {
        threads.max(1)
    };
    let limited = budget.is_limited();
    let scan = |t: usize| -> (Vec<RankedPair>, bool) {
        let mut counter = CoCounter::new(instance, index);
        let mut pairs = Vec::new();
        for (scanned, s) in (t..n).step_by(threads).enumerate() {
            if limited && budget.check_every(scanned as u64, DEADLINE_STRIDE) {
                return (pairs, true);
            }
            let s = s as u32;
            counter.partners(
                s,
                |o| o < s,
                |o, inter, eff_inter| {
                    // Order by rank: hi = lower rank value.
                    let (hi, lo) = if ranks[s as usize] < ranks[o as usize] {
                        (s, o)
                    } else {
                        (o, s)
                    };
                    pairs.push(RankedPair {
                        hi,
                        lo,
                        inter,
                        eff_inter,
                    });
                },
            );
        }
        (pairs, false)
    };
    let results: Vec<(Vec<RankedPair>, bool)> = if threads == 1 {
        vec![scan(0)]
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads).map(|t| scope.spawn(move || scan(t))).collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(result) => result,
                    // Surface the worker's own panic payload rather than a
                    // generic message of our own.
                    Err(payload) => std::panic::resume_unwind(payload),
                })
                .collect()
        })
    };
    let truncated = results.iter().any(|(_, t)| *t);
    let mut pairs: Vec<RankedPair> = results.into_iter().flat_map(|(p, _)| p).collect();
    pairs.sort_unstable_by_key(|p| (p.hi, p.lo));
    (pairs, truncated)
}

/// The full conflict structure of an instance.
#[derive(Debug, Clone)]
pub struct ConflictAnalysis {
    /// Rank of each set (0 = largest).
    pub ranks: Vec<u32>,
    /// 2-conflicts as `(hi, lo)` index pairs.
    pub conflicts2: Vec<(u32, u32)>,
    /// 3-conflicts as sorted index triplets (only populated for `δ < 1`
    /// variants when requested).
    pub conflicts3: Vec<[u32; 3]>,
    /// Pairs that *must* be covered together, as `(hi, lo)`.
    pub must_together: Vec<(u32, u32)>,
    /// Pairs that *can* be covered together where the majority of the
    /// lower set is contained in the higher one (`|q_hi ∩ q_lo| ≥ |q_lo|/2`),
    /// as `(hi, lo)`. Used by the optional nesting extension of the CTCR
    /// skeleton: placing such a set under its near-superset lets the
    /// superset inherit its items instead of competing for them.
    pub nestable: Vec<(u32, u32)>,
    /// `true` when a wall-clock budget cut the pair enumeration short; the
    /// conflict lists then under-report (see
    /// [`intersecting_pairs_budgeted`]).
    pub truncated: bool,
}

impl ConflictAnalysis {
    /// Membership structure for must-together pairs.
    pub fn must_together_set(&self) -> FxHashSet<(u32, u32)> {
        self.must_together.iter().copied().collect()
    }

    /// Membership structure for 2-conflicts.
    pub fn conflict_set(&self) -> FxHashSet<(u32, u32)> {
        self.conflicts2.iter().copied().collect()
    }

    /// Membership structure for nestable pairs.
    pub fn nestable_set(&self) -> FxHashSet<(u32, u32)> {
        self.nestable.iter().copied().collect()
    }
}

/// Runs the conflict analysis: classifies all intersecting pairs and, when
/// `with_triples` is set (the `δ < 1` algorithm of §3.2/§3.3), derives
/// 3-conflicts.
///
/// A triplet `{q1, q2, q3}` with `{q1,q2}` and `{q2,q3}` must-together and
/// `q2` not the largest of the three is a 3-conflict unless `{q1,q3}` is
/// itself must-together or already a 2-conflict.
pub fn analyze(instance: &Instance, threads: usize, with_triples: bool) -> ConflictAnalysis {
    analyze_with_metrics(
        instance,
        threads,
        with_triples,
        &oct_obs::Metrics::disabled(),
    )
}

/// [`analyze`] with enumeration telemetry: records the
/// `conflict/intersecting_pairs`, `conflict/conflicts2`,
/// `conflict/conflicts3`, `conflict/must_together` and `conflict/nestable`
/// counters (no-ops on a disabled handle).
pub fn analyze_with_metrics(
    instance: &Instance,
    threads: usize,
    with_triples: bool,
    metrics: &oct_obs::Metrics,
) -> ConflictAnalysis {
    analyze_budgeted(
        instance,
        threads,
        with_triples,
        metrics,
        &Budget::unlimited(),
    )
}

/// [`analyze_with_metrics`] under a wall-clock [`Budget`]: pair enumeration
/// stops at the deadline (flagged via `truncated`), and on expiry the
/// 3-conflict derivation is skipped entirely — the hypergraph solver then
/// sees only the 2-conflicts already found.
///
/// The pairs the truncated scan did reach carry exact counts and are
/// classified as in a full run (see [`intersecting_pairs_budgeted`]); the
/// pairs it missed are treated as disjoint, so they yield neither
/// conflicts nor must-together or nestable pairs.
pub fn analyze_budgeted(
    instance: &Instance,
    threads: usize,
    with_triples: bool,
    metrics: &oct_obs::Metrics,
    budget: &Budget,
) -> ConflictAnalysis {
    let index = instance.inverted_index();
    analyze_indexed(instance, &index, threads, with_triples, metrics, budget)
}

/// [`analyze_budgeted`] over `index`, the inverted index of `instance`,
/// which a construction builds once and shares between its stages.
pub(crate) fn analyze_indexed(
    instance: &Instance,
    index: &CsrIndex,
    threads: usize,
    with_triples: bool,
    metrics: &oct_obs::Metrics,
    budget: &Budget,
) -> ConflictAnalysis {
    let (pairs, truncated) = intersecting_pairs_indexed(instance, index, threads, budget);
    if truncated {
        metrics.incr("budget/expired");
    }
    let ranks = instance.ranks();

    let mut conflicts2 = Vec::new();
    let mut must_together = Vec::new();
    let mut nestable = Vec::new();
    for p in &pairs {
        let class = classify_pair(
            instance,
            p.hi as usize,
            p.lo as usize,
            p.inter as usize,
            p.eff_inter as usize,
        );
        match class.role(instance, p.lo as usize, p.inter as usize) {
            Some(PairRole::Conflict) => conflicts2.push((p.hi, p.lo)),
            Some(PairRole::MustTogether) => must_together.push((p.hi, p.lo)),
            Some(PairRole::Nestable) => nestable.push((p.hi, p.lo)),
            None => {}
        }
    }

    let mut conflicts3 = Vec::new();
    if with_triples && !(truncated && budget.expired()) {
        let mt_set: FxHashSet<(u32, u32)> = must_together.iter().copied().collect();
        let c2_set: FxHashSet<(u32, u32)> = conflicts2.iter().copied().collect();
        let ordered = |a: u32, b: u32| {
            if ranks[a as usize] < ranks[b as usize] {
                (a, b)
            } else {
                (b, a)
            }
        };
        // Partner lists: q → sets must-together with q.
        let mut partners: FxHashMap<u32, Vec<u32>> = FxHashMap::default();
        for &(hi, lo) in &must_together {
            partners.entry(hi).or_default().push(lo);
            partners.entry(lo).or_default().push(hi);
        }
        let mut seen: FxHashSet<[u32; 3]> = FxHashSet::default();
        for (&mid, list) in &partners {
            for (i, &a) in list.iter().enumerate() {
                for &b in &list[i + 1..] {
                    // `mid` must not be the largest (lowest rank value).
                    let mid_rank = ranks[mid as usize];
                    if mid_rank < ranks[a as usize] && mid_rank < ranks[b as usize] {
                        continue;
                    }
                    let key = ordered(a, b);
                    if mt_set.contains(&key) || c2_set.contains(&key) {
                        continue;
                    }
                    let mut triple = [a, mid, b];
                    triple.sort_unstable();
                    if seen.insert(triple) {
                        conflicts3.push(triple);
                    }
                }
            }
        }
        conflicts3.sort_unstable();
    }

    metrics.add("conflict/intersecting_pairs", pairs.len() as u64);
    metrics.add("conflict/conflicts2", conflicts2.len() as u64);
    metrics.add("conflict/conflicts3", conflicts3.len() as u64);
    metrics.add("conflict/must_together", must_together.len() as u64);
    metrics.add("conflict/nestable", nestable.len() as u64);

    ConflictAnalysis {
        ranks,
        conflicts2,
        conflicts3,
        must_together,
        nestable,
        truncated,
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
    fn exact_conflict_iff_crossing() {
        let i = inst(
            vec![
                (vec![0, 1, 2], 1.0), // 0
                (vec![0, 1], 1.0),    // 1 ⊂ 0
                (vec![2, 3], 1.0),    // 2 crosses 0
                (vec![4, 5], 1.0),    // 3 disjoint from all
            ],
            Similarity::exact(),
            6,
        );
        let analysis = analyze(&i, 1, false);
        assert_eq!(analysis.conflicts2, vec![(0, 2)]);
        assert_eq!(analysis.must_together, vec![(0, 1)]);
    }

    #[test]
    fn figure4_exact_conflicts() {
        // Figure 2 input under the Exact variant: the conflict graph of
        // Figure 4 has edges (q1,q3), (q1,q4), (q3,q4)?? — from the paper's
        // figure, q1 conflicts with q3 and q4; q2 is nested in q1 and q4.
        let i = figure2_instance(Similarity::exact());
        let analysis = analyze(&i, 1, false);
        // q1={a..e}, q2={a,b}, q3={c,d,e,f}, q4={a,b,f,g,h}.
        // q1-q2: q2⊂q1 → must together. q1-q3: cross → conflict.
        // q1-q4: cross → conflict. q2-q3: disjoint. q2-q4: q2⊂q4 → must.
        // q3-q4: cross → conflict.
        let c: FxHashSet<(u32, u32)> = analysis.conflict_set();
        assert_eq!(c.len(), 3);
        assert!(c.contains(&(0, 2)));
        assert!(c.contains(&(0, 3)) || c.contains(&(3, 0)));
        assert!(c.contains(&(2, 3)) || c.contains(&(3, 2)));
    }

    #[test]
    fn perfect_recall_together_needs_precision() {
        // Example 3.2: q1 = {a,c,d,e,f}, q3 = {b,g,h}, δ = 0.61:
        // together-precision = 5/8 = 0.625 ≥ 0.61.
        let i = inst(
            vec![(vec![0, 2, 3, 4, 5], 1.0), (vec![1, 6, 7], 1.0)],
            Similarity::perfect_recall(0.61),
            8,
        );
        // Disjoint pair: not enumerated as intersecting, but classify
        // directly to check the together formula.
        let class = classify_pair(&i, 0, 1, 1, 1); // pretend intersection 1
                                                   // union = 5+3-1 = 7, 5/7 ≈ 0.714 ≥ 0.61 → together ok.
        assert!(class.can_together);
        assert!(!class.can_separately);
    }

    #[test]
    fn perfect_recall_conflict_when_union_too_large() {
        let i = inst(
            vec![(vec![0, 1, 2], 1.0), (vec![2, 3, 4, 5, 6, 7, 8, 9], 1.0)],
            Similarity::perfect_recall(0.8),
            10,
        );
        let analysis = analyze(&i, 1, true);
        // hi = larger set (8 items), lo = 3 items. union = 10;
        // 8/10 = 0.8 ≥ 0.8 → coverable together! So no conflict.
        assert!(analysis.conflicts2.is_empty());
        assert_eq!(analysis.must_together.len(), 1);
        // Tighten δ to 0.85: now a conflict.
        let mut i2 = i.clone();
        i2.similarity = Similarity::perfect_recall(0.85);
        let analysis2 = analyze(&i2, 1, true);
        assert_eq!(analysis2.conflicts2.len(), 1);
    }

    #[test]
    fn figure5_three_conflicts() {
        // Paper Figure 5-style input, Perfect-Recall δ = 0.61:
        // q1 = {a,c,d,e,f} w3, q2 = {a,b} w1, q3 = {b,g,h} w2,
        // q4 = {a,i,j} w2. Pairs {q1,q2}, {q2,q3}, {q2,q4}, {q1,q4} are
        // must-together; the triplet rule yields exactly the two hyperedges
        // {q1,q2,q3} and {q2,q3,q4} (indices 0-based).
        let i = inst(
            vec![
                (vec![0, 2, 3, 4, 5], 3.0), // q1 = {a,c,d,e,f}
                (vec![0, 1], 1.0),          // q2 = {a,b}
                (vec![1, 6, 7], 2.0),       // q3 = {b,g,h}
                (vec![0, 8, 9], 2.0),       // q4 = {a,i,j}
            ],
            Similarity::perfect_recall(0.61),
            10,
        );
        let analysis = analyze(&i, 1, true);
        assert!(analysis.conflicts2.is_empty(), "{:?}", analysis.conflicts2);
        assert_eq!(analysis.conflicts3.len(), 2, "{:?}", analysis.conflicts3);
        assert!(analysis.conflicts3.contains(&[0, 1, 2]));
        assert!(
            analysis.conflicts3.contains(&[1, 2, 3]),
            "{:?}",
            analysis.conflicts3
        );
    }

    #[test]
    fn jaccard_separately_formula() {
        // |q1| = |q2| = 4, I = 2, δ = 0.6: x_i = min(⌊4·0.4⌋, 2) = 1 each;
        // 2 ≤ 1+1 → separable.
        let i = inst(
            vec![(vec![0, 1, 2, 3], 1.0), (vec![2, 3, 4, 5], 1.0)],
            Similarity::jaccard_threshold(0.6),
            6,
        );
        let class = classify_pair(&i, 0, 1, 2, 2);
        assert!(class.can_separately);
        // δ = 0.8: x_i = min(⌊0.8⌋, 2) = 0; 2 > 0 → not separable.
        let mut i2 = i.clone();
        i2.similarity = Similarity::jaccard_threshold(0.8);
        let class2 = classify_pair(&i2, 0, 1, 2, 2);
        assert!(!class2.can_separately);
    }

    #[test]
    fn jaccard_together_formula() {
        // q_hi of 10, q_lo of 4 sharing 1 item, δ = 0.6:
        // y2 = ⌈0.6·4⌉ − 1 = 2; capacity = 10·(0.4/0.6) ≈ 6.67 → together.
        let i = inst(
            vec![((0..10).collect(), 1.0), (vec![0, 10, 11, 12], 1.0)],
            Similarity::jaccard_threshold(0.6),
            13,
        );
        let class = classify_pair(&i, 0, 1, 1, 1);
        assert!(class.can_together);
        // δ = 0.9: y2 = ⌈3.6⌉ − 1 = 3 > 10·(0.1/0.9) ≈ 1.11 → not together.
        let mut i2 = i.clone();
        i2.similarity = Similarity::jaccard_threshold(0.9);
        let class2 = classify_pair(&i2, 0, 1, 1, 1);
        assert!(!class2.can_together);
    }

    #[test]
    fn figure6_has_no_conflicts() {
        // Paper Figure 6 input (threshold Jaccard δ = 0.6):
        // q1 = {a,b,c,f} w2, q2 = {a,b} w1, q3 = {a,b,c,d,e} w3.
        // All pairs can be covered separately → no conflicts at all.
        let i = inst(
            vec![
                (vec![0, 1, 2, 5], 2.0),
                (vec![0, 1], 1.0),
                (vec![0, 1, 2, 3, 4], 3.0),
            ],
            Similarity::jaccard_threshold(0.6),
            6,
        );
        let analysis = analyze(&i, 1, true);
        assert!(analysis.conflicts2.is_empty());
        assert!(analysis.conflicts3.is_empty());
    }

    #[test]
    fn raised_bounds_relax_separately() {
        // Two sets sharing both items; with bound 1 they conflict under
        // Exact-like tight Jaccard; with bound 2 on the shared items they
        // become separable.
        let sets = vec![(vec![0, 1, 2], 1.0), (vec![0, 1, 3], 1.0)];
        let base = inst(sets.clone(), Similarity::jaccard_threshold(0.9), 4);
        let analysis = analyze(&base, 1, true);
        assert_eq!(analysis.conflicts2.len(), 1);
        let relaxed =
            inst(sets, Similarity::jaccard_threshold(0.9), 4).with_item_bounds(vec![2, 2, 1, 1]);
        let analysis2 = analyze(&relaxed, 1, true);
        assert!(analysis2.conflicts2.is_empty());
    }

    #[test]
    fn jaccard_boundary_delta_q_integral() {
        // δ = 0.6, |q| = 5: the slack |q|(1−δ) = 2 exactly, but computes as
        // 2.0000000000000004; the cover size ⌈δ|q|⌉ = 3 computes from
        // 3.0000000000000004. Naive floor/ceil would misclassify both
        // directions; the tolerant rounding must hit the exact values.
        // Two 5-item sets sharing 4 items: x_i = min(2, 4) = 2 each, and
        // 4 ≤ 2+2 → exactly separable (no slack to spare).
        let i = inst(
            vec![(vec![0, 1, 2, 3, 4], 1.0), (vec![1, 2, 3, 4, 5], 1.0)],
            Similarity::jaccard_threshold(0.6),
            6,
        );
        let class = classify_pair(&i, 0, 1, 4, 4);
        assert!(class.can_separately, "x1+x2 = 4 must cover eff_inter = 4");

        // δ = 0.9, |q| = 10: slack 10·(1−0.9) computes as 0.99999999999999998.
        // Naive floor gives 0 and wrongly forbids separation of a pair
        // sharing 2 items (x_i = 1 each).
        let shared2: Vec<u32> = (0..10).collect();
        let other2: Vec<u32> = (8..18).collect();
        let i2 = inst(
            vec![(shared2, 1.0), (other2, 1.0)],
            Similarity::jaccard_threshold(0.9),
            18,
        );
        let class2 = classify_pair(&i2, 0, 1, 2, 2);
        assert!(class2.can_separately, "each side may shed exactly one item");

        // Together at exact capacity: δ = 0.6, q_lo = 5, inter = 1 →
        // y2 = ⌈3⌉ − 1 = 2 foreign items; q_hi = 3 has capacity
        // 3·(1−0.6)/0.6 = 2 exactly. Naive ceil would compute y2 = 3 and
        // wrongly flag a conflict.
        let i3 = inst(
            vec![(vec![0, 1, 2], 1.0), (vec![0, 3, 4, 5, 6], 1.0)],
            Similarity::jaccard_threshold(0.6),
            7,
        );
        let class3 = classify_pair(&i3, 0, 1, 1, 1);
        assert!(class3.can_together, "y2 = 2 fits capacity exactly 2");
    }

    #[test]
    fn delta_one_collapses_to_exact() {
        // At δ = 1.0 every variant demands perfect covers: a pair is
        // together-coverable iff the lower set nests in the higher one, and
        // separable iff no bound-1 item is shared.
        let nested = vec![(vec![0, 1, 2, 3], 1.0), (vec![1, 2], 1.0)];
        let crossing = vec![(vec![0, 1, 2, 3], 1.0), (vec![2, 3, 4], 1.0)];
        for sim in [
            Similarity::jaccard_threshold(1.0),
            Similarity::f1_threshold(1.0),
            Similarity::perfect_recall(1.0),
            Similarity::exact(),
        ] {
            let i = inst(nested.clone(), sim, 5);
            let class = classify_pair(&i, 0, 1, 2, 2);
            assert!(class.can_together, "{:?}: nested pair", sim.kind);
            assert!(
                !class.can_separately,
                "{:?}: shared bound-1 items",
                sim.kind
            );

            let i2 = inst(crossing.clone(), sim, 5);
            let class2 = classify_pair(&i2, 0, 1, 2, 2);
            assert!(!class2.can_together, "{:?}: crossing pair", sim.kind);
            assert!(
                class2.is_conflict(),
                "{:?}: crossing pair conflicts",
                sim.kind
            );
        }
    }

    #[test]
    fn eff_inter_zero_always_separable() {
        // When every shared item has a raised branch bound (eff_inter = 0)
        // the pair can always be covered separately, whatever the variant.
        let sets = vec![(vec![0, 1, 2], 1.0), (vec![0, 1, 3], 1.0)];
        for sim in [
            Similarity::jaccard_cutoff(0.9),
            Similarity::jaccard_threshold(0.9),
            Similarity::f1_cutoff(0.9),
            Similarity::f1_threshold(0.9),
            Similarity::perfect_recall(0.9),
            Similarity::exact(),
        ] {
            let i = inst(sets.clone(), sim, 4);
            let class = classify_pair(&i, 0, 1, 2, 0);
            assert!(class.can_separately, "{:?}: eff_inter = 0", sim.kind);
            assert!(!class.is_conflict(), "{:?}: no conflict possible", sim.kind);
        }
    }

    #[test]
    fn f1_boundary_minimal_cover() {
        // δ = 0.6, |q| = 5: s = ⌈0.6·5/1.4⌉ = ⌈2.142…⌉ = 3, so each set may
        // shed 2 items. Two 5-item sets sharing 4: 4 ≤ 2+2 → separable.
        let i = inst(
            vec![(vec![0, 1, 2, 3, 4], 1.0), (vec![1, 2, 3, 4, 5], 1.0)],
            Similarity::f1_threshold(0.6),
            6,
        );
        let class = classify_pair(&i, 0, 1, 4, 4);
        assert!(class.can_separately);
        // δ = 1.0, same sets: s = |q|, no shedding → not separable, and a
        // crossing pair cannot be covered together either → 2-conflict.
        let mut i2 = i.clone();
        i2.similarity = Similarity::f1_threshold(1.0);
        let class2 = classify_pair(&i2, 0, 1, 4, 4);
        assert!(class2.is_conflict());
    }

    #[test]
    fn expired_budget_truncates_enumeration_without_panicking() {
        let i = inst(
            vec![(vec![0, 1, 2], 1.0), (vec![1, 2, 3], 1.0)],
            Similarity::jaccard_threshold(0.9),
            4,
        );
        let m = oct_obs::Metrics::enabled();
        let analysis = analyze_budgeted(&i, 1, true, &m, &Budget::expired_now());
        assert!(analysis.truncated);
        assert!(analysis.conflicts2.is_empty(), "nothing was scanned");
        assert_eq!(m.report().counter("budget/expired"), Some(1));

        // A generous deadline leaves the analysis untouched.
        let full = analyze_budgeted(
            &i,
            1,
            true,
            &oct_obs::Metrics::disabled(),
            &Budget::with_deadline_ms(60_000),
        );
        assert!(!full.truncated);
        assert_eq!(full.conflicts2, analyze(&i, 1, true).conflicts2);
    }

    #[test]
    fn exact_under_an_expired_budget_degrades_to_a_valid_tree() {
        // Figure 2 under Exact: q2 ⊂ q1 and q2 ⊂ q4 are nested pairs.
        let i = figure2_instance(Similarity::exact());
        let analysis = analyze_budgeted(
            &i,
            1,
            false,
            &oct_obs::Metrics::disabled(),
            &Budget::expired_now(),
        );
        assert!(analysis.truncated);
        let result = crate::ctcr::run(
            &i,
            &crate::ctcr::CtcrConfig {
                budget: Budget::expired_now(),
                ..crate::ctcr::CtcrConfig::default()
            },
        );
        assert!(result.stats.degraded);
        assert!(result.tree.validate(&i).is_ok());

        // A partly scanned nested pair counts fewer shared items than the
        // smaller set holds, so it reads as crossing: the pessimistic side.
        let (q1, q2) = (0, 1);
        assert_eq!(i.sets[q2].items.len(), 2);
        assert!(classify_pair(&i, q1, q2, 2, 2).can_together);
        assert!(classify_pair(&i, q1, q2, 1, 1).is_conflict());
    }

    /// Clustered random sets over `num_items`, with every seventh item's
    /// branch bound raised so `eff_inter` differs from `inter`.
    fn clustered(num_sets: usize, num_items: u32, seed: u64) -> Instance {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let sets: Vec<(Vec<u32>, f64)> = (0..num_sets)
            .map(|_| {
                let base = rng.gen_range(0..num_items - 64);
                let len = rng.gen_range(1..40);
                let items = (0..len).map(|_| base + rng.gen_range(0..64u32)).collect();
                (items, rng.gen_range(1..10) as f64)
            })
            .collect();
        let bounds = (0..num_items)
            .map(|i| if i % 7 == 0 { 2 } else { 1 })
            .collect();
        inst(sets, Similarity::jaccard_threshold(0.7), num_items).with_item_bounds(bounds)
    }

    /// Every intersecting pair by brute force over all `(i, j)`, oriented
    /// and sorted like [`intersecting_pairs`].
    fn brute_force(i: &Instance) -> Vec<(u32, u32, u32, u32)> {
        let ranks = i.ranks();
        let mut pairs = Vec::new();
        for a in 0..i.num_sets() {
            for b in a + 1..i.num_sets() {
                let shared = i.sets[a].items.intersection(&i.sets[b].items);
                if shared.is_empty() {
                    continue;
                }
                let eff = shared.iter().filter(|&item| i.bound_of(item) == 1).count();
                let (hi, lo) = if ranks[a] < ranks[b] { (a, b) } else { (b, a) };
                pairs.push((hi as u32, lo as u32, shared.len() as u32, eff as u32));
            }
        }
        pairs.sort_unstable();
        pairs
    }

    fn tuples(pairs: &[RankedPair]) -> Vec<(u32, u32, u32, u32)> {
        pairs
            .iter()
            .map(|p| (p.hi, p.lo, p.inter, p.eff_inter))
            .collect()
    }

    #[test]
    fn kernel_matches_brute_force_on_every_thread_count() {
        // Enough items that two and more threads split the sets.
        let i = clustered(600, 3000, 5);
        assert!(i.inverted_index().num_items() >= PARALLEL_MIN_ITEMS);
        let expected = brute_force(&i);
        assert!(expected.iter().any(|&(_, _, inter, eff)| eff < inter));
        for threads in [1, 2, 3, 8] {
            assert_eq!(
                tuples(&intersecting_pairs(&i, threads)),
                expected,
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn truncated_scan_lists_exact_counts() {
        let i = clustered(3000, 6000, 9);
        let full = tuples(&intersecting_pairs(&i, 2));
        let (none, truncated) = intersecting_pairs_budgeted(&i, 2, &Budget::expired_now());
        assert!(
            truncated && none.is_empty(),
            "an expired budget yields no pairs"
        );
        // Wherever a deadline cuts the scan, the pairs it did list are
        // exact: a subset of the full list, counts included.
        for deadline_ms in [1, 2, 5] {
            let (pairs, _) =
                intersecting_pairs_budgeted(&i, 2, &Budget::with_deadline_ms(deadline_ms));
            let pairs = tuples(&pairs);
            assert!(pairs.windows(2).all(|w| w[0] < w[1]), "sorted and unique");
            for p in &pairs {
                assert!(
                    full.binary_search(p).is_ok(),
                    "{p:?} is not in the full list"
                );
            }
        }
    }

    #[test]
    fn parallel_matches_serial() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let sets: Vec<(Vec<u32>, f64)> = (0..60)
            .map(|_| {
                let len = rng.gen_range(2..20);
                let items: Vec<u32> = (0..len).map(|_| rng.gen_range(0..5000)).collect();
                (items, rng.gen_range(1..10) as f64)
            })
            .collect();
        let i = inst(sets, Similarity::jaccard_threshold(0.7), 5000);
        let serial = analyze(&i, 1, true);
        let parallel = analyze(&i, 4, true);
        assert_eq!(serial.conflicts2, parallel.conflicts2);
        assert_eq!(serial.conflicts3, parallel.conflicts3);
        assert_eq!(serial.must_together, parallel.must_together);
    }
}
