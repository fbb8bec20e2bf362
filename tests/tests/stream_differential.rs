//! Differential properties for the streaming engine: applying any valid
//! delta sequence incrementally must produce bit-identical trees to a
//! from-scratch batch rerun, under a threshold variant and under the Exact
//! variant (and, for upserts that keep a set's items, under all six), and
//! a checkpoint/resume split anywhere in the stream must not change the
//! outcome.

use std::collections::{BTreeMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};

use oct_core::incremental::{DeltaBatch, SetDelta, StreamConfig, StreamEngine};
use oct_core::input::{InputSet, Instance};
use oct_core::itemset::ItemSet;
use oct_core::persist;
use oct_core::similarity::Similarity;
use proptest::prelude::*;

const ITEMS: u32 = 24;
const IDS: u64 = 12;

/// Raw op: (set id, items, weight, kind). `kind == 2` asks for a retire;
/// anything else is an upsert. Retires of absent sets are rewritten into
/// upserts below so every generated batch is valid by construction.
type RawOp = (u64, Vec<u32>, u32, u8);

fn arb_ops() -> impl Strategy<Value = Vec<Vec<RawOp>>> {
    prop::collection::vec(
        prop::collection::vec(
            (
                0u64..IDS,
                prop::collection::vec(0u32..ITEMS, 2..8),
                1u32..50,
                0u8..3,
            ),
            1..6,
        ),
        1..6,
    )
}

/// Rewrites the raw ops into valid delta batches, tracking liveness the
/// same way the engine's own all-or-nothing validation does (sequentially
/// within a batch).
fn build_batches(ops: &[Vec<RawOp>]) -> Vec<DeltaBatch> {
    let mut live: HashSet<u64> = HashSet::new();
    ops.iter()
        .map(|batch| {
            let deltas = batch
                .iter()
                .map(|(id, items, weight, kind)| {
                    if *kind == 2 && live.contains(id) {
                        live.remove(id);
                        SetDelta::retire(*id)
                    } else {
                        live.insert(*id);
                        SetDelta::upsert(
                            *id,
                            InputSet::new(ItemSet::new(items.clone()), f64::from(*weight)),
                        )
                    }
                })
                .collect();
            DeltaBatch::new(deltas)
        })
        .collect()
}

/// Two sets sharing `core`, each with its own extra items (either may be
/// empty, so the pair can be nested, equal or crossing). `order` picks
/// which of the two upserts comes first in the batch.
type OverlapOp = (u64, u64, Vec<u32>, Vec<u32>, Vec<u32>, bool);

fn arb_overlaps(batches: usize) -> impl Strategy<Value = Vec<OverlapOp>> {
    let extra = || prop::collection::vec(0u32..ITEMS, 0..3);
    prop::collection::vec(
        (
            (0u64..IDS, 1u64..IDS, any::<bool>()),
            prop::collection::vec(0u32..ITEMS, 1..5),
            (extra(), extra()),
        )
            .prop_map(|((a, step, order), core, (extra_a, extra_b))| {
                (a, step, core, extra_a, extra_b, order)
            }),
        batches,
    )
}

/// Appends to each batch the upserts of two overlapping sets, with ids
/// `a` and `a + step` (mod [`IDS`]) in the order `order` picks, so
/// changed-changed pairs are met from both ends of the id order.
fn with_overlaps(ops: &[Vec<RawOp>], overlaps: &[OverlapOp]) -> Vec<Vec<RawOp>> {
    ops.iter()
        .zip(overlaps)
        .map(|(batch, (a, step, core, extra_a, extra_b, order))| {
            let b = (a + step) % IDS;
            let set_a: Vec<u32> = core.iter().chain(extra_a).copied().collect();
            let set_b: Vec<u32> = core.iter().chain(extra_b).copied().collect();
            let mut pair = [(*a, set_a, 1, 0), (b, set_b, 2, 0)];
            if *order {
                pair.reverse();
            }
            batch.iter().cloned().chain(pair).collect()
        })
        .collect()
}

/// Six sets whose neighbours in the list cross (share one item, neither
/// nested), so under Exact they form one conflict path of six vertices.
fn crossing_chain() -> DeltaBatch {
    DeltaBatch::new(
        (0..6u32)
            .map(|i| {
                let items = ItemSet::new(vec![2 * i, 2 * i + 1, 2 * i + 2]);
                SetDelta::upsert(u64::from(i), InputSet::new(items, f64::from(i + 1)))
            })
            .collect(),
    )
}

/// A re-upsert of a live set with its current items: `(pick, weight,
/// what)`. `pick` selects the live id by position; `what` keeps the
/// threshold and label (0), sets a threshold (1) or a label (2).
type SameItemsOp = (usize, u32, u8);

fn arb_same_items(batches: usize) -> impl Strategy<Value = Vec<Vec<SameItemsOp>>> {
    prop::collection::vec(
        prop::collection::vec((0usize..64, 1u32..6, 0u8..3), 1..5),
        batches,
    )
}

/// Eight sets of three items, pairwise equal in twos (ids 0 and 1, and 4
/// and 5) and otherwise crossing, so a weight change flips the `(hi, lo)`
/// orientation of equal-size pairs.
fn equal_size_sets() -> Vec<(u64, InputSet)> {
    const SHAPES: [[u32; 3]; 4] = [[0, 1, 2], [0, 1, 2], [1, 2, 3], [2, 3, 4]];
    (0..8u64)
        .map(|id| {
            let items = ItemSet::new(SHAPES[id as usize % 4].to_vec());
            (id, InputSet::new(items, (id % 3 + 1) as f64))
        })
        .collect()
}

/// Opens with [`equal_size_sets`], then each batch first re-upserts live
/// sets with their current items and a new weight, threshold or label, and
/// then applies the raw ops (which may touch the same ids again).
fn same_items_batches(ops: &[Vec<RawOp>], same: &[Vec<SameItemsOp>]) -> Vec<DeltaBatch> {
    let mut live: BTreeMap<u64, InputSet> = equal_size_sets().into_iter().collect();
    let mut batches = vec![DeltaBatch::new(
        live.iter()
            .map(|(&id, set)| SetDelta::upsert(id, set.clone()))
            .collect(),
    )];
    for (raw, same) in ops.iter().zip(same) {
        let mut deltas = Vec::new();
        for &(pick, weight, what) in same {
            let Some((&id, set)) = live.iter().nth(pick % live.len().max(1)) else {
                break;
            };
            let mut set = set.clone();
            set.weight = f64::from(weight);
            match what {
                1 => set.threshold = Some(0.5 + 0.1 * f64::from(weight % 5)),
                2 => set.label = Some(format!("w{weight}")),
                _ => {}
            }
            live.insert(id, set.clone());
            deltas.push(SetDelta::upsert(id, set));
        }
        for (id, items, weight, kind) in raw {
            if *kind == 2 && live.remove(id).is_some() {
                deltas.push(SetDelta::retire(*id));
            } else {
                let set = InputSet::new(ItemSet::new(items.clone()), f64::from(*weight));
                live.insert(*id, set.clone());
                deltas.push(SetDelta::upsert(*id, set));
            }
        }
        batches.push(DeltaBatch::new(deltas));
    }
    batches
}

/// The six similarity variants.
fn all_variants() -> [Similarity; 6] {
    [
        Similarity::exact(),
        Similarity::perfect_recall(0.8),
        Similarity::jaccard_cutoff(0.6),
        Similarity::jaccard_threshold(0.6),
        Similarity::f1_cutoff(0.6),
        Similarity::f1_threshold(0.6),
    ]
}

fn config(checkpoint: Option<std::path::PathBuf>) -> StreamConfig {
    config_for(Similarity::jaccard_threshold(0.6), checkpoint)
}

fn config_for(similarity: Similarity, checkpoint: Option<std::path::PathBuf>) -> StreamConfig {
    StreamConfig {
        threads: 1,
        checkpoint,
        ..StreamConfig::new(ITEMS, similarity)
    }
}

/// Applies `batches` to a fresh engine and, after every batch, compares
/// the incremental tree with a from-scratch rerun, byte for byte.
fn check_incremental_equals_rerun(
    similarity: Similarity,
    batches: &[DeltaBatch],
) -> Result<(), String> {
    check_engine_equals_rerun(StreamEngine::new(config_for(similarity, None)), batches).map(|_| ())
}

/// [`check_incremental_equals_rerun`] on a given engine; returns the
/// number of components each batch solved.
fn check_engine_equals_rerun(
    mut engine: StreamEngine,
    batches: &[DeltaBatch],
) -> Result<Vec<usize>, String> {
    let mut solved = Vec::new();
    for (i, batch) in batches.iter().enumerate() {
        let incremental = engine.apply_batch(batch).expect("valid by construction");
        let rerun = engine.batch_rerun();
        let (a, b) = (
            persist::encode_tree(&incremental.tree),
            persist::encode_tree(&rerun.tree),
        );
        prop_assert_eq!(
            a.as_ref(),
            b.as_ref(),
            "divergence after batch {} ({} live sets)",
            i + 1,
            incremental.stats.live_sets
        );
        prop_assert_eq!(incremental.score.normalized, rerun.score.normalized);
        solved.push(incremental.stats.solved_components);
    }
    Ok(solved)
}

/// A unique scratch path per proptest case (cases run in one process).
fn scratch() -> std::path::PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!("oct-stream-prop-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir.join(format!("{}.ckpt", NEXT.fetch_add(1, Ordering::Relaxed)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// After every batch the incremental tree equals a from-scratch rerun
    /// over the accumulated state, byte for byte.
    #[test]
    fn incremental_equals_batch_rerun(ops in arb_ops()) {
        check_incremental_equals_rerun(Similarity::jaccard_threshold(0.6), &build_batches(&ops))?;
    }

    /// The same under the Exact variant, whose nesting test reads the
    /// counted intersection, with every batch also upserting two
    /// overlapping sets in either id order.
    #[test]
    fn exact_incremental_equals_batch_rerun(
        case in arb_ops().prop_flat_map(|ops| {
            let n = ops.len();
            arb_overlaps(n).prop_map(move |overlaps| (ops.clone(), overlaps))
        }),
    ) {
        let (ops, overlaps) = case;
        let batches = build_batches(&with_overlaps(&ops, &overlaps));
        check_incremental_equals_rerun(Similarity::exact(), &batches)?;
    }

    /// The same under Exact with `exact_component_limit` 4, so that every
    /// conflict component above four sets goes to the seeded local search
    /// (`oct_mis::local::repair`). Each feed opens with a six-set conflict
    /// path, so the local search runs at least once per case.
    #[test]
    fn exact_local_search_components_equal_batch_rerun(ops in arb_ops()) {
        let mut batches = vec![crossing_chain()];
        batches.extend(build_batches(&ops));
        let engine = StreamEngine::new(StreamConfig {
            exact_component_limit: 4,
            ..config_for(Similarity::exact(), None)
        });
        let solved = check_engine_equals_rerun(engine, &batches)?;
        prop_assert!(solved.iter().any(|&s| s > 0), "no batch solved a component: {:?}", solved);
    }

    /// Upserts that keep a set's items keep its cached counts, but their
    /// pairs' orientation and class are re-derived: the incremental tree
    /// still equals a rerun after every batch, under all six variants,
    /// while weight changes flip the orientation of equal-size pairs.
    #[test]
    fn same_items_upserts_equal_batch_rerun(
        case in arb_ops().prop_flat_map(|ops| {
            let n = ops.len();
            arb_same_items(n).prop_map(move |same| (ops.clone(), same))
        }),
    ) {
        let (ops, same) = case;
        let batches = same_items_batches(&ops, &same);
        for similarity in all_variants() {
            check_incremental_equals_rerun(similarity, &batches)?;
        }
    }

    /// Killing the process after any prefix of the stream and resuming from
    /// the checkpoint yields the same final tree as an uninterrupted run.
    #[test]
    fn resume_after_any_prefix_is_bit_identical(
        ops in arb_ops(),
        split_seed in 0usize..100,
    ) {
        let batches = build_batches(&ops);
        let split = split_seed % batches.len();

        let mut uninterrupted = StreamEngine::new(config(None));
        let mut expect = None;
        for batch in &batches {
            expect = Some(uninterrupted.apply_batch(batch).expect("valid"));
        }

        let ckpt = scratch();
        let mut first = StreamEngine::new(config(Some(ckpt.clone())));
        for batch in &batches[..split] {
            first.apply_batch(batch).expect("valid");
        }
        // Simulated kill -9: the engine is dropped with no finalization;
        // only the per-batch checkpoint survives.
        drop(first);
        let (mut second, restored) =
            StreamEngine::resume(config(Some(ckpt.clone()))).expect("resume");
        prop_assert_eq!(second.applied_batches() as usize, split);
        prop_assert_eq!(restored.is_some(), split > 0);
        let mut resumed = restored;
        for batch in &batches[split..] {
            resumed = Some(second.apply_batch(batch).expect("valid"));
        }

        let expect = expect.expect("at least one batch");
        let resumed = resumed.expect("at least one batch");
        let (a, b) = (
            persist::encode_tree(&expect.tree),
            persist::encode_tree(&resumed.tree),
        );
        prop_assert_eq!(a.as_ref(), b.as_ref(), "resume at {} diverged", split);
        prop_assert_eq!(expect.stats, resumed.stats);
        let _ = std::fs::remove_file(&ckpt);
    }
}

/// Pairs of live sets that share an item and have at least one endpoint
/// in `changed`, counted over the whole instance.
fn brute_force_dirty_pairs(instance: &Instance, ids: &[u64], changed: &HashSet<u64>) -> usize {
    let sets = &instance.sets;
    let mut dirty = 0;
    for i in 0..sets.len() {
        for j in i + 1..sets.len() {
            let touched = changed.contains(&ids[i]) || changed.contains(&ids[j]);
            if touched && sets[i].items.intersection_size(&sets[j].items) > 0 {
                dirty += 1;
            }
        }
    }
    dirty
}

/// `BatchStats::reclassified_pairs` counts exactly the intersecting pairs
/// with a changed endpoint: each once, whichever end the counting starts
/// from, and never a pair with a retired set.
#[test]
fn reclassified_pairs_equal_brute_force_count() {
    let set = |items: &[u32]| InputSet::new(ItemSet::new(items.to_vec()), 1.0);
    let batches = [
        // Warm start: every pair is new.
        vec![
            SetDelta::upsert(1, set(&[0, 1, 2, 3])),
            SetDelta::upsert(2, set(&[2, 3, 4])),
            SetDelta::upsert(3, set(&[4, 5])),
            SetDelta::upsert(4, set(&[6, 7])),
            SetDelta::upsert(5, set(&[0, 1])),
        ],
        // Two overlapping changed sets, the higher id first, plus an
        // untouched neighbour of each.
        vec![
            SetDelta::upsert(4, set(&[3, 5, 6])),
            SetDelta::upsert(2, set(&[2, 3, 5])),
        ],
        // A retire next to an upsert that overlaps everything left.
        vec![SetDelta::retire(3), SetDelta::upsert(6, set(&[0, 2, 5, 6]))],
        // An upsert whose new content overlaps no one.
        vec![SetDelta::upsert(5, set(&[20, 21]))],
        // An upsert that keeps its items: reclassified from cached counts.
        vec![SetDelta::upsert(1, set(&[0, 1, 2, 3]))],
    ];
    for similarity in [Similarity::exact(), Similarity::jaccard_threshold(0.6)] {
        let mut engine = StreamEngine::new(config_for(similarity, None));
        for (i, deltas) in batches.iter().enumerate() {
            let changed: HashSet<u64> = deltas.iter().map(SetDelta::id).collect();
            let outcome = engine
                .apply_batch(&DeltaBatch::new(deltas.clone()))
                .expect("valid batch");
            let expected = brute_force_dirty_pairs(&engine.instance(), &engine.ids(), &changed);
            assert_eq!(
                outcome.stats.reclassified_pairs,
                expected,
                "{:?} batch {}",
                similarity.kind,
                i + 1
            );
        }
    }
}
