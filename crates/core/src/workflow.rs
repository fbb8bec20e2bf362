//! The human-in-the-loop workflow of §5.4.
//!
//! Taxonomists iterate: run CTCR, inspect what is not covered, adjust
//! weights and thresholds, and re-run. The paper reports that "reemploying
//! CTCR several times is sufficient to derive a tree with the desired
//! categorization improvements". This module automates the mechanical
//! parts:
//!
//! * [`relax_uncovered`] — the re-threshold rule used for the misc items
//!   (§3.1) and the underrepresented categories (§5.4): lower the
//!   thresholds of uncovered sets before the next run;
//! * [`boost_sets`] — raise the weight of underrepresented candidates
//!   (the World-Cup-memorabilia fix);
//! * [`iterate`] — the full reemployment loop with a coverage trace;
//! * [`embedding_outliers`] — the misassignment detector ("a tool that
//!   detects high pairwise distances between embeddings of items within a
//!   category", the Nike-Blazer example);
//! * [`orphaned_items`] — rare items absent from every covering category,
//!   flagged for the automatic re-assignment tooling, plus the
//!   "many orphans in one query" signal that suggests a new category.

use std::path::Path;

use crate::ctcr::{self, CtcrConfig, CtcrResult};
use crate::input::Instance;
use crate::persist::{self, Checkpoint, DecodeError, TraceEntry};
use crate::score::{score_tree_with, ScoreOptions};
use crate::tree::{CatId, CategoryTree, ROOT};
use crate::util::FxHashSet;

/// Errors from the workflow helpers: bad tuning parameters, out-of-range
/// references, and checkpoint I/O failures.
#[derive(Debug)]
pub enum WorkflowError {
    /// `relief` outside `(0, 1]`.
    InvalidRelief(f64),
    /// `factor` not a positive finite number.
    InvalidFactor(f64),
    /// A target referenced a set index past the end of the instance.
    SetIndexOutOfRange {
        /// The offending index.
        index: u32,
        /// The instance's set count.
        num_sets: usize,
    },
    /// A coverage slice did not match the instance's set count.
    CoveredLengthMismatch {
        /// Slice length supplied.
        got: usize,
        /// Set count expected.
        expected: usize,
    },
    /// A checkpoint could not be read or written.
    Io(String),
    /// A checkpoint file exists but does not decode.
    Corrupt(DecodeError),
}

impl std::fmt::Display for WorkflowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkflowError::InvalidRelief(v) => {
                write!(f, "relief must be in (0, 1], got {v}")
            }
            WorkflowError::InvalidFactor(v) => {
                write!(f, "factor must be positive and finite, got {v}")
            }
            WorkflowError::SetIndexOutOfRange { index, num_sets } => {
                write!(
                    f,
                    "set index {index} out of range (instance has {num_sets} sets)"
                )
            }
            WorkflowError::CoveredLengthMismatch { got, expected } => {
                write!(
                    f,
                    "coverage slice has {got} entries, instance has {expected} sets"
                )
            }
            WorkflowError::Io(message) => write!(f, "checkpoint I/O failed: {message}"),
            WorkflowError::Corrupt(inner) => write!(f, "corrupt checkpoint: {inner}"),
        }
    }
}

impl std::error::Error for WorkflowError {}

impl From<DecodeError> for WorkflowError {
    fn from(inner: DecodeError) -> Self {
        WorkflowError::Corrupt(inner)
    }
}

/// Returns a copy of `instance` where every set uncovered by `result` has
/// its threshold multiplied by `relief` (clamped to `[0.05, 1]`).
///
/// # Errors
/// [`WorkflowError::InvalidRelief`] when `relief` is not in `(0, 1]`;
/// [`WorkflowError::CoveredLengthMismatch`] when `covered` does not have
/// one entry per input set.
pub fn relax_uncovered(
    instance: &Instance,
    covered: &[bool],
    relief: f64,
) -> Result<Instance, WorkflowError> {
    if !(relief > 0.0 && relief <= 1.0) {
        return Err(WorkflowError::InvalidRelief(relief));
    }
    if covered.len() != instance.sets.len() {
        return Err(WorkflowError::CoveredLengthMismatch {
            got: covered.len(),
            expected: instance.sets.len(),
        });
    }
    let mut sets = instance.sets.clone();
    for (idx, set) in sets.iter_mut().enumerate() {
        if !covered[idx] {
            let current = set.threshold.unwrap_or(instance.similarity.delta);
            set.threshold = Some((current * relief).clamp(0.05, 1.0));
        }
    }
    let mut out = Instance::new(instance.num_items, sets, instance.similarity);
    out.item_bounds = instance.item_bounds.clone();
    Ok(out)
}

/// Returns a copy of `instance` with the weights of `targets` multiplied by
/// `factor` (the underrepresented-category fix of §5.4).
///
/// # Errors
/// [`WorkflowError::InvalidFactor`] on a non-positive or non-finite factor;
/// [`WorkflowError::SetIndexOutOfRange`] when a target index is past the
/// instance's sets.
pub fn boost_sets(
    instance: &Instance,
    targets: &[u32],
    factor: f64,
) -> Result<Instance, WorkflowError> {
    if !(factor > 0.0 && factor.is_finite()) {
        return Err(WorkflowError::InvalidFactor(factor));
    }
    let mut sets = instance.sets.clone();
    for &t in targets {
        let set = sets
            .get_mut(t as usize)
            .ok_or(WorkflowError::SetIndexOutOfRange {
                index: t,
                num_sets: instance.sets.len(),
            })?;
        set.weight *= factor;
    }
    let mut out = Instance::new(instance.num_items, sets, instance.similarity);
    out.item_bounds = instance.item_bounds.clone();
    Ok(out)
}

/// One round of the reemployment loop.
#[derive(Debug, Clone)]
pub struct IterationTrace {
    /// Covered sets after the round.
    pub covered: usize,
    /// Normalized score after the round.
    pub score: f64,
    /// Sets whose thresholds were relaxed entering the *next* round.
    pub relaxed: usize,
}

/// Outcome of the reemployment loop: the winning tree, the instance (with
/// the threshold relaxations in force when it was built — scores are
/// relative to *this* instance, not the original), and the round trace.
#[derive(Debug, Clone)]
pub struct IterateOutcome {
    /// Best CTCR result across rounds (most covered sets).
    pub result: CtcrResult,
    /// The instance the best result was built and scored against.
    pub instance: Instance,
    /// Per-round coverage trace.
    pub trace: Vec<IterationTrace>,
}

/// Runs CTCR up to `rounds` times, relaxing uncovered sets' thresholds by
/// `relief` between rounds, and returns the best-coverage outcome with the
/// per-round trace. Stops early when everything is covered or no round
/// improves coverage.
///
/// # Errors
/// [`WorkflowError::InvalidRelief`] when `relief` is not in `(0, 1]`.
pub fn iterate(
    instance: &Instance,
    config: &CtcrConfig,
    rounds: usize,
    relief: f64,
) -> Result<IterateOutcome, WorkflowError> {
    iterate_with_checkpoints(instance, config, rounds, relief, None, false)
}

/// Reads a checkpoint file; `Ok(None)` when the file does not exist.
fn read_checkpoint(path: &Path) -> Result<Option<Checkpoint>, WorkflowError> {
    let raw = match std::fs::read(path) {
        Ok(raw) => raw,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(WorkflowError::Io(format!("{}: {e}", path.display()))),
    };
    Ok(Some(persist::decode_checkpoint(bytes::Bytes::from(raw))?))
}

/// Monotonic discriminator for temp-file names within one process; paired
/// with the pid it makes concurrent writers (threads *and* processes
/// sharing a checkpoint dir) use distinct temp files.
static TEMP_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Writes `bytes` to `path` atomically: a uniquely-named temp file in the
/// same directory, then rename — a crash mid-write leaves the previous file
/// intact, and concurrent writers never stomp each other's temp file (the
/// name carries pid + a process-wide sequence number). On any failure the
/// temp file is removed so crashes cannot strand it.
pub(crate) fn atomic_write(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let seq = TEMP_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".{}.{seq}.tmp", std::process::id()));
    let tmp = std::path::PathBuf::from(tmp);
    std::fs::write(&tmp, bytes)
        .and_then(|()| std::fs::rename(&tmp, path))
        .inspect_err(|_| {
            let _ = std::fs::remove_file(&tmp);
        })
}

/// Removes stale `<file>.*.tmp` leftovers next to `path` — a writer killed
/// between `write` and `rename` strands its uniquely-named temp file, and
/// nothing else will ever reference it. Call on startup, before writing.
/// Best-effort: I/O errors (unreadable dir, races with other cleaners) are
/// ignored.
pub(crate) fn clean_stray_temps(path: &Path) {
    let (Some(dir), Some(file_name)) = (path.parent(), path.file_name()) else {
        return;
    };
    let prefix = {
        let mut p = file_name.to_os_string();
        p.push(".");
        p
    };
    let Ok(entries) = std::fs::read_dir(if dir.as_os_str().is_empty() {
        Path::new(".")
    } else {
        dir
    }) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(prefix) = prefix.to_str() else {
            return;
        };
        if name.starts_with(prefix) && name.ends_with(".tmp") {
            let _ = std::fs::remove_file(entry.path());
        }
    }
}

/// Writes a checkpoint atomically via [`atomic_write`].
fn write_checkpoint(path: &Path, cp: &Checkpoint) -> Result<(), WorkflowError> {
    let encoded = persist::encode_checkpoint(cp);
    atomic_write(path, &encoded).map_err(|e| WorkflowError::Io(format!("{}: {e}", path.display())))
}

/// [`iterate`] with durable progress: after every completed CTCR round the
/// loop state is checkpointed to `checkpoint_path`, and with `resume` set a
/// previous run's checkpoint is picked up where it left off.
///
/// CTCR is deterministic, so a killed-and-resumed run produces a
/// bit-identical final tree: the best round's result is re-derived by
/// re-running CTCR on the checkpointed best instance, and the remaining
/// rounds replay exactly. A corrupt or truncated checkpoint (torn write,
/// version skew) is counted under `checkpoint/corrupt` and triggers a clean
/// restart — never a panic or a poisoned resume.
///
/// # Errors
/// [`WorkflowError::InvalidRelief`] for a bad `relief`, and
/// [`WorkflowError::Io`] when a checkpoint cannot be written (a corrupt
/// checkpoint on *read* degrades to a restart instead of failing).
pub fn iterate_with_checkpoints(
    instance: &Instance,
    config: &CtcrConfig,
    rounds: usize,
    relief: f64,
    checkpoint_path: Option<&Path>,
    resume: bool,
) -> Result<IterateOutcome, WorkflowError> {
    if !(relief > 0.0 && relief <= 1.0) {
        return Err(WorkflowError::InvalidRelief(relief));
    }
    let metrics = &config.metrics;
    let mut current = instance.clone();
    let mut best: Option<(CtcrResult, Instance, u32)> = None;
    let mut trace: Vec<IterationTrace> = Vec::new();
    let mut start_round = 0usize;
    let mut finished = false;

    if let Some(path) = checkpoint_path {
        // A previous writer killed mid-write strands its temp file forever
        // (unique names mean nobody will rename over it) — sweep them now.
        clean_stray_temps(path);
    }

    if resume {
        if let Some(path) = checkpoint_path {
            match read_checkpoint(path) {
                Ok(Some(cp)) => {
                    // Re-derive the best result deterministically instead of
                    // storing the tree: same instance + config → same tree.
                    let result = ctcr::run(&cp.best_instance, config);
                    best = Some((result, cp.best_instance, cp.best_round));
                    current = cp.current_instance;
                    start_round = cp.rounds_done as usize;
                    finished = cp.finished;
                    trace = cp
                        .trace
                        .into_iter()
                        .map(|t| IterationTrace {
                            covered: t.covered as usize,
                            score: t.score,
                            relaxed: t.relaxed as usize,
                        })
                        .collect();
                    metrics.incr("checkpoint/resumed");
                }
                Ok(None) => {} // nothing to resume — clean start
                Err(WorkflowError::Corrupt(_)) => {
                    // Degraded mode: the checkpoint is unusable, restart
                    // from scratch rather than abort.
                    metrics.incr("checkpoint/corrupt");
                    metrics.mark_degraded();
                }
                Err(other) => return Err(other),
            }
        }
    }

    if !finished {
        for round in start_round..rounds.max(1) {
            let result = ctcr::run(&current, config);
            let covered: Vec<bool> = result.score.per_set.iter().map(|c| c.covered).collect();
            let covered_count = covered.iter().filter(|&&c| c).count();
            let uncovered = covered.len() - covered_count;
            trace.push(IterationTrace {
                covered: covered_count,
                score: result.score.normalized,
                relaxed: uncovered,
            });
            let improved = best
                .as_ref()
                .is_none_or(|(b, _, _)| result.score.covered_count() > b.score.covered_count());
            let all_covered = uncovered == 0;
            if improved {
                best = Some((result, current.clone(), round as u32));
            }
            let stop = all_covered || !improved;
            if stop {
                finished = true;
            } else {
                current = relax_uncovered(&current, &covered, relief)?;
            }
            if let Some(path) = checkpoint_path {
                let (_, best_instance, best_round) =
                    best.as_ref().expect("a best result exists after a round");
                write_checkpoint(
                    path,
                    &Checkpoint {
                        rounds_done: (round + 1) as u32,
                        finished,
                        best_round: *best_round,
                        best_instance: best_instance.clone(),
                        current_instance: current.clone(),
                        trace: trace
                            .iter()
                            .map(|t| TraceEntry {
                                covered: t.covered as u32,
                                score: t.score,
                                relaxed: t.relaxed as u32,
                            })
                            .collect(),
                    },
                )?;
                metrics.incr("checkpoint/rounds");
            }
            if stop {
                break;
            }
            // An expired budget ends reemployment after the current round:
            // the best-so-far tree is returned instead of starting more work.
            if config.budget.is_limited() && config.budget.expired() {
                metrics.incr("budget/expired");
                metrics.mark_degraded();
                break;
            }
        }
    }

    let (result, instance, _) = best.expect("at least one round ran");
    Ok(IterateOutcome {
        result,
        instance,
        trace,
    })
}

/// A category flagged by the embedding-distance misassignment detector.
#[derive(Debug, Clone, PartialEq)]
pub struct OutlierReport {
    /// The flagged category.
    pub category: CatId,
    /// The item farthest from the category centroid.
    pub outlier_item: u32,
    /// Its squared distance from the centroid, in units of the category's
    /// mean squared distance (≥ `threshold` to be flagged).
    pub deviation: f64,
}

/// Scans every category's items in embedding space and reports items whose
/// squared distance to the category centroid exceeds `threshold ×` the
/// category mean — the §5.4 tool that caught the "Nike Blazer" shoe inside
/// the "Blazers" jacket category.
pub fn embedding_outliers(
    tree: &CategoryTree,
    embeddings: &[Vec<f32>],
    threshold: f64,
) -> Vec<OutlierReport> {
    let mut reports = Vec::new();
    let full = tree.materialize();
    for cat in tree.live_categories() {
        if cat == ROOT {
            continue;
        }
        let items: Vec<u32> = full[cat as usize].iter().collect();
        if items.len() < 4 {
            continue;
        }
        let dim = embeddings[items[0] as usize].len();
        let mut centroid = vec![0.0f64; dim];
        for &i in &items {
            for (c, &v) in centroid.iter_mut().zip(&embeddings[i as usize]) {
                *c += v as f64;
            }
        }
        for c in &mut centroid {
            *c /= items.len() as f64;
        }
        let sq = |i: u32| -> f64 {
            embeddings[i as usize]
                .iter()
                .zip(&centroid)
                .map(|(&v, &c)| (v as f64 - c) * (v as f64 - c))
                .sum()
        };
        let mean: f64 = items.iter().map(|&i| sq(i)).sum::<f64>() / items.len() as f64;
        if mean <= 1e-12 {
            continue;
        }
        let (worst, worst_sq) = items
            .iter()
            .map(|&i| (i, sq(i)))
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .expect("non-empty");
        let deviation = worst_sq / mean;
        if deviation >= threshold {
            reports.push(OutlierReport {
                category: cat,
                outlier_item: worst,
                deviation,
            });
        }
    }
    reports.sort_by(|a, b| b.deviation.total_cmp(&a.deviation));
    reports
}

/// Items belonging to at least one input set but to no *covering* category,
/// together with the input set holding the most of them.
///
/// Isolated orphans are re-assignment candidates for the automatic tooling;
/// a set holding many orphans signals a missing category whose threshold
/// should be relaxed (§5.4).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OrphanReport {
    /// All orphaned items.
    pub items: Vec<u32>,
    /// `(set, orphan count)` for sets holding ≥ 2 orphans, descending.
    pub concentrated_sets: Vec<(u32, usize)>,
}

/// Computes the orphan report for a solved tree.
pub fn orphaned_items(instance: &Instance, tree: &CategoryTree) -> OrphanReport {
    orphaned_items_with(instance, tree, &ScoreOptions::default())
}

/// [`orphaned_items`] with explicit scoring options (thread count and
/// telemetry for the underlying [`score_tree_with`] pass).
pub fn orphaned_items_with(
    instance: &Instance,
    tree: &CategoryTree,
    options: &ScoreOptions,
) -> OrphanReport {
    let score = score_tree_with(instance, tree, options);
    let mut in_covered: FxHashSet<u32> = FxHashSet::default();
    let full = tree.materialize();
    for cover in &score.per_set {
        if cover.covered {
            if let Some(cat) = cover.best_category {
                in_covered.extend(full[cat as usize].iter());
            }
        }
    }
    let mut orphans: Vec<u32> = Vec::new();
    let mut per_set: Vec<(u32, usize)> = Vec::new();
    let mut orphan_set: FxHashSet<u32> = FxHashSet::default();
    for (idx, set) in instance.sets.iter().enumerate() {
        let mut count = 0usize;
        for item in set.items.iter() {
            if !in_covered.contains(&item) {
                count += 1;
                if orphan_set.insert(item) {
                    orphans.push(item);
                }
            }
        }
        if count >= 2 {
            per_set.push((idx as u32, count));
        }
    }
    per_set.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    orphans.sort_unstable();
    OrphanReport {
        items: orphans,
        concentrated_sets: per_set,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::InputSet;
    use crate::itemset::ItemSet;
    use crate::similarity::Similarity;

    fn crossing_instance() -> Instance {
        // Two crossing sets at δ = 0.9: a guaranteed conflict, so one stays
        // uncovered on the first run.
        Instance::new(
            4,
            vec![
                InputSet::new(ItemSet::new(vec![0, 1, 2]), 2.0),
                InputSet::new(ItemSet::new(vec![1, 2, 3]), 1.0),
            ],
            Similarity::jaccard_threshold(0.9),
        )
    }

    #[test]
    fn relax_lowers_only_uncovered() {
        let instance = crossing_instance();
        let relaxed = relax_uncovered(&instance, &[true, false], 0.5).unwrap();
        assert_eq!(relaxed.threshold_of(0), 0.9);
        assert!((relaxed.threshold_of(1) - 0.45).abs() < 1e-12);
    }

    #[test]
    fn relax_rejects_bad_relief_and_mismatched_mask() {
        let instance = crossing_instance();
        assert!(matches!(
            relax_uncovered(&instance, &[true, false], 0.0),
            Err(WorkflowError::InvalidRelief(_))
        ));
        assert!(matches!(
            relax_uncovered(&instance, &[true, false], f64::NAN),
            Err(WorkflowError::InvalidRelief(_))
        ));
        assert!(matches!(
            relax_uncovered(&instance, &[true], 0.5),
            Err(WorkflowError::CoveredLengthMismatch {
                got: 1,
                expected: 2
            })
        ));
    }

    #[test]
    fn boost_scales_weights() {
        let instance = crossing_instance();
        let boosted = boost_sets(&instance, &[1], 10.0).unwrap();
        assert_eq!(boosted.sets[1].weight, 10.0);
        assert_eq!(boosted.sets[0].weight, 2.0);
    }

    #[test]
    fn boost_rejects_out_of_range_index_and_bad_factor() {
        let instance = crossing_instance();
        // Previously an index panic; now a typed error.
        assert!(matches!(
            boost_sets(&instance, &[7], 2.0),
            Err(WorkflowError::SetIndexOutOfRange {
                index: 7,
                num_sets: 2
            })
        ));
        assert!(matches!(
            boost_sets(&instance, &[0], 0.0),
            Err(WorkflowError::InvalidFactor(_))
        ));
        assert!(matches!(
            boost_sets(&instance, &[0], f64::INFINITY),
            Err(WorkflowError::InvalidFactor(_))
        ));
    }

    #[test]
    fn iterate_covers_more_over_rounds() {
        let instance = crossing_instance();
        let outcome = iterate(&instance, &CtcrConfig::default(), 4, 0.5).unwrap();
        assert!(!outcome.trace.is_empty());
        assert!(
            outcome.result.score.covered_count() >= outcome.trace[0].covered,
            "reemployment must not lose coverage: {:?}",
            outcome.trace
        );
        // With enough relief both sets eventually fit.
        assert!(outcome.result.score.covered_count() >= 1);
        // The returned instance matches the returned score.
        let rescore = crate::score::score_tree(&outcome.instance, &outcome.result.tree);
        assert_eq!(
            rescore.covered_count(),
            outcome.result.score.covered_count()
        );
    }

    fn scratch_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("oct-workflow-{}-{name}.ckpt", std::process::id()));
        p
    }

    #[test]
    fn interrupted_run_resumes_to_bit_identical_tree() {
        let instance = crossing_instance();
        let config = CtcrConfig::default();

        // Uninterrupted reference run (no checkpointing involved).
        let reference = iterate(&instance, &config, 4, 0.5).unwrap();
        let reference_bytes = persist::encode_tree(&reference.result.tree);

        // "Killed" run: only the first round completes before the process
        // dies — all that survives is the checkpoint file.
        let path = scratch_path("resume");
        let _ = std::fs::remove_file(&path);
        let partial =
            iterate_with_checkpoints(&instance, &config, 1, 0.5, Some(&path), false).unwrap();
        assert_eq!(partial.trace.len(), 1);

        // Resume picks up at round 1 and must converge to the same tree.
        let resumed =
            iterate_with_checkpoints(&instance, &config, 4, 0.5, Some(&path), true).unwrap();
        assert_eq!(resumed.trace.len(), reference.trace.len());
        assert_eq!(
            persist::encode_tree(&resumed.result.tree).as_ref(),
            reference_bytes.as_ref(),
            "resumed run must reproduce the uninterrupted tree bit-for-bit"
        );

        // Resuming a finished run re-derives the result without extra rounds.
        let replay =
            iterate_with_checkpoints(&instance, &config, 4, 0.5, Some(&path), true).unwrap();
        assert_eq!(
            persist::encode_tree(&replay.result.tree).as_ref(),
            reference_bytes.as_ref()
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_checkpoint_restarts_cleanly() {
        let instance = crossing_instance();
        let config = CtcrConfig {
            metrics: oct_obs::Metrics::enabled(),
            ..CtcrConfig::default()
        };
        let path = scratch_path("corrupt");
        std::fs::write(&path, b"definitely not a checkpoint").unwrap();

        let outcome =
            iterate_with_checkpoints(&instance, &config, 4, 0.5, Some(&path), true).unwrap();
        let reference = iterate(&instance, &CtcrConfig::default(), 4, 0.5).unwrap();
        assert_eq!(
            persist::encode_tree(&outcome.result.tree).as_ref(),
            persist::encode_tree(&reference.result.tree).as_ref(),
            "corrupt checkpoint must fall back to a clean full run"
        );
        let report = config.metrics.report();
        assert_eq!(report.counter("checkpoint/corrupt"), Some(1));
        assert!(report.degraded);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_checkpoint_with_resume_is_a_clean_start() {
        let instance = crossing_instance();
        let path = scratch_path("missing");
        let _ = std::fs::remove_file(&path);
        let outcome =
            iterate_with_checkpoints(&instance, &CtcrConfig::default(), 2, 0.5, Some(&path), true)
                .unwrap();
        assert!(!outcome.trace.is_empty());
        assert!(path.exists(), "checkpoints are still written going forward");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn truncated_checkpoint_file_falls_back_to_clean_restart() {
        let instance = crossing_instance();
        let path = scratch_path("torn");
        let _ = std::fs::remove_file(&path);
        iterate_with_checkpoints(
            &instance,
            &CtcrConfig::default(),
            1,
            0.5,
            Some(&path),
            false,
        )
        .expect("first round checkpoints");
        // A torn write: only the first half of the checkpoint reached disk.
        let len = std::fs::metadata(&path).unwrap().len();
        std::fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(len / 2)
            .unwrap();

        // Resuming from the torn file restarts cleanly and still converges
        // to the reference tree.
        let config = CtcrConfig {
            metrics: oct_obs::Metrics::enabled(),
            ..CtcrConfig::default()
        };
        let resumed =
            iterate_with_checkpoints(&instance, &config, 4, 0.5, Some(&path), true).unwrap();
        let reference = iterate(&instance, &CtcrConfig::default(), 4, 0.5).unwrap();
        assert_eq!(
            persist::encode_tree(&resumed.result.tree).as_ref(),
            persist::encode_tree(&reference.result.tree).as_ref()
        );
        assert_eq!(
            config.metrics.report().counter("checkpoint/corrupt"),
            Some(1)
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn concurrent_checkpoint_writers_use_distinct_temp_names() {
        // Regression: the old fixed `<path>.tmp` name let two runs sharing
        // a checkpoint dir write/rename over each other's temp file,
        // leaving a torn checkpoint behind. With unique names every
        // concurrent writer lands a complete, decodable checkpoint.
        let dir = std::env::temp_dir().join(format!("oct-ckpt-conc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let instance = crossing_instance();
        std::thread::scope(|scope| {
            for worker in 0..4 {
                let path = dir.join(format!("run{worker}.ckpt"));
                let instance = &instance;
                scope.spawn(move || {
                    for _ in 0..5 {
                        iterate_with_checkpoints(
                            instance,
                            &CtcrConfig::default(),
                            2,
                            0.5,
                            Some(&path),
                            false,
                        )
                        .expect("checkpointed run succeeds");
                    }
                });
            }
        });
        for worker in 0..4 {
            let path = dir.join(format!("run{worker}.ckpt"));
            let raw = std::fs::read(&path).expect("checkpoint exists");
            persist::decode_checkpoint(bytes::Bytes::from(raw)).expect("checkpoint decodes");
        }
        // No writer leaked a temp file.
        let strays: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(strays.is_empty(), "leaked temp files: {strays:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stray_temp_files_are_swept_on_startup() {
        // Regression: a crash between write and rename used to strand
        // `<path>.tmp` forever. Startup now sweeps anything matching
        // `<file>.*.tmp` — both the legacy fixed name and unique names
        // from dead pids — while leaving unrelated files alone.
        let dir = std::env::temp_dir().join(format!("oct-ckpt-stray-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("build.ckpt");
        let legacy = dir.join("build.ckpt.tmp");
        let unique = dir.join("build.ckpt.99999.3.tmp");
        let unrelated = dir.join("other.ckpt.tmp");
        std::fs::write(&legacy, b"torn").unwrap();
        std::fs::write(&unique, b"torn").unwrap();
        std::fs::write(&unrelated, b"torn").unwrap();

        let instance = crossing_instance();
        iterate_with_checkpoints(
            &instance,
            &CtcrConfig::default(),
            1,
            0.5,
            Some(&path),
            false,
        )
        .unwrap();
        assert!(!legacy.exists(), "legacy fixed-name stray must be swept");
        assert!(!unique.exists(), "dead-pid unique stray must be swept");
        assert!(
            unrelated.exists(),
            "strays of other checkpoint files are not ours to sweep"
        );
        assert!(path.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cancelled_budget_stops_after_one_round_with_best_so_far() {
        let instance = crossing_instance();
        let config = CtcrConfig {
            metrics: oct_obs::Metrics::enabled(),
            ..CtcrConfig::default()
        };
        config.budget.token().cancel();
        let outcome = iterate_with_checkpoints(&instance, &config, 4, 0.5, None, false)
            .expect("an expired budget must not fail the run");
        assert_eq!(
            outcome.trace.len(),
            1,
            "reemployment stops after the round the deadline landed in"
        );
        assert!(config.metrics.is_degraded());
        assert!(outcome.result.tree.validate(&outcome.instance).is_ok());
    }

    #[test]
    fn embedding_outliers_catch_planted_misfit() {
        // Category of 9 clustered items plus one far-away item.
        let mut tree = CategoryTree::new();
        let c = tree.add_category(ROOT);
        tree.assign_items(c, 0..10u32);
        let mut embeddings: Vec<Vec<f32>> = (0..10).map(|i| vec![(i as f32) * 0.01, 0.0]).collect();
        embeddings[7] = vec![50.0, 50.0]; // the Nike Blazer
        let reports = embedding_outliers(&tree, &embeddings, 3.0);
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].category, c);
        assert_eq!(reports[0].outlier_item, 7);
        assert!(reports[0].deviation > 3.0);
    }

    #[test]
    fn homogeneous_categories_not_flagged() {
        let mut tree = CategoryTree::new();
        let c = tree.add_category(ROOT);
        tree.assign_items(c, 0..8u32);
        let embeddings: Vec<Vec<f32>> = (0..8).map(|i| vec![i as f32, 0.0]).collect();
        assert!(embedding_outliers(&tree, &embeddings, 3.5).is_empty());
    }

    #[test]
    fn orphans_concentrate_in_uncovered_sets() {
        let instance = crossing_instance();
        let result = ctcr::run(&instance, &CtcrConfig::default());
        let report = orphaned_items(&instance, &result.tree);
        // Exactly one of the crossing sets is covered; the other's private
        // item is orphaned.
        assert!(!report.items.is_empty());
        assert!(!report.concentrated_sets.is_empty() || report.items.len() == 1);
    }

    #[test]
    fn fully_covered_instance_has_no_orphans() {
        let instance = Instance::new(
            4,
            vec![
                InputSet::new(ItemSet::new(vec![0, 1]), 1.0),
                InputSet::new(ItemSet::new(vec![2, 3]), 1.0),
            ],
            Similarity::jaccard_threshold(0.9),
        );
        let result = ctcr::run(&instance, &CtcrConfig::default());
        let report = orphaned_items(&instance, &result.tree);
        assert!(report.items.is_empty(), "{report:?}");
    }
}
