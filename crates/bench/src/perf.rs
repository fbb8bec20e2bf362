//! The `BENCH_*.json` perf suites: deterministic benchmarks over every hot
//! path, schema-versioned trajectory files, and regression gating.
//!
//! One [`run_perf`] call times eleven suites — conflict enumeration, MIS,
//! NN-chain clustering, distance-matrix fill, tree scoring (serial vs
//! parallel), persist round-trip, streaming incremental maintenance,
//! ANN candidate generation (recall/latency across the `ef` beam sweep
//! plus narrow-then-rerank vs the exhaustive point scan),
//! `oct-serve` request serving, `oct-router` scatter-gather fan-out
//! over a sharded replicated fleet, and the same fleet again behind
//! seeded `oct-chaos` fault proxies, the last three through a
//! loopback load generator — each through the [`crate::measure`] primitives
//! (warmup + repetitions, median + MAD). The result is a [`BenchReport`]
//! that serializes to `BENCH_<git-rev>.json` at the repo root: one file per
//! revision forms the perf *trajectory*, and [`compare`] diffs two of them
//! with a MAD-derived noise margin so a future PR can prove it didn't
//! regress.
//!
//! Determinism contract: every non-timing field of the report — record
//! names, thread counts, rep counts, detail entries, dataset scale — is a
//! pure function of [`PerfConfig`] and the workload seeds. Only measured
//! durations (and values derived from them) vary between runs.
//!
//! The JSON schema is deliberately **array-free** so it parses with the
//! same minimal reader as [`oct_obs::PipelineReport`] (records are objects
//! keyed by benchmark name). Unknown keys are ignored on read, optional
//! fields default, and corrupt input yields a typed
//! [`json::JsonError`](oct_obs::json::JsonError) — never a panic.

use std::collections::BTreeMap;
use std::path::Path;
use std::thread;
use std::time::Duration;

use oct_chaos::{ChaosConfig, ChaosProxy, FaultPlan};
use oct_cluster::agglomerative::{self, Linkage};
use oct_cluster::matrix::CondensedMatrix;
use oct_core::conflict;
use oct_core::input::Instance;
use oct_core::persist;
use oct_core::score::{score_tree_with, ScoreOptions};
use oct_core::similarity::{Similarity, SimilarityKind};
use oct_datagen::embeddings::item_embeddings;
use oct_datagen::{generate, DatasetName};
use oct_mis::{Graph, Hypergraph, SolveBudget, Solver};
use oct_obs::json;
use oct_obs::{Metrics, PipelineReport};
use oct_router::{Router, RouterConfig};
use oct_serve::loadgen::{self, LoadGenConfig};
use oct_serve::{ServeConfig, Server, ServingTree};

use crate::measure::{measure, MeasureSpec, Sample};
use crate::runner::{self, RunnerConfig};

/// Current `bench_schema_version` written by [`BenchReport::to_json`].
pub const BENCH_SCHEMA_VERSION: u64 = 1;

/// The suite prefixes every complete BENCH file must cover.
pub const SUITES: [&str; 11] = [
    "conflict", "mis", "cluster", "matrix", "score", "persist", "incr", "ann", "serve", "router",
    "chaos",
];

/// Knobs for one perf run.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfConfig {
    /// Dataset scale in `(0, 1]` (dataset A of the paper).
    pub scale: f64,
    /// Thread counts to sweep for the parallel suites (deduplicated,
    /// ascending in the report keys).
    pub threads: Vec<usize>,
    /// Timed repetitions per benchmark.
    pub reps: usize,
    /// Discarded warmup runs per benchmark.
    pub warmup: usize,
    /// Loopback load-generator connections for the serve suite.
    pub serve_connections: usize,
    /// Requests per connection per serve burst.
    pub serve_requests: usize,
}

impl Default for PerfConfig {
    fn default() -> Self {
        PerfConfig {
            scale: 0.05,
            threads: vec![1, 4],
            reps: 5,
            warmup: 1,
            serve_connections: 4,
            serve_requests: 200,
        }
    }
}

impl PerfConfig {
    fn spec(&self) -> MeasureSpec {
        MeasureSpec {
            warmup: self.warmup,
            reps: self.reps.max(1),
        }
    }

    fn thread_counts(&self) -> Vec<usize> {
        let mut counts: Vec<usize> = self.threads.iter().map(|&t| t.max(1)).collect();
        if counts.is_empty() {
            counts.push(1);
        }
        counts.sort_unstable();
        counts.dedup();
        counts
    }
}

/// One benchmark's summary statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Median across repetitions. Seconds for `unit == "s"`, requests per
    /// second for `unit == "req/s"`.
    pub median: f64,
    /// Median absolute deviation across repetitions, same unit.
    pub mad: f64,
    /// Timed repetitions behind the summary.
    pub reps: usize,
    /// Worker threads the benchmark ran with (1 = serial).
    pub threads: usize,
    /// `"s"` (lower is better) or `"req/s"` (higher is better).
    pub unit: String,
    /// Deterministic side observations (sizes, counts, scores) — never
    /// timing-derived.
    pub detail: BTreeMap<String, f64>,
}

impl BenchRecord {
    fn from_sample(sample: &Sample, threads: usize) -> Self {
        BenchRecord {
            median: sample.median_s(),
            mad: sample.mad_s(),
            reps: sample.reps(),
            threads,
            unit: "s".to_owned(),
            detail: BTreeMap::new(),
        }
    }

    /// `true` when larger values are better (throughput-style units).
    pub fn higher_is_better(&self) -> bool {
        self.unit.contains("/s")
    }
}

/// A full BENCH document: environment fingerprint, benchmark records, and
/// an embedded pipeline span breakdown.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BenchReport {
    /// Schema version of the document (see [`BENCH_SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// Short git revision the binary was built from, or `"unknown"`.
    pub git_rev: String,
    /// Dataset scale the suites ran at.
    pub scale: f64,
    /// Environment fingerprint: `os`, `arch`, `cpus`, `profile`.
    pub env: BTreeMap<String, String>,
    /// Benchmark records keyed by `suite/name[/tN]`.
    pub benchmarks: BTreeMap<String, BenchRecord>,
    /// Per-stage span breakdown from one instrumented pipeline run.
    pub pipeline: Option<PipelineReport>,
}

impl BenchReport {
    /// The canonical file name for this report: `BENCH_<git-rev>.json`.
    pub fn file_name(&self) -> String {
        format!("BENCH_{}.json", self.git_rev)
    }

    /// Suite prefixes present in the records.
    pub fn suites(&self) -> Vec<&str> {
        let mut found: Vec<&str> = self
            .benchmarks
            .keys()
            .filter_map(|name| name.split('/').next())
            .collect();
        found.sort_unstable();
        found.dedup();
        found
    }

    /// `true` when every suite in [`SUITES`] has at least one record.
    pub fn covers_all_suites(&self) -> bool {
        let found = self.suites();
        SUITES.iter().all(|s| found.contains(s))
    }

    /// Serializes to the stable, array-free BENCH JSON schema.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\n");
        out.push_str(&format!(
            "  \"bench_schema_version\": {},\n",
            self.schema_version
        ));
        out.push_str("  \"git_rev\": ");
        json::write_string(&mut out, &self.git_rev);
        out.push_str(",\n");
        out.push_str(&format!("  \"scale\": {},\n", json::write_f64(self.scale)));
        out.push_str("  \"env\": {");
        for (i, (key, value)) in self.env.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            json::write_string(&mut out, key);
            out.push_str(": ");
            json::write_string(&mut out, value);
        }
        if !self.env.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n  \"benchmarks\": {");
        for (i, (name, record)) in self.benchmarks.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            json::write_string(&mut out, name);
            out.push_str(&format!(
                ": {{\"median\": {}, \"mad\": {}, \"reps\": {}, \"threads\": {}, \"unit\": ",
                json::write_f64(record.median),
                json::write_f64(record.mad),
                record.reps,
                record.threads,
            ));
            json::write_string(&mut out, &record.unit);
            out.push_str(", \"detail\": {");
            for (j, (key, value)) in record.detail.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                json::write_string(&mut out, key);
                out.push_str(": ");
                out.push_str(&json::write_f64(*value));
            }
            out.push_str("}}");
        }
        if !self.benchmarks.is_empty() {
            out.push_str("\n  ");
        }
        out.push('}');
        if let Some(pipeline) = &self.pipeline {
            out.push_str(",\n  \"pipeline\": ");
            // Indent the nested document two spaces to keep the file
            // readable; the parser does not care.
            let nested = pipeline.to_json();
            let nested = nested.trim_end();
            for (i, line) in nested.lines().enumerate() {
                if i > 0 {
                    out.push_str("\n  ");
                }
                out.push_str(line);
            }
        }
        out.push_str("\n}\n");
        out
    }

    /// Parses a BENCH document.
    ///
    /// Forward-compat rules: unknown keys are ignored; `git_rev`, `scale`,
    /// `env`, `detail`, and `pipeline` default when missing; only
    /// `bench_schema_version` and each record's `median` are required.
    /// Malformed input yields a typed [`json::JsonError`], never a panic.
    pub fn from_json(text: &str) -> Result<Self, json::JsonError> {
        let value = json::parse(text)?;
        let root = value.as_object("bench root")?;
        let mut report = BenchReport {
            schema_version: root
                .get("bench_schema_version")
                .ok_or_else(|| json::JsonError::missing_field("bench_schema_version"))?
                .as_u64("bench_schema_version")?,
            git_rev: "unknown".to_owned(),
            ..BenchReport::default()
        };
        if let Some(rev) = root.get("git_rev") {
            report.git_rev = rev.as_str("git_rev")?.to_owned();
        }
        if let Some(scale) = root.get("scale") {
            report.scale = scale.as_f64("scale")?;
        }
        if let Some(env) = root.get("env") {
            for (key, value) in env.as_object("env")? {
                report
                    .env
                    .insert(key.clone(), value.as_str(key)?.to_owned());
            }
        }
        if let Some(benchmarks) = root.get("benchmarks") {
            for (name, record) in benchmarks.as_object("benchmarks")? {
                let fields = record.as_object("benchmark record")?;
                let mut parsed = BenchRecord {
                    median: fields
                        .get("median")
                        .ok_or_else(|| json::JsonError::missing_field("median"))?
                        .as_f64("median")?,
                    mad: 0.0,
                    reps: 1,
                    threads: 1,
                    unit: "s".to_owned(),
                    detail: BTreeMap::new(),
                };
                if let Some(mad) = fields.get("mad") {
                    parsed.mad = mad.as_f64("mad")?;
                }
                if let Some(reps) = fields.get("reps") {
                    parsed.reps = reps.as_u64("reps")? as usize;
                }
                if let Some(threads) = fields.get("threads") {
                    parsed.threads = threads.as_u64("threads")? as usize;
                }
                if let Some(unit) = fields.get("unit") {
                    parsed.unit = unit.as_str("unit")?.to_owned();
                }
                if let Some(detail) = fields.get("detail") {
                    for (key, value) in detail.as_object("detail")? {
                        parsed.detail.insert(key.clone(), value.as_f64(key)?);
                    }
                }
                report.benchmarks.insert(name.clone(), parsed);
            }
        }
        if let Some(pipeline) = root.get("pipeline") {
            report.pipeline = Some(PipelineReport::from_value(pipeline)?);
        }
        Ok(report)
    }
}

/// Best-effort short git revision: walks up from the current directory to
/// the first `.git/HEAD`, resolving symbolic refs through the ref file or
/// `packed-refs`. Returns `"unknown"` when anything is missing — a BENCH
/// run outside a checkout is still valid, just unnamed.
pub fn discover_git_rev() -> String {
    let Ok(mut dir) = std::env::current_dir() else {
        return "unknown".to_owned();
    };
    loop {
        if let Some(rev) = git_rev_in(&dir) {
            return rev;
        }
        if !dir.pop() {
            return "unknown".to_owned();
        }
    }
}

fn git_rev_in(dir: &Path) -> Option<String> {
    let head = std::fs::read_to_string(dir.join(".git/HEAD")).ok()?;
    let head = head.trim();
    let Some(refname) = head.strip_prefix("ref: ") else {
        return Some(short_rev(head));
    };
    if let Ok(rev) = std::fs::read_to_string(dir.join(".git").join(refname)) {
        return Some(short_rev(rev.trim()));
    }
    let packed = std::fs::read_to_string(dir.join(".git/packed-refs")).ok()?;
    packed
        .lines()
        .filter(|line| !line.starts_with(['#', '^']))
        .find_map(|line| {
            let (rev, name) = line.split_once(' ')?;
            (name.trim() == refname).then(|| short_rev(rev))
        })
}

fn short_rev(rev: &str) -> String {
    rev.chars().take(12).collect()
}

/// The environment fingerprint embedded in every BENCH file.
pub fn env_fingerprint() -> BTreeMap<String, String> {
    let cpus = thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    [
        ("os", std::env::consts::OS.to_owned()),
        ("arch", std::env::consts::ARCH.to_owned()),
        ("cpus", cpus.to_string()),
        ("profile", profile.to_owned()),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_owned(), v))
    .collect()
}

/// Runs all ten suites and assembles the report.
pub fn run_perf(config: &PerfConfig) -> BenchReport {
    let mut report = BenchReport {
        schema_version: BENCH_SCHEMA_VERSION,
        git_rev: discover_git_rev(),
        scale: config.scale,
        env: env_fingerprint(),
        ..BenchReport::default()
    };

    let dataset = generate(
        DatasetName::A,
        config.scale,
        Similarity::jaccard_threshold(0.8),
    );
    let instance = &dataset.instance;
    let spec = config.spec();
    let threads = config.thread_counts();
    let quiet = Metrics::disabled();

    // conflict: pairwise (+triple) conflict enumeration, per thread count.
    let mut analysis = None;
    for &t in &threads {
        let (sample, result) = measure(spec, || conflict::analyze(instance, t, true));
        let mut record = BenchRecord::from_sample(&sample, t);
        record
            .detail
            .insert("conflicts2".to_owned(), result.conflicts2.len() as f64);
        record
            .detail
            .insert("conflicts3".to_owned(), result.conflicts3.len() as f64);
        record
            .detail
            .insert("sets".to_owned(), instance.num_sets() as f64);
        report
            .benchmarks
            .insert(format!("conflict/analyze/t{t}"), record);
        analysis = Some(result);
    }
    let analysis = analysis.expect("at least one thread count");

    // mis: maximum-weight independent set on the conflict (hyper)graph.
    let weights: Vec<f64> = instance.sets.iter().map(|s| s.weight).collect();
    let solver = Solver::new(SolveBudget::default());
    let (sample, solution) = if instance.similarity.kind == SimilarityKind::Exact {
        let graph = Graph::new(weights.clone(), &analysis.conflicts2);
        measure(spec, || solver.solve_graph(&graph))
    } else {
        let mut edges: Vec<Vec<u32>> = analysis
            .conflicts2
            .iter()
            .map(|&(a, b)| vec![a, b])
            .collect();
        edges.extend(analysis.conflicts3.iter().map(|t| t.to_vec()));
        let hypergraph = Hypergraph::new(weights.clone(), edges);
        measure(spec, || solver.solve_hypergraph(&hypergraph))
    };
    let mut record = BenchRecord::from_sample(&sample, 1);
    record
        .detail
        .insert("selected".to_owned(), solution.vertices.len() as f64);
    record.detail.insert("weight".to_owned(), solution.weight);
    report.benchmarks.insert("mis/solve".to_owned(), record);

    // matrix: condensed Euclidean distance-matrix fill, per thread count.
    let rows = item_embeddings(&dataset.catalog);
    let mut matrix = None;
    for &t in &threads {
        let (sample, result) = measure(spec, || {
            CondensedMatrix::euclidean_dense_with(&rows, t, &quiet)
                .expect("embeddings rows share a dimension")
        });
        let mut record = BenchRecord::from_sample(&sample, t);
        record.detail.insert("points".to_owned(), rows.len() as f64);
        report
            .benchmarks
            .insert(format!("matrix/fill/t{t}"), record);
        matrix = Some(result);
    }
    let matrix = matrix.expect("at least one thread count");

    // matrix/setsim: the all-pairs set-similarity kernel (CCT's raw
    // pairwise ablation) on both substrates — sorted-`u32` merges vs packed
    // bitmaps (word AND + popcount). The detail checksum is asserted equal
    // across substrates, so the pair of records is a recorded speedup proof.
    let n_sets = instance.num_sets();
    let (sample, scalar_sum) = measure(spec, || {
        let mut total: u64 = 0;
        for i in 0..n_sets {
            for j in (i + 1)..n_sets {
                total += instance.sets[i]
                    .items
                    .intersection_size(&instance.sets[j].items) as u64;
            }
        }
        total
    });
    let mut record = BenchRecord::from_sample(&sample, 1);
    record.detail.insert("sets".to_owned(), n_sets as f64);
    record
        .detail
        .insert("inter_sum".to_owned(), scalar_sum as f64);
    report
        .benchmarks
        .insert("matrix/setsim_scalar".to_owned(), record);

    let packed = instance.packed_sets();
    let (sample, packed_sum) = measure(spec, || {
        let mut total: u64 = 0;
        for i in 0..n_sets {
            for j in (i + 1)..n_sets {
                total += packed[i].intersection_size(&packed[j]) as u64;
            }
        }
        total
    });
    assert_eq!(
        packed_sum, scalar_sum,
        "packed all-pairs intersection sizes must match the scalar merge"
    );
    let mut record = BenchRecord::from_sample(&sample, 1);
    record.detail.insert("sets".to_owned(), n_sets as f64);
    record
        .detail
        .insert("inter_sum".to_owned(), packed_sum as f64);
    report
        .benchmarks
        .insert("matrix/setsim_packed".to_owned(), record);

    // cluster: NN-chain agglomerative clustering over the item embeddings.
    let (sample, dendrogram) = measure(spec, || {
        agglomerative::cluster(matrix.clone(), Linkage::Average).expect("benchmark matrix is valid")
    });
    let mut record = BenchRecord::from_sample(&sample, 1);
    record
        .detail
        .insert("leaves".to_owned(), dendrogram.num_leaves() as f64);
    record
        .detail
        .insert("merges".to_owned(), dendrogram.merges().len() as f64);
    report
        .benchmarks
        .insert("cluster/nn_chain".to_owned(), record);

    // score: full-tree scoring, serial reference vs the thread sweep, with
    // the bit-equality check that keeps parallel merging honest.
    let trees = runner::build_baseline_trees(&dataset, &RunnerConfig::default());
    let tree = trees.ic_q;
    let serial = score_tree_with(
        instance,
        &tree,
        &ScoreOptions {
            threads: 1,
            ..ScoreOptions::default()
        },
    );
    for &t in &threads {
        let options = ScoreOptions {
            threads: t,
            ..ScoreOptions::default()
        };
        let (sample, score) = measure(spec, || score_tree_with(instance, &tree, &options));
        assert_eq!(
            score.total.to_bits(),
            serial.total.to_bits(),
            "parallel scoring (t={t}) must be bit-equal to serial"
        );
        let mut record = BenchRecord::from_sample(&sample, t);
        record
            .detail
            .insert("normalized".to_owned(), score.normalized);
        report.benchmarks.insert(format!("score/tree/t{t}"), record);
    }

    // persist: encode + decode round-trip of the scored tree.
    let encoded_len = persist::encode_tree(&tree).len();
    let (sample, _) = measure(spec, || {
        let bytes = persist::encode_tree(&tree);
        persist::decode_tree(bytes).expect("fresh encoding decodes")
    });
    let mut record = BenchRecord::from_sample(&sample, 1);
    record.detail.insert("bytes".to_owned(), encoded_len as f64);
    report
        .benchmarks
        .insert("persist/roundtrip".to_owned(), record);

    // incr: streaming maintenance — warm delta apply vs from-scratch rerun.
    incr_suite(config, &dataset, &mut report);

    // ann: HNSW build + recall/latency beam sweep, and the narrow-then-
    // rerank candidate-generation path against the exhaustive point scan.
    ann_suite(spec, instance, &tree, &mut report);

    // serve: loopback load generation against a real daemon.
    serve_suite(config, instance, &tree, &mut report);

    // router: the same bursts scatter-gathered through the shard router
    // over a replicated in-process fleet.
    router_suite(config, instance, &tree, &mut report);

    // chaos: the router fleet again, but every replica sits behind a
    // seeded fault proxy injecting delays, resets, and flush stalls.
    chaos_suite(config, instance, &tree, &mut report);

    // Embedded span breakdown from one instrumented end-to-end run.
    let (_, _, pipeline) = runner::instrumented_run(instance, &RunnerConfig::default());
    report.pipeline = Some(pipeline);

    report
}

/// Runs the incr suite: replays the dataset's query log as a windowed
/// delta stream, warms a [`StreamEngine`](oct_core::incremental::StreamEngine)
/// on every batch but the last, then times applying the final batch against
/// the warm caches vs rebuilding the same final state from scratch. The two
/// trees are asserted bit-identical, so the record pair is both the
/// incremental-speedup measurement and a standing differential check.
///
/// The stream runs the Exact variant (the `δ = 1` convergence point,
/// paper §2.2) with the slack-aware cover-repair post-pass off: Exact is
/// the conflict-dense regime where per-batch cost is dominated by pair
/// enumeration plus packed nested-subset classification and the conflict
/// MIS — the work the engine localizes — while the repair pass is a
/// full-tree post-pass that costs the same on both sides (it has its own
/// `ctcr/repair` span) and would only blur the maintenance delta this
/// record exists to track.
fn incr_suite(
    config: &PerfConfig,
    dataset: &oct_datagen::datasets::GeneratedDataset,
    report: &mut BenchReport,
) {
    use oct_core::incremental::{StreamConfig, StreamEngine};
    use oct_datagen::trends::{delta_batches, windowed, DeltaFeedConfig, RecencyScheme};

    let window = windowed(&dataset.log, 30, 0.2, 7);
    let feed = DeltaFeedConfig {
        batches: 8,
        scheme: RecencyScheme::RecentWindow { days: 14 },
        ..DeltaFeedConfig::default()
    };
    let stream = delta_batches(&window, &feed).expect("the feed config is valid");
    let stream_config = StreamConfig {
        threads: 1,
        repair: false,
        ..StreamConfig::new(dataset.catalog.len() as u32, Similarity::exact())
    };
    let mut warm = StreamEngine::new(stream_config);
    let (last, prefix) = stream.split_last().expect("batches >= 1");
    for batch in prefix {
        warm.apply_batch(batch)
            .expect("generated batches are valid");
    }

    let spec = config.spec();
    let (sample, outcome) = measure(spec, || {
        let mut engine = warm.clone();
        engine
            .apply_batch(last)
            .expect("generated batches are valid")
    });
    let s = outcome.stats;
    let mut record = BenchRecord::from_sample(&sample, 1);
    record
        .detail
        .insert("live_sets".to_owned(), s.live_sets as f64);
    record
        .detail
        .insert("deltas".to_owned(), (s.upserts + s.retires) as f64);
    record
        .detail
        .insert("reclassified_pairs".to_owned(), s.reclassified_pairs as f64);
    record
        .detail
        .insert("cached_pairs".to_owned(), s.cached_pairs as f64);
    record
        .detail
        .insert("reused_components".to_owned(), s.reused_components as f64);
    report
        .benchmarks
        .insert("incr/apply_batch".to_owned(), record);

    let mut full = warm.clone();
    full.apply_batch(last).expect("generated batches are valid");
    let (sample, rerun) = measure(spec, || full.batch_rerun());
    assert_eq!(
        persist::encode_tree(&outcome.tree).as_ref(),
        persist::encode_tree(&rerun.tree).as_ref(),
        "incremental apply must be bit-identical to a from-scratch rerun"
    );
    let mut record = BenchRecord::from_sample(&sample, 1);
    record
        .detail
        .insert("live_sets".to_owned(), rerun.stats.live_sets as f64);
    record.detail.insert(
        "reclassified_pairs".to_owned(),
        rerun.stats.reclassified_pairs as f64,
    );
    record.detail.insert(
        "solved_components".to_owned(),
        rerun.stats.solved_components as f64,
    );
    report
        .benchmarks
        .insert("incr/batch_rerun".to_owned(), record);
}

/// Runs the serve suite: boots an in-process daemon on a loopback port,
/// fires deterministic bursts, and records client-observed p50 latency and
/// throughput.
fn serve_suite(
    config: &PerfConfig,
    instance: &Instance,
    tree: &oct_core::tree::CategoryTree,
    report: &mut BenchReport,
) {
    let serving = ServingTree::build(tree.clone(), instance.num_items, 0, "bench");
    let server_config = ServeConfig {
        similarity: instance.similarity,
        drain_grace: Duration::from_secs(1),
        ..ServeConfig::default()
    };
    let server = match Server::bind(server_config, serving) {
        Ok(server) => server,
        Err(e) => panic!("serve suite could not bind a loopback port: {e}"),
    };
    let addr = server.local_addr().expect("bound server has an address");
    let drain = server.drain_handle();
    let join = thread::spawn(move || server.run());

    let load = LoadGenConfig {
        connections: config.serve_connections.max(1),
        requests_per_connection: config.serve_requests.max(1),
        num_items: instance.num_items,
        ..LoadGenConfig::default()
    };
    let mut p50s = Vec::new();
    let mut rps = Vec::new();
    for i in 0..config.warmup + config.reps.max(1) {
        let outcome = loadgen::run(addr, &load).expect("loopback burst connects");
        if i < config.warmup {
            continue;
        }
        p50s.push(outcome.latency_quantile_s(0.5));
        rps.push(outcome.throughput_rps());
    }
    drain.drain();
    let _ = join.join().expect("server thread exits cleanly");

    let requests = (load.connections * load.requests_per_connection) as f64;
    let latency = Sample::from_secs(p50s);
    let mut record = BenchRecord::from_sample(&latency, load.connections);
    record
        .detail
        .insert("requests_per_burst".to_owned(), requests);
    report
        .benchmarks
        .insert("serve/latency_p50".to_owned(), record);

    let throughput = Sample::from_secs(rps);
    let record = BenchRecord {
        median: throughput.median_s(),
        mad: throughput.mad_s(),
        reps: throughput.reps(),
        threads: load.connections,
        unit: "req/s".to_owned(),
        detail: [("requests_per_burst".to_owned(), requests)]
            .into_iter()
            .collect(),
    };
    report
        .benchmarks
        .insert("serve/throughput".to_owned(), record);
}

/// Runs the router suite: boots a 2-shard × 2-replica in-process fleet and
/// the scatter-gather router over it, fires the serve-suite bursts through
/// the router, and records client-observed fan-out latency (p50 *and* p99
/// — the tail is what hedging exists to cut), throughput, and the hedge
/// rate (latency-triggered hedges per routed request). A healthy loopback
/// fleet must not fail a single request, so the suite doubles as a cheap
/// routing-correctness check on every perf run.
fn router_suite(
    config: &PerfConfig,
    instance: &Instance,
    tree: &oct_core::tree::CategoryTree,
    report: &mut BenchReport,
) {
    const SHARDS: usize = 2;
    const REPLICAS: usize = 2;
    let mut backends = Vec::new();
    let mut shards = Vec::new();
    for _ in 0..SHARDS {
        let mut replicas = Vec::new();
        for _ in 0..REPLICAS {
            let serving = ServingTree::build(tree.clone(), instance.num_items, 0, "bench");
            let server_config = ServeConfig {
                similarity: instance.similarity,
                drain_grace: Duration::from_secs(1),
                ..ServeConfig::default()
            };
            let server = match Server::bind(server_config, serving) {
                Ok(server) => server,
                Err(e) => panic!("router suite could not bind a backend port: {e}"),
            };
            replicas.push(
                server
                    .local_addr()
                    .expect("bound server has an address")
                    .to_string(),
            );
            let drain = server.drain_handle();
            backends.push((drain, thread::spawn(move || server.run())));
        }
        shards.push(replicas);
    }

    let metrics = Metrics::new(true);
    let router = match Router::bind(RouterConfig {
        metrics: metrics.clone(),
        drain_grace: Duration::from_secs(1),
        shards,
        ..RouterConfig::default()
    }) {
        Ok(router) => router,
        Err(e) => panic!("router suite could not bind a loopback port: {e}"),
    };
    let addr = router.local_addr().expect("bound router has an address");
    let drain = router.drain_handle();
    let join = thread::spawn(move || router.run());

    let load = LoadGenConfig {
        connections: config.serve_connections.max(1),
        requests_per_connection: config.serve_requests.max(1),
        num_items: instance.num_items,
        ..LoadGenConfig::default()
    };
    let hedges = metrics.counter("router/hedges");
    let routed = metrics.counter("router/requests");
    let mut p50s = Vec::new();
    let mut p99s = Vec::new();
    let mut rps = Vec::new();
    let mut hedge_rates = Vec::new();
    let mut seen = (0u64, 0u64);
    for i in 0..config.warmup + config.reps.max(1) {
        let outcome = loadgen::run(addr, &load).expect("loopback burst connects");
        let now = (hedges.get(), routed.get());
        let (burst_hedges, burst_requests) = (now.0 - seen.0, now.1 - seen.1);
        seen = now;
        if i < config.warmup {
            continue;
        }
        assert_eq!(
            outcome.errors + outcome.transport_errors,
            0,
            "a healthy loopback fleet must not fail routed requests"
        );
        p50s.push(outcome.latency_quantile_s(0.5));
        p99s.push(outcome.latency_quantile_s(0.99));
        rps.push(outcome.throughput_rps());
        hedge_rates.push(if burst_requests > 0 {
            burst_hedges as f64 / burst_requests as f64
        } else {
            0.0
        });
    }
    // Router first, then the backends: the probe loop dies with the router,
    // so the backends drain without a client pinning their workers.
    drain.drain();
    let _ = join.join().expect("router thread exits cleanly");
    for (drain, join) in backends {
        drain.drain();
        let _ = join.join().expect("backend thread exits cleanly");
    }

    let requests = (load.connections * load.requests_per_connection) as f64;
    let fleet_detail = [
        ("requests_per_burst".to_owned(), requests),
        ("shards".to_owned(), SHARDS as f64),
        ("replicas_per_shard".to_owned(), REPLICAS as f64),
    ];
    for (name, sample) in [
        ("router/latency_p50", Sample::from_secs(p50s)),
        ("router/latency_p99", Sample::from_secs(p99s)),
    ] {
        let mut record = BenchRecord::from_sample(&sample, load.connections);
        record.detail.extend(fleet_detail.iter().cloned());
        report.benchmarks.insert(name.to_owned(), record);
    }

    let throughput = Sample::from_secs(rps);
    let record = BenchRecord {
        median: throughput.median_s(),
        mad: throughput.mad_s(),
        reps: throughput.reps(),
        threads: load.connections,
        unit: "req/s".to_owned(),
        detail: fleet_detail.iter().cloned().collect(),
    };
    report
        .benchmarks
        .insert("router/throughput".to_owned(), record);

    // Hedge rate in [0, 1]: lower is better (a rising rate means the p90
    // trigger keeps firing, i.e. the primary's tail got slower), which is
    // exactly the "unknown unit ⇒ lower is better" gating default.
    let rate = Sample::from_secs(hedge_rates);
    let record = BenchRecord {
        median: rate.median_s(),
        mad: rate.mad_s(),
        reps: rate.reps(),
        threads: load.connections,
        unit: "ratio".to_owned(),
        detail: fleet_detail.iter().cloned().collect(),
    };
    report
        .benchmarks
        .insert("router/hedge_rate".to_owned(), record);
}

/// Runs the chaos suite: the router-suite fleet again, but every replica
/// sits behind an [`oct_chaos`] proxy driven by a fixed-seed mixed
/// [`FaultPlan`] (delays, resets at byte offsets, flush-stalled trickle
/// writes). The router's hedging, failover, and stale-pool redial must
/// absorb every injected fault — the zero-client-visible-failure invariant
/// from DESIGN.md §18 is asserted on each burst — and the suite records
/// what that absorption *costs*: p50/p99 latency and throughput under
/// fault injection plus the hedge and breaker-reject rates the fault mix
/// provokes. The plan fingerprint lands in the report's env block so two
/// trajectory points are only comparable when they ran the same schedule.
fn chaos_suite(
    config: &PerfConfig,
    instance: &Instance,
    tree: &oct_core::tree::CategoryTree,
    report: &mut BenchReport,
) {
    const SHARDS: usize = 2;
    const REPLICAS: usize = 2;
    /// Fixed seed: the chaos trajectory only means something if every
    /// revision replays the identical fault schedule.
    const CHAOS_SEED: u64 = 0xC4A0_5EED;

    let plan = FaultPlan::new(ChaosConfig::mixed(CHAOS_SEED));
    report
        .env
        .insert("chaos_plan".to_owned(), plan.fingerprint());

    let mut backends = Vec::new();
    let mut proxies = Vec::new();
    let mut shards = Vec::new();
    for _ in 0..SHARDS {
        let mut replicas = Vec::new();
        for _ in 0..REPLICAS {
            let serving = ServingTree::build(tree.clone(), instance.num_items, 0, "bench");
            let server_config = ServeConfig {
                similarity: instance.similarity,
                drain_grace: Duration::from_secs(1),
                ..ServeConfig::default()
            };
            let server = match Server::bind(server_config, serving) {
                Ok(server) => server,
                Err(e) => panic!("chaos suite could not bind a backend port: {e}"),
            };
            let upstream = server
                .local_addr()
                .expect("bound server has an address")
                .to_string();
            let drain = server.drain_handle();
            backends.push((drain, thread::spawn(move || server.run())));

            let proxy_id = proxies.len() as u32;
            let proxy = match ChaosProxy::bind("127.0.0.1:0", upstream, plan.clone(), proxy_id) {
                Ok(proxy) => proxy,
                Err(e) => panic!("chaos suite could not bind a proxy port: {e}"),
            };
            replicas.push(
                proxy
                    .local_addr()
                    .expect("bound proxy has an address")
                    .to_string(),
            );
            let stop = proxy.stop_handle();
            proxies.push((stop, thread::spawn(move || proxy.run())));
        }
        shards.push(replicas);
    }

    let metrics = Metrics::new(true);
    let router = match Router::bind(RouterConfig {
        metrics: metrics.clone(),
        drain_grace: Duration::from_secs(1),
        shards,
        ..RouterConfig::default()
    }) {
        Ok(router) => router,
        Err(e) => panic!("chaos suite could not bind a loopback port: {e}"),
    };
    let addr = router.local_addr().expect("bound router has an address");
    let drain = router.drain_handle();
    let join = thread::spawn(move || router.run());

    let load = LoadGenConfig {
        connections: config.serve_connections.max(1),
        requests_per_connection: config.serve_requests.max(1),
        num_items: instance.num_items,
        ..LoadGenConfig::default()
    };
    let hedges = metrics.counter("router/hedges");
    let rejected = metrics.counter("router/breaker_rejected");
    let routed = metrics.counter("router/requests");
    let mut p50s = Vec::new();
    let mut p99s = Vec::new();
    let mut rps = Vec::new();
    let mut hedge_rates = Vec::new();
    let mut reject_rates = Vec::new();
    let mut seen = (0u64, 0u64, 0u64);
    for i in 0..config.warmup + config.reps.max(1) {
        let outcome = loadgen::run(addr, &load).expect("loopback burst connects");
        let now = (hedges.get(), rejected.get(), routed.get());
        let (burst_hedges, burst_rejects, burst_requests) =
            (now.0 - seen.0, now.1 - seen.1, now.2 - seen.2);
        seen = now;
        if i < config.warmup {
            continue;
        }
        assert_eq!(
            outcome.errors + outcome.transport_errors,
            0,
            "the router must absorb every injected fault while a replica \
             per shard stays reachable (DESIGN.md §18)"
        );
        p50s.push(outcome.latency_quantile_s(0.5));
        p99s.push(outcome.latency_quantile_s(0.99));
        rps.push(outcome.throughput_rps());
        let per_request = |n: u64| {
            if burst_requests > 0 {
                n as f64 / burst_requests as f64
            } else {
                0.0
            }
        };
        hedge_rates.push(per_request(burst_hedges));
        reject_rates.push(per_request(burst_rejects));
    }
    // Router, then proxies, then backends: with the router (and its probe
    // loop) gone the proxies sever their pumps on stop, and the backends
    // drain with no client left to pin their workers.
    drain.drain();
    let _ = join.join().expect("router thread exits cleanly");
    for (stop, join) in proxies {
        stop.stop();
        join.join()
            .expect("proxy thread exits cleanly")
            .expect("proxy accept loop exits cleanly");
    }
    for (drain, join) in backends {
        drain.drain();
        let _ = join.join().expect("backend thread exits cleanly");
    }

    let requests = (load.connections * load.requests_per_connection) as f64;
    let fleet_detail = [
        ("requests_per_burst".to_owned(), requests),
        ("shards".to_owned(), SHARDS as f64),
        ("replicas_per_shard".to_owned(), REPLICAS as f64),
    ];
    for (name, sample) in [
        ("chaos/latency_p50", Sample::from_secs(p50s)),
        ("chaos/latency_p99", Sample::from_secs(p99s)),
    ] {
        let mut record = BenchRecord::from_sample(&sample, load.connections);
        record.detail.extend(fleet_detail.iter().cloned());
        report.benchmarks.insert(name.to_owned(), record);
    }

    let throughput = Sample::from_secs(rps);
    let record = BenchRecord {
        median: throughput.median_s(),
        mad: throughput.mad_s(),
        reps: throughput.reps(),
        threads: load.connections,
        unit: "req/s".to_owned(),
        detail: fleet_detail.iter().cloned().collect(),
    };
    report
        .benchmarks
        .insert("chaos/throughput".to_owned(), record);

    // Both rates sit in [0, 1] and lower is better: a rising hedge rate
    // means the fault mix is pushing more primaries past the p90 trigger,
    // and a rising reject rate means breakers are tripping on the injected
    // resets — either way the fleet is paying more to stay correct.
    for (name, values) in [
        ("chaos/hedge_rate", hedge_rates),
        ("chaos/breaker_reject_rate", reject_rates),
    ] {
        let rate = Sample::from_secs(values);
        let record = BenchRecord {
            median: rate.median_s(),
            mad: rate.mad_s(),
            reps: rate.reps(),
            threads: load.connections,
            unit: "ratio".to_owned(),
            detail: fleet_detail.iter().cloned().collect(),
        };
        report.benchmarks.insert(name.to_owned(), record);
    }
}

/// Runs the ann suite: builds the deterministic HNSW index over the tree's
/// category centroid embeddings, sweeps the `ef` search beam against a
/// once-computed exhaustive reference to record the recall-vs-latency
/// trade-off, then times exhaustive [`PointIndex::best_cover`] against the
/// narrow-then-rerank path ([`VectorIndex::candidates_for`] +
/// [`PointIndex::best_cover_among`]) over large multi-set queries. Whenever
/// the exhaustive winner lands in the candidate pool the two covers are
/// asserted identical, so the record pair is both the candidate-generation
/// speedup measurement and a standing differential check.
fn ann_suite(
    spec: MeasureSpec,
    instance: &Instance,
    tree: &oct_core::tree::CategoryTree,
    report: &mut BenchReport,
) {
    use oct_core::vector::{self, VectorConfig, VectorIndex};
    use oct_core::PointIndex;
    use oct_resilience::Budget;

    let vector_config = VectorConfig::default();
    let (sample, ann) = measure(spec, || VectorIndex::for_tree(tree, &vector_config));
    let n = ann.len();
    let mut record = BenchRecord::from_sample(&sample, 1);
    record.detail.insert("categories".to_owned(), n as f64);
    report.benchmarks.insert("ann/build".to_owned(), record);

    // One query per input set — the serving NAVIGATE shape. The exhaustive
    // reference is computed once outside the timed region (`ef >= n` takes
    // the exact-scan fallback), so each sweep point times only the
    // approximate searches.
    const K: usize = 10;
    let queries: Vec<Vec<f32>> = instance
        .sets
        .iter()
        .map(|s| vector::embed_items(s.items.as_slice(), vector_config.dim))
        .collect();
    let exact: Vec<Vec<u32>> = queries
        .iter()
        .map(|q| {
            ann.search(q, K, n.max(1))
                .into_iter()
                .map(|(id, _)| id)
                .collect()
        })
        .collect();
    for ef in [8usize, 64, 256] {
        let (sample, results) = measure(spec, || {
            queries
                .iter()
                .map(|q| ann.search(q, K, ef))
                .collect::<Vec<Vec<(u32, f32)>>>()
        });
        let mut hits = 0usize;
        let mut total = 0usize;
        for (approx, reference) in results.iter().zip(&exact) {
            total += reference.len();
            hits += approx
                .iter()
                .filter(|(id, _)| reference.contains(id))
                .count();
        }
        let recall = if total == 0 {
            1.0
        } else {
            hits as f64 / total as f64
        };
        if ef >= n {
            assert!(
                (recall - 1.0).abs() < f64::EPSILON,
                "a beam covering the whole index must have recall 1, got {recall}"
            );
        }
        let mut record = BenchRecord::from_sample(&sample, 1);
        record.detail.insert("recall".to_owned(), recall);
        record.detail.insert("k".to_owned(), K as f64);
        record
            .detail
            .insert("queries".to_owned(), queries.len() as f64);
        report
            .benchmarks
            .insert(format!("ann/search/ef{ef}"), record);
    }

    // Candidate generation: large queries (the union of WINDOW consecutive
    // input sets) through the exhaustive scan vs narrow-then-rerank with
    // the serving pool floor. Scored under a permissive cutoff variant —
    // the serving shape — so the queries actually cover and the equality
    // assertion below exercises real winners (under the instance's own 0.8
    // threshold a multi-set union never clears δ and every cover is None).
    const WINDOW: usize = 8;
    const POOL: usize = 32;
    let point = PointIndex::build(tree, instance.num_items);
    let budget = Budget::unlimited();
    let similarity = Similarity::jaccard_cutoff(0.1);
    let big_queries: Vec<Vec<u32>> = instance
        .sets
        .chunks(WINDOW)
        .map(|chunk| {
            let mut q: Vec<u32> = chunk
                .iter()
                .flat_map(|s| s.items.as_slice().iter().copied())
                .collect();
            q.sort_unstable();
            q.dedup();
            q
        })
        .collect();
    let ef = POOL.max(vector::DEFAULT_EF_SEARCH);

    let (sample, exhaustive) = measure(spec, || {
        big_queries
            .iter()
            .map(|q| point.best_cover(q, &similarity, &budget))
            .collect::<Vec<oct_core::PointCover>>()
    });
    let mut record = BenchRecord::from_sample(&sample, 1);
    record
        .detail
        .insert("queries".to_owned(), big_queries.len() as f64);
    record.detail.insert(
        "covered".to_owned(),
        exhaustive.iter().filter(|c| c.covered).count() as f64,
    );
    report
        .benchmarks
        .insert("ann/cover_exhaustive".to_owned(), record);

    let (sample, narrowed) = measure(spec, || {
        big_queries
            .iter()
            .map(|q| {
                let candidates = ann.candidates_for(q, POOL, ef);
                point.best_cover_among(q, &candidates, &similarity, &budget)
            })
            .collect::<Vec<oct_core::PointCover>>()
    });
    let mut pool_hits = 0usize;
    let mut pool_total = 0usize;
    for ((q, ex), nr) in big_queries.iter().zip(&exhaustive).zip(&narrowed) {
        let Some(winner) = ex.best_category else {
            continue;
        };
        pool_total += 1;
        if ann.candidates_for(q, POOL, ef).contains(&winner) {
            pool_hits += 1;
            assert_eq!(
                nr.best_category, ex.best_category,
                "narrow-then-rerank must agree with the exhaustive scan \
                 whenever the winner makes the candidate pool"
            );
            assert_eq!(nr.similarity.to_bits(), ex.similarity.to_bits());
            assert_eq!(nr.precision.to_bits(), ex.precision.to_bits());
        }
    }
    let mut record = BenchRecord::from_sample(&sample, 1);
    record
        .detail
        .insert("queries".to_owned(), big_queries.len() as f64);
    record.detail.insert("pool".to_owned(), POOL as f64);
    record.detail.insert(
        "winner_recall".to_owned(),
        if pool_total == 0 {
            1.0
        } else {
            pool_hits as f64 / pool_total as f64
        },
    );
    report
        .benchmarks
        .insert("ann/cover_narrowed".to_owned(), record);
}

/// One row of a baseline-vs-current diff.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaRow {
    /// Benchmark name.
    pub name: String,
    /// Baseline median (`None` for a benchmark new in `current`).
    pub baseline: Option<f64>,
    /// Current median (`None` for a benchmark that disappeared).
    pub current: Option<f64>,
    /// Unit of both medians.
    pub unit: String,
    /// Signed delta in percent of baseline (`0` when either side is
    /// missing or the baseline is zero).
    pub delta_pct: f64,
    /// `true` when the delta moves in the unit's "worse" direction beyond
    /// the noise margin.
    pub regressed: bool,
    /// `true` when `regressed` *and* the delta exceeds the gate threshold.
    pub gated: bool,
}

/// A full baseline-vs-current comparison.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Comparison {
    /// Per-benchmark rows, sorted by name.
    pub rows: Vec<DeltaRow>,
    /// Number of gated regressions (non-zero fails a `--gate` run).
    pub gated: usize,
}

/// Diffs `current` against `baseline`.
///
/// A benchmark counts as **regressed** only when its median moves in the
/// unit's worse direction (slower for `"s"`, fewer for `"req/s"`) by more
/// than a noise margin derived from both sides' MAD — plus generous
/// absolute and relative floors, so two runs of the same binary never trip
/// the gate on scheduler jitter. With `gate_pct = Some(g)` a regressed row
/// whose relative delta also exceeds `g` percent becomes **gated**; with
/// `None` the comparison is report-only and [`Comparison::gated`] stays 0.
pub fn compare(baseline: &BenchReport, current: &BenchReport, gate_pct: Option<f64>) -> Comparison {
    let mut names: Vec<&String> = baseline
        .benchmarks
        .keys()
        .chain(current.benchmarks.keys())
        .collect();
    names.sort_unstable();
    names.dedup();

    let mut comparison = Comparison::default();
    for name in names {
        let base = baseline.benchmarks.get(name);
        let cur = current.benchmarks.get(name);
        let mut row = DeltaRow {
            name: name.clone(),
            baseline: base.map(|r| r.median),
            current: cur.map(|r| r.median),
            unit: cur
                .or(base)
                .map_or_else(|| "s".to_owned(), |r| r.unit.clone()),
            delta_pct: 0.0,
            regressed: false,
            gated: false,
        };
        if let (Some(base), Some(cur)) = (base, cur) {
            if base.median > 0.0 {
                row.delta_pct = (cur.median - base.median) / base.median * 100.0;
            }
            let worse = if base.higher_is_better() {
                base.median - cur.median
            } else {
                cur.median - base.median
            };
            // Noise margin: several MADs from both runs, an absolute floor
            // (100 µs for timings), and a relative floor. Anything inside
            // is indistinguishable from jitter. Loopback throughput swings
            // far more than wall time between identical runs (a burst lasts
            // milliseconds, so one scheduler preemption moves the rate by
            // a third), hence the wider floor for higher-is-better units.
            let (abs_floor, rel_floor) = if base.higher_is_better() {
                (0.0, 0.35)
            } else {
                (100e-6, 0.10)
            };
            let noise = 4.0 * (base.mad + cur.mad) + abs_floor + rel_floor * base.median.abs();
            row.regressed = worse > noise;
            if let Some(gate) = gate_pct {
                let worse_pct = if base.median > 0.0 {
                    worse / base.median * 100.0
                } else {
                    0.0
                };
                row.gated = row.regressed && worse_pct > gate;
            }
        }
        if row.gated {
            comparison.gated += 1;
        }
        comparison.rows.push(row);
    }
    comparison
}

impl Comparison {
    /// Renders the delta table as aligned plain text.
    pub fn render(&self) -> String {
        let name_width = self
            .rows
            .iter()
            .map(|r| r.name.len())
            .max()
            .unwrap_or(9)
            .max("benchmark".len());
        let mut out = String::new();
        out.push_str(&format!(
            "{:<name_width$}  {:>12}  {:>12}  {:>8}  verdict\n",
            "benchmark", "baseline", "current", "delta"
        ));
        for row in &self.rows {
            let baseline = row
                .baseline
                .map_or_else(|| "-".to_owned(), |v| fmt_value(v, &row.unit));
            let current = row
                .current
                .map_or_else(|| "-".to_owned(), |v| fmt_value(v, &row.unit));
            let delta = match (row.baseline, row.current) {
                (Some(_), Some(_)) => format!("{:+.1}%", row.delta_pct),
                (None, Some(_)) => "new".to_owned(),
                (Some(_), None) => "gone".to_owned(),
                (None, None) => "-".to_owned(),
            };
            let verdict = if row.gated {
                "REGRESSED (gated)"
            } else if row.regressed {
                "regressed"
            } else {
                "ok"
            };
            out.push_str(&format!(
                "{:<name_width$}  {:>12}  {:>12}  {:>8}  {}\n",
                row.name, baseline, current, delta, verdict
            ));
        }
        out
    }
}

/// Formats a median for the delta table: adaptive s/ms/µs for timings,
/// plain for rates.
fn fmt_value(v: f64, unit: &str) -> String {
    if unit == "s" {
        if v >= 1.0 {
            format!("{v:.3} s")
        } else if v >= 1e-3 {
            format!("{:.3} ms", v * 1e3)
        } else {
            format!("{:.1} µs", v * 1e6)
        }
    } else {
        format!("{v:.1} {unit}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(median: f64, mad: f64, unit: &str) -> BenchRecord {
        BenchRecord {
            median,
            mad,
            reps: 5,
            threads: 1,
            unit: unit.to_owned(),
            detail: BTreeMap::new(),
        }
    }

    fn tiny_report() -> BenchReport {
        let mut report = BenchReport {
            schema_version: BENCH_SCHEMA_VERSION,
            git_rev: "abc123def456".to_owned(),
            scale: 0.05,
            env: env_fingerprint(),
            ..BenchReport::default()
        };
        let mut rec = record(0.012, 0.001, "s");
        rec.detail.insert("conflicts2".to_owned(), 42.0);
        report
            .benchmarks
            .insert("conflict/analyze/t1".to_owned(), rec);
        report
            .benchmarks
            .insert("serve/throughput".to_owned(), record(1800.0, 25.0, "req/s"));
        report
    }

    #[test]
    fn bench_report_roundtrips_through_json() {
        let mut report = tiny_report();
        let mut pipeline = PipelineReport::default();
        pipeline.counters.insert("conflict/pairs".to_owned(), 7);
        pipeline.degraded = false;
        report.pipeline = Some(pipeline);
        let text = report.to_json();
        let back = BenchReport::from_json(&text).expect("roundtrip");
        assert_eq!(back, report);
        assert_eq!(report.file_name(), "BENCH_abc123def456.json");
    }

    #[test]
    fn suites_coverage_detection() {
        let mut report = tiny_report();
        assert!(!report.covers_all_suites());
        for suite in SUITES {
            report
                .benchmarks
                .insert(format!("{suite}/x"), record(0.001, 0.0, "s"));
        }
        assert!(report.covers_all_suites());
        assert!(report.suites().contains(&"persist"));
    }

    #[test]
    fn identical_reports_never_gate() {
        let report = tiny_report();
        let comparison = compare(&report, &report, Some(5.0));
        assert_eq!(comparison.gated, 0);
        assert!(comparison.rows.iter().all(|r| !r.regressed));
        // Report-only mode never gates either, even on a real regression.
        let mut slower = report.clone();
        slower
            .benchmarks
            .get_mut("conflict/analyze/t1")
            .unwrap()
            .median = 1.0;
        let comparison = compare(&report, &slower, None);
        assert_eq!(comparison.gated, 0);
        assert!(comparison.rows.iter().any(|r| r.regressed));
    }

    #[test]
    fn gating_is_direction_and_noise_aware() {
        let mut base = BenchReport::default();
        base.benchmarks
            .insert("score/tree/t1".to_owned(), record(0.100, 0.001, "s"));
        base.benchmarks
            .insert("serve/throughput".to_owned(), record(1000.0, 5.0, "req/s"));

        // 50% slower timing → gated at a 20% gate.
        let mut slow = base.clone();
        slow.benchmarks.get_mut("score/tree/t1").unwrap().median = 0.150;
        let cmp = compare(&base, &slow, Some(20.0));
        assert_eq!(cmp.gated, 1, "{}", cmp.render());

        // 50% *faster* timing → improvement, not a regression.
        let mut fast = base.clone();
        fast.benchmarks.get_mut("score/tree/t1").unwrap().median = 0.050;
        let cmp = compare(&base, &fast, Some(20.0));
        assert_eq!(cmp.gated, 0);
        assert!(cmp.rows.iter().all(|r| !r.regressed));

        // Throughput is higher-is-better: halving it gates.
        let mut starved = base.clone();
        starved
            .benchmarks
            .get_mut("serve/throughput")
            .unwrap()
            .median = 500.0;
        let cmp = compare(&base, &starved, Some(20.0));
        assert_eq!(cmp.gated, 1);
        // Doubling it does not.
        let mut brisk = base.clone();
        brisk.benchmarks.get_mut("serve/throughput").unwrap().median = 2000.0;
        let cmp = compare(&base, &brisk, Some(20.0));
        assert_eq!(cmp.gated, 0);

        // A delta inside the noise margin (MAD + floors) never regresses,
        // even at a tiny gate.
        let mut jitter = base.clone();
        jitter.benchmarks.get_mut("score/tree/t1").unwrap().median = 0.105;
        let cmp = compare(&base, &jitter, Some(0.1));
        assert_eq!(cmp.gated, 0);
        assert!(cmp.rows.iter().all(|r| !r.regressed));
    }

    #[test]
    fn comparison_marks_new_and_gone_rows() {
        let base = tiny_report();
        let mut current = tiny_report();
        current.benchmarks.remove("serve/throughput");
        current
            .benchmarks
            .insert("mis/solve".to_owned(), record(0.002, 0.0, "s"));
        let cmp = compare(&base, &current, Some(10.0));
        assert_eq!(cmp.gated, 0);
        let table = cmp.render();
        assert!(table.contains("new"), "{table}");
        assert!(table.contains("gone"), "{table}");
    }

    #[test]
    fn forward_compat_ignores_unknown_and_defaults_optionals() {
        let text = r#"{
            "bench_schema_version": 1,
            "future_key": {"nested": true},
            "benchmarks": {
                "conflict/analyze/t1": {"median": 0.5, "future_field": "x"}
            }
        }"#;
        let report = BenchReport::from_json(text).expect("lenient parse");
        assert_eq!(report.git_rev, "unknown");
        assert_eq!(report.scale, 0.0);
        assert!(report.pipeline.is_none());
        let rec = &report.benchmarks["conflict/analyze/t1"];
        assert_eq!(rec.median, 0.5);
        assert_eq!(rec.mad, 0.0);
        assert_eq!(rec.reps, 1);
        assert_eq!(rec.unit, "s");
    }

    #[test]
    fn corrupt_bench_json_is_a_typed_error() {
        for bad in [
            "",
            "{",
            "[1, 2]",
            "{\"benchmarks\": {}}",                // missing version
            "{\"bench_schema_version\": \"one\"}", // wrong type
            "{\"bench_schema_version\": 1, \"benchmarks\": 3}",
            "{\"bench_schema_version\": 1, \"benchmarks\": {\"x\": {}}}", // no median
        ] {
            assert!(BenchReport::from_json(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn git_rev_discovery_reads_this_repository() {
        // The test runs inside the repo checkout, so discovery must find a
        // real (12-hex-char) revision, exercising HEAD → ref resolution.
        let rev = discover_git_rev();
        assert_ne!(rev, "unknown");
        assert_eq!(rev.len(), 12, "short rev, got {rev:?}");
        assert!(rev.chars().all(|c| c.is_ascii_hexdigit()), "{rev:?}");
    }

    #[test]
    fn env_fingerprint_is_complete() {
        let env = env_fingerprint();
        for key in ["os", "arch", "cpus", "profile"] {
            assert!(env.contains_key(key), "missing {key}");
        }
    }
}
