//! `stream`: the `watch` path. Seeded delta feeds over dataset A run
//! through `StreamEngine` with the Exact variant and repair off, as the
//! repository's `incr` suite does. One operation is one
//! `StreamEngine::apply_batch` on a warm engine.
//!
//! Here pair classification and component MIS carry the work; repair,
//! 3-conflicts and intermediate categories do none. A repair change should
//! show no change on this workload; a conflict or MIS change should.

use std::time::Instant;

use oct_core::incremental::{DeltaBatch, StreamConfig, StreamEngine, StreamError};
use oct_core::prelude::*;
use oct_datagen::datasets::DatasetName;
use oct_datagen::queries::QueryLog;
use oct_datagen::trends::{delta_batches, windowed, DeltaFeedConfig, RecencyScheme, WindowedLog};
use oct_obs::Metrics;

use crate::fixtures::{permute, Dataset};
use crate::procfs::{self, Proc};
use crate::stats::{self, median};
use crate::{Opts, Outcome};

/// Dataset A at this scale feeds the stream.
const SCALE: f64 = 0.5;
/// Days per windowed log; each batch reveals one more day.
const DAYS: usize = 60;
/// Windowing seeds, one feed each; the run cycles through them. They are
/// fixed: which queries spike or fade changes the stream's work and tree
/// score, while the run seed relabels the log underneath (see `fixtures`).
/// One cycle is 118 timed batches.
const FEED_SEEDS: [u64; 2] = [1, 2];
/// Untimed cold first batches per feed before any is timed: the first
/// builds of a process run slower while the allocator and caches warm.
const SETUP_WARMUP: usize = 2;
/// Inside a feed, every this many batches one more cold first batch is
/// timed for `setup_s` on a fresh engine: with the feed's own first batch,
/// five per feed per cycle.
const SETUP_EVERY: usize = 12;

/// Stage times of one traced batch.
struct TracedBatch {
    total_ms: f64,
    stages: [f64; 4],
    cached: f64,
    reclassified: f64,
    reused: f64,
    components: f64,
}

fn config(num_items: u32, metrics: Metrics) -> StreamConfig {
    StreamConfig {
        repair: false,
        metrics,
        ..StreamConfig::new(num_items, Similarity::exact())
    }
}

/// A fresh engine with `first` applied, and the seconds `apply_batch` took.
fn cold_start(
    first: &DeltaBatch,
    config: StreamConfig,
) -> Result<(StreamEngine, f64), StreamError> {
    let mut engine = StreamEngine::new(config);
    let started = Instant::now();
    engine.apply_batch(first)?;
    Ok((engine, started.elapsed().as_secs_f64()))
}

pub fn run(opts: &Opts) -> Outcome {
    let mut outcome = Outcome::default();
    let dataset = Dataset::generate(DatasetName::A, SCALE, opts.seed);
    let order = dataset.query_order(opts.seed);
    let feeds: Vec<Vec<DeltaBatch>> = FEED_SEEDS
        .iter()
        .map(|&seed| {
            let window = windowed(&dataset.log, DAYS, 0.2, seed);
            let window = WindowedLog {
                log: QueryLog {
                    queries: permute(&window.log.queries, &order),
                },
                counts: permute(&window.counts, &order),
            };
            let feed = DeltaFeedConfig {
                batches: DAYS,
                scheme: RecencyScheme::RecentWindow { days: 14 },
                ..DeltaFeedConfig::default()
            };
            delta_batches(&window, &feed).expect("the feed config is valid")
        })
        .collect();
    let num_items = dataset.num_items;

    // Set-up is the first batch of a feed, applied to an empty engine. Its
    // timed samples are spread through the measured phase, because the
    // machine's speed moves from second to second: samples taken in one
    // burst would all share one moment's speed. The feeds' first batches
    // differ in cost, so each feed gets its own median and `setup_s` is
    // their sum, as `build` sums its datasets.
    for feed in &feeds {
        for _ in 0..SETUP_WARMUP {
            if let Err(e) = cold_start(&feed[0], config(num_items, Metrics::disabled())) {
                outcome.mismatch(format!("first batch rejected: {e}"));
            }
        }
    }
    let mut setup: Vec<Vec<f64>> = feeds.iter().map(|_| Vec::new()).collect();

    // Measured phase: whole cycles over the feeds, on warm engines, as
    // many as fit in the time (at least one); whole cycles keep the mix of
    // batches the same in every run. A traced run alternates whole feeds
    // between untraced engines (`Metrics::disabled()`) and traced ones,
    // swapping the two every cycle, and runs an even number of cycles:
    // both see the same batches equally often, interleaved in time.
    let mut plain_ms = Vec::new();
    let mut traced = Vec::new();
    let mut scores = Vec::new();
    let mut rerun_ms = Vec::new();
    let cpu_before = procfs::CpuTime::of(Proc::Myself);
    let mut cpu_cold = 0.0;
    let started = Instant::now();
    let mut cycles = 0;
    let min_cycles = if opts.trace { 2 } else { 1 };
    let mut cycle_s = 0.0;
    while cycles < min_cycles
        || started.elapsed().as_secs_f64() + cycle_s <= opts.seconds
        || (opts.trace && cycles % 2 == 1)
    {
        let cycle_started = Instant::now();
        for (f, feed) in feeds.iter().enumerate() {
            let traced_feed = opts.trace && (cycles + f) % 2 == 1;
            let metrics = Metrics::new(traced_feed);
            let cold_cpu = procfs::CpuTime::of(Proc::Myself);
            let mut engine = match cold_start(&feed[0], config(num_items, metrics.clone())) {
                Ok((engine, secs)) => {
                    setup[f].push(secs);
                    engine
                }
                Err(e) => {
                    outcome.mismatch(format!("first batch rejected: {e}"));
                    continue;
                }
            };
            cpu_cold += procfs::CpuTime::of(Proc::Myself).since(cold_cpu);
            let mut last = None;
            for (i, batch) in feed.iter().enumerate().skip(1) {
                if i % SETUP_EVERY == 0 {
                    let cold_cpu = procfs::CpuTime::of(Proc::Myself);
                    match cold_start(&feed[0], config(num_items, Metrics::disabled())) {
                        Ok((_, secs)) => setup[f].push(secs),
                        Err(e) => outcome.mismatch(format!("first batch rejected: {e}")),
                    }
                    cpu_cold += procfs::CpuTime::of(Proc::Myself).since(cold_cpu);
                }
                let before = traced_feed.then(|| metrics.report());
                let t = Instant::now();
                let result = engine.apply_batch(std::hint::black_box(batch));
                let ms = t.elapsed().as_secs_f64() * 1e3;
                outcome.attempted += 1;
                let applied = match result {
                    Ok(applied) => applied,
                    Err(e) => {
                        outcome.failed += 1;
                        outcome.mismatch(format!("batch {i} rejected: {e}"));
                        continue;
                    }
                };
                if cycles == 0 {
                    scores.push(applied.score.normalized);
                }
                if let Some(before) = before {
                    let after = metrics.report();
                    let span = |p: &str| (after.span_secs(p) - before.span_secs(p)) * 1e3;
                    let s = &applied.stats;
                    traced.push(TracedBatch {
                        total_ms: ms,
                        stages: [
                            span("incr/classify"),
                            span("incr/mis"),
                            span("incr/assign"),
                            span("incr/score"),
                        ],
                        cached: s.cached_pairs as f64,
                        reclassified: s.reclassified_pairs as f64,
                        reused: s.reused_components as f64,
                        components: s.components as f64,
                    });
                } else {
                    plain_ms.push(ms);
                }
                last = Some(applied);
            }
            // Differential check: the incrementally maintained tree is
            // byte-identical to a cold rerun of the same state.
            if let Some(last) = last {
                let cpu = procfs::CpuTime::of(Proc::Myself);
                let t = Instant::now();
                let rerun = engine.batch_rerun();
                rerun_ms.push(t.elapsed().as_secs_f64() * 1e3);
                cpu_cold += procfs::CpuTime::of(Proc::Myself).since(cpu);
                if persist::encode_tree(&last.tree)[..] != persist::encode_tree(&rerun.tree)[..] {
                    outcome.failed += 1;
                    outcome.mismatch(format!(
                        "batch {}: incremental tree differs from batch_rerun",
                        last.applied_batches
                    ));
                }
                if let Err(e) = last.tree.validate(&engine.instance()) {
                    outcome.mismatch(format!("stream tree fails validate: {e:?}"));
                }
            }
        }
        cycles += 1;
        cycle_s = cycle_started.elapsed().as_secs_f64();
    }
    let cpu_s = procfs::CpuTime::of(Proc::Myself).since(cpu_before) - cpu_cold;

    outcome.set("setup_s", setup.iter().map(|t| median(t)).sum());
    outcome.set("peak_rss_mb", procfs::peak_rss_mb(Proc::Myself));
    outcome.set("p50_ms", median(&plain_ms));
    outcome.set(
        "cpu_us_per_op",
        cpu_s * 1e6 / outcome.attempted.max(1) as f64,
    );
    outcome.set(
        "tree_score",
        scores.iter().sum::<f64>() / scores.len().max(1) as f64,
    );
    println!("stream: batches={} cycles={cycles}", outcome.attempted);

    if opts.trace {
        let n = traced.len().max(1) as f64;
        let mean = |f: &dyn Fn(&TracedBatch) -> f64| traced.iter().map(f).sum::<f64>() / n;
        let total = mean(&|b| b.total_ms);
        let stages: Vec<f64> = (0..4).map(|k| mean(&move |b| b.stages[k])).collect();
        outcome.set("op.count", (plain_ms.len() + traced.len()) as f64);
        outcome.set("incr.batch_ms", total);
        outcome.set("incr.classify_ms", stages[0]);
        outcome.set("incr.mis_ms", stages[1]);
        outcome.set("incr.assign_ms", stages[2]);
        outcome.set("incr.score_ms", stages[3]);
        outcome.set("score.tree_ms", stages[3]);
        outcome.set("incr.unattributed_ms", stats::unattributed(total, &stages));
        let sum = |f: &dyn Fn(&TracedBatch) -> f64| traced.iter().map(f).sum::<f64>();
        let cached = sum(&|b| b.cached);
        outcome.set(
            "incr.pair_cache_hit",
            stats::ratio(cached, cached + sum(&|b| b.reclassified)),
        );
        outcome.set(
            "incr.component_reuse",
            stats::ratio(sum(&|b| b.reused), sum(&|b| b.components)),
        );
        outcome.set("incr.rerun_ms", median(&rerun_ms));
        if let Some(p) = stats::tail_percentile(plain_ms.len()) {
            outcome.set("op.tail_pct", p);
            outcome.set("op.tail_ms", stats::quantile(&plain_ms, p / 100.0));
        }
        let traced_ms: Vec<f64> = traced.iter().map(|b| b.total_ms).collect();
        let mean_of = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        outcome.set(
            "trace.overhead_pct",
            stats::overhead_pct(mean_of(&plain_ms), mean_of(&traced_ms)),
        );
    }
    outcome
}
