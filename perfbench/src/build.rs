//! `build`: CTCR and CCT built from scratch over datasets A and B (the
//! paper's Fig. 8f). One operation is one construction: `ctcr::run` then
//! `cct::run` on the same instance, both with library defaults.

use std::time::Instant;

use oct_core::prelude::*;
use oct_core::score::score_tree_reference;
use oct_datagen::datasets::DatasetName;
use oct_obs::{Metrics, PipelineReport};

use crate::fixtures::Dataset;
use crate::procfs::{self, Proc};
use crate::stats::{self, median};
use crate::{Opts, Outcome};

/// Datasets and scales. Both are large enough that repair dominates CTCR,
/// as it does in `octree build` on exported logs.
const DATASETS: [(DatasetName, f64); 2] = [(DatasetName::A, 0.5), (DatasetName::B, 0.2)];
/// Untimed preprocessing runs per dataset before any is timed: the first
/// runs of a process are slower while the allocator and caches warm.
const SETUP_WARMUP: usize = 2;
/// Untimed constructions per instance before timing starts, after the
/// checked first one: the first few builds of a process run slower while
/// the allocator and caches warm.
const WARMUP: usize = 2;

/// One instance with the trees its first construction produced, which every
/// later construction must reproduce byte for byte.
struct Subject {
    name: &'static str,
    instance: Instance,
    ctcr_tree: Vec<u8>,
    cct_tree: Vec<u8>,
    ctcr_score: f64,
    cct_score: f64,
}

/// Wall times of one construction, with the span reports when traced.
struct Construction {
    ctcr_ms: f64,
    cct_ms: f64,
    /// CTCR and CCT span reports, and whether the MIS solve was optimal.
    traced: Option<(PipelineReport, PipelineReport, bool)>,
}

fn construct(subject: &Subject, traced: bool, outcome: &mut Outcome) -> Construction {
    let ctcr_metrics = Metrics::new(traced);
    let cct_metrics = Metrics::new(traced);
    let ctcr_config = CtcrConfig {
        metrics: ctcr_metrics.clone(),
        ..CtcrConfig::default()
    };
    let cct_config = CctConfig {
        metrics: cct_metrics.clone(),
        ..CctConfig::default()
    };
    let started = Instant::now();
    let ctcr = ctcr::run(std::hint::black_box(&subject.instance), &ctcr_config);
    let ctcr_ms = started.elapsed().as_secs_f64() * 1e3;
    let started = Instant::now();
    let cct = cct::run(std::hint::black_box(&subject.instance), &cct_config);
    let cct_ms = started.elapsed().as_secs_f64() * 1e3;
    let same_ctcr = persist::encode_tree(&ctcr.tree)[..] == subject.ctcr_tree[..];
    let same_cct = persist::encode_tree(&cct.tree)[..] == subject.cct_tree[..];
    if !(same_ctcr && same_cct) {
        outcome.failed += 1;
        outcome.mismatch(format!(
            "{}: tree differs from the first build (CTCR same: {same_ctcr}, CCT same: {same_cct})",
            subject.name
        ));
    }
    Construction {
        ctcr_ms,
        cct_ms,
        traced: traced.then(|| {
            (
                ctcr_metrics.report(),
                cct_metrics.report(),
                ctcr.stats.mis_optimal,
            )
        }),
    }
}

/// Builds both trees once and checks them: `validate` passes and the
/// production score equals the reference scorer's bit for bit.
fn check_first_build(name: &'static str, instance: Instance, outcome: &mut Outcome) -> Subject {
    let ctcr = ctcr::run(&instance, &CtcrConfig::default());
    let cct = cct::run(&instance, &CctConfig::default());
    for (algo, tree, score) in [
        ("CTCR", &ctcr.tree, &ctcr.score),
        ("CCT", &cct.tree, &cct.score),
    ] {
        if let Err(e) = tree.validate(&instance) {
            outcome.mismatch(format!("{name}: {algo} tree fails validate: {e:?}"));
        }
        let reference = score_tree_reference(&instance, tree);
        if reference.total.to_bits() != score.total.to_bits()
            || reference.normalized.to_bits() != score.normalized.to_bits()
        {
            outcome.mismatch(format!(
                "{name}: {algo} score {} != reference {}",
                score.total, reference.total
            ));
        }
    }
    Subject {
        name,
        ctcr_tree: persist::encode_tree(&ctcr.tree).to_vec(),
        cct_tree: persist::encode_tree(&cct.tree).to_vec(),
        ctcr_score: ctcr.score.normalized,
        cct_score: cct.score.normalized,
        instance,
    }
}

pub fn run(opts: &Opts) -> Outcome {
    let mut outcome = Outcome::default();
    let similarity = Similarity::jaccard_threshold(0.8);
    let datasets: Vec<Dataset> = DATASETS
        .iter()
        .map(|&(name, scale)| Dataset::generate(name, scale, opts.seed).shuffled(opts.seed))
        .collect();

    // Set-up is turning each log into an instance. Its timed runs are
    // spread through the measured phase, one per log per pass, because the
    // machine's speed moves from second to second: samples taken in one
    // burst at the start would all share one moment's speed.
    let subjects: Vec<Subject> = datasets
        .iter()
        .map(|dataset| {
            // The last untimed run gives the instance every construction uses.
            for _ in 1..SETUP_WARMUP {
                std::hint::black_box(dataset.instance(similarity));
            }
            check_first_build(dataset.name, dataset.instance(similarity), &mut outcome)
        })
        .collect();
    for subject in &subjects {
        for _ in 0..WARMUP {
            construct(subject, false, &mut outcome);
        }
    }

    // Measured phase: round robin over the instances. A traced run
    // alternates untraced and traced passes, so both see the same
    // machine conditions and their difference is the tracing overhead.
    let mut plain: Vec<Vec<Construction>> = subjects.iter().map(|_| Vec::new()).collect();
    let mut traced: Vec<Vec<Construction>> = subjects.iter().map(|_| Vec::new()).collect();
    let mut setup: Vec<Vec<f64>> = subjects.iter().map(|_| Vec::new()).collect();
    let mut cpu_setup = 0.0;
    let cpu_before = procfs::CpuTime::of(Proc::Myself);
    let started = Instant::now();
    let mut pass = 0usize;
    while started.elapsed().as_secs_f64() < opts.seconds || pass < 2 {
        let trace_pass = opts.trace && pass % 2 == 1;
        for (i, subject) in subjects.iter().enumerate() {
            let cpu = procfs::CpuTime::of(Proc::Myself);
            let t = Instant::now();
            let instance = datasets[i].instance(similarity);
            setup[i].push(t.elapsed().as_secs_f64());
            if instance.num_sets() != subject.instance.num_sets() {
                outcome.mismatch(format!("{}: preprocessing is not repeatable", subject.name));
            }
            drop(instance);
            cpu_setup += procfs::CpuTime::of(Proc::Myself).since(cpu);
            let c = construct(subject, trace_pass, &mut outcome);
            outcome.attempted += 1;
            if trace_pass {
                traced[i].push(c);
            } else {
                plain[i].push(c);
            }
        }
        pass += 1;
    }
    let cpu_s = procfs::CpuTime::of(Proc::Myself).since(cpu_before) - cpu_setup;
    let preprocess_ms: Vec<f64> = setup.iter().map(|t| median(t) * 1e3).collect();
    let setup_s = preprocess_ms.iter().sum::<f64>() / 1e3;

    let total_ms = |c: &Construction| c.ctcr_ms + c.cct_ms;
    let per_instance_median = |runs: &[Vec<Construction>]| -> f64 {
        let medians: Vec<f64> = runs
            .iter()
            .map(|r| median(&r.iter().map(total_ms).collect::<Vec<_>>()))
            .collect();
        medians.iter().sum::<f64>() / medians.len() as f64
    };
    outcome.set("setup_s", setup_s);
    outcome.set("peak_rss_mb", procfs::peak_rss_mb(Proc::Myself));
    outcome.set("p50_ms", per_instance_median(&plain));
    outcome.set("cpu_us_per_op", cpu_s * 1e6 / outcome.attempted as f64);
    outcome.set(
        "tree_score",
        subjects.iter().map(|s| s.ctcr_score).sum::<f64>() / subjects.len() as f64,
    );
    for (s, runs) in subjects.iter().zip(&plain) {
        let times: Vec<String> = runs.iter().map(|c| format!("{:.0}", total_ms(c))).collect();
        println!(
            "instance {}: sets={} ctcr_score={:.6} cct_score={:.6} builds_ms=[{}]",
            s.name,
            s.instance.num_sets(),
            s.ctcr_score,
            s.cct_score,
            times.join(" ")
        );
    }

    if opts.trace {
        trace_metrics(&subjects, &plain, &traced, &preprocess_ms, &mut outcome);
    }
    outcome
}

/// Per-layer attribution from the traced passes: each stage's mean time
/// per construction, and what the stages leave of the benchmark's own
/// wall-clock span around the public call.
fn trace_metrics(
    subjects: &[Subject],
    plain: &[Vec<Construction>],
    traced: &[Vec<Construction>],
    preprocess_ms: &[f64],
    outcome: &mut Outcome,
) {
    let all: Vec<&Construction> = traced.iter().flatten().collect();
    let n = all.len().max(1) as f64;
    let mean =
        |f: &dyn Fn(&Construction) -> f64| -> f64 { all.iter().map(|c| f(c)).sum::<f64>() / n };
    let span_ms = |r: &PipelineReport, path: &str| r.span_secs(path) * 1e3;
    let counter = |r: &PipelineReport, name: &str| r.counter(name).unwrap_or(0) as f64;
    let ctcr_span =
        |c: &Construction, path: &str| c.traced.as_ref().map_or(0.0, |t| span_ms(&t.0, path));
    let cct_span =
        |c: &Construction, path: &str| c.traced.as_ref().map_or(0.0, |t| span_ms(&t.1, path));

    let ctcr_ms = mean(&|c| c.ctcr_ms);
    let cct_ms = mean(&|c| c.cct_ms);
    let ctcr_stage = |path: &'static str| mean(&move |c| ctcr_span(c, path));
    let cct_stage = |path: &'static str| mean(&move |c| cct_span(c, path));
    let conflict = ctcr_stage("ctcr/conflict");
    let mis = ctcr_stage("ctcr/mis");
    let assign = ctcr_stage("ctcr/assign");
    let intermediate = ctcr_stage("ctcr/intermediate");
    let repair = ctcr_stage("ctcr/repair");
    let condense = ctcr_stage("ctcr/condense");
    let score = ctcr_stage("ctcr/score");
    let embed = cct_stage("cct/cluster/embed");
    let matrix = cct_stage("matrix/build");
    let nn_chain = cct_stage("cluster/nn_chain");
    let cct_assign = cct_stage("cct/assign");

    outcome.set("op.count", all.len() as f64);
    outcome.set("datagen.preprocess_ms", preprocess_ms.iter().sum());
    outcome.set("conflict.analyze_ms", conflict);
    outcome.set(
        "conflict.pairs",
        mean(&|c| {
            c.traced
                .as_ref()
                .map_or(0.0, |t| counter(&t.0, "conflict/intersecting_pairs"))
        }),
    );
    outcome.set(
        "conflict.conflicts",
        mean(&|c| {
            c.traced.as_ref().map_or(0.0, |t| {
                counter(&t.0, "conflict/conflicts2") + counter(&t.0, "conflict/conflicts3")
            })
        }),
    );
    outcome.set("mis.solve_ms", mis);
    outcome.set(
        "mis.nodes",
        mean(&|c| {
            c.traced
                .as_ref()
                .map_or(0.0, |t| counter(&t.0, "mis/nodes_explored"))
        }),
    );
    outcome.set(
        "mis.optimal",
        mean(&|c| c.traced.as_ref().map_or(0.0, |t| f64::from(u8::from(t.2)))),
    );
    outcome.set("ctcr.run_ms", ctcr_ms);
    outcome.set(
        "ctcr.attempts",
        mean(&|c| {
            c.traced
                .as_ref()
                .map_or(0.0, |t| counter(&t.0, "ctcr/attempts"))
        }),
    );
    outcome.set("ctcr.assign_ms", assign);
    outcome.set("ctcr.intermediate_ms", intermediate);
    outcome.set("ctcr.repair_ms", repair);
    outcome.set("ctcr.condense_ms", condense);
    outcome.set("score.tree_ms", score);
    outcome.set(
        "ctcr.unattributed_ms",
        stats::unattributed(
            ctcr_ms,
            &[conflict, mis, assign, intermediate, repair, condense, score],
        ),
    );
    outcome.set("cct.run_ms", cct_ms);
    outcome.set("cct.embed_ms", embed);
    outcome.set("cluster.matrix_ms", matrix);
    outcome.set("cluster.nn_chain_ms", nn_chain);
    outcome.set("cct.assign_ms", cct_assign);
    outcome.set(
        "cct.unattributed_ms",
        stats::unattributed(cct_ms, &[embed, matrix, nn_chain, cct_assign]),
    );
    outcome.set(
        "cct.score",
        subjects.iter().map(|s| s.cct_score).sum::<f64>() / subjects.len() as f64,
    );

    // Tail and overhead over the same operations: untraced constructions
    // against the traced ones interleaved with them.
    let plain_all: Vec<f64> = plain
        .iter()
        .flatten()
        .map(|c| c.ctcr_ms + c.cct_ms)
        .collect();
    let traced_all: Vec<f64> = all.iter().map(|c| c.ctcr_ms + c.cct_ms).collect();
    if let Some(p) = stats::tail_percentile(plain_all.len()) {
        outcome.set("op.tail_pct", p);
        outcome.set("op.tail_ms", stats::quantile(&plain_all, p / 100.0));
    }
    let mean_of = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    outcome.set(
        "trace.overhead_pct",
        stats::overhead_pct(mean_of(&plain_all), mean_of(&traced_all)),
    );
}
