//! `perfbench` — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload build|stream|serve --seed N --seconds S
//!           --trace 0|1 --octree PATH --work DIR
//! ```
//!
//! Every layer is called only through its public functions. The last line
//! of standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`; the lines before it print every metric by name
//! with its unit. See `README.md` next to this file for the workloads and
//! the layer → metric → end-to-end map.

mod affinity;
mod build;
mod fixtures;
mod procfs;
mod serving;
mod stats;
mod stream;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

/// End-to-end metrics: every workload reports each of them, untraced.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("p50_ms", "ms"),
    ("cpu_us_per_op", "us"),
    ("tree_score", "score"),
];

/// Per-layer metrics of the traced run. A workload that does not exercise
/// a layer reports 0 for it.
pub const PER_LAYER: [(&str, &str); 66] = [
    // Run conditions.
    ("sched.nproc", "count"),
    ("sched.threads", "count"),
    ("sched.runqueue_wait_ms", "ms"),
    ("sched.involuntary_switches", "count"),
    ("op.count", "count"),
    ("op.tail_pct", "%"),
    ("op.tail_ms", "ms"),
    ("trace.overhead_pct", "%"),
    // build
    ("datagen.preprocess_ms", "ms"),
    ("conflict.analyze_ms", "ms"),
    ("conflict.pairs", "count"),
    ("conflict.conflicts", "count"),
    ("mis.solve_ms", "ms"),
    ("mis.nodes", "count"),
    ("mis.optimal", "ratio"),
    ("ctcr.run_ms", "ms"),
    ("ctcr.attempts", "count"),
    ("ctcr.assign_ms", "ms"),
    ("ctcr.intermediate_ms", "ms"),
    ("ctcr.repair_ms", "ms"),
    ("ctcr.condense_ms", "ms"),
    ("ctcr.unattributed_ms", "ms"),
    ("score.tree_ms", "ms"),
    ("cct.run_ms", "ms"),
    ("cct.embed_ms", "ms"),
    ("cluster.matrix_ms", "ms"),
    ("cluster.nn_chain_ms", "ms"),
    ("cct.assign_ms", "ms"),
    ("cct.unattributed_ms", "ms"),
    ("cct.score", "score"),
    // stream
    ("incr.batch_ms", "ms"),
    ("incr.classify_ms", "ms"),
    ("incr.mis_ms", "ms"),
    ("incr.assign_ms", "ms"),
    ("incr.score_ms", "ms"),
    ("incr.unattributed_ms", "ms"),
    ("incr.pair_cache_hit", "ratio"),
    ("incr.component_reuse", "ratio"),
    ("incr.rerun_ms", "ms"),
    // serve and route: load
    ("persist.decode_ms", "ms"),
    ("persist.bytes", "bytes"),
    ("point.index_build_ms", "ms"),
    ("vector.index_build_ms", "ms"),
    // serve and route: query
    ("point.cover_us", "us"),
    ("vector.candidates_us", "us"),
    ("point.rerank_us", "us"),
    ("protocol.parse_us", "us"),
    ("protocol.encode_us", "us"),
    ("serve.handle_p50_us", "us"),
    ("serve.unattributed_us", "us"),
    ("serve.shed", "count"),
    ("serve.retries", "count"),
    ("serve.reconnects", "count"),
    ("serve.conn_retired", "count"),
    ("loadgen.late_ms", "ms"),
    ("loadgen.rate_rps", "1/s"),
    // serve, routed path
    ("shard.partition_us", "us"),
    ("merge.covers_us", "us"),
    ("router.fanout", "count"),
    ("router.p50_us", "us"),
    ("router.backend_p50_us", "us"),
    ("router.overhead_us", "us"),
    ("router.cpu_us_per_req", "us"),
    ("router.retries", "count"),
    ("router.pool_stale", "count"),
    ("router.hedges", "count"),
];

/// Command-line options shared by every workload.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// The `octree` binary the serving workloads start as daemons.
    pub octree: PathBuf,
    /// Scratch directory for tree files and daemon reports.
    pub work: PathBuf,
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the measured phase.
    pub attempted: u64,
    /// Operations that produced no valid result.
    pub failed: u64,
    /// Correctness-check failures, one line each.
    pub mismatches: Vec<String>,
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Records one metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Records a correctness failure.
    pub fn mismatch(&mut self, what: String) {
        if self.mismatches.len() < 20 {
            eprintln!("perfbench: CHECK FAILED: {what}");
        }
        self.mismatches.push(what);
    }
}

fn parse_args() -> Result<(String, Opts), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
        flags.insert(name.to_owned(), value.clone());
    }
    let get = |name: &str| -> Result<&String, String> {
        flags
            .get(name)
            .ok_or_else(|| format!("--{name} is required"))
    };
    for name in flags.keys() {
        if !["workload", "seed", "seconds", "trace", "octree", "work"].contains(&name.as_str()) {
            return Err(format!("unknown flag --{name}"));
        }
    }
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|_| "bad --seconds".to_owned())?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_owned());
    }
    let opts = Opts {
        seed: get("seed")?.parse().map_err(|_| "bad --seed".to_owned())?,
        seconds,
        trace: match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("bad --trace {other:?} (0 or 1)")),
        },
        octree: PathBuf::from(get("octree")?),
        work: PathBuf::from(get("work")?),
    };
    Ok((get("workload")?.clone(), opts))
}

fn main() -> ExitCode {
    let (workload, opts) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
    let before = procfs::Interference::of(&[procfs::Proc::Myself]);
    let result = match workload.as_str() {
        "build" => Ok(build::run(&opts)),
        "stream" => Ok(stream::run(&opts)),
        "serve" => serving::run(&opts),
        other => Err(format!("unknown workload {other:?}")),
    };
    let mut outcome = match result {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    let disturbed = procfs::Interference::of(&[procfs::Proc::Myself]).since(before);
    let threads = procfs::threads(procfs::Proc::Myself);
    println!(
        "run: workload={workload} seed={} seconds={} trace={} nproc={nproc} threads={threads} \
         runqueue_wait_ms={:.1} involuntary_switches={}",
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        disturbed.runqueue_wait_ms,
        disturbed.involuntary_switches,
    );
    outcome.set("sched.nproc", nproc as f64);
    outcome.set("sched.threads", threads as f64);
    outcome.set("sched.runqueue_wait_ms", disturbed.runqueue_wait_ms);
    outcome.set(
        "sched.involuntary_switches",
        disturbed.involuntary_switches as f64,
    );

    let table: &[(&str, &str)] = if opts.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::new();
    for &(name, unit) in table {
        let value = match outcome.values.get(name) {
            Some(&v) if v.is_finite() => v,
            Some(_) => {
                outcome.mismatch(format!("metric {name} is not a finite number"));
                0.0
            }
            None if opts.trace => 0.0,
            None => {
                outcome.mismatch(format!("workload {workload} did not measure {name}"));
                0.0
            }
        };
        // Adding 0.0 turns the -0.0 of an empty float sum into 0.0.
        let value = value + 0.0;
        println!("{name:<28} {value:>16.6} {unit}");
        metrics.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        ));
    }
    if outcome.attempted == 0 {
        outcome.mismatch("no operation was attempted".to_owned());
    }
    let correct = outcome.mismatches.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(3)
    }
}

/// A finite `f64` as a JSON number with every digit Rust keeps.
fn json_number(v: f64) -> String {
    let s = format!("{v:?}");
    if s.contains('e') {
        format!("{v}")
    } else {
        s
    }
}
