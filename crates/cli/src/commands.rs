//! Command implementations for `octree`.

use std::fs;

use oct_core::ctcr::CtcrConfig;
use oct_core::input::{InputSet, Instance};
use oct_core::itemset::ItemSet;
use oct_core::labeling;
use oct_core::navigation;
use oct_core::persist;
use oct_core::score::{try_score_tree_with, ScoreOptions};
use oct_core::similarity::Similarity;
use oct_core::tree::{CategoryTree, ROOT};
use oct_core::workflow;
use oct_datagen::loader;
use oct_datagen::preprocess::{merge_similar, relevance_threshold};
use oct_datagen::queries::QueryLog;
use oct_datagen::{generate, DatasetName};
use oct_obs::Metrics;
use oct_resilience::Budget;

use crate::args::Command;

/// Prints a line to stdout; on a broken pipe (e.g. `octree ... | head`)
/// the process exits quietly with success instead of panicking.
macro_rules! out {
    ($($arg:tt)*) => {{
        use std::io::Write;
        let mut stdout = std::io::stdout().lock();
        if writeln!(stdout, $($arg)*).is_err() {
            std::process::exit(0);
        }
    }};
}

/// Executes a parsed command.
pub fn run(command: Command) -> Result<(), String> {
    match command {
        Command::Build {
            log,
            items,
            similarity,
            out,
            no_merge,
            min_frequency,
            labels,
            metrics,
            threads,
            deadline_ms,
            rounds,
            checkpoint_dir,
            resume,
        } => build(BuildArgs {
            log_path: &log,
            items,
            similarity,
            out: out.as_deref(),
            no_merge,
            min_frequency,
            labels,
            metrics_out: metrics.as_deref(),
            threads,
            deadline_ms,
            rounds,
            checkpoint_dir: checkpoint_dir.as_deref(),
            resume,
        }),
        Command::Score {
            tree,
            log,
            items,
            similarity,
            threads,
            deadline_ms,
        } => score(&tree, &log, items, similarity, threads, deadline_ms),
        Command::Inspect { tree, depth } => inspect(&tree, depth),
        Command::Export {
            dataset,
            scale,
            out,
        } => export(&dataset, scale, out.as_deref()),
        Command::Dot { tree, depth, out } => dot(&tree, depth, out.as_deref()),
        Command::Diff {
            tree,
            against,
            items,
        } => diff(&tree, &against, items),
        Command::Serve {
            tree,
            addr,
            workers,
            queue,
            similarity,
            deadline_ms,
            metrics,
        } => serve(ServeArgs {
            tree_path: &tree,
            addr,
            workers,
            queue,
            similarity,
            deadline_ms,
            metrics_out: metrics.as_deref(),
        }),
        Command::Query { addr, send } => query(&addr, &send),
        Command::Index {
            tree,
            out,
            dim,
            m,
            ef_construction,
            seed,
        } => index(&tree, out.as_deref(), dim, m, ef_construction, seed),
        Command::Navigate {
            items,
            k,
            ef,
            addr,
            tree,
            similarity,
        } => navigate(&items, k, ef, addr.as_deref(), tree.as_deref(), similarity),
        Command::Router {
            addr,
            shards,
            workers,
            queue,
            attempt_ms,
            deadline_ms,
            metrics,
        } => router(RouterArgs {
            addr,
            shards,
            workers,
            queue,
            attempt_ms,
            deadline_ms,
            metrics_out: metrics.as_deref(),
        }),
        Command::Chaos {
            routes,
            seed,
            profile,
            blackhole,
            print_plan,
            plan_only,
        } => chaos(ChaosArgs {
            routes,
            seed,
            profile,
            blackhole,
            print_plan,
            plan_only,
        }),
        Command::Loadgen {
            addr,
            items,
            connections,
            requests,
            rps,
            zipf,
            seed,
        } => loadgen(LoadgenArgs {
            addr: &addr,
            items,
            connections,
            requests,
            rps,
            zipf,
            seed,
        }),
        Command::Watch {
            log,
            items,
            similarity,
            days,
            batches,
            spike_fraction,
            seed,
            recent_days,
            min_weight,
            out,
            addr,
            checkpoint,
            resume,
            metrics,
            threads,
        } => watch(WatchArgs {
            log_path: &log,
            items,
            similarity,
            days,
            batches,
            spike_fraction,
            seed,
            recent_days,
            min_weight,
            out: out.as_deref(),
            addr: addr.as_deref(),
            checkpoint: checkpoint.as_deref(),
            resume,
            metrics_out: metrics.as_deref(),
            threads,
        }),
    }
}

/// Everything `watch` needs, bundled like [`BuildArgs`].
struct WatchArgs<'a> {
    log_path: &'a str,
    items: u32,
    similarity: Similarity,
    days: usize,
    batches: usize,
    spike_fraction: f64,
    seed: u64,
    recent_days: usize,
    min_weight: f64,
    out: Option<&'a str>,
    addr: Option<&'a str>,
    checkpoint: Option<&'a str>,
    resume: bool,
    metrics_out: Option<&'a str>,
    threads: usize,
}

fn watch(args: WatchArgs) -> Result<(), String> {
    use oct_core::incremental::{StreamConfig, StreamEngine};
    use oct_datagen::trends::{delta_batches, windowed, DeltaFeedConfig, RecencyScheme};

    let log = read_log(args.log_path)?;
    // The feed is a pure function of (log, flags): a resumed process with
    // the same flags regenerates the identical batches and replays from
    // where the checkpoint left off.
    let window = windowed(&log, args.days, args.spike_fraction, args.seed);
    let feed = DeltaFeedConfig {
        batches: args.batches,
        scheme: RecencyScheme::RecentWindow {
            days: args.recent_days,
        },
        min_weight: args.min_weight,
        relevance: relevance_threshold(args.similarity.kind),
        ..DeltaFeedConfig::default()
    };
    let stream = delta_batches(&window, &feed).map_err(|e| format!("delta feed: {e}"))?;
    let metrics = Metrics::new(args.metrics_out.is_some());
    let mut config = StreamConfig {
        checkpoint: args.checkpoint.map(std::path::PathBuf::from),
        metrics: metrics.clone(),
        ..StreamConfig::new(args.items, args.similarity)
    };
    if args.threads >= 1 {
        config.threads = args.threads;
    }
    let mut engine = if args.resume {
        let (engine, restored) =
            StreamEngine::resume(config).map_err(|e| format!("cannot resume: {e}"))?;
        match restored {
            Some(outcome) => out!(
                "resumed at batch {} ({} live sets, score {:.3})",
                outcome.applied_batches,
                outcome.stats.live_sets,
                outcome.score.normalized,
            ),
            None => out!("no checkpoint found — starting fresh"),
        }
        engine
    } else {
        StreamEngine::new(config)
    };
    let skip = engine.applied_batches() as usize;
    if skip >= stream.len() {
        out!(
            "all {} batches already applied; nothing to do",
            stream.len()
        );
        if let Some(path) = args.metrics_out {
            let report = metrics.report();
            fs::write(path, report.to_json()).map_err(|e| format!("cannot write {path}: {e}"))?;
        }
        return Ok(());
    }
    out!(
        "streaming {} queries over {} days as {} delta batches ({} {:.2})",
        log.queries.len(),
        args.days,
        stream.len(),
        args.similarity.kind.name(),
        args.similarity.delta,
    );
    for (i, batch) in stream.iter().enumerate().skip(skip) {
        let outcome = engine
            .apply_batch(batch)
            .map_err(|e| format!("batch {}: {e}", i + 1))?;
        let s = outcome.stats;
        out!(
            "batch {:>3}/{}: +{} -{} | {} live, {} selected | pairs {} fresh / {} cached | \
             components {} ({} reused) | score {:.3}",
            i + 1,
            stream.len(),
            s.upserts,
            s.retires,
            s.live_sets,
            s.selected,
            s.reclassified_pairs,
            s.cached_pairs,
            s.components,
            s.reused_components,
            outcome.score.normalized,
        );
        if let Some(path) = args.out {
            let encoded = persist::encode_tree(&outcome.tree);
            fs::write(path, &encoded).map_err(|e| format!("cannot write {path}: {e}"))?;
            if let Some(addr) = args.addr {
                let request = oct_serve::Request::Swap {
                    path: path.to_owned(),
                };
                let response = oct_serve::client::one_shot(addr, &request)
                    .map_err(|e| format!("{addr}: {e}"))?;
                match response {
                    oct_serve::Response::Swapped { epoch, categories } => {
                        out!("  published epoch {epoch} ({categories} categories)");
                    }
                    other => return Err(format!("{addr}: SWAP refused: {}", other.encode())),
                }
            }
        }
    }
    if let Some(path) = args.metrics_out {
        let report = metrics.report();
        fs::write(path, report.to_json()).map_err(|e| format!("cannot write {path}: {e}"))?;
        out!("wrote stream metrics to {path}");
    }
    Ok(())
}

/// Everything `serve` needs, bundled like [`BuildArgs`].
struct ServeArgs<'a> {
    tree_path: &'a str,
    addr: String,
    workers: usize,
    queue: usize,
    similarity: Similarity,
    deadline_ms: Option<u64>,
    metrics_out: Option<&'a str>,
}

fn serve(args: ServeArgs) -> Result<(), String> {
    let tree = read_tree(args.tree_path)?;
    // SIGTERM/SIGINT begin the graceful drain the run loop finishes.
    oct_serve::signal::install_handlers();
    let metrics = Metrics::new(true);
    let config = oct_serve::ServeConfig {
        addr: args.addr,
        workers: args.workers,
        queue_capacity: args.queue,
        deadline_ms: args.deadline_ms,
        similarity: args.similarity,
        metrics: metrics.clone(),
        metrics_out: args.metrics_out.map(std::path::PathBuf::from),
        ..oct_serve::ServeConfig::default()
    };
    let snapshot = oct_serve::ServingTree::build(tree, 0, 0, args.tree_path);
    out!(
        "serving {} ({} categories, depth {}) under {} {:.2}",
        args.tree_path,
        snapshot.stats.categories,
        snapshot.stats.max_depth,
        config.similarity.kind.name(),
        config.similarity.delta,
    );
    let server = oct_serve::Server::bind(config, snapshot)
        .map_err(|e| format!("cannot bind server: {e}"))?;
    out!(
        "listening on {} ({} workers, queue {}); SIGTERM or SHUTDOWN drains",
        server.local_addr().map_err(|e| e.to_string())?,
        args.workers,
        args.queue,
    );
    let report = server.run().map_err(|e| format!("server failed: {e}"))?;
    out!("drained cleanly");
    out!("{report}");
    Ok(())
}

/// Everything `router` needs, bundled like [`ServeArgs`].
struct RouterArgs<'a> {
    addr: String,
    shards: Vec<Vec<String>>,
    workers: usize,
    queue: usize,
    attempt_ms: u64,
    deadline_ms: Option<u64>,
    metrics_out: Option<&'a str>,
}

fn router(args: RouterArgs) -> Result<(), String> {
    // SIGTERM/SIGINT begin the graceful drain the run loop finishes — the
    // router polls the same process-global flag as the serve daemon.
    oct_serve::signal::install_handlers();
    let metrics = Metrics::new(true);
    let replicas: usize = args.shards.iter().map(Vec::len).sum();
    let config = oct_router::RouterConfig {
        addr: args.addr,
        workers: args.workers,
        queue_capacity: args.queue,
        attempt_timeout: std::time::Duration::from_millis(args.attempt_ms),
        metrics: metrics.clone(),
        metrics_out: args.metrics_out.map(std::path::PathBuf::from),
        shards: args.shards,
        ..oct_router::RouterConfig::default()
    };
    let config = match args.deadline_ms {
        // Absent keeps the router's own default; 0 is "already expired".
        Some(ms) => oct_router::RouterConfig {
            deadline_ms: Some(ms),
            ..config
        },
        None => config,
    };
    out!(
        "routing {} shard(s) over {} replica(s); attempts {}ms, deadline {}",
        config.shards.len(),
        replicas,
        args.attempt_ms,
        config
            .deadline_ms
            .map_or("unlimited".to_owned(), |ms| format!("{ms}ms")),
    );
    let router =
        oct_router::Router::bind(config).map_err(|e| format!("cannot bind router: {e}"))?;
    out!(
        "listening on {} ({} workers, queue {}); SIGTERM or SHUTDOWN drains",
        router.local_addr().map_err(|e| e.to_string())?,
        args.workers,
        args.queue,
    );
    let report = router.run().map_err(|e| format!("router failed: {e}"))?;
    out!("drained cleanly");
    out!("{report}");
    Ok(())
}

/// Everything `chaos` needs, bundled like [`ServeArgs`].
struct ChaosArgs {
    routes: Vec<(String, String)>,
    seed: u64,
    profile: String,
    blackhole: Vec<usize>,
    print_plan: usize,
    plan_only: bool,
}

fn chaos(args: ChaosArgs) -> Result<(), String> {
    use oct_chaos::{ChaosConfig, ChaosProxy, FaultPlan};

    // Profile names were validated at parse time; a miss here is a bug.
    let base = ChaosConfig::profile(&args.profile, args.seed)
        .ok_or_else(|| format!("unknown chaos profile {:?}", args.profile))?;
    let plans: Vec<FaultPlan> = (0..args.routes.len())
        .map(|i| {
            if args.blackhole.contains(&i) {
                FaultPlan::new(ChaosConfig::blackhole(args.seed))
            } else {
                FaultPlan::new(base.clone())
            }
        })
        .collect();
    for (i, plan) in plans.iter().enumerate() {
        out!("route {i}: plan {}", plan.fingerprint());
        for conn in 0..args.print_plan {
            out!("  {}", plan.describe(i as u32, conn as u64));
        }
    }
    if args.plan_only {
        return Ok(());
    }

    // SIGTERM/SIGINT stop the whole proxy fleet, same flag as serve.
    oct_serve::signal::install_handlers();
    let mut stops = Vec::new();
    let mut joins = Vec::new();
    for (i, ((listen, upstream), plan)) in args.routes.iter().zip(plans).enumerate() {
        let proxy = ChaosProxy::bind(listen, upstream.clone(), plan, i as u32)
            .map_err(|e| format!("cannot bind chaos proxy on {listen}: {e}"))?;
        out!(
            "proxy {i} listening on {} -> {upstream}",
            proxy.local_addr().map_err(|e| e.to_string())?,
        );
        stops.push(proxy.stop_handle());
        joins.push(std::thread::spawn(move || proxy.run()));
    }
    while !oct_serve::signal::shutdown_requested() {
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    for stop in &stops {
        stop.stop();
    }
    for join in joins {
        join.join()
            .map_err(|_| "chaos proxy thread panicked".to_owned())?
            .map_err(|e| format!("chaos proxy failed: {e}"))?;
    }
    out!("chaos proxies drained cleanly");
    Ok(())
}

/// Everything `loadgen` needs, bundled like [`ServeArgs`].
struct LoadgenArgs<'a> {
    addr: &'a str,
    items: u32,
    connections: usize,
    requests: usize,
    rps: Option<u32>,
    zipf: Option<f64>,
    seed: u64,
}

fn loadgen(args: LoadgenArgs) -> Result<(), String> {
    use oct_serve::loadgen::{Arrival, KeyDist, LoadGenConfig};
    use std::net::ToSocketAddrs;

    let addr = args
        .addr
        .to_socket_addrs()
        .map_err(|e| format!("{}: {e}", args.addr))?
        .next()
        .ok_or_else(|| format!("{}: no address", args.addr))?;
    let config = LoadGenConfig {
        connections: args.connections,
        requests_per_connection: args.requests,
        num_items: args.items,
        seed: args.seed,
        arrival: args
            .rps
            .map_or(Arrival::Closed, |rps| Arrival::Open { rps }),
        key_dist: args.zipf.map_or(KeyDist::Uniform, |s| KeyDist::Zipf {
            // The config stores the exponent ×1000 so the burst stays a
            // pure function of integer knobs.
            exponent_milli: (s * 1000.0).round() as u32,
        }),
        ..LoadGenConfig::default()
    };
    let total = args.connections * args.requests;
    out!(
        "loadgen: {} request(s) over {} connection(s) at {} ({} arrivals, {} keys, seed {})",
        total,
        args.connections,
        addr,
        args.rps
            .map_or("closed-loop".to_owned(), |rps| format!("open-loop {rps}/s")),
        args.zipf
            .map_or("uniform".to_owned(), |s| format!("zipf s={s}")),
        args.seed,
    );
    let outcome = oct_serve::loadgen::run(addr, &config)
        .map_err(|e| format!("loadgen against {addr}: {e}"))?;
    out!(
        "throughput {:.1} req/s over {:.2}s",
        outcome.throughput_rps(),
        outcome.elapsed_s,
    );
    out!(
        "latency p50 {:.2}ms p90 {:.2}ms p99 {:.2}ms",
        outcome.latency_quantile_s(0.50) * 1e3,
        outcome.latency_quantile_s(0.90) * 1e3,
        outcome.latency_quantile_s(0.99) * 1e3,
    );
    out!(
        "outcomes: ok={} shed={} errors={} transport={}",
        outcome.ok,
        outcome.shed,
        outcome.errors,
        outcome.transport_errors,
    );
    Ok(())
}

fn query(addr: &str, send: &str) -> Result<(), String> {
    let request = oct_serve::Request::parse(send).map_err(|e| format!("bad request line: {e}"))?;
    // Typed protocol outcomes (OVERLOADED, ERR) are printed, not treated as
    // transport failures — the caller reads the line to branch on them.
    let response =
        oct_serve::client::one_shot(addr, &request).map_err(|e| format!("{addr}: {e}"))?;
    out!("{}", response.encode());
    Ok(())
}

fn index(
    tree_path: &str,
    out_path: Option<&str>,
    dim: usize,
    m: usize,
    ef_construction: usize,
    seed: u64,
) -> Result<(), String> {
    let tree = read_tree(tree_path)?;
    let config = oct_core::VectorConfig {
        dim,
        m,
        ef_construction,
        seed,
    };
    let ann = oct_core::VectorIndex::for_tree(&tree, &config);
    let encoded = persist::encode_vector_index(&ann);
    let out_path = out_path
        .map(str::to_owned)
        .unwrap_or_else(|| format!("{tree_path}.ann"));
    fs::write(&out_path, encoded.as_ref()).map_err(|e| format!("cannot write {out_path}: {e}"))?;
    out!(
        "indexed {} categories (dim {dim}, m {m}, ef-construction {ef_construction}, \
         seed {seed:#x}) -> {out_path} ({} bytes)",
        ann.len(),
        encoded.as_ref().len(),
    );
    Ok(())
}

fn navigate(
    items: &[u32],
    k: usize,
    ef: Option<usize>,
    addr: Option<&str>,
    tree_path: Option<&str>,
    similarity: Similarity,
) -> Result<(), String> {
    if let Some(addr) = addr {
        let request = oct_serve::Request::NavigateTopK {
            k,
            items: items.to_vec(),
            ef,
        };
        let response =
            oct_serve::client::one_shot(addr, &request).map_err(|e| format!("{addr}: {e}"))?;
        out!("{}", response.encode());
        return Ok(());
    }
    let tree_path = tree_path.expect("the parser requires --tree when --addr is absent");
    let tree = read_tree(tree_path)?;
    let point = oct_core::PointIndex::build(&tree, 0);
    let ann = oct_core::VectorIndex::for_tree(&tree, &oct_core::VectorConfig::default());
    // The daemon's policy, so the local answer matches what a `NAVIGATE`
    // line against the same tree returns.
    let ranked = point
        .navigate(&ann, items, k, ef, &similarity, &Budget::unlimited())
        .covers;
    if ranked.is_empty() {
        out!("no category scores above zero for these items");
        return Ok(());
    }
    for cover in &ranked {
        match tree.label(cover.cat) {
            Some(label) => out!(
                "{}\t{:.6}\t{:.4}\t{label}",
                cover.cat,
                cover.similarity,
                cover.precision
            ),
            None => out!(
                "{}\t{:.6}\t{:.4}",
                cover.cat,
                cover.similarity,
                cover.precision
            ),
        }
    }
    Ok(())
}

fn dot(tree_path: &str, depth: usize, out_path: Option<&str>) -> Result<(), String> {
    let tree = read_tree(tree_path)?;
    let rendered = oct_core::dot::to_dot(
        &tree,
        None,
        &oct_core::dot::DotOptions {
            max_depth: depth,
            ..oct_core::dot::DotOptions::default()
        },
    );
    match out_path {
        Some(path) => {
            fs::write(path, &rendered).map_err(|e| format!("cannot write {path}: {e}"))?;
            out!("wrote {} bytes to {path}", rendered.len());
        }
        None => out!("{}", rendered.trim_end()),
    }
    Ok(())
}

fn diff(tree_path: &str, against_path: &str, items: u32) -> Result<(), String> {
    let a = read_tree(tree_path)?;
    let b = read_tree(against_path)?;
    let distance = oct_core::update::categorization_distance(&a, &b, items, 100_000);
    out!("categorization distance: {distance:.4} (0 = identical partition of {items} items)");
    out!(
        "{tree_path}: {} categories | {against_path}: {} categories",
        a.live_categories().len(),
        b.live_categories().len()
    );
    Ok(())
}

fn read_log(path: &str) -> Result<QueryLog, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    loader::parse_query_log(&text).map_err(|e| format!("{path}: {e}"))
}

fn read_tree(path: &str) -> Result<CategoryTree, String> {
    let raw = fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    persist::decode_tree(bytes::Bytes::from(raw)).map_err(|e| format!("{path}: {e}"))
}

/// Converts a parsed log into an instance: relevance cutoff per the
/// variant, frequency weights, optional near-duplicate merging.
fn instance_from_log(
    log: &QueryLog,
    items: u32,
    similarity: Similarity,
    no_merge: bool,
    min_frequency: f64,
) -> Result<Instance, String> {
    let relevance = relevance_threshold(similarity.kind);
    let mut sets = Vec::new();
    for q in &log.queries {
        // Hypergraph construction asserts finite weights; reject bad input
        // here with a contextual error instead of panicking deep inside.
        if !q.daily_frequency.is_finite() {
            return Err(format!(
                "query {:?} has a non-finite daily frequency",
                q.text
            ));
        }
        if q.daily_frequency < min_frequency {
            continue;
        }
        let kept = ItemSet::new(
            q.results
                .iter()
                .filter(|&&(_, rel)| rel >= relevance)
                .map(|&(item, _)| item)
                .collect(),
        );
        if kept.len() < 2 {
            continue;
        }
        if let Some(&max) = kept.as_slice().last() {
            if max >= items {
                return Err(format!(
                    "query {:?} references item {max} but --items is {items}",
                    q.text
                ));
            }
        }
        sets.push(InputSet::new(kept, q.daily_frequency.max(1e-9)).with_label(q.text.clone()));
    }
    if sets.is_empty() {
        return Err("no usable queries after filtering".to_owned());
    }
    if !no_merge {
        sets = merge_similar(sets, similarity).0;
    }
    Ok(Instance::new(items, sets, similarity))
}

/// Everything `build` needs, bundled so the resilience knobs don't balloon
/// the parameter list.
struct BuildArgs<'a> {
    log_path: &'a str,
    items: u32,
    similarity: Similarity,
    out: Option<&'a str>,
    no_merge: bool,
    min_frequency: f64,
    labels: bool,
    metrics_out: Option<&'a str>,
    threads: usize,
    deadline_ms: Option<u64>,
    rounds: usize,
    checkpoint_dir: Option<&'a str>,
    resume: bool,
}

/// Relief factor between reemployment rounds (multi-round builds).
const BUILD_RELIEF: f64 = 0.85;

fn build(args: BuildArgs) -> Result<(), String> {
    let BuildArgs {
        log_path,
        items,
        similarity,
        out,
        no_merge,
        min_frequency,
        labels,
        metrics_out,
        threads,
        deadline_ms,
        rounds,
        checkpoint_dir,
        resume,
    } = args;
    let log = read_log(log_path)?;
    let instance = instance_from_log(&log, items, similarity, no_merge, min_frequency)?;
    out!(
        "building: {} input sets over {} items ({} {:.2})",
        instance.num_sets(),
        items,
        instance.similarity.kind.name(),
        instance.similarity.delta
    );
    let metrics = Metrics::new(metrics_out.is_some());
    let budget = deadline_ms.map_or_else(Budget::unlimited, Budget::with_deadline_ms);
    let config = CtcrConfig {
        metrics: metrics.clone(),
        threads,
        budget,
        ..CtcrConfig::default()
    };
    let checkpoint_path = checkpoint_dir
        .map(|dir| {
            fs::create_dir_all(dir)
                .map(|()| std::path::Path::new(dir).join("build.ckpt"))
                .map_err(|e| format!("cannot create {dir}: {e}"))
        })
        .transpose()?;
    let outcome = workflow::iterate_with_checkpoints(
        &instance,
        &config,
        rounds,
        BUILD_RELIEF,
        checkpoint_path.as_deref(),
        resume,
    )
    .map_err(|e| format!("build failed: {e}"))?;
    let built_on = outcome.instance;
    let mut result = outcome.result;
    result
        .tree
        .validate(&built_on)
        .map_err(|e| format!("internal error — invalid tree: {e}"))?;
    if result.stats.degraded {
        out!("note: budget expired — degraded result (greedy/local-search fallbacks)");
    }
    if labels {
        labeling::apply_labels(&built_on, &mut result.tree);
    }
    let nav = navigation::stats(&result.tree);
    out!(
        "score {:.3} normalized | {}/{} sets covered | {} categories, depth {} | conflicts: {}+{} | MIS optimal: {}",
        result.score.normalized,
        result.score.covered_count(),
        instance.num_sets(),
        nav.categories,
        nav.max_depth,
        result.stats.conflicts2,
        result.stats.conflicts3,
        result.stats.mis_optimal,
    );
    if let Some(path) = out {
        let encoded = persist::encode_tree(&result.tree);
        fs::write(path, &encoded).map_err(|e| format!("cannot write {path}: {e}"))?;
        out!("wrote {} bytes to {path}", encoded.len());
    }
    if let Some(path) = metrics_out {
        let report = metrics.report();
        fs::write(path, report.to_json()).map_err(|e| format!("cannot write {path}: {e}"))?;
        out!("wrote pipeline metrics to {path}");
        out!("{report}");
    }
    Ok(())
}

fn score(
    tree_path: &str,
    log_path: &str,
    items: u32,
    similarity: Similarity,
    threads: usize,
    deadline_ms: Option<u64>,
) -> Result<(), String> {
    let tree = read_tree(tree_path)?;
    let log = read_log(log_path)?;
    let instance = instance_from_log(&log, items, similarity, true, 0.0)?;
    let budget = deadline_ms.map_or_else(Budget::unlimited, Budget::with_deadline_ms);
    let options = ScoreOptions {
        budget,
        ..ScoreOptions::with_threads(threads)
    };
    let score =
        try_score_tree_with(&instance, &tree, &options).map_err(|e| format!("scoring: {e}"))?;
    out!(
        "score {:.3} normalized | {}/{} sets covered | total {:.1} of weight {:.1}",
        score.normalized,
        score.covered_count(),
        instance.num_sets(),
        score.total,
        instance.total_weight(),
    );
    // Worst-served heavy sets, for triage.
    let mut missed: Vec<(f64, usize)> = score
        .per_set
        .iter()
        .enumerate()
        .filter(|(_, c)| !c.covered)
        .map(|(i, _)| (instance.sets[i].weight, i))
        .collect();
    missed.sort_by(|a, b| b.0.total_cmp(&a.0));
    if !missed.is_empty() {
        out!("heaviest uncovered queries:");
        for (w, i) in missed.into_iter().take(5) {
            out!(
                "  {w:>10.1}/day  {}",
                instance.sets[i].label.as_deref().unwrap_or("?")
            );
        }
    }
    Ok(())
}

fn inspect(tree_path: &str, max_depth: usize) -> Result<(), String> {
    let tree = read_tree(tree_path)?;
    let full = tree.materialize();
    let nav = navigation::stats(&tree);
    out!(
        "{} categories | {} leaves | max depth {} | max fan-out {}",
        nav.categories,
        nav.leaves,
        nav.max_depth,
        nav.max_fanout
    );
    fn walk(tree: &CategoryTree, full: &[ItemSet], cat: u32, depth: usize, max_depth: usize) {
        if depth > max_depth {
            return;
        }
        out!(
            "{}{} ({} items)",
            "  ".repeat(depth),
            tree.label(cat).unwrap_or("·"),
            full[cat as usize].len()
        );
        let mut children = tree.children(cat).to_vec();
        children.sort_by_key(|&c| std::cmp::Reverse(full[c as usize].len()));
        for child in children {
            walk(tree, full, child, depth + 1, max_depth);
        }
    }
    walk(&tree, &full, ROOT, 0, max_depth);
    Ok(())
}

fn export(dataset: &str, scale: f64, out: Option<&str>) -> Result<(), String> {
    let name = match dataset.to_ascii_uppercase().as_str() {
        "A" => DatasetName::A,
        "B" => DatasetName::B,
        "C" => DatasetName::C,
        "D" => DatasetName::D,
        "E" => DatasetName::E,
        other => return Err(format!("unknown dataset {other:?} (expected A–E)")),
    };
    if !(scale > 0.0 && scale <= 1.0) {
        return Err("--scale must be in (0, 1]".to_owned());
    }
    let ds = generate(name, scale, Similarity::jaccard_threshold(0.8));
    let text = loader::write_query_log(&ds.log);
    match out {
        Some(path) => {
            fs::write(path, &text).map_err(|e| format!("cannot write {path}: {e}"))?;
            out!(
                "wrote {} queries over {} items to {path} (use --items {})",
                ds.log.queries.len(),
                ds.catalog.len(),
                ds.catalog.len()
            );
        }
        None => out!("{}", text.trim_end()),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_log() -> QueryLog {
        loader::parse_query_log(
            "black shirt\t100\t0:0.95,1:0.9,2:0.92\nnike shirt\t50\t2:0.95,3:0.9,4:0.99\n",
        )
        .expect("valid")
    }

    #[test]
    fn instance_from_log_basics() {
        let instance = instance_from_log(
            &sample_log(),
            5,
            Similarity::jaccard_threshold(0.8),
            true,
            0.0,
        )
        .expect("builds");
        assert_eq!(instance.num_sets(), 2);
        assert_eq!(instance.sets[0].weight, 100.0);
        assert_eq!(instance.sets[0].label.as_deref(), Some("black shirt"));
    }

    #[test]
    fn rejects_out_of_universe_items() {
        let err = instance_from_log(
            &sample_log(),
            3,
            Similarity::jaccard_threshold(0.8),
            true,
            0.0,
        )
        .unwrap_err();
        assert!(err.contains("--items"), "{err}");
    }

    #[test]
    fn relevance_cutoff_applies_by_variant() {
        // Perfect-recall uses the stricter 0.9 cutoff: item 1 at 0.9 stays,
        // anything lower would drop.
        let log = loader::parse_query_log("q\t10\t0:0.95,1:0.85,2:0.92\n").expect("valid");
        let jac = instance_from_log(&log, 3, Similarity::jaccard_threshold(0.8), true, 0.0)
            .expect("builds");
        assert_eq!(jac.sets[0].items.len(), 3);
        let pr =
            instance_from_log(&log, 3, Similarity::perfect_recall(0.8), true, 0.0).expect("builds");
        assert_eq!(pr.sets[0].items.len(), 2, "0.85 falls below the 0.9 cutoff");
    }

    #[test]
    fn min_frequency_filters() {
        let instance = instance_from_log(
            &sample_log(),
            5,
            Similarity::jaccard_threshold(0.8),
            true,
            60.0,
        )
        .expect("builds");
        assert_eq!(instance.num_sets(), 1);
    }

    #[test]
    fn end_to_end_build_and_score_in_tempdir() {
        let dir = std::env::temp_dir().join(format!("octree-test-{}", std::process::id()));
        fs::create_dir_all(&dir).expect("tempdir");
        let log_path = dir.join("q.tsv");
        let tree_path = dir.join("t.oct");
        let metrics_path = dir.join("m.json");
        let ds = generate(DatasetName::A, 0.01, Similarity::jaccard_threshold(0.8));
        fs::write(&log_path, loader::write_query_log(&ds.log)).expect("write log");
        build(BuildArgs {
            log_path: log_path.to_str().expect("utf8"),
            items: ds.catalog.len() as u32,
            similarity: Similarity::jaccard_threshold(0.8),
            out: Some(tree_path.to_str().expect("utf8")),
            no_merge: false,
            min_frequency: 0.0,
            labels: true,
            metrics_out: Some(metrics_path.to_str().expect("utf8")),
            threads: 2,
            deadline_ms: None,
            rounds: 1,
            checkpoint_dir: None,
            resume: false,
        })
        .expect("build succeeds");
        let report = oct_obs::PipelineReport::from_json(
            &fs::read_to_string(&metrics_path).expect("metrics written"),
        )
        .expect("valid report JSON");
        assert!(report.span("ctcr").is_some(), "per-stage timings present");
        assert!(report.span("ctcr/mis").is_some());
        score(
            tree_path.to_str().expect("utf8"),
            log_path.to_str().expect("utf8"),
            ds.catalog.len() as u32,
            Similarity::jaccard_threshold(0.8),
            2,
            None,
        )
        .expect("score succeeds");
        inspect(tree_path.to_str().expect("utf8"), 2).expect("inspect succeeds");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpointed_build_resumes_and_degraded_deadline_still_completes() {
        let dir = std::env::temp_dir().join(format!("octree-ckpt-{}", std::process::id()));
        fs::create_dir_all(&dir).expect("tempdir");
        let log_path = dir.join("q.tsv");
        let tree_path = dir.join("t.oct");
        let ds = generate(DatasetName::A, 0.01, Similarity::jaccard_threshold(0.8));
        fs::write(&log_path, loader::write_query_log(&ds.log)).expect("write log");
        fn args<'a>(
            log_path: &'a str,
            dir: &'a str,
            items: u32,
            out: &'a str,
            deadline_ms: Option<u64>,
            resume: bool,
        ) -> BuildArgs<'a> {
            BuildArgs {
                log_path,
                items,
                similarity: Similarity::jaccard_threshold(0.8),
                out: Some(out),
                no_merge: true,
                min_frequency: 0.0,
                labels: false,
                metrics_out: None,
                threads: 1,
                deadline_ms,
                rounds: 2,
                checkpoint_dir: Some(dir),
                resume,
            }
        }
        let log_str = log_path.to_str().expect("utf8");
        let dir_str = dir.to_str().expect("utf8");
        let items = ds.catalog.len() as u32;
        let tree_str = tree_path.to_str().expect("utf8").to_owned();
        build(args(log_str, dir_str, items, &tree_str, None, false))
            .expect("checkpointed build succeeds");
        let first = fs::read(&tree_path).expect("tree written");
        assert!(dir.join("build.ckpt").exists(), "checkpoint persisted");
        // Resume from the finished checkpoint: bit-identical output.
        build(args(log_str, dir_str, items, &tree_str, None, true))
            .expect("resumed build succeeds");
        assert_eq!(fs::read(&tree_path).expect("tree rewritten"), first);
        // An absurdly tight deadline still completes (degraded fallbacks).
        let degraded_path = dir.join("degraded.oct");
        let degraded_str = degraded_path.to_str().expect("utf8").to_owned();
        build(args(log_str, dir_str, items, &degraded_str, Some(1), false))
            .expect("degraded build still completes");
        assert!(degraded_path.exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn watch_streams_checkpoints_and_resumes() {
        let dir = std::env::temp_dir().join(format!("octree-watch-{}", std::process::id()));
        fs::create_dir_all(&dir).expect("tempdir");
        let log_path = dir.join("q.tsv");
        let tree_path = dir.join("t.oct");
        let ckpt_path = dir.join("s.ckpt");
        let ds = generate(DatasetName::A, 0.01, Similarity::jaccard_threshold(0.8));
        fs::write(&log_path, loader::write_query_log(&ds.log)).expect("write log");
        fn args<'a>(
            log_path: &'a str,
            items: u32,
            out: &'a str,
            checkpoint: &'a str,
            resume: bool,
        ) -> WatchArgs<'a> {
            WatchArgs {
                log_path,
                items,
                similarity: Similarity::jaccard_threshold(0.8),
                days: 20,
                batches: 4,
                spike_fraction: 0.3,
                seed: 11,
                recent_days: 7,
                min_weight: 0.5,
                out: Some(out),
                addr: None,
                checkpoint: Some(checkpoint),
                resume,
                metrics_out: None,
                threads: 1,
            }
        }
        let log_str = log_path.to_str().expect("utf8");
        let tree_str = tree_path.to_str().expect("utf8");
        let ckpt_str = ckpt_path.to_str().expect("utf8");
        let items = ds.catalog.len() as u32;
        watch(args(log_str, items, tree_str, ckpt_str, false)).expect("watch succeeds");
        assert!(tree_path.exists(), "tree written after the last batch");
        assert!(ckpt_path.exists(), "stream checkpoint persisted");
        let first = fs::read(&tree_path).expect("tree bytes");
        // Resuming a finished stream is a no-op that leaves the tree alone.
        watch(args(log_str, items, tree_str, ckpt_str, true)).expect("resume succeeds");
        assert_eq!(fs::read(&tree_path).expect("tree bytes"), first);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn merging_path_runs() {
        let log =
            loader::parse_query_log("a\t10\t0:0.95,1:0.9,2:0.92\na alt\t5\t0:0.95,1:0.9,2:0.92\n")
                .expect("valid");
        let merged = instance_from_log(&log, 3, Similarity::jaccard_threshold(0.8), false, 0.0)
            .expect("builds");
        assert_eq!(merged.num_sets(), 1, "identical result sets merge");
        assert!((merged.total_weight() - 15.0).abs() < 1e-9);
    }

    #[test]
    fn repeated_result_item_counts_once_with_or_without_merge() {
        // "echo" lists item 5 twice: one distinct item, so it is no set in
        // either mode; the other two queries are far apart and never merge.
        let log = loader::parse_query_log(
            "a\t10\t0:0.95,1:0.9,2:0.92\necho\t7\t5:0.95,5:0.9\nb\t3\t3:0.95,4:0.9\n",
        )
        .expect("valid");
        let sim = Similarity::jaccard_threshold(0.8);
        let unmerged = instance_from_log(&log, 6, sim, true, 0.0).expect("builds");
        let merged = instance_from_log(&log, 6, sim, false, 0.0).expect("builds");
        assert_eq!(unmerged.num_sets(), 2);
        assert_eq!(merged.num_sets(), unmerged.num_sets());
    }
}
