//! Hand-rolled argument parsing for `octree` (no external CLI crate).

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};

use oct_core::similarity::{Similarity, SimilarityKind};

/// Usage text printed on errors.
pub const USAGE: &str = "\
usage:
  octree build   --log FILE --items N [--variant V] [--delta D] [--out FILE]
                 [--no-merge] [--min-frequency F] [--labels] [--metrics FILE]
                 [--threads T] [--deadline-ms MS] [--rounds R]
                 [--checkpoint-dir DIR] [--resume]
  octree score   --tree FILE --log FILE --items N [--variant V] [--delta D]
                 [--threads T] [--deadline-ms MS]
  octree inspect --tree FILE [--depth K]
  octree export  --dataset A|B|C|D|E [--scale S] [--out FILE]
  octree dot     --tree FILE [--depth K] [--out FILE]
  octree diff    --tree FILE --against FILE --items N
  octree serve   --tree FILE [--addr HOST:PORT] [--workers W] [--queue Q]
                 [--variant V] [--delta D] [--deadline-ms MS] [--metrics FILE]
  octree query   --send LINE [--addr HOST:PORT]
  octree index   --tree FILE [--out FILE] [--dim D] [--m M]
                 [--ef-construction EF] [--seed S]
  octree navigate --items I,J,... [--k K] [--ef EF]
                 (--addr HOST:PORT | --tree FILE) [--variant V] [--delta D]
  octree router  --shards 'H:P,H:P;H:P,...' [--addr HOST:PORT] [--workers W]
                 [--queue Q] [--attempt-ms MS] [--deadline-ms MS]
                 [--metrics FILE]
  octree loadgen --items N [--addr HOST:PORT] [--connections C]
                 [--requests R] [--rps N] [--zipf S] [--seed S]
  octree chaos   --routes 'LISTEN=UPSTREAM;LISTEN=UPSTREAM,...' [--seed S]
                 [--profile P] [--blackhole I,J,...] [--print-plan N]
                 [--plan-only]
  octree watch   --log FILE --items N [--variant V] [--delta D] [--days D]
                 [--batches B] [--spike-fraction F] [--seed S]
                 [--recent-days R] [--min-weight W] [--out FILE]
                 [--addr HOST:PORT] [--checkpoint FILE] [--resume]
                 [--metrics FILE] [--threads T]

variants: threshold-jaccard (default) | cutoff-jaccard | threshold-f1 |
          cutoff-f1 | perfect-recall | exact
threads:  0 = auto (all cores, default), 1 = serial, N = N workers
deadline: wall-clock budget in ms; on expiry the work degrades gracefully
          (greedy fallbacks / pessimistic partial covers) instead of
          running over; 0 = already expired (everything fully degraded)
resume:   continue an interrupted build from --checkpoint-dir's checkpoint
serve:    runs until SIGTERM/SIGINT or a SHUTDOWN request, then drains
query:    sends one protocol line (e.g. 'CATEGORIZE 1,2,3') and prints the
          response
index:    builds the deterministic ANN index over a persisted tree's
          category centroid embeddings and writes it (default <tree>.ann)
          so the NAVIGATE top-k candidate path can be inspected offline
navigate: top-k category retrieval for an item set; --addr sends one
          'NAVIGATE K items=...' line to a daemon or router, --tree
          computes the same narrow-then-rerank answer locally and prints
          'cat<TAB>similarity<TAB>precision[<TAB>label]' lines
router:   fault-tolerant scatter-gather front-end over a sharded fleet of
          serve daemons; --shards lists replica addresses per shard,
          ';'-separated shards of ','-separated replicas; drains like serve
loadgen:  fires a deterministic seeded burst at a daemon or router and
          prints latency quantiles + typed-outcome counts; --rps switches
          to open-loop Poisson arrivals, --zipf S skews keys (weight
          1/(k+1)^S); both default off (closed loop, uniform keys)
chaos:    deterministic TCP fault-injection proxies; each ';'-separated
          LISTEN=UPSTREAM route forwards with faults drawn from the
          seeded plan (profiles: passthrough | delays | resets | mixed
          (default) | byzantine | blackhole); --blackhole overrides the
          listed route indexes to swallow every connection; --print-plan
          N prints the first N per-connection actions per route,
          --plan-only exits right after printing; drains like serve
watch:    replays the log as a windowed delta stream through the incremental
          engine; every applied batch rewrites --out and, with --addr, SWAPs
          it into a running daemon; with --checkpoint, kill -9 mid-stream
          resumes bit-identically via --resume (same flags regenerate the
          same feed)";

/// A parsed command.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Build a tree from a query log.
    Build {
        /// Log path.
        log: String,
        /// Universe size.
        items: u32,
        /// Similarity variant + δ.
        similarity: Similarity,
        /// Output tree path (`None`: print summary only).
        out: Option<String>,
        /// Skip near-duplicate merging.
        no_merge: bool,
        /// Frequency floor.
        min_frequency: f64,
        /// Auto-label categories.
        labels: bool,
        /// Write a per-stage telemetry report (JSON) to this path.
        metrics: Option<String>,
        /// Worker threads (0 = auto).
        threads: usize,
        /// Wall-clock budget in milliseconds (`None`: unlimited).
        deadline_ms: Option<u64>,
        /// Reemployment rounds (1 = single CTCR pass).
        rounds: usize,
        /// Directory for round-granular checkpoints (`None`: off).
        checkpoint_dir: Option<String>,
        /// Resume from an existing checkpoint in `checkpoint_dir`.
        resume: bool,
    },
    /// Score an existing tree against a log.
    Score {
        /// Tree path.
        tree: String,
        /// Log path.
        log: String,
        /// Universe size.
        items: u32,
        /// Similarity variant + δ.
        similarity: Similarity,
        /// Worker threads (0 = auto).
        threads: usize,
        /// Wall-clock budget in milliseconds (`None`: unlimited).
        deadline_ms: Option<u64>,
    },
    /// Print a tree's structure.
    Inspect {
        /// Tree path.
        tree: String,
        /// Maximum depth to print.
        depth: usize,
    },
    /// Export a synthetic dataset's log as TSV.
    Export {
        /// Dataset name (A–E).
        dataset: String,
        /// Scale in (0, 1].
        scale: f64,
        /// Output path (`None`: stdout).
        out: Option<String>,
    },
    /// Render a tree as Graphviz DOT.
    Dot {
        /// Tree path.
        tree: String,
        /// Depth limit (0 = unlimited).
        depth: usize,
        /// Output path (`None`: stdout).
        out: Option<String>,
    },
    /// Categorization distance between two trees.
    Diff {
        /// First tree path.
        tree: String,
        /// Second tree path.
        against: String,
        /// Universe size.
        items: u32,
    },
    /// Run the query-serving daemon on a persisted tree.
    Serve {
        /// Tree path.
        tree: String,
        /// Bind address (`host:port`; port 0 picks a free port).
        addr: String,
        /// Worker threads (in-flight concurrency limit).
        workers: usize,
        /// Admission-queue capacity; connections beyond it are shed.
        queue: usize,
        /// Similarity variant + δ queries are scored under.
        similarity: Similarity,
        /// Per-request deadline in ms (`None`: unlimited; 0: fully
        /// degraded immediately).
        deadline_ms: Option<u64>,
        /// Write the final metrics report (JSON) here on drain.
        metrics: Option<String>,
    },
    /// Send one protocol line to a running daemon.
    Query {
        /// Daemon address.
        addr: String,
        /// The raw request line, e.g. `CATEGORIZE 1,2,3`.
        send: String,
    },
    /// Build and persist the ANN index for a persisted tree.
    Index {
        /// Tree path.
        tree: String,
        /// Output path (`None`: `<tree>.ann`).
        out: Option<String>,
        /// Embedding dimension.
        dim: usize,
        /// Max neighbors per node per layer (layer 0 keeps `2 * m`).
        m: usize,
        /// Construction-time beam width.
        ef_construction: usize,
        /// Level-assignment seed.
        seed: u64,
    },
    /// Top-k category retrieval for an item set (remote or offline).
    Navigate {
        /// Queried item ids.
        items: Vec<u32>,
        /// How many categories to return.
        k: usize,
        /// Search beam width (`None`: the serving default).
        ef: Option<usize>,
        /// Daemon or router to ask (`None`: offline via `tree`).
        addr: Option<String>,
        /// Tree to answer from locally (`None`: remote via `addr`).
        tree: Option<String>,
        /// Similarity variant + δ the offline rerank scores under.
        similarity: Similarity,
    },
    /// Run the fault-tolerant shard router over a replicated fleet.
    Router {
        /// Bind address (`host:port`; port 0 picks a free port).
        addr: String,
        /// Replica addresses per shard: shards separated by `;`, replicas
        /// within a shard by `,`.
        shards: Vec<Vec<String>>,
        /// Worker threads (in-flight concurrency limit).
        workers: usize,
        /// Admission-queue capacity; connections beyond it are shed.
        queue: usize,
        /// Per-attempt timeout in ms (one replica call).
        attempt_ms: u64,
        /// Overall per-request deadline in ms (`None`: the router default).
        deadline_ms: Option<u64>,
        /// Write the final metrics report (JSON) here on drain.
        metrics: Option<String>,
    },
    /// Run a fleet of deterministic fault-injection proxies.
    Chaos {
        /// `(listen, upstream)` address pairs; the route's index is its
        /// proxy id in the plan.
        routes: Vec<(String, String)>,
        /// Plan seed (same seed + profile ⇒ same fault schedule).
        seed: u64,
        /// Named fault profile applied to every route not black-holed.
        profile: String,
        /// Route indexes forced to the all-blackhole plan.
        blackhole: Vec<usize>,
        /// Print this many per-connection plan rows per route.
        print_plan: usize,
        /// Exit after printing plans instead of proxying.
        plan_only: bool,
    },
    /// Fire a deterministic load burst at a daemon or router.
    Loadgen {
        /// Target address.
        addr: String,
        /// Universe size request items are drawn from.
        items: u32,
        /// Concurrent client connections.
        connections: usize,
        /// Requests per connection.
        requests: usize,
        /// Open-loop Poisson arrival rate in requests/s (`None`: closed
        /// loop — next request fires when the previous answer lands).
        rps: Option<u32>,
        /// Zipf key-skew exponent (`None`: uniform keys).
        zipf: Option<f64>,
        /// Burst seed (same seed + config ⇒ same request stream).
        seed: u64,
    },
    /// Stream windowed query-log deltas through the incremental engine.
    Watch {
        /// Log path.
        log: String,
        /// Universe size.
        items: u32,
        /// Similarity variant + δ.
        similarity: Similarity,
        /// Trend-window length in days.
        days: usize,
        /// Number of delta batches the window is replayed as.
        batches: usize,
        /// Fraction of queries given spike/fade trends.
        spike_fraction: f64,
        /// Trend-simulation seed.
        seed: u64,
        /// Recency window (days) weights are computed over.
        recent_days: usize,
        /// Weight floor below which a set retires.
        min_weight: f64,
        /// Tree path rewritten after every batch (`None`: no tree output).
        out: Option<String>,
        /// Running daemon to SWAP each rebuilt tree into (`None`: no
        /// publishing; requires `--out`).
        addr: Option<String>,
        /// Stream-checkpoint path (`None`: no crash recovery).
        checkpoint: Option<String>,
        /// Resume from the checkpoint instead of starting fresh.
        resume: bool,
        /// Write the final telemetry report (JSON) to this path.
        metrics: Option<String>,
        /// Worker threads (0 = auto).
        threads: usize,
    },
}

/// The `--name value` flags and bare `--switch`es of one command line.
/// Every lookup records the name it asked for, so after a command has read
/// what it needs, [`Flags::reject_unread`] names any flag it never read.
#[derive(Default)]
struct Flags {
    values: HashMap<String, String>,
    switches: HashSet<String>,
    read: RefCell<HashSet<String>>,
}

impl Flags {
    /// The value of `--name`, if given.
    fn get(&self, name: &str) -> Option<&String> {
        self.read.borrow_mut().insert(name.to_owned());
        self.values.get(name)
    }

    /// Whether `--name` was given with a value.
    fn contains_key(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    /// Whether the bare switch `--name` was given.
    fn switch(&self, name: &str) -> bool {
        self.read.borrow_mut().insert(name.to_owned());
        self.switches.contains(name)
    }

    /// A typed error naming the first (alphabetically) flag or switch that
    /// `command` never read: a misspelt or misplaced flag must not be
    /// silently ignored.
    fn reject_unread(&self, command: &str) -> Result<(), String> {
        let read = self.read.borrow();
        let unread = self
            .values
            .keys()
            .chain(&self.switches)
            .filter(|name| !read.contains(*name))
            .min();
        match unread {
            Some(name) => Err(format!("{command} does not take --{name}")),
            None => Ok(()),
        }
    }
}

/// Parses `argv` into a [`Command`].
pub fn parse(argv: &[String]) -> Result<Command, String> {
    let mut it = argv.iter();
    let command = it.next().ok_or("missing command")?;
    let mut flags = Flags::default();
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        if matches!(name, "no-merge" | "labels" | "resume" | "plan-only") {
            flags.switches.insert(name.to_owned());
        } else {
            let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
            flags.values.insert(name.to_owned(), value.clone());
        }
    }
    let similarity = |flags: &Flags| -> Result<Similarity, String> {
        let variant = flags
            .get("variant")
            .map(String::as_str)
            .unwrap_or("threshold-jaccard");
        let kind = match variant {
            "threshold-jaccard" => SimilarityKind::JaccardThreshold,
            "cutoff-jaccard" => SimilarityKind::JaccardCutoff,
            "threshold-f1" => SimilarityKind::F1Threshold,
            "cutoff-f1" => SimilarityKind::F1Cutoff,
            "perfect-recall" => SimilarityKind::PerfectRecall,
            "exact" => SimilarityKind::Exact,
            other => return Err(format!("unknown variant {other:?}")),
        };
        let delta: f64 = match flags.get("delta") {
            Some(d) => d.parse().map_err(|_| format!("bad delta {d:?}"))?,
            None if kind == SimilarityKind::Exact => 1.0,
            None => 0.8,
        };
        if kind == SimilarityKind::Exact && (delta - 1.0).abs() > 1e-12 {
            return Err("the exact variant requires --delta 1".to_owned());
        }
        Ok(Similarity::new(kind, delta))
    };
    let required = |flags: &Flags, name: &str| -> Result<String, String> {
        flags
            .get(name)
            .cloned()
            .ok_or_else(|| format!("--{name} is required"))
    };
    let items = |flags: &Flags| -> Result<u32, String> {
        required(flags, "items")?
            .parse()
            .map_err(|_| "bad --items value".to_owned())
    };
    let threads = |flags: &Flags| -> Result<usize, String> {
        flags
            .get("threads")
            .map(|t| t.parse().map_err(|_| format!("bad --threads value {t:?}")))
            .transpose()
            .map(|t| t.unwrap_or(0))
    };
    let deadline_ms = |flags: &Flags| -> Result<Option<u64>, String> {
        flags
            .get("deadline-ms")
            .map(|d| {
                // 0 is legal and means "already expired": every stage
                // runs its degraded path — the cheapest valid output.
                d.parse::<u64>()
                    .map_err(|_| format!("bad --deadline-ms value {d:?}"))
            })
            .transpose()
    };

    let parsed = match command.as_str() {
        "build" => Ok(Command::Build {
            log: required(&flags, "log")?,
            items: items(&flags)?,
            similarity: similarity(&flags)?,
            out: flags.get("out").cloned(),
            no_merge: flags.switch("no-merge"),
            min_frequency: flags
                .get("min-frequency")
                .map(|f| f.parse().map_err(|_| "bad --min-frequency".to_owned()))
                .transpose()?
                .unwrap_or(0.0),
            labels: flags.switch("labels"),
            metrics: flags.get("metrics").cloned(),
            threads: threads(&flags)?,
            deadline_ms: deadline_ms(&flags)?,
            rounds: flags
                .get("rounds")
                .map(|r| {
                    r.parse::<usize>()
                        .ok()
                        .filter(|&r| r >= 1)
                        .ok_or_else(|| format!("bad --rounds value {r:?} (need >= 1)"))
                })
                .transpose()?
                .unwrap_or(1),
            checkpoint_dir: flags.get("checkpoint-dir").cloned(),
            resume: flags.switch("resume"),
        }),
        "score" => Ok(Command::Score {
            tree: required(&flags, "tree")?,
            log: required(&flags, "log")?,
            items: items(&flags)?,
            similarity: similarity(&flags)?,
            threads: threads(&flags)?,
            deadline_ms: deadline_ms(&flags)?,
        }),
        "inspect" => Ok(Command::Inspect {
            tree: required(&flags, "tree")?,
            depth: flags
                .get("depth")
                .map(|d| d.parse().map_err(|_| "bad --depth".to_owned()))
                .transpose()?
                .unwrap_or(3),
        }),
        "export" => Ok(Command::Export {
            dataset: required(&flags, "dataset")?,
            scale: flags
                .get("scale")
                .map(|s| s.parse().map_err(|_| "bad --scale".to_owned()))
                .transpose()?
                .unwrap_or(0.02),
            out: flags.get("out").cloned(),
        }),
        "dot" => Ok(Command::Dot {
            tree: required(&flags, "tree")?,
            depth: flags
                .get("depth")
                .map(|d| d.parse().map_err(|_| "bad --depth".to_owned()))
                .transpose()?
                .unwrap_or(0),
            out: flags.get("out").cloned(),
        }),
        "diff" => Ok(Command::Diff {
            tree: required(&flags, "tree")?,
            against: required(&flags, "against")?,
            items: items(&flags)?,
        }),
        "serve" => Ok(Command::Serve {
            tree: required(&flags, "tree")?,
            addr: flags
                .get("addr")
                .cloned()
                .unwrap_or_else(|| "127.0.0.1:7171".to_owned()),
            workers: flags
                .get("workers")
                .map(|w| {
                    w.parse::<usize>()
                        .ok()
                        .filter(|&w| w >= 1)
                        .ok_or_else(|| format!("bad --workers value {w:?} (need >= 1)"))
                })
                .transpose()?
                .unwrap_or(4),
            queue: flags
                .get("queue")
                .map(|q| {
                    q.parse::<usize>()
                        .ok()
                        .filter(|&q| q >= 1)
                        .ok_or_else(|| format!("bad --queue value {q:?} (need >= 1)"))
                })
                .transpose()?
                .unwrap_or(64),
            similarity: similarity(&flags)?,
            deadline_ms: deadline_ms(&flags)?,
            metrics: flags.get("metrics").cloned(),
        }),
        "query" => Ok(Command::Query {
            addr: flags
                .get("addr")
                .cloned()
                .unwrap_or_else(|| "127.0.0.1:7171".to_owned()),
            send: required(&flags, "send")?,
        }),
        "index" => {
            let positive = |name: &str, default: usize| -> Result<usize, String> {
                flags
                    .get(name)
                    .map(|v| {
                        v.parse::<usize>()
                            .ok()
                            .filter(|&v| v >= 1)
                            .ok_or_else(|| format!("bad --{name} value {v:?} (need >= 1)"))
                    })
                    .transpose()
                    .map(|v| v.unwrap_or(default))
            };
            Ok(Command::Index {
                tree: required(&flags, "tree")?,
                out: flags.get("out").cloned(),
                dim: positive("dim", oct_core::vector::DEFAULT_DIM)?,
                m: positive("m", oct_core::vector::DEFAULT_M)?,
                ef_construction: positive(
                    "ef-construction",
                    oct_core::vector::DEFAULT_EF_CONSTRUCTION,
                )?,
                seed: flags
                    .get("seed")
                    .map(|s| {
                        s.parse::<u64>()
                            .map_err(|_| format!("bad --seed value {s:?}"))
                    })
                    .transpose()?
                    .unwrap_or(oct_core::vector::DEFAULT_SEED),
            })
        }
        "navigate" => {
            let spec = required(&flags, "items")?;
            let mut item_ids: Vec<u32> = Vec::new();
            for part in spec.split(',') {
                let part = part.trim();
                if part.is_empty() {
                    continue;
                }
                item_ids.push(
                    part.parse()
                        .map_err(|_| format!("bad --items entry {part:?}"))?,
                );
            }
            if item_ids.is_empty() {
                return Err("--items needs at least one item id".to_owned());
            }
            let addr = flags.get("addr").cloned();
            let tree = flags.get("tree").cloned();
            if addr.is_some() == tree.is_some() {
                return Err(
                    "navigate needs exactly one of --addr (remote) or --tree (offline)".to_owned(),
                );
            }
            let positive = |name: &str, default: usize| -> Result<usize, String> {
                flags
                    .get(name)
                    .map(|v| {
                        v.parse::<usize>()
                            .ok()
                            .filter(|&v| v >= 1)
                            .ok_or_else(|| format!("bad --{name} value {v:?} (need >= 1)"))
                    })
                    .transpose()
                    .map(|v| v.unwrap_or(default))
            };
            Ok(Command::Navigate {
                items: item_ids,
                k: positive("k", 5)?,
                ef: flags
                    .get("ef")
                    .map(|v| {
                        v.parse::<usize>()
                            .ok()
                            .filter(|&v| v >= 1)
                            .ok_or_else(|| format!("bad --ef value {v:?} (need >= 1)"))
                    })
                    .transpose()?,
                addr,
                tree,
                similarity: similarity(&flags)?,
            })
        }
        "router" => {
            let spec = required(&flags, "shards")?;
            let mut shards: Vec<Vec<String>> = Vec::new();
            for shard in spec.split(';') {
                let replicas: Vec<String> = shard
                    .split(',')
                    .map(str::trim)
                    .filter(|r| !r.is_empty())
                    .map(str::to_owned)
                    .collect();
                if replicas.is_empty() {
                    return Err(format!("--shards has an empty shard in {spec:?}"));
                }
                shards.push(replicas);
            }
            if shards.is_empty() {
                return Err("--shards needs at least one shard".to_owned());
            }
            let positive = |name: &str, default: usize| -> Result<usize, String> {
                flags
                    .get(name)
                    .map(|v| {
                        v.parse::<usize>()
                            .ok()
                            .filter(|&v| v >= 1)
                            .ok_or_else(|| format!("bad --{name} value {v:?} (need >= 1)"))
                    })
                    .transpose()
                    .map(|v| v.unwrap_or(default))
            };
            Ok(Command::Router {
                addr: flags
                    .get("addr")
                    .cloned()
                    .unwrap_or_else(|| "127.0.0.1:7272".to_owned()),
                shards,
                workers: positive("workers", 4)?,
                queue: positive("queue", 64)?,
                attempt_ms: flags
                    .get("attempt-ms")
                    .map(|v| {
                        v.parse::<u64>()
                            .ok()
                            .filter(|&v| v >= 1)
                            .ok_or_else(|| format!("bad --attempt-ms value {v:?} (need >= 1)"))
                    })
                    .transpose()?
                    .unwrap_or(250),
                deadline_ms: deadline_ms(&flags)?,
                metrics: flags.get("metrics").cloned(),
            })
        }
        "chaos" => {
            let spec = required(&flags, "routes")?;
            let mut routes: Vec<(String, String)> = Vec::new();
            for route in spec.split(';') {
                let route = route.trim();
                if route.is_empty() {
                    continue;
                }
                let (listen, upstream) = route
                    .split_once('=')
                    .ok_or_else(|| format!("bad route {route:?} (expected LISTEN=UPSTREAM)"))?;
                let (listen, upstream) = (listen.trim(), upstream.trim());
                if listen.is_empty() || upstream.is_empty() {
                    return Err(format!("bad route {route:?} (expected LISTEN=UPSTREAM)"));
                }
                routes.push((listen.to_owned(), upstream.to_owned()));
            }
            if routes.is_empty() {
                return Err("--routes needs at least one LISTEN=UPSTREAM route".to_owned());
            }
            let profile = flags
                .get("profile")
                .cloned()
                .unwrap_or_else(|| "mixed".to_owned());
            if !matches!(
                profile.as_str(),
                "passthrough" | "delays" | "resets" | "mixed" | "byzantine" | "blackhole"
            ) {
                return Err(format!("unknown chaos profile {profile:?}"));
            }
            let blackhole: Vec<usize> = flags
                .get("blackhole")
                .map(|v| {
                    v.split(',')
                        .map(|i| {
                            i.trim()
                                .parse::<usize>()
                                .ok()
                                .filter(|&i| i < routes.len())
                                .ok_or_else(|| {
                                    format!(
                                        "bad --blackhole index {i:?} (need a route index < {})",
                                        routes.len()
                                    )
                                })
                        })
                        .collect::<Result<Vec<usize>, String>>()
                })
                .transpose()?
                .unwrap_or_default();
            Ok(Command::Chaos {
                routes,
                seed: flags
                    .get("seed")
                    .map(|s| {
                        s.parse::<u64>()
                            .map_err(|_| format!("bad --seed value {s:?}"))
                    })
                    .transpose()?
                    .unwrap_or(42),
                profile,
                blackhole,
                print_plan: flags
                    .get("print-plan")
                    .map(|n| {
                        n.parse::<usize>()
                            .map_err(|_| format!("bad --print-plan value {n:?}"))
                    })
                    .transpose()?
                    .unwrap_or(0),
                plan_only: flags.switch("plan-only"),
            })
        }
        "loadgen" => {
            let positive = |name: &str, default: usize| -> Result<usize, String> {
                flags
                    .get(name)
                    .map(|v| {
                        v.parse::<usize>()
                            .ok()
                            .filter(|&v| v >= 1)
                            .ok_or_else(|| format!("bad --{name} value {v:?} (need >= 1)"))
                    })
                    .transpose()
                    .map(|v| v.unwrap_or(default))
            };
            Ok(Command::Loadgen {
                addr: flags
                    .get("addr")
                    .cloned()
                    .unwrap_or_else(|| "127.0.0.1:7171".to_owned()),
                items: items(&flags)?,
                connections: positive("connections", 4)?,
                requests: positive("requests", 200)?,
                rps: flags
                    .get("rps")
                    .map(|v| {
                        v.parse::<u32>()
                            .ok()
                            .filter(|&v| v >= 1)
                            .ok_or_else(|| format!("bad --rps value {v:?} (need >= 1)"))
                    })
                    .transpose()?,
                zipf: flags
                    .get("zipf")
                    .map(|v| {
                        v.parse::<f64>()
                            .ok()
                            .filter(|&s| s.is_finite() && s > 0.0)
                            .ok_or_else(|| format!("bad --zipf value {v:?} (need > 0)"))
                    })
                    .transpose()?,
                seed: flags
                    .get("seed")
                    .map(|s| {
                        s.parse::<u64>()
                            .map_err(|_| format!("bad --seed value {s:?}"))
                    })
                    .transpose()?
                    .unwrap_or(42),
            })
        }
        "watch" => {
            let positive_usize = |name: &str, default: usize| -> Result<usize, String> {
                flags
                    .get(name)
                    .map(|v| {
                        v.parse::<usize>()
                            .ok()
                            .filter(|&v| v >= 1)
                            .ok_or_else(|| format!("bad --{name} value {v:?} (need >= 1)"))
                    })
                    .transpose()
                    .map(|v| v.unwrap_or(default))
            };
            let addr = flags.get("addr").cloned();
            let out = flags.get("out").cloned();
            if addr.is_some() && out.is_none() {
                return Err("--addr needs --out (the daemon SWAPs the written tree)".to_owned());
            }
            if flags.switch("resume") && !flags.contains_key("checkpoint") {
                return Err("--resume needs --checkpoint".to_owned());
            }
            Ok(Command::Watch {
                log: required(&flags, "log")?,
                items: items(&flags)?,
                similarity: similarity(&flags)?,
                days: positive_usize("days", 30)?,
                batches: positive_usize("batches", 10)?,
                spike_fraction: flags
                    .get("spike-fraction")
                    .map(|f| {
                        f.parse::<f64>()
                            .ok()
                            .filter(|&f| (0.0..=1.0).contains(&f))
                            .ok_or_else(|| {
                                format!("bad --spike-fraction value {f:?} (need [0, 1])")
                            })
                    })
                    .transpose()?
                    .unwrap_or(0.2),
                seed: flags
                    .get("seed")
                    .map(|s| {
                        s.parse::<u64>()
                            .map_err(|_| format!("bad --seed value {s:?}"))
                    })
                    .transpose()?
                    .unwrap_or(42),
                recent_days: positive_usize("recent-days", 14)?,
                min_weight: flags
                    .get("min-weight")
                    .map(|w| {
                        w.parse::<f64>()
                            .ok()
                            .filter(|w| w.is_finite() && *w >= 0.0)
                            .ok_or_else(|| format!("bad --min-weight value {w:?} (need >= 0)"))
                    })
                    .transpose()?
                    .unwrap_or(1.0),
                out,
                addr,
                checkpoint: flags.get("checkpoint").cloned(),
                resume: flags.switch("resume"),
                metrics: flags.get("metrics").cloned(),
                threads: threads(&flags)?,
            })
        }
        other => Err(format!("unknown command {other:?}")),
    }?;
    flags.reject_unread(command)?;
    Ok(parsed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_build() {
        let cmd = parse(&argv(
            "build --log q.tsv --items 100 --variant perfect-recall --delta 0.6 --labels \
             --metrics m.json --threads 4",
        ))
        .expect("valid");
        match cmd {
            Command::Build {
                log,
                items,
                similarity,
                labels,
                no_merge,
                metrics,
                threads,
                ..
            } => {
                assert_eq!(log, "q.tsv");
                assert_eq!(items, 100);
                assert_eq!(similarity.kind, SimilarityKind::PerfectRecall);
                assert_eq!(similarity.delta, 0.6);
                assert!(labels);
                assert!(!no_merge);
                assert_eq!(metrics.as_deref(), Some("m.json"));
                assert_eq!(threads, 4);
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn threads_defaults_to_auto() {
        let cmd = parse(&argv("score --tree t.oct --log q.tsv --items 5")).expect("valid");
        if let Command::Score { threads, .. } = cmd {
            assert_eq!(threads, 0, "0 = auto");
        } else {
            panic!();
        }
        assert!(parse(&argv("score --tree t --log q --items 5 --threads x")).is_err());
    }

    #[test]
    fn parses_resilience_flags() {
        let cmd = parse(&argv(
            "build --log q.tsv --items 5 --deadline-ms 250 --rounds 3 \
             --checkpoint-dir ck --resume",
        ))
        .expect("valid");
        match cmd {
            Command::Build {
                deadline_ms,
                rounds,
                checkpoint_dir,
                resume,
                ..
            } => {
                assert_eq!(deadline_ms, Some(250));
                assert_eq!(rounds, 3);
                assert_eq!(checkpoint_dir.as_deref(), Some("ck"));
                assert!(resume);
            }
            other => panic!("wrong command {other:?}"),
        }
        // Defaults: unlimited, one round, no checkpointing.
        if let Command::Build {
            deadline_ms,
            rounds,
            checkpoint_dir,
            resume,
            ..
        } = parse(&argv("build --log q.tsv --items 5")).expect("valid")
        {
            assert_eq!(deadline_ms, None);
            assert_eq!(rounds, 1);
            assert_eq!(checkpoint_dir, None);
            assert!(!resume);
        } else {
            panic!();
        }
        // 0 is the "already expired" deadline — legal everywhere, meaning
        // every stage takes its degraded path (see Budget::with_deadline_ms).
        if let Command::Build { deadline_ms, .. } =
            parse(&argv("build --log q --items 5 --deadline-ms 0")).expect("0 is legal")
        {
            assert_eq!(deadline_ms, Some(0));
        } else {
            panic!();
        }
        assert!(parse(&argv("build --log q --items 5 --deadline-ms x")).is_err());
        assert!(parse(&argv("build --log q --items 5 --rounds 0")).is_err());
        assert!(parse(&argv("score --tree t --log q --items 5 --deadline-ms 100")).is_ok());
    }

    #[test]
    fn metrics_defaults_off() {
        let cmd = parse(&argv("build --log q.tsv --items 5")).expect("valid");
        if let Command::Build { metrics, .. } = cmd {
            assert_eq!(metrics, None);
        } else {
            panic!();
        }
    }

    #[test]
    fn defaults_apply() {
        let cmd = parse(&argv("build --log q.tsv --items 5")).expect("valid");
        if let Command::Build { similarity, .. } = cmd {
            assert_eq!(similarity.kind, SimilarityKind::JaccardThreshold);
            assert_eq!(similarity.delta, 0.8);
        } else {
            panic!();
        }
    }

    #[test]
    fn exact_defaults_delta_one() {
        let cmd = parse(&argv("build --log q.tsv --items 5 --variant exact")).expect("valid");
        if let Command::Build { similarity, .. } = cmd {
            assert_eq!(similarity.delta, 1.0);
        } else {
            panic!();
        }
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse(&argv("")).is_err());
        assert!(parse(&argv("frobnicate")).is_err());
        assert!(parse(&argv("build --items 5")).is_err(), "missing --log");
        assert!(parse(&argv("build --log q --items x")).is_err());
        assert!(parse(&argv("build --log q --items 5 --variant nope")).is_err());
        assert!(parse(&argv("build --log q --items 5 --variant exact --delta 0.5")).is_err());
        assert!(
            parse(&argv("score --tree t --log q")).is_err(),
            "missing items"
        );
        // A flag or switch the command never reads is named, not ignored.
        assert_eq!(
            parse(&argv("build --log q --items 5 --treads 4")),
            Err("build does not take --treads".to_owned())
        );
        assert_eq!(
            parse(&argv("score --tree t --log q --items 5 --labels")),
            Err("score does not take --labels".to_owned())
        );
        assert_eq!(
            parse(&argv("query --send PING --threads 2")),
            Err("query does not take --threads".to_owned())
        );
    }

    #[test]
    fn parses_dot_and_diff() {
        assert_eq!(
            parse(&argv("dot --tree t.oct --depth 2")).expect("valid"),
            Command::Dot {
                tree: "t.oct".into(),
                depth: 2,
                out: None
            }
        );
        assert_eq!(
            parse(&argv("diff --tree a.oct --against b.oct --items 10")).expect("valid"),
            Command::Diff {
                tree: "a.oct".into(),
                against: "b.oct".into(),
                items: 10
            }
        );
        assert!(parse(&argv("diff --tree a.oct --items 10")).is_err());
    }

    #[test]
    fn parses_serve_and_query() {
        let cmd = parse(&argv(
            "serve --tree t.oct --addr 0.0.0.0:9000 --workers 8 --queue 128 \
             --variant cutoff-jaccard --delta 0.5 --deadline-ms 50 --metrics m.json",
        ))
        .expect("valid");
        match cmd {
            Command::Serve {
                tree,
                addr,
                workers,
                queue,
                similarity,
                deadline_ms,
                metrics,
            } => {
                assert_eq!(tree, "t.oct");
                assert_eq!(addr, "0.0.0.0:9000");
                assert_eq!(workers, 8);
                assert_eq!(queue, 128);
                assert_eq!(similarity.kind, SimilarityKind::JaccardCutoff);
                assert_eq!(deadline_ms, Some(50));
                assert_eq!(metrics.as_deref(), Some("m.json"));
            }
            other => panic!("wrong command {other:?}"),
        }
        // Defaults.
        match parse(&argv("serve --tree t.oct")).expect("valid") {
            Command::Serve {
                addr,
                workers,
                queue,
                deadline_ms,
                ..
            } => {
                assert_eq!(addr, "127.0.0.1:7171");
                assert_eq!(workers, 4);
                assert_eq!(queue, 64);
                assert_eq!(deadline_ms, None);
            }
            other => panic!("wrong command {other:?}"),
        }
        assert!(parse(&argv("serve")).is_err(), "missing --tree");
        assert!(parse(&argv("serve --tree t --workers 0")).is_err());
        assert!(parse(&argv("serve --tree t --queue 0")).is_err());

        assert_eq!(
            parse(&argv("query --send PING")).expect("valid"),
            Command::Query {
                addr: "127.0.0.1:7171".into(),
                send: "PING".into()
            }
        );
        assert!(parse(&argv("query")).is_err(), "missing --send");
    }

    #[test]
    fn parses_router() {
        let cmd = parse(&argv(
            "router --shards 127.0.0.1:1,127.0.0.1:2;127.0.0.1:3 --addr 0.0.0.0:9100 \
             --workers 8 --queue 32 --attempt-ms 100 --deadline-ms 800 --metrics r.json",
        ))
        .expect("valid");
        match cmd {
            Command::Router {
                addr,
                shards,
                workers,
                queue,
                attempt_ms,
                deadline_ms,
                metrics,
            } => {
                assert_eq!(addr, "0.0.0.0:9100");
                assert_eq!(
                    shards,
                    vec![
                        vec!["127.0.0.1:1".to_owned(), "127.0.0.1:2".to_owned()],
                        vec!["127.0.0.1:3".to_owned()],
                    ]
                );
                assert_eq!(workers, 8);
                assert_eq!(queue, 32);
                assert_eq!(attempt_ms, 100);
                assert_eq!(deadline_ms, Some(800));
                assert_eq!(metrics.as_deref(), Some("r.json"));
            }
            other => panic!("wrong command {other:?}"),
        }
        // Defaults: router port, 4 workers, queue 64, 250ms attempts, the
        // router's own overall deadline (None here = keep the default).
        match parse(&argv("router --shards 127.0.0.1:1")).expect("valid") {
            Command::Router {
                addr,
                workers,
                queue,
                attempt_ms,
                deadline_ms,
                ..
            } => {
                assert_eq!(addr, "127.0.0.1:7272");
                assert_eq!(workers, 4);
                assert_eq!(queue, 64);
                assert_eq!(attempt_ms, 250);
                assert_eq!(deadline_ms, None);
            }
            other => panic!("wrong command {other:?}"),
        }
        assert!(parse(&argv("router")).is_err(), "missing --shards");
        assert!(parse(&argv("router --shards ;")).is_err(), "empty shard");
        assert!(parse(&argv("router --shards a --attempt-ms 0")).is_err());
        assert!(parse(&argv("router --shards a --workers 0")).is_err());
    }

    #[test]
    fn parses_loadgen() {
        let cmd = parse(&argv(
            "loadgen --addr 127.0.0.1:9100 --items 500 --connections 8 --requests 50 \
             --rps 400 --zipf 1.1 --seed 7",
        ))
        .expect("valid");
        match cmd {
            Command::Loadgen {
                addr,
                items,
                connections,
                requests,
                rps,
                zipf,
                seed,
            } => {
                assert_eq!(addr, "127.0.0.1:9100");
                assert_eq!(items, 500);
                assert_eq!(connections, 8);
                assert_eq!(requests, 50);
                assert_eq!(rps, Some(400));
                assert_eq!(zipf, Some(1.1));
                assert_eq!(seed, 7);
            }
            other => panic!("wrong command {other:?}"),
        }
        // Defaults: closed loop, uniform keys.
        match parse(&argv("loadgen --items 10")).expect("valid") {
            Command::Loadgen {
                connections,
                requests,
                rps,
                zipf,
                seed,
                ..
            } => {
                assert_eq!(connections, 4);
                assert_eq!(requests, 200);
                assert_eq!(rps, None);
                assert_eq!(zipf, None);
                assert_eq!(seed, 42);
            }
            other => panic!("wrong command {other:?}"),
        }
        assert!(parse(&argv("loadgen")).is_err(), "missing --items");
        assert!(parse(&argv("loadgen --items 10 --rps 0")).is_err());
        assert!(parse(&argv("loadgen --items 10 --zipf -1")).is_err());
        assert!(parse(&argv("loadgen --items 10 --zipf x")).is_err());
    }

    #[test]
    fn parses_chaos() {
        let cmd = parse(&argv(
            "chaos --routes 127.0.0.1:0=127.0.0.1:7171;127.0.0.1:0=127.0.0.1:7172 \
             --seed 7 --profile mixed --blackhole 1 --print-plan 16 --plan-only",
        ))
        .expect("valid");
        match cmd {
            Command::Chaos {
                routes,
                seed,
                profile,
                blackhole,
                print_plan,
                plan_only,
            } => {
                assert_eq!(
                    routes,
                    vec![
                        ("127.0.0.1:0".to_owned(), "127.0.0.1:7171".to_owned()),
                        ("127.0.0.1:0".to_owned(), "127.0.0.1:7172".to_owned()),
                    ]
                );
                assert_eq!(seed, 7);
                assert_eq!(profile, "mixed");
                assert_eq!(blackhole, vec![1]);
                assert_eq!(print_plan, 16);
                assert!(plan_only);
            }
            other => panic!("wrong command {other:?}"),
        }
        // Defaults: seed 42, mixed profile, no black-holes, no printing.
        match parse(&argv("chaos --routes 127.0.0.1:0=127.0.0.1:7171")).expect("valid") {
            Command::Chaos {
                seed,
                profile,
                blackhole,
                print_plan,
                plan_only,
                ..
            } => {
                assert_eq!(seed, 42);
                assert_eq!(profile, "mixed");
                assert!(blackhole.is_empty());
                assert_eq!(print_plan, 0);
                assert!(!plan_only);
            }
            other => panic!("wrong command {other:?}"),
        }
        assert!(parse(&argv("chaos")).is_err(), "missing --routes");
        assert!(parse(&argv("chaos --routes ;")).is_err(), "no routes");
        assert!(
            parse(&argv("chaos --routes 127.0.0.1:0")).is_err(),
            "missing '='"
        );
        assert!(
            parse(&argv("chaos --routes a=b --profile nope")).is_err(),
            "unknown profile"
        );
        assert!(
            parse(&argv("chaos --routes a=b --blackhole 1")).is_err(),
            "blackhole index out of range"
        );
    }

    #[test]
    fn parses_watch() {
        let cmd = parse(&argv(
            "watch --log q.tsv --items 200 --days 60 --batches 12 --spike-fraction 0.3 \
             --seed 7 --recent-days 10 --min-weight 2.5 --out t.oct --addr 127.0.0.1:7171 \
             --checkpoint s.ckpt --resume --metrics m.json --threads 2",
        ))
        .expect("valid");
        match cmd {
            Command::Watch {
                log,
                items,
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
                ..
            } => {
                assert_eq!(log, "q.tsv");
                assert_eq!(items, 200);
                assert_eq!(days, 60);
                assert_eq!(batches, 12);
                assert_eq!(spike_fraction, 0.3);
                assert_eq!(seed, 7);
                assert_eq!(recent_days, 10);
                assert_eq!(min_weight, 2.5);
                assert_eq!(out.as_deref(), Some("t.oct"));
                assert_eq!(addr.as_deref(), Some("127.0.0.1:7171"));
                assert_eq!(checkpoint.as_deref(), Some("s.ckpt"));
                assert!(resume);
                assert_eq!(metrics.as_deref(), Some("m.json"));
                assert_eq!(threads, 2);
            }
            other => panic!("wrong command {other:?}"),
        }
        // Defaults.
        match parse(&argv("watch --log q.tsv --items 5")).expect("valid") {
            Command::Watch {
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
                ..
            } => {
                assert_eq!(days, 30);
                assert_eq!(batches, 10);
                assert_eq!(spike_fraction, 0.2);
                assert_eq!(seed, 42);
                assert_eq!(recent_days, 14);
                assert_eq!(min_weight, 1.0);
                assert_eq!(out, None);
                assert_eq!(addr, None);
                assert_eq!(checkpoint, None);
                assert!(!resume);
            }
            other => panic!("wrong command {other:?}"),
        }
        assert!(parse(&argv("watch --items 5")).is_err(), "missing --log");
        assert!(parse(&argv("watch --log q --items 5 --batches 0")).is_err());
        assert!(parse(&argv("watch --log q --items 5 --spike-fraction 2")).is_err());
        assert!(
            parse(&argv("watch --log q --items 5 --addr 127.0.0.1:1")).is_err(),
            "--addr without --out"
        );
        assert!(
            parse(&argv("watch --log q --items 5 --resume")).is_err(),
            "--resume without --checkpoint"
        );
    }

    #[test]
    fn parses_inspect_and_export() {
        assert_eq!(
            parse(&argv("inspect --tree t.oct --depth 5")).expect("valid"),
            Command::Inspect {
                tree: "t.oct".into(),
                depth: 5
            }
        );
        assert_eq!(
            parse(&argv("export --dataset A --scale 0.1")).expect("valid"),
            Command::Export {
                dataset: "A".into(),
                scale: 0.1,
                out: None
            }
        );
    }

    #[test]
    fn parses_index() {
        let cmd = parse(&argv("index --tree t.oct --dim 32 --seed 7")).expect("valid");
        match cmd {
            Command::Index {
                tree,
                out,
                dim,
                m,
                ef_construction,
                seed,
            } => {
                assert_eq!(tree, "t.oct");
                assert_eq!(out, None, "default output is derived from the tree path");
                assert_eq!(dim, 32);
                assert_eq!(m, oct_core::vector::DEFAULT_M);
                assert_eq!(ef_construction, oct_core::vector::DEFAULT_EF_CONSTRUCTION);
                assert_eq!(seed, 7);
            }
            other => panic!("wrong command {other:?}"),
        }
        assert!(parse(&argv("index --dim 64")).is_err(), "missing --tree");
        assert!(parse(&argv("index --tree t --dim 0")).is_err(), "dim >= 1");
    }

    #[test]
    fn parses_navigate() {
        let cmd = parse(&argv("navigate --items 3,1,2 --k 4 --ef 16 --tree t.oct")).expect("valid");
        match cmd {
            Command::Navigate {
                items,
                k,
                ef,
                addr,
                tree,
                ..
            } => {
                assert_eq!(items, vec![3, 1, 2], "order is preserved verbatim");
                assert_eq!(k, 4);
                assert_eq!(ef, Some(16));
                assert_eq!(addr, None);
                assert_eq!(tree.as_deref(), Some("t.oct"));
            }
            other => panic!("wrong command {other:?}"),
        }
        let cmd = parse(&argv("navigate --items 9 --addr 127.0.0.1:7171")).expect("valid");
        match cmd {
            Command::Navigate { k, ef, addr, .. } => {
                assert_eq!(k, 5, "default top-k");
                assert_eq!(ef, None, "server picks its own default beam");
                assert_eq!(addr.as_deref(), Some("127.0.0.1:7171"));
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn navigate_requires_exactly_one_target() {
        assert!(parse(&argv("navigate --items 1,2")).is_err(), "no target");
        assert!(
            parse(&argv("navigate --items 1,2 --addr a:1 --tree t")).is_err(),
            "both targets"
        );
        assert!(
            parse(&argv("navigate --addr a:1")).is_err(),
            "missing --items"
        );
        assert!(
            parse(&argv("navigate --items 1,x --addr a:1")).is_err(),
            "bad item id"
        );
        assert!(
            parse(&argv("navigate --items 1 --k 0 --addr a:1")).is_err(),
            "k must be positive"
        );
        assert!(
            parse(&argv("navigate --items 1 --ef 0 --addr a:1")).is_err(),
            "ef must be positive"
        );
    }
}
