//! The serving daemon: a [`Service`] that answers point queries against
//! a hot-swappable tree snapshot, run by the lifecycle in [`crate::daemon`]
//! that `oct-router` shares. Per request it loads the snapshot once
//! (hot-swap safe) and runs the cover under the request's budget (slow ⇒
//! degraded cover) inside `run_isolated`.
//!
//! A cover is a pure function of (snapshot, request), so a contained panic
//! would recur on a retry: it is answered with `ERR internal` at once, and
//! the connection goes on to its next request. Failover to another
//! replica lives in the shard router, where failures are transient.
//!
//! # Drain
//!
//! Drain is the shared lifecycle's (see [`crate::daemon`]): admission
//! stops, queued and in-flight requests are answered, stragglers past the
//! grace period answer degraded, and the metrics are flushed as a
//! [`PipelineReport`].

use std::io;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use oct_core::{persist, Similarity};
use oct_obs::{Counter, Metrics, PipelineReport};
use oct_resilience::{run_isolated, Budget};

use crate::daemon::{Daemon, DrainHandle, Service, Settings};
use crate::protocol::{ErrorCode, Request, Response};
use crate::swap::{ServingTree, TreeHandle};

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:7171` (port 0 picks a free port).
    pub addr: String,
    /// Worker threads — the in-flight concurrency limit.
    pub workers: usize,
    /// Admission-queue capacity; connections beyond `workers + capacity`
    /// are shed with a typed `OVERLOADED` response.
    pub queue_capacity: usize,
    /// Per-request deadline; `Some(0)` serves everything fully degraded,
    /// `None` means unlimited (the drain token still bounds requests).
    pub deadline_ms: Option<u64>,
    /// Similarity variant queries are scored under.
    pub similarity: Similarity,
    /// How long drain waits for in-flight work before cancelling it.
    pub drain_grace: Duration,
    /// Slowloris guard: cap on the *cumulative* time a connection may
    /// take to deliver its next complete request line. The per-read
    /// timeout resets on every dribbled byte; this deadline does not, so
    /// a client feeding one byte per poll is disconnected (silently — an
    /// unsolicited error line would desync pipelined peers) once the cap
    /// elapses.
    pub idle_timeout: Duration,
    /// Byzantine-client guard: requests served per connection before a
    /// courteous close (the response in hand is always written first).
    /// `0` means unlimited.
    pub max_requests: usize,
    /// Metrics sink (pass [`Metrics::disabled`] to opt out).
    pub metrics: Metrics,
    /// Where to write the final [`PipelineReport`] JSON on exit.
    pub metrics_out: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_owned(),
            workers: 4,
            queue_capacity: 64,
            deadline_ms: Some(250),
            similarity: Similarity::jaccard_cutoff(0.5),
            drain_grace: Duration::from_secs(5),
            idle_timeout: Duration::from_secs(30),
            max_requests: 10_000,
            metrics: Metrics::disabled(),
            metrics_out: None,
        }
    }
}

impl ServeConfig {
    fn settings(&self) -> Settings {
        Settings {
            addr: self.addr.clone(),
            workers: self.workers,
            queue_capacity: self.queue_capacity,
            deadline_ms: self.deadline_ms,
            drain_grace: self.drain_grace,
            idle_timeout: self.idle_timeout,
            max_requests: self.max_requests,
            metrics: self.metrics.clone(),
            metrics_out: self.metrics_out.clone(),
        }
    }
}

/// The serving daemon's own state: the tree snapshot and its counters.
struct Backend {
    trees: TreeHandle,
    metrics: Metrics,
    /// `serve/scoped`: shard-scoped sub-queries (router fan-out).
    scoped: Counter,
    /// Sticky: latched the first time any answer is served degraded, and
    /// reported in `STATS` so health probes can spot a limping replica.
    served_degraded: AtomicBool,
}

impl Backend {
    fn new(config: &ServeConfig, initial: ServingTree) -> Self {
        Self {
            trees: TreeHandle::new(initial, config.similarity),
            metrics: config.metrics.clone(),
            scoped: config.metrics.counter("serve/scoped"),
            served_degraded: AtomicBool::new(false),
        }
    }
}

/// A bound, not-yet-running server. [`Server::run`] blocks until drain.
pub struct Server {
    daemon: Daemon<Backend>,
}

impl Server {
    /// Binds the listener and prepares the shared state. The initial tree
    /// snapshot must already be built (epoch 0 by convention).
    pub fn bind(config: ServeConfig, initial: ServingTree) -> io::Result<Self> {
        let daemon = Daemon::bind(config.settings(), Backend::new(&config, initial))?;
        Ok(Self { daemon })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.daemon.local_addr()
    }

    /// A handle that can trigger graceful drain from another thread.
    pub fn drain_handle(&self) -> DrainHandle {
        self.daemon.drain_handle()
    }

    /// Runs accept → serve → drain to completion and returns the final
    /// metrics report (already written to `metrics_out` if configured).
    pub fn run(self) -> io::Result<PipelineReport> {
        self.daemon.run()
    }
}

impl Service for Backend {
    const NAME: &'static str = "serve";

    /// Dispatches one parsed request against the *current* tree snapshot.
    fn handle(&self, request: Request, budget: Budget) -> Response {
        // Load once per request: a swap published mid-request never tears
        // this snapshot, and the next request on the same connection sees
        // the new epoch.
        let snapshot = self.trees.load();
        match request {
            Request::Ping => Response::Pong {
                epoch: snapshot.epoch,
            },
            Request::Categorize { items, shard } => {
                count_scoped(self, shard);
                cover(self, &snapshot, &items, true, &budget)
            }
            Request::Score { items, shard } => {
                count_scoped(self, shard);
                cover(self, &snapshot, &items, false, &budget)
            }
            Request::NavigateTopK { k, items, ef } => {
                if k == 0 {
                    return Response::Error {
                        code: ErrorCode::BadRequest,
                        message: "top-k count must be positive".to_owned(),
                    };
                }
                navigate_topk(self, &snapshot, k, &items, ef, &budget)
            }
            Request::Navigate { cat } => match snapshot.live_children(cat) {
                Some(children) => Response::Nav { cat, children },
                None => Response::Error {
                    code: ErrorCode::BadRequest,
                    message: format!("unknown or removed category {cat}"),
                },
            },
            Request::Stats => Response::Stats {
                epoch: snapshot.epoch,
                categories: snapshot.stats.categories,
                max_depth: snapshot.stats.max_depth,
                items: snapshot.index.num_items(),
                degraded: self.served_degraded.load(Ordering::Relaxed),
            },
            Request::Swap { path } => swap_tree(self, &path),
            Request::Shutdown => unreachable!("the daemon lifecycle answers SHUTDOWN"),
        }
    }
}

/// Counts shard-scoped sub-queries (router fan-out) under `serve/scoped`;
/// the scope tag does not change the computation. One counter for every
/// shard id, so client-chosen ids cannot grow the metric set.
fn count_scoped(backend: &Backend, shard: Option<u32>) {
    if shard.is_some() {
        backend.scoped.incr();
    }
}

/// The cover scan, isolated by [`answer_isolated`].
fn cover(
    backend: &Backend,
    snapshot: &ServingTree,
    items: &[u32],
    with_label: bool,
    budget: &Budget,
) -> Response {
    answer_isolated(backend, "serve request", || {
        let point = snapshot
            .index
            .best_cover(items, &backend.trees.similarity, budget);
        note_degraded(backend, point.degraded);
        let label = if with_label {
            point
                .best_category
                .and_then(|cat| snapshot.tree.label(cat))
                .map(str::to_owned)
        } else {
            None
        };
        Response::Cover {
            epoch: snapshot.epoch,
            cat: point.best_category,
            similarity: point.similarity,
            precision: point.precision,
            covered: point.covered,
            degraded: point.degraded,
            missing: Vec::new(),
            label,
        }
    })
}

/// The top-k NAVIGATE path: same isolation as [`cover`], with the shared
/// narrow-then-rerank policy of [`oct_core::PointIndex::navigate`].
fn navigate_topk(
    backend: &Backend,
    snapshot: &ServingTree,
    k: usize,
    items: &[u32],
    ef: Option<usize>,
    budget: &Budget,
) -> Response {
    answer_isolated(backend, "serve topk", || {
        let answer = snapshot.index.navigate(
            &snapshot.ann,
            items,
            k,
            ef,
            &backend.trees.similarity,
            budget,
        );
        note_degraded(backend, answer.degraded);
        Response::TopK {
            epoch: snapshot.epoch,
            k,
            ef: answer.ef,
            degraded: answer.degraded,
            results: answer
                .covers
                .iter()
                .map(|r| (r.cat, r.similarity))
                .collect(),
        }
    })
}

/// Runs one request's computation under [`run_isolated`]. A contained
/// panic is answered with `ERR internal` and counted under
/// `serve/failures`; the worker and its connection keep serving.
fn answer_isolated(
    backend: &Backend,
    context: &'static str,
    compute: impl FnOnce() -> Response,
) -> Response {
    run_isolated(context, compute).unwrap_or_else(|e| {
        backend.metrics.incr("serve/failures");
        Response::Error {
            code: ErrorCode::Internal,
            message: e.to_string(),
        }
    })
}

/// Counts a degraded answer and latches the sticky `STATS` flag.
fn note_degraded(backend: &Backend, degraded: bool) {
    if degraded {
        backend.metrics.incr("serve/degraded");
        backend.served_degraded.store(true, Ordering::Relaxed);
    }
}

/// Hot swap: load + decode + index a tree file off the request path, then
/// publish it atomically.
///
/// Every failure path — unreadable file, undecodable bytes, a panic while
/// indexing the decoded tree — leaves the serving state untouched: the
/// epoch does not advance, `serve/swaps` counts only *published* swaps
/// (failures land under `serve/swap_failed`), and the old tree keeps
/// serving.
fn swap_tree(backend: &Backend, path: &str) -> Response {
    let fail = |message: String| {
        backend.metrics.incr("serve/swap_failed");
        Response::Error {
            code: ErrorCode::BadRequest,
            message,
        }
    };
    let raw = match std::fs::read(path) {
        Ok(raw) => raw,
        Err(e) => return fail(format!("cannot read {path}: {e}")),
    };
    let tree = match persist::decode_tree(bytes::Bytes::from(raw)) {
        Ok(tree) => tree,
        Err(e) => return fail(format!("cannot decode {path}: {e}")),
    };
    let num_items = backend.trees.load().index.num_items();
    // Building the point index walks the decoded tree; isolate it so a
    // pathological-but-decodable file cannot kill the worker or publish a
    // half-built snapshot.
    let next = match run_isolated("swap build", || {
        ServingTree::build(tree, num_items, 0, path)
    }) {
        Ok(next) => next,
        Err(e) => return fail(format!("cannot index {path}: {e}")),
    };
    let published = backend.trees.swap(next);
    backend.metrics.incr("serve/swaps");
    Response::Swapped {
        epoch: published.epoch,
        categories: published.stats.categories,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use oct_core::{CategoryTree, ROOT};

    /// No request makes the cover computation panic, so this service runs
    /// a panicking closure through [`answer_isolated`] for `SCORE` and
    /// serves everything else through the backend.
    struct PanicOnScore(Backend);

    impl Service for PanicOnScore {
        const NAME: &'static str = "serve";

        fn handle(&self, request: Request, budget: Budget) -> Response {
            match request {
                Request::Score { .. } => {
                    answer_isolated(&self.0, "serve request", || panic!("cover bug"))
                }
                other => self.0.handle(other, budget),
            }
        }
    }

    #[test]
    fn panicking_computation_answers_err_internal_and_the_connection_keeps_serving() {
        let mut tree = CategoryTree::new();
        let cat = tree.add_category(ROOT);
        tree.assign_items(cat, [0, 1, 2]);
        let config = ServeConfig {
            metrics: Metrics::enabled(),
            ..ServeConfig::default()
        };
        let backend = Backend::new(&config, ServingTree::build(tree, 8, 0, "test"));
        let daemon = Daemon::bind(config.settings(), PanicOnScore(backend)).expect("bind");
        let addr = daemon.local_addr().expect("addr");
        let drain = daemon.drain_handle();
        let serving = std::thread::spawn(move || daemon.run());

        let mut client = Client::connect(addr, Duration::from_secs(5)).expect("connect");
        let items = vec![0, 1];
        let score = Request::Score {
            items: items.clone(),
            shard: None,
        };
        match client.request(&score).expect("io ok") {
            Response::Error { code, message } => {
                assert_eq!(code, ErrorCode::Internal);
                assert_eq!(message, "worker panicked in serve request: cover bug");
            }
            other => panic!("expected ERR internal, got {other:?}"),
        }
        // Same connection, next request: served for real.
        match client
            .request(&Request::Categorize { items, shard: None })
            .expect("connection still open")
        {
            Response::Cover {
                cat: got, covered, ..
            } => {
                assert_eq!(got, Some(cat));
                assert!(covered);
            }
            other => panic!("expected a cover, got {other:?}"),
        }
        drop(client);
        drain.drain();
        let report = serving.join().expect("no unwind").expect("clean drain");
        assert_eq!(report.counter("serve/failures"), Some(1));
        assert_eq!(report.counter("serve/requests"), Some(2));
    }
}
