//! The router daemon: a fault-tolerant scatter-gather front-end over a
//! sharded, replicated `oct-serve` fleet.
//!
//! # Request lifecycle
//!
//! ```text
//! accept ─▶ admission (BoundedQueue, typed OVERLOADED shed — same as oct-serve)
//!              ▼
//!           worker pops connection ─▶ oct-serve's serve_connection
//!           (answers buffered per read chunk); per request line, on the
//!           worker's own thread:
//!              CATEGORIZE/SCORE ─▶ partition items by shard (consistent hash)
//!                 │  per owning shard: candidates = replicas in rendezvous
//!                 │  order, newest-epoch Up/Suspect first; the first one
//!                 │  whose health machine admits it gets the sub-request,
//!                 │  written on a pooled or newly dialled connection
//!                 ▼
//!              read the answers in shard order, each by an absolute
//!              deadline; a failed attempt, or one past its hedge deadline
//!              while another candidate exists, drops its connection and
//!              goes to the next candidate; none left ⇒ shard missing
//!                 ▼
//!              deterministic merge; dead shards ⇒ typed PARTIAL marker
//! ```
//!
//! The router starts threads only for its workers and its prober: no
//! request spawns one.
//!
//! # Degradation contract
//!
//! The router never invents an error when *any* owning shard can answer:
//! a fleet with a dead shard yields `partial=1 missing=<ids>` covers that
//! are a deterministic merge of the survivors — for a fixed set of live
//! shards, repeated identical queries produce byte-identical lines. Once
//! every replica of every owning shard is unreachable the request fails
//! with a typed `ERR unavailable`.
//!
//! A background probe loop (`STATS` per replica) drives each replica's
//! health machine Up→Suspect→Down→Probing and re-admits recovered
//! replicas; probes also observe tree epochs, so after a partial `SWAP`
//! the router prefers replicas serving the newest epoch a shard has.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use oct_obs::{Counter, Histogram, Metrics, PipelineReport};
use oct_resilience::{Budget, CancelToken};
use oct_serve::queue::{BoundedQueue, Push};
use oct_serve::server::{reject, serve_connection, ConnectionPolicy};
use oct_serve::{ErrorCode, Request, Response};

use crate::health::HealthConfig;
use crate::merge::{merge_covers, SubCover};
use crate::replica::{Attempt, Miss, Replica};
use crate::shard::{rendezvous_order, request_key, ShardMap};

/// Worker queue-pop poll interval (drain responsiveness).
const POP_INTERVAL: Duration = Duration::from_millis(25);
/// Accept-loop poll interval when no connection is pending.
const ACCEPT_INTERVAL: Duration = Duration::from_millis(5);
/// `SWAP` fan-out allows this many attempt-timeouts per replica (a swap
/// loads and indexes a tree file; it is not a point query).
const SWAP_TIMEOUT_FACTOR: u32 = 8;

/// Router tuning knobs.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Bind address (port 0 picks a free port).
    pub addr: String,
    /// Worker threads — concurrent client connections being served.
    pub workers: usize,
    /// Admission-queue capacity (typed `OVERLOADED` beyond it).
    pub queue_capacity: usize,
    /// Per-attempt sub-request timeout (connect + read, one replica).
    pub attempt_timeout: Duration,
    /// Overall per-client-request deadline; `None` = unlimited (drain
    /// still bounds it).
    pub deadline_ms: Option<u64>,
    /// Per-replica health-machine thresholds.
    pub health: HealthConfig,
    /// Cadence of the background health-probe loop.
    pub probe_interval: Duration,
    /// Timeout for one health probe.
    pub probe_timeout: Duration,
    /// How long drain waits for in-flight work before cancelling it.
    pub drain_grace: Duration,
    /// Slowloris guard: cap on the cumulative time a client connection
    /// may take to deliver its next complete request line (the socket
    /// read timeout resets per dribbled byte; this deadline does not).
    pub idle_timeout: Duration,
    /// Requests served per client connection before a courteous close
    /// (`0` = unlimited).
    pub max_requests: usize,
    /// Metrics sink (pass [`Metrics::disabled`] to opt out).
    pub metrics: Metrics,
    /// Where to write the final [`PipelineReport`] JSON on exit.
    pub metrics_out: Option<PathBuf>,
    /// The fleet: `shards[s]` lists the replica addresses of shard `s`.
    pub shards: Vec<Vec<String>>,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_owned(),
            workers: 4,
            queue_capacity: 64,
            attempt_timeout: Duration::from_millis(250),
            deadline_ms: Some(1000),
            health: HealthConfig::default(),
            probe_interval: Duration::from_millis(100),
            probe_timeout: Duration::from_millis(100),
            drain_grace: Duration::from_secs(5),
            idle_timeout: Duration::from_secs(30),
            max_requests: 10_000,
            metrics: Metrics::disabled(),
            metrics_out: None,
            shards: Vec::new(),
        }
    }
}

/// The fleet as the router sees it: the item→shard ring plus per-shard
/// replica lists.
struct Topology {
    map: ShardMap,
    shards: Vec<Vec<Replica>>,
}

impl Topology {
    fn all(&self) -> impl Iterator<Item = &Replica> {
        self.shards.iter().flatten()
    }

    /// The newest epoch any replica of `shard` has been observed serving.
    fn shard_epoch(&self, shard: usize) -> u64 {
        self.shards[shard]
            .iter()
            .map(|r| r.health.epoch())
            .max()
            .unwrap_or(0)
    }

    /// The fleet consistency floor: the minimum over shards of each
    /// shard's best-known epoch.
    fn fleet_epoch(&self) -> u64 {
        (0..self.shards.len())
            .map(|s| self.shard_epoch(s))
            .min()
            .unwrap_or(0)
    }
}

struct Shared {
    config: RouterConfig,
    topology: Topology,
    queue: BoundedQueue<TcpStream>,
    metrics: Metrics,
    connections: ConnectionPolicy,
    shutdown: AtomicBool,
    drain_token: CancelToken,
    in_flight: AtomicUsize,
    counts: RouterMetrics,
    /// Sticky: latched the first time any cover was served partial, and
    /// reported via `STATS degraded=1` (mirrors the backend's sticky
    /// degraded flag) so one probe spots a router that has been limping.
    served_partial: AtomicBool,
}

/// The routed path's metrics, looked up once so a request takes no
/// metrics lock and formats no name.
struct RouterMetrics {
    /// Covers served with a `partial=1` marker.
    partial: Counter,
    /// Attempts given up at their hedge deadline for the next candidate.
    hedges: Counter,
    /// Sub-requests sent to the next candidate after a failed attempt.
    failovers: Counter,
    /// Whole cover fan-outs, scatter to merge.
    fanout_latency: Histogram,
}

impl RouterMetrics {
    fn new(metrics: &Metrics) -> Self {
        Self {
            partial: metrics.counter("router/partial"),
            hedges: metrics.counter("router/hedges"),
            failovers: metrics.counter("router/failovers"),
            fanout_latency: metrics.histogram("router/fanout_latency"),
        }
    }
}

impl Shared {
    fn draining(&self) -> bool {
        // The process-global signal flag is OR'd in (same contract as the
        // backend) so the CLI's SIGTERM wiring drains the router too.
        self.shutdown.load(Ordering::Relaxed) || oct_serve::signal::shutdown_requested()
    }

    fn request_drain(&self) {
        self.shutdown.store(true, Ordering::Relaxed);
    }

    fn request_budget(&self) -> Budget {
        let deadline = self.config.deadline_ms.map(Duration::from_millis);
        Budget::with_deadline_and_token(deadline, self.drain_token.clone())
    }
}

/// A bound, not-yet-running router. [`Router::run`] blocks until drain.
pub struct Router {
    listener: TcpListener,
    shared: Arc<Shared>,
}

/// Triggers graceful drain from another thread (signal wiring, tests).
#[derive(Clone)]
pub struct DrainHandle {
    shared: Arc<Shared>,
}

impl DrainHandle {
    /// Begins graceful drain, as if `SHUTDOWN` had arrived.
    pub fn drain(&self) {
        self.shared.request_drain();
    }
}

impl Router {
    /// Binds the listener and builds the replica fleet from
    /// [`RouterConfig::shards`].
    ///
    /// # Errors
    /// `InvalidInput` when the shard map is empty or any shard has no
    /// replicas; otherwise socket errors from binding.
    pub fn bind(config: RouterConfig) -> io::Result<Self> {
        if config.shards.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "router needs at least one shard",
            ));
        }
        if let Some(empty) = config.shards.iter().position(Vec::is_empty) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("shard {empty} has no replicas"),
            ));
        }
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let topology = Topology {
            map: ShardMap::new(config.shards.len()),
            shards: config
                .shards
                .iter()
                .map(|replicas| {
                    replicas
                        .iter()
                        .map(|addr| {
                            Replica::new(addr.clone(), config.health.clone(), &config.metrics)
                        })
                        .collect()
                })
                .collect(),
        };
        let shared = Arc::new(Shared {
            queue: BoundedQueue::new(config.queue_capacity),
            metrics: config.metrics.clone(),
            connections: ConnectionPolicy::new(
                &config.metrics,
                "router",
                config.idle_timeout,
                config.max_requests,
            ),
            topology,
            shutdown: AtomicBool::new(false),
            drain_token: CancelToken::new(),
            in_flight: AtomicUsize::new(0),
            counts: RouterMetrics::new(&config.metrics),
            served_partial: AtomicBool::new(false),
            config,
        });
        Ok(Self { listener, shared })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that can trigger graceful drain from another thread.
    pub fn drain_handle(&self) -> DrainHandle {
        DrainHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Runs accept → scatter-gather → drain to completion, closes every
    /// pooled backend connection, and returns the final metrics report
    /// (written to `metrics_out` if configured).
    pub fn run(self) -> io::Result<PipelineReport> {
        let Self { listener, shared } = self;
        let workers: Vec<_> = (0..shared.config.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("oct-router-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker")
            })
            .collect();
        let prober = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("oct-router-prober".to_owned())
                .spawn(move || probe_loop(&shared))
                .expect("spawn prober")
        };

        while !shared.draining() {
            match listener.accept() {
                Ok((conn, _peer)) => {
                    shared.metrics.incr("router/accepted");
                    let _ = conn.set_nodelay(true);
                    admit(&shared, conn);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    thread::sleep(ACCEPT_INTERVAL);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
            shared
                .metrics
                .gauge("router/queue_depth", shared.queue.len() as f64);
        }

        shared.queue.close();
        let grace_end = Instant::now() + shared.config.drain_grace;
        while (shared.in_flight.load(Ordering::Relaxed) > 0 || !shared.queue.is_empty())
            && Instant::now() < grace_end
        {
            thread::sleep(Duration::from_millis(5));
        }
        shared.drain_token.cancel();
        for w in workers {
            let _ = w.join();
        }
        let _ = prober.join();
        // A live `DrainHandle` keeps the replicas alive; their idle pooled
        // connections must not keep holding backend workers.
        for replica in shared.topology.all() {
            replica.empty_pool();
        }

        let report = shared.metrics.report();
        if let Some(path) = &shared.config.metrics_out {
            std::fs::write(path, report.to_json())?;
        }
        Ok(report)
    }
}

/// The active health-probe loop: every `probe_interval`, one `STATS`
/// probe per replica (the machine itself limits Down replicas to a
/// single prober per cooldown).
fn probe_loop(shared: &Shared) {
    while !shared.draining() {
        for replica in shared.topology.all() {
            replica.probe(shared.config.probe_timeout);
        }
        thread::sleep(shared.config.probe_interval);
    }
}

fn admit(shared: &Shared, conn: TcpStream) {
    match shared.queue.try_push(conn) {
        Push::Ok => {}
        Push::Full(conn, depth) => {
            shared.metrics.incr("router/shed");
            reject(conn, Response::Overloaded { queue_depth: depth });
        }
        Push::Closed(conn) => reject(
            conn,
            Response::Error {
                code: ErrorCode::Unavailable,
                message: "draining".to_owned(),
            },
        ),
    }
}

/// Serves each popped connection through the backend's own loop
/// (`oct_serve::server::serve_connection`): same framing, 1 MiB line cap,
/// pipelined replies, idle budget, request cap, drain close, and an idle
/// answered connection giving way to one waiting in the queue.
fn worker_loop(shared: &Shared) {
    loop {
        match shared.queue.pop_timeout(POP_INTERVAL) {
            Some(conn) => {
                shared.in_flight.fetch_add(1, Ordering::Relaxed);
                let _ = serve_connection(
                    conn,
                    &shared.connections,
                    || shared.draining(),
                    || !shared.queue.is_empty(),
                    |request| handle_request(shared, request),
                );
                shared.in_flight.fetch_sub(1, Ordering::Relaxed);
            }
            None if shared.queue.is_closed() => return,
            None => {}
        }
    }
}

fn handle_request(shared: &Shared, request: Request) -> Response {
    match request {
        // Router PING answers locally: it is the *router's* liveness, and
        // the epoch is the fleet floor the probe loop has observed.
        Request::Ping => Response::Pong {
            epoch: shared.topology.fleet_epoch(),
        },
        Request::Categorize { items, .. } => fanout_cover(shared, &items, true),
        Request::Score { items, .. } => fanout_cover(shared, &items, false),
        Request::Navigate { cat } => navigate(shared, cat),
        Request::NavigateTopK { k, items, ef } => navigate_topk(shared, k, items, ef),
        Request::Stats => fanout_stats(shared),
        Request::Swap { path } => broadcast_swap(shared, &path),
        Request::Shutdown => {
            shared.request_drain();
            Response::Draining
        }
    }
}

/// Scatter a cover query across the owning shards, gather, merge.
fn fanout_cover(shared: &Shared, items: &[u32], with_label: bool) -> Response {
    let started = Instant::now();
    let parts = shared.topology.map.partition(items);
    if parts.is_empty() {
        // No items ⇒ no owning shards: the canonical empty cover, same
        // shape a single backend gives an empty query.
        return Response::Cover {
            epoch: shared.topology.fleet_epoch(),
            cat: None,
            similarity: 0.0,
            precision: 1.0,
            covered: false,
            degraded: false,
            missing: Vec::new(),
            label: None,
        };
    }
    let shards: Vec<u32> = parts.iter().map(|(shard, _)| *shard).collect();
    let calls = parts
        .into_iter()
        .map(|(shard, slice)| {
            let key = request_key(&slice);
            let sub = if with_label {
                Request::Categorize {
                    items: slice,
                    shard: Some(shard),
                }
            } else {
                Request::Score {
                    items: slice,
                    shard: Some(shard),
                }
            };
            shard_call(shared, shard, key, sub)
        })
        .collect();
    let mut subs = Vec::new();
    let mut missing = Vec::new();
    for (shard, answer) in shards.into_iter().zip(gather(shared, calls)) {
        match answer
            .ok()
            .and_then(|resp| SubCover::from_response(shard, &resp))
        {
            Some(sub) => subs.push(sub),
            None => missing.push(shard),
        }
    }
    let merged = merge_covers(&subs, missing);
    if merged.is_partial() {
        shared.counts.partial.incr();
        shared.served_partial.store(true, Ordering::Relaxed);
    }
    shared.counts.fanout_latency.observe(started.elapsed());
    merged
}

/// `NAVIGATE` needs no scatter — every replica serves the full tree — so
/// it goes to the whole-fleet rendezvous choice for the category key.
fn navigate(shared: &Shared, cat: u32) -> Response {
    whole_fleet(
        shared,
        u64::from(cat) ^ 0x5851_F42D_4C95_7F2D,
        Request::Navigate { cat },
    )
}

/// Top-k `NAVIGATE` is whole-tree like the browse form: any replica can
/// answer for the full fleet (the ANN index is seed-deterministic, so all
/// replicas rank identically). Rendezvous on the query key spreads distinct
/// queries across the fleet while keeping each query's home stable.
fn navigate_topk(shared: &Shared, k: usize, items: Vec<u32>, ef: Option<usize>) -> Response {
    let key = request_key(&items) ^ (k as u64).wrapping_mul(0x5851_F42D_4C95_7F2D);
    whole_fleet(shared, key, Request::NavigateTopK { k, items, ef })
}

/// One request any replica of the fleet can answer, failing over across
/// the whole fleet in rendezvous order for `key`.
fn whole_fleet(shared: &Shared, key: u64, request: Request) -> Response {
    let replicas: Vec<&Replica> = shared.topology.all().collect();
    let order = rendezvous_order(replicas.len(), key);
    let call = Call::new(order.into_iter().map(|i| replicas[i]), request);
    match gather(shared, vec![call]).swap_remove(0) {
        Ok(resp) => resp,
        Err(message) => Response::Error {
            code: ErrorCode::Unavailable,
            message,
        },
    }
}

/// Fleet `STATS`: every shard is asked (rendezvous per shard); the merged
/// answer reports the minimum epoch (consistency floor) and a degraded
/// flag that ORs backend degradation, unreachable shards, and the
/// router's own sticky partial latch.
fn fanout_stats(shared: &Shared) -> Response {
    let calls = (0..shared.topology.shards.len() as u32)
        .map(|shard| {
            let key = 0x9E37_79B9 ^ u64::from(shard);
            shard_call(shared, shard, key, Request::Stats)
        })
        .collect();
    let mut merged: Option<(u64, usize, usize, u32)> = None;
    let mut any_degraded = false;
    let mut unreachable = 0usize;
    for answer in gather(shared, calls) {
        match answer {
            Ok(Response::Stats {
                epoch,
                categories,
                max_depth,
                items,
                degraded,
            }) => {
                any_degraded |= degraded;
                merged = Some(match merged {
                    None => (epoch, categories, max_depth, items),
                    Some((e, c, d, i)) => (e.min(epoch), c, d, i),
                });
            }
            _ => unreachable += 1,
        }
    }
    match merged {
        Some((epoch, categories, max_depth, items)) => Response::Stats {
            epoch,
            categories,
            max_depth,
            items,
            degraded: any_degraded
                || unreachable > 0
                || shared.served_partial.load(Ordering::Relaxed),
        },
        None => Response::Error {
            code: ErrorCode::Unavailable,
            message: "no shard reachable".to_owned(),
        },
    }
}

/// `SWAP` goes to *every* replica of every shard, whatever its health: all
/// are written first, then each answer is read by its own deadline. A
/// partial broadcast leaves the fleet mixed-epoch — the response is a
/// typed error listing the failures, and the epoch-preference in
/// candidate ordering keeps routing consistent until the stragglers are
/// re-swapped (probes keep observing their epochs).
fn broadcast_swap(shared: &Shared, path: &str) -> Response {
    let timeout = shared.config.attempt_timeout * SWAP_TIMEOUT_FACTOR;
    let request = Request::Swap {
        path: path.to_owned(),
    };
    let started: Vec<(&Replica, Result<Attempt<'_>, String>)> = shared
        .topology
        .all()
        .map(|replica| (replica, replica.start(&request, timeout)))
        .collect();
    let mut published: Option<(u64, usize)> = None;
    let mut failed: Vec<&str> = Vec::new();
    for (replica, attempt) in started {
        match attempt.map(|a| a.finish(&request, None)) {
            Ok(Ok(Response::Swapped { epoch, categories })) => {
                published = Some(match published {
                    None => (epoch, categories),
                    Some((e, c)) => (e.min(epoch), c),
                });
            }
            _ => failed.push(&replica.addr),
        }
    }
    match (published, failed.is_empty()) {
        (Some((epoch, categories)), true) => Response::Swapped { epoch, categories },
        (Some(_), false) => Response::Error {
            code: ErrorCode::Internal,
            message: format!("swap partially published; failed: {}", failed.join(", ")),
        },
        (None, _) => Response::Error {
            code: ErrorCode::Unavailable,
            message: format!("swap published nowhere; failed: {}", failed.join(", ")),
        },
    }
}

/// One shard's sub-request over that shard's replicas in rendezvous order
/// for `key`.
fn shard_call(shared: &Shared, shard: u32, key: u64, request: Request) -> Call<'_> {
    let replicas = &shared.topology.shards[shard as usize];
    let order = rendezvous_order(replicas.len(), key);
    Call::new(order.into_iter().map(|i| &replicas[i]), request)
}

/// Writes every call's sub-request, then reads the answers in call order,
/// each failing over on the worker's own thread (see [`Call::finish`]).
fn gather<'a>(shared: &'a Shared, mut calls: Vec<Call<'a>>) -> Vec<CallResult> {
    let budget = shared.request_budget();
    // The request deadline as an instant, so every read shares it.
    let by = budget.remaining().map(|left| Instant::now() + left);
    let timeout = shared.config.attempt_timeout;
    for call in &mut calls {
        call.start_next(timeout);
    }
    calls
        .into_iter()
        .map(|call| call.finish(shared, &budget, by))
        .collect()
}

/// A sub-request's answer, or why no candidate gave one.
type CallResult = Result<Response, String>;

/// One sub-request and the replicas that may answer it, best first.
struct Call<'a> {
    request: Request,
    candidates: Vec<&'a Replica>,
    /// Index of the next candidate to try.
    next: usize,
    /// The written, unread attempt, if any.
    attempt: Option<Attempt<'a>>,
    /// Why the last candidate gave no answer.
    error: String,
}

impl<'a> Call<'a> {
    /// Ranks `ordered` (a rendezvous order): available replicas serving
    /// the newest observed epoch first, then other available replicas,
    /// then the rest, which are admitted only once their cooldown has
    /// elapsed — each group keeping its rendezvous order, so the failover
    /// sequence is deterministic for a fixed health view.
    fn new(ordered: impl Iterator<Item = &'a Replica>, request: Request) -> Self {
        let mut candidates: Vec<&Replica> = ordered.collect();
        let newest = candidates
            .iter()
            .filter(|r| r.health.is_available())
            .map(|r| r.health.epoch())
            .max();
        candidates.sort_by_cached_key(|r| {
            if !r.health.is_available() {
                2u8
            } else if Some(r.health.epoch()) == newest {
                0
            } else {
                1
            }
        });
        Self {
            request,
            candidates,
            next: 0,
            attempt: None,
            error: "no replicas configured".to_owned(),
        }
    }

    /// Writes the sub-request to the next candidate whose health machine
    /// admits an attempt. `false` when no candidate is left.
    fn start_next(&mut self, timeout: Duration) -> bool {
        while let Some(&replica) = self.candidates.get(self.next) {
            self.next += 1;
            if !replica.health.try_admit() {
                self.error = format!("{}: down", replica.addr);
                continue;
            }
            match replica.start(&self.request, timeout) {
                Ok(attempt) => {
                    self.attempt = Some(attempt);
                    return true;
                }
                Err(e) => self.error = e,
            }
        }
        false
    }

    /// Reads the answer. The one failover rule: a failed attempt, or one
    /// still unanswered at its hedge deadline while another available
    /// candidate exists, gives way to the next candidate. A missed hedge
    /// deadline counts `router/hedges` and is no health failure. The
    /// request deadline `by` bounds every read, and no new candidate is
    /// tried once `budget` has expired.
    fn finish(mut self, shared: &Shared, budget: &Budget, by: Option<Instant>) -> CallResult {
        let timeout = shared.config.attempt_timeout;
        while let Some(attempt) = self.attempt.take() {
            let replica = attempt.replica();
            let hedge = self.candidates[self.next..]
                .iter()
                .any(|r| r.health.is_available())
                .then(|| attempt.started + replica.trigger.delay())
                .filter(|at| by.is_none_or(|by| *at < by));
            let failed = match attempt.finish(&self.request, hedge.or(by)) {
                Ok(resp) => return Ok(resp),
                Err(Miss::Failed(e)) => {
                    self.error = e;
                    true
                }
                Err(Miss::Abandoned) if hedge.is_some() => {
                    shared.counts.hedges.incr();
                    self.error = format!("{}: no answer by the hedge deadline", replica.addr);
                    false
                }
                Err(Miss::Abandoned) => {
                    return Err(format!(
                        "{}: no answer by the request deadline",
                        replica.addr
                    ));
                }
            };
            if budget.expired() {
                return Err(format!("budget expired; last error: {}", self.error));
            }
            if self.start_next(timeout) && failed {
                shared.counts.failovers.incr();
            }
        }
        Err(self.error)
    }
}
