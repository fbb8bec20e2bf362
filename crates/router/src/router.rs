//! The router daemon: a fault-tolerant scatter-gather front-end over a
//! sharded, replicated `oct-serve` fleet.
//!
//! # Request lifecycle
//!
//! ```text
//! accept ─▶ admission (BoundedQueue, typed OVERLOADED shed — same as oct-serve)
//!              ▼
//!           worker pops connection ─▶ oct-serve's serve_connection
//!           (answers buffered per read chunk); per request line:
//!              CATEGORIZE/SCORE ─▶ partition items by shard (consistent hash)
//!                 │  per owning shard, in parallel:
//!                 │    candidates = replicas in rendezvous order,
//!                 │                 fresh + available first
//!                 │    breaker.try_acquire ─▶ hedged primary
//!                 │       │ no answer within the p90-tracked delay
//!                 │       ▼
//!                 │    hedge on the next candidate (first OK wins,
//!                 │    loser cancelled); then sequential failover,
//!                 │    jittered retry sweeps, all under one Budget
//!                 ▼
//!              deterministic merge; dead shards ⇒ typed PARTIAL marker
//! ```
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
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use oct_obs::{Metrics, PipelineReport};
use oct_resilience::{run_hedged, Budget, CancelToken, HedgeReason, HedgeWinner, RetryPolicy};
use oct_resilience::{BreakerConfig, HealthConfig, HedgeConfig};
use oct_serve::queue::{BoundedQueue, Push};
use oct_serve::server::{reject, serve_connection, ConnectionPolicy};
use oct_serve::{ErrorCode, Request, Response};

use crate::merge::{merge_covers, SubCover};
use crate::replica::Replica;
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
    /// Jittered retry policy for whole failover sweeps over a shard.
    pub retry: RetryPolicy,
    /// Per-replica circuit-breaker thresholds.
    pub breaker: BreakerConfig,
    /// Per-replica health-machine thresholds.
    pub health: HealthConfig,
    /// Hedging policy (latency quantile, delay clamps).
    pub hedge: HedgeConfig,
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
            retry: RetryPolicy::default(),
            breaker: BreakerConfig::default(),
            health: HealthConfig::default(),
            hedge: HedgeConfig::default(),
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
    shards: Vec<Vec<Arc<Replica>>>,
}

impl Topology {
    fn all(&self) -> impl Iterator<Item = &Arc<Replica>> {
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
    next_seed: AtomicU64,
    /// Sticky: latched the first time any cover was served partial, and
    /// reported via `STATS degraded=1` (mirrors the backend's sticky
    /// degraded flag) so one probe spots a router that has been limping.
    served_partial: AtomicBool,
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
                            Arc::new(Replica::new(
                                addr.clone(),
                                config.breaker.clone(),
                                config.health.clone(),
                                config.hedge.clone(),
                                &config.metrics,
                            ))
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
            next_seed: AtomicU64::new(0x243F_6A88_85A3_08D3),
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

    /// Runs accept → scatter-gather → drain to completion and returns the
    /// final metrics report (written to `metrics_out` if configured).
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
/// pipelined replies, idle budget, request cap and drain close.
fn worker_loop(shared: &Shared) {
    loop {
        match shared.queue.pop_timeout(POP_INTERVAL) {
            Some(conn) => {
                shared.in_flight.fetch_add(1, Ordering::Relaxed);
                let _ = serve_connection(
                    conn,
                    &shared.connections,
                    || shared.draining(),
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
    let budget = shared.request_budget();
    shared
        .metrics
        .gauge("router/fanout_width", parts.len() as f64);
    let results: Vec<(u32, Result<Response, String>)> = thread::scope(|scope| {
        let budget = &budget;
        let handles: Vec<_> = parts
            .iter()
            .map(|(shard, slice)| {
                let sub = if with_label {
                    Request::Categorize {
                        items: slice.clone(),
                        shard: Some(*shard),
                    }
                } else {
                    Request::Score {
                        items: slice.clone(),
                        shard: Some(*shard),
                    }
                };
                let key = request_key(slice);
                scope.spawn(move || (*shard, shard_call(shared, *shard, sub, key, budget)))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("fan-out thread panicked"))
            .collect()
    });
    let mut subs = Vec::new();
    let mut missing = Vec::new();
    for (shard, result) in results {
        match result {
            Ok(resp) => match SubCover::from_response(shard, &resp) {
                Some(sub) => subs.push(sub),
                None => missing.push(shard),
            },
            Err(_) => missing.push(shard),
        }
    }
    let merged = merge_covers(&subs, missing);
    if merged.is_partial() {
        shared.metrics.incr("router/partial");
        shared.served_partial.store(true, Ordering::Relaxed);
    }
    shared
        .metrics
        .observe("router/fanout_latency", started.elapsed());
    merged
}

/// `NAVIGATE` needs no scatter — every replica serves the full tree — so
/// it goes to the whole-fleet rendezvous choice for the category key.
fn navigate(shared: &Shared, cat: u32) -> Response {
    let candidates: Vec<Arc<Replica>> = shared.topology.all().cloned().collect();
    let order = rendezvous_order(candidates.len(), u64::from(cat) ^ 0x5851_F42D_4C95_7F2D);
    let ordered: Vec<Arc<Replica>> = order.into_iter().map(|i| candidates[i].clone()).collect();
    let budget = shared.request_budget();
    match call_with_failover(shared, &ordered, &Request::Navigate { cat }, &budget) {
        Ok(resp) => resp,
        Err(message) => Response::Error {
            code: ErrorCode::Unavailable,
            message,
        },
    }
}

/// Top-k `NAVIGATE` is whole-tree like the browse form: any replica can
/// answer for the full fleet (the ANN index is seed-deterministic, so all
/// replicas rank identically). Rendezvous on the query key spreads distinct
/// queries across the fleet while keeping each query's home stable.
fn navigate_topk(shared: &Shared, k: usize, items: Vec<u32>, ef: Option<usize>) -> Response {
    let candidates: Vec<Arc<Replica>> = shared.topology.all().cloned().collect();
    let key = request_key(&items) ^ (k as u64).wrapping_mul(0x5851_F42D_4C95_7F2D);
    let order = rendezvous_order(candidates.len(), key);
    let ordered: Vec<Arc<Replica>> = order.into_iter().map(|i| candidates[i].clone()).collect();
    let budget = shared.request_budget();
    let request = Request::NavigateTopK { k, items, ef };
    match call_with_failover(shared, &ordered, &request, &budget) {
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
    let budget = shared.request_budget();
    let shard_count = shared.topology.shards.len();
    let results: Vec<Option<Response>> = thread::scope(|scope| {
        let budget = &budget;
        let handles: Vec<_> = (0..shard_count)
            .map(|shard| {
                scope.spawn(move || {
                    shard_call(
                        shared,
                        shard as u32,
                        Request::Stats,
                        0x9E37_79B9 ^ shard as u64,
                        budget,
                    )
                    .ok()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("stats fan-out thread panicked"))
            .collect()
    });
    let mut merged: Option<(u64, usize, usize, u32)> = None;
    let mut any_degraded = false;
    let mut unreachable = 0usize;
    for result in results {
        match result {
            Some(Response::Stats {
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

/// `SWAP` broadcasts to *every* replica of every shard in parallel. A
/// partial broadcast leaves the fleet mixed-epoch — the response is a
/// typed error listing the failures, and the epoch-preference in
/// candidate ordering keeps routing consistent until the stragglers are
/// re-swapped (probes keep observing their epochs).
fn broadcast_swap(shared: &Shared, path: &str) -> Response {
    let timeout = shared.config.attempt_timeout * SWAP_TIMEOUT_FACTOR;
    let outcomes: Vec<(String, Result<Response, String>)> = thread::scope(|scope| {
        let handles: Vec<_> = shared
            .topology
            .all()
            .map(|replica| {
                let replica = Arc::clone(replica);
                let request = Request::Swap {
                    path: path.to_owned(),
                };
                scope.spawn(move || (replica.addr.clone(), replica.call(&request, timeout)))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("swap fan-out thread panicked"))
            .collect()
    });
    let mut published: Option<(u64, usize)> = None;
    let mut failed: Vec<String> = Vec::new();
    for (addr, outcome) in outcomes {
        match outcome {
            Ok(Response::Swapped { epoch, categories }) => {
                published = Some(match published {
                    None => (epoch, categories),
                    Some((e, c)) => (e.min(epoch), c),
                });
            }
            Ok(_) | Err(_) => failed.push(addr),
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

/// One shard sub-request: rendezvous-ordered candidates, hedged +
/// failover sweeps under the shared retry policy and request budget.
fn shard_call(
    shared: &Shared,
    shard: u32,
    request: Request,
    key: u64,
    budget: &Budget,
) -> Result<Response, String> {
    let replicas = &shared.topology.shards[shard as usize];
    let order = rendezvous_order(replicas.len(), key);
    let ordered: Vec<Arc<Replica>> = order.into_iter().map(|i| replicas[i].clone()).collect();
    call_with_failover(shared, &ordered, &request, budget)
}

/// Ranks `ordered` (a rendezvous order) for this attempt: available
/// replicas serving the newest observed epoch first, then other available
/// replicas, then the rest as last resorts — each group keeping its
/// rendezvous order, so the failover sequence is deterministic for a
/// fixed health view.
fn rank_candidates(ordered: &[Arc<Replica>]) -> Vec<Arc<Replica>> {
    let newest = ordered
        .iter()
        .filter(|r| r.health.is_available())
        .map(|r| r.health.epoch())
        .max();
    let rank = |r: &Arc<Replica>| -> u8 {
        if !r.health.is_available() {
            2
        } else if Some(r.health.epoch()) == newest {
            0
        } else {
            1
        }
    };
    let mut ranked = ordered.to_vec();
    ranked.sort_by_key(rank);
    ranked
}

/// The robustness core: hedged primary, then sequential failover over the
/// remaining candidates, the whole sweep repeated under the jittered
/// retry policy until the budget expires.
fn call_with_failover(
    shared: &Shared,
    ordered: &[Arc<Replica>],
    request: &Request,
    budget: &Budget,
) -> Result<Response, String> {
    if ordered.is_empty() {
        return Err("no replicas configured".to_owned());
    }
    let seed = shared.next_seed.fetch_add(1, Ordering::Relaxed);
    shared
        .config
        .retry
        .run(seed, budget, |attempt| {
            if attempt > 1 {
                shared.metrics.incr("router/retries");
            }
            sweep_once(shared, ordered, request, budget)
        })
        .map_err(|outcome| {
            format!(
                "all replicas failed after {} sweep(s): {}",
                outcome.attempts(),
                outcome.into_error()
            )
        })
}

/// One failover sweep: hedged (primary, backup) then the stragglers.
fn sweep_once(
    shared: &Shared,
    ordered: &[Arc<Replica>],
    request: &Request,
    budget: &Budget,
) -> Result<Response, String> {
    // Health can change between sweeps; re-rank each time.
    let candidates = rank_candidates(ordered);
    let timeout = shared.config.attempt_timeout;
    let metrics = shared.metrics.clone();
    let attempt = |replica: Arc<Replica>| {
        let request = request.clone();
        let metrics = metrics.clone();
        move |token: &CancelToken| -> Result<Response, String> {
            if token.is_cancelled() {
                return Err("cancelled".to_owned());
            }
            if !replica.breaker.try_acquire() {
                metrics.incr("router/breaker_rejected");
                return Err(format!("{}: breaker open", replica.addr));
            }
            replica.call(&request, timeout)
        }
    };

    let primary = candidates[0].clone();
    let backup = candidates.get(1).cloned();
    // No backup ⇒ never hedge: the delay only matters when one exists.
    let delay = primary.trigger.delay();
    let mut wait = delay.saturating_add(timeout.saturating_mul(2));
    if let Some(remaining) = budget.remaining() {
        wait = wait.min(remaining);
    }
    let outcome = run_hedged(delay, wait, attempt(primary), backup.map(&attempt));
    match outcome.fired {
        Some(HedgeReason::LatencyTrigger) => shared.metrics.incr("router/hedges"),
        Some(HedgeReason::PrimaryFailure) => shared.metrics.incr("router/failovers"),
        None => {}
    }
    if outcome.winner == Some(HedgeWinner::Hedge) {
        shared.metrics.incr("router/hedge_wins");
    }
    match outcome.result {
        Ok(resp) => Ok(resp),
        Err(err) => {
            let mut last = err.unwrap_or_else(|| "no attempt answered in time".to_owned());
            // Sequential failover over the last resorts.
            for replica in candidates.iter().skip(2) {
                if budget.expired() {
                    return Err(format!("budget expired; last error: {last}"));
                }
                if !replica.breaker.try_acquire() {
                    shared.metrics.incr("router/breaker_rejected");
                    last = format!("{}: breaker open", replica.addr);
                    continue;
                }
                match replica.call(request, timeout) {
                    Ok(resp) => {
                        shared.metrics.incr("router/failovers");
                        return Ok(resp);
                    }
                    Err(e) => last = e,
                }
            }
            Err(last)
        }
    }
}
