//! The router daemon: a fault-tolerant scatter-gather front-end over a
//! sharded, replicated `oct-serve` fleet.
//!
//! # Request lifecycle
//!
//! ```text
//! accept ─▶ admission ─▶ worker ─▶ connection loop   (oct_serve::daemon,
//!           the lifecycle both daemons run); per request line, on the
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
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use oct_obs::{Counter, Histogram, Metrics, PipelineReport};
use oct_resilience::Budget;
use oct_serve::daemon::{Daemon, Service, Settings};
use oct_serve::{DrainHandle, ErrorCode, Request, Response};

use crate::health::HealthConfig;
use crate::merge::{merge_covers, SubCover};
use crate::replica::{Attempt, Miss, Replica};
use crate::shard::{rendezvous_order, request_key, ShardMap};

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

/// The router's own state: the item→shard ring, the per-shard replica
/// lists, its knobs, and the routed path's metrics (handles looked up once,
/// so a request takes no metrics lock and formats no name).
struct Fleet {
    config: RouterConfig,
    map: ShardMap,
    shards: Vec<Vec<Replica>>,
    /// Covers served with a `partial=1` marker.
    partial: Counter,
    /// Attempts given up at their hedge deadline for the next candidate.
    hedges: Counter,
    /// Sub-requests sent to the next candidate after a failed attempt.
    failovers: Counter,
    /// Whole cover fan-outs, scatter to merge.
    fanout_latency: Histogram,
    /// Sticky: latched the first time any cover was served partial, and
    /// reported via `STATS degraded=1` (mirrors the backend's sticky
    /// degraded flag) so one probe spots a router that has been limping.
    served_partial: AtomicBool,
}

impl Fleet {
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

/// A bound, not-yet-running router. [`Router::run`] blocks until drain.
pub struct Router {
    daemon: Daemon<Fleet>,
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
        let settings = Settings {
            addr: config.addr.clone(),
            workers: config.workers,
            queue_capacity: config.queue_capacity,
            deadline_ms: config.deadline_ms,
            drain_grace: config.drain_grace,
            idle_timeout: config.idle_timeout,
            max_requests: config.max_requests,
            metrics: config.metrics.clone(),
            metrics_out: config.metrics_out.clone(),
        };
        let metrics = &config.metrics;
        let fleet = Fleet {
            map: ShardMap::new(config.shards.len()),
            shards: (config.shards.iter())
                .map(|replicas| {
                    (replicas.iter())
                        .map(|addr| Replica::new(addr.clone(), config.health.clone(), metrics))
                        .collect()
                })
                .collect(),
            partial: metrics.counter("router/partial"),
            hedges: metrics.counter("router/hedges"),
            failovers: metrics.counter("router/failovers"),
            fanout_latency: metrics.histogram("router/fanout_latency"),
            served_partial: AtomicBool::new(false),
            config,
        };
        Ok(Self {
            daemon: Daemon::bind(settings, fleet)?,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.daemon.local_addr()
    }

    /// A handle that can trigger graceful drain from another thread.
    pub fn drain_handle(&self) -> DrainHandle {
        self.daemon.drain_handle()
    }

    /// Runs accept → scatter-gather → drain to completion next to the
    /// health prober, closes every pooled backend connection, and returns
    /// the final metrics report (written to `metrics_out` if configured).
    pub fn run(self) -> io::Result<PipelineReport> {
        let fleet = Arc::clone(self.daemon.service());
        let prober = {
            let (fleet, drain) = (Arc::clone(&fleet), self.drain_handle());
            thread::Builder::new()
                .name("oct-router-prober".to_owned())
                .spawn(move || probe_loop(&fleet, &drain))
                .expect("spawn prober")
        };
        // Every way out of `run` drains first, so the prober stops.
        let report = self.daemon.run();
        let _ = prober.join();
        // Close the idle pooled backend connections now, not whenever the
        // last handle to the fleet drops: each one holds a backend worker.
        for replica in fleet.all() {
            replica.empty_pool();
        }
        report
    }
}

/// The active health-probe loop: every `probe_interval`, one `STATS`
/// probe per replica (the machine itself limits Down replicas to a
/// single prober per cooldown).
fn probe_loop(fleet: &Fleet, drain: &DrainHandle) {
    while !drain.is_draining() {
        for replica in fleet.all() {
            replica.probe(fleet.config.probe_timeout);
        }
        thread::sleep(fleet.config.probe_interval);
    }
}

impl Service for Fleet {
    const NAME: &'static str = "router";

    fn handle(&self, request: Request, budget: Budget) -> Response {
        let budget = &budget;
        match request {
            // Router PING answers locally: it is the *router's* liveness,
            // and the epoch is the fleet floor the probe loop has observed.
            Request::Ping => Response::Pong {
                epoch: self.fleet_epoch(),
            },
            Request::Categorize { items, .. } => fanout_cover(self, &items, true, budget),
            Request::Score { items, .. } => fanout_cover(self, &items, false, budget),
            Request::Navigate { cat } => navigate(self, cat, budget),
            Request::NavigateTopK { k, items, ef } => navigate_topk(self, k, items, ef, budget),
            Request::Stats => fanout_stats(self, budget),
            Request::Swap { path } => broadcast_swap(self, &path),
            Request::Shutdown => unreachable!("the daemon lifecycle answers SHUTDOWN"),
        }
    }
}

/// Scatter a cover query across the owning shards, gather, merge.
fn fanout_cover(fleet: &Fleet, items: &[u32], with_label: bool, budget: &Budget) -> Response {
    let started = Instant::now();
    let parts = fleet.map.partition(items);
    if parts.is_empty() {
        // No items ⇒ no owning shards: the canonical empty cover, same
        // shape a single backend gives an empty query.
        return Response::Cover {
            epoch: fleet.fleet_epoch(),
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
            shard_call(fleet, shard, key, sub)
        })
        .collect();
    let mut subs = Vec::new();
    let mut missing = Vec::new();
    for (shard, answer) in shards.into_iter().zip(gather(fleet, calls, budget)) {
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
        fleet.partial.incr();
        fleet.served_partial.store(true, Ordering::Relaxed);
    }
    fleet.fanout_latency.observe(started.elapsed());
    merged
}

/// `NAVIGATE` needs no scatter — every replica serves the full tree — so
/// it goes to the whole-fleet rendezvous choice for the category key.
fn navigate(fleet: &Fleet, cat: u32, budget: &Budget) -> Response {
    let key = u64::from(cat) ^ 0x5851_F42D_4C95_7F2D;
    whole_fleet(fleet, key, Request::Navigate { cat }, budget)
}

/// Top-k `NAVIGATE` is whole-tree like the browse form: any replica can
/// answer for the full fleet (the ANN index is seed-deterministic, so all
/// replicas rank identically). Rendezvous on the query key spreads distinct
/// queries across the fleet while keeping each query's home stable.
fn navigate_topk(
    fleet: &Fleet,
    k: usize,
    items: Vec<u32>,
    ef: Option<usize>,
    budget: &Budget,
) -> Response {
    let key = request_key(&items) ^ (k as u64).wrapping_mul(0x5851_F42D_4C95_7F2D);
    whole_fleet(fleet, key, Request::NavigateTopK { k, items, ef }, budget)
}

/// One request any replica of the fleet can answer, failing over across
/// the whole fleet in rendezvous order for `key`.
fn whole_fleet(fleet: &Fleet, key: u64, request: Request, budget: &Budget) -> Response {
    let replicas: Vec<&Replica> = fleet.all().collect();
    let order = rendezvous_order(replicas.len(), key);
    let call = Call::new(order.into_iter().map(|i| replicas[i]), request);
    match gather(fleet, vec![call], budget).swap_remove(0) {
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
fn fanout_stats(fleet: &Fleet, budget: &Budget) -> Response {
    let calls = (0..fleet.shards.len() as u32)
        .map(|shard| {
            let key = 0x9E37_79B9 ^ u64::from(shard);
            shard_call(fleet, shard, key, Request::Stats)
        })
        .collect();
    let mut merged: Option<(u64, usize, usize, u32)> = None;
    let mut any_degraded = false;
    let mut unreachable = 0usize;
    for answer in gather(fleet, calls, budget) {
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
                || fleet.served_partial.load(Ordering::Relaxed),
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
fn broadcast_swap(fleet: &Fleet, path: &str) -> Response {
    let timeout = fleet.config.attempt_timeout * SWAP_TIMEOUT_FACTOR;
    let request = Request::Swap {
        path: path.to_owned(),
    };
    let started: Vec<(&Replica, Result<Attempt<'_>, String>)> = fleet
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
fn shard_call(fleet: &Fleet, shard: u32, key: u64, request: Request) -> Call<'_> {
    let replicas = &fleet.shards[shard as usize];
    let order = rendezvous_order(replicas.len(), key);
    Call::new(order.into_iter().map(|i| &replicas[i]), request)
}

/// Writes every call's sub-request, then reads the answers in call order,
/// each failing over on the worker's own thread (see [`Call::finish`]).
fn gather<'a>(fleet: &'a Fleet, mut calls: Vec<Call<'a>>, budget: &Budget) -> Vec<CallResult> {
    // The request deadline as an instant, so every read shares it.
    let by = budget.remaining().map(|left| Instant::now() + left);
    let timeout = fleet.config.attempt_timeout;
    for call in &mut calls {
        call.start_next(timeout);
    }
    calls
        .into_iter()
        .map(|call| call.finish(fleet, budget, by))
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
    fn finish(mut self, fleet: &Fleet, budget: &Budget, by: Option<Instant>) -> CallResult {
        let timeout = fleet.config.attempt_timeout;
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
                    fleet.hedges.incr();
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
                fleet.failovers.incr();
            }
        }
        Err(self.error)
    }
}
