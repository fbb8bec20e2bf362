//! One backend replica as the router sees it: address, pooled
//! connections, circuit breaker, health machine, and latency tracking.
//!
//! All per-replica robustness state lives here so the fan-out path can
//! treat a replica as a single callable object: [`Replica::call`] performs
//! one sub-request attempt and does every piece of bookkeeping — breaker
//! verdicts, health transitions, hedge-trigger latency observations, and
//! per-replica metrics — exactly once per attempt, no matter which caller
//! (scatter-gather, failover sweep, hedge thread, probe loop) made it.

use std::io;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use oct_obs::{Counter, Histogram, Metrics, ScopedMetrics};
use oct_resilience::{
    BreakerConfig, CircuitBreaker, HealthConfig, HealthMachine, HedgeConfig, HedgeTrigger,
};
use oct_serve::{Client, Request, Response};

/// Idle pooled connections kept per replica. Two covers the steady state
/// (one request + one hedge in flight); extras are dropped on return.
const POOL_CAP: usize = 2;

/// A replica endpoint plus all its robustness state.
pub struct Replica {
    /// The replica's `host:port` address (also its metrics identity).
    pub addr: String,
    /// Per-replica circuit breaker gating request traffic.
    pub breaker: CircuitBreaker,
    /// Up→Suspect→Down→Probing health record, fed by calls and probes.
    pub health: HealthMachine,
    /// Latency-quantile tracker driving this replica's hedge delay.
    pub trigger: HedgeTrigger,
    pool: Mutex<Vec<Client>>,
    /// `router/replica/<addr>/...`; the probe loop records through it.
    scope: ScopedMetrics,
    attempts: AttemptMetrics,
}

/// The per-replica metrics every sub-request attempt updates, looked up
/// once so an attempt takes no metrics lock and formats no name.
struct AttemptMetrics {
    latency: Histogram,
    ok: Counter,
    rejected: Counter,
    fail: Counter,
    pool_stale: Counter,
}

impl Replica {
    /// A fresh replica record (healthy until proven otherwise).
    pub fn new(
        addr: String,
        breaker: BreakerConfig,
        health: HealthConfig,
        hedge: HedgeConfig,
        metrics: &Metrics,
    ) -> Self {
        let scope = metrics.scoped(&format!("router/replica/{addr}"));
        let attempts = AttemptMetrics {
            latency: scope.histogram("latency"),
            ok: scope.counter("ok"),
            rejected: scope.counter("rejected"),
            fail: scope.counter("fail"),
            pool_stale: scope.counter("pool_stale"),
        };
        Self {
            breaker: CircuitBreaker::new(breaker),
            health: HealthMachine::new(health),
            trigger: HedgeTrigger::new(hedge),
            pool: Mutex::new(Vec::new()),
            scope,
            attempts,
            addr,
        }
    }

    fn pooled(&self) -> Option<Client> {
        self.pool.lock().unwrap_or_else(|e| e.into_inner()).pop()
    }

    fn park(&self, client: Client) {
        let mut pool = self.pool.lock().unwrap_or_else(|e| e.into_inner());
        if pool.len() < POOL_CAP {
            pool.push(client);
        }
    }

    /// One raw request/response exchange: reuses a pooled connection when
    /// available, dials otherwise; the connection returns to the pool only
    /// on success (a failed connection's state is unknowable — drop it).
    fn exchange(&self, request: &Request, timeout: Duration) -> io::Result<Response> {
        // A parked connection can be long dead by the time it is reused:
        // the replica restarted, or courteously retired the connection
        // after its per-connection request cap. That staleness surfaces
        // as an immediate EOF/reset on first use — a property of the
        // *pool*, not of the replica — so it gets one silent redial on a
        // fresh connection instead of burning a health/breaker failure.
        // Safe to retry blindly: every routed verb is idempotent (reads,
        // or SWAP which publishes the same file either way).
        if let Some(mut client) = self.pooled() {
            match client.request(request) {
                Ok(resp) => {
                    self.park(client);
                    return Ok(resp);
                }
                Err(e) if stale_pool_error(&e) => {
                    self.attempts.pool_stale.incr();
                }
                Err(e) => return Err(e),
            }
        }
        let mut client = Client::connect(self.addr.as_str(), timeout)?;
        let resp = client.request(request)?;
        self.park(client);
        Ok(resp)
    }

    /// One fully-bookkept sub-request attempt.
    ///
    /// - Transport failure (connect/reset/timeout): health failure +
    ///   breaker failure.
    /// - Protocol rejection (`OVERLOADED`, `ERR ...`): breaker failure
    ///   (back off this replica) but *not* a health failure — the replica
    ///   answered, it is alive.
    /// - Real answer: health success (with the observed epoch), breaker
    ///   success, and the attempt latency feeds the hedge trigger.
    ///
    /// The caller is responsible for [`CircuitBreaker::try_acquire`] —
    /// acquisition is admission control, and skipped attempts must not
    /// record verdicts.
    pub fn call(&self, request: &Request, timeout: Duration) -> Result<Response, String> {
        let started = Instant::now();
        match self.exchange(request, timeout) {
            Ok(resp) => match classify(&resp) {
                Verdict::Answer(epoch) => {
                    let elapsed = started.elapsed();
                    self.trigger.observe(elapsed);
                    self.attempts.latency.observe(elapsed);
                    self.attempts.ok.incr();
                    self.health
                        .on_success(epoch.unwrap_or_else(|| self.health.epoch()));
                    self.breaker.record_success();
                    Ok(resp)
                }
                Verdict::Rejected(why) => {
                    self.attempts.rejected.incr();
                    self.breaker.record_failure();
                    Err(format!("{}: {why}", self.addr))
                }
            },
            Err(e) => {
                self.attempts.fail.incr();
                self.health.on_failure();
                self.breaker.record_failure();
                Err(format!("{}: {e}", self.addr))
            }
        }
    }

    /// One health-probe cycle: respects the machine's probe admission
    /// (one prober per Down replica), asks `STATS`, and records the
    /// observed epoch. A successful probe also heals the breaker so
    /// recovered replicas take traffic immediately.
    pub fn probe(&self, timeout: Duration) {
        if !self.health.try_probe() {
            return;
        }
        match self.exchange(&Request::Stats, timeout) {
            Ok(Response::Stats { epoch, .. }) => {
                self.health.on_success(epoch);
                self.breaker.record_success();
                self.scope.incr("probe_ok");
            }
            Ok(_) | Err(_) => {
                self.health.on_failure();
                self.scope.incr("probe_fail");
            }
        }
        self.scope.gauge(
            "health",
            match self.health.state() {
                oct_resilience::HealthState::Up => 3.0,
                oct_resilience::HealthState::Suspect => 2.0,
                oct_resilience::HealthState::Probing => 1.0,
                oct_resilience::HealthState::Down => 0.0,
            },
        );
    }
}

impl std::fmt::Debug for Replica {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Replica")
            .field("addr", &self.addr)
            .field("health", &self.health.state())
            .field("breaker", &self.breaker.state())
            .finish()
    }
}

/// `true` for the error shapes a dead parked connection produces on
/// first reuse — the peer closed it while it sat in the pool, which says
/// nothing about the replica's current health.
fn stale_pool_error(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::UnexpectedEof
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::BrokenPipe
    )
}

enum Verdict {
    /// A real answer (with the tree epoch when the response carries one).
    Answer(Option<u64>),
    Rejected(String),
}

fn classify(resp: &Response) -> Verdict {
    match resp {
        Response::Pong { epoch }
        | Response::Cover { epoch, .. }
        | Response::Stats { epoch, .. }
        | Response::Swapped { epoch, .. }
        | Response::TopK { epoch, .. } => Verdict::Answer(Some(*epoch)),
        Response::Nav { .. } | Response::Draining => Verdict::Answer(None),
        // A bad-request answer is deterministic: every replica would say
        // the same, so failing over (or punishing the breaker) is wrong —
        // pass it through as the answer.
        Response::Error {
            code: oct_serve::ErrorCode::BadRequest,
            ..
        } => Verdict::Answer(None),
        Response::Overloaded { queue_depth } => {
            Verdict::Rejected(format!("overloaded (queue {queue_depth})"))
        }
        Response::Error { code, message } => {
            Verdict::Rejected(format!("{} {message}", code.name()))
        }
    }
}
