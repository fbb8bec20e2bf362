//! One backend replica as the router sees it: address, pooled
//! connections, health machine, and latency tracking.
//!
//! A sub-request is two steps, so one thread can have several in flight:
//! [`Replica::start`] writes it on a pooled or newly dialled connection,
//! and [`Attempt::finish`] reads the answer against an absolute deadline.
//! [`Replica::call`] is the two back to back. All per-replica
//! bookkeeping — health verdicts, hedge-trigger latency observations,
//! per-replica metrics — happens here, exactly once per attempt.
//!
//! Every read sets its own deadline, so a pooled connection serves each
//! call with that call's timeout, whoever dialled it.

use std::io;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use oct_obs::{Counter, Histogram, Metrics, ScopedMetrics};
use oct_serve::{Client, Request, Response};

use crate::health::{HealthConfig, HealthMachine, HealthState};
use crate::hedge::HedgeTrigger;

/// Idle pooled connections kept per replica. Two covers the steady state
/// (one request + one probe); extras are dropped on return.
const POOL_CAP: usize = 2;

/// A replica endpoint plus all its robustness state.
pub struct Replica {
    /// The replica's `host:port` address (also its metrics identity).
    pub addr: String,
    /// Up→Suspect→Down→Probing health record, fed by calls and probes; it
    /// alone decides whether the replica takes an attempt.
    pub health: HealthMachine,
    /// Latency-quantile tracker driving this replica's hedge deadline.
    pub trigger: HedgeTrigger,
    pool: Mutex<Vec<Client>>,
    /// `router/replica/<addr>/...`; the probe loop's health gauge.
    scope: ScopedMetrics,
    counts: ReplicaMetrics,
}

/// The per-replica metrics, looked up once so an attempt or a probe
/// takes no metrics lock and formats no name.
struct ReplicaMetrics {
    latency: Histogram,
    ok: Counter,
    rejected: Counter,
    fail: Counter,
    pool_stale: Counter,
    probe_ok: Counter,
    probe_fail: Counter,
}

/// A sub-request written to one replica whose answer has not been read.
/// Dropping it drops the connection.
pub struct Attempt<'r> {
    replica: &'r Replica,
    client: Client,
    /// The connection came from the pool, so a closed peer means the pool
    /// went stale, not that the replica failed.
    pooled: bool,
    /// When the sub-request was written; hedge deadlines count from here.
    pub started: Instant,
    /// `started` + the attempt timeout.
    deadline: Instant,
}

/// Why an [`Attempt`] produced no answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Miss {
    /// The replica failed: transport error, its own timeout, or a
    /// rejection. Recorded as a health failure.
    Failed(String),
    /// The caller's earlier deadline passed first. Not a verdict on the
    /// replica: nothing is recorded, and an admission from Down is handed
    /// back.
    Abandoned,
}

impl Replica {
    /// A fresh replica record (healthy until proven otherwise).
    pub fn new(addr: String, health: HealthConfig, metrics: &Metrics) -> Self {
        let scope = metrics.scoped(&format!("router/replica/{addr}"));
        let counts = ReplicaMetrics {
            latency: scope.histogram("latency"),
            ok: scope.counter("ok"),
            rejected: scope.counter("rejected"),
            fail: scope.counter("fail"),
            pool_stale: scope.counter("pool_stale"),
            probe_ok: scope.counter("probe_ok"),
            probe_fail: scope.counter("probe_fail"),
        };
        Self {
            health: HealthMachine::new(health),
            trigger: HedgeTrigger::new(),
            pool: Mutex::new(Vec::new()),
            scope,
            counts,
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

    /// Closes every pooled connection, so none holds a backend worker.
    pub(crate) fn empty_pool(&self) {
        self.pool.lock().unwrap_or_else(|e| e.into_inner()).clear();
    }

    fn dial(&self, request: &Request, timeout: Duration) -> io::Result<Client> {
        let mut client = Client::connect(self.addr.as_str(), timeout)?;
        client.send(request)?;
        Ok(client)
    }

    /// Writes `request` on a pooled connection, or on a new one dialled
    /// within `timeout`. No bookkeeping.
    fn send(&self, request: &Request, timeout: Duration) -> io::Result<Attempt<'_>> {
        let started = Instant::now();
        let attempt = |client, pooled| Attempt {
            replica: self,
            client,
            pooled,
            started,
            deadline: started + timeout,
        };
        if let Some(mut client) = self.pooled() {
            match client.send(request) {
                Ok(()) => return Ok(attempt(client, true)),
                Err(e) if stale_pool_error(&e) => self.counts.pool_stale.incr(),
                Err(e) => return Err(e),
            }
        }
        Ok(attempt(self.dial(request, timeout)?, false))
    }

    /// Starts one sub-request attempt: `request` is written, and its
    /// answer is due within `timeout`. A connection that cannot be dialled
    /// or written is a health failure.
    ///
    /// The caller is responsible for [`HealthMachine::try_admit`] —
    /// admission decides whether an attempt is made at all.
    pub fn start(&self, request: &Request, timeout: Duration) -> Result<Attempt<'_>, String> {
        self.send(request, timeout).map_err(|e| self.failed(&e))
    }

    /// [`start`](Self::start) then [`Attempt::finish`] with no earlier
    /// deadline: one fully bookkept sub-request.
    pub fn call(&self, request: &Request, timeout: Duration) -> Result<Response, String> {
        self.start(request, timeout)?
            .finish(request, None)
            .map_err(|miss| match miss {
                Miss::Failed(e) => e,
                Miss::Abandoned => unreachable!("no deadline earlier than the attempt's own"),
            })
    }

    fn failed(&self, e: &io::Error) -> String {
        self.counts.fail.incr();
        self.health.on_failure();
        format!("{}: {e}", self.addr)
    }

    /// One health-probe cycle: asks `STATS` if the health machine admits
    /// an attempt, and records the observed epoch.
    pub fn probe(&self, timeout: Duration) {
        if !self.health.try_admit() {
            return;
        }
        let request = Request::Stats;
        let answer = self.send(&request, timeout).and_then(|mut attempt| {
            let deadline = attempt.deadline;
            let answer = attempt.read(&request, deadline)?;
            Ok((attempt, answer))
        });
        match answer {
            Ok((attempt, Response::Stats { epoch, .. })) => {
                self.health.on_success(epoch);
                self.counts.probe_ok.incr();
                self.park(attempt.client);
            }
            Ok(_) | Err(_) => {
                self.health.on_failure();
                self.counts.probe_fail.incr();
            }
        }
        self.scope.gauge(
            "health",
            match self.health.state() {
                HealthState::Up => 3.0,
                HealthState::Suspect => 2.0,
                HealthState::Probing => 1.0,
                HealthState::Down => 0.0,
            },
        );
    }
}

impl<'r> Attempt<'r> {
    /// The replica this attempt went to.
    pub fn replica(&self) -> &'r Replica {
        self.replica
    }

    /// Reads the answer by `until`. A parked connection can be long dead
    /// by the time it is reused: the replica restarted, or courteously
    /// retired the connection after its per-connection request cap. That
    /// staleness surfaces as an immediate EOF/reset — a property of the
    /// *pool*, not of the replica — so it gets one silent redial instead
    /// of a health failure. Safe to resend blindly: every routed verb is
    /// idempotent (reads, or SWAP which publishes the same file either
    /// way).
    fn read(&mut self, request: &Request, until: Instant) -> io::Result<Response> {
        match self.client.receive(until) {
            Err(e) if self.pooled && stale_pool_error(&e) => {
                self.replica.counts.pool_stale.incr();
                self.pooled = false;
                let left = self.deadline.saturating_duration_since(Instant::now());
                self.client = self
                    .replica
                    .dial(request, left.max(Duration::from_millis(1)))?;
                self.client.receive(until)
            }
            other => other,
        }
    }

    /// Reads the answer, giving up at `cut` when that comes before the
    /// attempt's own deadline, and records the verdict:
    ///
    /// - real answer (including `ERR bad-request`, which every replica
    ///   would give): health success with the observed epoch, and the
    ///   attempt latency feeds the hedge trigger;
    /// - rejection (`OVERLOADED`, any other `ERR`), transport error, or
    ///   the attempt's own timeout: health failure;
    /// - `cut` passed first: [`Miss::Abandoned`], no verdict.
    pub fn finish(mut self, request: &Request, cut: Option<Instant>) -> Result<Response, Miss> {
        let replica = self.replica;
        let until = cut.map_or(self.deadline, |cut| cut.min(self.deadline));
        let resp = match self.read(request, until) {
            Ok(resp) => resp,
            // Cut short before the attempt's own deadline: no verdict.
            Err(e) if e.kind() == io::ErrorKind::TimedOut && Instant::now() < self.deadline => {
                replica.health.release();
                return Err(Miss::Abandoned);
            }
            Err(e) => return Err(Miss::Failed(replica.failed(&e))),
        };
        let verdict = classify(&resp);
        replica.park(self.client);
        match verdict {
            Verdict::Answer(epoch) => {
                let elapsed = self.started.elapsed();
                replica.trigger.observe(elapsed);
                replica.counts.latency.observe(elapsed);
                replica.counts.ok.incr();
                replica
                    .health
                    .on_success(epoch.unwrap_or_else(|| replica.health.epoch()));
                Ok(resp)
            }
            Verdict::Rejected(why) => {
                replica.counts.rejected.incr();
                replica.health.on_failure();
                Err(Miss::Failed(format!("{}: {why}", replica.addr)))
            }
        }
    }
}

impl std::fmt::Debug for Replica {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Replica")
            .field("addr", &self.addr)
            .field("health", &self.health.state())
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
        // the same, so failing over (or demoting the replica) is wrong —
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Write};
    use std::net::{SocketAddr, TcpListener};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{mpsc, Arc};
    use std::thread;

    /// A line-protocol stand-in: the `n`-th request line it reads (from 0,
    /// across connections) is answered with `answer(n)` after its delay.
    /// Its threads end with the test process.
    fn fake_backend(
        answer: impl Fn(usize) -> (Duration, Response) + Send + Sync + 'static,
    ) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake backend");
        let addr = listener.local_addr().expect("addr");
        let answer = Arc::new(answer);
        let seen = Arc::new(AtomicUsize::new(0));
        thread::spawn(move || {
            for conn in listener.incoming().flatten() {
                let (answer, seen) = (Arc::clone(&answer), Arc::clone(&seen));
                thread::spawn(move || {
                    let mut writer = conn.try_clone().expect("clone");
                    for line in BufReader::new(conn).lines() {
                        if line.is_err() {
                            return;
                        }
                        let (delay, resp) = answer(seen.fetch_add(1, Ordering::SeqCst));
                        thread::sleep(delay);
                        if writeln!(writer, "{}", resp.encode()).is_err() {
                            return;
                        }
                    }
                });
            }
        });
        addr
    }

    fn config(down_after: u32, probe_cooldown: Duration) -> HealthConfig {
        HealthConfig {
            suspect_after: 1,
            down_after,
            probe_cooldown,
        }
    }

    #[test]
    fn a_pooled_connection_reads_with_the_timeout_of_the_call_that_reuses_it() {
        // The first call parks a connection dialled with a 50 ms timeout;
        // the second reuses it with 2 s and is answered after 200 ms.
        let addr = fake_backend(|n| {
            let delay = if n == 0 {
                Duration::ZERO
            } else {
                Duration::from_millis(200)
            };
            (delay, Response::Pong { epoch: 0 })
        });
        let metrics = Metrics::new(true);
        let replica = Replica::new(addr.to_string(), HealthConfig::default(), &metrics);
        let first = replica.call(&Request::Ping, Duration::from_millis(50));
        assert_eq!(first, Ok(Response::Pong { epoch: 0 }));
        let second = replica.call(&Request::Ping, Duration::from_secs(2));
        assert_eq!(
            second,
            Ok(Response::Pong { epoch: 0 }),
            "2 s covers a 200 ms answer"
        );
        assert_eq!(replica.health.state(), HealthState::Up);
        assert_eq!(
            replica.counts.pool_stale.get(),
            0,
            "the parked connection was reused"
        );
    }

    #[test]
    fn rejections_demote_and_a_rested_down_replica_admits_one_attempt() {
        // Every answer is OVERLOADED. The backend reports each request line
        // it reads on `seen`, and holds its answer to the fourth (the
        // probe's STATS) until `gate` opens.
        let (seen_tx, seen) = mpsc::channel();
        let (gate, gate_rx) = mpsc::channel::<()>();
        let backend = Mutex::new((seen_tx, gate_rx));
        let addr = fake_backend(move |n| {
            let backend = backend.lock().expect("one backend thread at a time");
            backend.0.send(n).expect("test is listening");
            if n == 3 {
                backend.1.recv().expect("gate opens");
            }
            (Duration::ZERO, Response::Overloaded { queue_depth: 1 })
        });
        let metrics = Metrics::new(true);
        let cooldown = Duration::from_millis(50);
        let replica = Arc::new(Replica::new(
            addr.to_string(),
            config(2, cooldown),
            &metrics,
        ));
        let timeout = Duration::from_secs(2);

        // Rejections count as failures: Up → Suspect → Down.
        assert!(replica.call(&Request::Ping, timeout).is_err());
        assert_eq!(replica.health.state(), HealthState::Suspect);
        assert!(replica.call(&Request::Ping, timeout).is_err());
        assert_eq!(replica.health.state(), HealthState::Down);
        assert_eq!(replica.health.downs(), 1);
        assert_eq!(replica.counts.rejected.get(), 2);
        assert!(
            !replica.health.try_admit(),
            "no attempt before the cooldown"
        );

        // A request asks first: it holds the one admission, so the probe
        // loop sends nothing until the request reports.
        thread::sleep(cooldown + Duration::from_millis(10));
        assert!(replica.health.try_admit(), "the request is admitted");
        assert!(!replica.health.try_admit(), "exactly one attempt");
        replica.probe(timeout);
        assert_eq!(
            replica.counts.probe_ok.get() + replica.counts.probe_fail.get(),
            0
        );
        assert!(replica.call(&Request::Ping, timeout).is_err());
        assert_eq!(replica.health.state(), HealthState::Down);
        assert_eq!(replica.health.downs(), 2);

        // The probe asks first: while its STATS is in flight, requests
        // are not admitted.
        thread::sleep(cooldown + Duration::from_millis(10));
        let prober = {
            let replica = Arc::clone(&replica);
            thread::spawn(move || replica.probe(timeout))
        };
        let lines: Vec<usize> = (0..4).map(|_| seen.recv().expect("line")).collect();
        assert_eq!(lines, [0, 1, 2, 3], "the probe's STATS reached the backend");
        assert_eq!(replica.health.state(), HealthState::Probing);
        assert!(!replica.health.try_admit(), "the probe holds the admission");
        gate.send(()).expect("backend waits at the gate");
        prober.join().expect("prober");
        assert_eq!(
            replica.counts.probe_fail.get(),
            1,
            "OVERLOADED is no STATS answer"
        );
        assert_eq!(replica.health.state(), HealthState::Down);
        assert_eq!(replica.health.downs(), 3);
    }
}
