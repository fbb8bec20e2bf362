//! The serving daemon: accept loop, worker pool, and the robustness
//! machinery wrapped around every request.
//!
//! # Request lifecycle
//!
//! ```text
//! accept ─▶ admission (BoundedQueue.try_push)
//!              │ Full ─▶ OVERLOADED queue=N, lingering close (typed shed, no work done)
//!              ▼
//!           worker pops connection ─▶ serve_connection
//!              │ read one chunk (≤ 4 KiB) of request bytes
//!              │ per complete request line in it:
//!              │   snapshot = TreeHandle::load()     (hot-swap safe)
//!              │   budget   = deadline ∧ drain token (slow ⇒ degraded cover)
//!              │   run_isolated { execute }  (panic ⇒ ERR internal)
//!              │   response line appended to the output buffer
//!              ▼
//!           one write of the buffer, before the next read or the close
//! ```
//!
//! A cover is a pure function of (snapshot, request), so a contained panic
//! would recur on a retry: it is answered with `ERR internal` at once, and
//! the connection goes on to its next request. Failover to another
//! replica lives in the shard router, where failures are transient.
//!
//! # Pipelined replies
//!
//! [`serve_connection`] is the connection loop of both daemons (`oct-router`
//! passes its own handler). It answers every complete line of a read chunk
//! into one buffer and writes that buffer with a single `write_all` when no
//! complete line is left, i.e. just before it would read the socket again,
//! and before every close (EOF aside: the buffer is already empty then). A
//! burst of pipelined requests thus costs one write and one packet per read
//! chunk instead of two per answer. The price: a slow request (a `SWAP`, a
//! cover that runs to its deadline) also holds back the earlier answers of
//! its own chunk. Writes are bounded like reads: a client that pipelines
//! requests and never reads its answers loses its connection at the idle
//! deadline or at drain, whichever comes first, rather than pin a worker.
//!
//! # Giving way
//!
//! A connection holds its worker until it closes, so idle keep-alive
//! connections (a router's pool, a client between requests) can hold every
//! worker while a new connection waits in the admission queue. A
//! connection that has been answered at least once and sits idle at a
//! request boundary therefore gives way: when its read times out while
//! another connection waits, it is closed with the lingering close, and
//! the worker takes the waiting one. Pooled clients already treat such an
//! EOF as a stale connection and redial. A connection that has not sent
//! its first request yet keeps its worker.
//!
//! # Drain
//!
//! SIGTERM / SIGINT / the `SHUTDOWN` verb raise a flag the accept loop and
//! workers poll. Drain then proceeds: stop accepting → close the admission
//! queue (future pushes rejected, queued connections still served) →
//! workers finish the request in hand and close their connections → after
//! a grace period any stragglers are cancelled through the shared drain
//! [`CancelToken`] (their budgets expire, so they complete degraded rather
//! than hang) → metrics are flushed as a [`PipelineReport`]. Exit is clean:
//! every admitted request gets *some* response.

use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use oct_core::{persist, Similarity};
use oct_obs::{Counter, Histogram, Metrics, PipelineReport};
use oct_resilience::{run_isolated, Budget, CancelToken};

use crate::protocol::{ErrorCode, Request, Response};
use crate::queue::{BoundedQueue, Push};
use crate::signal;
use crate::swap::{ServingTree, TreeHandle};

/// How long a worker blocks on the queue before re-checking shutdown.
const POP_INTERVAL: Duration = Duration::from_millis(25);
/// Socket read timeout — the cadence at which idle connections notice drain.
const READ_INTERVAL: Duration = Duration::from_millis(50);
/// Accept-loop poll interval when no connection is pending.
const ACCEPT_INTERVAL: Duration = Duration::from_millis(5);
/// Hard cap on one request line (DoS guard).
const MAX_LINE: usize = 1 << 20;
/// How long a connection the daemon closes is drained before it is dropped.
const LINGER: Duration = Duration::from_millis(50);

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

/// Everything workers and the accept loop share.
struct Shared {
    config: ServeConfig,
    trees: TreeHandle,
    queue: BoundedQueue<TcpStream>,
    metrics: Metrics,
    connections: ConnectionPolicy,
    /// `serve/scoped`: shard-scoped sub-queries (router fan-out).
    scoped: Counter,
    /// Per-server drain flag (the process-global signal flag is OR'd in so
    /// several test servers in one process don't drain each other).
    shutdown: AtomicBool,
    /// Cancelled at the end of the drain grace period; every request
    /// budget carries it.
    drain_token: CancelToken,
    /// Connections currently being served by workers.
    in_flight: AtomicUsize,
    /// Sticky: latched the first time any answer is served degraded, and
    /// reported in `STATS` so health probes can spot a limping replica.
    served_degraded: AtomicBool,
}

impl Shared {
    fn draining(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed) || signal::shutdown_requested()
    }

    fn request_drain(&self) {
        self.shutdown.store(true, Ordering::Relaxed);
    }
}

/// A bound, not-yet-running server. [`Server::run`] blocks until drain.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

/// Lets tests (and the CLI's signal wiring) trigger drain without a socket.
#[derive(Clone)]
pub struct DrainHandle {
    shared: Arc<Shared>,
}

impl DrainHandle {
    /// Begins graceful drain, as if SIGTERM had arrived.
    pub fn drain(&self) {
        self.shared.request_drain();
    }
}

impl Server {
    /// Binds the listener and prepares the shared state. The initial tree
    /// snapshot must already be built (epoch 0 by convention).
    pub fn bind(config: ServeConfig, initial: ServingTree) -> io::Result<Self> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let similarity = config.similarity;
        let shared = Arc::new(Shared {
            queue: BoundedQueue::new(config.queue_capacity),
            metrics: config.metrics.clone(),
            connections: ConnectionPolicy::new(
                &config.metrics,
                "serve",
                config.idle_timeout,
                config.max_requests,
            ),
            scoped: config.metrics.counter("serve/scoped"),
            trees: TreeHandle::new(initial, similarity),
            shutdown: AtomicBool::new(false),
            drain_token: CancelToken::new(),
            in_flight: AtomicUsize::new(0),
            served_degraded: AtomicBool::new(false),
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

    /// Runs accept → serve → drain to completion and returns the final
    /// metrics report (already written to `metrics_out` if configured).
    pub fn run(self) -> io::Result<PipelineReport> {
        let Self { listener, shared } = self;
        let workers: Vec<_> = (0..shared.config.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("oct-serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker")
            })
            .collect();

        // Accept until drain is requested. Shedding happens here, before
        // any work: a connection that cannot be queued gets the typed
        // OVERLOADED response and is closed (see `reject`).
        while !shared.draining() {
            match listener.accept() {
                Ok((conn, _peer)) => {
                    shared.metrics.incr("serve/accepted");
                    // Replies go out as one write per request chunk; with
                    // Nagle on, a write made while the previous one is
                    // unacknowledged waits for the client's delayed ACK,
                    // tens of milliseconds per round.
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
                .gauge("serve/queue_depth", shared.queue.len() as f64);
        }

        // Drain: no new admissions; queued connections still get served.
        shared.queue.close();
        let grace_end = Instant::now() + shared.config.drain_grace;
        while (shared.in_flight.load(Ordering::Relaxed) > 0 || !shared.queue.is_empty())
            && Instant::now() < grace_end
        {
            thread::sleep(Duration::from_millis(5));
        }
        // Stragglers: expire every outstanding budget so requests finish
        // degraded instead of hanging past the grace period.
        shared.drain_token.cancel();
        for w in workers {
            let _ = w.join();
        }

        shared
            .metrics
            .gauge("serve/queue_depth", shared.queue.len() as f64);
        let report = shared.metrics.report();
        if let Some(path) = &shared.config.metrics_out {
            std::fs::write(path, report.to_json())?;
        }
        Ok(report)
    }
}

/// Admission control: queue the connection or shed it with a typed reply.
fn admit(shared: &Shared, conn: TcpStream) {
    match shared.queue.try_push(conn) {
        Push::Ok => {}
        Push::Full(conn, depth) => {
            shared.metrics.incr("serve/shed");
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

/// Answers a connection that will not be served, then closes it with
/// [`close_lingering`]. Both daemons' accept loops shed through this.
pub fn reject(mut conn: TcpStream, response: Response) {
    let _ = conn.set_nonblocking(false);
    let mut line = Vec::new();
    push_line(&mut line, &response);
    let _ = conn.write_all(&line);
    close_lingering(conn);
}

/// Closes a connection without a reset. Dropping a socket whose request
/// bytes were never read makes the kernel send RST, which can destroy the
/// reply before the client reads it (the client sees `Broken pipe` or
/// `Connection reset`). So the close lingers: shut down the write half,
/// which sends what was written and then FIN, read and discard what the
/// client sends until it closes, and drop the socket after that. The drain
/// stops after [`LINGER`], so a slow client cannot stall the caller for
/// longer.
fn close_lingering(mut conn: TcpStream) {
    let _ = conn.shutdown(Shutdown::Write);
    let deadline = Instant::now() + LINGER;
    let mut sink = [0u8; 1024];
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() || conn.set_read_timeout(Some(left)).is_err() {
            return;
        }
        match conn.read(&mut sink) {
            Ok(n) if n > 0 => {}
            _ => return, // EOF, timeout or error: nothing left to drain
        }
    }
}

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

/// Appends one response as it goes on the wire: the encoded line and its
/// `'\n'`.
fn push_line(out: &mut Vec<u8>, response: &Response) {
    out.extend_from_slice(response.encode().as_bytes());
    out.push(b'\n');
}

/// A daemon's per-connection limits and the metric handles its
/// [`serve_connection`] loop updates, looked up once so the per-request
/// path takes no lock and formats no name.
pub struct ConnectionPolicy {
    /// Slowloris guard: cap on the cumulative wait for one complete line.
    idle_timeout: Duration,
    /// Requests answered per connection before a courteous close (`0` =
    /// unlimited).
    max_requests: usize,
    requests: Counter,
    latency: Histogram,
    idle_closed: Counter,
    retired: Counter,
    gave_way: Counter,
}

impl ConnectionPolicy {
    /// The policy of one daemon, counting under
    /// `<prefix>/{requests,latency,idle_closed,conn_retired,conn_gave_way}`.
    pub fn new(
        metrics: &Metrics,
        prefix: &str,
        idle_timeout: Duration,
        max_requests: usize,
    ) -> Self {
        Self {
            idle_timeout,
            max_requests,
            requests: metrics.counter(&format!("{prefix}/requests")),
            latency: metrics.histogram(&format!("{prefix}/latency")),
            idle_closed: metrics.counter(&format!("{prefix}/idle_closed")),
            retired: metrics.counter(&format!("{prefix}/conn_retired")),
            gave_way: metrics.counter(&format!("{prefix}/conn_gave_way")),
        }
    }
}

/// Serves request lines on one connection until EOF, a `SHUTDOWN`, drain
/// (`draining()` turning true), the idle budget or the request cap of
/// `policy`, or an I/O error, answering each parsed request with `handle`.
/// One malformed line yields `ERR bad-request`, not a dropped connection.
/// Once answered, a connection that waits idle for its next request while
/// `waiting()` is true (another connection waits for a worker) gives way:
/// it is closed with a lingering close (see the module docs).
///
/// Answers are buffered and written once per read chunk (see the module
/// docs); every close writes the buffer first. A write waits under the
/// same `idle_timeout` deadline and drain check as a read, and a write
/// that cannot progress closes the connection. The closes the daemon
/// chooses (request cap, `SHUTDOWN`, drain) linger like [`reject`], so
/// pipelined requests it leaves unread do not turn them into resets.
pub fn serve_connection(
    mut conn: TcpStream,
    policy: &ConnectionPolicy,
    draining: impl Fn() -> bool,
    waiting: impl Fn() -> bool,
    mut handle: impl FnMut(Request) -> Response,
) -> io::Result<()> {
    conn.set_nonblocking(false)?;
    conn.set_read_timeout(Some(READ_INTERVAL))?;
    conn.set_write_timeout(Some(READ_INTERVAL))?;
    let mut reader = LineReader::new();
    let mut out: Vec<u8> = Vec::new();
    let mut served = 0usize;
    loop {
        // The next line needs a read from the socket: answer everything
        // so far first, in one write.
        if !reader.has_line() && !out.is_empty() {
            write_within(&mut conn, &out, &draining, policy.idle_timeout)?;
            out.clear();
        }
        // The deadline is per *complete line*, so a slowloris dribbling
        // bytes (which resets the socket read timeout every poll) still
        // runs out of road.
        let deadline = Instant::now() + policy.idle_timeout;
        let answered = served > 0;
        let give_way = || answered && waiting();
        let line = match reader.next_line_within(&mut conn, &draining, give_way, deadline)? {
            NextLine::Line(line) => line,
            NextLine::Closed => return Ok(()), // EOF or drain while idle
            NextLine::TimedOut => {
                policy.idle_closed.incr();
                return Ok(());
            }
            NextLine::GiveWay => {
                policy.gave_way.incr();
                close_lingering(conn);
                return Ok(());
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        let response = match Request::parse(&line) {
            Ok(request) => {
                let started = Instant::now();
                policy.requests.incr();
                let resp = handle(request);
                policy.latency.observe(started.elapsed());
                resp
            }
            Err(message) => Response::Error {
                code: ErrorCode::BadRequest,
                message,
            },
        };
        push_line(&mut out, &response);
        served += 1;
        // Drain closes busy connections too: the request in hand gets its
        // response, but a client pipelining fast enough to never leave a
        // read-timeout gap must not pin this worker past drain.
        let done = matches!(response, Response::Draining) || draining();
        // Courteous close at the cap: the Nth response goes out first, and
        // a well-behaved client (the router's pool included) treats the
        // EOF as "reconnect", not as a failure.
        let retired = !done && policy.max_requests > 0 && served >= policy.max_requests;
        if done || retired {
            if retired {
                policy.retired.incr();
            }
            // Pipelined requests past this one may still sit unread in
            // the socket: a plain drop would reset the connection.
            write_within(&mut conn, &out, &draining, policy.idle_timeout)?;
            close_lingering(conn);
            return Ok(());
        }
    }
}

/// Writes all of `out` under the limits a read waits under: the socket's
/// write timeout is [`READ_INTERVAL`], and when a write makes no progress
/// for that long the wait ends if `draining()` is true or `idle_timeout`
/// has passed since the call. A client that pipelines requests and never
/// reads its answers fills the socket buffers; its connection is then
/// closed (the error drops the socket) instead of pinning the worker past
/// drain.
fn write_within(
    conn: &mut TcpStream,
    mut out: &[u8],
    draining: impl Fn() -> bool,
    idle_timeout: Duration,
) -> io::Result<()> {
    let deadline = Instant::now() + idle_timeout;
    while !out.is_empty() {
        match conn.write(out) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => out = &out[n..],
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if draining() || Instant::now() >= deadline {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "the client is not reading its answers",
                    ));
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Dispatches one parsed request against the *current* tree snapshot.
fn handle_request(shared: &Shared, request: Request) -> Response {
    // Load once per request: a swap published mid-request never tears this
    // snapshot, and the next request on the same connection sees the new
    // epoch.
    let snapshot = shared.trees.load();
    match request {
        Request::Ping => Response::Pong {
            epoch: snapshot.epoch,
        },
        Request::Categorize { items, shard } => {
            count_scoped(shared, shard);
            cover(shared, &snapshot, &items, true)
        }
        Request::Score { items, shard } => {
            count_scoped(shared, shard);
            cover(shared, &snapshot, &items, false)
        }
        Request::NavigateTopK { k, items, ef } => {
            if k == 0 {
                return Response::Error {
                    code: ErrorCode::BadRequest,
                    message: "top-k count must be positive".to_owned(),
                };
            }
            navigate_topk(shared, &snapshot, k, &items, ef)
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
            degraded: shared.served_degraded.load(Ordering::Relaxed),
        },
        Request::Swap { path } => swap_tree(shared, &path),
        Request::Shutdown => {
            shared.request_drain();
            Response::Draining
        }
    }
}

/// Counts shard-scoped sub-queries (router fan-out) under `serve/scoped`;
/// the scope tag does not change the computation. One counter for every
/// shard id, so client-chosen ids cannot grow the metric set.
fn count_scoped(shared: &Shared, shard: Option<u32>) {
    if shard.is_some() {
        shared.scoped.incr();
    }
}

/// The cover scan, isolated by [`answer_isolated`].
fn cover(shared: &Shared, snapshot: &ServingTree, items: &[u32], with_label: bool) -> Response {
    let budget = request_budget(shared);
    answer_isolated(shared, "serve request", || {
        let point = snapshot
            .index
            .best_cover(items, &shared.trees.similarity, &budget);
        note_degraded(shared, point.degraded);
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
    shared: &Shared,
    snapshot: &ServingTree,
    k: usize,
    items: &[u32],
    ef: Option<usize>,
) -> Response {
    let budget = request_budget(shared);
    answer_isolated(shared, "serve topk", || {
        let answer = snapshot.index.navigate(
            &snapshot.ann,
            items,
            k,
            ef,
            &shared.trees.similarity,
            &budget,
        );
        note_degraded(shared, answer.degraded);
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
    shared: &Shared,
    context: &'static str,
    compute: impl FnOnce() -> Response,
) -> Response {
    run_isolated(context, compute).unwrap_or_else(|e| {
        shared.metrics.incr("serve/failures");
        Response::Error {
            code: ErrorCode::Internal,
            message: e.to_string(),
        }
    })
}

/// Counts a degraded answer and latches the sticky `STATS` flag.
fn note_degraded(shared: &Shared, degraded: bool) {
    if degraded {
        shared.metrics.incr("serve/degraded");
        shared.served_degraded.store(true, Ordering::Relaxed);
    }
}

fn request_budget(shared: &Shared) -> Budget {
    let deadline = shared.config.deadline_ms.map(Duration::from_millis);
    Budget::with_deadline_and_token(deadline, shared.drain_token.clone())
}

/// Hot swap: load + decode + index a tree file off the request path, then
/// publish it atomically.
///
/// Every failure path — unreadable file, undecodable bytes, a panic while
/// indexing the decoded tree — leaves the serving state untouched: the
/// epoch does not advance, `serve/swaps` counts only *published* swaps
/// (failures land under `serve/swap_failed`), and the old tree keeps
/// serving.
fn swap_tree(shared: &Shared, path: &str) -> Response {
    let fail = |message: String| {
        shared.metrics.incr("serve/swap_failed");
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
    let num_items = shared.trees.load().index.num_items();
    // Building the point index walks the decoded tree; isolate it so a
    // pathological-but-decodable file cannot kill the worker or publish a
    // half-built snapshot.
    let next = match run_isolated("swap build", || {
        ServingTree::build(tree, num_items, 0, path)
    }) {
        Ok(next) => next,
        Err(e) => return fail(format!("cannot index {path}: {e}")),
    };
    let published = shared.trees.swap(next);
    shared.metrics.incr("serve/swaps");
    Response::Swapped {
        epoch: published.epoch,
        categories: published.stats.categories,
    }
}

/// Incremental line reader tolerant of read timeouts.
///
/// `BufReader::read_line` cannot be used across a timeout error — it may
/// have consumed a partial line into its private buffer. This reader owns
/// the buffer, so timeouts are a clean "no progress yet" and the partial
/// line survives for the next poll.
struct LineReader {
    buf: Vec<u8>,
    chunk: [u8; 4096],
}

impl LineReader {
    fn new() -> Self {
        Self {
            buf: Vec::new(),
            chunk: [0; 4096],
        }
    }

    /// `true` when a complete line is already buffered, so the next
    /// [`next_line_within`](Self::next_line_within) returns it without
    /// touching the socket.
    fn has_line(&self) -> bool {
        self.buf.contains(&b'\n')
    }

    /// Reads until a full line, EOF, `should_stop()` turning true while
    /// idle between timeouts, `give_way()` turning true while idle with
    /// nothing buffered, or `deadline`. The deadline is checked between
    /// reads, so it caps *cumulative* wait — a slowloris dribbling one
    /// byte per socket-timeout window makes progress against the socket
    /// timeout but not against this deadline. A line already buffered is
    /// always returned, deadline or not.
    fn next_line_within(
        &mut self,
        conn: &mut TcpStream,
        should_stop: impl Fn() -> bool,
        give_way: impl Fn() -> bool,
        deadline: Instant,
    ) -> io::Result<NextLine> {
        loop {
            if let Some(at) = self.buf.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = self.buf.drain(..=at).collect();
                return Ok(NextLine::Line(String::from_utf8_lossy(&line).into_owned()));
            }
            if self.buf.len() > MAX_LINE {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "request line too long",
                ));
            }
            if Instant::now() >= deadline {
                return Ok(NextLine::TimedOut);
            }
            match conn.read(&mut self.chunk) {
                Ok(0) => return Ok(NextLine::Closed),
                Ok(n) => self.buf.extend_from_slice(&self.chunk[..n]),
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    if should_stop() {
                        return Ok(NextLine::Closed);
                    }
                    if self.buf.is_empty() && give_way() {
                        return Ok(NextLine::GiveWay);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// Outcome of one [`LineReader::next_line_within`] wait.
enum NextLine {
    /// A complete request line, newline included.
    Line(String),
    /// Clean EOF, or `should_stop` turned true while idle.
    Closed,
    /// The deadline elapsed before a complete line arrived.
    TimedOut,
    /// Idle at a request boundary while `give_way` held.
    GiveWay,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use oct_core::{CategoryTree, ROOT};

    /// No request makes the cover computation panic, so the test handler
    /// runs a panicking closure through [`answer_isolated`] for `SCORE`
    /// and serves everything else through [`handle_request`].
    #[test]
    fn panicking_computation_answers_err_internal_and_the_connection_keeps_serving() {
        let mut tree = CategoryTree::new();
        let cat = tree.add_category(ROOT);
        tree.assign_items(cat, [0, 1, 2]);
        let config = ServeConfig {
            metrics: Metrics::enabled(),
            ..ServeConfig::default()
        };
        let server = Server::bind(config, ServingTree::build(tree, 8, 0, "test")).expect("bind");
        let addr = server.local_addr().expect("addr");
        let shared = Arc::clone(&server.shared);
        let serving = thread::spawn(move || {
            server
                .listener
                .set_nonblocking(false)
                .expect("blocking accept");
            let (conn, _) = server.listener.accept().expect("accept");
            let shared = &server.shared;
            serve_connection(
                conn,
                &shared.connections,
                || shared.draining(),
                || false,
                |request| match request {
                    Request::Score { .. } => {
                        answer_isolated(shared, "serve request", || panic!("cover bug"))
                    }
                    other => handle_request(shared, other),
                },
            )
        });

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
        serving.join().expect("no unwind").expect("clean EOF");
        let report = shared.metrics.report();
        assert_eq!(report.counter("serve/failures"), Some(1));
        assert_eq!(report.counter("serve/requests"), Some(2));
    }
}
