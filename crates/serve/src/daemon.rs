//! The lifecycle both daemons share: `oct-serve` ([`crate::Server`]) and
//! `oct-router` each supply their own state and their answer to one
//! request (a [`Service`]); binding, admission, the worker pool, the
//! connection loop, drain and the final metrics report live here once.
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
//!              │   budget = deadline ∧ drain token
//!              │   SHUTDOWN ─▶ start drain, answer DRAINING
//!              │   anything else ─▶ Service::handle(request, budget)
//!              │   response line appended to the output buffer
//!              ▼
//!           one write of the buffer, before the next read or the close
//! ```
//!
//! # Pipelined replies
//!
//! The connection loop answers every complete line of a read chunk into
//! one buffer and writes that buffer with a single `write_all` when no
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
//! SIGTERM / SIGINT / the `SHUTDOWN` verb / a [`DrainHandle`] raise a flag
//! the accept loop and workers poll (a failed accept raises it too). Drain
//! then proceeds: stop accepting → close the admission queue (future
//! pushes rejected, queued connections still served) → workers finish the
//! request in hand and close their connections → after `drain_grace` any
//! stragglers are cancelled through the shared drain [`CancelToken`]
//! (their budgets expire, so they complete degraded rather than hang) →
//! the workers are joined → metrics are flushed as a [`PipelineReport`].
//! Exit is clean: every admitted request gets *some* response.
//!
//! # Metrics
//!
//! Under [`Service::NAME`] (`serve/…` or `router/…`): counters `accepted`,
//! `shed`, `requests`, `idle_closed`, `conn_retired`, `conn_gave_way` and
//! the `latency` histogram, all handles held from bind; the `queue_depth`
//! gauge is written per accept-loop turn and once more after drain.

use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use oct_obs::{Counter, Histogram, Metrics, PipelineReport};
use oct_resilience::{Budget, CancelToken};

use crate::protocol::{ErrorCode, Request, Response};
use crate::queue::{BoundedQueue, Push};
use crate::signal;

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

/// What one daemon adds to the shared lifecycle: its own state and its
/// answer to one request.
pub trait Service: Send + Sync + 'static {
    /// The daemon's name: the prefix of its lifecycle metrics
    /// (`<NAME>/accepted`, …) and the stem of its worker threads' names
    /// (`oct-<NAME>-worker-<i>`).
    const NAME: &'static str;

    /// Answers one parsed request under `budget` (the request deadline ∧
    /// the drain token). `SHUTDOWN` never gets here: the lifecycle answers
    /// it by starting drain.
    fn handle(&self, request: Request, budget: Budget) -> Response;
}

/// The lifecycle knobs both daemons' configs carry; see
/// [`ServeConfig`](crate::ServeConfig) for what each one means.
#[derive(Debug, Clone)]
pub struct Settings {
    /// Bind address (port 0 picks a free port).
    pub addr: String,
    /// Worker threads.
    pub workers: usize,
    /// Admission-queue capacity.
    pub queue_capacity: usize,
    /// Per-request deadline; `None` is unlimited.
    pub deadline_ms: Option<u64>,
    /// How long drain waits for in-flight work before cancelling it.
    pub drain_grace: Duration,
    /// Cap on the cumulative wait for one complete request line.
    pub idle_timeout: Duration,
    /// Requests answered per connection before a courteous close (`0` =
    /// unlimited).
    pub max_requests: usize,
    /// Metrics sink.
    pub metrics: Metrics,
    /// Where to write the final [`PipelineReport`] JSON on exit.
    pub metrics_out: Option<PathBuf>,
}

/// A bound, not-yet-running daemon. [`Daemon::run`] blocks until drain.
pub struct Daemon<S> {
    listener: TcpListener,
    life: Arc<Lifecycle>,
    service: Arc<S>,
}

/// Triggers graceful drain from another thread (signal wiring, tests).
#[derive(Clone)]
pub struct DrainHandle {
    shutdown: Arc<AtomicBool>,
}

impl DrainHandle {
    /// Begins graceful drain, as if SIGTERM had arrived.
    pub fn drain(&self) {
        self.shutdown.store(true, Ordering::Relaxed);
    }

    /// `true` once drain has begun, through this daemon's own flag or the
    /// process-global signal flag (OR'd in so several daemons in one test
    /// process don't drain each other, while SIGTERM drains them all).
    pub fn is_draining(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed) || signal::shutdown_requested()
    }
}

/// Everything the accept loop and the workers share.
struct Lifecycle {
    settings: Settings,
    queue: BoundedQueue<TcpStream>,
    drain: DrainHandle,
    /// Cancelled at the end of the drain grace period; every request
    /// budget carries it.
    drain_token: CancelToken,
    /// Connections currently being served by workers.
    in_flight: AtomicUsize,
    accepted: Counter,
    shed: Counter,
    requests: Counter,
    latency: Histogram,
    idle_closed: Counter,
    retired: Counter,
    gave_way: Counter,
    /// `<prefix>/queue_depth`, formatted once.
    queue_depth: String,
}

impl Lifecycle {
    fn draining(&self) -> bool {
        self.drain.is_draining()
    }

    fn budget(&self) -> Budget {
        let deadline = self.settings.deadline_ms.map(Duration::from_millis);
        Budget::with_deadline_and_token(deadline, self.drain_token.clone())
    }

    fn note_queue_depth(&self) {
        let depth = self.queue.len() as f64;
        self.settings.metrics.gauge(&self.queue_depth, depth);
    }
}

impl<S: Service> Daemon<S> {
    /// Binds the non-blocking listener and prepares the shared state.
    pub fn bind(settings: Settings, service: S) -> io::Result<Self> {
        let listener = TcpListener::bind(&settings.addr)?;
        listener.set_nonblocking(true)?;
        let metrics = &settings.metrics;
        let name = |metric: &str| format!("{}/{metric}", S::NAME);
        let life = Lifecycle {
            queue: BoundedQueue::new(settings.queue_capacity),
            drain: DrainHandle {
                shutdown: Arc::new(AtomicBool::new(false)),
            },
            drain_token: CancelToken::new(),
            in_flight: AtomicUsize::new(0),
            accepted: metrics.counter(&name("accepted")),
            shed: metrics.counter(&name("shed")),
            requests: metrics.counter(&name("requests")),
            latency: metrics.histogram(&name("latency")),
            idle_closed: metrics.counter(&name("idle_closed")),
            retired: metrics.counter(&name("conn_retired")),
            gave_way: metrics.counter(&name("conn_gave_way")),
            queue_depth: name("queue_depth"),
            settings,
        };
        Ok(Self {
            listener,
            life: Arc::new(life),
            service: Arc::new(service),
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that can trigger graceful drain from another thread.
    pub fn drain_handle(&self) -> DrainHandle {
        self.life.drain.clone()
    }

    /// The daemon's own state, for threads of its own that outlive `run`'s
    /// borrow (the router's prober).
    pub fn service(&self) -> &Arc<S> {
        &self.service
    }

    /// Runs accept → serve → drain to completion and returns the final
    /// metrics report (already written to `metrics_out` if configured). A
    /// failed accept drains like SIGTERM and is then returned as the error.
    pub fn run(self) -> io::Result<PipelineReport> {
        let Self {
            listener,
            life,
            service,
        } = self;
        let workers: Vec<_> = (0..life.settings.workers.max(1))
            .map(|i| {
                let (life, service) = (Arc::clone(&life), Arc::clone(&service));
                thread::Builder::new()
                    .name(format!("oct-{}-worker-{i}", S::NAME))
                    .spawn(move || worker_loop(&life, &*service))
                    .expect("spawn worker")
            })
            .collect();

        let accepted = accept_loop(&listener, &life);

        // Drain: no new admissions; queued connections still get served.
        life.queue.close();
        let grace_end = Instant::now() + life.settings.drain_grace;
        while (life.in_flight.load(Ordering::Relaxed) > 0 || !life.queue.is_empty())
            && Instant::now() < grace_end
        {
            thread::sleep(Duration::from_millis(5));
        }
        // Stragglers: expire every outstanding budget so requests finish
        // degraded instead of hanging past the grace period.
        life.drain_token.cancel();
        for w in workers {
            let _ = w.join();
        }
        accepted?;

        life.note_queue_depth();
        let report = life.settings.metrics.report();
        if let Some(path) = &life.settings.metrics_out {
            std::fs::write(path, report.to_json())?;
        }
        Ok(report)
    }
}

/// Accepts until drain is requested, or until an accept fails (which
/// requests drain). Shedding happens here, before any work: a connection
/// that cannot be queued gets the typed answer and is closed (see
/// [`reject`]).
fn accept_loop(listener: &TcpListener, life: &Lifecycle) -> io::Result<()> {
    while !life.draining() {
        match listener.accept() {
            Ok((conn, _peer)) => {
                life.accepted.incr();
                // Replies go out as one write per request chunk; with
                // Nagle on, a write made while the previous one is
                // unacknowledged waits for the client's delayed ACK,
                // tens of milliseconds per round.
                let _ = conn.set_nodelay(true);
                admit(life, conn);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(ACCEPT_INTERVAL);
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => {
                life.drain.drain();
                return Err(e);
            }
        }
        life.note_queue_depth();
    }
    Ok(())
}

/// Admission control: queue the connection or shed it with a typed reply.
fn admit(life: &Lifecycle, conn: TcpStream) {
    match life.queue.try_push(conn) {
        Push::Ok => {}
        Push::Full(conn, depth) => {
            life.shed.incr();
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
/// [`close_lingering`].
fn reject(mut conn: TcpStream, response: Response) {
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

fn worker_loop(life: &Lifecycle, service: &impl Service) {
    loop {
        match life.queue.pop_timeout(POP_INTERVAL) {
            Some(conn) => {
                life.in_flight.fetch_add(1, Ordering::Relaxed);
                let _ = serve_connection(conn, life, |request| match request {
                    Request::Shutdown => {
                        life.drain.drain();
                        Response::Draining
                    }
                    request => service.handle(request, life.budget()),
                });
                life.in_flight.fetch_sub(1, Ordering::Relaxed);
            }
            None if life.queue.is_closed() => return,
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

/// Serves request lines on one connection until EOF, a `SHUTDOWN`, drain,
/// the idle budget or the request cap, or an I/O error, answering each
/// parsed request with `handle`. One malformed line yields
/// `ERR bad-request`, not a dropped connection. Once answered, a
/// connection that waits idle for its next request while another
/// connection waits in the queue gives way: it is closed with a lingering
/// close (see the module docs).
///
/// Answers are buffered and written once per read chunk (see the module
/// docs); every close writes the buffer first. A write waits under the
/// same `idle_timeout` deadline and drain check as a read, and a write
/// that cannot progress closes the connection. The closes the daemon
/// chooses (request cap, `SHUTDOWN`, drain) linger like [`reject`], so
/// pipelined requests it leaves unread do not turn them into resets.
fn serve_connection(
    mut conn: TcpStream,
    life: &Lifecycle,
    mut handle: impl FnMut(Request) -> Response,
) -> io::Result<()> {
    conn.set_nonblocking(false)?;
    conn.set_read_timeout(Some(READ_INTERVAL))?;
    conn.set_write_timeout(Some(READ_INTERVAL))?;
    let (idle_timeout, max_requests) = (life.settings.idle_timeout, life.settings.max_requests);
    let mut reader = LineReader::new();
    let mut out: Vec<u8> = Vec::new();
    let mut served = 0usize;
    loop {
        // The next line needs a read from the socket: answer everything
        // so far first, in one write.
        if !reader.has_line() && !out.is_empty() {
            write_within(&mut conn, &out, life)?;
            out.clear();
        }
        // The deadline is per *complete line*, so a slowloris dribbling
        // bytes (which resets the socket read timeout every poll) still
        // runs out of road.
        let deadline = Instant::now() + idle_timeout;
        let answered = served > 0;
        let give_way = || answered && !life.queue.is_empty();
        let draining = || life.draining();
        let line = match reader.next_line_within(&mut conn, draining, give_way, deadline)? {
            NextLine::Line(line) => line,
            NextLine::Closed => return Ok(()), // EOF or drain while idle
            NextLine::TimedOut => {
                life.idle_closed.incr();
                return Ok(());
            }
            NextLine::GiveWay => {
                life.gave_way.incr();
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
                life.requests.incr();
                let resp = handle(request);
                life.latency.observe(started.elapsed());
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
        let done = matches!(response, Response::Draining) || life.draining();
        // Courteous close at the cap: the Nth response goes out first, and
        // a well-behaved client (the router's pool included) treats the
        // EOF as "reconnect", not as a failure.
        let retired = !done && max_requests > 0 && served >= max_requests;
        if done || retired {
            if retired {
                life.retired.incr();
            }
            // Pipelined requests past this one may still sit unread in
            // the socket: a plain drop would reset the connection.
            write_within(&mut conn, &out, life)?;
            close_lingering(conn);
            return Ok(());
        }
    }
}

/// Writes all of `out` under the limits a read waits under: the socket's
/// write timeout is [`READ_INTERVAL`], and when a write makes no progress
/// for that long the wait ends if drain has begun or `idle_timeout` has
/// passed since the call. A client that pipelines requests and never
/// reads its answers fills the socket buffers; its connection is then
/// closed (the error drops the socket) instead of pinning the worker past
/// drain.
fn write_within(conn: &mut TcpStream, mut out: &[u8], life: &Lifecycle) -> io::Result<()> {
    let deadline = Instant::now() + life.settings.idle_timeout;
    while !out.is_empty() {
        match conn.write(out) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => out = &out[n..],
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if life.draining() || Instant::now() >= deadline {
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
