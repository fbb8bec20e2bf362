//! `serve`: an `octree serve` daemon answers a fixed-rate open-loop read
//! mix from one client connection, arriving in pipelined bursts. One
//! operation is one request, timed from the moment its burst was due to be
//! sent. Client and daemon share one CPU. The traced run also sends the
//! same stream, one request at a time, through `octree router` over two
//! shards × one replica.
//!
//! The mix is mostly CATEGORIZE/SCORE plus `NAVIGATE 10 items=…`. Item sets
//! are the instance's own result sets, drawn in proportion to their weight
//! (the log's average daily frequency), and some carry an id outside the
//! catalog. Every answer is compared with the answer computed in process
//! from the same tree: byte-identical to
//! `PointIndex`/`top_covers_among` when served, and to the merge of the
//! shard-scoped sub-answers when routed.

use std::fs::{self, File};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use oct_core::prelude::*;
use oct_datagen::datasets::DatasetName;
use oct_obs::PipelineReport;
use oct_resilience::Budget;
use oct_router::{merge_covers, ShardMap, SubCover};
use oct_serve::{Request, Response};

use crate::affinity::CpuMask;
use crate::fixtures::{Dataset, Rng};
use crate::procfs::{self, Proc};
use crate::stats::{self, median};
use crate::{Opts, Outcome};

/// Dataset A at this scale gives the served CTCR tree.
const SCALE: f64 = 0.5;
/// Requests per second to the daemon. At this rate the connection crosses
/// the daemon's 10 000-request cap every 2.5 s.
const RATE: f64 = 4_000.0;
/// Requests per burst: the client writes a burst's request lines in one
/// write and then reads the answers, as a page that categorizes many item
/// sets at once would. Sent one at a time, a request's latency (about
/// 45 µs against 8 µs of handling on 2 vCPUs) was mostly thread wake-ups,
/// whose cost moves with the host's load; in a burst the daemon reads
/// request after request without sleeping, so its own work carries the
/// latency.
const BURST: usize = 32;
/// Requests per second through the router in the traced run: the router
/// spends about 0.35 ms of CPU per request, so 2 vCPUs cannot route `RATE`.
/// At 1 000 requests/s a slow spell of the machine let a backlog build
/// (a routed p50 of 270 ms); half that rate leaves headroom.
const ROUTE_RATE: f64 = 500.0;
/// Client connections (and client threads). One is steadier than two on 2
/// vCPUs: in eight alternating pairs of 20 s runs, one connection gave a
/// p50 of 46–53 µs and two gave 52–68 µs, as two spinning clients and two
/// busy workers contend for the two vCPUs.
const CONNECTIONS: usize = 1;
/// Worker threads of every daemon.
const WORKERS: usize = 2;
/// Share of requests per verb. An assumption, not a measured mix: reads
/// that categorize or score an item set are the daemon's main traffic, and
/// top-k NAVIGATE is the rarer browse path.
const VERB_MIX: [(Verb, f64); 3] = [
    (Verb::Categorize, 0.45),
    (Verb::Score, 0.45),
    (Verb::NavigateTopK, 0.10),
];
/// Share of item sets that carry one id outside the catalog (an item newer
/// than the served tree). An assumption, chosen so the unknown-item path of
/// `best_cover` is exercised in every run.
const UNKNOWN_SHARE: f64 = 0.2;
/// Top-k of the NAVIGATE requests.
const TOP_K: usize = 10;
/// The daemon's candidate-pool floor for top-k NAVIGATE (its
/// `TOPK_POOL_FLOOR`): the in-process answer must use the same pool.
const TOPK_POOL_FLOOR: usize = 32;
/// Calls per request when the query path is timed in process.
const REPS: usize = 3;
/// Daemon starts timed for `setup_s`. One start took anywhere from 10 to
/// 33 ms within a single run, so the median needs many of them.
const SETUP_REPS: usize = 41;
/// Pause between those starts. The machine's speed moves from second to
/// second, so starts taken back to back would all share one moment's
/// speed; spaced out, their median spans ten seconds of it.
const SETUP_GAP: Duration = Duration::from_millis(250);
/// Longest wait for a daemon to answer its first PING.
const START_TIMEOUT: Duration = Duration::from_secs(60);
/// Client socket timeout; a silent daemon fails the request.
const IO_TIMEOUT: Duration = Duration::from_secs(5);

/// One distinct request with the answers it must get.
struct Entry {
    /// Probability that a request of the stream is this one.
    share: f64,
    line: String,
    /// Answer a single daemon must give.
    served: String,
    /// Answer the router must give.
    routed: String,
    /// The router's shard-scoped sub-requests and each one's answer.
    subs: Vec<(usize, String, String)>,
    items: Vec<u32>,
    verb: Verb,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Verb {
    Categorize,
    Score,
    NavigateTopK,
}

/// A started daemon; dropping it kills and reaps the process.
struct Daemon {
    child: Child,
    port: u16,
    report: PathBuf,
}

impl Daemon {
    fn spawn(octree: &Path, args: &[String], work: &Path, name: &str) -> Result<Self, String> {
        let port = free_port()?;
        let report = work.join(format!("{name}-{port}.json"));
        let log = File::create(work.join(format!("{name}-{port}.log")))
            .map_err(|e| format!("cannot create daemon log: {e}"))?;
        let log2 = log.try_clone().map_err(|e| e.to_string())?;
        let child = Command::new(octree)
            .args(args)
            .arg("--addr")
            .arg(format!("127.0.0.1:{port}"))
            .arg("--workers")
            .arg(WORKERS.to_string())
            .arg("--metrics")
            .arg(&report)
            .stdin(Stdio::null())
            .stdout(log)
            .stderr(log2)
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", octree.display()))?;
        Ok(Self {
            child,
            port,
            report,
        })
    }

    fn pid(&self) -> Proc {
        Proc::Pid(self.child.id())
    }

    fn addr(&self) -> String {
        format!("127.0.0.1:{}", self.port)
    }

    /// Polls PING until the daemon answers `OK PONG`.
    fn wait_ready(&mut self, deadline: Instant) -> Result<(), String> {
        loop {
            if let Ok(Some(status)) = self.child.try_wait() {
                return Err(format!(
                    "daemon on port {} exited early: {status}",
                    self.port
                ));
            }
            if let Ok(mut conn) = Conn::open(&self.addr()) {
                if conn.call("PING").is_ok_and(|l| l.starts_with("OK PONG")) {
                    return Ok(());
                }
            }
            if Instant::now() > deadline {
                return Err(format!("daemon on port {} never answered PING", self.port));
            }
            std::thread::sleep(Duration::from_micros(500));
        }
    }

    /// Asks for a graceful drain and returns the report the daemon wrote.
    fn shutdown(mut self) -> Result<PipelineReport, String> {
        if let Ok(mut conn) = Conn::open(&self.addr()) {
            let _ = conn.call("SHUTDOWN");
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => break,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => return Err(format!("daemon on port {} did not drain", self.port)),
            }
        }
        let text = fs::read_to_string(&self.report)
            .map_err(|e| format!("daemon report {}: {e}", self.report.display()))?;
        PipelineReport::from_json(&text).map_err(|e| format!("daemon report: {e}"))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

fn free_port() -> Result<u16, String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("no free port: {e}"))?;
    listener
        .local_addr()
        .map(|a| a.port())
        .map_err(|e| e.to_string())
}

/// One client connection speaking the line protocol.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    line: String,
}

impl Conn {
    fn open(addr: &str) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        Ok(Self {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            line: String::new(),
        })
    }

    /// Sends one request line and returns the response line without its
    /// newline. A close before the answer is an error.
    fn call(&mut self, request: &str) -> std::io::Result<&str> {
        self.send(&[request])?;
        self.recv()
    }

    /// Writes request lines in one write without waiting for the answers.
    fn send(&mut self, requests: &[&str]) -> std::io::Result<()> {
        let mut out = Vec::with_capacity(requests.iter().map(|r| r.len() + 1).sum());
        for request in requests {
            out.extend_from_slice(request.as_bytes());
            out.push(b'\n');
        }
        self.writer.write_all(&out)
    }

    /// Reads the next response line, without its newline.
    fn recv(&mut self) -> std::io::Result<&str> {
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        Ok(self.line.trim_end_matches(['\r', '\n']))
    }
}

/// A connection that survives the daemon's courteous close: on EOF or
/// reset it reconnects and re-sends the (idempotent) read once.
struct Session {
    addr: String,
    conn: Option<Conn>,
    /// Connections opened so far. A request sent on an earlier one than
    /// the current one can no longer be answered and is re-sent.
    opened: u64,
    reconnects: u64,
}

/// How one request ended.
enum Answer {
    Line(String),
    Failed,
}

impl Session {
    fn new(addr: String) -> Self {
        Self {
            addr,
            conn: None,
            opened: 0,
            reconnects: 0,
        }
    }

    /// The open connection, opening one (a reconnect, after the first)
    /// when there is none.
    fn connect(&mut self) -> Option<&mut Conn> {
        if self.conn.is_none() {
            if self.opened > 0 {
                self.reconnects += 1;
            }
            self.opened += 1;
            self.conn = Conn::open(&self.addr).ok();
        }
        self.conn.as_mut()
    }

    /// One send-and-answer; a transport error drops the connection.
    fn attempt(&mut self, request: &str) -> Option<String> {
        let answer = self.connect()?.call(request).map(str::to_owned).ok();
        if answer.is_none() {
            self.conn = None;
        }
        answer
    }

    /// Writes `requests` without waiting for their answers, so several
    /// requests, on this session or others, are in flight at once. Returns
    /// the connection they went out on, if they did; [`Session::finish`]
    /// reads each answer, in order, either way.
    fn send(&mut self, requests: &[&str]) -> Option<u64> {
        let sent = self
            .connect()
            .is_some_and(|conn| conn.send(requests).is_ok());
        if !sent {
            self.conn = None;
            return None;
        }
        Some(self.opened)
    }

    /// The answer to a request passed to [`Session::send`]. If it did not
    /// go out, or its connection closed before the answer, the request is
    /// re-sent once on a new connection.
    fn finish(&mut self, request: &str, sent: Option<u64>) -> Answer {
        if sent.is_some_and(|conn| conn == self.opened) {
            let answer = self
                .conn
                .as_mut()
                .and_then(|c| c.recv().ok().map(str::to_owned));
            if let Some(line) = answer {
                return Answer::Line(line);
            }
            self.conn = None;
        }
        self.attempt(request).map_or(Answer::Failed, Answer::Line)
    }
}

/// Per-connection results of one load phase.
#[derive(Default)]
struct PhaseResult {
    latency_ms: Vec<f64>,
    late_ms: Vec<f64>,
    sent: u64,
    failed: u64,
    shed: u64,
    reconnects: u64,
    wrong: Vec<String>,
}

impl PhaseResult {
    fn absorb(&mut self, other: PhaseResult) {
        self.latency_ms.extend(other.latency_ms);
        self.late_ms.extend(other.late_ms);
        self.sent += other.sent;
        self.failed += other.failed;
        self.shed += other.shed;
        self.reconnects += other.reconnects;
        self.wrong.extend(other.wrong);
    }
}

/// Where a load phase sends its requests.
#[derive(Clone, Copy)]
enum Target<'a> {
    /// Bursts of this many whole requests, pipelined, to one daemon or
    /// router; answers compared with `served` or `routed`.
    Whole(&'a str, bool, usize),
    /// One request at a time, its shard-scoped sub-requests straight to
    /// the backends.
    Direct(&'a [String]),
}

/// Fires the open-loop stream at `rate` requests/s for `seconds`. Each connection
/// sends its bursts on its own fixed schedule; a request's latency runs
/// from its burst's due time, so a stall also charges the requests queued
/// behind it. Each request also records how late its burst went out.
fn load(target: Target<'_>, table: &Table, seed: u64, rate: f64, seconds: f64) -> PhaseResult {
    let burst = match target {
        Target::Whole(_, _, burst) => burst,
        Target::Direct(_) => 1,
    };
    let period = Duration::from_secs_f64((CONNECTIONS * burst) as f64 / rate);
    let per_conn = (seconds * rate / (CONNECTIONS * burst) as f64).ceil() as usize;
    let start = Instant::now() + Duration::from_millis(20);
    let results: Vec<PhaseResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                scope.spawn(move || {
                    let mut rng = Rng::new(seed, 0xC0 + c as u64);
                    let mut out = PhaseResult::default();
                    let mut sessions: Vec<Session> = match target {
                        Target::Whole(addr, _, _) => vec![Session::new(addr.to_owned())],
                        Target::Direct(addrs) => {
                            addrs.iter().map(|a| Session::new(a.clone())).collect()
                        }
                    };
                    let offset = period.mul_f64(c as f64 / CONNECTIONS as f64);
                    for i in 0..per_conn {
                        let due = start + offset + period * i as u32;
                        wait_until(due);
                        let late_ms = due.elapsed().as_secs_f64() * 1e3;
                        let entries: Vec<&Entry> =
                            (0..burst).map(|_| table.sample(&mut rng)).collect();
                        let record = |ok: bool, out: &mut PhaseResult| {
                            out.sent += 1;
                            if ok {
                                out.latency_ms.push(due.elapsed().as_secs_f64() * 1e3);
                                out.late_ms.push(late_ms);
                            } else {
                                out.failed += 1;
                            }
                        };
                        match target {
                            Target::Whole(_, routed, _) => {
                                let lines: Vec<&str> =
                                    entries.iter().map(|e| e.line.as_str()).collect();
                                let sent = sessions[0].send(&lines);
                                for entry in &entries {
                                    let want = if routed { &entry.routed } else { &entry.served };
                                    let answer = sessions[0].finish(&entry.line, sent);
                                    let ok = check(answer, want, &mut out);
                                    record(ok, &mut out);
                                }
                            }
                            Target::Direct(_) => {
                                // Every sub-request goes out before any
                                // answer is read, as the router fans out;
                                // the latency ends with the slowest answer.
                                let entry = entries[0];
                                let sent: Vec<Option<u64>> = entry
                                    .subs
                                    .iter()
                                    .map(|(shard, line, _)| sessions[*shard].send(&[line]))
                                    .collect();
                                let mut ok = true;
                                for ((shard, line, want), sent) in entry.subs.iter().zip(sent) {
                                    let answer = sessions[*shard].finish(line, sent);
                                    ok &= check(answer, want, &mut out);
                                }
                                record(ok, &mut out);
                            }
                        }
                    }
                    out.reconnects = sessions.iter().map(|s| s.reconnects).sum();
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut total = PhaseResult::default();
    for r in results {
        total.absorb(r);
    }
    total
}

/// How long before a request is due the client stops sleeping and spins.
const SPIN: Duration = Duration::from_micros(150);

/// Sleeps until shortly before `due`, then spins: a plain sleep overshoots
/// by tens of microseconds, which would land in every latency.
fn wait_until(due: Instant) {
    let now = Instant::now();
    if due > now + SPIN {
        std::thread::sleep(due - now - SPIN);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

/// Scores one answer: `true` when it is the expected line. A shed or wrong
/// answer is recorded; the caller counts the failed request.
fn check(answer: Answer, want: &str, out: &mut PhaseResult) -> bool {
    match answer {
        Answer::Line(line) if line == want => true,
        Answer::Line(line) if line.starts_with("OVERLOADED") => {
            out.shed += 1;
            false
        }
        Answer::Line(line) => {
            out.wrong.push(format!("got {line:?}, want {want:?}"));
            false
        }
        Answer::Failed => false,
    }
}

/// Every distinct request of the stream, and the shares it is drawn by.
struct Table {
    entries: Vec<Entry>,
    /// Running sums of the entries' shares, ending at 1.
    cdf: Vec<f64>,
}

impl Table {
    fn new(entries: Vec<Entry>) -> Self {
        let total: f64 = entries.iter().map(|e| e.share).sum();
        let mut acc = 0.0;
        let cdf = entries
            .iter()
            .map(|e| {
                acc += e.share;
                acc / total
            })
            .collect();
        Self { entries, cdf }
    }

    /// One request, drawn by share.
    fn sample(&self, rng: &mut Rng) -> &Entry {
        let x = rng.unit();
        let i = self.cdf.partition_point(|&c| c <= x);
        &self.entries[i.min(self.entries.len() - 1)]
    }
}

/// Every distinct request and its expected answers, from the served tree:
/// each result set of the instance, as is and with one unknown id added,
/// under each verb. A request's share is its set's share of the instance's
/// weight (the log's own query popularity) times the unknown-id share
/// times the verb's share.
fn build_table(instance: &Instance, tree: &CategoryTree, seed: u64) -> Table {
    let index = PointIndex::build(tree, 0);
    let ann = VectorIndex::for_tree(tree, &VectorConfig::default());
    let similarity = instance.similarity;
    let budget = Budget::unlimited();
    let shards = ShardMap::new(2);
    let mut rng = Rng::new(seed, 0x7AB);
    let total_weight: f64 = instance.sets.iter().map(|s| s.weight).sum();
    let cover = |items: &[u32], label: bool| -> String {
        let p = index.best_cover(items, &similarity, &budget);
        Response::Cover {
            epoch: 0,
            cat: p.best_category,
            similarity: p.similarity,
            precision: p.precision,
            covered: p.covered,
            degraded: p.degraded,
            missing: Vec::new(),
            label: if label {
                p.best_category
                    .and_then(|c| tree.label(c))
                    .map(str::to_owned)
            } else {
                None
            },
        }
        .encode()
    };
    let mut entries = Vec::new();
    for set in &instance.sets {
        let known: Vec<u32> = set.items.iter().collect();
        let mut unknown = known.clone();
        unknown.push(instance.num_items + rng.below(1_000) as u32);
        for (items, items_share) in [(known, 1.0 - UNKNOWN_SHARE), (unknown, UNKNOWN_SHARE)] {
            let slices = shards.partition(&items);
            for (verb, verb_share) in VERB_MIX {
                let (line, served, subs) = match verb {
                    Verb::NavigateTopK => {
                        let pool = TOP_K.max(TOPK_POOL_FLOOR);
                        let ef = oct_core::vector::DEFAULT_EF_SEARCH.max(pool);
                        let candidates = ann.candidates_for(&items, pool, ef);
                        let (ranked, degraded) = index.top_covers_among(
                            &items,
                            &candidates,
                            TOP_K,
                            &similarity,
                            &budget,
                        );
                        let line = Request::NavigateTopK {
                            k: TOP_K,
                            items: items.clone(),
                            ef: None,
                        }
                        .encode();
                        let served = Response::TopK {
                            epoch: 0,
                            k: TOP_K,
                            ef,
                            degraded,
                            results: ranked.iter().map(|r| (r.cat, r.similarity)).collect(),
                        }
                        .encode();
                        (line.clone(), served.clone(), vec![(0, line, served)])
                    }
                    Verb::Categorize | Verb::Score => {
                        let label = verb == Verb::Categorize;
                        let request = |items: Vec<u32>, shard: Option<u32>| {
                            if label {
                                Request::Categorize { items, shard }
                            } else {
                                Request::Score { items, shard }
                            }
                            .encode()
                        };
                        let subs = slices
                            .iter()
                            .map(|(shard, slice)| {
                                (
                                    *shard as usize,
                                    request(slice.clone(), Some(*shard)),
                                    cover(slice, label),
                                )
                            })
                            .collect();
                        (request(items.clone(), None), cover(&items, label), subs)
                    }
                };
                let routed = match verb {
                    Verb::NavigateTopK => served.clone(),
                    _ => routed_answer(&subs),
                };
                entries.push(Entry {
                    share: set.weight / total_weight * items_share * verb_share,
                    line,
                    served,
                    routed,
                    subs,
                    items: items.clone(),
                    verb,
                });
            }
        }
    }
    Table::new(entries)
}

/// The router's answer: the merge of the shard-scoped sub-answers.
fn routed_answer(subs: &[(usize, String, String)]) -> String {
    let parsed: Vec<SubCover> = subs
        .iter()
        .filter_map(|(shard, _, line)| {
            let response = Response::parse(line).expect("in-process answers parse");
            SubCover::from_response(*shard as u32, &response)
        })
        .collect();
    merge_covers(&parsed, Vec::new()).encode()
}

/// Starts a fleet: one daemon, or `shards` backends plus the router.
/// Returns the daemons (router last) and the time until
/// every one of them answered PING.
fn start_fleet(opts: &Opts, tree_path: &Path, shards: usize) -> Result<(Vec<Daemon>, f64), String> {
    let serve_args: Vec<String> = vec![
        "serve".into(),
        "--tree".into(),
        tree_path.display().to_string(),
        "--variant".into(),
        "threshold-jaccard".into(),
        "--delta".into(),
        "0.8".into(),
    ];
    let started = Instant::now();
    let mut daemons = Vec::new();
    for _ in 0..shards {
        daemons.push(Daemon::spawn(
            &opts.octree,
            &serve_args,
            &opts.work,
            "serve",
        )?);
    }
    if shards > 1 {
        let fleet: Vec<String> = daemons.iter().map(Daemon::addr).collect();
        let args = vec!["router".into(), "--shards".into(), fleet.join(";")];
        daemons.push(Daemon::spawn(&opts.octree, &args, &opts.work, "router")?);
    }
    let deadline = started + START_TIMEOUT;
    for d in &mut daemons {
        d.wait_ready(deadline)?;
    }
    Ok((daemons, started.elapsed().as_secs_f64()))
}

/// Microseconds per call of `f`, averaged over `items` by their shares of
/// the request stream; each item's time is the mean of `reps` calls.
fn per_call_us<T>(items: &[(f64, T)], reps: usize, mut f: impl FnMut(&T)) -> f64 {
    let mut weighted = 0.0;
    let mut total = 0.0;
    for (share, item) in items {
        let started = Instant::now();
        for _ in 0..reps {
            f(item);
        }
        weighted += share * started.elapsed().as_secs_f64() / reps as f64;
        total += share;
    }
    stats::ratio(weighted * 1e6, total)
}

fn median_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&times)
}

/// Runs `serve`. The traced run gives half its time to the single daemon
/// and the other half to the routed path (see [`route_layers`]).
pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    fs::create_dir_all(&opts.work).map_err(|e| format!("cannot create work dir: {e}"))?;

    // Fixture: the CTCR tree of relabeled dataset A, persisted for the
    // daemons, and every request's expected answers.
    let dataset = Dataset::generate(DatasetName::A, SCALE, opts.seed).shuffled(opts.seed);
    let instance = dataset.instance(Similarity::jaccard_threshold(0.8));
    let built = ctcr::run(&instance, &CtcrConfig::default());
    let bytes = persist::encode_tree(&built.tree);
    let tree_path = opts.work.join("served.oct");
    fs::write(&tree_path, &bytes[..]).map_err(|e| format!("cannot write tree: {e}"))?;
    let tree = persist::decode_tree(bytes.clone()).map_err(|e| format!("decode: {e}"))?;
    let table = build_table(&instance, &tree, opts.seed);

    // The served phase runs on one CPU: this thread, the client thread and
    // the daemons inherit it. Hand-offs between client and daemon then stay
    // on one vCPU instead of waking the other through the hypervisor.
    let allowed = CpuMask::allowed().map_err(|e| format!("sched_getaffinity: {e}"))?;
    let one = allowed.last().ok_or("no CPU to run on")?;
    one.pin_current()
        .map_err(|e| format!("sched_setaffinity: {e}"))?;

    // Set-up: daemon start until the first OK PONG, several times.
    let mut setup = Vec::new();
    let mut daemon = None;
    for rep in 0..SETUP_REPS {
        if rep > 0 {
            std::thread::sleep(SETUP_GAP);
        }
        let (mut fleet, secs) = start_fleet(opts, &tree_path, 1)?;
        setup.push(secs);
        daemon = fleet.pop();
    }
    let daemon = daemon.expect("SETUP_REPS > 0");

    let seconds = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let cpu_before = procfs::CpuTime::of(daemon.pid());
    let main = load(
        Target::Whole(&daemon.addr(), false, BURST),
        &table,
        opts.seed,
        RATE,
        seconds,
    );
    let daemon_cpu = procfs::CpuTime::of(daemon.pid()).since(cpu_before);
    let peak_rss_mb = procfs::peak_rss_mb(daemon.pid());
    let report = daemon.shutdown()?;

    outcome.attempted = main.sent;
    outcome.failed = main.failed;
    for w in &main.wrong {
        outcome.mismatch(format!("served answer: {w}"));
    }
    let answered = (main.sent - main.failed).max(1) as f64;
    let p50_ms = median(&main.latency_ms);
    outcome.set("setup_s", median(&setup));
    outcome.set("peak_rss_mb", peak_rss_mb);
    outcome.set("p50_ms", p50_ms);
    outcome.set("cpu_us_per_op", daemon_cpu * 1e6 / answered);
    outcome.set("tree_score", built.score.normalized);
    println!(
        "serve: requests={} failed={} shed={} reconnects={} rate={RATE}/s burst={BURST} cpus={:?}",
        main.sent,
        main.failed,
        main.shed,
        main.reconnects,
        one.cpus(),
    );
    if !opts.trace {
        return Ok(outcome);
    }
    // Everything after this, the routed fleet included, runs where the
    // process may.
    allowed
        .pin_current()
        .map_err(|e| format!("sched_setaffinity: {e}"))?;

    let handle_us = report
        .histogram("serve/latency")
        .map_or(0.0, |h| h.quantile(0.5).as_secs_f64() * 1e6);
    let counter = |name: &str| report.counter(name).unwrap_or(0) as f64;
    let all_ms = &main.latency_ms;
    outcome.set("op.count", all_ms.len() as f64);
    if let Some(p) = stats::tail_percentile(all_ms.len()) {
        outcome.set("op.tail_pct", p);
        outcome.set("op.tail_ms", stats::quantile(all_ms, p / 100.0));
    }
    // `octree serve` always records its spans, so no untraced daemon exists
    // to compare with: the overhead is not measured here and stays 0.
    println!("serve: trace.overhead_pct not measurable (the daemon always traces)");
    outcome.set("serve.handle_p50_us", handle_us);
    outcome.set("serve.unattributed_us", p50_ms * 1e3 - handle_us);
    outcome.set("serve.shed", counter("serve/shed") + main.shed as f64);
    outcome.set("serve.retries", counter("serve/retries"));
    outcome.set("serve.reconnects", main.reconnects as f64);
    outcome.set("serve.conn_retired", counter("serve/conn_retired"));
    outcome.set("loadgen.late_ms", stats::quantile(&main.late_ms, 0.99));
    outcome.set("loadgen.rate_rps", RATE);

    // Load path, timed in process on the served tree.
    outcome.set("persist.bytes", bytes.len() as f64);
    outcome.set(
        "persist.decode_ms",
        median_ms(5, || {
            std::hint::black_box(persist::decode_tree(bytes.clone()).ok());
        }),
    );
    outcome.set(
        "point.index_build_ms",
        median_ms(5, || {
            std::hint::black_box(PointIndex::build(&tree, 0));
        }),
    );
    outcome.set(
        "vector.index_build_ms",
        median_ms(5, || {
            std::hint::black_box(VectorIndex::for_tree(&tree, &VectorConfig::default()));
        }),
    );

    // Query path, per request of the table, in process.
    let index = PointIndex::build(&tree, 0);
    let ann = VectorIndex::for_tree(&tree, &VectorConfig::default());
    let budget = Budget::unlimited();
    let sim = instance.similarity;
    let shared = |verb: &dyn Fn(Verb) -> bool| -> Vec<(f64, &Entry)> {
        table
            .entries
            .iter()
            .filter(|e| verb(e.verb))
            .map(|e| (e.share, e))
            .collect()
    };
    let covers = shared(&|v| v != Verb::NavigateTopK);
    let navs = shared(&|v| v == Verb::NavigateTopK);
    let every = shared(&|_| true);
    outcome.set(
        "point.cover_us",
        per_call_us(&covers, REPS, |e| {
            std::hint::black_box(index.best_cover(&e.items, &sim, &budget));
        }),
    );
    let pool = TOP_K.max(TOPK_POOL_FLOOR);
    let ef = oct_core::vector::DEFAULT_EF_SEARCH.max(pool);
    outcome.set(
        "vector.candidates_us",
        per_call_us(&navs, REPS, |e| {
            std::hint::black_box(ann.candidates_for(&e.items, pool, ef));
        }),
    );
    let candidates: Vec<(f64, (&Entry, Vec<u32>))> = navs
        .iter()
        .map(|&(share, e)| (share, (e, ann.candidates_for(&e.items, pool, ef))))
        .collect();
    outcome.set(
        "point.rerank_us",
        per_call_us(&candidates, REPS, |(e, c)| {
            std::hint::black_box(index.top_covers_among(&e.items, c, TOP_K, &sim, &budget));
        }),
    );
    outcome.set(
        "protocol.parse_us",
        per_call_us(&every, REPS, |e| {
            std::hint::black_box(Request::parse(&e.line).ok());
        }),
    );
    let responses: Vec<(f64, Response)> = every
        .iter()
        .map(|&(share, e)| {
            let response = Response::parse(&e.served).expect("in-process answers parse");
            (share, response)
        })
        .collect();
    outcome.set(
        "protocol.encode_us",
        per_call_us(&responses, REPS, |r| {
            std::hint::black_box(r.encode());
        }),
    );
    let map = ShardMap::new(2);
    outcome.set(
        "shard.partition_us",
        per_call_us(&covers, REPS, |e| {
            std::hint::black_box(map.partition(&e.items));
        }),
    );
    let subs: Vec<(f64, Vec<SubCover>)> = covers
        .iter()
        .map(|&(share, e)| {
            let subs = e
                .subs
                .iter()
                .filter_map(|(s, _, line)| {
                    SubCover::from_response(*s as u32, &Response::parse(line).ok()?)
                })
                .collect();
            (share, subs)
        })
        .collect();
    outcome.set(
        "merge.covers_us",
        per_call_us(&subs, REPS, |s| {
            std::hint::black_box(merge_covers(s, Vec::new()));
        }),
    );
    outcome.set(
        "router.fanout",
        stats::ratio(
            covers
                .iter()
                .map(|&(share, e)| share * e.subs.len() as f64)
                .sum(),
            covers.iter().map(|&(share, _)| share).sum(),
        ),
    );
    route_layers(opts, &tree_path, &table, seconds / 2.0, &mut outcome)?;
    Ok(outcome)
}

/// The routed path, in the traced run only: the same stream through
/// `octree router` over two shards × one replica, then the same stream's
/// shard-scoped sub-requests sent straight to the backends. Both latencies
/// run from each request's due time, so `router.overhead_us` compares like
/// with like. Routed p50 and
/// CPU per request spread too widely from run to run (0.15 to 0.38 of their
/// median across seeds) to carry a regression bound, so they are per-layer
/// numbers here rather than a workload of their own.
fn route_layers(
    opts: &Opts,
    tree_path: &Path,
    table: &Table,
    seconds: f64,
    outcome: &mut Outcome,
) -> Result<(), String> {
    let (mut fleet, _) = start_fleet(opts, tree_path, 2)?;
    let router = fleet.pop().expect("the router is last");
    let backends: Vec<String> = fleet.iter().map(Daemon::addr).collect();
    let cpu_before = procfs::CpuTime::of(router.pid());
    let routed = load(
        Target::Whole(&router.addr(), true, 1),
        table,
        opts.seed ^ 2,
        ROUTE_RATE,
        seconds,
    );
    let router_cpu = procfs::CpuTime::of(router.pid()).since(cpu_before);
    // The router drains first: its pooled connections hold backend workers.
    let report = router.shutdown()?;
    let direct = load(
        Target::Direct(&backends),
        table,
        opts.seed ^ 2,
        ROUTE_RATE,
        seconds,
    );
    for d in fleet {
        d.shutdown()?;
    }

    outcome.attempted += routed.sent + direct.sent;
    outcome.failed += routed.failed + direct.failed;
    for w in &routed.wrong {
        outcome.mismatch(format!("routed answer: {w}"));
    }
    for w in &direct.wrong {
        outcome.mismatch(format!("backend answer: {w}"));
    }
    let routed_us = median(&routed.latency_ms) * 1e3;
    let backend_us = median(&direct.latency_ms) * 1e3;
    let answered = (routed.sent - routed.failed).max(1) as f64;
    let counter = |name: &str| report.counter(name).unwrap_or(0) as f64;
    outcome.set("router.p50_us", routed_us);
    outcome.set("router.backend_p50_us", backend_us);
    outcome.set("router.overhead_us", routed_us - backend_us);
    outcome.set("router.cpu_us_per_req", router_cpu * 1e6 / answered);
    outcome.set("router.retries", counter("router/retries"));
    outcome.set("router.hedges", counter("router/hedges"));
    outcome.set(
        "router.pool_stale",
        report
            .counters
            .iter()
            .filter(|(name, _)| name.ends_with("/pool_stale"))
            .map(|(_, &n)| n as f64)
            .sum(),
    );
    println!(
        "route: requests={} failed={} reconnects={} direct_requests={}",
        routed.sent, routed.failed, routed.reconnects, direct.sent
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One request on `session`, answered or failed.
    fn call(session: &mut Session, request: &str) -> Answer {
        let sent = session.send(&[request]);
        session.finish(request, sent)
    }

    /// A daemon stand-in that answers `per_conn` requests on each of
    /// `conns` connections (echoing them after `OK `) and then closes the
    /// connection, as `octree serve` does at its request cap.
    fn retiring_server(per_conn: usize, conns: usize) -> (String, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let server = std::thread::spawn(move || {
            for _ in 0..conns {
                let (conn, _) = listener.accept().expect("accept");
                let mut reader = BufReader::new(conn.try_clone().expect("clone"));
                let mut writer = conn;
                let mut line = String::new();
                for _ in 0..per_conn {
                    line.clear();
                    if reader.read_line(&mut line).expect("read") == 0 {
                        break;
                    }
                    writer
                        .write_all(format!("OK {line}").as_bytes())
                        .expect("write");
                }
            }
        });
        (addr, server)
    }

    #[test]
    fn a_retirement_close_costs_a_reconnect_not_a_failure() {
        let (addr, server) = retiring_server(10, 3);
        let mut session = Session::new(addr);
        let mut out = PhaseResult::default();
        for i in 0..25 {
            let ok = check(
                call(&mut session, &format!("PING {i}")),
                &format!("OK PING {i}"),
                &mut out,
            );
            assert!(ok, "request {i} must be answered");
        }
        assert_eq!(session.reconnects, 2);
        drop(session);
        server.join().expect("server thread");
    }

    #[test]
    fn a_pipelined_request_survives_a_retirement_close() {
        let (addr, server) = retiring_server(2, 2);
        let mut session = Session::new(addr);
        let mut out = PhaseResult::default();
        for i in 0..4 {
            let line = format!("PING {i}");
            let sent = session.send(&[&line]);
            let answer = session.finish(&line, sent);
            assert!(
                check(answer, &format!("OK {line}"), &mut out),
                "request {i}"
            );
        }
        assert_eq!(session.reconnects, 1);
        drop(session);
        server.join().expect("server thread");
    }

    #[test]
    fn a_burst_cut_by_a_retirement_close_is_answered_in_full() {
        let (addr, server) = retiring_server(5, 2);
        let mut session = Session::new(addr);
        let mut out = PhaseResult::default();
        let lines: Vec<String> = (0..8).map(|i| format!("PING {i}")).collect();
        let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
        let sent = session.send(&refs);
        for line in &lines {
            let answer = session.finish(line, sent);
            assert!(check(answer, &format!("OK {line}"), &mut out), "{line}");
        }
        assert_eq!(session.reconnects, 1);
        drop(session);
        server.join().expect("server thread");
    }

    #[test]
    fn a_request_still_unanswered_after_the_resend_fails() {
        let (addr, server) = retiring_server(0, 2);
        let mut session = Session::new(addr);
        let mut out = PhaseResult::default();
        assert!(!check(call(&mut session, "PING"), "OK PING", &mut out));
        assert_eq!(session.reconnects, 1);
        server.join().expect("server thread");
    }

    #[test]
    fn wrong_and_shed_answers_fail_the_request() {
        let mut out = PhaseResult::default();
        assert!(!check(
            Answer::Line("OVERLOADED queue=2".into()),
            "OK PONG epoch=0",
            &mut out
        ));
        assert!(!check(
            Answer::Line("OK PONG epoch=1".into()),
            "OK PONG epoch=0",
            &mut out
        ));
        assert_eq!((out.shed, out.wrong.len()), (1, 1));
    }
}
