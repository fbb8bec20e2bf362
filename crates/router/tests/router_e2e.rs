//! End-to-end router tests: real backends on real sockets behind a real
//! router, driven over TCP. Each component binds port 0 and drains via
//! its own handle so concurrent tests never interfere.
//!
//! The heart of the suite is the differential determinism contract: for
//! any *fixed* set of live shards, identical queries through the router
//! produce byte-identical response lines — full fleet, degraded fleet,
//! and recovered fleet each being such a fixed set.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use oct_core::{CategoryTree, ROOT};
use oct_obs::{Metrics, PipelineReport};
use oct_router::{HealthConfig, Replica, Router, RouterConfig, ShardMap};
use oct_serve::prelude::*;

/// Items 0..16: `left` = {0..8}, `right` = {8..16}.
fn test_tree() -> CategoryTree {
    let mut t = CategoryTree::new();
    let left = t.add_category(ROOT);
    let right = t.add_category(ROOT);
    t.assign_items(left, 0..8);
    t.assign_items(right, 8..16);
    t.set_label(left, "left half");
    t.set_label(right, "right half");
    t
}

struct Backend {
    addr: SocketAddr,
    drain: DrainHandle,
    join: JoinHandle<std::io::Result<PipelineReport>>,
}

/// Boots one backend replica serving [`test_tree`] on `addr` (use
/// `"127.0.0.1:0"` for a fresh port, or a concrete address to restart a
/// killed replica on its old port).
fn start_backend(addr: &str) -> Backend {
    let config = ServeConfig {
        addr: addr.to_owned(),
        workers: 2,
        drain_grace: Duration::from_millis(300),
        ..ServeConfig::default()
    };
    let server =
        Server::bind(config, ServingTree::build(test_tree(), 16, 0, "test")).expect("bind backend");
    let addr = server.local_addr().expect("addr");
    let drain = server.drain_handle();
    let join = thread::spawn(move || server.run());
    Backend { addr, drain, join }
}

fn kill(backend: Backend) {
    backend.drain.drain();
    let _ = backend.join.join();
}

/// Boots a fleet of `shards.len()` shards with `shards[s]` replicas each,
/// plus a router fronting them. Health/probe knobs are tightened so
/// failure detection and recovery land within test timescales.
fn start_fleet(per_shard: &[usize]) -> (Vec<Vec<Backend>>, Router) {
    start_fleet_with(per_shard, |_| {})
}

/// [`start_fleet`] with the router's config adjusted by `tweak`.
fn start_fleet_with(
    per_shard: &[usize],
    tweak: impl FnOnce(&mut RouterConfig),
) -> (Vec<Vec<Backend>>, Router) {
    let fleet: Vec<Vec<Backend>> = per_shard
        .iter()
        .map(|&n| (0..n).map(|_| start_backend("127.0.0.1:0")).collect())
        .collect();
    let router = bind_router(&fleet, tweak);
    (fleet, router)
}

/// A router fronting `fleet`, with its config adjusted by `tweak`.
fn bind_router(fleet: &[Vec<Backend>], tweak: impl FnOnce(&mut RouterConfig)) -> Router {
    let shards: Vec<Vec<String>> = fleet
        .iter()
        .map(|replicas| replicas.iter().map(|b| b.addr.to_string()).collect())
        .collect();
    let mut config = RouterConfig {
        workers: 2,
        attempt_timeout: Duration::from_millis(500),
        deadline_ms: Some(3000),
        health: HealthConfig {
            suspect_after: 1,
            down_after: 2,
            probe_cooldown: Duration::from_millis(100),
        },
        probe_interval: Duration::from_millis(25),
        probe_timeout: Duration::from_millis(250),
        drain_grace: Duration::from_millis(500),
        metrics: Metrics::new(true),
        shards,
        ..RouterConfig::default()
    };
    tweak(&mut config);
    Router::bind(config).expect("bind router")
}

fn spawn_router(router: Router) -> (SocketAddr, oct_router::DrainHandle, JoinHandle<()>) {
    let addr = router.local_addr().expect("router addr");
    let drain = router.drain_handle();
    let join = thread::spawn(move || {
        let _ = router.run();
    });
    (addr, drain, join)
}

/// A raw line-level client, for byte-identical comparisons.
struct RawClient {
    conn: TcpStream,
    reader: BufReader<TcpStream>,
}

impl RawClient {
    fn connect(addr: SocketAddr) -> Self {
        let conn = TcpStream::connect(addr).expect("connect");
        conn.set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        let reader = BufReader::new(conn.try_clone().expect("clone"));
        Self { conn, reader }
    }

    fn roundtrip(&mut self, line: &str) -> String {
        writeln!(self.conn, "{line}").expect("write");
        let mut out = String::new();
        self.reader.read_line(&mut out).expect("read");
        assert!(out.ends_with('\n'), "truncated response: {out:?}");
        out.trim_end().to_owned()
    }
}

/// Items guaranteed to span every shard of an `n`-shard map.
fn spanning_items(n: usize) -> Vec<u32> {
    let map = ShardMap::new(n);
    let mut items: Vec<u32> = (0..16).collect();
    let covered: std::collections::BTreeSet<u32> = items.iter().map(|&i| map.shard_of(i)).collect();
    assert_eq!(covered.len(), n, "0..16 must span all {n} shards");
    items.sort_unstable();
    items
}

/// Items owned by exactly one shard of an `n`-shard map.
fn items_on_shard(n: usize, shard: u32) -> Vec<u32> {
    let map = ShardMap::new(n);
    (0..16).filter(|&i| map.shard_of(i) == shard).collect()
}

#[test]
fn routes_the_full_protocol() {
    let (fleet, router) = start_fleet(&[1, 1]);
    let (addr, drain, join) = spawn_router(router);
    let mut c = RawClient::connect(addr);

    let pong = c.roundtrip("PING");
    assert!(pong.starts_with("OK PONG"), "{pong}");

    // A query landing entirely in one category matches the single-server
    // answer: every replica serves the full tree, so the merge of shard
    // slices reproduces the cover.
    let cover = c.roundtrip("CATEGORIZE 0,1,2,3,4,5,6,7");
    assert!(cover.contains("cat=1"), "{cover}");
    assert!(cover.contains("covered=1"), "{cover}");
    assert!(cover.contains("label=left half"), "{cover}");
    assert!(!cover.contains("partial="), "full fleet is never partial");

    let score = c.roundtrip("SCORE 8,9,10,11");
    assert!(score.starts_with("OK COVER"), "{score}");
    assert!(!score.contains("label="), "SCORE is label-free: {score}");

    let nav = c.roundtrip("NAVIGATE 0");
    assert_eq!(nav, "OK NAV cat=0 children=1,2");

    let nav_bad = c.roundtrip("NAVIGATE 999");
    assert!(nav_bad.starts_with("ERR bad-request"), "{nav_bad}");

    let stats = c.roundtrip("STATS");
    assert!(stats.contains("categories=3"), "{stats}");
    assert!(stats.contains("degraded=0"), "healthy fleet: {stats}");

    let empty = c.roundtrip("SCORE");
    assert!(empty.contains("cat=none"), "canonical empty cover: {empty}");

    assert_eq!(c.roundtrip("SHUTDOWN"), "OK DRAINING");
    join.join().expect("router exits");
    drop(drain);
    for replicas in fleet {
        for b in replicas {
            kill(b);
        }
    }
}

#[test]
fn malformed_lines_get_typed_errors_and_the_connection_survives() {
    let (fleet, router) = start_fleet(&[1]);
    let (addr, drain, join) = spawn_router(router);
    let mut c = RawClient::connect(addr);

    assert!(c.roundtrip("FROBNICATE 1,2").starts_with("ERR bad-request"));
    assert!(c
        .roundtrip("CATEGORIZE 1,x,3")
        .starts_with("ERR bad-request"));
    assert!(c
        .roundtrip("NAVIGATE banana")
        .starts_with("ERR bad-request"));
    // The connection is still serviceable after every rejection.
    assert!(c.roundtrip("PING").starts_with("OK PONG"));

    drain.drain();
    join.join().expect("router exits");
    for replicas in fleet {
        for b in replicas {
            kill(b);
        }
    }
}

#[test]
fn replica_loss_fails_over_with_zero_client_visible_failures() {
    // Two replicas per shard: killing one replica of each shard must be
    // invisible — no errors, no PARTIAL markers.
    let (mut fleet, router) = start_fleet(&[2, 2]);
    let (addr, drain, join) = spawn_router(router);
    let mut c = RawClient::connect(addr);
    let items = spanning_items(2);
    let query = format!(
        "SCORE {}",
        items
            .iter()
            .map(u32::to_string)
            .collect::<Vec<_>>()
            .join(",")
    );

    let baseline = c.roundtrip(&query);
    assert!(baseline.starts_with("OK COVER"), "{baseline}");

    // Kill the first replica of every shard mid-stream.
    for replicas in &mut fleet {
        kill(replicas.remove(0));
    }

    for i in 0..30 {
        let line = c.roundtrip(&query);
        assert_eq!(
            line, baseline,
            "query {i} after replica loss must be byte-identical"
        );
    }

    drain.drain();
    join.join().expect("router exits");
    for replicas in fleet {
        for b in replicas {
            kill(b);
        }
    }
}

#[test]
fn whole_shard_loss_degrades_to_typed_partial_and_recovers_byte_identical() {
    // One replica per shard: killing shard 1's only replica makes shard 1
    // unreachable. Covers spanning it must degrade to the typed PARTIAL
    // marker (never an error), deterministically; after the replica comes
    // back the answers must return to the pre-kill bytes.
    let (mut fleet, router) = start_fleet(&[1, 1, 1]);
    let (addr, drain, join) = spawn_router(router);
    let mut c = RawClient::connect(addr);
    let items = spanning_items(3);
    let query = format!(
        "SCORE {}",
        items
            .iter()
            .map(u32::to_string)
            .collect::<Vec<_>>()
            .join(",")
    );

    let healthy = c.roundtrip(&query);
    assert!(healthy.starts_with("OK COVER"), "{healthy}");
    assert!(!healthy.contains("partial="), "{healthy}");

    let dead_shard = 1u32;
    let dead_addr = fleet[dead_shard as usize][0].addr;
    kill(fleet[dead_shard as usize].remove(0));

    // Degraded: every answer is a typed PARTIAL naming the dead shard,
    // and the degraded answers are byte-identical to each other.
    let degraded = c.roundtrip(&query);
    assert!(
        degraded.starts_with("OK COVER"),
        "never an error: {degraded}"
    );
    assert!(
        degraded.contains(&format!("partial=1 missing={dead_shard}")),
        "typed marker names the dead shard: {degraded}"
    );
    assert!(degraded.contains("degraded=1"), "{degraded}");
    for i in 0..10 {
        assert_eq!(
            c.roundtrip(&query),
            degraded,
            "degraded answer {i} must be deterministic"
        );
    }

    // Queries that never touch the dead shard stay full-fidelity.
    let live_only = items_on_shard(3, 0);
    assert!(!live_only.is_empty(), "shard 0 owns some of 0..16");
    let live_query = format!(
        "SCORE {}",
        live_only
            .iter()
            .map(u32::to_string)
            .collect::<Vec<_>>()
            .join(",")
    );
    let live_line = c.roundtrip(&live_query);
    assert!(live_line.starts_with("OK COVER"), "{live_line}");
    assert!(
        !live_line.contains("partial="),
        "untouched shards are not partial: {live_line}"
    );

    // STATS latches the sticky degraded flag while the shard is down.
    assert!(c.roundtrip("STATS").contains("degraded=1"));

    // Recovery: restart the replica on its old port and wait for the
    // probe loop to re-admit it.
    fleet[dead_shard as usize].push(restart_backend(dead_addr));
    let deadline = Instant::now() + Duration::from_secs(10);
    let recovered = loop {
        let line = c.roundtrip(&query);
        if !line.contains("partial=") {
            break line;
        }
        assert!(
            Instant::now() < deadline,
            "shard never recovered; last: {line}"
        );
        thread::sleep(Duration::from_millis(50));
    };
    assert_eq!(
        recovered, healthy,
        "post-recovery answers return to the pre-kill bytes"
    );
    // Sticky: the router remembers it served degraded answers.
    assert!(c.roundtrip("STATS").contains("degraded=1"));

    drain.drain();
    join.join().expect("router exits");
    for replicas in fleet {
        for b in replicas {
            kill(b);
        }
    }
}

/// Rebinds a backend on a just-freed concrete port (retrying briefly —
/// the old listener's close may still be settling).
fn restart_backend(addr: SocketAddr) -> Backend {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let config = ServeConfig {
            addr: addr.to_string(),
            workers: 2,
            drain_grace: Duration::from_millis(300),
            ..ServeConfig::default()
        };
        match Server::bind(config, ServingTree::build(test_tree(), 16, 0, "test")) {
            Ok(server) => {
                let addr = server.local_addr().expect("addr");
                let drain = server.drain_handle();
                let join = thread::spawn(move || server.run());
                return Backend { addr, drain, join };
            }
            Err(e) => {
                assert!(Instant::now() < deadline, "cannot rebind {addr}: {e}");
                thread::sleep(Duration::from_millis(50));
            }
        }
    }
}

#[test]
fn navigate_topk_is_byte_identical_across_runs_and_replicas() {
    let (fleet, router) = start_fleet(&[2, 2]);
    let (addr, drain, join) = spawn_router(router);
    let mut c = RawClient::connect(addr);

    // Left half exactly: left J = 1.0, root J = 8/16 = 0.5, right drops
    // below the cutoff.
    let line = "NAVIGATE 3 items=0,1,2,3,4,5,6,7";
    let first = c.roundtrip(line);
    assert!(first.starts_with("OK TOPK "), "{first}");
    assert!(
        first.contains("results=1:1.000000,0:0.500000"),
        "exact calibrated ranking: {first}"
    );
    assert_eq!(c.roundtrip(line), first, "same replica, same bytes");

    // Kill three of the four replicas: whoever answers now, the ranking
    // must be bit-for-bit the same — the ANN index is seed-deterministic,
    // so every replica ranks identically.
    let mut fleet = fleet;
    let survivors = vec![fleet[1].pop().expect("replica")];
    for replicas in fleet {
        for b in replicas {
            kill(b);
        }
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let failed_over = c.roundtrip(line);
        if failed_over == first {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "failover answer diverged: {failed_over} != {first}"
        );
        thread::sleep(Duration::from_millis(100));
    }

    assert_eq!(c.roundtrip("SHUTDOWN"), "OK DRAINING");
    join.join().expect("router exits");
    drop(drain);
    for b in survivors {
        kill(b);
    }
}

fn kill_fleet(fleet: Vec<Vec<Backend>>) {
    for replicas in fleet {
        for b in replicas {
            kill(b);
        }
    }
}

/// A mixed pipelined burst through the router: a spanning labelled cover,
/// a label-free cover, a top-k navigation, a malformed line and `STATS`.
const MIXED_BURST: [&str; 5] = [
    "CATEGORIZE 0,1,2,3,4,5,6,7",
    "SCORE 8,9,10,11",
    "NAVIGATE 2 items=0,1,9",
    "FROBNICATE 1,2",
    "STATS",
];

/// Each line sent only after the previous one is answered.
fn answers_one_at_a_time(addr: SocketAddr, lines: &[&str]) -> Vec<String> {
    let mut c = RawClient::connect(addr);
    lines.iter().map(|line| c.roundtrip(line) + "\n").collect()
}

/// Sends every line in one write; the answers are read from the result.
fn send_burst(addr: SocketAddr, lines: &[&str]) -> BufReader<TcpStream> {
    let c = RawClient::connect(addr);
    let burst: String = lines.iter().map(|line| format!("{line}\n")).collect();
    (&c.conn).write_all(burst.as_bytes()).expect("send burst");
    c.reader
}

/// Reads one answer line, newline included; panics on EOF.
fn read_answer(reader: &mut BufReader<TcpStream>) -> String {
    let mut line = String::new();
    reader.read_line(&mut line).expect("read");
    assert!(line.ends_with('\n'), "truncated answer: {line:?}");
    line
}

/// Asserts the router closed the connection cleanly (EOF, not a reset).
fn assert_eof(reader: &mut BufReader<TcpStream>) {
    let mut line = String::new();
    let n = reader.read_line(&mut line).expect("clean close, no reset");
    assert_eq!(n, 0, "expected EOF, got {line:?}");
}

#[test]
fn a_pipelined_burst_is_answered_like_lines_sent_one_at_a_time() {
    let (fleet, router) = start_fleet(&[1, 1]);
    let (addr, drain, join) = spawn_router(router);
    let want = answers_one_at_a_time(addr, &MIXED_BURST);
    assert!(want[3].starts_with("ERR bad-request"), "{want:?}");
    assert!(want[4].contains("degraded=0"), "healthy fleet: {want:?}");

    let mut reader = send_burst(addr, &MIXED_BURST);
    let got: Vec<String> = MIXED_BURST
        .iter()
        .map(|_| read_answer(&mut reader))
        .collect();
    assert_eq!(got, want, "same bytes, same order");

    drain.drain();
    join.join().expect("router exits");
    kill_fleet(fleet);
}

#[test]
fn a_pipelined_burst_crossing_the_request_cap_gets_cap_answers_then_eof() {
    let metrics = Metrics::new(true);
    let (fleet, router) = start_fleet_with(&[1, 1], |config| {
        config.max_requests = 3;
        config.metrics = metrics.clone();
    });
    let (addr, drain, join) = spawn_router(router);
    let want = answers_one_at_a_time(addr, &MIXED_BURST[..3]);

    // Past the cap, > 4 KiB of pipelined requests stay unread in the
    // socket: the close must still be an EOF, not a reset.
    let long = format!("SCORE {}", ["0"; 500].join(","));
    let mut lines = MIXED_BURST.to_vec();
    lines.extend([long.as_str(); 8]);
    let mut reader = send_burst(addr, &lines);
    for (i, want) in want.iter().enumerate() {
        assert_eq!(&read_answer(&mut reader), want, "answer {i}");
    }
    assert_eof(&mut reader);
    // Both connections hit the cap: the one-at-a-time one and the burst.
    assert_eq!(metrics.report().counter("router/conn_retired"), Some(2));

    drain.drain();
    join.join().expect("router exits");
    kill_fleet(fleet);
}

#[test]
fn a_pipelined_burst_through_shutdown_is_answered_up_to_draining_then_eof() {
    let (fleet, router) = start_fleet(&[1, 1]);
    let (addr, drain, join) = spawn_router(router);
    let mut want = answers_one_at_a_time(addr, &MIXED_BURST[..2]);
    want.push("OK DRAINING\n".to_owned());

    let lines = [MIXED_BURST[0], MIXED_BURST[1], "SHUTDOWN", "PING", "STATS"];
    let mut reader = send_burst(addr, &lines);
    for (i, want) in want.iter().enumerate() {
        assert_eq!(&read_answer(&mut reader), want, "answer {i}");
    }
    assert_eof(&mut reader);
    join.join().expect("router exits");
    drop(drain);
    kill_fleet(fleet);
}

#[test]
fn router_shed_connection_closes_cleanly_after_an_unread_request() {
    let (fleet, router) = start_fleet_with(&[1], |config| {
        config.workers = 1;
        config.queue_capacity = 1;
    });
    let (addr, drain, join) = spawn_router(router);
    let held1 = RawClient::connect(addr);
    thread::sleep(Duration::from_millis(150)); // let the worker pop held1
    let held2 = RawClient::connect(addr);
    thread::sleep(Duration::from_millis(150)); // let held2 take the queue slot

    // Each client sends its request before the router reads anything, as a
    // one-shot client does. The router never reads that line, yet the
    // client must get the OVERLOADED reply and then a clean EOF, not a
    // reset.
    for i in 0..10 {
        let mut conn = TcpStream::connect(addr).expect("connect");
        conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        writeln!(conn, "CATEGORIZE 0,1").expect("send request");
        thread::sleep(Duration::from_millis(20)); // the router sheds meanwhile
        let mut reader = BufReader::new(conn);
        let resp = Response::parse(&read_answer(&mut reader)).expect("typed response");
        assert!(resp.is_overloaded(), "client {i}: got {resp:?}");
        assert_eof(&mut reader);
    }

    drop(held1);
    drop(held2);
    drain.drain();
    join.join().expect("router exits");
    kill_fleet(fleet);
}

#[test]
fn a_drained_router_releases_its_pooled_backend_workers() {
    // Both backends run 2 workers. Two clients at once make router A pool
    // two connections per replica, one on each backend worker.
    let (fleet, router_a) = start_fleet(&[1, 1]);
    let (addr_a, drain_a, join_a) = spawn_router(router_a);
    let items: Vec<String> = spanning_items(2).iter().map(u32::to_string).collect();
    let query = format!("CATEGORIZE {}", items.join(","));
    let clients: Vec<_> = (0..2)
        .map(|_| {
            let query = query.clone();
            thread::spawn(move || {
                let mut c = RawClient::connect(addr_a);
                for _ in 0..20 {
                    let answer = c.roundtrip(&query);
                    assert!(answer.starts_with("OK COVER"), "{answer}");
                }
            })
        })
        .collect();
    for client in clients {
        client.join().expect("client of router A");
    }
    drain_a.drain();
    join_a.join().expect("router A exits");

    // `drain_a` still holds router A's state, but its pools are empty, so
    // router B over the same backends gets their workers.
    let (addr_b, drain_b, join_b) = spawn_router(bind_router(&fleet, |_| {}));
    let answer = RawClient::connect(addr_b).roundtrip(&query);
    assert!(answer.starts_with("OK COVER"), "{answer}");
    assert!(!answer.contains("partial="), "{answer}");

    drain_b.drain();
    join_b.join().expect("router B exits");
    drop(drain_a);
    kill_fleet(fleet);
}

#[test]
fn idle_pooled_connections_give_way_to_a_direct_client() {
    // Both backends run 2 workers. Each replica's pool ends up holding two
    // idle connections, one on each backend worker: the routed request's,
    // and the probe's, dialled while the request held the first.
    let fleet = [start_backend("127.0.0.1:0"), start_backend("127.0.0.1:0")];
    let metrics = Metrics::new(true);
    let replicas: Vec<Replica> = (fleet.iter())
        .map(|b| Replica::new(b.addr.to_string(), HealthConfig::default(), &metrics))
        .collect();
    let timeout = Duration::from_secs(2);
    let query = Request::Categorize {
        items: vec![0, 1, 8],
        shard: None,
    };
    for replica in &replicas {
        let routed = replica.start(&query, timeout).expect("routed request");
        replica.probe(timeout);
        let answer = routed.finish(&query, None).expect("routed answer");
        assert!(matches!(answer, Response::Cover { .. }), "{answer:?}");
    }

    // A direct client of one backend waits in its admission queue until
    // an idle pooled connection gives way.
    let started = Instant::now();
    let mut direct = Client::connect(fleet[0].addr, timeout).expect("connect");
    match direct.request(&Request::Ping) {
        Ok(Response::Pong { .. }) => {}
        other => panic!(
            "direct client unanswered after {:?}: {other:?}",
            started.elapsed()
        ),
    }

    // The pools redial what the backend closed and keep answering.
    for replica in &replicas {
        let answer = replica.call(&query, timeout).expect("pooled call");
        assert!(matches!(answer, Response::Cover { .. }), "{answer:?}");
    }
    let stale = format!("router/replica/{}/pool_stale", fleet[0].addr);
    assert!(metrics.report().counter(&stale).unwrap_or(0) >= 1);
    drop((direct, replicas));
    for backend in fleet {
        kill(backend);
    }
}
