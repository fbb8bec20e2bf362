//! Chaos tests: the router fleet behind seeded `oct-chaos` fault proxies.
//!
//! These are the invariant-checked suites from DESIGN.md §18, in-process:
//! while at least one replica per shard stays reachable the router must
//! absorb every injected fault with zero client-visible failures; a
//! whole-shard black-hole must degrade to the typed `partial=1` marker
//! (never an `ERR`, never garbage bytes) deterministically; and once the
//! faults clear, answers must return byte-identical to the pre-fault
//! capture. Every fault schedule is a pure function of its seed, so a
//! failing run replays exactly.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use oct_chaos::{
    classify_line, ChaosConfig, ChaosProxy, FaultAction, FaultPlan, InvariantTally, StopHandle,
};
use oct_core::{CategoryTree, ROOT};
use oct_obs::Metrics;
use oct_router::{
    rendezvous_order, request_key, HealthConfig, HealthState, Replica, Router, RouterConfig,
    ShardMap,
};
use oct_serve::{Request, Response, ServeConfig, Server, ServingTree};

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
    drain: oct_serve::DrainHandle,
    join: JoinHandle<std::io::Result<oct_obs::PipelineReport>>,
}

fn start_backend(config: ServeConfig) -> Backend {
    let server =
        Server::bind(config, ServingTree::build(test_tree(), 16, 0, "test")).expect("bind backend");
    let addr = server.local_addr().expect("addr");
    let drain = server.drain_handle();
    let join = thread::spawn(move || server.run());
    Backend { addr, drain, join }
}

fn backend_config() -> ServeConfig {
    ServeConfig {
        workers: 2,
        drain_grace: Duration::from_millis(300),
        ..ServeConfig::default()
    }
}

fn kill(backend: Backend) {
    backend.drain.drain();
    let _ = backend.join.join();
}

struct Proxy {
    addr: SocketAddr,
    stop: StopHandle,
    join: JoinHandle<std::io::Result<()>>,
}

/// Interposes one chaos proxy (port 0 unless `listen` pins one) between
/// the router and `upstream`.
fn start_proxy(listen: &str, upstream: SocketAddr, config: ChaosConfig, proxy_id: u32) -> Proxy {
    let proxy = ChaosProxy::bind(
        listen,
        upstream.to_string(),
        FaultPlan::new(config),
        proxy_id,
    )
    .expect("bind proxy");
    let addr = proxy.local_addr().expect("proxy addr");
    let stop = proxy.stop_handle();
    let join = thread::spawn(move || proxy.run());
    Proxy { addr, stop, join }
}

fn stop_proxy(proxy: Proxy) {
    proxy.stop.stop();
    proxy
        .join
        .join()
        .expect("proxy thread exits")
        .expect("proxy accept loop exits cleanly");
}

/// A router over `shards` (tight health/probe knobs so fault detection and
/// recovery land within test timescales).
fn start_router(shards: Vec<Vec<String>>) -> (SocketAddr, oct_router::DrainHandle, JoinHandle<()>) {
    start_router_with(shards, |_| {})
}

/// [`start_router`] with the router's config adjusted by `tweak`.
fn start_router_with(
    shards: Vec<Vec<String>>,
    tweak: impl FnOnce(&mut RouterConfig),
) -> (SocketAddr, oct_router::DrainHandle, JoinHandle<()>) {
    let mut config = RouterConfig {
        workers: 2,
        attempt_timeout: Duration::from_millis(500),
        deadline_ms: Some(5000),
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
    let router = Router::bind(config).expect("bind router");
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

/// A `SCORE` query whose items span every shard of an `n`-shard map.
fn spanning_query(n: usize) -> String {
    let map = ShardMap::new(n);
    let items: Vec<u32> = (0..16).collect();
    let covered: std::collections::BTreeSet<u32> = items.iter().map(|&i| map.shard_of(i)).collect();
    assert_eq!(covered.len(), n, "0..16 must span all {n} shards");
    format!(
        "SCORE {}",
        items
            .iter()
            .map(u32::to_string)
            .collect::<Vec<_>>()
            .join(",")
    )
}

#[test]
fn mixed_faults_are_client_invisible_while_every_shard_has_a_replica() {
    // 2 shards × 2 replicas, every replica behind a mixed-fault proxy
    // (delays, resets at byte offsets, trickle writes). Hedging, failover,
    // and the stale-pool redial must hide all of it: every response is a
    // clean `OK COVER`, no partials, no garbage, no errors.
    let mut backends = Vec::new();
    let mut proxies = Vec::new();
    let mut shards = Vec::new();
    for _ in 0..2 {
        let mut replicas = Vec::new();
        for _ in 0..2 {
            let backend = start_backend(backend_config());
            let proxy_id = proxies.len() as u32;
            let proxy = start_proxy(
                "127.0.0.1:0",
                backend.addr,
                ChaosConfig::mixed(0xC4A0_5EED),
                proxy_id,
            );
            replicas.push(proxy.addr.to_string());
            backends.push(backend);
            proxies.push(proxy);
        }
        shards.push(replicas);
    }
    let (addr, drain, join) = start_router(shards);
    let mut c = RawClient::connect(addr);
    let query = spanning_query(2);

    let mut tally = InvariantTally::new();
    for i in 0..40 {
        let line = c.roundtrip(&query);
        tally.observe(&line);
        assert!(
            line.starts_with("OK COVER") && !line.contains("partial="),
            "query {i} under mixed faults must stay clean: {line}"
        );
    }
    assert!(
        tally.clean(),
        "zero client-visible failures expected: {tally:?}"
    );
    assert_eq!(tally.ok, 40, "{tally:?}");

    drain.drain();
    join.join().expect("router exits");
    for proxy in proxies {
        stop_proxy(proxy);
    }
    for b in backends {
        kill(b);
    }
}

#[test]
fn whole_shard_blackhole_degrades_to_deterministic_typed_partial() {
    // Shard 1's only replica sits behind a black-hole proxy (accepts,
    // never responds). Spanning covers must settle to the typed
    // `partial=1 missing=1` marker — never an ERR, never garbage — and
    // the degraded answer must be byte-identical on every repeat.
    let b0 = start_backend(backend_config());
    let b1 = start_backend(backend_config());
    let p0 = start_proxy("127.0.0.1:0", b0.addr, ChaosConfig::passthrough(1), 0);
    let p1 = start_proxy("127.0.0.1:0", b1.addr, ChaosConfig::blackhole(1), 1);
    let (addr, drain, join) =
        start_router(vec![vec![p0.addr.to_string()], vec![p1.addr.to_string()]]);
    let mut c = RawClient::connect(addr);
    let query = spanning_query(2);

    // Settle: the first attempts burn the 500ms attempt timeout against
    // the black hole until the health machine marks the replica Down.
    let deadline = Instant::now() + Duration::from_secs(15);
    let degraded = loop {
        let line = c.roundtrip(&query);
        let kind = classify_line(&line);
        assert!(
            kind.is_typed(),
            "black-holed shard must never produce garbage: {line:?}"
        );
        assert!(
            !line.starts_with("ERR"),
            "black-holed shard must never produce ERR: {line}"
        );
        if line.contains("partial=1 missing=1") {
            break line;
        }
        assert!(
            Instant::now() < deadline,
            "router never degraded; last: {line}"
        );
        thread::sleep(Duration::from_millis(50));
    };
    for i in 0..10 {
        assert_eq!(
            c.roundtrip(&query),
            degraded,
            "degraded answer {i} must be byte-identical"
        );
    }
    assert!(
        c.roundtrip("STATS").contains("degraded=1"),
        "STATS latches the degraded flag"
    );

    drain.drain();
    join.join().expect("router exits");
    stop_proxy(p0);
    stop_proxy(p1);
    kill(b0);
    kill(b1);
}

#[test]
fn recovery_after_faults_clear_is_byte_identical_to_the_pre_fault_capture() {
    // Phase 1: passthrough proxies, capture the healthy baseline.
    // Phase 2: restart shard 1's proxy on the same port as a black hole,
    // wait for typed degradation. Phase 3: restart it as passthrough
    // again — answers must return to the phase-1 bytes exactly.
    let b0 = start_backend(backend_config());
    let b1 = start_backend(backend_config());
    let p0 = start_proxy("127.0.0.1:0", b0.addr, ChaosConfig::passthrough(1), 0);
    let p1 = start_proxy("127.0.0.1:0", b1.addr, ChaosConfig::passthrough(1), 1);
    let p1_addr = p1.addr;
    let (addr, drain, join) =
        start_router(vec![vec![p0.addr.to_string()], vec![p1_addr.to_string()]]);
    let mut c = RawClient::connect(addr);
    let query = spanning_query(2);

    let baseline = c.roundtrip(&query);
    assert!(baseline.starts_with("OK COVER"), "{baseline}");
    assert!(!baseline.contains("partial="), "{baseline}");

    // Inject: same listen address, black-hole plan.
    stop_proxy(p1);
    let p1 = restart_proxy(p1_addr, b1.addr, ChaosConfig::blackhole(1), 1);
    let deadline = Instant::now() + Duration::from_secs(15);
    loop {
        let line = c.roundtrip(&query);
        if line.contains("partial=1 missing=1") {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "router never degraded; last: {line}"
        );
        thread::sleep(Duration::from_millis(50));
    }

    // Clear: same listen address, passthrough plan. The probe loop must
    // re-admit the replica and answers must return to the old bytes.
    stop_proxy(p1);
    let p1 = restart_proxy(p1_addr, b1.addr, ChaosConfig::passthrough(1), 1);
    let deadline = Instant::now() + Duration::from_secs(15);
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
        recovered, baseline,
        "post-recovery answers must be byte-identical to the pre-fault capture"
    );

    drain.drain();
    join.join().expect("router exits");
    stop_proxy(p0);
    stop_proxy(p1);
    kill(b0);
    kill(b1);
}

#[test]
fn a_slow_replica_is_hedged_around_and_stays_up() {
    // Shard 1 has two replicas of one backend: one direct, one behind a
    // `delays` proxy that holds each request and each answer 1–400 ms. The
    // plan is a pure function of its seed; on this seed every one of the
    // proxy's first 32 connections holds a request and its answer more
    // than 120 ms in total (checked below), longer than the 100 ms cold
    // hedge deadline and less than the 1 s attempt timeout. The slow
    // replica is the rendezvous primary of the query's shard-1
    // sub-request. Hedging must keep every answer byte-identical to a
    // healthy router's, and a missed hedge deadline is no health failure.
    let delays = ChaosConfig {
        delay_ms_max: 400,
        ..ChaosConfig::delays(0x13)
    };
    let plan = FaultPlan::new(delays.clone());
    for conn in 0..32 {
        match plan.action(0, conn) {
            FaultAction::Delay { request, response } => {
                assert!(
                    request + response > Duration::from_millis(120),
                    "conn {conn}"
                )
            }
            other => panic!("conn {conn}: {other:?}"),
        }
    }
    // Each pooled router connection holds a backend worker: leave room for
    // both routers' probe and request connections.
    let roomy = || ServeConfig {
        workers: 8,
        ..backend_config()
    };
    let b0 = start_backend(roomy());
    let b1 = start_backend(roomy());
    let query = spanning_query(2);
    let (healthy_addr, healthy_drain, healthy_join) =
        start_router(vec![vec![b0.addr.to_string()], vec![b1.addr.to_string()]]);
    let baseline = RawClient::connect(healthy_addr).roundtrip(&query);
    assert!(baseline.starts_with("OK COVER"), "{baseline}");
    assert!(!baseline.contains("partial="), "{baseline}");
    healthy_drain.drain();
    healthy_join.join().expect("router exits");
    drop(healthy_drain); // the last owner: closes its pooled connections

    let slow = start_proxy("127.0.0.1:0", b1.addr, delays, 0);
    let slow_addr = slow.addr.to_string();
    let items: Vec<u32> = (0..16).collect();
    let (_, slice) = ShardMap::new(2)
        .partition(&items)
        .into_iter()
        .find(|(shard, _)| *shard == 1)
        .expect("0..16 spans shard 1");
    let mut shard1 = vec![b1.addr.to_string(), b1.addr.to_string()];
    shard1[rendezvous_order(2, request_key(&slice))[0]] = slow_addr.clone();
    let metrics = Metrics::new(true);
    let (addr, drain, join) = start_router_with(vec![vec![b0.addr.to_string()], shard1], |c| {
        c.attempt_timeout = Duration::from_secs(1);
        c.probe_timeout = Duration::from_secs(1);
        c.metrics = metrics.clone();
    });
    let mut c = RawClient::connect(addr);
    for i in 0..12 {
        assert_eq!(
            c.roundtrip(&query),
            baseline,
            "answer {i} with a slow primary must match the healthy router's"
        );
    }
    // Let a probe cycle finish so the health gauge is current.
    thread::sleep(Duration::from_millis(600));
    let report = metrics.report();
    let hedges = report.counter("router/hedges").unwrap_or(0);
    assert!(hedges > 0, "the slow primary was hedged around");
    let scope = format!("router/replica/{slow_addr}");
    assert_eq!(
        report.gauge(&format!("{scope}/health")),
        Some(3.0),
        "the slow replica stays Up"
    );
    assert_eq!(report.counter(&format!("{scope}/fail")), Some(0));
    assert_eq!(report.counter(&format!("{scope}/rejected")), Some(0));

    assert!(
        slow.stop.accepted() <= 32,
        "only checked connections were used"
    );

    drain.drain();
    join.join().expect("router exits");
    stop_proxy(slow);
    kill(b0);
    kill(b1);
}

/// Rebinds a chaos proxy on a just-freed concrete port (retrying briefly —
/// the old listener's close may still be settling).
fn restart_proxy(listen: SocketAddr, upstream: SocketAddr, config: ChaosConfig, id: u32) -> Proxy {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        match ChaosProxy::bind(
            &listen.to_string(),
            upstream.to_string(),
            FaultPlan::new(config.clone()),
            id,
        ) {
            Ok(proxy) => {
                let addr = proxy.local_addr().expect("proxy addr");
                let stop = proxy.stop_handle();
                let join = thread::spawn(move || proxy.run());
                return Proxy { addr, stop, join };
            }
            Err(e) => {
                assert!(Instant::now() < deadline, "cannot rebind {listen}: {e}");
                thread::sleep(Duration::from_millis(50));
            }
        }
    }
}

#[test]
fn stale_pooled_connection_redials_without_a_health_or_breaker_penalty() {
    // A backend that courteously retires every connection after one
    // request makes each pooled connection stale on first reuse. The
    // replica must absorb that with a silent redial: every call succeeds
    // and health never leaves Up or records a Down.
    let backend = start_backend(ServeConfig {
        max_requests: 1,
        ..backend_config()
    });
    let metrics = Metrics::new(true);
    let replica = Replica::new(backend.addr.to_string(), HealthConfig::default(), &metrics);
    let stale = metrics.counter(&format!("router/replica/{}/pool_stale", backend.addr));
    for i in 0..3 {
        let resp = replica
            .call(&Request::Ping, Duration::from_secs(2))
            .unwrap_or_else(|e| panic!("call {i} through a retiring backend failed: {e}"));
        assert!(matches!(resp, Response::Pong { .. }), "{resp:?}");
    }
    assert_eq!(
        replica.health.state(),
        HealthState::Up,
        "pool staleness is not a replica health signal"
    );
    assert_eq!(replica.health.downs(), 0);
    assert!(
        stale.get() >= 1,
        "reused-then-retired connections must be detected as stale"
    );
    kill(backend);
}

#[test]
fn router_closes_slowloris_connections_without_poisoning_the_fleet() {
    // A client that connects and trickles nothing must be cut off once
    // its cumulative idle budget is spent — silently, with no ERR line —
    // while a well-behaved client on the same router keeps working.
    let backend = start_backend(backend_config());
    let config = RouterConfig {
        workers: 2,
        idle_timeout: Duration::from_millis(200),
        drain_grace: Duration::from_millis(500),
        metrics: Metrics::new(true),
        shards: vec![vec![backend.addr.to_string()]],
        ..RouterConfig::default()
    };
    let router = Router::bind(config).expect("bind router");
    let addr = router.local_addr().expect("router addr");
    let drain = router.drain_handle();
    let join = thread::spawn(move || {
        let _ = router.run();
    });

    let slow = TcpStream::connect(addr).expect("connect");
    slow.set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    // Half a request, then silence: the idle clock must still fire.
    (&slow).write_all(b"PI").expect("partial write");
    let mut reader = BufReader::new(slow);
    let mut out = String::new();
    let n = reader.read_line(&mut out).expect("read to EOF");
    assert_eq!(n, 0, "idle close is silent, not an ERR line: {out:?}");

    let mut polite = RawClient::connect(addr);
    assert!(polite.roundtrip("PING").starts_with("OK PONG"));

    drain.drain();
    join.join().expect("router exits");
    kill(backend);
}
