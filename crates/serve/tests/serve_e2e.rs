//! End-to-end tests: a real server on a real socket, driven by the real
//! client. Each test binds port 0 and drains via its own [`DrainHandle`] or
//! the `SHUTDOWN` verb — never the process-global signal flag, because the
//! test binary runs tests concurrently in one process.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use oct_core::{persist, CategoryTree, Similarity, ROOT};
use oct_obs::{Metrics, PipelineReport};
use oct_serve::client;
use oct_serve::prelude::*;

/// Two root categories: `shoes` = {0, 1}, `tents` = {2, 3, 4, 5}.
fn test_tree() -> CategoryTree {
    let mut t = CategoryTree::new();
    let shoes = t.add_category(ROOT);
    let tents = t.add_category(ROOT);
    t.assign_items(shoes, [0, 1]);
    t.assign_items(tents, [2, 3, 4, 5]);
    t.set_label(shoes, "running shoes");
    t.set_label(tents, "dome tents");
    t
}

fn start(
    config: ServeConfig,
    tree: CategoryTree,
) -> (
    SocketAddr,
    DrainHandle,
    JoinHandle<std::io::Result<PipelineReport>>,
) {
    let server = Server::bind(config, ServingTree::build(tree, 16, 0, "test")).expect("bind");
    let addr = server.local_addr().expect("addr");
    let drain = server.drain_handle();
    let join = thread::spawn(move || server.run());
    (addr, drain, join)
}

fn quick_config() -> ServeConfig {
    ServeConfig {
        metrics: Metrics::new(true),
        drain_grace: Duration::from_millis(500),
        ..ServeConfig::default()
    }
}

#[test]
fn serves_the_full_protocol_and_drains_on_shutdown_verb() {
    let (addr, _drain, join) = start(quick_config(), test_tree());
    let mut c = Client::connect(addr, Duration::from_secs(5)).expect("connect");

    match c.request(&Request::Ping).expect("ping") {
        Response::Pong { epoch } => assert_eq!(epoch, 0),
        other => panic!("unexpected {other:?}"),
    }

    match c
        .request(&Request::Categorize {
            items: vec![0, 1],
            shard: None,
        })
        .expect("categorize")
    {
        Response::Cover {
            cat,
            similarity,
            covered,
            degraded,
            label,
            ..
        } => {
            assert_eq!(cat, Some(1), "shoes is the exact cover");
            assert!((similarity - 1.0).abs() < 1e-9);
            assert!(covered);
            assert!(!degraded);
            assert_eq!(label.as_deref(), Some("running shoes"));
        }
        other => panic!("unexpected {other:?}"),
    }

    match c
        .request(&Request::Score {
            items: vec![2, 3],
            shard: None,
        })
        .expect("score")
    {
        Response::Cover { cat, label, .. } => {
            assert_eq!(cat, Some(2), "tents covers 2,3 best");
            assert_eq!(label, None, "SCORE is label-free");
        }
        other => panic!("unexpected {other:?}"),
    }

    match c.request(&Request::Navigate { cat: ROOT }).expect("nav") {
        Response::Nav { children, .. } => assert_eq!(children, vec![1, 2]),
        other => panic!("unexpected {other:?}"),
    }
    match c.request(&Request::Navigate { cat: 999 }).expect("nav bad") {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::BadRequest),
        other => panic!("unexpected {other:?}"),
    }

    match c.request(&Request::Stats).expect("stats") {
        Response::Stats {
            categories, items, ..
        } => {
            assert_eq!(categories, 3, "root + 2");
            assert_eq!(items, 16);
        }
        other => panic!("unexpected {other:?}"),
    }

    // A malformed line must not kill the connection.
    assert!(matches!(
        c.request(&Request::Swap {
            path: "/definitely/not/a/file".into()
        }),
        Ok(Response::Error {
            code: ErrorCode::BadRequest,
            ..
        })
    ));
    assert!(matches!(
        c.request(&Request::Ping),
        Ok(Response::Pong { .. })
    ));

    assert!(matches!(
        c.request(&Request::Shutdown),
        Ok(Response::Draining)
    ));
    let report = join.join().expect("no panic").expect("clean run");
    assert!(report.counter("serve/requests").unwrap_or(0) >= 8);
    assert!(
        report.histogram("serve/latency").is_some(),
        "latency histogram flushed"
    );
}

#[test]
fn sheds_excess_connections_with_typed_overloaded() {
    let config = ServeConfig {
        workers: 1,
        queue_capacity: 1,
        ..quick_config()
    };
    let (addr, drain, join) = start(config, test_tree());

    // Fill the single worker and the single queue slot with held-open
    // connections, then watch the next ones bounce.
    let held1 = Client::connect(addr, Duration::from_secs(5)).expect("held1");
    thread::sleep(Duration::from_millis(150)); // let the worker pop held1
    let held2 = Client::connect(addr, Duration::from_secs(5)).expect("held2");
    thread::sleep(Duration::from_millis(150)); // let held2 take the queue slot

    let mut sheds = 0;
    for _ in 0..3 {
        let conn = TcpStream::connect(addr).expect("connect");
        conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut line = String::new();
        BufReader::new(conn).read_line(&mut line).expect("read");
        let resp = Response::parse(&line).expect("typed response");
        assert!(resp.is_overloaded(), "expected OVERLOADED, got {resp:?}");
        sheds += 1;
    }
    assert_eq!(sheds, 3);

    drop(held1);
    drop(held2);
    drain.drain();
    let report = join.join().expect("no panic").expect("clean run");
    assert!(report.counter("serve/shed").unwrap_or(0) >= 3);
    assert!(report.counter("serve/accepted").unwrap_or(0) >= 5);
}

#[test]
fn shed_connection_closes_cleanly_after_an_unread_request() {
    let config = ServeConfig {
        workers: 1,
        queue_capacity: 1,
        ..quick_config()
    };
    let (addr, drain, join) = start(config, test_tree());
    let held1 = Client::connect(addr, Duration::from_secs(5)).expect("held1");
    thread::sleep(Duration::from_millis(150)); // let the worker pop held1
    let held2 = Client::connect(addr, Duration::from_secs(5)).expect("held2");
    thread::sleep(Duration::from_millis(150)); // let held2 take the queue slot

    // Each client sends its request before the server reads anything, as a
    // one-shot client does. The server never reads that line, yet the
    // client must get the OVERLOADED reply and then a clean EOF, not a
    // reset.
    for i in 0..10 {
        let mut conn = TcpStream::connect(addr).expect("connect");
        conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        writeln!(conn, "CATEGORIZE 0,1").expect("send request");
        thread::sleep(Duration::from_millis(20)); // the server sheds meanwhile
        let mut reader = BufReader::new(conn);
        let mut line = String::new();
        reader.read_line(&mut line).expect("read reply");
        let resp = Response::parse(&line).expect("typed response");
        assert!(resp.is_overloaded(), "client {i}: got {resp:?}");
        line.clear();
        let eof = reader.read_line(&mut line).expect("clean close, no reset");
        assert_eq!(eof, 0, "client {i}: expected EOF, got {line:?}");
    }

    drop(held1);
    drop(held2);
    drain.drain();
    join.join().expect("no panic").expect("clean run");
}

#[test]
fn zero_deadline_serves_fully_degraded_answers() {
    let config = ServeConfig {
        deadline_ms: Some(0),
        ..quick_config()
    };
    let (addr, drain, join) = start(config, test_tree());
    match client::one_shot(
        addr,
        &Request::Categorize {
            items: vec![0, 1],
            shard: None,
        },
    )
    .expect("query")
    {
        Response::Cover { degraded, cat, .. } => {
            assert!(degraded, "zero deadline must degrade immediately");
            assert_eq!(cat, None, "no candidate evaluated");
        }
        other => panic!("unexpected {other:?}"),
    }
    drain.drain();
    let report = join.join().expect("no panic").expect("clean run");
    assert!(report.counter("serve/degraded").unwrap_or(0) >= 1);
}

#[test]
fn hot_swap_publishes_atomically_under_concurrent_load() {
    // Epoch parity encodes which tree must be answering: even = A (shoes
    // {0,1} → sim 1.0 for query {0,1}), odd = B ({0,1,2,3} → sim 0.5).
    // Any response mixing an epoch with the other tree's score is a torn
    // read — exactly what the atomic swap must prevent.
    let tree_a = test_tree();
    let mut tree_b = CategoryTree::new();
    let wide = tree_b.add_category(ROOT);
    tree_b.assign_items(wide, [0, 1, 2, 3]);

    let dir = std::env::temp_dir().join(format!("oct-serve-swap-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path_a = dir.join("a.oct");
    let path_b = dir.join("b.oct");
    std::fs::write(&path_a, persist::encode_tree(&tree_a)).expect("write a");
    std::fs::write(&path_b, persist::encode_tree(&tree_b)).expect("write b");

    let config = ServeConfig {
        workers: 4,
        similarity: Similarity::jaccard_cutoff(0.4),
        ..quick_config()
    };
    let (addr, drain, join) = start(config, tree_a);

    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let readers: Vec<_> = (0..3)
        .map(|_| {
            let stop = std::sync::Arc::clone(&stop);
            thread::spawn(move || {
                let mut c = Client::connect(addr, Duration::from_secs(5)).expect("connect");
                let mut checked = 0u32;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    match c
                        .request(&Request::Score {
                            items: vec![0, 1],
                            shard: None,
                        })
                        .expect("score during swap")
                    {
                        Response::Cover {
                            epoch, similarity, ..
                        } => {
                            let expect = if epoch % 2 == 0 { 1.0 } else { 0.5 };
                            assert!(
                                (similarity - expect).abs() < 1e-9,
                                "torn read: epoch {epoch} answered sim {similarity}"
                            );
                            checked += 1;
                        }
                        other => panic!("unexpected {other:?}"),
                    }
                }
                checked
            })
        })
        .collect();

    let mut swapper = Client::connect(addr, Duration::from_secs(5)).expect("swapper");
    for round in 0..10 {
        let path = if round % 2 == 0 { &path_b } else { &path_a };
        match swapper
            .request(&Request::Swap {
                path: path.display().to_string(),
            })
            .expect("swap")
        {
            Response::Swapped { epoch, .. } => assert_eq!(epoch, round + 1),
            other => panic!("unexpected {other:?}"),
        }
        thread::sleep(Duration::from_millis(10));
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let total: u32 = readers.into_iter().map(|h| h.join().expect("reader")).sum();
    assert!(total > 0, "readers actually overlapped the swaps");

    drain.drain();
    let report = join.join().expect("no panic").expect("clean run");
    assert_eq!(report.counter("serve/swaps"), Some(10));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_swap_keeps_the_old_epoch_serving() {
    // Regression: a failed SWAP must not bump the epoch or count under
    // serve/swaps — the old tree keeps answering, and the *next* good
    // SWAP's epoch proves the failures left no gap.
    let dir = std::env::temp_dir().join(format!("oct-serve-badswap-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let garbage = dir.join("garbage.oct");
    std::fs::write(&garbage, b"definitely not a tree").expect("write garbage");
    let truncated = dir.join("truncated.oct");
    let good_bytes = persist::encode_tree(&test_tree());
    std::fs::write(&truncated, &good_bytes[..good_bytes.len() / 2]).expect("write truncated");
    let good = dir.join("good.oct");
    std::fs::write(&good, &good_bytes).expect("write good");

    let (addr, drain, join) = start(quick_config(), test_tree());
    let mut c = Client::connect(addr, Duration::from_secs(5)).expect("connect");

    for bad in [
        "/definitely/not/a/file".to_owned(),
        garbage.display().to_string(),
        truncated.display().to_string(),
    ] {
        match c.request(&Request::Swap { path: bad }).expect("swap") {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::BadRequest),
            other => panic!("unexpected {other:?}"),
        }
        // The old tree is still serving at the old epoch.
        match c
            .request(&Request::Categorize {
                items: vec![0, 1],
                shard: None,
            })
            .expect("categorize after failed swap")
        {
            Response::Cover {
                epoch,
                cat,
                similarity,
                ..
            } => {
                assert_eq!(epoch, 0, "failed swap must not bump the epoch");
                assert_eq!(cat, Some(1));
                assert!((similarity - 1.0).abs() < 1e-9);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    // The first successful swap lands at epoch 1: the failures consumed
    // no epochs.
    match c
        .request(&Request::Swap {
            path: good.display().to_string(),
        })
        .expect("good swap")
    {
        Response::Swapped { epoch, .. } => assert_eq!(epoch, 1),
        other => panic!("unexpected {other:?}"),
    }

    drain.drain();
    let report = join.join().expect("no panic").expect("clean run");
    assert_eq!(
        report.counter("serve/swaps"),
        Some(1),
        "published swaps only"
    );
    assert_eq!(report.counter("serve/swap_failed"), Some(3));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn drain_answers_queued_work_then_exits_cleanly() {
    let config = ServeConfig {
        workers: 2,
        ..quick_config()
    };
    let (addr, drain, join) = start(config, test_tree());

    // A raw connection with a request already in the server's hands…
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    thread::sleep(Duration::from_millis(100)); // admitted + popped
    writeln!(conn, "PING").expect("send");
    let mut line = String::new();
    BufReader::new(conn.try_clone().expect("clone"))
        .read_line(&mut line)
        .expect("read");
    assert!(line.starts_with("OK PONG"), "pre-drain request answered");

    drain.drain();
    let report = join.join().expect("no panic").expect("clean run");
    assert!(!report.is_empty(), "metrics flushed on drain");
}

#[test]
fn slowloris_connections_are_cut_off_silently_after_the_idle_budget() {
    // A client that sends half a line and then stalls must be closed once
    // the cumulative idle budget is spent — with no ERR line (an error
    // would desync any pipelined bytes the client had buffered) — and the
    // close must be invisible to well-behaved connections.
    let config = ServeConfig {
        idle_timeout: Duration::from_millis(200),
        ..quick_config()
    };
    let metrics = config.metrics.clone();
    let (addr, drain, join) = start(config, test_tree());

    let slow = TcpStream::connect(addr).expect("connect");
    slow.set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    (&slow).write_all(b"PI").expect("partial write");
    let mut reader = BufReader::new(slow);
    let mut out = String::new();
    let n = reader.read_line(&mut out).expect("read to EOF");
    assert_eq!(n, 0, "idle close is silent, not a response line: {out:?}");
    assert_eq!(
        metrics.report().counter("serve/idle_closed"),
        Some(1),
        "the cut-off is accounted"
    );

    // The polite neighbour is unaffected.
    let mut c = Client::connect(addr, Duration::from_secs(5)).expect("connect");
    assert!(matches!(
        c.request(&Request::Ping).expect("ping"),
        Response::Pong { .. }
    ));

    drain.drain();
    join.join().expect("no panic").expect("clean run");
}

#[test]
fn connections_are_courteously_retired_after_the_request_cap() {
    // With `max_requests = 2`, a connection pipelining three requests gets
    // exactly two answers — the Nth response is written *before* the close,
    // so no answered request is ever lost — then EOF.
    let config = ServeConfig {
        max_requests: 2,
        ..quick_config()
    };
    let metrics = config.metrics.clone();
    let (addr, drain, join) = start(config, test_tree());

    let conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    (&conn).write_all(b"PING\nPING\nPING\n").expect("pipeline");
    let mut reader = BufReader::new(conn);
    for i in 0..2 {
        let mut line = String::new();
        reader.read_line(&mut line).expect("read");
        assert!(line.starts_with("OK PONG"), "response {i}: {line:?}");
    }
    let mut line = String::new();
    let n = reader.read_line(&mut line).expect("read to EOF");
    assert_eq!(n, 0, "third request rides a retired connection: {line:?}");
    assert_eq!(metrics.report().counter("serve/conn_retired"), Some(1));

    // A fresh connection starts a fresh budget.
    let mut c = Client::connect(addr, Duration::from_secs(5)).expect("connect");
    assert!(matches!(
        c.request(&Request::Ping).expect("ping"),
        Response::Pong { .. }
    ));

    drain.drain();
    join.join().expect("no panic").expect("clean run");
}

#[test]
fn navigate_topk_ranks_exactly_and_unknown_items_pin_the_cover() {
    let (addr, drain, join) = start(quick_config(), test_tree());
    let mut c = Client::connect(addr, Duration::from_secs(5)).expect("connect");

    // Unknown ids count toward |q| (batch-scorer semantics): {2,3,4,999999}
    // against tents {2,3,4,5} is J = 3 / (4 + 4 − 3) = 0.6, not the 0.75 a
    // silently-shrunk query would give.
    match c
        .request(&Request::Categorize {
            items: vec![2, 3, 4, 999_999],
            shard: None,
        })
        .expect("categorize")
    {
        Response::Cover {
            cat,
            similarity,
            precision,
            ..
        } => {
            assert_eq!(cat, Some(2));
            assert!(
                (similarity - 0.6).abs() < 1e-9,
                "unknown item must dilute the query: {similarity}"
            );
            assert!((precision - 0.75).abs() < 1e-9);
        }
        other => panic!("unexpected {other:?}"),
    }

    // Top-k over {0,1,2}: shoes J = 2/3 leads; the root (J = 3/6 = 0.5)
    // still clears the cutoff; tents (J = 1/6) falls below it and is
    // dropped. Scores travel with 6 decimals on the wire.
    match c
        .request(&Request::NavigateTopK {
            k: 5,
            items: vec![0, 1, 2],
            ef: None,
        })
        .expect("topk")
    {
        Response::TopK {
            k,
            degraded,
            results,
            ..
        } => {
            assert_eq!(k, 5);
            assert!(!degraded);
            assert_eq!(results.len(), 2, "{results:?}");
            assert_eq!(results[0].0, 1, "shoes first");
            assert!((results[0].1 - 2.0 / 3.0).abs() < 1e-6, "{results:?}");
            assert_eq!(results[1].0, ROOT);
            assert!((results[1].1 - 0.5).abs() < 1e-6);
        }
        other => panic!("unexpected {other:?}"),
    }

    // Byte-identical across repeated runs on the wire (fixed seed, fixed
    // tree ⇒ same line, down to the formatting).
    let raw_line = |line: &str| {
        let mut conn = TcpStream::connect(addr).expect("connect");
        conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        writeln!(conn, "{line}").expect("write");
        let mut out = String::new();
        BufReader::new(conn).read_line(&mut out).expect("read");
        out
    };
    let first = raw_line("NAVIGATE 2 items=0,1,2");
    let second = raw_line("NAVIGATE 2 items=0,1,2");
    assert_eq!(first, second, "top-k must be byte-identical across runs");
    assert!(first.starts_with("OK TOPK "), "{first}");

    // k = 0 is a bad request, not a crash or an empty OK.
    let bad = raw_line("NAVIGATE 0 items=1");
    assert!(bad.starts_with("ERR bad-request"), "{bad}");

    drain.drain();
    let _ = join.join().expect("no panic").expect("clean run");
}

/// A mixed pipelined burst: a labelled cover, a label-free cover, a top-k
/// navigation, a malformed line and `STATS`, each answered in order.
const MIXED_BURST: [&str; 5] = [
    "CATEGORIZE 0,1",
    "SCORE 2,3,4,9",
    "NAVIGATE 2 items=0,1,2",
    "FROBNICATE 1,2",
    "STATS",
];

fn raw_connect(addr: SocketAddr) -> TcpStream {
    let conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    conn
}

/// Reads one answer line, newline included; panics on EOF.
fn read_answer(reader: &mut BufReader<TcpStream>) -> String {
    let mut line = String::new();
    reader.read_line(&mut line).expect("read");
    assert!(line.ends_with('\n'), "truncated answer: {line:?}");
    line
}

/// Asserts the server closed the connection cleanly (EOF, not a reset).
fn assert_eof(reader: &mut BufReader<TcpStream>) {
    let mut line = String::new();
    let n = reader.read_line(&mut line).expect("clean close, no reset");
    assert_eq!(n, 0, "expected EOF, got {line:?}");
}

/// Each line sent only after the previous one is answered.
fn answers_one_at_a_time(addr: SocketAddr, lines: &[&str]) -> Vec<String> {
    let conn = raw_connect(addr);
    let mut reader = BufReader::new(conn.try_clone().expect("clone"));
    lines
        .iter()
        .map(|line| {
            (&conn)
                .write_all(format!("{line}\n").as_bytes())
                .expect("send");
            read_answer(&mut reader)
        })
        .collect()
}

/// Sends every line in one write; the answers are read from the result.
fn send_burst(addr: SocketAddr, lines: &[&str]) -> BufReader<TcpStream> {
    let conn = raw_connect(addr);
    let burst: String = lines.iter().map(|line| format!("{line}\n")).collect();
    (&conn).write_all(burst.as_bytes()).expect("send burst");
    BufReader::new(conn)
}

#[test]
fn a_pipelined_burst_is_answered_like_lines_sent_one_at_a_time() {
    let (addr, drain, join) = start(quick_config(), test_tree());
    let want = answers_one_at_a_time(addr, &MIXED_BURST);
    assert!(want[3].starts_with("ERR bad-request"), "{want:?}");

    let mut reader = send_burst(addr, &MIXED_BURST);
    let got: Vec<String> = MIXED_BURST
        .iter()
        .map(|_| read_answer(&mut reader))
        .collect();
    assert_eq!(got, want, "same bytes, same order");

    drain.drain();
    join.join().expect("no panic").expect("clean run");
}

#[test]
fn a_pipelined_burst_crossing_the_request_cap_gets_cap_answers_then_eof() {
    let config = ServeConfig {
        max_requests: 3,
        ..quick_config()
    };
    let (addr, drain, join) = start(config, test_tree());
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

    drain.drain();
    join.join().expect("no panic").expect("clean run");
}

#[test]
fn a_pipelined_burst_through_shutdown_is_answered_up_to_draining_then_eof() {
    let (addr, _drain, join) = start(quick_config(), test_tree());
    let mut want = answers_one_at_a_time(addr, &MIXED_BURST[..2]);
    want.push("OK DRAINING\n".to_owned());

    let lines = [MIXED_BURST[0], MIXED_BURST[1], "SHUTDOWN", "PING", "STATS"];
    let mut reader = send_burst(addr, &lines);
    for (i, want) in want.iter().enumerate() {
        assert_eq!(&read_answer(&mut reader), want, "answer {i}");
    }
    assert_eof(&mut reader);
    join.join().expect("no panic").expect("clean run");
}

#[test]
fn a_thousand_client_chosen_shard_ids_add_at_most_one_counter() {
    let config = quick_config();
    let metrics = config.metrics.clone();
    let (addr, drain, join) = start(config, test_tree());
    // One unscoped request first, so every per-request metric exists.
    let mut reader = send_burst(addr, &["CATEGORIZE 0,1"]);
    assert!(read_answer(&mut reader).starts_with("OK COVER"));
    let before = metrics.report().counters.len();

    let lines: Vec<String> = (0..1000u32)
        .map(|shard| {
            Request::Categorize {
                items: vec![0, 1],
                shard: Some(shard),
            }
            .encode()
        })
        .collect();
    for burst in lines.chunks(100) {
        let burst: Vec<&str> = burst.iter().map(String::as_str).collect();
        let mut reader = send_burst(addr, &burst);
        for _ in &burst {
            assert!(read_answer(&mut reader).starts_with("OK COVER"));
        }
    }

    let report = metrics.report();
    assert!(
        report.counters.len() <= before + 1,
        "{} counters before, {:?} after",
        before,
        report.counters.keys()
    );
    assert_eq!(report.counter("serve/scoped"), Some(1000));
    drain.drain();
    join.join().expect("no panic").expect("clean run");
}

#[test]
fn a_client_that_never_reads_its_answers_cannot_hold_drain_past_its_grace() {
    // One worker, no request cap: pipelined PINGs whose answers are never
    // read fill the socket buffers, and the worker's write stalls.
    let config = ServeConfig {
        workers: 1,
        max_requests: 0,
        ..quick_config()
    };
    let grace = config.drain_grace;
    let (addr, drain, join) = start(config, test_tree());

    let conn = TcpStream::connect(addr).expect("connect");
    let sent = Arc::new(AtomicUsize::new(0));
    let writer = {
        let sent = Arc::clone(&sent);
        thread::spawn(move || {
            let chunk = "PING\n".repeat(4096 / 5);
            // At most 64 MB; the send blocks long before that, and fails
            // once the server drops the connection.
            for _ in 0..16 * 1024 {
                if (&conn).write_all(chunk.as_bytes()).is_err() {
                    return;
                }
                sent.fetch_add(chunk.len(), Ordering::Relaxed);
            }
        })
    };
    // Wait until the client's sends stall for a whole second: the server
    // has stopped reading because it is stuck writing answers nobody reads
    // (a 4 KiB chunk of PINGs takes it milliseconds to answer).
    let give_up = Instant::now() + Duration::from_secs(60);
    let mut last = usize::MAX;
    while sent.load(Ordering::Relaxed) != last {
        assert!(Instant::now() < give_up, "the client's sends never stalled");
        last = sent.load(Ordering::Relaxed);
        thread::sleep(Duration::from_secs(1));
    }
    assert!(last >= 1 << 20, "only {last} bytes sent before stalling");

    let started = Instant::now();
    drain.drain();
    let (done_tx, done_rx) = mpsc::channel();
    let waiter = thread::spawn(move || {
        let _ = done_tx.send(join.join());
    });
    let margin = Duration::from_secs(2);
    let run = done_rx
        .recv_timeout(grace + margin)
        .unwrap_or_else(|_| panic!("drain still running {:?} after it began", grace + margin));
    run.expect("no panic").expect("clean run");
    assert!(started.elapsed() < grace + margin);
    waiter.join().expect("the waiter only forwards the result");
    writer
        .join()
        .expect("the writer sees the closed connection");
}
