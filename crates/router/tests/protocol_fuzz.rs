//! Fuzz-style robustness tests: malformed, hostile, oversized, and
//! truncated request lines thrown at a live backend AND a live router.
//!
//! The contract under fuzz is the same for both daemons:
//!
//! - every newline-terminated line below the size cap gets exactly one
//!   typed response line (`OK ...` or `ERR ...`) — never a panic, never
//!   silence;
//! - the connection survives rejected lines (verified by a follow-up
//!   `PING` on the same socket);
//! - oversized lines and mid-line disconnects close *that* connection
//!   without leaking the worker — the daemon keeps serving fresh
//!   connections.
//!
//! The vendored proptest has no `prop_oneof`, so line shapes are built
//! from a tagged `(u8, Vec<u8>)` strategy.

use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::OnceLock;
use std::thread;
use std::time::Duration;

use oct_core::{CategoryTree, ROOT};
use oct_router::{Router, RouterConfig};
use oct_serve::prelude::*;
use proptest::prelude::*;

fn fuzz_tree() -> CategoryTree {
    let mut t = CategoryTree::new();
    let a = t.add_category(ROOT);
    let b = t.add_category(ROOT);
    t.assign_items(a, 0..8);
    t.assign_items(b, 8..16);
    t
}

/// One backend and one router over it, booted once for the whole test
/// binary (they die with the process; drain is not needed here).
fn endpoints() -> (SocketAddr, SocketAddr) {
    static EP: OnceLock<(SocketAddr, SocketAddr)> = OnceLock::new();
    *EP.get_or_init(|| {
        let config = ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        };
        let server =
            Server::bind(config, ServingTree::build(fuzz_tree(), 16, 0, "fuzz")).expect("bind");
        let backend = server.local_addr().expect("addr");
        thread::spawn(move || server.run());
        let router = Router::bind(RouterConfig {
            workers: 2,
            attempt_timeout: Duration::from_millis(500),
            shards: vec![vec![backend.to_string()]],
            ..RouterConfig::default()
        })
        .expect("bind router");
        let front = router.local_addr().expect("addr");
        thread::spawn(move || router.run());
        (backend, front)
    })
}

fn connect(addr: SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let reader = BufReader::new(conn.try_clone().expect("clone"));
    (conn, reader)
}

/// Sends one line, expects exactly one typed response line back.
fn roundtrip(conn: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str) -> String {
    conn.write_all(line.as_bytes()).expect("write");
    conn.write_all(b"\n").expect("write newline");
    let mut out = String::new();
    reader.read_line(&mut out).expect("read");
    assert!(
        out.ends_with('\n'),
        "no/truncated response to {line:?}: {out:?}"
    );
    out.trim_end().to_owned()
}

/// Builds a hostile-but-bounded request line from the tagged raw bytes.
/// Newlines are stripped (they would frame extra lines) and the
/// `SHUTDOWN` verb is defanged — the fuzz fleet is shared across cases.
fn build_line(tag: u8, bytes: &[u8]) -> String {
    let printable: String = bytes.iter().map(|&b| char::from(b % 94 + 32)).collect();
    let numbers: String = bytes
        .iter()
        .map(|&b| {
            // A mix of in-range, overflowing, and negative "item ids".
            match b % 4 {
                0 => format!("{}", u64::from(b) * 97),
                1 => format!("{}", u64::from(u32::MAX) + u64::from(b)),
                2 => format!("-{b}"),
                _ => "9".repeat(1 + usize::from(b % 24)),
            }
        })
        .collect::<Vec<_>>()
        .join(",");
    let raw: String = bytes
        .iter()
        .filter(|&&b| b != b'\n' && b != b'\r')
        .map(|&b| char::from(b))
        .collect();
    let line = match tag {
        0 => printable,
        1 => format!("CATEGORIZE {printable}"),
        2 => format!("SCORE {numbers}"),
        3 => format!("categorize {numbers} shard={printable}"),
        4 => raw,
        _ => format!("NAVIGATE {numbers}"),
    };
    if line
        .trim_start()
        .to_ascii_uppercase()
        .starts_with("SHUTDOWN")
    {
        format!("X{line}")
    } else {
        line
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn hostile_lines_get_typed_responses_and_never_kill_the_connection(
        tag in 0u8..6,
        bytes in prop::collection::vec(any::<u8>(), 0..80),
    ) {
        let (backend, front) = endpoints();
        let line = build_line(tag, &bytes);
        for addr in [backend, front] {
            let (mut conn, mut reader) = connect(addr);
            if !line.trim().is_empty() {
                let resp = roundtrip(&mut conn, &mut reader, &line);
                prop_assert!(
                    resp.starts_with("OK ") || resp.starts_with("ERR "),
                    "untyped response to {line:?}: {resp:?}"
                );
            }
            // The connection survives whatever that line was.
            let pong = roundtrip(&mut conn, &mut reader, "PING");
            prop_assert!(pong.starts_with("OK PONG"), "dead connection after {line:?}: {pong:?}");
        }
    }
}

#[test]
fn oversized_lines_close_the_connection_but_not_the_daemon() {
    let (backend, front) = endpoints();
    for addr in [backend, front] {
        let (mut conn, mut reader) = connect(addr);
        // Well past the 1 MiB line cap, no newline in sight.
        let chunk = vec![b'7'; 64 * 1024];
        let mut closed = false;
        for _ in 0..40 {
            if conn.write_all(&chunk).is_err() {
                closed = true; // daemon dropped us mid-upload
                break;
            }
        }
        if !closed {
            let _ = conn.write_all(b"\n");
            let mut out = String::new();
            // Either an explicit close (EOF ⇒ Ok(0)) or an error once the
            // daemon resets the socket — never a successful response.
            match reader.read_line(&mut out) {
                Ok(0) => {}
                Ok(_) => panic!("oversized line got a response: {out:?}"),
                Err(_) => {}
            }
        }
        // The daemon itself survived and serves fresh connections.
        let (mut conn, mut reader) = connect(addr);
        let pong = roundtrip(&mut conn, &mut reader, "PING");
        assert!(pong.starts_with("OK PONG"), "{pong}");
    }
}

#[test]
fn truncated_lines_on_disconnect_are_dropped_cleanly() {
    let (backend, front) = endpoints();
    for addr in [backend, front] {
        let (mut conn, _reader) = connect(addr);
        // A partial request with no newline, then a half-close: the daemon
        // must treat it as EOF, answer nothing, and free the worker.
        conn.write_all(b"CATEGORIZE 1,2,3").expect("write");
        conn.shutdown(Shutdown::Write).expect("half-close");
        let mut reader = BufReader::new(conn.try_clone().expect("clone"));
        let mut out = String::new();
        assert_eq!(
            reader.read_line(&mut out).expect("read"),
            0,
            "truncated line must not be answered: {out:?}"
        );
        let (mut conn, mut reader) = connect(addr);
        let pong = roundtrip(&mut conn, &mut reader, "PING");
        assert!(pong.starts_with("OK PONG"), "{pong}");
    }
}
