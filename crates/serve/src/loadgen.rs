//! Deterministic loopback load generator for benchmarking `oct-serve`.
//!
//! Drives a running daemon over real TCP connections — the same path a
//! production client takes, including protocol encode/decode, kernel
//! loopback, and the admission queue — so benchmark latencies include
//! everything a client would actually observe.
//!
//! Determinism contract: the *workload* (which items each request queries,
//! in what order, over how many connections, and — in open-loop mode — the
//! scheduled send times) is a pure function of [`LoadGenConfig`], derived
//! from a splitmix64 stream seeded per connection. Only the measured
//! timings vary between runs.
//!
//! Two arrival disciplines:
//!
//! - **Closed loop** (default): each connection issues its next request as
//!   soon as the previous one answers. Simple, but a slow server slows the
//!   arrival rate with it, hiding tail latency (coordinated omission).
//! - **Open loop** ([`Arrival::Open`]): requests fire on a seeded Poisson
//!   schedule regardless of how the server is doing, and each latency is
//!   measured from its *scheduled* send time — so queueing delay behind a
//!   straggler is charged to the straggler, the honest way to measure tail
//!   latency under load.
//!
//! Key skew: [`KeyDist::Zipf`] draws item ids from a Zipf distribution
//! (id 0 hottest) instead of uniformly, modelling real catalog traffic
//! where a few hot items dominate.

use std::io;
use std::net::SocketAddr;
use std::thread;
use std::time::{Duration, Instant};

use crate::client::Client;
use crate::protocol::{Request, Response};

/// Arrival discipline for a burst.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Arrival {
    /// Back-to-back: the next request fires when the previous one answers.
    #[default]
    Closed,
    /// Seeded Poisson arrivals at a fixed aggregate rate, split evenly
    /// across connections; latencies are measured from the scheduled send
    /// time (queueing delay counts against the server).
    Open {
        /// Target aggregate request rate, requests/second (clamped ≥ 1).
        rps: u32,
    },
}

/// Item-id distribution for generated requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KeyDist {
    /// Every id in `0..num_items` equally likely.
    #[default]
    Uniform,
    /// Zipf-distributed ids: id `k` drawn with weight `1/(k+1)^s`, so id 0
    /// is the hottest key. The exponent is carried in milli-units
    /// (`1000` ⇒ s = 1.0) to keep the config `Eq`-comparable.
    Zipf {
        /// Zipf exponent × 1000.
        exponent_milli: u32,
    },
}

/// Workload shape for one load-generation burst.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadGenConfig {
    /// Concurrent persistent connections (one thread each).
    pub connections: usize,
    /// Requests issued sequentially on each connection.
    pub requests_per_connection: usize,
    /// Item-id universe: requests draw ids from `0..num_items`.
    pub num_items: u32,
    /// Item ids per `SCORE` request (at least 1).
    pub items_per_request: usize,
    /// Base seed; connection `c` uses stream `seed + c`.
    pub seed: u64,
    /// Connect/read timeout per request.
    pub timeout: Duration,
    /// Arrival discipline (closed loop by default).
    pub arrival: Arrival,
    /// Item-id distribution (uniform by default).
    pub key_dist: KeyDist,
}

impl Default for LoadGenConfig {
    fn default() -> Self {
        LoadGenConfig {
            connections: 4,
            requests_per_connection: 50,
            num_items: 1000,
            items_per_request: 5,
            seed: 0x0c77_bea6,
            timeout: Duration::from_secs(10),
            arrival: Arrival::Closed,
            key_dist: KeyDist::Uniform,
        }
    }
}

/// What one burst observed, client-side.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LoadGenOutcome {
    /// Per-request wall-clock latencies in seconds, grouped by connection
    /// in connection order (stable layout; values are the only
    /// non-deterministic part).
    pub latencies_s: Vec<f64>,
    /// Requests that got a successful `COVER` answer.
    pub ok: usize,
    /// Requests shed with a typed `OVERLOADED` response.
    pub shed: usize,
    /// Requests answered with a protocol `ERR`.
    pub errors: usize,
    /// Requests that failed at the transport level (reset, timeout).
    pub transport_errors: usize,
    /// Wall-clock seconds for the whole burst (all connections).
    pub elapsed_s: f64,
}

impl LoadGenOutcome {
    /// Total requests that received *any* answer.
    pub fn answered(&self) -> usize {
        self.ok + self.shed + self.errors
    }

    /// Completed requests per second over the whole burst.
    pub fn throughput_rps(&self) -> f64 {
        if self.elapsed_s <= 0.0 {
            return 0.0;
        }
        self.answered() as f64 / self.elapsed_s
    }

    /// Client-observed latency quantile in seconds (`0.0` when empty).
    pub fn latency_quantile_s(&self, q: f64) -> f64 {
        if self.latencies_s.is_empty() {
            return 0.0;
        }
        let mut sorted = self.latencies_s.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let rank = ((q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize).max(1);
        sorted[rank.min(sorted.len()) - 1]
    }
}

/// splitmix64 — tiny, seedable, dependency-free PRNG. Good enough to spread
/// request item-sets over the id universe deterministically.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Precomputed key-sampling state for one burst (`O(num_items)` to build,
/// `O(log num_items)` per Zipf draw, `O(1)` uniform).
#[derive(Debug, Clone)]
pub struct KeyTable {
    universe: u32,
    /// Cumulative Zipf weights over `0..universe`; empty in uniform mode.
    cdf: Vec<f64>,
}

impl KeyTable {
    /// Builds the sampling table for `config`'s universe and distribution.
    pub fn new(config: &LoadGenConfig) -> Self {
        let universe = config.num_items.max(1);
        let cdf = match config.key_dist {
            KeyDist::Uniform => Vec::new(),
            KeyDist::Zipf { exponent_milli } => {
                let s = f64::from(exponent_milli) / 1000.0;
                let mut total = 0.0;
                (0..universe)
                    .map(|k| {
                        total += (f64::from(k) + 1.0).powf(-s);
                        total
                    })
                    .collect()
            }
        };
        Self { universe, cdf }
    }

    /// Draws one item id from the table using the caller's PRNG state.
    fn sample(&self, state: &mut u64) -> u32 {
        let raw = splitmix64(state);
        if self.cdf.is_empty() {
            return (raw % u64::from(self.universe)) as u32;
        }
        let total = *self.cdf.last().expect("non-empty cdf");
        // 53-bit mantissa draw in [0, 1), scaled to the cumulative mass.
        let u = (raw >> 11) as f64 / (1u64 << 53) as f64 * total;
        match self
            .cdf
            .binary_search_by(|w| w.partial_cmp(&u).unwrap_or(std::cmp::Ordering::Less))
        {
            Ok(idx) | Err(idx) => (idx as u32).min(self.universe - 1),
        }
    }
}

/// The deterministic item set for request `r` on connection `c`.
///
/// Public so tests (and the bench harness) can assert the workload is a
/// pure function of the config. Hot loops should build one [`KeyTable`]
/// and call [`request_items_with`]; this convenience wrapper rebuilds the
/// table per call.
pub fn request_items(config: &LoadGenConfig, connection: usize, request: usize) -> Vec<u32> {
    request_items_with(&KeyTable::new(config), config, connection, request)
}

/// [`request_items`] against a prebuilt [`KeyTable`] (bit-identical).
pub fn request_items_with(
    table: &KeyTable,
    config: &LoadGenConfig,
    connection: usize,
    request: usize,
) -> Vec<u32> {
    let mut state = config
        .seed
        .wrapping_add(connection as u64)
        .wrapping_mul(0x2545_f491_4f6c_dd1d)
        .wrapping_add(request as u64);
    (0..config.items_per_request.max(1))
        .map(|_| table.sample(&mut state))
        .collect()
}

/// The open-loop send schedule for connection `c`: cumulative offsets from
/// burst start, one per request, drawn from a seeded exponential
/// inter-arrival stream (Poisson process at the connection's share of the
/// aggregate rate). `None` in closed-loop mode. A pure function of the
/// config, like the rest of the workload.
pub fn arrival_schedule(config: &LoadGenConfig, connection: usize) -> Option<Vec<Duration>> {
    let Arrival::Open { rps } = config.arrival else {
        return None;
    };
    let lambda = f64::from(rps.max(1)) / config.connections.max(1) as f64;
    let mut state = config
        .seed
        .wrapping_mul(0xa076_1d64_78bd_642f)
        .wrapping_add(connection as u64);
    let mut t = 0.0f64;
    Some(
        (0..config.requests_per_connection)
            .map(|_| {
                let u = (splitmix64(&mut state) >> 11) as f64 / (1u64 << 53) as f64;
                // Inverse-CDF exponential; 1 - u is in (0, 1], so ln is finite.
                t += -(1.0 - u).ln() / lambda;
                Duration::from_secs_f64(t)
            })
            .collect(),
    )
}

/// Runs one burst against `addr` and reports client-side observations.
///
/// Each connection runs on its own thread with a persistent [`Client`],
/// issuing its requests back-to-back. Transport-level failures are counted,
/// not fatal — a shed or reset mid-burst is data, not an error. `Err` is
/// returned only when a connection cannot be established at all.
pub fn run(addr: SocketAddr, config: &LoadGenConfig) -> io::Result<LoadGenOutcome> {
    let started = Instant::now();
    let mut handles = Vec::with_capacity(config.connections.max(1));
    for connection in 0..config.connections.max(1) {
        let config = *config;
        handles.push(thread::spawn(move || {
            run_connection(addr, &config, connection)
        }));
    }
    let mut outcome = LoadGenOutcome::default();
    let mut connect_err = None;
    for handle in handles {
        match handle.join().expect("loadgen connection thread panicked") {
            Ok(conn) => {
                outcome.latencies_s.extend(conn.latencies_s);
                outcome.ok += conn.ok;
                outcome.shed += conn.shed;
                outcome.errors += conn.errors;
                outcome.transport_errors += conn.transport_errors;
            }
            Err(e) => connect_err = Some(e),
        }
    }
    if let Some(e) = connect_err {
        if outcome.answered() == 0 {
            return Err(e);
        }
    }
    outcome.elapsed_s = started.elapsed().as_secs_f64();
    Ok(outcome)
}

fn run_connection(
    addr: SocketAddr,
    config: &LoadGenConfig,
    connection: usize,
) -> io::Result<LoadGenOutcome> {
    let mut client = Client::connect(addr, config.timeout)?;
    let table = KeyTable::new(config);
    let schedule = arrival_schedule(config, connection);
    let burst_start = Instant::now();
    let mut outcome = LoadGenOutcome::default();
    for request in 0..config.requests_per_connection {
        let items = request_items_with(&table, config, connection, request);
        // Open loop: wait out the scheduled send time, then measure from
        // the *schedule*, not the actual send — time spent stuck behind a
        // slow previous answer is server-induced queueing delay and must
        // show up in the tail, not vanish (coordinated omission).
        let started = match &schedule {
            Some(offsets) => {
                let scheduled = burst_start + offsets[request];
                let now = Instant::now();
                if scheduled > now {
                    thread::sleep(scheduled - now);
                }
                scheduled
            }
            None => Instant::now(),
        };
        match client.request(&Request::Score { items, shard: None }) {
            Ok(resp) => {
                outcome.latencies_s.push(started.elapsed().as_secs_f64());
                match resp {
                    Response::Overloaded { .. } => outcome.shed += 1,
                    Response::Error { .. } => outcome.errors += 1,
                    _ => outcome.ok += 1,
                }
            }
            Err(_) => {
                outcome.transport_errors += 1;
                // The connection may be dead; try to re-establish so the
                // rest of the burst still runs. Give up on repeat failure.
                match Client::connect(addr, config.timeout) {
                    Ok(fresh) => client = fresh,
                    Err(_) => break,
                }
            }
        }
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_is_deterministic_in_config() {
        let config = LoadGenConfig::default();
        let a = request_items(&config, 2, 7);
        let b = request_items(&config, 2, 7);
        assert_eq!(a, b, "same (config, connection, request) → same items");
        assert_eq!(a.len(), config.items_per_request);
        assert!(a.iter().all(|&id| id < config.num_items));
        // Different coordinates give different sets (statistically certain
        // for this seed — pinned here so a regression is loud).
        assert_ne!(request_items(&config, 3, 7), a);
        assert_ne!(request_items(&config, 2, 8), a);
    }

    #[test]
    fn workload_handles_degenerate_universe() {
        let config = LoadGenConfig {
            num_items: 0,
            items_per_request: 0,
            ..LoadGenConfig::default()
        };
        let items = request_items(&config, 0, 0);
        assert_eq!(items, vec![0], "clamped to 1 item from a 1-id universe");
    }

    #[test]
    fn uniform_workload_matches_the_legacy_stream() {
        // The uniform path must stay bit-identical to the original
        // modulo-draw implementation so load recorded before the skewed
        // workloads existed stays comparable.
        let config = LoadGenConfig::default();
        let mut state = config
            .seed
            .wrapping_add(2u64)
            .wrapping_mul(0x2545_f491_4f6c_dd1d)
            .wrapping_add(7u64);
        let expected: Vec<u32> = (0..config.items_per_request)
            .map(|_| (splitmix64(&mut state) % u64::from(config.num_items)) as u32)
            .collect();
        assert_eq!(request_items(&config, 2, 7), expected);
    }

    #[test]
    fn zipf_skews_towards_low_ids() {
        let config = LoadGenConfig {
            key_dist: KeyDist::Zipf {
                exponent_milli: 1200,
            },
            num_items: 1000,
            items_per_request: 4,
            ..LoadGenConfig::default()
        };
        let table = KeyTable::new(&config);
        let mut counts = vec![0u32; config.num_items as usize];
        for request in 0..2000 {
            for id in request_items_with(&table, &config, 0, request) {
                assert!(id < config.num_items);
                counts[id as usize] += 1;
            }
        }
        let head: u32 = counts[..10].iter().sum();
        let tail: u32 = counts[990..].iter().sum();
        assert!(
            head > 20 * tail.max(1),
            "zipf head must dominate: head={head} tail={tail}"
        );
        // Still deterministic, and identical via the convenience wrapper.
        assert_eq!(
            request_items_with(&table, &config, 3, 9),
            request_items(&config, 3, 9)
        );
    }

    #[test]
    fn open_loop_schedule_is_deterministic_and_monotone() {
        let config = LoadGenConfig {
            arrival: Arrival::Open { rps: 200 },
            requests_per_connection: 64,
            ..LoadGenConfig::default()
        };
        let a = arrival_schedule(&config, 1).expect("open mode has a schedule");
        let b = arrival_schedule(&config, 1).expect("open mode has a schedule");
        assert_eq!(a, b, "schedule is a pure function of the config");
        assert_eq!(a.len(), config.requests_per_connection);
        assert!(a.windows(2).all(|w| w[0] < w[1]), "strictly increasing");
        assert_ne!(
            arrival_schedule(&config, 2).expect("schedule"),
            a,
            "connections get decorrelated streams"
        );
        // Mean inter-arrival ≈ connections/rps = 20ms; allow wide slack.
        let mean = a.last().expect("nonempty").as_secs_f64() / a.len() as f64;
        assert!((0.005..0.08).contains(&mean), "mean inter-arrival {mean}");
    }

    #[test]
    fn closed_loop_has_no_schedule() {
        assert_eq!(arrival_schedule(&LoadGenConfig::default(), 0), None);
        assert_eq!(LoadGenConfig::default().arrival, Arrival::Closed);
        assert_eq!(LoadGenConfig::default().key_dist, KeyDist::Uniform);
    }

    #[test]
    fn outcome_quantiles_and_throughput() {
        let outcome = LoadGenOutcome {
            latencies_s: vec![0.004, 0.001, 0.002, 0.003],
            ok: 4,
            elapsed_s: 2.0,
            ..LoadGenOutcome::default()
        };
        assert_eq!(outcome.answered(), 4);
        assert_eq!(outcome.throughput_rps(), 2.0);
        assert_eq!(outcome.latency_quantile_s(0.5), 0.002);
        assert_eq!(outcome.latency_quantile_s(1.0), 0.004);
        let empty = LoadGenOutcome::default();
        assert_eq!(empty.latency_quantile_s(0.5), 0.0);
        assert_eq!(empty.throughput_rps(), 0.0);
    }
}
