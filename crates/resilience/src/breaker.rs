//! A circuit breaker: fail fast while a dependency is misbehaving.
//!
//! The classic three-state machine:
//!
//! ```text
//!            failures >= threshold
//!   Closed ──────────────────────────▶ Open
//!     ▲                                 │ cooldown elapses
//!     │ probe succeeds                  ▼
//!     └────────────────────────────  HalfOpen ──▶ Open (probe fails)
//! ```
//!
//! - **Closed** — requests flow; consecutive failures are counted and any
//!   success resets the count.
//! - **Open** — requests are rejected immediately ([`CircuitBreaker::try_acquire`]
//!   returns `false`) so a struggling dependency gets breathing room
//!   instead of a retry storm.
//! - **HalfOpen** — after [`BreakerConfig::cooldown`], one probe request is
//!   let through; its outcome closes the breaker or re-opens it for another
//!   cooldown.
//!
//! The breaker is thread-safe and cheap: one small mutex-protected record,
//! no allocation, no background timer (the Open→HalfOpen transition happens
//! lazily inside `try_acquire`). Tests drive it deterministically with a
//! zero cooldown.

use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Tuning knobs for a [`CircuitBreaker`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive failures that trip the breaker open.
    pub failure_threshold: u32,
    /// How long the breaker stays open before letting a probe through.
    pub cooldown: Duration,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        Self {
            failure_threshold: 5,
            cooldown: Duration::from_secs(1),
        }
    }
}

/// The breaker's observable state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Requests flow normally.
    Closed,
    /// Requests are rejected until the cooldown elapses.
    Open,
    /// One probe is in flight; its outcome decides the next state.
    HalfOpen,
}

impl BreakerState {
    /// Stable lowercase name, for metrics and log lines.
    pub fn name(self) -> &'static str {
        match self {
            Self::Closed => "closed",
            Self::Open => "open",
            Self::HalfOpen => "half-open",
        }
    }
}

#[derive(Debug)]
struct Inner {
    state: BreakerState,
    consecutive_failures: u32,
    opened_at: Option<Instant>,
    /// Cumulative number of Closed/HalfOpen → Open transitions.
    trips: u64,
}

/// A thread-safe circuit breaker (see the module docs for the state
/// machine). Wrap it in an `Arc` to share across workers.
#[derive(Debug)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    inner: Mutex<Inner>,
}

impl CircuitBreaker {
    /// A closed breaker with the given thresholds.
    pub fn new(config: BreakerConfig) -> Self {
        Self {
            config,
            inner: Mutex::new(Inner {
                state: BreakerState::Closed,
                consecutive_failures: 0,
                opened_at: None,
                trips: 0,
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The current state (Open→HalfOpen transitions happen in
    /// [`try_acquire`](Self::try_acquire), so an elapsed cooldown still
    /// reads as `Open` here until someone asks to pass).
    pub fn state(&self) -> BreakerState {
        self.lock().state
    }

    /// Cumulative number of times the breaker has tripped open.
    pub fn trips(&self) -> u64 {
        self.lock().trips
    }

    /// May a request proceed right now?
    ///
    /// `Closed`: always. `Open`: only once the cooldown has elapsed, which
    /// moves the breaker to `HalfOpen` and admits exactly one probe;
    /// further calls are rejected until the probe reports via
    /// [`record_success`](Self::record_success) /
    /// [`record_failure`](Self::record_failure).
    pub fn try_acquire(&self) -> bool {
        let mut inner = self.lock();
        match inner.state {
            BreakerState::Closed => true,
            BreakerState::HalfOpen => false, // probe already in flight
            BreakerState::Open => {
                let elapsed = inner
                    .opened_at
                    .map(|at| at.elapsed() >= self.config.cooldown)
                    .unwrap_or(true);
                if elapsed {
                    inner.state = BreakerState::HalfOpen;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Reports a successful request: closes a half-open breaker, resets the
    /// failure count.
    pub fn record_success(&self) {
        let mut inner = self.lock();
        inner.consecutive_failures = 0;
        if inner.state != BreakerState::Closed {
            inner.state = BreakerState::Closed;
            inner.opened_at = None;
        }
    }

    /// Reports a failed request: re-opens a half-open breaker immediately;
    /// in the closed state, trips once the consecutive-failure count
    /// reaches the threshold.
    pub fn record_failure(&self) {
        let mut inner = self.lock();
        match inner.state {
            BreakerState::HalfOpen => {
                inner.state = BreakerState::Open;
                inner.opened_at = Some(Instant::now());
                inner.trips += 1;
            }
            BreakerState::Closed => {
                inner.consecutive_failures += 1;
                if inner.consecutive_failures >= self.config.failure_threshold.max(1) {
                    inner.state = BreakerState::Open;
                    inner.opened_at = Some(Instant::now());
                    inner.trips += 1;
                }
            }
            BreakerState::Open => {} // shed requests don't count
        }
    }
}

impl Default for CircuitBreaker {
    fn default() -> Self {
        Self::new(BreakerConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn instant_cooldown(threshold: u32) -> CircuitBreaker {
        CircuitBreaker::new(BreakerConfig {
            failure_threshold: threshold,
            cooldown: Duration::ZERO,
        })
    }

    #[test]
    fn trips_after_consecutive_failures() {
        let b = instant_cooldown(3);
        assert_eq!(b.state(), BreakerState::Closed);
        b.record_failure();
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Closed, "below threshold");
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.trips(), 1);
    }

    #[test]
    fn success_resets_the_failure_count() {
        let b = instant_cooldown(2);
        b.record_failure();
        b.record_success();
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Closed, "count was reset");
    }

    #[test]
    fn open_breaker_half_opens_and_admits_one_probe() {
        let b = instant_cooldown(1);
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Open);
        // Zero cooldown: the next acquire is the probe.
        assert!(b.try_acquire(), "probe admitted");
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(!b.try_acquire(), "only one probe at a time");
        b.record_success();
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.try_acquire());
    }

    #[test]
    fn failed_probe_reopens() {
        let b = instant_cooldown(1);
        b.record_failure();
        assert!(b.try_acquire(), "probe admitted");
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.trips(), 2);
    }

    #[test]
    fn cooldown_blocks_until_elapsed() {
        let b = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 1,
            cooldown: Duration::from_secs(3600),
        });
        b.record_failure();
        assert!(!b.try_acquire(), "cooldown far from elapsed");
        assert_eq!(b.state(), BreakerState::Open, "still open, no probe");
    }

    #[test]
    fn zero_threshold_trips_on_first_failure() {
        let b = instant_cooldown(0);
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Open, "threshold clamped to 1");
    }

    #[test]
    fn concurrent_half_open_probes_admit_exactly_one() {
        use std::sync::atomic::{AtomicU32, Ordering};
        use std::sync::{Arc, Barrier};
        // A tripped breaker with an elapsed (zero) cooldown: many threads
        // race try_acquire simultaneously; exactly one wins the half-open
        // probe slot and every loser fails fast without blocking.
        for _round in 0..8 {
            let b = Arc::new(instant_cooldown(1));
            b.record_failure();
            assert_eq!(b.state(), BreakerState::Open);
            let threads = 8;
            let barrier = Arc::new(Barrier::new(threads));
            let admitted = Arc::new(AtomicU32::new(0));
            std::thread::scope(|s| {
                for _ in 0..threads {
                    let b = Arc::clone(&b);
                    let barrier = Arc::clone(&barrier);
                    let admitted = Arc::clone(&admitted);
                    s.spawn(move || {
                        barrier.wait();
                        if b.try_acquire() {
                            admitted.fetch_add(1, Ordering::SeqCst);
                        }
                    });
                }
            });
            assert_eq!(admitted.load(Ordering::SeqCst), 1, "one probe only");
            assert_eq!(b.state(), BreakerState::HalfOpen);
            // The probe's verdict still works after the race.
            b.record_success();
            assert_eq!(b.state(), BreakerState::Closed);
        }
    }
}
