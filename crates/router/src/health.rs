//! Replica health: the one per-replica state machine, driven by request
//! outcomes and active probes, that decides which replicas take traffic.
//!
//! ```text
//!          failures >= suspect_after        failures >= down_after
//!   Up ─────────────────────────────▶ Suspect ─────────────────────▶ Down
//!    ▲                                  │ success                      │
//!    │ success                          ▼                              │ probe_cooldown
//!    ├──────────────────────────────── Up                              ▼
//!    │        admitted attempt succeeds                             Probing
//!    └──────────────────────────────────────────────────────────────── │
//!                              Down ◀── admitted attempt fails ─────────┘
//! ```
//!
//! - **Up** — the replica serves traffic; occasional failures are counted.
//! - **Suspect** — consecutive failures reached
//!   [`HealthConfig::suspect_after`]; the replica still serves traffic but
//!   routers deprioritize it behind healthy peers.
//! - **Down** — failures reached [`HealthConfig::down_after`]; no traffic.
//!   After [`HealthConfig::probe_cooldown`] exactly one attempt is
//!   admitted (lazily, inside [`HealthMachine::try_admit`]), whether the
//!   probe loop or a request asks first. Down is sticky against stray
//!   successes: the *only* exit is through Probing, so one late answer
//!   from an isolated replica cannot flip it straight back into the
//!   rotation.
//! - **Probing** — the one admitted attempt is in flight; success returns
//!   the replica to Up, failure sends it back to Down for another
//!   cooldown, and an attempt abandoned without a verdict hands the slot
//!   back ([`HealthMachine::release`]).
//!
//! The router feeds every failure into this machine: transport errors,
//! timeouts, and rejections (`OVERLOADED`, `ERR` other than
//! `bad-request`) alike.
//!
//! The machine also remembers the replica's last observed serving-tree
//! epoch (from `PING`/`STATS` responses), so a router can detect replicas
//! that missed a `SWAP` and steer deterministic traffic to the newest-epoch
//! fleet.

use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Tuning knobs for a [`HealthMachine`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthConfig {
    /// Consecutive failures that demote Up → Suspect.
    pub suspect_after: u32,
    /// Consecutive failures that demote Suspect → Down.
    pub down_after: u32,
    /// How long a Down replica rests before one probe is admitted.
    pub probe_cooldown: Duration,
}

impl Default for HealthConfig {
    fn default() -> Self {
        Self {
            suspect_after: 1,
            down_after: 3,
            probe_cooldown: Duration::from_millis(500),
        }
    }
}

/// The replica's observable health state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthState {
    /// Serving traffic normally.
    Up,
    /// Still serving, but failing; deprioritized behind Up peers.
    Suspect,
    /// Not serving; waiting out the probe cooldown.
    Down,
    /// One recovery probe in flight.
    Probing,
}

impl HealthState {
    /// Stable lowercase name, for metrics and log lines.
    pub fn name(self) -> &'static str {
        match self {
            Self::Up => "up",
            Self::Suspect => "suspect",
            Self::Down => "down",
            Self::Probing => "probing",
        }
    }
}

#[derive(Debug)]
struct Inner {
    state: HealthState,
    consecutive_failures: u32,
    down_since: Option<Instant>,
    /// Cumulative number of transitions into Down.
    downs: u64,
    /// Last serving-tree epoch observed in a successful response.
    epoch: u64,
}

/// Thread-safe per-replica health record (see the module docs for the
/// state machine). Wrap in an `Arc` to share between the probe loop and
/// request workers.
#[derive(Debug)]
pub struct HealthMachine {
    config: HealthConfig,
    inner: Mutex<Inner>,
}

impl HealthMachine {
    /// A replica that starts out Up with no observed epoch.
    pub fn new(config: HealthConfig) -> Self {
        Self {
            config,
            inner: Mutex::new(Inner {
                state: HealthState::Up,
                consecutive_failures: 0,
                down_since: None,
                downs: 0,
                epoch: 0,
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The current state. Down→Probing happens lazily in
    /// [`try_admit`](Self::try_admit), so an elapsed cooldown still reads
    /// as `Down` here until someone asks.
    pub fn state(&self) -> HealthState {
        self.lock().state
    }

    /// May this replica receive request traffic right now? (Up or Suspect.)
    pub fn is_available(&self) -> bool {
        matches!(self.lock().state, HealthState::Up | HealthState::Suspect)
    }

    /// Is the replica fully healthy (Up, not merely Suspect)?
    pub fn is_up(&self) -> bool {
        self.lock().state == HealthState::Up
    }

    /// Cumulative number of transitions into Down.
    pub fn downs(&self) -> u64 {
        self.lock().downs
    }

    /// The last serving-tree epoch observed in a successful response.
    pub fn epoch(&self) -> u64 {
        self.lock().epoch
    }

    /// Reports a successful probe or request observed at serving-tree
    /// `epoch`: Up stays Up, Suspect and Probing recover to Up, and the
    /// failure count resets.
    ///
    /// Down only records the epoch and stays Down: a reordered late answer
    /// must not bypass admission. Recovery from Down always flows
    /// Down → Probing → Up — under probe flapping this is what keeps the
    /// machine from oscillating Up↔Down without ever passing Suspect or
    /// Probing.
    pub fn on_success(&self, epoch: u64) {
        let mut inner = self.lock();
        inner.epoch = epoch.max(inner.epoch);
        if inner.state == HealthState::Down {
            return;
        }
        inner.consecutive_failures = 0;
        inner.state = HealthState::Up;
        inner.down_since = None;
    }

    /// Reports a failed probe or request, advancing Up → Suspect → Down
    /// (and Probing → Down for a failed recovery probe).
    pub fn on_failure(&self) {
        let mut inner = self.lock();
        match inner.state {
            HealthState::Up | HealthState::Suspect => {
                inner.consecutive_failures += 1;
                let f = inner.consecutive_failures;
                if f >= self.config.down_after.max(1) {
                    inner.state = HealthState::Down;
                    inner.down_since = Some(Instant::now());
                    inner.downs += 1;
                } else if f >= self.config.suspect_after.max(1) {
                    inner.state = HealthState::Suspect;
                }
            }
            HealthState::Probing => {
                inner.state = HealthState::Down;
                inner.down_since = Some(Instant::now());
                inner.downs += 1;
            }
            HealthState::Down => {} // already isolated; nothing new to learn
        }
    }

    /// May one attempt (a request or a health probe) go to this replica
    /// right now?
    ///
    /// Up/Suspect: always. Down: only once the cooldown has elapsed, which
    /// moves the replica to Probing and admits exactly one attempt; others
    /// are rejected until it reports via [`on_success`](Self::on_success)
    /// / [`on_failure`](Self::on_failure) / [`release`](Self::release).
    /// Probing: rejected (the admitted attempt is in flight).
    pub fn try_admit(&self) -> bool {
        let mut inner = self.lock();
        match inner.state {
            HealthState::Up | HealthState::Suspect => true,
            HealthState::Probing => false,
            HealthState::Down => {
                let rested = inner
                    .down_since
                    .map(|at| at.elapsed() >= self.config.probe_cooldown)
                    .unwrap_or(true);
                if rested {
                    inner.state = HealthState::Probing;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Reports an attempt that ended without a verdict (the router gave up
    /// on it at a hedge or request deadline): a Probing replica returns to
    /// Down with its cooldown already served, so the next
    /// [`try_admit`](Self::try_admit) takes the slot. Other states are
    /// untouched.
    pub fn release(&self) {
        let mut inner = self.lock();
        if inner.state == HealthState::Probing {
            inner.state = HealthState::Down;
        }
    }
}

impl Default for HealthMachine {
    fn default() -> Self {
        Self::new(HealthConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn instant_probe(suspect_after: u32, down_after: u32) -> HealthMachine {
        HealthMachine::new(HealthConfig {
            suspect_after,
            down_after,
            probe_cooldown: Duration::ZERO,
        })
    }

    #[test]
    fn walks_up_suspect_down() {
        let h = instant_probe(1, 3);
        assert_eq!(h.state(), HealthState::Up);
        assert!(h.is_available());
        h.on_failure();
        assert_eq!(h.state(), HealthState::Suspect);
        assert!(h.is_available(), "suspect still serves");
        assert!(!h.is_up());
        h.on_failure();
        assert_eq!(h.state(), HealthState::Suspect);
        h.on_failure();
        assert_eq!(h.state(), HealthState::Down);
        assert!(!h.is_available());
        assert_eq!(h.downs(), 1);
    }

    #[test]
    fn success_recovers_suspect_but_not_down() {
        let h = instant_probe(1, 2);
        h.on_failure();
        assert_eq!(h.state(), HealthState::Suspect);
        h.on_success(3);
        assert_eq!(h.state(), HealthState::Up);
        assert_eq!(h.epoch(), 3);
        h.on_failure();
        h.on_failure();
        assert_eq!(h.state(), HealthState::Down);
        // A stray success while Down (late answer, lucky last-resort
        // call) records the epoch but does NOT jump the replica to Up.
        h.on_success(4);
        assert_eq!(h.state(), HealthState::Down);
        assert_eq!(h.epoch(), 4);
        // The only way back is through Probing.
        assert!(h.try_admit());
        assert_eq!(h.state(), HealthState::Probing);
        h.on_success(5);
        assert_eq!(h.state(), HealthState::Up);
        assert_eq!(h.epoch(), 5);
    }

    #[test]
    fn alternating_outcomes_oscillate_through_suspect_only() {
        // Request flapping (fail, succeed, fail, …) must bounce between
        // Up and Suspect — it can never reach Down (down_after > 1) and
        // therefore never skips states in either direction.
        let h = instant_probe(1, 3);
        for _ in 0..16 {
            h.on_failure();
            assert_eq!(h.state(), HealthState::Suspect);
            h.on_success(1);
            assert_eq!(h.state(), HealthState::Up);
        }
        assert_eq!(h.downs(), 0, "flapping alone must not isolate");
    }

    #[test]
    fn probe_flapping_cycles_down_probing_without_touching_up() {
        let h = instant_probe(1, 1);
        h.on_failure();
        assert_eq!(h.state(), HealthState::Down);
        for round in 1..=5u64 {
            assert!(h.try_admit(), "cooldown (zero) elapsed");
            assert_eq!(h.state(), HealthState::Probing);
            h.on_failure();
            assert_eq!(h.state(), HealthState::Down);
            assert_eq!(h.downs(), 1 + round);
        }
        // One probe finally lands: recovery passes through Probing.
        assert!(h.try_admit());
        assert_eq!(h.state(), HealthState::Probing);
        h.on_success(2);
        assert_eq!(h.state(), HealthState::Up);
    }

    #[test]
    fn down_admits_one_probe_after_cooldown() {
        let h = instant_probe(1, 1);
        h.on_failure();
        assert_eq!(h.state(), HealthState::Down);
        assert!(h.try_admit(), "cooldown (zero) elapsed: probe admitted");
        assert_eq!(h.state(), HealthState::Probing);
        assert!(!h.try_admit(), "one probe at a time");
        assert!(!h.is_available(), "probing replica takes no traffic");
        h.on_success(1);
        assert_eq!(h.state(), HealthState::Up);
        assert!(h.try_admit(), "up replicas probe freely");
    }

    #[test]
    fn failed_probe_goes_back_down() {
        let h = instant_probe(1, 1);
        h.on_failure();
        assert!(h.try_admit());
        h.on_failure();
        assert_eq!(h.state(), HealthState::Down);
        assert_eq!(h.downs(), 2);
    }

    #[test]
    fn cooldown_blocks_probes_until_elapsed() {
        let h = HealthMachine::new(HealthConfig {
            suspect_after: 1,
            down_after: 1,
            probe_cooldown: Duration::from_secs(3600),
        });
        h.on_failure();
        assert!(!h.try_admit(), "cooldown far from elapsed");
        assert_eq!(h.state(), HealthState::Down, "still down, no probe");
    }

    #[test]
    fn epoch_is_monotonic() {
        let h = HealthMachine::default();
        h.on_success(5);
        h.on_success(3); // stale response (e.g. reordered probe) ignored
        assert_eq!(h.epoch(), 5);
        h.on_success(6);
        assert_eq!(h.epoch(), 6);
    }

    #[test]
    fn failures_while_down_are_inert() {
        let h = instant_probe(1, 1);
        h.on_failure();
        assert_eq!(h.downs(), 1);
        h.on_failure();
        h.on_failure();
        assert_eq!(h.downs(), 1, "down failures don't re-count");
        assert_eq!(h.state(), HealthState::Down);
    }

    #[test]
    fn state_names_are_stable() {
        assert_eq!(HealthState::Up.name(), "up");
        assert_eq!(HealthState::Suspect.name(), "suspect");
        assert_eq!(HealthState::Down.name(), "down");
        assert_eq!(HealthState::Probing.name(), "probing");
    }

    #[test]
    fn concurrent_probers_admit_exactly_one() {
        use std::sync::atomic::{AtomicU32, Ordering};
        use std::sync::Arc;
        let h = Arc::new(instant_probe(1, 1));
        h.on_failure();
        let admitted = Arc::new(AtomicU32::new(0));
        let askers: Vec<_> = (0..8)
            .map(|_| {
                let h = Arc::clone(&h);
                let admitted = Arc::clone(&admitted);
                std::thread::spawn(move || {
                    if h.try_admit() {
                        admitted.fetch_add(1, Ordering::SeqCst);
                    }
                })
            })
            .collect();
        for asker in askers {
            asker.join().expect("asker thread");
        }
        assert_eq!(admitted.load(Ordering::SeqCst), 1, "exactly one prober");
        assert_eq!(h.state(), HealthState::Probing);
    }

    #[test]
    fn released_admission_goes_to_the_next_asker() {
        let h = HealthMachine::new(HealthConfig {
            suspect_after: 1,
            down_after: 1,
            probe_cooldown: Duration::from_millis(20),
        });
        h.on_failure();
        h.release(); // Down, not Probing: nothing to hand back
        assert_eq!(h.state(), HealthState::Down);
        assert!(!h.try_admit(), "cooldown still running");
        std::thread::sleep(Duration::from_millis(25));
        assert!(h.try_admit());
        assert!(!h.try_admit(), "one admitted attempt at a time");
        h.release();
        assert_eq!(h.state(), HealthState::Down);
        assert_eq!(h.downs(), 1, "an abandoned attempt is not a failure");
        assert!(h.try_admit(), "the served cooldown is not restarted");
        h.on_success(1);
        assert_eq!(h.state(), HealthState::Up);
        h.release();
        assert_eq!(h.state(), HealthState::Up, "release only touches Probing");
    }
}
