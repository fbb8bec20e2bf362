//! Jittered-exponential-backoff retries for transient failures.
//!
//! A [`RetryPolicy`] describes how often and how patiently an operation is
//! reattempted: the shard router's failover sweeps, transient I/O. It is
//! not for deterministic compute — a worker panic contained by
//! [`run_isolated`](crate::run_isolated) would recur on every attempt.
//! Delays grow exponentially from
//! [`base_delay`](RetryPolicy::base_delay) up to
//! [`max_delay`](RetryPolicy::max_delay), each scaled by a *deterministic*
//! jitter factor derived from a caller-supplied seed — no clocks, no OS
//! randomness — so backoff schedules are reproducible in tests while still
//! decorrelating real concurrent retriers (every request uses its own seed).
//!
//! [`RetryPolicy::run`] is [`Budget`]-aware: a sleep is truncated to the
//! remaining budget and no new attempt starts once the budget has expired,
//! so retries can never outlive their request deadline.

use std::time::Duration;

use crate::Budget;

/// How an operation should be retried on transient failure.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (`1` = no retries; `0` is
    /// treated as `1`).
    pub max_attempts: u32,
    /// Delay before the first retry.
    pub base_delay: Duration,
    /// Upper bound on any single delay (pre-jitter).
    pub max_delay: Duration,
    /// Jitter amplitude in `[0, 1]`: each delay is scaled by a factor
    /// drawn deterministically from `[1 - jitter, 1 + jitter]`.
    pub jitter: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 3,
            base_delay: Duration::from_millis(5),
            max_delay: Duration::from_millis(500),
            jitter: 0.5,
        }
    }
}

/// Why [`RetryPolicy::run`] stopped retrying.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RetryOutcome<E> {
    /// Every attempt failed; the payload is the *last* error.
    Exhausted {
        /// The final attempt's error.
        error: E,
        /// How many attempts ran.
        attempts: u32,
    },
    /// The budget expired (or was cancelled) before the next attempt could
    /// start; the payload is the most recent error.
    BudgetExpired {
        /// The last attempt's error.
        error: E,
        /// How many attempts ran before expiry.
        attempts: u32,
    },
}

impl<E> RetryOutcome<E> {
    /// The underlying error, whichever way retrying stopped.
    pub fn into_error(self) -> E {
        match self {
            Self::Exhausted { error, .. } | Self::BudgetExpired { error, .. } => error,
        }
    }

    /// How many attempts ran.
    pub fn attempts(&self) -> u32 {
        match self {
            Self::Exhausted { attempts, .. } | Self::BudgetExpired { attempts, .. } => *attempts,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries (single attempt).
    pub fn none() -> Self {
        Self {
            max_attempts: 1,
            ..Self::default()
        }
    }

    /// The pre-sleep delay before retry number `retry` (1-based: `1` is the
    /// delay after the first failure), jittered deterministically by `seed`.
    ///
    /// The un-jittered schedule is `base_delay · 2^(retry-1)` capped at
    /// `max_delay`; the jitter factor is uniform-ish in
    /// `[1 - jitter, 1 + jitter]` via a splitmix64 hash of `(seed, retry)`,
    /// so two callers with different seeds spread out while the same seed
    /// always reproduces the same schedule.
    pub fn delay_for(&self, retry: u32, seed: u64) -> Duration {
        if retry == 0 {
            return Duration::ZERO;
        }
        let exp = (retry - 1).min(31);
        let raw = self
            .base_delay
            .saturating_mul(1u32 << exp)
            .min(self.max_delay);
        let jitter = self.jitter.clamp(0.0, 1.0);
        if jitter == 0.0 || raw.is_zero() {
            return raw;
        }
        let unit = splitmix64(seed ^ u64::from(retry)) as f64 / u64::MAX as f64;
        let factor = 1.0 + jitter * (2.0 * unit - 1.0);
        Duration::from_secs_f64(raw.as_secs_f64() * factor)
    }

    /// Runs `op` under this policy: on `Err`, sleeps the jittered backoff
    /// delay (truncated to the budget's remaining time) and reattempts, up
    /// to [`max_attempts`](Self::max_attempts) or budget expiry, whichever
    /// comes first. `op` receives the 1-based attempt number.
    ///
    /// # Errors
    /// [`RetryOutcome::Exhausted`] when every attempt failed;
    /// [`RetryOutcome::BudgetExpired`] when the budget ran out first.
    pub fn run<T, E>(
        &self,
        seed: u64,
        budget: &Budget,
        mut op: impl FnMut(u32) -> Result<T, E>,
    ) -> Result<T, RetryOutcome<E>> {
        let max_attempts = self.max_attempts.max(1);
        let mut attempt = 0;
        loop {
            attempt += 1;
            match op(attempt) {
                Ok(value) => return Ok(value),
                Err(error) if attempt >= max_attempts => {
                    return Err(RetryOutcome::Exhausted {
                        error,
                        attempts: attempt,
                    })
                }
                Err(error) => {
                    if budget.expired() {
                        return Err(RetryOutcome::BudgetExpired {
                            error,
                            attempts: attempt,
                        });
                    }
                    let mut delay = self.delay_for(attempt, seed);
                    if let Some(remaining) = budget.remaining() {
                        delay = delay.min(remaining);
                    }
                    if !delay.is_zero() {
                        std::thread::sleep(delay);
                    }
                    if budget.expired() {
                        return Err(RetryOutcome::BudgetExpired {
                            error,
                            attempts: attempt,
                        });
                    }
                }
            }
        }
    }
}

/// splitmix64: a tiny, well-mixed 64-bit hash (public-domain constants).
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_attempt_success_needs_no_retry() {
        let policy = RetryPolicy::default();
        let mut calls = 0;
        let out: Result<u32, RetryOutcome<&str>> = policy.run(7, &Budget::unlimited(), |attempt| {
            calls += 1;
            assert_eq!(attempt, 1);
            Ok(42)
        });
        assert_eq!(out, Ok(42));
        assert_eq!(calls, 1);
    }

    #[test]
    fn retries_until_success() {
        let policy = RetryPolicy {
            base_delay: Duration::ZERO,
            ..RetryPolicy::default()
        };
        let out = policy.run(7, &Budget::unlimited(), |attempt| {
            if attempt < 3 {
                Err("transient")
            } else {
                Ok(attempt)
            }
        });
        assert_eq!(out, Ok(3));
    }

    #[test]
    fn exhaustion_reports_last_error_and_attempts() {
        let policy = RetryPolicy {
            max_attempts: 4,
            base_delay: Duration::ZERO,
            ..RetryPolicy::default()
        };
        let out: Result<(), _> = policy.run(1, &Budget::unlimited(), |attempt| {
            Err(format!("fail {attempt}"))
        });
        match out.expect_err("all attempts fail") {
            RetryOutcome::Exhausted { error, attempts } => {
                assert_eq!(error, "fail 4");
                assert_eq!(attempts, 4);
            }
            other => panic!("wrong outcome {other:?}"),
        }
    }

    #[test]
    fn zero_max_attempts_still_runs_once() {
        let policy = RetryPolicy {
            max_attempts: 0,
            ..RetryPolicy::default()
        };
        let mut calls = 0;
        let out: Result<(), _> = policy.run(1, &Budget::unlimited(), |_| {
            calls += 1;
            Err("nope")
        });
        assert_eq!(out.expect_err("fails").attempts(), 1);
        assert_eq!(calls, 1);
    }

    #[test]
    fn expired_budget_stops_retrying_immediately() {
        let policy = RetryPolicy {
            max_attempts: 10,
            base_delay: Duration::from_secs(3600), // would hang if slept
            ..RetryPolicy::default()
        };
        let mut calls = 0;
        let out: Result<(), _> = policy.run(1, &Budget::expired_now(), |_| {
            calls += 1;
            Err("transient")
        });
        match out.expect_err("budget already expired") {
            RetryOutcome::BudgetExpired { attempts, error } => {
                assert_eq!(attempts, 1);
                assert_eq!(error, "transient");
            }
            other => panic!("wrong outcome {other:?}"),
        }
        assert_eq!(calls, 1, "no second attempt after expiry");
    }

    #[test]
    fn sleep_is_truncated_to_the_remaining_budget() {
        let policy = RetryPolicy {
            max_attempts: 3,
            base_delay: Duration::from_secs(3600),
            jitter: 0.0,
            ..RetryPolicy::default()
        };
        let start = std::time::Instant::now();
        let budget = Budget::with_deadline_ms(50);
        let out: Result<(), _> = policy.run(1, &budget, |_| Err("transient"));
        assert!(matches!(
            out.expect_err("budget expires mid-backoff"),
            RetryOutcome::BudgetExpired { .. }
        ));
        assert!(
            start.elapsed() < Duration::from_secs(60),
            "sleep must not run the full hour"
        );
    }

    #[test]
    fn delays_grow_exponentially_and_cap() {
        let policy = RetryPolicy {
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(45),
            jitter: 0.0,
            ..RetryPolicy::default()
        };
        assert_eq!(policy.delay_for(0, 1), Duration::ZERO);
        assert_eq!(policy.delay_for(1, 1), Duration::from_millis(10));
        assert_eq!(policy.delay_for(2, 1), Duration::from_millis(20));
        assert_eq!(policy.delay_for(3, 1), Duration::from_millis(40));
        assert_eq!(policy.delay_for(4, 1), Duration::from_millis(45), "capped");
        // Huge retry numbers don't overflow the shift.
        assert_eq!(policy.delay_for(1000, 1), Duration::from_millis(45));
    }

    #[test]
    fn jitter_is_deterministic_per_seed_and_bounded() {
        let policy = RetryPolicy {
            base_delay: Duration::from_millis(100),
            max_delay: Duration::from_secs(1),
            jitter: 0.5,
            ..RetryPolicy::default()
        };
        for retry in 1..6 {
            let a = policy.delay_for(retry, 99);
            let b = policy.delay_for(retry, 99);
            assert_eq!(a, b, "same seed, same schedule");
            let raw = policy
                .base_delay
                .saturating_mul(1 << (retry - 1))
                .min(policy.max_delay)
                .as_secs_f64();
            let secs = a.as_secs_f64();
            assert!(secs >= raw * 0.5 - 1e-9 && secs <= raw * 1.5 + 1e-9);
        }
        // Different seeds decorrelate (at least one delay differs).
        assert!(
            (1..6).any(|r| policy.delay_for(r, 1) != policy.delay_for(r, 2)),
            "seeds must produce distinct schedules"
        );
    }
}
