//! The hedge deadline: how long the router waits on one replica before it
//! sends the same sub-request to the next one.
//!
//! The classic tail-latency trick (Dean & Barroso, "The Tail at Scale"):
//! rather than waiting out a straggler, fail over once an attempt has been
//! in flight longer than a tracked latency quantile. [`HedgeTrigger`] is a
//! lock-free power-of-two-bucket histogram of one replica's completed
//! attempts. Its [`delay`](HedgeTrigger::delay) is the p90
//! ([`QUANTILE`]) clamped into `[MIN_DELAY, MAX_DELAY]`; until it has seen
//! [`MIN_SAMPLES`] completions it answers [`MAX_DELAY`], so cold starts
//! never hedge on noise.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Latency quantile of completed attempts at which the hedge fires: `0.9`
/// hedges the slowest ~10% of attempts.
pub const QUANTILE: f64 = 0.9;
/// Lower clamp on the hedge delay, so a very fast backend does not cause
/// every request to hedge within measurement noise.
pub const MIN_DELAY: Duration = Duration::from_millis(1);
/// Upper clamp on the hedge delay, and the delay used before
/// [`MIN_SAMPLES`] completions have been observed.
pub const MAX_DELAY: Duration = Duration::from_millis(100);
/// Completed attempts required before the tracked quantile is trusted.
pub const MIN_SAMPLES: u64 = 32;

/// Histogram bucket upper bounds in microseconds: powers of two from 1µs to
/// ~1s, plus an overflow bucket. Mirrors the bounds used by `oct-obs` so
/// hedge-delay estimates and reported latency histograms line up.
const BOUNDS_US: [u64; 21] = [
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768, 65536, 131_072,
    262_144, 524_288, 1_048_576,
];

/// Lock-free latency-quantile tracker that turns completed-attempt
/// latencies into a hedge delay.
///
/// Observations land in power-of-two microsecond buckets with relaxed
/// atomics; [`delay`](Self::delay) walks the buckets to [`QUANTILE`] and
/// clamps the bucket's upper bound into `[MIN_DELAY, MAX_DELAY]`.
/// Concurrent observers may race a reader by a few counts — fine for a
/// trigger heuristic, and the router's answers never depend on *when* a
/// hedge fires (every replica gives the same bytes).
#[derive(Debug)]
pub struct HedgeTrigger {
    buckets: [AtomicU64; BOUNDS_US.len() + 1],
    count: AtomicU64,
}

impl Default for HedgeTrigger {
    fn default() -> Self {
        Self::new()
    }
}

impl HedgeTrigger {
    /// A tracker with no observations yet.
    pub fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
        }
    }

    /// Records one completed attempt's latency.
    pub fn observe(&self, latency: Duration) {
        let us = latency.as_micros().min(u128::from(u64::MAX)) as u64;
        let idx = BOUNDS_US
            .iter()
            .position(|&b| us <= b)
            .unwrap_or(BOUNDS_US.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Completed attempts observed so far.
    pub fn samples(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// The tracked quantile as a duration, or `None` until [`MIN_SAMPLES`]
    /// observations have been recorded.
    pub fn quantile_estimate(&self) -> Option<Duration> {
        let total: u64 = self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum();
        if total < MIN_SAMPLES {
            return None;
        }
        // Ceil-rank: the smallest bucket whose cumulative count reaches
        // ceil(q * total), matching the loadgen's quantile convention.
        let rank = ((QUANTILE * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (idx, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= rank {
                let us = BOUNDS_US.get(idx).copied().unwrap_or(u64::MAX / 2);
                return Some(Duration::from_micros(us));
            }
        }
        None // unreachable: seen == total >= rank by the end
    }

    /// How long an attempt may run before the router fails over: the
    /// tracked quantile clamped into `[MIN_DELAY, MAX_DELAY]`, or
    /// `MAX_DELAY` while the tracker is still warming up.
    pub fn delay(&self) -> Duration {
        match self.quantile_estimate() {
            Some(d) => d.clamp(MIN_DELAY, MAX_DELAY),
            None => MAX_DELAY,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn observe_n(t: &HedgeTrigger, n: u64, latency: Duration) {
        for _ in 0..n {
            t.observe(latency);
        }
    }

    #[test]
    fn cold_tracker_answers_max_delay() {
        let t = HedgeTrigger::new();
        assert_eq!(t.quantile_estimate(), None);
        assert_eq!(t.delay(), MAX_DELAY);
        observe_n(&t, MIN_SAMPLES - 1, Duration::from_micros(10));
        assert_eq!(t.delay(), MAX_DELAY, "below MIN_SAMPLES");
        t.observe(Duration::from_micros(10));
        assert_eq!(t.delay(), MIN_DELAY, "warm: 10µs clamps up to the floor");
    }

    #[test]
    fn quantile_walks_buckets() {
        let t = HedgeTrigger::new();
        // 36 fast observations, 4 slow: p90 (rank 36 of 40) lands on the
        // fast bucket.
        observe_n(&t, 36, Duration::from_micros(100));
        observe_n(&t, 4, Duration::from_millis(50));
        assert_eq!(t.samples(), 40);
        // 100µs rounds up to the 128µs bucket bound.
        assert_eq!(t.quantile_estimate(), Some(Duration::from_micros(128)));
        // One more slow observation pushes rank 37 into the slow bucket.
        t.observe(Duration::from_millis(50));
        assert_eq!(t.quantile_estimate(), Some(Duration::from_micros(65536)));
    }

    #[test]
    fn delay_clamps_to_bounds() {
        let t = HedgeTrigger::new();
        observe_n(&t, MIN_SAMPLES, Duration::from_micros(1)); // below floor
        assert_eq!(t.delay(), MIN_DELAY);
        observe_n(&t, 1000, Duration::from_secs(2)); // overflow, above cap
        assert_eq!(t.delay(), MAX_DELAY);
    }

    #[test]
    fn overflow_bucket_is_counted() {
        let t = HedgeTrigger::new();
        observe_n(&t, MIN_SAMPLES, Duration::from_secs(10));
        assert!(t.quantile_estimate().expect("has estimate") > Duration::from_secs(1));
    }
}
