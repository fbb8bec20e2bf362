//! Deterministic measurement primitives for benchmarks.
//!
//! Every timed `repro` experiment goes through [`measure`]: a fixed number
//! of discarded warmup runs followed by `reps` timed repetitions, summarised
//! as **median** + **MAD** (median absolute deviation). Medians are robust to
//! the one-off stalls (page faults, scheduler preemption) that make
//! single-shot `Instant::now()` timings unrepeatable, and the MAD gives a
//! scale-free noise estimate to report next to each median.

use std::time::Instant;

/// How a benchmark is repeated: warmup iterations (timed but discarded) and
/// measured repetitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MeasureSpec {
    /// Discarded leading iterations that populate caches, JIT branch
    /// predictors, and the allocator before measurement starts.
    pub warmup: usize,
    /// Number of timed repetitions. Clamped to at least 1.
    pub reps: usize,
}

impl MeasureSpec {
    /// A spec with the given repetition count and one warmup run.
    pub fn reps(reps: usize) -> Self {
        MeasureSpec { warmup: 1, reps }
    }

    /// Total number of times the closure will run.
    pub fn iterations(&self) -> usize {
        self.warmup + self.reps.max(1)
    }
}

impl Default for MeasureSpec {
    fn default() -> Self {
        MeasureSpec { warmup: 1, reps: 5 }
    }
}

/// Timed samples from one benchmark, in seconds.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Sample {
    /// Per-repetition wall-clock durations, in seconds, in execution order.
    pub samples: Vec<f64>,
}

impl Sample {
    /// Build a sample set from raw per-repetition durations in seconds.
    pub fn from_secs(samples: Vec<f64>) -> Self {
        Sample { samples }
    }

    /// Number of measured repetitions.
    pub fn reps(&self) -> usize {
        self.samples.len()
    }

    /// Median duration in seconds; `0.0` when empty.
    pub fn median_s(&self) -> f64 {
        median(&mut self.samples.clone())
    }

    /// Median absolute deviation from the median, in seconds; `0.0` when
    /// fewer than two samples were taken.
    pub fn mad_s(&self) -> f64 {
        if self.samples.len() < 2 {
            return 0.0;
        }
        let med = self.median_s();
        let mut deviations: Vec<f64> = self.samples.iter().map(|s| (s - med).abs()).collect();
        median(&mut deviations)
    }

    /// Fastest repetition in seconds; `0.0` when empty.
    pub fn min_s(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().copied().fold(f64::INFINITY, f64::min)
    }
}

/// Median of a mutable slice (sorted in place); `0.0` when empty.
fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Run `f` with warmup + repetitions per `spec`; return the timed [`Sample`]
/// and the value produced by the **last** repetition (so callers can assert
/// on results, e.g. bit-equality between serial and parallel runs).
pub fn measure<T>(spec: MeasureSpec, mut f: impl FnMut() -> T) -> (Sample, T) {
    for _ in 0..spec.warmup {
        let _ = f();
    }
    let reps = spec.reps.max(1);
    let mut samples = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let start = Instant::now();
        let out = f();
        samples.push(start.elapsed().as_secs_f64());
        last = Some(out);
    }
    (Sample { samples }, last.expect("reps >= 1"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(Sample::from_secs(vec![]).median_s(), 0.0);
        assert_eq!(Sample::from_secs(vec![3.0, 1.0, 2.0]).median_s(), 2.0);
        assert_eq!(Sample::from_secs(vec![4.0, 1.0, 2.0, 3.0]).median_s(), 2.5);
    }

    #[test]
    fn mad_is_robust_to_one_outlier() {
        // Median 2.0; deviations [1, 0, 0, 0, 98] → MAD 0.0 despite the 100.
        let s = Sample::from_secs(vec![1.0, 2.0, 2.0, 2.0, 100.0]);
        assert_eq!(s.median_s(), 2.0);
        assert_eq!(s.mad_s(), 0.0);
        // Spread-out samples give a non-zero MAD.
        let s = Sample::from_secs(vec![1.0, 2.0, 4.0]);
        assert_eq!(s.median_s(), 2.0);
        assert_eq!(s.mad_s(), 1.0);
        // Single sample: no deviation estimate.
        assert_eq!(Sample::from_secs(vec![5.0]).mad_s(), 0.0);
    }

    #[test]
    fn min_is_fastest_rep() {
        assert_eq!(Sample::from_secs(vec![3.0, 1.5, 2.0]).min_s(), 1.5);
        assert_eq!(Sample::from_secs(vec![]).min_s(), 0.0);
    }

    #[test]
    fn measure_runs_warmup_plus_reps_and_returns_last_value() {
        let mut calls = 0u32;
        let spec = MeasureSpec { warmup: 2, reps: 3 };
        let (sample, last) = measure(spec, || {
            calls += 1;
            calls
        });
        assert_eq!(calls, 5, "2 warmup + 3 measured");
        assert_eq!(sample.reps(), 3);
        assert_eq!(last, 5, "value comes from the final repetition");
        assert!(sample.samples.iter().all(|&s| s >= 0.0));
    }

    #[test]
    fn measure_clamps_zero_reps_to_one() {
        let spec = MeasureSpec { warmup: 0, reps: 0 };
        let (sample, value) = measure(spec, || 7);
        assert_eq!(sample.reps(), 1);
        assert_eq!(value, 7);
        assert_eq!(spec.iterations(), 1);
    }
}
