//! The benchmark's derived numbers: medians, tail percentiles, and the
//! remainder that no traced stage accounts for.

/// Median of `values` (mean of the middle pair for even counts); `0.0`
/// when empty.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linearly interpolated `q`-quantile (`0 ≤ q ≤ 1`) of `values`; `0.0` when
/// empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The highest of the percentiles 50, 90, 99 and 99.9 that still has at
/// least ten samples beyond it, given `n` samples; `None` when even the
/// median has fewer than ten samples above it.
pub fn tail_percentile(n: usize) -> Option<f64> {
    // Per mille, so the count beyond stays exact integer arithmetic.
    [999, 990, 900, 500]
        .into_iter()
        .find(|&p| n * (1000 - p) >= 10 * 1000)
        .map(|p| p as f64 / 10.0)
}

/// What a traced total leaves after its named stages: `total − Σ stages`.
/// It can come out negative when stages overlap (parallel children), which
/// is reported as is rather than hidden.
pub fn unattributed(total: f64, stages: &[f64]) -> f64 {
    total - stages.iter().sum::<f64>()
}

/// Tracing overhead in percent: how much longer the traced run's end-to-end
/// number is than the untraced one's.
pub fn overhead_pct(untraced: f64, traced: f64) -> f64 {
    if untraced > 0.0 {
        (traced - untraced) / untraced * 100.0
    } else {
        0.0
    }
}

/// `part / whole`, or `0.0` when nothing was counted.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantiles_interpolate() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.25), 2.0);
        assert_eq!(quantile(&[1.0, 2.0], 1.0), 2.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn unattributed_is_the_remainder_and_adds_back_up() {
        let stages = [120.0, 30.5, 400.25];
        let rest = unattributed(600.0, &stages);
        assert_eq!(rest, 49.25);
        assert_eq!(stages.iter().sum::<f64>() + rest, 600.0);
        // Overlapping stages overshoot the total; the remainder says so.
        assert_eq!(unattributed(10.0, &[8.0, 4.0]), -2.0);
    }

    #[test]
    fn overhead_and_ratio_guard_empty_bases() {
        assert_eq!(overhead_pct(0.0, 5.0), 0.0);
        assert_eq!(overhead_pct(200.0, 210.0), 5.0);
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 4.0), 0.75);
    }
}
