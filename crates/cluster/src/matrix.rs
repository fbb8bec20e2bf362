//! Condensed pairwise-distance matrices.
//!
//! Both builders split the condensed storage into disjoint row-chunk ranges
//! and fill them from `std::thread::scope` workers, so large matrices build
//! on every core. The output is bit-identical for every thread count: each
//! condensed entry is computed by exactly one worker with the same
//! per-entry arithmetic, and the sparse builder accumulates dot products
//! over coordinate-sorted postings in a fixed order.

use std::collections::HashMap;

use oct_obs::Metrics;
use oct_resilience::run_isolated;

use crate::error::ClusterError;

/// Condensed entries below this count are built serially even when more
/// threads are available (spawning would cost more than the fill).
const PARALLEL_MIN_ENTRIES: usize = 4096;

/// A symmetric zero-diagonal distance matrix over `n` points stored in
/// condensed form (`n·(n−1)/2` entries, `f32`).
#[derive(Debug, Clone)]
pub struct CondensedMatrix {
    n: usize,
    data: Vec<f32>,
}

impl CondensedMatrix {
    /// Creates a matrix of zeros over `n` points.
    pub fn zeros(n: usize) -> Self {
        let entries = n * n.saturating_sub(1) / 2;
        Self {
            n,
            data: vec![0.0; entries],
        }
    }

    /// Builds the Euclidean distance matrix of dense row vectors, using all
    /// available cores for large inputs.
    ///
    /// # Errors
    /// Returns [`ClusterError::DimensionMismatch`] when rows disagree on
    /// dimension (row 0 is the reference; the check applies uniformly, also
    /// to empty and single-row inputs).
    pub fn euclidean_dense(rows: &[Vec<f32>]) -> Result<Self, ClusterError> {
        Self::euclidean_dense_with(rows, 0, &Metrics::disabled())
    }

    /// [`CondensedMatrix::euclidean_dense`] with an explicit worker count
    /// (`0` = auto, `1` = serial) and telemetry: the fill is timed under the
    /// `matrix/build` span and `matrix/entries` counts the condensed entries
    /// computed.
    pub fn euclidean_dense_with(
        rows: &[Vec<f32>],
        threads: usize,
        metrics: &Metrics,
    ) -> Result<Self, ClusterError> {
        let d = rows.first().map_or(0, Vec::len);
        if let Some(row) = rows.iter().position(|r| r.len() != d) {
            return Err(ClusterError::DimensionMismatch {
                row,
                expected: d,
                found: rows[row].len(),
            });
        }
        let _span = metrics.span("matrix/build");
        let n = rows.len();
        // Flatten the row vectors into one contiguous buffer: the per-pair
        // inner loop then streams two dense slices instead of chasing
        // per-row heap pointers. Same element order, same `f32` additions —
        // the distances are bit-identical to the nested layout.
        let flat: Vec<f32> = rows.iter().flat_map(|r| r.iter().copied()).collect();
        let fill = |out: &mut [f32], lo: usize, hi: usize| {
            let mut k = 0;
            for i in lo..hi {
                let a = &flat[i * d..(i + 1) * d];
                for j in (i + 1)..n {
                    let b = &flat[j * d..(j + 1) * d];
                    out[k] = a
                        .iter()
                        .zip(b)
                        .map(|(x, y)| (x - y) * (x - y))
                        .sum::<f32>()
                        .sqrt();
                    k += 1;
                }
            }
        };
        let mut m = Self::zeros(n);
        fill_row_chunks(n, &mut m.data, threads, &fill)?;
        metrics.add("matrix/entries", m.data.len() as u64);
        Ok(m)
    }

    /// Builds the Euclidean distance matrix of sparse row vectors given as
    /// sorted `(coordinate, value)` pairs, using all available cores for
    /// large inputs.
    ///
    /// Exploits sparsity: `d(a,b)² = ‖a‖² + ‖b‖² − 2⟨a,b⟩`, with dot products
    /// computed through an inverted index over non-zero coordinates, so fully
    /// disjoint supports never touch each other beyond the norm term.
    ///
    /// # Errors
    /// Returns [`ClusterError::WorkerPanicked`] if a fill worker panics
    /// (contained via `catch_unwind` instead of aborting the process).
    pub fn euclidean_sparse(rows: &[Vec<(u32, f32)>]) -> Result<Self, ClusterError> {
        Self::euclidean_sparse_with(rows, 0, &Metrics::disabled())
    }

    /// [`CondensedMatrix::euclidean_sparse`] with an explicit worker count
    /// (`0` = auto, `1` = serial) and telemetry (`matrix/build` span,
    /// `matrix/entries` / `matrix/dot_pairs` counters).
    ///
    /// Dot products accumulate over coordinate-sorted postings split into
    /// contiguous chunks merged in order, so every thread count produces the
    /// same floating-point sums.
    ///
    /// # Errors
    /// Returns [`ClusterError::WorkerPanicked`] if a worker panics; see
    /// [`CondensedMatrix::euclidean_sparse`].
    pub fn euclidean_sparse_with(
        rows: &[Vec<(u32, f32)>],
        threads: usize,
        metrics: &Metrics,
    ) -> Result<Self, ClusterError> {
        let _span = metrics.span("matrix/build");
        let n = rows.len();
        let entries = n * n.saturating_sub(1) / 2;
        let threads = resolve_threads(threads, entries);
        let norms: Vec<f64> = rows
            .iter()
            .map(|r| r.iter().map(|&(_, v)| (v as f64) * (v as f64)).sum())
            .collect();
        // Inverted index: coordinate -> [(row, value)], coordinate-sorted so
        // chunked accumulation is deterministic.
        let mut index: HashMap<u32, Vec<(u32, f32)>> = HashMap::new();
        for (i, row) in rows.iter().enumerate() {
            for &(c, v) in row {
                index.entry(c).or_default().push((i as u32, v));
            }
        }
        let mut postings: Vec<(u32, Vec<(u32, f32)>)> = index.into_iter().collect();
        postings.sort_unstable_by_key(|&(c, _)| c);

        let dot = |lo: usize, hi: usize| {
            let mut dots = Dots::new();
            for (_, posting) in &postings[lo..hi] {
                for (a, &(i, vi)) in posting.iter().enumerate() {
                    for &(j, vj) in &posting[a + 1..] {
                        *dots.entry((i, j)).or_insert(0.0) += (vi as f64) * (vj as f64);
                    }
                }
            }
            dots
        };
        // Contiguous chunks merged in order: per-key addition order matches
        // the serial pass (a single partial) exactly.
        let dots = dot_chunks(postings.len(), threads, &dot)?
            .into_iter()
            .reduce(|mut merged, partial| {
                for (key, dot) in partial {
                    *merged.entry(key).or_insert(0.0) += dot;
                }
                merged
            })
            .unwrap_or_default();
        metrics.add("matrix/dot_pairs", dots.len() as u64);

        let mut m = Self::zeros(n);
        let fill = |out: &mut [f32], lo: usize, hi: usize| {
            let mut k = 0;
            for i in lo..hi {
                for j in (i + 1)..n {
                    let dot = dots.get(&(i as u32, j as u32)).copied().unwrap_or(0.0);
                    let sq = (norms[i] + norms[j] - 2.0 * dot).max(0.0);
                    out[k] = sq.sqrt() as f32;
                    k += 1;
                }
            }
        };
        fill_row_chunks(n, &mut m.data, threads, &fill)?;
        metrics.add("matrix/entries", m.data.len() as u64);
        Ok(m)
    }

    /// Number of points.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` when the matrix covers no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Checks that every entry is finite, naming the first offending pair
    /// otherwise. Clustering calls this at entry so a stray NaN surfaces as
    /// an error instead of corrupting the NN-chain.
    pub fn validate_finite(&self) -> Result<(), ClusterError> {
        let Some(pos) = self.data.iter().position(|v| !v.is_finite()) else {
            return Ok(());
        };
        // Recover (i, j) from the condensed position (error path only).
        let mut i = 0;
        let mut row_start = 0;
        while row_start + (self.n - 1 - i) <= pos {
            row_start += self.n - 1 - i;
            i += 1;
        }
        let j = i + 1 + (pos - row_start);
        Err(ClusterError::NonFiniteDistance {
            i,
            j,
            value: self.data[pos],
        })
    }

    #[inline]
    fn index(&self, i: usize, j: usize) -> usize {
        debug_assert!(i < j && j < self.n);
        // Row-major condensed indexing.
        i * self.n - i * (i + 1) / 2 + (j - i - 1)
    }

    /// Distance between points `i` and `j` (0 when `i == j`).
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f32 {
        match i.cmp(&j) {
            std::cmp::Ordering::Less => self.data[self.index(i, j)],
            std::cmp::Ordering::Equal => 0.0,
            std::cmp::Ordering::Greater => self.data[self.index(j, i)],
        }
    }

    /// Sets the distance between distinct points `i` and `j`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, value: f32) {
        let idx = if i < j {
            self.index(i, j)
        } else {
            self.index(j, i)
        };
        self.data[idx] = value;
    }
}

/// Resolves a thread-count knob: `0` = auto (all cores, serial below
/// [`PARALLEL_MIN_ENTRIES`] of work), otherwise the explicit count.
fn resolve_threads(threads: usize, work: usize) -> usize {
    if threads == 0 {
        if work < PARALLEL_MIN_ENTRIES {
            1
        } else {
            std::thread::available_parallelism().map_or(1, |p| p.get())
        }
    } else {
        threads
    }
}

/// Number of condensed entries in rows `lo..hi` of an `n`-point matrix.
fn entries_in_rows(n: usize, lo: usize, hi: usize) -> usize {
    let offset = |i: usize| i * n - i * (i + 1) / 2;
    offset(hi) - offset(lo)
}

/// Splits rows `0..n` into contiguous chunks of roughly equal condensed
/// entry counts (row `i` holds `n − 1 − i` entries, so equal row counts
/// would be badly skewed).
fn row_chunks(n: usize, parts: usize) -> Vec<(usize, usize)> {
    let total = n * n.saturating_sub(1) / 2;
    if parts <= 1 || total == 0 {
        return if n == 0 { Vec::new() } else { vec![(0, n)] };
    }
    let target = total.div_ceil(parts);
    let mut out = Vec::new();
    let mut lo = 0;
    let mut acc = 0;
    for i in 0..n {
        acc += n - 1 - i;
        if acc >= target && i + 1 < n {
            out.push((lo, i + 1));
            lo = i + 1;
            acc = 0;
        }
    }
    if lo < n {
        out.push((lo, n));
    }
    out
}

/// Sparse dot products keyed by `(i, j)` row pairs with `i < j`.
type Dots = HashMap<(u32, u32), f64>;

/// Runs `dot(lo, hi)` over contiguous chunks of the `len` coordinate-sorted
/// postings, in parallel when `threads > 1`, and returns the partial sums
/// in chunk order (one partial on the serial path).
///
/// Like [`fill_row_chunks`], every call — the serial one included — runs
/// under `catch_unwind`, so a panicking worker surfaces as
/// [`ClusterError::WorkerPanicked`].
fn dot_chunks<F>(len: usize, threads: usize, dot: &F) -> Result<Vec<Dots>, ClusterError>
where
    F: Fn(usize, usize) -> Dots + Sync,
{
    if threads <= 1 || len < 2 {
        return Ok(vec![run_isolated("matrix dot workers", || dot(0, len))?]);
    }
    let chunk = len.div_ceil(threads);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .filter_map(|t| {
                let lo = t * chunk;
                let hi = ((t + 1) * chunk).min(len);
                (lo < hi).then(|| {
                    scope.spawn(move || run_isolated("matrix dot workers", || dot(lo, hi)))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect::<Result<Vec<_>, _>>()
    })
    .map_err(ClusterError::from)
}

/// Runs `fill(chunk_storage, lo, hi)` over disjoint row chunks of the
/// condensed storage, in parallel when more than one chunk is requested.
/// Each worker owns the exact `&mut [f32]` range its rows map to, so no
/// synchronization is needed and the result is independent of scheduling.
///
/// Every fill — including the serial path — runs under `catch_unwind`; a
/// panicking worker surfaces as [`ClusterError::WorkerPanicked`] instead of
/// aborting. A partially filled chunk is harmless: the storage is discarded
/// with the error.
fn fill_row_chunks<F>(
    n: usize,
    data: &mut [f32],
    threads: usize,
    fill: &F,
) -> Result<(), ClusterError>
where
    F: Fn(&mut [f32], usize, usize) + Sync,
{
    let threads = resolve_threads(threads, data.len());
    let chunks = row_chunks(n, threads);
    if chunks.len() <= 1 {
        if !data.is_empty() {
            run_isolated("matrix fill workers", || fill(data, 0, n))?;
        }
        return Ok(());
    }
    std::thread::scope(|scope| {
        let mut rest = data;
        let mut handles = Vec::with_capacity(chunks.len());
        for &(lo, hi) in &chunks {
            let (head, tail) = rest.split_at_mut(entries_in_rows(n, lo, hi));
            rest = tail;
            handles.push(
                scope.spawn(move || run_isolated("matrix fill workers", || fill(head, lo, hi))),
            );
        }
        for handle in handles {
            handle
                .join()
                .unwrap_or_else(|p| std::panic::resume_unwind(p))?;
        }
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use oct_resilience::ExecutionError;

    #[test]
    fn zeros_and_symmetry() {
        let mut m = CondensedMatrix::zeros(4);
        m.set(1, 3, 2.5);
        assert_eq!(m.get(1, 3), 2.5);
        assert_eq!(m.get(3, 1), 2.5);
        assert_eq!(m.get(2, 2), 0.0);
        assert_eq!(m.get(0, 1), 0.0);
    }

    #[test]
    fn dense_euclidean() {
        let rows = vec![vec![0.0, 0.0], vec![3.0, 4.0], vec![0.0, 1.0]];
        let m = CondensedMatrix::euclidean_dense(&rows).expect("consistent dims");
        assert!((m.get(0, 1) - 5.0).abs() < 1e-6);
        assert!((m.get(0, 2) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn dense_rejects_dimension_mismatch() {
        let rows = vec![vec![0.0, 0.0], vec![1.0]];
        let err = CondensedMatrix::euclidean_dense(&rows).unwrap_err();
        assert_eq!(
            err,
            ClusterError::DimensionMismatch {
                row: 1,
                expected: 2,
                found: 1
            }
        );
        // The check is uniform: a lone row is fine, but the reference
        // dimension logic no longer special-cases n ≤ 1.
        assert_eq!(
            CondensedMatrix::euclidean_dense(&[vec![1.0]])
                .expect("single row")
                .len(),
            1
        );
    }

    #[test]
    fn sparse_matches_dense() {
        let dense = vec![
            vec![1.0, 0.0, 2.0, 0.0],
            vec![0.0, 3.0, 0.0, 0.0],
            vec![1.0, 3.0, 0.0, 5.0],
        ];
        let sparse: Vec<Vec<(u32, f32)>> = dense
            .iter()
            .map(|r| {
                r.iter()
                    .enumerate()
                    .filter(|(_, &v)| v != 0.0)
                    .map(|(c, &v)| (c as u32, v))
                    .collect()
            })
            .collect();
        let md = CondensedMatrix::euclidean_dense(&dense).expect("consistent dims");
        let ms = CondensedMatrix::euclidean_sparse(&sparse).expect("no worker panics");
        for i in 0..3 {
            for j in 0..3 {
                assert!((md.get(i, j) - ms.get(i, j)).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn empty_and_single_point() {
        assert!(CondensedMatrix::zeros(0).is_empty());
        let m = CondensedMatrix::euclidean_dense(&[vec![1.0]]).expect("single row");
        assert_eq!(m.len(), 1);
        assert!(CondensedMatrix::euclidean_dense(&[])
            .expect("no rows")
            .is_empty());
    }

    /// Deterministic pseudo-random rows without pulling in a RNG.
    fn synth_rows(n: usize, d: usize) -> Vec<Vec<f32>> {
        (0..n)
            .map(|i| {
                (0..d)
                    .map(|j| {
                        let h = (i as u64 * 31 + j as u64)
                            .wrapping_mul(0x9E3779B97F4A7C15)
                            .rotate_left(17);
                        (h % 1000) as f32 / 100.0
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn dense_parallel_matches_serial_bit_for_bit() {
        let rows = synth_rows(67, 5);
        let serial = CondensedMatrix::euclidean_dense_with(&rows, 1, &Metrics::disabled())
            .expect("consistent dims");
        for threads in [2, 4] {
            let parallel =
                CondensedMatrix::euclidean_dense_with(&rows, threads, &Metrics::disabled())
                    .expect("consistent dims");
            assert_eq!(serial.data, parallel.data, "threads = {threads}");
        }
    }

    #[test]
    fn sparse_parallel_matches_serial_bit_for_bit() {
        // Overlapping supports so dot products genuinely accumulate across
        // posting chunks.
        let rows: Vec<Vec<(u32, f32)>> = (0..50)
            .map(|i| {
                (0..8)
                    .map(|j| ((i + j * 7) % 40, 1.0 + (i * j) as f32 * 0.01))
                    .collect::<Vec<(u32, f32)>>()
            })
            .map(|mut r| {
                r.sort_unstable_by_key(|&(c, _)| c);
                r.dedup_by_key(|&mut (c, _)| c);
                r
            })
            .collect();
        let serial = CondensedMatrix::euclidean_sparse_with(&rows, 1, &Metrics::disabled())
            .expect("no worker panics");
        for threads in [2, 4] {
            let parallel =
                CondensedMatrix::euclidean_sparse_with(&rows, threads, &Metrics::disabled())
                    .expect("no worker panics");
            assert_eq!(serial.data, parallel.data, "threads = {threads}");
        }
    }

    #[test]
    fn row_chunks_cover_all_rows_disjointly() {
        for n in [0usize, 1, 2, 3, 10, 67] {
            for parts in [1usize, 2, 3, 4, 16] {
                let chunks = row_chunks(n, parts);
                let mut expected_lo = 0;
                let mut entries = 0;
                for &(lo, hi) in &chunks {
                    assert_eq!(lo, expected_lo);
                    assert!(lo < hi);
                    entries += entries_in_rows(n, lo, hi);
                    expected_lo = hi;
                }
                if n > 0 {
                    assert_eq!(expected_lo, n, "n={n} parts={parts}");
                }
                assert_eq!(entries, n * n.saturating_sub(1) / 2);
            }
        }
    }

    #[test]
    fn validate_finite_names_the_pair() {
        let mut m = CondensedMatrix::zeros(5);
        assert!(m.validate_finite().is_ok());
        m.set(2, 4, f32::NAN);
        match m.validate_finite().unwrap_err() {
            ClusterError::NonFiniteDistance { i, j, value } => {
                assert_eq!((i, j), (2, 4));
                assert!(value.is_nan());
            }
            other => panic!("wrong error {other:?}"),
        }
    }

    /// Asserts `result` is a contained panic from the `context` workers.
    fn assert_worker_panicked<T: std::fmt::Debug>(
        result: Result<T, ClusterError>,
        context: &str,
        threads: usize,
    ) {
        match result {
            Err(ClusterError::WorkerPanicked(ExecutionError::WorkerPanicked {
                context: got,
                message,
            })) => {
                assert_eq!(got, context, "threads = {threads}");
                assert_eq!(message, "last chunk", "threads = {threads}");
            }
            other => panic!("threads = {threads}: expected a contained panic, got {other:?}"),
        }
    }

    /// No input makes the per-entry arithmetic panic, so the isolation
    /// helper shared by the dense and the sparse fill is handed a closure
    /// that panics in the chunk holding the last row. At four threads only
    /// that one worker panics; the others finish.
    #[test]
    fn injected_worker_panic_becomes_typed_error() {
        let n = 30;
        for threads in [1, 4] {
            let mut data = vec![0.0f32; n * (n - 1) / 2];
            let fill = |_: &mut [f32], _: usize, hi: usize| {
                if hi == n {
                    panic!("last chunk");
                }
            };
            let result = fill_row_chunks(n, &mut data, threads, &fill);
            assert_worker_panicked(result, "matrix fill workers", threads);
        }
    }

    /// The sparse builder's dot-product phase, isolated the same way.
    #[test]
    fn panicking_dot_worker_becomes_typed_error() {
        let len = 20;
        for threads in [1, 4] {
            let dot = |_: usize, hi: usize| -> Dots {
                if hi == len {
                    panic!("last chunk");
                }
                Dots::new()
            };
            assert_worker_panicked(
                dot_chunks(len, threads, &dot),
                "matrix dot workers",
                threads,
            );
        }
    }

    #[test]
    fn nan_input_row_is_rejected_by_clustering() {
        let mut rows = synth_rows(10, 2);
        rows[3][1] = f32::NAN;
        for threads in [1, 4] {
            let m = CondensedMatrix::euclidean_dense_with(&rows, threads, &Metrics::disabled())
                .expect("a NaN coordinate is not a worker panic");
            assert!(
                matches!(
                    crate::cluster(m, crate::Linkage::Average),
                    Err(ClusterError::NonFiniteDistance { i: 0, j: 3, .. })
                ),
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn build_records_metrics() {
        let metrics = Metrics::enabled();
        let rows = synth_rows(10, 3);
        CondensedMatrix::euclidean_dense_with(&rows, 2, &metrics).expect("consistent dims");
        let report = metrics.report();
        assert_eq!(report.counter("matrix/entries"), Some(45));
        assert!(report.span("matrix/build").is_some());
    }
}
