//! Condensed pairwise-distance matrices.
//!
//! Both builders split the condensed storage into disjoint row-chunk ranges
//! and fill them from `std::thread::scope` workers, so large matrices build
//! on every core. The output is bit-identical for every thread count: each
//! condensed entry is computed by exactly one worker with the same
//! per-entry arithmetic, and the sparse builder sums each row's dot products
//! in ascending coordinate order inside the worker that owns the row.

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
    /// `matrix/entries` counter).
    ///
    /// Dot products are computed row by row inside the fill workers: row
    /// `i` walks its coordinates in ascending order and scatters `vᵢ·vⱼ`
    /// into a dense accumulator for every later row `j` in that
    /// coordinate's posting list, then fills its condensed row and resets
    /// the accumulator. Every pair's sum is added in ascending coordinate
    /// order whichever worker owns the row, so every thread count produces
    /// the same floating-point sums.
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
        let norms: Vec<f64> = rows
            .iter()
            .map(|r| r.iter().map(|&(_, v)| (v as f64) * (v as f64)).sum())
            .collect();
        let postings = Postings::build(rows);
        let mut m = Self::zeros(n);
        let fill = |out: &mut [f32], lo: usize, hi: usize| {
            let mut dots = vec![0.0f64; n];
            let mut k = 0;
            for i in lo..hi {
                for &(c, vi) in &rows[i] {
                    let posting = postings.of(c);
                    let later = posting.partition_point(|&(j, _)| j as usize <= i);
                    for &(j, vj) in &posting[later..] {
                        dots[j as usize] += (vi as f64) * (vj as f64);
                    }
                }
                for j in (i + 1)..n {
                    let dot = std::mem::take(&mut dots[j]);
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

/// The sparse rows' inverted index: for each coordinate, the `(row, value)`
/// entries holding it in ascending row order, in one flat buffer addressed
/// through `offsets`.
struct Postings {
    /// The distinct coordinates, ascending, when they are spread over many
    /// more slots than there are entries; otherwise a coordinate is its own
    /// slot.
    columns: Option<Vec<u32>>,
    offsets: Vec<usize>,
    entries: Vec<(u32, f32)>,
}

impl Postings {
    /// Indexes `rows`.
    fn build(rows: &[Vec<(u32, f32)>]) -> Self {
        let nnz: usize = rows.iter().map(|r| r.len()).sum();
        let width = rows
            .iter()
            .flatten()
            .map(|&(c, _)| c as usize + 1)
            .max()
            .unwrap_or(0);
        let columns = (width > 2 * nnz).then(|| {
            let mut columns: Vec<u32> = rows.iter().flatten().map(|&(c, _)| c).collect();
            columns.sort_unstable();
            columns.dedup();
            columns
        });
        let mut postings = Self {
            offsets: vec![0; columns.as_ref().map_or(width, Vec::len) + 1],
            columns,
            entries: vec![(0, 0.0); nnz],
        };
        for &(c, _) in rows.iter().flatten() {
            let slot = postings.slot(c);
            postings.offsets[slot + 1] += 1;
        }
        for s in 1..postings.offsets.len() {
            postings.offsets[s] += postings.offsets[s - 1];
        }
        let mut cursor = postings.offsets.clone();
        for (i, row) in rows.iter().enumerate() {
            for &(c, v) in row {
                let next = &mut cursor[postings.slot(c)];
                postings.entries[*next] = (i as u32, v);
                *next += 1;
            }
        }
        postings
    }

    fn slot(&self, c: u32) -> usize {
        self.columns.as_ref().map_or(c as usize, |columns| {
            columns.binary_search(&c).expect("an indexed coordinate")
        })
    }

    /// The entries holding coordinate `c` (an indexed coordinate).
    fn of(&self, c: u32) -> &[(u32, f32)] {
        let slot = self.slot(c);
        &self.entries[self.offsets[slot]..self.offsets[slot + 1]]
    }
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

    /// Every pair's dot product summed over the shared coordinates in
    /// ascending order, one pair at a time: the serial order the row-wise
    /// scatter must reproduce bit for bit.
    fn serial_order_reference(rows: &[Vec<(u32, f32)>]) -> Vec<f32> {
        let norm =
            |r: &[(u32, f32)]| -> f64 { r.iter().map(|&(_, v)| (v as f64) * (v as f64)).sum() };
        let mut out = Vec::new();
        for i in 0..rows.len() {
            for j in (i + 1)..rows.len() {
                let mut dot = 0.0f64;
                for &(c, vi) in &rows[i] {
                    if let Ok(at) = rows[j].binary_search_by_key(&c, |&(c, _)| c) {
                        dot += (vi as f64) * (rows[j][at].1 as f64);
                    }
                }
                let sq = (norm(&rows[i]) + norm(&rows[j]) - 2.0 * dot).max(0.0);
                out.push(sq.sqrt() as f32);
            }
        }
        out
    }

    #[test]
    fn sparse_matches_the_serial_order_reference_at_every_thread_count() {
        // Irregular values and supports, so sums of three or more products
        // round differently in different orders.
        let rows: Vec<Vec<(u32, f32)>> = (0..90u64)
            .map(|i| {
                let mut row: Vec<(u32, f32)> = (0..12u64)
                    .map(|j| {
                        let h = (i * 131 + j * 17).wrapping_mul(0x9E3779B97F4A7C15);
                        (
                            (h >> 40) as u32 % 60,
                            ((h >> 8) % 10_007) as f32 / 997.0 + 1e-3,
                        )
                    })
                    .collect();
                row.sort_unstable_by_key(|&(c, _)| c);
                row.dedup_by_key(|&mut (c, _)| c);
                row
            })
            .collect();
        let reference = serial_order_reference(&rows);
        for threads in 1..=4 {
            let m = CondensedMatrix::euclidean_sparse_with(&rows, threads, &Metrics::disabled())
                .expect("no worker panics");
            let bits = |d: &[f32]| d.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&m.data), bits(&reference), "threads = {threads}");
        }
    }

    #[test]
    fn sparse_takes_far_apart_coordinates() {
        let rows = vec![
            vec![(3u32, 1.5f32), (4_000_000_000, 2.0)],
            vec![(3, 0.5), (70, 1.0), (4_000_000_000, 0.25)],
            vec![(70, 3.0)],
        ];
        let m = CondensedMatrix::euclidean_sparse(&rows).expect("no worker panics");
        assert_eq!(m.data, serial_order_reference(&rows));
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
