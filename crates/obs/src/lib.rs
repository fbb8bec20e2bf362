//! Pipeline observability: lightweight stage spans, named counters and
//! gauges, and a serializable [`PipelineReport`].
//!
//! The central type is [`Metrics`], a cheaply-cloneable handle that is
//! either *enabled* (backed by shared state) or *disabled* (a no-op shell).
//! Every recording operation on a disabled handle is a branch on an
//! `Option` and returns immediately, so instrumented code pays nothing
//! when telemetry is off:
//!
//! ```
//! use oct_obs::Metrics;
//!
//! let metrics = Metrics::enabled();
//! {
//!     let stage = metrics.span("conflict");
//!     let _inner = stage.child("pairs");
//!     metrics.add("conflict/intersecting_pairs", 42);
//! }
//! let report = metrics.report();
//! assert_eq!(report.counter("conflict/intersecting_pairs"), Some(42));
//! assert!(report.span("conflict").is_some());
//!
//! let off = Metrics::disabled();
//! off.add("ignored", 1); // no-op, no allocation
//! assert!(off.report().is_empty());
//! ```
//!
//! Span timings aggregate: entering the same path twice accumulates total
//! duration and a call count. Counters are lock-free `AtomicU64`s after the
//! first lookup (see [`Metrics::counter`] for hot loops).

mod report;

pub use report::{json, HistogramStat, PipelineReport, SpanStat};

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Histogram bucket upper bounds in microseconds: powers of two from 1 µs
/// to ~1 s, plus an unbounded overflow bucket. Coarse but fixed, so
/// concurrent recording is a single atomic add with no rebucketing.
pub const HISTOGRAM_BOUNDS_US: [u64; 21] = [
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1_024, 2_048, 4_096, 8_192, 16_384, 32_768, 65_536,
    131_072, 262_144, 524_288, 1_048_576,
];

/// Cells backing one histogram: per-bucket counts plus count/total/max.
#[derive(Default)]
struct HistoCells {
    /// One count per bound in [`HISTOGRAM_BOUNDS_US`], then overflow.
    buckets: [AtomicU64; HISTOGRAM_BOUNDS_US.len() + 1],
    count: AtomicU64,
    total_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl HistoCells {
    fn observe(&self, value: Duration) {
        let us = value.as_micros().min(u128::from(u64::MAX)) as u64;
        let idx = HISTOGRAM_BOUNDS_US
            .iter()
            .position(|&bound| us <= bound)
            .unwrap_or(HISTOGRAM_BOUNDS_US.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        let ns = value.as_nanos().min(u128::from(u64::MAX)) as u64;
        self.total_ns.fetch_add(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    fn snapshot(&self) -> HistogramStat {
        let mut buckets = std::collections::BTreeMap::new();
        for (i, cell) in self.buckets.iter().enumerate() {
            let count = cell.load(Ordering::Relaxed);
            if count > 0 {
                let bound = HISTOGRAM_BOUNDS_US.get(i).copied().unwrap_or(u64::MAX);
                buckets.insert(bound, count);
            }
        }
        HistogramStat {
            count: self.count.load(Ordering::Relaxed),
            total: Duration::from_nanos(self.total_ns.load(Ordering::Relaxed)),
            max: Duration::from_nanos(self.max_ns.load(Ordering::Relaxed)),
            buckets,
        }
    }
}

#[derive(Default)]
struct Inner {
    counters: Mutex<HashMap<String, Arc<AtomicU64>>>,
    gauges: Mutex<HashMap<String, f64>>,
    spans: Mutex<HashMap<String, SpanStat>>,
    histograms: Mutex<HashMap<String, Arc<HistoCells>>>,
    /// Latched when any pipeline stage fell back to a degraded mode
    /// (deadline expiry, truncated enumeration, heuristic-only solves).
    degraded: AtomicBool,
}

/// Handle to a metrics sink; clones share the same underlying state.
///
/// A disabled handle ([`Metrics::disabled`], also `Default`) carries no
/// state and turns every operation into a no-op.
#[derive(Clone, Default)]
pub struct Metrics {
    inner: Option<Arc<Inner>>,
}

impl Metrics {
    /// A recording handle.
    pub fn enabled() -> Self {
        Self {
            inner: Some(Arc::new(Inner::default())),
        }
    }

    /// A no-op handle: every operation returns immediately.
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// Recording handle when `on`, no-op handle otherwise.
    pub fn new(on: bool) -> Self {
        if on {
            Self::enabled()
        } else {
            Self::disabled()
        }
    }

    /// `true` when this handle records.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Starts a root stage span named `name`; the elapsed time is recorded
    /// under that path when the returned guard drops.
    pub fn span(&self, name: &str) -> Span<'_> {
        Span {
            metrics: self,
            path: self.inner.is_some().then(|| name.to_string()),
            started: Instant::now(),
        }
    }

    /// Adds `delta` to the named counter.
    pub fn add(&self, name: &str, delta: u64) {
        if let Some(inner) = &self.inner {
            inner
                .counters
                .lock()
                .entry(name.to_string())
                .or_default()
                .fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Increments the named counter by 1.
    pub fn incr(&self, name: &str) {
        self.add(name, 1);
    }

    /// A reusable handle to one counter, for hot loops: after this single
    /// lookup, updates are lock-free atomic adds. The handle of a disabled
    /// `Metrics` discards updates.
    pub fn counter(&self, name: &str) -> Counter {
        Counter {
            cell: self.inner.as_ref().map(|inner| {
                Arc::clone(inner.counters.lock().entry(name.to_string()).or_default())
            }),
        }
    }

    /// Sets the named gauge to `value` (last write wins).
    pub fn gauge(&self, name: &str, value: f64) {
        if let Some(inner) = &self.inner {
            inner.gauges.lock().insert(name.to_string(), value);
        }
    }

    /// A reusable handle to one latency histogram, for hot paths: after
    /// this single lookup, each observation is a handful of lock-free
    /// atomic adds into fixed power-of-two buckets (1 µs – ~1 s plus
    /// overflow). The handle of a disabled `Metrics` discards observations.
    pub fn histogram(&self, name: &str) -> Histogram {
        Histogram {
            cells: self.inner.as_ref().map(|inner| {
                Arc::clone(inner.histograms.lock().entry(name.to_string()).or_default())
            }),
        }
    }

    /// Records one observation into the named histogram (convenience for
    /// cold paths; hot paths should hold a [`Histogram`] handle).
    pub fn observe(&self, name: &str, value: Duration) {
        self.histogram(name).observe(value);
    }

    /// Latches the degraded flag: some stage fell back to a degraded mode
    /// (deadline expiry, truncated enumeration, heuristic-only solve). The
    /// flag is sticky — once set it stays set for the handle's lifetime.
    pub fn mark_degraded(&self) {
        if let Some(inner) = &self.inner {
            inner.degraded.store(true, Ordering::Relaxed);
        }
    }

    /// `true` when [`Self::mark_degraded`] was called on any clone of this
    /// handle (always `false` on a disabled handle).
    pub fn is_degraded(&self) -> bool {
        self.inner
            .as_ref()
            .is_some_and(|inner| inner.degraded.load(Ordering::Relaxed))
    }

    /// A view of this sink that prefixes every metric name with
    /// `prefix + "/"`. Made for per-entity families — a router tracking
    /// `router/replica/<addr>/{ok,fail,pool_stale}` builds one scope per
    /// replica. Its `incr`/`add`/`gauge`/`observe` still format the full
    /// name on every call; hot paths take [`ScopedMetrics::counter`] /
    /// [`ScopedMetrics::histogram`] handles once instead. Scopes share
    /// the underlying sink (and its degraded flag); a scope of a disabled
    /// handle is a no-op like its parent.
    pub fn scoped(&self, prefix: &str) -> ScopedMetrics {
        ScopedMetrics {
            metrics: self.clone(),
            prefix: format!("{prefix}/"),
        }
    }

    /// Records an externally-measured duration under a span path, as if a
    /// span guard had run for `elapsed`.
    pub fn record_duration(&self, path: &str, elapsed: Duration) {
        if let Some(inner) = &self.inner {
            let mut spans = inner.spans.lock();
            let stat = spans.entry(path.to_string()).or_default();
            stat.total += elapsed;
            stat.count += 1;
        }
    }

    /// Snapshot of everything recorded so far.
    pub fn report(&self) -> PipelineReport {
        let Some(inner) = &self.inner else {
            return PipelineReport::default();
        };
        PipelineReport {
            counters: inner
                .counters
                .lock()
                .iter()
                .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
                .collect(),
            gauges: inner
                .gauges
                .lock()
                .iter()
                .map(|(k, v)| (k.clone(), *v))
                .collect(),
            spans: inner
                .spans
                .lock()
                .iter()
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
            histograms: inner
                .histograms
                .lock()
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
            degraded: inner.degraded.load(Ordering::Relaxed),
        }
    }
}

impl std::fmt::Debug for Metrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Metrics")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

/// A name-prefixing view of a [`Metrics`] sink (see [`Metrics::scoped`]).
#[derive(Clone)]
pub struct ScopedMetrics {
    metrics: Metrics,
    /// Includes the trailing `/`.
    prefix: String,
}

impl ScopedMetrics {
    /// Adds `delta` to `<prefix>/<name>`.
    pub fn add(&self, name: &str, delta: u64) {
        self.metrics.add(&format!("{}{name}", self.prefix), delta);
    }

    /// Increments `<prefix>/<name>` by 1.
    pub fn incr(&self, name: &str) {
        self.add(name, 1);
    }

    /// A lock-free [`Counter`] handle for `<prefix>/<name>`.
    pub fn counter(&self, name: &str) -> Counter {
        self.metrics.counter(&format!("{}{name}", self.prefix))
    }

    /// A lock-free [`Histogram`] handle for `<prefix>/<name>`.
    pub fn histogram(&self, name: &str) -> Histogram {
        self.metrics.histogram(&format!("{}{name}", self.prefix))
    }

    /// Sets the gauge `<prefix>/<name>`.
    pub fn gauge(&self, name: &str, value: f64) {
        self.metrics.gauge(&format!("{}{name}", self.prefix), value);
    }

    /// Records one observation into the histogram `<prefix>/<name>`.
    pub fn observe(&self, name: &str, value: Duration) {
        self.metrics
            .observe(&format!("{}{name}", self.prefix), value);
    }
}

/// Lock-free handle to a single counter (see [`Metrics::counter`]).
#[derive(Clone, Default)]
pub struct Counter {
    cell: Option<Arc<AtomicU64>>,
}

impl Counter {
    /// Adds `delta`.
    #[inline]
    pub fn add(&self, delta: u64) {
        if let Some(cell) = &self.cell {
            cell.fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Increments by 1.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value (0 on a disabled handle).
    pub fn get(&self) -> u64 {
        self.cell
            .as_ref()
            .map_or(0, |cell| cell.load(Ordering::Relaxed))
    }
}

/// Lock-free handle to a single latency histogram (see
/// [`Metrics::histogram`]).
#[derive(Clone, Default)]
pub struct Histogram {
    cells: Option<Arc<HistoCells>>,
}

impl Histogram {
    /// Records one observation.
    #[inline]
    pub fn observe(&self, value: Duration) {
        if let Some(cells) = &self.cells {
            cells.observe(value);
        }
    }

    /// Snapshot of this histogram (empty on a disabled handle).
    pub fn stat(&self) -> HistogramStat {
        self.cells
            .as_ref()
            .map(|cells| cells.snapshot())
            .unwrap_or_default()
    }
}

/// RAII guard for a timed stage; records its elapsed time when dropped.
///
/// Nested stages are produced with [`Span::child`] and record under
/// `parent/child` paths.
pub struct Span<'m> {
    metrics: &'m Metrics,
    /// `None` on disabled handles — drop then does nothing.
    path: Option<String>,
    started: Instant,
}

impl Span<'_> {
    /// Starts a nested span recorded under `self_path/name`.
    pub fn child(&self, name: &str) -> Span<'_> {
        Span {
            metrics: self.metrics,
            path: self.path.as_ref().map(|p| format!("{p}/{name}")),
            started: Instant::now(),
        }
    }

    /// The span's full path, when recording.
    pub fn path(&self) -> Option<&str> {
        self.path.as_deref()
    }

    /// Elapsed time since the span started.
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some(path) = self.path.take() {
            self.metrics.record_duration(&path, self.started.elapsed());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scoped_metrics_prefix_every_name() {
        let m = Metrics::enabled();
        let scope = m.scoped("router/replica/127.0.0.1:7171");
        scope.incr("ok");
        scope.add("ok", 2);
        scope.counter("fail").incr();
        scope.histogram("wait").observe(Duration::from_micros(5));
        scope.gauge("depth", 3.0);
        scope.observe("latency", Duration::from_micros(10));
        let report = m.report();
        assert_eq!(report.counter("router/replica/127.0.0.1:7171/ok"), Some(3));
        assert_eq!(
            report.counter("router/replica/127.0.0.1:7171/fail"),
            Some(1)
        );
        assert_eq!(
            report.gauge("router/replica/127.0.0.1:7171/depth"),
            Some(3.0)
        );
        assert!(report
            .histogram("router/replica/127.0.0.1:7171/latency")
            .is_some());
        assert!(report
            .histogram("router/replica/127.0.0.1:7171/wait")
            .is_some());
        // A scope over a disabled sink is a no-op, like its parent.
        let off = Metrics::disabled().scoped("x");
        off.incr("ok");
        assert!(Metrics::disabled().report().is_empty());
    }

    #[test]
    fn disabled_handle_records_nothing() {
        let m = Metrics::disabled();
        m.add("a", 5);
        m.incr("a");
        m.gauge("g", 1.0);
        m.counter("c").add(10);
        {
            let s = m.span("stage");
            assert_eq!(s.path(), None);
            let _inner = s.child("sub");
        }
        assert!(!m.is_enabled());
        assert!(m.report().is_empty());
    }

    #[test]
    fn counters_and_gauges_record() {
        let m = Metrics::enabled();
        m.add("pairs", 3);
        m.incr("pairs");
        m.gauge("density", 0.25);
        m.gauge("density", 0.5); // last write wins
        let c = m.counter("nodes");
        c.add(7);
        c.incr();
        assert_eq!(c.get(), 8);
        let report = m.report();
        assert_eq!(report.counter("pairs"), Some(4));
        assert_eq!(report.counter("nodes"), Some(8));
        assert_eq!(report.gauge("density"), Some(0.5));
        assert_eq!(report.counter("missing"), None);
    }

    #[test]
    fn spans_nest_and_aggregate() {
        let m = Metrics::enabled();
        for _ in 0..3 {
            let outer = m.span("run");
            {
                let inner = outer.child("phase");
                assert_eq!(inner.path(), Some("run/phase"));
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        let report = m.report();
        let run = report.span("run").expect("run recorded");
        let phase = report.span("run/phase").expect("nested path recorded");
        assert_eq!(run.count, 3);
        assert_eq!(phase.count, 3);
        // The parent span is open for at least as long as its child.
        assert!(run.total >= phase.total);
        assert!(phase.total >= Duration::from_millis(3));
    }

    #[test]
    fn histograms_record_and_snapshot() {
        let m = Metrics::enabled();
        let h = m.histogram("serve/latency");
        h.observe(Duration::from_micros(3)); // → bucket ≤ 4 µs
        h.observe(Duration::from_micros(100)); // → bucket ≤ 128 µs
        m.observe("serve/latency", Duration::from_secs(10)); // → overflow
        let stat = m
            .report()
            .histogram("serve/latency")
            .cloned()
            .expect("recorded");
        assert_eq!(stat.count, 3);
        assert_eq!(stat.max, Duration::from_secs(10));
        assert_eq!(stat.buckets.get(&4), Some(&1));
        assert_eq!(stat.buckets.get(&128), Some(&1));
        assert_eq!(stat.buckets.get(&u64::MAX), Some(&1));
        assert_eq!(stat.buckets.values().sum::<u64>(), stat.count);
        // Handles on a disabled sink record nothing.
        let off = Metrics::disabled();
        off.histogram("x").observe(Duration::from_micros(5));
        off.observe("x", Duration::from_micros(5));
        assert!(off.report().histograms.is_empty());
        assert_eq!(off.histogram("x").stat().count, 0);
    }

    #[test]
    fn histograms_are_race_free_across_threads() {
        let m = Metrics::enabled();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let m = m.clone();
                scope.spawn(move || {
                    let h = m.histogram("hot");
                    for i in 0..1000u64 {
                        h.observe(Duration::from_micros(i % 300));
                    }
                });
            }
        });
        let stat = m.report().histogram("hot").cloned().expect("recorded");
        assert_eq!(stat.count, 4000);
        assert_eq!(stat.buckets.values().sum::<u64>(), 4000);
    }

    #[test]
    fn clones_share_state() {
        let m = Metrics::enabled();
        let m2 = m.clone();
        m2.add("shared", 2);
        assert_eq!(m.report().counter("shared"), Some(2));
    }

    #[test]
    fn degraded_flag_is_sticky_and_shared() {
        let m = Metrics::enabled();
        assert!(!m.is_degraded());
        m.clone().mark_degraded();
        assert!(m.is_degraded());
        assert!(m.report().degraded);
        // Disabled handles never report degraded.
        let off = Metrics::disabled();
        off.mark_degraded();
        assert!(!off.is_degraded());
        assert!(!off.report().degraded);
    }

    #[test]
    fn counters_are_race_free_across_threads() {
        let m = Metrics::enabled();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let m = m.clone();
                scope.spawn(move || {
                    let c = m.counter("hot");
                    for _ in 0..10_000 {
                        c.incr();
                    }
                    m.add("cold", 1);
                });
            }
        });
        let report = m.report();
        assert_eq!(report.counter("hot"), Some(80_000));
        assert_eq!(report.counter("cold"), Some(8));
    }

    #[test]
    fn record_duration_matches_span_semantics() {
        let m = Metrics::enabled();
        m.record_duration("stage", Duration::from_millis(5));
        m.record_duration("stage", Duration::from_millis(7));
        let stat = m.report().span("stage").cloned().expect("stage");
        assert_eq!(stat.count, 2);
        assert_eq!(stat.total, Duration::from_millis(12));
    }
}
