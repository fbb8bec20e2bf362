//! Execution-layer fault tolerance for the OCT pipeline.
//!
//! Production tree construction runs under compute budgets: a request that
//! would take minutes must instead return the best tree computable within
//! its deadline, flagged as degraded rather than failed. This crate is the
//! shared vocabulary for that contract:
//!
//! - [`Budget`] — a wall-clock deadline plus a cooperative [`CancelToken`],
//!   checked (cheaply, via striding where needed) inside every long-running
//!   loop: exact MIS branching, conflict enumeration, NN-chain clustering,
//!   and parallel scoring. Expiry never aborts; each stage falls back to a
//!   cheaper path (greedy + local search, partial dendrogram, best-so-far).
//! - [`ExecutionError`] — typed failures for isolated workers, so a panic
//!   inside a scoped thread becomes a value instead of a process abort.
//! - [`run_isolated`] — the `catch_unwind` wrapper every scoped worker
//!   closure runs under, and [`panic_message`], which turns a caught
//!   panic payload into text.
//!
//! Every degradation path is tested through its real trigger (a NaN input
//! row, a truncated checkpoint file, a cancelled budget, an out-of-universe
//! item) or, where no input can reach it, by handing the isolation helper a
//! panicking closure. Nothing here is process-global, so tests never
//! interfere with each other.
//!
//! The shard router's per-replica health machine and hedge trigger live in
//! `oct-router`, their only user.

use std::error::Error;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A shared cooperative-cancellation flag.
///
/// Cloning is cheap (one `Arc`); every clone observes the same flag. A
/// cancelled token can never be un-cancelled.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation; all clones observe it on their next check.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Has [`cancel`](Self::cancel) been called on any clone?
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

/// A compute budget: optional wall-clock deadline + cancellation token.
///
/// `Budget` is `Clone` (not `Copy`): clones share the cancellation flag, so
/// cancelling one clone stops every stage holding another. The deadline is
/// an absolute [`Instant`], so clones handed to different pipeline stages
/// expire together regardless of when each stage starts.
///
/// Checking [`expired`](Self::expired) costs one atomic load plus (when a
/// deadline is set) one `Instant::now()` call; hot loops amortize it with
/// [`check_every`](Self::check_every).
#[derive(Debug, Clone, Default)]
pub struct Budget {
    deadline: Option<Instant>,
    token: CancelToken,
}

impl Budget {
    /// A budget that never expires (cancellation still works).
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// A budget expiring `timeout` from now. A zero `timeout` is the
    /// explicit "no time at all" budget and behaves exactly like
    /// [`expired_now`](Self::expired_now): every check fails immediately
    /// and `remaining()` is zero, rather than racing `Instant::now()`.
    pub fn with_deadline(timeout: Duration) -> Self {
        if timeout.is_zero() {
            return Self::expired_now();
        }
        Self {
            deadline: Some(Instant::now() + timeout),
            token: CancelToken::new(),
        }
    }

    /// A budget expiring `ms` milliseconds from now; `0` is equivalent to
    /// [`expired_now`](Self::expired_now) (see [`with_deadline`](Self::with_deadline)).
    pub fn with_deadline_ms(ms: u64) -> Self {
        Self::with_deadline(Duration::from_millis(ms))
    }

    /// A budget with an optional deadline sharing an existing cancellation
    /// token, so one token can cancel many budgets at once (e.g. a server
    /// cancelling every in-flight request's budget on hard drain). A zero
    /// deadline expires immediately, like [`with_deadline`](Self::with_deadline).
    pub fn with_deadline_and_token(timeout: Option<Duration>, token: CancelToken) -> Self {
        // `Instant::now() + ZERO` is already `<=` every later clock read, so
        // a zero timeout is expired from the first check on — without
        // cancelling the *shared* token (which would sink sibling budgets).
        Self {
            deadline: timeout.map(|t| Instant::now() + t),
            token,
        }
    }

    /// A budget already expired at construction — every check fails
    /// immediately. Useful for tests and for forcing heuristic-only paths.
    pub fn expired_now() -> Self {
        let b = Self::unlimited();
        b.token.cancel();
        b
    }

    /// The cancellation token shared by all clones of this budget.
    pub fn token(&self) -> &CancelToken {
        &self.token
    }

    /// Does this budget carry a deadline or a (possibly triggered)
    /// cancellation? `false` for a pristine [`unlimited`](Self::unlimited)
    /// budget, letting callers skip clock reads entirely.
    pub fn is_limited(&self) -> bool {
        self.deadline.is_some() || self.token.is_cancelled()
    }

    /// `true` once the deadline has passed or cancellation was requested.
    pub fn expired(&self) -> bool {
        if self.token.is_cancelled() {
            return true;
        }
        match self.deadline {
            Some(d) => Instant::now() >= d,
            None => false,
        }
    }

    /// Strided check for hot loops: reads the clock only once every
    /// `stride` calls (as counted by the caller's running `counter`).
    /// Returns `true` when the budget is expired.
    #[inline]
    pub fn check_every(&self, counter: u64, stride: u64) -> bool {
        if !counter.is_multiple_of(stride.max(1)) {
            return false;
        }
        self.expired()
    }

    /// Time remaining until the deadline (`None` when unlimited; zero once
    /// expired or cancelled).
    pub fn remaining(&self) -> Option<Duration> {
        if self.token.is_cancelled() {
            return Some(Duration::ZERO);
        }
        self.deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
    }
}

/// Typed failures from the resilient execution layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecutionError {
    /// A scoped worker thread panicked; the panic was contained by
    /// [`run_isolated`] instead of aborting the process.
    WorkerPanicked {
        /// Which parallel stage the worker belonged to.
        context: &'static str,
        /// The panic payload, when it was a string.
        message: String,
    },
}

impl fmt::Display for ExecutionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::WorkerPanicked { context, message } => {
                write!(f, "worker panicked in {context}: {message}")
            }
        }
    }
}

impl Error for ExecutionError {}

/// Extracts a human-readable message from a panic payload.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Runs `f` under `catch_unwind`, converting a panic into
/// [`ExecutionError::WorkerPanicked`] tagged with `context`.
///
/// The closure is wrapped in [`AssertUnwindSafe`]: workers in this codebase
/// write only to thread-private state that is discarded on `Err`, so no
/// broken invariant escapes.
pub fn run_isolated<T>(context: &'static str, f: impl FnOnce() -> T) -> Result<T, ExecutionError> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| ExecutionError::WorkerPanicked {
        context,
        message: panic_message(payload.as_ref()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_expires() {
        let b = Budget::unlimited();
        assert!(!b.is_limited());
        assert!(!b.expired());
        assert_eq!(b.remaining(), None);
        assert!(!b.check_every(0, 256));
    }

    #[test]
    fn deadline_expires() {
        let b = Budget::with_deadline(Duration::ZERO);
        assert!(b.is_limited());
        assert!(b.expired());
        assert_eq!(b.remaining(), Some(Duration::ZERO));
        let later = Budget::with_deadline_ms(60_000);
        assert!(!later.expired());
        assert!(later.remaining().expect("has deadline") > Duration::from_secs(1));
    }

    #[test]
    fn cancellation_propagates_to_clones() {
        let b = Budget::unlimited();
        let clone = b.clone();
        assert!(!clone.expired());
        b.token().cancel();
        assert!(clone.expired());
        assert!(clone.is_limited());
        assert_eq!(clone.remaining(), Some(Duration::ZERO));
    }

    #[test]
    fn expired_now_is_expired() {
        assert!(Budget::expired_now().expired());
    }

    #[test]
    fn zero_deadline_is_expired_now() {
        // `with_deadline_ms(0)` must behave exactly like `expired_now()`:
        // the CLI and the library agree that "0 ms" means "no time at all".
        for b in [
            Budget::with_deadline_ms(0),
            Budget::with_deadline(Duration::ZERO),
        ] {
            assert!(b.expired(), "zero budget expires immediately");
            assert!(b.is_limited());
            assert_eq!(b.remaining(), Some(Duration::ZERO));
            assert!(b.check_every(0, 1), "first strided check already fails");
        }
    }

    #[test]
    fn cancel_is_visible_to_clones_made_before_and_after() {
        // Cancel-before-clone: a clone taken *after* cancellation must
        // observe it just like one taken before.
        let original = Budget::unlimited();
        let early_clone = original.clone();
        original.token().cancel();
        let late_clone = original.clone();
        for b in [&original, &early_clone, &late_clone] {
            assert!(b.expired());
            assert!(b.token().is_cancelled());
            assert_eq!(b.remaining(), Some(Duration::ZERO));
        }
        // Same for a bare CancelToken cloned after cancel.
        let token = CancelToken::new();
        token.cancel();
        assert!(token.clone().is_cancelled());
    }

    #[test]
    fn check_every_strides() {
        let b = Budget::expired_now();
        assert!(!b.check_every(1, 256), "off-stride counters skip the check");
        assert!(b.check_every(256, 256));
        assert!(b.check_every(0, 0), "zero stride is clamped to 1");
    }

    #[test]
    fn check_every_stride_boundaries() {
        let b = Budget::expired_now();
        // Counter 0 is a multiple of every stride: always a real check.
        assert!(b.check_every(0, 1));
        assert!(b.check_every(0, u64::MAX));
        // Stride 1 checks on every counter value.
        for counter in [1, 2, 3, u64::MAX] {
            assert!(b.check_every(counter, 1));
        }
        // Exact multiples check; off-by-one neighbors don't.
        assert!(b.check_every(512, 256));
        assert!(!b.check_every(511, 256));
        assert!(!b.check_every(513, 256));
        // Wraparound-adjacent counters: u64::MAX is not a multiple of 256,
        // and the check never panics at the extremes.
        assert!(!b.check_every(u64::MAX, 256));
        assert!(b.check_every(u64::MAX, u64::MAX));
        // An unlimited budget reports not-expired even on a real check.
        assert!(!Budget::unlimited().check_every(0, 1));
    }

    #[test]
    fn remaining_at_and_after_expiry_is_zero() {
        // At/after the deadline `remaining()` saturates to zero, never
        // underflows, and stays zero on later reads.
        let b = Budget::with_deadline(Duration::from_millis(1));
        std::thread::sleep(Duration::from_millis(5));
        assert!(b.expired());
        assert_eq!(b.remaining(), Some(Duration::ZERO));
        assert_eq!(b.remaining(), Some(Duration::ZERO), "stays zero");
        // Cancellation forces zero remaining even with a far deadline.
        let far = Budget::with_deadline_ms(3_600_000);
        assert!(far.remaining().expect("deadline set") > Duration::from_secs(1));
        far.token().cancel();
        assert_eq!(far.remaining(), Some(Duration::ZERO));
    }

    #[test]
    fn shared_token_budgets_expire_together() {
        let token = CancelToken::new();
        let a = Budget::with_deadline_and_token(None, token.clone());
        let b = Budget::with_deadline_and_token(Some(Duration::from_secs(3600)), token.clone());
        assert!(!a.expired() && !b.expired());
        token.cancel();
        assert!(a.expired() && b.expired());
        // A zero timeout expires immediately without sinking siblings.
        let token = CancelToken::new();
        let zero = Budget::with_deadline_and_token(Some(Duration::ZERO), token.clone());
        let sibling = Budget::with_deadline_and_token(None, token);
        assert!(zero.expired());
        assert!(!sibling.expired(), "shared token must not be cancelled");
    }

    #[test]
    fn run_isolated_passes_through_success() {
        assert_eq!(run_isolated("test", || 41 + 1), Ok(42));
    }

    #[test]
    fn run_isolated_contains_panics() {
        let err = run_isolated("score workers", || -> u32 { panic!("boom {}", 7) })
            .expect_err("panic must surface as Err");
        match &err {
            ExecutionError::WorkerPanicked { context, message } => {
                assert_eq!(*context, "score workers");
                assert_eq!(message, "boom 7");
            }
        }
        assert_eq!(err.to_string(), "worker panicked in score workers: boom 7");
    }

    #[test]
    fn panic_message_handles_str_and_string() {
        let boxed: Box<dyn std::any::Any + Send> = Box::new("static");
        assert_eq!(panic_message(boxed.as_ref()), "static");
        let boxed: Box<dyn std::any::Any + Send> = Box::new(String::from("owned"));
        assert_eq!(panic_message(boxed.as_ref()), "owned");
        let boxed: Box<dyn std::any::Any + Send> = Box::new(17u8);
        assert_eq!(panic_message(boxed.as_ref()), "non-string panic payload");
    }
}
