//! # oct-serve — overload-resilient category-tree query serving
//!
//! The batch pipeline (`oct-cli build` / `score`) produces a category tree
//! once; this crate keeps one *running* — a daemon that loads a persisted
//! `.oct` tree and answers point queries (categorize, score, navigate)
//! over a line-delimited TCP protocol, built around the failure modes a
//! long-lived service actually meets:
//!
//! * **Admission control & load shedding** ([`queue`]) — a bounded queue
//!   in front of a fixed worker pool. At capacity, clients get a typed
//!   `OVERLOADED` response immediately; the daemon never buffers without
//!   bound and never makes admitted requests pay for un-admitted ones.
//! * **Deadlines** — every request runs under a
//!   [`Budget`](oct_resilience::Budget) cut from the server-wide deadline
//!   policy; slow scans degrade to a pessimistic partial cover
//!   (`degraded=1` on the wire) instead of blowing the latency budget.
//! * **Panic containment** — each cover runs under
//!   [`run_isolated`](oct_resilience::run_isolated). A cover is a pure
//!   function of (tree, request), so a retry would hit the same panic: it
//!   is answered with `ERR internal` and the connection keeps serving.
//!   Failover to another replica lives in `oct-router`, where failures
//!   are transient.
//! * **Graceful drain** ([`daemon`]) — SIGTERM/SIGINT/`SHUTDOWN` stop
//!   admission, let in-flight work finish (cancelling stragglers through a
//!   shared [`CancelToken`](oct_resilience::CancelToken) after a grace
//!   period), then flush metrics as a
//!   [`PipelineReport`](oct_obs::PipelineReport).
//! * **Hot tree swap** ([`swap`]) — a rebuild publishes a complete new
//!   snapshot (tree + point index + stats) through one atomic handle;
//!   in-flight requests keep the snapshot they started with, so no request
//!   ever sees a torn tree.
//!
//! ```no_run
//! use oct_serve::prelude::*;
//! use oct_core::{CategoryTree, Similarity};
//!
//! let tree = ServingTree::build(CategoryTree::new(), 100, 0, "inline");
//! let server = Server::bind(ServeConfig::default(), tree)?;
//! let addr = server.local_addr()?;
//! std::thread::spawn(move || server.run());
//!
//! let resp = oct_serve::client::one_shot(addr, &Request::Categorize {
//!     items: vec![1, 2, 3],
//!     shard: None,
//! })?;
//! # Ok::<(), std::io::Error>(())
//! ```

#![warn(missing_docs)]

pub mod client;
pub mod daemon;
pub mod loadgen;
pub mod protocol;
pub mod queue;
pub mod server;
pub mod signal;
pub mod swap;

pub use client::Client;
pub use daemon::DrainHandle;
pub use loadgen::{Arrival, KeyDist, LoadGenConfig, LoadGenOutcome};
pub use protocol::{ErrorCode, Request, Response};
pub use queue::{BoundedQueue, Push};
pub use server::{ServeConfig, Server};
pub use swap::{ServingTree, TreeHandle};

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::client::{one_shot, Client};
    pub use crate::daemon::DrainHandle;
    pub use crate::protocol::{ErrorCode, Request, Response};
    pub use crate::server::{ServeConfig, Server};
    pub use crate::swap::{ServingTree, TreeHandle};
}
