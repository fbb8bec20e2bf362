//! `oct-router` — fault-tolerant sharded serving for category-tree
//! queries.
//!
//! A std-only TCP front-end that speaks the same line protocol as
//! `oct-serve` and scatter-gathers queries across a sharded, replicated
//! backend fleet:
//!
//! - **Placement** ([`shard`]): a consistent-hash ring maps item ids to
//!   shards; rendezvous hashing picks each request's replica (and its
//!   deterministic failover order).
//! - **Robustness** ([`replica`], [`router`]): the worker thread that
//!   holds the client connection writes every shard's sub-request, then
//!   reads the answers in shard order by absolute deadlines. One failover
//!   rule covers failures and stragglers: a failed attempt, or one past
//!   its [`hedge`] deadline (the replica's tracked p90) while another
//!   candidate exists, goes to the next candidate. One [`health`] machine
//!   per replica (Up→Suspect→Down→Probing) decides which replicas take
//!   attempts. All of it is bounded by one per-request
//!   [`oct_resilience::Budget`].
//! - **Degradation** ([`merge`]): when a whole shard is unreachable, the
//!   surviving shards' answers merge deterministically into a cover
//!   carrying the typed `partial=1 missing=<ids>` marker instead of an
//!   error; for a fixed set of live shards the merged line is
//!   byte-identical across runs.
//!
//! The router runs `oct-serve`'s own daemon lifecycle
//! ([`oct_serve::daemon`]): bounded admission queue with typed
//! `OVERLOADED` shedding, the connection loop, graceful drain, metrics
//! report on exit. See DESIGN.md §17 for the architecture discussion.

#![warn(missing_docs)]

pub mod health;
pub mod hedge;
pub mod merge;
pub mod replica;
pub mod router;
pub mod shard;

pub use health::{HealthConfig, HealthState};
pub use merge::{merge_covers, SubCover};
pub use oct_serve::DrainHandle;
pub use replica::Replica;
pub use router::{Router, RouterConfig};
pub use shard::{rendezvous_order, request_key, ShardMap};
