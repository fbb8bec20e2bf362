//! # oct-bench — the experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation (§5) over
//! the synthetic datasets of `oct-datagen`. See `EXPERIMENTS.md` at the
//! repository root for the paper-vs-measured record.
//!
//! The entry point is the `repro` binary:
//!
//! ```text
//! repro all --scale 0.05
//! repro fig8a --scale 0.1
//! repro table1
//! ```
//!
//! Each experiment is also exposed as a library function so tests can
//! drive the same code. Performance is recorded by `perfbench/` at the
//! repository root, not here.

#![warn(missing_docs)]

pub mod experiments;
pub mod measure;
pub mod runner;
pub mod table;

pub use measure::{measure, MeasureSpec, Sample};
pub use runner::{run_all_algorithms, AlgoScores, RunnerConfig};
