//! `octree` — build, score, and inspect category trees from query logs.
//!
//! ```text
//! octree build   --log queries.tsv --items 50000 [--variant threshold-jaccard]
//!                [--delta 0.8] [--out tree.oct] [--no-merge]
//! octree score   --tree tree.oct --log queries.tsv --items 50000
//!                [--variant threshold-jaccard] [--delta 0.8]
//! octree inspect --tree tree.oct [--depth 3]
//! octree export  --dataset A --scale 0.05 --out queries.tsv
//! octree dot     --tree tree.oct --out tree.dot
//! octree diff    --tree new.oct --against old.oct --items 50000
//! octree serve   --tree tree.oct --addr 127.0.0.1:7171
//! octree query   --send 'CATEGORIZE 1,2,3' --addr 127.0.0.1:7171
//! octree router  --shards '127.0.0.1:7171,127.0.0.1:7172;127.0.0.1:7173'
//! octree loadgen --items 50000 --addr 127.0.0.1:7272 --rps 400 --zipf 1.1
//! ```
//!
//! The log format is the TSV of `oct_datagen::loader`:
//! `query\tdaily_frequency\titem:relevance,...`.

mod args;
mod commands;

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // Last-resort isolation: a bug anywhere below surfaces as a one-line
    // error and a nonzero exit, never an abort with a backtrace dump.
    // Only an argument error is followed by the usage text.
    let outcome = std::panic::catch_unwind(|| match args::parse(&argv) {
        Ok(command) => commands::run(command),
        Err(e) => Err(format!("{e}\n\n{}", args::USAGE)),
    });
    match outcome {
        Ok(Ok(())) => ExitCode::SUCCESS,
        Ok(Err(e)) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
        Err(panic) => {
            let message = panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or("unknown internal error");
            eprintln!("error: internal failure: {message}");
            ExitCode::FAILURE
        }
    }
}
