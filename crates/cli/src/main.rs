//! `megh` — the command-line front end of the Megh reproduction.
//!
//! See `megh help` for usage; the heavy lifting lives in the library
//! crates (`megh-sim`, `megh-core`, `megh-baselines`, `megh-trace`).

// No unsafe code anywhere in this crate (also enforced by `cargo run -p lint`).
#![forbid(unsafe_code)]

mod args;
mod commands;

use std::process::ExitCode;

/// Counts every heap allocation, per thread. `simulate` runs each
/// scheduler on the calling thread and reads that thread's per-run
/// deltas to report hot-path allocation behaviour alongside decision
/// latency (see `latency_alloc_report.json`).
#[global_allocator]
static ALLOC: megh_core::diagnostics::CountingAllocator =
    megh_core::diagnostics::CountingAllocator::system();

fn main() -> ExitCode {
    let parsed = args::Args::parse(std::env::args().skip(1));
    match commands::dispatch(&parsed) {
        Ok(output) => {
            print!("{output}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
