//! End-to-end and per-layer benchmark of the WAFL free-space simulator.
//!
//! `cargo run --release --manifest-path perfbench/Cargo.toml -- --workload
//! <name> --seed <n> --seconds <s> --trace <0|1>` sets up the named
//! workload, measures it for the given time through the public API of
//! `wafl-fs`, checks the result, and prints its metrics. The last line
//! of standard output is one JSON object; `README.md` describes the
//! workloads, the metrics and the layers they belong to.

#![warn(missing_docs)]

pub mod bench;
pub mod host;
pub mod metrics;
pub mod runner;
pub mod spans;
pub mod workload;
