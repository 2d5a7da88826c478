//! The repository benchmark: a seeded load generator that drives the real
//! `zeroconf-serve` daemon over its socket with the typed
//! `zeroconf-client`, checks every answer, and reports the end-to-end
//! metrics of `BENCHMARK.json`; with `--trace 1`, a separate traced run
//! that splits each workload's latency across the layers.
//!
//! See `perfbench/README.md` for the workloads, metrics and how to run it.

pub mod daemon;
pub mod gen;
pub mod load;
pub mod replay;
pub mod report;
pub mod stats;
pub mod steal;
pub mod trace;
pub mod verify;
