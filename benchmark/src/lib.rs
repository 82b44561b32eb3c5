#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # symple-benchmark
//!
//! The repo benchmark for SYMPLE-rs: five 1M-row workloads timed from
//! outside the program, seven end-to-end metrics with fixed regression
//! bounds, and per-module layer metrics from a separate traced run.
//! `README.md` next to this package says how to run it and why each
//! workload and metric is there; `spec` holds the definitions
//! `BENCHMARK.json` is rendered from.
//!
//! Everything here calls only `pub` items of the program's crates and
//! changes none of them.

pub mod calibrate;
pub mod cell;
pub mod compare;
pub mod json;
pub mod procstat;
pub mod run;
pub mod spans;
pub mod spec;
pub mod staged;
pub mod stats;
pub mod trace;
pub mod workload;
