#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # symple-obs
//!
//! The workspace's dependency-free leaf crate: the one hand-rolled
//! [`json`] value (printer + parser) every machine-readable surface links.
//!
//! There is no telemetry here. What a job did is the `JobMetrics` value it
//! returns (`symple_mapreduce::metrics`), scoped to that job by
//! construction; `SYMPLE_OBS=1 symple-cli run …` prints it.

pub mod json;

/// No-op shim: nothing records, so there is nothing to switch on. Kept
/// only because `benchmark/src/trace.rs` links it (its `obs.*` rows time
/// the same job twice); goes at the benchmark re-anchor.
pub fn set_enabled(_on: bool) {}

/// No-op shim, kept for the same one caller as [`set_enabled`].
pub fn reset() {}
