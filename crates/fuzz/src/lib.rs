//! Coverage-guided fuzzing for SYMPLE user-defined aggregations.
//!
//! The oracle registry (`crates/oracle`) sweeps a *fixed* set of
//! hand-written UDAs; this crate generates the UDAs too. A random
//! well-typed [`Program`] (bounded AST over the six symbolic state types)
//! is paired with an adversarial input shape
//! ([`InputKind`](symple_oracle::InputKind)), probed for its behavior
//! class (analyzer diagnostics × engine exploration metrics), and
//! differential-checked against the sequential reference through the
//! oracle's own sweep driver. Programs that reach novel behavior seed a
//! mutation corpus; divergences are ddmin-shrunk into self-contained
//! `SYMPLE-ORACLE-REPRO` artifacts whose embedded program token makes
//! them replayable forever — the committed ones under `tests/corpus/`
//! re-run as ordinary `cargo test`.
//!
//! Entry points: [`run_fuzz`] (library) and the `symple-fuzz` CLI.
//!
//! [`Program`]: symple_oracle::ast::Program

pub mod coverage;
pub mod fuzzer;
pub mod gen;
pub mod mutate;

pub use coverage::{bucket, CoverageKey, CoverageMap};
pub use fuzzer::{fuzz_matrix, run_fuzz, FuzzOptions, FuzzReport};
pub use gen::{gen_program, GenConfig};
pub use mutate::mutate;
