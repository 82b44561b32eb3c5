#![forbid(unsafe_code)]

//! Differential soundness oracle for the SYMPLE engine.
//!
//! SYMPLE's central claim (§3.6) is that running a UDA in parallel over
//! chunks — symbolically, with restarts, through MapReduce, with faults
//! injected, under any merge policy — produces *exactly* the sequential
//! answer. This crate turns that claim into an executable oracle:
//!
//! * [`cases`] pairs every Table 1 query UDA (plus adversarial synthetic
//!   UDAs) with a deterministic, seeded event generator.
//! * [`cell`] enumerates the execution matrix: executor × chunk count ×
//!   merge policy × restart bound × fault plan.
//! * [`driver`] sweeps the matrix, comparing each cell's rendered output
//!   with the sequential reference and probing two determinism
//!   invariants: re-summarization is byte-identical on the wire, and
//!   fault-injected re-execution matches the clean run.
//! * [`shrink`] delta-debugs any disagreement down to a minimal
//!   `(input, config)` reproducer.
//! * [`artifact`] serializes reproducers as self-contained text files
//!   that replay against any future tree.
//! * [`ast`] is the bounded, serializable UDA language the fuzzer
//!   generates — [`ast::Program`], its [`ast::AstUda`] adapter and an
//!   independent concrete interpreter — and [`fuzz_case`] rebuilds a case
//!   from the `program:` token an artifact embeds.
//! * [`fuzz`] generates and mutates programs, steers by a behavior-class
//!   coverage map, and sweeps each one through the same driver, shrinker
//!   and artifacts as the registry cases.
//!
//! Two binaries front all of this over one command-line front end. In
//! `symple-oracle`, `--smoke` is the CI gate and `--deep --seed <s>` the
//! full-matrix sweep; `symple-fuzz --smoke` is the fuzzing gate. In both,
//! `--replay <file>` is the regression check, and `--sabotage <kind>` a
//! self-test proving the sweep actually detects, shrinks, and replays
//! real soundness breaks.

pub mod adversarial;
pub mod artifact;
pub mod ast;
pub mod case;
pub mod cases;
pub mod cell;
pub mod driver;
pub mod fuzz;
pub mod fuzz_case;
pub mod shrink;

pub use artifact::{Artifact, ReplayOutcome, ReproKind};
pub use case::{CaseInput, DynCase, Sabotage, NO_GROUPS};
pub use cases::{all_cases, case_by_id};
pub use cell::{deep_matrix, smoke_matrix, Cell, ExecutorKind, FaultKind};
pub use driver::{run_oracle, Depth, Finding, OracleOptions, OracleReport};
pub use fuzz_case::{program_case, replay_case, InputKind, FUZZ_CASE_ID};
pub use shrink::shrink_case;
