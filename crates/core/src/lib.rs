#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::or_fun_call)]

//! # symple-core
//!
//! Core library of SYMPLE-rs, a reproduction of *"Parallelizing User-Defined
//! Aggregations using Symbolic Execution"* (Raychev, Musuvathi, Mytkowicz —
//! SOSP 2015).
//!
//! A user-defined aggregation (UDA) iterates over an ordered list of records
//! while reading and updating aggregation state — a loop-carried dependence
//! that normally forces sequential execution in a MapReduce reducer. SYMPLE
//! breaks that dependence with *symbolic parallelism*: every mapper runs the
//! UDA on its chunk starting from an **unknown symbolic state** `x`, and
//! produces a compact **symbolic summary**
//!
//! ```text
//! ⋀ᵢ  PCᵢ(x)  ⇒  s = TFᵢ(x)
//! ```
//!
//! i.e. a disjoint, exhaustive set of *path constraints* `PCᵢ` with per-path
//! *transfer functions* `TFᵢ`. A reducer composes the summaries in input
//! order and recovers exactly the sequential result.
//!
//! The crate provides:
//!
//! * the symbolic data types of §4 of the paper — [`SymInt`], [`SymBool`],
//!   [`SymEnum`], [`SymPred`], [`SymVector`] — each with a canonical
//!   constraint form and a constant-time decision procedure;
//! * the choice-vector path-exploration engine of §5.1
//!   ([`engine::SymbolicExecutor`]);
//! * path merging and path-explosion controls of §3.5/§5.2;
//! * summary application and associative summary composition of §3.6
//!   ([`compose`]);
//! * a compact varint wire format for summaries and records ([`wire`]).
//!
//! # Examples
//!
//! The paper's running example (§3.1) — `Max` as an imperative UDA:
//!
//! ```
//! use symple_core::prelude::*;
//!
//! struct MaxUda;
//!
//! #[derive(Clone, Debug)]
//! struct MaxState {
//!     max: SymInt,
//! }
//! impl_sym_state!(MaxState { max });
//!
//! impl Uda for MaxUda {
//!     type State = MaxState;
//!     type Event = i64;
//!     type Output = i64;
//!
//!     fn init(&self) -> MaxState {
//!         MaxState { max: SymInt::new(i64::MIN) }
//!     }
//!     fn update(&self, s: &mut MaxState, ctx: &mut SymCtx, e: &i64) {
//!         if s.max.lt(ctx, *e) {
//!             s.max.assign(*e);
//!         }
//!     }
//!     fn result(&self, s: &MaxState, _ctx: &mut SymCtx) -> i64 {
//!         s.max.concrete_value().expect("final state is concrete")
//!     }
//! }
//!
//! // Chunked symbolic execution equals the sequential run.
//! let input = [2, 9, 1, 5, 3, 10, 8, 2, 1];
//! let seq = run_sequential(&MaxUda, input.iter()).unwrap();
//! let par = run_chunked_symbolic(&MaxUda, &input, 3, &EngineConfig::default()).unwrap();
//! assert_eq!(seq, 10);
//! assert_eq!(par, 10);
//! ```

pub mod analysis;
pub mod bitset;
pub mod compose;
pub mod ctx;
pub mod engine;
pub mod error;
pub mod frame;
pub mod interval;
pub mod rng;
pub mod state;
pub mod summary;
pub mod types;
pub mod uda;
pub mod wire;

pub use analysis::{analyze_uda, FieldReport, UdaAnalysis, VariantAnalysis};
pub use bitset::BitSet256;
pub use compose::{apply_chain, apply_summary, compose_summaries};
pub use ctx::{ChoiceVector, FootprintOp, OpKind, SymCtx};
pub use engine::{EngineConfig, ExploreStats, MergePolicy, SymbolicExecutor};
pub use error::{Error, Result};
pub use frame::{FrameCheck, FrameMeta};
pub use interval::Interval;
pub use rng::Rng64;
pub use state::{FieldFacts, FieldId, SymField, SymState};
pub use summary::{Summary, SummaryChain};
pub use types::{
    scalar::{ScalarTransfer, SymScalar},
    sym_bool::SymBool,
    sym_enum::SymEnum,
    sym_int::SymInt,
    sym_minmax::{Extremum, SymMinMax},
    sym_pred::SymPred,
    sym_vector::SymVector,
};
pub use uda::{run_chunked_symbolic, run_sequential, Uda};

/// Convenience re-exports for UDA authors.
pub mod prelude {
    pub use crate::wire::{Wire, WireError};
    pub use crate::{
        apply_chain, apply_summary, compose_summaries, impl_sym_state, run_chunked_symbolic,
        run_sequential, EngineConfig, Error, MergePolicy, Result, Summary, SummaryChain, SymBool,
        SymCtx, SymEnum, SymInt, SymPred, SymState, SymVector, SymbolicExecutor, Uda,
    };
}
