//! The UDA programming model (§2.1 of the paper) and reference runners.
//!
//! SYMPLE implements every aggregation with the template
//!
//! ```text
//! V Aggregate(K key, List<E> input) {
//!     State s;                      // init
//!     foreach (e in input) Update(s, e);
//!     return Result(s);
//! }
//! ```
//!
//! The user provides the initial state, the per-record `Update`, and the
//! pure `Result` extractor. All loop-carried state must live in the
//! [`crate::SymState`] struct; `Update` must be deterministic and free of
//! side effects outside the state.

use crate::compose::apply_chain;
use crate::ctx::SymCtx;
use crate::engine::{EngineConfig, SymbolicExecutor};
use crate::error::Result;
use crate::state::SymState;
use crate::summary::SummaryChain;

/// A user-defined aggregation over an ordered sequence of records.
pub trait Uda: Send + Sync {
    /// The aggregation state (all loop-carried dependences).
    type State: SymState;
    /// The per-record event type produced by the groupby.
    type Event;
    /// The aggregation result type.
    ///
    /// `Hash` because a job's output is fingerprinted by value: every
    /// `(key, output)` row goes through [`std::hash::Hash`] into a
    /// [`crate::frame::WordHasher`], and backends must agree on the
    /// fingerprint to agree with the sequential run (§2.3).
    type Output: std::hash::Hash;

    /// The initial (concrete) aggregation state.
    fn init(&self) -> Self::State;

    /// Updates the state for one record.
    ///
    /// Must be deterministic, must capture all side effects in the state,
    /// and must not contain loops whose trip count depends on symbolic
    /// state (§5.2 — such loops make path exploration unbounded).
    fn update(&self, s: &mut Self::State, ctx: &mut SymCtx, e: &Self::Event);

    /// Extracts the result from a final, fully concrete state.
    ///
    /// Must be pure (§2.1). Runs with a concrete-mode context, so any
    /// branch on still-symbolic state is reported as an error.
    fn result(&self, s: &Self::State, ctx: &mut SymCtx) -> Self::Output;
}

/// Runs a UDA concretely over `events`, returning the final state.
///
/// This is both the sequential baseline and what SYMPLE's *first* mapper
/// does (it knows the true initial state, §2.2).
pub fn run_concrete_state<'e, U: Uda>(
    uda: &U,
    events: impl IntoIterator<Item = &'e U::Event>,
) -> Result<U::State>
where
    U::Event: 'e,
{
    let mut s = uda.init();
    let mut ctx = SymCtx::concrete();
    for e in events {
        uda.update(&mut s, &mut ctx, e);
        if let Some(err) = ctx.take_error() {
            return Err(err);
        }
    }
    Ok(s)
}

/// Extracts the UDA result from a final state, checking purity errors.
pub fn extract_result<U: Uda>(uda: &U, s: &U::State) -> Result<U::Output> {
    let mut ctx = SymCtx::concrete();
    let out = uda.result(s, &mut ctx);
    match ctx.take_error() {
        Some(err) => Err(err),
        None => Ok(out),
    }
}

/// Runs a UDA sequentially over `events` — the reference semantics every
/// symbolic execution must reproduce exactly.
pub fn run_sequential<'e, U: Uda>(
    uda: &U,
    events: impl IntoIterator<Item = &'e U::Event>,
) -> Result<U::Output>
where
    U::Event: 'e,
{
    let s = run_concrete_state(uda, events)?;
    extract_result(uda, &s)
}

/// Symbolically executes one chunk, returning its summary chain.
pub fn summarize_chunk<'e, U: Uda>(
    uda: &U,
    events: impl IntoIterator<Item = &'e U::Event>,
    cfg: &EngineConfig,
) -> Result<SummaryChain<U::State>>
where
    U::Event: 'e,
{
    let mut exec = SymbolicExecutor::new(uda, *cfg);
    exec.feed_all(events)?;
    Ok(exec.finish().0)
}

/// End-to-end chunked execution (§2.2, Figure 2): splits `input` into
/// `num_chunks` contiguous chunks, runs the first concretely and the rest
/// symbolically (as parallel mappers would), then composes in order.
///
/// The output provably equals [`run_sequential`] on the same input — the
/// soundness property the property-based tests exercise.
pub fn run_chunked_symbolic<U: Uda>(
    uda: &U,
    input: &[U::Event],
    num_chunks: usize,
    cfg: &EngineConfig,
) -> Result<U::Output> {
    let num_chunks = num_chunks.max(1);
    let chunk_len = input.len().div_ceil(num_chunks).max(1);
    let mut chunks = input.chunks(chunk_len);

    // First chunk: concrete partial aggregation.
    let first = chunks.next().unwrap_or(&[]);
    let mut state = run_concrete_state(uda, first)?;

    // Remaining chunks: symbolic summaries, then in-order application.
    for chunk in chunks {
        let chain = summarize_chunk(uda, chunk, cfg)?;
        state = apply_chain(&chain, &state)?;
    }
    extract_result(uda, &state)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::impl_sym_state;
    use crate::types::sym_bool::SymBool;
    use crate::types::sym_int::SymInt;
    use crate::types::sym_vector::SymVector;

    /// The Figure 1 UDA, reduced: count events above a threshold since the
    /// last "reset" marker, reporting counts > 2 at each reset.
    struct Sessions;

    #[derive(Clone, Debug)]
    struct SessState {
        active: SymBool,
        count: SymInt,
        out: SymVector<i64>,
    }
    impl_sym_state!(SessState { active, count, out });

    impl Uda for Sessions {
        type State = SessState;
        type Event = i64;
        type Output = Vec<i64>;
        fn init(&self) -> SessState {
            SessState {
                active: SymBool::new(false),
                count: SymInt::new(0),
                out: SymVector::new(),
            }
        }
        fn update(&self, s: &mut SessState, ctx: &mut SymCtx, e: &i64) {
            if *e == 0 {
                // Session start marker.
                s.active.assign(true);
                s.count.assign(0);
            } else if *e == -1 {
                // Session end marker: report long sessions.
                if s.active.get(ctx) {
                    if s.count.gt(ctx, 2) {
                        s.out.push_int(&s.count);
                    }
                    s.active.assign(false);
                }
            } else if s.active.get(ctx) {
                s.count += 1;
            }
        }
        fn result(&self, s: &SessState, _ctx: &mut SymCtx) -> Vec<i64> {
            s.out.concrete_elems().expect("concrete at result time")
        }
    }

    #[test]
    fn sequential_reference() {
        let input = [5, 0, 1, 1, 1, 1, -1, 0, 1, -1, 0, 1, 1, 1, -1];
        let out = run_sequential(&Sessions, input.iter()).unwrap();
        assert_eq!(out, vec![4, 3]);
    }

    #[test]
    fn chunked_matches_sequential_all_splits() {
        let input = [5, 0, 1, 1, 1, 1, -1, 0, 1, -1, 0, 1, 1, 1, -1];
        let expect = run_sequential(&Sessions, input.iter()).unwrap();
        for n in 1..=input.len() {
            let got = run_chunked_symbolic(&Sessions, &input, n, &EngineConfig::default()).unwrap();
            assert_eq!(got, expect, "chunks = {n}");
        }
    }

    #[test]
    fn empty_input() {
        let out = run_chunked_symbolic(&Sessions, &[], 4, &EngineConfig::default()).unwrap();
        assert!(out.is_empty());
        assert_eq!(
            run_sequential(&Sessions, [].iter()).unwrap(),
            Vec::<i64>::new()
        );
    }

    #[test]
    fn chunk_boundary_mid_session() {
        // A session straddling every chunk boundary still reports exactly
        // once with the correct count.
        let input = [0, 1, 1, 1, 1, 1, 1, -1];
        for n in 2..=4 {
            let got = run_chunked_symbolic(&Sessions, &input, n, &EngineConfig::default()).unwrap();
            assert_eq!(got, vec![6], "chunks = {n}");
        }
    }

    #[test]
    fn summarize_chunk_stats() {
        let chain = summarize_chunk(&Sessions, [1, -1].iter(), &EngineConfig::default()).unwrap();
        assert!(chain.total_paths() >= 1);
    }
}
