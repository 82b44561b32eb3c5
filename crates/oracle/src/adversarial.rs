//! Adversarial synthetic UDAs: aggregations engineered to stress the
//! engine's failure paths rather than model real queries.
//!
//! The Table 1 queries are well-behaved by construction. These four are
//! not: one overflows, one forks unmergeably on every record (forcing the
//! §5.2 restart fallback), one funnels symbolic scalars through
//! `SymVector` on data-dependent branches, and one reports values whose
//! substitution overflows at the reducer. Soundness must hold anyway —
//! same output, or the same error, as the sequential run.

use symple_core::ctx::SymCtx;
use symple_core::impl_sym_state;
use symple_core::rng::Rng64;
use symple_core::types::{sym_int::SymInt, sym_pred::SymPred, sym_vector::SymVector};
use symple_core::uda::Uda;

/// Sums events into an `i64` with no guard: large inputs overflow, and
/// the overflow must surface as [`symple_core::Error::ArithmeticOverflow`]
/// from every executor — never as a silently wrapped `Ok`.
///
/// Events are kept non-negative (see [`overflow_ints`]) so partial sums
/// are monotone: whether overflow occurs is then a property of the input
/// alone, not of where chunk boundaries fall.
pub struct OverflowSumUda;

/// State of [`OverflowSumUda`].
#[derive(Clone, Debug)]
pub struct OverflowState {
    /// The running (overflow-prone) sum.
    pub sum: SymInt,
}
impl_sym_state!(OverflowState { sum });

impl Uda for OverflowSumUda {
    type State = OverflowState;
    type Event = i64;
    type Output = i64;
    fn init(&self) -> OverflowState {
        OverflowState {
            sum: SymInt::new(0),
        }
    }
    fn update(&self, s: &mut OverflowState, ctx: &mut SymCtx, e: &i64) {
        s.sum.add(ctx, *e);
    }
    fn result(&self, s: &OverflowState, _ctx: &mut SymCtx) -> i64 {
        s.sum.concrete_value().unwrap_or(i64::MIN)
    }
}

/// Analyzer event variants for [`OverflowSumUda`]: the two regimes of
/// [`overflow_ints`]. The giant variant gives the analyzer the worst-case
/// growth step, so it can see the overflow proneness statically.
pub fn overflow_variants() -> Vec<(&'static str, i64)> {
    vec![("small", 7), ("giant", i64::MAX / 8)]
}

/// Non-negative events for [`OverflowSumUda`]: mostly small, with ~4%
/// huge values so that longer streams genuinely overflow `i64`.
pub fn overflow_ints(seed: u64, len: usize) -> Vec<i64> {
    let mut rng = Rng64::seed_from_u64(seed);
    (0..len)
        .map(|_| {
            if rng.gen_bool(0.04) {
                i64::MAX / 8
            } else {
                rng.gen_range(0i64..1_000)
            }
        })
        .collect()
}

/// Forks on a never-rebound black-box predicate with fresh arguments on
/// every record, so no two paths ever merge: live paths double per record
/// and the engine *must* take the restart fallback (§5.2) to finish.
/// Exercises multi-summary [`symple_core::SummaryChain`]s everywhere.
pub struct RestartProneUda;

/// State of [`RestartProneUda`].
#[derive(Clone, Debug)]
pub struct RestartState {
    /// Never-assigned predicate: every eval is a fresh fork.
    pub p: SymPred<i64>,
    /// Accumulator with per-path distinct transfers.
    pub acc: SymInt,
}
impl_sym_state!(RestartState { p, acc });

impl Uda for RestartProneUda {
    type State = RestartState;
    type Event = i64;
    type Output = i64;
    fn init(&self) -> RestartState {
        RestartState {
            p: SymPred::new(|a: &i64, b: &i64| a < b).with_max_decisions(64),
            acc: SymInt::new(0),
        }
    }
    fn update(&self, s: &mut RestartState, ctx: &mut SymCtx, e: &i64) {
        // Never calls `set`: decisions accumulate, and the distinct added
        // constants keep the two sides of every fork unmergeable.
        if s.p.eval(ctx, e) {
            s.acc.add(ctx, *e);
        }
    }
    fn result(&self, s: &RestartState, _ctx: &mut SymCtx) -> i64 {
        s.acc.concrete_value().unwrap_or(i64::MIN)
    }
}

/// Analyzer event variants for [`RestartProneUda`]: the extremes of
/// [`restart_ints`]. Either sign forks the never-set predicate; the small
/// growth steps keep the overflow lint quiet, so the predicate-window
/// finding stands alone.
pub fn restart_variants() -> Vec<(&'static str, i64)> {
    vec![("low", -50), ("high", 49)]
}

/// Small signed events for [`RestartProneUda`]; distinct values keep the
/// fork transfers distinct.
pub fn restart_ints(seed: u64, len: usize) -> Vec<i64> {
    let mut rng = Rng64::seed_from_u64(seed);
    (0..len).map(|_| rng.gen_range(-50i64..50)).collect()
}

/// Pushes *symbolic* integers into a `SymVector` on data-dependent
/// branches: the vector's pending symbolic elements must survive
/// encoding, composition, and late binding intact.
pub struct VectorHeavyUda;

/// State of [`VectorHeavyUda`].
#[derive(Clone, Debug)]
pub struct VectorState {
    /// Running counter (symbolic across chunk boundaries).
    pub n: SymInt,
    /// Reported values, possibly still symbolic when pushed.
    pub out: SymVector<i64>,
}
impl_sym_state!(VectorState { n, out });

impl Uda for VectorHeavyUda {
    type State = VectorState;
    type Event = i64;
    type Output = Vec<i64>;
    fn init(&self) -> VectorState {
        VectorState {
            n: SymInt::new(0),
            out: SymVector::new(),
        }
    }
    fn update(&self, s: &mut VectorState, ctx: &mut SymCtx, e: &i64) {
        s.n.add(ctx, *e);
        if s.n.gt(ctx, 10) {
            s.out.push_int(&s.n);
            s.n.assign(0);
        }
    }
    fn result(&self, s: &VectorState, _ctx: &mut SymCtx) -> Vec<i64> {
        s.out.concrete_elems().unwrap_or_default()
    }
}

/// Analyzer event variants for [`VectorHeavyUda`]: increments below and
/// near the top of the [`vector_ints`] range, so the analysis sees both
/// the quiet path and the report-and-reset path.
pub fn vector_variants() -> Vec<(&'static str, i64)> {
    vec![("small", 3), ("large", 6)]
}

/// Small non-negative increments for [`VectorHeavyUda`]: several events
/// per report, so chunk boundaries regularly split a pending report.
pub fn vector_ints(seed: u64, len: usize) -> Vec<i64> {
    let mut rng = Rng64::seed_from_u64(seed);
    (0..len).map(|_| rng.gen_range(0i64..7)).collect()
}

/// Reports four times a running sum on every record: the report can
/// overflow `i64` where the sum itself cannot. In a symbolic chunk each
/// report is the element `4·x + b` of the chunk's one path, so the
/// overflow surfaces only at the reducer, when that path holds and its
/// elements are substituted with the running sum — the check the wire
/// tier makes before it appends (`SymField::check_aggregate`), and
/// nowhere else.
///
/// Events are non-negative (see [`scaled_ints`]), so whether a report
/// overflows is a property of the input alone, as in [`OverflowSumUda`].
pub struct ScaledReportUda;

/// State of [`ScaledReportUda`].
#[derive(Clone, Debug)]
pub struct ScaledState {
    /// The running sum.
    pub n: SymInt,
    /// Four times the running sum after each record.
    pub out: SymVector<i64>,
}
impl_sym_state!(ScaledState { n, out });

impl Uda for ScaledReportUda {
    type State = ScaledState;
    type Event = i64;
    type Output = Vec<i64>;
    fn init(&self) -> ScaledState {
        ScaledState {
            n: SymInt::new(0),
            out: SymVector::new(),
        }
    }
    fn update(&self, s: &mut ScaledState, ctx: &mut SymCtx, e: &i64) {
        s.n.add(ctx, *e);
        let mut report = s.n;
        report.mul(ctx, 4);
        s.out.push_int(&report);
    }
    fn result(&self, s: &ScaledState, _ctx: &mut SymCtx) -> Vec<i64> {
        s.out.concrete_elems().unwrap_or_default()
    }
}

/// Analyzer event variants for [`ScaledReportUda`]: the two regimes of
/// [`scaled_ints`].
pub fn scaled_variants() -> Vec<(&'static str, i64)> {
    vec![("small", 7), ("giant", i64::MAX / 10)]
}

/// Non-negative events for [`ScaledReportUda`]: mostly small, with ~5%
/// giants, so that a stream with three of them overflows a report while
/// its sum still fits.
pub fn scaled_ints(seed: u64, len: usize) -> Vec<i64> {
    let mut rng = Rng64::seed_from_u64(seed);
    (0..len)
        .map(|_| {
            if rng.gen_bool(0.05) {
                i64::MAX / 10
            } else {
                rng.gen_range(0i64..1_000)
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use symple_core::engine::{EngineConfig, MergePolicy, SymbolicExecutor};
    use symple_core::uda::{run_chunked_symbolic, run_sequential};
    use symple_core::Error;

    #[test]
    fn overflow_is_input_determined() {
        // A stream with two giants overflows sequentially and chunked.
        let mut events = overflow_ints(11, 40);
        events.extend([i64::MAX / 2, i64::MAX / 2]);
        let seq = run_sequential(&OverflowSumUda, events.iter());
        assert!(
            matches!(seq, Err(Error::ArithmeticOverflow { .. })),
            "{seq:?}"
        );
        for chunks in [2, 3, 5] {
            let par =
                run_chunked_symbolic(&OverflowSumUda, &events, chunks, &EngineConfig::default());
            assert!(
                matches!(par, Err(Error::ArithmeticOverflow { .. })),
                "chunks={chunks}: {par:?}"
            );
        }
    }

    #[test]
    fn restart_prone_actually_restarts() {
        let events = restart_ints(5, 48);
        let cfg = EngineConfig {
            max_paths_per_record: 64,
            max_total_paths: 4,
            merge_policy: MergePolicy::Never,
        };
        let mut exec = SymbolicExecutor::new(&RestartProneUda, cfg);
        exec.feed_all(events.iter()).unwrap();
        let (chain, stats) = exec.finish();
        assert!(stats.restarts > 0, "expected restarts, got {stats:?}");
        assert!(chain.len() > 1, "expected a multi-summary chain");
    }

    #[test]
    fn scaled_reports_overflow_only_in_the_report() {
        // Three giants: the sum fits, four times it does not.
        let events = [5, i64::MAX / 10, 7, i64::MAX / 10, i64::MAX / 10, 1];
        let seq = run_sequential(&ScaledReportUda, events.iter());
        assert!(
            matches!(seq, Err(Error::ArithmeticOverflow { .. })),
            "{seq:?}"
        );
        assert!(events
            .iter()
            .try_fold(0i64, |n, e| n.checked_add(*e))
            .is_some());
        for chunks in [2, 3, 6] {
            let par =
                run_chunked_symbolic(&ScaledReportUda, &events, chunks, &EngineConfig::default());
            assert!(
                matches!(par, Err(Error::ArithmeticOverflow { .. })),
                "chunks={chunks}: {par:?}"
            );
        }
        let fine = [5, i64::MAX / 10, 7, 1];
        let seq = run_sequential(&ScaledReportUda, fine.iter()).unwrap();
        let par = run_chunked_symbolic(&ScaledReportUda, &fine, 2, &EngineConfig::default());
        assert_eq!(par, Ok(seq));
    }

    #[test]
    fn vector_heavy_matches_sequential() {
        let events = vector_ints(9, 120);
        let seq = run_sequential(&VectorHeavyUda, events.iter()).unwrap();
        for chunks in [1, 3, 7] {
            let par =
                run_chunked_symbolic(&VectorHeavyUda, &events, chunks, &EngineConfig::default())
                    .unwrap();
            assert_eq!(par, seq, "chunks={chunks}");
        }
    }
}
