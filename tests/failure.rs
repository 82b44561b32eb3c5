//! Failure injection: errors must propagate cleanly through jobs — never
//! panic, never silently corrupt results.

use proptest::prelude::*;

use symple::core::engine::{EngineConfig, MergePolicy, SymbolicExecutor};
use symple::core::prelude::*;
use symple::core::uda::{run_sequential, Uda};
use symple::mapreduce::segment::split_into_segments;
use symple::mapreduce::{run_symple, GroupBy, JobConfig};

/// A UDA whose update overflows once the counter crosses a threshold.
struct OverflowUda;

#[derive(Clone, Debug)]
struct OState {
    v: SymInt,
}
symple::core::impl_sym_state!(OState { v });

impl Uda for OverflowUda {
    type State = OState;
    type Event = i64;
    type Output = i64;
    fn init(&self) -> OState {
        OState {
            v: SymInt::new(i64::MAX - 2),
        }
    }
    fn update(&self, s: &mut OState, ctx: &mut SymCtx, _e: &i64) {
        s.v.add(ctx, 1);
    }
    fn result(&self, s: &OState, _ctx: &mut SymCtx) -> i64 {
        s.v.concrete_value().unwrap_or(0)
    }
}

#[test]
fn overflow_surfaces_as_error_everywhere() {
    let input = vec![0i64; 10];
    // Sequential: errors.
    let seq = run_sequential(&OverflowUda, input.iter());
    assert!(
        matches!(seq, Err(Error::ArithmeticOverflow { .. })),
        "{seq:?}"
    );
    // Chunked symbolic: also errors (never a wrong answer).
    let par = run_chunked_symbolic(&OverflowUda, &input, 3, &EngineConfig::default());
    assert!(par.is_err());
}

/// A UDA that explodes: every record forks on a never-bound predicate
/// with fresh arguments, so no two paths ever merge.
struct ExplodingUda;

#[derive(Clone, Debug)]
struct EState {
    p: SymPred<i64>,
    v: SymInt,
}
symple::core::impl_sym_state!(EState { p, v });

impl Uda for ExplodingUda {
    type State = EState;
    type Event = i64;
    type Output = i64;
    fn init(&self) -> EState {
        EState {
            p: SymPred::new(|a: &i64, b: &i64| a < b).with_max_decisions(64),
            v: SymInt::new(0),
        }
    }
    fn update(&self, s: &mut EState, ctx: &mut SymCtx, e: &i64) {
        // Never calls set(): decisions accumulate and fork per record;
        // distinct added constants keep transfers unmergeable.
        if s.p.eval(ctx, e) {
            s.v.add(ctx, *e);
        }
    }
    fn result(&self, s: &EState, _ctx: &mut SymCtx) -> i64 {
        s.v.concrete_value().unwrap_or(0)
    }
}

#[test]
fn per_record_explosion_bound_trips() {
    let cfg = EngineConfig {
        max_paths_per_record: 8,
        max_total_paths: 1_000,
        merge_policy: MergePolicy::Never,
        ..EngineConfig::default()
    };
    let mut exec = SymbolicExecutor::new(&ExplodingUda, cfg);
    let mut tripped = false;
    for e in 1..32i64 {
        match exec.feed(&e) {
            Err(Error::PathExplosion { .. }) => {
                tripped = true;
                break;
            }
            Err(other) => panic!("unexpected error {other}"),
            Ok(()) => {}
        }
    }
    assert!(tripped, "the per-record bound must eventually trip");
}

#[test]
fn restart_fallback_tames_the_same_uda() {
    // With the restart bound engaged the same UDA completes: each restart
    // rebinds the unknown state and bounds the live paths (§5.2's
    // "fallback to no parallelization in the worst case").
    let cfg = EngineConfig {
        max_paths_per_record: 1_000,
        max_total_paths: 4,
        merge_policy: MergePolicy::Never,
        ..EngineConfig::default()
    };
    let mut exec = SymbolicExecutor::new(&ExplodingUda, cfg);
    for e in 1..64i64 {
        exec.feed(&e).unwrap();
    }
    let (chain, stats) = exec.finish();
    assert!(stats.restarts > 0);
    assert!(chain.len() > 1);
}

#[test]
fn predicate_window_bound_trips() {
    struct TightWindow;
    #[derive(Clone, Debug)]
    struct WState {
        p: SymPred<i64>,
        v: SymInt,
    }
    symple::core::impl_sym_state!(WState { p, v });
    impl Uda for TightWindow {
        type State = WState;
        type Event = i64;
        type Output = ();
        fn init(&self) -> WState {
            WState {
                p: SymPred::new(|a: &i64, b: &i64| a < b).with_max_decisions(2),
                v: SymInt::new(0),
            }
        }
        fn update(&self, s: &mut WState, ctx: &mut SymCtx, e: &i64) {
            // The outcome feeds the transfer function, so the two fork
            // branches stay distinct and cannot merge away (a fork whose
            // outcome is never observed merges back immediately — the
            // decision simplification of §3.5 — and never hits the bound).
            if s.p.eval(ctx, e) {
                s.v.add(ctx, *e);
            }
        }
        fn result(&self, _s: &WState, _ctx: &mut SymCtx) {}
    }
    let mut exec = SymbolicExecutor::new(&TightWindow, EngineConfig::default());
    let mut tripped = false;
    for e in 0..8i64 {
        if let Err(Error::PredicateWindowExceeded { .. }) = exec.feed(&e) {
            tripped = true;
            break;
        }
    }
    assert!(tripped);
}

struct FaultyGroup;
impl GroupBy for FaultyGroup {
    type Record = i64;
    type Key = u8;
    type Event = i64;
    fn extract(&self, r: &i64) -> Option<(u8, i64)> {
        Some((1, *r))
    }
}

#[test]
fn job_level_error_propagation() {
    // An overflowing UDA inside a full MapReduce job must return Err from
    // the job, not panic a worker thread.
    let records = vec![0i64; 12];
    let segments = split_into_segments(&records, 3, 8);
    let out = run_symple(&FaultyGroup, &OverflowUda, &segments, &JobConfig::default());
    assert!(out.is_err(), "{out:?}");
}

/// Input-determined overflow: non-negative events keep partial sums
/// monotone, so whether the sum overflows depends only on the input —
/// never on chunk placement. The property tests below rely on this.
struct SumUda;

#[derive(Clone, Debug)]
struct SumState {
    sum: SymInt,
}
symple::core::impl_sym_state!(SumState { sum });

impl Uda for SumUda {
    type State = SumState;
    type Event = i64;
    type Output = i64;
    fn init(&self) -> SumState {
        SumState {
            sum: SymInt::new(0),
        }
    }
    fn update(&self, s: &mut SumState, ctx: &mut SymCtx, e: &i64) {
        s.sum.add(ctx, *e);
    }
    fn result(&self, s: &SumState, _ctx: &mut SymCtx) -> i64 {
        s.sum.concrete_value().unwrap_or(0)
    }
}

/// Whether an error is in the overflow family. A parallel executor may
/// report input overflow as `ArithmeticOverflow` (tripped inside a
/// chunk), `IncompleteSummary` (the running value falls outside every
/// path constraint at apply time — constraints exclude inputs that would
/// have overflowed), or `EmptyComposition` (no cross-chunk path pair
/// stays feasible). What it may never do is return a wrong `Ok`.
fn is_overflow_family(e: &Error) -> bool {
    matches!(
        e,
        Error::ArithmeticOverflow { .. } | Error::IncompleteSummary | Error::EmptyComposition
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Sequential and chunked-symbolic agree on Ok values AND on whether
    /// the input errors; an erroring input produces an overflow-family
    /// error from every chunking, never a panic, never a wrong Ok.
    #[test]
    fn overflow_propagates_identically_chunked(
        events in prop::collection::vec(
            (0i64..1000).prop_map(|v| if v < 40 { i64::MAX / 8 } else { v }),
            1..80,
        ),
        chunks in 1usize..7,
    ) {
        let seq = run_sequential(&SumUda, events.iter());
        let par = run_chunked_symbolic(&SumUda, &events, chunks, &EngineConfig::default());
        match (seq, par) {
            (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
            (Err(se), Err(pe)) => {
                prop_assert!(
                    matches!(se, Error::ArithmeticOverflow { .. }),
                    "sequential error must be the arithmetic one: {se:?}"
                );
                prop_assert!(is_overflow_family(&pe), "{pe:?}");
            }
            (Ok(a), Err(pe)) => {
                return Err(TestCaseError::fail(format!(
                    "chunked errored ({pe:?}) on an input the sequential run accepts ({a})"
                )));
            }
            (Err(se), Ok(b)) => {
                return Err(TestCaseError::fail(format!(
                    "chunked silently returned Ok({b}) on an overflowing input ({se:?})"
                )));
            }
        }
    }

    /// The same property through the full MapReduce job: Err on exactly
    /// the same inputs, and identical per-key Ok output otherwise.
    #[test]
    fn overflow_propagates_identically_mapreduce(
        events in prop::collection::vec(
            (0i64..1000).prop_map(|v| if v < 30 { i64::MAX / 8 } else { v }),
            1..60,
        ),
        num_segments in 1usize..6,
    ) {
        let seq = run_sequential(&SumUda, events.iter());
        let segments = split_into_segments(&events, num_segments, 8);
        let job = run_symple(&FaultyGroup, &SumUda, &segments, &JobConfig::default());
        match (seq, job) {
            (Ok(a), Ok(out)) => {
                prop_assert_eq!(out.results.len(), 1);
                prop_assert_eq!(out.results[0], (1u8, a));
            }
            (Err(_), Err(je)) => prop_assert!(is_overflow_family(&je), "{je:?}"),
            (Ok(a), Err(je)) => {
                return Err(TestCaseError::fail(format!(
                    "job errored ({je:?}) where sequential gives Ok({a})"
                )));
            }
            (Err(se), Ok(out)) => {
                return Err(TestCaseError::fail(format!(
                    "job returned Ok({:?}) on an overflowing input ({se:?})",
                    out.results
                )));
            }
        }
    }

    /// A path-exploding UDA must fail loudly (an engine-limit error) or
    /// answer correctly — same contract chunked and sequential, any merge
    /// policy, never a panic and never a silently different Ok.
    #[test]
    fn explosion_never_silently_corrupts(
        events in prop::collection::vec(-50i64..50, 1..48),
        chunks in 1usize..6,
        policy_idx in 0usize..3,
    ) {
        let cfg = EngineConfig {
            max_paths_per_record: 64,
            max_total_paths: 4,
            merge_policy: [MergePolicy::Eager, MergePolicy::HighWater, MergePolicy::Never]
                [policy_idx],
            ..EngineConfig::default()
        };
        let seq = run_sequential(&ExplodingUda, events.iter()).unwrap();
        match run_chunked_symbolic(&ExplodingUda, &events, chunks, &cfg) {
            Ok(par) => prop_assert_eq!(par, seq),
            Err(Error::PathExplosion { .. } | Error::PredicateWindowExceeded { .. }) => {}
            Err(other) => {
                return Err(TestCaseError::fail(format!("unexpected error: {other:?}")));
            }
        }
    }
}

#[test]
fn corrupted_summary_bytes_error_cleanly() {
    use symple::core::frame::{decode_frame_unchecked, encode_frame};
    use symple::core::summary::SummaryChain;
    use symple::core::uda::summarize_chunk;
    use symple::mapreduce::{ChunkStore, FrameStore, MemStore, SummaryCacheCtx, SympleJob};
    let chain = summarize_chunk(&ExplodingUda, [].iter(), &EngineConfig::default()).unwrap();
    let mut buf = Vec::new();
    chain.encode(&mut buf);
    // Flip every byte in turn; decoding must never panic.
    let template = ExplodingUda.init();
    for i in 0..buf.len() {
        let mut corrupted = buf.clone();
        corrupted[i] ^= 0xff;
        let mut rd = &corrupted[..];
        let _ = SummaryChain::<EState>::decode(&template, &mut rd);
    }

    // Trailing bytes: the chain decoder stops where the chain ends and
    // leaves the rest in the reader for its caller to refuse.
    buf.extend_from_slice(b"tail");
    let mut rd = &buf[..];
    SummaryChain::<EState>::decode(&template, &mut rd).unwrap();
    assert_eq!(rd, b"tail");

    // A job refuses a store frame whose payload carries more than its
    // cells and counters: quarantined with the reason, recomputed, same
    // answer.
    let records: Vec<i64> = (0..40).collect();
    let segs = split_into_segments(&records, 4, 16);
    let cfg = JobConfig::default();
    let clean = run_symple(&FaultyGroup, &ExplodingUda, &segs, &cfg).unwrap();
    let store = MemStore::new();
    let ctx = SummaryCacheCtx::new(&store);
    let job = SympleJob::new(cfg).with_store(ChunkStore::Cache(&ctx));
    job.run(&FaultyGroup, &ExplodingUda, &segs).unwrap();
    let (ns, id) = store.keys()[0];
    let (_, meta, mut payload) = decode_frame_unchecked(&store.raw_frame(ns, id).unwrap()).unwrap();
    payload.push(0);
    store.insert_raw(ns, id, encode_frame(&meta, &payload));
    let out = job.run(&FaultyGroup, &ExplodingUda, &segs).unwrap();
    assert_eq!(out.results, clean.results);
    assert_eq!(out.metrics.cache_corrupt, 1);
    assert_eq!(out.metrics.cache_hits, segs.len() as u64 - 1);
    let reason = &store.quarantined(ns)[0].1;
    assert!(reason.contains("past its declared contents"), "{reason}");
}
