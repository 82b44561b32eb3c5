//! Multi-stage query plans: feed one groupby-aggregate's results into a
//! second (§8's future work — "using symbolic parallelism to optimize
//! more sophisticated query plans").
//!
//! Stage 1's `(key, output)` rows become stage 2's input records. The
//! second stage's groupby may fan each row out into many events
//! ([`crate::GroupBy::extract_all`]), so list-valued aggregations — "per
//! user, session lengths" — can be re-grouped element-wise — "per session
//! length, how many sessions".

use symple_core::error::Result;
use symple_core::uda::Uda;

use crate::groupby::GroupBy;
use crate::job::{JobConfig, JobOutput};
use crate::metrics::JobMetrics;
use crate::segment::{split_into_segments, Segment};
use crate::symple_job::run_symple;

/// Runs two SYMPLE stages, feeding stage 1's result rows into stage 2.
///
/// Stage 2's record type must be stage 1's `(key, output)` row type. The
/// returned metrics are stage 2's, with stage 1's input and CPU accounting
/// folded in so end-to-end costs stay visible.
pub fn run_two_stage<G1, U1, G2, U2>(
    g1: &G1,
    u1: &U1,
    segments: &[Segment<G1::Record>],
    g2: &G2,
    u2: &U2,
    cfg: &JobConfig,
) -> Result<JobOutput<G2::Key, U2::Output>>
where
    G1: GroupBy,
    U1: Uda<Event = G1::Event>,
    U1::Output: Send + Sync + Clone,
    G2: GroupBy<Record = (G1::Key, U1::Output)>,
    U2: Uda<Event = G2::Event>,
    U2::Output: Send,
{
    let first = run_symple(g1, u1, segments, cfg)?;
    // Stage 1's rows are already globally ordered by key; re-segment them
    // for stage 2's mappers. Each row is charged its stage-1 key size as
    // raw bytes (intermediate data lives in memory / local disk).
    let rows = first.results;
    let stage2_segments = split_into_segments(&rows, cfg.map_workers.max(1), 64);
    let mut second = run_symple(g2, u2, &stage2_segments, cfg)?;
    second.metrics = fold_metrics(first.metrics, second.metrics);
    Ok(second)
}

/// Combines per-stage metrics into an end-to-end view.
///
/// Each value folds by the rule its [`JobMetrics::rows`] row declares
/// (property-tested in `tests/mapreduce_props.rs`): volumes and times are
/// the exact sum of the two stages' — each stage folded in exactly once,
/// never double counted — except `input.*` (stage 1's raw input is the
/// job's input; stage 2 reads intermediate rows), `job.groups` (the final
/// stage defines the output groups), and the `max_task`/`max_live_paths`
/// bounds (maxima).
pub fn fold_metrics(mut first: JobMetrics, second: JobMetrics) -> JobMetrics {
    first.fold(&second);
    first
}

#[cfg(test)]
mod tests {
    use super::*;
    use symple_core::ctx::SymCtx;
    use symple_core::impl_sym_state;
    use symple_core::types::{sym_int::SymInt, sym_pred::SymPred, sym_vector::SymVector};

    // ---- Stage 1: sessions per user (a B3-shaped UDA) ------------------

    struct ByUser;
    impl GroupBy for ByUser {
        type Record = (u64, i64); // (user, timestamp)
        type Key = u64;
        type Event = i64;
        fn extract(&self, r: &(u64, i64)) -> Option<(u64, i64)> {
            Some(*r)
        }
    }

    struct Sessions;
    #[derive(Clone, Debug)]
    struct SessState {
        count: SymInt,
        prev: SymPred<i64>,
        counts: SymVector<i64>,
    }
    impl_sym_state!(SessState {
        count,
        prev,
        counts
    });
    impl Uda for Sessions {
        type State = SessState;
        type Event = i64;
        type Output = Vec<i64>;
        fn init(&self) -> SessState {
            SessState {
                count: SymInt::new(0),
                prev: SymPred::new(|p: &i64, c: &i64| c - p < 100),
                counts: SymVector::new(),
            }
        }
        fn update(&self, s: &mut SessState, ctx: &mut SymCtx, ts: &i64) {
            if s.prev.eval(ctx, ts) {
                s.count += 1;
            } else {
                if s.count.gt(ctx, 0) {
                    s.counts.push_int(&s.count);
                }
                s.count.assign(1);
            }
            s.prev.set(*ts);
        }
        fn result(&self, s: &SessState, _ctx: &mut SymCtx) -> Vec<i64> {
            s.counts.concrete_elems().expect("concrete")
        }
    }

    // ---- Stage 2: histogram of session lengths -------------------------

    struct ByLength;
    impl GroupBy for ByLength {
        type Record = (u64, Vec<i64>); // stage 1 rows
        type Key = i64; // session length
        type Event = ();
        fn extract(&self, _r: &Self::Record) -> Option<(i64, ())> {
            unreachable!("fan-out groupby uses extract_all")
        }
        fn extract_all(&self, r: &Self::Record, out: &mut Vec<(i64, ())>) {
            out.extend(r.1.iter().map(|len| (*len, ())));
        }
    }

    struct CountUda;
    #[derive(Clone, Debug)]
    struct CountState {
        n: SymInt,
    }
    impl_sym_state!(CountState { n });
    impl Uda for CountUda {
        type State = CountState;
        type Event = ();
        type Output = i64;
        fn init(&self) -> CountState {
            CountState { n: SymInt::new(0) }
        }
        fn update(&self, s: &mut CountState, _ctx: &mut SymCtx, _e: &()) {
            s.n += 1;
        }
        fn result(&self, s: &CountState, _ctx: &mut SymCtx) -> i64 {
            s.n.concrete_value().expect("concrete")
        }
    }

    fn workload() -> Vec<(u64, i64)> {
        // Interleaved user streams with deterministic session structure.
        let mut rows = Vec::new();
        let mut t = 0i64;
        for i in 0..3_000i64 {
            t += if i % 37 == 0 { 500 } else { 7 };
            rows.push(((i % 23) as u64, t));
        }
        rows
    }

    /// Plain-Rust reference: histogram of session lengths across users.
    fn reference(rows: &[(u64, i64)]) -> Vec<(i64, i64)> {
        use std::collections::HashMap;
        let mut per_user: HashMap<u64, Vec<i64>> = HashMap::new();
        for (u, t) in rows {
            per_user.entry(*u).or_default().push(*t);
        }
        let mut hist: HashMap<i64, i64> = HashMap::new();
        for ts in per_user.values() {
            let mut count = 0i64;
            let mut prev: Option<i64> = None;
            for t in ts {
                let same = prev.is_some_and(|p| t - p < 100);
                if same {
                    count += 1;
                } else {
                    if count > 0 {
                        *hist.entry(count).or_default() += 1;
                    }
                    count = 1;
                }
                prev = Some(*t);
            }
        }
        let mut v: Vec<_> = hist.into_iter().collect();
        v.sort();
        v
    }

    #[test]
    fn two_stage_histogram_matches_reference() {
        let rows = workload();
        let segments = split_into_segments(&rows, 6, 32);
        let cfg = JobConfig::default();
        let out = run_two_stage(&ByUser, &Sessions, &segments, &ByLength, &CountUda, &cfg).unwrap();
        assert_eq!(out.results, reference(&rows));
        // End-to-end metrics fold both stages.
        assert_eq!(out.metrics.input_records, rows.len() as u64);
        assert!(out.metrics.explore.records > 0);
        assert!(out.metrics.shuffle_records > 0);
    }

    #[test]
    fn two_stage_is_deterministic() {
        let rows = workload();
        let segments = split_into_segments(&rows, 4, 32);
        let cfg = JobConfig::default();
        let a = run_two_stage(&ByUser, &Sessions, &segments, &ByLength, &CountUda, &cfg).unwrap();
        let b = run_two_stage(&ByUser, &Sessions, &segments, &ByLength, &CountUda, &cfg).unwrap();
        assert_eq!(a.results, b.results);
        assert_eq!(a.metrics.shuffle_bytes, b.metrics.shuffle_bytes);
    }
}
