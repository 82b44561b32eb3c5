//! The hand-optimized Hadoop baseline (§6.3 of the paper).
//!
//! "The groupby executes in the mapper while the UDA executes in the
//! reducer. The groupby only emits fields of the input record that are
//! used in the UDA." Every per-key event list crosses the shuffle encoded
//! on the wire; the reducers decode, stitch the chunks in mapper order, and
//! run the UDA sequentially.

use symple_core::error::{Error, Result};
use symple_core::uda::{run_sequential, Uda};
use symple_core::wire::{put_slice, Wire};

use crate::groupby::{sorted_groups, GroupBy};
use crate::job::{run_phases, Emits, JobConfig, JobOutput};
use crate::segment::Segment;

/// Runs a groupby-aggregate job the baseline way: UDA in the reducers.
pub fn run_baseline<G, U>(
    g: &G,
    uda: &U,
    segments: &[Segment<G::Record>],
    cfg: &JobConfig,
) -> Result<JobOutput<G::Key, U::Output>>
where
    G: GroupBy,
    U: Uda<Event = G::Event>,
    U::Output: Send,
{
    run_phases(
        segments,
        cfg,
        None,
        // Map: groupby + field projection; each key's event list is
        // encoded for the shuffle and tallied at emit time.
        |seg| {
            let mut emits = Emits::new(cfg.num_reducers);
            for (k, events) in sorted_groups(g, &seg.records).iter() {
                emits.emit(k.clone(), |buf| put_slice(buf, events));
            }
            Ok(emits)
        },
        // Nothing to commit beyond the shuffle volume the driver charges
        // (`summary_bytes` stays zero: event lists are not summaries).
        |_, out| out,
        // Reduce: decode, stitch in mapper order, run the UDA.
        || {
            |chunks: &[&[u8]]| {
                let mut events: Vec<G::Event> = Vec::new();
                for mut payload in chunks.iter().copied() {
                    events.extend(Vec::<G::Event>::decode(&mut payload).map_err(Error::Wire)?);
                }
                run_sequential(uda, events.iter())
            }
        },
    )
}

/// Runs a groupby-aggregate job the way §6.2's **Local MapReduce**
/// simulation does: each mapper emits one shuffle record *per input
/// record* and sorts its output by key (the paper pipes mapper output
/// through Unix `sort`, then `sort -m` merges per-key lists).
///
/// This is deliberately less optimized than [`run_baseline`] (which
/// pre-groups events per key inside the mapper, as the hand-tuned EMR
/// baseline does); it reproduces the shuffle-heavy cost profile Figure 4
/// compares SYMPLE against.
pub fn run_baseline_sorted<G, U>(
    g: &G,
    uda: &U,
    segments: &[Segment<G::Record>],
    cfg: &JobConfig,
) -> Result<JobOutput<G::Key, U::Output>>
where
    G: GroupBy,
    U: Uda<Event = G::Event>,
    U::Output: Send,
{
    run_phases(
        segments,
        cfg,
        None,
        // Map: one (key, encoded event) cell per record, sorted by key.
        |seg| {
            let mut pairs = Vec::with_capacity(seg.records.len());
            for r in &seg.records {
                g.extract_all(r, &mut pairs);
            }
            // Stable sort keeps the per-key record order intact.
            pairs.sort_by(|a, b| a.0.cmp(&b.0));
            let mut emits = Emits::new(cfg.num_reducers);
            for (k, e) in pairs {
                emits.emit(k, |buf| e.encode(buf));
            }
            Ok(emits)
        },
        // Nothing to commit beyond the shuffle volume the driver charges
        // (`summary_bytes` stays zero: event lists are not summaries).
        |_, out| out,
        // Reduce: merge per-key event streams in mapper order, run the UDA.
        || {
            |chunks: &[&[u8]]| {
                let mut events: Vec<G::Event> = Vec::with_capacity(chunks.len());
                for mut payload in chunks.iter().copied() {
                    events.push(G::Event::decode(&mut payload).map_err(Error::Wire)?);
                }
                run_sequential(uda, events.iter())
            }
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::split_into_segments;
    use symple_core::ctx::SymCtx;
    use symple_core::impl_sym_state;
    use symple_core::types::sym_int::SymInt;

    struct ByMod3;
    impl GroupBy for ByMod3 {
        type Record = i64;
        type Key = u8;
        type Event = i64;
        fn extract(&self, r: &i64) -> Option<(u8, i64)> {
            Some(((r % 3) as u8, *r))
        }
    }

    struct SumUda;
    #[derive(Clone, Debug)]
    struct SumState {
        sum: SymInt,
    }
    impl_sym_state!(SumState { sum });
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
            s.sum.concrete_value().expect("concrete")
        }
    }

    #[test]
    fn baseline_sums_per_group() {
        let records: Vec<i64> = (0..30).collect();
        let segments = split_into_segments(&records, 4, 64);
        let out = run_baseline(&ByMod3, &SumUda, &segments, &JobConfig::default()).unwrap();
        assert_eq!(out.results.len(), 3);
        for (k, sum) in &out.results {
            let expect: i64 = (0..30).filter(|r| (r % 3) as u8 == *k).sum();
            assert_eq!(*sum, expect);
        }
        assert_eq!(out.metrics.groups, 3);
        assert_eq!(out.metrics.input_records, 30);
        assert_eq!(out.metrics.input_bytes, 30 * 64);
        assert!(out.metrics.shuffle_bytes > 0);
        // Each of 4 mappers emits up to 3 keys.
        assert!(out.metrics.shuffle_records <= 12);
    }

    #[test]
    fn empty_job() {
        let out = run_baseline(&ByMod3, &SumUda, &[], &JobConfig::default()).unwrap();
        assert!(out.results.is_empty());
        assert_eq!(out.metrics.shuffle_bytes, 0);
    }

    #[test]
    fn single_reducer_matches_many() {
        let records: Vec<i64> = (0..50).map(|i| i * 7 % 23).collect();
        let segments = split_into_segments(&records, 5, 100);
        let a = run_baseline(
            &ByMod3,
            &SumUda,
            &segments,
            &JobConfig::default().with_reducers(1),
        )
        .unwrap();
        let b = run_baseline(
            &ByMod3,
            &SumUda,
            &segments,
            &JobConfig::default().with_reducers(8),
        )
        .unwrap();
        assert_eq!(a.results, b.results);
    }
}
