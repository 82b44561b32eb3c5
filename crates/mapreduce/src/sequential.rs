//! The single-thread sequential baseline of the multi-core evaluation
//! (§6.2): "reads data sequentially and executes the UDA concretely."

use std::time::Instant;

use symple_core::error::Result;
use symple_core::uda::{run_sequential, Uda};

use crate::groupby::{sorted_groups, GroupBy};
use crate::job::JobOutput;
use crate::metrics::JobMetrics;
use crate::segment::Segment;

/// Runs the whole job on one thread with no shuffle: group every segment's
/// records per key (in global order), then run the UDA per key.
pub fn run_sequential_job<G, U>(
    g: &G,
    uda: &U,
    segments: &[Segment<G::Record>],
) -> Result<JobOutput<G::Key, U::Output>>
where
    G: GroupBy,
    U: Uda<Event = G::Event>,
{
    let start = Instant::now();
    let mut metrics = JobMetrics {
        input_records: segments.iter().map(|s| s.len() as u64).sum(),
        input_bytes: segments.iter().map(|s| s.raw_bytes).sum(),
        ..JobMetrics::default()
    };

    let groups = sorted_groups(g, segments.iter().flat_map(|seg| &seg.records));
    let mut results = Vec::with_capacity(groups.len());
    for (key, events) in groups.iter() {
        results.push((key.clone(), run_sequential(uda, events)?));
    }
    metrics.groups = results.len() as u64;
    let elapsed = start.elapsed();
    metrics.map_wall = elapsed;
    metrics.map_cpu = elapsed;
    Ok(JobOutput { results, metrics })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::run_baseline;
    use crate::job::JobConfig;
    use crate::segment::split_into_segments;
    use symple_core::ctx::SymCtx;
    use symple_core::impl_sym_state;
    use symple_core::types::sym_int::SymInt;

    struct ByBit;
    impl GroupBy for ByBit {
        type Record = i64;
        type Key = u8;
        type Event = i64;
        fn extract(&self, r: &i64) -> Option<(u8, i64)> {
            Some(((r & 1) as u8, *r))
        }
    }

    struct MaxUda;
    #[derive(Clone, Debug)]
    struct MaxState {
        max: SymInt,
    }
    impl_sym_state!(MaxState { max });
    impl Uda for MaxUda {
        type State = MaxState;
        type Event = i64;
        type Output = i64;
        fn init(&self) -> MaxState {
            MaxState {
                max: SymInt::new(i64::MIN),
            }
        }
        fn update(&self, s: &mut MaxState, ctx: &mut SymCtx, e: &i64) {
            if s.max.lt(ctx, *e) {
                s.max.assign(*e);
            }
        }
        fn result(&self, s: &MaxState, _ctx: &mut SymCtx) -> i64 {
            s.max.concrete_value().expect("concrete")
        }
    }

    #[test]
    fn sequential_matches_baseline() {
        let records: Vec<i64> = (0..77).map(|i| (i * 37) % 101).collect();
        let segments = split_into_segments(&records, 5, 256);
        let seq = run_sequential_job(&ByBit, &MaxUda, &segments).unwrap();
        let base = run_baseline(&ByBit, &MaxUda, &segments, &JobConfig::default()).unwrap();
        assert_eq!(seq.results, base.results);
        assert_eq!(seq.metrics.shuffle_bytes, 0);
        assert_eq!(seq.metrics.groups, 2);
    }
}
