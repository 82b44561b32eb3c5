//! Property tests over the MapReduce substrate itself: arbitrary record
//! streams and key distributions through every backend must agree, with
//! order preserved per key however the shuffle slices it.

use proptest::prelude::*;

use symple::core::prelude::*;
use symple::mapreduce::segment::split_into_segments;
use symple::mapreduce::{
    run_baseline, run_baseline_sorted, run_scheduled, run_sequential_job, run_symple,
    CheckpointCtx, ChunkStore, GroupBy, JobConfig, MemStore, SchedulerConfig, SummaryCacheCtx,
    SympleJob,
};

/// Records are `(key, value)` pairs; order within a key is load-bearing.
struct ByKey;
impl GroupBy for ByKey {
    type Record = (u8, i64);
    type Key = u8;
    type Event = i64;
    fn extract(&self, r: &(u8, i64)) -> Option<(u8, i64)> {
        Some(*r)
    }
}

/// An order-sensitive UDA: records alternating rises/falls, counts
/// direction changes and reports the positions of the first few.
struct Turns;

#[derive(Clone, Debug)]
struct TurnState {
    prev: SymPred<i64>,
    rising: SymBool,
    turns: SymInt,
    marks: SymVector<i64>,
}
symple::core::impl_sym_state!(TurnState {
    prev,
    rising,
    turns,
    marks
});

impl Uda for Turns {
    type State = TurnState;
    type Event = i64;
    type Output = (i64, Vec<i64>);
    fn init(&self) -> TurnState {
        TurnState {
            prev: SymPred::new(|p: &i64, c: &i64| c >= p).with_initial_outcome(true),
            rising: SymBool::new(true),
            turns: SymInt::new(0),
            marks: SymVector::new(),
        }
    }
    fn update(&self, s: &mut TurnState, ctx: &mut SymCtx, e: &i64) {
        let now_rising = s.prev.eval(ctx, e);
        let was_rising = s.rising.get(ctx);
        if now_rising != was_rising {
            s.turns += 1;
            if s.turns.le(ctx, 3) {
                s.marks.push_int(&s.turns);
            }
        }
        s.rising.assign(now_rising);
        s.prev.set(*e);
    }
    fn result(&self, s: &TurnState, _ctx: &mut SymCtx) -> (i64, Vec<i64>) {
        (
            s.turns.concrete_value().expect("concrete"),
            s.marks.concrete_elems().expect("concrete"),
        )
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every backend agrees on arbitrary key/value streams and segmenting.
    #[test]
    fn all_backends_agree_on_arbitrary_streams(
        records in prop::collection::vec((0u8..6, -50i64..50), 0..300),
        segments in 1usize..10,
        reducers in 1usize..6,
    ) {
        let segs = split_into_segments(&records, segments, 32);
        let cfg = JobConfig::default().with_reducers(reducers);
        let seq = run_sequential_job(&ByKey, &Turns, &segs).unwrap();
        let base = run_baseline(&ByKey, &Turns, &segs, &cfg).unwrap();
        let sorted = run_baseline_sorted(&ByKey, &Turns, &segs, &cfg).unwrap();
        let sym = run_symple(&ByKey, &Turns, &segs, &cfg).unwrap();
        prop_assert_eq!(&seq.results, &base.results);
        prop_assert_eq!(&seq.results, &sorted.results);
        prop_assert_eq!(&seq.results, &sym.results);
    }

    /// Skewed streams: one hot key plus sparse others.
    #[test]
    fn hot_key_skew(
        hot in prop::collection::vec(-50i64..50, 0..200),
        cold in prop::collection::vec((1u8..6, -50i64..50), 0..20),
        segments in 1usize..8,
    ) {
        let mut records: Vec<(u8, i64)> = hot.iter().map(|v| (0u8, *v)).collect();
        // Interleave the cold records deterministically.
        for (i, c) in cold.iter().enumerate() {
            records.insert((i * 7) % (records.len() + 1), *c);
        }
        let segs = split_into_segments(&records, segments, 32);
        let cfg = JobConfig::default();
        let base = run_baseline(&ByKey, &Turns, &segs, &cfg).unwrap();
        let sym = run_symple(&ByKey, &Turns, &segs, &cfg).unwrap();
        prop_assert_eq!(base.results, sym.results);
    }

    /// `run_scheduled` returns results in input order, byte-identical
    /// across worker counts, with sane timing invariants.
    #[test]
    fn pool_results_independent_of_worker_count(
        items in prop::collection::vec(-1_000i64..1_000, 0..120),
    ) {
        // A deterministic, input-dependent task so scheduling bugs (lost,
        // duplicated, or reordered tasks) change the output bytes.
        let task = |i: usize, x: &i64| -> (usize, i64) {
            (i, x.wrapping_mul(31).wrapping_add(i as i64))
        };
        let run = |workers| {
            let cfg = SchedulerConfig::default();
            let run = run_scheduled(&items, workers, &cfg, |a, x| Ok(task(a.task, x)));
            run.map(|r| (r.results, r.timing)).unwrap()
        };
        let (one, t1) = run(1);
        for workers in [2usize, 8] {
            let (out, t) = run(workers);
            prop_assert_eq!(&out, &one, "workers={}", workers);
            prop_assert!(t.cpu >= t.max_task, "workers={}: cpu < max_task", workers);
        }
        prop_assert!(t1.cpu >= t1.max_task);
        for (i, (idx, _)) in one.iter().enumerate() {
            prop_assert_eq!(*idx, i, "result slot {} holds task {}", i, idx);
        }
    }
}

// -------------------------------------------------------- store ledgers

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every count of the store ledgers is load-bearing. A real run under
    /// either keying policy balances (`SympleJob::run` checks it, or it
    /// would not have returned); forging any one count by any amount is a
    /// typed `LedgerImbalance` that names the ledger it broke and reports
    /// both sides.
    #[test]
    fn forged_store_ledgers_are_a_typed_error(
        records in prop::collection::vec((0u8..6, -50i64..50), 1..200),
        segments in 1usize..8,
        cached in any::<bool>(),
        which in 0usize..9,
        by in 1u64..1_000,
    ) {
        let segs = split_into_segments(&records, segments, 32);
        let store = MemStore::new();
        let (checkpoints, cache) = (CheckpointCtx::new(&store, "ledgers"), SummaryCacheCtx::new(&store));
        let (policy, chunks) = if cached {
            (ChunkStore::Cache(&cache), (0, segs.len() as u64))
        } else {
            (ChunkStore::Checkpoint(&checkpoints), (segs.len() as u64, 0))
        };
        let job = SympleJob::new(JobConfig::default()).with_store(policy);
        let real = job.run(&ByKey, &Turns, &segs).unwrap().metrics;
        prop_assert_eq!(real.check_ledgers(chunks.0, chunks.1), Ok(()));
        // The other policy's expectation does not fit this run.
        prop_assert!(real.check_ledgers(chunks.1, chunks.0).is_err());

        let mut forged = real;
        let (count, ledger) = match which {
            0 => (&mut forged.checkpoint_hits, "checkpoint"),
            1 => (&mut forged.checkpoint_misses, "checkpoint"),
            2 => (&mut forged.checkpoint_corrupt, "checkpoint"),
            3 => (&mut forged.cache_hits, "cache"),
            4 => (&mut forged.cache_misses, "cache"),
            5 => (&mut forged.cache_corrupt, "cache"),
            6 => (&mut forged.io_errors, "io_errors"),
            7 => (&mut forged.io_retries, "io_errors"),
            _ => (&mut forged.io_gave_up, "io_errors"),
        };
        *count += by;
        match forged.check_ledgers(chunks.0, chunks.1) {
            Err(Error::LedgerImbalance { ledger: broken, left, right }) => {
                prop_assert!(broken.starts_with(ledger), "{} for {}", broken, ledger);
                prop_assert_eq!(left.abs_diff(right), by);
            }
            other => prop_assert!(false, "forged count {} passed as {:?}", which, other),
        }
    }
}

proptest! {
    /// The shuffle's three steps — bucket each mapper's cells by key hash,
    /// transpose to per-reducer runs, k-way merge each reducer's runs —
    /// against the definition: every cell lands on `partition(key)`'s
    /// reducer, and a key's payloads come out in mapper order, then in the
    /// mapper's own order. Keys missing from some mappers, mappers that
    /// emit nothing, unsorted and repeated keys, a single reducer.
    #[test]
    fn shuffle_steps_compose_to_the_definition(
        mappers in prop::collection::vec(
            prop::collection::vec((0u64..12, any::<u16>()), 0..10),
            0..7,
        ),
        num_reducers in 0usize..5,
    ) {
        use std::collections::BTreeMap;
        use symple::mapreduce::shuffle::{partition, partition_to_reducers, ReducerInput};
        let mut expect: Vec<ReducerInput<u64, u16>> =
            (0..num_reducers.max(1)).map(|_| BTreeMap::new()).collect();
        for (m, cells) in mappers.iter().enumerate() {
            for (key, payload) in cells {
                expect[partition(key, num_reducers)]
                    .entry(*key)
                    .or_default()
                    .push((m, *payload));
            }
        }
        prop_assert_eq!(partition_to_reducers(mappers, num_reducers), expect);
    }
}
