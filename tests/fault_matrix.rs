//! The fault matrix: arbitrary fault plans through the task scheduler
//! must never change what a job computes — results, shuffle bytes, and
//! summary bytes stay byte-identical to the clean run — and the attempt
//! accounting must match what the plan actually injected.
//!
//! Also pins the two typed terminal failures: a plan that fails every
//! attempt surfaces `Error::RetriesExhausted` once the cap is hit
//! (previously the ad-hoc retry loop spun forever), and a panicking final
//! attempt surfaces `Error::TaskPanicked`.

use std::collections::HashSet;
use std::time::Duration;

use proptest::prelude::*;

use symple::core::prelude::*;
use symple::core::Error;
use symple::mapreduce::scheduler::AttemptOutcome;
use symple::mapreduce::segment::split_into_segments;
use symple::mapreduce::{
    run_scheduled, run_symple, CheckpointCtx, ChunkStore, FaultInjector, FaultPlan, GroupBy,
    JobConfig, JobMetrics, MemStore, SummaryCacheCtx, SympleJob,
};

struct ByKey;
impl GroupBy for ByKey {
    type Record = (u8, i64);
    type Key = u8;
    type Event = i64;
    fn extract(&self, r: &(u8, i64)) -> Option<(u8, i64)> {
        Some(*r)
    }
}

/// An order-sensitive UDA (running sum with resets), so dropped,
/// duplicated, or reordered events change the answer.
struct Resets;

#[derive(Clone, Debug)]
struct RState {
    sum: SymInt,
    resets: SymVector<i64>,
}
symple::core::impl_sym_state!(RState { sum, resets });

impl Uda for Resets {
    type State = RState;
    type Event = i64;
    type Output = (i64, Vec<i64>);
    fn init(&self) -> RState {
        RState {
            sum: SymInt::new(0),
            resets: SymVector::new(),
        }
    }
    fn update(&self, s: &mut RState, ctx: &mut SymCtx, e: &i64) {
        s.sum.add(ctx, *e);
        if s.sum.gt(ctx, 120) {
            s.resets.push_int(&s.sum);
            s.sum.assign(0);
        }
    }
    fn result(&self, s: &RState, _ctx: &mut SymCtx) -> (i64, Vec<i64>) {
        (
            s.sum.concrete_value().expect("concrete"),
            s.resets.concrete_elems().expect("concrete"),
        )
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary crash/panic plans: the faulted job is byte-identical to
    /// the clean one, and the attempt arithmetic balances — every extra
    /// attempt is explained by an injected crash or an isolated panic.
    #[test]
    fn faulted_jobs_are_byte_identical_to_clean(
        records in prop::collection::vec((0u8..5, -40i64..40), 0..220),
        n_seg in 2usize..7,
        fail_once_bits in prop::collection::vec(any::<bool>(), 7),
        fail_twice_bits in prop::collection::vec(any::<bool>(), 7),
        panic_bits in prop::collection::vec(any::<bool>(), 7),
    ) {
        let pick = |bits: &[bool]| -> HashSet<usize> {
            bits.iter()
                .take(n_seg)
                .enumerate()
                .filter_map(|(i, b)| b.then_some(i))
                .collect()
        };
        // fail_twice wins over fail_first in the injector; keep the sets
        // disjoint so the expected retry count stays exact.
        let fail_twice = pick(&fail_twice_bits);
        let fail_once: HashSet<usize> =
            pick(&fail_once_bits).difference(&fail_twice).copied().collect();
        let plan = FaultPlan {
            fail_first_attempt: fail_once,
            fail_twice,
            panic_first_attempt: pick(&panic_bits),
            ..FaultPlan::default()
        };

        let segs = split_into_segments(&records, n_seg, 32);
        let cfg = JobConfig::default();
        let clean = run_symple(&ByKey, &Resets, &segs, &cfg).unwrap();
        let injector = FaultInjector::new(plan);
        let faulty = SympleJob::new(cfg).with_faults(&injector).run(&ByKey, &Resets, &segs).unwrap();

        prop_assert_eq!(&clean.results, &faulty.results);
        prop_assert_eq!(clean.metrics.shuffle_bytes, faulty.metrics.shuffle_bytes);
        prop_assert_eq!(clean.metrics.shuffle_records, faulty.metrics.shuffle_records);
        prop_assert_eq!(clean.metrics.summary_bytes, faulty.metrics.summary_bytes);

        // Attempt arithmetic: the scheduler's ledger must account for
        // exactly the faults the injector fired — no lost or phantom
        // attempts.
        prop_assert_eq!(clean.metrics.speculative_launches, 0);
        prop_assert_eq!(faulty.metrics.speculative_launches, 0);
        prop_assert_eq!(
            faulty.metrics.attempts,
            clean.metrics.attempts + injector.retries() + injector.panics()
        );
        if injector.retries() + injector.panics() > 0 {
            prop_assert!(faulty.metrics.retry_wasted_cpu > Duration::ZERO);
        }
    }

    /// Crash at an arbitrary task boundary, then resume from the surviving
    /// checkpoints: the resumed job is byte-identical to an uninterrupted
    /// run — results, shuffle bytes, summary bytes — and the checkpoint
    /// ledger balances: every chunk is exactly one of hit/miss/corrupt,
    /// with hits equal to the tasks the killed run completed.
    #[test]
    fn crash_then_resume_is_byte_identical(
        records in prop::collection::vec((0u8..5, -40i64..40), 1..220),
        n_seg in 2usize..7,
        kill_pick in 0u64..16,
    ) {
        let segs = split_into_segments(&records, n_seg, 32);
        let cfg = JobConfig::default();
        let clean = run_symple(&ByKey, &Resets, &segs, &cfg).unwrap();

        let store = MemStore::new();
        let ctx = CheckpointCtx::new(&store, "fault-matrix");
        // Any boundary, including 0 (die before any work) and >= task
        // count (never fires; phase 1 completes and phase 2 hits fully).
        let kill_after = kill_pick % (segs.len() as u64 + 2);
        let injector = FaultInjector::new(FaultPlan {
            kill_after_n_tasks: Some(kill_after),
            ..FaultPlan::default()
        });
        let first =
            SympleJob::new(cfg).with_store(ChunkStore::Checkpoint(&ctx)).with_faults(&injector).run(&ByKey, &Resets, &segs);
        if let Err(e) = &first {
            prop_assert!(matches!(e, Error::JobKilled { .. }), "{e:?}");
        }

        let resumed = SympleJob::new(cfg).with_store(ChunkStore::Checkpoint(&ctx)).run(&ByKey, &Resets, &segs).unwrap();
        prop_assert_eq!(&clean.results, &resumed.results);
        prop_assert_eq!(clean.metrics.shuffle_bytes, resumed.metrics.shuffle_bytes);
        prop_assert_eq!(clean.metrics.shuffle_records, resumed.metrics.shuffle_records);
        prop_assert_eq!(clean.metrics.summary_bytes, resumed.metrics.summary_bytes);
        prop_assert_eq!(clean.metrics.explore.forks, resumed.metrics.explore.forks);

        let m = &resumed.metrics;
        prop_assert_eq!(
            m.checkpoint_hits + m.checkpoint_misses + m.checkpoint_corrupt,
            segs.len() as u64
        );
        prop_assert_eq!(m.checkpoint_corrupt, 0);
        // Every task the killed run completed left a durable frame.
        prop_assert_eq!(m.checkpoint_hits, injector.completed_tasks());
    }

    /// Scheduler-level ledger: `retries()` matches the attempt records the
    /// scheduler kept, outcome by outcome.
    #[test]
    fn injector_counts_match_attempt_records(
        n_tasks in 1usize..12,
        fail_once_bits in prop::collection::vec(any::<bool>(), 12),
        fail_twice_bits in prop::collection::vec(any::<bool>(), 12),
        panic_bits in prop::collection::vec(any::<bool>(), 12),
    ) {
        let pick = |bits: &[bool]| -> HashSet<usize> {
            bits.iter()
                .take(n_tasks)
                .enumerate()
                .filter_map(|(i, b)| b.then_some(i))
                .collect()
        };
        let fail_twice = pick(&fail_twice_bits);
        let fail_once: HashSet<usize> =
            pick(&fail_once_bits).difference(&fail_twice).copied().collect();
        let plan = FaultPlan {
            fail_first_attempt: fail_once,
            fail_twice,
            panic_first_attempt: pick(&panic_bits),
            ..FaultPlan::default()
        };
        let injector = FaultInjector::new(plan);

        let items: Vec<i64> = (0..n_tasks as i64).collect();
        let cfg = symple::mapreduce::SchedulerConfig::default();
        let run = run_scheduled(&items, 4, &cfg, |a, x| injector.around(a.task, a, || x * 3))
            .unwrap();

        prop_assert_eq!(run.results, items.iter().map(|x| x * 3).collect::<Vec<_>>());
        prop_assert_eq!(run.stats.attempts as usize, run.stats.records.len());
        let count = |o: AttemptOutcome| {
            run.stats.records.iter().filter(|r| r.outcome == o).count() as u64
        };
        prop_assert_eq!(count(AttemptOutcome::InjectedFailure), injector.retries());
        prop_assert_eq!(count(AttemptOutcome::Panicked), injector.panics());
        prop_assert_eq!(count(AttemptOutcome::Succeeded), n_tasks as u64);
        prop_assert_eq!(
            run.stats.attempts,
            n_tasks as u64 + injector.retries() + injector.panics()
        );
    }
}

/// Regression (satellite of the scheduler PR): a plan that fails *every*
/// attempt used to spin the ad-hoc retry loop forever; it must now stop at
/// the cap with a typed error naming the task.
#[test]
fn fail_always_surfaces_retries_exhausted() {
    let records: Vec<(u8, i64)> = (0..120).map(|i| ((i % 5) as u8, i as i64)).collect();
    let segs = split_into_segments(&records, 4, 32);
    let mut cfg = JobConfig::default();
    cfg.scheduler.max_attempts = 3;
    let plan = FaultPlan {
        fail_always: [2].into_iter().collect(),
        ..FaultPlan::default()
    };
    let injector = FaultInjector::new(plan);
    let err = SympleJob::new(cfg)
        .with_faults(&injector)
        .run(&ByKey, &Resets, &segs)
        .unwrap_err();
    assert_eq!(
        err,
        Error::RetriesExhausted {
            task: 2,
            attempts: 3
        }
    );
    assert_eq!(injector.retries(), 3, "one counted crash per attempt");
}

/// A panic on the final allowed attempt is isolated and typed — the job
/// returns an error instead of unwinding the whole thread scope.
#[test]
fn persistent_panic_surfaces_task_panicked() {
    let records: Vec<(u8, i64)> = (0..90).map(|i| ((i % 3) as u8, i as i64)).collect();
    let segs = split_into_segments(&records, 3, 32);
    let mut cfg = JobConfig::default();
    cfg.scheduler.max_attempts = 1;
    let plan = FaultPlan {
        panic_first_attempt: [1].into_iter().collect(),
        ..FaultPlan::default()
    };
    let injector = FaultInjector::new(plan);
    let err = SympleJob::new(cfg)
        .with_faults(&injector)
        .run(&ByKey, &Resets, &segs)
        .unwrap_err();
    assert_eq!(
        err,
        Error::TaskPanicked {
            task: 1,
            attempt: 1
        }
    );
}

/// A panic on a non-final attempt recovers: the retry recomputes the same
/// bytes and the job output matches the clean run.
#[test]
fn transient_panic_recovers_byte_identically() {
    let records: Vec<(u8, i64)> = (0..200)
        .map(|i| ((i % 5) as u8, (i * 7 % 61) as i64))
        .collect();
    let segs = split_into_segments(&records, 5, 32);
    let cfg = JobConfig::default();
    let clean = run_symple(&ByKey, &Resets, &segs, &cfg).unwrap();
    let plan = FaultPlan {
        panic_first_attempt: [0, 3].into_iter().collect(),
        ..FaultPlan::default()
    };
    let injector = FaultInjector::new(plan);
    let faulty = SympleJob::new(cfg)
        .with_faults(&injector)
        .run(&ByKey, &Resets, &segs)
        .unwrap();
    assert_eq!(injector.panics(), 2);
    assert_eq!(clean.results, faulty.results);
    assert_eq!(clean.metrics.shuffle_bytes, faulty.metrics.shuffle_bytes);
    assert_eq!(faulty.metrics.attempts, clean.metrics.attempts + 2);
}

/// A mid-map kill with *either* store attached: both policies save a
/// chunk inside the map task that computed it, so exactly the tasks that
/// finished before the kill are hits on the rerun, and the rerun is
/// byte-identical to a clean run.
#[test]
fn killed_run_resumes_every_finished_chunk_under_either_policy() {
    let records: Vec<(u8, i64)> = (0..240)
        .map(|i| ((i % 5) as u8, (i * 7 % 41 - 20) as i64))
        .collect();
    let segs = split_into_segments(&records, 6, 32);
    let chunks = segs.len() as u64;
    // One map worker makes the kill boundary exact: tasks 0..3 finish,
    // task 3 dies.
    let cfg = JobConfig::default().with_map_workers(1);
    let clean = run_symple(&ByKey, &Resets, &segs, &cfg).unwrap();
    let assert_clean = |out: &symple::mapreduce::JobOutput<u8, (i64, Vec<i64>)>| {
        assert_eq!(out.results, clean.results);
        assert_eq!(out.metrics.shuffle_bytes, clean.metrics.shuffle_bytes);
        assert_eq!(out.metrics.shuffle_records, clean.metrics.shuffle_records);
        assert_eq!(out.metrics.summary_bytes, clean.metrics.summary_bytes);
    };

    let (cache, store) = (MemStore::new(), MemStore::new());
    let cache_ctx = SummaryCacheCtx::new(&cache);
    let ckpt_ctx = CheckpointCtx::new(&store, "kill-drill");
    type Ledger = fn(&JobMetrics) -> [u64; 3];
    let cache_ledger: Ledger = |m| [m.cache_hits, m.cache_misses, m.cache_corrupt];
    let ckpt_ledger: Ledger = |m| [m.checkpoint_hits, m.checkpoint_misses, m.checkpoint_corrupt];
    for (frames, policy, ledger) in [
        (&cache, ChunkStore::Cache(&cache_ctx), cache_ledger),
        (&store, ChunkStore::Checkpoint(&ckpt_ctx), ckpt_ledger),
    ] {
        let job = SympleJob::new(cfg).with_store(policy);
        let injector = FaultInjector::new(FaultPlan {
            kill_after_n_tasks: Some(3),
            ..FaultPlan::default()
        });
        let err = job
            .with_faults(&injector)
            .run(&ByKey, &Resets, &segs)
            .unwrap_err();
        assert_eq!(err, Error::JobKilled { after_tasks: 3 });
        assert_eq!(injector.completed_tasks(), 3);
        assert_eq!(frames.entry_count(), 3, "chunks are saved in-task");

        let rerun = job.run(&ByKey, &Resets, &segs).unwrap();
        assert_eq!(ledger(&rerun.metrics), [3, chunks - 3, 0]);
        assert_eq!(frames.entry_count(), segs.len());
        assert_clean(&rerun);
    }
}
