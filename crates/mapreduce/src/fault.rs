//! Fault injection: crashed map attempts and their re-execution.
//!
//! MapReduce's fault-tolerance story (the paper inherits Hadoop's, §5.4)
//! rests on tasks being deterministic: a failed attempt is simply run
//! again, and the shuffle sees exactly the bytes the first attempt would
//! have produced. SYMPLE adds a subtlety — map tasks perform symbolic
//! exploration — so this module lets tests and demos *prove* that
//! re-executed SYMPLE map tasks are byte-identical: inject failures,
//! re-run, compare.
//!
//! The scheduler knows nothing of this module: it retries whatever
//! returns [`Crashed`] or panics, and [`FaultInjector::around`] wraps a
//! task body so that it does — the shape the storage layer already has,
//! where [`crate::store_io::FaultIo`] wraps the I/O that the store engine
//! retries and [`crate::store_io::StorageFaultPlan`] schedules the disk
//! faults (errno on the Nth op, torn writes, failed renames).
//! In both, a declarative plan, a counting injector, and tests that
//! balance the two.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use crate::scheduler::{Attempt, Crashed};

/// Declares which map attempts fail.
///
/// Attempt numbers are 1-based; a task fails while `(segment, attempt)`
/// matches the plan, and succeeds on the next attempt — except
/// `fail_always` segments, which fail *every* attempt and exercise the
/// scheduler's retry cap ([`Error::RetriesExhausted`]).
///
/// [`Error::RetriesExhausted`]: symple_core::error::Error::RetriesExhausted
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Segment ids whose first attempt crashes (after doing the work).
    pub fail_first_attempt: HashSet<usize>,
    /// Segment ids whose first *two* attempts crash.
    pub fail_twice: HashSet<usize>,
    /// Segment ids whose *every* attempt crashes — the job must surface a
    /// typed error once the retry cap is exhausted, not spin forever.
    pub fail_always: HashSet<usize>,
    /// Segment ids whose first attempt panics mid-flight (isolated by the
    /// scheduler's `catch_unwind`, then retried).
    pub panic_first_attempt: HashSet<usize>,
    /// Segment ids whose first attempt is delayed by [`straggle_delay`] —
    /// raw material for speculation tests.
    ///
    /// [`straggle_delay`]: FaultPlan::straggle_delay
    pub straggle_first_attempt: HashSet<usize>,
    /// Extra latency injected into straggling first attempts.
    pub straggle_delay: Duration,
    /// Simulated process death: once this many map tasks have *committed*
    /// (and, when checkpointing is enabled, persisted their summaries),
    /// every subsequent map task dies with
    /// [`Error::JobKilled`] instead of running. Drives the
    /// crash → restart → resume cycle in-process: run once with the kill,
    /// then rerun the same job id against the same store and assert the
    /// output is byte-identical to an uninterrupted run.
    ///
    /// [`Error::JobKilled`]: symple_core::error::Error::JobKilled
    pub kill_after_n_tasks: Option<u64>,
}

impl FaultPlan {
    /// A plan failing the first attempt of the given segments.
    pub fn fail_once(segments: impl IntoIterator<Item = usize>) -> FaultPlan {
        FaultPlan {
            fail_first_attempt: segments.into_iter().collect(),
            ..FaultPlan::default()
        }
    }
}

/// Injects the failures of a [`FaultPlan`] and counts re-executions.
#[derive(Debug, Default)]
pub struct FaultInjector {
    plan: FaultPlan,
    retries: AtomicU64,
    panics: AtomicU64,
    completed: AtomicU64,
}

impl FaultInjector {
    /// Creates an injector for the plan.
    pub fn new(plan: FaultPlan) -> FaultInjector {
        FaultInjector {
            plan,
            retries: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            completed: AtomicU64::new(0),
        }
    }

    /// If the plan kills the job and its task budget is already spent,
    /// returns how many map tasks had committed — the job must die with
    /// `Error::JobKilled { after_tasks }` instead of running the task.
    pub fn kill_check(&self) -> Option<u64> {
        let n = self.plan.kill_after_n_tasks?;
        let done = self.completed.load(Ordering::SeqCst);
        (done >= n).then_some(done)
    }

    /// Records one committed map task (call *after* its checkpoint save).
    pub fn note_task_completed(&self) {
        self.completed.fetch_add(1, Ordering::SeqCst);
    }

    /// Map tasks that committed before any kill.
    pub fn completed_tasks(&self) -> u64 {
        self.completed.load(Ordering::SeqCst)
    }

    /// Runs `body` as one attempt at `segment`'s task with the plan's
    /// faults around it: the straggler delay and the panic come before the
    /// body, the crash after it — the work is done, then lost with the
    /// attempt, as when a mapper node dies. A speculative clone models
    /// re-execution on another machine, outside the plan's attempt slots,
    /// so it runs the bare body — which also keeps the injected counts
    /// independent of host timing.
    pub fn around<R>(
        &self,
        segment: usize,
        attempt: Attempt,
        body: impl FnOnce() -> R,
    ) -> Result<R, Crashed> {
        if attempt.speculative {
            return Ok(body());
        }
        let delay = self.attempt_delay(segment, attempt.number);
        if !delay.is_zero() {
            std::thread::sleep(delay);
        }
        if self.attempt_panics(segment, attempt.number) {
            panic!(
                "injected panic: segment {segment} attempt {}",
                attempt.number
            );
        }
        let out = body();
        if self.attempt_fails(segment, attempt.number) {
            return Err(Crashed);
        }
        Ok(out)
    }

    /// Whether this `(segment, attempt)` crashes. Counts the retry.
    fn attempt_fails(&self, segment: usize, attempt: u32) -> bool {
        let fails = self.plan.fail_always.contains(&segment)
            || match attempt {
                1 => {
                    self.plan.fail_first_attempt.contains(&segment)
                        || self.plan.fail_twice.contains(&segment)
                }
                2 => self.plan.fail_twice.contains(&segment),
                _ => false,
            };
        if fails {
            self.retries.fetch_add(1, Ordering::Relaxed);
        }
        fails
    }

    /// Whether this `(segment, attempt)` panics mid-flight. Counts it.
    fn attempt_panics(&self, segment: usize, attempt: u32) -> bool {
        let panics = attempt == 1 && self.plan.panic_first_attempt.contains(&segment);
        if panics {
            self.panics.fetch_add(1, Ordering::Relaxed);
        }
        panics
    }

    /// Extra latency for this `(segment, attempt)`.
    fn attempt_delay(&self, segment: usize, attempt: u32) -> Duration {
        if attempt == 1 && self.plan.straggle_first_attempt.contains(&segment) {
            self.plan.straggle_delay
        } else {
            Duration::ZERO
        }
    }

    /// Re-executions triggered so far (injected crashes, not panics).
    pub fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    /// Panics injected so far.
    pub fn panics(&self) -> u64 {
        self.panics.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::groupby::GroupBy;
    use crate::job::JobConfig;
    use crate::segment::split_into_segments;
    use crate::symple_job::{run_symple, SympleJob};
    use symple_core::ctx::SymCtx;
    use symple_core::impl_sym_state;
    use symple_core::types::{sym_int::SymInt, sym_vector::SymVector};
    use symple_core::uda::Uda;

    struct ByMod;
    impl GroupBy for ByMod {
        type Record = i64;
        type Key = u8;
        type Event = i64;
        fn extract(&self, r: &i64) -> Option<(u8, i64)> {
            Some(((r % 5) as u8, *r))
        }
    }

    struct SumsUda;
    #[derive(Clone, Debug)]
    struct SumState {
        sum: SymInt,
        peaks: SymVector<i64>,
    }
    impl_sym_state!(SumState { sum, peaks });
    impl Uda for SumsUda {
        type State = SumState;
        type Event = i64;
        type Output = (i64, Vec<i64>);
        fn init(&self) -> SumState {
            SumState {
                sum: SymInt::new(0),
                peaks: SymVector::new(),
            }
        }
        fn update(&self, s: &mut SumState, ctx: &mut SymCtx, e: &i64) {
            s.sum.add(ctx, *e);
            if s.sum.gt(ctx, 500) {
                s.peaks.push_int(&s.sum);
                s.sum.assign(0);
            }
        }
        fn result(&self, s: &SumState, _ctx: &mut SymCtx) -> (i64, Vec<i64>) {
            (
                s.sum.concrete_value().unwrap(),
                s.peaks.concrete_elems().unwrap(),
            )
        }
    }

    #[test]
    fn failed_attempts_do_not_change_results() {
        let records: Vec<i64> = (0..2_000).map(|i| (i * 17 + 3) % 101).collect();
        let segments = split_into_segments(&records, 6, 64);
        let cfg = JobConfig::default();
        let clean = run_symple(&ByMod, &SumsUda, &segments, &cfg).unwrap();

        let injector = FaultInjector::new(FaultPlan::fail_once([0, 2, 5]));
        let faulty = SympleJob::new(cfg)
            .with_faults(&injector)
            .run(&ByMod, &SumsUda, &segments)
            .unwrap();
        assert_eq!(injector.retries(), 3);
        assert_eq!(clean.results, faulty.results);
        assert_eq!(clean.metrics.shuffle_bytes, faulty.metrics.shuffle_bytes);
        assert_eq!(
            clean.metrics.shuffle_records,
            faulty.metrics.shuffle_records
        );
    }

    #[test]
    fn double_failures_recover_too() {
        let records: Vec<i64> = (0..900).map(|i| (i * 7) % 53).collect();
        let segments = split_into_segments(&records, 4, 64);
        let cfg = JobConfig::default();
        let clean = run_symple(&ByMod, &SumsUda, &segments, &cfg).unwrap();
        let plan = FaultPlan {
            fail_twice: [1].into_iter().collect(),
            ..Default::default()
        };
        let injector = FaultInjector::new(plan);
        let faulty = SympleJob::new(cfg)
            .with_faults(&injector)
            .run(&ByMod, &SumsUda, &segments)
            .unwrap();
        assert_eq!(injector.retries(), 2);
        assert_eq!(clean.results, faulty.results);
    }

    #[test]
    fn empty_plan_is_free() {
        let injector = FaultInjector::new(FaultPlan::default());
        assert!(!injector.attempt_fails(0, 1));
        assert_eq!(injector.retries(), 0);
    }
}
