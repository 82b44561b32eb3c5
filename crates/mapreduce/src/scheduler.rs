//! A fault-tolerant task scheduler for map/reduce phases.
//!
//! The paper inherits Hadoop's fault-tolerance story (§5.4): a crashed map
//! attempt is simply re-executed, which is sound *because* SYMPLE tasks
//! are deterministic — the property the fault matrix and the oracle's
//! fault probe pin down. This module is the runtime half of that story:
//! it retries what fails, and knows nothing of why it failed.
//!
//! * **Bounded retries** — a failed attempt (the task body returned
//!   [`Crashed`], or it panicked) is re-queued at once until
//!   [`SchedulerConfig::max_attempts`] is reached, after which the job
//!   surfaces a typed [`Error::RetriesExhausted`] instead of spinning
//!   forever. There is no backoff: the scheduler runs in one process, so
//!   waiting between attempts would protect no remote resource.
//! * **Panic isolation** — every attempt runs under
//!   [`std::panic::catch_unwind`], so one poisoned task yields a typed
//!   [`Error::TaskPanicked`] instead of taking its siblings and the job down.
//!
//! A task has at most one attempt queued or running, so every task runs
//! exactly once on a clean run and the attempt count is a function of the
//! input and the failures alone, never of host timing.
//!
//! Fault injection lives with the caller, as it does for the store, where
//! [`crate::store_io::FaultIo`] wraps the I/O the store engine retries:
//! [`crate::fault::FaultInjector::around`] wraps the task body, and the
//! scheduler sees only what a real failure would show it — an `Err` or a
//! panic. The body is told which [`Attempt`] it is, so the wrapper can
//! fail a given attempt of a given task.
//!
//! # One state machine, one lock
//!
//! Everything a phase knows — the FIFO queue of attempts, each task's
//! result slot, the attempt ledger — is one private `Phase` behind one
//! mutex, and every rule above is a plain `&mut` transition on it: take
//! the next attempt, finish an attempt with its outcome. A worker holds the
//! lock at those moments only — twice per attempt, never across the task
//! body — so the rules are tested without threads or sleeps. A phase is a
//! few dozen tasks of milliseconds each, so the lock is never contended for
//! long, and a shared queue cannot be imbalanced: an idle worker takes
//! whatever is next. Results are written back by task index, and timing and
//! every [`SchedulerStats`] count are derived once, at the end, from the
//! ledger.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use symple_core::error::{Error, Result};

/// The timing of one scheduled phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseTiming {
    /// Summed busy time of all attempts (the phase's "CPU seconds").
    pub cpu: Duration,
    /// Actual wall time of the phase on this host.
    pub wall: Duration,
    /// The longest single successful attempt — the lower bound on any
    /// parallel schedule.
    pub max_task: Duration,
}

/// Tuning knobs for the fault-tolerant scheduler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchedulerConfig {
    /// Maximum attempts per task (first run included). At least 1; a task
    /// whose last allowed attempt fails surfaces [`Error::RetriesExhausted`]
    /// (or [`Error::TaskPanicked`] if the final failure was a panic).
    pub max_attempts: u32,
}

impl Default for SchedulerConfig {
    fn default() -> SchedulerConfig {
        SchedulerConfig { max_attempts: 4 }
    }
}

/// Which execution of which task a call of the task body is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Attempt {
    /// Task index (position in the input slice).
    pub task: usize,
    /// 1-based attempt number within the task.
    pub number: u32,
}

/// What a task body returns when the attempt's work is lost — as when a
/// mapper node dies after computing. The scheduler runs the task again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Crashed;

/// How one attempt ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttemptOutcome {
    /// Completed and its result was kept.
    Succeeded,
    /// The task body reported [`Crashed`]: its work was lost.
    InjectedFailure,
    /// The attempt panicked and was caught.
    Panicked,
}
use AttemptOutcome::{InjectedFailure, Panicked, Succeeded};

/// The ledger entry for one executed attempt.
#[derive(Debug, Clone, Copy)]
pub struct AttemptRecord {
    /// Task index (position in the input slice).
    pub task: usize,
    /// 1-based attempt number within the task.
    pub attempt: u32,
    /// How the attempt ended.
    pub outcome: AttemptOutcome,
    /// Busy time of the attempt.
    pub busy: Duration,
}

/// Aggregate scheduler accounting for one phase.
#[derive(Debug, Clone, Default)]
pub struct SchedulerStats {
    /// Attempts executed (clean runs: exactly one per task).
    pub attempts: u64,
    /// Attempts that reported [`Crashed`].
    pub injected_failures: u64,
    /// Attempts that panicked (isolated by `catch_unwind`).
    pub panics: u64,
    /// Busy time of attempts whose work was discarded (crashes and
    /// panics) — the price of fault tolerance.
    pub retry_wasted_cpu: Duration,
    /// Per-attempt ledger, in completion order.
    pub records: Vec<AttemptRecord>,
}

/// What a scheduled phase returns: ordered results plus timing and the
/// attempt ledger.
#[derive(Debug)]
pub struct ScheduledRun<R> {
    /// Task results, in input order.
    pub results: Vec<R>,
    /// Phase timing (CPU sums every attempt, including wasted ones).
    pub timing: PhaseTiming,
    /// Attempt accounting.
    pub stats: SchedulerStats,
}

/// Everything one phase knows, and every scheduling rule as a transition on
/// it (see the module docs). No transition blocks, sleeps or reads a clock.
#[derive(Debug)]
struct Phase<R> {
    max_attempts: u32,
    /// Attempts waiting for a worker: pop the front, push the back.
    queue: VecDeque<Attempt>,
    /// Each task's result slot; the task is done once it is set.
    results: Vec<Option<R>>,
    /// Tasks without a result yet.
    remaining: usize,
    /// The terminal error; once set, no new attempts start.
    fatal: Option<Error>,
    /// Every executed attempt, in completion order.
    ledger: Vec<AttemptRecord>,
}

impl<R> Phase<R> {
    /// `n` tasks, each with its first attempt queued, in input order.
    fn new(n: usize, max_attempts: u32) -> Phase<R> {
        Phase {
            max_attempts: max_attempts.max(1),
            queue: (0..n).map(|task| Attempt { task, number: 1 }).collect(),
            results: std::iter::repeat_with(|| None).take(n).collect(),
            remaining: n,
            fatal: None,
            ledger: Vec::with_capacity(n),
        }
    }

    /// Whether the phase is over: every task resolved, or a fatal error —
    /// whatever is still queued then is abandoned, not executed.
    fn over(&self) -> bool {
        self.remaining == 0 || self.fatal.is_some()
    }

    /// Hands out the next queued attempt.
    fn take(&mut self) -> Option<Attempt> {
        if self.over() {
            return None;
        }
        self.queue.pop_front()
    }

    /// Records how attempt `a` ended after `busy` of work: `Ok` is its
    /// result, `Err` the way it failed. A failure is retried while the cap
    /// allows, and fails the phase once it does not — named after this, the
    /// *last*, failure.
    fn finish(&mut self, a: Attempt, busy: Duration, result: Result<R, AttemptOutcome>) {
        let outcome = match result {
            Ok(r) => {
                self.results[a.task] = Some(r);
                self.remaining -= 1;
                Succeeded
            }
            Err(failure) => failure,
        };
        self.ledger.push(AttemptRecord {
            task: a.task,
            attempt: a.number,
            outcome,
            busy,
        });
        if outcome == Succeeded || self.fatal.is_some() {
            return; // Resolved, or nothing retries.
        }
        if a.number < self.max_attempts {
            self.queue.push_back(Attempt {
                task: a.task,
                number: a.number + 1,
            });
        } else {
            self.fatal = Some(match outcome {
                Panicked => Error::TaskPanicked {
                    task: a.task,
                    attempt: a.number,
                },
                _ => Error::RetriesExhausted {
                    task: a.task,
                    attempts: self.max_attempts,
                },
            });
        }
    }

    /// The finished phase: by-index results, or the terminal error.
    fn into_run(self, wall: Duration) -> Result<ScheduledRun<R>> {
        if let Some(e) = self.fatal {
            return Err(e);
        }
        let (timing, stats) = summarize(self.ledger, wall);
        let results = self.results.into_iter();
        Ok(ScheduledRun {
            results: results.map(|r| r.expect("task resolved")).collect(),
            timing,
            stats,
        })
    }
}

/// Derives a phase's timing and attempt accounting from its ledger.
fn summarize(ledger: Vec<AttemptRecord>, wall: Duration) -> (PhaseTiming, SchedulerStats) {
    let mut timing = PhaseTiming {
        wall,
        ..PhaseTiming::default()
    };
    let mut stats = SchedulerStats {
        attempts: ledger.len() as u64,
        ..SchedulerStats::default()
    };
    for r in &ledger {
        timing.cpu += r.busy;
        if r.outcome == Succeeded {
            timing.max_task = timing.max_task.max(r.busy);
        } else {
            stats.retry_wasted_cpu += r.busy;
            stats.injected_failures += u64::from(r.outcome == InjectedFailure);
            stats.panics += u64::from(r.outcome == Panicked);
        }
    }
    stats.records = ledger;
    (timing, stats)
}

/// Task bodies run outside the lock and no transition panics.
const UNPOISONED: &str = "the phase lock is never poisoned";

/// Blocks until there is an attempt to run (`Some`) or the phase is over
/// (`None`). A worker that finds the queue empty while tasks are still in
/// flight sleeps until one of them finishes.
fn next_attempt<R>(phase: &Mutex<Phase<R>>, wake: &Condvar) -> Option<Attempt> {
    let mut p = phase.lock().expect(UNPOISONED);
    while !p.over() {
        if let Some(a) = p.take() {
            return Some(a);
        }
        p = wake.wait(p).expect(UNPOISONED);
    }
    None
}

/// Runs `f(attempt, &item)` over all items with up to `workers` threads
/// under the fault-tolerant scheduler, returning results in input order
/// plus timing and attempt accounting.
///
/// An attempt that returns [`Crashed`] or panics is re-executed, up to
/// [`SchedulerConfig::max_attempts`] per task. `f` must be deterministic
/// per task — the contract the whole re-execution layer (and the paper's
/// §5.4) rests on, and the one the differential oracle's fault probe
/// verifies. On a clean run every task executes exactly once.
///
/// The worker count is clamped to the host's available parallelism, as the
/// cluster models extrapolate from measured busy time and oversubscribed
/// cores would corrupt it.
pub fn run_scheduled<T, R, F>(
    items: &[T],
    workers: usize,
    cfg: &SchedulerConfig,
    f: F,
) -> Result<ScheduledRun<R>>
where
    T: Sync,
    R: Send,
    F: Fn(Attempt, &T) -> Result<R, Crashed> + Sync,
{
    let n = items.len();
    let host = std::thread::available_parallelism().map_or(1, |p| p.get());
    let workers = workers.clamp(1, n.max(1)).min(host);
    let wall_start = Instant::now();

    let phase = Mutex::new(Phase::new(n, cfg.max_attempts));
    let wake = Condvar::new();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                while let Some(a) = next_attempt(&phase, &wake) {
                    let started = Instant::now();
                    let result = match catch_unwind(AssertUnwindSafe(|| f(a, &items[a.task]))) {
                        Ok(Ok(result)) => Ok(result),
                        Ok(Err(Crashed)) => Err(InjectedFailure),
                        Err(_panic) => Err(Panicked),
                    };
                    let busy = started.elapsed();
                    phase.lock().expect(UNPOISONED).finish(a, busy, result);
                    wake.notify_all();
                }
            });
        }
    });
    let phase = phase.into_inner().expect(UNPOISONED);
    phase.into_run(wall_start.elapsed())
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: Duration = Duration::from_millis(1);

    fn doubled(items: &[i64]) -> Vec<i64> {
        items.iter().map(|x| x * 2).collect()
    }

    fn two_cores() -> bool {
        std::thread::available_parallelism().is_ok_and(|p| p.get() >= 2)
    }

    /// A body doubling its item, except that the listed `(task, attempt)`
    /// pairs lose their work or panic.
    fn doubling<'a>(
        crash: &'a [(usize, u32)],
        panic: &'a [(usize, u32)],
    ) -> impl Fn(Attempt, &i64) -> Result<i64, Crashed> + 'a {
        move |a, x| {
            if panic.contains(&(a.task, a.number)) {
                panic!("task {} attempt {} panics", a.task, a.number);
            }
            if crash.contains(&(a.task, a.number)) {
                return Err(Crashed);
            }
            Ok(x * 2)
        }
    }

    /// The ledger as `(task, attempt, outcome)`, in completion order.
    fn ledger(p: &Phase<i64>) -> Vec<(usize, u32, AttemptOutcome)> {
        let entry = |r: &AttemptRecord| (r.task, r.attempt, r.outcome);
        p.ledger.iter().map(entry).collect()
    }

    #[test]
    fn failures_retry_to_the_cap_and_the_last_one_names_the_error() {
        for (last, err) in [
            (
                InjectedFailure,
                Error::RetriesExhausted {
                    task: 0,
                    attempts: 3,
                },
            ),
            (
                Panicked,
                Error::TaskPanicked {
                    task: 0,
                    attempt: 3,
                },
            ),
        ] {
            let mut p: Phase<i64> = Phase::new(1, 3);
            for (number, failure) in [(1, Panicked), (2, InjectedFailure), (3, last)] {
                assert_eq!(p.fatal, None);
                let a = p.take().unwrap();
                assert_eq!(a.number, number);
                p.finish(a, MS, Err(failure));
            }
            assert_eq!(p.fatal, Some(err.clone()));
            assert_eq!(p.take(), None, "a failed phase starts nothing");
            assert_eq!(ledger(&p).len(), 3);
            assert_eq!(p.into_run(MS).unwrap_err(), err);
        }
    }

    #[test]
    fn aggregates_are_a_hand_count_of_the_ledger() {
        let rec = |task, attempt, outcome, ms: u32| AttemptRecord {
            task,
            attempt,
            outcome,
            busy: ms * MS,
        };
        let hand_built = vec![
            rec(1, 1, Succeeded, 40),
            rec(0, 1, InjectedFailure, 7),
            rec(2, 1, Panicked, 3),
            rec(2, 2, Succeeded, 11),
            rec(0, 2, Succeeded, 8),
        ];
        let (timing, stats) = summarize(hand_built, 123 * MS);
        assert_eq!(timing.cpu, 69 * MS);
        assert_eq!(timing.max_task, 40 * MS);
        assert_eq!(timing.wall, 123 * MS);
        assert_eq!(stats.attempts, 5);
        assert_eq!(stats.injected_failures, 1);
        assert_eq!(stats.panics, 1);
        assert_eq!(stats.retry_wasted_cpu, 10 * MS);
        assert_eq!(stats.records.len(), 5);
    }

    #[test]
    fn clean_run_matches_input_order() {
        let items: Vec<i64> = (0..100).collect();
        let run = run_scheduled(&items, 4, &SchedulerConfig::default(), |a, x| {
            assert_eq!(a.task as i64, *x);
            Ok(x * 2)
        })
        .unwrap();
        assert_eq!(run.results, doubled(&items));
        assert_eq!(run.stats.attempts, 100);
        assert_eq!(run.stats.injected_failures, 0);
        assert_eq!(run.stats.panics, 0);
        assert_eq!(run.stats.retry_wasted_cpu, Duration::ZERO);
        assert_eq!(run.stats.records.len(), 100);
        assert!(run.stats.records.iter().all(|r| r.outcome == Succeeded));
        assert!(run.timing.cpu >= run.timing.max_task);
    }

    /// A slow task is waited for, never raced: it runs once, and nothing
    /// is wasted, however long the other worker has been idle.
    #[test]
    fn a_slow_attempt_runs_once() {
        let items: Vec<i64> = (0..8).collect();
        let run = run_scheduled(&items, 2, &SchedulerConfig::default(), |a, x| {
            if a.task == 0 {
                std::thread::sleep(200 * MS);
            }
            Ok(x * 2)
        })
        .unwrap();
        assert_eq!(run.results, doubled(&items));
        assert_eq!(run.stats.attempts, 8, "{:?}", run.stats);
        assert!(run.stats.records.iter().all(|r| r.outcome == Succeeded));
        assert_eq!(run.stats.retry_wasted_cpu, Duration::ZERO);
    }

    #[test]
    fn empty_items() {
        let none = Vec::<i64>::new();
        let run = run_scheduled(&none, 4, &SchedulerConfig::default(), |_, x| Ok(*x)).unwrap();
        assert!(run.results.is_empty());
        assert_eq!(run.stats.attempts, 0);
    }

    #[test]
    fn injected_failures_retry_and_recover() {
        let items: Vec<i64> = (0..8).collect();
        let body = doubling(&[(0, 1), (3, 1), (3, 2)], &[]);
        let run = run_scheduled(&items, 4, &SchedulerConfig::default(), body).unwrap();
        assert_eq!(run.results, doubled(&items));
        // 8 first attempts + 1 retry for task 0 + 2 retries for task 3.
        assert_eq!(run.stats.attempts, 11);
        assert_eq!(run.stats.injected_failures, 3);
        assert!(run.stats.retry_wasted_cpu > Duration::ZERO || run.stats.attempts == 11);
        let t3: Vec<_> = run
            .stats
            .records
            .iter()
            .filter(|r| r.task == 3)
            .map(|r| (r.attempt, r.outcome))
            .collect();
        assert!(t3.contains(&(1, InjectedFailure)));
        assert!(t3.contains(&(2, InjectedFailure)));
        assert!(t3.contains(&(3, Succeeded)));
    }

    #[test]
    fn retries_exhausted_is_typed() {
        let items: Vec<i64> = (0..4).collect();
        let cfg = SchedulerConfig { max_attempts: 3 };
        let err = run_scheduled(&items, 2, &cfg, |a, x| {
            if a.task == 2 {
                return Err(Crashed);
            }
            Ok(x * 2)
        })
        .unwrap_err();
        assert_eq!(
            err,
            Error::RetriesExhausted {
                task: 2,
                attempts: 3
            }
        );
    }

    #[test]
    fn panics_are_isolated_and_typed() {
        let items: Vec<i64> = (0..4).collect();
        let cfg = SchedulerConfig { max_attempts: 2 };
        let body = doubling(&[], &[(1, 1), (1, 2)]);
        let err = run_scheduled(&items, 2, &cfg, body).unwrap_err();
        assert_eq!(
            err,
            Error::TaskPanicked {
                task: 1,
                attempt: 2
            }
        );
    }

    #[test]
    fn panic_once_recovers() {
        let items: Vec<i64> = (0..6).collect();
        let body = doubling(&[], &[(4, 1)]);
        let run = run_scheduled(&items, 3, &SchedulerConfig::default(), body).unwrap();
        assert_eq!(run.results, doubled(&items));
        assert_eq!(run.stats.panics, 1);
        assert_eq!(run.stats.attempts, 7);
    }

    #[test]
    fn user_panic_without_hook_is_typed_not_unwound() {
        let items: Vec<i64> = (0..3).collect();
        let cfg = SchedulerConfig { max_attempts: 2 };
        let err = run_scheduled(&items, 2, &cfg, |_, x| {
            if *x == 1 {
                panic!("poisoned task");
            }
            Ok(*x)
        })
        .unwrap_err();
        assert!(
            matches!(err, Error::TaskPanicked { task: 1, .. }),
            "{err:?}"
        );
    }

    #[test]
    fn slow_tasks_spread_over_both_workers() {
        if !two_cores() {
            return; // Needs a second worker.
        }
        // Every even task is slow — the pattern that piles all the slow
        // work onto one worker if tasks are dealt out in advance. From a
        // shared queue, whichever worker is free takes the next task, so
        // the slow ones overlap.
        let items: Vec<i64> = (0..8).collect();
        let slow = Duration::from_millis(40);
        let run = run_scheduled(&items, 2, &SchedulerConfig::default(), |a, x| {
            if a.task % 2 == 0 {
                std::thread::sleep(slow);
            }
            Ok(x * 2)
        })
        .unwrap();
        assert_eq!(run.results, doubled(&items));
        assert_eq!(run.stats.attempts, 8);
        assert!(run.timing.wall < slow * 4, "{:?}", run.timing);
    }
}
