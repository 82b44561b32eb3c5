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
//! * **Straggler speculation** — when a worker goes idle while a task has
//!   been running longer than `speculation_factor ×` the median completed
//!   attempt time (and past the [`SchedulerConfig::speculation_min`] noise
//!   floor), a speculative clone of the task is queued and raced against
//!   the original; the first completed result wins. This is safe precisely
//!   because tasks are deterministic: both attempts produce byte-identical
//!   output, so it does not matter which one lands.
//!
//! Fault injection lives with the caller, as it does for the store, where
//! [`crate::store_io::FaultIo`] wraps the I/O the store engine retries:
//! [`crate::fault::FaultInjector::around`] wraps the task body, and the
//! scheduler sees only what a real failure would show it — an `Err` or a
//! panic. The body is told which [`Attempt`] it is, so the wrapper can
//! spare speculative clones and injected counts do not depend on timing.
//!
//! # One state machine, one lock
//!
//! Everything a phase knows — the FIFO queue of attempts, each task's
//! counts and result slot, the attempt ledger — is one private `Phase`
//! behind one mutex, and every rule above is a plain `&mut` transition on
//! it: take the next attempt, queue clones for stragglers as of a given
//! instant, finish an attempt with its outcome. A worker holds the lock at
//! those moments only — twice per attempt, never across the task body — so
//! the rules are tested without threads or sleeps. A phase is a few dozen
//! tasks of milliseconds each, so the lock is never contended for long, and
//! a shared queue cannot be imbalanced: an idle worker takes whatever is
//! next. Results are written back by task index, and timing and every
//! [`SchedulerStats`] count are derived once, at the end, from the ledger.

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
    /// The longest single winning attempt — the lower bound on any
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
    /// Whether idle workers launch speculative clones of stragglers.
    pub speculation: bool,
    /// A task becomes a straggler when its running attempt exceeds this
    /// multiple of the median completed attempt time.
    pub speculation_factor: u32,
    /// Noise floor: never speculate on tasks younger than this, however
    /// small the median is. Keeps µs-scale jobs (tests, smoke runs) from
    /// launching clones over scheduling jitter.
    pub speculation_min: Duration,
}

impl Default for SchedulerConfig {
    fn default() -> SchedulerConfig {
        SchedulerConfig {
            max_attempts: 4,
            speculation: true,
            speculation_factor: 4,
            speculation_min: Duration::from_millis(25),
        }
    }
}

/// Which execution of which task a call of the task body is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Attempt {
    /// Task index (position in the input slice).
    pub task: usize,
    /// 1-based attempt number within the task.
    pub number: u32,
    /// Whether this is a speculative clone racing a straggler.
    pub speculative: bool,
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
    /// Completed correctly, but another attempt had already won the race.
    Superseded,
    /// The task body reported [`Crashed`]: its work was lost.
    InjectedFailure,
    /// The attempt panicked and was caught.
    Panicked,
}
use AttemptOutcome::{InjectedFailure, Panicked, Succeeded, Superseded};

/// The ledger entry for one executed attempt.
#[derive(Debug, Clone, Copy)]
pub struct AttemptRecord {
    /// Task index (position in the input slice).
    pub task: usize,
    /// 1-based attempt number within the task.
    pub attempt: u32,
    /// Whether this was a speculative clone.
    pub speculative: bool,
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
    /// Speculative clones launched against stragglers.
    pub speculative_launches: u64,
    /// Speculative clones whose result won the race.
    pub speculative_wins: u64,
    /// Busy time of attempts whose work was discarded (crashes, panics,
    /// and race losers) — the price of fault tolerance.
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

/// Per-task scheduling state.
#[derive(Debug)]
struct Task<R> {
    /// Attempts handed out so far (queued, running, or finished).
    started: u32,
    /// Attempts waiting in the queue.
    queued: u32,
    /// Attempts currently executing.
    running: u32,
    /// Start instant of the oldest currently-running attempt.
    running_since: Option<Instant>,
    /// A speculative clone has already been launched.
    speculated: bool,
    /// The winning attempt's result; the task is done once this is set.
    result: Option<R>,
}

/// Everything one phase knows, and every scheduling rule as a transition on
/// it (see the module docs). No transition blocks, sleeps or reads a clock.
#[derive(Debug)]
struct Phase<R> {
    max_attempts: u32,
    /// Attempts waiting for a worker: pop the front, push the back.
    queue: VecDeque<Attempt>,
    tasks: Vec<Task<R>>,
    /// Tasks without a result yet.
    remaining: usize,
    /// The terminal error; once set, no new attempts start.
    fatal: Option<Error>,
    /// Every executed attempt, in completion order.
    ledger: Vec<AttemptRecord>,
    /// Clones queued — the one count the ledger cannot give, as a queued
    /// clone may never run.
    speculative_launches: u64,
}

impl<R> Phase<R> {
    /// `n` tasks, each with its first attempt queued, in input order.
    fn new(n: usize, max_attempts: u32) -> Phase<R> {
        let unstarted = || Task {
            started: 0,
            queued: 0,
            running: 0,
            running_since: None,
            speculated: false,
            result: None,
        };
        let mut phase = Phase {
            max_attempts: max_attempts.max(1),
            queue: VecDeque::with_capacity(n),
            tasks: std::iter::repeat_with(unstarted).take(n).collect(),
            remaining: n,
            fatal: None,
            ledger: Vec::with_capacity(n),
            speculative_launches: 0,
        };
        (0..n).for_each(|task| phase.enqueue(task, false));
        phase
    }

    /// Queues the next attempt of `task`.
    fn enqueue(&mut self, task: usize, speculative: bool) {
        let t = &mut self.tasks[task];
        t.started += 1;
        t.queued += 1;
        let number = t.started;
        self.queue.push_back(Attempt {
            task,
            number,
            speculative,
        });
    }

    /// Whether the phase is over: every task resolved, or a fatal error —
    /// whatever is still queued then is abandoned, not executed.
    fn over(&self) -> bool {
        self.remaining == 0 || self.fatal.is_some()
    }

    /// Hands out the next queued attempt, running as of `now`. A queued
    /// attempt whose task a twin already finished is dropped, not run.
    fn take(&mut self, now: Instant) -> Option<Attempt> {
        if self.over() {
            return None;
        }
        while let Some(a) = self.queue.pop_front() {
            let t = &mut self.tasks[a.task];
            t.queued -= 1;
            if t.result.is_none() {
                t.running += 1;
                t.running_since.get_or_insert(now);
                return Some(a);
            }
        }
        None
    }

    /// Queues a speculative clone of every task that, as of `now`, has run
    /// longer than the straggler threshold: `speculation_factor ×` the
    /// median busy time of completed attempts, at least `speculation_min`.
    /// Once per task, within the attempt cap, and never without a completed
    /// attempt to measure a straggler against. Returns whether any was queued.
    fn speculate(&mut self, cfg: &SchedulerConfig, now: Instant) -> bool {
        if !cfg.speculation || self.over() {
            return false;
        }
        let mut completed: Vec<Duration> = self
            .ledger
            .iter()
            .filter(|r| matches!(r.outcome, Succeeded | Superseded))
            .map(|r| r.busy)
            .collect();
        if completed.is_empty() {
            return false;
        }
        let mid = completed.len() / 2;
        let median = *completed.select_nth_unstable(mid).1;
        let threshold = median
            .saturating_mul(cfg.speculation_factor.max(1))
            .max(cfg.speculation_min);
        let before = self.speculative_launches;
        for task in 0..self.tasks.len() {
            let t = &mut self.tasks[task];
            let straggling = t
                .running_since
                .is_some_and(|since| now.saturating_duration_since(since) > threshold);
            if straggling && t.result.is_none() && !t.speculated && t.started < self.max_attempts {
                t.speculated = true;
                self.enqueue(task, true);
                self.speculative_launches += 1;
            }
        }
        self.speculative_launches > before
    }

    /// Records how attempt `a` ended after `busy` of work: `Ok` is its
    /// result, `Err` the way it failed. The first result of a task wins and
    /// later ones are `Superseded`; a failure is retried while the cap
    /// allows, and fails the phase only once no other attempt of the task is
    /// queued or running — named after this, the *last*, failure.
    fn finish(&mut self, a: Attempt, busy: Duration, result: Result<R, AttemptOutcome>) {
        let t = &mut self.tasks[a.task];
        t.running -= 1;
        if t.running == 0 {
            t.running_since = None;
        }
        let outcome = match result {
            Ok(r) if t.result.is_none() => {
                t.result = Some(r);
                self.remaining -= 1;
                Succeeded
            }
            Ok(_) => Superseded,
            Err(failure) => failure,
        };
        self.ledger.push(AttemptRecord {
            task: a.task,
            attempt: a.number,
            speculative: a.speculative,
            outcome,
            busy,
        });
        if t.result.is_some() || self.fatal.is_some() {
            return; // Resolved, by this attempt or a twin; or nothing retries.
        }
        if t.started < self.max_attempts {
            self.enqueue(a.task, false);
        } else if t.queued == 0 && t.running == 0 {
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
        let (timing, stats) = summarize(self.ledger, self.speculative_launches, wall);
        let results = self.tasks.into_iter().map(|t| t.result);
        Ok(ScheduledRun {
            results: results.map(|r| r.expect("task resolved")).collect(),
            timing,
            stats,
        })
    }
}

/// Derives a phase's timing and attempt accounting from its ledger.
fn summarize(
    ledger: Vec<AttemptRecord>,
    speculative_launches: u64,
    wall: Duration,
) -> (PhaseTiming, SchedulerStats) {
    let mut timing = PhaseTiming {
        wall,
        ..PhaseTiming::default()
    };
    let mut stats = SchedulerStats {
        attempts: ledger.len() as u64,
        speculative_launches,
        ..SchedulerStats::default()
    };
    for r in &ledger {
        timing.cpu += r.busy;
        if r.outcome == Succeeded {
            timing.max_task = timing.max_task.max(r.busy);
            stats.speculative_wins += u64::from(r.speculative);
        } else {
            stats.retry_wasted_cpu += r.busy;
            stats.injected_failures += u64::from(r.outcome == InjectedFailure);
            stats.panics += u64::from(r.outcome == Panicked);
        }
    }
    stats.records = ledger;
    (timing, stats)
}

/// How long an idle worker naps between straggler checks.
const IDLE_NAP: Duration = Duration::from_micros(500);

/// Task bodies run outside the lock and no transition panics.
const UNPOISONED: &str = "the phase lock is never poisoned";

/// Blocks until there is an attempt to run (`Some`) or the phase is over
/// (`None`). A worker that finds the queue empty while tasks are still in
/// flight looks for stragglers, then naps until something finishes or it is
/// time to look again.
fn next_attempt<R>(
    phase: &Mutex<Phase<R>>,
    wake: &Condvar,
    cfg: &SchedulerConfig,
) -> Option<Attempt> {
    let mut p = phase.lock().expect(UNPOISONED);
    while !p.over() {
        let now = Instant::now();
        if let Some(a) = p.take(now) {
            return Some(a);
        }
        if p.speculate(cfg, now) {
            wake.notify_all();
        } else {
            p = wake.wait_timeout(p, IDLE_NAP).expect(UNPOISONED).0;
        }
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
/// verifies. On a clean run (no failures, no stragglers) every task
/// executes exactly once.
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
                while let Some(a) = next_attempt(&phase, &wake, cfg) {
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

    /// Two tasks on two workers, speculation at `2 ×` the median over a
    /// 5 ms floor: task 1 is done after 10 ms of work, task 0 has been
    /// running since the returned instant.
    fn one_done_one_running(max_attempts: u32) -> (Phase<i64>, SchedulerConfig, Attempt, Instant) {
        let cfg = SchedulerConfig {
            max_attempts,
            speculation: true,
            speculation_factor: 2,
            speculation_min: 5 * MS,
        };
        let t0 = Instant::now();
        let mut p = Phase::new(2, max_attempts);
        let slow = p.take(t0).unwrap();
        let fast = p.take(t0).unwrap();
        assert_eq!((slow.task, fast.task), (0, 1));
        assert_eq!(p.take(t0), None, "nothing queued, both running");
        p.finish(fast, 10 * MS, Ok(2));
        (p, cfg, slow, t0)
    }

    #[test]
    fn failures_retry_to_the_cap_and_the_last_one_names_the_error() {
        let t0 = Instant::now();
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
                let a = p.take(t0).unwrap();
                assert_eq!((a.number, a.speculative), (number, false));
                p.finish(a, MS, Err(failure));
            }
            assert_eq!(p.fatal, Some(err.clone()));
            assert_eq!(p.take(t0), None, "a failed phase starts nothing");
            assert_eq!(ledger(&p).len(), 3);
            assert_eq!(p.into_run(MS).unwrap_err(), err);
        }
    }

    #[test]
    fn speculation_needs_a_median_and_respects_floor_factor_and_cap() {
        let t0 = Instant::now();
        let mut none_done: Phase<i64> = Phase::new(2, 4);
        none_done.take(t0).unwrap();
        let cfg = SchedulerConfig::default();
        assert!(
            !none_done.speculate(&cfg, t0 + 3600 * 1000 * MS),
            "no completed attempt, no straggler"
        );

        // Median 10 ms × factor 2: a straggler past 20 ms, not at it.
        let (mut p, cfg, slow, t0) = one_done_one_running(4);
        assert!(!p.speculate(&cfg, t0 + 20 * MS));
        let off = SchedulerConfig {
            speculation: false,
            ..cfg
        };
        assert!(!p.speculate(&off, t0 + 21 * MS));
        let floored = SchedulerConfig {
            speculation_min: 25 * MS,
            ..cfg
        };
        assert!(!p.speculate(&floored, t0 + 25 * MS));
        assert!(p.speculate(&cfg, t0 + 21 * MS));
        assert_eq!(p.speculative_launches, 1);
        let clone = Attempt {
            task: slow.task,
            number: 2,
            speculative: true,
        };
        assert_eq!(p.queue, [clone]);
        // Once per task, however long it straggles on.
        assert!(!p.speculate(&cfg, t0 + 500 * MS));
        assert_eq!(p.take(t0 + 500 * MS), Some(clone));
        assert!(!p.speculate(&cfg, t0 + 900 * MS));
        assert_eq!(p.speculative_launches, 1);

        // A clone is an attempt: none past the cap.
        let (mut capped, cfg, _, t0) = one_done_one_running(1);
        assert!(!capped.speculate(&cfg, t0 + 500 * MS));
    }

    #[test]
    fn first_result_wins_and_the_losing_twin_is_wasted_cpu() {
        let (mut p, cfg, slow, t0) = one_done_one_running(4);
        assert!(p.speculate(&cfg, t0 + 30 * MS));
        let clone = p.take(t0 + 30 * MS).unwrap();
        p.finish(clone, 5 * MS, Ok(7));
        assert!(p.over());
        p.finish(slow, 300 * MS, Ok(8));
        assert_eq!(
            ledger(&p),
            [(1, 1, Succeeded), (0, 2, Succeeded), (0, 1, Superseded)]
        );
        let run = p.into_run(310 * MS).unwrap();
        assert_eq!(run.results, [7, 2], "by index; task 0 from its clone");
        assert_eq!(run.stats.attempts, 3);
        assert_eq!(run.stats.speculative_launches, 1);
        assert_eq!(run.stats.speculative_wins, 1);
        assert_eq!(run.stats.retry_wasted_cpu, 300 * MS);
        assert_eq!(run.timing.cpu, 315 * MS);
        assert_eq!(run.timing.max_task, 10 * MS);
        assert_eq!(run.timing.wall, 310 * MS);
    }

    #[test]
    fn a_finished_twin_makes_a_queued_retry_a_no_op() {
        let cfg = SchedulerConfig {
            speculation_factor: 2,
            speculation_min: 5 * MS,
            ..SchedulerConfig::default()
        };
        let t0 = Instant::now();
        let mut p: Phase<i64> = Phase::new(3, 4);
        let slow = p.take(t0).unwrap();
        let fast = p.take(t0).unwrap();
        p.finish(fast, 10 * MS, Ok(2));
        assert!(p.speculate(&cfg, t0 + 30 * MS));
        let third = p.take(t0 + 30 * MS).unwrap();
        let clone = p.take(t0 + 30 * MS).unwrap();
        assert_eq!((third.task, clone.task, clone.speculative), (2, 0, true));
        // The straggler dies, its retry is queued — and then its clone lands.
        p.finish(slow, 40 * MS, Err(InjectedFailure));
        assert_eq!(p.tasks[0].queued, 1);
        p.finish(clone, 5 * MS, Ok(0));
        assert!(!p.over(), "task 2 is still running");
        assert_eq!(p.take(t0 + 50 * MS), None, "the retry is dropped, not run");
        assert_eq!(p.tasks[0].queued, 0);
        p.finish(third, 20 * MS, Ok(4));
        let run = p.into_run(50 * MS).unwrap();
        assert_eq!(run.results, [0, 2, 4]);
        assert_eq!(run.stats.attempts, 4, "attempt 3 of task 0 never ran");
        assert_eq!(run.stats.injected_failures, 1);
        assert_eq!(run.stats.retry_wasted_cpu, 40 * MS);
    }

    /// A clone counts as outstanding from the moment it is queued, not from
    /// when it runs: the last regular attempt failing in between must not
    /// fail the phase one attempt short of the cap.
    #[test]
    fn a_queued_clone_keeps_its_task_alive() {
        let (mut p, cfg, slow, t0) = one_done_one_running(2);
        assert!(p.speculate(&cfg, t0 + 30 * MS), "clone queued: cap reached");
        p.finish(slow, 30 * MS, Err(Panicked));
        assert_eq!(p.fatal, None, "an attempt of the task is still queued");
        let clone = p.take(t0 + 31 * MS).unwrap();
        assert_eq!((clone.task, clone.number, clone.speculative), (0, 2, true));
        p.finish(clone, 5 * MS, Ok(0));
        assert_eq!(
            ledger(&p),
            [(1, 1, Succeeded), (0, 1, Panicked), (0, 2, Succeeded)]
        );
        assert_eq!(p.into_run(40 * MS).unwrap().results, [0, 2]);

        // Had the clone failed too, the cap is spent and nothing is left.
        let (mut p, cfg, slow, t0) = one_done_one_running(2);
        assert!(p.speculate(&cfg, t0 + 30 * MS));
        p.finish(slow, 30 * MS, Err(Panicked));
        let clone = p.take(t0 + 31 * MS).unwrap();
        p.finish(clone, 5 * MS, Err(InjectedFailure));
        let exhausted = Error::RetriesExhausted {
            task: 0,
            attempts: 2,
        };
        assert_eq!(p.fatal, Some(exhausted));
    }

    #[test]
    fn aggregates_are_a_hand_count_of_the_ledger() {
        let rec = |task, attempt, speculative, outcome, ms: u32| AttemptRecord {
            task,
            attempt,
            speculative,
            outcome,
            busy: ms * MS,
        };
        let hand_built = vec![
            rec(1, 1, false, Succeeded, 40),
            rec(0, 1, false, InjectedFailure, 7),
            rec(2, 1, false, Panicked, 3),
            rec(2, 2, true, Succeeded, 11),
            rec(2, 3, false, Superseded, 90),
            rec(0, 2, false, Succeeded, 8),
        ];
        let (timing, stats) = summarize(hand_built, 2, 123 * MS);
        assert_eq!(timing.cpu, 159 * MS);
        assert_eq!(timing.max_task, 40 * MS);
        assert_eq!(timing.wall, 123 * MS);
        assert_eq!(stats.attempts, 6);
        assert_eq!(stats.injected_failures, 1);
        assert_eq!(stats.panics, 1);
        assert_eq!(stats.speculative_launches, 2, "one clone never ran");
        assert_eq!(stats.speculative_wins, 1);
        assert_eq!(stats.retry_wasted_cpu, 100 * MS);
        assert_eq!(stats.records.len(), 6);
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
        assert_eq!(run.stats.speculative_launches, 0);
        assert_eq!(run.stats.retry_wasted_cpu, Duration::ZERO);
        assert_eq!(run.stats.records.len(), 100);
        assert!(run
            .stats
            .records
            .iter()
            .all(|r| r.outcome == Succeeded && !r.speculative));
        assert!(run.timing.cpu >= run.timing.max_task);
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
        let cfg = SchedulerConfig {
            max_attempts: 3,
            ..SchedulerConfig::default()
        };
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
        let cfg = SchedulerConfig {
            max_attempts: 2,
            ..SchedulerConfig::default()
        };
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
        let cfg = SchedulerConfig {
            max_attempts: 2,
            ..SchedulerConfig::default()
        };
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
    fn straggler_speculation_races_and_wins() {
        if !two_cores() {
            return; // Speculation needs an idle worker.
        }
        let items: Vec<i64> = (0..6).collect();
        let cfg = SchedulerConfig {
            speculation_min: Duration::from_millis(5),
            speculation_factor: 2,
            ..SchedulerConfig::default()
        };
        // Task 0's own attempt sleeps far past the straggler threshold; its
        // speculative clone runs fast.
        let run = run_scheduled(&items, 2, &cfg, |a, x| {
            if a.task == 0 && !a.speculative {
                std::thread::sleep(Duration::from_millis(300));
            }
            Ok(x * 2)
        })
        .unwrap();
        assert_eq!(run.results, doubled(&items));
        assert!(run.stats.speculative_launches >= 1, "{:?}", run.stats);
        assert!(run.stats.speculative_wins >= 1, "{:?}", run.stats);
        // The straggler's own result arrived after the clone's: wasted CPU.
        assert!(run.stats.retry_wasted_cpu >= Duration::from_millis(250));
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
        let cfg = SchedulerConfig {
            speculation: false,
            ..SchedulerConfig::default()
        };
        let run = run_scheduled(&items, 2, &cfg, |a, x| {
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
