//! A fault-tolerant task scheduler for map/reduce phases.
//!
//! The paper inherits Hadoop's fault-tolerance story (§5.4): a crashed map
//! attempt is simply re-executed, which is sound *because* SYMPLE tasks
//! are deterministic — the property the fault matrix and the oracle's
//! fault probe pin down. This module is the runtime half of that story:
//! per-task **attempt records** and three production behaviors.
//!
//! * **Bounded retries** — a failed attempt (an injected crash from a
//!   [`TaskFaults`] hook, or a panic) is re-queued at once until
//!   [`SchedulerConfig::max_attempts`] is reached, after which the job
//!   surfaces a typed [`Error::RetriesExhausted`] instead of spinning
//!   forever. There is no backoff: the scheduler runs in one process, so
//!   waiting between attempts would protect no remote resource.
//! * **Panic isolation** — every attempt runs under
//!   [`std::panic::catch_unwind`], so one poisoned task yields a typed
//!   [`Error::TaskPanicked`] instead of unwinding the whole thread scope
//!   and taking the job (and its siblings) down with it.
//! * **Straggler speculation** — when a worker goes idle while a task has
//!   been running longer than `speculation_factor ×` the median completed
//!   attempt time (and past the [`SchedulerConfig::speculation_min`] noise
//!   floor), a speculative clone of the task is launched and raced against
//!   the original; the first completed result wins. This is safe precisely
//!   because tasks are deterministic: both attempts produce byte-identical
//!   output, so it does not matter which one lands.
//!
//! Fault hooks are consulted only for *regular* attempts. A speculative
//! clone models re-execution on a different machine, outside the injected
//! crash plan's attempt slots — and skipping the hook keeps the injected
//! retry count deterministic regardless of host timing.
//!
//! # Work distribution: one shared queue
//!
//! Every task starts in one FIFO queue under one mutex; a worker pops the
//! front, and retries and speculative clones are pushed to the back. A
//! phase is a handful to a few dozen tasks of milliseconds each, so the
//! lock is taken once per task and never contended for long — and a shared
//! queue cannot be imbalanced: an idle worker takes whatever is next, so a
//! run of slow tasks never serializes behind one worker. Result writeback
//! is by index, so the output order is deterministic no matter which
//! worker ran what.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
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

/// Injected failures for scheduler attempts, keyed by *task index* (the
/// position in the item slice). [`crate::fault::FaultInjector`] adapts its
/// segment-id-keyed plan onto this via [`crate::fault::SegmentFaults`].
///
/// Hooks are only consulted for regular attempts, never speculative ones
/// (see the module docs for why).
pub trait TaskFaults: Sync {
    /// Whether this `(task, attempt)` crashes *after* doing its work (the
    /// work is lost with the attempt, as when a mapper node dies).
    fn attempt_fails(&self, task: usize, attempt: u32) -> bool {
        let _ = (task, attempt);
        false
    }

    /// Whether this `(task, attempt)` panics mid-flight.
    fn attempt_panics(&self, task: usize, attempt: u32) -> bool {
        let _ = (task, attempt);
        false
    }

    /// Extra latency injected into this `(task, attempt)` — a straggler.
    fn attempt_delay(&self, task: usize, attempt: u32) -> Duration {
        let _ = (task, attempt);
        Duration::ZERO
    }
}

/// How one attempt ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttemptOutcome {
    /// Completed and its result was kept.
    Succeeded,
    /// Completed correctly, but another attempt had already won the race.
    Superseded,
    /// The fault hook crashed the attempt after its work was done.
    InjectedFailure,
    /// The attempt panicked and was caught.
    Panicked,
}

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
    /// Attempts crashed by the fault hook.
    pub injected_failures: u64,
    /// Attempts that panicked (isolated by `catch_unwind`).
    pub panics: u64,
    /// Speculative clones launched against stragglers.
    pub speculative_launches: u64,
    /// Speculative clones whose result won the race.
    pub speculative_wins: u64,
    /// Busy time of attempts whose work was discarded (injected failures,
    /// panics, and race losers) — the price of fault tolerance.
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

/// One unit of queued work.
#[derive(Debug, Clone, Copy)]
struct Work {
    task: usize,
    attempt: u32,
    speculative: bool,
}

/// Per-task scheduling state.
#[derive(Debug, Default)]
struct TaskState {
    /// Attempts handed out so far (running, queued, or finished).
    attempts_started: u32,
    /// Attempts currently executing.
    in_flight: u32,
    /// Start instant of the oldest currently-running attempt.
    running_since: Option<Instant>,
    /// A winning result has been stored.
    done: bool,
    /// The task failed terminally (cap exhausted).
    failed: bool,
    /// A speculative clone has already been launched.
    speculated: bool,
}

/// The phase's queue and its completion state, under one lock so that a
/// push can never slip between a worker's emptiness check and its wait.
#[derive(Debug)]
struct Queue {
    /// Attempts waiting for a worker: pop the front, push the back.
    work: VecDeque<Work>,
    /// Tasks not yet resolved (done or failed terminally).
    remaining: usize,
    /// First terminal error; once set, no new attempts start.
    fatal: Option<Error>,
}

struct Shared<R> {
    queue: Mutex<Queue>,
    cv: Condvar,
    tasks: Vec<Mutex<TaskState>>,
    results: Vec<Mutex<Option<R>>>,
    /// Busy nanos of every attempt (the phase's CPU seconds).
    cpu_nanos: AtomicU64,
    /// Longest single *winning* attempt.
    max_won_nanos: AtomicU64,
    /// Busy nanos of discarded attempts.
    wasted_nanos: AtomicU64,
    /// Busy nanos of completed successful attempts, for the speculation
    /// median.
    completed: Mutex<Vec<u64>>,
    records: Mutex<Vec<AttemptRecord>>,
    attempts: AtomicU64,
    injected_failures: AtomicU64,
    panics: AtomicU64,
    speculative_launches: AtomicU64,
    speculative_wins: AtomicU64,
}

impl<R> Shared<R> {
    /// Queues a retry or a speculative clone and wakes an idle worker,
    /// unless the phase has already gone fatal.
    fn push_work(&self, w: Work) {
        let mut q = self.queue.lock().unwrap();
        if q.fatal.is_none() {
            q.work.push_back(w);
            self.cv.notify_one();
        }
    }
}

/// Runs `f(index, &item)` over all items with up to `workers` threads under
/// the fault-tolerant scheduler, returning results in input order plus
/// timing and attempt accounting.
///
/// `f` must be deterministic per task — the contract the whole
/// re-execution layer (and the paper's §5.4) rests on, and the one the
/// differential oracle's fault probe verifies. On a clean run (no faults,
/// no panics, no stragglers) every task executes exactly once and the
/// behavior matches the plain worker pool.
///
/// The worker count is clamped to the host's available parallelism, as the
/// cluster models extrapolate from measured busy time and oversubscribed
/// cores would corrupt it.
pub fn run_scheduled<T, R, F>(
    items: &[T],
    workers: usize,
    cfg: &SchedulerConfig,
    faults: Option<&dyn TaskFaults>,
    f: F,
) -> Result<ScheduledRun<R>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    let max_attempts = cfg.max_attempts.max(1);
    let host = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let workers = workers.clamp(1, n.max(1)).min(host);
    let wall_start = Instant::now();

    let first_attempts = (0..n).map(|task| Work {
        task,
        attempt: 1,
        speculative: false,
    });
    let shared = Shared {
        queue: Mutex::new(Queue {
            work: first_attempts.collect(),
            remaining: n,
            fatal: None,
        }),
        cv: Condvar::new(),
        tasks: (0..n)
            .map(|_| {
                Mutex::new(TaskState {
                    attempts_started: 1,
                    ..TaskState::default()
                })
            })
            .collect(),
        results: (0..n).map(|_| Mutex::new(None)).collect(),
        cpu_nanos: AtomicU64::new(0),
        max_won_nanos: AtomicU64::new(0),
        wasted_nanos: AtomicU64::new(0),
        completed: Mutex::new(Vec::new()),
        records: Mutex::new(Vec::new()),
        attempts: AtomicU64::new(0),
        injected_failures: AtomicU64::new(0),
        panics: AtomicU64::new(0),
        speculative_launches: AtomicU64::new(0),
        speculative_wins: AtomicU64::new(0),
    };

    if n > 0 {
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    while let Some(work) = next_work(&shared, cfg) {
                        run_attempt(&shared, max_attempts, faults, &f, items, work);
                    }
                });
            }
        });
    }

    let timing = PhaseTiming {
        cpu: Duration::from_nanos(shared.cpu_nanos.load(Ordering::Relaxed)),
        wall: wall_start.elapsed(),
        max_task: Duration::from_nanos(shared.max_won_nanos.load(Ordering::Relaxed)),
    };
    let stats = SchedulerStats {
        attempts: shared.attempts.load(Ordering::Relaxed),
        injected_failures: shared.injected_failures.load(Ordering::Relaxed),
        panics: shared.panics.load(Ordering::Relaxed),
        speculative_launches: shared.speculative_launches.load(Ordering::Relaxed),
        speculative_wins: shared.speculative_wins.load(Ordering::Relaxed),
        retry_wasted_cpu: Duration::from_nanos(shared.wasted_nanos.load(Ordering::Relaxed)),
        records: shared.records.into_inner().unwrap(),
    };

    let fatal = shared.queue.into_inner().unwrap().fatal;
    if let Some(e) = fatal {
        return Err(e);
    }
    let results = shared
        .results
        .into_iter()
        .map(|m| m.into_inner().unwrap().expect("task resolved"))
        .collect();
    Ok(ScheduledRun {
        results,
        timing,
        stats,
    })
}

/// How long an idle worker naps between straggler checks.
const IDLE_NAP: Duration = Duration::from_micros(500);

/// Pops the next attempt, speculating on stragglers while idle. Returns
/// `None` when the phase is over: all tasks resolved, or a fatal error —
/// whatever is still queued then is abandoned, not executed.
fn next_work<R>(shared: &Shared<R>, cfg: &SchedulerConfig) -> Option<Work> {
    let mut q = shared.queue.lock().unwrap();
    loop {
        if q.remaining == 0 || q.fatal.is_some() {
            return None;
        }
        if let Some(w) = q.work.pop_front() {
            return Some(w);
        }
        // Idle while tasks are still in flight: look for stragglers, then
        // nap until new work arrives, the phase completes, or it is time
        // to look again.
        drop(q);
        maybe_speculate(shared, cfg);
        q = shared.queue.lock().unwrap();
        if q.work.is_empty() && q.remaining > 0 && q.fatal.is_none() {
            q = shared.cv.wait_timeout(q, IDLE_NAP).unwrap().0;
        }
    }
}

/// Launches speculative clones for running tasks that exceed the straggler
/// threshold. Called only by otherwise-idle workers.
fn maybe_speculate<R>(shared: &Shared<R>, cfg: &SchedulerConfig) {
    if !cfg.speculation {
        return;
    }
    let median = {
        let completed = shared.completed.lock().unwrap();
        if completed.is_empty() {
            return; // No baseline to call anything a straggler against.
        }
        let mut sorted = completed.clone();
        sorted.sort_unstable();
        Duration::from_nanos(sorted[sorted.len() / 2])
    };
    let threshold = median
        .saturating_mul(cfg.speculation_factor.max(1))
        .max(cfg.speculation_min);
    let now = Instant::now();
    let mut launches: Vec<Work> = Vec::new();
    for (task, slot) in shared.tasks.iter().enumerate() {
        let mut t = slot.lock().unwrap();
        if t.done || t.failed || t.speculated || t.in_flight == 0 {
            continue;
        }
        if t.attempts_started >= cfg.max_attempts.max(1) {
            continue;
        }
        let elapsed = match t.running_since {
            Some(s) => now.saturating_duration_since(s),
            None => continue,
        };
        if elapsed > threshold {
            t.speculated = true;
            t.attempts_started += 1;
            launches.push(Work {
                task,
                attempt: t.attempts_started,
                speculative: true,
            });
        }
    }
    if launches.is_empty() {
        return;
    }
    shared
        .speculative_launches
        .fetch_add(launches.len() as u64, Ordering::Relaxed);
    for w in launches {
        shared.push_work(w);
    }
}

fn run_attempt<T, R, F>(
    shared: &Shared<R>,
    max_attempts: u32,
    faults: Option<&dyn TaskFaults>,
    f: &F,
    items: &[T],
    w: Work,
) where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    {
        let mut t = shared.tasks[w.task].lock().unwrap();
        if t.done || t.failed {
            return; // A queued retry lost the race to a finished twin.
        }
        t.in_flight += 1;
        if t.running_since.is_none() {
            t.running_since = Some(Instant::now());
        }
    }
    shared.attempts.fetch_add(1, Ordering::Relaxed);

    let started = Instant::now();
    let payload = catch_unwind(AssertUnwindSafe(|| {
        if !w.speculative {
            if let Some(fa) = faults {
                let delay = fa.attempt_delay(w.task, w.attempt);
                if !delay.is_zero() {
                    std::thread::sleep(delay);
                }
                if fa.attempt_panics(w.task, w.attempt) {
                    panic!("injected panic: task {} attempt {}", w.task, w.attempt);
                }
            }
        }
        f(w.task, &items[w.task])
    }));
    let busy = started.elapsed();
    shared
        .cpu_nanos
        .fetch_add(busy.as_nanos() as u64, Ordering::Relaxed);

    match payload {
        Ok(result) => {
            // The hook models a node that crashes *after* the work: the
            // result is lost with the attempt.
            let injected =
                !w.speculative && faults.is_some_and(|fa| fa.attempt_fails(w.task, w.attempt));
            if injected {
                shared.injected_failures.fetch_add(1, Ordering::Relaxed);
                finish_failure(
                    shared,
                    max_attempts,
                    w,
                    busy,
                    AttemptOutcome::InjectedFailure,
                );
            } else {
                finish_success(shared, w, busy, result);
            }
        }
        Err(_panic) => {
            shared.panics.fetch_add(1, Ordering::Relaxed);
            finish_failure(shared, max_attempts, w, busy, AttemptOutcome::Panicked);
        }
    }
}

fn record<R>(shared: &Shared<R>, w: Work, busy: Duration, outcome: AttemptOutcome) {
    shared.records.lock().unwrap().push(AttemptRecord {
        task: w.task,
        attempt: w.attempt,
        speculative: w.speculative,
        outcome,
        busy,
    });
}

fn finish_success<R>(shared: &Shared<R>, w: Work, busy: Duration, result: R) {
    shared
        .completed
        .lock()
        .unwrap()
        .push(busy.as_nanos() as u64);
    let won = {
        let mut t = shared.tasks[w.task].lock().unwrap();
        t.in_flight -= 1;
        if t.in_flight == 0 {
            t.running_since = None;
        }
        if t.done {
            false
        } else {
            t.done = true;
            true
        }
    };
    if won {
        *shared.results[w.task].lock().unwrap() = Some(result);
        shared
            .max_won_nanos
            .fetch_max(busy.as_nanos() as u64, Ordering::Relaxed);
        if w.speculative {
            shared.speculative_wins.fetch_add(1, Ordering::Relaxed);
        }
        record(shared, w, busy, AttemptOutcome::Succeeded);
        shared.queue.lock().unwrap().remaining -= 1;
        shared.cv.notify_all();
    } else {
        // The twin already won; this work is the cost of speculation.
        shared
            .wasted_nanos
            .fetch_add(busy.as_nanos() as u64, Ordering::Relaxed);
        record(shared, w, busy, AttemptOutcome::Superseded);
    }
}

fn finish_failure<R>(
    shared: &Shared<R>,
    max_attempts: u32,
    w: Work,
    busy: Duration,
    outcome: AttemptOutcome,
) {
    shared
        .wasted_nanos
        .fetch_add(busy.as_nanos() as u64, Ordering::Relaxed);
    record(shared, w, busy, outcome);

    let mut t = shared.tasks[w.task].lock().unwrap();
    t.in_flight -= 1;
    if t.in_flight == 0 {
        t.running_since = None;
    }
    if t.done || t.failed {
        return; // A twin already resolved the task either way.
    }
    if t.attempts_started < max_attempts {
        t.attempts_started += 1;
        let retry = Work {
            task: w.task,
            attempt: t.attempts_started,
            speculative: false,
        };
        drop(t);
        shared.push_work(retry);
        return;
    }
    if t.in_flight > 0 {
        return; // A twin is still running; let it decide the task's fate.
    }
    // Cap exhausted with nothing left in flight: the task fails terminally
    // and the failure kind of the *last* attempt names the error.
    t.failed = true;
    drop(t);
    let err = match outcome {
        AttemptOutcome::Panicked => Error::TaskPanicked {
            task: w.task,
            attempt: w.attempt,
        },
        _ => Error::RetriesExhausted {
            task: w.task,
            attempts: max_attempts,
        },
    };
    let mut q = shared.queue.lock().unwrap();
    q.remaining -= 1;
    q.fatal.get_or_insert(err);
    drop(q);
    shared.cv.notify_all();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// A hook built from explicit (task, attempt) sets.
    #[derive(Default)]
    struct SetFaults {
        fails: HashSet<(usize, u32)>,
        panics: HashSet<(usize, u32)>,
        delays: Vec<(usize, u32, Duration)>,
    }

    impl TaskFaults for SetFaults {
        fn attempt_fails(&self, task: usize, attempt: u32) -> bool {
            self.fails.contains(&(task, attempt))
        }
        fn attempt_panics(&self, task: usize, attempt: u32) -> bool {
            self.panics.contains(&(task, attempt))
        }
        fn attempt_delay(&self, task: usize, attempt: u32) -> Duration {
            self.delays
                .iter()
                .find(|(t, a, _)| *t == task && *a == attempt)
                .map(|(_, _, d)| *d)
                .unwrap_or(Duration::ZERO)
        }
    }

    /// Fails (or panics) every attempt of the given tasks.
    struct AlwaysFaults {
        fail: HashSet<usize>,
        panic: HashSet<usize>,
    }

    impl TaskFaults for AlwaysFaults {
        fn attempt_fails(&self, task: usize, _attempt: u32) -> bool {
            self.fail.contains(&task)
        }
        fn attempt_panics(&self, task: usize, _attempt: u32) -> bool {
            self.panic.contains(&task)
        }
    }

    fn doubled(items: &[i64]) -> Vec<i64> {
        items.iter().map(|x| x * 2).collect()
    }

    #[test]
    fn clean_run_matches_input_order() {
        let items: Vec<i64> = (0..100).collect();
        let run = run_scheduled(&items, 4, &SchedulerConfig::default(), None, |i, x| {
            assert_eq!(i as i64, *x);
            x * 2
        })
        .unwrap();
        assert_eq!(run.results, doubled(&items));
        assert_eq!(run.stats.attempts, 100);
        assert_eq!(run.stats.injected_failures, 0);
        assert_eq!(run.stats.panics, 0);
        assert_eq!(run.stats.retry_wasted_cpu, Duration::ZERO);
        assert_eq!(run.stats.records.len(), 100);
        assert!(run
            .stats
            .records
            .iter()
            .all(|r| r.outcome == AttemptOutcome::Succeeded && !r.speculative));
        assert!(run.timing.cpu >= run.timing.max_task);
    }

    #[test]
    fn empty_items() {
        let run = run_scheduled(
            &Vec::<i64>::new(),
            4,
            &SchedulerConfig::default(),
            None,
            |_, x| *x,
        )
        .unwrap();
        assert!(run.results.is_empty());
        assert_eq!(run.stats.attempts, 0);
    }

    #[test]
    fn injected_failures_retry_and_recover() {
        let items: Vec<i64> = (0..8).collect();
        let hook = SetFaults {
            fails: [(0, 1), (3, 1), (3, 2)].into_iter().collect(),
            ..SetFaults::default()
        };
        let run = run_scheduled(
            &items,
            4,
            &SchedulerConfig::default(),
            Some(&hook),
            |_, x| x * 2,
        )
        .unwrap();
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
        assert!(t3.contains(&(1, AttemptOutcome::InjectedFailure)));
        assert!(t3.contains(&(2, AttemptOutcome::InjectedFailure)));
        assert!(t3.contains(&(3, AttemptOutcome::Succeeded)));
    }

    #[test]
    fn retries_exhausted_is_typed() {
        let items: Vec<i64> = (0..4).collect();
        let hook = AlwaysFaults {
            fail: [2].into_iter().collect(),
            panic: HashSet::new(),
        };
        let cfg = SchedulerConfig {
            max_attempts: 3,
            ..SchedulerConfig::default()
        };
        let err = run_scheduled(&items, 2, &cfg, Some(&hook), |_, x| x * 2).unwrap_err();
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
        let hook = AlwaysFaults {
            fail: HashSet::new(),
            panic: [1].into_iter().collect(),
        };
        let cfg = SchedulerConfig {
            max_attempts: 2,
            ..SchedulerConfig::default()
        };
        let err = run_scheduled(&items, 2, &cfg, Some(&hook), |_, x| x * 2).unwrap_err();
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
        let hook = SetFaults {
            panics: [(4, 1)].into_iter().collect(),
            ..SetFaults::default()
        };
        let run = run_scheduled(
            &items,
            3,
            &SchedulerConfig::default(),
            Some(&hook),
            |_, x| x * 2,
        )
        .unwrap();
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
        let err = run_scheduled(&items, 2, &cfg, None, |_, x| {
            if *x == 1 {
                panic!("poisoned task");
            }
            *x
        })
        .unwrap_err();
        assert!(
            matches!(err, Error::TaskPanicked { task: 1, .. }),
            "{err:?}"
        );
    }

    #[test]
    fn straggler_speculation_races_and_wins() {
        if std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
            < 2
        {
            return; // Speculation needs an idle worker.
        }
        let items: Vec<i64> = (0..6).collect();
        // Task 0's first attempt sleeps far past the straggler threshold;
        // the speculative clone (attempt 2) skips the hook and runs fast.
        let hook = SetFaults {
            delays: vec![(0, 1, Duration::from_millis(300))],
            ..SetFaults::default()
        };
        let cfg = SchedulerConfig {
            speculation_min: Duration::from_millis(5),
            speculation_factor: 2,
            ..SchedulerConfig::default()
        };
        let run = run_scheduled(&items, 2, &cfg, Some(&hook), |_, x| x * 2).unwrap();
        assert_eq!(run.results, doubled(&items));
        assert!(run.stats.speculative_launches >= 1, "{:?}", run.stats);
        assert!(run.stats.speculative_wins >= 1, "{:?}", run.stats);
        // The straggler's own result arrived after the clone's: wasted CPU.
        assert!(run.stats.retry_wasted_cpu >= Duration::from_millis(250));
    }

    #[test]
    fn slow_tasks_spread_over_both_workers() {
        if std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
            < 2
        {
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
        let run = run_scheduled(&items, 2, &cfg, None, |i, x| {
            if i % 2 == 0 {
                std::thread::sleep(slow);
            }
            x * 2
        })
        .unwrap();
        assert_eq!(run.results, doubled(&items));
        assert_eq!(run.stats.attempts, 8);
        assert!(run.timing.wall < slow * 4, "{:?}", run.timing);
    }

    #[test]
    fn no_speculation_below_noise_floor() {
        let items: Vec<i64> = (0..50).collect();
        let run = run_scheduled(&items, 4, &SchedulerConfig::default(), None, |_, x| {
            let mut acc = 0i64;
            for i in 0..1_000 {
                acc = acc.wrapping_add(i * *x);
            }
            acc
        })
        .unwrap();
        assert_eq!(run.stats.speculative_launches, 0);
        assert_eq!(run.stats.attempts, 50);
    }
}
