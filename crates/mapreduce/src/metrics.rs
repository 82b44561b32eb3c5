//! Per-phase job metrics: the raw quantities behind the paper's figures.
//!
//! * shuffle bytes / records → Figures 6 and 8;
//! * per-phase CPU seconds → Figure 7;
//! * wall-clock phase times + input bytes → the throughput and latency
//!   models of Figures 4 and 5.
//!
//! [`JobMetrics`] is the one record of what a job did; [`JobMetrics::rows`]
//! lists its values, each with a report name.

use std::time::Duration;

use symple_core::engine::ExploreStats;
use symple_core::error::Error;

/// Metrics for one executed job.
#[derive(Debug, Clone, Copy, Default)]
pub struct JobMetrics {
    /// Records read from input segments.
    pub input_records: u64,
    /// Raw storage bytes those records represent.
    pub input_bytes: u64,
    /// Wall-clock duration of the map phase (parallel).
    pub map_wall: Duration,
    /// Summed busy time of all map tasks ("CPU seconds").
    pub map_cpu: Duration,
    /// Longest single map task.
    pub map_max_task: Duration,
    /// Longest single reduce task (bounds reduce parallelism under skew).
    pub reduce_max_task: Duration,
    /// Bytes crossing the map→reduce shuffle (keys + payloads, encoded).
    pub shuffle_bytes: u64,
    /// Shuffle records (one per (key, mapper) pair that emitted data).
    pub shuffle_records: u64,
    /// Encoded summary-chain payload bytes crossing the shuffle — the
    /// paper's "compactness" axis. Zero for the baseline backends, whose
    /// payloads are event lists rather than symbolic summaries.
    pub summary_bytes: u64,
    /// Wall-clock duration of the reduce phase (parallel).
    pub reduce_wall: Duration,
    /// Summed busy time of all reduce tasks.
    pub reduce_cpu: Duration,
    /// Number of distinct groups.
    pub groups: u64,
    /// Task attempts executed across phases (clean runs: one per task).
    pub attempts: u64,
    /// Speculative clones launched against straggler tasks.
    pub speculative_launches: u64,
    /// Speculative clones whose result won the race.
    pub speculative_wins: u64,
    /// Busy time of attempts whose work was discarded — injected failures,
    /// isolated panics, and speculation race losers.
    pub retry_wasted_cpu: Duration,
    /// Map chunks whose summaries were loaded from a valid checkpoint
    /// frame instead of recomputed (checkpointed runs only).
    pub checkpoint_hits: u64,
    /// Map chunks with no stored checkpoint frame (every chunk of a fresh
    /// checkpointed run is a miss).
    pub checkpoint_misses: u64,
    /// Map chunks whose stored frame failed validation — truncated,
    /// bit-flipped, wrong version, or stale metadata. The frame was
    /// quarantined and the chunk recomputed. When a store is attached,
    /// `hits + misses + corrupt` equals the chunk count.
    pub checkpoint_corrupt: u64,
    /// Map chunks served from a valid content-addressed summary-cache
    /// entry instead of recomputed (cached runs only).
    pub cache_hits: u64,
    /// Map chunks with no summary-cache entry under their content key —
    /// computed and committed (every chunk of a cold run is a miss).
    pub cache_misses: u64,
    /// Map chunks whose summary-cache entry failed validation — truncated,
    /// bit-flipped, wrong version, or filed under a colliding/forged key.
    /// The entry was quarantined and the chunk recomputed. When a cache is
    /// attached, `cache_hits + cache_misses + cache_corrupt` equals the
    /// chunk count.
    pub cache_corrupt: u64,
    /// Raw input bytes whose recomputation a cache hit skipped — the
    /// incremental-recomputation savings axis.
    pub cache_bytes_saved: u64,
    /// `(key, chunk)` cells whose engine refusal was salvaged by shipping
    /// raw events for in-order concrete re-execution at the reducer — the
    /// degraded-completion path, each one a measured sequential barrier.
    pub chunks_salvaged_concrete: u64,
    /// Storage operations re-attempted after a transient I/O error, across
    /// every store attached to the run (checkpoint and summary cache).
    pub io_retries: u64,
    /// Storage operations that ultimately failed — retries exhausted or a
    /// permanent error (`ENOSPC`, `EROFS`).
    pub io_gave_up: u64,
    /// I/O errors the attached stores observed. Excludes `NotFound`, which
    /// is a miss, not a fault; `io_errors == io_retries + io_gave_up`.
    pub io_errors: u64,
    /// Store-demotion events during this run: a store crossed its failure
    /// budget and fell back to a no-op backend, so the job completed
    /// correct-but-uncached.
    pub store_demoted: u64,
    /// Aggregated symbolic-exploration statistics (SYMPLE jobs only).
    pub explore: ExploreStats,
}

/// One reported reading.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Value {
    /// A count or a byte volume.
    Count(u64),
    /// A wall-clock or busy time.
    Time(Duration),
}

impl From<u64> for Value {
    fn from(n: u64) -> Value {
        Value::Count(n)
    }
}

impl From<usize> for Value {
    fn from(n: usize) -> Value {
        Value::Count(n as u64)
    }
}

impl From<Duration> for Value {
    fn from(d: Duration) -> Value {
        Value::Time(d)
    }
}

/// The table: each `JobMetrics` value's field and report name, listed
/// once. The generated destructuring is exhaustive on purpose — a new
/// field does not compile until it has a row here, and with the row it is
/// printed (`symple-cli` under `SYMPLE_OBS=1`, checked by `cli_obs`).
macro_rules! table {
    ({ $($f:ident $name:literal,)* } explore { $($ef:ident $ename:literal,)* }) => {
        impl JobMetrics {
            /// Every value this record holds as `(report name, reading)`,
            /// in declaration order.
            pub fn rows(&self) -> [(&'static str, Value); 34] {
                let JobMetrics { $($f,)* explore: ExploreStats { $($ef,)* } } = *self;
                [$(($name, $f.into()),)* $(($ename, $ef.into()),)*]
            }
        }
    };
}

table! {
    {
        input_records "input.records",
        input_bytes "input.bytes",
        map_wall "map.wall",
        map_cpu "map.cpu",
        map_max_task "map.max_task",
        reduce_max_task "reduce.max_task",
        shuffle_bytes "shuffle.bytes",
        shuffle_records "shuffle.records",
        summary_bytes "summary.bytes",
        reduce_wall "reduce.wall",
        reduce_cpu "reduce.cpu",
        groups "job.groups",
        attempts "sched.attempts",
        speculative_launches "sched.speculative_launches",
        speculative_wins "sched.speculative_wins",
        retry_wasted_cpu "sched.retry_wasted_cpu",
        checkpoint_hits "checkpoint.hits",
        checkpoint_misses "checkpoint.misses",
        checkpoint_corrupt "checkpoint.corrupt",
        cache_hits "cache.hits",
        cache_misses "cache.misses",
        cache_corrupt "cache.corrupt",
        cache_bytes_saved "cache.bytes_saved",
        chunks_salvaged_concrete "salvage.chunks",
        io_retries "job.io_retries",
        io_gave_up "job.io_gave_up",
        io_errors "job.io_errors",
        store_demoted "job.store_demoted",
    }
    explore {
        records "explore.records",
        runs "explore.runs",
        forks "explore.forks",
        merges "explore.merges",
        restarts "explore.restarts",
        max_live_paths "explore.max_live_paths",
    }
}

impl JobMetrics {
    /// Total CPU seconds across phases.
    pub fn total_cpu(&self) -> Duration {
        self.map_cpu + self.reduce_cpu
    }

    /// Wall time a perfectly scheduled run would take with the given
    /// parallelism, derived from measured per-task CPU.
    ///
    /// Each phase is bounded below by its longest single task (a reducer
    /// holding one huge group cannot be split). Used to *model* multi-core
    /// scaling when the measuring host has fewer cores than the
    /// configuration under study — the substitution DESIGN.md documents.
    pub fn modeled_wall(&self, map_workers: usize, reduce_workers: usize) -> Duration {
        let map = self
            .map_cpu
            .div_f64(map_workers.max(1) as f64)
            .max(self.map_max_task);
        let reduce = self
            .reduce_cpu
            .div_f64(reduce_workers.max(1) as f64)
            .max(self.reduce_max_task);
        map + reduce
    }

    /// Throughput over the raw input, in MB/s, under [`JobMetrics::modeled_wall`].
    pub fn modeled_throughput_mb_s(&self, map_workers: usize, reduce_workers: usize) -> f64 {
        let secs = self.modeled_wall(map_workers, reduce_workers).as_secs_f64();
        if secs == 0.0 {
            return 0.0;
        }
        (self.input_bytes as f64 / 1.0e6) / secs
    }

    /// Accumulates scheduler attempt accounting from one phase.
    pub fn absorb_scheduler(&mut self, s: &crate::scheduler::SchedulerStats) {
        self.attempts += s.attempts;
        self.speculative_launches += s.speculative_launches;
        self.speculative_wins += s.speculative_wins;
        self.retry_wasted_cpu += s.retry_wasted_cpu;
    }

    /// Accumulates a store's I/O-ledger movement (a snapshot delta from
    /// [`crate::store_io::IoCounts::since`]) into the run's totals.
    pub fn absorb_io(&mut self, c: &crate::store_io::IoCounts) {
        self.io_retries += c.io_retries;
        self.io_gave_up += c.io_gave_up;
        self.io_errors += c.io_errors;
        self.store_demoted += c.store_demoted;
    }

    /// Checks a finished job's store ledgers. `checkpointed` and `cached`
    /// are how many map chunks were looked up under each keying policy —
    /// the job's chunk count for the attached one, 0 for the other — and
    /// every lookup must have been charged to exactly one of its policy's
    /// hit, miss and corrupt counts; every I/O error a store saw was either
    /// retried or given up on.
    pub fn check_ledgers(&self, checkpointed: u64, cached: u64) -> Result<(), Error> {
        let ledgers = [
            (
                "checkpoint hits + misses + corrupt == chunks",
                self.checkpoint_hits + self.checkpoint_misses + self.checkpoint_corrupt,
                checkpointed,
            ),
            (
                "cache hits + misses + corrupt == chunks",
                self.cache_hits + self.cache_misses + self.cache_corrupt,
                cached,
            ),
            (
                "io_errors == io_retries + io_gave_up",
                self.io_errors,
                self.io_retries + self.io_gave_up,
            ),
        ];
        match ledgers.into_iter().find(|(_, left, right)| left != right) {
            Some((ledger, left, right)) => Err(Error::LedgerImbalance {
                ledger,
                left,
                right,
            }),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals() {
        let m = JobMetrics {
            map_cpu: Duration::from_secs(2),
            reduce_cpu: Duration::from_secs(1),
            input_bytes: 3_000_000,
            ..JobMetrics::default()
        };
        assert_eq!(m.total_cpu(), Duration::from_secs(3));
        // 2 s of map CPU over 2 workers + 1 s of reduce CPU on 1: 2 s modeled.
        assert!((m.modeled_throughput_mb_s(2, 1) - 1.5).abs() < 1e-9);
        assert_eq!(JobMetrics::default().modeled_throughput_mb_s(2, 1), 0.0);
    }
}
