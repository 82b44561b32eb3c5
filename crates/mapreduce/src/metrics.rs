//! Per-phase job metrics: the raw quantities behind the paper's figures.
//!
//! * shuffle bytes / records → Figures 6 and 8;
//! * per-phase CPU seconds → Figure 7;
//! * wall-clock phase times + input bytes → the throughput and latency
//!   models of Figures 4 and 5.

use std::time::Duration;

use symple_core::engine::ExploreStats;

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
    /// Storage operations that ultimately failed — retries exhausted, the
    /// backoff deadline spent, or a permanent error (`ENOSPC`, `EROFS`).
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

impl JobMetrics {
    /// Total CPU seconds across phases.
    pub fn total_cpu(&self) -> Duration {
        self.map_cpu + self.reduce_cpu
    }

    /// Total wall-clock across phases (map and reduce barriers).
    pub fn total_wall(&self) -> Duration {
        self.map_wall + self.reduce_wall
    }

    /// End-to-end throughput over the raw input, in MB/s.
    pub fn throughput_mb_s(&self) -> f64 {
        let secs = self.total_wall().as_secs_f64();
        if secs == 0.0 {
            return 0.0;
        }
        (self.input_bytes as f64 / 1.0e6) / secs
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

    /// [`JobMetrics::throughput_mb_s`] under [`JobMetrics::modeled_wall`].
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals() {
        let m = JobMetrics {
            map_cpu: Duration::from_secs(2),
            reduce_cpu: Duration::from_secs(1),
            map_wall: Duration::from_secs(1),
            reduce_wall: Duration::from_millis(500),
            input_bytes: 3_000_000,
            ..JobMetrics::default()
        };
        assert_eq!(m.total_cpu(), Duration::from_secs(3));
        assert_eq!(m.total_wall(), Duration::from_millis(1500));
        assert!((m.throughput_mb_s() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn throughput_zero_wall() {
        let m = JobMetrics::default();
        assert_eq!(m.throughput_mb_s(), 0.0);
    }
}
