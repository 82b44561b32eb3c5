//! Job configuration and output, and the one phase driver every
//! map→shuffle→reduce job runs through.
//!
//! # The map-barrier contract
//!
//! `run_phases` is the only place a job's skeleton is written down:
//!
//! 1. **Parallel extraction.** Map tasks run under the fault-tolerant
//!    scheduler ([`run_scheduled`]): retried and panic-isolated.
//!    A task may touch only its own segment and whatever its closure
//!    captured by shared reference — which includes the job's chunk store:
//!    under either keying policy a task saves the chunk it computed before
//!    it returns. A store entry is one content-checked frame committed by
//!    tmp + rename under a key the chunk alone determines, so an early or
//!    repeated save is idempotent and a killed or failed job leaves behind
//!    only valid frames a later run may reuse.
//! 2. **Barrier.** Every map result is collected. The first task error in
//!    input order fails the job here: nothing is *shuffled*, tallied or
//!    reduced from a killed or failed map phase.
//! 3. **Sequential commits.** The driver alone folds the results, in input
//!    order, through the job's `commit` closure: metrics are tallied here,
//!    single-threaded.
//! 4. **Shuffle, reduce, sort.** The shuffle is split between the two
//!    phases around the driver (see below), reduce tasks run under the
//!    same scheduler, and results are sorted by key.
//!
//! # Map-side buckets, reduce-side merge
//!
//! A map task hands back `Emits`: per reducer, one byte arena of its
//! cells' payloads laid back to back and a `(key, end offset)` index over
//! it. The task emits its cells in ascending key order and each goes to
//! the reducer its key hashes to (`shuffle::Buckets`), so every
//! index is key-sorted — no buffer per cell, no key clone.
//!
//! The driver only transposes `[mapper][reducer]` arenas into
//! `[reducer][mapper]` (`shuffle::transpose`): it touches no cell.
//!
//! A reduce task k-way merges its mappers' indexes
//! (`shuffle::MergeRuns`) and hands each key's payload slices to
//! the job's `reduce` in mapper order, and within a mapper in emit order.
//!
//! `shuffle_bytes` / `shuffle_records` count cells only — key wire length
//! plus payload length, tallied at emit time — never the indexes.

use symple_core::engine::EngineConfig;
use symple_core::error::{Error, Result};

use crate::fault::FaultInjector;
use crate::groupby::Key;
use crate::metrics::JobMetrics;
use crate::scheduler::{run_scheduled, SchedulerConfig};
use crate::segment::Segment;
use crate::shuffle::{transpose, Buckets, MergeRuns, Run};

/// Configuration for one groupby-aggregate job.
#[derive(Debug, Clone, Copy)]
pub struct JobConfig {
    /// Number of reduce partitions (the paper sets this to the number of
    /// machines on EMR and 50 on the 380-node cluster).
    pub num_reducers: usize,
    /// Worker threads executing map tasks.
    pub map_workers: usize,
    /// Worker threads executing reduce tasks.
    pub reduce_workers: usize,
    /// Symbolic-engine tuning (SYMPLE jobs only).
    pub engine: EngineConfig,
    /// Whether the globally first segment's mapper runs the UDA
    /// *concretely* from the true initial state (Figure 2's "partial
    /// aggregation"). Disable to force symbolic execution in every mapper,
    /// as the single-machine overhead experiment of §6.2 does.
    pub first_segment_concrete: bool,
    /// Degraded completion: when a mapper's engine *refuses* a chunk
    /// (path explosion, predicate window, symbolic overflow — even past
    /// the §5.2 restart fallback), ship the chunk's raw events tagged
    /// `NeedsConcrete` instead of failing the job; the in-order reducer
    /// re-executes them concretely once the prefix state is resolved and
    /// keeps composing symbolically. Each salvage is counted in
    /// [`JobMetrics::chunks_salvaged_concrete`] as a measured sequential
    /// barrier. Disable to restore hard-failure semantics.
    pub salvage_refused_chunks: bool,
    /// Fault-tolerance knobs for the task scheduler: the retry cap.
    pub scheduler: SchedulerConfig,
}

impl Default for JobConfig {
    fn default() -> JobConfig {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        JobConfig {
            num_reducers: 4,
            map_workers: cores,
            reduce_workers: cores,
            engine: EngineConfig::default(),
            first_segment_concrete: true,
            salvage_refused_chunks: true,
            scheduler: SchedulerConfig::default(),
        }
    }
}

impl JobConfig {
    /// A config with `n` map workers (the paper's "N mappers" axis in
    /// Figure 4).
    pub fn with_map_workers(mut self, n: usize) -> JobConfig {
        self.map_workers = n;
        self
    }

    /// A config with `n` reduce partitions.
    pub fn with_reducers(mut self, n: usize) -> JobConfig {
        self.num_reducers = n;
        self
    }
}

/// The results and metrics of one executed job.
#[derive(Debug, Clone)]
pub struct JobOutput<K, O> {
    /// Per-key aggregation outputs, sorted by key.
    pub results: Vec<(K, O)>,
    /// Phase metrics.
    pub metrics: JobMetrics,
}

/// Byte accounting folded inside each map task at emit time, so the
/// driver does not re-walk every emit after the map barrier.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct MapTally {
    /// Shuffle bytes this mapper emitted (keys + payloads, encoded).
    pub shuffle_bytes: u64,
    /// Shuffle records this mapper emitted.
    pub shuffle_records: u64,
    /// Payload bytes alone (the summary-compactness axis).
    pub payload_bytes: u64,
}

/// One mapper's cells for one reducer: the key-sorted `(key, end offset)`
/// index and the arena it indexes.
type ArenaRun<K> = (Run<K, usize>, Vec<u8>);

/// Everything one map task ships: its cells bucketed by reducer, payloads
/// in one arena per reducer (see the module docs).
pub(crate) struct Emits<K> {
    index: Buckets<K, usize>,
    arenas: Vec<Vec<u8>>,
    tally: MapTally,
}

impl<K: Key> Emits<K> {
    /// No cells yet, bucketed for `num_reducers` reducers.
    pub fn new(num_reducers: usize) -> Emits<K> {
        let index = Buckets::new(num_reducers);
        Emits {
            arenas: index.runs().iter().map(|_| Vec::new()).collect(),
            index,
            tally: MapTally::default(),
        }
    }

    /// Emits one cell: `write` appends its payload to the arena of the
    /// reducer `key` hashes to. Keys must arrive in ascending order.
    pub fn emit(&mut self, key: K, write: impl FnOnce(&mut Vec<u8>)) {
        let mut payload_len = 0;
        let key_len = self.index.push(key, |r| {
            let arena = &mut self.arenas[r];
            let start = arena.len();
            write(arena);
            payload_len = arena.len() - start;
            arena.len()
        });
        self.tally.shuffle_bytes += (key_len + payload_len) as u64;
        self.tally.shuffle_records += 1;
        self.tally.payload_bytes += payload_len as u64;
    }

    /// Whether the cells arrived in the key order [`Emits::emit`] asks for,
    /// as far as the reduce-side merge depends on it.
    pub fn is_sorted(&self) -> bool {
        self.index.is_sorted()
    }

    /// What the cells emitted so far add to the shuffle.
    pub fn tally(&self) -> MapTally {
        self.tally
    }

    /// Every cell as `(key, payload)`, ascending by key across the buckets.
    pub fn cells(&self) -> impl Iterator<Item = (&K, &[u8])> {
        let runs = self.index.runs().iter().zip(&self.arenas);
        payload_slices(runs).map(|(key, _, payload)| (key, payload))
    }

    /// The per-reducer runs the driver transposes.
    fn into_runs(self) -> Vec<ArenaRun<K>> {
        debug_assert!(self.is_sorted(), "map tasks emit in key order");
        self.index
            .into_runs()
            .into_iter()
            .zip(self.arenas)
            .collect()
    }
}

/// Merges key-sorted arena runs: every cell as `(key, run, payload slice)`
/// in [`MergeRuns`] order. A cell's payload starts where its run's
/// previous cell ended.
fn payload_slices<'a, K: Key>(
    runs: impl IntoIterator<Item = (&'a Run<K, usize>, &'a Vec<u8>)>,
) -> impl Iterator<Item = (&'a K, usize, &'a [u8])> {
    let (indexes, arenas): (Vec<_>, Vec<_>) = runs.into_iter().unzip();
    let mut starts = vec![0; arenas.len()];
    MergeRuns::new(
        indexes
            .into_iter()
            .map(|index| index.iter().map(|(key, end)| (key, *end))),
    )
    .map(move |(key, run, end)| {
        let start = std::mem::replace(&mut starts[run], end);
        (key, run, &arenas[run][start..end])
    })
}

/// Runs one job through the map-barrier contract (see the module docs).
///
/// `map` is a segment's task; `commit` folds whatever else one task's
/// output carries into the metrics and hands its emits to the shuffle (the
/// driver charges their tallied volume itself); `reduce` turns one key's
/// mapper-ordered payloads into its output. With `faults` attached, each
/// map attempt runs inside [`FaultInjector::around`] — the plan's crashes
/// and panics — and once its kill budget is spent every further
/// map task dies with [`Error::JobKilled`] instead of running.
pub(crate) fn run_phases<R, M, K, O>(
    segments: &[Segment<R>],
    cfg: &JobConfig,
    faults: Option<&FaultInjector>,
    map: impl Fn(&Segment<R>) -> Result<M> + Sync,
    mut commit: impl FnMut(&mut JobMetrics, M) -> Emits<K>,
    reduce: impl Fn(&[&[u8]]) -> Result<O> + Sync,
) -> Result<JobOutput<K, O>>
where
    R: Sync,
    M: Send,
    K: Key,
    O: Send,
{
    let mut metrics = JobMetrics {
        input_records: segments.iter().map(|s| s.len() as u64).sum(),
        input_bytes: segments.iter().map(|s| s.raw_bytes).sum(),
        ..JobMetrics::default()
    };

    let map_run = run_scheduled(segments, cfg.map_workers, &cfg.scheduler, |attempt, seg| {
        let Some(f) = faults else {
            return Ok(map(seg));
        };
        f.around(seg.id, attempt, || {
            if let Some(done) = f.kill_check() {
                return Err(Error::JobKilled { after_tasks: done });
            }
            let out = map(seg)?;
            // Counted only after `map` returned, so whatever the task
            // persisted itself is already durable when the kill budget sees
            // it — and before `around` decides whether the attempt crashes.
            f.note_task_completed();
            Ok(out)
        })
    })?;
    metrics.map_cpu = map_run.timing.cpu;
    metrics.map_wall = map_run.timing.wall;
    metrics.map_max_task = map_run.timing.max_task;
    metrics.absorb_scheduler(&map_run.stats);

    let map_outputs = map_run.results.into_iter().collect::<Result<Vec<M>>>()?;
    let mut mapper_runs: Vec<Vec<ArenaRun<K>>> = Vec::with_capacity(map_outputs.len());
    for out in map_outputs {
        let emits = commit(&mut metrics, out);
        metrics.shuffle_bytes += emits.tally.shuffle_bytes;
        metrics.shuffle_records += emits.tally.shuffle_records;
        mapper_runs.push(emits.into_runs());
    }

    let reducer_inputs = transpose(mapper_runs, cfg.num_reducers.max(1));
    let reduce_task = |runs: &Vec<ArenaRun<K>>| -> Result<Vec<(K, O)>> {
        let mut out: Vec<(K, O)> = Vec::new();
        let runs = runs.iter().map(|(index, arena)| (index, arena));
        let mut cells = payload_slices(runs).peekable();
        let mut payloads: Vec<&[u8]> = Vec::new();
        while let Some((key, _, first)) = cells.next() {
            payloads.clear();
            payloads.push(first);
            while let Some((_, _, more)) = cells.next_if(|(k, _, _)| *k == key) {
                payloads.push(more);
            }
            out.push((key.clone(), reduce(&payloads)?));
        }
        Ok(out)
    };
    let reduce_run = run_scheduled(
        &reducer_inputs,
        cfg.reduce_workers,
        &cfg.scheduler,
        |_, runs| Ok(reduce_task(runs)),
    )?;
    metrics.reduce_cpu = reduce_run.timing.cpu;
    metrics.reduce_wall = reduce_run.timing.wall;
    metrics.reduce_max_task = reduce_run.timing.max_task;
    metrics.absorb_scheduler(&reduce_run.stats);

    let mut results = Vec::new();
    for r in reduce_run.results {
        results.extend(r?);
    }
    results.sort_by(|a, b| a.0.cmp(&b.0));
    metrics.groups = results.len() as u64;
    Ok(JobOutput { results, metrics })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders() {
        let cfg = JobConfig::default().with_map_workers(2).with_reducers(7);
        assert_eq!(cfg.map_workers, 2);
        assert_eq!(cfg.num_reducers, 7);
        assert!(cfg.reduce_workers >= 1);
    }
}
