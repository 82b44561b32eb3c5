//! The benchmark's definition: workloads, end-to-end metrics with their
//! bounds, and per-layer metrics (README.md says which end-to-end metric
//! each is expected to move). `BENCHMARK.json` at the repo root is
//! rendered from these tables (`-- manifest`), and a test keeps the two
//! in step.

use crate::json::{obj, Json};

/// Default workload seed.
pub const DEFAULT_SEED: u64 = 0x5a_2e97;
/// Map and reduce workers for every job. Pinned and recorded — never
/// `available_parallelism`, so two hosts with the same `nproc` run the
/// same job.
pub const WORKERS: usize = 2;
/// Reduce partitions for every job.
pub const NUM_REDUCERS: usize = 4;
/// Seconds one driver-invoked run measures for (`BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 15;
/// Above this interquartile spread (percent of the median) a cell is
/// printed as `unstable` and `compare` will not call its wall-type
/// metrics `unchanged`.
pub const UNSTABLE_IQR_PCT: f64 = 15.0;

/// How a workload's input is cut and which job entry point it times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Fixed-count segments, `run_lines(.., Backend::Symple, ..)`.
    Plain {
        /// Input segments (= map tasks).
        segments: usize,
    },
    /// Content-defined chunks, `run_lines_cached` against a fresh empty
    /// `DiskSummaryCache` every job: every chunk misses and is written.
    CacheCold,
    /// The same chunks plus a 1 % append, each job against a fresh copy
    /// of a populated cache directory: nearly every chunk hits.
    CacheWarm,
}

/// One workload: a query, an input shape and the reason it is here.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name as printed and as passed to `--workload`.
    pub name: &'static str,
    /// Registry query id.
    pub query: &'static str,
    /// Input records at full scale.
    pub records: usize,
    /// The generator's group knob (users / advertisers / hashtags).
    pub groups: u64,
    /// Input cut and entry point.
    pub mode: Mode,
    /// One line: why this workload was chosen.
    pub why: &'static str,
}

/// Target records per content-defined chunk for the cache workloads:
/// about 58 chunks per job, so the 1 % append of `cache_warm` still
/// leaves over 95 % of them clean.
///
/// Not smaller, because every chunk of a cold job is a file created, and
/// on an ext4 without a journal (the hosts this runs on) the inode
/// allocator walks past every inode unlinked in the last 1–6 minutes:
/// at 229 chunks per job the creations of one job cost anywhere from 8
/// to 130 ms depending on how many cache directories earlier runs had
/// just removed, which buried the store's own cost in the file system's.
/// A quarter of the files costs a sixteenth of that.
pub const CHUNK_TARGET: usize = 16_384;

/// The five workloads. B3 is deliberately absent: its map phase is
/// bimodal on this class of host (see README.md), which would reject
/// unrelated changes at random.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "parse_bound.B1",
        query: "B1",
        records: 2_000_000,
        groups: 1_000,
        mode: Mode::Plain { segments: 8 },
        why: "1 group, 367 B shuffled: datetime parsing and groupby do nearly all the work, \
              so a decode change shows most and an engine or summary change must show nothing",
    },
    Workload {
        name: "explore_bound.R3",
        query: "R3",
        records: 1_000_000,
        groups: 2_000,
        mode: Mode::Plain { segments: 8 },
        why: "2 000 advertisers whose SymPred gap chasing forks every few records: \
              the symbolic engine dominates and SYMPLE runs at twice the baseline's wall",
    },
    Workload {
        name: "shuffle_bound.T1",
        query: "T1",
        records: 1_000_000,
        groups: 20_000,
        mode: Mode::Plain { segments: 16 },
        why: "20 000 hashtags x 16 chunks, about 3 events per cell: summary encode, partition, \
              decode and compose carry the cost and SYMPLE ships 7x the baseline's bytes",
    },
    Workload {
        name: "cache_cold.B2",
        query: "B2",
        records: 1_000_000,
        groups: 1_000,
        mode: Mode::CacheCold,
        why: "content-defined chunks against an empty disk cache: every chunk misses and is \
              framed, written and renamed, so the store is measured on its write side",
    },
    Workload {
        name: "cache_warm.B2",
        query: "B2",
        records: 1_000_000,
        groups: 1_000,
        mode: Mode::CacheWarm,
        why: "the same chunks plus a 1 % append against a populated cache: nearly every chunk \
              hits, so the same store is measured on its read side and a trade between the two shows",
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// `"lower"` / `"higher"`.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of the system sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the reference median by which the metric may get worse
    /// before it counts as a regression.
    pub bound: f64,
    /// Whether the value is a time scaled by the reference kernel, which
    /// `compare` refuses to call `unchanged` on an unstable cell.
    pub wall_type: bool,
}

/// The seven end-to-end metrics, the same on every workload.
///
/// The wall bounds are about twice the widest spread between quartiles
/// that ten processes on ten seeds showed while the host was at its most
/// disturbed (README.md, *Run-to-run spread*): a bound inside the
/// benchmark's own noise rejects unrelated changes at random.
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        // median Instant time around one job call (run_lines /
        // run_lines_cached), each divided by the reference-kernel runs
        // nearest to it, in ms of a host whose kernel run takes 31.5 ms
        name: "job_wall_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.15,
        wall_type: true,
    },
    EndToEnd {
        // p75 of the same scaled samples
        name: "job_wall_p75_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.20,
        wall_type: true,
    },
    EndToEnd {
        // all records of all timed jobs / the sum of the same scaled samples
        // (mean-based, so tails count)
        name: "records_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.15,
        wall_type: true,
    },
    EndToEnd {
        // process utime+stime (/proc/self/stat) over the timed jobs / jobs,
        // divided by the same over the kernel runs: CPU time inflates with
        // wall time on these hosts
        name: "job_cpu_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.10,
        wall_type: true,
    },
    EndToEnd {
        // JobMetrics.shuffle_bytes of a job; identical in every sample of a
        // run
        name: "shuffle_bytes",
        unit: "B",
        better: Better::Lower,
        // Across seeds the input differs (by up to 2.6 % between
        // quartiles on the B2 workloads, whose chunk count follows the
        // content), so the driver's bound cannot be zero; within a run
        // every sample must be identical, and `compare` on equal seeds
        // demands bit equality.
        bound: 0.08,
        wall_type: false,
    },
    EndToEnd {
        // process VmHWM over the warm-up and timed jobs (watermark reset
        // after set-up)
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.10,
        wall_type: false,
    },
    EndToEnd {
        // generate records, render lines, cut segments or chunks, sequential
        // reference run, and for cache_warm populate the cache directory;
        // median of the repetitions, scaled by the kernel runs around them
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        wall_type: true,
    },
];

/// A per-layer metric: what one module did, and what it should move.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// Metric name; everything before the last `.` is the layer (module).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
}

impl PerLayer {
    /// The layer (module) this metric belongs to.
    pub fn layer(&self) -> &'static str {
        self.name.rsplit_once('.').map_or(self.name, |(l, _)| l)
    }
}

const fn lo(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Every per-layer metric `-- trace` emits. Counts that are pure input
/// properties are marked "lower" (less work for the same input is the
/// only way they improve).
pub const PER_LAYER: [PerLayer; 80] = [
    lo("datagen.text.parse_ms", "ms"),
    lo("datagen.text.records", "count"),
    lo("datagen.text.bytes_in", "B"),
    lo("mapreduce.groupby.group_ms", "ms"),
    lo("mapreduce.groupby.groups", "count"),
    lo("mapreduce.groupby.events", "count"),
    lo("mapreduce.groupby.cells", "count"),
    lo("core.engine.explore_ms", "ms"),
    lo("core.engine.concrete_ms", "ms"),
    lo("core.engine.records", "count"),
    lo("core.engine.runs", "count"),
    lo("core.engine.forks", "count"),
    hi("core.engine.merges", "count"),
    lo("core.engine.restarts", "count"),
    lo("core.engine.max_live_paths", "count"),
    lo("core.engine.state_clones", "count"),
    hi("core.engine.batched_records", "count"),
    lo("core.engine.rollbacks", "count"),
    hi("core.engine.records_per_run", "ratio"),
    lo("core.engine.refused_chunks", "count"),
    lo("core.summary.encode_ms", "ms"),
    lo("core.summary.decode_ms", "ms"),
    lo("core.summary.bytes", "B"),
    lo("core.summary.chains", "count"),
    lo("core.summary.paths", "count"),
    lo("mapreduce.shuffle.partition_ms", "ms"),
    lo("mapreduce.shuffle.bytes", "B"),
    lo("mapreduce.shuffle.records", "count"),
    lo("mapreduce.shuffle.reducer_skew", "ratio"),
    lo("core.compose.apply_ms", "ms"),
    lo("core.compose.tree_ms", "ms"),
    lo("core.compose.chains_applied", "count"),
    lo("core.uda.extract_ms", "ms"),
    lo("core.uda.results", "count"),
    lo("mapreduce.symple_job.map_wall_ms", "ms"),
    lo("mapreduce.symple_job.reduce_wall_ms", "ms"),
    lo("mapreduce.symple_job.map_cpu_ms", "ms"),
    lo("mapreduce.symple_job.reduce_cpu_ms", "ms"),
    lo("mapreduce.symple_job.map_max_task_ms", "ms"),
    lo("mapreduce.symple_job.driver_gap_ms", "ms"),
    hi("mapreduce.symple_job.map_parallel_eff", "ratio"),
    lo("mapreduce.symple_job.salvaged_chunks", "count"),
    lo("mapreduce.scheduler.attempts", "count"),
    lo("mapreduce.scheduler.speculative_launches", "count"),
    hi("mapreduce.scheduler.speculative_wins", "count"),
    lo("mapreduce.scheduler.retry_wasted_cpu_ms", "ms"),
    lo("mapreduce.scheduler.one_worker_job_wall_ms", "ms"),
    hi("mapreduce.scheduler.speedup_vs_one_worker", "ratio"),
    lo("mapreduce.baseline.job_wall_ms", "ms"),
    lo("mapreduce.baseline.job_cpu_ms", "ms"),
    lo("mapreduce.baseline.shuffle_bytes", "B"),
    lo("mapreduce.baseline.wall_ratio", "ratio"),
    lo("mapreduce.baseline.shuffle_ratio", "ratio"),
    lo("mapreduce.sequential.job_wall_ms", "ms"),
    lo("mapreduce.streaming.job_wall_ms", "ms"),
    hi("mapreduce.cache.hits", "count"),
    lo("mapreduce.cache.misses", "count"),
    lo("mapreduce.cache.corrupt", "count"),
    hi("mapreduce.cache.hit_ratio", "ratio"),
    hi("mapreduce.cache.bytes_saved", "B"),
    lo("mapreduce.cache.frames", "count"),
    lo("mapreduce.cache.frame_bytes", "B"),
    lo("mapreduce.cache.save_ms", "ms"),
    lo("mapreduce.cache.load_ms", "ms"),
    lo("mapreduce.checkpoint.job_wall_ms", "ms"),
    lo("mapreduce.checkpoint.resume_job_wall_ms", "ms"),
    hi("mapreduce.checkpoint.hits", "count"),
    lo("mapreduce.checkpoint.misses", "count"),
    lo("mapreduce.store_io.io_errors", "count"),
    lo("mapreduce.store_io.io_retries", "count"),
    lo("mapreduce.store_io.io_gave_up", "count"),
    lo("mapreduce.store_io.store_demoted", "count"),
    lo("obs.on_job_wall_ms", "ms"),
    lo("obs.overhead_pct", "%"),
    lo("bench.harness.staged_total_ms", "ms"),
    hi("bench.harness.trace_coverage", "ratio"),
    lo("bench.harness.tracing_overhead_pct", "%"),
    lo("bench.harness.wall_iqr_pct", "%"),
    hi("bench.harness.samples", "count"),
    lo("bench.harness.reference_ms", "ms"),
];

/// Renders `BENCHMARK.json` exactly as the contract prescribes it.
pub fn manifest() -> Json {
    let text = |t: &str| Json::Str(t.to_string());
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    let workloads = WORKLOADS
        .iter()
        .map(|w| obj(vec![("name", text(w.name)), ("why", text(w.why))]));
    let end_to_end = END_TO_END.iter().map(|m| {
        obj(vec![
            ("name", text(m.name)),
            ("unit", text(m.unit)),
            ("better", text(m.better.as_str())),
            ("bound", Json::Num(m.bound)),
        ])
    });
    let per_layer = PER_LAYER.iter().map(|m| {
        obj(vec![
            ("name", text(m.name)),
            ("unit", text(m.unit)),
            ("better", text(m.better.as_str())),
        ])
    });
    obj(vec![
        (
            "command",
            Json::Arr(command.into_iter().map(text).collect()),
        ),
        ("paths", Json::Arr(vec![text("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        ("workloads", Json::Arr(workloads.collect())),
        ("end_to_end", Json::Arr(end_to_end.collect())),
        ("per_layer", Json::Arr(per_layer.collect())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name), "{}", w.name);
            assert!(seen.insert(w.name), "duplicate {}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(
                symple_queries::runner_by_id(w.query).is_some(),
                "{}",
                w.query
            );
        }
        for m in &END_TO_END {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        for m in &PER_LAYER {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
            assert!(m.name.starts_with(m.layer()) && m.layer().contains('.') || m.layer() == "obs");
        }
        assert!(PER_LAYER.len() <= 128);
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, widest, "setup_s takes the largest bound");
    }

    #[test]
    fn committed_manifest_matches_the_tables() {
        // BENCHMARK.json lives one level above this package. A checkout
        // that carries only the package (or a fresh clone mid-edit) may
        // not have it; the comparison runs whenever it does.
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(text) = std::fs::read_to_string(path) else {
            return;
        };
        assert!(text.len() <= 64 * 1024);
        assert_eq!(
            Json::parse(&text).unwrap(),
            manifest(),
            "regenerate with `cargo run --release --manifest-path benchmark/Cargo.toml -- manifest > BENCHMARK.json`"
        );
    }
}
