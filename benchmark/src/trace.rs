//! The traced run: per-layer metrics for one workload.
//!
//! End-to-end metrics are measured with tracing off (`cell`). This run
//! is separate and slower: it times every layer from outside — the
//! staged pipeline for the layers inside a job, real jobs for the job
//! driver, scheduler, baseline, streaming, stores and `symple-obs` —
//! and reports how much of the real job the staged layers explain.
//!
//! Per-layer times are printed as measured. `bench.harness.reference_ms`
//! is the reference kernel's wall in the same run; dividing by it puts
//! two traced runs taken at different host speeds on one scale.

use std::collections::BTreeMap;
use std::fmt::Debug;
use std::time::Instant;

use symple_core::uda::Uda;
use symple_datagen::TextRecord;
use symple_mapreduce::{
    run_symple_streaming, CheckpointCtx, DiskCheckpointStore, DiskSummaryCache, GroupBy, JobConfig,
    JobMetrics, SummaryCache, SummaryCacheCtx,
};
use symple_queries::bing_q::{b1_uda, b2_uda, B1Group, B2Group};
use symple_queries::redshift_q::{r3_uda, R3Group};
use symple_queries::runner::{hash_results, LineGroup};
use symple_queries::twitter_q::{T1Group, T1Uda};
use symple_queries::Backend;

use crate::calibrate::Reference;
use crate::json::{metrics_object, Json};
use crate::spans::{self_ms_by_job_and_name, Tracer};
use crate::spec::{Mode, Workload, PER_LAYER, WORKERS};
use crate::staged::{staged_job, StagedCounts};
use crate::stats::{iqr_pct, median};
use crate::workload::{
    cache_dir_frames, job_config, out_dir, run_backend, run_job, setup, Inputs, JobSample, Scratch,
};

/// How to run a traced run.
#[derive(Debug, Clone, Copy)]
pub struct TraceOpts {
    /// Workload seed.
    pub seed: u64,
    /// Scale divisor: 1 is full scale, 100 is `--smoke`.
    pub divisor: usize,
    /// Interleaved (SYMPLE, baseline, SYMPLE with obs on) triples.
    pub pairs: usize,
    /// Jobs for each smaller series: staged with and without spans,
    /// one-worker, streaming.
    pub small: usize,
}

impl TraceOpts {
    /// Job counts for a traced run that should take about `seconds` of
    /// measuring on a 1M-row workload: 10 s buys the 10 triples and
    /// 5-job series the benchmark's definition names.
    pub fn for_seconds(seed: u64, divisor: usize, seconds: u64) -> TraceOpts {
        let pairs = seconds.clamp(3, 10) as usize;
        TraceOpts {
            seed,
            divisor,
            pairs,
            small: pairs.div_ceil(2).max(3),
        }
    }
}

/// What a traced run measured.
#[derive(Debug, Clone)]
pub struct TraceReport {
    /// Workload name.
    pub workload: String,
    /// `(metric name, value)` in [`PER_LAYER`] order, every one present.
    pub metrics: Vec<(&'static str, f64)>,
    /// Jobs run, of every kind.
    pub attempted: u64,
    /// Jobs that failed their output or ledger check.
    pub failed: u64,
    /// Why the run is not correct, if it is not.
    pub problems: Vec<String>,
}

impl TraceReport {
    /// Whether every job and every reconciliation passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// The metrics as a `{"name": {"value", "unit"}}` object.
    pub fn metrics_json(&self) -> Json {
        metrics_object(
            PER_LAYER
                .iter()
                .zip(&self.metrics)
                .map(|(m, (name, value))| (*name, m.unit, *value)),
        )
    }

    /// Every metric by name with its unit, grouped by layer.
    pub fn print(&self) {
        println!("{}", self.workload);
        let mut layer = "";
        for (m, (name, value)) in PER_LAYER.iter().zip(&self.metrics) {
            if m.layer() != layer {
                layer = m.layer();
                println!("  [{layer}]");
            }
            println!("    {name:<44} {value:>16.3} {}", m.unit);
        }
        for p in &self.problems {
            println!("  PROBLEM: {p}");
        }
    }
}

/// What the typed half of the run (the calls that need the query's
/// concrete group and UDA types) hands back.
struct Typed {
    counts: StagedCounts,
    /// Median self time per span name across the traced staged jobs.
    layer_ms: BTreeMap<&'static str, f64>,
    /// Per traced job: job span minus the tree-compose comparison.
    staged_total_ms: Vec<f64>,
    /// Outside wall of the staged jobs with spans on / off.
    traced_wall_ms: Vec<f64>,
    plain_wall_ms: Vec<f64>,
    streaming_wall_ms: Vec<f64>,
    streaming_failures: Vec<String>,
    tracer: Tracer,
}

fn typed_layers<G, U>(
    g: &G,
    line_g: &LineGroup<G>,
    uda: &U,
    inputs: &Inputs,
    cfg: &JobConfig,
    jobs: usize,
) -> Result<Typed, String>
where
    G: GroupBy,
    G::Record: TextRecord + Send + Sync,
    U: Uda<Event = G::Event>,
    U::Output: Send + Debug,
{
    let mut tracer = Tracer::new(true);
    let mut off = Tracer::new(false);
    let mut counts = None;
    let (mut traced_wall_ms, mut plain_wall_ms) = (Vec::new(), Vec::new());
    // One untimed pass first, like the warm-up jobs of the real runs.
    staged_job(g, uda, &inputs.segments, cfg, &mut off)?;
    for job in 0..jobs {
        tracer.set_job(job as u64);
        let started = Instant::now();
        let c = staged_job(g, uda, &inputs.segments, cfg, &mut tracer)?;
        traced_wall_ms.push(started.elapsed().as_secs_f64() * 1e3);
        if counts.get_or_insert_with(|| c.clone()) != &c {
            return Err("staged pipeline is not deterministic across jobs".to_string());
        }
        let started = Instant::now();
        staged_job(g, uda, &inputs.segments, cfg, &mut off)?;
        plain_wall_ms.push(started.elapsed().as_secs_f64() * 1e3);
    }

    let by = self_ms_by_job_and_name(tracer.spans());
    let mut per_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for ((_, name), ms) in &by {
        per_name.entry(name).or_default().push(*ms);
    }
    let layer_ms = per_name.iter().map(|(n, v)| (*n, median(v))).collect();
    let staged_total_ms = (0..jobs as u64)
        .map(|job| {
            by.iter()
                .filter(|((j, name), _)| *j == job && *name != "core.compose.tree")
                .map(|(_, ms)| ms)
                .sum()
        })
        .collect();

    let (mut streaming_wall_ms, mut streaming_failures) = (Vec::new(), Vec::new());
    for _ in 0..jobs {
        let started = Instant::now();
        let out = run_symple_streaming(line_g, uda, &inputs.segments, cfg);
        let wall = started.elapsed();
        match out {
            Ok(out) if hash_results(&out.results) == inputs.reference_hash => {
                streaming_wall_ms.push(wall.as_secs_f64() * 1e3);
            }
            Ok(_) => streaming_failures.push("streaming job: output hash mismatch".to_string()),
            Err(e) => streaming_failures.push(format!("streaming job: {e}")),
        }
    }

    Ok(Typed {
        counts: counts.ok_or("no staged job ran")?,
        layer_ms,
        staged_total_ms,
        traced_wall_ms,
        plain_wall_ms,
        streaming_wall_ms,
        streaming_failures,
        tracer,
    })
}

/// Instantiates [`typed_layers`] for the workload's query. Only the four
/// queries the workloads use have their types named here; `-- adhoc`
/// covers the rest of the registry without layer attribution.
fn typed_for_query(
    query: &str,
    inputs: &Inputs,
    cfg: &JobConfig,
    jobs: usize,
) -> Result<Typed, String> {
    match query {
        "B1" => typed_layers(&B1Group, &LineGroup(B1Group), &b1_uda(), inputs, cfg, jobs),
        "B2" => typed_layers(&B2Group, &LineGroup(B2Group), &b2_uda(), inputs, cfg, jobs),
        "R3" => typed_layers(&R3Group, &LineGroup(R3Group), &r3_uda(), inputs, cfg, jobs),
        "T1" => typed_layers(&T1Group, &LineGroup(T1Group), &T1Uda, inputs, cfg, jobs),
        other => Err(format!("no staged pipeline for query {other}")),
    }
}

/// A series of real jobs of one kind, with failures counted.
#[derive(Default)]
struct Series {
    wall_ms: Vec<f64>,
    cpu_ms: Vec<f64>,
    metrics: Vec<JobMetrics>,
}

struct Tally {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Tally {
    fn take(&mut self, what: &str, series: &mut Series, sample: JobSample) {
        self.attempted += 1;
        match sample.failure {
            Some(why) => {
                self.failed += 1;
                self.problems.push(format!("{what}: {why}"));
            }
            None => {
                series.wall_ms.push(sample.wall.as_secs_f64() * 1e3);
                series.cpu_ms.push(sample.cpu.total().as_secs_f64() * 1e3);
                series.metrics.push(sample.metrics);
            }
        }
    }
}

impl Series {
    /// Median over the jobs of a per-job reading.
    fn med(&self, f: impl Fn(&JobMetrics) -> f64) -> f64 {
        median(&self.metrics.iter().map(f).collect::<Vec<_>>())
    }
}

/// The checkpoint layer: the same job under a fresh job id (every chunk
/// misses and is saved), then under the same id again (every chunk
/// resumes).
fn checkpoint_pair(
    inputs: &Inputs,
    cfg: &JobConfig,
    scratch: &Scratch,
    tally: &mut Tally,
    out: &mut BTreeMap<&'static str, f64>,
) {
    let dir = scratch.path().join("ckpt");
    let store = match DiskCheckpointStore::new(&dir) {
        Ok(store) => store,
        Err(e) => {
            tally
                .problems
                .push(format!("checkpoint store {dir:?}: {e}"));
            return;
        }
    };
    let ctx = CheckpointCtx::new(&store, "bench-job");
    let chunks = inputs.segments.len() as u64;
    for (wall_key, expect_hits) in [
        ("mapreduce.checkpoint.job_wall_ms", 0),
        ("mapreduce.checkpoint.resume_job_wall_ms", chunks),
    ] {
        tally.attempted += 1;
        let started = Instant::now();
        let report = inputs
            .runner
            .run_lines_checkpointed(&inputs.segments, cfg, &ctx);
        let wall = started.elapsed();
        match report {
            Ok(r)
                if r.output_hash == inputs.reference_hash
                    && r.metrics.checkpoint_hits == expect_hits
                    && r.metrics.checkpoint_hits + r.metrics.checkpoint_misses == chunks =>
            {
                out.insert(wall_key, wall.as_secs_f64() * 1e3);
                out.insert(
                    "mapreduce.checkpoint.hits",
                    r.metrics.checkpoint_hits as f64,
                );
                if expect_hits == 0 {
                    out.insert(
                        "mapreduce.checkpoint.misses",
                        r.metrics.checkpoint_misses as f64,
                    );
                }
            }
            Ok(r) => {
                tally.failed += 1;
                tally.problems.push(format!(
                    "checkpointed job: hash {:016x}, {} hits, {} misses, {} corrupt of {chunks} chunks",
                    r.output_hash,
                    r.metrics.checkpoint_hits,
                    r.metrics.checkpoint_misses,
                    r.metrics.checkpoint_corrupt
                ));
            }
            Err(e) => {
                tally.failed += 1;
                tally.problems.push(format!("checkpointed job: {e}"));
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The cache store on its own: what one cached job leaves on disk, then
/// that many `save` and `load` calls of the mean frame size against a
/// fresh `DiskSummaryCache`.
fn cache_store_probe(
    inputs: &Inputs,
    cfg: &JobConfig,
    scratch: &Scratch,
    tally: &mut Tally,
    out: &mut BTreeMap<&'static str, f64>,
) {
    let dir = scratch.path().join("probe");
    let opened = DiskSummaryCache::new(&dir).and_then(|cache| {
        DiskSummaryCache::new(scratch.path().join("probe-io")).map(|fresh| (cache, fresh))
    });
    let (cache, fresh) = match opened {
        Ok(pair) => pair,
        Err(e) => {
            tally.problems.push(format!("cache probe dir {dir:?}: {e}"));
            return;
        }
    };
    tally.attempted += 1;
    if let Err(e) =
        inputs
            .runner
            .run_lines_cached(&inputs.segments, cfg, &SummaryCacheCtx::new(&cache))
    {
        tally.failed += 1;
        tally.problems.push(format!("cache probe job: {e}"));
        return;
    }
    let (frames, bytes) = cache_dir_frames(&dir);
    out.insert("mapreduce.cache.frames", frames as f64);
    out.insert("mapreduce.cache.frame_bytes", bytes as f64);
    let frame = vec![0xa5u8; (bytes / frames.max(1)) as usize];
    let started = Instant::now();
    for digest in 0..frames {
        if let Err(e) = fresh.save(1, digest, &frame) {
            tally.problems.push(format!("cache probe save: {e}"));
            return;
        }
    }
    out.insert(
        "mapreduce.cache.save_ms",
        started.elapsed().as_secs_f64() * 1e3,
    );
    let started = Instant::now();
    for digest in 0..frames {
        match fresh.load(1, digest) {
            Ok(Some(read)) if read.len() == frame.len() => {}
            other => {
                tally.problems.push(format!(
                    "cache probe load of frame {digest}: {:?}",
                    other.map(|f| f.map(|b| b.len()))
                ));
                return;
            }
        }
    }
    out.insert(
        "mapreduce.cache.load_ms",
        started.elapsed().as_secs_f64() * 1e3,
    );
}

/// Runs the traced run for `w` and writes its spans to
/// `out/trace.<workload>.jsonl`.
pub fn trace_workload(w: &Workload, opts: &TraceOpts) -> Result<TraceReport, String> {
    let scratch = Scratch::new().map_err(|e| format!("scratch dir: {e}"))?;
    let inputs = setup(w, opts.seed, opts.divisor, scratch.path())?;
    let cfg = job_config(WORKERS);
    let mut tally = Tally {
        attempted: 0,
        failed: 0,
        problems: Vec::new(),
    };
    let mut m: BTreeMap<&'static str, f64> = PER_LAYER.iter().map(|p| (p.name, 0.0)).collect();

    // Real jobs, interleaved so drift hits all three series alike:
    // SYMPLE (the workload's own job), the baseline, SYMPLE with the
    // program's telemetry on.
    for (what, sample) in [
        ("warm-up", run_job(&inputs, &cfg, &scratch)),
        (
            "baseline warm-up",
            run_backend(&inputs, Backend::Baseline, &cfg),
        ),
    ] {
        if let Some(why) = sample.failure {
            return Err(format!("{what} job failed: {why}"));
        }
    }
    let (mut symple, mut baseline, mut obs_on) =
        (Series::default(), Series::default(), Series::default());
    let reference = Reference::new(opts.divisor);
    let mut reference_ms = Vec::new();
    for _ in 0..opts.pairs {
        reference_ms.push(reference.run().as_secs_f64() * 1e3);
        tally.take("job", &mut symple, run_job(&inputs, &cfg, &scratch));
        tally.take(
            "baseline job",
            &mut baseline,
            run_backend(&inputs, Backend::Baseline, &cfg),
        );
        symple_obs::reset();
        symple_obs::set_enabled(true);
        let sample = run_job(&inputs, &cfg, &scratch);
        symple_obs::set_enabled(false);
        symple_obs::reset();
        tally.take("job with obs on", &mut obs_on, sample);
    }
    let mut one_worker = Series::default();
    for _ in 0..opts.small {
        tally.take(
            "one-worker job",
            &mut one_worker,
            run_job(&inputs, &job_config(1), &scratch),
        );
    }
    if symple.metrics.is_empty() || baseline.metrics.is_empty() {
        return Err(format!("no job succeeded: {:?}", tally.problems));
    }

    // The layers inside a job, from the staged pipeline.
    let typed = typed_for_query(w.query, &inputs, &cfg, opts.small)?;
    tally.attempted += (2 * opts.small + 1 + opts.small) as u64;
    tally.failed += typed.streaming_failures.len() as u64;
    tally
        .problems
        .extend(typed.streaming_failures.iter().cloned());
    let real = symple.metrics[0];
    if let Err(why) = typed.counts.reconcile(&real, inputs.reference_hash) {
        tally.failed += 1;
        tally.problems.push(why);
    }
    let c = &typed.counts;
    let layer = |name: &str| typed.layer_ms.get(name).copied().unwrap_or(0.0);
    m.extend([
        ("datagen.text.parse_ms", layer("datagen.text.parse")),
        ("datagen.text.records", c.lines as f64),
        ("datagen.text.bytes_in", c.line_bytes as f64),
        (
            "mapreduce.groupby.group_ms",
            layer("mapreduce.groupby.group"),
        ),
        ("mapreduce.groupby.groups", c.output_rows as f64),
        ("mapreduce.groupby.events", c.events as f64),
        ("mapreduce.groupby.cells", c.cells as f64),
        ("core.engine.explore_ms", layer("core.engine.explore")),
        ("core.engine.concrete_ms", layer("core.engine.concrete")),
        ("core.engine.records", c.explore.records as f64),
        ("core.engine.runs", c.explore.runs as f64),
        ("core.engine.forks", c.explore.forks as f64),
        ("core.engine.merges", c.explore.merges as f64),
        ("core.engine.restarts", c.explore.restarts as f64),
        (
            "core.engine.max_live_paths",
            c.explore.max_live_paths as f64,
        ),
        ("core.engine.state_clones", c.arena.state_clones as f64),
        (
            "core.engine.batched_records",
            c.arena.batched_records as f64,
        ),
        ("core.engine.rollbacks", c.arena.rollbacks as f64),
        (
            "core.engine.records_per_run",
            c.explore.records as f64 / (c.explore.runs as f64).max(1.0),
        ),
        // A refusal fails `staged_job`, so a report exists only at 0.
        ("core.engine.refused_chunks", 0.0),
        ("core.summary.encode_ms", layer("core.summary.encode")),
        ("core.summary.decode_ms", layer("core.summary.decode")),
        ("core.summary.bytes", c.chain_bytes as f64),
        ("core.summary.chains", c.cells as f64),
        ("core.summary.paths", c.paths as f64),
        (
            "mapreduce.shuffle.partition_ms",
            layer("mapreduce.shuffle.partition"),
        ),
        ("mapreduce.shuffle.bytes", c.shuffle_bytes as f64),
        ("mapreduce.shuffle.records", c.cells as f64),
        ("mapreduce.shuffle.reducer_skew", c.reducer_skew()),
        ("core.compose.apply_ms", layer("core.compose.apply")),
        ("core.compose.tree_ms", layer("core.compose.tree")),
        ("core.compose.chains_applied", c.chains_applied as f64),
        ("core.uda.extract_ms", layer("core.uda.extract")),
        ("core.uda.results", c.output_rows as f64),
    ]);

    // The job driver and scheduler, from the real jobs' own metrics.
    let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
    let job_wall_ms = median(&symple.wall_ms);
    let job_cpu_ms = median(&symple.cpu_ms);
    let gaps: Vec<f64> = symple
        .wall_ms
        .iter()
        .zip(&symple.metrics)
        .map(|(wall, jm)| wall - ms(jm.map_wall) - ms(jm.reduce_wall))
        .collect();
    let one_worker_wall_ms = median(&one_worker.wall_ms);
    m.extend([
        (
            "mapreduce.symple_job.map_wall_ms",
            symple.med(|j| ms(j.map_wall)),
        ),
        (
            "mapreduce.symple_job.reduce_wall_ms",
            symple.med(|j| ms(j.reduce_wall)),
        ),
        (
            "mapreduce.symple_job.map_cpu_ms",
            symple.med(|j| ms(j.map_cpu)),
        ),
        (
            "mapreduce.symple_job.reduce_cpu_ms",
            symple.med(|j| ms(j.reduce_cpu)),
        ),
        (
            "mapreduce.symple_job.map_max_task_ms",
            symple.med(|j| ms(j.map_max_task)),
        ),
        ("mapreduce.symple_job.driver_gap_ms", median(&gaps)),
        (
            "mapreduce.symple_job.map_parallel_eff",
            symple.med(|j| ms(j.map_cpu) / (WORKERS as f64 * ms(j.map_wall)).max(1e-9)),
        ),
        (
            "mapreduce.symple_job.salvaged_chunks",
            symple.med(|j| j.chunks_salvaged_concrete as f64),
        ),
        (
            "mapreduce.scheduler.attempts",
            symple.med(|j| j.attempts as f64),
        ),
        (
            "mapreduce.scheduler.speculative_launches",
            symple.med(|j| j.speculative_launches as f64),
        ),
        (
            "mapreduce.scheduler.speculative_wins",
            symple.med(|j| j.speculative_wins as f64),
        ),
        (
            "mapreduce.scheduler.retry_wasted_cpu_ms",
            symple.med(|j| ms(j.retry_wasted_cpu)),
        ),
        (
            "mapreduce.scheduler.one_worker_job_wall_ms",
            one_worker_wall_ms,
        ),
        (
            "mapreduce.scheduler.speedup_vs_one_worker",
            one_worker_wall_ms / job_wall_ms,
        ),
        ("mapreduce.baseline.job_wall_ms", median(&baseline.wall_ms)),
        ("mapreduce.baseline.job_cpu_ms", median(&baseline.cpu_ms)),
        (
            "mapreduce.baseline.shuffle_bytes",
            baseline.metrics[0].shuffle_bytes as f64,
        ),
        (
            "mapreduce.baseline.wall_ratio",
            job_wall_ms / median(&baseline.wall_ms),
        ),
        (
            "mapreduce.baseline.shuffle_ratio",
            real.shuffle_bytes as f64 / (baseline.metrics[0].shuffle_bytes as f64).max(1.0),
        ),
        (
            "mapreduce.sequential.job_wall_ms",
            ms(inputs.sequential_wall),
        ),
        (
            "mapreduce.streaming.job_wall_ms",
            median(&typed.streaming_wall_ms),
        ),
        (
            "mapreduce.store_io.io_errors",
            symple.metrics.iter().map(|j| j.io_errors).sum::<u64>() as f64,
        ),
        (
            "mapreduce.store_io.io_retries",
            symple.metrics.iter().map(|j| j.io_retries).sum::<u64>() as f64,
        ),
        (
            "mapreduce.store_io.io_gave_up",
            symple.metrics.iter().map(|j| j.io_gave_up).sum::<u64>() as f64,
        ),
        (
            "mapreduce.store_io.store_demoted",
            symple.metrics.iter().map(|j| j.store_demoted).sum::<u64>() as f64,
        ),
        ("obs.on_job_wall_ms", median(&obs_on.wall_ms)),
        (
            "obs.overhead_pct",
            100.0 * (median(&obs_on.wall_ms) - job_wall_ms) / job_wall_ms,
        ),
    ]);

    // The stores.
    checkpoint_pair(&inputs, &cfg, &scratch, &mut tally, &mut m);
    if !matches!(inputs.mode, Mode::Plain { .. }) {
        let chunks = inputs.segments.len() as f64;
        m.extend([
            ("mapreduce.cache.hits", real.cache_hits as f64),
            ("mapreduce.cache.misses", real.cache_misses as f64),
            ("mapreduce.cache.corrupt", real.cache_corrupt as f64),
            ("mapreduce.cache.hit_ratio", real.cache_hits as f64 / chunks),
            ("mapreduce.cache.bytes_saved", real.cache_bytes_saved as f64),
        ]);
        cache_store_probe(&inputs, &cfg, &scratch, &mut tally, &mut m);
    }

    // The harness itself.
    let staged_total_ms = median(&typed.staged_total_ms);
    m.extend([
        ("bench.harness.staged_total_ms", staged_total_ms),
        (
            "bench.harness.trace_coverage",
            staged_total_ms / job_cpu_ms.max(1e-9),
        ),
        (
            "bench.harness.tracing_overhead_pct",
            100.0 * (median(&typed.traced_wall_ms) - median(&typed.plain_wall_ms))
                / median(&typed.plain_wall_ms),
        ),
        ("bench.harness.wall_iqr_pct", iqr_pct(&symple.wall_ms)),
        ("bench.harness.samples", symple.wall_ms.len() as f64),
        ("bench.harness.reference_ms", median(&reference_ms)),
    ]);

    let spans_path = out_dir().join(format!("trace.{}.jsonl", w.name));
    typed
        .tracer
        .write_jsonl(&spans_path)
        .map_err(|e| format!("writing {spans_path:?}: {e}"))?;

    if m.len() != PER_LAYER.len() {
        return Err(
            "the traced run emitted a metric the PER_LAYER table does not name".to_string(),
        );
    }
    Ok(TraceReport {
        workload: w.name.to_string(),
        metrics: PER_LAYER.iter().map(|p| (p.name, m[p.name])).collect(),
        attempted: tally.attempted,
        failed: tally.failed,
        problems: tally.problems,
    })
}
