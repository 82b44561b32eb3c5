//! `symple-bench` — the perf-regression harness behind `BENCH_*.json`.
//!
//! Runs the query registry across an executor × chunk-count matrix,
//! collects [`symple_mapreduce::JobMetrics`] plus exploration stats and
//! summary wire sizes, and emits a schema-versioned JSON report that
//! later PRs diff against.
//!
//! ```text
//! symple-bench [--smoke] [--records N] [--out FILE]      measure + emit
//! symple-bench --validate FILE                           schema-check
//! symple-bench --baseline BASE [CURRENT] [--threshold P] diff, exit 1 on regressions
//! ```
//!
//! `--warm-fraction F` (default 0.10) tunes the incremental-resweep gate:
//! a warm rerun after a ~1% append must cost at most `F` of the cold run.
//!
//! `--smoke` measures a 4-query subset at small scale (the CI job);
//! `--obs` additionally enables the tracing layer and prints its span /
//! counter snapshot to stderr. The default output file is
//! `BENCH_pr10.json`, which doubles as the current file for `--baseline`
//! when no explicit CURRENT is given — so
//! `symple-bench --baseline BENCH_pr10.json` self-diffs the checked-in
//! report and must report zero regressions.

use std::process::ExitCode;
use std::time::Duration;

use symple_bench::report::{diff_reports, BenchReport, BenchRow};
use symple_bench::{measurement_scale, DEFAULT_RECORDS};
use symple_mapreduce::{JobConfig, SchedulerConfig};
use symple_queries::{runner_by_id, Backend};

/// Default report path (also the checked-in artifact name for this PR).
const DEFAULT_OUT: &str = "BENCH_pr10.json";
/// Default regression threshold, percent.
const DEFAULT_THRESHOLD: f64 = 25.0;

/// Queries measured by `--smoke` (one per dataset family).
const SMOKE_QUERIES: [&str; 4] = ["G1", "B1", "T1", "R1"];
/// Full matrix: the 12 Table-1 queries.
const FULL_QUERIES: [&str; 12] = [
    "G1", "G2", "G3", "G4", "B1", "B2", "B3", "T1", "R1", "R2", "R3", "R4",
];

/// Executors in the matrix (fast-path baseline vs SYMPLE).
const BACKENDS: [Backend; 2] = [Backend::Baseline, Backend::Symple];

struct Opts {
    smoke: bool,
    records: Option<usize>,
    out: String,
    baseline: Option<String>,
    current: Option<String>,
    validate: Option<String>,
    threshold: f64,
    warm_fraction: f64,
    obs: bool,
}

fn parse_args() -> Result<Opts, String> {
    let mut opts = Opts {
        smoke: false,
        records: None,
        out: DEFAULT_OUT.to_string(),
        baseline: None,
        current: None,
        validate: None,
        threshold: DEFAULT_THRESHOLD,
        warm_fraction: WARM_GATE_FRACTION,
        obs: false,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let need = |args: &[String], i: usize, flag: &str| -> Result<String, String> {
        args.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--smoke" => opts.smoke = true,
            "--obs" => opts.obs = true,
            "--records" => {
                opts.records = Some(
                    need(&args, i, "--records")?
                        .parse()
                        .map_err(|e| format!("--records: {e}"))?,
                );
                i += 1;
            }
            "--out" => {
                opts.out = need(&args, i, "--out")?;
                i += 1;
            }
            "--baseline" => {
                opts.baseline = Some(need(&args, i, "--baseline")?);
                i += 1;
                // Optional positional CURRENT right after the baseline path.
                if let Some(next) = args.get(i + 1) {
                    if !next.starts_with("--") {
                        opts.current = Some(next.clone());
                        i += 1;
                    }
                }
            }
            "--validate" => {
                opts.validate = Some(need(&args, i, "--validate")?);
                i += 1;
            }
            "--threshold" => {
                opts.threshold = need(&args, i, "--threshold")?
                    .parse()
                    .map_err(|e| format!("--threshold: {e}"))?;
                i += 1;
            }
            "--warm-fraction" => {
                opts.warm_fraction = need(&args, i, "--warm-fraction")?
                    .parse()
                    .map_err(|e| format!("--warm-fraction: {e}"))?;
                if !(opts.warm_fraction > 0.0 && opts.warm_fraction <= 1.0) {
                    return Err("--warm-fraction must be in (0, 1]".into());
                }
                i += 1;
            }
            "--help" | "-h" => {
                println!(
                    "symple-bench: perf-regression harness emitting {DEFAULT_OUT}\n\n\
                     USAGE:\n  symple-bench [--smoke] [--records N] [--out FILE] [--obs]\n  \
                     symple-bench --validate FILE\n  \
                     symple-bench --baseline BASE [CURRENT] [--threshold PCT]\n\n\
                     Measures {n_full} queries x {n_back} executors x chunk counts \
                     (4 queries at reduced scale with --smoke), writes a \
                     schema-versioned JSON report, and in --baseline mode exits 1 \
                     when any wall/cpu/shuffle/summary metric regresses past the \
                     threshold (default {DEFAULT_THRESHOLD}%) or an output hash changes.",
                    n_full = FULL_QUERIES.len(),
                    n_back = BACKENDS.len(),
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument '{other}' (try --help)")),
        }
        i += 1;
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("symple-bench: {e}");
            return ExitCode::FAILURE;
        }
    };

    if let Some(path) = &opts.validate {
        return validate(path);
    }
    if let Some(base) = &opts.baseline {
        let current = opts.current.clone().unwrap_or_else(|| opts.out.clone());
        return baseline_diff(base, &current, opts.threshold);
    }
    measure_and_emit(&opts)
}

/// `--validate FILE`: parse + schema-check, print a one-line summary.
fn validate(path: &str) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("symple-bench: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match BenchReport::parse(&text) {
        Ok(r) => {
            println!(
                "{path}: valid {schema} report — {rows} rows, git {sha}, host {os}/{arch}x{cores}",
                schema = r.schema,
                rows = r.rows.len(),
                sha = &r.git_sha[..r.git_sha.len().min(12)],
                os = r.host.os,
                arch = r.host.arch,
                cores = r.host.cores,
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("symple-bench: {path} is not a valid report: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `--baseline BASE CURRENT`: diff two reports, exit 1 on regressions.
fn baseline_diff(base_path: &str, cur_path: &str, threshold: f64) -> ExitCode {
    let load = |path: &str| -> Result<BenchReport, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        BenchReport::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (base, cur) = match (load(base_path), load(cur_path)) {
        (Ok(b), Ok(c)) => (b, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("symple-bench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if base.host != cur.host {
        println!(
            "note: comparing across hosts ({}/{}x{} vs {}/{}x{}) — timings are indicative only",
            base.host.os,
            base.host.arch,
            base.host.cores,
            cur.host.os,
            cur.host.arch,
            cur.host.cores
        );
    }
    let diff = diff_reports(&base, &cur, threshold);
    for note in &diff.notes {
        println!("note: {note}");
    }
    println!(
        "compared {} cells ({} vs {}), threshold {threshold}%",
        diff.compared, base.git_sha, cur.git_sha
    );
    if diff.clean() {
        println!("no regressions");
        ExitCode::SUCCESS
    } else {
        for r in &diff.regressions {
            if r.metric == "output_hash" {
                println!(
                    "REGRESSION {key}: output hash changed (answer differs)",
                    key = r.key
                );
            } else {
                println!(
                    "REGRESSION {key}: {metric} {base:.3} -> {cur:.3} (+{pct:.1}%)",
                    key = r.key,
                    metric = r.metric,
                    base = r.base,
                    cur = r.current,
                    pct = r.pct
                );
            }
        }
        println!("{} regression(s) past {threshold}%", diff.regressions.len());
        ExitCode::FAILURE
    }
}

/// Default mode: run the matrix and write the JSON report.
fn measure_and_emit(opts: &Opts) -> ExitCode {
    if opts.obs {
        symple_obs::set_enabled(true);
    } else {
        symple_obs::init_from_env();
    }
    let queries: &[&str] = if opts.smoke {
        &SMOKE_QUERIES
    } else {
        &FULL_QUERIES
    };
    let segment_counts: &[usize] = if opts.smoke { &[2, 8] } else { &[4, 8, 16] };
    let records = opts
        .records
        .unwrap_or(if opts.smoke { 3_000 } else { DEFAULT_RECORDS });

    let mut report = BenchReport::new_now();
    let job = JobConfig::default();
    eprintln!(
        "symple-bench: {} queries x {} backends x {:?} segments at {records} records",
        queries.len(),
        BACKENDS.len(),
        segment_counts
    );
    for id in queries {
        let runner = match runner_by_id(id) {
            Some(r) => r,
            None => {
                eprintln!("symple-bench: unknown query id {id}");
                return ExitCode::FAILURE;
            }
        };
        for &segments in segment_counts {
            let mut scale = measurement_scale(id, records);
            scale.segments = segments;
            for backend in BACKENDS {
                let run = match runner.run(&scale, backend, &job) {
                    Ok(r) => r,
                    Err(e) => {
                        eprintln!("symple-bench: {id}/{} failed: {e}", backend.label());
                        return ExitCode::FAILURE;
                    }
                };
                let row = BenchRow::from_report(
                    id,
                    backend.label(),
                    segments as u64,
                    records as u64,
                    &run,
                );
                eprintln!(
                    "  {id:>3}/{backend:<10} {segments:>2} seg: wall {wall:>8.2} ms, cpu {cpu:>8.2} ms, \
                     shuffle {sh} B, summaries {sm} B",
                    backend = backend.label(),
                    wall = row.wall_ms,
                    cpu = row.cpu_ms,
                    sh = row.shuffle_bytes,
                    sm = row.summary_bytes,
                );
                report.rows.push(row);
            }
        }
    }

    let text = report.render();
    if let Err(e) = std::fs::write(&opts.out, &text) {
        eprintln!("symple-bench: cannot write {}: {e}", opts.out);
        return ExitCode::FAILURE;
    }
    // Paranoia: never ship a file the validator would reject.
    if let Err(e) = BenchReport::parse(&text) {
        eprintln!("symple-bench: emitted report fails its own schema check: {e}");
        return ExitCode::FAILURE;
    }
    println!(
        "wrote {out}: {rows} rows, git {sha}",
        out = opts.out,
        rows = report.rows.len(),
        sha = &report.git_sha[..report.git_sha.len().min(12)]
    );

    if opts.obs {
        let snap = symple_obs::snapshot();
        eprintln!("--- obs snapshot ---\n{}", snap.render());
    }
    if opts.smoke {
        // Run every gate so a failure in one still reports the others'
        // numbers.
        let scheduler_ok = scheduler_overhead_gate(records);
        let checkpoint_ok = checkpoint_overhead_gate(records);
        let cache_ok = summary_cache_gates(records, opts.warm_fraction);
        let storage_io_ok = storage_io_overhead_gate();
        if !(scheduler_ok && checkpoint_ok && cache_ok && storage_io_ok) {
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// Gate (smoke mode only): the fault-tolerant scheduler, with speculation
/// enabled, must cost ≤ `OVERHEAD_GATE_PCT` wall time on clean runs
/// relative to a bookkeeping-minimal configuration (one attempt, no
/// speculation).
///
/// Min-of-rounds on each side filters scheduler-independent noise; a
/// small absolute floor keeps the percentage gate from tripping on
/// µs-scale jitter when the runs themselves take only milliseconds.
const OVERHEAD_GATE_PCT: f64 = 5.0;
const OVERHEAD_NOISE_FLOOR: Duration = Duration::from_millis(2);
const OVERHEAD_ROUNDS: usize = 5;

fn scheduler_overhead_gate(records: usize) -> bool {
    let runner = match runner_by_id("G1") {
        Some(r) => r,
        None => {
            eprintln!("symple-bench: query G1 missing for the scheduler overhead gate");
            return false;
        }
    };
    let mut scale = measurement_scale("G1", records);
    scale.segments = 8;

    let default_job = JobConfig::default();
    let minimal_job = JobConfig {
        scheduler: SchedulerConfig::minimal(),
        ..JobConfig::default()
    };
    assert!(
        default_job.scheduler.speculation,
        "gate must measure the full scheduler, speculation included"
    );

    // Interleave the configurations so host-level drift (thermal, cache)
    // hits both sides equally; keep the per-side minimum.
    let mut min_default = Duration::MAX;
    let mut min_minimal = Duration::MAX;
    for _ in 0..OVERHEAD_ROUNDS {
        for (job, slot) in [
            (&default_job, &mut min_default),
            (&minimal_job, &mut min_minimal),
        ] {
            match runner.run(&scale, Backend::Symple, job) {
                Ok(run) => *slot = (*slot).min(run.metrics.total_wall()),
                Err(e) => {
                    eprintln!("symple-bench: scheduler overhead probe failed: {e}");
                    return false;
                }
            }
        }
    }

    let overhead = min_default.saturating_sub(min_minimal);
    let overhead_pct = if min_minimal.is_zero() {
        0.0
    } else {
        overhead.as_secs_f64() / min_minimal.as_secs_f64() * 100.0
    };
    println!(
        "scheduler overhead: default {d:.3} ms vs minimal {m:.3} ms -> +{o:.2}% (gate <={g}%, \
         noise floor {nf} ms, min of {r} rounds)",
        d = min_default.as_secs_f64() * 1e3,
        m = min_minimal.as_secs_f64() * 1e3,
        o = overhead_pct,
        g = OVERHEAD_GATE_PCT,
        nf = OVERHEAD_NOISE_FLOOR.as_millis(),
        r = OVERHEAD_ROUNDS,
    );
    if overhead_pct <= OVERHEAD_GATE_PCT || overhead <= OVERHEAD_NOISE_FLOOR {
        println!("scheduler overhead gate: ok");
        true
    } else {
        println!("scheduler overhead gate: FAILED");
        false
    }
}

/// Gate (smoke mode only): durable checkpointing against the on-disk
/// store must cost ≤ [`OVERHEAD_GATE_PCT`] wall time relative to the same
/// job with checkpointing disabled.
///
/// Each checkpointed round uses a fresh job id, so every round pays the
/// full cost being gated: framing, CRC, tmp-file write, and atomic
/// rename for every chunk (resume hits are the cheap case). Rounds are
/// interleaved and min-reduced exactly like the scheduler gate.
fn checkpoint_overhead_gate(records: usize) -> bool {
    use symple_core::ctx::SymCtx;
    use symple_core::types::{sym_int::SymInt, sym_pred::SymPred};
    use symple_core::uda::Uda;
    use symple_mapreduce::segment::split_into_segments;
    use symple_mapreduce::{run_symple, CheckpointCtx, ChunkStore, DiskStore, GroupBy, SympleJob};

    struct GateGroup;
    impl GroupBy for GateGroup {
        type Record = (u8, i64);
        type Key = u8;
        type Event = i64;
        fn extract(&self, r: &(u8, i64)) -> Option<(u8, i64)> {
            Some(*r)
        }
    }

    /// A session-ish aggregation (predicate + counter) so map tasks do
    /// representative symbolic work, not just byte shuffling.
    struct GateUda;
    #[derive(Clone, Debug)]
    struct GateState {
        sum: SymInt,
        prev: SymPred<i64>,
    }
    symple_core::impl_sym_state!(GateState { sum, prev });
    impl Uda for GateUda {
        type State = GateState;
        type Event = i64;
        type Output = i64;
        fn init(&self) -> GateState {
            GateState {
                sum: SymInt::new(0),
                prev: SymPred::new(|p: &i64, c: &i64| c > p),
            }
        }
        fn update(&self, s: &mut GateState, ctx: &mut SymCtx, e: &i64) {
            if s.prev.eval(ctx, e) {
                s.sum.add(ctx, 1);
            }
            s.prev.set(*e);
        }
        fn result(&self, s: &GateState, _ctx: &mut SymCtx) -> i64 {
            s.sum.concrete_value().unwrap_or(0)
        }
    }

    // Per-chunk write cost is fixed (frame + tmp + rename), so a floor on
    // the row count keeps the percentage meaningful: against the smoke
    // run's sub-millisecond jobs the same absolute cost reads as a huge
    // relative number and the gate would only ever pass via the noise
    // floor.
    let rows: Vec<(u8, i64)> = (0..records.max(150_000))
        .map(|i| ((i % 16) as u8, (i as i64 * 29 % 193) - 40))
        .collect();
    let segments = split_into_segments(&rows, 8, 64);
    let job = JobConfig::default();

    let dir = std::env::temp_dir().join(format!("symple-ckpt-gate-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = match DiskStore::new(&dir) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("symple-bench: cannot create checkpoint dir {dir:?}: {e}");
            return false;
        }
    };

    // The larger workload carries proportionally larger host noise, so
    // this gate runs more rounds than the scheduler's before taking the
    // per-side minimum (still interleaved, still min-reduced).
    let rounds = OVERHEAD_ROUNDS * 3;
    let mut min_off = Duration::MAX;
    let mut min_on = Duration::MAX;
    for round in 0..rounds {
        match run_symple(&GateGroup, &GateUda, &segments, &job) {
            Ok(run) => min_off = min_off.min(run.metrics.total_wall()),
            Err(e) => {
                eprintln!("symple-bench: checkpoint overhead probe (off) failed: {e}");
                return false;
            }
        }
        let ctx = CheckpointCtx::new(&store, format!("gate-round-{round}"));
        let checkpointed = SympleJob::new(job).with_store(ChunkStore::Checkpoint(&ctx));
        match checkpointed.run(&GateGroup, &GateUda, &segments) {
            Ok(run) => {
                // Paranoia: a round that silently hit checkpoints would
                // be measuring the read path, not the write path.
                if run.metrics.checkpoint_misses != segments.len() as u64 {
                    eprintln!("symple-bench: checkpoint gate round was not all-miss");
                    return false;
                }
                min_on = min_on.min(run.metrics.total_wall());
            }
            Err(e) => {
                eprintln!("symple-bench: checkpoint overhead probe (on) failed: {e}");
                return false;
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);

    let overhead = min_on.saturating_sub(min_off);
    let overhead_pct = if min_off.is_zero() {
        0.0
    } else {
        overhead.as_secs_f64() / min_off.as_secs_f64() * 100.0
    };
    println!(
        "checkpoint overhead: on-disk {on:.3} ms vs disabled {off:.3} ms -> +{o:.2}% (gate <={g}%, \
         noise floor {nf} ms, min of {r} rounds)",
        on = min_on.as_secs_f64() * 1e3,
        off = min_off.as_secs_f64() * 1e3,
        o = overhead_pct,
        g = OVERHEAD_GATE_PCT,
        nf = OVERHEAD_NOISE_FLOOR.as_millis(),
        r = rounds,
    );
    if overhead_pct <= OVERHEAD_GATE_PCT || overhead <= OVERHEAD_NOISE_FLOOR {
        println!("checkpoint overhead gate: ok");
        true
    } else {
        println!("checkpoint overhead gate: FAILED");
        false
    }
}

/// Gates (smoke mode only) for the content-addressed summary cache.
///
/// Two checks against the same fixture job:
///
/// 1. **All-miss overhead** — a cold cached run against the on-disk cache
///    (every chunk computed, framed, CRC'd, written, renamed) must cost
///    ≤ [`OVERHEAD_GATE_PCT`] wall time relative to the same job without a
///    cache, exactly like the checkpoint write-path gate.
/// 2. **Incremental resweep** — after the log grows by ~1%, the warm
///    resweep must cost ≤ `warm_fraction` of the cold run's wall time
///    (default [`WARM_GATE_FRACTION`], `--warm-fraction` to override):
///    content-defined chunking confines the append to the tail, so the
///    sweep only pays for the dirty chunks plus cache reads.
///
/// Both sides of each comparison are interleaved across rounds and
/// min-reduced, like the other gates. Every cold round uses a fresh cache
/// directory so it really pays the all-miss write path.
///
/// The fraction was 0.10 when the gate landed; the batched fast path then
/// cut the cold sweep's compute by ~30% while the warm resweep's floor
/// (per-chunk grouping + digesting, paid hit or miss) stayed fixed, so the
/// same absolute warm cost now reads as a larger fraction of cold.
const WARM_GATE_FRACTION: f64 = 0.15;

fn summary_cache_gates(records: usize, warm_fraction: f64) -> bool {
    use symple_core::ctx::SymCtx;
    use symple_core::frame::fnv1a;
    use symple_core::types::{sym_int::SymInt, sym_pred::SymPred};
    use symple_core::uda::Uda;
    use symple_mapreduce::{
        run_symple, ChunkStore, Dataset, DiskStore, GroupBy, SummaryCacheCtx, SympleJob,
    };

    struct GateGroup;
    impl GroupBy for GateGroup {
        type Record = (u8, i64);
        type Key = u8;
        type Event = i64;
        fn extract(&self, r: &(u8, i64)) -> Option<(u8, i64)> {
            Some(*r)
        }
    }

    /// Same session-ish shape as the checkpoint gate's fixture, but with
    /// several symbolic registers per event: the resweep gate measures
    /// recompute *avoidance*, so per-event UDA work must dominate the
    /// per-chunk lookup cost (grouping + digesting) a warm run still pays
    /// — the regime SYMPLE targets.
    struct GateUda;
    #[derive(Clone, Debug)]
    struct GateState {
        sum: SymInt,
        steps: SymInt,
        pos: SymInt,
        neg: SymInt,
        lo: SymInt,
        hi: SymInt,
        runs: SymInt,
        churn: SymInt,
        prev: SymPred<i64>,
        drop: SymPred<i64>,
    }
    symple_core::impl_sym_state!(GateState {
        sum,
        steps,
        pos,
        neg,
        lo,
        hi,
        runs,
        churn,
        prev,
        drop
    });
    impl Uda for GateUda {
        type State = GateState;
        type Event = i64;
        type Output = i64;
        fn init(&self) -> GateState {
            GateState {
                sum: SymInt::new(0),
                steps: SymInt::new(0),
                pos: SymInt::new(0),
                neg: SymInt::new(0),
                lo: SymInt::new(0),
                hi: SymInt::new(0),
                runs: SymInt::new(0),
                churn: SymInt::new(0),
                prev: SymPred::new(|p: &i64, c: &i64| c > p),
                drop: SymPred::new(|p: &i64, c: &i64| c + 10 < *p),
            }
        }
        fn update(&self, s: &mut GateState, ctx: &mut SymCtx, e: &i64) {
            s.sum.add(ctx, *e);
            s.churn.add(ctx, e.rem_euclid(7));
            if s.prev.eval(ctx, e) {
                s.steps.add(ctx, 1);
                s.hi.add(ctx, *e);
            }
            if s.drop.eval(ctx, e) {
                s.runs.add(ctx, 1);
                s.lo.add(ctx, 1);
            }
            if *e >= 0 {
                s.pos.add(ctx, *e);
            } else {
                s.neg.add(ctx, -*e);
            }
            s.prev.set(*e);
            s.drop.set(*e);
        }
        fn result(&self, s: &GateState, _ctx: &mut SymCtx) -> i64 {
            [&s.sum, &s.steps, &s.pos, &s.lo, &s.hi, &s.runs, &s.churn]
                .iter()
                .map(|r| r.concrete_value().unwrap_or(0))
                .fold(0i64, i64::wrapping_add)
                .wrapping_sub(s.neg.concrete_value().unwrap_or(0))
        }
    }

    fn hash_row(r: &(u8, i64)) -> u64 {
        let mut bytes = [0u8; 9];
        bytes[0] = r.0;
        bytes[1..].copy_from_slice(&r.1.to_le_bytes());
        fnv1a(&bytes)
    }

    // Row-count floor, as in the checkpoint gate: per-chunk costs are
    // fixed, so tiny jobs would make the percentages meaningless.
    let n = records.max(150_000);
    let row = |i: usize| ((i % 16) as u8, (i as i64 * 29 % 193) - 40);
    let base_rows: Vec<(u8, i64)> = (0..n).map(row).collect();
    let appended: Vec<(u8, i64)> = (n..n + n / 100).map(row).collect();
    // ~40 content-defined chunks at the floor scale.
    let target_chunk = (n / 40).max(1);
    let job = JobConfig::default();

    let dir = std::env::temp_dir().join(format!("symple-cache-gate-{}", std::process::id()));
    let mut min_plain = Duration::MAX;
    let mut min_cold = Duration::MAX;
    let mut min_warm = Duration::MAX;
    for _ in 0..OVERHEAD_ROUNDS {
        let mut data = Dataset::new(base_rows.clone(), 64, target_chunk, hash_row);
        let segments = data.segments();

        // Uncached side of the all-miss comparison.
        match run_symple(&GateGroup, &GateUda, &segments, &job) {
            Ok(run) => min_plain = min_plain.min(run.metrics.total_wall()),
            Err(e) => {
                eprintln!("symple-bench: cache gate probe (uncached) failed: {e}");
                return false;
            }
        }

        // Cold cached run against a fresh directory: all chunks miss and
        // pay frame + CRC + tmp-write + rename.
        let _ = std::fs::remove_dir_all(&dir);
        let cache = match DiskStore::new(&dir) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("symple-bench: cannot create cache dir {dir:?}: {e}");
                return false;
            }
        };
        let ctx = SummaryCacheCtx::new(&cache);
        let cached = SympleJob::new(job).with_store(ChunkStore::Cache(&ctx));
        match cached.run(&GateGroup, &GateUda, &segments) {
            Ok(run) => {
                if run.metrics.cache_misses != segments.len() as u64 {
                    eprintln!("symple-bench: cache gate cold round was not all-miss");
                    return false;
                }
                min_cold = min_cold.min(run.metrics.total_wall());
            }
            Err(e) => {
                eprintln!("symple-bench: cache gate probe (cold) failed: {e}");
                return false;
            }
        }

        // Grow the log ~1% and resweep warm against the same cache.
        data.append(appended.iter().copied());
        let grown = data.segments();
        match cached.run(&GateGroup, &GateUda, &grown) {
            Ok(run) => {
                if run.metrics.cache_hits == 0 {
                    eprintln!("symple-bench: cache gate warm round had no hits");
                    return false;
                }
                min_warm = min_warm.min(run.metrics.total_wall());
            }
            Err(e) => {
                eprintln!("symple-bench: cache gate probe (warm) failed: {e}");
                return false;
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);

    let overhead = min_cold.saturating_sub(min_plain);
    let overhead_pct = if min_plain.is_zero() {
        0.0
    } else {
        overhead.as_secs_f64() / min_plain.as_secs_f64() * 100.0
    };
    println!(
        "summary-cache overhead: cold {c:.3} ms vs uncached {p:.3} ms -> +{o:.2}% (gate <={g}%, \
         noise floor {nf} ms, min of {r} rounds)",
        c = min_cold.as_secs_f64() * 1e3,
        p = min_plain.as_secs_f64() * 1e3,
        o = overhead_pct,
        g = OVERHEAD_GATE_PCT,
        nf = OVERHEAD_NOISE_FLOOR.as_millis(),
        r = OVERHEAD_ROUNDS,
    );
    let overhead_ok = overhead_pct <= OVERHEAD_GATE_PCT || overhead <= OVERHEAD_NOISE_FLOOR;
    println!(
        "summary-cache overhead gate: {}",
        if overhead_ok { "ok" } else { "FAILED" }
    );

    let warm_ratio = if min_cold.is_zero() {
        0.0
    } else {
        min_warm.as_secs_f64() / min_cold.as_secs_f64()
    };
    println!(
        "incremental resweep: warm {w:.3} ms vs cold {c:.3} ms after +1% append -> {ratio:.1}% \
         (gate <={g:.0}%, noise floor {nf} ms, min of {r} rounds)",
        w = min_warm.as_secs_f64() * 1e3,
        c = min_cold.as_secs_f64() * 1e3,
        ratio = warm_ratio * 100.0,
        g = warm_fraction * 100.0,
        nf = OVERHEAD_NOISE_FLOOR.as_millis(),
        r = OVERHEAD_ROUNDS,
    );
    let warm_ok = warm_ratio <= warm_fraction || min_warm <= OVERHEAD_NOISE_FLOOR;
    println!(
        "incremental resweep gate: {}",
        if warm_ok { "ok" } else { "FAILED" }
    );
    overhead_ok && warm_ok
}

/// Gate (smoke mode only): the `StoreIo` indirection — trait-object
/// dispatch, the retry engine's wrapping, and ledger atomics — must cost
/// ≤ [`OVERHEAD_GATE_PCT`] wall time on the disk hot path relative to
/// bare `std::fs` performing the *identical* create-dir / tmp-write /
/// atomic-rename / read-back sequence. This pins the price of making
/// every store operation injectable at zero fault load.
fn storage_io_overhead_gate() -> bool {
    use std::time::Instant;
    use symple_mapreduce::StoreEngine;

    // Enough round-trips that the sequence dominates timer noise, small
    // enough to stay millisecond-scale per round.
    const FILES: usize = 64;
    let payload = vec![0xa5u8; 4 << 10];
    let pid = std::process::id();
    let dir_engine = std::env::temp_dir().join(format!("symple-storeio-gate-engine-{pid}"));
    let dir_bare = std::env::temp_dir().join(format!("symple-storeio-gate-bare-{pid}"));
    let engine = StoreEngine::real();

    let mut min_engine = Duration::MAX;
    let mut min_bare = Duration::MAX;
    for _ in 0..OVERHEAD_ROUNDS {
        // Interleaved, fresh directories each round so both sides pay
        // the same dentry-cache profile.
        for (dir, bare, slot) in [
            (&dir_engine, false, &mut min_engine),
            (&dir_bare, true, &mut min_bare),
        ] {
            let _ = std::fs::remove_dir_all(dir);
            let started = Instant::now();
            let mut ok = true;
            for i in 0..FILES {
                let path = dir.join(format!("f{i}.bin"));
                let tmp = dir.join(format!("f{i}.tmp"));
                let result: std::io::Result<Vec<u8>> = if bare {
                    std::fs::create_dir_all(dir)
                        .and_then(|()| std::fs::write(&tmp, &payload))
                        .and_then(|()| std::fs::rename(&tmp, &path))
                        .and_then(|()| std::fs::read(&path))
                } else {
                    engine
                        .run(|io| {
                            io.create_dir_all(dir)?;
                            io.write(&tmp, &payload)?;
                            io.rename(&tmp, &path)
                        })
                        .and_then(|()| engine.run(|io| io.read(&path)))
                };
                if let Err(e) = result {
                    eprintln!("symple-bench: storage I/O gate round failed: {e}");
                    ok = false;
                    break;
                }
            }
            if !ok {
                let _ = std::fs::remove_dir_all(&dir_engine);
                let _ = std::fs::remove_dir_all(&dir_bare);
                return false;
            }
            *slot = (*slot).min(started.elapsed());
        }
    }
    let _ = std::fs::remove_dir_all(&dir_engine);
    let _ = std::fs::remove_dir_all(&dir_bare);

    let overhead = min_engine.saturating_sub(min_bare);
    let overhead_pct = if min_bare.is_zero() {
        0.0
    } else {
        overhead.as_secs_f64() / min_bare.as_secs_f64() * 100.0
    };
    println!(
        "storage I/O indirection: engine {e:.3}ms vs bare fs {b:.3}ms \
         (+{o:.2}%, gate {g}%, floor {nf}ms, min of {r} interleaved rounds x {n} files)",
        e = min_engine.as_secs_f64() * 1e3,
        b = min_bare.as_secs_f64() * 1e3,
        o = overhead_pct,
        g = OVERHEAD_GATE_PCT,
        nf = OVERHEAD_NOISE_FLOOR.as_millis(),
        r = OVERHEAD_ROUNDS,
        n = FILES,
    );
    if overhead_pct <= OVERHEAD_GATE_PCT || overhead <= OVERHEAD_NOISE_FLOOR {
        println!("storage I/O overhead gate: ok");
        true
    } else {
        println!("storage I/O overhead gate: FAILED");
        false
    }
}
