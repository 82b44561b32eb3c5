//! One cell: one workload measured in one process.
//!
//! A cell sets the workload up (several times, so set-up time has a
//! median), runs untimed warm-up jobs, then runs timed jobs back to back
//! — a closed loop with one client — until its stopping rule says stop.
//! The acceptance driver invokes exactly one cell per process; `-- run`
//! spawns one process per cell and pools their samples.
//!
//! The reference kernel ([`crate::calibrate`]) runs before every timed
//! job and around every set-up; the times reported are scaled by it, the
//! raw ones are kept next to them.

use std::time::Instant;

use crate::calibrate::{scale_each, Reference, NOMINAL_CPU_MS, NOMINAL_MS};
use crate::json::{metrics_object, obj, Json};
use crate::procstat;
use crate::spec::{Workload, END_TO_END, UNSTABLE_IQR_PCT, WORKERS};
use crate::stats;
use crate::workload::{job_config, run_job, setup, Inputs, Scratch};

/// Untimed jobs before the timed loop.
const WARMUPS: usize = 3;
/// Times a cell sets its workload up: `setup_s` is a median, and one
/// set-up lands in a slow second of the host too often to stand alone.
/// The last set-up's inputs are the ones the jobs run on.
const SETUP_REPS: usize = 3;

/// When a cell stops running timed jobs.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// After this many seconds of timed-job loop (at least 3 jobs).
    Seconds(f64),
    /// After this many timed jobs.
    Jobs(usize),
}

/// How to run a cell.
#[derive(Debug, Clone, Copy)]
pub struct CellOpts {
    /// Workload seed.
    pub seed: u64,
    /// Stopping rule for the timed loop.
    pub stop: Stop,
    /// Scale divisor: 1 is full scale, 100 is `--smoke`.
    pub divisor: usize,
}

/// What one cell measured. Failed jobs count in `attempted`/`failed` and
/// contribute no timing.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Cell {
    /// Workload name.
    pub workload: String,
    /// One entry per set-up repetition, seconds, as measured.
    pub setup_s: Vec<f64>,
    /// Wall time of the reference kernel before the first set-up and
    /// after each one, ms (one longer than `setup_s`).
    pub setup_ref_ms: Vec<f64>,
    /// Wall time of each successful timed job, ms, as measured.
    pub wall_ms: Vec<f64>,
    /// Wall time of the reference kernel run just before each of those
    /// jobs, ms (same length as `wall_ms`).
    pub ref_ms: Vec<f64>,
    /// Process CPU of each of those jobs, ms (same length as `wall_ms`).
    pub cpu_ms: Vec<f64>,
    /// Process CPU of each of those kernel runs, ms (same length as
    /// `wall_ms`; in 10 ms ticks, so only their sum means anything).
    pub ref_cpu_ms: Vec<f64>,
    /// Records per job.
    pub records: u64,
    /// `JobMetrics.shuffle_bytes`, identical across the cell's samples.
    pub shuffle_bytes: u64,
    /// Peak RSS in MiB (see `rss_reset`).
    pub peak_rss_mb: f64,
    /// Whether the watermark was reset after set-up, so `peak_rss_mb`
    /// covers the jobs alone rather than set-up too.
    pub rss_reset: bool,
    /// Timed jobs attempted.
    pub attempted: u64,
    /// Timed jobs that failed.
    pub failed: u64,
    /// The first few failure reasons.
    pub failures: Vec<String>,
    /// Map tasks (segments or chunks) per job.
    pub chunks: u64,
    /// Cache hits of the last job (cache workloads).
    pub cache_hits: u64,
    /// Cache misses of the last job (cache workloads).
    pub cache_misses: u64,
    /// The sequential reference hash every job reproduced.
    pub reference_hash: String,
}

fn note_failure(cell: &mut Cell, why: String) {
    cell.failed += 1;
    if cell.failures.len() < 5 {
        cell.failures.push(why);
    }
}

/// Runs one cell.
pub fn run_cell(w: &Workload, opts: &CellOpts) -> Result<Cell, String> {
    let scratch = Scratch::new().map_err(|e| format!("scratch dir: {e}"))?;
    let mut cell = Cell {
        workload: w.name.to_string(),
        ..Cell::default()
    };
    let reference = Reference::new(opts.divisor);
    let mut inputs: Option<Inputs> = None;
    cell.setup_ref_ms.push(reference.run().as_secs_f64() * 1e3);
    for _ in 0..SETUP_REPS {
        // Free the previous copy first: two 1M-line inputs at once would
        // double the footprint for nothing.
        drop(inputs.take());
        let started = Instant::now();
        inputs = Some(setup(w, opts.seed, opts.divisor, scratch.path())?);
        cell.setup_s.push(started.elapsed().as_secs_f64());
        cell.setup_ref_ms.push(reference.run().as_secs_f64() * 1e3);
    }
    let inputs = inputs.expect("set up at least once");
    cell.records = inputs.records;
    cell.chunks = inputs.segments.len() as u64;
    cell.reference_hash = format!("{:016x}", inputs.reference_hash);

    let cfg = job_config(WORKERS);
    cell.rss_reset = procstat::reset_peak_rss();
    for _ in 0..WARMUPS {
        if let Some(why) = run_job(&inputs, &cfg, &scratch).failure {
            return Err(format!("warm-up job failed: {why}"));
        }
    }

    let loop_started = Instant::now();
    let mut shuffle: Option<u64> = None;
    loop {
        let done = match opts.stop {
            Stop::Jobs(n) => cell.attempted >= n as u64,
            Stop::Seconds(s) => cell.attempted >= 3 && loop_started.elapsed().as_secs_f64() >= s,
        };
        if done {
            break;
        }
        cell.attempted += 1;
        let (reference_wall, reference_cpu) = reference.run_with_cpu();
        let sample = run_job(&inputs, &cfg, &scratch);
        if let Some(why) = sample.failure {
            note_failure(&mut cell, why);
            continue;
        }
        let bytes = sample.metrics.shuffle_bytes;
        if *shuffle.get_or_insert(bytes) != bytes {
            note_failure(
                &mut cell,
                format!("shuffle_bytes {bytes} differs from {shuffle:?} earlier in the run"),
            );
            continue;
        }
        cell.wall_ms.push(sample.wall.as_secs_f64() * 1e3);
        cell.ref_ms.push(reference_wall.as_secs_f64() * 1e3);
        cell.cpu_ms.push(sample.cpu.total().as_secs_f64() * 1e3);
        cell.ref_cpu_ms.push(reference_cpu.as_secs_f64() * 1e3);
        cell.cache_hits = sample.metrics.cache_hits;
        cell.cache_misses = sample.metrics.cache_misses;
    }
    cell.shuffle_bytes = shuffle.unwrap_or(0);
    cell.peak_rss_mb = procstat::peak_rss_mib().unwrap_or(0.0);
    Ok(cell)
}

fn nums(values: &[f64]) -> Json {
    Json::Arr(values.iter().map(|v| Json::Num(*v)).collect())
}

impl Cell {
    /// Serializes the cell (the `#cell` line a child process prints).
    pub fn to_json(&self) -> Json {
        let text = |t: &str| Json::Str(t.to_string());
        obj(vec![
            ("workload", text(&self.workload)),
            ("setup_s", nums(&self.setup_s)),
            ("setup_ref_ms", nums(&self.setup_ref_ms)),
            ("wall_ms", nums(&self.wall_ms)),
            ("ref_ms", nums(&self.ref_ms)),
            ("cpu_ms", nums(&self.cpu_ms)),
            ("ref_cpu_ms", nums(&self.ref_cpu_ms)),
            ("records", Json::Num(self.records as f64)),
            ("shuffle_bytes", Json::Num(self.shuffle_bytes as f64)),
            ("peak_rss_mb", Json::Num(self.peak_rss_mb)),
            ("rss_reset", Json::Bool(self.rss_reset)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "failures",
                Json::Arr(self.failures.iter().map(|f| text(f)).collect()),
            ),
            ("chunks", Json::Num(self.chunks as f64)),
            ("cache_hits", Json::Num(self.cache_hits as f64)),
            ("cache_misses", Json::Num(self.cache_misses as f64)),
            ("reference_hash", text(&self.reference_hash)),
        ])
    }

    /// Inverse of [`Cell::to_json`].
    pub fn from_json(v: &Json) -> Result<Cell, String> {
        let num = |k: &str| {
            v.get(k)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("cell: missing number {k:?}"))
        };
        let list = |k: &str| -> Result<Vec<f64>, String> {
            v.get(k)
                .and_then(Json::as_array)
                .ok_or_else(|| format!("cell: missing array {k:?}"))?
                .iter()
                .map(|x| {
                    x.as_f64()
                        .ok_or_else(|| format!("cell: {k:?} holds a non-number"))
                })
                .collect()
        };
        let text = |k: &str| {
            v.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("cell: missing string {k:?}"))
        };
        Ok(Cell {
            workload: text("workload")?,
            setup_s: list("setup_s")?,
            setup_ref_ms: list("setup_ref_ms")?,
            wall_ms: list("wall_ms")?,
            ref_ms: list("ref_ms")?,
            cpu_ms: list("cpu_ms")?,
            ref_cpu_ms: list("ref_cpu_ms")?,
            records: num("records")? as u64,
            shuffle_bytes: num("shuffle_bytes")? as u64,
            peak_rss_mb: num("peak_rss_mb")?,
            rss_reset: v.get("rss_reset") == Some(&Json::Bool(true)),
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
            failures: v
                .get("failures")
                .and_then(Json::as_array)
                .unwrap_or(&[])
                .iter()
                .filter_map(|f| f.as_str().map(str::to_string))
                .collect(),
            chunks: num("chunks")? as u64,
            cache_hits: num("cache_hits")? as u64,
            cache_misses: num("cache_misses")? as u64,
            reference_hash: text("reference_hash")?,
        })
    }
}

/// The end-to-end metrics of one workload, from one cell or several
/// pooled (one per round).
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Workload name.
    pub workload: String,
    /// `(metric name, value)` in [`END_TO_END`] order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Timed jobs attempted across the cells.
    pub attempted: u64,
    /// Timed jobs failed across the cells.
    pub failed: u64,
    /// The pooled job wall times, each scaled by the kernel runs nearest
    /// to it, ms.
    pub wall_ms: Vec<f64>,
    /// Median job wall time as measured, before scaling, ms.
    pub raw_job_wall_ms: f64,
    /// 75th percentile of the job wall times as measured, ms.
    pub raw_job_wall_p75_ms: f64,
    /// Median wall time of the reference kernel, ms ([`NOMINAL_MS`] on the
    /// defining host when nothing disturbs it).
    pub reference_ms: f64,
    /// Samples strictly beyond the p75 value.
    pub beyond_p75: usize,
    /// `bench.harness.wall_iqr_pct`: spread of the pooled wall samples.
    pub wall_iqr_pct: f64,
    /// Whether the spread is past [`UNSTABLE_IQR_PCT`].
    pub unstable: bool,
    /// Reasons the workload is not correct (failed jobs, or cells that
    /// disagree on `shuffle_bytes` or the reference hash).
    pub problems: Vec<String>,
}

/// Pools `cells` (all of one workload) into its end-to-end metrics.
///
/// Every job wall is scaled within its own cell — only the kernel runs of
/// the same process are near it in time — and the scaled walls of all
/// cells form one series; the wall metrics are its median, p75 and mean.
pub fn summarize(cells: &[Cell]) -> Result<Summary, String> {
    let first = cells.first().ok_or("no cells to summarize")?;
    let pool = |f: &dyn Fn(&Cell) -> Vec<f64>| cells.iter().flat_map(f).collect::<Vec<f64>>();
    let raw_wall = pool(&|c| c.wall_ms.clone());
    if raw_wall.is_empty() {
        return Err(format!(
            "{}: no job succeeded: {:?}",
            first.workload, first.failures
        ));
    }
    let wall = pool(&|c| scale_each(&c.wall_ms, &c.ref_ms));
    // A set-up is scaled by the kernel runs around the set-ups of its own
    // process; their median shrugs off one that met a burst.
    let setup = pool(&|c| {
        let factor = NOMINAL_MS / stats::median(&c.setup_ref_ms);
        c.setup_s.iter().map(|s| s * factor).collect()
    });
    // CPU time comes in 10 ms ticks, far too coarse for one kernel run,
    // so CPU is scaled in bulk: all the jobs' over all the kernel runs'
    // (one before each job, so the ratio is per job).
    let total = |f: &dyn Fn(&Cell) -> &Vec<f64>| -> f64 { cells.iter().flat_map(f).sum() };
    let (jobs_cpu, kernel_cpu) = (total(&|c| &c.cpu_ms), total(&|c| &c.ref_cpu_ms));
    let job_cpu_ms = if kernel_cpu > 0.0 {
        NOMINAL_CPU_MS * jobs_cpu / kernel_cpu
    } else {
        // `--smoke`: the whole run's kernel time is under one clock tick.
        jobs_cpu / raw_wall.len() as f64
    };
    let mut problems: Vec<String> = cells.iter().flat_map(|c| c.failures.clone()).collect();
    if cells.iter().any(|c| c.shuffle_bytes != first.shuffle_bytes) {
        problems.push("shuffle_bytes differs between rounds".to_string());
    }
    if cells
        .iter()
        .any(|c| c.reference_hash != first.reference_hash)
    {
        problems.push("sequential reference hash differs between rounds".to_string());
    }
    let value = |name: &str| match name {
        "job_wall_ms" => stats::median(&wall),
        "job_wall_p75_ms" => stats::p75(&wall),
        "records_per_s" => {
            first.records as f64 * wall.len() as f64 / (wall.iter().sum::<f64>() / 1e3)
        }
        "job_cpu_ms" => job_cpu_ms,
        "shuffle_bytes" => first.shuffle_bytes as f64,
        "peak_rss_mb" => stats::median(&pool(&|c| vec![c.peak_rss_mb])),
        "setup_s" => stats::median(&setup),
        other => unreachable!("end-to-end metric {other} has no definition"),
    };
    let wall_iqr_pct = stats::iqr_pct(&wall);
    Ok(Summary {
        workload: first.workload.clone(),
        metrics: END_TO_END.iter().map(|m| (m.name, value(m.name))).collect(),
        attempted: cells.iter().map(|c| c.attempted).sum(),
        failed: cells.iter().map(|c| c.failed).sum(),
        raw_job_wall_ms: stats::median(&raw_wall),
        raw_job_wall_p75_ms: stats::p75(&raw_wall),
        reference_ms: stats::median(&pool(&|c| c.ref_ms.clone())),
        beyond_p75: stats::beyond_p75(&wall),
        wall_iqr_pct,
        unstable: wall_iqr_pct > UNSTABLE_IQR_PCT,
        wall_ms: wall,
        problems,
    })
}

impl Summary {
    /// Whether every job reproduced the reference and the cells agree.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// The metrics as the `{"name": {"value", "unit"}}` object both the
    /// driver's result line and the results file use.
    pub fn metrics_json(&self) -> Json {
        metrics_object(
            END_TO_END
                .iter()
                .zip(&self.metrics)
                .map(|(m, (name, value))| (*name, m.unit, *value)),
        )
    }

    /// Every metric by name with its unit, one per line.
    pub fn print(&self) {
        println!(
            "{}{}",
            self.workload,
            if self.unstable { "  [unstable]" } else { "" }
        );
        for (m, (name, value)) in END_TO_END.iter().zip(&self.metrics) {
            println!("  {name:<28} {value:>16.3} {}", m.unit);
        }
        println!(
            "  {:<28} {:>16} of {} attempted",
            "jobs_failed", self.failed, self.attempted
        );
        println!(
            "  {:<28} {:>16} ({} beyond p75)",
            "samples",
            self.wall_ms.len(),
            self.beyond_p75
        );
        println!(
            "  {:<28} {:>16.2} %",
            "bench.harness.wall_iqr_pct", self.wall_iqr_pct
        );
        println!(
            "  {:<28} {:>16.3} ms (times above are scaled to a kernel wall of {:.1} ms)",
            "bench.harness.reference_ms", self.reference_ms, NOMINAL_MS
        );
        println!(
            "  {:<28} {:>16.3} ms median, {:.3} ms p75, as measured",
            "raw job wall", self.raw_job_wall_ms, self.raw_job_wall_p75_ms
        );
        for p in &self.problems {
            println!("  PROBLEM: {p}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::one_line;

    fn cell(wall: &[f64], cpu: f64, shuffle: u64) -> Cell {
        let n = wall.len().max(1) as f64;
        Cell {
            workload: "w".to_string(),
            setup_s: vec![1.0, 3.0, 2.0],
            setup_ref_ms: vec![NOMINAL_MS; 4],
            wall_ms: wall.to_vec(),
            ref_ms: vec![NOMINAL_MS; wall.len()],
            cpu_ms: vec![cpu / n; wall.len()],
            ref_cpu_ms: vec![NOMINAL_CPU_MS; wall.len()],
            records: 1000,
            shuffle_bytes: shuffle,
            peak_rss_mb: 100.0,
            rss_reset: true,
            attempted: wall.len() as u64,
            failed: 0,
            failures: vec![],
            chunks: 8,
            cache_hits: 0,
            cache_misses: 0,
            reference_hash: "00000000deadbeef".to_string(),
        }
    }

    #[test]
    fn cell_json_round_trip() {
        let mut c = cell(&[10.5, 11.25, 9.0], 61.5, 367);
        c.failures.push("output hash \"x\" != y".to_string());
        c.failed = 1;
        let text = one_line(&c.to_json());
        assert_eq!(Cell::from_json(&Json::parse(&text).unwrap()).unwrap(), c);
    }

    #[test]
    fn pooled_metrics() {
        let a = cell(&[30.0, 34.0, 38.0, 90.0], 240.0, 367);
        let b = cell(&[50.0, 54.0, 58.0, 90.0], 400.0, 367);
        let s = summarize(&[a, b]).unwrap();
        let get = |n: &str| s.metrics.iter().find(|(k, _)| *k == n).unwrap().1;
        // The eight pooled samples 30 34 38 50 54 58 90 90: median 52,
        // p75 82, sum 444.
        assert_eq!(get("job_wall_ms"), 52.0);
        assert_eq!(get("job_wall_p75_ms"), 82.0);
        assert_eq!(get("records_per_s"), 8000.0 / 0.444);
        assert_eq!(get("job_cpu_ms"), 80.0);
        assert_eq!(get("shuffle_bytes"), 367.0);
        assert_eq!(get("setup_s"), 2.0);
        assert_eq!((s.wall_ms.len(), s.attempted, s.failed), (8, 8, 0));
        assert_eq!(
            (s.raw_job_wall_ms, s.raw_job_wall_p75_ms, s.reference_ms),
            (52.0, 82.0, NOMINAL_MS)
        );
        assert!(s.correct());
        assert!(s.unstable, "a 30..90 ms spread is far past the guard");
    }

    #[test]
    fn a_slow_host_scales_out() {
        // The same jobs on a host running everything 25 % slower.
        let quiet = cell(&[100.0, 104.0, 96.0, 100.0], 800.0, 367);
        let mut slow = quiet.clone();
        for v in slow
            .wall_ms
            .iter_mut()
            .chain(&mut slow.ref_ms)
            .chain(&mut slow.cpu_ms)
            .chain(&mut slow.ref_cpu_ms)
            .chain(&mut slow.setup_s)
            .chain(&mut slow.setup_ref_ms)
        {
            *v *= 1.25;
        }
        let (a, b) = (summarize(&[quiet]).unwrap(), summarize(&[slow]).unwrap());
        for ((name, x), (_, y)) in a.metrics.iter().zip(&b.metrics) {
            assert!((x - y).abs() <= 1e-9 * x.abs(), "{name}: {x} vs {y}");
        }
        assert_eq!(b.raw_job_wall_ms, 125.0);
    }

    #[test]
    fn one_burst_during_set_up_does_not_move_setup_s() {
        let mut c = cell(&[100.0; 4], 800.0, 367);
        c.setup_ref_ms[2] *= 1.8;
        let s = summarize(&[c]).unwrap();
        assert_eq!(s.metrics.last(), Some(&("setup_s", 2.0)));
    }

    #[test]
    fn disagreeing_rounds_are_not_correct() {
        let s = summarize(&[cell(&[1.0], 1.0, 367), cell(&[1.0], 1.0, 368)]).unwrap();
        assert!(!s.correct());
        assert!(summarize(&[cell(&[], 0.0, 0)]).is_err());
        assert!(summarize(&[]).is_err());
    }
}
