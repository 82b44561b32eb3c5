//! `-- run` and `-- trace`: every workload, results written to a file.
//!
//! `run` measures each workload in its own child process (fresh heap,
//! its own peak RSS), interleaving the workloads across rounds so slow
//! drift of the host lands on all of them alike, then pools each
//! workload's samples over the rounds.

use std::process::{Command, Stdio};

use crate::cell::{summarize, Cell, Summary};
use crate::json::{obj, Json};
use crate::spec::{NUM_REDUCERS, WORKERS, WORKLOADS};
use crate::trace::{trace_workload, TraceOpts};
use crate::workload::out_dir;

/// Results-file schema tag.
pub const SCHEMA: &str = "symple-benchmark/v1";
/// Prefix of the line on which a cell process prints its raw samples.
pub const CELL_LINE: &str = "#cell ";

/// How to run `-- run`.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// Workload seed.
    pub seed: u64,
    /// Rounds; every workload runs once per round.
    pub rounds: usize,
    /// Timed jobs per workload per round.
    pub jobs: usize,
    /// `--smoke`: records ÷ 100, for tests. Hash-and-ledger checks only.
    pub smoke: bool,
}

/// The host facts a comparison must agree on.
pub fn host_json() -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    obj(vec![
        ("nproc", Json::Num(nproc as f64)),
        ("map_workers", Json::Num(WORKERS as f64)),
        ("reduce_workers", Json::Num(WORKERS as f64)),
        ("num_reducers", Json::Num(NUM_REDUCERS as f64)),
    ])
}

fn run_cell_process(workload: &str, opts: &RunOpts) -> Result<Cell, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--trace", "0"])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--jobs", &opts.jobs.to_string()]);
    if opts.smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child, so none outlives this call.
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning the {workload} cell: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "the {workload} cell exited with {}:\n{stdout}",
            out.status
        ));
    }
    let line = stdout
        .lines()
        .find_map(|l| l.strip_prefix(CELL_LINE))
        .ok_or_else(|| format!("the {workload} cell printed no {CELL_LINE:?} line"))?;
    Cell::from_json(&Json::parse(line)?)
}

fn summary_json(s: &Summary, cells: &[Cell]) -> Json {
    let text = |t: &str| Json::Str(t.to_string());
    obj(vec![
        ("name", text(&s.workload)),
        ("jobs_attempted", Json::Num(s.attempted as f64)),
        ("jobs_failed", Json::Num(s.failed as f64)),
        ("correct", Json::Bool(s.correct())),
        ("samples", Json::Num(s.wall_ms.len() as f64)),
        ("samples_beyond_p75", Json::Num(s.beyond_p75 as f64)),
        ("bench.harness.wall_iqr_pct", Json::Num(s.wall_iqr_pct)),
        ("unstable", Json::Bool(s.unstable)),
        ("bench.harness.reference_ms", Json::Num(s.reference_ms)),
        ("raw_job_wall_ms", Json::Num(s.raw_job_wall_ms)),
        ("raw_job_wall_p75_ms", Json::Num(s.raw_job_wall_p75_ms)),
        (
            "rss_covers_jobs_only",
            Json::Bool(cells.iter().all(|c| c.rss_reset)),
        ),
        ("chunks", Json::Num(cells[0].chunks as f64)),
        ("cache_hits", Json::Num(cells[0].cache_hits as f64)),
        ("cache_misses", Json::Num(cells[0].cache_misses as f64)),
        ("reference_hash", text(&cells[0].reference_hash)),
        ("metrics", s.metrics_json()),
        (
            "wall_ms",
            Json::Arr(s.wall_ms.iter().map(|v| Json::Num(*v)).collect()),
        ),
    ])
}

/// Writes `doc` to `out/<kind>.json` (`out/smoke.<kind>.json` at smoke
/// scale, so a test run never replaces a measurement) and says so.
fn write_results(kind: &str, smoke: bool, doc: &Json) -> Result<(), String> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {dir:?}: {e}"))?;
    let path = dir.join(format!("{}{kind}.json", if smoke { "smoke." } else { "" }));
    std::fs::write(&path, doc.render()).map_err(|e| format!("writing {path:?}: {e}"))?;
    println!("wrote {}", path.display());
    Ok(())
}

/// Runs every workload for `opts.rounds` rounds, prints every metric and
/// writes the results. Returns whether every job of every workload was
/// correct.
pub fn run_all(opts: &RunOpts) -> Result<bool, String> {
    let mut cells: Vec<Vec<Cell>> = vec![Vec::new(); WORKLOADS.len()];
    for round in 0..opts.rounds {
        for (i, w) in WORKLOADS.iter().enumerate() {
            eprintln!("round {}/{}: {}", round + 1, opts.rounds, w.name);
            cells[i].push(run_cell_process(w.name, opts)?);
        }
    }
    let mut all_correct = true;
    let mut rows = Vec::new();
    for per_workload in &cells {
        let s = summarize(per_workload)?;
        s.print();
        all_correct &= s.correct();
        rows.push(summary_json(&s, per_workload));
    }
    let doc = obj(vec![
        ("schema", Json::Str(SCHEMA.to_string())),
        ("kind", Json::Str("run".to_string())),
        ("seed", Json::Num(opts.seed as f64)),
        ("smoke", Json::Bool(opts.smoke)),
        ("rounds", Json::Num(opts.rounds as f64)),
        ("jobs_per_round", Json::Num(opts.jobs as f64)),
        ("host", host_json()),
        ("workloads", Json::Arr(rows)),
    ]);
    write_results("run", opts.smoke, &doc)?;
    Ok(all_correct)
}

/// Runs the traced run for every workload, prints every per-layer metric
/// and writes the results. Returns whether every traced run was correct.
pub fn trace_all(opts: &TraceOpts) -> Result<bool, String> {
    let smoke = opts.divisor > 1;
    let mut all_correct = true;
    let mut rows = Vec::new();
    for w in &WORKLOADS {
        eprintln!("trace: {}", w.name);
        let report = trace_workload(w, opts)?;
        report.print();
        all_correct &= report.correct();
        rows.push(obj(vec![
            ("name", Json::Str(w.name.to_string())),
            ("jobs_attempted", Json::Num(report.attempted as f64)),
            ("jobs_failed", Json::Num(report.failed as f64)),
            ("correct", Json::Bool(report.correct())),
            ("metrics", report.metrics_json()),
        ]));
    }
    let doc = obj(vec![
        ("schema", Json::Str(SCHEMA.to_string())),
        ("kind", Json::Str("trace".to_string())),
        ("seed", Json::Num(opts.seed as f64)),
        ("smoke", Json::Bool(smoke)),
        ("host", host_json()),
        ("workloads", Json::Arr(rows)),
    ]);
    write_results("trace", smoke, &doc)?;
    Ok(all_correct)
}
