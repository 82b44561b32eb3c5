//! Command line of the repo benchmark. See `README.md`.

use std::collections::BTreeMap;
use std::process::ExitCode;

use symple_benchmark::cell::{run_cell, summarize, CellOpts, Stop};
use symple_benchmark::compare::compare;
use symple_benchmark::json::{obj, one_line, Json};
use symple_benchmark::run::{run_all, trace_all, RunOpts, CELL_LINE};
use symple_benchmark::spec::{self, Mode, DEFAULT_SEED, WORKERS};
use symple_benchmark::stats;
use symple_benchmark::trace::{trace_workload, TraceOpts};
use symple_benchmark::workload::{build_inputs, job_config, run_job, Scratch};

const USAGE: &str = "\
usage: symple-benchmark <mode> [options]

  --workload <name> --seed <n> --seconds <s> --trace <0|1>
        one workload in this process; the last stdout line is the JSON
        result ({correct, attempted, failed, metrics}). --trace 0 gives
        the end-to-end metrics, --trace 1 the per-layer metrics.
        Also: --jobs <n> (stop after n timed jobs instead of --seconds),
        --smoke.
  run [--seed N] [--rounds 3] [--jobs 15] [--smoke]
        every workload, one child process per workload per round,
        samples pooled; writes out/run.json.
  trace [--seed N] [--smoke]
        the traced run for every workload; writes out/trace.json and
        out/trace.<workload>.jsonl.
  adhoc --query <id> --records N --segments S [--iters 10] [--seed N]
        any registry query through the same harness; prints every
        sample. Writes nothing.
  compare A.json B.json
        verdict per (workload, end-to-end metric), A as the base; exit 1
        on any regression.
  manifest
        prints BENCHMARK.json as rendered from the benchmark's tables.

workloads:";

/// `--key value` options and bare `--flag`s after the mode word.
struct Args {
    values: BTreeMap<String, String>,
    flags: Vec<String>,
    positional: Vec<String>,
}

const FLAGS: [&str; 1] = ["--smoke"];

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        let mut args = Args {
            values: BTreeMap::new(),
            flags: Vec::new(),
            positional: Vec::new(),
        };
        let mut it = raw.iter();
        while let Some(a) = it.next() {
            if FLAGS.contains(&a.as_str()) {
                args.flags.push(a.clone());
            } else if a.starts_with("--") {
                let v = it.next().ok_or_else(|| format!("{a} needs a value"))?;
                args.values.insert(a.clone(), v.clone());
            } else {
                args.positional.push(a.clone());
            }
        }
        Ok(args)
    }

    fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    fn get<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.values.get(name) {
            None => Ok(None),
            Some(v) => parse_number(v)
                .map(Some)
                .ok_or_else(|| format!("{name}: cannot read {v:?}")),
        }
    }

    fn or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        Ok(self.get(name)?.unwrap_or(default))
    }

    fn only(&self, allowed: &[&str]) -> Result<(), String> {
        match self.values.keys().find(|k| !allowed.contains(&k.as_str())) {
            Some(k) => Err(format!("unknown option {k}")),
            None => Ok(()),
        }
    }
}

/// Parses a number, accepting `0x…` for unsigned seeds.
fn parse_number<T: std::str::FromStr>(text: &str) -> Option<T> {
    match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16)
            .ok()
            .and_then(|n| n.to_string().parse().ok()),
        None => text.parse().ok(),
    }
}

fn divisor(args: &Args) -> usize {
    if args.flag("--smoke") {
        100
    } else {
        1
    }
}

/// The driver's entry point: one workload, one process, one JSON line.
fn driver_cell(args: &Args) -> Result<bool, String> {
    args.only(&["--workload", "--seed", "--seconds", "--trace", "--jobs"])?;
    let name = args
        .values
        .get("--workload")
        .ok_or("--workload is required")?;
    let w = spec::workload(name).ok_or_else(|| format!("no workload named {name:?}"))?;
    let seed = args.or("--seed", DEFAULT_SEED)?;
    let seconds: f64 = args.or("--seconds", spec::RUN_SECONDS as f64)?;
    let (correct, attempted, failed, metrics) = match args.or("--trace", 0u8)? {
        0 => {
            let opts = CellOpts {
                seed,
                stop: match args.get("--jobs")? {
                    Some(n) => Stop::Jobs(n),
                    None => Stop::Seconds(seconds),
                },
                divisor: divisor(args),
            };
            let cell = run_cell(w, &opts)?;
            println!("{CELL_LINE}{}", one_line(&cell.to_json()));
            let s = summarize(std::slice::from_ref(&cell))?;
            s.print();
            (s.correct(), s.attempted, s.failed, s.metrics_json())
        }
        1 => {
            let opts = TraceOpts::for_seconds(seed, divisor(args), seconds as u64);
            let report = trace_workload(w, &opts)?;
            report.print();
            (
                report.correct(),
                report.attempted,
                report.failed,
                report.metrics_json(),
            )
        }
        other => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    let result = obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", metrics),
    ]);
    println!("{}", one_line(&result));
    // The result line carries `correct`; the exit code says a result was
    // produced at all.
    Ok(true)
}

/// The generators' group knob for `adhoc` (users, advertisers, hashtags,
/// repos): what the repo's own 1M-row throughput harness uses.
const ADHOC_GROUPS: u64 = 1_000;

fn adhoc(args: &Args) -> Result<bool, String> {
    args.only(&["--query", "--records", "--segments", "--iters", "--seed"])?;
    let query = args.values.get("--query").ok_or("--query is required")?;
    let records: usize = args.get("--records")?.ok_or("--records is required")?;
    let segments: usize = args.get("--segments")?.ok_or("--segments is required")?;
    let iters: usize = args.or("--iters", 10)?;
    let scratch = Scratch::new().map_err(|e| format!("scratch dir: {e}"))?;
    let inputs = build_inputs(
        query,
        records,
        ADHOC_GROUPS,
        Mode::Plain { segments },
        spec::CHUNK_TARGET,
        args.or("--seed", DEFAULT_SEED)?,
        scratch.path(),
    )?;
    let cfg = job_config(WORKERS);
    println!(
        "{query}: {} records, {} segments, {WORKERS} map + {WORKERS} reduce workers, sequential hash {:016x}",
        inputs.records,
        inputs.segments.len(),
        inputs.reference_hash
    );
    for _ in 0..3 {
        if let Some(why) = run_job(&inputs, &cfg, &scratch).failure {
            return Err(format!("warm-up job failed: {why}"));
        }
    }
    println!("  job   wall_ms   map_ms  reduce_ms  user_ms   sys_ms  shuffle_bytes");
    let mut wall = Vec::new();
    let mut ok = true;
    for i in 0..iters {
        let s = run_job(&inputs, &cfg, &scratch);
        let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
        println!(
            "{i:>5} {:>9.2} {:>8.2} {:>10.2} {:>8.0} {:>8.0} {:>14}{}",
            ms(s.wall),
            ms(s.metrics.map_wall),
            ms(s.metrics.reduce_wall),
            ms(s.cpu.user),
            ms(s.cpu.system),
            s.metrics.shuffle_bytes,
            s.failure
                .as_ref()
                .map_or(String::new(), |w| format!("  FAILED: {w}"))
        );
        ok &= s.failure.is_none();
        wall.push(ms(s.wall));
    }
    let (median, p75) = (stats::median(&wall), stats::p75(&wall));
    println!(
        "median {median:.2} ms, p75 {p75:.2} ms, p75 / median {:.3}, IQR {:.1} % of median, {} samples",
        p75 / median,
        stats::iqr_pct(&wall),
        wall.len()
    );
    Ok(ok)
}

fn dispatch(raw: &[String]) -> Result<bool, String> {
    let Some(mode) = raw.first() else {
        return Err("no mode given".to_string());
    };
    if mode.starts_with("--") {
        return driver_cell(&Args::parse(raw)?);
    }
    let args = Args::parse(&raw[1..])?;
    match mode.as_str() {
        "run" => {
            args.only(&["--seed", "--rounds", "--jobs"])?;
            run_all(&RunOpts {
                seed: args.or("--seed", DEFAULT_SEED)?,
                rounds: args.or("--rounds", 3)?,
                jobs: args.or("--jobs", if args.flag("--smoke") { 3 } else { 15 })?,
                smoke: args.flag("--smoke"),
            })
        }
        "trace" => {
            args.only(&["--seed"])?;
            let seconds = if args.flag("--smoke") { 3 } else { 10 };
            trace_all(&TraceOpts::for_seconds(
                args.or("--seed", DEFAULT_SEED)?,
                divisor(&args),
                seconds,
            ))
        }
        "adhoc" => adhoc(&args),
        "compare" => {
            let [a, b] = args.positional.as_slice() else {
                return Err("compare takes two results files".to_string());
            };
            let load = |p: &String| {
                std::fs::read_to_string(p)
                    .map_err(|e| format!("reading {p}: {e}"))
                    .and_then(|t| Json::parse(&t).map_err(|e| format!("{p}: {e}")))
            };
            compare(&load(a)?, &load(b)?, a, b)
        }
        "manifest" => {
            print!("{}", spec::manifest().render());
            Ok(true)
        }
        other => Err(format!("unknown mode {other:?}")),
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&raw) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("symple-benchmark: {e}");
            if e.starts_with("unknown") || e.starts_with("no mode") || e.contains("is required") {
                eprintln!("{USAGE}");
                for w in &spec::WORKLOADS {
                    eprintln!("  {:<18} {}", w.name, w.why);
                }
            }
            ExitCode::from(2)
        }
    }
}
