//! `symple-cli` — generate datasets as log files and run the evaluation
//! queries over them, end to end, from the command line.
//!
//! ```text
//! symple-cli generate --dataset github --records 100000 --groups 4000 \
//!                     --segments 8 --out /tmp/gh
//! symple-cli run --query G1 --input /tmp/gh --backend symple
//! symple-cli run --query G1 --input /tmp/gh --backend baseline
//! symple-cli list
//! ```
//!
//! `run` reads the segment files as raw log lines — the mappers parse them,
//! exactly like the in-process measurement harnesses. With `SYMPLE_OBS=1`
//! in the environment it also prints the job's whole `JobMetrics` record
//! to stderr, one `name value` row per value, after the job report.

use std::path::PathBuf;
use std::process::ExitCode;

use symple::datagen::{
    generate_bing, generate_github, generate_redshift, generate_twitter, generate_weblog,
    list_segments, read_segment_lines, write_segments, BingConfig, GithubConfig, RedshiftConfig,
    TwitterConfig, WeblogConfig,
};
use symple::mapreduce::metrics::Value;
use symple::mapreduce::{Dataset, DiskStore, JobConfig, Segment, SummaryCacheCtx};
use symple::queries::{all_queries, runner_by_id, Backend};

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  \
         symple-cli list\n  \
         symple-cli generate --dataset <github|bing|twitter|redshift|weblog> \
         --out <dir> [--records N] [--groups N] [--segments N] [--seed N]\n  \
         symple-cli run --query <G1..G4|B1..B3|T1|R1..R4|R1c..R4c|F1> --input <dir> \
         [--backend <sequential|baseline|local|symple>] [--reducers N] \
         [--cache-dir <dir>  incremental summary cache, symple backend only]\n  \
         symple-cli verify --query <id> --input <dir>"
    );
    ExitCode::FAILURE
}

/// Tiny hand-rolled flag parser: `--key value` pairs after the subcommand.
struct Args {
    pairs: Vec<(String, String)>,
}

impl Args {
    fn parse(raw: &[String]) -> Option<Args> {
        let mut pairs = Vec::new();
        let mut it = raw.iter();
        while let Some(k) = it.next() {
            let key = k.strip_prefix("--")?.to_string();
            let value = it.next()?.to_string();
            pairs.push((key, value));
        }
        Some(Args { pairs })
    }
    fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
    fn get_num<T: std::str::FromStr>(&self, key: &str, default: T) -> Option<T> {
        match self.get(key) {
            None => Some(default),
            Some(v) => v.parse().ok(),
        }
    }
}

fn cmd_list() -> ExitCode {
    println!("{:<5} {:<20} description", "ID", "dataset");
    for q in all_queries() {
        let i = q.info();
        println!("{:<5} {:<20} {}", i.id, i.dataset, i.description);
    }
    println!("\nextras: F1 (the Figure 1 purchase funnel, dataset `weblog`)");
    println!("condensed RedShift variants: R1c R2c R3c R4c");
    ExitCode::SUCCESS
}

fn cmd_generate(args: &Args) -> ExitCode {
    let Some(dataset) = args.get("dataset") else {
        return usage();
    };
    let Some(out) = args.get("out") else {
        return usage();
    };
    let (Some(records), Some(groups), Some(segments), Some(seed)) = (
        args.get_num("records", 100_000usize),
        args.get_num("groups", 2_000u64),
        args.get_num("segments", 8usize),
        args.get_num("seed", 42u64),
    ) else {
        return usage();
    };
    let dir = PathBuf::from(out);
    let written = match dataset {
        "github" => {
            let r = generate_github(&GithubConfig {
                num_records: records,
                num_repos: groups.max(1),
                seed,
                ..Default::default()
            });
            write_segments(&r, &dir, segments)
        }
        "bing" => {
            let r = generate_bing(&BingConfig {
                num_records: records,
                num_users: groups.max(1),
                seed,
                ..Default::default()
            });
            write_segments(&r, &dir, segments)
        }
        "twitter" => {
            let r = generate_twitter(&TwitterConfig {
                num_records: records,
                num_hashtags: groups.max(1),
                seed,
                ..Default::default()
            });
            write_segments(&r, &dir, segments)
        }
        "redshift" => {
            let r = generate_redshift(&RedshiftConfig {
                num_records: records,
                num_advertisers: groups.clamp(1, u64::from(u32::MAX)) as u32,
                seed,
                ..Default::default()
            });
            write_segments(&r, &dir, segments)
        }
        "weblog" => {
            let r = generate_weblog(&WeblogConfig {
                num_records: records,
                num_users: groups.max(1),
                seed,
                ..Default::default()
            });
            write_segments(&r, &dir, segments)
        }
        other => {
            eprintln!("unknown dataset `{other}`");
            return usage();
        }
    };
    match written {
        Ok(paths) => {
            println!(
                "wrote {records} {dataset} records into {} segment file(s) under {}",
                paths.len(),
                dir.display()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("generate failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_run(args: &Args) -> ExitCode {
    let Some(query) = args.get("query") else {
        return usage();
    };
    let Some(input) = args.get("input") else {
        return usage();
    };
    let backend = match args.get("backend").unwrap_or("symple") {
        "sequential" => Backend::Sequential,
        "baseline" => Backend::Baseline,
        "local" => Backend::SortedBaseline,
        "symple" => Backend::Symple,
        other => {
            eprintln!("unknown backend `{other}`");
            return usage();
        }
    };
    let Some(runner) = runner_by_id(query) else {
        eprintln!("unknown query `{query}` (try `symple-cli list`)");
        return ExitCode::FAILURE;
    };
    let Some(reducers) = args.get_num("reducers", 4usize) else {
        return usage();
    };

    let segments = match load_segments(input, runner.raw_record_bytes()) {
        Ok(s) => s,
        Err(code) => return code,
    };

    let job = JobConfig::default().with_reducers(reducers);
    let report = match args.get("cache-dir") {
        None => runner.run_lines(&segments, backend, &job),
        Some(dir) => {
            if backend != Backend::Symple {
                eprintln!("--cache-dir requires --backend symple");
                return ExitCode::FAILURE;
            }
            // Re-chunk the log by content rather than by segment file, so
            // a regenerated dataset that merely grew at the end reuses
            // every untouched chunk's cached summary.
            let lines: Vec<String> = segments.into_iter().flat_map(|s| s.records).collect();
            let data = Dataset::new(lines, runner.raw_record_bytes(), 512, |l: &String| {
                symple::core::frame::fnv1a(l.as_bytes())
            });
            let cache = match DiskStore::new(dir) {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("cannot open cache dir {dir}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let ctx = SummaryCacheCtx::new(&cache);
            runner.run_lines_cached(&data.segments(), &job, &ctx)
        }
    };
    match report {
        Ok(report) => {
            let m = report.metrics;
            println!(
                "query {query} on {} ({} records)",
                backend.label(),
                m.input_records
            );
            println!("  result rows     : {}", report.output_rows);
            println!("  output fingerprint: {:016x}", report.output_hash);
            println!("  map cpu         : {:?}", m.map_cpu);
            println!(
                "  shuffle         : {} bytes in {} records",
                m.shuffle_bytes, m.shuffle_records
            );
            println!("  reduce cpu      : {:?}", m.reduce_cpu);
            if m.explore.records > 0 {
                println!(
                    "  symbolic        : {} runs over {} records, {} forks, {} merges, peak {} paths",
                    m.explore.runs,
                    m.explore.records,
                    m.explore.forks,
                    m.explore.merges,
                    m.explore.max_live_paths
                );
            }
            let cached_chunks = m.cache_hits + m.cache_misses + m.cache_corrupt;
            if cached_chunks > 0 {
                println!(
                    "  summary cache   : {} of {} chunks warm ({} corrupt), {} raw bytes not recomputed",
                    m.cache_hits, cached_chunks, m.cache_corrupt, m.cache_bytes_saved
                );
            }
            // A store that retried, gave up or demoted itself still lets
            // the job finish with the right answer — say so, or a dying
            // disk goes unnoticed until the cache stops helping.
            if m.io_errors > 0 || m.store_demoted > 0 {
                println!(
                    "  store I/O       : {} errors, {} retried, {} gave up, demoted: {}",
                    m.io_errors,
                    m.io_retries,
                    m.io_gave_up,
                    if m.store_demoted > 0 { "yes" } else { "no" }
                );
            }
            // `SYMPLE_OBS` set to anything but `0`/empty: the job's whole
            // metrics record follows the report, on stderr.
            if std::env::var("SYMPLE_OBS").is_ok_and(|v| !v.is_empty() && v != "0") {
                for (name, value) in m.rows() {
                    match value {
                        Value::Count(n) => eprintln!("{name:<32} {n:>12}"),
                        Value::Time(d) => eprintln!("{name:<32} {d:>12.3?}"),
                    }
                }
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("job failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_verify(args: &Args) -> ExitCode {
    let (Some(query), Some(input)) = (args.get("query"), args.get("input")) else {
        return usage();
    };
    let Some(runner) = runner_by_id(query) else {
        eprintln!("unknown query `{query}`");
        return ExitCode::FAILURE;
    };
    let segments = match load_segments(input, runner.raw_record_bytes()) {
        Ok(s) => s,
        Err(code) => return code,
    };
    let job = JobConfig::default();
    let mut hashes = Vec::new();
    for backend in [Backend::Sequential, Backend::Baseline, Backend::Symple] {
        match runner.run_lines(&segments, backend, &job) {
            Ok(r) => {
                println!(
                    "  {:<12} fingerprint {:016x}  shuffle {} B",
                    backend.label(),
                    r.output_hash,
                    r.metrics.shuffle_bytes
                );
                hashes.push(r.output_hash);
            }
            Err(e) => {
                eprintln!("{} failed: {e}", backend.label());
                return ExitCode::FAILURE;
            }
        }
    }
    if hashes.windows(2).all(|w| w[0] == w[1]) {
        println!("verify {query}: all backends agree ✓");
        ExitCode::SUCCESS
    } else {
        eprintln!("verify {query}: BACKENDS DISAGREE");
        ExitCode::FAILURE
    }
}

/// Loads the segment files of a dataset directory as raw log lines.
fn load_segments(input: &str, raw: u64) -> Result<Vec<Segment<String>>, ExitCode> {
    let dir = PathBuf::from(input);
    let paths = match list_segments(&dir) {
        Ok(p) if !p.is_empty() => p,
        Ok(_) => {
            eprintln!("no segment files under {}", dir.display());
            return Err(ExitCode::FAILURE);
        }
        Err(e) => {
            eprintln!("cannot list {}: {e}", dir.display());
            return Err(ExitCode::FAILURE);
        }
    };
    let mut segments = Vec::with_capacity(paths.len());
    for (id, p) in paths.iter().enumerate() {
        match read_segment_lines(p) {
            Ok(lines) => {
                let bytes = lines.len() as u64 * raw;
                segments.push(Segment::new(id, lines, bytes));
            }
            Err(e) => {
                eprintln!("cannot read {}: {e}", p.display());
                return Err(ExitCode::FAILURE);
            }
        }
    }
    Ok(segments)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        return usage();
    };
    let Some(args) = Args::parse(rest) else {
        return usage();
    };
    match cmd.as_str() {
        "list" => cmd_list(),
        "generate" => cmd_generate(&args),
        "run" => cmd_run(&args),
        "verify" => cmd_verify(&args),
        _ => usage(),
    }
}
