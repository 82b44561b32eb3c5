//! Set-up and job execution shared by every mode of the benchmark: build
//! a workload's inputs from the seed, run one job through the public
//! registry entry points, and check its output against the sequential
//! reference computed in set-up.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use symple_core::frame::fnv1a;
use symple_datagen::{
    generate_bing, generate_github, generate_redshift, generate_twitter, generate_weblog, to_lines,
    BingConfig, GithubConfig, RedshiftConfig, TwitterConfig, WeblogConfig,
};
use symple_mapreduce::segment::split_into_segments;
use symple_mapreduce::{
    Dataset, DiskSummaryCache, JobConfig, JobMetrics, Segment, SummaryCacheCtx,
};
use symple_queries::registry::QueryRunner;
use symple_queries::{runner_by_id, Backend};

use crate::procstat::{self, CpuTimes};
use crate::spec::{Mode, Workload, CHUNK_TARGET, NUM_REDUCERS};

/// The job configuration every benchmark job runs under, with `workers`
/// map and reduce threads.
pub fn job_config(workers: usize) -> JobConfig {
    JobConfig {
        num_reducers: NUM_REDUCERS,
        map_workers: workers,
        reduce_workers: workers,
        ..JobConfig::default()
    }
}

/// Directory for everything the benchmark writes: `out/` next to this
/// package's manifest (cargo exports the manifest directory to the
/// process it runs), or `benchmark/out` under the working directory.
pub fn out_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from("benchmark"), PathBuf::from)
        .join("out")
}

/// A per-process scratch directory under [`out_dir`], removed on drop so
/// no run leaves cache files behind.
pub struct Scratch {
    dir: PathBuf,
    next: std::cell::Cell<u64>,
}

impl Scratch {
    /// Creates `out/tmp.<pid>`.
    pub fn new() -> std::io::Result<Scratch> {
        let dir = out_dir().join(format!("tmp.{}", std::process::id()));
        // A previous process with a recycled pid may have died mid-run.
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch {
            dir,
            next: std::cell::Cell::new(0),
        })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.dir
    }

    /// A path under the directory no earlier call returned (not created).
    ///
    /// Every cache job gets its own and nothing is deleted before the
    /// drop: on ext4 a burst of unlinks slows the file creations of the
    /// next few seconds by a quarter, which would make each job pay for
    /// the previous job's clean-up.
    pub fn fresh_path(&self) -> PathBuf {
        let n = self.next.get();
        self.next.set(n + 1);
        self.dir.join(format!("job-{n}"))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Raw log lines for `query`'s dataset: the generator the registry's own
/// `run` uses, with the same mapping from the group knob.
pub fn lines_for(
    query: &str,
    records: usize,
    groups: u64,
    seed: u64,
) -> Result<Vec<String>, String> {
    let groups = groups.max(1);
    Ok(match query.as_bytes().first() {
        Some(b'B') => to_lines(&generate_bing(&BingConfig {
            num_records: records,
            num_users: groups,
            num_geos: (groups / 20).clamp(4, 64) as u32,
            seed,
            ..BingConfig::default()
        })),
        Some(b'R') => to_lines(&generate_redshift(&RedshiftConfig {
            num_records: records,
            num_advertisers: groups.min(u64::from(u32::MAX)) as u32,
            seed,
            ..RedshiftConfig::default()
        })),
        Some(b'T') => to_lines(&generate_twitter(&TwitterConfig {
            num_records: records,
            num_hashtags: groups,
            seed,
            ..TwitterConfig::default()
        })),
        Some(b'G') => to_lines(&generate_github(&GithubConfig {
            num_records: records,
            num_repos: groups,
            seed,
            ..GithubConfig::default()
        })),
        Some(b'F') => to_lines(&generate_weblog(&WeblogConfig {
            num_records: records,
            num_users: groups,
            seed,
            ..WeblogConfig::default()
        })),
        _ => return Err(format!("no dataset for query {query:?}")),
    })
}

fn line_hash(line: &String) -> u64 {
    fnv1a(line.as_bytes())
}

/// A workload's inputs, ready to run jobs against.
pub struct Inputs {
    /// The workload these inputs belong to.
    pub mode: Mode,
    /// The registry runner for the workload's query.
    pub runner: Box<dyn QueryRunner>,
    /// Input segments (fixed-count or content-defined chunks).
    pub segments: Vec<Segment<String>>,
    /// Records across all segments.
    pub records: u64,
    /// `Backend::Sequential` output hash: what every job must reproduce.
    pub reference_hash: u64,
    /// `Backend::Sequential` output rows.
    pub reference_rows: u64,
    /// Wall time of the sequential reference run.
    pub sequential_wall: Duration,
    /// `cache_warm` only: the populated cache every job runs against.
    pub warm: Option<WarmCache>,
}

/// The populated cache directory of `cache_warm`, and what "populated"
/// means: a warm job commits the few chunks the append dirtied, so after
/// each job every file that was not there before it is removed again.
/// One directory for the whole process keeps file creation and deletion
/// — whose cost on these hosts depends on how much was deleted in the
/// last minute — out of the picture: a job adds and loses two or three
/// files, not the whole cache.
pub struct WarmCache {
    dir: PathBuf,
    pristine: BTreeSet<PathBuf>,
    /// Chunks of the appended dataset the append left untouched — exactly
    /// the chunks a warm job must serve from the cache.
    pub clean_chunks: u64,
}

impl WarmCache {
    /// Removes every file a job added to the directory.
    fn restore(&self) -> std::io::Result<()> {
        for (path, _) in list_files(&self.dir) {
            if !self.pristine.contains(&path) {
                std::fs::remove_file(&path)?;
            }
        }
        Ok(())
    }
}

/// Builds `w`'s inputs from `seed` at `1/divisor` of full scale.
pub fn setup(w: &Workload, seed: u64, divisor: usize, scratch: &Path) -> Result<Inputs, String> {
    let divisor = divisor.max(1);
    build_inputs(
        w.query,
        (w.records / divisor).max(1),
        w.groups,
        w.mode,
        (CHUNK_TARGET / divisor).max(16),
        seed,
        scratch,
    )
}

/// Generates `records` lines of `query`'s dataset, cuts them as `mode`
/// says, runs the sequential reference, and for `CacheWarm` populates the
/// pristine cache directory under `scratch`.
pub fn build_inputs(
    query: &str,
    records: usize,
    groups: u64,
    mode: Mode,
    chunk_target: usize,
    seed: u64,
    scratch: &Path,
) -> Result<Inputs, String> {
    let runner = runner_by_id(query).ok_or_else(|| format!("unknown query {query:?}"))?;
    let cfg = job_config(crate::spec::WORKERS);
    let mut warm = None;
    let segments = match mode {
        Mode::Plain { segments } => {
            let lines = lines_for(query, records, groups, seed)?;
            split_into_segments(&lines, segments, runner.raw_record_bytes())
        }
        Mode::CacheCold => {
            let lines = lines_for(query, records, groups, seed)?;
            Dataset::new(lines, runner.raw_record_bytes(), chunk_target, line_hash).segments()
        }
        Mode::CacheWarm => {
            // One stream, so the append continues the log's timestamps.
            let mut lines = lines_for(query, records + records / 100, groups, seed)?;
            let tail = lines.split_off(records);
            let mut data = Dataset::new(lines, runner.raw_record_bytes(), chunk_target, line_hash);
            let dir = scratch.join("warm");
            let _ = std::fs::remove_dir_all(&dir);
            let cache = DiskSummaryCache::new(&dir).map_err(|e| format!("open {dir:?}: {e}"))?;
            let cold = runner
                .run_lines_cached(&data.segments(), &cfg, &SummaryCacheCtx::new(&cache))
                .map_err(|e| format!("populating the warm cache: {e}"))?;
            if cold.metrics.cache_hits != 0 || cold.metrics.io_errors != 0 {
                return Err(format!(
                    "warm cache population saw {} hits, {} I/O errors",
                    cold.metrics.cache_hits, cold.metrics.io_errors
                ));
            }
            // Appending changes no earlier record, so a chunk of the longer
            // dataset is clean exactly when the same cut existed before.
            let before: BTreeSet<usize> = data.boundaries().into_iter().collect();
            data.append(tail);
            let after = data.boundaries();
            let clean_chunks = std::iter::once(0)
                .chain(after.iter().copied())
                .zip(&after)
                .filter(|(start, end)| {
                    (*start == 0 || before.contains(start)) && before.contains(end)
                })
                .count() as u64;
            warm = Some(WarmCache {
                pristine: list_files(&dir).into_iter().map(|(p, _)| p).collect(),
                dir,
                clean_chunks,
            });
            data.segments()
        }
    };
    let started = Instant::now();
    let reference = runner
        .run_lines(&segments, Backend::Sequential, &cfg)
        .map_err(|e| format!("sequential reference: {e}"))?;
    let sequential_wall = started.elapsed();
    Ok(Inputs {
        mode,
        runner,
        records: segments.iter().map(|s| s.len() as u64).sum(),
        segments,
        reference_hash: reference.output_hash,
        reference_rows: reference.output_rows,
        sequential_wall,
        warm,
    })
}

/// One executed job.
pub struct JobSample {
    /// `Instant` time around the job call alone.
    pub wall: Duration,
    /// Process CPU over the same interval (`JobMetrics::total_cpu`, all
    /// booked as user time, where `/proc` is unavailable).
    pub cpu: CpuTimes,
    /// The job's own metrics (default when the job returned `Err`).
    pub metrics: JobMetrics,
    /// Why the job counts as failed, if it does.
    pub failure: Option<String>,
}

/// Times `call` and checks what it returned against the reference.
fn timed<E: std::fmt::Display>(
    inputs: &Inputs,
    call: impl FnOnce() -> Result<symple_queries::QueryReport, E>,
) -> JobSample {
    let cpu_before = procstat::process_cpu();
    let started = Instant::now();
    let result = call();
    let wall = started.elapsed();
    let cpu_after = procstat::process_cpu();
    match result {
        Err(e) => JobSample {
            wall,
            cpu: CpuTimes::default(),
            metrics: JobMetrics::default(),
            failure: Some(format!("job returned Err: {e}")),
        },
        Ok(report) => {
            let failure = if report.output_hash != inputs.reference_hash
                || report.output_rows != inputs.reference_rows
            {
                Some(format!(
                    "output hash {:016x} ({} rows) != sequential {:016x} ({} rows)",
                    report.output_hash,
                    report.output_rows,
                    inputs.reference_hash,
                    inputs.reference_rows
                ))
            } else {
                None
            };
            JobSample {
                wall,
                cpu: match (cpu_before, cpu_after) {
                    (Some(before), Some(after)) => after.since(&before),
                    _ => CpuTimes {
                        user: report.metrics.total_cpu(),
                        system: Duration::ZERO,
                    },
                },
                metrics: report.metrics,
                failure,
            }
        }
    }
}

/// Why a cached job's ledger is wrong, if it is: `clean` of its `chunks`
/// must hit (none for a cold job) and every other one must miss.
fn cache_ledger_failure(m: &JobMetrics, chunks: u64, clean: u64) -> Option<String> {
    if (m.cache_hits, m.cache_misses, m.cache_corrupt) == (clean, chunks - clean, 0) {
        return None;
    }
    Some(format!(
        "cache ledger: {} hits + {} misses + {} corrupt of {chunks} chunks, expected {clean} hits \
         and {} misses",
        m.cache_hits,
        m.cache_misses,
        m.cache_corrupt,
        chunks - clean
    ))
}

/// Runs the workload's query once on `backend` over the plain
/// `run_lines` entry point (no store attached), whatever its mode.
pub fn run_backend(inputs: &Inputs, backend: Backend, cfg: &JobConfig) -> JobSample {
    timed(inputs, || {
        inputs.runner.run_lines(&inputs.segments, backend, cfg)
    })
}

/// Runs the workload's job once under `cfg`. A `cache_cold` job gets a
/// fresh cache directory under `scratch`, left in place until `scratch`
/// is dropped; a `cache_warm` job runs against the populated one, which
/// is put back the way it was afterwards. Both outside the timed call.
pub fn run_job(inputs: &Inputs, cfg: &JobConfig, scratch: &Scratch) -> JobSample {
    if let Mode::Plain { .. } = inputs.mode {
        return run_backend(inputs, Backend::Symple, cfg);
    }
    let dir = match &inputs.warm {
        Some(warm) => warm.dir.clone(),
        None => scratch.fresh_path(),
    };
    let mut sample = match DiskSummaryCache::new(&dir) {
        Err(e) => JobSample {
            wall: Duration::ZERO,
            cpu: CpuTimes::default(),
            metrics: JobMetrics::default(),
            failure: Some(format!("opening cache dir {dir:?}: {e}")),
        },
        Ok(cache) => timed(inputs, || {
            inputs
                .runner
                .run_lines_cached(&inputs.segments, cfg, &SummaryCacheCtx::new(&cache))
        }),
    };
    let clean = inputs.warm.as_ref().map_or(0, |w| w.clean_chunks);
    if sample.failure.is_none() {
        sample.failure = cache_ledger_failure(&sample.metrics, inputs.segments.len() as u64, clean);
    }
    if let Some(Err(e)) = inputs.warm.as_ref().map(WarmCache::restore) {
        sample.failure = Some(format!("restoring the warm cache: {e}"));
    }
    sample
}

/// Every regular file under `dir` with its size, in path order.
pub fn list_files(dir: &Path) -> Vec<(PathBuf, u64)> {
    let mut files = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return files;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            files.extend(list_files(&path));
        } else {
            files.push((path, entry.metadata().map_or(0, |m| m.len())));
        }
    }
    files.sort();
    files
}

/// Live frames under a cache directory: `(count, total bytes)`.
pub fn cache_dir_frames(dir: &Path) -> (u64, u64) {
    list_files(dir)
        .iter()
        .filter(|(path, _)| path.extension().is_some_and(|e| e == "sum"))
        .fold((0, 0), |(n, bytes), (_, len)| (n + 1, bytes + len))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_registry_dataset_renders_lines() {
        for id in ["G1", "B3", "T1", "F1", "R4c"] {
            let lines = lines_for(id, 200, 10, 7).unwrap();
            assert_eq!(lines.len(), 200, "{id}");
            assert_eq!(lines, lines_for(id, 200, 10, 7).unwrap(), "{id}: seeded");
            assert_ne!(
                lines,
                lines_for(id, 200, 10, 8).unwrap(),
                "{id}: seed matters"
            );
        }
        assert!(lines_for("Z9", 10, 1, 1).is_err());
    }

    #[test]
    fn ledger_rules() {
        let m = |hits, misses, corrupt| JobMetrics {
            cache_hits: hits,
            cache_misses: misses,
            cache_corrupt: corrupt,
            ..JobMetrics::default()
        };
        // Cold: nothing is clean, so everything must miss.
        assert!(cache_ledger_failure(&m(0, 10, 0), 10, 0).is_none());
        assert!(cache_ledger_failure(&m(1, 9, 0), 10, 0).is_some());
        assert!(cache_ledger_failure(&m(0, 9, 0), 10, 0).is_some());
        // Warm: exactly the clean chunks hit.
        assert!(cache_ledger_failure(&m(55, 3, 0), 58, 55).is_none());
        assert!(cache_ledger_failure(&m(54, 4, 0), 58, 55).is_some());
        assert!(cache_ledger_failure(&m(55, 2, 1), 58, 55).is_some());
    }

    #[test]
    fn warm_setup_counts_clean_chunks_and_jobs_leave_the_cache_as_found() {
        let scratch = Scratch::new().unwrap();
        let inputs =
            build_inputs("B2", 6_000, 100, Mode::CacheWarm, 64, 3, scratch.path()).unwrap();
        let warm = inputs.warm.as_ref().unwrap();
        let chunks = inputs.segments.len() as u64;
        assert!(warm.clean_chunks < chunks && warm.clean_chunks * 10 >= chunks * 9);
        let before = list_files(&warm.dir);
        assert_eq!(cache_dir_frames(&warm.dir).0 as usize, before.len());
        for _ in 0..2 {
            let sample = run_job(&inputs, &job_config(2), &scratch);
            assert_eq!(sample.failure, None);
            assert_eq!(sample.metrics.cache_hits, warm.clean_chunks);
            assert_eq!(list_files(&warm.dir), before);
        }
    }
}
