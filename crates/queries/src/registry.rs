//! Registry exposing every evaluation query behind a uniform interface,
//! so harnesses can sweep Table 1 and Figures 4–8.

use symple_core::error::Result;
use symple_core::uda::Uda;
use symple_datagen::{
    generate_bing, generate_github, generate_redshift, generate_twitter, raw_sizes, BingConfig,
    GithubConfig, RedshiftConfig, TwitterConfig,
};
use symple_mapreduce::segment::split_into_segments;
use symple_mapreduce::{
    CheckpointCtx, ChunkStore, GroupBy, JobConfig, Segment, SummaryCacheCtx, SympleJob,
};

use crate::bing_q::{b1_uda, b2_uda, b3_variants, gap_variants, B1Group, B2Group, B3Group, B3Uda};
use crate::funnel::{f1_variants, FunnelGroup, FunnelUda};
use crate::github_q::{
    g1_variants, g2_variants, g3_variants, g4_variants, G1Group, G1Uda, G2Group, G2Uda, G3Group,
    G3Uda, G4Group, G4Uda,
};
use crate::redshift_q::{
    r1_variants, r2_variants, r3_uda, r3_variants, r4_variants, R1Group, R1Uda, R2Group, R2Uda,
    R3Group, R4Group, R4Uda,
};
use crate::runner::{execute, execute_job, Backend, DataScale, LineGroup, QueryReport};
use crate::twitter_q::{t1_variants, T1Group, T1Uda};

/// Static description of one evaluation query (one Table 1 row).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryInfo {
    /// Query id, e.g. `"G1"` (condensed RedShift variants are `"R1c"`…).
    pub id: &'static str,
    /// Source dataset.
    pub dataset: &'static str,
    /// Table 1's description.
    pub description: &'static str,
    /// Table 1's "# Groups" column (display form).
    pub groups: &'static str,
    /// Uses `SymEnum`/`SymBool`.
    pub uses_enum: bool,
    /// Uses `SymInt`.
    pub uses_int: bool,
    /// Uses `SymPred`.
    pub uses_pred: bool,
}

/// A query that can be generated and executed at any scale on any backend.
pub trait QueryRunner: Send + Sync {
    /// The query's Table 1 row.
    fn info(&self) -> QueryInfo;
    /// Generates the (seeded) dataset at `scale` and runs the query.
    fn run(&self, scale: &DataScale, backend: Backend, job: &JobConfig) -> Result<QueryReport>;
    /// Runs the query over pre-loaded raw log-line segments (e.g. read
    /// back from `symple_datagen::store` files).
    fn run_lines(
        &self,
        segments: &[Segment<String>],
        backend: Backend,
        job: &JobConfig,
    ) -> Result<QueryReport>;
    /// Runs the query on the SYMPLE backend over raw log-line segments as
    /// described by `job` — its chunk store and fault plan included.
    fn run_lines_job(
        &self,
        segments: &[Segment<String>],
        job: &SympleJob<'_>,
    ) -> Result<QueryReport>;
    /// [`QueryRunner::run_lines_job`] against a content-addressed summary
    /// cache — already-cached chunks are served instead of recomputed (the
    /// incremental-resweep path).
    fn run_lines_cached(
        &self,
        segments: &[Segment<String>],
        job: &JobConfig,
        cache: &SummaryCacheCtx<'_>,
    ) -> Result<QueryReport> {
        self.run_lines_job(
            segments,
            &SympleJob::new(*job).with_store(ChunkStore::Cache(cache)),
        )
    }
    /// [`QueryRunner::run_lines_job`] against a per-job checkpoint store —
    /// valid frames under this job id are resumed instead of recomputed
    /// (the crash-resume path). The storage-chaos sweep drives every
    /// registry query through this to prove checkpoint-side fault
    /// schedules never change output bytes.
    fn run_lines_checkpointed(
        &self,
        segments: &[Segment<String>],
        job: &JobConfig,
        ckpt: &CheckpointCtx<'_>,
    ) -> Result<QueryReport> {
        self.run_lines_job(
            segments,
            &SympleJob::new(*job).with_store(ChunkStore::Checkpoint(ckpt)),
        )
    }
    /// Raw bytes per input record for I/O accounting.
    fn raw_record_bytes(&self) -> u64;
    /// Statically analyzes the query's UDA over its event variants
    /// (abstract interpretation from an all-symbolic state).
    fn analyze(&self) -> symple_core::UdaAnalysis;
}

fn github_records(scale: &DataScale) -> Vec<symple_datagen::GithubEvent> {
    generate_github(&GithubConfig {
        num_records: scale.records,
        num_repos: scale.groups.max(1),
        push_only_fraction: 0.3,
        seed: scale.seed,
        ..GithubConfig::default()
    })
}

fn bing_records(scale: &DataScale) -> Vec<symple_datagen::BingQuery> {
    generate_bing(&BingConfig {
        num_records: scale.records,
        num_users: scale.groups.max(1),
        num_geos: (scale.groups / 20).clamp(4, 64) as u32,
        seed: scale.seed,
        ..BingConfig::default()
    })
}

fn twitter_records(scale: &DataScale) -> Vec<symple_datagen::Tweet> {
    generate_twitter(&TwitterConfig {
        num_records: scale.records,
        num_hashtags: scale.groups.max(1),
        seed: scale.seed,
        ..TwitterConfig::default()
    })
}

fn weblog_records(scale: &DataScale) -> Vec<symple_datagen::WebEvent> {
    symple_datagen::generate_weblog(&symple_datagen::WeblogConfig {
        num_records: scale.records,
        num_users: scale.groups.max(1),
        seed: scale.seed,
        ..Default::default()
    })
}

fn redshift_records(scale: &DataScale) -> Vec<symple_datagen::AdImpression> {
    generate_redshift(&RedshiftConfig {
        num_records: scale.records,
        num_advertisers: scale.groups.clamp(1, u64::from(u32::MAX)) as u32,
        seed: scale.seed,
        ..RedshiftConfig::default()
    })
}

/// Runs a query over either structured records or raw log lines,
/// depending on `scale.parse_lines`.
fn dispatch<G, U>(
    g: G,
    uda: &U,
    records: Vec<G::Record>,
    raw_bytes: u64,
    scale: &DataScale,
    backend: Backend,
    job: &JobConfig,
) -> Result<QueryReport>
where
    G: GroupBy,
    G::Record: symple_datagen::TextRecord + Clone,
    U: Uda<Event = G::Event>,
    U::Output: Send,
{
    if scale.parse_lines {
        let lines = symple_datagen::to_lines(&records);
        let segments: Vec<Segment<String>> = split_into_segments(&lines, scale.segments, raw_bytes);
        execute(&LineGroup(g), uda, &segments, backend, job)
    } else {
        let segments = split_into_segments(&records, scale.segments, raw_bytes);
        execute(&g, uda, &segments, backend, job)
    }
}

macro_rules! runner {
    ($name:ident, $info:expr, $raw:expr, $records:ident, $group:expr, $uda:expr, $variants:expr) => {
        struct $name;
        impl QueryRunner for $name {
            fn info(&self) -> QueryInfo {
                $info
            }
            fn run(
                &self,
                scale: &DataScale,
                backend: Backend,
                job: &JobConfig,
            ) -> Result<QueryReport> {
                dispatch($group, &$uda, $records(scale), $raw, scale, backend, job)
            }
            fn run_lines(
                &self,
                segments: &[Segment<String>],
                backend: Backend,
                job: &JobConfig,
            ) -> Result<QueryReport> {
                execute(&LineGroup($group), &$uda, segments, backend, job)
            }
            fn run_lines_job(
                &self,
                segments: &[Segment<String>],
                job: &SympleJob<'_>,
            ) -> Result<QueryReport> {
                execute_job(&LineGroup($group), &$uda, segments, job)
            }
            fn raw_record_bytes(&self) -> u64 {
                $raw
            }
            fn analyze(&self) -> symple_core::UdaAnalysis {
                symple_core::analyze_uda(&$uda, &$variants())
            }
        }
    };
}

runner!(
    G1Runner,
    QueryInfo {
        id: "G1",
        dataset: "github",
        description: "Return all repositories with only push commands",
        groups: "12M",
        uses_enum: true,
        uses_int: false,
        uses_pred: false,
    },
    raw_sizes::GITHUB,
    github_records,
    G1Group,
    G1Uda,
    g1_variants
);

runner!(
    G2Runner,
    QueryInfo {
        id: "G2",
        dataset: "github",
        description: "All operations on a repository directly preceding a delete operation",
        groups: "12M",
        uses_enum: true,
        uses_int: false,
        uses_pred: false,
    },
    raw_sizes::GITHUB,
    github_records,
    G2Group,
    G2Uda,
    g2_variants
);

runner!(
    G3Runner,
    QueryInfo {
        id: "G3",
        dataset: "github",
        description: "Number of operations executed on a repository between pull open and close",
        groups: "12M",
        uses_enum: true,
        uses_int: true,
        uses_pred: false,
    },
    raw_sizes::GITHUB,
    github_records,
    G3Group,
    G3Uda,
    g3_variants
);

runner!(
    G4Runner,
    QueryInfo {
        id: "G4",
        dataset: "github",
        description: "The time between branch deletion and branch creation in a repository",
        groups: "22M",
        uses_enum: true,
        uses_int: false,
        uses_pred: true,
    },
    raw_sizes::GITHUB,
    github_records,
    G4Group,
    G4Uda,
    g4_variants
);

runner!(
    B1Runner,
    QueryInfo {
        id: "B1",
        dataset: "Bing",
        description: "Outages: more than 2 minutes with no successful query by any user",
        groups: "1",
        uses_enum: false,
        uses_int: false,
        uses_pred: true,
    },
    raw_sizes::BING,
    bing_records,
    B1Group,
    b1_uda(),
    gap_variants
);

runner!(
    B2Runner,
    QueryInfo {
        id: "B2",
        dataset: "Bing",
        description: "Outages per geographic area of the query (local outages)",
        groups: "*",
        uses_enum: false,
        uses_int: false,
        uses_pred: true,
    },
    raw_sizes::BING,
    bing_records,
    B2Group,
    b2_uda(),
    gap_variants
);

runner!(
    B3Runner,
    QueryInfo {
        id: "B3",
        dataset: "Bing",
        description: "Number of queries in a session per user (< 2 minutes between queries)",
        groups: "*",
        uses_enum: false,
        uses_int: true,
        uses_pred: true,
    },
    raw_sizes::BING,
    bing_records,
    B3Group,
    B3Uda,
    b3_variants
);

runner!(
    T1Runner,
    QueryInfo {
        id: "T1",
        dataset: "Twitter",
        description: "Spam learning speed: clean tweets before ≥5 spam-marked tweets per hashtag",
        groups: "*",
        uses_enum: true,
        uses_int: true,
        uses_pred: false,
    },
    raw_sizes::TWITTER,
    twitter_records,
    T1Group,
    T1Uda,
    t1_variants
);

runner!(
    F1Runner,
    QueryInfo {
        id: "F1",
        dataset: "weblog",
        description: "Figure 1: items purchased after a search and more than ten reviews",
        groups: "*",
        uses_enum: true,
        uses_int: true,
        uses_pred: false,
    },
    raw_sizes::WEBLOG,
    weblog_records,
    FunnelGroup,
    FunnelUda,
    f1_variants
);

/// The [`QueryInfo`] of a RedShift query; a condensed variant differs
/// from its full query in the dataset it names.
fn redshift_info(
    id: &'static str,
    description: &'static str,
    condensed: bool,
    [uses_enum, uses_int, uses_pred]: [bool; 3],
) -> QueryInfo {
    QueryInfo {
        id,
        dataset: if condensed {
            "RedShift-condensed"
        } else {
            "RedShift"
        },
        description,
        groups: "10K",
        uses_enum,
        uses_int,
        uses_pred,
    }
}

runner!(
    R1Runner,
    redshift_info(
        "R1",
        "Number of impressions per advertiser",
        false,
        [false, true, false],
    ),
    raw_sizes::REDSHIFT,
    redshift_records,
    R1Group,
    R1Uda,
    r1_variants
);
runner!(
    R2Runner,
    redshift_info(
        "R2",
        "List of advertisers operating only in a single country",
        false,
        [true, false, true],
    ),
    raw_sizes::REDSHIFT,
    redshift_records,
    R2Group,
    R2Uda,
    r2_variants
);
runner!(
    R3Runner,
    redshift_info(
        "R3",
        "Cases for advertiser when their ads were not showing for more than 1 hour",
        false,
        [false, false, true],
    ),
    raw_sizes::REDSHIFT,
    redshift_records,
    R3Group,
    r3_uda(),
    r3_variants
);
runner!(
    R4Runner,
    redshift_info(
        "R4",
        "Lengths of runs for which only a single campaign by an advertiser is shown",
        false,
        [false, true, true],
    ),
    raw_sizes::REDSHIFT,
    redshift_records,
    R4Group,
    R4Uda,
    r4_variants
);
runner!(
    R1cRunner,
    redshift_info(
        "R1c",
        "R1 on the condensed (4-column) variant",
        true,
        [false, true, false],
    ),
    raw_sizes::REDSHIFT_CONDENSED,
    redshift_records,
    R1Group,
    R1Uda,
    r1_variants
);
runner!(
    R2cRunner,
    redshift_info(
        "R2c",
        "R2 on the condensed (4-column) variant",
        true,
        [true, false, true],
    ),
    raw_sizes::REDSHIFT_CONDENSED,
    redshift_records,
    R2Group,
    R2Uda,
    r2_variants
);
runner!(
    R3cRunner,
    redshift_info(
        "R3c",
        "R3 on the condensed (4-column) variant",
        true,
        [false, false, true],
    ),
    raw_sizes::REDSHIFT_CONDENSED,
    redshift_records,
    R3Group,
    r3_uda(),
    r3_variants
);
runner!(
    R4cRunner,
    redshift_info(
        "R4c",
        "R4 on the condensed (4-column) variant",
        true,
        [false, true, true],
    ),
    raw_sizes::REDSHIFT_CONDENSED,
    redshift_records,
    R4Group,
    R4Uda,
    r4_variants
);

/// The 12 queries of Table 1, in the paper's order.
pub fn all_queries() -> Vec<Box<dyn QueryRunner>> {
    vec![
        Box::new(G1Runner),
        Box::new(G2Runner),
        Box::new(G3Runner),
        Box::new(G4Runner),
        Box::new(B1Runner),
        Box::new(B2Runner),
        Box::new(B3Runner),
        Box::new(T1Runner),
        Box::new(R1Runner),
        Box::new(R2Runner),
        Box::new(R3Runner),
        Box::new(R4Runner),
    ]
}

/// Looks up a query by id, including the condensed RedShift variants
/// (`R1c`–`R4c`) used by Figures 5 and 6.
pub fn runner_by_id(id: &str) -> Option<Box<dyn QueryRunner>> {
    let r: Box<dyn QueryRunner> = match id {
        "G1" => Box::new(G1Runner),
        "G2" => Box::new(G2Runner),
        "G3" => Box::new(G3Runner),
        "G4" => Box::new(G4Runner),
        "B1" => Box::new(B1Runner),
        "B2" => Box::new(B2Runner),
        "B3" => Box::new(B3Runner),
        "T1" => Box::new(T1Runner),
        "F1" => Box::new(F1Runner),
        "R1" => Box::new(R1Runner),
        "R2" => Box::new(R2Runner),
        "R3" => Box::new(R3Runner),
        "R4" => Box::new(R4Runner),
        "R1c" => Box::new(R1cRunner),
        "R2c" => Box::new(R2cRunner),
        "R3c" => Box::new(R3cRunner),
        "R4c" => Box::new(R4cRunner),
        _ => return None,
    };
    Some(r)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_twelve_table1_rows() {
        let qs = all_queries();
        assert_eq!(qs.len(), 12);
        let ids: Vec<&str> = qs.iter().map(|q| q.info().id).collect();
        assert_eq!(
            ids,
            vec!["G1", "G2", "G3", "G4", "B1", "B2", "B3", "T1", "R1", "R2", "R3", "R4"]
        );
    }

    #[test]
    fn lookup_by_id() {
        assert!(runner_by_id("B1").is_some());
        assert!(runner_by_id("R3c").is_some());
        assert!(runner_by_id("Z9").is_none());
        assert_eq!(runner_by_id("R1c").unwrap().raw_record_bytes(), 42);
    }

    #[test]
    fn every_query_runs_and_backends_agree() {
        let scale = DataScale {
            records: 4_000,
            groups: 40,
            segments: 4,
            seed: 7,
            parse_lines: false,
        };
        let job = JobConfig::default();
        for q in all_queries() {
            let id = q.info().id;
            let base = q.run(&scale, Backend::Baseline, &job).unwrap();
            let sym = q.run(&scale, Backend::Symple, &job).unwrap();
            assert_eq!(base.output_hash, sym.output_hash, "query {id}");
            assert_eq!(base.output_rows, sym.output_rows, "query {id}");
        }
    }

    /// Raw log lines for `id`'s dataset at `scale` — the same generator
    /// `run` uses, materialized so tests can replay exact append deltas.
    fn lines_for(id: &str, scale: &DataScale) -> Vec<String> {
        match id.as_bytes()[0] {
            b'G' => symple_datagen::to_lines(&github_records(scale)),
            b'B' => symple_datagen::to_lines(&bing_records(scale)),
            b'T' => symple_datagen::to_lines(&twitter_records(scale)),
            b'F' => symple_datagen::to_lines(&weblog_records(scale)),
            b'R' => symple_datagen::to_lines(&redshift_records(scale)),
            _ => panic!("unknown dataset for {id}"),
        }
    }

    #[test]
    fn warm_resweep_after_append_is_byte_identical_and_mostly_cached() {
        // The incremental-recomputation acceptance check at test scale:
        // grow each query's log by ~1%, resweep against the cache warmed
        // by the cold run, and require (a) output identical to an uncached
        // run and (b) the overwhelming majority of chunks served from the
        // cache.
        let scale = DataScale {
            records: 3_030,
            groups: 30,
            segments: 4,
            seed: 11,
            parse_lines: true,
        };
        let job = JobConfig::default();
        for q in all_queries() {
            let id = q.info().id;
            let all_lines = lines_for(id, &scale);
            let cold_len = all_lines.len() - all_lines.len() / 100;
            let mut data = symple_mapreduce::Dataset::new(
                all_lines[..cold_len].to_vec(),
                q.raw_record_bytes(),
                128,
                |l: &String| symple_core::frame::fnv1a(l.as_bytes()),
            );
            let cache = symple_mapreduce::MemStore::new();
            let ctx = SummaryCacheCtx::new(&cache);
            let cold = q.run_lines_cached(&data.segments(), &job, &ctx).unwrap();
            assert_eq!(cold.metrics.cache_hits, 0, "query {id}: cold run must miss");

            data.append(all_lines[cold_len..].iter().cloned());
            let segments = data.segments();
            let warm = q.run_lines_cached(&segments, &job, &ctx).unwrap();
            let clean = q.run_lines(&segments, Backend::Symple, &job).unwrap();
            assert_eq!(warm.output_hash, clean.output_hash, "query {id}");
            assert_eq!(warm.output_rows, clean.output_rows, "query {id}");
            assert_eq!(warm.metrics.cache_corrupt, 0, "query {id}");
            let total = warm.metrics.cache_hits + warm.metrics.cache_misses;
            assert_eq!(total, segments.len() as u64, "query {id}");
            assert!(
                warm.metrics.cache_hits * 10 >= total * 8,
                "query {id}: only {} of {total} chunks served warm",
                warm.metrics.cache_hits
            );
        }
    }

    #[test]
    fn every_query_analyzes_without_error_or_explosion() {
        for q in all_queries() {
            let id = q.info().id;
            let a = q.analyze();
            assert!(
                a.first_error().is_none(),
                "query {id}: {:?}",
                a.first_error()
            );
            assert!(!a.any_exploded(), "query {id} exploded during analysis");
            assert!(a.max_branching() >= 1, "query {id}");
            // Paper queries are designed to parallelize: none should be
            // predicted to refuse under the default engine config.
            assert!(
                !a.predicts_refusal(&symple_core::EngineConfig::default()),
                "query {id} predicted to refuse under defaults"
            );
        }
    }

    #[test]
    fn table1_type_usage_matches_paper() {
        let m: std::collections::HashMap<&str, (bool, bool, bool)> = all_queries()
            .iter()
            .map(|q| {
                let i = q.info();
                (i.id, (i.uses_enum, i.uses_int, i.uses_pred))
            })
            .collect();
        assert_eq!(m["G1"], (true, false, false));
        assert_eq!(m["G3"], (true, true, false));
        assert_eq!(m["G4"], (true, false, true));
        assert_eq!(m["B1"], (false, false, true));
        assert_eq!(m["B3"], (false, true, true));
        assert_eq!(m["T1"], (true, true, false));
        assert_eq!(m["R1"], (false, true, false));
        assert_eq!(m["R4"], (false, true, true));
    }
}
