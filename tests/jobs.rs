//! Cross-crate integration tests: full MapReduce jobs over all 12
//! evaluation queries, across backends, scales and configurations.

use symple::core::engine::{EngineConfig, MergePolicy};
use symple::mapreduce::JobConfig;
use symple::queries::{all_queries, runner_by_id, Backend, DataScale};

fn scale(records: usize, groups: u64, segments: usize) -> DataScale {
    DataScale {
        records,
        groups,
        segments,
        seed: 0xfeed,
        parse_lines: false,
    }
}

#[test]
fn all_queries_all_backends_agree() {
    let job = JobConfig::default();
    for q in all_queries() {
        let id = q.info().id;
        let s = scale(6_000, 64, 5);
        let seq = q.run(&s, Backend::Sequential, &job).unwrap();
        let base = q.run(&s, Backend::Baseline, &job).unwrap();
        let sorted = q.run(&s, Backend::SortedBaseline, &job).unwrap();
        let sym = q.run(&s, Backend::Symple, &job).unwrap();
        assert_eq!(
            seq.output_hash, base.output_hash,
            "{id}: sequential vs baseline"
        );
        assert_eq!(
            base.output_hash, sorted.output_hash,
            "{id}: baseline vs sorted"
        );
        assert_eq!(
            base.output_hash, sym.output_hash,
            "{id}: baseline vs symple"
        );
    }
}

#[test]
fn parse_lines_mode_agrees_with_structured() {
    let job = JobConfig::default();
    for q in all_queries() {
        let id = q.info().id;
        let structured = scale(4_000, 50, 4);
        let lines = DataScale {
            parse_lines: true,
            ..structured
        };
        let a = q.run(&structured, Backend::Symple, &job).unwrap();
        let b = q.run(&lines, Backend::Symple, &job).unwrap();
        assert_eq!(
            a.output_hash, b.output_hash,
            "{id}: text parsing changed results"
        );
        assert_eq!(a.output_rows, b.output_rows, "{id}");
    }
}

#[test]
fn segment_count_does_not_change_results() {
    let job = JobConfig::default();
    for q in all_queries() {
        let id = q.info().id;
        let reference = q.run(&scale(5_000, 40, 1), Backend::Symple, &job).unwrap();
        for segments in [2, 3, 9, 16] {
            let r = q
                .run(&scale(5_000, 40, segments), Backend::Symple, &job)
                .unwrap();
            assert_eq!(
                r.output_hash, reference.output_hash,
                "{id} segments={segments}"
            );
        }
    }
}

#[test]
fn reducer_count_does_not_change_results() {
    for q in all_queries() {
        let id = q.info().id;
        let s = scale(5_000, 40, 6);
        let one = q
            .run(&s, Backend::Symple, &JobConfig::default().with_reducers(1))
            .unwrap();
        let many = q
            .run(&s, Backend::Symple, &JobConfig::default().with_reducers(13))
            .unwrap();
        assert_eq!(one.output_hash, many.output_hash, "{id}");
    }
}

#[test]
fn degenerate_engine_configs_stay_correct() {
    // Explosion bound 1 forces a flush/restart after every record — the
    // graceful degradation to sequential composition (§5.2). Never-merge
    // exercises the restart path heavily.
    for q in all_queries() {
        let id = q.info().id;
        let s = scale(2_000, 30, 4);
        let reference = q.run(&s, Backend::Baseline, &JobConfig::default()).unwrap();
        for (max_total, policy) in [
            (1, MergePolicy::Never),
            (2, MergePolicy::Eager),
            (3, MergePolicy::HighWater),
        ] {
            let job = JobConfig {
                engine: EngineConfig {
                    max_total_paths: max_total,
                    merge_policy: policy,
                    ..EngineConfig::default()
                },
                ..JobConfig::default()
            };
            let r = q.run(&s, Backend::Symple, &job).unwrap();
            assert_eq!(
                r.output_hash, reference.output_hash,
                "{id} max_total={max_total} policy={policy:?}"
            );
        }
    }
}

#[test]
fn forced_symbolic_first_segment_agrees() {
    // Disabling the first-segment concrete optimization (as §6.2's local
    // measurement does) must not change any result.
    let job = JobConfig {
        first_segment_concrete: false,
        ..JobConfig::default()
    };
    for q in all_queries() {
        let id = q.info().id;
        let s = scale(4_000, 30, 5);
        let reference = q.run(&s, Backend::Baseline, &JobConfig::default()).unwrap();
        let r = q.run(&s, Backend::Symple, &job).unwrap();
        assert_eq!(r.output_hash, reference.output_hash, "{id}");
    }
}

#[test]
fn reexecution_is_deterministic() {
    // Failed tasks are re-executed in real deployments; identical reruns
    // (results *and* shuffle bytes) make that safe.
    let job = JobConfig::default();
    for id in ["G3", "B1", "R4", "T1"] {
        let q = runner_by_id(id).unwrap();
        let s = scale(8_000, 50, 6);
        let a = q.run(&s, Backend::Symple, &job).unwrap();
        let b = q.run(&s, Backend::Symple, &job).unwrap();
        assert_eq!(a.output_hash, b.output_hash, "{id}");
        assert_eq!(a.metrics.shuffle_bytes, b.metrics.shuffle_bytes, "{id}");
        assert_eq!(a.metrics.shuffle_records, b.metrics.shuffle_records, "{id}");
    }
}

#[test]
fn empty_and_tiny_inputs() {
    let job = JobConfig::default();
    for q in all_queries() {
        let id = q.info().id;
        for records in [0usize, 1, 2, 3] {
            let s = scale(records, 4, 3);
            let base = q.run(&s, Backend::Baseline, &job).unwrap();
            let sym = q.run(&s, Backend::Symple, &job).unwrap();
            assert_eq!(base.output_hash, sym.output_hash, "{id} records={records}");
        }
    }
}

#[test]
fn symple_shuffle_beats_baseline_in_few_group_regime() {
    // The headline claim, end-to-end: with few groups and long per-key
    // chunks, summaries shrink the shuffle by orders of magnitude.
    let job = JobConfig::default();
    let q = runner_by_id("B1").unwrap();
    let s = scale(60_000, 500, 8);
    let base = q.run(&s, Backend::SortedBaseline, &job).unwrap();
    let sym = q.run(&s, Backend::Symple, &job).unwrap();
    assert_eq!(base.output_hash, sym.output_hash);
    assert!(
        sym.metrics.shuffle_bytes * 100 < base.metrics.shuffle_bytes,
        "B1: symple={} baseline={}",
        sym.metrics.shuffle_bytes,
        base.metrics.shuffle_bytes
    );
    assert_eq!(sym.metrics.shuffle_records, 8, "one summary per mapper");
}

#[test]
fn run_lines_matches_in_process_generation() {
    // The file-driven path (datagen::store → run_lines) must agree with
    // the in-process parse_lines path for the same seed and scale.
    use symple::datagen::{
        generate_github, list_segments, read_segment_lines, write_segments, GithubConfig,
    };
    use symple::mapreduce::Segment;

    let s = DataScale {
        parse_lines: true,
        ..scale(5_000, 50, 4)
    };
    let q = runner_by_id("G3").unwrap();
    let job = JobConfig::default();
    let in_process = q.run(&s, Backend::Symple, &job).unwrap();

    // Reproduce the registry's generation and push it through files.
    let records = generate_github(&GithubConfig {
        num_records: s.records,
        num_repos: s.groups,
        push_only_fraction: 0.3,
        seed: s.seed,
        ..Default::default()
    });
    let dir = std::env::temp_dir().join(format!("symple-jobs-lines-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    write_segments(&records, &dir, s.segments).unwrap();
    let segments: Vec<Segment<String>> = list_segments(&dir)
        .unwrap()
        .iter()
        .enumerate()
        .map(|(id, p)| {
            let lines = read_segment_lines(p).unwrap();
            let bytes = lines.len() as u64 * q.raw_record_bytes();
            Segment::new(id, lines, bytes)
        })
        .collect();
    let from_files = q.run_lines(&segments, Backend::Symple, &job).unwrap();
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(in_process.output_hash, from_files.output_hash);
    assert_eq!(in_process.output_rows, from_files.output_rows);
    assert_eq!(
        in_process.metrics.shuffle_bytes,
        from_files.metrics.shuffle_bytes
    );
}

#[test]
fn explore_stats_reflect_work() {
    let job = JobConfig::default();
    let q = runner_by_id("G3").unwrap();
    let s = scale(10_000, 80, 6);
    let r = q.run(&s, Backend::Symple, &job).unwrap();
    let e = r.metrics.explore;
    assert!(e.records > 0);
    assert!(
        e.runs >= e.records,
        "every record is explored at least once"
    );
    assert!(e.max_live_paths >= 1);
}
