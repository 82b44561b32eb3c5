//! Golden-file test for the deterministic half of a measured cell: every
//! registry query × {MapReduce, SYMPLE} × {2, 8} segments at 3 000
//! records, one text line per cell under `tests/golden/cells.txt`.
//!
//! A line pins what must not move commit over commit — the output
//! fingerprint (checked in the same process against the sequential run
//! at the same scale, and across segment counts),
//! the group count, the shuffle and summary byte counts and the
//! exploration counters. Nothing timed is recorded: speed is the
//! business of `benchmark/` at 1M records. If a change to these numbers
//! is intentional, regenerate with:
//!
//! ```text
//! REGEN_GOLDEN=1 cargo test -p symple-bench --test golden_cells
//! ```
//!
//! and commit the updated golden file alongside the change (the same flow
//! as `symple-analyze`'s `golden_lint` test).
//!
//! The `ablations` module below pins, the same way, what two design
//! ablations found once their timing was dropped.

use symple_bench::measurement_scale;
use symple_mapreduce::JobConfig;
use symple_queries::{runner_by_id, Backend};

const GOLDEN: &str = include_str!("golden/cells.txt");

const QUERIES: [&str; 12] = [
    "G1", "G2", "G3", "G4", "B1", "B2", "B3", "T1", "R1", "R2", "R3", "R4",
];
const SEGMENTS: [usize; 2] = [2, 8];
const BACKENDS: [Backend; 2] = [Backend::Baseline, Backend::Symple];
const RECORDS: usize = 3_000;

fn golden_path() -> String {
    format!("{}/tests/golden/cells.txt", env!("CARGO_MANIFEST_DIR"))
}

/// One measured cell: its name (`G1 SYMPLE 8seg`), its output
/// fingerprint, the sequential run's fingerprint at the same scale, and
/// its golden line (the name, then every pinned field).
struct Cell {
    name: String,
    hash: u64,
    sequential: u64,
    line: String,
}

fn measure_cells() -> Vec<Cell> {
    let job = JobConfig::default();
    let mut cells = Vec::new();
    for id in QUERIES {
        let runner = runner_by_id(id).unwrap_or_else(|| panic!("unknown query id {id}"));
        for segments in SEGMENTS {
            let mut scale = measurement_scale(id, RECORDS);
            scale.segments = segments;
            let sequential = runner
                .run(&scale, Backend::Sequential, &job)
                .unwrap_or_else(|e| panic!("{id} Sequential {segments}seg: {e}"))
                .output_hash;
            for backend in BACKENDS {
                let name = format!("{id} {} {segments}seg", backend.label());
                let run = runner
                    .run(&scale, backend, &job)
                    .unwrap_or_else(|e| panic!("{name}: {e}"));
                let m = &run.metrics;
                let e = &m.explore;
                let line = format!(
                    "{name} output_hash={hash:#018x} groups={groups} \
                     shuffle_bytes={sb} shuffle_records={sr} summary_bytes={sm} \
                     explore.records={er} explore.runs={eu} explore.forks={ef} \
                     explore.merges={em} explore.restarts={es} explore.max_live_paths={ep}",
                    hash = run.output_hash,
                    groups = m.groups,
                    sb = m.shuffle_bytes,
                    sr = m.shuffle_records,
                    sm = m.summary_bytes,
                    er = e.records,
                    eu = e.runs,
                    ef = e.forks,
                    em = e.merges,
                    es = e.restarts,
                    ep = e.max_live_paths,
                );
                cells.push(Cell {
                    name,
                    hash: run.output_hash,
                    sequential,
                    line,
                });
            }
        }
    }
    cells
}

#[test]
fn golden_cells() {
    let cells = measure_cells();

    // Checked before anything is written, so a regenerated file cannot pin
    // a wrong answer: every execution strategy yields the sequential
    // answer, and a query's input does not depend on how it is split, so
    // its 2- and 8-segment rows share one fingerprint.
    for cell in &cells {
        assert_eq!(
            cell.hash, cell.sequential,
            "`{}` disagrees with the sequential run",
            cell.name
        );
    }
    for query in cells.chunks(BACKENDS.len() * SEGMENTS.len()) {
        for cell in query {
            assert_eq!(
                cell.hash, query[0].hash,
                "`{}` and `{}` disagree",
                cell.name, query[0].name
            );
        }
    }

    if std::env::var_os("REGEN_GOLDEN").is_some() {
        let text: String = cells.iter().map(|c| format!("{}\n", c.line)).collect();
        std::fs::write(golden_path(), text).unwrap();
        return;
    }

    let golden: Vec<&str> = GOLDEN.lines().collect();
    assert_eq!(golden.len(), cells.len(), "cells in the golden file");
    for (want, cell) in golden.iter().zip(&cells) {
        assert_eq!(
            &cell.line, want,
            "cell `{}` moved — if intentional, regenerate with REGEN_GOLDEN=1 \
             and commit the new golden file",
            cell.name
        );
    }
}

// ------------------------------------------------------------- ablations
//
// The deterministic findings of two design ablations (§5.2's merge
// heuristic, §4.5's user-defined types): the shape of what the engine
// explores and emits, with nothing timed.

mod ablations {
    use symple_core::engine::{EngineConfig, ExploreStats, MergePolicy, SymbolicExecutor};
    use symple_core::impl_sym_state;
    use symple_core::types::sym_int::SymInt;
    use symple_core::types::sym_minmax::{Extremum, SymMinMax};
    use symple_core::uda::Uda;
    use symple_core::SymCtx;
    use symple_datagen::{generate_weblog, WeblogConfig};
    use symple_queries::funnel::FunnelUda;

    /// `[summaries, paths, wire bytes]` of the chain one chunk explores to,
    /// and the exploration it took.
    fn explore<U: Uda>(
        uda: &U,
        cfg: EngineConfig,
        events: &[U::Event],
    ) -> ([usize; 3], ExploreStats) {
        let mut exec = SymbolicExecutor::new(uda, cfg);
        exec.feed_all(events).unwrap();
        let (chain, stats) = exec.finish();
        ([chain.len(), chain.total_paths(), chain.wire_len()], stats)
    }

    /// §5.2 on the Figure 1 funnel, one user, 5 000 events: the funnel
    /// settles on three stable paths, under every bound, so the merge
    /// policy is invisible in what is explored and emitted — eager,
    /// high-water and never all fork four times, merge and restart never,
    /// and ship the same one-summary, three-path, 199-byte chain. What the
    /// policy costs on such a workload is time alone.
    #[test]
    fn merge_policy_shapes() {
        let events: Vec<(u8, u64)> = generate_weblog(&WeblogConfig {
            num_records: 5_000,
            num_users: 1,
            ..Default::default()
        })
        .into_iter()
        .map(|e| (e.kind as u8, e.item_id))
        .collect();
        for merge_policy in [
            MergePolicy::Eager,
            MergePolicy::HighWater,
            MergePolicy::Never,
        ] {
            let cfg = EngineConfig {
                merge_policy,
                ..EngineConfig::default()
            };
            let (chain, stats) = explore(&FunnelUda, cfg, &events);
            let want = ExploreStats {
                records: 5_000,
                runs: 14_979,
                forks: 4,
                merges: 0,
                restarts: 0,
                max_live_paths: 3,
            };
            assert_eq!((chain, stats), ([1, 3, 199], want), "{merge_policy:?}");
        }
    }

    /// The paper's `Max` over a branching `SymInt`.
    struct IntMax;
    #[derive(Clone, Debug)]
    struct IntMaxState {
        max: SymInt,
    }
    impl_sym_state!(IntMaxState { max });
    impl Uda for IntMax {
        type State = IntMaxState;
        type Event = i64;
        type Output = i64;
        fn init(&self) -> IntMaxState {
            IntMaxState {
                max: SymInt::new(i64::MIN),
            }
        }
        fn update(&self, s: &mut IntMaxState, ctx: &mut SymCtx, e: &i64) {
            if s.max.lt(ctx, *e) {
                s.max.assign(*e);
            }
        }
        fn result(&self, s: &IntMaxState, _ctx: &mut SymCtx) -> i64 {
            s.max.concrete_value().unwrap()
        }
    }

    /// The same aggregate over the user-defined `SymMinMax` type.
    struct MinMaxMax;
    #[derive(Clone, Debug)]
    struct MmState {
        max: SymMinMax,
    }
    impl_sym_state!(MmState { max });
    impl Uda for MinMaxMax {
        type State = MmState;
        type Event = i64;
        type Output = i64;
        fn init(&self) -> MmState {
            MmState {
                max: SymMinMax::new(Extremum::Max),
            }
        }
        fn update(&self, s: &mut MmState, _ctx: &mut SymCtx, e: &i64) {
            s.max.update(*e);
        }
        fn result(&self, s: &MmState, _ctx: &mut SymCtx) -> i64 {
            s.max.concrete_value().unwrap()
        }
    }

    /// §4.5 on 10 000 events: the branching `SymInt` forks 12 times, merges
    /// 5 and ships a two-path, 13-byte summary; the purpose-built canonical
    /// form runs each record once down one path and ships 6 bytes.
    #[test]
    fn minmax_shapes() {
        let events: Vec<i64> = (0..10_000)
            .map(|i| (i * 2_654_435_761) % 1_000_003)
            .collect();
        let cfg = EngineConfig::default();
        let (chain, stats) = explore(&IntMax, cfg, &events);
        assert_eq!(chain, [1, 2, 13]);
        assert_eq!((stats.runs, stats.forks, stats.merges), (20_005, 12, 5));
        let (chain, stats) = explore(&MinMaxMax, cfg, &events);
        assert_eq!(chain, [1, 1, 6]);
        assert_eq!((stats.runs, stats.forks, stats.merges), (10_000, 0, 0));
    }
}
