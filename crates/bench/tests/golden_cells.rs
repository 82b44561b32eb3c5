//! Golden-file test for the deterministic half of a measured cell: every
//! registry query × {MapReduce, SYMPLE} × {2, 8} segments at 3 000
//! records, one text line per cell under `tests/golden/cells.txt`.
//!
//! A line pins what must not move commit over commit — the output
//! fingerprint (equal to the sequential specification's, byte for byte),
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
/// fingerprint and its golden line (the name, then every pinned field).
struct Cell {
    name: String,
    hash: u64,
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

    if std::env::var_os("REGEN_GOLDEN").is_some() {
        let text: String = cells.iter().map(|c| format!("{}\n", c.line)).collect();
        std::fs::write(golden_path(), text).unwrap();
        return;
    }

    // Every execution strategy yields the sequential answer, so the two
    // backends of a (query, segments) pair share one fingerprint.
    for pair in cells.chunks(2) {
        assert_eq!(
            pair[0].hash, pair[1].hash,
            "`{}` and `{}` disagree",
            pair[0].name, pair[1].name
        );
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
