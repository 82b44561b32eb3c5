//! The execution matrix: one [`Cell`] is a fully-specified way of running
//! a UDA in parallel, to be checked against the sequential reference.
//!
//! A cell pins the executor, the chunk/segment count, and every
//! engine/job knob that could plausibly change behavior: merge policy,
//! the restart bound (`max_total_paths`), whether the first segment runs
//! concretely, and the fault-injection plan. The soundness theorem (§3.6)
//! says *none* of these may change the answer — which is exactly what
//! makes the whole matrix an oracle.

use symple_core::engine::{EngineConfig, MergePolicy};
use symple_mapreduce::{FaultPlan, JobConfig};

/// Which parallel executor a cell drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutorKind {
    /// In-process chunked execution: first chunk concrete, rest symbolic,
    /// summaries applied in order (`run_chunked_symbolic` semantics).
    ChunkedSymbolic,
    /// The same chunks, their summaries collapsed by balanced tree
    /// composition (§3.6) and applied once: the associativity the paper's
    /// tree reduction rests on, held against the sequential run.
    ChunkedTree,
    /// The full MapReduce job with in-order chain application.
    MapReduce,
    /// The MapReduce job killed mid-flight after half its map tasks
    /// complete, then resumed from an in-memory checkpoint store. The
    /// rendered output is the *resumed* run's — the soundness theorem
    /// plus durable summaries say it must equal an uninterrupted run.
    CrashResume,
    /// The incremental path: a *cold* cached run over a shortened input
    /// warms a content-addressed summary cache, the input then grows to
    /// full length, and the rendered output is the *warm* resweep's. The
    /// cache equivalence proof says warm must equal cold-on-the-same-input
    /// byte for byte.
    WarmResweep,
    /// The MapReduce job run twice against an on-disk summary cache whose
    /// I/O layer injects a seeded storage-fault schedule (errno faults,
    /// a torn write, a failed rename), then once more clean over the
    /// survivor directory. The rendered output is the final healing run's
    /// — and the cell additionally checks that the store's retry ledger
    /// balances the injector's counters, so an injector bug that hides an
    /// error (the `dropped-tear` sabotage) surfaces as a finding.
    FaultedStore,
    /// The MapReduce job with records dealt over several keys by
    /// position, so every map task holds many short `(key, chunk)` cells
    /// where the other MapReduce columns hold one. Each key's output is
    /// held against the sequential run over that key's events.
    MultiKey,
}

impl ExecutorKind {
    /// Every executor, in matrix column order.
    pub const ALL: [ExecutorKind; 7] = [
        ExecutorKind::ChunkedSymbolic,
        ExecutorKind::ChunkedTree,
        ExecutorKind::MapReduce,
        ExecutorKind::CrashResume,
        ExecutorKind::WarmResweep,
        ExecutorKind::FaultedStore,
        ExecutorKind::MultiKey,
    ];

    /// Stable artifact token.
    pub fn as_str(self) -> &'static str {
        match self {
            ExecutorKind::ChunkedSymbolic => "chunked-symbolic",
            ExecutorKind::ChunkedTree => "chunked-tree",
            ExecutorKind::MapReduce => "mapreduce",
            ExecutorKind::CrashResume => "crash-resume",
            ExecutorKind::WarmResweep => "warm-resweep",
            ExecutorKind::FaultedStore => "faulted-store",
            ExecutorKind::MultiKey => "multi-key",
        }
    }

    /// Parses an artifact token.
    pub fn parse(s: &str) -> Option<ExecutorKind> {
        ExecutorKind::ALL.into_iter().find(|k| k.as_str() == s)
    }

    /// Whether the cell runs through the MapReduce stack (and therefore
    /// emits per-key results rather than a single output).
    pub fn is_mapreduce(self) -> bool {
        !matches!(
            self,
            ExecutorKind::ChunkedSymbolic | ExecutorKind::ChunkedTree
        )
    }
}

/// Which map attempts crash (MapReduce executors only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// No injected failures.
    None,
    /// The first attempt of segment 1 (or 0 if there is only one) crashes.
    FailFirst,
    /// Segment 1's first two attempts crash, segment 0's first crashes.
    FailTwice,
}

impl FaultKind {
    /// Every fault plan kind.
    pub const ALL: [FaultKind; 3] = [FaultKind::None, FaultKind::FailFirst, FaultKind::FailTwice];

    /// Stable artifact token.
    pub fn as_str(self) -> &'static str {
        match self {
            FaultKind::None => "none",
            FaultKind::FailFirst => "fail-first",
            FaultKind::FailTwice => "fail-twice",
        }
    }

    /// Parses an artifact token.
    pub fn parse(s: &str) -> Option<FaultKind> {
        FaultKind::ALL.into_iter().find(|k| k.as_str() == s)
    }

    /// The concrete [`FaultPlan`] for a job with `num_segments` segments.
    pub fn plan(self, num_segments: usize) -> FaultPlan {
        let victim = if num_segments > 1 { 1 } else { 0 };
        match self {
            FaultKind::None => FaultPlan::default(),
            FaultKind::FailFirst => FaultPlan::fail_once([victim]),
            FaultKind::FailTwice if num_segments > 1 => FaultPlan {
                fail_first_attempt: [0].into_iter().collect(),
                fail_twice: [victim].into_iter().collect(),
                ..FaultPlan::default()
            },
            FaultKind::FailTwice => FaultPlan {
                fail_twice: [0].into_iter().collect(),
                ..FaultPlan::default()
            },
        }
    }

    /// How many retries [`FaultKind::plan`] triggers on a job with
    /// `num_segments` segments (for determinism assertions).
    pub fn expected_retries(self, num_segments: usize) -> u64 {
        match self {
            FaultKind::None => 0,
            FaultKind::FailFirst => 1,
            // Segment 0 fails once; the victim fails twice — unless both
            // are segment 0, in which case fail_twice wins (2 retries).
            FaultKind::FailTwice => {
                if num_segments > 1 {
                    3
                } else {
                    2
                }
            }
        }
    }
}

/// Formats a [`MergePolicy`] as a stable artifact token.
pub fn policy_str(p: MergePolicy) -> &'static str {
    match p {
        MergePolicy::Eager => "eager",
        MergePolicy::HighWater => "high-water",
        MergePolicy::Never => "never",
    }
}

/// Every merge policy, in the order the deep matrix sweeps them.
pub(crate) const POLICIES: [MergePolicy; 3] = [
    MergePolicy::Eager,
    MergePolicy::HighWater,
    MergePolicy::Never,
];

/// Parses a [`MergePolicy`] artifact token.
pub fn parse_policy(s: &str) -> Option<MergePolicy> {
    POLICIES.into_iter().find(|&p| policy_str(p) == s)
}

/// One cell of the execution matrix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cell {
    /// The executor under test.
    pub executor: ExecutorKind,
    /// Chunks (chunked executor) or segments (MapReduce executors).
    pub chunks: usize,
    /// Path-merging policy.
    pub merge_policy: MergePolicy,
    /// Restart bound: live paths before the engine falls back to a new
    /// summary segment (§5.2).
    pub max_total_paths: usize,
    /// Whether the globally first chunk/segment runs concretely.
    pub first_segment_concrete: bool,
    /// Injected map-task crashes (MapReduce executors only).
    pub faults: FaultKind,
}

impl Cell {
    /// The baseline cell: plain chunked execution with default knobs.
    pub fn default_chunked(chunks: usize) -> Cell {
        Cell {
            executor: ExecutorKind::ChunkedSymbolic,
            chunks,
            merge_policy: MergePolicy::HighWater,
            max_total_paths: 8,
            first_segment_concrete: true,
            faults: FaultKind::None,
        }
    }

    /// The engine configuration this cell runs with.
    ///
    /// `max_paths_per_record` caps the whole per-record exploration
    /// output (live paths × choice vectors), so it must sit well above
    /// `max_total_paths` or the restart fallback is unreachable: paths
    /// legitimately grow to the restart threshold, and the very next
    /// forking record would trip the per-record bound first.
    pub fn engine(&self) -> EngineConfig {
        EngineConfig {
            max_paths_per_record: 1024,
            max_total_paths: self.max_total_paths,
            merge_policy: self.merge_policy,
        }
    }

    /// The job configuration for MapReduce executors. Thread counts are
    /// fixed and small: determinism must not depend on them, and the
    /// matrix already varies everything that may matter.
    pub fn job(&self) -> JobConfig {
        JobConfig {
            num_reducers: 2,
            map_workers: 2,
            reduce_workers: 2,
            engine: self.engine(),
            first_segment_concrete: self.first_segment_concrete,
            // Salvage stays on so an engine refusal degrades to concrete
            // re-execution in every executor: the matrix then compares
            // Ok-vs-Ok instead of skipping the cell on a refusal.
            salvage_refused_chunks: true,
            // A task runs once, plus once per attempt its fault plan fails:
            // retry counts are exact by construction.
            scheduler: symple_mapreduce::SchedulerConfig::default(),
        }
    }

    /// One-line description for findings and logs.
    pub fn describe(&self) -> String {
        format!(
            "{} chunks={} policy={} max-paths={} first-concrete={} faults={}",
            self.executor.as_str(),
            self.chunks,
            policy_str(self.merge_policy),
            self.max_total_paths,
            self.first_segment_concrete,
            self.faults.as_str()
        )
    }
}

/// The quick matrix: one representative cell per executor plus the knobs
/// most likely to disagree (restart-heavy `Never`, faults, tree
/// composition). Sized for a sub-2-minute CI smoke job.
pub fn smoke_matrix() -> Vec<Cell> {
    let base = Cell::default_chunked(1);
    vec![
        Cell { chunks: 1, ..base },
        Cell { chunks: 3, ..base },
        // Restart fallback: tiny path budget, no merging.
        Cell {
            chunks: 4,
            merge_policy: MergePolicy::Never,
            max_total_paths: 2,
            ..base
        },
        // All-symbolic (no concrete first chunk).
        Cell {
            chunks: 3,
            first_segment_concrete: false,
            ..base
        },
        Cell {
            executor: ExecutorKind::MapReduce,
            chunks: 3,
            ..base
        },
        Cell {
            executor: ExecutorKind::MapReduce,
            chunks: 4,
            merge_policy: MergePolicy::Eager,
            faults: FaultKind::FailFirst,
            ..base
        },
        Cell {
            executor: ExecutorKind::ChunkedTree,
            chunks: 3,
            ..base
        },
        // Kill after half the map tasks, resume from checkpoints.
        Cell {
            executor: ExecutorKind::CrashResume,
            chunks: 4,
            ..base
        },
        // Cold run on a prefix, then warm resweep of the full input.
        Cell {
            executor: ExecutorKind::WarmResweep,
            chunks: 4,
            ..base
        },
        // Disk-backed cache behind a seeded storage-fault injector; the
        // healing clean run must still match the reference.
        Cell {
            executor: ExecutorKind::FaultedStore,
            chunks: 4,
            ..base
        },
        // Many short cells per map task, each key against its own
        // sequential run.
        Cell {
            executor: ExecutorKind::MultiKey,
            chunks: 3,
            ..base
        },
    ]
}

/// The deep matrix: the near-full cross product the `--deep` mode sweeps.
pub fn deep_matrix() -> Vec<Cell> {
    let mut cells = Vec::new();

    for &chunks in &[1usize, 2, 3, 5, 8] {
        for merge_policy in POLICIES {
            for &max_total_paths in &[2usize, 8, 64] {
                for &first_segment_concrete in &[true, false] {
                    cells.push(Cell {
                        executor: ExecutorKind::ChunkedSymbolic,
                        chunks,
                        merge_policy,
                        max_total_paths,
                        first_segment_concrete,
                        faults: FaultKind::None,
                    });
                }
            }
        }
    }
    for &chunks in &[1usize, 3, 6] {
        for &merge_policy in &[MergePolicy::HighWater, MergePolicy::Never] {
            for faults in [FaultKind::None, FaultKind::FailFirst, FaultKind::FailTwice] {
                for &first_segment_concrete in &[true, false] {
                    cells.push(Cell {
                        executor: ExecutorKind::MapReduce,
                        chunks,
                        merge_policy,
                        max_total_paths: 8,
                        first_segment_concrete,
                        faults,
                    });
                }
            }
        }
    }
    // The tree column has no fault axis: map-task faults never reach it.
    for &chunks in &[1usize, 3, 6] {
        for &merge_policy in &[MergePolicy::HighWater, MergePolicy::Never] {
            for &first_segment_concrete in &[true, false] {
                cells.push(Cell {
                    executor: ExecutorKind::ChunkedTree,
                    chunks,
                    merge_policy,
                    max_total_paths: 8,
                    first_segment_concrete,
                    faults: FaultKind::None,
                });
            }
        }
    }
    for executor in [
        ExecutorKind::CrashResume,
        ExecutorKind::WarmResweep,
        ExecutorKind::FaultedStore,
        ExecutorKind::MultiKey,
    ] {
        for &chunks in &[1usize, 4, 6] {
            for &first_segment_concrete in &[true, false] {
                cells.push(Cell {
                    executor,
                    chunks,
                    merge_policy: MergePolicy::HighWater,
                    max_total_paths: 8,
                    first_segment_concrete,
                    faults: FaultKind::None,
                });
            }
        }
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_round_trips() {
        for e in ExecutorKind::ALL {
            assert_eq!(ExecutorKind::parse(e.as_str()), Some(e));
        }
        for f in FaultKind::ALL {
            assert_eq!(FaultKind::parse(f.as_str()), Some(f));
        }
        for p in POLICIES {
            assert_eq!(parse_policy(policy_str(p)), Some(p));
        }
        assert_eq!(ExecutorKind::parse("bogus"), None);
    }

    #[test]
    fn matrices_are_nonempty_and_distinct() {
        let smoke = smoke_matrix();
        let deep = deep_matrix();
        assert!(smoke.len() >= 6);
        assert!(deep.len() > smoke.len());
        // Every executor appears in both.
        for m in [&smoke, &deep] {
            for e in ExecutorKind::ALL {
                assert!(m.iter().any(|c| c.executor == e), "{e:?} missing");
            }
            // So `symple-oracle` can offer every sabotage at either depth.
            assert!(crate::Sabotage::ALL[1..].iter().all(|s| s.reaches(m)));
        }
    }

    #[test]
    fn fault_plans_match_expected_retries() {
        for n in [1usize, 2, 5] {
            for f in FaultKind::ALL {
                let plan = f.plan(n);
                let total = plan.fail_first_attempt.len() as u64 + 2 * plan.fail_twice.len() as u64;
                assert_eq!(total, f.expected_retries(n), "{f:?} n={n}");
            }
        }
    }
}
