//! Chaos sweep for the injectable storage-fault layer: every Table-1
//! query runs against disk-backed checkpoint and summary-cache stores
//! whose I/O goes through a [`FaultIo`] injector, across schedules that
//! fail loads, tear saves at arbitrary byte offsets, kill renames after
//! the tmp file landed. The invariants:
//!
//! * **Byte-identical** — a job over a faulted store produces exactly the
//!   output of an uncached run; faults only ever cost recompute.
//! * **Ledger balance** — every error the injector surfaced is observed
//!   by the store and classified (`io_errors == injected`,
//!   `io_errors == io_retries + io_gave_up`).
//! * **No debris** — a failed save never leaves a stray `.tmp` file.
//! * **Healing** — a clean run over the survivor directory agrees with
//!   the reference, and the run after it is corrupt-free.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use symple::core::frame::fnv1a;
use symple::datagen::{
    generate_bing, generate_github, generate_redshift, generate_twitter, to_lines, BingConfig,
    GithubConfig, RedshiftConfig, TwitterConfig,
};
use symple::mapreduce::{
    CheckpointCtx, Dataset, DiskStore, FaultIo, FrameStore, JobConfig, RetryPolicy,
    StorageFaultKind, StorageFaultPlan, SummaryCacheCtx, DEFAULT_FAILURE_BUDGET,
};
use symple::queries::runner_by_id;
use symple::queries::Backend;

/// The 12 Table-1 queries the registry serves.
const QUERY_IDS: [&str; 12] = [
    "G1", "G2", "G3", "G4", "B1", "B2", "B3", "T1", "R1", "R2", "R3", "R4",
];

/// Log size per case: small enough for a fast sweep, large enough for
/// several content-defined chunks (and so several store entries).
const BASE_RECORDS: usize = 240;
/// Target records per content-defined chunk (~6 chunks at base size).
const TARGET_CHUNK: usize = 40;
/// Group-cardinality knob passed to the generators.
const GROUPS: u64 = 8;

fn lines_for(id: &str, seed: u64) -> Vec<String> {
    let n = BASE_RECORDS;
    match id.as_bytes()[0] {
        b'G' => to_lines(&generate_github(&GithubConfig {
            num_records: n,
            num_repos: GROUPS,
            push_only_fraction: 0.3,
            seed,
            ..GithubConfig::default()
        })),
        b'B' => to_lines(&generate_bing(&BingConfig {
            num_records: n,
            num_users: GROUPS,
            num_geos: 4,
            seed,
            ..BingConfig::default()
        })),
        b'T' => to_lines(&generate_twitter(&TwitterConfig {
            num_records: n,
            num_hashtags: GROUPS,
            seed,
            ..TwitterConfig::default()
        })),
        _ => to_lines(&generate_redshift(&RedshiftConfig {
            num_records: n,
            num_advertisers: GROUPS as u32,
            seed,
            ..RedshiftConfig::default()
        })),
    }
}

fn line_hash(l: &String) -> u64 {
    fnv1a(l.as_bytes())
}

fn dataset_for(id: &str, seed: u64) -> Dataset<String> {
    let runner = runner_by_id(id).expect("registry id");
    Dataset::new(
        lines_for(id, seed),
        runner.raw_record_bytes(),
        TARGET_CHUNK,
        line_hash,
    )
}

/// A process-unique scratch directory (swept at the end of each test).
fn scratch_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "symple-chaos-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::SeqCst)
    ))
}

/// Every file under `root` (recursively) whose name contains `needle`.
fn files_containing(root: &Path, needle: &str) -> Vec<PathBuf> {
    let mut found = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.to_string_lossy().contains(needle) {
                found.push(path);
            }
        }
    }
    found
}

/// One entry of the sweep: a fault schedule plus the policy it runs under.
struct Schedule {
    name: &'static str,
    plan: StorageFaultPlan,
    policy: RetryPolicy,
    budget: u64,
}

/// The schedule matrix: load faults (transient and permanent), a save
/// torn at several byte offsets, a rename that dies after the tmp file
/// landed, and a mid-job timeout.
fn schedules() -> Vec<Schedule> {
    let mut list = vec![
        Schedule {
            name: "transient-load-eio",
            plan: StorageFaultPlan {
                fail_op: vec![(2, StorageFaultKind::Eio)],
                ..StorageFaultPlan::default()
            },
            policy: RetryPolicy::instant(),
            budget: DEFAULT_FAILURE_BUDGET,
        },
        Schedule {
            name: "permanent-load-erofs",
            plan: StorageFaultPlan {
                fail_op: vec![(2, StorageFaultKind::Erofs)],
                ..StorageFaultPlan::default()
            },
            policy: RetryPolicy::instant(),
            budget: DEFAULT_FAILURE_BUDGET,
        },
        Schedule {
            name: "rename-dies-after-tmp-landed",
            plan: StorageFaultPlan {
                fail_rename: vec![1],
                ..StorageFaultPlan::default()
            },
            policy: RetryPolicy::instant(),
            budget: DEFAULT_FAILURE_BUDGET,
        },
        Schedule {
            name: "mid-job-timeout",
            plan: StorageFaultPlan {
                fail_op: vec![(8, StorageFaultKind::TimedOut)],
                ..StorageFaultPlan::default()
            },
            policy: RetryPolicy::instant(),
            budget: DEFAULT_FAILURE_BUDGET,
        },
    ];
    // A save torn at several byte offsets: before the header ends, mid
    // payload (often mid-uvarint), and deep enough to clip only the CRC32
    // trailer of a small frame.
    for (i, offset) in [0usize, 3, 17, 60].into_iter().enumerate() {
        list.push(Schedule {
            name: ["tear-at-0", "tear-at-3", "tear-at-17", "tear-at-60"][i],
            plan: StorageFaultPlan {
                tear_write: vec![(1, offset)],
                ..StorageFaultPlan::default()
            },
            policy: RetryPolicy::instant(),
            budget: DEFAULT_FAILURE_BUDGET,
        });
    }
    list
}

/// Which store the schedule is aimed at.
#[derive(Clone, Copy, PartialEq)]
enum StoreKind {
    Checkpoint,
    Cache,
}

/// Runs one faulted job + ledger audit + heal check for one cell of the
/// sweep. `plain_hash` is the uncached reference output for the query.
fn run_cell(id: &str, kind: StoreKind, sched: &Schedule, plain_hash: u64) {
    let runner = runner_by_id(id).expect("registry id");
    let job = JobConfig::default();
    let data = dataset_for(id, 7);
    let segs = data.segments();
    let dir = scratch_dir("sweep");
    let io = Arc::new(FaultIo::new(sched.plan.clone()));
    let cell = format!(
        "{id}/{}/{}",
        sched.name,
        if kind == StoreKind::Cache {
            "cache"
        } else {
            "checkpoint"
        }
    );

    // The two cells differ only in the keying policy laid over the store.
    let run_on = |store: &DiskStore| match kind {
        StoreKind::Cache => runner.run_lines_cached(&segs, &job, &SummaryCacheCtx::new(store)),
        StoreKind::Checkpoint => {
            runner.run_lines_checkpointed(&segs, &job, &CheckpointCtx::new(store, "chaos"))
        }
    };

    let store = DiskStore::with_io(&dir, io.clone(), sched.policy.clone(), sched.budget)
        .expect("open faulted store");
    let faulted = run_on(&store).expect("faulted run");
    let counts = store.io_counts().expect("disk store has a ledger");

    // Byte-identical: faults only ever cost recompute.
    assert_eq!(
        faulted.output_hash, plain_hash,
        "{cell}: faulted output diverged"
    );
    // Ledger balance, against the injector (full-ledger: the scratch dir
    // sits on a quiet disk, so every observed error was injected) and
    // internally (every error is classified exactly once).
    assert_eq!(
        counts.io_errors,
        io.injected_errors(),
        "{cell}: store observed a different error count than the injector fired"
    );
    assert_eq!(
        counts.io_errors,
        counts.io_retries + counts.io_gave_up,
        "{cell}: ledger does not balance"
    );
    // The job's own metrics obey the same invariant on their deltas.
    assert_eq!(
        faulted.metrics.io_errors,
        faulted.metrics.io_retries + faulted.metrics.io_gave_up,
        "{cell}: job metrics ledger does not balance"
    );
    // No debris: a failed save sweeps its tmp file.
    let tmp = files_containing(&dir, ".tmp");
    assert!(tmp.is_empty(), "{cell}: stray tmp files {tmp:?}");

    // Healing: a clean store over the survivor directory agrees, and the
    // run after it is corrupt-free (whatever was torn got quarantined and
    // recommitted by the heal).
    let store = DiskStore::new(&dir).expect("open clean store");
    let heal = run_on(&store).expect("heal run");
    let settled = run_on(&store).expect("settled run");
    let (corrupt, misses) = match kind {
        StoreKind::Cache => (settled.metrics.cache_corrupt, settled.metrics.cache_misses),
        StoreKind::Checkpoint => (
            settled.metrics.checkpoint_corrupt,
            settled.metrics.checkpoint_misses,
        ),
    };
    assert_eq!(corrupt, 0, "{cell}: heal left corruption");
    assert_eq!(misses, 0, "{cell}: heal left holes");
    let (heal_hash, settled) = (heal.output_hash, settled.output_hash);
    assert_eq!(heal_hash, plain_hash, "{cell}: heal run diverged");
    assert_eq!(settled, plain_hash, "{cell}: settled run diverged");

    let _ = std::fs::remove_dir_all(&dir);
}

/// The full sweep: {checkpoint, cache} × every schedule × all 12 queries.
#[test]
fn chaos_sweep_is_byte_identical_and_ledger_balanced() {
    for id in QUERY_IDS {
        let runner = runner_by_id(id).expect("registry id");
        let data = dataset_for(id, 7);
        let plain = runner
            .run_lines(&data.segments(), Backend::Symple, &JobConfig::default())
            .expect("reference run");
        for sched in &schedules() {
            run_cell(id, StoreKind::Cache, sched, plain.output_hash);
            run_cell(id, StoreKind::Checkpoint, sched, plain.output_hash);
        }
    }
}

/// Satellite regression: disk-full during save. The torn tmp write fails
/// permanently (`no_retries`, budget 1), so the store gives up, sweeps
/// the tmp file, and demotes — and the job still completes byte-identical
/// with the demotion on the books.
#[test]
fn enospc_during_save_leaves_no_tmp_and_demotes() {
    for id in ["G1", "R4"] {
        let runner = runner_by_id(id).expect("registry id");
        let job = JobConfig::default();
        let data = dataset_for(id, 7);
        let segs = data.segments();
        let plain = runner
            .run_lines(&segs, Backend::Symple, &job)
            .expect("reference run");

        let dir = scratch_dir("enospc");
        // A full disk writes a prefix and then errors: tear the first
        // save's write short. With no retries and a budget of one, the
        // store gives up immediately and demotes.
        let plan = StorageFaultPlan {
            tear_write: vec![(1, 11)],
            ..StorageFaultPlan::default()
        };
        let io = Arc::new(FaultIo::new(plan));
        let store = DiskStore::with_io(&dir, io.clone(), RetryPolicy::no_retries(), 1)
            .expect("open faulted cache");
        let ctx = SummaryCacheCtx::new(&store);
        let report = runner
            .run_lines_cached(&segs, &job, &ctx)
            .expect("faulted run");

        assert_eq!(
            report.output_hash, plain.output_hash,
            "{id}: output diverged"
        );
        assert!(
            store.demoted(),
            "{id}: budget of one must demote on first give-up"
        );
        assert!(
            report.metrics.store_demoted >= 1,
            "{id}: demotion not in job metrics"
        );
        assert_eq!(report.metrics.io_gave_up, 1, "{id}: exactly one give-up");
        let tmp = files_containing(&dir, ".tmp");
        assert!(
            tmp.is_empty(),
            "{id}: disk-full save left stray tmp files {tmp:?}"
        );

        // The survivor directory still heals.
        let clean = DiskStore::new(&dir).expect("open clean cache");
        let clean_ctx = SummaryCacheCtx::new(&clean);
        let heal = runner
            .run_lines_cached(&segs, &job, &clean_ctx)
            .expect("heal run");
        assert_eq!(heal.output_hash, plain.output_hash, "{id}: heal diverged");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A rename that dies after the tmp file landed, with no retry to rescue
/// it (`fail_rename` errors are transient, so every other schedule retries
/// them into a commit): the save gives up, its orphaned tmp file is swept,
/// and the entry is simply absent — the next clean run misses that one
/// chunk and heals it.
#[test]
fn failed_rename_without_retries_leaves_no_tmp_and_no_entry() {
    for id in ["G1", "R4"] {
        let runner = runner_by_id(id).expect("registry id");
        let job = JobConfig::default();
        let data = dataset_for(id, 7);
        let segs = data.segments();
        let chunks = segs.len() as u64;
        let plain = runner
            .run_lines(&segs, Backend::Symple, &job)
            .expect("reference run");

        let dir = scratch_dir("rename");
        let plan = StorageFaultPlan {
            fail_rename: vec![1],
            ..StorageFaultPlan::default()
        };
        let io = Arc::new(FaultIo::new(plan));
        let policy = RetryPolicy::no_retries();
        let store = DiskStore::with_io(&dir, io, policy, DEFAULT_FAILURE_BUDGET)
            .expect("open faulted cache");
        let report = runner
            .run_lines_cached(&segs, &job, &SummaryCacheCtx::new(&store))
            .expect("faulted run");

        assert_eq!(
            report.output_hash, plain.output_hash,
            "{id}: output diverged"
        );
        assert_eq!(report.metrics.cache_misses, chunks, "{id}: cold run");
        assert_eq!(report.metrics.io_errors, 1, "{id}");
        assert_eq!(report.metrics.io_gave_up, 1, "{id}: exactly one give-up");
        assert!(!store.demoted(), "{id}: one give-up is inside the budget");
        let tmp = files_containing(&dir, ".tmp");
        assert!(tmp.is_empty(), "{id}: failed rename left tmp files {tmp:?}");
        let entries = files_containing(&dir, ".sum").len() as u64;
        assert_eq!(entries, chunks - 1, "{id}: the failed entry must be absent");

        // The next clean run misses that chunk once; the one after is whole.
        let clean = DiskStore::new(&dir).expect("open clean cache");
        let clean_ctx = SummaryCacheCtx::new(&clean);
        let heal = runner
            .run_lines_cached(&segs, &job, &clean_ctx)
            .expect("heal run");
        assert_eq!(heal.output_hash, plain.output_hash, "{id}: heal diverged");
        assert_eq!(heal.metrics.cache_misses, 1, "{id}: heal run");
        assert_eq!(heal.metrics.cache_corrupt, 0, "{id}: heal run");
        let settled = runner
            .run_lines_cached(&segs, &job, &clean_ctx)
            .expect("settled run");
        assert_eq!(settled.metrics.cache_hits, chunks, "{id}: settled run");
        assert_eq!(settled.output_hash, plain.output_hash, "{id}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A write torn at an *arbitrary* byte offset — before the header
    /// ends, mid-uvarint, or clipping only the CRC32 trailer — never
    /// surfaces as a valid entry. If the tear failed the save, the tmp
    /// file is swept and the entry is simply absent; either way the job
    /// and the heal run stay byte-identical.
    #[test]
    fn torn_save_is_invisible_or_swept(
        qi in 0usize..QUERY_IDS.len(),
        write_idx in 1u64..3,
        offset in 0usize..120,
    ) {
        let id = QUERY_IDS[qi];
        let runner = runner_by_id(id).expect("registry id");
        let job = JobConfig::default();
        let data = dataset_for(id, 11);
        let segs = data.segments();
        let plain = runner.run_lines(&segs, Backend::Symple, &job).unwrap();

        let dir = scratch_dir("torn");
        let plan = StorageFaultPlan {
            tear_write: vec![(write_idx, offset)],
            ..StorageFaultPlan::default()
        };
        let io = Arc::new(FaultIo::new(plan));
        // No retries: the torn prefix is the save's last word, as after a
        // power cut.
        let store = DiskStore::with_io(&dir, io, RetryPolicy::no_retries(), u64::MAX)
            .expect("open faulted cache");
        let ctx = SummaryCacheCtx::new(&store);
        let faulted = runner.run_lines_cached(&segs, &job, &ctx).unwrap();
        prop_assert_eq!(faulted.output_hash, plain.output_hash, "{}: faulted run diverged", id);
        let tmp = files_containing(&dir, ".tmp");
        prop_assert!(tmp.is_empty(), "{}: torn save left tmp debris {:?}", id, tmp);

        let clean = DiskStore::new(&dir).expect("open clean cache");
        let clean_ctx = SummaryCacheCtx::new(&clean);
        let heal = runner.run_lines_cached(&segs, &job, &clean_ctx).unwrap();
        prop_assert_eq!(heal.output_hash, plain.output_hash, "{}: heal run diverged", id);
        // The torn entry never made it in: the frame layer saw no corrupt
        // frame (absence, not damage), so nothing was quarantined.
        prop_assert_eq!(heal.metrics.cache_corrupt, 0, "{}", id);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A *committed* entry truncated at an arbitrary byte offset — the
    /// torn-but-renamed case a lying disk leaves behind — is always
    /// classified Corrupt and quarantined, never loaded as valid: the
    /// warm run recomputes that one chunk, agrees byte-for-byte, and the
    /// next sweep is whole again.
    #[test]
    fn torn_committed_entry_is_quarantined_never_trusted(
        qi in 0usize..QUERY_IDS.len(),
        pick in any::<u16>(),
        cut in any::<u16>(),
    ) {
        let id = QUERY_IDS[qi];
        let runner = runner_by_id(id).expect("registry id");
        let job = JobConfig::default();
        let data = dataset_for(id, 13);
        let segs = data.segments();
        let plain = runner.run_lines(&segs, Backend::Symple, &job).unwrap();

        let dir = scratch_dir("truncate");
        let store = DiskStore::new(&dir).expect("open cache");
        let ctx = SummaryCacheCtx::new(&store);
        let cold = runner.run_lines_cached(&segs, &job, &ctx).unwrap();
        let total = cold.metrics.cache_misses;

        // Truncate one committed frame at an arbitrary interior offset.
        let mut entries = files_containing(&dir, ".sum");
        entries.sort();
        prop_assert!(!entries.is_empty(), "{}: cold run committed nothing", id);
        let victim = &entries[pick as usize % entries.len()];
        let bytes = std::fs::read(victim).unwrap();
        let keep = cut as usize % bytes.len().max(1);
        std::fs::write(victim, &bytes[..keep]).unwrap();

        let warm = runner.run_lines_cached(&segs, &job, &ctx).unwrap();
        prop_assert_eq!(warm.output_hash, plain.output_hash, "{}: torn frame changed output", id);
        prop_assert_eq!(warm.metrics.cache_corrupt, 1, "{}: tear not classified corrupt", id);
        prop_assert_eq!(warm.metrics.cache_hits, total - 1, "{}", id);
        let quarantined = files_containing(&dir, ".quarantined");
        prop_assert!(!quarantined.is_empty(), "{}: corrupt frame not quarantined", id);

        // Healed: the recomputed entry was recommitted.
        let healed = runner.run_lines_cached(&segs, &job, &ctx).unwrap();
        prop_assert_eq!(healed.metrics.cache_hits, total, "{}", id);
        prop_assert_eq!(healed.metrics.cache_corrupt, 0, "{}", id);
        prop_assert_eq!(healed.output_hash, plain.output_hash, "{}", id);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
