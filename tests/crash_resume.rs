//! Durable checkpointing end-to-end: kill a job mid-flight and resume it
//! from the on-disk store byte-identically; feed the resume path every
//! corruption variant the frame format guards against and watch each one
//! get quarantined (never trusted, never silently deleted) and the chunk
//! recomputed; and drive the forkiest registry queries through degraded
//! completion (concrete salvage) under starvation-level engine budgets.

use proptest::prelude::*;

use symple::core::frame::{
    decode_frame_unchecked, encode_frame, encode_frame_with_version, FRAME_VERSION,
};
use symple::core::prelude::*;
use symple::core::Error;
use symple::mapreduce::segment::split_into_segments;
use symple::mapreduce::{
    cache_config_fingerprint, checkpoint_namespace, run_symple, CheckpointCtx, ChunkStore,
    DiskStore, FaultInjector, FaultPlan, FrameStore, GroupBy, JobConfig, JobMetrics, MemStore,
    Segment, SummaryCacheCtx, SympleJob,
};
use symple::queries::{runner_by_id, Backend, DataScale};

struct ByKey;
impl GroupBy for ByKey {
    type Record = (u8, i64);
    type Key = u8;
    type Event = i64;
    fn extract(&self, r: &(u8, i64)) -> Option<(u8, i64)> {
        Some(*r)
    }
}

/// Order-sensitive running sum with resets — any trusted-but-wrong
/// checkpoint payload visibly changes the answer.
struct Resets;

#[derive(Clone, Debug)]
struct RState {
    sum: SymInt,
    resets: SymVector<i64>,
}
symple::core::impl_sym_state!(RState { sum, resets });

impl Uda for Resets {
    type State = RState;
    type Event = i64;
    type Output = (i64, Vec<i64>);
    fn init(&self) -> RState {
        RState {
            sum: SymInt::new(0),
            resets: SymVector::new(),
        }
    }
    fn update(&self, s: &mut RState, ctx: &mut SymCtx, e: &i64) {
        s.sum.add(ctx, *e);
        if s.sum.gt(ctx, 120) {
            s.resets.push_int(&s.sum);
            s.sum.assign(0);
        }
    }
    fn result(&self, s: &RState, _ctx: &mut SymCtx) -> (i64, Vec<i64>) {
        (
            s.sum.concrete_value().expect("concrete"),
            s.resets.concrete_elems().expect("concrete"),
        )
    }
}

fn workload() -> Vec<(u8, i64)> {
    (0..260)
        .map(|i| ((i % 5) as u8, (i * 17 % 97) as i64 - 20))
        .collect()
}

/// The deterministic corruption matrix: truncation, bit flip, a
/// CRC-consistent version bump, and an intact frame recorded for different
/// input bytes. Every variant must be quarantined with a telling reason,
/// recomputed to the clean answer, and replaced by a fresh valid frame.
#[test]
fn every_corruption_variant_is_quarantined_and_recomputed() {
    let records = workload();
    let segs = split_into_segments(&records, 5, 32);
    let n = segs.len() as u64;
    assert!(n >= 3, "need several chunks to corrupt one of");
    let cfg = JobConfig::default();
    let clean = run_symple(&ByKey, &Resets, &segs, &cfg).unwrap();

    type Corruptor = Box<dyn Fn(&MemStore)>;
    let cm = checkpoint_namespace("cm");
    let victim = 1u64;
    let variants: Vec<(&str, &str, Corruptor)> = vec![
        (
            "truncation",
            "crc",
            Box::new(move |s: &MemStore| {
                assert!(s.tamper(cm, victim, |f| {
                    let half = f.len() / 2;
                    f.truncate(half);
                }));
            }),
        ),
        (
            "bit-flip",
            "crc",
            Box::new(move |s: &MemStore| {
                assert!(s.tamper(cm, victim, |f| {
                    let mid = f.len() / 2;
                    f[mid] ^= 0x20;
                }));
            }),
        ),
        (
            "version-bump",
            "version",
            Box::new(move |s: &MemStore| {
                let raw = s.raw_frame(cm, victim).expect("frame present");
                let (_, meta, payload) = decode_frame_unchecked(&raw).expect("intact");
                // CRC-consistent, so this exercises the version gate, not
                // the checksum.
                s.insert_raw(
                    cm,
                    victim,
                    encode_frame_with_version(FRAME_VERSION + 1, &meta, &payload),
                );
            }),
        ),
        (
            "trailing-garbage",
            "past its declared contents",
            Box::new(move |s: &MemStore| {
                // Intact frame, right metadata, a payload that parses —
                // followed by bytes nothing accounts for.
                let raw = s.raw_frame(cm, victim).expect("frame present");
                let (_, meta, mut payload) = decode_frame_unchecked(&raw).expect("intact");
                payload.extend_from_slice(b"\0garbage");
                s.insert_raw(cm, victim, encode_frame(&meta, &payload));
            }),
        ),
        (
            "wrong-input-digest",
            "digest",
            Box::new(move |s: &MemStore| {
                let raw = s.raw_frame(cm, victim).expect("frame present");
                let (_, mut meta, payload) = decode_frame_unchecked(&raw).expect("intact");
                meta.input_digest ^= 0xFF;
                s.insert_raw(cm, victim, encode_frame(&meta, &payload));
            }),
        ),
    ];

    for (name, reason_hint, corrupt) in variants {
        let store = MemStore::new();
        let ctx = CheckpointCtx::new(&store, "cm");
        let warm = SympleJob::new(cfg)
            .with_store(ChunkStore::Checkpoint(&ctx))
            .run(&ByKey, &Resets, &segs)
            .unwrap();
        assert_eq!(warm.metrics.checkpoint_misses, n, "{name}");
        assert_eq!(&clean.results, &warm.results, "{name}");

        corrupt(&store);

        let resumed = SympleJob::new(cfg)
            .with_store(ChunkStore::Checkpoint(&ctx))
            .run(&ByKey, &Resets, &segs)
            .unwrap();
        assert_eq!(&clean.results, &resumed.results, "{name}");
        assert_eq!(
            clean.metrics.shuffle_bytes, resumed.metrics.shuffle_bytes,
            "{name}"
        );
        assert_eq!(resumed.metrics.checkpoint_corrupt, 1, "{name}");
        assert_eq!(resumed.metrics.checkpoint_hits, n - 1, "{name}");
        assert_eq!(resumed.metrics.checkpoint_misses, 0, "{name}");

        // Quarantined with a reason naming the failed check — evidence is
        // kept, not deleted.
        let q = store.quarantined(cm);
        assert_eq!(q.len(), 1, "{name}: {q:?}");
        assert_eq!(q[0].0, victim, "{name}");
        assert!(
            q[0].1.contains(reason_hint),
            "{name}: quarantine reason {:?} should mention {reason_hint:?}",
            q[0].1
        );

        // The recompute saved a fresh valid frame in the bad one's place.
        let again = SympleJob::new(cfg)
            .with_store(ChunkStore::Checkpoint(&ctx))
            .run(&ByKey, &Resets, &segs)
            .unwrap();
        assert_eq!(again.metrics.checkpoint_hits, n, "{name}");
        assert_eq!(&clean.results, &again.results, "{name}");
    }
}

/// Frames written before summary wire v2 carry version 1. Under either
/// keying policy such a frame is refused at the version gate — its chains
/// are never decoded — and costs exactly one recompute, after which a
/// version-2 frame stands in its place.
#[test]
fn a_version_1_frame_costs_one_recompute_and_is_replaced() {
    assert_eq!(FRAME_VERSION, 2);
    let records = workload();
    let segs = split_into_segments(&records, 5, 32);
    let n = segs.len() as u64;
    let cfg = JobConfig::default();
    let clean = run_symple(&ByKey, &Resets, &segs, &cfg).unwrap();

    let store = MemStore::new();
    let ckpt = CheckpointCtx::new(&store, "v1");
    let cache = SummaryCacheCtx::new(&store);
    for policy in [ChunkStore::Checkpoint(&ckpt), ChunkStore::Cache(&cache)] {
        let job = SympleJob::new(cfg).with_store(policy);
        let before = store.keys();
        job.run(&ByKey, &Resets, &segs).unwrap();
        let (ns, id) = *store
            .keys()
            .iter()
            .find(|k| !before.contains(k))
            .expect("the run stored frames");
        let raw = store.raw_frame(ns, id).expect("frame present");
        let (version, meta, payload) = decode_frame_unchecked(&raw).expect("intact");
        assert_eq!(version, FRAME_VERSION);
        store.insert_raw(ns, id, encode_frame_with_version(1, &meta, &payload));

        let resumed = job.run(&ByKey, &Resets, &segs).unwrap();
        let m = &resumed.metrics;
        assert_eq!(m.checkpoint_corrupt + m.cache_corrupt, 1);
        assert_eq!(m.checkpoint_hits + m.cache_hits, n - 1);
        assert_eq!(m.checkpoint_misses + m.cache_misses, 0);
        assert_eq!(clean.results, resumed.results);
        assert_eq!(clean.metrics.shuffle_bytes, m.shuffle_bytes);
        let q = store.quarantined(ns);
        assert_eq!(q.len(), 1, "{q:?}");
        assert!(q[0].1.contains("version 1"), "{:?}", q[0].1);

        let replaced = store.raw_frame(ns, id).expect("recomputed frame saved");
        assert_eq!(decode_frame_unchecked(&replaced).unwrap().0, FRAME_VERSION);
        let again = job.run(&ByKey, &Resets, &segs).unwrap();
        assert_eq!(again.metrics.checkpoint_hits + again.metrics.cache_hits, n);
        assert_eq!(clean.results, again.results);
    }
}

/// Kills `job` after two map tasks and reruns it against the same store:
/// the rerun must be byte-identical to `run_symple`. Returns its metrics.
fn kill_after_two_then_resume(job: SympleJob<'_>, segs: &[Segment<(u8, i64)>]) -> JobMetrics {
    let clean = run_symple(&ByKey, &Resets, segs, &job.cfg).unwrap();
    let injector = FaultInjector::new(FaultPlan {
        kill_after_n_tasks: Some(2),
        ..FaultPlan::default()
    });
    let first = job.with_faults(&injector).run(&ByKey, &Resets, segs);
    assert!(
        matches!(first, Err(Error::JobKilled { .. })),
        "expected the kill to fire: {first:?}"
    );
    assert!(injector.completed_tasks() >= 2);

    let resumed = job.run(&ByKey, &Resets, segs).unwrap();
    assert_eq!(clean.results, resumed.results);
    assert_eq!(clean.metrics.shuffle_bytes, resumed.metrics.shuffle_bytes);
    assert_eq!(clean.metrics.summary_bytes, resumed.metrics.summary_bytes);
    resumed.metrics
}

/// Two map workers + kill-after-2: tasks 0 and 1 complete and persist,
/// then the first task to start after both finish observes the threshold
/// and dies — the crash is guaranteed, not racy.
fn two_map_workers() -> JobConfig {
    JobConfig {
        map_workers: 2,
        ..JobConfig::default()
    }
}

/// The acceptance scenario: kill a job against the *on-disk* store after
/// two map tasks, restart in-process, and get a byte-identical answer with
/// `checkpoint_hits > 0`. Then rot a frame on disk and watch the file get
/// quarantined (renamed, reason sidecar) and the chunk recomputed.
#[test]
fn on_disk_kill_then_resume_is_byte_identical() {
    let dir = std::env::temp_dir().join(format!("symple-ckpt-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = DiskStore::new(&dir).unwrap();

    let records = workload();
    let segs = split_into_segments(&records, 6, 32);
    let n = segs.len() as u64;
    let cfg = two_map_workers();
    let clean = run_symple(&ByKey, &Resets, &segs, &cfg).unwrap();

    let ctx = CheckpointCtx::new(&store, "e2e");
    let job = SympleJob::new(cfg).with_store(ChunkStore::Checkpoint(&ctx));
    let resumed = kill_after_two_then_resume(job, &segs);
    assert!(resumed.checkpoint_hits > 0);
    assert_eq!(
        resumed.checkpoint_hits + resumed.checkpoint_misses + resumed.checkpoint_corrupt,
        n
    );

    // Storage rot on the real filesystem: flip one byte of chunk 0's file.
    let path = store.entry_path(checkpoint_namespace("e2e"), 0);
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 1;
    std::fs::write(&path, &bytes).unwrap();

    let again = job.run(&ByKey, &Resets, &segs).unwrap();
    assert_eq!(clean.results, again.results);
    assert_eq!(again.metrics.checkpoint_corrupt, 1);
    assert_eq!(again.metrics.checkpoint_hits, n - 1);
    // The bad frame was moved aside as evidence, not deleted, and the
    // recompute wrote a fresh valid frame at the original path.
    let quarantined = store.quarantined(checkpoint_namespace("e2e"));
    assert_eq!(quarantined.len(), 1, "{quarantined:?}");
    assert_eq!(quarantined[0].0, 0);
    assert!(path.exists(), "recompute must re-persist the chunk");

    let _ = std::fs::remove_dir_all(&dir);
}

/// The same acceptance scenario under the cache policy: the killed run's
/// finished chunks are on disk under their content keys, so the rerun hits
/// every one of them and recomputes only the rest.
#[test]
fn on_disk_kill_then_resume_under_the_cache_policy() {
    let dir = std::env::temp_dir().join(format!("symple-cache-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = DiskStore::new(&dir).unwrap();

    let records = workload();
    let segs = split_into_segments(&records, 6, 32);
    let ctx = SummaryCacheCtx::new(&store);
    let job = SympleJob::new(two_map_workers()).with_store(ChunkStore::Cache(&ctx));
    let resumed = kill_after_two_then_resume(job, &segs);
    assert!(resumed.cache_hits >= 2, "{resumed:?}");
    assert_eq!(resumed.cache_corrupt, 0);
    assert_eq!(resumed.cache_hits + resumed.cache_misses, segs.len() as u64);
    assert_eq!(resumed.io_errors, 0);

    // Every chunk is now one committed frame, and nothing else is left.
    let any_entry = store.entry_path(cache_config_fingerprint(&job.cfg), 0);
    let names: Vec<_> = std::fs::read_dir(any_entry.parent().unwrap())
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    assert_eq!(names.len(), segs.len(), "{names:?}");
    assert!(names.iter().all(|n| n.ends_with(".sum")), "{names:?}");
    let warm = job.run(&ByKey, &Resets, &segs).unwrap();
    assert_eq!(warm.metrics.cache_hits, segs.len() as u64);

    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Degraded completion at scale: under a starvation-level engine
    /// budget the forkiest registry queries get their symbolic chunks
    /// refused, salvaged as raw events, and concretely re-executed in
    /// order — and still equal the sequential backend exactly.
    #[test]
    fn degraded_completion_matches_sequential_on_forky_queries(seed in 0u64..1_000) {
        let scale = DataScale {
            records: 1_200,
            groups: 24,
            segments: 5,
            seed,
            parse_lines: false,
        };
        // One path per record: any fork at all is a refusal.
        let mut job = JobConfig::default();
        job.engine.max_paths_per_record = 1;
        job.engine.max_total_paths = 2;

        let mut total_salvaged = 0u64;
        for id in ["G4", "B3", "R4", "T1"] {
            let q = runner_by_id(id).expect("registry query");
            let seq = q.run(&scale, Backend::Sequential, &JobConfig::default()).unwrap();
            let sym = q.run(&scale, Backend::Symple, &job).unwrap();
            prop_assert_eq!(seq.output_hash, sym.output_hash, "query {}", id);
            prop_assert_eq!(seq.output_rows, sym.output_rows, "query {}", id);
            total_salvaged += sym.metrics.chunks_salvaged_concrete;
        }
        prop_assert!(
            total_salvaged > 0,
            "forkiest queries under a 1-path budget must salvage at least one chunk"
        );
    }

    /// Salvage must never mask a real failure: with salvage disabled the
    /// same starved configuration surfaces the refusal as an error.
    #[test]
    fn salvage_off_surfaces_the_refusal(seed in 0u64..1_000) {
        let scale = DataScale {
            records: 1_200,
            groups: 24,
            segments: 5,
            seed,
            parse_lines: false,
        };
        let mut job = JobConfig::default();
        job.engine.max_paths_per_record = 1;
        job.engine.max_total_paths = 2;
        job.salvage_refused_chunks = false;
        let q = runner_by_id("G4").expect("registry query");
        let out = q.run(&scale, Backend::Symple, &job);
        prop_assert!(out.is_err(), "starved G4 without salvage should refuse");
    }
}
