//! Durable chunk-summary checkpointing: crash-resume for SYMPLE jobs.
//!
//! The paper's summaries are compact, ordered, composable artifacts —
//! exactly the shape a checkpoint wants. Each completed map task's output
//! (its per-key encoded payloads plus exploration stats) is framed with
//! [`symple_core::frame`] — length-prefixed, CRC32-checksummed, versioned
//! — and written atomically under a job manifest keyed by
//! `(job id, chunk index, engine-config hash, input digest)`. A resumed
//! job loads valid frames instead of recomputing; truncated, bit-flipped,
//! or stale-config frames are *quarantined* (never trusted, never
//! silently deleted) and their chunks re-mapped.
//!
//! Two stores ship: [`MemCheckpointStore`] for in-process crash drills and
//! the oracle's crash-resume column, and [`DiskCheckpointStore`] for real
//! durability (tmp + rename writes, quarantine by rename).

use std::collections::HashMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use symple_core::frame::{
    decode_frame, decode_frame_unchecked, encode_frame, fnv1a_extend, FrameCheck, FrameMeta,
    FRAME_VERSION,
};

use crate::job::JobConfig;
use crate::store_io::{IoCounts, RetryPolicy, StoreEngine, StoreIo};

/// Where checkpoint frames live. Implementations store and retrieve
/// *opaque frame bytes*; all framing, checksumming, and staleness logic is
/// shared above the trait so every store enforces identical rules.
///
/// Quarantine contract: a frame that fails validation is handed to
/// [`CheckpointStore::quarantine`] and must stop being served by
/// [`CheckpointStore::load`] — but its bytes must be *retained* for
/// inspection, never silently deleted.
pub trait CheckpointStore: Send + Sync {
    /// Returns the stored frame for `(job, chunk)`. Quarantined frames
    /// are not returned. `Ok(None)` means *absent* (a cache-style miss);
    /// `Err` means the bytes may exist but could not be read — the two
    /// are deliberately distinct so real I/O failures are counted and
    /// retried instead of silently reading as misses.
    fn load(&self, job: &str, chunk: u64) -> io::Result<Option<Vec<u8>>>;

    /// Durably stores a frame, replacing any previous one. Must be atomic:
    /// a reader (or a crash) sees either the old frame or the new one,
    /// never a torn write.
    fn save(&self, job: &str, chunk: u64, frame: &[u8]) -> io::Result<()>;

    /// Moves `(job, chunk)`'s frame out of the serving path, retaining the
    /// bytes and the reason it was distrusted.
    fn quarantine(&self, job: &str, chunk: u64, reason: &str);

    /// Lists quarantined chunks for a job with their reasons.
    fn quarantined(&self, job: &str) -> Vec<(u64, String)>;

    /// A snapshot of the store's I/O-outcome ledger, if it keeps one
    /// (disk-backed stores do; in-memory stores have no I/O to count).
    /// The job driver diffs two snapshots to attribute retries, give-ups,
    /// and demotions to a run's [`crate::metrics::JobMetrics`].
    fn io_counts(&self) -> Option<IoCounts> {
        None
    }
}

/// How one chunk's lookup resolved, in either store — mirrors the
/// `checkpoint_*` / `cache_*` hits, misses and corrupt metrics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum ChunkLookup {
    /// A valid frame: the payload may replace recomputation.
    Hit(Vec<u8>),
    /// No frame stored under this chunk's key.
    Miss,
    /// A frame existed but failed validation; it has been quarantined and
    /// the chunk must be recomputed.
    Corrupt,
}

/// Binds a job run to a checkpoint store.
pub struct CheckpointCtx<'a> {
    /// The backing store.
    pub store: &'a dyn CheckpointStore,
    /// Manifest key: frames from different job ids never mix.
    pub job_id: String,
    /// DANGER — sabotage/testing only: skip the config-hash and
    /// input-digest comparison and trust whatever an intact frame claims.
    /// The oracle's `stale-checkpoint` self-test sets this to prove the
    /// metadata checks are load-bearing; production paths must not.
    pub trust_frame_meta: bool,
}

impl<'a> CheckpointCtx<'a> {
    /// A checkpoint context with full validation (the only safe mode).
    pub fn new(store: &'a dyn CheckpointStore, job_id: impl Into<String>) -> CheckpointCtx<'a> {
        CheckpointCtx {
            store,
            job_id: job_id.into(),
            trust_frame_meta: false,
        }
    }
}

/// Fingerprint of every knob that shapes a map task's output bytes. A
/// checkpoint taken under a different fingerprint is stale: loading it
/// could silently change summaries mid-job, so the frame check refuses it.
pub fn config_fingerprint(cfg: &JobConfig) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut word = |v: u64| h = fnv1a_extend(h, &v.to_le_bytes());
    word(u64::from(FRAME_VERSION));
    word(cfg.engine.max_paths_per_record as u64);
    word(cfg.engine.max_total_paths as u64);
    word(match cfg.engine.merge_policy {
        symple_core::engine::MergePolicy::Eager => 0,
        symple_core::engine::MergePolicy::HighWater => 1,
        symple_core::engine::MergePolicy::Never => 2,
    });
    word(u64::from(cfg.first_segment_concrete));
    word(u64::from(cfg.salvage_refused_chunks));
    // `cfg.engine.batch_window` is deliberately absent: the batched fast
    // path is byte-invariant (summaries and stats are identical for every
    // window size), so checkpoints stay valid across batching changes.
    h
}

/// Resolves one chunk against the store, quarantining anything invalid.
///
/// A load *error* (as opposed to an absent frame) resolves to a miss too
/// — checkpoints are an optimization, so an unreadable frame merely costs
/// a recompute — but only after the store's retry policy ran and its
/// ledger counted the failure; it is never conflated with absence.
pub(crate) fn lookup_chunk(ctx: &CheckpointCtx<'_>, expect: &FrameMeta) -> ChunkLookup {
    let bytes = match ctx.store.load(&ctx.job_id, expect.chunk_index) {
        Ok(Some(bytes)) => bytes,
        Ok(None) => return ChunkLookup::Miss,
        Err(_) => {
            symple_obs::counter_add("checkpoint.load_errors", 1);
            return ChunkLookup::Miss;
        }
    };
    if ctx.trust_frame_meta {
        // Sabotage bypass: integrity still checked, meaning is not.
        return match decode_frame_unchecked(&bytes) {
            Ok((_, _, payload)) => ChunkLookup::Hit(payload),
            Err(reason) => {
                ctx.store
                    .quarantine(&ctx.job_id, expect.chunk_index, &reason);
                ChunkLookup::Corrupt
            }
        };
    }
    match decode_frame(&bytes, expect) {
        FrameCheck::Valid(payload) => ChunkLookup::Hit(payload),
        FrameCheck::Corrupt(reason) | FrameCheck::Stale(reason) => {
            ctx.store
                .quarantine(&ctx.job_id, expect.chunk_index, &reason);
            ChunkLookup::Corrupt
        }
    }
}

/// Frames and stores one chunk's payload. Write failures are *non-fatal*:
/// checkpointing is an optimization, so a failed save merely degrades the
/// next resume to a recompute (it is counted, not hidden).
pub(crate) fn save_chunk(ctx: &CheckpointCtx<'_>, meta: &FrameMeta, payload: &[u8]) {
    let frame = encode_frame(meta, payload);
    if ctx
        .store
        .save(&ctx.job_id, meta.chunk_index, &frame)
        .is_err()
    {
        symple_obs::counter_add("checkpoint.save_errors", 1);
    }
}

// ---------------------------------------------------------------------------
// In-memory store
// ---------------------------------------------------------------------------

#[derive(Default)]
struct MemInner {
    frames: HashMap<(String, u64), Vec<u8>>,
    quarantined: HashMap<(String, u64), (Vec<u8>, String)>,
}

/// An in-memory [`CheckpointStore`]: survives a *simulated* process death
/// (the `kill_after_n_tasks` drill runs killer and resumer in one
/// process), and doubles as the tamper-friendly store the corruption and
/// sabotage tests drive.
#[derive(Default)]
pub struct MemCheckpointStore {
    inner: Mutex<MemInner>,
}

impl MemCheckpointStore {
    /// An empty store.
    pub fn new() -> MemCheckpointStore {
        MemCheckpointStore::default()
    }

    /// Number of live (non-quarantined) frames across all jobs.
    pub fn frame_count(&self) -> usize {
        self.inner.lock().expect("store poisoned").frames.len()
    }

    /// Mutates a stored frame in place (corruption-matrix tests). Returns
    /// whether the frame existed.
    pub fn tamper(&self, job: &str, chunk: u64, f: impl FnOnce(&mut Vec<u8>)) -> bool {
        let mut inner = self.inner.lock().expect("store poisoned");
        match inner.frames.get_mut(&(job.to_string(), chunk)) {
            Some(bytes) => {
                f(bytes);
                true
            }
            None => false,
        }
    }

    /// Installs raw frame bytes directly (sabotage harnesses).
    pub fn insert_raw(&self, job: &str, chunk: u64, frame: Vec<u8>) {
        self.inner
            .lock()
            .expect("store poisoned")
            .frames
            .insert((job.to_string(), chunk), frame);
    }

    /// Returns a copy of the stored frame bytes, if present.
    pub fn raw_frame(&self, job: &str, chunk: u64) -> Option<Vec<u8>> {
        self.inner
            .lock()
            .expect("store poisoned")
            .frames
            .get(&(job.to_string(), chunk))
            .cloned()
    }
}

impl CheckpointStore for MemCheckpointStore {
    fn load(&self, job: &str, chunk: u64) -> io::Result<Option<Vec<u8>>> {
        Ok(self
            .inner
            .lock()
            .expect("store poisoned")
            .frames
            .get(&(job.to_string(), chunk))
            .cloned())
    }

    fn save(&self, job: &str, chunk: u64, frame: &[u8]) -> io::Result<()> {
        self.inner
            .lock()
            .expect("store poisoned")
            .frames
            .insert((job.to_string(), chunk), frame.to_vec());
        Ok(())
    }

    fn quarantine(&self, job: &str, chunk: u64, reason: &str) {
        let mut inner = self.inner.lock().expect("store poisoned");
        let key = (job.to_string(), chunk);
        if let Some(bytes) = inner.frames.remove(&key) {
            inner.quarantined.insert(key, (bytes, reason.to_string()));
        }
    }

    fn quarantined(&self, job: &str) -> Vec<(u64, String)> {
        let inner = self.inner.lock().expect("store poisoned");
        let mut out: Vec<(u64, String)> = inner
            .quarantined
            .iter()
            .filter(|((j, _), _)| j == job)
            .map(|((_, c), (_, reason))| (*c, reason.clone()))
            .collect();
        out.sort();
        out
    }
}

// ---------------------------------------------------------------------------
// On-disk store
// ---------------------------------------------------------------------------

/// An on-disk [`CheckpointStore`].
///
/// Layout: `<root>/<job>/chunk-<n>.ckpt`, written as `…​.ckpt.tmp` then
/// renamed into place so a crash mid-write leaves either the old frame or
/// none — never a torn one. Quarantine renames the frame to
/// `chunk-<n>.ckpt.quarantined` and records the reason alongside in
/// `chunk-<n>.ckpt.reason`; quarantined bytes are kept for post-mortem.
///
/// Every byte moves through an injectable [`StoreIo`] under a
/// [`StoreEngine`]: transient errors are retried per [`RetryPolicy`], and
/// past the failure budget the store demotes to a no-op backend — loads
/// answer `Ok(None)`, saves succeed without writing — so a dying disk
/// degrades the job to correct-but-uncached instead of failing it.
pub struct DiskCheckpointStore {
    root: PathBuf,
    engine: StoreEngine,
}

/// Maps a job id onto a filesystem-safe directory name.
fn sanitize(job: &str) -> String {
    job.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' || c == '.' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

impl DiskCheckpointStore {
    /// Opens (creating if needed) a store rooted at `root`, on the real
    /// filesystem with the default retry policy and failure budget.
    pub fn new(root: impl Into<PathBuf>) -> io::Result<DiskCheckpointStore> {
        DiskCheckpointStore::with_engine(root, StoreEngine::real())
    }

    /// Opens a store whose filesystem access runs through `io` under
    /// `policy`, demoting after `failure_budget` given-up operations —
    /// the constructor the fault-injection harnesses use.
    pub fn with_io(
        root: impl Into<PathBuf>,
        io: Arc<dyn StoreIo>,
        policy: RetryPolicy,
        failure_budget: u64,
    ) -> io::Result<DiskCheckpointStore> {
        DiskCheckpointStore::with_engine(root, StoreEngine::new(io, policy, failure_budget))
    }

    fn with_engine(
        root: impl Into<PathBuf>,
        engine: StoreEngine,
    ) -> io::Result<DiskCheckpointStore> {
        let root = root.into();
        // Best-effort: a root that cannot be created yet is not fatal —
        // every save retries `create_dir_all`, loads degrade to misses,
        // and a disk that stays broken demotes the store through the
        // ledger like any other persistent fault. The failure is already
        // counted (and budgeted) by the engine.
        let _ = engine.run(|io| io.create_dir_all(&root));
        Ok(DiskCheckpointStore { root, engine })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Whether the store has demoted itself to a no-op backend.
    pub fn demoted(&self) -> bool {
        self.engine.demoted()
    }

    /// Path of a chunk's live frame.
    pub fn chunk_path(&self, job: &str, chunk: u64) -> PathBuf {
        self.root
            .join(sanitize(job))
            .join(format!("chunk-{chunk}.ckpt"))
    }
}

impl CheckpointStore for DiskCheckpointStore {
    fn load(&self, job: &str, chunk: u64) -> io::Result<Option<Vec<u8>>> {
        if self.engine.demoted() {
            return Ok(None);
        }
        let path = self.chunk_path(job, chunk);
        match self.engine.run(|io| io.read(&path)) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    fn save(&self, job: &str, chunk: u64, frame: &[u8]) -> io::Result<()> {
        if self.engine.demoted() {
            return Ok(());
        }
        let path = self.chunk_path(job, chunk);
        let dir = path.parent().expect("chunk path has a parent");
        self.engine.run(|io| io.create_dir_all(dir))?;
        let tmp = path.with_extension("ckpt.tmp");
        let commit = self
            .engine
            .run(|io| io.write(&tmp, frame))
            .and_then(|()| self.engine.run(|io| io.rename(&tmp, &path)));
        if let Err(e) = commit {
            // Whether the write died (possibly leaving a torn prefix) or
            // the rename did (leaving an intact orphan), the tmp file must
            // not survive: a later crash-recovery sweep or ENOSPC budget
            // should never find stray `.tmp` litter. Best-effort — the
            // frame at `path` is still either the old one or absent.
            let _ = self.engine.run(|io| io.remove(&tmp));
            return Err(e);
        }
        // Durability point: a no-op on RealIo (the commit is the rename),
        // but injectable, so slow/failing barriers are simulatable.
        self.engine.run(|io| io.sync(&path))
    }

    fn quarantine(&self, job: &str, chunk: u64, reason: &str) {
        let path = self.chunk_path(job, chunk);
        let mut target = path.with_extension("ckpt.quarantined");
        // Never overwrite earlier evidence: suffix repeat offenders.
        let mut n = 1;
        while target.exists() {
            target = path.with_extension(format!("ckpt.quarantined.{n}"));
            n += 1;
        }
        if self.engine.run(|io| io.rename(&path, &target)).is_err() {
            symple_obs::counter_add("checkpoint.quarantine_errors", 1);
            return;
        }
        let reason_path = target.with_extension(
            target
                .extension()
                .and_then(|e| e.to_str())
                .map(|e| format!("{e}.reason"))
                .unwrap_or_else(|| "reason".to_string()),
        );
        if self
            .engine
            .run(|io| io.write(&reason_path, reason.as_bytes()))
            .is_err()
        {
            symple_obs::counter_add("checkpoint.quarantine_errors", 1);
        }
    }

    fn io_counts(&self) -> Option<IoCounts> {
        Some(self.engine.ledger().snapshot())
    }

    // Quarantine listing is a post-mortem/test path, not part of the
    // durability contract, so its directory walk stays on plain `fs`.
    fn quarantined(&self, job: &str) -> Vec<(u64, String)> {
        let dir = self.root.join(sanitize(job));
        let mut out = Vec::new();
        let Ok(entries) = fs::read_dir(&dir) else {
            return out;
        };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(stem) = name
                .strip_prefix("chunk-")
                .and_then(|s| s.split_once(".ckpt.quarantined"))
                .map(|(idx, _)| idx)
            else {
                continue;
            };
            if name.ends_with(".reason") {
                continue;
            }
            let Ok(chunk) = stem.parse::<u64>() else {
                continue;
            };
            let reason = fs::read_to_string(
                entry.path().with_extension(
                    entry
                        .path()
                        .extension()
                        .and_then(|e| e.to_str())
                        .map(|e| format!("{e}.reason"))
                        .unwrap_or_else(|| "reason".to_string()),
                ),
            )
            .unwrap_or_else(|_| "(reason unrecorded)".to_string());
            out.push((chunk, reason));
        }
        out.sort();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use symple_core::frame::encode_frame_with_version;

    const META: FrameMeta = FrameMeta {
        chunk_index: 3,
        config_hash: 42,
        input_digest: 99,
    };

    fn ctx<'a>(store: &'a dyn CheckpointStore) -> CheckpointCtx<'a> {
        CheckpointCtx::new(store, "job-a")
    }

    #[test]
    fn mem_store_round_trip_and_quarantine() {
        let store = MemCheckpointStore::new();
        let c = ctx(&store);
        assert_eq!(lookup_chunk(&c, &META), ChunkLookup::Miss);

        save_chunk(&c, &META, b"payload");
        assert_eq!(
            lookup_chunk(&c, &META),
            ChunkLookup::Hit(b"payload".to_vec())
        );
        assert_eq!(store.frame_count(), 1);

        // A different job id never sees the frame.
        let other = CheckpointCtx::new(&store, "job-b");
        assert_eq!(lookup_chunk(&other, &META), ChunkLookup::Miss);

        // Stale config: quarantined, not served, bytes retained.
        let stale = FrameMeta {
            config_hash: 43,
            ..META
        };
        assert_eq!(lookup_chunk(&c, &stale), ChunkLookup::Corrupt);
        assert_eq!(
            lookup_chunk(&c, &META),
            ChunkLookup::Miss,
            "quarantine removed it"
        );
        let q = store.quarantined("job-a");
        assert_eq!(q.len(), 1);
        assert_eq!(q[0].0, META.chunk_index);
        assert!(q[0].1.contains("config"), "{}", q[0].1);
    }

    #[test]
    fn mem_store_tamper_detected() {
        let store = MemCheckpointStore::new();
        let c = ctx(&store);
        save_chunk(&c, &META, b"payload");
        assert!(store.tamper("job-a", META.chunk_index, |b| b[6] ^= 0x40));
        assert_eq!(lookup_chunk(&c, &META), ChunkLookup::Corrupt);
        assert_eq!(store.quarantined("job-a").len(), 1);
    }

    #[test]
    fn disk_store_round_trip() {
        let dir = std::env::temp_dir().join(format!("symple-ckpt-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = DiskCheckpointStore::new(&dir).unwrap();
        let c = ctx(&store);

        save_chunk(&c, &META, b"disk payload");
        assert!(store.chunk_path("job-a", META.chunk_index).exists());
        assert_eq!(
            lookup_chunk(&c, &META),
            ChunkLookup::Hit(b"disk payload".to_vec())
        );

        // Version-bumped frame (valid CRC): corrupt, quarantined by rename,
        // reason recorded, bytes still on disk.
        let bad = encode_frame_with_version(FRAME_VERSION + 1, &META, b"disk payload");
        store.save("job-a", META.chunk_index, &bad).unwrap();
        assert_eq!(lookup_chunk(&c, &META), ChunkLookup::Corrupt);
        assert_eq!(lookup_chunk(&c, &META), ChunkLookup::Miss);
        let q = store.quarantined("job-a");
        assert_eq!(q.len(), 1);
        assert!(q[0].1.contains("version"), "{}", q[0].1);

        // A second quarantine of the same chunk keeps both evidence files.
        store.save("job-a", META.chunk_index, &bad).unwrap();
        assert_eq!(lookup_chunk(&c, &META), ChunkLookup::Corrupt);
        assert_eq!(store.quarantined("job-a").len(), 2);

        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_store_sanitizes_job_ids() {
        let dir = std::env::temp_dir().join(format!("symple-ckpt-sanitize-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = DiskCheckpointStore::new(&dir).unwrap();
        let c = CheckpointCtx::new(&store, "job/../evil id");
        save_chunk(&c, &META, b"x");
        assert_eq!(lookup_chunk(&c, &META), ChunkLookup::Hit(b"x".to_vec()));
        // The frame landed under the sanitized name, inside the root.
        assert!(store
            .chunk_path("job/../evil id", META.chunk_index)
            .starts_with(&dir));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fingerprint_varies_with_engine_knobs() {
        let base = JobConfig::default();
        let mut other = base;
        other.engine.max_total_paths += 1;
        assert_ne!(config_fingerprint(&base), config_fingerprint(&other));
        let mut salvage = base;
        salvage.salvage_refused_chunks = !salvage.salvage_refused_chunks;
        assert_ne!(config_fingerprint(&base), config_fingerprint(&salvage));
        assert_eq!(config_fingerprint(&base), config_fingerprint(&base));
    }
}
