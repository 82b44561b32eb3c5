//! The chunk store: persisted chunk summaries, validated on the way back.
//!
//! A map task is a deterministic function of `(job config, chunk
//! content)` and the paper's summaries are compact, ordered and
//! composable — so a persisted chunk summary is one thing: a CRC32-framed
//! record ([`symple_core::frame`]) filed under a `(namespace, id)` key and
//! trusted on load only if the [`FrameMeta`] recorded inside it equals the
//! one the reader expects. Anything else — truncated, bit-flipped,
//! version-bumped, taken under another config or over other input, filed
//! under a forged key — is *quarantined* (never trusted, never silently
//! deleted) and the chunk recomputed.
//!
//! [`FrameStore`] is the backend contract; [`MemStore`] serves in-process
//! drills and the tamper/forgery tests, [`DiskStore`] is the durable one
//! (tmp + rename writes, quarantine by rename, all I/O through an
//! injectable [`StoreIo`]). One crate-private `lookup`/`save` pair is the
//! only code that frames or validates, so every backend enforces identical
//! rules.
//!
//! Checkpointing and caching are two *keying policies* over the same
//! store, carried by [`CheckpointCtx`] and [`SummaryCacheCtx`]:
//!
//! | policy | namespace | id | expected [`FrameMeta`] |
//! |---|---|---|---|
//! | checkpoint | [`checkpoint_namespace`]`(job id)` | chunk position | `{position, `[`config_fingerprint`]`, records digest}` |
//! | cache | [`cache_config_fingerprint`] | chunk content digest | `{digest, fingerprint, digest}` |
//!
//! Both key a chunk by `records_digest`, taken over its raw records and
//! the query's type names before anything parses them, so a hit never
//! parses or groups. In both the id is the frame's recorded
//! `chunk_index`, so re-filing a frame under another id is caught by
//! validation. The namespaces carry different domain tags and the
//! expected metadata differs, so the two policies can share one store
//! without ever serving each other's frames.

use std::any::type_name;
use std::collections::HashMap;
use std::fs;
use std::hash::{Hash, Hasher};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use symple_core::frame::{
    decode_frame, decode_frame_unchecked, encode_frame, fnv1a, fnv1a_extend, FrameCheck, FrameMeta,
    WordHasher, FRAME_VERSION,
};

use crate::groupby::GroupBy;
use crate::job::JobConfig;
use crate::store_io::{
    IoCounts, RealIo, RetryPolicy, StoreEngine, StoreIo, DEFAULT_FAILURE_BUDGET,
};

/// Where frames live. Implementations store and retrieve *opaque frame
/// bytes* keyed by `(namespace, id)`; all framing, checksumming and
/// staleness logic is shared above the trait.
///
/// Quarantine contract: a frame that fails validation is handed to
/// [`FrameStore::quarantine`] and must stop being served by
/// [`FrameStore::load`] — but its bytes must be *retained* for
/// inspection, never silently deleted.
pub trait FrameStore: Send + Sync {
    /// Returns the stored frame for `(namespace, id)`. Quarantined frames
    /// are not returned. `Ok(None)` means *absent* (a miss); `Err` means
    /// the bytes may exist but could not be read — the two are
    /// deliberately distinct so real I/O failures are counted and retried
    /// instead of silently reading as misses.
    fn load(&self, namespace: u64, id: u64) -> io::Result<Option<Vec<u8>>>;

    /// Durably stores a frame, replacing any previous one. Must be atomic:
    /// a reader (or a crash) sees either the old frame or the new one,
    /// never a torn write.
    fn save(&self, namespace: u64, id: u64, frame: &[u8]) -> io::Result<()>;

    /// Moves `(namespace, id)`'s frame out of the serving path, retaining
    /// the bytes and the reason it was distrusted.
    fn quarantine(&self, namespace: u64, id: u64, reason: &str);

    /// Lists a namespace's quarantined ids with their reasons, sorted.
    fn quarantined(&self, namespace: u64) -> Vec<(u64, String)>;

    /// A snapshot of the store's I/O-outcome ledger, if it keeps one
    /// (disk stores do; in-memory stores have no I/O to count). The job
    /// driver diffs two snapshots to attribute retries, give-ups and
    /// demotions to a run's [`crate::metrics::JobMetrics`].
    fn io_counts(&self) -> Option<IoCounts> {
        None
    }
}

/// How one chunk's lookup resolved — mirrors the `checkpoint_*` /
/// `cache_*` hits, misses and corrupt metrics.
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

/// Resolves `(namespace, expect.chunk_index)` against the store,
/// quarantining anything invalid.
///
/// A load *error* (as opposed to an absent frame) resolves to a miss too
/// — the store is an optimization, so an unreadable frame merely costs a
/// recompute — but only after the store's retry policy ran and its ledger
/// counted the failure; it is never conflated with absence.
///
/// `trust_frame_meta` is the sabotage bypass: integrity is still checked,
/// meaning is not.
pub(crate) fn lookup(
    store: &dyn FrameStore,
    namespace: u64,
    expect: &FrameMeta,
    trust_frame_meta: bool,
) -> ChunkLookup {
    let id = expect.chunk_index;
    let bytes = match store.load(namespace, id) {
        Ok(Some(bytes)) => bytes,
        Ok(None) | Err(_) => return ChunkLookup::Miss,
    };
    let checked = if trust_frame_meta {
        decode_frame_unchecked(&bytes).map(|(_, _, payload)| payload)
    } else {
        match decode_frame(&bytes, expect) {
            FrameCheck::Valid(payload) => Ok(payload),
            FrameCheck::Corrupt(reason) | FrameCheck::Stale(reason) => Err(reason),
        }
    };
    match checked {
        Ok(payload) => ChunkLookup::Hit(payload),
        Err(reason) => {
            store.quarantine(namespace, id, &reason);
            ChunkLookup::Corrupt
        }
    }
}

/// Frames one chunk's payload and files it under `(namespace,
/// meta.chunk_index)`. Write failures are *non-fatal*: a failed save
/// merely degrades the next run to a recompute (the store's I/O ledger
/// counts it, so it reaches `JobMetrics::io_errors`, not hidden).
pub(crate) fn save(store: &dyn FrameStore, namespace: u64, meta: &FrameMeta, payload: &[u8]) {
    let frame = encode_frame(meta, payload);
    let _ = store.save(namespace, meta.chunk_index, &frame);
}

// ---------------------------------------------------------------------------
// Keying policies
// ---------------------------------------------------------------------------

/// The checkpoint policy: chunks filed per job id, by position. A rerun
/// of the same job id after a mid-map kill resumes from the frames the
/// dead run committed.
pub struct CheckpointCtx<'a> {
    /// The backing store.
    pub store: &'a dyn FrameStore,
    /// Manifest key, hashed into the namespace
    /// ([`checkpoint_namespace`]). Distinct job ids keep distinct
    /// manifests; the input-digest check — not the id — is what keeps a
    /// frame from being served for the wrong data.
    pub job_id: String,
    /// DANGER — sabotage/testing only: skip the config-hash and
    /// input-digest comparison and trust whatever an intact frame claims.
    /// The oracle's `stale-checkpoint` self-test sets this to prove the
    /// metadata checks are load-bearing; production paths must not.
    pub trust_frame_meta: bool,
}

impl<'a> CheckpointCtx<'a> {
    /// A checkpoint context with full validation (the only safe mode).
    pub fn new(store: &'a dyn FrameStore, job_id: impl Into<String>) -> CheckpointCtx<'a> {
        CheckpointCtx {
            store,
            job_id: job_id.into(),
            trust_frame_meta: false,
        }
    }
}

/// The cache policy: chunks filed by content, shared by every job whose
/// configuration and chunk bytes match — so appending to or editing a
/// [`crate::dataset::Dataset`] recomputes only the dirty chunks.
pub struct SummaryCacheCtx<'a> {
    /// The backing store.
    pub cache: &'a dyn FrameStore,
    /// DANGER — sabotage/testing only: skip the digest comparison and
    /// trust whatever an intact frame claims it was computed from. The
    /// oracle's `forged-cache-entry` self-test sets this to prove the
    /// content-digest check is load-bearing; production paths must not.
    pub trust_frame_meta: bool,
}

impl<'a> SummaryCacheCtx<'a> {
    /// A cache context with full validation (the only safe mode).
    pub fn new(cache: &'a dyn FrameStore) -> SummaryCacheCtx<'a> {
        SummaryCacheCtx {
            cache,
            trust_frame_meta: false,
        }
    }
}

/// The namespace a job id's checkpoints are filed under. The id is
/// hashed under a checkpoint-domain tag, so no job id — however hostile —
/// ever becomes a path component.
pub fn checkpoint_namespace(job_id: &str) -> u64 {
    fnv1a_extend(fnv1a(b"symple.ckpt"), job_id.as_bytes())
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
    h
}

/// Fingerprint of every [`JobConfig`] knob that shapes a cached summary —
/// the cache policy's namespace.
///
/// [`config_fingerprint`] — frame version, all
/// [`symple_core::engine::EngineConfig`] knobs (including analyzer-derived
/// auto-tuning, which flows through `cfg.engine`),
/// `first_segment_concrete`, and `salvage_refused_chunks` — folded under a
/// cache-domain tag so checkpoint and cache hashes never collide.
///
/// Deliberately **excluded**: `num_reducers`, `map_workers`,
/// `reduce_workers`, and the scheduler knobs. Those control parallelism
/// and fault handling, not the bytes a chunk summarizes to — including
/// them would invalidate the whole cache whenever a job moves to a
/// machine with a different core count, defeating the cross-job design.
/// The exclusion is pinned (in both directions) by
/// `fingerprint_covers_exactly_the_output_shaping_knobs`.
pub fn cache_config_fingerprint(cfg: &JobConfig) -> u64 {
    fnv1a_extend(config_fingerprint(cfg), b"symple.cache.v1")
}

/// The digest of one chunk's raw records under one query: the cache
/// policy's content key (through [`chunk_cache_digest`]) and the
/// checkpoint policy's expected `input_digest`.
///
/// It is taken before anything parses, so a hit costs one pass over the
/// records' bytes. Record *i* goes through [`Hash`] into lane *i* mod 4 —
/// four independent multiply chains instead of one serial one — and a
/// final [`WordHasher`] takes a domain tag, the type names of `G` and `U`,
/// the record count and the four lanes' digests. Each lane step and
/// [`Hasher::finish`] are bijections of the state, so two segments of one
/// length that differ in one word of one record never collide.
///
/// The type names scope a key to its query: B1 and B2 read the same lines
/// with the same UDA type and differ only in `G`, and two UDA types over
/// one grouping differ only in `U`. Two *values* of one UDA type with
/// different constructor parameters still share a key, and `type_name`
/// is not guaranteed unique across types: two such queries need a store
/// each.
pub(crate) fn records_digest<G: GroupBy, U>(records: &[G::Record]) -> u64 {
    let mut lanes = [WordHasher::new(); 4];
    let mut quads = records.chunks_exact(4);
    for quad in &mut quads {
        quad[0].hash(&mut lanes[0]);
        quad[1].hash(&mut lanes[1]);
        quad[2].hash(&mut lanes[2]);
        quad[3].hash(&mut lanes[3]);
    }
    for (record, lane) in quads.remainder().iter().zip(&mut lanes) {
        record.hash(lane);
    }
    let mut h = WordHasher::new();
    h.write(b"symple.chunk.records");
    for name in [type_name::<G>(), type_name::<U>()] {
        h.write_usize(name.len());
        h.write(name.as_bytes());
    }
    h.write_usize(records.len());
    for lane in &lanes {
        h.write_u64(lane.finish());
    }
    h.finish()
}

/// Content digest of one chunk for cache addressing.
///
/// Folds the records digest with whether the chunk runs *concretely*
/// (the globally first segment under `first_segment_concrete`): two chunks
/// with identical bytes summarize differently when one of them holds the
/// true initial state, so they must never share a cache entry.
pub(crate) fn chunk_cache_digest(records_digest: u64, runs_concrete: bool) -> u64 {
    let h = fnv1a(b"symple.cache.chunk");
    let h = fnv1a_extend(h, &records_digest.to_le_bytes());
    fnv1a_extend(h, &[u8::from(runs_concrete)])
}

/// The frame metadata recorded for (and expected of) a cache entry: the
/// addressing key restated inside the CRC-protected frame, so moving a
/// frame under a different key is detectable on load.
pub(crate) fn cache_meta(config_hash: u64, digest: u64) -> FrameMeta {
    FrameMeta {
        chunk_index: digest,
        config_hash,
        input_digest: digest,
    }
}

// ---------------------------------------------------------------------------
// In-memory store
// ---------------------------------------------------------------------------

#[derive(Default)]
struct MemInner {
    frames: HashMap<(u64, u64), Vec<u8>>,
    /// `(namespace, id, retained bytes, reason)`, in quarantine order.
    quarantined: Vec<(u64, u64, Vec<u8>, String)>,
}

/// An in-memory [`FrameStore`]: survives a *simulated* process death (the
/// `kill_after_n_tasks` drill runs killer and resumer in one process),
/// backs the oracle's crash-resume and warm-resweep columns, and is the
/// tamper-friendly store the corruption, eviction and forgery tests drive.
#[derive(Default)]
pub struct MemStore {
    inner: Mutex<MemInner>,
}

impl MemStore {
    /// An empty store.
    pub fn new() -> MemStore {
        MemStore::default()
    }

    fn inner(&self) -> std::sync::MutexGuard<'_, MemInner> {
        self.inner.lock().expect("store poisoned")
    }

    /// Number of live (non-quarantined) entries across all namespaces.
    pub fn entry_count(&self) -> usize {
        self.inner().frames.len()
    }

    /// The live `(namespace, id)` keys, sorted (test harnesses only).
    pub fn keys(&self) -> Vec<(u64, u64)> {
        let mut keys: Vec<(u64, u64)> = self.inner().frames.keys().copied().collect();
        keys.sort_unstable();
        keys
    }

    /// Removes an entry outright — *eviction*, which unlike quarantine is
    /// a legitimate, silent operation (a store is allowed to forget).
    /// Returns whether the entry existed.
    pub fn evict(&self, namespace: u64, id: u64) -> bool {
        self.inner().frames.remove(&(namespace, id)).is_some()
    }

    /// Mutates a stored frame in place (corruption-matrix tests). Returns
    /// whether the frame existed.
    pub fn tamper(&self, namespace: u64, id: u64, f: impl FnOnce(&mut Vec<u8>)) -> bool {
        self.inner()
            .frames
            .get_mut(&(namespace, id))
            .map(f)
            .is_some()
    }

    /// Installs raw frame bytes directly (forgery/sabotage harnesses).
    pub fn insert_raw(&self, namespace: u64, id: u64, frame: Vec<u8>) {
        self.inner().frames.insert((namespace, id), frame);
    }

    /// Returns a copy of the stored frame bytes, if present.
    pub fn raw_frame(&self, namespace: u64, id: u64) -> Option<Vec<u8>> {
        self.inner().frames.get(&(namespace, id)).cloned()
    }
}

impl FrameStore for MemStore {
    fn load(&self, namespace: u64, id: u64) -> io::Result<Option<Vec<u8>>> {
        Ok(self.raw_frame(namespace, id))
    }

    fn save(&self, namespace: u64, id: u64, frame: &[u8]) -> io::Result<()> {
        self.insert_raw(namespace, id, frame.to_vec());
        Ok(())
    }

    fn quarantine(&self, namespace: u64, id: u64, reason: &str) {
        let mut inner = self.inner();
        if let Some(bytes) = inner.frames.remove(&(namespace, id)) {
            inner
                .quarantined
                .push((namespace, id, bytes, reason.to_string()));
        }
    }

    fn quarantined(&self, namespace: u64) -> Vec<(u64, String)> {
        let mut out: Vec<(u64, String)> = self
            .inner()
            .quarantined
            .iter()
            .filter(|(ns, ..)| *ns == namespace)
            .map(|(_, id, _, reason)| (*id, reason.clone()))
            .collect();
        out.sort();
        out
    }
}

// ---------------------------------------------------------------------------
// On-disk store
// ---------------------------------------------------------------------------

/// An on-disk [`FrameStore`].
///
/// Layout: `<root>/<namespace:016x>/<id:016x>.sum`, written as
/// `….sum.tmp.<pid>.<n>` then renamed into place so a crash mid-write
/// leaves either the old frame or none — never a torn one. The tmp name is
/// unique per save: two writers of one key (two chunks of identical
/// content) each rename only a file they finished writing, and the last
/// complete frame wins. Quarantine renames the frame to
/// `<id>.sum.quarantined` (`.quarantined.1`, `.2`, … for repeat offenders)
/// and records the reason alongside in `….quarantined.reason`; quarantined
/// bytes are kept for post-mortem. The directory-per-namespace layout
/// makes a config change's (or a finished job's) dead entries trivially
/// identifiable and reclaimable.
///
/// Every byte moves through an injectable [`StoreIo`] under a retry
/// engine: transient errors are retried per [`RetryPolicy`], and
/// past the failure budget the store demotes to a no-op backend — loads
/// answer `Ok(None)`, saves succeed without writing — so a dying disk
/// degrades the job to correct-but-unpersisted instead of failing it.
pub struct DiskStore {
    root: PathBuf,
    engine: StoreEngine,
}

/// `path` with `suffix` appended to its file name.
fn with_suffix(path: &Path, suffix: &str) -> PathBuf {
    let mut name = path.as_os_str().to_owned();
    name.push(suffix);
    name.into()
}

impl DiskStore {
    /// Opens (creating if needed) a store rooted at `root`, on the real
    /// filesystem with the default retry policy and failure budget.
    pub fn new(root: impl Into<PathBuf>) -> io::Result<DiskStore> {
        let policy = RetryPolicy::default();
        DiskStore::with_io(root, Arc::new(RealIo), policy, DEFAULT_FAILURE_BUDGET)
    }

    /// Opens a store whose filesystem access runs through `io` under
    /// `policy`, demoting after `failure_budget` given-up operations —
    /// the constructor the fault-injection harnesses use.
    pub fn with_io(
        root: impl Into<PathBuf>,
        io: Arc<dyn StoreIo>,
        policy: RetryPolicy,
        failure_budget: u64,
    ) -> io::Result<DiskStore> {
        let root = root.into();
        let engine = StoreEngine::new(io, policy, failure_budget);
        // Best-effort: a root that cannot be created yet is not fatal —
        // every save retries `create_dir_all`, loads degrade to misses,
        // and a disk that stays broken demotes the store through the
        // ledger like any other persistent fault. The failure is already
        // counted (and budgeted) by the engine.
        let _ = engine.run(|io| io.create_dir_all(&root));
        Ok(DiskStore { root, engine })
    }

    /// Whether the store has demoted itself to a no-op backend.
    pub fn demoted(&self) -> bool {
        self.engine.demoted()
    }

    /// Path of an entry's live frame.
    pub fn entry_path(&self, namespace: u64, id: u64) -> PathBuf {
        self.root
            .join(format!("{namespace:016x}"))
            .join(format!("{id:016x}.sum"))
    }
}

impl FrameStore for DiskStore {
    fn load(&self, namespace: u64, id: u64) -> io::Result<Option<Vec<u8>>> {
        if self.engine.demoted() {
            return Ok(None);
        }
        let path = self.entry_path(namespace, id);
        match self.engine.run(|io| io.read(&path)) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    fn save(&self, namespace: u64, id: u64, frame: &[u8]) -> io::Result<()> {
        if self.engine.demoted() {
            return Ok(());
        }
        let path = self.entry_path(namespace, id);
        let dir = path.parent().expect("entry path has a parent");
        self.engine.run(|io| io.create_dir_all(dir))?;
        static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
        let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
        let tmp = with_suffix(&path, &format!(".tmp.{}.{seq}", std::process::id()));
        let commit = self
            .engine
            .run(|io| io.write(&tmp, frame))
            .and_then(|()| self.engine.run(|io| io.rename(&tmp, &path)));
        if commit.is_err() {
            // Whether the write died (possibly leaving a torn prefix) or
            // the rename did (leaving an intact orphan), the tmp file must
            // not survive: a later crash-recovery sweep or ENOSPC budget
            // should never find stray `.tmp` litter. Best-effort — the
            // frame at `path` is still either the old one or absent.
            let _ = self.engine.run(|io| io.remove(&tmp));
        }
        commit
    }

    fn quarantine(&self, namespace: u64, id: u64, reason: &str) {
        let path = self.entry_path(namespace, id);
        let mut target = with_suffix(&path, ".quarantined");
        // Never overwrite earlier evidence: suffix repeat offenders.
        let mut n = 1;
        while target.exists() {
            target = with_suffix(&path, &format!(".quarantined.{n}"));
            n += 1;
        }
        // Best-effort: a failed move or note is counted by the engine's
        // ledger, and the frame it leaves behind fails validation again.
        let moved = self.engine.run(|io| io.rename(&path, &target));
        let _ = moved.and_then(|()| {
            let reason_path = with_suffix(&target, ".reason");
            self.engine
                .run(|io| io.write(&reason_path, reason.as_bytes()))
        });
    }

    // Quarantine listing is a post-mortem/test path, not part of the
    // durability contract, so its directory walk stays on plain `fs`.
    fn quarantined(&self, namespace: u64) -> Vec<(u64, String)> {
        let dir = self.root.join(format!("{namespace:016x}"));
        let mut out = Vec::new();
        for entry in fs::read_dir(dir).into_iter().flatten().flatten() {
            let name = entry.file_name();
            let id = name
                .to_str()
                .filter(|name| !name.ends_with(".reason"))
                .and_then(|name| name.split_once(".sum.quarantined"))
                .and_then(|(stem, _)| u64::from_str_radix(stem, 16).ok());
            let Some(id) = id else { continue };
            let reason = fs::read_to_string(with_suffix(&entry.path(), ".reason"))
                .unwrap_or_else(|_| "(reason unrecorded)".to_string());
            out.push((id, reason));
        }
        out.sort();
        out
    }

    fn io_counts(&self) -> Option<IoCounts> {
        Some(self.engine.ledger().snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use symple_core::frame::encode_frame_with_version;

    const NS: u64 = 0x1111_2222_3333_4444;
    const META: FrameMeta = FrameMeta {
        chunk_index: 3,
        config_hash: 42,
        input_digest: 99,
    };

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("symple-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// The one store contract, whatever the backend. `evict` removes a
    /// live entry the way that backend legitimately forgets one.
    fn contract(store: &dyn FrameStore, evict: &dyn Fn(u64, u64) -> bool) {
        let id = META.chunk_index;
        let hit = ChunkLookup::Hit(b"payload".to_vec());

        // Round trip; another namespace or id never sees the frame.
        assert_eq!(lookup(store, NS, &META, false), ChunkLookup::Miss);
        save(store, NS, &META, b"payload");
        assert_eq!(lookup(store, NS, &META, false), hit);
        assert_eq!(lookup(store, NS + 1, &META, false), ChunkLookup::Miss);
        let elsewhere = FrameMeta {
            chunk_index: id + 1,
            ..META
        };
        assert_eq!(lookup(store, NS, &elsewhere, false), ChunkLookup::Miss);

        // Stale config: quarantined with a telling reason, no longer
        // served, bytes retained.
        let stale = FrameMeta {
            config_hash: 43,
            ..META
        };
        assert_eq!(lookup(store, NS, &stale, false), ChunkLookup::Corrupt);
        assert_eq!(lookup(store, NS, &META, false), ChunkLookup::Miss);
        let q = store.quarantined(NS);
        assert_eq!(q.len(), 1);
        assert_eq!(q[0].0, id);
        assert!(q[0].1.contains("config"), "{}", q[0].1);
        assert!(store.quarantined(NS + 1).is_empty());

        // A flipped bit fails the CRC.
        save(store, NS, &META, b"payload");
        let mut frame = store.load(NS, id).unwrap().unwrap();
        frame[6] ^= 0x40;
        store.save(NS, id, &frame).unwrap();
        assert_eq!(lookup(store, NS, &META, false), ChunkLookup::Corrupt);

        // A version-bumped frame (valid CRC) is refused by the version
        // gate; a repeat offender keeps every piece of evidence.
        let bad = encode_frame_with_version(FRAME_VERSION + 1, &META, b"payload");
        store.save(NS, id, &bad).unwrap();
        assert_eq!(lookup(store, NS, &META, false), ChunkLookup::Corrupt);
        assert_eq!(lookup(store, NS, &META, false), ChunkLookup::Miss);
        let q = store.quarantined(NS);
        assert_eq!(q.len(), 3, "{q:?}");
        assert!(q.iter().all(|(i, _)| *i == id));
        assert!(q.iter().any(|(_, r)| r.contains("version")), "{q:?}");

        // A forged key — a frame recorded for `id`, filed under `id + 1` —
        // is caught by the metadata comparison; the genuine entry is
        // untouched. Under the sabotage bypass the same forgery IS served:
        // that check is what stands between a collision and a wrong answer.
        save(store, NS, &META, b"payload");
        let genuine = store.load(NS, id).unwrap().unwrap();
        store.save(NS, id + 1, &genuine).unwrap();
        assert_eq!(lookup(store, NS, &elsewhere, false), ChunkLookup::Corrupt);
        assert_eq!(lookup(store, NS, &elsewhere, false), ChunkLookup::Miss);
        assert_eq!(lookup(store, NS, &META, false), hit);
        store.save(NS, id + 1, &genuine).unwrap();
        assert_eq!(lookup(store, NS, &elsewhere, true), hit);

        // Eviction is silent: a miss afterwards, and not a quarantine.
        let before = store.quarantined(NS).len();
        assert!(evict(NS, id));
        assert!(!evict(NS, id));
        assert_eq!(lookup(store, NS, &META, false), ChunkLookup::Miss);
        assert_eq!(
            store.quarantined(NS).len(),
            before,
            "eviction is not quarantine"
        );
    }

    #[test]
    fn every_backend_honours_the_store_contract() {
        let mem = MemStore::new();
        contract(&mem, &|ns, id| mem.evict(ns, id));
        assert_eq!(mem.keys(), vec![(NS, META.chunk_index + 1)]);
        assert_eq!(mem.entry_count(), 1);

        let dir = scratch_dir("contract");
        let disk = DiskStore::new(&dir).unwrap();
        contract(&disk, &|ns, id| {
            fs::remove_file(disk.entry_path(ns, id)).is_ok()
        });
        assert!(disk.entry_path(NS, META.chunk_index + 1).exists());
        assert_eq!(disk.io_counts(), Some(IoCounts::default()));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_saves_of_one_key_commit_a_whole_frame() {
        // Two frames of different lengths under one key, several writers
        // each, and a reader looking the key up all the while. With a
        // shared tmp name one writer truncates or renames away the file
        // another is still writing: a save fails, or a torn frame lands
        // and the reader quarantines it.
        let dir = scratch_dir("same-key");
        let store = DiskStore::new(&dir).unwrap();
        let payloads = [vec![0x11u8; 64 << 10], vec![0x22u8; 96 << 10]];
        let (writers_left, failed_saves) = (AtomicU64::new(8), AtomicU64::new(0));
        std::thread::scope(|scope| {
            for t in 0..8 {
                let (store, left, failed) = (&store, &writers_left, &failed_saves);
                let frame = encode_frame(&META, &payloads[t % 2]);
                scope.spawn(move || {
                    for _ in 0..20 {
                        if store.save(NS, META.chunk_index, &frame).is_err() {
                            failed.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                    left.fetch_sub(1, Ordering::SeqCst);
                });
            }
            scope.spawn(|| {
                while writers_left.load(Ordering::SeqCst) > 0 {
                    let _ = lookup(&store, NS, &META, false);
                }
            });
        });
        assert_eq!(failed_saves.into_inner(), 0);
        let ChunkLookup::Hit(loaded) = lookup(&store, NS, &META, false) else {
            panic!("entry must load valid");
        };
        assert!(payloads.contains(&loaded));
        assert!(store.quarantined(NS).is_empty());
        let names: Vec<_> = fs::read_dir(dir.join(format!("{NS:016x}")))
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, [format!("{:016x}.sum", META.chunk_index).as_str()]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn hostile_job_id_lands_inside_the_root() {
        let dir = scratch_dir("hostile");
        let store = DiskStore::new(&dir).unwrap();
        let ns = checkpoint_namespace("job/../evil id");
        save(&store, ns, &META, b"x");
        assert_eq!(
            lookup(&store, ns, &META, false),
            ChunkLookup::Hit(b"x".to_vec())
        );
        // The job id was hashed, never spliced into a path.
        let path = store.entry_path(ns, META.chunk_index);
        assert!(path.starts_with(&dir) && path.exists());
        assert_ne!(ns, checkpoint_namespace("job"));
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

    #[test]
    fn chunk_digest_separates_concrete_from_symbolic() {
        assert_ne!(chunk_cache_digest(7, true), chunk_cache_digest(7, false));
        assert_ne!(chunk_cache_digest(7, true), chunk_cache_digest(8, true));
        assert_eq!(chunk_cache_digest(7, true), chunk_cache_digest(7, true));
    }

    /// Two groupings of one record type, and two UDA types: the digest
    /// reads only their names.
    struct ByTag;
    impl GroupBy for ByTag {
        type Record = (u8, i64);
        type Key = u8;
        type Event = i64;
        fn extract(&self, r: &(u8, i64)) -> Option<(u8, i64)> {
            Some(*r)
        }
    }
    struct ByValue;
    impl GroupBy for ByValue {
        type Record = (u8, i64);
        type Key = i64;
        type Event = u8;
        fn extract(&self, r: &(u8, i64)) -> Option<(i64, u8)> {
            Some((r.1, r.0))
        }
    }
    struct SumUda;
    struct GapUda;

    #[test]
    fn records_digest_names_the_query() {
        let records: Vec<(u8, i64)> = (0..10).map(|i| (i as u8 % 3, i * 7)).collect();
        let digest = records_digest::<ByTag, SumUda>(&records);
        assert_eq!(digest, records_digest::<ByTag, SumUda>(&records.clone()));
        assert_ne!(
            digest,
            records_digest::<ByValue, SumUda>(&records),
            "GroupBy"
        );
        assert_ne!(digest, records_digest::<ByTag, GapUda>(&records), "Uda");
    }

    /// Over small segments, enumerated: bit 63 flipped in two records at
    /// every distance (same lane and across lanes), two records swapped,
    /// one record moved, and each length against itself plus a zero
    /// record (trailing partial quads of 0–3). No two distinct segments
    /// may share a digest.
    #[test]
    fn records_digest_resists_structural_collisions() {
        let mut rng = symple_core::rng::Rng64::seed_from_u64(27);
        let mut seen: HashMap<u64, Vec<(u8, i64)>> = HashMap::new();
        let mut add = |records: Vec<(u8, i64)>| {
            let digest = records_digest::<ByTag, SumUda>(&records);
            let first = seen.entry(digest).or_insert_with(|| records.clone());
            assert_eq!(*first, records, "two segments share digest {digest:#x}");
        };
        for len in 0..=16 {
            let base: Vec<(u8, i64)> = (0..len)
                .map(|_| (rng.gen::<u64>() as u8, rng.gen::<u64>() as i64))
                .collect();
            add(base.clone());
            let mut padded = base.clone();
            padded.push((0, 0));
            add(padded);
            for i in 0..len {
                for j in i + 1..len {
                    let mut flipped = base.clone();
                    flipped[i].1 ^= i64::MIN;
                    flipped[j].1 ^= i64::MIN;
                    add(flipped);
                    let mut swapped = base.clone();
                    swapped.swap(i, j);
                    add(swapped);
                    let mut moved = base.clone();
                    moved[i..=j].rotate_left(1);
                    add(moved);
                }
            }
        }
        assert!(seen.len() > 1_000, "{} segments", seen.len());
    }

    #[test]
    fn fingerprint_covers_exactly_the_output_shaping_knobs() {
        let base = JobConfig::default();
        let fp = cache_config_fingerprint(&base);

        // Every knob that shapes summary bytes forces a different
        // fingerprint — flipping any of them must miss the cache.
        let mut m = base;
        m.engine.max_paths_per_record += 1;
        assert_ne!(cache_config_fingerprint(&m), fp, "max_paths_per_record");
        let mut m = base;
        m.engine.max_total_paths += 1;
        assert_ne!(cache_config_fingerprint(&m), fp, "max_total_paths");
        let mut m = base;
        m.engine.merge_policy = symple_core::engine::MergePolicy::Never;
        assert_ne!(cache_config_fingerprint(&m), fp, "merge_policy");
        let mut m = base;
        m.first_segment_concrete = !m.first_segment_concrete;
        assert_ne!(cache_config_fingerprint(&m), fp, "first_segment_concrete");
        let mut m = base;
        m.salvage_refused_chunks = !m.salvage_refused_chunks;
        assert_ne!(cache_config_fingerprint(&m), fp, "salvage_refused_chunks");

        // Pure-parallelism knobs deliberately do NOT invalidate entries:
        // the same dataset on a different machine must stay warm.
        let mut m = base;
        m.num_reducers += 1;
        m.map_workers += 1;
        m.reduce_workers += 1;
        assert_eq!(cache_config_fingerprint(&m), fp, "parallelism knobs");

        // Cache and checkpoint fingerprints never collide.
        assert_ne!(fp, config_fingerprint(&base));
    }
}
