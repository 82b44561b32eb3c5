//! Cross-job, content-addressed summary cache: incremental recomputation.
//!
//! Chunk summaries are pure functions of `(job config, chunk content)` —
//! the checkpoint store (see [`crate::checkpoint`]) already exploits that
//! within one job id. This module drops the job id entirely: frames are
//! keyed by `(config fingerprint, chunk content digest)`, so *any* job
//! whose configuration and chunk bytes match reuses the summary. Appending
//! data or editing a few chunks of a [`crate::dataset::Dataset`] therefore
//! recomputes only the dirty chunks, and the log-depth merge tree is
//! recomposed from cached summaries (cf. shire's hash-gated parallel
//! re-extraction: parallel compute, sequential commit, recompute only
//! changed hashes).
//!
//! The framing and corruption discipline is shared with checkpointing:
//! CRC32-framed records ([`symple_core::frame`]), atomic tmp + rename
//! writes, and quarantine-never-delete handling of anything invalid. The
//! frame's recorded metadata carries the content digest the summary was
//! computed *from*, so an entry filed under a colliding or forged key is
//! caught by the digest comparison on load and quarantined — the
//! `forged-cache-entry` oracle sabotage proves that check is load-bearing
//! by bypassing it.

use std::collections::HashMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use symple_core::frame::{
    decode_frame, decode_frame_unchecked, encode_frame, fnv1a, fnv1a_extend, FrameCheck, FrameMeta,
};

use crate::checkpoint::{config_fingerprint, ChunkLookup};
use crate::job::{JobConfig, ReduceStrategy};
use crate::store_io::{IoCounts, RetryPolicy, StoreEngine, StoreIo};

/// Where cache frames live. Implementations store and retrieve *opaque
/// frame bytes* keyed by `(config fingerprint, chunk content digest)`; all
/// framing, checksumming, and digest-validation logic is shared above the
/// trait so every backend enforces identical rules.
///
/// Quarantine contract: a frame that fails validation is handed to
/// [`SummaryCache::quarantine`] and must stop being served by
/// [`SummaryCache::load`] — but its bytes must be *retained* for
/// inspection, never silently deleted.
pub trait SummaryCache: Send + Sync {
    /// Returns the stored frame for `(config_hash, digest)`. Quarantined
    /// frames are not returned. `Ok(None)` means *absent* (a miss);
    /// `Err` means the bytes may exist but could not be read — kept
    /// distinct so real I/O failures are counted and retried instead of
    /// silently reading as misses.
    fn load(&self, config_hash: u64, digest: u64) -> io::Result<Option<Vec<u8>>>;

    /// Durably stores a frame, replacing any previous one. Must be atomic:
    /// a reader (or a crash) sees either the old frame or the new one,
    /// never a torn write.
    fn save(&self, config_hash: u64, digest: u64, frame: &[u8]) -> io::Result<()>;

    /// Moves `(config_hash, digest)`'s frame out of the serving path,
    /// retaining the bytes and the reason it was distrusted.
    fn quarantine(&self, config_hash: u64, digest: u64, reason: &str);

    /// Lists quarantined entries with their reasons.
    fn quarantined(&self) -> Vec<(u64, u64, String)>;

    /// A snapshot of the cache's I/O-outcome ledger, if it keeps one
    /// (disk-backed caches do; in-memory caches have no I/O to count).
    /// The job driver diffs two snapshots to attribute retries, give-ups,
    /// and demotions to a run's [`crate::metrics::JobMetrics`].
    fn io_counts(&self) -> Option<IoCounts> {
        None
    }
}

/// Binds a job run to a summary cache.
pub struct SummaryCacheCtx<'a> {
    /// The backing cache.
    pub cache: &'a dyn SummaryCache,
    /// DANGER — sabotage/testing only: skip the digest comparison and
    /// trust whatever an intact frame claims it was computed from. The
    /// oracle's `forged-cache-entry` self-test sets this to prove the
    /// content-digest check is load-bearing; production paths must not.
    pub trust_frame_meta: bool,
}

impl<'a> SummaryCacheCtx<'a> {
    /// A cache context with full validation (the only safe mode).
    pub fn new(cache: &'a dyn SummaryCache) -> SummaryCacheCtx<'a> {
        SummaryCacheCtx {
            cache,
            trust_frame_meta: false,
        }
    }
}

/// Fingerprint of every [`JobConfig`] knob that shapes a cached summary.
///
/// Extends the checkpoint store's [`config_fingerprint`] — frame version,
/// all [`symple_core::engine::EngineConfig`] knobs (including
/// analyzer-derived auto-tuning, which flows through `cfg.engine`),
/// `first_segment_concrete`, and `salvage_refused_chunks` — with the
/// reduce strategy, folded under a cache-domain tag so checkpoint and
/// cache hashes never collide.
///
/// Deliberately **excluded**: `num_reducers`, `map_workers`,
/// `reduce_workers`, and the scheduler knobs. Those control parallelism
/// and fault handling, not the bytes a chunk summarizes to — including
/// them would invalidate the whole cache whenever a job moves to a
/// machine with a different core count, defeating the cross-job design.
/// The exclusion is pinned (in both directions) by
/// `fingerprint_covers_exactly_the_output_shaping_knobs`.
pub fn cache_config_fingerprint(cfg: &JobConfig) -> u64 {
    let mut h = fnv1a_extend(config_fingerprint(cfg), b"symple.cache.v1");
    h = fnv1a_extend(
        h,
        &[match cfg.reduce_strategy {
            ReduceStrategy::ApplyInOrder => 0,
            ReduceStrategy::TreeCompose => 1,
        }],
    );
    h
}

/// Content digest of one chunk for cache addressing.
///
/// Folds the grouped-input digest with whether the chunk runs *concretely*
/// (the globally first segment under `first_segment_concrete`): two chunks
/// with identical bytes summarize differently when one of them holds the
/// true initial state, so they must never share a cache entry.
pub(crate) fn chunk_cache_digest(input_digest: u64, runs_concrete: bool) -> u64 {
    let h = fnv1a(b"symple.cache.chunk");
    let h = fnv1a_extend(h, &input_digest.to_le_bytes());
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

/// Resolves one chunk against the cache, quarantining anything invalid.
pub(crate) fn lookup_summary(
    ctx: &SummaryCacheCtx<'_>,
    config_hash: u64,
    digest: u64,
) -> ChunkLookup {
    let bytes = match ctx.cache.load(config_hash, digest) {
        Ok(Some(bytes)) => bytes,
        Ok(None) => return ChunkLookup::Miss,
        // A load error resolves to a miss (recompute) — but only after
        // the cache's retry policy ran and its ledger counted it; it is
        // never conflated with absence.
        Err(_) => {
            symple_obs::counter_add("cache.load_errors", 1);
            return ChunkLookup::Miss;
        }
    };
    if ctx.trust_frame_meta {
        // Sabotage bypass: integrity still checked, meaning is not.
        return match decode_frame_unchecked(&bytes) {
            Ok((_, _, payload)) => ChunkLookup::Hit(payload),
            Err(reason) => {
                ctx.cache.quarantine(config_hash, digest, &reason);
                ChunkLookup::Corrupt
            }
        };
    }
    match decode_frame(&bytes, &cache_meta(config_hash, digest)) {
        FrameCheck::Valid(payload) => ChunkLookup::Hit(payload),
        FrameCheck::Corrupt(reason) | FrameCheck::Stale(reason) => {
            ctx.cache.quarantine(config_hash, digest, &reason);
            ChunkLookup::Corrupt
        }
    }
}

/// Frames and stores one chunk's payload. Write failures are *non-fatal*:
/// caching is an optimization, so a failed save merely degrades the next
/// warm run to a recompute (it is counted, not hidden).
pub(crate) fn save_summary(
    ctx: &SummaryCacheCtx<'_>,
    config_hash: u64,
    digest: u64,
    payload: &[u8],
) {
    let frame = encode_frame(&cache_meta(config_hash, digest), payload);
    if ctx.cache.save(config_hash, digest, &frame).is_err() {
        symple_obs::counter_add("cache.save_errors", 1);
    }
}

// ---------------------------------------------------------------------------
// In-memory cache
// ---------------------------------------------------------------------------

#[derive(Default)]
struct MemInner {
    frames: HashMap<(u64, u64), Vec<u8>>,
    quarantined: HashMap<(u64, u64), (Vec<u8>, String)>,
}

/// An in-memory [`SummaryCache`]: the warm-resweep oracle column's store,
/// and the tamper-friendly backend the corruption, eviction, and forgery
/// tests drive.
#[derive(Default)]
pub struct MemSummaryCache {
    inner: Mutex<MemInner>,
}

impl MemSummaryCache {
    /// An empty cache.
    pub fn new() -> MemSummaryCache {
        MemSummaryCache::default()
    }

    /// Number of live (non-quarantined) entries.
    pub fn entry_count(&self) -> usize {
        self.inner.lock().expect("cache poisoned").frames.len()
    }

    /// The live entry keys, sorted (test harnesses only).
    pub fn keys(&self) -> Vec<(u64, u64)> {
        let mut keys: Vec<(u64, u64)> = self
            .inner
            .lock()
            .expect("cache poisoned")
            .frames
            .keys()
            .copied()
            .collect();
        keys.sort_unstable();
        keys
    }

    /// Removes an entry outright — cache *eviction*, which unlike
    /// quarantine is a legitimate, silent operation (caches are allowed to
    /// forget). Returns whether the entry existed.
    pub fn evict(&self, config_hash: u64, digest: u64) -> bool {
        self.inner
            .lock()
            .expect("cache poisoned")
            .frames
            .remove(&(config_hash, digest))
            .is_some()
    }

    /// Mutates a stored frame in place (corruption-matrix tests). Returns
    /// whether the frame existed.
    pub fn tamper(&self, config_hash: u64, digest: u64, f: impl FnOnce(&mut Vec<u8>)) -> bool {
        let mut inner = self.inner.lock().expect("cache poisoned");
        match inner.frames.get_mut(&(config_hash, digest)) {
            Some(bytes) => {
                f(bytes);
                true
            }
            None => false,
        }
    }

    /// Installs raw frame bytes directly (forgery/sabotage harnesses).
    pub fn insert_raw(&self, config_hash: u64, digest: u64, frame: Vec<u8>) {
        self.inner
            .lock()
            .expect("cache poisoned")
            .frames
            .insert((config_hash, digest), frame);
    }

    /// Returns a copy of the stored frame bytes, if present.
    pub fn raw_frame(&self, config_hash: u64, digest: u64) -> Option<Vec<u8>> {
        self.inner
            .lock()
            .expect("cache poisoned")
            .frames
            .get(&(config_hash, digest))
            .cloned()
    }
}

impl SummaryCache for MemSummaryCache {
    fn load(&self, config_hash: u64, digest: u64) -> io::Result<Option<Vec<u8>>> {
        Ok(self
            .inner
            .lock()
            .expect("cache poisoned")
            .frames
            .get(&(config_hash, digest))
            .cloned())
    }

    fn save(&self, config_hash: u64, digest: u64, frame: &[u8]) -> io::Result<()> {
        self.inner
            .lock()
            .expect("cache poisoned")
            .frames
            .insert((config_hash, digest), frame.to_vec());
        Ok(())
    }

    fn quarantine(&self, config_hash: u64, digest: u64, reason: &str) {
        let mut inner = self.inner.lock().expect("cache poisoned");
        let key = (config_hash, digest);
        if let Some(bytes) = inner.frames.remove(&key) {
            inner.quarantined.insert(key, (bytes, reason.to_string()));
        }
    }

    fn quarantined(&self) -> Vec<(u64, u64, String)> {
        let inner = self.inner.lock().expect("cache poisoned");
        let mut out: Vec<(u64, u64, String)> = inner
            .quarantined
            .iter()
            .map(|((c, d), (_, reason))| (*c, *d, reason.clone()))
            .collect();
        out.sort();
        out
    }
}

// ---------------------------------------------------------------------------
// On-disk cache
// ---------------------------------------------------------------------------

/// An on-disk [`SummaryCache`].
///
/// Layout: `<root>/<config_hash:016x>/<digest:016x>.sum`, written as
/// `…​.sum.tmp` then renamed into place so a crash mid-write leaves either
/// the old frame or none — never a torn one. Quarantine renames the frame
/// to `<digest>.sum.quarantined` and records the reason alongside in
/// `<digest>.sum.quarantined.reason`; quarantined bytes are kept for
/// post-mortem. The directory-per-config-hash layout makes a config
/// change's dead entries trivially identifiable (and reclaimable) without
/// any risk of cross-config key collisions on disk.
///
/// Every byte moves through an injectable [`StoreIo`] under a
/// [`StoreEngine`]: transient errors are retried per [`RetryPolicy`], and
/// past the failure budget the cache demotes to a no-op backend — loads
/// answer `Ok(None)`, saves succeed without writing — so a dying disk
/// degrades the job to correct-but-uncached instead of failing it.
pub struct DiskSummaryCache {
    root: PathBuf,
    engine: StoreEngine,
}

impl DiskSummaryCache {
    /// Opens (creating if needed) a cache rooted at `root`, on the real
    /// filesystem with the default retry policy and failure budget.
    pub fn new(root: impl Into<PathBuf>) -> io::Result<DiskSummaryCache> {
        DiskSummaryCache::with_engine(root, StoreEngine::real())
    }

    /// Opens a cache whose filesystem access runs through `io` under
    /// `policy`, demoting after `failure_budget` given-up operations —
    /// the constructor the fault-injection harnesses use.
    pub fn with_io(
        root: impl Into<PathBuf>,
        io: Arc<dyn StoreIo>,
        policy: RetryPolicy,
        failure_budget: u64,
    ) -> io::Result<DiskSummaryCache> {
        DiskSummaryCache::with_engine(root, StoreEngine::new(io, policy, failure_budget))
    }

    fn with_engine(root: impl Into<PathBuf>, engine: StoreEngine) -> io::Result<DiskSummaryCache> {
        let root = root.into();
        // Best-effort: a root that cannot be created yet is not fatal —
        // every save retries `create_dir_all`, loads degrade to misses,
        // and a disk that stays broken demotes the store through the
        // ledger like any other persistent fault. The failure is already
        // counted (and budgeted) by the engine.
        let _ = engine.run(|io| io.create_dir_all(&root));
        Ok(DiskSummaryCache { root, engine })
    }

    /// The cache's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Whether the cache has demoted itself to a no-op backend.
    pub fn demoted(&self) -> bool {
        self.engine.demoted()
    }

    /// Path of an entry's live frame.
    pub fn entry_path(&self, config_hash: u64, digest: u64) -> PathBuf {
        self.root
            .join(format!("{config_hash:016x}"))
            .join(format!("{digest:016x}.sum"))
    }
}

impl SummaryCache for DiskSummaryCache {
    fn load(&self, config_hash: u64, digest: u64) -> io::Result<Option<Vec<u8>>> {
        if self.engine.demoted() {
            return Ok(None);
        }
        let path = self.entry_path(config_hash, digest);
        match self.engine.run(|io| io.read(&path)) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    fn save(&self, config_hash: u64, digest: u64, frame: &[u8]) -> io::Result<()> {
        if self.engine.demoted() {
            return Ok(());
        }
        let path = self.entry_path(config_hash, digest);
        let dir = path.parent().expect("entry path has a parent");
        self.engine.run(|io| io.create_dir_all(dir))?;
        let tmp = path.with_extension("sum.tmp");
        let commit = self
            .engine
            .run(|io| io.write(&tmp, frame))
            .and_then(|()| self.engine.run(|io| io.rename(&tmp, &path)));
        if let Err(e) = commit {
            // Never leave `.tmp` litter behind a failed save — torn
            // prefixes and intact orphans alike are swept; the live entry
            // is still either the old frame or absent. Best-effort.
            let _ = self.engine.run(|io| io.remove(&tmp));
            return Err(e);
        }
        // Durability point: a no-op on RealIo (the commit is the rename),
        // but injectable, so slow/failing barriers are simulatable.
        self.engine.run(|io| io.sync(&path))
    }

    fn quarantine(&self, config_hash: u64, digest: u64, reason: &str) {
        let path = self.entry_path(config_hash, digest);
        let mut target = path.with_extension("sum.quarantined");
        // Never overwrite earlier evidence: suffix repeat offenders.
        let mut n = 1;
        while target.exists() {
            target = path.with_extension(format!("sum.quarantined.{n}"));
            n += 1;
        }
        if self.engine.run(|io| io.rename(&path, &target)).is_err() {
            symple_obs::counter_add("cache.quarantine_errors", 1);
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
            symple_obs::counter_add("cache.quarantine_errors", 1);
        }
    }

    fn io_counts(&self) -> Option<IoCounts> {
        Some(self.engine.ledger().snapshot())
    }

    // Quarantine listing is a post-mortem/test path, not part of the
    // durability contract, so its directory walk stays on plain `fs`.
    fn quarantined(&self) -> Vec<(u64, u64, String)> {
        let mut out = Vec::new();
        let Ok(config_dirs) = fs::read_dir(&self.root) else {
            return out;
        };
        for config_dir in config_dirs.flatten() {
            let Some(config_hash) = config_dir
                .file_name()
                .to_str()
                .and_then(|s| u64::from_str_radix(s, 16).ok())
            else {
                continue;
            };
            let Ok(entries) = fs::read_dir(config_dir.path()) else {
                continue;
            };
            for entry in entries.flatten() {
                let name = entry.file_name();
                let Some(name) = name.to_str() else { continue };
                if name.ends_with(".reason") {
                    continue;
                }
                let Some(stem) = name
                    .split_once(".sum.quarantined")
                    .map(|(digest, _)| digest)
                else {
                    continue;
                };
                let Ok(digest) = u64::from_str_radix(stem, 16) else {
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
                out.push((config_hash, digest, reason));
            }
        }
        out.sort();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use symple_core::frame::{encode_frame_with_version, FRAME_VERSION};

    const CFG: u64 = 0x1111_2222_3333_4444;
    const DIG: u64 = 0xaaaa_bbbb_cccc_dddd;

    fn ctx(cache: &dyn SummaryCache) -> SummaryCacheCtx<'_> {
        SummaryCacheCtx::new(cache)
    }

    #[test]
    fn mem_cache_round_trip_and_quarantine() {
        let cache = MemSummaryCache::new();
        let c = ctx(&cache);
        assert_eq!(lookup_summary(&c, CFG, DIG), ChunkLookup::Miss);

        save_summary(&c, CFG, DIG, b"payload");
        assert_eq!(
            lookup_summary(&c, CFG, DIG),
            ChunkLookup::Hit(b"payload".to_vec())
        );
        assert_eq!(cache.entry_count(), 1);

        // A different config hash or digest never sees the entry.
        assert_eq!(lookup_summary(&c, CFG + 1, DIG), ChunkLookup::Miss);
        assert_eq!(lookup_summary(&c, CFG, DIG + 1), ChunkLookup::Miss);

        // A forged key — frame recorded for DIG, served under DIG+1 — is
        // caught by the digest comparison and quarantined, bytes retained.
        let frame = cache.raw_frame(CFG, DIG).unwrap();
        cache.insert_raw(CFG, DIG + 1, frame);
        assert_eq!(lookup_summary(&c, CFG, DIG + 1), ChunkLookup::Corrupt);
        assert_eq!(lookup_summary(&c, CFG, DIG + 1), ChunkLookup::Miss);
        let q = cache.quarantined();
        assert_eq!(q.len(), 1);
        assert_eq!((q[0].0, q[0].1), (CFG, DIG + 1));

        // The genuine entry is untouched.
        assert_eq!(
            lookup_summary(&c, CFG, DIG),
            ChunkLookup::Hit(b"payload".to_vec())
        );
    }

    #[test]
    fn mem_cache_trust_bypass_serves_forged_entries() {
        let cache = MemSummaryCache::new();
        let c = ctx(&cache);
        save_summary(&c, CFG, DIG, b"payload");
        let frame = cache.raw_frame(CFG, DIG).unwrap();
        cache.insert_raw(CFG, DIG + 1, frame);

        // With validation, the forged key is quarantined (above); with the
        // sabotage bypass, the wrong payload is served — proving the digest
        // check is what stands between a collision and a wrong answer.
        let trusting = SummaryCacheCtx {
            cache: &cache,
            trust_frame_meta: true,
        };
        assert_eq!(
            lookup_summary(&trusting, CFG, DIG + 1),
            ChunkLookup::Hit(b"payload".to_vec())
        );
    }

    #[test]
    fn mem_cache_tamper_detected_and_eviction_is_silent() {
        let cache = MemSummaryCache::new();
        let c = ctx(&cache);
        save_summary(&c, CFG, DIG, b"payload");
        assert!(cache.tamper(CFG, DIG, |b| b[6] ^= 0x40));
        assert_eq!(lookup_summary(&c, CFG, DIG), ChunkLookup::Corrupt);
        assert_eq!(cache.quarantined().len(), 1);

        save_summary(&c, CFG, DIG, b"payload");
        assert!(cache.evict(CFG, DIG));
        assert!(!cache.evict(CFG, DIG));
        assert_eq!(lookup_summary(&c, CFG, DIG), ChunkLookup::Miss);
        assert_eq!(cache.quarantined().len(), 1, "eviction is not quarantine");
    }

    #[test]
    fn disk_cache_round_trip_and_quarantine() {
        let dir = std::env::temp_dir().join(format!("symple-cache-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let cache = DiskSummaryCache::new(&dir).unwrap();
        let c = ctx(&cache);

        save_summary(&c, CFG, DIG, b"disk payload");
        assert!(cache.entry_path(CFG, DIG).exists());
        assert_eq!(
            lookup_summary(&c, CFG, DIG),
            ChunkLookup::Hit(b"disk payload".to_vec())
        );

        // Version-bumped frame (valid CRC): corrupt, quarantined by
        // rename, reason recorded, bytes still on disk.
        let bad = encode_frame_with_version(FRAME_VERSION + 1, &cache_meta(CFG, DIG), b"x");
        cache.save(CFG, DIG, &bad).unwrap();
        assert_eq!(lookup_summary(&c, CFG, DIG), ChunkLookup::Corrupt);
        assert_eq!(lookup_summary(&c, CFG, DIG), ChunkLookup::Miss);
        let q = cache.quarantined();
        assert_eq!(q.len(), 1);
        assert_eq!((q[0].0, q[0].1), (CFG, DIG));
        assert!(q[0].2.contains("version"), "{}", q[0].2);

        // A second quarantine of the same key keeps both evidence files.
        cache.save(CFG, DIG, &bad).unwrap();
        assert_eq!(lookup_summary(&c, CFG, DIG), ChunkLookup::Corrupt);
        assert_eq!(cache.quarantined().len(), 2);

        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn chunk_digest_separates_concrete_from_symbolic() {
        assert_ne!(chunk_cache_digest(7, true), chunk_cache_digest(7, false));
        assert_ne!(chunk_cache_digest(7, true), chunk_cache_digest(8, true));
        assert_eq!(chunk_cache_digest(7, true), chunk_cache_digest(7, true));
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
        let mut m = base;
        m.reduce_strategy = ReduceStrategy::TreeCompose;
        assert_ne!(cache_config_fingerprint(&m), fp, "reduce_strategy");

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
