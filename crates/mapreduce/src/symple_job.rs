//! The SYMPLE job: UDA computation lifted into the mappers (§5.4).
//!
//! Each mapper groups its segment and *symbolically executes* the UDA per
//! key, emitting one compact [`SummaryChain`] per `(key, mapper)` pair. The
//! globally first segment knows the true initial state and runs concretely
//! (Figure 2's "partial aggregation"); its output is a singleton summary
//! that composes like any other. Reducers sort the chains by mapper id and
//! apply them in order to the UDA's initial state — the data-parallel
//! reduction that matches the sequential semantics exactly.
//!
//! A map task runs one executor over all its keys, reset between them,
//! and memoizes its short cells: a cell whose events repeat an earlier
//! short cell of the same task copies that cell's payload and stats
//! instead of running (`CellMemo`, scoped to the task, so a retried or
//! cached task computes the same bytes).
//!
//! There is one job description, [`SympleJob`], and one way to run it;
//! [`run_symple`] is its store-less, fault-less spelling. Two robustness
//! layers ride on the same shuffle:
//!
//! * **Degraded completion** — a chunk whose engine *refuses* (path
//!   explosion, predicate window, symbolic overflow) ships its raw events
//!   tagged `PAYLOAD_EVENTS` instead of failing the job; the in-order
//!   reducer re-executes them concretely once the prefix state is resolved
//!   and keeps composing symbolically ([`JobConfig::salvage_refused_chunks`]).
//! * **A chunk store** ([`ChunkStore`]) — each completed chunk's emits are
//!   persisted as a CRC-framed record in a [`crate::store::FrameStore`]
//!   and a later run loads valid frames instead of recomputing,
//!   quarantining anything corrupt or stale. The checkpoint policy files
//!   chunks under a job id and position, the cache policy under their
//!   content; both save *inside* the map task, so whatever a killed run
//!   finished is there for the next one.

use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher, RandomState};
use std::ops::Range;

use symple_core::compose::{apply_encoded_chain, WireScratch};
use symple_core::ctx::SymCtx;
use symple_core::engine::{ExploreStats, SymbolicExecutor};
use symple_core::error::{Error, Result};
use symple_core::frame::{FrameMeta, KeyedWordHasher};
use symple_core::summary::SummaryChain;
use symple_core::uda::{extract_result, run_concrete_state, Uda};
use symple_core::wire::{get_bytes, get_len, get_uvarint, put_slice, put_uvarint, Wire, WireError};

use crate::fault::FaultInjector;
use crate::groupby::{sorted_groups, GroupBy, Groups, Key};
use crate::job::{run_phases, Emits, JobConfig, JobOutput};
use crate::metrics::JobMetrics;
use crate::segment::Segment;
use crate::store::{
    self, cache_config_fingerprint, cache_meta, checkpoint_namespace, chunk_cache_digest,
    config_fingerprint, records_digest, CheckpointCtx, ChunkLookup, FrameStore, SummaryCacheCtx,
};
use crate::store_io::IoCounts;

/// Shuffle payload tag: the remaining bytes encode a [`SummaryChain`].
const PAYLOAD_CHAIN: u8 = 0;

/// Shuffle payload tag: the engine refused this `(key, chunk)` cell, so
/// the remaining bytes encode its raw events (`NeedsConcrete`) for
/// in-order concrete re-execution at the reducer.
const PAYLOAD_EVENTS: u8 = 1;

/// The durable store a job's map chunks are looked up in and persisted to,
/// and the keying policy they are filed under.
///
/// A job has at most one: attaching both a checkpoint store and a summary
/// cache is not expressible.
#[derive(Clone, Copy)]
pub enum ChunkStore<'a> {
    /// No store: every chunk is computed, nothing is hashed or persisted.
    None,
    /// Per-job checkpoints keyed by `(job id, chunk position)`: a rerun of
    /// the same job id after a mid-map kill resumes from the chunks the
    /// dead run finished. [`JobMetrics`]
    /// reports `checkpoint_hits + checkpoint_misses + checkpoint_corrupt
    /// ==` chunk count.
    Checkpoint(&'a CheckpointCtx<'a>),
    /// The cross-job summary cache keyed by `(config fingerprint, chunk
    /// content digest)`, so a warm resweep after an append or edit
    /// recomputes only the dirty chunks — and a rerun after a mid-map kill
    /// hits every chunk the dead run finished. [`JobMetrics`] reports
    /// `cache_hits + cache_misses + cache_corrupt ==` chunk count; how two
    /// chunks of *identical* content in one cold job split between miss
    /// and hit depends on which task saves first, their sum does not.
    Cache(&'a SummaryCacheCtx<'a>),
}

/// How a map task's store lookup resolved (feeds the
/// `checkpoint_*` / `cache_*` hit, miss and corrupt metrics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ChunkStatus {
    /// Valid frame loaded; the chunk was not recomputed.
    Hit,
    /// No frame stored; computed and saved.
    Miss,
    /// Frame failed validation; quarantined, then computed and re-saved.
    Corrupt,
}

/// Where one chunk's frame is filed — `(namespace, meta.chunk_index)` —
/// and the metadata it must carry to be trusted.
struct ChunkKey {
    namespace: u64,
    meta: FrameMeta,
}

impl<'a> ChunkStore<'a> {
    /// The attached frame store and its `trust_frame_meta` sabotage flag.
    fn frames(&self) -> Option<(&'a dyn FrameStore, bool)> {
        match self {
            ChunkStore::None => None,
            ChunkStore::Checkpoint(ctx) => Some((ctx.store, ctx.trust_frame_meta)),
            ChunkStore::Cache(ctx) => Some((ctx.cache, ctx.trust_frame_meta)),
        }
    }

    /// Policy, part one: the key a chunk is filed under, or `None` without
    /// a store. `records_digest` is only called when a store needs it: the
    /// store-less path never hashes its records.
    fn key(
        &self,
        seg_id: usize,
        cfg: &JobConfig,
        records_digest: impl FnOnce() -> u64,
    ) -> Option<ChunkKey> {
        match self {
            ChunkStore::None => None,
            ChunkStore::Checkpoint(ctx) => Some(ChunkKey {
                namespace: checkpoint_namespace(&ctx.job_id),
                meta: FrameMeta {
                    chunk_index: seg_id as u64,
                    config_hash: config_fingerprint(cfg),
                    input_digest: records_digest(),
                },
            }),
            ChunkStore::Cache(_) => {
                let namespace = cache_config_fingerprint(cfg);
                let runs_concrete = seg_id == 0 && cfg.first_segment_concrete;
                let digest = chunk_cache_digest(records_digest(), runs_concrete);
                Some(ChunkKey {
                    namespace,
                    meta: cache_meta(namespace, digest),
                })
            }
        }
    }

    /// Resolves a chunk against the store, quarantining anything invalid.
    fn lookup(&self, key: &ChunkKey) -> ChunkLookup {
        match self.frames() {
            None => ChunkLookup::Miss,
            Some((frames, trust)) => store::lookup(frames, key.namespace, &key.meta, trust),
        }
    }

    /// Moves a frame that passed the CRC and metadata checks but whose
    /// payload does not parse out of the serving path — never trusted,
    /// never silently deleted.
    fn quarantine(&self, key: &ChunkKey, reason: &str) {
        if let Some((frames, _)) = self.frames() {
            frames.quarantine(key.namespace, key.meta.chunk_index, reason);
        }
    }

    /// Frames and stores a computed chunk (non-fatal on write failure).
    fn save(&self, key: &ChunkKey, payload: &[u8]) {
        if let Some((frames, _)) = self.frames() {
            store::save(frames, key.namespace, &key.meta, payload);
        }
    }

    /// A snapshot of the store's I/O ledger, if it keeps one.
    fn io_counts(&self) -> Option<IoCounts> {
        self.frames().and_then(|(frames, _)| frames.io_counts())
    }

    /// Policy, part two: charges one chunk's lookup outcome to this
    /// policy's [`JobMetrics`] triple.
    fn count(&self, metrics: &mut JobMetrics, status: ChunkStatus, raw_bytes: u64) {
        let (hits, misses, corrupt) = match self {
            ChunkStore::None => return,
            ChunkStore::Checkpoint(_) => (
                &mut metrics.checkpoint_hits,
                &mut metrics.checkpoint_misses,
                &mut metrics.checkpoint_corrupt,
            ),
            ChunkStore::Cache(_) => {
                if status == ChunkStatus::Hit {
                    metrics.cache_bytes_saved += raw_bytes;
                }
                (
                    &mut metrics.cache_hits,
                    &mut metrics.cache_misses,
                    &mut metrics.cache_corrupt,
                )
            }
        };
        match status {
            ChunkStatus::Hit => *hits += 1,
            ChunkStatus::Miss => *misses += 1,
            ChunkStatus::Corrupt => *corrupt += 1,
        }
    }
}

/// One SYMPLE job: configuration, at most one chunk store, optional fault
/// injection. Every way of running the SYMPLE backend is a value of this
/// type handed to [`SympleJob::run`].
#[derive(Clone, Copy)]
pub struct SympleJob<'a> {
    /// Parallelism, engine, first-segment, salvage and scheduler knobs.
    pub cfg: JobConfig,
    /// Where completed map chunks are looked up and persisted.
    pub store: ChunkStore<'a>,
    /// Injected map-attempt crashes, panics and the simulated
    /// process kill — the drills that prove re-execution and resume are
    /// byte-identical to a clean run.
    pub faults: Option<&'a FaultInjector>,
}

impl<'a> SympleJob<'a> {
    /// A job with no store and no faults.
    pub fn new(cfg: JobConfig) -> SympleJob<'a> {
        SympleJob {
            cfg,
            store: ChunkStore::None,
            faults: None,
        }
    }

    /// The same job with `store` attached.
    pub fn with_store(mut self, store: ChunkStore<'a>) -> SympleJob<'a> {
        self.store = store;
        self
    }

    /// The same job with the injector's fault plan applied to its map phase.
    pub fn with_faults(mut self, faults: &'a FaultInjector) -> SympleJob<'a> {
        self.faults = Some(faults);
        self
    }

    /// Runs the job: symbolic UDA in mappers, summary composition in
    /// reducers. Output is byte-identical to [`run_symple`] under the same
    /// config whatever the store held and whichever attempts were faulted.
    /// A run whose store ledgers do not balance at the end
    /// ([`JobMetrics::check_ledgers`]) is an [`Error::LedgerImbalance`].
    pub fn run<G, U>(
        &self,
        g: &G,
        uda: &U,
        segments: &[Segment<G::Record>],
    ) -> Result<JobOutput<G::Key, U::Output>>
    where
        G: GroupBy,
        U: Uda<Event = G::Event>,
        U::Output: Send,
    {
        let (cfg, store) = (&self.cfg, self.store);
        // Stores outlive jobs, so I/O outcomes are attributed to this run
        // as a ledger *delta*: snapshot now, diff at the end.
        let io_start = store.io_counts();
        let template = uda.init();

        let mut out = run_phases(
            segments,
            cfg,
            self.faults,
            |seg| map_task::<G, U>(g, uda, seg, cfg, store),
            |metrics, task: MapTaskOutput<G::Key>| {
                metrics.explore.absorb(task.stats);
                metrics.summary_bytes += task.emits.tally().payload_bytes;
                metrics.chunks_salvaged_concrete += task.salvaged;
                if let Some(status) = task.status {
                    store.count(metrics, status, task.raw_bytes);
                }
                task.emits
            },
            |payloads| {
                let state = compose_payloads(uda, &template, payloads)?;
                extract_result(uda, &state)
            },
        )?;

        if let (Some(start), Some(end)) = (io_start, store.io_counts()) {
            out.metrics.absorb_io(&end.since(&start));
        }
        let chunks = segments.len() as u64;
        let (checkpointed, cached) = match store {
            ChunkStore::None => (0, 0),
            ChunkStore::Checkpoint(_) => (chunks, 0),
            ChunkStore::Cache(_) => (0, chunks),
        };
        out.metrics.check_ledgers(checkpointed, cached)?;
        Ok(out)
    }
}

/// Everything a map task hands back.
struct MapTaskOutput<K> {
    /// Per-key tagged payloads, bucketed by reducer, with their tally.
    emits: Emits<K>,
    /// Engine exploration stats (restored verbatim on a store hit).
    stats: ExploreStats,
    /// `(key, chunk)` cells salvaged as `NeedsConcrete` events.
    salvaged: u64,
    /// Raw input bytes of the segment (what a cache hit saved).
    raw_bytes: u64,
    /// How the store lookup resolved; `None` without a store.
    status: Option<ChunkStatus>,
}

/// Whether an error is an engine *refusal* — the chunk is fine, the
/// symbolic engine just cannot summarize it exactly — as opposed to a
/// failure sequential execution would hit too.
fn is_engine_refusal(e: &Error) -> bool {
    matches!(
        e,
        Error::PathExplosion { .. }
            | Error::PredicateWindowExceeded { .. }
            | Error::ArithmeticOverflow { .. }
    )
}

/// Appends a refused chunk's raw events as a tagged shuffle payload.
fn encode_events_payload<E: Wire>(events: &[E], buf: &mut Vec<u8>) {
    buf.push(PAYLOAD_EVENTS);
    put_slice(buf, events);
}

/// Decodes a `NeedsConcrete` shuffle payload, which must hold nothing but
/// its tag and events.
fn decode_events<E: Wire>(payload: &[u8]) -> Result<Vec<E>> {
    let mut rd = match payload.split_first() {
        Some((&PAYLOAD_EVENTS, rd)) => rd,
        Some((&other, _)) => {
            return Err(Error::Uda(format!("unknown shuffle payload tag {other}")))
        }
        None => return Err(Error::Wire(WireError::UnexpectedEof)),
    };
    let n = get_len(&mut rd).map_err(Error::Wire)?;
    let mut events = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        events.push(E::decode(&mut rd).map_err(Error::Wire)?);
    }
    if !rd.is_empty() {
        return Err(Error::Wire(WireError::TrailingBytes));
    }
    Ok(events)
}

/// Runs the UDA concretely over `events` *continuing from* `state` — the
/// reducer-side salvage step for a `NeedsConcrete` chunk whose prefix
/// state is fully resolved.
fn run_events_from<U: Uda>(uda: &U, mut state: U::State, events: &[U::Event]) -> Result<U::State> {
    let mut ctx = SymCtx::concrete();
    for e in events {
        uda.update(&mut state, &mut ctx, e);
        if let Some(err) = ctx.take_error() {
            return Err(err);
        }
    }
    Ok(state)
}

/// Folds one key's mapper-ordered payload sequence into a final state.
///
/// A running concrete state starts at `template`: chains are applied to it
/// straight from their bytes ([`apply_encoded_chain`], with one
/// [`WireScratch`] per key), event payloads are re-executed concretely in
/// place. The §3.6 tree reduction is not a way the job runs: the oracle's
/// `chunked-tree` column holds it against the sequential result.
fn compose_payloads<U>(uda: &U, template: &U::State, payloads: &[&[u8]]) -> Result<U::State>
where
    U: Uda,
    U::Event: Wire,
{
    let mut state = template.clone();
    let mut scratch = WireScratch::new(template);
    for payload in payloads {
        match payload.split_first() {
            // The wire tier: a chain is applied as it is parsed.
            Some((&PAYLOAD_CHAIN, mut rd)) => {
                let applied = apply_encoded_chain(&mut scratch, &mut rd, &mut state);
                // Leftover bytes are refused ahead of any error the apply
                // reported, unless the chain itself did not parse.
                if !matches!(applied, Err(Error::Wire(_))) && !rd.is_empty() {
                    return Err(Error::Wire(WireError::TrailingBytes));
                }
                applied?;
            }
            _ => state = run_events_from(uda, state, &decode_events(payload)?)?,
        }
    }
    Ok(state)
}

/// Runs a groupby-aggregate job the SYMPLE way: symbolic UDA in mappers,
/// summary composition in reducers. The store-less, fault-less spelling
/// of [`SympleJob::run`].
pub fn run_symple<G, U>(
    g: &G,
    uda: &U,
    segments: &[Segment<G::Record>],
    cfg: &JobConfig,
) -> Result<JobOutput<G::Key, U::Output>>
where
    G: GroupBy,
    U: Uda<Event = G::Event>,
    U::Output: Send,
{
    SympleJob::new(*cfg).run(g, uda, segments)
}

/// Retired: the streaming (pipelined-shuffle) executor was deleted — it
/// measured 1.4–2.4× the barrier job's wall on every benchmark workload.
/// This forwarder to [`run_symple`] exists only because `benchmark/`
/// links the symbol; it goes with the `mapreduce.streaming` row.
pub fn run_symple_streaming<G, U>(
    g: &G,
    uda: &U,
    segments: &[Segment<G::Record>],
    cfg: &JobConfig,
) -> Result<JobOutput<G::Key, U::Output>>
where
    G: GroupBy,
    U: Uda<Event = G::Event>,
    U::Output: Send,
{
    run_symple(g, uda, segments, cfg)
}

/// Serializes a completed chunk for its store frame: the cell count, every
/// cell in key order as `key ‖ payload length ‖ payload` — independent of
/// how many reducers the cells were bucketed for — then the stats and
/// salvage count needed to make a resumed run's metrics identical to an
/// uninterrupted one.
fn encode_checkpoint_payload<K: Key>(
    emits: &Emits<K>,
    stats: &ExploreStats,
    salvaged: u64,
) -> Vec<u8> {
    let tally = emits.tally();
    let mut buf = Vec::with_capacity(tally.shuffle_bytes as usize + 64);
    put_uvarint(&mut buf, tally.shuffle_records);
    for (k, p) in emits.cells() {
        k.encode(&mut buf);
        put_uvarint(&mut buf, p.len() as u64);
        buf.extend_from_slice(p);
    }
    for v in [
        stats.records,
        stats.runs,
        stats.forks,
        stats.merges,
        stats.restarts,
        stats.max_live_paths as u64,
    ] {
        put_uvarint(&mut buf, v);
    }
    put_uvarint(&mut buf, salvaged);
    buf
}

/// Inverse of [`encode_checkpoint_payload`]: every cell goes from the
/// frame straight into the arena of the reducer it is bucketed for.
fn decode_checkpoint_payload<K: Key>(
    bytes: &[u8],
    num_reducers: usize,
) -> std::result::Result<(Emits<K>, ExploreStats, u64), WireError> {
    let mut rd = bytes;
    let mut emits = Emits::new(num_reducers);
    for _ in 0..get_len(&mut rd)? {
        let k = K::decode(&mut rd)?;
        let len = get_len(&mut rd)?;
        let payload = get_bytes(&mut rd, len)?;
        emits.emit(k, |arena| arena.extend_from_slice(payload));
    }
    // The reduce-side merge relies on key order; a frame is outside input,
    // so it is checked, not assumed.
    if !emits.is_sorted() {
        return Err(WireError::KeyOrder);
    }
    let stats = ExploreStats {
        records: get_uvarint(&mut rd)?,
        runs: get_uvarint(&mut rd)?,
        forks: get_uvarint(&mut rd)?,
        merges: get_uvarint(&mut rd)?,
        restarts: get_uvarint(&mut rd)?,
        max_live_paths: get_uvarint(&mut rd)? as usize,
    };
    let salvaged = get_uvarint(&mut rd)?;
    if !rd.is_empty() {
        return Err(WireError::TrailingBytes);
    }
    Ok((emits, stats, salvaged))
}

/// A cell of at most this many events is memoized; a longer one is never
/// looked up, so a task of long cells pays one length check per cell.
const MEMO_MAX_EVENTS: usize = 16;

/// Distinct cells one task's memo holds at most.
const MEMO_MAX_CELLS: usize = 4096;

/// Key and payload bytes one task's memo holds at most.
const MEMO_MAX_BYTES: usize = 1 << 20;

/// One task's memo of short cells: a cell's events, in the wire form a
/// refused cell ships them in (their count, then their [`Wire`]
/// encodings), to the payload and [`ExploreStats`] they produced.
///
/// After [`SymbolicExecutor::reset`] a cell's payload depends on its
/// events alone, so a repeated cell is a lookup. The key is exact: the
/// reducer decodes refused cells from the same bytes, so two cells share
/// a key only if they hold the same events, and a hit compares the whole
/// key — the hasher only places it. The count matters: an event type may
/// encode in no bytes at all (`()` does).
///
/// Refused cells are never remembered. The memo lives for one
/// [`compute_chunk`] call, so a retried or cached task
/// computes the same bytes, and it stops growing when full.
struct CellMemo<S = KeyedWordHasher> {
    table: HashMap<Box<[u8]>, (Range<usize>, ExploreStats), S>,
    /// Every remembered payload, back to back.
    payloads: Vec<u8>,
    /// Key and payload bytes held.
    bytes: usize,
    /// The key of the cell last looked up.
    key: Vec<u8>,
    /// Whether that cell qualifies and is not remembered yet.
    staged: bool,
}

impl CellMemo {
    /// An empty memo whose table is hashed under a fresh random key.
    fn new() -> CellMemo {
        let seed = RandomState::new().build_hasher().finish();
        CellMemo::with_hasher(KeyedWordHasher::new(seed))
    }
}

impl<S: BuildHasher> CellMemo<S> {
    fn with_hasher(hasher: S) -> CellMemo<S> {
        CellMemo {
            table: HashMap::with_hasher(hasher),
            payloads: Vec::new(),
            bytes: 0,
            key: Vec::new(),
            staged: false,
        }
    }

    /// The payload and stats `events` produced earlier in this task, if
    /// they qualify and were remembered. Either way `events` become the
    /// cell a following [`CellMemo::remember`] files under.
    fn lookup<E: Wire>(&mut self, events: &[E]) -> Option<(&[u8], ExploreStats)> {
        self.key.clear();
        self.staged = events.len() <= MEMO_MAX_EVENTS;
        if !self.staged {
            return None;
        }
        put_slice(&mut self.key, events);
        let (range, stats) = self.table.get(self.key.as_slice())?;
        Some((&self.payloads[range.clone()], *stats))
    }

    /// Files `payload` and `stats` under the cell last looked up, unless
    /// it does not qualify or the memo is full.
    fn remember(&mut self, payload: &[u8], stats: ExploreStats) {
        let bytes = self.bytes + self.key.len() + payload.len();
        if !std::mem::take(&mut self.staged)
            || self.table.len() >= MEMO_MAX_CELLS
            || bytes > MEMO_MAX_BYTES
        {
            return;
        }
        self.bytes = bytes;
        let start = self.payloads.len();
        self.payloads.extend_from_slice(payload);
        let range = start..self.payloads.len();
        self.table
            .insert(self.key.as_slice().into(), (range, stats));
    }
}

/// Executes one chunk's per-key aggregation: concrete for the globally
/// first segment, symbolic otherwise, salvaging engine refusals as
/// `NeedsConcrete` event payloads when the config allows. One executor
/// serves every key, [`SymbolicExecutor::reset`] between them, and writes
/// each chain straight into the emit arena; a cell that repeats an earlier
/// short cell of the task copies that cell's payload and stats from a
/// [`CellMemo`] instead of running. The task allocates per segment and
/// per distinct short cell, not per `(key, chunk)` cell.
fn compute_chunk<U, K>(
    uda: &U,
    seg_id: usize,
    cfg: &JobConfig,
    groups: &Groups<K, U::Event>,
) -> Result<(Emits<K>, ExploreStats, u64)>
where
    U: Uda,
    U::Event: Wire,
    K: Key,
{
    let mut emits = Emits::new(cfg.num_reducers);
    let mut stats = ExploreStats::default();
    let mut salvaged = 0u64;
    let mut exec = SymbolicExecutor::new(uda, cfg.engine);
    let mut memo = CellMemo::new();
    for (key, events) in groups.iter() {
        if let Some((payload, cell_stats)) = memo.lookup(events) {
            stats.absorb(cell_stats);
            emits.emit(key.clone(), |buf| buf.extend_from_slice(payload));
            continue;
        }
        if seg_id == 0 && cfg.first_segment_concrete {
            // The globally first segment holds every present key's first
            // chunk: run concretely from the true initial state (§2.2).
            // Errors here would hit sequential execution identically, so
            // they propagate rather than salvage.
            let state = run_concrete_state(uda, events)?;
            emits.emit(key.clone(), |buf| {
                let start = buf.len();
                buf.push(PAYLOAD_CHAIN);
                SummaryChain::encode_singleton(&state, buf);
                memo.remember(&buf[start..], ExploreStats::default());
            });
            continue;
        }
        exec.reset();
        // `feed_slice` applies calm records in place, once per group of
        // agreeing live paths; it is byte-identical to per-record `feed`
        // (executor tests pin this), so summaries and caches are unaffected.
        match exec.feed_slice(events) {
            Ok(()) => {
                let cell_stats = exec.stats();
                stats.absorb(cell_stats);
                emits.emit(key.clone(), |buf| {
                    let start = buf.len();
                    buf.push(PAYLOAD_CHAIN);
                    exec.encode_chain(buf);
                    memo.remember(&buf[start..], cell_stats);
                });
            }
            Err(e) if cfg.salvage_refused_chunks && is_engine_refusal(&e) => {
                // Degraded completion: ship the raw events instead of
                // failing the job; the reducer re-executes them
                // concretely once the prefix state is resolved.
                salvaged += 1;
                emits.emit(key.clone(), |buf| encode_events_payload(events, buf));
            }
            Err(e) => return Err(e),
        }
    }
    Ok((emits, stats, salvaged))
}

/// One SYMPLE map task: digest → lookup → decode → hit, or parse and
/// group → compute → save. The key is taken over the raw records, so a
/// hit parses and groups nothing. The only policy-specific part is the
/// key ([`ChunkStore::key`]); the save happens here, inside the task, so a
/// finished chunk outlives its job.
fn map_task<G, U>(
    g: &G,
    uda: &U,
    seg: &Segment<G::Record>,
    cfg: &JobConfig,
    store: ChunkStore<'_>,
) -> Result<MapTaskOutput<G::Key>>
where
    G: GroupBy,
    U: Uda<Event = G::Event>,
{
    let compute = || compute_chunk(uda, seg.id, cfg, &sorted_groups(g, &seg.records));
    let output = |(emits, stats, salvaged), status| MapTaskOutput {
        emits,
        stats,
        salvaged,
        raw_bytes: seg.raw_bytes,
        status,
    };

    let Some(key) = store.key(seg.id, cfg, || records_digest::<G, U>(&seg.records)) else {
        return Ok(output(compute()?, None));
    };
    let status = match store.lookup(&key) {
        ChunkLookup::Hit(payload) => match decode_checkpoint_payload(&payload, cfg.num_reducers) {
            Ok(chunk) => return Ok(output(chunk, Some(ChunkStatus::Hit))),
            Err(e) => {
                store.quarantine(&key, &format!("payload decode: {e}"));
                ChunkStatus::Corrupt
            }
        },
        ChunkLookup::Miss => ChunkStatus::Miss,
        ChunkLookup::Corrupt => ChunkStatus::Corrupt,
    };
    let (emits, stats, salvaged) = compute()?;
    store.save(&key, &encode_checkpoint_payload(&emits, &stats, salvaged));
    Ok(output((emits, stats, salvaged), Some(status)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::run_baseline;
    use crate::segment::split_into_segments;
    use crate::store::MemStore;
    use std::hash::BuildHasherDefault;
    use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};
    use symple_core::compose::apply_chain;
    use symple_core::ctx::SymCtx;
    use symple_core::impl_sym_state;
    use symple_core::state::SymState;
    use symple_core::summary::Summary;
    use symple_core::types::{sym_bool::SymBool, sym_int::SymInt, sym_vector::SymVector};

    struct ByMod;
    impl GroupBy for ByMod {
        type Record = i64;
        type Key = u8;
        type Event = i64;
        fn extract(&self, r: &i64) -> Option<(u8, i64)> {
            Some(((r % 5) as u8, *r))
        }
    }

    /// A stateful UDA: report runs of ≥ 3 consecutive increasing values.
    struct RunsUda;
    #[derive(Clone, Debug)]
    struct RunsState {
        active: SymBool,
        len: SymInt,
        out: SymVector<i64>,
    }
    impl_sym_state!(RunsState { active, len, out });
    impl Uda for RunsUda {
        type State = RunsState;
        type Event = i64;
        type Output = Vec<i64>;
        fn init(&self) -> RunsState {
            RunsState {
                active: SymBool::new(false),
                len: SymInt::new(0),
                out: SymVector::new(),
            }
        }
        fn update(&self, s: &mut RunsState, ctx: &mut SymCtx, e: &i64) {
            if *e % 2 == 0 {
                s.len += 1;
                s.active.assign(true);
            } else {
                if s.active.get(ctx) && s.len.ge(ctx, 3) {
                    s.out.push_int(&s.len);
                }
                s.len.assign(0);
                s.active.assign(false);
            }
        }
        fn result(&self, s: &RunsState, _ctx: &mut SymCtx) -> Vec<i64> {
            s.out.concrete_elems().expect("concrete")
        }
    }

    type Output = Result<JobOutput<u8, Vec<i64>>>;

    fn chain_payload<S: SymState>(chain: &SummaryChain<S>) -> Vec<u8> {
        let mut buf = vec![PAYLOAD_CHAIN];
        chain.encode(&mut buf);
        buf
    }

    fn events_payload(events: &[i64]) -> Vec<u8> {
        let mut buf = Vec::new();
        encode_events_payload(events, &mut buf);
        buf
    }

    fn run_checkpointed(segs: &[Segment<i64>], cfg: &JobConfig, ctx: &CheckpointCtx<'_>) -> Output {
        SympleJob::new(*cfg)
            .with_store(ChunkStore::Checkpoint(ctx))
            .run(&ByMod, &RunsUda, segs)
    }

    fn run_cached(segs: &[Segment<i64>], cfg: &JobConfig, ctx: &SummaryCacheCtx<'_>) -> Output {
        SympleJob::new(*cfg)
            .with_store(ChunkStore::Cache(ctx))
            .run(&ByMod, &RunsUda, segs)
    }

    #[test]
    fn symple_matches_baseline() {
        let records: Vec<i64> = (0..200).map(|i| (i * 13 + 7) % 97).collect();
        for n_seg in [1, 3, 8] {
            let segments = split_into_segments(&records, n_seg, 1024);
            let cfg = JobConfig::default();
            let base = run_baseline(&ByMod, &RunsUda, &segments, &cfg).unwrap();
            let sym = run_symple(&ByMod, &RunsUda, &segments, &cfg).unwrap();
            assert_eq!(base.results, sym.results, "segments = {n_seg}");
        }
    }

    #[test]
    fn symple_shuffles_fewer_bytes_with_few_groups() {
        // Many records, 5 groups: summaries beat event lists massively.
        let records: Vec<i64> = (0..5000).map(|i| (i * 31 + 3) % 1009).collect();
        let segments = split_into_segments(&records, 8, 1024);
        let cfg = JobConfig::default();
        let base = run_baseline(&ByMod, &RunsUda, &segments, &cfg).unwrap();
        let sym = run_symple(&ByMod, &RunsUda, &segments, &cfg).unwrap();
        assert_eq!(base.results, sym.results);
        // Events here are tiny (2-byte varints), so the reduction is far
        // smaller than with the paper's ≈1 KB records; 3x is conservative.
        assert!(
            sym.metrics.shuffle_bytes * 3 < base.metrics.shuffle_bytes,
            "expected ≥3x shuffle reduction: symple={} baseline={}",
            sym.metrics.shuffle_bytes,
            base.metrics.shuffle_bytes
        );
    }

    #[test]
    fn explore_stats_populated() {
        let records: Vec<i64> = (0..100).collect();
        let segments = split_into_segments(&records, 4, 64);
        let sym = run_symple(&ByMod, &RunsUda, &segments, &JobConfig::default()).unwrap();
        assert!(sym.metrics.explore.records > 0);
        assert!(sym.metrics.explore.runs >= sym.metrics.explore.records);
    }

    #[test]
    fn deterministic_across_runs() {
        // Failed map tasks are re-executed in real deployments; our tasks
        // must be deterministic for that to be safe.
        let records: Vec<i64> = (0..300).map(|i| (i * 17) % 53).collect();
        let segments = split_into_segments(&records, 6, 512);
        let cfg = JobConfig::default();
        let a = run_symple(&ByMod, &RunsUda, &segments, &cfg).unwrap();
        let b = run_symple(&ByMod, &RunsUda, &segments, &cfg).unwrap();
        assert_eq!(a.results, b.results);
        assert_eq!(a.metrics.shuffle_bytes, b.metrics.shuffle_bytes);
    }

    #[test]
    fn single_segment_runs_fully_concrete() {
        let records: Vec<i64> = (0..50).collect();
        let segments = split_into_segments(&records, 1, 64);
        let sym = run_symple(&ByMod, &RunsUda, &segments, &JobConfig::default()).unwrap();
        assert_eq!(sym.metrics.explore.forks, 0, "first segment never forks");
    }

    #[test]
    fn salvaged_concrete_composes_at_chain_boundaries_both_orders() {
        // A `NeedsConcrete` chunk adjacent to an *empty* chain must compose
        // correctly in both orders. The empty chain contributes nothing;
        // the salvaged events must see exactly the running prefix state.
        let uda = RunsUda;
        let template = uda.init();
        let events: Vec<i64> = vec![2, 4, 6, 8, 1, 2, 3];
        let expect =
            extract_result(&uda, &run_concrete_state(&uda, events.iter()).unwrap()).unwrap();

        let empty_chain = chain_payload(&SummaryChain::<RunsState>::new(vec![]));
        let events_payload = events_payload(&events);

        // Empty chain first, then the salvaged chunk.
        let payloads: Vec<&[u8]> = vec![&empty_chain, &events_payload];
        let state = compose_payloads(&uda, &template, &payloads).unwrap();
        assert_eq!(
            extract_result(&uda, &state).unwrap(),
            expect,
            "empty-then-concrete"
        );

        // Salvaged chunk first, then the empty chain.
        let payloads: Vec<&[u8]> = vec![&events_payload, &empty_chain];
        let state = compose_payloads(&uda, &template, &payloads).unwrap();
        assert_eq!(
            extract_result(&uda, &state).unwrap(),
            expect,
            "concrete-then-empty"
        );
    }

    #[test]
    fn salvaged_between_real_chains_matches_sequential() {
        // chain(prefix) → NeedsConcrete(middle) → chain(suffix) equals
        // one sequential pass.
        let uda = RunsUda;
        let template = uda.init();
        let prefix: Vec<i64> = vec![2, 4, 1];
        let middle: Vec<i64> = vec![2, 2, 2, 2, 3];
        let suffix: Vec<i64> = vec![6, 8, 10, 5];
        let all: Vec<i64> = prefix
            .iter()
            .chain(&middle)
            .chain(&suffix)
            .copied()
            .collect();
        let expect = extract_result(&uda, &run_concrete_state(&uda, all.iter()).unwrap()).unwrap();

        let cfg = symple_core::engine::EngineConfig::default();
        let prefix_chain = {
            let mut exec = SymbolicExecutor::new(&uda, cfg);
            exec.feed_all(prefix.iter()).unwrap();
            chain_payload(&exec.finish().0)
        };
        let suffix_chain = {
            let mut exec = SymbolicExecutor::new(&uda, cfg);
            exec.feed_all(suffix.iter()).unwrap();
            chain_payload(&exec.finish().0)
        };
        let middle_events = events_payload(&middle);

        let payloads: Vec<&[u8]> = vec![&prefix_chain, &middle_events, &suffix_chain];
        let state = compose_payloads(&uda, &template, &payloads).unwrap();
        assert_eq!(extract_result(&uda, &state).unwrap(), expect);
    }

    /// A state whose aggregate comes *before* the scalar that decides a
    /// path, so the wire tier stitches a path's vector before it knows
    /// whether the path holds. Negative events are output, the others add
    /// up in `len`.
    struct VecFirstUda;
    #[derive(Clone, Debug)]
    struct VecFirst {
        out: SymVector<i64>,
        len: SymInt,
    }
    impl_sym_state!(VecFirst { out, len });
    impl Uda for VecFirstUda {
        type State = VecFirst;
        type Event = i64;
        type Output = Vec<i64>;
        fn init(&self) -> VecFirst {
            VecFirst {
                out: SymVector::new(),
                len: SymInt::new(0),
            }
        }
        fn update(&self, s: &mut VecFirst, _ctx: &mut SymCtx, e: &i64) {
            if *e < 0 {
                s.out.push(*e);
            } else {
                s.len += *e;
            }
        }
        fn result(&self, s: &VecFirst, _ctx: &mut SymCtx) -> Vec<i64> {
            s.out.concrete_elems().expect("concrete")
        }
    }

    /// One hand-built path: holds for `len < 3` (`low`) or for `len ≥ 3`.
    fn vec_first_path(low: bool, build: impl FnOnce(&mut VecFirst)) -> VecFirst {
        let mut s = VecFirstUda.init();
        symple_core::state::make_state_symbolic(&mut s);
        let mut ctx = SymCtx::symbolic();
        assert!(if low {
            s.len.lt(&mut ctx, 3)
        } else {
            s.len.ge(&mut ctx, 3)
        });
        build(&mut s);
        s
    }

    /// A one-summary chain payload of `paths`, applied after a salvaged
    /// cell that leaves `out = [-3]`, `len = 4` — so the second kind of path
    /// is the one that holds and the running vector is not empty. The wire
    /// tier must report what the owned tier reports — the salvaged events
    /// run concretely, the chain decoded whole, refused if bytes trail it,
    /// then applied; `edit` corrupts the chain's bytes first.
    fn after_salvaged_cell(
        paths: Vec<VecFirst>,
        edit: impl FnOnce(&mut Vec<u8>),
    ) -> Result<Vec<i64>> {
        let uda = VecFirstUda;
        let salvaged = [-3, 4];
        let mut chain = chain_payload(&SummaryChain::single(Summary::new(paths)));
        edit(&mut chain);
        let payloads: [&[u8]; 2] = [&events_payload(&salvaged), &chain];
        let wire = compose_payloads(&uda, &uda.init(), &payloads)
            .and_then(|state| extract_result(&uda, &state));

        let owned = run_concrete_state(&uda, &salvaged).and_then(|state| {
            let mut rd = &chain[1..];
            let decoded = SummaryChain::decode(&uda.init(), &mut rd).map_err(Error::Wire)?;
            if !rd.is_empty() {
                return Err(Error::Wire(WireError::TrailingBytes));
            }
            extract_result(&uda, &apply_chain(&decoded, &state)?)
        });
        assert_eq!(wire, owned);
        wire
    }

    /// An element no state can resolve: it references the vector itself,
    /// which has no scalar transfer.
    fn push_unresolvable(s: &mut VecFirst) {
        s.out
            .push_scalar(symple_core::types::scalar::SymScalar::Affine {
                field: symple_core::state::FieldId(0),
                a: 1,
                b: 0,
            });
    }

    #[test]
    fn wire_tier_stitches_back_referenced_tails_onto_the_running_vector() {
        let push = |elems: &'static [i64]| {
            move |s: &mut VecFirst| elems.iter().for_each(|e| s.out.push(*e))
        };

        // R3's shape: the second path holds and its vector is its sibling's,
        let whole = vec![
            vec_first_path(true, push(&[7, 8])),
            vec_first_path(false, push(&[7, 8])),
        ];
        // whole — two bytes on the wire (`has_tail`, 2) before `len`'s two.
        let got = after_salvaged_cell(whole.clone(), |bytes| {
            assert_eq!(bytes[bytes.len() - 4..][..2], [1, 2]);
        });
        assert_eq!(got, Ok(vec![-3, 7, 8]));

        // Own leading elements (one of them symbolic: `len` is 4 by then),
        // then the last two of the sibling's three.
        let partial = vec![
            vec_first_path(true, push(&[5, 7, 8])),
            vec_first_path(false, |s| {
                s.out.push_int(&s.len);
                push(&[9, 7, 8])(s);
            }),
        ];
        assert_eq!(
            after_salvaged_cell(partial, |_| {}),
            Ok(vec![-3, 4, 9, 7, 8])
        );

        // A back-reference is measured against the sibling's own two
        // elements, not the three the output holds once they are appended.
        let too_long = after_salvaged_cell(whole, |bytes| {
            let n = bytes.len() - 3;
            bytes[n] = 3;
        });
        assert_eq!(
            too_long,
            Err(Error::Wire(WireError::BackReference {
                len: 3,
                available: 2
            }))
        );
    }

    #[test]
    fn wire_tier_raises_an_aggregate_error_only_for_the_path_that_holds() {
        let fine = |s: &mut VecFirst| s.out.push(7);
        let unresolvable = |r: Result<Vec<i64>>| matches!(r, Err(Error::Uda(_)));

        // On the path the scalars rule out — after its vector was read.
        let paths = vec![
            vec_first_path(true, push_unresolvable),
            vec_first_path(false, fine),
        ];
        assert_eq!(after_salvaged_cell(paths, |_| {}), Ok(vec![-3, 7]));

        // On the path that holds, whichever comes first.
        let paths = vec![
            vec_first_path(true, fine),
            vec_first_path(false, push_unresolvable),
        ];
        assert!(unresolvable(after_salvaged_cell(paths, |_| {})));
        let paths = vec![
            vec_first_path(false, push_unresolvable),
            vec_first_path(true, fine),
        ];
        assert!(unresolvable(after_salvaged_cell(paths, |_| {})));

        // Inherited whole from the ruled-out sibling: sharing its list must
        // not lose the error.
        let paths = vec![
            vec_first_path(true, push_unresolvable),
            vec_first_path(false, push_unresolvable),
        ];
        assert!(unresolvable(after_salvaged_cell(paths, |_| {})));
    }

    #[test]
    fn wire_tier_wants_exactly_one_holding_path() {
        let path = |low| vec_first_path(low, |_| {});
        assert_eq!(
            after_salvaged_cell(vec![path(true)], |_| {}),
            Err(Error::IncompleteSummary)
        );
        assert_eq!(
            after_salvaged_cell(vec![path(false), path(true), path(false)], |_| {}),
            Err(Error::OverlappingSummary)
        );
        // Bytes after the chain are refused before either is reported.
        assert_eq!(
            after_salvaged_cell(vec![path(true)], |bytes| bytes.push(0)),
            Err(Error::Wire(WireError::TrailingBytes))
        );
    }

    #[test]
    fn payloads_with_trailing_bytes_are_refused() {
        let uda = RunsUda;
        let template = uda.init();
        let chain = SummaryChain::single(Summary::singleton(template.clone()));
        for mut payload in [chain_payload(&chain), events_payload(&[2, 4, 1])] {
            assert!(compose_payloads(&uda, &template, &[&payload]).is_ok());
            payload.push(0);
            assert!(matches!(
                compose_payloads(&uda, &template, &[&payload]),
                Err(Error::Wire(WireError::TrailingBytes))
            ));
        }

        let mut emits = Emits::new(3);
        emits.emit(1u8, |buf| buf.extend(chain_payload(&chain)));
        emits.emit(4u8, |buf| encode_events_payload(&[7i64], buf));
        let mut frame = encode_checkpoint_payload(&emits, &ExploreStats::default(), 1);
        // A frame's payload does not depend on the reducer count it was
        // computed under, and decodes for any.
        for reducers in [1, 3, 8] {
            let (back, _, salvaged) = decode_checkpoint_payload::<u8>(&frame, reducers).unwrap();
            assert_eq!(salvaged, 1);
            assert_eq!(
                encode_checkpoint_payload(&back, &ExploreStats::default(), 1),
                frame
            );
        }
        frame.push(0);
        assert_eq!(
            decode_checkpoint_payload::<u8>(&frame, 3).err(),
            Some(WireError::TrailingBytes)
        );
    }

    #[test]
    fn frames_with_unsorted_keys_are_refused() {
        // Cells `4` then `1`: well-formed bytes the reduce-side merge
        // would mis-group.
        let mut frame = vec![2, 4, 1, 9, 1, 1, 9];
        frame.extend([0; 7]);
        assert_eq!(
            decode_checkpoint_payload::<u8>(&frame, 1).err(),
            Some(WireError::KeyOrder)
        );
        frame[1] = 0;
        assert!(decode_checkpoint_payload::<u8>(&frame, 1).is_ok());
    }

    #[test]
    fn refused_chunks_salvage_instead_of_failing() {
        // A path bound of 1 makes every symbolic fork refuse; with salvage
        // on (the default) the job must still match the baseline, with the
        // salvage counted. With salvage off it must surface the refusal.
        let records: Vec<i64> = (0..400).map(|i| (i * 13 + 7) % 97).collect();
        let segments = split_into_segments(&records, 6, 64);
        let mut cfg = JobConfig::default();
        cfg.engine.max_paths_per_record = 1;

        let base = run_baseline(&ByMod, &RunsUda, &segments, &cfg).unwrap();
        let sym = run_symple(&ByMod, &RunsUda, &segments, &cfg).unwrap();
        assert_eq!(base.results, sym.results);
        assert!(
            sym.metrics.chunks_salvaged_concrete > 0,
            "expected refusals under max_paths_per_record = 1"
        );

        cfg.salvage_refused_chunks = false;
        let hard = run_symple(&ByMod, &RunsUda, &segments, &cfg);
        assert!(
            matches!(hard, Err(Error::PathExplosion { .. })),
            "salvage off must restore hard failure, got {hard:?}"
        );
    }

    /// The reference [`compute_chunk`] must match: every cell on its own,
    /// with a fresh executor and an owned chain, or a concrete state for a
    /// concrete first segment.
    fn fresh_per_cell<U: Uda<Event = i64>>(
        uda: &U,
        seg_id: usize,
        cfg: &JobConfig,
        groups: &Groups<u8, i64>,
    ) -> (Vec<(u8, Vec<u8>)>, ExploreStats, u64) {
        let mut cells = Vec::new();
        let mut stats = ExploreStats::default();
        let mut salvaged = 0;
        for (key, events) in groups.iter() {
            if seg_id == 0 && cfg.first_segment_concrete {
                let state = run_concrete_state(uda, events).unwrap();
                let chain = SummaryChain::single(Summary::singleton(state));
                cells.push((*key, chain_payload(&chain)));
                continue;
            }
            let mut exec = SymbolicExecutor::new(uda, cfg.engine);
            cells.push(match exec.feed_slice(events) {
                Ok(()) => {
                    let (chain, cell_stats) = exec.finish();
                    stats.absorb(cell_stats);
                    (*key, chain_payload(&chain))
                }
                Err(_) => {
                    salvaged += 1;
                    (*key, events_payload(events))
                }
            });
        }
        (cells, stats, salvaged)
    }

    fn cells_of(emits: &Emits<u8>) -> Vec<(u8, Vec<u8>)> {
        emits.cells().map(|(k, p)| (*k, p.to_vec())).collect()
    }

    #[test]
    fn a_refused_cell_leaves_its_neighbours_and_the_task_stats_alone() {
        // Keys 0 and 2 fork once (evens, then an odd); key 1 opens on an
        // odd, forks three ways and trips the bound with the executor's
        // output half written — and the same executor serves key 2 next.
        let mut cfg = JobConfig::default();
        cfg.engine.max_paths_per_record = 2;
        let records = [10, 1, 2, 20, 6, 12, 5, 11, 7, 22];
        let groups = sorted_groups(&ByMod, &records);
        let (emits, stats, salvaged) = compute_chunk(&RunsUda, 1, &cfg, &groups).unwrap();

        let (want, want_stats, want_salvaged) = fresh_per_cell(&RunsUda, 1, &cfg, &groups);
        let tags: Vec<u8> = want.iter().map(|(_, payload)| payload[0]).collect();
        assert_eq!(tags, [PAYLOAD_CHAIN, PAYLOAD_EVENTS, PAYLOAD_CHAIN]);
        assert_eq!(cells_of(&emits), want);
        assert_eq!((stats, salvaged), (want_stats, want_salvaged));
        assert_eq!(salvaged, 1);
        assert!(stats.forks > 0, "the ordinary cells must fork");

        // And through the job: segment 0 concrete, segment 1 as above.
        let segments = split_into_segments(&[records, records].concat(), 2, 64);
        let sym = run_symple(&ByMod, &RunsUda, &segments, &cfg).unwrap();
        let base = run_baseline(&ByMod, &RunsUda, &segments, &cfg).unwrap();
        assert_eq!(sym.results, base.results);
        assert_eq!(sym.metrics.chunks_salvaged_concrete, 1);
        assert_eq!(sym.metrics.explore, stats);
    }

    /// `(key, event)` records: the key does not shape the event, so any
    /// two keys may hold the same cell.
    struct Pairs;
    impl GroupBy for Pairs {
        type Record = (u8, i64);
        type Key = u8;
        type Event = i64;
        fn extract(&self, r: &(u8, i64)) -> Option<(u8, i64)> {
            Some(*r)
        }
    }

    /// Cell `k` of `cells` under key `k`, each a run of records.
    fn pairs_records(cells: &[Vec<i64>]) -> Vec<(u8, i64)> {
        let mut records = Vec::new();
        for (k, events) in cells.iter().enumerate() {
            records.extend(events.iter().map(|e| (k as u8, *e)));
        }
        records
    }

    /// `len` events of [`RunsUda`] that never fork three ways: runs of
    /// evens closed by an odd.
    fn calm_cell(len: usize) -> Vec<i64> {
        (0..len).map(|i| [2, 4, 6, 1][i % 4]).collect()
    }

    #[test]
    fn memoized_cells_are_byte_identical_to_fresh_ones() {
        let refused = vec![1, 6, 11];
        let limit = calm_cell(MEMO_MAX_EVENTS);
        let mut limit_other_last = limit.clone();
        limit_other_last[MEMO_MAX_EVENTS - 1] = 8;
        let over = calm_cell(MEMO_MAX_EVENTS + 1);
        let cells = [
            vec![2, 4, 6],
            vec![2, 4, 6],
            vec![2, 4, 7],
            refused.clone(),
            limit.clone(),
            refused,
            limit,
            limit_other_last,
            over.clone(),
            over,
            vec![2, 4, 7],
        ];
        let records = pairs_records(&cells);
        let groups = sorted_groups(&Pairs, &records);
        let mut cfg = JobConfig::default();
        cfg.engine.max_paths_per_record = 2;
        for seg_id in [0, 1] {
            let (emits, stats, salvaged) = compute_chunk(&RunsUda, seg_id, &cfg, &groups).unwrap();
            let (want, want_stats, want_salvaged) = fresh_per_cell(&RunsUda, seg_id, &cfg, &groups);
            assert_eq!(cells_of(&emits), want, "segment {seg_id}");
            assert_eq!((stats, salvaged), (want_stats, want_salvaged));
            // Cells that differ in their last event only differ in payload.
            assert_ne!(want[0].1, want[2].1);
            assert_ne!(want[4].1, want[7].1);
            if seg_id == 1 {
                assert_eq!(salvaged, 2, "each refused cell salvages");
                assert!(stats.forks > 0);
            }
        }

        // And through the job: segment 0 concrete, segment 1 symbolic.
        let segments = split_into_segments(&[records.clone(), records].concat(), 2, 64);
        let sym = run_symple(&Pairs, &RunsUda, &segments, &cfg).unwrap();
        let base = run_baseline(&Pairs, &RunsUda, &segments, &cfg).unwrap();
        assert_eq!(sym.results, base.results);
        assert_eq!(sym.metrics.chunks_salvaged_concrete, 2);
    }

    /// [`RunsUda`] counting its `update` calls.
    struct CountingUda(AtomicUsize);
    impl Uda for CountingUda {
        type State = RunsState;
        type Event = i64;
        type Output = Vec<i64>;
        fn init(&self) -> RunsState {
            RunsUda.init()
        }
        fn update(&self, s: &mut RunsState, ctx: &mut SymCtx, e: &i64) {
            self.0.fetch_add(1, AtomicOrdering::Relaxed);
            RunsUda.update(s, ctx, e);
        }
        fn result(&self, s: &RunsState, ctx: &mut SymCtx) -> Vec<i64> {
            RunsUda.result(s, ctx)
        }
    }

    #[test]
    fn a_repeated_short_cell_runs_once_per_task() {
        let cfg = JobConfig::default();
        let updates = |cells: &[Vec<i64>], seg_id| {
            let uda = CountingUda(AtomicUsize::new(0));
            let groups = sorted_groups(&Pairs, &pairs_records(cells));
            compute_chunk(&uda, seg_id, &cfg, &groups).unwrap();
            uda.0.into_inner()
        };
        const N: usize = 20;
        for seg_id in [0, 1] {
            for len in [3, MEMO_MAX_EVENTS, MEMO_MAX_EVENTS + 1] {
                let cell = calm_cell(len);
                let once = updates(std::slice::from_ref(&cell), seg_id);
                let want = if len <= MEMO_MAX_EVENTS {
                    once
                } else {
                    N * once
                };
                assert!(once >= len);
                assert_eq!(
                    updates(&vec![cell; N], seg_id),
                    want,
                    "segment {seg_id}, {len} events"
                );
            }
        }
    }

    /// Hashes every key alike.
    #[derive(Default)]
    struct Collide;
    impl Hasher for Collide {
        fn write(&mut self, _: &[u8]) {}
        fn finish(&self) -> u64 {
            0
        }
    }

    #[test]
    fn a_memo_hit_compares_the_whole_key() {
        let mut memo = CellMemo::with_hasher(BuildHasherDefault::<Collide>::default());
        let stats = |runs| ExploreStats {
            runs,
            ..ExploreStats::default()
        };
        let cells: [(&[i64], &[u8]); 3] = [(&[1, 2], b"a"), (&[1, 3], b"bb"), (&[2, 1], b"c")];
        for (i, (events, payload)) in cells.iter().enumerate() {
            assert_eq!(memo.lookup(events), None);
            memo.remember(payload, stats(i as u64));
        }
        for (i, (events, payload)) in cells.iter().enumerate() {
            assert_eq!(memo.lookup(events), Some((*payload, stats(i as u64))));
        }
        assert_eq!(memo.lookup(&[1i64]), None);
        assert_eq!(memo.lookup(&[1i64, 2, 3]), None);

        // Events that encode in no bytes differ in number alone.
        let mut memo = CellMemo::new();
        assert_eq!(memo.lookup(&[(); 1]), None);
        memo.remember(b"one", stats(1));
        assert_eq!(memo.lookup(&[(); 2]), None);
        assert_eq!(memo.lookup(&[(); 1]), Some((&b"one"[..], stats(1))));
    }

    #[test]
    fn a_full_memo_keeps_serving_and_stops_growing() {
        let mut memo = CellMemo::new();
        for i in 0..MEMO_MAX_CELLS as i64 + 10 {
            assert_eq!(memo.lookup(&[i]), None);
            memo.remember(&[7], ExploreStats::default());
        }
        assert_eq!(memo.table.len(), MEMO_MAX_CELLS);
        assert!(memo.lookup(&[0i64]).is_some());
        assert!(memo.lookup(&[MEMO_MAX_CELLS as i64]).is_none());

        let mut memo = CellMemo::new();
        let half = vec![7; MEMO_MAX_BYTES / 2];
        for i in 0..2i64 {
            memo.lookup(&[i]);
            memo.remember(&half, ExploreStats::default());
        }
        assert!(memo.lookup(&[0i64]).is_some());
        assert!(memo.lookup(&[1i64]).is_none(), "its key overflows the cap");
        assert!(memo.bytes <= MEMO_MAX_BYTES);

        // A cell over the event limit is neither served nor remembered.
        let over = calm_cell(MEMO_MAX_EVENTS + 1);
        memo.lookup(&over);
        memo.remember(&[7], ExploreStats::default());
        assert_eq!(memo.lookup(&over), None);
    }

    #[test]
    fn checkpointed_rerun_hits_every_chunk() {
        let records: Vec<i64> = (0..600).map(|i| (i * 29 + 11) % 131).collect();
        let segments = split_into_segments(&records, 5, 64);
        let cfg = JobConfig::default();
        let store = MemStore::new();
        let ctx = CheckpointCtx::new(&store, "unit-job");

        let clean = run_symple(&ByMod, &RunsUda, &segments, &cfg).unwrap();
        let first = run_checkpointed(&segments, &cfg, &ctx).unwrap();
        assert_eq!(first.metrics.checkpoint_misses, segments.len() as u64);
        assert_eq!(first.metrics.checkpoint_hits, 0);

        let second = run_checkpointed(&segments, &cfg, &ctx).unwrap();
        assert_eq!(second.metrics.checkpoint_hits, segments.len() as u64);
        assert_eq!(second.metrics.checkpoint_misses, 0);

        // All three runs byte-identical.
        for out in [&first, &second] {
            assert_eq!(out.results, clean.results);
            assert_eq!(out.metrics.shuffle_bytes, clean.metrics.shuffle_bytes);
            assert_eq!(out.metrics.summary_bytes, clean.metrics.summary_bytes);
            assert_eq!(out.metrics.explore.records, clean.metrics.explore.records);
        }
    }

    #[test]
    fn cached_rerun_hits_every_chunk_cross_job() {
        // Content addressing means the "jobs" need share nothing but
        // their config and bytes — a second run over the same segments is
        // all hits, and a run over content-identical segments built
        // elsewhere is too.
        let records: Vec<i64> = (0..600).map(|i| (i * 29 + 11) % 131).collect();
        let segments = split_into_segments(&records, 5, 64);
        let cfg = JobConfig::default();
        let cache = MemStore::new();
        let ctx = SummaryCacheCtx::new(&cache);

        let clean = run_symple(&ByMod, &RunsUda, &segments, &cfg).unwrap();
        let cold = run_cached(&segments, &cfg, &ctx).unwrap();
        assert_eq!(cold.metrics.cache_misses, segments.len() as u64);
        assert_eq!(cold.metrics.cache_hits, 0);
        assert_eq!(cold.metrics.cache_bytes_saved, 0);

        let warm = run_cached(&segments, &cfg, &ctx).unwrap();
        assert_eq!(warm.metrics.cache_hits, segments.len() as u64);
        assert_eq!(warm.metrics.cache_misses, 0);
        assert_eq!(
            warm.metrics.cache_bytes_saved,
            segments.iter().map(|s| s.raw_bytes).sum::<u64>()
        );

        for out in [&cold, &warm] {
            assert_eq!(out.results, clean.results);
            assert_eq!(out.metrics.shuffle_bytes, clean.metrics.shuffle_bytes);
            assert_eq!(out.metrics.summary_bytes, clean.metrics.summary_bytes);
            assert_eq!(out.metrics.explore.records, clean.metrics.explore.records);
        }
    }

    #[test]
    fn cached_append_recomputes_only_the_tail_chunk() {
        let records: Vec<i64> = (0..500).map(|i| (i * 17 + 3) % 101).collect();
        let cfg = JobConfig::default();
        let cache = MemStore::new();
        let ctx = SummaryCacheCtx::new(&cache);

        let mut data = crate::dataset::Dataset::new(records.clone(), 64, 32, |r: &i64| {
            symple_core::frame::fnv1a(&r.to_le_bytes())
        });
        let _ = run_cached(&data.segments(), &cfg, &ctx).unwrap();

        // Append ~1%: only the trailing chunk's content changes.
        data.append((0..5).map(|i| (i * 13 + 7) % 101));
        let segments = data.segments();
        let warm = run_cached(&segments, &cfg, &ctx).unwrap();
        assert!(
            warm.metrics.cache_misses <= 2,
            "append dirtied {} of {} chunks",
            warm.metrics.cache_misses,
            segments.len()
        );
        assert_eq!(
            warm.metrics.cache_hits + warm.metrics.cache_misses,
            segments.len() as u64
        );
        let clean = run_symple(&ByMod, &RunsUda, &segments, &cfg).unwrap();
        assert_eq!(warm.results, clean.results);
    }

    #[test]
    fn forged_cache_entry_is_quarantined_not_served() {
        // The sabotage the oracle's forged-cache-entry self-test bypasses:
        // a frame recorded for one chunk's content, filed under another
        // chunk's key. With validation on (the production default) the
        // digest comparison quarantines it and the chunk recomputes.
        //
        // Group 4's events live only in segment 1 — duplicating segment 1's
        // summary into segment 2 provably doubles group 4's output.
        let special: [i64; 5] = [4, 14, 24, 4, 9];
        let records: Vec<i64> = (0..400i64)
            .map(|i| {
                if (100..105).contains(&i) {
                    special[(i - 100) as usize]
                } else {
                    5 * i
                }
            })
            .collect();
        let segments = split_into_segments(&records, 4, 64);
        let cfg = JobConfig::default();
        let key_of = |seg: &Segment<i64>| {
            chunk_cache_digest(
                records_digest::<ByMod, RunsUda>(&seg.records),
                seg.id == 0 && cfg.first_segment_concrete,
            )
        };
        let fp = cache_config_fingerprint(&cfg);
        let cache = MemStore::new();
        let ctx = SummaryCacheCtx::new(&cache);
        let clean = run_symple(&ByMod, &RunsUda, &segments, &cfg).unwrap();
        assert!(
            clean.results.iter().any(|(k, v)| *k == 4 && !v.is_empty()),
            "fixture must give group 4 a nonempty output"
        );
        run_cached(&segments, &cfg, &ctx).unwrap();
        assert_eq!(cache.entry_count(), segments.len());

        // Forge: move segment 1's frame under segment 2's key.
        let donor = cache.raw_frame(fp, key_of(&segments[1])).unwrap();
        cache.insert_raw(fp, key_of(&segments[2]), donor.clone());

        let out = run_cached(&segments, &cfg, &ctx).unwrap();
        assert_eq!(
            out.results, clean.results,
            "forged entry must not be served"
        );
        assert_eq!(out.metrics.cache_corrupt, 1);
        assert_eq!(out.metrics.cache_hits, segments.len() as u64 - 1);
        let q = cache.quarantined(fp);
        assert_eq!(q.len(), 1);
        assert_eq!(q[0].0, key_of(&segments[2]));

        // With the sabotage bypass the same forgery IS served — and the
        // answer goes wrong, which is what the oracle must flag.
        let trusting = SummaryCacheCtx {
            cache: &cache,
            trust_frame_meta: true,
        };
        cache.insert_raw(fp, key_of(&segments[2]), donor);
        let bad = run_cached(&segments, &cfg, &trusting).unwrap();
        assert_ne!(
            bad.results, clean.results,
            "bypass must surface the forgery"
        );
    }

    #[test]
    fn evicted_and_corrupted_entries_only_cost_recompute() {
        let records: Vec<i64> = (0..500).map(|i| (i * 31 + 9) % 113).collect();
        let segments = split_into_segments(&records, 5, 64);
        let cfg = JobConfig::default();
        let cache = MemStore::new();
        let ctx = SummaryCacheCtx::new(&cache);
        let clean = run_symple(&ByMod, &RunsUda, &segments, &cfg).unwrap();
        run_cached(&segments, &cfg, &ctx).unwrap();

        let keys = cache.keys();
        assert!(cache.evict(keys[0].0, keys[0].1));
        assert!(cache.tamper(keys[1].0, keys[1].1, |b| {
            let last = b.len() - 1;
            b[last] ^= 0xff;
        }));

        let out = run_cached(&segments, &cfg, &ctx).unwrap();
        assert_eq!(out.results, clean.results);
        assert_eq!(out.metrics.cache_misses, 1, "evicted");
        assert_eq!(out.metrics.cache_corrupt, 1, "tampered");
        assert_eq!(out.metrics.cache_hits, segments.len() as u64 - 2);

        // Both entries were recommitted: the next run is all hits again.
        let healed = run_cached(&segments, &cfg, &ctx).unwrap();
        assert_eq!(healed.metrics.cache_hits, segments.len() as u64);
    }

    #[test]
    fn flipping_output_shaping_config_forces_cache_miss() {
        // The stale-read regression: every knob that shapes summary bytes
        // must invalidate entries (auto-tuned engine configs flow through
        // `cfg.engine` and are covered the same way); pure parallelism
        // knobs must NOT (a resweep on a bigger machine stays warm).
        let records: Vec<i64> = (0..300).map(|i| (i * 7 + 1) % 61).collect();
        let segments = split_into_segments(&records, 4, 64);
        let base = JobConfig::default();
        let cache = MemStore::new();
        let ctx = SummaryCacheCtx::new(&cache);
        run_cached(&segments, &base, &ctx).unwrap();

        let mut flips: Vec<(&str, JobConfig)> = Vec::new();
        let mut m = base;
        m.engine.max_paths_per_record += 1;
        flips.push(("engine.max_paths_per_record", m));
        let mut m = base;
        m.engine.max_total_paths += 1;
        flips.push(("engine.max_total_paths", m));
        let mut m = base;
        m.engine.merge_policy = symple_core::engine::MergePolicy::Never;
        flips.push(("engine.merge_policy", m));
        let mut m = base;
        m.first_segment_concrete = false;
        flips.push(("first_segment_concrete", m));
        let mut m = base;
        m.salvage_refused_chunks = false;
        flips.push(("salvage_refused_chunks", m));

        for (name, cfg) in &flips {
            let out = run_cached(&segments, cfg, &ctx).unwrap();
            assert_eq!(out.metrics.cache_hits, 0, "{name} must force misses");
            let clean = run_symple(&ByMod, &RunsUda, &segments, cfg).unwrap();
            assert_eq!(out.results, clean.results, "{name}");
        }

        let mut par = base;
        par.num_reducers += 1;
        par.map_workers = 1;
        par.reduce_workers = 1;
        let out = run_cached(&segments, &par, &ctx).unwrap();
        assert_eq!(
            out.metrics.cache_hits,
            segments.len() as u64,
            "parallelism knobs must stay warm"
        );
    }

    #[test]
    fn both_policies_share_one_store_without_cross_serving() {
        // The state the separate store types made unreachable: checkpoint
        // frames and cache frames in one backend. The namespaces carry
        // different domain tags and the expected metadata differs, so
        // neither policy ever sees the other's frames.
        use crate::store::DiskStore;
        let records: Vec<i64> = (0..600).map(|i| (i * 29 + 11) % 131).collect();
        let segments = split_into_segments(&records, 5, 64);
        let n = segments.len() as u64;
        let cfg = JobConfig::default();
        let clean = run_symple(&ByMod, &RunsUda, &segments, &cfg).unwrap();

        let dir = std::env::temp_dir().join(format!("symple-shared-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mem = MemStore::new();
        let disk = DiskStore::new(&dir).unwrap();
        for frames in [&mem as &dyn FrameStore, &disk] {
            let ckpt = CheckpointCtx::new(frames, "shared");
            let cache = SummaryCacheCtx::new(frames);

            let c1 = run_checkpointed(&segments, &cfg, &ckpt).unwrap();
            let k1 = run_cached(&segments, &cfg, &cache).unwrap();
            let c2 = run_checkpointed(&segments, &cfg, &ckpt).unwrap();
            let k2 = run_cached(&segments, &cfg, &cache).unwrap();
            assert_eq!(c1.metrics.checkpoint_misses, n);
            assert_eq!(
                (k1.metrics.cache_misses, k1.metrics.cache_hits),
                (n, 0),
                "checkpoint frames must not serve the cache policy"
            );
            assert_eq!(c2.metrics.checkpoint_hits, n);
            assert_eq!(k2.metrics.cache_hits, n);
            for out in [&c1, &k1, &c2, &k2] {
                assert_eq!(out.results, clean.results);
                assert_eq!(out.metrics.shuffle_bytes, clean.metrics.shuffle_bytes);
                assert_eq!(out.metrics.summary_bytes, clean.metrics.summary_bytes);
                assert_eq!(
                    out.metrics.checkpoint_corrupt + out.metrics.cache_corrupt,
                    0
                );
            }
            for namespace in [
                checkpoint_namespace("shared"),
                cache_config_fingerprint(&cfg),
            ] {
                assert!(frames.quarantined(namespace).is_empty());
            }
        }
        // Exactly one live entry per chunk per policy, in either backend.
        assert_eq!(mem.entry_count() as u64, 2 * n);
        let live = std::fs::read_dir(&dir)
            .unwrap()
            .flat_map(|ns| std::fs::read_dir(ns.unwrap().path()).unwrap())
            .map(|entry| entry.unwrap().file_name())
            .inspect(|name| assert!(name.to_str().unwrap().ends_with(".sum"), "{name:?}"))
            .count();
        assert_eq!(live as u64, 2 * n);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_engine_config_forces_recompute() {
        let records: Vec<i64> = (0..300).map(|i| (i * 7 + 1) % 61).collect();
        let segments = split_into_segments(&records, 4, 64);
        let mut cfg = JobConfig::default();
        let store = MemStore::new();
        let ctx = CheckpointCtx::new(&store, "stale-job");

        run_checkpointed(&segments, &cfg, &ctx).unwrap();

        // Change an engine knob: every stored frame is now stale.
        cfg.engine.max_total_paths += 1;
        let out = run_checkpointed(&segments, &cfg, &ctx).unwrap();
        assert_eq!(out.metrics.checkpoint_hits, 0);
        assert_eq!(out.metrics.checkpoint_corrupt, segments.len() as u64);
        assert_eq!(
            store.quarantined(checkpoint_namespace("stale-job")).len(),
            segments.len()
        );
        let clean = run_symple(&ByMod, &RunsUda, &segments, &cfg).unwrap();
        assert_eq!(out.results, clean.results);
    }
}
