//! Oracle cases: a UDA plus a seeded event generator, runnable through
//! every cell of the matrix behind an object-safe interface.
//!
//! A case never stores its input. The input is `(seed, len)` plus an
//! optional list of kept indices — events are regenerated on every run, so
//! a repro artifact that records those three values is fully
//! self-contained and immune to serialization drift of the event types.

use std::collections::BTreeMap;
use std::fmt::Debug;
use std::hash::{Hash, Hasher};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use symple_core::compose::{apply_chain, apply_summary, tree_collapse};
use symple_core::error::{Error, Result};
use symple_core::uda::{extract_result, run_concrete_state, run_sequential, summarize_chunk, Uda};
use symple_core::wire::Wire;
use symple_mapreduce::segment::split_into_segments;
use symple_mapreduce::{
    CheckpointCtx, ChunkStore, DiskStore, FaultInjector, FaultIo, FaultPlan, FrameStore, GroupBy,
    JobOutput, MemStore, RetryPolicy, Segment, StorageFaultPlan, SummaryCacheCtx, SympleJob,
};

use crate::cell::{Cell, ExecutorKind, FaultKind};

/// Rendered output of a MapReduce run whose input had no events (and so
/// produced no groups). The driver accepts this for empty inputs only.
pub const NO_GROUPS: &str = "<no groups>";

/// A deliberate soundness break, used to prove end-to-end that the oracle
/// detects, shrinks, and replays real disagreements. Applied inside the
/// oracle's chunked executor only — the library under test is untouched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sabotage {
    /// No sabotage: test the tree as-is.
    None,
    /// Drop the last event of the last symbolic chunk (simulates a mapper
    /// losing its tail).
    DropLastEvent,
    /// Apply chunk summaries in reverse order (violates §3.6's ordered
    /// composition).
    ReorderChunks,
    /// Resume a crash-resume cell from checkpoints recorded for a
    /// *different* input while bypassing the frame-metadata validation
    /// (`trust_frame_meta`) — exactly the bug the config-hash /
    /// input-digest check exists to prevent. Affects
    /// [`ExecutorKind::CrashResume`] cells only.
    StaleCheckpoint,
    /// File a summary-cache frame recorded for one chunk's content under a
    /// key the warm resweep will look up (a key collision made real),
    /// bypassing frame-metadata validation — the bug the content-digest
    /// check in cache frames exists to prevent. Affects
    /// [`ExecutorKind::WarmResweep`] cells only.
    ForgedCacheEntry,
    /// Run the storage-fault injector with a deliberate bug: a torn write
    /// is persisted but reported as a success, so the store's retry ledger
    /// never observes the error the injector counted. The faulted-store
    /// cell's ledger-balance check must flag the discrepancy. Affects
    /// [`ExecutorKind::FaultedStore`] cells only.
    DroppedTear,
}

impl Sabotage {
    /// Every kind, `None` first: the one list the token parse, both CLIs'
    /// usage text and the fuzzer's choice of sabotages all read.
    pub const ALL: [Sabotage; 6] = [
        Sabotage::None,
        Sabotage::DropLastEvent,
        Sabotage::ReorderChunks,
        Sabotage::StaleCheckpoint,
        Sabotage::ForgedCacheEntry,
        Sabotage::DroppedTear,
    ];

    /// Stable artifact token.
    pub fn as_str(self) -> &'static str {
        match self {
            Sabotage::None => "none",
            Sabotage::DropLastEvent => "drop-last-event",
            Sabotage::ReorderChunks => "reorder-chunks",
            Sabotage::StaleCheckpoint => "stale-checkpoint",
            Sabotage::ForgedCacheEntry => "forged-cache-entry",
            Sabotage::DroppedTear => "dropped-tear",
        }
    }

    /// Parses an artifact token.
    pub fn parse(s: &str) -> Option<Sabotage> {
        Sabotage::ALL.into_iter().find(|k| k.as_str() == s)
    }

    /// The executor kinds whose cells this sabotage breaks.
    pub fn targets(self) -> &'static [ExecutorKind] {
        match self {
            Sabotage::None => &[],
            Sabotage::DropLastEvent | Sabotage::ReorderChunks => {
                &[ExecutorKind::ChunkedSymbolic, ExecutorKind::ChunkedTree]
            }
            Sabotage::StaleCheckpoint => &[ExecutorKind::CrashResume],
            Sabotage::ForgedCacheEntry => &[ExecutorKind::WarmResweep],
            Sabotage::DroppedTear => &[ExecutorKind::FaultedStore],
        }
    }

    /// Whether some cell of `matrix` runs an executor this sabotage
    /// breaks. A sweep it does not reach never applies it, so its
    /// self-test would pass whatever the tree does.
    pub(crate) fn reaches(self, matrix: &[Cell]) -> bool {
        matrix.iter().any(|c| self.targets().contains(&c.executor))
    }
}

/// A reproducible input: everything needed to regenerate the exact event
/// stream of a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CaseInput {
    /// Seed fed to the case's event generator.
    pub seed: u64,
    /// Number of events the generator produces.
    pub len: usize,
    /// Indices (into the generated stream, ascending) that survive
    /// shrinking; `None` keeps everything.
    pub kept: Option<Vec<usize>>,
}

impl CaseInput {
    /// An unshrunk input.
    pub fn full(seed: u64, len: usize) -> CaseInput {
        CaseInput {
            seed,
            len,
            kept: None,
        }
    }

    /// Number of events actually fed to executors.
    pub fn effective_len(&self) -> usize {
        self.kept.as_ref().map_or(self.len, Vec::len)
    }

    /// The kept-indices filter in the artifact serialization: `all` for
    /// no filter, `(empty)` for everything dropped, else a comma list.
    pub fn kept_str(&self) -> String {
        match &self.kept {
            None => "all".to_string(),
            Some(k) => {
                if k.is_empty() {
                    "(empty)".to_string()
                } else {
                    k.iter().map(usize::to_string).collect::<Vec<_>>().join(",")
                }
            }
        }
    }

    /// Applies the kept-indices filter to a freshly generated stream.
    pub fn filter<E>(&self, full: Vec<E>) -> Vec<E> {
        match &self.kept {
            None => full,
            Some(kept) => {
                let mut full: Vec<Option<E>> = full.into_iter().map(Some).collect();
                kept.iter()
                    .filter_map(|&i| full.get_mut(i).and_then(Option::take))
                    .collect()
            }
        }
    }
}

/// Decides whether a parallel rendering agrees with the sequential
/// reference.
///
/// Two carve-outs beyond literal equality:
///
/// * MapReduce executors render empty inputs as [`NO_GROUPS`] (there is
///   no group to report); accepted only when the input really is empty.
/// * When the reference overflows, parallel executors may instead report
///   `IncompleteSummary` (in-order apply: the running value falls outside
///   every path constraint, because constraints exclude inputs that would
///   overflow) or `EmptyComposition` (tree compose: no cross-chunk path
///   pair stays feasible). All three mean "this input overflows"; an
///   `Ok` against an overflowing reference is still always a finding.
/// * Resource-limit errors (`PathExplosion`,
///   `PredicateWindowExceeded`) are *refusals*, not answers: symbolic
///   execution is allowed to give up under a tight budget — the
///   sequential reference has no such budget — but it may never return a
///   wrong `Ok`. Refusals are therefore always accepted.
pub fn outputs_agree(expected: &str, actual: &str, input: &CaseInput) -> bool {
    if actual == expected {
        return true;
    }
    if input.effective_len() == 0 && actual == NO_GROUPS {
        return true;
    }
    if matches!(
        actual,
        "Err(PathExplosion)" | "Err(PredicateWindowExceeded)"
    ) {
        return true;
    }
    // Width conservatism: a `SymInt` narrower than 64 bits fails
    // `check_width` when *any* feasible initial value would leave the
    // declared range, so a symbolic chunk may report overflow on inputs
    // whose sequential run stays in range (the sequential reference only
    // sees concrete values and only fails on real overflow). That makes
    // an overflow report a conservative refusal, never a finding — while
    // a wrong `Ok` against any reference still always is.
    if actual == "Err(ArithmeticOverflow)" {
        return true;
    }
    expected == "Err(ArithmeticOverflow)"
        && matches!(actual, "Err(IncompleteSummary)" | "Err(EmptyComposition)")
}

/// The object-safe interface the driver, shrinker, and replayer share.
pub trait DynCase: Send + Sync {
    /// Stable case id (`"G1"`, `"OVF"`, …).
    fn id(&self) -> &'static str;

    /// Whether this case can run under `cell` at all. Restart-heavy cases
    /// opt out of [`ExecutorKind::ChunkedTree`]: symbolic composition of
    /// unmergeable multi-summary chains is exponential by nature (the
    /// restart fallback exists precisely because such chains must be
    /// applied in order), so those cells would hang, not disagree.
    fn supports(&self, cell: &Cell) -> bool;

    /// Static analysis of the case's UDA over its registered event
    /// variants, or `None` when the case has no variants (the analyzer
    /// needs one representative event per behavioral variant to abstractly
    /// interpret `update`). Used by `--analyze-first` to skip cells the
    /// analyzer predicts the engine will refuse.
    fn analyze(&self) -> Option<symple_core::UdaAnalysis>;

    /// Renders the sequential reference result for `input`.
    fn run_reference(&self, input: &CaseInput) -> String;

    /// Renders the result of running `input` through `cell`.
    fn run_cell(&self, input: &CaseInput, cell: &Cell, sabotage: Sabotage) -> String;

    /// Checks that two symbolic summarization attempts of the same chunk
    /// are byte-identical on the wire (re-executed map attempts must be).
    /// Returns a violation description, or `None` when deterministic.
    fn summary_nondet(&self, input: &CaseInput, cell: &Cell) -> Option<String>;

    /// Runs the clean-vs-faulty MapReduce probe for cells with an active
    /// fault plan. Returns a violation description, or `None`.
    fn fault_nondet(&self, input: &CaseInput, cell: &Cell) -> Option<String>;

    /// Debug rendering of the (filtered) event stream, for artifacts.
    fn events_debug(&self, input: &CaseInput) -> String;

    /// Serialized UDA program for *generated* (fuzz) cases, embedded in
    /// artifacts so replay rebuilds the exact case without re-running the
    /// generator. `None` for registry cases, whose UDA is named by
    /// [`DynCase::id`].
    fn program_token(&self) -> Option<String>;

    /// Adversarial input-generator token for generated cases. `None` for
    /// registry cases, whose generator is implied by the case id.
    fn input_kind_token(&self) -> Option<String>;
}

/// Maps an [`Error`] to its variant name — differential comparison treats
/// errors as equal iff the variant matches, ignoring payload details like
/// path counts that legitimately vary across executors.
pub fn error_variant(e: &Error) -> &'static str {
    match e {
        Error::PathExplosion { .. } => "PathExplosion",
        Error::ArithmeticOverflow { .. } => "ArithmeticOverflow",
        Error::NonConcreteBranch => "NonConcreteBranch",
        Error::PredicateWindowExceeded { .. } => "PredicateWindowExceeded",
        Error::IncompleteSummary => "IncompleteSummary",
        Error::OverlappingSummary => "OverlappingSummary",
        Error::EnumOutOfDomain { .. } => "EnumOutOfDomain",
        Error::EmptyComposition => "EmptyComposition",
        Error::Wire(_) => "Wire",
        Error::Uda(_) => "Uda",
        Error::TaskPanicked { .. } => "TaskPanicked",
        Error::RetriesExhausted { .. } => "RetriesExhausted",
        Error::JobKilled { .. } => "JobKilled",
        Error::LedgerImbalance { .. } => "LedgerImbalance",
    }
}

pub(crate) fn render<O: Debug>(r: Result<O>) -> String {
    match r {
        Ok(o) => format!("Ok({o:?})"),
        Err(e) => format!("Err({})", error_variant(&e)),
    }
}

/// Groups every record under key 0 — the oracle checks one event stream
/// at a time, so the MapReduce executors run with a single group.
struct SingleKey<E>(PhantomData<fn() -> E>);

impl<E> SingleKey<E> {
    fn new() -> SingleKey<E> {
        SingleKey(PhantomData)
    }
}

/// One event as a MapReduce record. The chunk store keys a chunk by its
/// records' [`Hash`], and not every event type has one (GPS's `(f64,
/// f64)` does not), so a record hashes its event's wire bytes.
#[derive(Clone)]
struct WireRecord<E>(E);

impl<E: Wire> Hash for WireRecord<E> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let mut buf = Vec::new();
        self.0.encode(&mut buf);
        state.write(&buf);
    }
}

impl<E: Clone + Debug + Send + Sync + Wire + 'static> GroupBy for SingleKey<E> {
    type Record = WireRecord<E>;
    type Key = u8;
    type Event = E;
    fn extract(&self, r: &WireRecord<E>) -> Option<(u8, E)> {
        Some((0, r.0.clone()))
    }
}

/// The key a multi-key cell deals the record at position `i` to: the top
/// three bits of a Fibonacci hash of `i`. Cells then vary in length from
/// task to task, so the per-key errors of a wrong cell do not cancel out
/// over a key's tasks, as they can under a round-robin deal.
fn dealt_key(i: usize) -> u8 {
    ((i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 61) as u8
}

/// Groups by the key the record carries (see [`dealt_key`]).
struct Dealt<E>(PhantomData<fn() -> E>);

impl<E: Clone + Debug + Send + Sync + Wire + 'static> GroupBy for Dealt<E> {
    type Record = (u8, WireRecord<E>);
    type Key = u8;
    type Event = E;
    fn extract(&self, (key, r): &(u8, WireRecord<E>)) -> Option<(u8, E)> {
        Some((*key, r.0.clone()))
    }
}

/// `events` split into `chunks` MapReduce segments.
fn to_segments<E: Clone>(events: &[E], chunks: usize) -> Vec<Segment<WireRecord<E>>> {
    let records: Vec<WireRecord<E>> = events.iter().cloned().map(WireRecord).collect();
    split_into_segments(&records, chunks.max(1), 8)
}

/// A concrete case: a UDA and its seeded event generator.
pub struct UdaCase<U: Uda, F> {
    id: &'static str,
    uda: U,
    generate: F,
    tree_compose_ok: bool,
    variants: Vec<(&'static str, U::Event)>,
    /// A generated case's program and input-kind tokens.
    tokens: Option<(String, &'static str)>,
}

impl<U, F> UdaCase<U, F>
where
    U: Uda,
    F: Fn(u64, usize) -> Vec<U::Event>,
{
    /// Builds a case from a UDA and a generator.
    pub fn new(id: &'static str, uda: U, generate: F) -> UdaCase<U, F> {
        UdaCase {
            id,
            uda,
            generate,
            tree_compose_ok: true,
            variants: Vec::new(),
            tokens: None,
        }
    }

    /// Opts the case out of tree-composition cells (see
    /// [`DynCase::supports`]).
    pub fn without_tree_compose(mut self) -> UdaCase<U, F> {
        self.tree_compose_ok = false;
        self
    }

    /// Registers the UDA's analyzer event variants, enabling
    /// [`DynCase::analyze`] (and with it `--analyze-first`) for this case.
    pub fn with_variants(mut self, variants: Vec<(&'static str, U::Event)>) -> UdaCase<U, F> {
        self.variants = variants;
        self
    }

    /// Marks a generated case: artifacts embed its program and input-kind
    /// tokens, from which replay rebuilds it.
    pub(crate) fn with_tokens(mut self, program: String, input_kind: &'static str) -> Self {
        self.tokens = Some((program, input_kind));
        self
    }

    fn events(&self, input: &CaseInput) -> Vec<U::Event> {
        input.filter((self.generate)(input.seed, input.len))
    }
}

impl<U, F> UdaCase<U, F>
where
    U: Uda,
    U::Event: Clone + Debug + Send + Sync + Wire + 'static,
    U::Output: Debug + PartialEq + Send,
    F: Fn(u64, usize) -> Vec<U::Event> + Send + Sync,
{
    /// The oracle's own chunked executor. Mirrors
    /// [`symple_core::uda::run_chunked_symbolic`], with three extensions
    /// the matrix needs: an all-symbolic mode (`first_segment_concrete =
    /// false`), the sabotage hooks, and the tree mode of
    /// [`ExecutorKind::ChunkedTree`], which collapses every chunk's
    /// summaries with [`tree_collapse`] and applies the result once — an
    /// input with no symbolic summaries leaves the running state as it is.
    fn run_chunked(
        &self,
        events: &[U::Event],
        cell: &Cell,
        sabotage: Sabotage,
    ) -> Result<U::Output> {
        let num_chunks = cell.chunks.max(1);
        let chunk_len = events.len().div_ceil(num_chunks).max(1);
        let engine = cell.engine();
        let mut chunks = events.chunks(chunk_len);

        let mut state = if cell.first_segment_concrete {
            run_concrete_state(&self.uda, chunks.next().unwrap_or(&[]))?
        } else {
            self.uda.init()
        };

        let symbolic: Vec<&[U::Event]> = chunks.collect();
        let mut chains = Vec::with_capacity(symbolic.len());
        for (i, chunk) in symbolic.iter().enumerate() {
            let chunk: &[U::Event] =
                if sabotage == Sabotage::DropLastEvent && i + 1 == symbolic.len() {
                    &chunk[..chunk.len().saturating_sub(1)]
                } else {
                    chunk
                };
            chains.push(summarize_chunk(&self.uda, chunk, &engine)?);
        }
        if sabotage == Sabotage::ReorderChunks {
            chains.reverse();
        }
        if cell.executor == ExecutorKind::ChunkedTree {
            let summaries: Vec<_> = chains
                .iter()
                .flat_map(|chain| chain.summaries().iter().cloned())
                .collect();
            if !summaries.is_empty() {
                state = apply_summary(&tree_collapse(&summaries)?, &state)?;
            }
        } else {
            for chain in &chains {
                state = apply_chain(chain, &state)?;
            }
        }
        extract_result(&self.uda, &state)
    }

    /// The crash-resume executor: run against a fresh in-memory checkpoint
    /// store, kill the job after half its map tasks complete, then restart
    /// from the same store. The rendered output is the *resumed* run's.
    ///
    /// Under [`Sabotage::StaleCheckpoint`] the store is instead seeded
    /// with checkpoints from a run over a *different* input (tail event
    /// dropped), and the resume bypasses frame-metadata validation — so
    /// the stale summaries are trusted and the output goes wrong, which
    /// the oracle must flag. With validation on (the production default),
    /// the same stale frames are quarantined and recomputed.
    fn run_crash_resume(
        &self,
        events: &[U::Event],
        cell: &Cell,
        sabotage: Sabotage,
    ) -> Result<JobOutput<u8, U::Output>> {
        let segments = to_segments(events, cell.chunks);
        let group = SingleKey::<U::Event>::new();
        let job = SympleJob::new(cell.job());
        let store = MemStore::new();
        let mut ctx = CheckpointCtx::new(&store, "oracle");

        if sabotage == Sabotage::StaleCheckpoint {
            let mut stale: Vec<U::Event> = events.to_vec();
            stale.pop();
            let stale_segments = to_segments(&stale, cell.chunks);
            let _ = job.with_store(ChunkStore::Checkpoint(&ctx)).run(
                &group,
                &self.uda,
                &stale_segments,
            );
            ctx.trust_frame_meta = true;
            return job
                .with_store(ChunkStore::Checkpoint(&ctx))
                .run(&group, &self.uda, &segments);
        }

        // Phase 1: crash mid-job. The kill error is expected; a job small
        // enough to finish before the kill fires simply leaves a full set
        // of checkpoints for phase 2 to hit.
        let injector = FaultInjector::new(FaultPlan {
            kill_after_n_tasks: Some(segments.len() as u64 / 2),
            ..FaultPlan::default()
        });
        let checkpointed = job.with_store(ChunkStore::Checkpoint(&ctx));
        let _ = checkpointed
            .with_faults(&injector)
            .run(&group, &self.uda, &segments);
        // Phase 2: restart from the surviving checkpoints.
        checkpointed.run(&group, &self.uda, &segments)
    }

    /// The warm-resweep executor: a *cold* cached run over the input minus
    /// its tail event warms a content-addressed summary cache, then the
    /// full input reruns against the same cache. The rendered output is
    /// the warm resweep's — cache equivalence says it must equal an
    /// uninterrupted run over the full input, even though chunks whose
    /// content didn't change were served from the cache.
    ///
    /// Under [`Sabotage::ForgedCacheEntry`] a frame recorded for a
    /// cold-only chunk is re-filed under a key only the warm run looks up,
    /// and the resweep bypasses frame-metadata validation
    /// (`trust_frame_meta`) — so the forged summary is trusted and the
    /// output goes wrong, which the oracle must flag. With validation on
    /// (the production default) the same forgery is quarantined and the
    /// chunk recomputed.
    fn run_warm_resweep(
        &self,
        events: &[U::Event],
        cell: &Cell,
        sabotage: Sabotage,
    ) -> Result<JobOutput<u8, U::Output>> {
        let segments = to_segments(events, cell.chunks);
        let group = SingleKey::<U::Event>::new();
        let job = SympleJob::new(cell.job());
        let cache = MemStore::new();
        let mut ctx = SummaryCacheCtx::new(&cache);

        // Cold pass over the shortened input ("yesterday's log").
        let mut cold: Vec<U::Event> = events.to_vec();
        cold.pop();
        let cold_segments = to_segments(&cold, cell.chunks);
        let _ = job
            .with_store(ChunkStore::Cache(&ctx))
            .run(&group, &self.uda, &cold_segments);

        if sabotage == Sabotage::ForgedCacheEntry {
            // Learn which keys the warm run will look up by probing a
            // scratch cache, then file a cold-only frame under a warm-only
            // key: a content-digest collision made real.
            let scratch = MemStore::new();
            let probe = SummaryCacheCtx::new(&scratch);
            let _ = job
                .with_store(ChunkStore::Cache(&probe))
                .run(&group, &self.uda, &segments);
            let cold_keys: std::collections::HashSet<(u64, u64)> =
                cache.keys().into_iter().collect();
            let warm_keys = scratch.keys();
            let donor = cache
                .keys()
                .into_iter()
                .find(|k| !warm_keys.contains(k))
                .or_else(|| cache.keys().into_iter().next());
            let target = warm_keys.into_iter().find(|k| !cold_keys.contains(k));
            if let (Some(donor), Some(target)) = (donor, target) {
                if let Some(frame) = cache.raw_frame(donor.0, donor.1) {
                    cache.insert_raw(target.0, target.1, frame);
                }
            }
            ctx.trust_frame_meta = true;
        }

        job.with_store(ChunkStore::Cache(&ctx))
            .run(&group, &self.uda, &segments)
    }

    /// The faulted-store executor: a cold cached run against an on-disk
    /// summary cache whose I/O layer injects a seeded schedule of errno
    /// faults, a torn write, and (sometimes) a failed rename — then a
    /// clean run over whatever survived on disk. The rendered output is
    /// the *healing* run's: torn or orphaned frames must be quarantined
    /// and recomputed, never trusted, so the answer is byte-identical to
    /// a store-less run.
    ///
    /// Between the two runs the cell audits the retry ledger: every error
    /// the injector says it surfaced must be accounted for by the store
    /// (`io_errors == injected`, `io_errors == io_retries + io_gave_up`).
    /// Under [`Sabotage::DroppedTear`] the injector tears a write but
    /// reports success — a bug in the fault harness itself — and the
    /// audit must flag the imbalance as a finding.
    fn run_faulted_store(
        &self,
        events: &[U::Event],
        cell: &Cell,
        sabotage: Sabotage,
    ) -> Result<JobOutput<u8, U::Output>> {
        static DIR_SEQ: AtomicU64 = AtomicU64::new(0);
        let segments = to_segments(events, cell.chunks);
        let group = SingleKey::<U::Event>::new();
        let job = SympleJob::new(cell.job());
        let dir = std::env::temp_dir().join(format!(
            "symple-oracle-faulted-{}-{}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::SeqCst)
        ));

        let plan = if sabotage == Sabotage::DroppedTear {
            // The deliberately buggy injector: the very first write is
            // torn mid-frame and reported as a success.
            StorageFaultPlan {
                tear_write: vec![(1, 4)],
                silent_tear: true,
                ..StorageFaultPlan::default()
            }
        } else {
            // Deterministic per (input length, chunk count): same cell,
            // same schedule.
            let seed = (events.len() as u64) ^ ((cell.chunks as u64) << 32);
            StorageFaultPlan::seeded(seed, 12, 3)
        };
        let io = Arc::new(FaultIo::new(plan));
        let store_err = |e: std::io::Error| Error::Uda(format!("faulted store: {e}"));
        let faulted =
            DiskStore::with_io(&dir, io.clone(), RetryPolicy::instant(), 2).map_err(store_err)?;
        let ctx = SummaryCacheCtx::new(&faulted);
        // The faulted run's own output is not rendered — it exists to
        // drive the store through the schedule and leave debris behind.
        let _ = job
            .with_store(ChunkStore::Cache(&ctx))
            .run(&group, &self.uda, &segments);

        // Ledger audit. The temp dir sits on a quiet real disk, so every
        // error the store observed was injected — and every injected one
        // must have been observed and classified (retried or given up).
        let counts = faulted.io_counts().unwrap_or_default();
        let injected = io.injected_errors();
        let balanced = counts.io_errors == injected
            && counts.io_errors == counts.io_retries + counts.io_gave_up;
        let result = if balanced {
            // Healing run: a clean store over the survivor directory must
            // quarantine anything torn and still produce the right answer.
            let clean = DiskStore::new(&dir).map_err(store_err)?;
            let clean_ctx = SummaryCacheCtx::new(&clean);
            job.with_store(ChunkStore::Cache(&clean_ctx))
                .run(&group, &self.uda, &segments)
        } else {
            Err(Error::Uda(format!(
                "storage fault ledger imbalance: injected={injected} observed={} \
                 retries={} gave_up={}",
                counts.io_errors, counts.io_retries, counts.io_gave_up
            )))
        };
        let _ = std::fs::remove_dir_all(&dir);
        result
    }

    /// The multi-key executor ([`ExecutorKind::MultiKey`]). It judges
    /// itself: every key's output must agree ([`outputs_agree`]) with the
    /// sequential run over that key's events, and a failed job with the
    /// reference of some key. Then it renders the whole stream's
    /// reference, which the sweep's comparison accepts; otherwise the
    /// first disagreement, which no reference renders.
    fn run_multi_key(&self, events: &[U::Event], cell: &Cell, input: &CaseInput) -> String {
        let records: Vec<(u8, WireRecord<U::Event>)> = (0..)
            .map(dealt_key)
            .zip(events.iter().cloned().map(WireRecord))
            .collect();
        let segments = split_into_segments(&records, cell.chunks.max(1), 8);
        let out = SympleJob::new(cell.job()).run(&Dealt(PhantomData), &self.uda, &segments);
        let mut keyed: BTreeMap<u8, Vec<&U::Event>> = BTreeMap::new();
        for (key, WireRecord(e)) in &records {
            keyed.entry(*key).or_default().push(e);
        }
        let references: Vec<(u8, String)> = keyed
            .into_iter()
            .map(|(key, own)| (key, render(run_sequential(&self.uda, own))))
            .collect();
        let disagreement = match out {
            Ok(job) => {
                let keys: Vec<u8> = job.results.iter().map(|(k, _)| *k).collect();
                if keys.iter().ne(references.iter().map(|(k, _)| k)) {
                    Some(format!("BadKeys({keys:?})"))
                } else {
                    job.results
                        .iter()
                        .zip(&references)
                        .find_map(|((k, output), (_, r))| {
                            let actual = format!("Ok({output:?})");
                            (!outputs_agree(r, &actual, input))
                                .then(|| format!("KeyMismatch(key {k}: {actual}, expected {r})"))
                        })
                }
            }
            Err(e) => {
                let actual = format!("Err({})", error_variant(&e));
                let explained = references
                    .iter()
                    .any(|(_, r)| outputs_agree(r, &actual, input));
                (!explained).then(|| format!("KeyMismatch({actual}, expected {references:?})"))
            }
        };
        disagreement.unwrap_or_else(|| render(run_sequential(&self.uda, events.iter())))
    }

    fn run_mapreduce(&self, events: Vec<U::Event>, cell: &Cell, sabotage: Sabotage) -> String {
        if events.is_empty() {
            return NO_GROUPS.to_string();
        }
        let segments = to_segments(&events, cell.chunks);
        let out = match cell.executor {
            ExecutorKind::CrashResume => self.run_crash_resume(&events, cell, sabotage),
            ExecutorKind::WarmResweep => self.run_warm_resweep(&events, cell, sabotage),
            ExecutorKind::FaultedStore => self.run_faulted_store(&events, cell, sabotage),
            // `FaultKind::None` is the empty plan: nothing fires.
            _ => {
                let injector = FaultInjector::new(cell.faults.plan(segments.len()));
                SympleJob::new(cell.job()).with_faults(&injector).run(
                    &SingleKey::<U::Event>::new(),
                    &self.uda,
                    &segments,
                )
            }
        };
        match out {
            Ok(job) => match job.results.as_slice() {
                [] => NO_GROUPS.to_string(),
                [(0, output)] => format!("Ok({output:?})"),
                other => format!(
                    "BadKeys({:?})",
                    other.iter().map(|(k, _)| *k).collect::<Vec<u8>>()
                ),
            },
            Err(e) => format!("Err({})", error_variant(&e)),
        }
    }
}

impl<U, F> DynCase for UdaCase<U, F>
where
    U: Uda,
    U::Event: Clone + Debug + Send + Sync + Wire + 'static,
    U::Output: Debug + PartialEq + Send,
    F: Fn(u64, usize) -> Vec<U::Event> + Send + Sync,
{
    fn id(&self) -> &'static str {
        self.id
    }

    fn supports(&self, cell: &Cell) -> bool {
        self.tree_compose_ok || cell.executor != ExecutorKind::ChunkedTree
    }

    fn analyze(&self) -> Option<symple_core::UdaAnalysis> {
        if self.variants.is_empty() {
            None
        } else {
            Some(symple_core::analyze_uda(&self.uda, &self.variants))
        }
    }

    fn run_reference(&self, input: &CaseInput) -> String {
        render(run_sequential(&self.uda, self.events(input).iter()))
    }

    fn run_cell(&self, input: &CaseInput, cell: &Cell, sabotage: Sabotage) -> String {
        let events = self.events(input);
        match cell.executor {
            ExecutorKind::MultiKey => self.run_multi_key(&events, cell, input),
            kind if kind.is_mapreduce() => self.run_mapreduce(events, cell, sabotage),
            _ => render(self.run_chunked(&events, cell, sabotage)),
        }
    }

    fn summary_nondet(&self, input: &CaseInput, cell: &Cell) -> Option<String> {
        let events = self.events(input);
        let engine = cell.engine();
        let a = summarize_chunk(&self.uda, events.iter(), &engine);
        let b = summarize_chunk(&self.uda, events.iter(), &engine);
        match (a, b) {
            (Ok(a), Ok(b)) => {
                if a.byte_eq(&b) {
                    None
                } else {
                    Some(format!(
                        "summary wire bytes differ between attempts ({} vs {} bytes)",
                        a.to_bytes().len(),
                        b.to_bytes().len()
                    ))
                }
            }
            (Err(a), Err(b)) => {
                if error_variant(&a) == error_variant(&b) {
                    None
                } else {
                    Some(format!(
                        "attempts errored differently: {} vs {}",
                        error_variant(&a),
                        error_variant(&b)
                    ))
                }
            }
            (Ok(_), Err(e)) | (Err(e), Ok(_)) => Some(format!(
                "one attempt succeeded, the other failed with {}",
                error_variant(&e)
            )),
        }
    }

    fn fault_nondet(&self, input: &CaseInput, cell: &Cell) -> Option<String> {
        let events = self.events(input);
        if events.is_empty() || cell.faults == FaultKind::None {
            return None;
        }
        let segments = to_segments(&events, cell.chunks);
        let expected_retries = cell.faults.expected_retries(segments.len());
        let group = SingleKey::<U::Event>::new();
        let injector = FaultInjector::new(cell.faults.plan(segments.len()));
        let clean_job = SympleJob::new(cell.job());
        let (clean, faulty) = match (
            clean_job.run(&group, &self.uda, &segments),
            clean_job
                .with_faults(&injector)
                .run(&group, &self.uda, &segments),
        ) {
            (Ok(clean), Ok(faulty)) => (clean, faulty),
            // Job-level errors are the mismatch checks' concern, and they
            // hit clean and faulty runs alike — nothing to compare here.
            _ => return None,
        };
        // Hadoop-style fault tolerance is only sound when a re-executed
        // map attempt reproduces its predecessor exactly: same results
        // *and* same shuffle bytes.
        let results_match = clean.results == faulty.results;
        let shuffle_deterministic = clean.metrics.shuffle_bytes == faulty.metrics.shuffle_bytes
            && clean.metrics.shuffle_records == faulty.metrics.shuffle_records;
        let retries = injector.retries();
        if !(results_match && shuffle_deterministic) {
            return Some(format!(
                "fault re-execution diverged: results_match={results_match} \
                 shuffle_deterministic={shuffle_deterministic} retries={retries}"
            ));
        }
        if retries != expected_retries {
            return Some(format!(
                "fault plan fired {retries} retries, expected {expected_retries}"
            ));
        }
        None
    }

    fn events_debug(&self, input: &CaseInput) -> String {
        format!("{:?}", self.events(input))
    }

    fn program_token(&self) -> Option<String> {
        self.tokens.as_ref().map(|t| t.0.clone())
    }

    fn input_kind_token(&self) -> Option<String> {
        self.tokens.as_ref().map(|t| t.1.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filter_keeps_selected_indices() {
        let input = CaseInput {
            seed: 0,
            len: 5,
            kept: Some(vec![0, 2, 4]),
        };
        assert_eq!(input.filter(vec![10, 11, 12, 13, 14]), vec![10, 12, 14]);
        assert_eq!(input.effective_len(), 3);
        assert_eq!(CaseInput::full(0, 5).filter(vec![1, 2, 3]), vec![1, 2, 3]);
    }

    #[test]
    fn filter_ignores_out_of_range_indices() {
        let input = CaseInput {
            seed: 0,
            len: 3,
            kept: Some(vec![1, 9]),
        };
        assert_eq!(input.filter(vec![7, 8, 9]), vec![8]);
    }

    #[test]
    fn sabotage_tokens_round_trip() {
        for s in Sabotage::ALL {
            assert_eq!(Sabotage::parse(s.as_str()), Some(s));
            assert_eq!(s.targets().is_empty(), s == Sabotage::None);
        }
        assert_eq!(Sabotage::parse("?"), None);
    }
}
