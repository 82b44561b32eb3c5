//! The symbolic executor: systematic path exploration with explosion
//! control (§5.1–5.2 of the paper).

use crate::engine::arena::{ArenaStats, ExploreArena};
use crate::engine::merge::merge_paths;
use crate::error::{Error, Result};
use crate::state::{make_state_symbolic, SymState};
use crate::summary::{encode_paths, paths_pairwise_disjoint, Summary, SummaryChain};
use crate::uda::Uda;
use crate::wire::put_uvarint;

/// How many consecutive records one [`SymbolicExecutor::feed_slice`] batch
/// window applies in place before it commits. Not an [`EngineConfig`]
/// field: the value changes no summary and no statistic, and the only
/// other one ever used — 0, no batching — doubled `parse_bound.B1`'s wall.
const BATCH_WINDOW: usize = 32;

/// When path merging is attempted (§5.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergePolicy {
    /// Merge after every input record. Produces the most compact
    /// summaries at some CPU cost.
    Eager,
    /// The paper's heuristic: merge only when the number of live paths
    /// exceeds the previously reached maximum.
    HighWater,
    /// Never merge (ablation baseline; relies entirely on the restart
    /// fallback to bound paths).
    Never,
}

/// Engine tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Bound on paths produced while processing a *single* record; exceeded
    /// means the UDA likely loops on symbolic state (§5.2) →
    /// [`Error::PathExplosion`].
    pub max_paths_per_record: usize,
    /// Bound on live paths across records (paper default 8). Exceeding it
    /// flushes the current summary and restarts from fresh symbolic state,
    /// trading parallelism for sequential efficiency (§5.2).
    pub max_total_paths: usize,
    /// When to attempt path merging.
    pub merge_policy: MergePolicy,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            max_paths_per_record: 64,
            max_total_paths: 8,
            merge_policy: MergePolicy::HighWater,
        }
    }
}

/// Counters describing one chunk's exploration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExploreStats {
    /// Input records processed.
    pub records: u64,
    /// Update-function runs (≥ records; each run explores one path). A
    /// batch window counts a run per record and live path, as
    /// [`SymbolicExecutor::feed`] does, also for the paths it replays
    /// instead of running ([`ArenaStats::replayed_runs`]).
    pub runs: u64,
    /// Branch forks taken.
    pub forks: u64,
    /// Successful path merges.
    pub merges: u64,
    /// Summary flush/restarts triggered by the total-path bound.
    pub restarts: u64,
    /// Peak number of live paths.
    pub max_live_paths: usize,
}

impl ExploreStats {
    /// Folds another chunk's counters into this one: every field adds,
    /// except the `max_live_paths` peak, which takes the maximum.
    pub fn absorb(&mut self, other: ExploreStats) {
        self.records += other.records;
        self.runs += other.runs;
        self.forks += other.forks;
        self.merges += other.merges;
        self.restarts += other.restarts;
        self.max_live_paths = self.max_live_paths.max(other.max_live_paths);
    }
}

/// Symbolically executes a UDA over one chunk, producing a
/// [`SummaryChain`].
///
/// # Examples
///
/// ```
/// use symple_core::prelude::*;
///
/// # struct MaxUda;
/// # #[derive(Clone, Debug)]
/// # struct MaxState { max: SymInt }
/// # impl_sym_state!(MaxState { max });
/// # impl Uda for MaxUda {
/// #     type State = MaxState;
/// #     type Event = i64;
/// #     type Output = i64;
/// #     fn init(&self) -> MaxState { MaxState { max: SymInt::new(i64::MIN) } }
/// #     fn update(&self, s: &mut MaxState, ctx: &mut SymCtx, e: &i64) {
/// #         if s.max.lt(ctx, *e) { s.max.assign(*e); }
/// #     }
/// #     fn result(&self, s: &MaxState, _ctx: &mut SymCtx) -> i64 {
/// #         s.max.concrete_value().unwrap()
/// #     }
/// # }
/// let uda = MaxUda;
/// let mut exec = SymbolicExecutor::new(&uda, EngineConfig::default());
/// for e in [5, 3, 10] {
///     exec.feed(&e).unwrap();
/// }
/// let (chain, stats) = exec.finish();
/// assert_eq!(chain.total_paths(), 2); // x ≤ 9 ⇒ 10  ∧  x ≥ 10 ⇒ x
/// assert!(stats.forks >= 2);
/// ```
pub struct SymbolicExecutor<'a, U: Uda> {
    uda: &'a U,
    cfg: EngineConfig,
    /// The unknown symbolic state `x` every summary starts from: built
    /// once, cloned by [`SymbolicExecutor::reset`] and by every restart.
    start: U::State,
    paths: Vec<U::State>,
    /// The paths of the summaries restarts flushed, back to back;
    /// `emitted_ends[i]` is where summary `i` ends.
    emitted: Vec<U::State>,
    emitted_ends: Vec<usize>,
    high_water: usize,
    stats: ExploreStats,
    /// Recycled allocations: generation buffers, batch-window snapshots
    /// and path groups, and the exploration and probe contexts.
    arena: ExploreArena<U::State>,
}

impl<'a, U: Uda> SymbolicExecutor<'a, U> {
    /// Creates an executor starting from the unknown symbolic state `x`.
    pub fn new(uda: &'a U, cfg: EngineConfig) -> SymbolicExecutor<'a, U> {
        let mut start = uda.init();
        make_state_symbolic(&mut start);
        let mut exec = SymbolicExecutor {
            uda,
            cfg,
            start,
            paths: Vec::new(),
            emitted: Vec::new(),
            emitted_ends: Vec::new(),
            high_water: 1,
            stats: ExploreStats::default(),
            arena: ExploreArena::new(),
        };
        exec.reset();
        exec
    }

    /// Returns the executor to its just-constructed state keeping every
    /// allocation, so one executor summarizes chunk after chunk (a map
    /// task's keys). Valid at any point, also right after a `feed` returned
    /// `Err`: the contexts are rewound before every use.
    pub fn reset(&mut self) {
        self.paths.clear();
        self.paths.push(self.start.clone());
        self.emitted.clear();
        self.emitted_ends.clear();
        self.high_water = 1;
        self.stats = ExploreStats {
            max_live_paths: 1,
            ..ExploreStats::default()
        };
        self.arena.out.clear();
        self.arena.snapshots.clear();
        self.arena.stats = ArenaStats::default();
    }

    /// Processes one input record: every live path is re-executed under
    /// every feasible choice vector.
    pub fn feed(&mut self, e: &U::Event) -> Result<()> {
        self.stats.records += 1;
        let out = &mut self.arena.out;
        let ctx = &mut self.arena.explore;
        out.clear();
        for path in &self.paths {
            ctx.rewind();
            loop {
                // A shallow snapshot: aggregate fields share structure
                // with `path` until written (COW at the type level).
                let mut s = path.clone();
                self.arena.stats.state_clones += 1;
                ctx.begin_run();
                self.uda.update(&mut s, ctx, e);
                if let Some(err) = ctx.take_error() {
                    return Err(err);
                }
                out.push(s);
                self.stats.runs += 1;
                if out.len() > self.cfg.max_paths_per_record {
                    return Err(Error::PathExplosion {
                        paths: out.len(),
                        bound: self.cfg.max_paths_per_record,
                    });
                }
                if !ctx.advance() {
                    break;
                }
            }
            self.stats.forks += ctx.forks_taken();
        }

        let do_merge = match self.cfg.merge_policy {
            MergePolicy::Eager => out.len() > 1,
            MergePolicy::HighWater => out.len() > self.high_water,
            MergePolicy::Never => false,
        };
        if do_merge {
            self.stats.merges += merge_paths(out);
        }
        if self.cfg.merge_policy == MergePolicy::HighWater {
            self.high_water = self.high_water.max(out.len());
        }
        self.stats.max_live_paths = self.stats.max_live_paths.max(out.len());
        // Generation swap: the new paths move in, the previous generation
        // becomes the next record's (cleared) output buffer.
        std::mem::swap(&mut self.paths, out);

        if self.paths.len() > self.cfg.max_total_paths {
            self.flush_restart();
        }
        Ok(())
    }

    /// Processes a sequence of records.
    pub fn feed_all<'e>(&mut self, events: impl IntoIterator<Item = &'e U::Event>) -> Result<()>
    where
        U::Event: 'e,
    {
        for e in events {
            self.feed(e)?;
        }
        Ok(())
    }

    /// Processes a slice of records, applying fork-free stretches in
    /// batches.
    ///
    /// Semantically identical to calling [`SymbolicExecutor::feed`] per
    /// record — summaries, [`ExploreStats`], and errors all match byte
    /// for byte — but records are applied in windows of up to
    /// `BATCH_WINDOW` (32), **in place** on the live paths under a sealed
    /// probe context: zero clones, no merge/restart machinery. A window
    /// opens on every record. Live paths that agree for update
    /// ([`SymField::agrees_for_update`](crate::state::SymField::agrees_for_update))
    /// on every field share one run per record, on the first of them;
    /// the others take its result when the window commits
    /// ([`SymField::replay_from`](crate::state::SymField::replay_from)).
    /// [`ExploreStats::runs`] still counts a run per record and live path,
    /// as `feed` does.
    ///
    /// The moment a probe run forks or errors, the window rolls back to
    /// its snapshot: the records before the anomalous one, known calm,
    /// are applied in place again, and the anomalous one goes through
    /// full exploration.
    ///
    /// Under [`MergePolicy::Eager`] windows open only while a single path
    /// is live: fork-free records with several live paths still reach the
    /// merger under that policy, and batching must not skip it.
    pub fn feed_slice(&mut self, events: &[U::Event]) -> Result<()> {
        let mut i = 0;
        while i < events.len() {
            if self.batch_ready() {
                let end = (i + BATCH_WINDOW).min(events.len());
                i += self.apply_window(&events[i..end])?;
            } else {
                self.feed(&events[i])?;
                i += 1;
            }
        }
        Ok(())
    }

    /// Whether the batched fast path may open a window right now. A path
    /// count past the per-record bound must reach `feed`, which refuses it.
    fn batch_ready(&self) -> bool {
        let live = self.paths.len();
        live > 0
            && live <= self.cfg.max_paths_per_record
            && (self.cfg.merge_policy != MergePolicy::Eager || live == 1)
    }

    /// Applies one batch window in place, rolling back to the snapshot
    /// if any record forks or errors: the calm records before it are
    /// applied in place again and it goes through
    /// [`SymbolicExecutor::feed`]. Returns how many of `window`'s records
    /// were consumed (all of them on commit; up to and including the
    /// anomalous record on rollback).
    fn apply_window(&mut self, window: &[U::Event]) -> Result<usize> {
        self.arena.snapshots.clear();
        self.arena.snapshots.extend(self.paths.iter().cloned());
        self.arena.stats.snapshot_states += self.paths.len() as u64;
        self.arena.group(&self.paths);
        let Some(j) = self.run_leads(window) else {
            self.arena.snapshots.clear();
            self.commit(window.len());
            return Ok(window.len());
        };
        // Restore the window-entry paths. Statistics were not yet applied
        // for any record of the window, so what follows accounts each
        // exactly once.
        std::mem::swap(&mut self.paths, &mut self.arena.snapshots);
        self.arena.snapshots.clear();
        self.arena.stats.rollbacks += 1;
        if j > 0 {
            let calm = self.run_leads(&window[..j]);
            debug_assert!(calm.is_none(), "a calm prefix runs calm again");
            self.commit(j);
        }
        self.feed(&window[j])?;
        Ok(j + 1)
    }

    /// Runs `events` in place on the group leads, in record order; the
    /// index of the first record that forks or errors on some lead.
    fn run_leads(&mut self, events: &[U::Event]) -> Option<usize> {
        let probe = &mut self.arena.probe;
        for (j, e) in events.iter().enumerate() {
            for &k in &self.arena.leads {
                probe.rewind();
                self.uda.update(&mut self.paths[k], probe, e);
                if probe.fork_refused() || probe.has_error() {
                    return Some(j);
                }
            }
        }
        None
    }

    /// Commits the first `n` records of the open window, which its leads
    /// ran: the followers replay them, and the statistics account them
    /// exactly as the slow path would have (a run per record × live path,
    /// no forks).
    fn commit(&mut self, n: usize) {
        self.arena.replay_followers(&mut self.paths);
        let (n, live, leads) = (
            n as u64,
            self.paths.len() as u64,
            self.arena.leads.len() as u64,
        );
        self.stats.records += n;
        self.stats.runs += n * live;
        self.arena.stats.batched_records += n;
        self.arena.stats.in_place_runs += n * leads;
        self.arena.stats.replayed_runs += n * (live - leads);
    }

    /// The currently live paths (diagnostics; e.g. the Figure 3 demo
    /// prints them after every record).
    pub fn live_paths(&self) -> &[U::State] {
        &self.paths
    }

    /// Exploration statistics so far.
    pub fn stats(&self) -> ExploreStats {
        self.stats
    }

    /// Allocation-behavior counters from the exploration arena
    /// (diagnostics; not part of the checkpointed [`ExploreStats`]).
    pub fn arena_stats(&self) -> ArenaStats {
        self.arena.stats()
    }

    /// Flushes the live paths as a finished summary and restarts from
    /// fresh symbolic state (§5.2's fallback: the mapper emits multiple
    /// summaries that the reducer applies in order).
    fn flush_restart(&mut self) {
        debug_assert_disjoint(&self.paths);
        self.emitted.append(&mut self.paths);
        self.emitted_ends.push(self.emitted.len());
        self.paths.push(self.start.clone());
        self.high_water = 1;
        self.stats.restarts += 1;
    }

    /// Appends the chunk's summary chain — the flushed summaries, then the
    /// live paths — in the bytes [`SummaryChain::encode`] writes for what
    /// [`SymbolicExecutor::finish`] returns, without building the chain.
    pub fn encode_chain(&self, buf: &mut Vec<u8>) {
        debug_assert_disjoint(&self.paths);
        put_uvarint(buf, self.emitted_ends.len() as u64 + 1);
        let mut from = 0;
        for &end in &self.emitted_ends {
            encode_paths(&self.emitted[from..end], buf);
            from = end;
        }
        encode_paths(&self.paths, buf);
    }

    /// Completes the chunk, returning the summary chain and statistics.
    pub fn finish(self) -> (SummaryChain<U::State>, ExploreStats) {
        debug_assert_disjoint(&self.paths);
        let mut summaries = Vec::with_capacity(self.emitted_ends.len() + 1);
        let (mut emitted, mut from) = (self.emitted.into_iter(), 0);
        for end in self.emitted_ends {
            summaries.push(Summary::new(emitted.by_ref().take(end - from).collect()));
            from = end;
        }
        summaries.push(Summary::new(self.paths));
        (SummaryChain::new(summaries), self.stats)
    }
}

/// Debug builds check each summary as it is completed.
fn debug_assert_disjoint<S: SymState>(paths: &[S]) {
    debug_assert!(
        paths_pairwise_disjoint(paths),
        "engine emitted overlapping path constraints"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compose::{apply_chain, apply_summary};
    use crate::ctx::SymCtx;
    use crate::impl_sym_state;
    use crate::interval::Interval;
    use crate::types::sym_int::SymInt;
    use crate::types::sym_pred::SymPred;
    use crate::types::sym_vector::SymVector;
    use proptest::prelude::*;

    struct MaxUda;

    #[derive(Clone, Debug)]
    struct MaxState {
        max: SymInt,
    }
    impl_sym_state!(MaxState { max });

    impl Uda for MaxUda {
        type State = MaxState;
        type Event = i64;
        type Output = i64;
        fn init(&self) -> MaxState {
            MaxState {
                max: SymInt::new(i64::MIN),
            }
        }
        fn update(&self, s: &mut MaxState, ctx: &mut SymCtx, e: &i64) {
            if s.max.lt(ctx, *e) {
                s.max.assign(*e);
            }
        }
        fn result(&self, s: &MaxState, _ctx: &mut SymCtx) -> i64 {
            s.max.concrete_value().expect("final state concrete")
        }
    }

    #[test]
    fn explore_stats_absorb_adds_counters_and_maxes_the_peak() {
        let mut total = ExploreStats::default();
        total.absorb(ExploreStats {
            records: 5,
            runs: 9,
            max_live_paths: 3,
            ..Default::default()
        });
        total.absorb(ExploreStats {
            records: 2,
            runs: 2,
            max_live_paths: 2,
            ..Default::default()
        });
        assert_eq!(total.records, 7);
        assert_eq!(total.runs, 11);
        assert_eq!(total.max_live_paths, 3);
    }

    #[test]
    fn figure3_summary_shape() {
        // §3.1–3.5 running example: input [5, 3, 10].
        let uda = MaxUda;
        let mut exec = SymbolicExecutor::new(&uda, EngineConfig::default());
        exec.feed_all([5, 3, 10].iter()).unwrap();
        let (chain, stats) = exec.finish();
        assert_eq!(chain.len(), 1);
        let summary = &chain.summaries()[0];
        assert_eq!(summary.len(), 2);
        // x ≤ 9 ⇒ max = 10  (the paper writes x < 10).
        let consts: Vec<_> = summary
            .paths()
            .iter()
            .filter(|p| p.max.concrete_value() == Some(10))
            .collect();
        assert_eq!(consts.len(), 1);
        assert_eq!(consts[0].max.constraint(), Interval::new(i64::MIN, 9));
        // x ≥ 10 ⇒ max = x.
        let ids: Vec<_> = summary
            .paths()
            .iter()
            .filter(|p| p.max.coeffs() == (1, 0))
            .collect();
        assert_eq!(ids.len(), 1);
        assert_eq!(ids[0].max.constraint(), Interval::new(10, i64::MAX));
        assert!(stats.merges >= 1, "the two ⇒10 paths must have merged");
        assert_eq!(stats.records, 3);
    }

    #[test]
    fn merge_policies_agree_on_semantics() {
        let uda = MaxUda;
        let input = [5i64, 3, 10, 8, 2, 1, 42, 7];
        for policy in [
            MergePolicy::Eager,
            MergePolicy::HighWater,
            MergePolicy::Never,
        ] {
            let cfg = EngineConfig {
                merge_policy: policy,
                ..EngineConfig::default()
            };
            let mut exec = SymbolicExecutor::new(&uda, cfg);
            exec.feed_all(input.iter()).unwrap();
            let (chain, _) = exec.finish();
            for v in [-100, 0, 9, 10, 41, 42, 43] {
                let init = MaxState {
                    max: SymInt::new(v),
                };
                let fin = apply_chain(&chain, &init).unwrap();
                assert_eq!(
                    fin.max.concrete_value(),
                    Some(v.max(42)),
                    "policy {policy:?} v={v}"
                );
            }
        }
    }

    #[test]
    fn restart_fallback_produces_multiple_summaries() {
        // Force restarts with a tiny total-path bound and no merging.
        let uda = MaxUda;
        let cfg = EngineConfig {
            max_total_paths: 1,
            merge_policy: MergePolicy::Never,
            ..EngineConfig::default()
        };
        let mut exec = SymbolicExecutor::new(&uda, cfg);
        exec.feed_all([5, 3, 10].iter()).unwrap();
        let (chain, stats) = exec.finish();
        assert!(stats.restarts >= 1);
        assert!(chain.len() >= 2);
        // Semantics must be unaffected.
        let init = MaxState {
            max: SymInt::new(7),
        };
        let fin = apply_chain(&chain, &init).unwrap();
        assert_eq!(fin.max.concrete_value(), Some(10));
    }

    struct LoopyUda;

    #[derive(Clone, Debug)]
    struct LoopyState {
        v: SymInt,
    }
    impl_sym_state!(LoopyState { v });

    impl Uda for LoopyUda {
        type State = LoopyState;
        type Event = i64;
        type Output = i64;
        fn init(&self) -> LoopyState {
            LoopyState { v: SymInt::new(0) }
        }
        fn update(&self, s: &mut LoopyState, ctx: &mut SymCtx, _e: &i64) {
            // A bounded but exploding pattern: every record forks without
            // ever binding, and transfers differ so nothing merges.
            if s.v.lt(ctx, 0) {
                s.v += 1;
            } else {
                s.v += 2;
            }
        }
        fn result(&self, s: &LoopyState, _ctx: &mut SymCtx) -> i64 {
            s.v.concrete_value().unwrap_or(0)
        }
    }

    #[test]
    fn per_record_explosion_detected() {
        let uda = LoopyUda;
        let cfg = EngineConfig {
            max_paths_per_record: 4,
            max_total_paths: 1_000,
            merge_policy: MergePolicy::Never,
        };
        let mut exec = SymbolicExecutor::new(&uda, cfg);
        // Each record multiplies live paths; per-record bound trips.
        let mut tripped = false;
        for e in 0..10 {
            if let Err(Error::PathExplosion { .. }) = exec.feed(&e) {
                tripped = true;
                break;
            }
        }
        assert!(tripped);
    }

    #[test]
    fn restart_bounds_live_paths() {
        let uda = LoopyUda;
        let cfg = EngineConfig {
            max_paths_per_record: 1_000,
            max_total_paths: 8,
            merge_policy: MergePolicy::Never,
        };
        let mut exec = SymbolicExecutor::new(&uda, cfg);
        for e in 0..10 {
            exec.feed(&e).unwrap();
        }
        assert!(
            exec.live_paths().len() <= 16,
            "restart keeps live paths bounded"
        );
        let (chain, stats) = exec.finish();
        assert!(stats.restarts > 0);
        // Correctness through restarts: equals sequential execution.
        let init = LoopyState {
            v: SymInt::new(-100),
        };
        let fin = apply_chain(&chain, &init).unwrap();
        let mut expect = -100i64;
        for _ in 0..10 {
            expect += if expect < 0 { 1 } else { 2 };
        }
        assert_eq!(fin.max_value(), expect);
    }

    impl LoopyState {
        fn max_value(&self) -> i64 {
            self.v.concrete_value().unwrap()
        }
    }

    /// Forks only on negative events: positive stretches are fork-free
    /// (batchable), negatives force rollback + full exploration.
    struct MixedUda;

    #[derive(Clone, Debug)]
    struct MixedState {
        min: SymInt,
        n: SymInt,
    }
    impl_sym_state!(MixedState { min, n });

    impl Uda for MixedUda {
        type State = MixedState;
        type Event = i64;
        type Output = i64;
        fn init(&self) -> MixedState {
            MixedState {
                min: SymInt::new(0),
                n: SymInt::new(0),
            }
        }
        fn update(&self, s: &mut MixedState, ctx: &mut SymCtx, e: &i64) {
            s.n += 1;
            if *e < 0 && s.min.gt(ctx, *e) {
                s.min.assign(*e);
            }
        }
        fn result(&self, s: &MixedState, _ctx: &mut SymCtx) -> i64 {
            s.min.concrete_value().unwrap_or(0)
        }
    }

    /// Mostly-calm stream with periodic forking records.
    fn mixed_stream(n: usize) -> Vec<i64> {
        (0..n as i64)
            .map(|i| if i % 17 == 13 { -i } else { i % 7 })
            .collect()
    }

    #[test]
    fn feed_slice_is_byte_identical_to_feed() {
        // The batched fast path must be invisible: identical summary
        // bytes and identical ExploreStats for every merge policy, on a
        // stream that exercises commits *and* rollbacks.
        let events = mixed_stream(300);
        for policy in [
            MergePolicy::Eager,
            MergePolicy::HighWater,
            MergePolicy::Never,
        ] {
            let cfg = EngineConfig {
                merge_policy: policy,
                ..EngineConfig::default()
            };
            let mut per_record = SymbolicExecutor::new(&MixedUda, cfg);
            per_record.feed_all(events.iter()).unwrap();
            let (chain_a, stats_a) = per_record.finish();

            let mut batched = SymbolicExecutor::new(&MixedUda, cfg);
            batched.feed_slice(&events).unwrap();
            let arena = batched.arena_stats();
            let (chain_b, stats_b) = batched.finish();

            assert_eq!(stats_a, stats_b, "stats differ under {policy:?}");
            let (mut a, mut b) = (Vec::new(), Vec::new());
            chain_a.encode(&mut a);
            chain_b.encode(&mut b);
            assert_eq!(a, b, "summary bytes differ under {policy:?}");
            // The fast path must actually engage. Under Eager, once the
            // first fork leaves two live paths batching is (correctly)
            // ineligible, so the early window's rollback is the proof.
            assert!(
                arena.batched_records > 0 || arena.rollbacks > 0,
                "the fast path never engaged under {policy:?}"
            );
        }
    }

    #[test]
    fn batch_rollback_replays_forking_record_exactly() {
        // A window that hits a forking record rolls back and replays;
        // the rollback counter proves the path ran, the stats equality
        // proves it was invisible.
        let mut events = vec![1i64; 40];
        events.push(-100); // forks mid-window
        events.extend(std::iter::repeat_n(2, 20));
        let cfg = EngineConfig::default();

        let mut per_record = SymbolicExecutor::new(&MixedUda, cfg);
        per_record.feed_all(events.iter()).unwrap();
        let mut batched = SymbolicExecutor::new(&MixedUda, cfg);
        batched.feed_slice(&events).unwrap();

        assert!(batched.arena_stats().rollbacks >= 1);
        assert_eq!(per_record.stats(), batched.stats());
        let (ca, _) = per_record.finish();
        let (cb, _) = batched.finish();
        let (mut a, mut b) = (Vec::new(), Vec::new());
        ca.encode(&mut a);
        cb.encode(&mut b);
        assert_eq!(a, b);
    }

    /// Satellite regression: exploring a forky record over a state with a
    /// large aggregate field must *share* the aggregate across the
    /// resulting paths, not copy it — allocation scales with the path
    /// count, never path count × state size.
    struct VecLogUda;

    #[derive(Clone, Debug)]
    struct VecLogState {
        log: SymVector<i64>,
        min: SymInt,
    }
    impl_sym_state!(VecLogState { log, min });

    impl Uda for VecLogUda {
        type State = VecLogState;
        type Event = i64;
        type Output = i64;
        fn init(&self) -> VecLogState {
            VecLogState {
                log: SymVector::new(),
                min: SymInt::new(0),
            }
        }
        fn update(&self, s: &mut VecLogState, ctx: &mut SymCtx, e: &i64) {
            if *e >= 0 {
                s.log.push(*e);
            } else if s.min.gt(ctx, *e) {
                s.min.assign(*e);
            }
        }
        fn result(&self, s: &VecLogState, _ctx: &mut SymCtx) -> i64 {
            s.log.len() as i64
        }
    }

    #[test]
    fn forked_paths_share_large_aggregate_storage() {
        let uda = VecLogUda;
        let mut exec = SymbolicExecutor::new(&uda, EngineConfig::default());
        // Grow the aggregate to 1000 elements over fork-free records (the
        // batched fast path applies these in place — zero clones).
        let warmup: Vec<i64> = (0..1000).collect();
        exec.feed_slice(&warmup).unwrap();
        let calm_clones = exec.arena_stats().state_clones;
        assert!(
            exec.arena_stats().in_place_runs >= 900,
            "calm records must batch"
        );

        // One forking record: every explored path snapshots the state.
        exec.feed(&-5).unwrap();
        let paths = exec.live_paths();
        assert!(paths.len() >= 2, "the record must fork");
        for w in paths.windows(2) {
            assert!(
                w[0].log.shares_storage_with(&w[1].log),
                "sibling paths must share the untouched 1000-element log"
            );
        }
        // The fork cost clones proportional to the explored runs — a
        // handful — regardless of the 1000-element aggregate.
        let fork_clones = exec.arena_stats().state_clones - calm_clones;
        assert!(
            fork_clones <= 8,
            "fork over a big state took {fork_clones} clones"
        );
    }

    /// The gap detector of B1, B2 and R3: forks on a chunk's first record
    /// only, then reports `(start, length)` of every gap on both paths.
    struct GapUda;

    #[derive(Clone, Debug)]
    struct GapState {
        prev: SymPred<i64>,
        out: SymVector<i64>,
    }
    impl_sym_state!(GapState { prev, out });

    impl Uda for GapUda {
        type State = GapState;
        type Event = i64;
        type Output = usize;
        fn init(&self) -> GapState {
            GapState {
                prev: SymPred::new(|prev: &i64, cur: &i64| cur - prev < 10)
                    .with_initial_outcome(true),
                out: SymVector::new(),
            }
        }
        fn update(&self, s: &mut GapState, ctx: &mut SymCtx, ts: &i64) {
            if !s.prev.eval(ctx, ts) {
                s.out.push_scalar(s.prev.affine_scalar(1, 0).unwrap());
                s.out.push_scalar(s.prev.affine_scalar(-1, *ts).unwrap());
            }
            s.prev.set(*ts);
        }
        fn result(&self, s: &GapState, _ctx: &mut SymCtx) -> usize {
            s.out.len()
        }
    }

    #[test]
    fn output_pushed_inside_batch_windows_costs_a_cell_per_window() {
        // A gap every third record: 2 000 records, ≈ 1 300 elements a path.
        let stream: Vec<i64> = (0..2_000).map(|i| i * 4 + (i % 3) * 10).collect();
        let mut exec = SymbolicExecutor::new(&GapUda, EngineConfig::default());
        exec.feed_slice(&stream).unwrap();
        let (stats, arena) = (exec.stats(), exec.arena_stats());
        let paths = exec.live_paths();
        assert_eq!(paths.len(), 2);
        // A window's snapshot shares each path's tail cell, so the first
        // push of a (window, path) opens a cell and the rest of the window
        // grows it in place; a record explored the slow way clones the
        // state and opens a cell for what it pushes.
        let windows = arena.snapshot_states / paths.len() as u64;
        let slow_records = stats.records - arena.batched_records;
        assert!(slow_records <= 8, "{arena:?}");
        for path in paths {
            assert!(path.out.len() >= 1_300);
            let cells = path.out.cells() as u64;
            assert!(
                cells <= windows + slow_records + 1,
                "{cells} cells, {windows} windows, {slow_records} slow records"
            );
            assert!(path.out.len() as u64 >= 16 * cells);
        }
    }

    /// `feed_slice` against per-record `feed` over one stream: outcome,
    /// statistics and chain bytes agree. Returns the batched run's arena
    /// counters.
    fn assert_batching_is_invisible<U: Uda<Event = i64>>(
        uda: &U,
        cfg: EngineConfig,
        events: &[i64],
    ) -> ArenaStats {
        let mut per_record = SymbolicExecutor::new(uda, cfg);
        let want = per_record.feed_all(events);
        let mut batched = SymbolicExecutor::new(uda, cfg);
        assert_eq!(batched.feed_slice(events), want);
        assert_eq!(batched.stats(), per_record.stats());
        if want.is_ok() {
            let (mut a, mut b) = (Vec::new(), Vec::new());
            per_record.encode_chain(&mut a);
            batched.encode_chain(&mut b);
            assert_eq!(a, b, "chain bytes differ");
        }
        batched.arena_stats()
    }

    #[test]
    fn agreeing_paths_run_each_record_once() {
        // After the first record the gap detector's two paths hold one
        // `prev` and differ only in `out` and in the first decision.
        let stream: Vec<i64> = (0..200).map(|i| i * 4 + (i % 3) * 10).collect();
        for merge_policy in [MergePolicy::HighWater, MergePolicy::Never] {
            let cfg = EngineConfig {
                merge_policy,
                ..EngineConfig::default()
            };
            let arena = assert_batching_is_invisible(&GapUda, cfg, &stream);
            assert_eq!(arena.batched_records, 199, "{arena:?}");
            assert_eq!(arena.in_place_runs, 199, "{arena:?}");
            assert_eq!(arena.replayed_runs, 199, "{arena:?}");
        }
    }

    /// The gap detector plus a counter that only the first record's gap
    /// path bumps (until a multiple of 5 rebinds it) and a running minimum
    /// that forks on events of 990 and up: groups form, dissolve and form
    /// again, and windows fork midway.
    struct GapCountUda;

    #[derive(Clone, Debug)]
    struct GapCountState {
        prev: SymPred<i64>,
        out: SymVector<i64>,
        n: SymInt,
        lo: SymInt,
    }
    impl_sym_state!(GapCountState { prev, out, n, lo });

    impl Uda for GapCountUda {
        type State = GapCountState;
        type Event = i64;
        type Output = usize;
        fn init(&self) -> GapCountState {
            GapCountState {
                prev: SymPred::new(|prev: &i64, cur: &i64| cur - prev < 10),
                out: SymVector::new(),
                n: SymInt::new(0),
                lo: SymInt::new(0),
            }
        }
        fn update(&self, s: &mut GapCountState, ctx: &mut SymCtx, ts: &i64) {
            if !s.prev.eval(ctx, ts) {
                s.out.push_scalar(s.prev.affine_scalar(-1, *ts).unwrap());
                if ts % 3 == 0 {
                    s.n += 1;
                }
            }
            if ts % 5 == 0 {
                s.n.assign(ts % 2);
            }
            if *ts >= 990 && s.lo.gt(ctx, -ts) {
                s.lo.assign(-ts);
            }
            s.prev.set(*ts);
        }
        fn result(&self, s: &GapCountState, _ctx: &mut SymCtx) -> usize {
            s.out.len()
        }
    }

    #[test]
    fn groups_dissolve_and_form_again_per_window() {
        // 3 forks the paths apart in `n`; 20 rebinds it, but only the next
        // window regroups; 995 forks the running minimum mid-window.
        let stream: Vec<i64> = [3, 4, 7, 8, 11, 13, 14, 16, 17, 19]
            .into_iter()
            .chain(20..80)
            .chain([995, 1000, 1003])
            .chain(1004..1040)
            .collect();
        let arena = assert_batching_is_invisible(&GapCountUda, EngineConfig::default(), &stream);
        assert!(arena.replayed_runs > 0, "{arena:?}");
        assert!(arena.in_place_runs > arena.batched_records, "{arena:?}");
        assert!(arena.rollbacks >= 2, "{arena:?}");
    }

    #[test]
    fn a_fork_on_a_windows_last_record_explores_only_that_record() {
        let mut events = vec![1i64; BATCH_WINDOW - 1];
        events.push(-100);
        events.extend([2; 10]);
        let arena = assert_batching_is_invisible(&MixedUda, EngineConfig::default(), &events);
        assert_eq!(arena.rollbacks, 1, "{arena:?}");
        // The 31 calm records before the fork are applied in place again.
        assert_eq!(arena.batched_records, events.len() as u64 - 1, "{arena:?}");
        // One path, two runs of the forking record: its only clones.
        assert_eq!(arena.state_clones, 2, "{arena:?}");
    }

    /// Every way a chunk can go: calm stretches that batch (`e % 4 == 0`),
    /// one- and three-way forking records (the latter trips a small
    /// per-record bound mid-record), restarts under a small total bound,
    /// and an overflow that a probe window meets first (`e >= 1000`).
    struct ForkyUda;

    #[derive(Clone, Debug)]
    struct ForkyState {
        a: SymInt,
        b: SymInt,
        c: SymInt,
    }
    impl_sym_state!(ForkyState { a, b, c });

    impl Uda for ForkyUda {
        type State = ForkyState;
        type Event = i64;
        type Output = i64;
        fn init(&self) -> ForkyState {
            ForkyState {
                a: SymInt::new(0),
                b: SymInt::new(0),
                c: SymInt::new(0),
            }
        }
        fn update(&self, s: &mut ForkyState, ctx: &mut SymCtx, e: &i64) {
            if *e >= 1000 {
                s.c.add(ctx, i64::MAX / 2);
                return;
            }
            s.c.add(ctx, 1);
            if e % 4 != 0 && s.a.lt(ctx, *e) {
                s.a.assign(*e);
            }
            if e % 4 == 3 {
                if s.b.gt(ctx, -*e) {
                    s.b.assign(-*e);
                }
                if s.c.lt(ctx, *e) {
                    s.c.add(ctx, *e);
                }
            }
        }
        fn result(&self, s: &ForkyState, _ctx: &mut SymCtx) -> i64 {
            s.c.concrete_value().unwrap_or(0)
        }
    }

    /// Feeds each stream to a fresh executor and to `reused` after a
    /// `reset()`: outcome, statistics and chain bytes must agree, whatever
    /// the previous stream left behind. Returns each stream's outcome.
    fn assert_reuse_is_invisible(cfg: EngineConfig, streams: &[Vec<i64>]) -> Vec<Result<()>> {
        let mut reused = SymbolicExecutor::new(&ForkyUda, cfg);
        let mut outcomes = Vec::new();
        for events in streams {
            let mut fresh = SymbolicExecutor::new(&ForkyUda, cfg);
            let want = fresh.feed_slice(events);
            reused.reset();
            assert_eq!(reused.feed_slice(events), want);
            assert_eq!(reused.stats(), fresh.stats());
            assert_eq!(reused.arena_stats(), fresh.arena_stats());
            if want.is_ok() {
                let mut in_place = Vec::new();
                reused.encode_chain(&mut in_place);
                let (chain, stats) = fresh.finish();
                assert_eq!(in_place, chain.to_bytes());
                assert_eq!(reused.stats(), stats);
            }
            outcomes.push(want);
        }
        outcomes
    }

    #[test]
    fn reset_after_a_refusal_mid_record_leaves_no_trace() {
        let calm = vec![4i64; 12];
        // Forks, then a three-way record over several live paths: the
        // per-record bound trips with `out` half filled.
        let exploding = [vec![1, 5, 9, 3, 7, 11], calm.clone()].concat();
        // The overflow is met inside a batch window: the probe latches it,
        // the window rolls back, the replay reports it.
        let overflowing = [calm.clone(), vec![1000, 1000, 1000, 4]].concat();
        let restarting = vec![1, 5, 9, 13, 17, 21, 4, 4];
        let cfg = EngineConfig {
            max_paths_per_record: 4,
            max_total_paths: 3,
            merge_policy: MergePolicy::Never,
        };
        let streams = [exploding, calm, overflowing, restarting, vec![]];
        let outcomes = assert_reuse_is_invisible(cfg, &streams);
        assert!(matches!(outcomes[0], Err(Error::PathExplosion { .. })));
        assert_eq!(outcomes[1], Ok(()));
        assert!(matches!(outcomes[2], Err(Error::ArithmeticOverflow { .. })));
        assert_eq!(outcomes[3], Ok(()));

        let mut exec = SymbolicExecutor::new(&ForkyUda, cfg);
        exec.feed_slice(&streams[3]).unwrap();
        assert!(exec.stats().restarts > 0, "the fixture must restart");
        exec.feed_slice(&streams[2]).unwrap_err();
        assert!(exec.arena_stats().rollbacks > 0, "the probe must meet it");
    }

    #[test]
    fn reset_forgets_the_high_water_mark() {
        // Under `HighWater` a mark left at 3 would keep the second
        // stream's three paths from reaching the merger.
        let cfg = EngineConfig::default();
        let streams = [vec![1, 5, 9, 3], vec![5, 2, 10]];
        let mut exec = SymbolicExecutor::new(&ForkyUda, cfg);
        exec.feed_slice(&streams[0]).unwrap();
        assert!(exec.live_paths().len() >= 3);
        exec.reset();
        exec.feed_slice(&streams[1]).unwrap();
        assert!(exec.stats().merges >= 1, "the fixture must merge");
        assert_reuse_is_invisible(cfg, &streams);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// One executor, `reset()` between streams, is a fresh executor per
        /// stream — chain bytes, `ExploreStats`, arena counters and errors —
        /// under every merge policy and bounds small enough to restart and
        /// to refuse.
        #[test]
        fn a_reset_executor_is_a_fresh_executor(
            streams in prop::collection::vec(
                prop::collection::vec(prop_oneof![Just(4i64), Just(8), 0i64..40, 990i64..1010], 0..50),
                1..6,
            ),
            policy in 0usize..3,
            max_paths_per_record in 2usize..9,
            max_total_paths in 1usize..6,
        ) {
            let merge_policy =
                [MergePolicy::Eager, MergePolicy::HighWater, MergePolicy::Never][policy];
            let cfg = EngineConfig { max_paths_per_record, max_total_paths, merge_policy };
            assert_reuse_is_invisible(cfg, &streams);
        }

        /// Grouped windows are per-record `feed`: chain bytes,
        /// `ExploreStats` and errors, over streams that fork mid-window,
        /// under every merge policy and bounds small enough to restart and
        /// to refuse. `ForkyUda`'s live paths are disjoint in some `SymInt`
        /// interval, so they never agree and nothing is replayed.
        #[test]
        fn grouped_windows_are_per_record_feed(
            events in prop::collection::vec(prop_oneof![0i64..40, 990i64..1010], 0..80),
            policy in 0usize..3,
            max_paths_per_record in 2usize..9,
            max_total_paths in 1usize..6,
        ) {
            let merge_policy =
                [MergePolicy::Eager, MergePolicy::HighWater, MergePolicy::Never][policy];
            let cfg = EngineConfig { max_paths_per_record, max_total_paths, merge_policy };
            assert_batching_is_invisible(&GapCountUda, cfg, &events);
            let arena = assert_batching_is_invisible(&ForkyUda, cfg, &events);
            prop_assert_eq!(arena.replayed_runs, 0);
        }
    }

    #[test]
    fn first_summary_applies_to_concrete_init() {
        // A symbolic chunk applied to the UDA's concrete initial state must
        // match running that chunk concretely.
        let uda = MaxUda;
        let mut exec = SymbolicExecutor::new(&uda, EngineConfig::default());
        exec.feed_all([2, 9, 1].iter()).unwrap();
        let (chain, _) = exec.finish();
        assert_eq!(chain.len(), 1);
        let fin = apply_summary(&chain.summaries()[0], &uda.init()).unwrap();
        assert_eq!(fin.max.concrete_value(), Some(9));
    }
}
