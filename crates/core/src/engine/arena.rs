//! The executor's exploration arena: recycled state generations, the
//! exploration and probe contexts, and rollback snapshots for batched
//! event application.
//!
//! An arena lives as long as its executor, and a map task holds one
//! executor for every key of its segment
//! ([`SymbolicExecutor::reset`](crate::engine::SymbolicExecutor::reset)
//! between keys), so everything here is allocated per *task*: a cell of
//! three events costs no `Vec`.
//!
//! A chunk's exploration churns through `paths × choice-vectors` state
//! values per record. Allocating each generation afresh (and dropping the
//! previous one) dominated map CPU at scale, so the executor owns an
//! [`ExploreArena`] instead:
//!
//! * **Generation buffers** — the per-record exploration output (`out`)
//!   and the live path set swap roles every record, so the steady state
//!   allocates nothing: a record's output is written into the buffer the
//!   previous generation vacated.
//! * **Copy-on-write states** — the symbolic field types already share
//!   structure on clone (`SymVector` is a persistent cons list behind
//!   `Arc`; `SymPred` keeps its decisions in an `Arc` with make-mut
//!   semantics; the scalar types are inline). A "clone" of a path is
//!   therefore a shallow field snapshot: unchanged aggregate fields share
//!   storage with every other path that holds them. The arena counts
//!   those snapshots ([`ArenaStats::state_clones`]) so tests can pin that
//!   allocation scales with the *path count*, not path count × state
//!   size.
//! * **One exploration context** — the choice vector that enumerates a
//!   path's feasible runs is rewound per path, not constructed, so its
//!   digit buffer is allocated by the task's first fork and by no other.
//! * **Batch window support** — the arena's snapshot buffer holds the
//!   live path set captured at a batch-window boundary, and its probe
//!   context is the reusable sealed [`SymCtx`] that
//!   applies fork-free records **in place** (zero clones). When a probe
//!   run forks or errors, the window rolls back to the snapshot and
//!   replays through full exploration — byte-identical summaries and
//!   statistics either way.
//!
//! The workspace forbids `unsafe`, so this is an arena in the recycling
//! sense (generation pools + structural sharing), not a raw bump
//! allocator: the same allocations are reused record after record and key
//! after key, which is what the hot path actually needs.

use crate::ctx::SymCtx;

/// Allocation-behavior counters for one chunk's exploration (one key's
/// events: [`SymbolicExecutor::reset`](crate::engine::SymbolicExecutor::reset)
/// zeroes them).
///
/// These are *diagnostics*, deliberately kept out of
/// [`ExploreStats`](crate::engine::ExploreStats): that struct is
/// serialized into checkpoint frames and equality-compared across
/// resume paths, so its layout is frozen, and the fast path must produce
/// identical values for it whether or not batching kicked in. Arena
/// counters, by contrast, describe *how* the work was done.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Full (shallow, structure-sharing) state snapshots taken by the
    /// exploration slow path — one per update run.
    pub state_clones: u64,
    /// Update runs applied in place by the batched fast path (no clone).
    pub in_place_runs: u64,
    /// Records committed through batch windows.
    pub batched_records: u64,
    /// Batch windows that hit a fork or error, rolled back to their
    /// snapshot, and replayed through full exploration.
    pub rollbacks: u64,
    /// States captured into window snapshots (rollback insurance).
    pub snapshot_states: u64,
}

/// The recycled allocations backing one executor's hot loop.
#[derive(Debug)]
pub struct ExploreArena<S> {
    /// Per-record exploration output; swaps roles with the live path set
    /// every record, so both buffers are reused indefinitely.
    pub(crate) out: Vec<S>,
    /// Live-path snapshot taken at a batch-window boundary; restored
    /// wholesale on rollback.
    pub(crate) snapshots: Vec<S>,
    /// The symbolic context of full exploration, rewound per path.
    pub(crate) explore: SymCtx,
    /// Reusable sealed probe context for in-place batched application.
    pub(crate) probe: SymCtx,
    /// Allocation-behavior counters.
    pub(crate) stats: ArenaStats,
}

impl<S> ExploreArena<S> {
    /// A fresh, empty arena.
    pub fn new() -> ExploreArena<S> {
        ExploreArena {
            out: Vec::new(),
            snapshots: Vec::new(),
            explore: SymCtx::symbolic(),
            probe: SymCtx::probe(),
            stats: ArenaStats::default(),
        }
    }

    /// The arena's allocation-behavior counters so far.
    pub fn stats(&self) -> ArenaStats {
        self.stats
    }
}

impl<S> Default for ExploreArena<S> {
    fn default() -> ExploreArena<S> {
        ExploreArena::new()
    }
}
