//! The executor's exploration arena: recycled state generations, the
//! exploration and probe contexts, and rollback snapshots and path groups
//! for batched event application.
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
//! * **Path groups** — when a window opens, the live paths that
//!   [agree for update](crate::state::SymField::agrees_for_update) on every
//!   field form a group; the window runs only each group's first path (its
//!   lead) and, when it commits, brings the others up to date from the lead
//!   field by field ([`SymField::replay_from`](crate::state::SymField::replay_from))
//!   against the marks taken
//!   here. The gap detector's two paths differ only in their output vector
//!   and the decisions of a predicate that holds a value again, so they run
//!   each record once. The group and mark buffers are reused window after
//!   window.
//!
//! The workspace forbids `unsafe`, so this is an arena in the recycling
//! sense (generation pools + structural sharing), not a raw bump
//! allocator: the same allocations are reused record after record and key
//! after key, which is what the hot path actually needs.

use crate::ctx::SymCtx;
use crate::state::SymState;

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
    /// Update runs applied in place by the batched fast path (no clone):
    /// one per committed record and group lead.
    pub in_place_runs: u64,
    /// Update runs a committed window did not make: one per committed
    /// record and group follower, which took its lead's result instead.
    pub replayed_runs: u64,
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
    /// The open window's group leads, as live-path indices in path order.
    pub(crate) leads: Vec<usize>,
    /// Per live path, the index into `leads` of its group.
    group_of: Vec<usize>,
    /// Per group, its lead's
    /// [`SymField::replay_mark`](crate::state::SymField::replay_mark) of every field when
    /// the window opened (empty while no group has a follower).
    marks: Vec<usize>,
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
            leads: Vec::new(),
            group_of: Vec::new(),
            marks: Vec::new(),
            stats: ArenaStats::default(),
        }
    }

    /// The arena's allocation-behavior counters so far.
    pub fn stats(&self) -> ArenaStats {
        self.stats
    }
}

impl<S: SymState> ExploreArena<S> {
    /// Groups `paths` for a window that is opening: each path joins the
    /// group of the first lead it agrees with on every field, or leads a
    /// group of its own. Takes the leads' replay marks when some group has
    /// a follower.
    pub(crate) fn group(&mut self, paths: &[S]) {
        self.leads.clear();
        self.group_of.clear();
        self.marks.clear();
        for (k, path) in paths.iter().enumerate() {
            let joined = self
                .leads
                .iter()
                .position(|&lead| agree_for_update(&paths[lead], path));
            self.group_of.push(joined.unwrap_or(self.leads.len()));
            if joined.is_none() {
                self.leads.push(k);
            }
        }
        if self.leads.len() < paths.len() {
            for &lead in &self.leads {
                let lead = &paths[lead];
                let marks = (0..lead.field_count()).map(|i| lead.field_ref_at(i).replay_mark());
                self.marks.extend(marks);
            }
        }
    }

    /// Brings every follower up to date with its lead, which ran the
    /// window's committed records in place since [`ExploreArena::group`].
    pub(crate) fn replay_followers(&self, paths: &mut [S]) {
        if self.marks.is_empty() {
            return;
        }
        for (k, &g) in self.group_of.iter().enumerate() {
            let lead = self.leads[g];
            if lead == k {
                continue;
            }
            // A lead comes before its followers in path order.
            let (done, rest) = paths.split_at_mut(k);
            let (lead, follower) = (&done[lead], &mut rest[0]);
            let fields = lead.field_count();
            let marks = &self.marks[g * fields..(g + 1) * fields];
            for (i, &mark) in marks.iter().enumerate() {
                follower
                    .field_mut_at(i)
                    .replay_from(lead.field_ref_at(i), mark);
            }
        }
    }
}

/// Whether a record's `update` runs the same way over `a` and over `b`.
fn agree_for_update<S: SymState>(a: &S, b: &S) -> bool {
    (0..a.field_count()).all(|i| a.field_ref_at(i).agrees_for_update(b.field_ref_at(i)))
}

impl<S> Default for ExploreArena<S> {
    fn default() -> ExploreArena<S> {
        ExploreArena::new()
    }
}
