//! Execution context: the choice vector that drives systematic path
//! exploration (§5.1 of the paper).
//!
//! SYMPLE explores the feasible paths of one `Update` invocation by
//! re-running it, each time following a different *choice vector* of branch
//! outcomes. The paper uses binary digits (0 = then, 1 = else) and advances
//! the vector lexicographically: pop trailing maximal digits, then increment
//! the last remaining digit.
//!
//! This implementation generalizes digits to small arities, because an
//! equality test on a `SymInt` can have up to **three** feasible outcomes
//! (`x < x₀`, `x = x₀`, `x > x₀` — the "not equal" side of an interval is
//! not itself an interval, so it must fork). A multi-way choice is
//! semantically a sequence of binary choices; the mixed-radix vector is the
//! direct encoding.

use crate::error::Error;
use crate::state::FieldId;

/// A mixed-radix choice vector: one digit (with its arity) per branch at
/// which more than one outcome was feasible.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChoiceVector {
    digits: Vec<Digit>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Digit {
    value: u8,
    arity: u8,
}

impl ChoiceVector {
    /// Number of recorded choice points.
    pub fn len(&self) -> usize {
        self.digits.len()
    }

    /// Whether no choice point has been recorded.
    pub fn is_empty(&self) -> bool {
        self.digits.is_empty()
    }

    /// Advances to the lexicographically next vector.
    ///
    /// Pops trailing digits at their maximum and increments the last
    /// remaining digit. Returns `false` when the space is exhausted.
    fn advance(&mut self) -> bool {
        while let Some(d) = self.digits.last() {
            if d.value + 1 < d.arity {
                break;
            }
            self.digits.pop();
        }
        match self.digits.last_mut() {
            Some(d) => {
                d.value += 1;
                true
            }
            None => false,
        }
    }

    /// Empties the vector, retaining its digit capacity so a recycled
    /// context never reallocates across records.
    pub(crate) fn clear(&mut self) {
        self.digits.clear();
    }
}

/// Execution mode of a [`SymCtx`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Branches on symbolic values fork according to the choice vector.
    Symbolic,
    /// All state must be concrete; an attempted fork is an error.
    Concrete,
    /// Like [`Mode::Symbolic`], but additionally records every symbolic
    /// operation in a footprint for the static analyzer.
    Analysis,
}

/// The class of a symbolic operation recorded in an analysis footprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// A comparison or set-membership test that steers control flow.
    Guard,
    /// An arithmetic update (`add`, `mul`, …) on a symbolic scalar.
    Arith,
    /// An opaque-predicate evaluation ([`crate::SymPred::eval`]).
    PredEval,
}

/// One symbolic operation observed during an analysis-mode run.
///
/// The analyzer replays a UDA's `update` from an all-symbolic "top" state
/// and aggregates these records into per-query facts: which fields steer
/// control flow (guard liveness), how often predicates widen their decision
/// windows, and where arithmetic touches symbolic values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FootprintOp {
    /// What class of operation ran.
    pub kind: OpKind,
    /// The field the operation read or wrote, when the type knows it.
    pub field: Option<FieldId>,
    /// The operation's name (`"lt"`, `"add"`, `"eval"`, …).
    pub op: &'static str,
    /// Whether the operation forked the path (consumed a choice digit).
    pub forked: bool,
}

/// Per-run execution context threaded through every branching operation of
/// the symbolic data types.
///
/// The C++ SYMPLE library hides this state behind operator overloading and
/// thread-locals; in Rust the context is passed explicitly
/// (`sym_int.lt(ctx, 5)`), which keeps the engine a plain library with no
/// global mutable state.
///
/// A `SymCtx` is used in one of three modes:
///
/// * **symbolic** ([`SymCtx::symbolic`]) — branches with several feasible
///   outcomes consult the choice vector, appending new digits on first
///   visit;
/// * **concrete** ([`SymCtx::concrete`]) — used for the sequential
///   reference execution and for `Result` extraction; forks are engine
///   errors;
/// * **analysis** ([`SymCtx::analysis`]) — forks exactly like symbolic
///   mode, but additionally records the symbolic-op footprint
///   ([`FootprintOp`]) that the static analyzer in `crates/analyze` turns
///   into lint diagnostics.
///
/// Errors raised mid-`update` (overflow, explosion) are latched in the
/// context because `Update` returns `()`; the executor checks
/// [`SymCtx::take_error`] after every run.
#[derive(Debug)]
pub struct SymCtx {
    choices: ChoiceVector,
    pos: usize,
    mode: Mode,
    error: Option<Error>,
    forks_taken: u64,
    footprint: Vec<FootprintOp>,
    /// Sealed (probe) contexts refuse to fork: [`SymCtx::choose`] latches
    /// `fork_refused` and pins outcome 0 instead of appending a digit.
    sealed: bool,
    fork_refused: bool,
}

impl SymCtx {
    fn with_mode(mode: Mode) -> SymCtx {
        SymCtx {
            choices: ChoiceVector::default(),
            pos: 0,
            mode,
            error: None,
            forks_taken: 0,
            footprint: Vec::new(),
            sealed: false,
            fork_refused: false,
        }
    }

    /// Creates a context for symbolic exploration starting from the empty
    /// choice vector.
    pub fn symbolic() -> SymCtx {
        SymCtx::with_mode(Mode::Symbolic)
    }

    /// Creates a concrete-mode context: every branch must be deterministic.
    pub fn concrete() -> SymCtx {
        SymCtx::with_mode(Mode::Concrete)
    }

    /// Creates an analysis-mode context: forks behave exactly as in
    /// symbolic mode, and every symbolic operation the data types report
    /// via [`SymCtx::note_op`] is recorded in a per-run footprint.
    pub fn analysis() -> SymCtx {
        SymCtx::with_mode(Mode::Analysis)
    }

    /// Creates a *sealed* probe context: it behaves exactly like a
    /// symbolic context (so data-type semantics are unchanged) **until**
    /// an operation would fork — then [`SymCtx::choose`] latches
    /// [`SymCtx::fork_refused`], pins outcome 0, and the caller is
    /// expected to roll the run back and fall through to full
    /// exploration. The batched fast path in the engine uses this to
    /// apply fork-free records in place without cloning states.
    pub fn probe() -> SymCtx {
        let mut ctx = SymCtx::with_mode(Mode::Symbolic);
        ctx.sealed = true;
        ctx
    }

    /// Returns the context to its just-constructed state — empty choice
    /// vector, no latched error or refusal, no forks counted — keeping the
    /// digit capacity: the engine's one exploration context is rewound per
    /// path and its probe context per in-place run, and neither allocates.
    pub(crate) fn rewind(&mut self) {
        self.choices.clear();
        self.pos = 0;
        self.error = None;
        self.forks_taken = 0;
        self.footprint.clear();
        self.fork_refused = false;
    }

    /// Whether a sealed probe run attempted to fork (and was refused).
    pub fn fork_refused(&self) -> bool {
        self.fork_refused
    }

    /// Records a symbolic operation in the analysis footprint.
    ///
    /// No-op outside analysis mode, so the symbolic data types can call
    /// this unconditionally on their hot paths.
    pub fn note_op(
        &mut self,
        kind: OpKind,
        field: Option<FieldId>,
        op: &'static str,
        forked: bool,
    ) {
        if self.mode == Mode::Analysis {
            self.footprint.push(FootprintOp {
                kind,
                field,
                op,
                forked,
            });
        }
    }

    /// Takes the footprint accumulated since the last `begin_run`
    /// (analysis mode only; empty otherwise).
    pub fn take_footprint(&mut self) -> Vec<FootprintOp> {
        std::mem::take(&mut self.footprint)
    }

    /// Resets the cursor for the next run over the same (advanced) vector.
    pub(crate) fn begin_run(&mut self) {
        self.pos = 0;
        self.error = None;
        self.footprint.clear();
    }

    /// Advances the choice vector to the next unexplored path.
    ///
    /// Returns `false` when all paths have been explored.
    pub(crate) fn advance(&mut self) -> bool {
        self.choices.advance()
    }

    /// Picks an outcome at a branch where `arity ≥ 2` outcomes are feasible.
    ///
    /// On the first visit in this run the branch takes outcome 0 and a new
    /// digit is appended; on replays the recorded digit is returned.
    /// Symbolic data types must call this **only** when more than one
    /// outcome is feasible — deterministic branches consume no digit, which
    /// is what keeps concrete execution exactly as fast as native code
    /// (§4.1 "once bound, SymEnums are as fast as a C++ enum").
    pub fn choose(&mut self, arity: u8) -> u8 {
        debug_assert!(arity >= 2);
        if self.sealed {
            // Probe runs never explore: latch the refusal so the engine
            // rolls this run back, and pin the first outcome so the rest
            // of the (discarded) run stays well-defined.
            self.fork_refused = true;
            return 0;
        }
        if self.mode == Mode::Concrete {
            self.fail(Error::NonConcreteBranch);
            return 0;
        }
        self.forks_taken += 1;
        if self.pos < self.choices.digits.len() {
            let d = self.choices.digits[self.pos];
            debug_assert_eq!(
                d.arity, arity,
                "choice-vector replay diverged: the UDA update function is not deterministic"
            );
            self.pos += 1;
            d.value
        } else {
            self.choices.digits.push(Digit { value: 0, arity });
            self.pos += 1;
            0
        }
    }

    /// Latches an error; subsequent operations become no-ops at the type
    /// level and the executor aborts after the run.
    pub fn fail(&mut self, e: Error) {
        if self.error.is_none() {
            self.error = Some(e);
        }
    }

    /// Whether an error has been latched.
    pub fn has_error(&self) -> bool {
        self.error.is_some()
    }

    /// Takes the latched error, if any.
    pub fn take_error(&mut self) -> Option<Error> {
        self.error.take()
    }

    /// Total forks taken across all runs (statistics).
    pub fn forks_taken(&self) -> u64 {
        self.forks_taken
    }

    /// The current choice vector (diagnostics and tests).
    pub fn choice_vector(&self) -> &ChoiceVector {
        &self.choices
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binary_enumeration_matches_paper_order() {
        // §5.1's example: paths 0, 10, 11 for the Max function. We simulate
        // the feasibility structure of Figure 3: taking outcome 0 at the
        // first branch ends the path; outcome 1 exposes a second branch.
        let mut ctx = SymCtx::symbolic();
        let mut paths = Vec::new();
        loop {
            ctx.begin_run();
            let first = ctx.choose(2);
            let mut p = vec![first];
            if first == 1 {
                p.push(ctx.choose(2));
            }
            paths.push(p);
            if !ctx.advance() {
                break;
            }
        }
        assert_eq!(paths, vec![vec![0], vec![1, 0], vec![1, 1]]);
    }

    #[test]
    fn full_binary_tree_enumeration() {
        let mut ctx = SymCtx::symbolic();
        let mut count = 0;
        loop {
            ctx.begin_run();
            let _ = ctx.choose(2);
            let _ = ctx.choose(2);
            let _ = ctx.choose(2);
            count += 1;
            if !ctx.advance() {
                break;
            }
        }
        assert_eq!(count, 8);
    }

    #[test]
    fn mixed_radix_enumeration() {
        // A ternary fork followed by a binary fork: 3 × 2 = 6 paths in
        // lexicographic order.
        let mut ctx = SymCtx::symbolic();
        let mut paths = Vec::new();
        loop {
            ctx.begin_run();
            let a = ctx.choose(3);
            let b = ctx.choose(2);
            paths.push((a, b));
            if !ctx.advance() {
                break;
            }
        }
        assert_eq!(paths, vec![(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)]);
    }

    #[test]
    fn no_choices_single_path() {
        let mut ctx = SymCtx::symbolic();
        ctx.begin_run();
        assert!(!ctx.advance(), "no forks means exactly one path");
    }

    #[test]
    fn concrete_mode_rejects_fork() {
        let mut ctx = SymCtx::concrete();
        let _ = ctx.choose(2);
        assert_eq!(ctx.take_error(), Some(Error::NonConcreteBranch));
    }

    #[test]
    fn fail_latches_first_error() {
        let mut ctx = SymCtx::symbolic();
        ctx.fail(Error::IncompleteSummary);
        ctx.fail(Error::EmptyComposition);
        assert_eq!(ctx.take_error(), Some(Error::IncompleteSummary));
        assert_eq!(ctx.take_error(), None);
    }

    #[test]
    fn begin_run_clears_error_and_cursor() {
        let mut ctx = SymCtx::symbolic();
        let _ = ctx.choose(2);
        ctx.fail(Error::IncompleteSummary);
        ctx.begin_run();
        assert!(!ctx.has_error());
        // Replay returns the recorded digit.
        assert_eq!(ctx.choose(2), 0);
    }

    #[test]
    fn analysis_mode_forks_and_records() {
        let mut ctx = SymCtx::analysis();
        ctx.note_op(OpKind::Guard, Some(FieldId(1)), "lt", true);
        assert_eq!(ctx.choose(2), 0, "analysis forks like symbolic mode");
        assert!(!ctx.has_error());
        let fp = ctx.take_footprint();
        assert_eq!(fp.len(), 1);
        assert_eq!(fp[0].field, Some(FieldId(1)));
        assert_eq!(fp[0].op, "lt");
        ctx.note_op(OpKind::Arith, None, "add", false);
        ctx.begin_run();
        assert!(
            ctx.take_footprint().is_empty(),
            "begin_run clears the footprint"
        );
    }

    #[test]
    fn non_analysis_modes_ignore_note_op() {
        for mut ctx in [SymCtx::symbolic(), SymCtx::concrete()] {
            ctx.note_op(OpKind::Arith, None, "add", false);
            assert!(ctx.take_footprint().is_empty());
        }
    }

    #[test]
    fn probe_refuses_forks_without_counting() {
        let mut ctx = SymCtx::probe();
        ctx.rewind();
        assert!(!ctx.fork_refused());
        assert_eq!(ctx.choose(2), 0, "refused forks pin outcome 0");
        assert!(ctx.fork_refused());
        assert_eq!(ctx.forks_taken(), 0, "refused forks are not statistics");
        assert!(ctx.choice_vector().is_empty(), "no digit is appended");
        assert!(!ctx.has_error(), "refusal is not an error");
        // A reset probe forgets the refusal.
        ctx.rewind();
        assert!(!ctx.fork_refused());
    }

    #[test]
    fn probe_latches_errors_like_symbolic() {
        let mut ctx = SymCtx::probe();
        ctx.rewind();
        ctx.fail(Error::IncompleteSummary);
        assert!(ctx.has_error());
        ctx.rewind();
        assert!(!ctx.has_error(), "rewind clears latched errors");
    }

    #[test]
    fn choice_vector_values() {
        let values = |cv: &ChoiceVector| cv.digits.iter().map(|d| d.value).collect::<Vec<_>>();
        let mut cv = ChoiceVector::default();
        assert!(cv.is_empty());
        assert!(!cv.advance());
        cv.digits.push(Digit { value: 0, arity: 2 });
        cv.digits.push(Digit { value: 0, arity: 3 });
        assert!(cv.advance());
        assert_eq!(values(&cv), vec![0, 1]);
        assert!(cv.advance());
        assert_eq!(values(&cv), vec![0, 2]);
        assert!(cv.advance());
        assert_eq!(values(&cv), vec![1]);
        assert_eq!(cv.len(), 1);
    }
}
