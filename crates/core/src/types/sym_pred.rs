//! Black-box predicates over windowed state (§4.4 of the paper).
//!
//! Some UDAs need predicates on the aggregation state that are not amenable
//! to symbolic reasoning — e.g. "is the GPS distance between the previous
//! and current event below a bound?". A [`SymPred`] holds a possibly
//! symbolic value of type `T` and supports exactly two operations:
//! assigning a concrete value, and evaluating a pre-specified black-box
//! predicate against a concrete argument.
//!
//! When the held value is still the unknown input from the previous chunk,
//! evaluation *blindly forks both outcomes*, recording the (argument,
//! outcome) pair as a path-constraint **decision**. Because UDAs with
//! *windowed dependence* assign a concrete value on every record, at most a
//! bounded number of decisions accumulate before the value binds — the
//! paper's "path blowup of at most two" for window size one.

use std::fmt;
use std::sync::Arc;

use crate::ctx::{OpKind, SymCtx};
use crate::error::{Error, Result};
use crate::state::{downcast, FieldFacts, FieldId, SymField, Transfers};
use crate::types::scalar::{ScalarTransfer, SymScalar};
use crate::wire::{self, Wire, WireError};

/// Default bound on decisions recorded while unbound.
pub const DEFAULT_MAX_DECISIONS: usize = 8;

/// The black-box predicate: `pred(held_value, argument)`.
pub type PredFn<T> = Arc<dyn Fn(&T, &T) -> bool + Send + Sync>;

/// Value types storable in a [`SymPred`].
///
/// `to_i64` lets integer-like values (e.g. timestamps) be referenced by
/// [`crate::SymVector`] elements; types that are not scalar return `None`
/// and simply cannot be pushed symbolically.
pub trait PredValue: Clone + PartialEq + fmt::Debug + Send + Sync + Wire + 'static {
    /// The value as an `i64`, if the type is integer-like.
    fn to_i64(&self) -> Option<i64> {
        None
    }
}

impl PredValue for i64 {
    fn to_i64(&self) -> Option<i64> {
        Some(*self)
    }
}
impl PredValue for u64 {}
impl PredValue for u32 {}
impl PredValue for String {}
impl PredValue for (i64, i64) {}
impl PredValue for (f64, f64) {}

/// Wire v2 flag byte of a [`SymPred`]: the two low bits say what is held
/// (a `Set` value follows the flag byte), the third that a decision list
/// follows — its length, then `(argument, outcome)` pairs. No decisions
/// and nothing held cost no further bytes.
const HELD_UNKNOWN: u8 = 0;
const HELD_UNSET: u8 = 1;
const HELD_SET: u8 = 2;
const FLAG_DECISIONS: u8 = 1 << 2;

/// The held value of a [`SymPred`].
#[derive(Debug, Clone, PartialEq)]
enum Held<T> {
    /// The unknown value flowing in from the previous chunk.
    Unknown,
    /// Concretely never assigned (the UDA's initial state).
    Unset,
    /// Concretely assigned.
    Set(T),
}

/// A placeholder for a possibly-symbolic value of type `T` with a
/// black-box predicate (§4.4).
///
/// # Examples
///
/// The paper's GPS sessionization pattern:
///
/// ```
/// use symple_core::{SymCtx, SymPred};
///
/// let mut prev: SymPred<(f64, f64)> = SymPred::new(|prev: &(f64, f64), cur| {
///     let (dx, dy) = (prev.0 - cur.0, prev.1 - cur.1);
///     (dx * dx + dy * dy).sqrt() < 0.5
/// });
/// let mut ctx = SymCtx::concrete();
/// // First event of the stream: concretely no previous event.
/// assert!(!prev.eval(&mut ctx, &(1.0, 1.0)));
/// prev.set((1.0, 1.0));
/// assert!(prev.eval(&mut ctx, &(1.1, 1.0)));
/// ```
#[derive(Clone)]
pub struct SymPred<T: PredValue> {
    pred: PredFn<T>,
    held: Held<T>,
    // Shared, copy-on-write: path exploration clones the state once per
    // explored run, and decisions mutate only at (rare) forks.
    decisions: Arc<Vec<(T, bool)>>,
    initial_outcome: bool,
    max_decisions: usize,
    id: Option<FieldId>,
}

impl<T: PredValue> fmt::Debug for SymPred<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SymPred")
            .field("held", &self.held)
            .field("decisions", &self.decisions)
            .field("initial_outcome", &self.initial_outcome)
            .finish()
    }
}

impl<T: PredValue> PartialEq for SymPred<T> {
    fn eq(&self, other: &Self) -> bool {
        self.held == other.held
            && (Arc::ptr_eq(&self.decisions, &other.decisions) || self.decisions == other.decisions)
    }
}

impl<T: PredValue> SymPred<T> {
    /// Creates a predicate holder with no previous value.
    ///
    /// `pred(held, arg)` is the black-box predicate evaluated by
    /// [`SymPred::eval`]. While the value is concretely unset, `eval`
    /// returns `false`; see [`SymPred::with_initial_outcome`].
    pub fn new(pred: impl Fn(&T, &T) -> bool + Send + Sync + 'static) -> SymPred<T> {
        SymPred {
            pred: Arc::new(pred),
            held: Held::Unset,
            decisions: Arc::new(Vec::new()),
            initial_outcome: false,
            max_decisions: DEFAULT_MAX_DECISIONS,
            id: None,
        }
    }

    /// Sets the outcome `eval` reports while the value is concretely unset
    /// (i.e. at the very beginning of the input, before any `set`).
    pub fn with_initial_outcome(mut self, outcome: bool) -> SymPred<T> {
        self.initial_outcome = outcome;
        self
    }

    /// Overrides the bound on decisions recorded while unbound (the
    /// predicate *window*; the default is [`DEFAULT_MAX_DECISIONS`]).
    pub fn with_max_decisions(mut self, bound: usize) -> SymPred<T> {
        self.max_decisions = bound;
        self
    }

    /// Assigns a concrete value (the paper's `setValue`).
    ///
    /// Decisions recorded while unbound are kept: they constrain the
    /// chunk's unknown input, not the new value.
    pub fn set(&mut self, v: T) {
        self.held = Held::Set(v);
    }

    /// Evaluates the black-box predicate against `arg` (the paper's
    /// `evalPred`).
    ///
    /// * concretely set → evaluates the predicate;
    /// * concretely unset → returns the configured initial outcome;
    /// * unknown → forks both outcomes, recording the decision. A repeated
    ///   argument reuses its recorded outcome instead of forking again.
    pub fn eval(&mut self, ctx: &mut SymCtx, arg: &T) -> bool {
        match &self.held {
            Held::Set(v) => (self.pred)(v, arg),
            Held::Unset => self.initial_outcome,
            Held::Unknown => {
                if let Some((_, out)) = self.decisions.iter().find(|(a, _)| a == arg) {
                    ctx.note_op(OpKind::PredEval, self.id, "eval", false);
                    return *out;
                }
                ctx.note_op(OpKind::PredEval, self.id, "eval", true);
                if self.decisions.len() >= self.max_decisions {
                    ctx.fail(Error::PredicateWindowExceeded {
                        decisions: self.decisions.len(),
                        bound: self.max_decisions,
                    });
                    return self.initial_outcome;
                }
                let outcome = ctx.choose(2) == 0;
                Arc::make_mut(&mut self.decisions).push((arg.clone(), outcome));
                outcome
            }
        }
    }

    /// The concretely held value, if set.
    pub fn value(&self) -> Option<&T> {
        match &self.held {
            Held::Set(v) => Some(v),
            _ => None,
        }
    }

    /// Whether the value is still the unknown previous-chunk input.
    pub fn is_unknown(&self) -> bool {
        matches!(self.held, Held::Unknown)
    }

    /// The value `a·v + b` over the held value `v`, as a [`SymScalar`].
    ///
    /// Lets UDAs report derived quantities such as time gaps
    /// (`gap = now − prev` is `affine_scalar(-1, now)`). `None` when the
    /// value is concretely unset or `T` is not integer-like.
    pub fn affine_scalar(&self, a: i64, b: i64) -> Option<SymScalar> {
        match &self.held {
            Held::Set(v) => {
                let v = v.to_i64()?;
                Some(SymScalar::Concrete(a.checked_mul(v)?.checked_add(b)?))
            }
            Held::Unknown => {
                let field = self.id?;
                Some(SymScalar::Affine { field, a, b })
            }
            Held::Unset => None,
        }
    }

    /// The outcome `eval(arg)` would produce against a *final held value*
    /// of another path — the composition-time feasibility check.
    fn outcome_against(&self, prev_held: &Held<T>, arg: &T) -> Option<bool> {
        match prev_held {
            Held::Set(v) => Some((self.pred)(v, arg)),
            Held::Unset => Some(self.initial_outcome),
            Held::Unknown => None,
        }
    }
}

impl<T: PredValue> SymField for SymPred<T> {
    fn make_symbolic(&mut self, id: FieldId) {
        self.held = Held::Unknown;
        self.decisions = Arc::new(Vec::new());
        self.id = Some(id);
    }

    fn is_concrete(&self) -> bool {
        !matches!(self.held, Held::Unknown)
    }

    fn transfer_eq(&self, other: &dyn SymField) -> bool {
        downcast::<SymPred<T>>(other).is_some_and(|o| self.held == o.held)
    }

    fn constraint_eq(&self, other: &dyn SymField) -> bool {
        downcast::<SymPred<T>>(other).is_some_and(|o| {
            Arc::ptr_eq(&self.decisions, &o.decisions) || self.decisions == o.decisions
        })
    }

    fn constraint_overlaps(&self, other: &dyn SymField) -> bool {
        // Black-box constraints provably conflict only when the same
        // argument was decided both ways; otherwise assume overlap.
        downcast::<SymPred<T>>(other).is_some_and(|o| {
            !self
                .decisions
                .iter()
                .any(|(a, b)| o.decisions.iter().any(|(a2, b2)| a == a2 && b != b2))
        })
    }

    fn union_constraint(&mut self, other: &dyn SymField) -> bool {
        let Some(o) = downcast::<SymPred<T>>(other) else {
            return false;
        };
        if Arc::ptr_eq(&self.decisions, &o.decisions) || self.decisions == o.decisions {
            return true;
        }
        // Identical except one decision with the same argument and opposite
        // outcomes: `D ∧ p(arg)` ∨ `D ∧ ¬p(arg)` simplifies to `D`.
        if self.decisions.len() == o.decisions.len() {
            let mut flip = None;
            for (i, (d1, d2)) in self.decisions.iter().zip(o.decisions.iter()).enumerate() {
                if d1 == d2 {
                    continue;
                }
                if d1.0 == d2.0 && d1.1 != d2.1 && flip.is_none() {
                    flip = Some(i);
                } else {
                    return false;
                }
            }
            if let Some(i) = flip {
                Arc::make_mut(&mut self.decisions).remove(i);
                return true;
            }
            return true; // All equal (unreachable given the == check above).
        }
        // One list a superset of the other: A ∨ (A ∧ B) = A.
        type Decisions<'a, T> = &'a [(T, bool)];
        let (small, big): (Decisions<T>, Decisions<T>) = if self.decisions.len() < o.decisions.len()
        {
            (&self.decisions, &o.decisions)
        } else {
            (&o.decisions, &self.decisions)
        };
        if small.iter().all(|d| big.contains(d)) {
            let weaker = Arc::new(small.to_vec());
            self.decisions = weaker;
            return true;
        }
        false
    }

    fn compose_onto(&mut self, prev: &dyn SymField, _transfers: &Transfers<'_>) -> Result<bool> {
        let prev = downcast::<SymPred<T>>(prev).ok_or(Error::Uda("field type mismatch".into()))?;
        match &prev.held {
            Held::Unknown => {
                // Decisions cannot be discharged yet: both lists constrain
                // the earlier chunk's unknown `x`. Conflicts on the same
                // argument make the path infeasible.
                let mut merged: Vec<(T, bool)> = prev.decisions.as_ref().clone();
                for (arg, out) in self.decisions.iter() {
                    match merged.iter().find(|(a, _)| a == arg) {
                        Some((_, o)) if o != out => return Ok(false),
                        Some(_) => {}
                        None => merged.push((arg.clone(), *out)),
                    }
                }
                if merged.len() > self.max_decisions.max(prev.max_decisions) {
                    return Err(Error::PredicateWindowExceeded {
                        decisions: merged.len(),
                        bound: self.max_decisions.max(prev.max_decisions),
                    });
                }
                self.decisions = Arc::new(merged);
                // An Unknown later value stays Unknown; a Set value is
                // unaffected by what flowed in.
            }
            concrete => {
                // Discharge our decisions against the earlier final value.
                for (arg, expected) in self.decisions.iter() {
                    match self.outcome_against(concrete, arg) {
                        Some(actual) if actual == *expected => {}
                        Some(_) => return Ok(false),
                        None => unreachable!("concrete held value"),
                    }
                }
                self.decisions = Arc::clone(&prev.decisions);
                if matches!(self.held, Held::Unknown) {
                    self.held = concrete.clone();
                }
            }
        }
        self.id = prev.id;
        Ok(true)
    }

    fn transfer(&self) -> Option<ScalarTransfer> {
        match &self.held {
            Held::Set(v) => v.to_i64().map(ScalarTransfer::Const),
            Held::Unknown => Some(ScalarTransfer::IDENTITY),
            Held::Unset => None,
        }
    }

    /// Equal held values, and equal decisions while the value is unknown:
    /// `eval` reads the decision list only then, and nothing else reads it.
    fn agrees_for_update(&self, other: &dyn SymField) -> bool {
        downcast::<SymPred<T>>(other).is_some_and(|o| {
            self.held == o.held
                && (!matches!(self.held, Held::Unknown) || self.constraint_eq(other))
        })
    }

    /// Adopts the lead's held value and keeps this path's decisions: a
    /// window's runs add none (a new decision is a fork, which rolls the
    /// window back).
    fn replay_from(&mut self, lead: &dyn SymField, _mark: usize) {
        if let Some(lead) = downcast::<SymPred<T>>(lead) {
            self.held = lead.held.clone();
        }
    }

    fn encode_field(&self, _prev: Option<&dyn SymField>, buf: &mut Vec<u8>) {
        let held = match &self.held {
            Held::Unknown => HELD_UNKNOWN,
            Held::Unset => HELD_UNSET,
            Held::Set(_) => HELD_SET,
        };
        buf.push(held | (u8::from(!self.decisions.is_empty()) * FLAG_DECISIONS));
        if let Held::Set(v) = &self.held {
            v.encode(buf);
        }
        if !self.decisions.is_empty() {
            wire::put_uvarint(buf, self.decisions.len() as u64);
            for (arg, out) in self.decisions.iter() {
                arg.encode(buf);
                out.encode(buf);
            }
        }
    }

    fn decode_field(
        &mut self,
        buf: &mut &[u8],
        id: FieldId,
        _prev: Option<&dyn SymField>,
    ) -> Result<(), WireError> {
        let flags = wire::get_bytes(buf, 1)?[0];
        self.held = match flags & !FLAG_DECISIONS {
            HELD_UNKNOWN => Held::Unknown,
            HELD_UNSET => Held::Unset,
            HELD_SET => Held::Set(T::decode(buf)?),
            _ => return Err(WireError::InvalidTag(flags)),
        };
        let n = if flags & FLAG_DECISIONS != 0 {
            wire::get_len(buf)?
        } else {
            0
        };
        // The reduce side decodes into the same scratch state path after
        // path, nearly always an undecided pred onto an undecided one: that
        // case keeps its list, and any other refills it in place unless a
        // clone still reads it.
        if n > 0 || !self.decisions.is_empty() {
            if Arc::get_mut(&mut self.decisions).is_none() {
                self.decisions = Arc::new(Vec::new());
            }
            let decisions = Arc::get_mut(&mut self.decisions).expect("unique or just made");
            decisions.clear();
            decisions.reserve(n.min(64));
            for _ in 0..n {
                let arg = T::decode(buf)?;
                let out = bool::decode(buf)?;
                decisions.push((arg, out));
            }
        }
        self.id = Some(id);
        Ok(())
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn facts(&self) -> FieldFacts {
        FieldFacts {
            kind: "pred",
            concrete: !matches!(self.held, Held::Unknown),
            decisions: Some(self.decisions.len()),
            max_decisions: Some(self.max_decisions),
            ..FieldFacts::default()
        }
    }

    fn perturb(&mut self) -> bool {
        // Forget any concrete binding and flip the initial outcome: both
        // future `eval` results and `affine_scalar` reports change, so any
        // data or control dependence on this field shows up in the
        // analyzer's liveness probe.
        self.held = Held::Unset;
        self.initial_outcome = !self.initial_outcome;
        true
    }

    fn describe(&self) -> String {
        let c = if self.decisions.is_empty() {
            "⊤".to_string()
        } else {
            self.decisions
                .iter()
                .map(|(a, o)| {
                    if *o {
                        format!("p(x,{a:?})")
                    } else {
                        format!("¬p(x,{a:?})")
                    }
                })
                .collect::<Vec<_>>()
                .join("∧")
        };
        match &self.held {
            Held::Unknown => format!("{c} ⇒ x"),
            Held::Unset => format!("{c} ⇒ ⊥"),
            Held::Set(v) => format!("{c} ⇒ {v:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn lt_pred() -> SymPred<i64> {
        // "previous < current" as a black-box predicate.
        SymPred::new(|prev, cur| prev < cur)
    }

    #[test]
    fn concrete_eval_uses_predicate() {
        let mut ctx = SymCtx::concrete();
        let mut p = lt_pred();
        assert!(!p.eval(&mut ctx, &10), "unset → initial outcome false");
        p.set(5);
        assert!(p.eval(&mut ctx, &10));
        assert!(!p.eval(&mut ctx, &3));
        assert!(!ctx.has_error());
    }

    #[test]
    fn initial_outcome_configurable() {
        let mut ctx = SymCtx::concrete();
        let mut p = lt_pred().with_initial_outcome(true);
        assert!(p.eval(&mut ctx, &0));
    }

    #[test]
    fn unknown_eval_forks_both_outcomes() {
        let mut ctx = SymCtx::symbolic();
        let mut outcomes = Vec::new();
        loop {
            ctx.begin_run();
            let mut p = lt_pred();
            p.make_symbolic(FieldId(0));
            let out = p.eval(&mut ctx, &10);
            outcomes.push((out, p.decisions.to_vec()));
            if !ctx.advance() {
                break;
            }
        }
        assert_eq!(
            outcomes,
            vec![(true, vec![(10, true)]), (false, vec![(10, false)])]
        );
    }

    #[test]
    fn repeated_argument_does_not_refork() {
        let mut ctx = SymCtx::symbolic();
        let mut p = lt_pred();
        p.make_symbolic(FieldId(0));
        let a = p.eval(&mut ctx, &10);
        let b = p.eval(&mut ctx, &10);
        assert_eq!(a, b);
        assert_eq!(p.decisions.len(), 1);
        assert_eq!(ctx.choice_vector().len(), 1);
    }

    #[test]
    fn window_bound_enforced() {
        let mut ctx = SymCtx::symbolic();
        let mut p = lt_pred().with_max_decisions(2);
        p.make_symbolic(FieldId(0));
        let _ = p.eval(&mut ctx, &1);
        let _ = p.eval(&mut ctx, &2);
        let _ = p.eval(&mut ctx, &3);
        assert!(matches!(
            ctx.take_error(),
            Some(Error::PredicateWindowExceeded {
                decisions: 2,
                bound: 2
            })
        ));
    }

    #[test]
    fn set_keeps_decisions_binds_value() {
        let mut ctx = SymCtx::symbolic();
        let mut p = lt_pred();
        p.make_symbolic(FieldId(0));
        let _ = p.eval(&mut ctx, &10);
        p.set(42);
        assert_eq!(p.value(), Some(&42));
        assert_eq!(p.decisions.len(), 1);
        assert!(p.is_concrete());
    }

    /// The two sides of a fork on `eval(10)` from unknown `x`.
    fn forked() -> (SymPred<i64>, SymPred<i64>) {
        let mut ctx = SymCtx::symbolic();
        let mut sides = Vec::new();
        loop {
            ctx.begin_run();
            let mut p = lt_pred();
            p.make_symbolic(FieldId(0));
            p.eval(&mut ctx, &10);
            sides.push(p);
            if !ctx.advance() {
                break;
            }
        }
        let no = sides.pop().unwrap();
        (sides.pop().unwrap(), no)
    }

    #[test]
    fn agreement_ignores_decisions_once_a_value_is_held() {
        let (mut yes, mut no) = forked();
        assert!(!yes.agrees_for_update(&no), "unknown, opposite decisions");
        assert!(yes.agrees_for_update(&yes.clone()));
        yes.set(7);
        no.set(7);
        assert!(yes.agrees_for_update(&no), "one value, opposite decisions");
        no.set(8);
        assert!(!yes.agrees_for_update(&no), "different values");
        let mut unset = lt_pred();
        assert!(!unset.agrees_for_update(&yes));
        unset.set(7);
        assert!(unset.agrees_for_update(&yes));
    }

    #[test]
    fn replay_adopts_the_held_value_and_keeps_decisions() {
        let (mut lead, mut follower) = forked();
        lead.set(7);
        follower.set(7);
        let mark = lead.replay_mark();
        lead.set(12);
        follower.replay_from(&lead, mark);
        assert_eq!(follower.value(), Some(&12));
        assert_eq!(*follower.decisions, vec![(10, false)]);
        assert!(follower.agrees_for_update(&lead));
    }

    #[test]
    fn compose_discharges_decisions_against_set_value() {
        // Later path assumed p(x, 10) = true, i.e. x < 10.
        let mut later = lt_pred();
        later.make_symbolic(FieldId(0));
        let mut ctx = SymCtx::symbolic();
        assert!(later.eval(&mut ctx, &10));
        later.set(99);
        // Earlier chunk ended with value 5: 5 < 10 holds → feasible.
        let mut prev = lt_pred();
        prev.set(5);
        let prev_all = |_| prev.transfer();
        assert!(later.clone().compose_onto(&prev, &prev_all).unwrap());
        // Earlier chunk ended with 50: 50 < 10 fails → infeasible.
        let mut prev = lt_pred();
        prev.set(50);
        let prev_all = |_| prev.transfer();
        assert!(!later.clone().compose_onto(&prev, &prev_all).unwrap());
    }

    #[test]
    fn compose_against_unset_uses_initial_outcome() {
        let mut later = lt_pred();
        later.make_symbolic(FieldId(0));
        let mut ctx = SymCtx::symbolic();
        assert!(later.eval(&mut ctx, &10)); // decision (10, true)
        let prev = lt_pred(); // concretely unset, initial outcome false
        let prev_all = |_| prev.transfer();
        assert!(!later.compose_onto(&prev, &prev_all).unwrap());
    }

    #[test]
    fn compose_through_unknown_accumulates() {
        let mut later = lt_pred();
        later.make_symbolic(FieldId(0));
        let mut ctx = SymCtx::symbolic();
        assert!(later.eval(&mut ctx, &10));
        let mut prev = lt_pred();
        prev.make_symbolic(FieldId(0));
        let mut ctx2 = SymCtx::symbolic();
        assert!(prev.eval(&mut ctx2, &3));
        let prev_all = |_| prev.transfer();
        let mut composed = later.clone();
        assert!(composed.compose_onto(&prev, &prev_all).unwrap());
        assert_eq!(*composed.decisions, [(3, true), (10, true)]);
        assert!(composed.is_unknown());
        // Conflicting decisions on the same argument → infeasible.
        let mut conflicting = lt_pred();
        conflicting.make_symbolic(FieldId(0));
        let mut ctx3 = SymCtx::symbolic();
        ctx3.begin_run();
        let _ = conflicting.eval(&mut ctx3, &3);
        ctx3.advance();
        ctx3.begin_run();
        let mut conflicting = lt_pred();
        conflicting.make_symbolic(FieldId(0));
        assert!(!conflicting.eval(&mut ctx3, &3)); // decision (3, false)
        let mut composed = conflicting;
        assert!(!composed.compose_onto(&prev, &prev_all).unwrap());
    }

    #[test]
    fn union_drops_single_flip() {
        let mut a = lt_pred();
        a.make_symbolic(FieldId(0));
        a.decisions = Arc::new(vec![(5, true), (9, true)]);
        let mut b = lt_pred();
        b.make_symbolic(FieldId(0));
        b.decisions = Arc::new(vec![(5, true), (9, false)]);
        assert!(a.union_constraint(&b));
        assert_eq!(*a.decisions, [(5, true)]);
    }

    #[test]
    fn union_subset_takes_weaker() {
        let mut a = lt_pred();
        a.make_symbolic(FieldId(0));
        a.decisions = Arc::new(vec![(5, true), (9, true)]);
        let mut b = lt_pred();
        b.make_symbolic(FieldId(0));
        b.decisions = Arc::new(vec![(5, true)]);
        assert!(a.union_constraint(&b));
        assert_eq!(*a.decisions, [(5, true)]);
    }

    #[test]
    fn union_rejects_incompatible() {
        let mut a = lt_pred();
        a.make_symbolic(FieldId(0));
        a.decisions = Arc::new(vec![(5, true)]);
        let mut b = lt_pred();
        b.make_symbolic(FieldId(0));
        b.decisions = Arc::new(vec![(6, false)]);
        assert!(!a.union_constraint(&b));
    }

    #[test]
    fn overlap_detects_conflicts() {
        let mut a = lt_pred();
        a.decisions = Arc::new(vec![(5, true)]);
        let mut b = lt_pred();
        b.decisions = Arc::new(vec![(5, false)]);
        assert!(!a.constraint_overlaps(&b));
        b.decisions = Arc::new(vec![(6, false)]);
        assert!(a.constraint_overlaps(&b));
    }

    #[test]
    fn wire_roundtrip() {
        let mut p = lt_pred();
        p.make_symbolic(FieldId(1));
        p.decisions = Arc::new(vec![(7, true), (-2, false)]);
        p.set(33);
        let mut buf = Vec::new();
        p.encode_field(None, &mut buf);
        let mut back = lt_pred();
        let mut rd = &buf[..];
        back.decode_field(&mut rd, FieldId(1), None).unwrap();
        assert!(rd.is_empty());
        assert_eq!(back, p);
    }

    #[test]
    fn decode_reuses_the_decision_list() {
        let encoded = |p: &SymPred<i64>| {
            let mut buf = Vec::new();
            p.encode_field(None, &mut buf);
            buf
        };
        let mut decided = lt_pred();
        decided.make_symbolic(FieldId(1));
        decided.decisions = Arc::new(vec![(7, true), (-2, false)]);
        let mut undecided = lt_pred();
        undecided.set(33);

        // Undecided onto undecided: the list is kept, shared or not.
        let mut scratch = lt_pred();
        let before = scratch.clone();
        scratch
            .decode_field(&mut &encoded(&undecided)[..], FieldId(1), None)
            .unwrap();
        assert_eq!(scratch, undecided);
        assert!(Arc::ptr_eq(&scratch.decisions, &before.decisions));

        // Decisions arriving while a clone reads the list: a fresh one, and
        // the clone is untouched.
        scratch
            .decode_field(&mut &encoded(&decided)[..], FieldId(1), None)
            .unwrap();
        assert_eq!(scratch, decided);
        assert!(!Arc::ptr_eq(&scratch.decisions, &before.decisions));
        assert!(before.decisions.is_empty());

        // Unique storage is refilled in place, and emptied in place.
        let list = Arc::as_ptr(&scratch.decisions);
        let mut other = decided.clone();
        other.decisions = Arc::new(vec![(1, false)]);
        for p in [&other, &undecided, &decided] {
            scratch
                .decode_field(&mut &encoded(p)[..], FieldId(1), None)
                .unwrap();
            assert_eq!(&scratch, p);
            assert_eq!(Arc::as_ptr(&scratch.decisions), list);
        }
    }

    #[test]
    fn wire_spends_one_byte_on_an_undecided_unset_value() {
        for (mut p, flag) in [(lt_pred(), HELD_UNSET), (lt_pred(), HELD_UNKNOWN)] {
            if flag == HELD_UNKNOWN {
                p.make_symbolic(FieldId(0));
            }
            let mut buf = Vec::new();
            p.encode_field(None, &mut buf);
            assert_eq!(buf, [flag]);
            let mut back = lt_pred();
            back.set(1);
            back.decode_field(&mut &buf[..], FieldId(0), None).unwrap();
            assert_eq!(back, p);
        }
        // Held tag 3 and the five unknown high bits are refused.
        for flags in [3u8, 0b1000, 0x80 | HELD_SET] {
            let mut back = lt_pred();
            assert_eq!(
                back.decode_field(&mut &[flags, 0, 0][..], FieldId(0), None),
                Err(WireError::InvalidTag(flags))
            );
        }
    }

    #[test]
    fn affine_scalar_forms() {
        let mut p = lt_pred();
        assert_eq!(p.affine_scalar(1, 0), None, "unset has no reportable value");
        p.set(42);
        assert_eq!(p.affine_scalar(1, 0), Some(SymScalar::Concrete(42)));
        let mut p = lt_pred();
        p.make_symbolic(FieldId(3));
        assert_eq!(
            p.affine_scalar(1, 0),
            Some(SymScalar::Affine {
                field: FieldId(3),
                a: 1,
                b: 0
            })
        );
    }

    #[test]
    fn non_scalar_types_have_no_transfer_when_set() {
        let mut p: SymPred<String> = SymPred::new(|a, b| a == b);
        p.set("x".to_string());
        assert_eq!(p.transfer(), None);
        let mut p: SymPred<String> = SymPred::new(|a, b| a == b);
        p.make_symbolic(FieldId(0));
        assert_eq!(p.transfer(), Some(ScalarTransfer::IDENTITY));
    }

    proptest! {
        #[test]
        fn wire_roundtrips_every_canonical_form(
            held in 0u8..3,
            value in any::<i64>(),
            decisions in prop::collection::vec(
                (any::<i64>(), any::<bool>()),
                0..6
            ),
        ) {
            let mut p = lt_pred();
            p.make_symbolic(FieldId(1));
            p.held = match held {
                0 => Held::Unknown,
                1 => Held::Unset,
                _ => Held::Set(value),
            };
            let empty = decisions.is_empty();
            p.decisions = Arc::new(decisions);
            let mut buf = Vec::new();
            p.encode_field(None, &mut buf);
            if empty && held < 2 {
                prop_assert_eq!(buf.len(), 1);
            }
            let mut back = lt_pred();
            let mut rd = &buf[..];
            back.decode_field(&mut rd, FieldId(1), None).unwrap();
            prop_assert!(rd.is_empty());
            prop_assert_eq!(back, p);
        }
    }
}
