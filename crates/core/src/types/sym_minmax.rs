//! A user-defined symbolic data type: running minima / maxima.
//!
//! §4.5 of the paper: "SYMPLE exposes a C++ interface for specifying new
//! data types … a modular way to increase the expressivity. These
//! user-provided data types should (i) have a canonical form, (ii)
//! implement efficient decision procedures, (iii) implement a merge
//! function … and (iv) serialization functions."
//!
//! [`SymMinMax`] is exactly such a type, written against the same
//! [`SymField`] interface every built-in uses. Its canonical form is
//!
//! ```text
//! lb ≤ x ≤ ub  ⇒  v = op(x, c)        (op ∈ {min, max}, c a constant)
//! ```
//!
//! which is closed under updates (`max(max(x,c), e) = max(x, max(c,e))`)
//! — so a running-extremum UDA explores **exactly one path** with **zero
//! forks**, where the `if (max < e) max = e` formulation over `SymInt`
//! pays a fork per chunk and a two-path summary. `symple-bench`'s
//! `golden_cells` test pins both shapes (`ablations::minmax_shapes`).

use std::cmp::Ordering;

use crate::ctx::{OpKind, SymCtx};
use crate::error::{Error, Result};
use crate::interval::Interval;
use crate::state::{downcast, FieldFacts, FieldId, SymField, Transfers};
use crate::types::scalar::ScalarTransfer;
use crate::wire::{self, WireError};

/// Which extremum the type tracks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Extremum {
    /// Running minimum.
    Min,
    /// Running maximum.
    Max,
}

impl Extremum {
    fn fold(self, a: i64, b: i64) -> i64 {
        match self {
            Extremum::Min => a.min(b),
            Extremum::Max => a.max(b),
        }
    }

    /// The fold identity — the seed value (`INT_MIN` for `Max`, as in the
    /// paper's `SymInt max = INT_MIN`).
    fn seed(self) -> i64 {
        match self {
            Extremum::Min => i64::MAX,
            Extremum::Max => i64::MIN,
        }
    }
}

/// Wire v2 flag byte of a [`SymMinMax`]: the mode is `Max`, the input
/// still participates, `lb` / `ub` follow (else the end is open), the
/// accumulator follows (else it is the mode's fold identity). Fields
/// follow in that order as zigzag varints.
const FLAG_MAX: u8 = 1;
const FLAG_TRACKING: u8 = 1 << 1;
const FLAG_LB: u8 = 1 << 2;
const FLAG_UB: u8 = 1 << 3;
const FLAG_ACC: u8 = 1 << 4;
const FLAG_ALL: u8 = FLAG_MAX | FLAG_TRACKING | FLAG_LB | FLAG_UB | FLAG_ACC;

/// A running minimum or maximum over the values fed to it.
///
/// # Examples
///
/// The paper's `Max` UDA without any branching:
///
/// ```
/// use symple_core::types::sym_minmax::{Extremum, SymMinMax};
///
/// let mut max = SymMinMax::new(Extremum::Max);
/// max.update(5);
/// max.update(3);
/// max.update(10);
/// assert_eq!(max.concrete_value(), Some(10));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SymMinMax {
    mode: Extremum,
    constraint: Interval,
    /// Accumulated extremum of concrete updates, seeded with the fold
    /// identity.
    acc: i64,
    /// Whether the unknown initial value still participates in `v`.
    tracking_input: bool,
    id: Option<FieldId>,
}

impl SymMinMax {
    /// Creates a fresh tracker seeded with the fold identity (`INT_MIN`
    /// for `Max`), exactly like the paper's `SymInt max = INT_MIN`.
    pub fn new(mode: Extremum) -> SymMinMax {
        SymMinMax {
            mode,
            constraint: Interval::FULL,
            acc: mode.seed(),
            tracking_input: false,
            id: None,
        }
    }

    /// Folds a concrete value into the extremum — never forks.
    pub fn update(&mut self, e: i64) {
        self.acc = self.mode.fold(self.acc, e);
    }

    /// Overwrites with a concrete value, dropping the input dependence.
    pub fn assign(&mut self, v: i64) {
        self.acc = v;
        self.tracking_input = false;
    }

    /// The concrete value, if the input no longer participates.
    pub fn concrete_value(&self) -> Option<i64> {
        if self.tracking_input {
            None
        } else {
            Some(self.acc)
        }
    }

    /// `v < t`, forking if both outcomes are feasible.
    ///
    /// For `Max`: `max(x, c) < t ⇔ x < t ∧ c < t`, so a large accumulated
    /// constant decides the branch without consulting `x` at all.
    pub fn lt(&mut self, ctx: &mut SymCtx, t: i64) -> bool {
        self.cmp_with(ctx, t, true)
    }

    /// `v ≥ t`; the complement of [`SymMinMax::lt`].
    pub fn ge(&mut self, ctx: &mut SymCtx, t: i64) -> bool {
        !self.cmp_with(ctx, t, true)
    }

    /// `v ≤ t`, forking if both outcomes are feasible.
    pub fn le(&mut self, ctx: &mut SymCtx, t: i64) -> bool {
        self.cmp_with(ctx, t, false)
    }

    /// `v > t`; the complement of [`SymMinMax::le`].
    pub fn gt(&mut self, ctx: &mut SymCtx, t: i64) -> bool {
        !self.cmp_with(ctx, t, false)
    }

    /// Decides `v < t` (strict) or `v ≤ t`.
    fn cmp_with(&mut self, ctx: &mut SymCtx, t: i64, strict: bool) -> bool {
        let against = |value: i64| -> bool {
            match value.cmp(&t) {
                Ordering::Less => true,
                Ordering::Equal => !strict,
                Ordering::Greater => false,
            }
        };
        if !self.tracking_input {
            return against(self.acc);
        }
        // v = op(x, c). Decompose per mode.
        match self.mode {
            Extremum::Max => {
                if !against(self.acc) {
                    // c ≥ t (or > for ≤): the max already exceeds t.
                    return false;
                }
                // Outcome now depends on x alone: x < t (or ≤).
                let (below, above) = if strict {
                    self.constraint.split_lt(1, 0, t)
                } else {
                    self.constraint.split_le(1, 0, t)
                };
                self.binary(ctx, below, above, true)
            }
            Extremum::Min => {
                if against(self.acc) {
                    // c < t: the min is already below t.
                    return true;
                }
                let (below, above) = if strict {
                    self.constraint.split_lt(1, 0, t)
                } else {
                    self.constraint.split_le(1, 0, t)
                };
                self.binary(ctx, below, above, true)
            }
        }
    }

    fn binary(
        &mut self,
        ctx: &mut SymCtx,
        true_side: Interval,
        false_side: Interval,
        outcome_is_true_side: bool,
    ) -> bool {
        match (true_side.is_empty(), false_side.is_empty()) {
            (false, true) => {
                ctx.note_op(OpKind::Guard, self.id, "cmp", false);
                outcome_is_true_side
            }
            (true, false) => {
                ctx.note_op(OpKind::Guard, self.id, "cmp", false);
                !outcome_is_true_side
            }
            (false, false) => {
                ctx.note_op(OpKind::Guard, self.id, "cmp", true);
                if ctx.choose(2) == 0 {
                    self.constraint = true_side;
                    outcome_is_true_side
                } else {
                    self.constraint = false_side;
                    !outcome_is_true_side
                }
            }
            (true, true) => {
                debug_assert!(false, "SymMinMax branch with empty path constraint");
                false
            }
        }
    }
}

impl SymField for SymMinMax {
    fn make_symbolic(&mut self, id: FieldId) {
        self.constraint = Interval::FULL;
        self.acc = self.mode.seed();
        self.tracking_input = true;
        self.id = Some(id);
    }

    fn is_concrete(&self) -> bool {
        !self.tracking_input
    }

    fn transfer_eq(&self, other: &dyn SymField) -> bool {
        downcast::<SymMinMax>(other).is_some_and(|o| {
            self.mode == o.mode && self.tracking_input == o.tracking_input && self.acc == o.acc
        })
    }

    fn constraint_eq(&self, other: &dyn SymField) -> bool {
        downcast::<SymMinMax>(other).is_some_and(|o| self.constraint == o.constraint)
    }

    fn constraint_overlaps(&self, other: &dyn SymField) -> bool {
        downcast::<SymMinMax>(other)
            .is_some_and(|o| !self.constraint.intersect(&o.constraint).is_empty())
    }

    fn union_constraint(&mut self, other: &dyn SymField) -> bool {
        let Some(o) = downcast::<SymMinMax>(other) else {
            return false;
        };
        match self.constraint.union_if_contiguous(&o.constraint) {
            Some(u) => {
                self.constraint = u;
                true
            }
            None => false,
        }
    }

    fn compose_onto(&mut self, prev: &dyn SymField, _transfers: &Transfers<'_>) -> Result<bool> {
        let prev = downcast::<SymMinMax>(prev).ok_or(Error::Uda("field type mismatch".into()))?;
        debug_assert_eq!(self.mode, prev.mode, "composed extrema must share a mode");
        if !self.tracking_input {
            // Later path discarded its input: only the constraint on `y`
            // must be discharged against the earlier value.
            if !self.feasible_against(prev) {
                return Ok(false);
            }
            self.constraint = prev.constraint;
            self.id = prev.id;
            return Ok(true);
        }
        if prev.tracking_input {
            // y = op(x, c1); pull the constraint on y back to x.
            let pulled = self.pullback(prev.acc);
            // (Seeds never reach here as constants: a tracking earlier
            // path keeps its seed folded into `op(x, ·)` instead.)
            let merged = pulled.intersect(&prev.constraint);
            if merged.is_empty() {
                return Ok(false);
            }
            self.acc = self.mode.fold(self.acc, prev.acc);
            self.constraint = merged;
        } else {
            // Earlier value is the constant `prev.acc`.
            if !self.constraint.contains(prev.acc) {
                return Ok(false);
            }
            self.acc = self.mode.fold(self.acc, prev.acc);
            self.tracking_input = false;
            self.constraint = prev.constraint;
        }
        self.id = prev.id;
        Ok(true)
    }

    fn transfer(&self) -> Option<ScalarTransfer> {
        self.concrete_value().map(ScalarTransfer::Const)
    }

    /// Equal in every part: the mode, accumulator and input tracking that
    /// `transfer_eq` compares, the constraint of `constraint_eq`, and the
    /// id, shared by every path of one state anyway.
    fn agrees_for_update(&self, other: &dyn SymField) -> bool {
        downcast::<SymMinMax>(other).is_some_and(|o| self == o)
    }

    fn replay_from(&mut self, lead: &dyn SymField, _mark: usize) {
        if let Some(lead) = downcast::<SymMinMax>(lead) {
            *self = *lead;
        }
    }

    fn encode_field(&self, _prev: Option<&dyn SymField>, buf: &mut Vec<u8>) {
        let at = buf.len();
        buf.push(0);
        let (lb, ub) = self.constraint.encode_within(&Interval::FULL, buf);
        let mut flags = (u8::from(self.mode == Extremum::Max) * FLAG_MAX)
            | (u8::from(self.tracking_input) * FLAG_TRACKING)
            | (u8::from(lb) * FLAG_LB)
            | (u8::from(ub) * FLAG_UB);
        if self.acc != self.mode.seed() {
            flags |= FLAG_ACC;
            wire::put_ivarint(buf, self.acc);
        }
        buf[at] = flags;
    }

    fn decode_field(
        &mut self,
        buf: &mut &[u8],
        id: FieldId,
        _prev: Option<&dyn SymField>,
    ) -> Result<(), WireError> {
        let flags = wire::get_bytes(buf, 1)?[0];
        if flags & !FLAG_ALL != 0 {
            return Err(WireError::InvalidTag(flags));
        }
        self.mode = if flags & FLAG_MAX != 0 {
            Extremum::Max
        } else {
            Extremum::Min
        };
        self.tracking_input = flags & FLAG_TRACKING != 0;
        self.constraint = Interval::decode_within(
            &Interval::FULL,
            (flags & FLAG_LB != 0, flags & FLAG_UB != 0),
            buf,
        )?;
        self.acc = if flags & FLAG_ACC != 0 {
            wire::get_ivarint(buf)?
        } else {
            self.mode.seed()
        };
        self.id = Some(id);
        Ok(())
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn facts(&self) -> FieldFacts {
        FieldFacts {
            kind: "minmax",
            concrete: !self.tracking_input,
            ..FieldFacts::default()
        }
    }

    fn perturb(&mut self) -> bool {
        // Shift the accumulated extremum; the seed saturates away from the
        // fold identity so the change survives later updates.
        self.acc = match self.mode {
            Extremum::Min => self.acc.saturating_sub(1),
            Extremum::Max => self.acc.saturating_add(1),
        };
        true
    }

    fn describe(&self) -> String {
        let op = match self.mode {
            Extremum::Min => "min",
            Extremum::Max => "max",
        };
        let c = if self.constraint.is_full() {
            "x∈(-∞,+∞)".to_string()
        } else {
            format!("x∈[{},{}]", self.constraint.lb, self.constraint.ub)
        };
        if self.tracking_input {
            if self.acc == self.mode.seed() {
                format!("{c} ⇒ x")
            } else {
                format!("{c} ⇒ {op}(x,{})", self.acc)
            }
        } else {
            format!("{c} ⇒ {}", self.acc)
        }
    }
}

impl SymMinMax {
    /// Whether a concrete earlier value satisfies this path's constraint.
    fn feasible_against(&self, prev: &SymMinMax) -> bool {
        match prev.concrete_value() {
            Some(k) => self.constraint.contains(k),
            None => false,
        }
    }

    /// Pre-image of the interval constraint under `y = op(x, c1)`.
    fn pullback(&self, c1: i64) -> Interval {
        let iv = self.constraint;
        match self.mode {
            Extremum::Max => {
                // y = max(x, c1): y ≤ ub ⇔ x ≤ ub ∧ c1 ≤ ub;
                //                 y ≥ lb ⇔ x ≥ lb ∨ c1 ≥ lb.
                if c1 > iv.ub {
                    return Interval::empty();
                }
                let lb = if c1 >= iv.lb { i64::MIN } else { iv.lb };
                Interval::new(lb, iv.ub)
            }
            Extremum::Min => {
                if c1 < iv.lb {
                    return Interval::empty();
                }
                let ub = if c1 <= iv.ub { i64::MAX } else { iv.ub };
                Interval::new(iv.lb, ub)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compose::apply_summary;
    use crate::engine::{EngineConfig, SymbolicExecutor};
    use crate::impl_sym_state;
    use crate::uda::Uda;
    use proptest::prelude::*;

    #[test]
    fn agreement_is_equality_and_replay_copies_the_lead() {
        let mut ctx = SymCtx::symbolic();
        let mut lead = SymMinMax::new(Extremum::Max);
        lead.make_symbolic(FieldId(0));
        let (mut follower, mut other) = (lead, lead);
        assert!(lead.agrees_for_update(&other));
        other.lt(&mut ctx, 10); // narrows the constraint only
        assert!(!lead.agrees_for_update(&other), "constraints differ");
        lead.update(7);
        assert!(!lead.agrees_for_update(&follower), "accumulators differ");
        assert!(!SymMinMax::new(Extremum::Min).agrees_for_update(&SymMinMax::new(Extremum::Max)));
        follower.replay_from(&lead, 0);
        assert_eq!(follower, lead);
    }

    struct MaxUda;

    #[derive(Clone, Debug)]
    struct MaxState {
        max: SymMinMax,
    }
    impl_sym_state!(MaxState { max });

    impl Uda for MaxUda {
        type State = MaxState;
        type Event = i64;
        type Output = i64;
        fn init(&self) -> MaxState {
            MaxState {
                max: SymMinMax::new(Extremum::Max),
            }
        }
        fn update(&self, s: &mut MaxState, _ctx: &mut SymCtx, e: &i64) {
            s.max.update(*e);
        }
        fn result(&self, s: &MaxState, _ctx: &mut SymCtx) -> i64 {
            s.max.concrete_value().expect("concrete")
        }
    }

    #[test]
    fn max_uda_explores_one_path_with_zero_forks() {
        let uda = MaxUda;
        let mut exec = SymbolicExecutor::new(&uda, EngineConfig::default());
        exec.feed_all([5i64, 3, 10, -4, 9].iter()).unwrap();
        let (chain, stats) = exec.finish();
        assert_eq!(chain.total_paths(), 1, "canonical form absorbs updates");
        assert_eq!(stats.forks, 0);
        // Apply to concrete 9 and 42.
        let mut init = uda.init();
        init.max.assign(9);
        let fin = apply_summary(&chain.summaries()[0], &init).unwrap();
        assert_eq!(fin.max.concrete_value(), Some(10));
        let mut init = uda.init();
        init.max.assign(42);
        let fin = apply_summary(&chain.summaries()[0], &init).unwrap();
        assert_eq!(fin.max.concrete_value(), Some(42));
    }

    #[test]
    fn chunked_equals_sequential() {
        use crate::uda::{run_chunked_symbolic, run_sequential};
        let input: Vec<i64> = vec![2, 9, 1, 5, 3, 10, 8, 2, 1, -7, 12, 12, 0];
        let seq = run_sequential(&MaxUda, input.iter()).unwrap();
        assert_eq!(seq, 12);
        for n in 1..=input.len() {
            let par = run_chunked_symbolic(&MaxUda, &input, n, &EngineConfig::default()).unwrap();
            assert_eq!(par, seq, "chunks={n}");
        }
    }

    #[test]
    fn comparisons_fork_only_when_needed() {
        let mut m = SymMinMax::new(Extremum::Max);
        m.make_symbolic(FieldId(0));
        m.update(10);
        let mut ctx = SymCtx::symbolic();
        // v = max(x, 10) ≥ 10: with c = 10 ≥ t = 10 the branch is forced.
        assert!(m.ge(&mut ctx, 10));
        assert!(ctx.choice_vector().is_empty());
        // v < 20 depends on x: forks.
        assert!(m.lt(&mut ctx, 20));
        assert_eq!(ctx.choice_vector().len(), 1);
        assert_eq!(m.constraint, Interval::new(i64::MIN, 19));
    }

    #[test]
    fn min_mode_mirrors() {
        let mut m = SymMinMax::new(Extremum::Min);
        m.make_symbolic(FieldId(0));
        m.update(10);
        let mut ctx = SymCtx::symbolic();
        // v = min(x, 10) ≤ 10 always.
        assert!(m.le(&mut ctx, 10));
        assert!(ctx.choice_vector().is_empty());
        // v < 5 depends on x.
        assert!(m.lt(&mut ctx, 5));
        assert_eq!(m.constraint, Interval::new(i64::MIN, 4));
    }

    #[test]
    fn oracle_against_concrete() {
        // Symbolic summary of a chunk matches concrete execution for all
        // initial values in a window.
        let uda = MaxUda;
        let chunk = [7i64, -3, 15, 2];
        let mut exec = SymbolicExecutor::new(&uda, EngineConfig::default());
        exec.feed_all(chunk.iter()).unwrap();
        let (chain, _) = exec.finish();
        for x in -20i64..=20 {
            let mut init = uda.init();
            init.max.assign(x);
            let fin = crate::compose::apply_chain(&chain, &init).unwrap();
            assert_eq!(fin.max.concrete_value(), Some(x.max(15)), "x={x}");
        }
    }

    #[test]
    fn wire_roundtrip() {
        let mut m = SymMinMax::new(Extremum::Max);
        m.make_symbolic(FieldId(3));
        m.update(42);
        let mut ctx = SymCtx::symbolic();
        let _ = m.lt(&mut ctx, 100);
        let mut buf = Vec::new();
        m.encode_field(None, &mut buf);
        let mut back = SymMinMax::new(Extremum::Min);
        let mut rd = &buf[..];
        back.decode_field(&mut rd, FieldId(3), None).unwrap();
        assert!(rd.is_empty());
        assert_eq!(back, m);
    }

    #[test]
    fn wire_spends_no_bytes_on_the_seed_and_open_ends() {
        for mode in [Extremum::Min, Extremum::Max] {
            let mut m = SymMinMax::new(mode);
            m.make_symbolic(FieldId(0));
            let mut buf = Vec::new();
            m.encode_field(None, &mut buf);
            assert_eq!(buf.len(), 1, "{mode:?}: {buf:?}");
            let mut back = SymMinMax::new(Extremum::Min);
            back.decode_field(&mut &buf[..], FieldId(0), None).unwrap();
            assert_eq!(back, m);
        }
        let mut back = SymMinMax::new(Extremum::Min);
        assert_eq!(
            back.decode_field(&mut &[0x20u8][..], FieldId(0), None),
            Err(WireError::InvalidTag(0x20))
        );
    }

    #[test]
    fn merge_same_transfer() {
        let mut a = SymMinMax::new(Extremum::Max);
        a.make_symbolic(FieldId(0));
        a.update(5);
        a.constraint = Interval::new(0, 9);
        let mut b = a;
        b.constraint = Interval::new(10, 20);
        assert!(a.transfer_eq(&b));
        assert!(a.union_constraint(&b));
        assert_eq!(a.constraint, Interval::new(0, 20));
    }

    #[test]
    fn compose_symbolic_chain() {
        // Chunk A: max(x, 9); chunk B: max(y, 8) with y ≤ 19 (from a
        // comparison); compose and check against every concrete x.
        let mut a = SymMinMax::new(Extremum::Max);
        a.make_symbolic(FieldId(0));
        a.update(9);
        let mut b = SymMinMax::new(Extremum::Max);
        b.make_symbolic(FieldId(0));
        b.update(8);
        let mut ctx = SymCtx::symbolic();
        assert!(b.lt(&mut ctx, 20));
        let prev_all = |_| a.transfer();
        let mut composed = b;
        assert!(composed.compose_onto(&a, &prev_all).unwrap());
        // y = max(x,9) < 20 ⇔ x < 20; value = max(x, 9).
        assert_eq!(composed.constraint, Interval::new(i64::MIN, 19));
        assert_eq!(composed.acc, 9);
        assert!(composed.tracking_input);
    }

    proptest! {
        #[test]
        fn wire_roundtrips_every_canonical_form(
            max in any::<bool>(),
            tracking in any::<bool>(),
            lb in prop_oneof![Just(i64::MIN), any::<i64>()],
            ub in prop_oneof![Just(i64::MAX), any::<i64>()],
            acc in prop_oneof![
                Just(i64::MIN),
                Just(i64::MAX),
                any::<i64>()
            ],
        ) {
            let mut m = SymMinMax::new(if max { Extremum::Max } else { Extremum::Min });
            m.make_symbolic(FieldId(2));
            m.tracking_input = tracking;
            m.constraint = Interval::new(lb, ub);
            m.acc = acc;
            let mut buf = Vec::new();
            m.encode_field(None, &mut buf);
            // Decoding restores the mode too, whatever the template's.
            let mut back = SymMinMax::new(Extremum::Min);
            let mut rd = &buf[..];
            back.decode_field(&mut rd, FieldId(2), None).unwrap();
            prop_assert!(rd.is_empty());
            prop_assert_eq!(back, m);
        }
    }
}
