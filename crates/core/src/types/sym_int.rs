//! Symbolic integers with interval constraints and affine transfer
//! functions (§4.3 of the paper).
//!
//! A `SymInt` behaves like an `i64` but may hold a *symbolic* value: an
//! affine function `a·x + b` of the unknown initial value `x` that flowed in
//! from the previous chunk, valid under the canonical path constraint
//! `lb ≤ x ≤ ub`.
//!
//! The type deliberately supports only operations between a `SymInt` and a
//! concrete integer — addition, subtraction, multiplication, and the six
//! comparisons. Two `SymInt`s can never be combined or compared: this keeps
//! every constraint single-variable, so branch feasibility is a constant-time
//! interval check instead of an integer-linear-programming call (§4.3).
//! Division is likewise not provided (it is not affine).

use std::ops::{AddAssign, MulAssign, SubAssign};

use crate::ctx::{OpKind, SymCtx};
use crate::error::{Error, Result};
use crate::interval::Interval;
use crate::state::FieldFacts;
use crate::state::{downcast, FieldId, SymField, Transfers};
use crate::types::scalar::{mul_add_checked, ScalarTransfer, SymScalar};
use crate::wire::{self, WireError};

/// Wire v2 flag byte of a [`SymInt`]: `lb` / `ub` follow (else the end is
/// the width range's), `a` is 1 / `a` follows (neither: `a = 0`), `b`
/// follows (else 0). Fields follow in that order as zigzag varints.
const FLAG_LB: u8 = 1;
const FLAG_UB: u8 = 1 << 1;
const FLAG_A_ONE: u8 = 1 << 2;
const FLAG_A: u8 = 1 << 3;
const FLAG_B: u8 = 1 << 4;
const FLAG_ALL: u8 = FLAG_LB | FLAG_UB | FLAG_A_ONE | FLAG_A | FLAG_B;

/// A symbolic 64-bit integer.
///
/// Canonical form `(lb, ub, a, b)`: under the path constraint
/// `lb ≤ x ≤ ub`, the current value is `a·x + b` (§4.3). A concrete value
/// is simply the case `a = 0`.
///
/// # Examples
///
/// ```
/// use symple_core::{SymCtx, SymInt};
/// use symple_core::state::{FieldId, SymField};
///
/// let mut count = SymInt::new(0);
/// count += 1;
/// assert_eq!(count.concrete_value(), Some(1));
///
/// // A symbolic count forks on comparison: both outcomes are feasible, so
/// // the first exploration takes the `true` side and narrows the interval.
/// let mut count = SymInt::new(0);
/// count.make_symbolic(FieldId(0));
/// count += 5; // value is x + 5
/// let mut ctx = SymCtx::symbolic();
/// let taken = count.gt(&mut ctx, 10); // splits at x = 5
/// assert!(taken);
/// assert_eq!(count.constraint().lb, 6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SymInt {
    constraint: Interval,
    a: i64,
    b: i64,
    /// Bit width of the modeled integer (§4.3: "parametrized with the
    /// desired bit length"); values must stay in `[-2^(w-1), 2^(w-1)-1]`.
    width: u8,
    id: Option<FieldId>,
}

impl SymInt {
    /// Creates a concrete 64-bit `SymInt` holding `v`.
    pub fn new(v: i64) -> SymInt {
        SymInt {
            constraint: Interval::FULL,
            a: 0,
            b: v,
            width: 64,
            id: None,
        }
    }

    /// Creates a concrete `SymInt` of the given bit width (§4.3).
    ///
    /// Arithmetic that would leave `[-2^(w-1), 2^(w-1)-1]` for *any*
    /// feasible input reports [`Error::ArithmeticOverflow`], matching the
    /// narrower C++ integer the paper's UDAs would have used. A symbolic
    /// value of width `w` also starts constrained to the width's range.
    ///
    /// # Panics
    ///
    /// Panics unless `8 ≤ width ≤ 64` — a construction-time bug.
    pub fn with_width(width: u8, v: i64) -> SymInt {
        assert!((8..=64).contains(&width), "SymInt width must be in 8..=64");
        let s = SymInt {
            constraint: Interval::FULL,
            a: 0,
            b: v,
            width,
            id: None,
        };
        assert!(
            s.width_range().contains(v),
            "initial value {v} does not fit an i{width}"
        );
        s
    }

    /// The inclusive value range of this width.
    fn width_range(&self) -> Interval {
        if self.width >= 64 {
            Interval::FULL
        } else {
            let half = 1i64 << (self.width - 1);
            Interval::new(-half, half - 1)
        }
    }

    /// The extreme values `a·x + b` takes over the current constraint.
    fn value_bounds(&self) -> (i128, i128) {
        let lo = self.a as i128 * self.constraint.lb as i128 + self.b as i128;
        let hi = self.a as i128 * self.constraint.ub as i128 + self.b as i128;
        (lo.min(hi), lo.max(hi))
    }

    /// Enforces the width invariant after an arithmetic op.
    ///
    /// Narrow widths (< 64) refuse conservatively: if *any* feasible value
    /// of `a·x + b` leaves the declared range, the chunk fails with
    /// [`Error::ArithmeticOverflow`].
    ///
    /// Width 64 is the machine width, so the same conservative rule would
    /// refuse every unguarded accumulation (the unknown `x` spans all of
    /// `i64`). Instead the path constraint is *refined* to the entry
    /// values for which `a·x + b` stays in `i64` — entry values that would
    /// trap are then covered by no path, and summary application reports
    /// them as an incomplete summary rather than silently returning a
    /// value sequential execution never produces. (Found by the fuzzer:
    /// an `x + huge` whose result was later overwritten yielded a wrong
    /// `Ok` where the sequential run trapped mid-record.) If no feasible
    /// entry value survives, the op fails outright.
    fn check_width(&mut self, ctx: &mut SymCtx, op: &'static str) {
        let (lo, hi) = self.value_bounds();
        if self.width >= 64 {
            if self.a == 0 {
                // Concrete: the checked op itself already trapped.
                return;
            }
            if lo >= i64::MIN as i128 && hi <= i64::MAX as i128 {
                return;
            }
            let safe = Interval::FULL.preimage_affine(self.a, self.b);
            let refined = self.constraint.intersect(&safe);
            if refined.is_empty() {
                ctx.fail(Error::ArithmeticOverflow { op });
            } else {
                self.constraint = refined;
            }
            return;
        }
        let r = self.width_range();
        if lo < r.lb as i128 || hi > r.ub as i128 {
            ctx.fail(Error::ArithmeticOverflow { op });
        }
    }

    /// The current path constraint on this field's initial value `x`.
    pub fn constraint(&self) -> Interval {
        self.constraint
    }

    /// The `(a, b)` coefficients of the transfer function `a·x + b`.
    pub fn coeffs(&self) -> (i64, i64) {
        (self.a, self.b)
    }

    /// The field id, set once the value has been made symbolic.
    pub fn field_id(&self) -> Option<FieldId> {
        self.id
    }

    /// The concrete value, if the transfer function is constant.
    pub fn concrete_value(&self) -> Option<i64> {
        (self.a == 0).then_some(self.b)
    }

    /// Overwrites the value with a concrete constant (binds the variable).
    ///
    /// The path constraint is untouched: it records how execution got here.
    pub fn assign(&mut self, v: i64) {
        self.a = 0;
        self.b = v;
    }

    /// The current value as a [`SymScalar`], e.g. for vector appends.
    ///
    /// # Panics
    ///
    /// Panics if the value is symbolic but was never assigned a field id —
    /// symbolic `SymInt`s exist only inside engine-managed state, so this
    /// indicates an engine-usage bug.
    pub fn as_scalar(&self) -> SymScalar {
        if self.a == 0 {
            SymScalar::Concrete(self.b)
        } else {
            let field = self
                .id
                .expect("symbolic SymInt outside engine-managed state");
            SymScalar::Affine {
                field,
                a: self.a,
                b: self.b,
            }
        }
    }

    /// Checked addition of a constant; sets `ctx` error on overflow
    /// (of `i64`, or of the declared bit width).
    pub fn add(&mut self, ctx: &mut SymCtx, k: i64) {
        ctx.note_op(OpKind::Arith, self.id, "add", false);
        match self.b.checked_add(k) {
            Some(b) => self.b = b,
            None => ctx.fail(Error::ArithmeticOverflow { op: "add" }),
        }
        self.check_width(ctx, "add");
    }

    /// Checked subtraction of a constant; sets `ctx` error on overflow.
    pub fn sub(&mut self, ctx: &mut SymCtx, k: i64) {
        ctx.note_op(OpKind::Arith, self.id, "sub", false);
        match self.b.checked_sub(k) {
            Some(b) => self.b = b,
            None => ctx.fail(Error::ArithmeticOverflow { op: "sub" }),
        }
        self.check_width(ctx, "sub");
    }

    /// Checked multiplication by a constant; sets `ctx` error on overflow.
    pub fn mul(&mut self, ctx: &mut SymCtx, k: i64) {
        ctx.note_op(OpKind::Arith, self.id, "mul", false);
        match (self.a.checked_mul(k), self.b.checked_mul(k)) {
            (Some(a), Some(b)) => {
                self.a = a;
                self.b = b;
            }
            _ => ctx.fail(Error::ArithmeticOverflow { op: "mul" }),
        }
        self.check_width(ctx, "mul");
    }

    /// Replaces the value with `k − value` (e.g. a time difference against
    /// a concrete record timestamp); sets `ctx` error on overflow.
    pub fn rsub(&mut self, ctx: &mut SymCtx, k: i64) {
        ctx.note_op(OpKind::Arith, self.id, "rsub", false);
        match (self.a.checked_neg(), k.checked_sub(self.b)) {
            (Some(a), Some(b)) => {
                self.a = a;
                self.b = b;
            }
            _ => ctx.fail(Error::ArithmeticOverflow { op: "rsub" }),
        }
        self.check_width(ctx, "rsub");
    }

    /// `value < c`, forking if both outcomes are feasible.
    pub fn lt(&mut self, ctx: &mut SymCtx, c: i64) -> bool {
        if self.a == 0 {
            return self.b < c;
        }
        let (t, e) = self.constraint.split_lt(self.a, self.b, c);
        self.binary_branch(ctx, t, e, "lt")
    }

    /// `value ≤ c`, forking if both outcomes are feasible.
    pub fn le(&mut self, ctx: &mut SymCtx, c: i64) -> bool {
        if self.a == 0 {
            return self.b <= c;
        }
        let (t, e) = self.constraint.split_le(self.a, self.b, c);
        self.binary_branch(ctx, t, e, "le")
    }

    /// `value > c`, forking if both outcomes are feasible.
    pub fn gt(&mut self, ctx: &mut SymCtx, c: i64) -> bool {
        if self.a == 0 {
            return self.b > c;
        }
        let (le_side, gt_side) = self.constraint.split_le(self.a, self.b, c);
        self.binary_branch(ctx, gt_side, le_side, "gt")
    }

    /// `value ≥ c`, forking if both outcomes are feasible.
    pub fn ge(&mut self, ctx: &mut SymCtx, c: i64) -> bool {
        if self.a == 0 {
            return self.b >= c;
        }
        let (lt_side, ge_side) = self.constraint.split_lt(self.a, self.b, c);
        self.binary_branch(ctx, ge_side, lt_side, "ge")
    }

    /// `value == c`.
    ///
    /// The "not equal" region of an interval is not itself an interval, so
    /// this may fork **three** ways (`x < x₀`, `x = x₀`, `x > x₀`) — the
    /// reason the choice vector is mixed-radix rather than binary.
    pub fn eq_c(&mut self, ctx: &mut SymCtx, c: i64) -> bool {
        if self.a == 0 {
            return self.b == c;
        }
        let (eq, below, above) = self.constraint.split_eq(self.a, self.b, c);
        // Outcome order: the `true` side first, then the residuals.
        self.multi_branch(ctx, &[(eq, true), (below, false), (above, false)], "eq")
    }

    /// `value != c`; the complement of [`SymInt::eq_c`] with the same
    /// three-way split.
    pub fn ne_c(&mut self, ctx: &mut SymCtx, c: i64) -> bool {
        if self.a == 0 {
            return self.b != c;
        }
        let (eq, below, above) = self.constraint.split_eq(self.a, self.b, c);
        self.multi_branch(ctx, &[(below, true), (above, true), (eq, false)], "ne")
    }

    /// Resolves a binary branch: narrows the constraint to the chosen
    /// side's sub-interval and returns the branch outcome.
    fn binary_branch(
        &mut self,
        ctx: &mut SymCtx,
        true_side: Interval,
        false_side: Interval,
        op: &'static str,
    ) -> bool {
        match (true_side.is_empty(), false_side.is_empty()) {
            (false, true) => {
                ctx.note_op(OpKind::Guard, self.id, op, false);
                true
            }
            (true, false) => {
                ctx.note_op(OpKind::Guard, self.id, op, false);
                false
            }
            (false, false) => {
                ctx.note_op(OpKind::Guard, self.id, op, true);
                if ctx.choose(2) == 0 {
                    self.constraint = true_side;
                    true
                } else {
                    self.constraint = false_side;
                    false
                }
            }
            (true, true) => {
                // Both sides empty means the incoming constraint was empty —
                // a violated engine invariant.
                debug_assert!(false, "SymInt branch with empty path constraint");
                false
            }
        }
    }

    /// Resolves a branch with up to three feasible outcomes.
    fn multi_branch(
        &mut self,
        ctx: &mut SymCtx,
        outcomes: &[(Interval, bool)],
        op: &'static str,
    ) -> bool {
        let feasible: Vec<&(Interval, bool)> =
            outcomes.iter().filter(|(i, _)| !i.is_empty()).collect();
        match feasible.len() {
            0 => {
                debug_assert!(false, "SymInt branch with empty path constraint");
                false
            }
            1 => {
                ctx.note_op(OpKind::Guard, self.id, op, false);
                let (iv, out) = *feasible[0];
                self.constraint = iv;
                out
            }
            n => {
                ctx.note_op(OpKind::Guard, self.id, op, true);
                let pick = ctx.choose(n as u8) as usize;
                let (iv, out) = *feasible[pick];
                self.constraint = iv;
                out
            }
        }
    }
}

impl AddAssign<i64> for SymInt {
    /// Adds a constant.
    ///
    /// # Panics
    ///
    /// Panics on `i64` overflow of the transfer offset; use
    /// [`SymInt::add`] for the fallible form.
    fn add_assign(&mut self, k: i64) {
        self.b = self.b.checked_add(k).expect("SymInt += overflow");
    }
}

impl SubAssign<i64> for SymInt {
    /// Subtracts a constant.
    ///
    /// # Panics
    ///
    /// Panics on `i64` overflow; use [`SymInt::sub`] for the fallible form.
    fn sub_assign(&mut self, k: i64) {
        self.b = self.b.checked_sub(k).expect("SymInt -= overflow");
    }
}

impl MulAssign<i64> for SymInt {
    /// Multiplies by a constant.
    ///
    /// # Panics
    ///
    /// Panics on `i64` overflow; use [`SymInt::mul`] for the fallible form.
    fn mul_assign(&mut self, k: i64) {
        self.a = self.a.checked_mul(k).expect("SymInt *= overflow");
        self.b = self.b.checked_mul(k).expect("SymInt *= overflow");
    }
}

impl From<i64> for SymInt {
    fn from(v: i64) -> SymInt {
        SymInt::new(v)
    }
}

impl SymField for SymInt {
    fn make_symbolic(&mut self, id: FieldId) {
        // The unknown input of a width-w integer is itself width-w.
        self.constraint = self.width_range();
        self.a = 1;
        self.b = 0;
        self.id = Some(id);
    }

    fn is_concrete(&self) -> bool {
        self.a == 0
    }

    fn transfer_eq(&self, other: &dyn SymField) -> bool {
        downcast::<SymInt>(other).is_some_and(|o| self.a == o.a && self.b == o.b)
    }

    fn constraint_eq(&self, other: &dyn SymField) -> bool {
        downcast::<SymInt>(other).is_some_and(|o| self.constraint == o.constraint)
    }

    fn constraint_overlaps(&self, other: &dyn SymField) -> bool {
        downcast::<SymInt>(other)
            .is_some_and(|o| !self.constraint.intersect(&o.constraint).is_empty())
    }

    fn union_constraint(&mut self, other: &dyn SymField) -> bool {
        let Some(o) = downcast::<SymInt>(other) else {
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
        let prev = downcast::<SymInt>(prev).ok_or(Error::Uda("field type mismatch".into()))?;
        debug_assert_eq!(
            self.width, prev.width,
            "composed SymInts must share a width"
        );
        if prev.a == 0 {
            // Earlier value is the constant `prev.b`: the later path is
            // feasible iff that constant satisfies our constraint on `y`.
            if !self.constraint.contains(prev.b) {
                return Ok(false);
            }
            let b = mul_add_checked(self.a, prev.b, self.b)?;
            self.constraint = prev.constraint;
            self.a = 0;
            self.b = b;
        } else {
            // Pull our constraint on `y = p·x + q` back to a constraint on
            // `x` and intersect with the earlier path's constraint.
            let pullback = self.constraint.preimage_affine(prev.a, prev.b);
            let merged = pullback.intersect(&prev.constraint);
            if merged.is_empty() {
                return Ok(false);
            }
            let a = self
                .a
                .checked_mul(prev.a)
                .ok_or(Error::ArithmeticOverflow { op: "compose" })?;
            let b = mul_add_checked(self.a, prev.b, self.b)?;
            self.constraint = merged;
            self.a = a;
            self.b = b;
        }
        self.id = prev.id;
        Ok(true)
    }

    fn transfer(&self) -> Option<ScalarTransfer> {
        Some(ScalarTransfer::from_coeffs(self.a, self.b))
    }

    /// Equal in every part: the transfer and the constraint that
    /// `transfer_eq` and `constraint_eq` compare, and the width (which
    /// decides overflow) and the id (which `as_scalar` reports) that every
    /// path of one state shares anyway.
    fn agrees_for_update(&self, other: &dyn SymField) -> bool {
        downcast::<SymInt>(other).is_some_and(|o| self == o)
    }

    fn replay_from(&mut self, lead: &dyn SymField, _mark: usize) {
        if let Some(lead) = downcast::<SymInt>(lead) {
            *self = *lead;
        }
    }

    fn encode_field(&self, _prev: Option<&dyn SymField>, buf: &mut Vec<u8>) {
        let at = buf.len();
        buf.push(0);
        let (lb, ub) = self.constraint.encode_within(&self.width_range(), buf);
        let mut flags = (u8::from(lb) * FLAG_LB) | (u8::from(ub) * FLAG_UB);
        match self.a {
            0 => {}
            1 => flags |= FLAG_A_ONE,
            a => {
                flags |= FLAG_A;
                wire::put_ivarint(buf, a);
            }
        }
        if self.b != 0 {
            flags |= FLAG_B;
            wire::put_ivarint(buf, self.b);
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
        if flags & !FLAG_ALL != 0 || flags & (FLAG_A_ONE | FLAG_A) == FLAG_A_ONE | FLAG_A {
            return Err(WireError::InvalidTag(flags));
        }
        self.constraint = Interval::decode_within(
            &self.width_range(),
            (flags & FLAG_LB != 0, flags & FLAG_UB != 0),
            buf,
        )?;
        self.a = if flags & FLAG_A != 0 {
            wire::get_ivarint(buf)?
        } else {
            i64::from(flags & FLAG_A_ONE != 0)
        };
        self.b = if flags & FLAG_B != 0 {
            wire::get_ivarint(buf)?
        } else {
            0
        };
        self.id = Some(id);
        Ok(())
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn facts(&self) -> FieldFacts {
        FieldFacts {
            kind: "int",
            concrete: self.a == 0,
            affine: Some((self.a, self.b)),
            width: Some(self.width),
            ..FieldFacts::default()
        }
    }

    fn perturb(&mut self) -> bool {
        // Nudge the offset without leaving the declared width.
        if self.width >= 64 {
            self.b = self.b.wrapping_add(1);
        } else if self.b < self.width_range().ub {
            self.b += 1;
        } else {
            self.b -= 1;
        }
        true
    }

    fn describe(&self) -> String {
        let c = if self.constraint.is_full() {
            "x∈(-∞,+∞)".to_string()
        } else if self.constraint.lb == i64::MIN {
            format!("x≤{}", self.constraint.ub)
        } else if self.constraint.ub == i64::MAX {
            format!("x≥{}", self.constraint.lb)
        } else {
            format!("x∈[{},{}]", self.constraint.lb, self.constraint.ub)
        };
        match (self.a, self.b) {
            (0, b) => format!("{c} ⇒ {b}"),
            (1, 0) => format!("{c} ⇒ x"),
            (1, b) if b > 0 => format!("{c} ⇒ x+{b}"),
            (1, b) => format!("{c} ⇒ x{b}"),
            (a, 0) => format!("{c} ⇒ {a}x"),
            (a, b) if b > 0 => format!("{c} ⇒ {a}x+{b}"),
            (a, b) => format!("{c} ⇒ {a}x{b}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::impl_sym_state;
    use proptest::prelude::*;

    fn symbolic() -> SymInt {
        let mut s = SymInt::new(0);
        s.make_symbolic(FieldId(0));
        s
    }

    #[test]
    fn agreement_is_equality_and_replay_copies_the_lead() {
        let mut ctx = SymCtx::symbolic();
        let (mut lead, mut other) = (symbolic(), symbolic());
        assert!(lead.agrees_for_update(&other));
        other.gt(&mut ctx, 10); // narrows the constraint only
        assert!(!lead.agrees_for_update(&other), "constraints differ");
        let mut follower = lead;
        lead += 3;
        assert!(!lead.agrees_for_update(&follower), "transfers differ");
        assert!(
            !SymInt::with_width(8, 0).agrees_for_update(&SymInt::new(0)),
            "widths differ"
        );
        follower.replay_from(&lead, follower.replay_mark());
        assert_eq!(follower, lead);
    }

    #[test]
    fn concrete_comparisons_never_fork() {
        let mut ctx = SymCtx::concrete();
        let mut v = SymInt::new(5);
        assert!(v.lt(&mut ctx, 6));
        assert!(!v.lt(&mut ctx, 5));
        assert!(v.le(&mut ctx, 5));
        assert!(v.gt(&mut ctx, 4));
        assert!(v.ge(&mut ctx, 5));
        assert!(v.eq_c(&mut ctx, 5));
        assert!(v.ne_c(&mut ctx, 4));
        assert!(!ctx.has_error(), "no fork may happen on concrete values");
    }

    #[test]
    fn arithmetic_updates_transfer() {
        let mut v = symbolic();
        v += 3;
        v -= 1;
        v *= 2;
        // (x + 2) · 2 = 2x + 4.
        assert_eq!(v.coeffs(), (2, 4));
        let mut ctx = SymCtx::symbolic();
        v.rsub(&mut ctx, 10); // 10 − (2x + 4) = −2x + 6.
        assert_eq!(v.coeffs(), (-2, 6));
        assert!(!ctx.has_error());
    }

    #[test]
    fn fallible_arithmetic_latches_overflow() {
        let mut ctx = SymCtx::symbolic();
        let mut v = SymInt::new(i64::MAX);
        v.add(&mut ctx, 1);
        assert_eq!(
            ctx.take_error(),
            Some(Error::ArithmeticOverflow { op: "add" })
        );
        let mut v = symbolic();
        v.mul(&mut ctx, 2);
        v.mul(&mut ctx, i64::MAX);
        assert!(ctx.has_error());
    }

    #[test]
    fn symbolic_lt_forks_and_narrows() {
        // The paper's Figure 3 first iteration: max (= x) < 5.
        let mut ctx = SymCtx::symbolic();
        ctx.begin_run();
        let mut v = symbolic();
        let out = v.lt(&mut ctx, 5);
        assert!(out, "first exploration takes the true side");
        assert_eq!(v.constraint(), Interval::new(i64::MIN, 4));
        assert!(ctx.advance());
        ctx.begin_run();
        let mut v = symbolic();
        let out = v.lt(&mut ctx, 5);
        assert!(!out);
        assert_eq!(v.constraint(), Interval::new(5, i64::MAX));
        assert!(!ctx.advance());
    }

    #[test]
    fn forced_branch_consumes_no_choice() {
        // Figure 3, second iteration on the x ≥ 5 path: x < 3 is infeasible.
        let mut ctx = SymCtx::symbolic();
        let mut v = symbolic();
        v.constraint = Interval::new(5, i64::MAX);
        assert!(!v.lt(&mut ctx, 3));
        assert!(ctx.choice_vector().is_empty());
        assert_eq!(v.constraint(), Interval::new(5, i64::MAX));
    }

    #[test]
    fn eq_three_way_fork() {
        let mut ctx = SymCtx::symbolic();
        let mut outcomes = Vec::new();
        loop {
            ctx.begin_run();
            let mut v = symbolic();
            v.constraint = Interval::new(0, 10);
            let out = v.eq_c(&mut ctx, 5);
            outcomes.push((out, v.constraint()));
            if !ctx.advance() {
                break;
            }
        }
        assert_eq!(
            outcomes,
            vec![
                (true, Interval::point(5)),
                (false, Interval::new(0, 4)),
                (false, Interval::new(6, 10)),
            ]
        );
    }

    #[test]
    fn eq_no_integer_solution_is_deterministic() {
        let mut ctx = SymCtx::symbolic();
        let mut v = symbolic();
        v *= 2; // value = 2x
        assert!(!v.eq_c(&mut ctx, 7));
        assert!(ctx.choice_vector().is_empty());
    }

    #[test]
    fn ne_three_way_fork_covers_domain() {
        let mut ctx = SymCtx::symbolic();
        let mut seen = Vec::new();
        loop {
            ctx.begin_run();
            let mut v = symbolic();
            v.constraint = Interval::new(0, 10);
            let out = v.ne_c(&mut ctx, 0); // boundary: below side is empty
            seen.push((out, v.constraint()));
            if !ctx.advance() {
                break;
            }
        }
        assert_eq!(
            seen,
            vec![(true, Interval::new(1, 10)), (false, Interval::point(0))]
        );
    }

    #[test]
    fn compose_concrete_previous() {
        // Later path: y ≥ 5 ⇒ value = y + 1. Earlier: constant 9.
        let mut later = symbolic();
        later.constraint = Interval::new(5, i64::MAX);
        later += 1;
        let prev = SymInt::new(9);
        let prev_all = |_| prev.transfer();
        assert!(later.compose_onto(&prev, &prev_all).unwrap());
        assert_eq!(later.concrete_value(), Some(10));
        // Infeasible case: y ≥ 5 but earlier value is 3.
        let mut later = symbolic();
        later.constraint = Interval::new(5, i64::MAX);
        let prev = SymInt::new(3);
        let prev_all = |_| prev.transfer();
        assert!(!later.compose_onto(&prev, &prev_all).unwrap());
    }

    #[test]
    fn compose_symbolic_previous() {
        // Later: y ≤ 10 ⇒ value = 10 (Figure 3's merged summary).
        // Earlier: x ≤ 4 ⇒ value = 2x + 1.
        let mut later = symbolic();
        later.constraint = Interval::new(i64::MIN, 10);
        later.assign(10);
        let mut prev = symbolic();
        prev.constraint = Interval::new(i64::MIN, 4);
        prev *= 2;
        prev += 1;
        let prev_all = |_| prev.transfer();
        assert!(later.compose_onto(&prev, &prev_all).unwrap());
        // 2x + 1 ≤ 10 ⇔ x ≤ 4 (floor). The lower bound is the *exact*
        // preimage of y ≥ i64::MIN under 2x + 1, i.e. x ≥ −2⁶²: inputs
        // below it would have overflowed in the earlier chunk's own
        // arithmetic, so they are correctly excluded.
        assert_eq!(later.constraint(), Interval::new(-(1i64 << 62), 4));
        assert_eq!(later.concrete_value(), Some(10));
        assert_eq!(later.field_id(), Some(FieldId(0)));
    }

    #[test]
    fn merge_contiguous_constraints() {
        // Figure 3 third iteration: x < 5 ⇒ 10 and 5 ≤ x ≤ 10 ⇒ 10 merge
        // into x ≤ 10 ⇒ 10.
        let mut a = symbolic();
        a.constraint = Interval::new(i64::MIN, 4);
        a.assign(10);
        let mut b = symbolic();
        b.constraint = Interval::new(5, 10);
        b.assign(10);
        assert!(a.transfer_eq(&b));
        assert!(!a.constraint_eq(&b));
        assert!(!a.constraint_overlaps(&b));
        assert!(a.union_constraint(&b));
        assert_eq!(a.constraint(), Interval::new(i64::MIN, 10));
        // Gap prevents merging.
        let mut c = symbolic();
        c.constraint = Interval::new(13, 20);
        c.assign(10);
        assert!(!a.union_constraint(&c));
    }

    #[test]
    fn wire_roundtrip() {
        let mut v = symbolic();
        v.constraint = Interval::new(-3, 88);
        v *= -2;
        v += 7;
        let mut buf = Vec::new();
        v.encode_field(None, &mut buf);
        let mut back = SymInt::new(0);
        let mut rd = &buf[..];
        back.decode_field(&mut rd, FieldId(0), None).unwrap();
        assert!(rd.is_empty());
        assert_eq!(back, v);
    }

    #[test]
    fn wire_spends_no_bytes_on_untouched_parts() {
        // The unknown input of any width, unconstrained: one flag byte.
        for width in [8, 32, 64] {
            let mut v = SymInt::with_width(width, 0);
            v.make_symbolic(FieldId(0));
            let mut buf = Vec::new();
            v.encode_field(None, &mut buf);
            assert_eq!(buf, [FLAG_A_ONE], "width {width}");
        }
        // A concrete zero: the flag byte alone, too.
        let mut buf = Vec::new();
        SymInt::new(0).encode_field(None, &mut buf);
        assert_eq!(buf, [0]);
    }

    #[test]
    fn wire_rejects_unknown_and_contradictory_flags() {
        for flags in [0x20, 0x80, FLAG_A_ONE | FLAG_A] {
            let mut back = SymInt::new(0);
            assert_eq!(
                back.decode_field(&mut &[flags, 0, 0][..], FieldId(0), None),
                Err(WireError::InvalidTag(flags))
            );
        }
    }

    #[test]
    fn describe_is_readable() {
        let mut v = symbolic();
        assert_eq!(v.describe(), "x∈(-∞,+∞) ⇒ x");
        v.constraint = Interval::new(i64::MIN, 9);
        v.assign(10);
        assert_eq!(v.describe(), "x≤9 ⇒ 10");
        let mut v = symbolic();
        v.constraint = Interval::new(10, i64::MAX);
        assert_eq!(v.describe(), "x≥10 ⇒ x");
    }

    #[test]
    fn width_bounds_symbolic_input() {
        let mut v = SymInt::with_width(8, 0);
        v.make_symbolic(FieldId(0));
        assert_eq!(v.constraint(), Interval::new(-128, 127));
        assert_eq!(v.width, 8);
    }

    #[test]
    fn width_overflow_detected() {
        // Concrete: 120 + 10 leaves i8.
        let mut ctx = SymCtx::symbolic();
        let mut v = SymInt::with_width(8, 120);
        v.add(&mut ctx, 10);
        assert!(matches!(
            ctx.take_error(),
            Some(Error::ArithmeticOverflow { op: "add" })
        ));
        // Symbolic: x ∈ [-128,127], x·2 can leave i8 for some x.
        let mut v = SymInt::with_width(8, 0);
        v.make_symbolic(FieldId(0));
        v.mul(&mut ctx, 2);
        assert!(ctx.take_error().is_some());
        // But after narrowing to a safe range, the same op is fine.
        let mut v = SymInt::with_width(8, 0);
        v.make_symbolic(FieldId(0));
        assert!(v.lt(&mut ctx, 60));
        assert!(v.ge(&mut ctx, -60));
        v.mul(&mut ctx, 2);
        assert!(ctx.take_error().is_none());
    }

    #[test]
    fn width_64_keeps_full_range() {
        let mut ctx = SymCtx::symbolic();
        let mut v = SymInt::with_width(64, 0);
        v.make_symbolic(FieldId(0));
        assert_eq!(v.constraint(), Interval::FULL);
        v.add(&mut ctx, i64::MAX);
        assert!(
            ctx.take_error().is_none(),
            "64-bit width defers to i64 checks"
        );
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn width_rejects_oversized_initial() {
        let _ = SymInt::with_width(8, 1_000);
    }

    #[test]
    fn narrow_width_chunked_soundness() {
        use crate::uda::{run_chunked_symbolic, run_sequential, Uda};
        struct Sat8;
        #[derive(Clone, Debug)]
        struct S8 {
            v: SymInt,
        }
        impl_sym_state!(S8 { v });
        impl Uda for Sat8 {
            type State = S8;
            type Event = i64;
            type Output = i64;
            fn init(&self) -> S8 {
                S8 {
                    v: SymInt::with_width(8, 0),
                }
            }
            fn update(&self, s: &mut S8, ctx: &mut SymCtx, e: &i64) {
                // Saturating-ish counter that resets near the i8 edge.
                if s.v.gt(ctx, 100) {
                    s.v.assign(0);
                }
                s.v.add(ctx, e % 7);
            }
            fn result(&self, s: &S8, _ctx: &mut SymCtx) -> i64 {
                s.v.concrete_value().unwrap()
            }
        }
        let input: Vec<i64> = (0..300).collect();
        let seq = run_sequential(&Sat8, input.iter()).unwrap();
        for n in [2, 7, 31] {
            let par =
                run_chunked_symbolic(&Sat8, &input, n, &crate::EngineConfig::default()).unwrap();
            assert_eq!(par, seq, "chunks={n}");
        }
    }

    #[test]
    fn as_scalar_forms() {
        let v = SymInt::new(7);
        assert_eq!(v.as_scalar(), SymScalar::Concrete(7));
        let mut v = symbolic();
        v += 2;
        assert_eq!(
            v.as_scalar(),
            SymScalar::Affine {
                field: FieldId(0),
                a: 1,
                b: 2
            }
        );
    }

    /// One end of a constraint: left open, or narrowed to anything.
    fn end() -> impl Strategy<Value = Option<i64>> {
        prop_oneof![
            Just(None),
            any::<i64>().prop_map(Some),
            (-100i64..100).prop_map(Some)
        ]
    }

    proptest! {
        /// Every canonical form round-trips — each end open or narrowed on
        /// its own, any width, `a` in and out of {0, 1} — and a part nobody
        /// touched costs no bytes.
        #[test]
        fn wire_roundtrips_every_canonical_form(
            width in prop_oneof![Just(64u8), 8u8..64],
            lb in end(),
            ub in end(),
            a in prop_oneof![-2i64..3, any::<i64>()],
            b in prop_oneof![-1i64..2, any::<i64>()],
        ) {
            let mut v = SymInt::with_width(width, 0);
            v.make_symbolic(FieldId(4));
            let open = v.width_range();
            v.constraint = Interval::new(lb.unwrap_or(open.lb), ub.unwrap_or(open.ub));
            (v.a, v.b) = (a, b);
            let mut buf = Vec::new();
            v.encode_field(None, &mut buf);
            let mut back = SymInt::with_width(width, 0);
            let mut rd = &buf[..];
            back.decode_field(&mut rd, FieldId(4), None).unwrap();
            prop_assert!(rd.is_empty());
            prop_assert_eq!(back, v);
            let varints = [
                v.constraint.lb != open.lb,
                v.constraint.ub != open.ub,
                !(0..=1).contains(&a),
                b != 0,
            ];
            let floor = 1 + varints.iter().filter(|p| **p).count();
            prop_assert!(buf.len() >= floor);
            prop_assert!(buf.len() <= 1 + 10 * (floor - 1));
        }
    }
}
