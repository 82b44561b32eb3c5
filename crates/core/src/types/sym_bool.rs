//! Symbolic booleans (§4.2 of the paper): a [`SymEnum`] over
//! `{false, true}` with boolean-flavored operators.

use crate::ctx::SymCtx;
use crate::error::Result;
use crate::state::{downcast, FieldFacts, FieldId, SymField, Transfers};
use crate::types::scalar::ScalarTransfer;
use crate::types::sym_enum::SymEnum;
use crate::wire::WireError;

/// A symbolic boolean.
///
/// "`SymBool` is an instance of `SymEnum` over the bounded set
/// `{true, false}` with the appropriate operator overloading" (§4.2).
/// Reading the value (`get`) is a *branch*: if the boolean is still the
/// unknown initial value, both outcomes are explored.
///
/// # Examples
///
/// ```
/// use symple_core::{SymBool, SymCtx};
///
/// let mut found = SymBool::new(false);
/// let mut ctx = SymCtx::concrete();
/// assert!(!found.get(&mut ctx));
/// found.assign(true);
/// assert!(found.get(&mut ctx));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SymBool {
    inner: SymEnum,
}

impl SymBool {
    /// Creates a concrete boolean.
    pub fn new(v: bool) -> SymBool {
        SymBool {
            inner: SymEnum::new(2, u32::from(v)),
        }
    }

    /// Assigns a concrete value, binding the variable.
    pub fn assign(&mut self, v: bool) {
        // Domain 2 assignment cannot fail; use a throwaway concrete ctx.
        let mut ctx = SymCtx::concrete();
        self.inner.assign(&mut ctx, u32::from(v));
        debug_assert!(!ctx.has_error());
    }

    /// Reads the value, forking when it is still symbolic.
    pub fn get(&mut self, ctx: &mut SymCtx) -> bool {
        self.inner.eq_c(ctx, 1)
    }

    /// The concrete value, if bound.
    pub fn concrete_value(&self) -> Option<bool> {
        self.inner.concrete_value().map(|v| v == 1)
    }
}

impl From<bool> for SymBool {
    fn from(v: bool) -> SymBool {
        SymBool::new(v)
    }
}

impl SymField for SymBool {
    fn make_symbolic(&mut self, id: FieldId) {
        self.inner.make_symbolic(id);
    }
    fn is_concrete(&self) -> bool {
        self.inner.is_concrete()
    }
    fn transfer_eq(&self, other: &dyn SymField) -> bool {
        downcast::<SymBool>(other).is_some_and(|o| self.inner.transfer_eq(&o.inner))
    }
    fn constraint_eq(&self, other: &dyn SymField) -> bool {
        downcast::<SymBool>(other).is_some_and(|o| self.inner.constraint_eq(&o.inner))
    }
    fn constraint_overlaps(&self, other: &dyn SymField) -> bool {
        downcast::<SymBool>(other).is_some_and(|o| self.inner.constraint_overlaps(&o.inner))
    }
    fn union_constraint(&mut self, other: &dyn SymField) -> bool {
        match downcast::<SymBool>(other) {
            Some(o) => self.inner.union_constraint(&o.inner),
            None => false,
        }
    }
    fn compose_onto(&mut self, prev: &dyn SymField, transfers: &Transfers<'_>) -> Result<bool> {
        let prev = downcast::<SymBool>(prev)
            .ok_or_else(|| crate::error::Error::Uda("field type mismatch".into()))?;
        self.inner.compose_onto(&prev.inner, transfers)
    }
    fn transfer(&self) -> Option<ScalarTransfer> {
        self.inner.transfer()
    }
    fn agrees_for_update(&self, other: &dyn SymField) -> bool {
        downcast::<SymBool>(other).is_some_and(|o| self.inner.agrees_for_update(&o.inner))
    }
    fn replay_from(&mut self, lead: &dyn SymField, mark: usize) {
        if let Some(lead) = downcast::<SymBool>(lead) {
            self.inner.replay_from(&lead.inner, mark);
        }
    }
    fn encode_field(&self, _prev: Option<&dyn SymField>, buf: &mut Vec<u8>) {
        self.inner.encode_field(None, buf);
    }
    fn decode_field(
        &mut self,
        buf: &mut &[u8],
        id: FieldId,
        _prev: Option<&dyn SymField>,
    ) -> Result<(), WireError> {
        self.inner.decode_field(buf, id, None)
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn facts(&self) -> FieldFacts {
        FieldFacts {
            kind: "bool",
            concrete: self.inner.is_concrete(),
            ..FieldFacts::default()
        }
    }
    fn perturb(&mut self) -> bool {
        match self.concrete_value() {
            Some(v) => {
                self.assign(!v);
                true
            }
            None => false,
        }
    }
    fn describe(&self) -> String {
        self.inner.describe()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn agreement_is_equality_and_replay_copies_the_lead() {
        let mut lead = SymBool::new(false);
        lead.make_symbolic(FieldId(0));
        let mut follower = lead;
        assert!(lead.agrees_for_update(&follower));
        lead.assign(true);
        assert!(!lead.agrees_for_update(&follower));
        follower.replay_from(&lead, 0);
        assert_eq!(follower, lead);
    }

    #[test]
    fn concrete_get_never_forks() {
        let mut ctx = SymCtx::concrete();
        let mut b = SymBool::new(true);
        assert!(b.get(&mut ctx));
        b.assign(false);
        assert!(!b.get(&mut ctx));
        assert!(!ctx.has_error());
    }

    #[test]
    fn symbolic_get_explores_both() {
        let mut ctx = SymCtx::symbolic();
        let mut outcomes = Vec::new();
        loop {
            ctx.begin_run();
            let mut b = SymBool::new(false);
            b.make_symbolic(FieldId(0));
            outcomes.push(b.get(&mut ctx));
            if !ctx.advance() {
                break;
            }
        }
        assert_eq!(outcomes, vec![true, false]);
    }

    #[test]
    fn merge_true_false_paths() {
        // Two paths with the same transfer whose constraints x=true and
        // x=false union back to "any": the SymBool fork always heals.
        let mut ctx = SymCtx::symbolic();
        let mut a = SymBool::new(false);
        a.make_symbolic(FieldId(0));
        let mut b = a;
        ctx.begin_run();
        assert!(a.get(&mut ctx));
        a.assign(true);
        ctx.advance();
        ctx.begin_run();
        assert!(!b.get(&mut ctx));
        b.assign(true);
        assert!(a.transfer_eq(&b));
        assert!(a.union_constraint(&b));
        assert_eq!(a.inner.constraint_set(), 0b11);
    }

    #[test]
    fn wire_roundtrip() {
        let mut b = SymBool::new(true);
        b.make_symbolic(FieldId(2));
        let mut buf = Vec::new();
        b.encode_field(None, &mut buf);
        let mut back = SymBool::new(false);
        let mut rd = &buf[..];
        back.decode_field(&mut rd, FieldId(2), None).unwrap();
        assert_eq!(back, b);
    }

    #[test]
    fn transfer_reflects_binding() {
        let mut b = SymBool::new(false);
        b.make_symbolic(FieldId(0));
        assert_eq!(b.transfer(), Some(ScalarTransfer::IDENTITY));
        b.assign(true);
        assert_eq!(b.transfer(), Some(ScalarTransfer::Const(1)));
        assert_eq!(b.concrete_value(), Some(true));
    }
}
