//! Symbolic enumerations (§4.1 of the paper).
//!
//! A `SymEnum` models a C++ `enum class` over a bounded domain `0..n`
//! (n ≤ 64). Its canonical form is
//!
//! ```text
//! x ∈ S  ⇒  v = (bound ? c : x)
//! ```
//!
//! a bit-set `S` constraining the initial symbolic value plus an optional
//! bound constant. Equality tests against constants split `S` in constant
//! time; path merging is just set union, which is *always* canonical — the
//! reason `SymEnum` (and [`crate::SymBool`]) can never cause path explosion
//! across records.

use crate::bitset::BitSet256;
use crate::ctx::{OpKind, SymCtx};
use crate::error::{Error, Result};
use crate::state::{downcast, FieldFacts, FieldId, SymField, Transfers};
use crate::types::scalar::ScalarTransfer;
use crate::wire::{self, WireError};

/// Maximum number of values in a `SymEnum` domain (bit-set width).
pub const MAX_ENUM_DOMAIN: u32 = 256;

/// Wire v2 flag byte of a [`SymEnum`]: the constraint set follows (else
/// it is the full domain); the value is bound, and the six high bits hold
/// the bound constant when it is below [`BOUND_ESCAPE`] — otherwise they
/// hold `BOUND_ESCAPE` and the constant follows the set as a varint.
/// Unbound, the high bits must be zero.
const FLAG_SET: u8 = 1;
const FLAG_BOUND: u8 = 1 << 1;
const BOUND_SHIFT: u32 = 2;
const BOUND_ESCAPE: u32 = 63;

/// A symbolic enumeration over the domain `0..domain`.
///
/// Supports equality/inequality tests against constants and assignment of
/// constants. Two `SymEnum`s cannot be compared — the restriction that
/// keeps the canonical form closed (§4.1).
///
/// # Examples
///
/// ```
/// use symple_core::{SymCtx, SymEnum};
///
/// let mut op = SymEnum::new(4, 0);
/// let mut ctx = SymCtx::concrete();
/// op.assign(&mut ctx, 2);
/// assert!(op.eq_c(&mut ctx, 2));
/// assert_eq!(op.concrete_value(), Some(2));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SymEnum {
    domain: u32,
    set: BitSet256,
    bound: Option<u32>,
    id: Option<FieldId>,
}

impl SymEnum {
    /// Creates a concrete enum over `0..domain` holding `initial`.
    ///
    /// # Panics
    ///
    /// Panics if `domain` is 0, exceeds [`MAX_ENUM_DOMAIN`], or `initial`
    /// is outside the domain — construction-time bugs, not data errors.
    pub fn new(domain: u32, initial: u32) -> SymEnum {
        assert!(
            domain > 0 && domain <= MAX_ENUM_DOMAIN,
            "enum domain must be in 1..=256"
        );
        assert!(
            initial < domain,
            "initial value {initial} outside domain 0..{domain}"
        );
        SymEnum {
            domain,
            set: BitSet256::full(domain),
            bound: Some(initial),
            id: None,
        }
    }

    /// The low 64 values of the constraint set `S`, as a mask
    /// (convenience for the common small domains).
    pub fn constraint_set(&self) -> u64 {
        self.set.low_mask64()
    }

    /// The field id, set once the value has been made symbolic.
    pub fn field_id(&self) -> Option<FieldId> {
        self.id
    }

    /// The concrete value, if bound.
    pub fn concrete_value(&self) -> Option<u32> {
        self.bound
    }

    /// Assigns a constant, binding the variable (§4.1: "the value of a
    /// SymEnum is bound on an assignment to a constant").
    pub fn assign(&mut self, ctx: &mut SymCtx, c: u32) {
        if c >= self.domain {
            ctx.fail(Error::EnumOutOfDomain {
                value: i64::from(c),
                domain: self.domain,
            });
            return;
        }
        self.bound = Some(c);
    }

    /// `value == c`, forking when the unbound value could go either way.
    ///
    /// Comparing against a constant outside the domain is simply `false`.
    pub fn eq_c(&mut self, ctx: &mut SymCtx, c: u32) -> bool {
        if let Some(v) = self.bound {
            return v == c;
        }
        if c >= self.domain {
            return false;
        }
        let bit = BitSet256::singleton(c);
        let then_set = self.set.intersect(&bit);
        let else_set = self.set.difference(&bit);
        match (then_set.is_empty(), else_set.is_empty()) {
            (false, true) => {
                ctx.note_op(OpKind::Guard, self.id, "eq", false);
                true
            }
            (true, false) => {
                ctx.note_op(OpKind::Guard, self.id, "eq", false);
                false
            }
            (false, false) => {
                ctx.note_op(OpKind::Guard, self.id, "eq", true);
                if ctx.choose(2) == 0 {
                    self.set = then_set;
                    true
                } else {
                    self.set = else_set;
                    false
                }
            }
            (true, true) => {
                debug_assert!(false, "SymEnum branch with empty path constraint");
                false
            }
        }
    }

    /// `value != c`; the complement of [`SymEnum::eq_c`].
    pub fn ne_c(&mut self, ctx: &mut SymCtx, c: u32) -> bool {
        !self.eq_c(ctx, c)
    }

    /// Applies a total transition function `f: state → state` in one step
    /// — the data-parallel-FSM move (§7's related work, done symbolically).
    ///
    /// A bound value transitions directly. An unbound value partitions its
    /// constraint set by `f`'s image: one fork per *distinct target*, each
    /// branch binding to its target with the pre-image as constraint. This
    /// both replaces a chain of `eq_c`/`assign` branches and caps the fork
    /// count at the number of reachable targets.
    ///
    /// Returns the (now bound) value on the explored path.
    pub fn map_transition(&mut self, ctx: &mut SymCtx, f: impl Fn(u32) -> u32) -> u32 {
        if let Some(v) = self.bound {
            let t = f(v);
            debug_assert!(t < self.domain, "transition target {t} outside domain");
            self.bound = Some(t);
            return t;
        }
        // Partition the feasible set by target, preserving target order of
        // first appearance for deterministic exploration.
        let mut targets: Vec<(u32, BitSet256)> = Vec::new();
        for v in self.set.iter() {
            let t = f(v);
            debug_assert!(t < self.domain, "transition target {t} outside domain");
            match targets.iter_mut().find(|(tt, _)| *tt == t) {
                Some((_, pre)) => pre.insert(v),
                None => targets.push((t, BitSet256::singleton(v))),
            }
        }
        debug_assert!(
            !targets.is_empty(),
            "SymEnum transition with empty constraint"
        );
        ctx.note_op(OpKind::Guard, self.id, "map_transition", targets.len() > 1);
        let pick = if targets.len() == 1 {
            0
        } else {
            // The choice vector is mixed-radix; arity = distinct targets.
            ctx.choose(targets.len().min(u8::MAX as usize) as u8) as usize
        };
        let (t, pre) = targets[pick];
        self.set = pre;
        self.bound = Some(t);
        t
    }

    /// Tests membership of the value in an arbitrary subset of the domain,
    /// given as a bit mask over the low 64 values.
    ///
    /// A common pattern in state machines: `if op.in_mask(ctx, PUSH | MERGE)`.
    pub fn in_mask(&mut self, ctx: &mut SymCtx, mask: u64) -> bool {
        self.in_set(ctx, &BitSet256::from_mask64(mask))
    }

    /// Tests membership of the value in an arbitrary subset of the domain.
    fn in_set(&mut self, ctx: &mut SymCtx, members: &BitSet256) -> bool {
        if let Some(v) = self.bound {
            return members.contains(v);
        }
        let members = members.intersect(&BitSet256::full(self.domain));
        let then_set = self.set.intersect(&members);
        let else_set = self.set.difference(&members);
        match (then_set.is_empty(), else_set.is_empty()) {
            (false, true) => {
                ctx.note_op(OpKind::Guard, self.id, "in_set", false);
                true
            }
            (true, false) => {
                ctx.note_op(OpKind::Guard, self.id, "in_set", false);
                false
            }
            (false, false) => {
                ctx.note_op(OpKind::Guard, self.id, "in_set", true);
                if ctx.choose(2) == 0 {
                    self.set = then_set;
                    true
                } else {
                    self.set = else_set;
                    false
                }
            }
            (true, true) => {
                debug_assert!(false, "SymEnum branch with empty path constraint");
                false
            }
        }
    }
}

impl SymField for SymEnum {
    fn make_symbolic(&mut self, id: FieldId) {
        self.set = BitSet256::full(self.domain);
        self.bound = None;
        self.id = Some(id);
    }

    fn is_concrete(&self) -> bool {
        self.bound.is_some()
    }

    fn transfer_eq(&self, other: &dyn SymField) -> bool {
        downcast::<SymEnum>(other).is_some_and(|o| self.bound == o.bound)
    }

    fn constraint_eq(&self, other: &dyn SymField) -> bool {
        downcast::<SymEnum>(other).is_some_and(|o| self.set == o.set)
    }

    fn constraint_overlaps(&self, other: &dyn SymField) -> bool {
        downcast::<SymEnum>(other).is_some_and(|o| !self.set.intersect(&o.set).is_empty())
    }

    fn union_constraint(&mut self, other: &dyn SymField) -> bool {
        // Set union is always canonical (§4.1 "Merging Path Constraints").
        let Some(o) = downcast::<SymEnum>(other) else {
            return false;
        };
        self.set = self.set.union(&o.set);
        true
    }

    fn compose_onto(&mut self, prev: &dyn SymField, _transfers: &Transfers<'_>) -> Result<bool> {
        let prev =
            downcast::<SymEnum>(prev).ok_or_else(|| Error::Uda("field type mismatch".into()))?;
        debug_assert_eq!(
            self.domain, prev.domain,
            "composed enums must share a domain"
        );
        match prev.bound {
            Some(cp) => {
                // Earlier value is the constant `cp`.
                if !self.set.contains(cp) {
                    return Ok(false);
                }
                self.set = prev.set;
                self.bound = Some(self.bound.unwrap_or(cp));
            }
            None => {
                // Earlier value is the earlier chunk's own `x`.
                let merged = self.set.intersect(&prev.set);
                if merged.is_empty() {
                    return Ok(false);
                }
                self.set = merged;
            }
        }
        self.id = prev.id;
        Ok(true)
    }

    fn transfer(&self) -> Option<ScalarTransfer> {
        Some(match self.bound {
            Some(c) => ScalarTransfer::Const(i64::from(c)),
            None => ScalarTransfer::IDENTITY,
        })
    }

    /// Equal in every part: the bound value and the constraint set that
    /// `transfer_eq` and `constraint_eq` compare, and the domain (which
    /// decides `assign`'s range check) and the id, shared by every path of
    /// one state anyway.
    fn agrees_for_update(&self, other: &dyn SymField) -> bool {
        downcast::<SymEnum>(other).is_some_and(|o| self == o)
    }

    fn replay_from(&mut self, lead: &dyn SymField, _mark: usize) {
        if let Some(lead) = downcast::<SymEnum>(lead) {
            *self = *lead;
        }
    }

    fn encode_field(&self, _prev: Option<&dyn SymField>, buf: &mut Vec<u8>) {
        let at = buf.len();
        buf.push(0);
        let mut flags = 0;
        if self.set != BitSet256::full(self.domain) {
            flags |= FLAG_SET;
            self.set.encode_for_domain(self.domain, buf);
        }
        if let Some(c) = self.bound {
            flags |= FLAG_BOUND;
            if c < BOUND_ESCAPE {
                flags |= (c as u8) << BOUND_SHIFT;
            } else {
                flags |= (BOUND_ESCAPE as u8) << BOUND_SHIFT;
                wire::put_uvarint(buf, u64::from(c));
            }
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
        let inline = u32::from(flags >> BOUND_SHIFT);
        if flags & FLAG_BOUND == 0 && inline != 0 {
            return Err(WireError::InvalidTag(flags));
        }
        let set = if flags & FLAG_SET != 0 {
            BitSet256::decode_for_domain(self.domain, buf)?
        } else {
            BitSet256::full(self.domain)
        };
        let bound = if flags & FLAG_BOUND == 0 {
            None
        } else {
            let c = if inline < BOUND_ESCAPE {
                u64::from(inline)
            } else {
                wire::get_uvarint(buf)?
            };
            if c >= u64::from(self.domain) {
                return Err(WireError::OutOfDomain {
                    value: c,
                    domain: u64::from(self.domain),
                });
            }
            Some(c as u32)
        };
        self.set = set;
        self.bound = bound;
        self.id = Some(id);
        Ok(())
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn facts(&self) -> FieldFacts {
        FieldFacts {
            kind: "enum",
            concrete: self.bound.is_some(),
            ..FieldFacts::default()
        }
    }

    fn perturb(&mut self) -> bool {
        match self.bound {
            Some(v) if self.domain > 1 => {
                self.bound = Some((v + 1) % self.domain);
                true
            }
            _ => false,
        }
    }

    fn describe(&self) -> String {
        let members: Vec<String> = self.set.iter().map(|v| v.to_string()).collect();
        let c = if self.set == BitSet256::full(self.domain) {
            "x∈*".to_string()
        } else {
            format!("x∈{{{}}}", members.join(","))
        };
        match self.bound {
            Some(v) => format!("{c} ⇒ {v}"),
            None => format!("{c} ⇒ x"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn agreement_is_equality_and_replay_copies_the_lead() {
        let mut ctx = SymCtx::symbolic();
        let mut lead = SymEnum::new(4, 0);
        lead.make_symbolic(FieldId(0));
        let (mut follower, mut other) = (lead, lead);
        assert!(lead.agrees_for_update(&other));
        other.eq_c(&mut ctx, 2); // narrows the set only
        assert!(!lead.agrees_for_update(&other), "sets differ");
        lead.assign(&mut ctx, 3);
        assert!(!lead.agrees_for_update(&follower), "bound values differ");
        assert!(
            !SymEnum::new(4, 1).agrees_for_update(&SymEnum::new(5, 1)),
            "domains differ"
        );
        follower.replay_from(&lead, 0);
        assert_eq!(follower, lead);
    }

    fn symbolic(domain: u32) -> SymEnum {
        let mut e = SymEnum::new(domain, 0);
        e.make_symbolic(FieldId(0));
        e
    }

    #[test]
    fn bound_enum_is_as_fast_as_concrete() {
        // §4.1: "Once bound, SymEnums are as fast as a C++ enum but for the
        // bound check" — operationally: no forks, no constraint changes.
        let mut ctx = SymCtx::concrete();
        let mut e = SymEnum::new(4, 3);
        assert!(e.eq_c(&mut ctx, 3));
        assert!(e.ne_c(&mut ctx, 1));
        assert!(!ctx.has_error());
    }

    #[test]
    fn unbound_eq_forks_and_splits_set() {
        let mut ctx = SymCtx::symbolic();
        ctx.begin_run();
        let mut e = symbolic(4);
        assert!(e.eq_c(&mut ctx, 2));
        assert_eq!(e.constraint_set(), 0b0100);
        assert!(ctx.advance());
        ctx.begin_run();
        let mut e = symbolic(4);
        assert!(!e.eq_c(&mut ctx, 2));
        assert_eq!(e.constraint_set(), 0b1011);
        assert!(!ctx.advance());
    }

    #[test]
    fn forced_outcomes_consume_no_choice() {
        let mut ctx = SymCtx::symbolic();
        let mut e = symbolic(4);
        e.set = BitSet256::from_mask64(0b0100);
        assert!(e.eq_c(&mut ctx, 2));
        assert!(!e.eq_c(&mut ctx, 1));
        assert!(ctx.choice_vector().is_empty());
    }

    #[test]
    fn out_of_domain_compare_is_false() {
        let mut ctx = SymCtx::symbolic();
        let mut e = symbolic(4);
        assert!(!e.eq_c(&mut ctx, 7));
        assert!(ctx.choice_vector().is_empty());
    }

    #[test]
    fn out_of_domain_assign_errors() {
        let mut ctx = SymCtx::concrete();
        let mut e = SymEnum::new(4, 0);
        e.assign(&mut ctx, 9);
        assert_eq!(
            ctx.take_error(),
            Some(Error::EnumOutOfDomain {
                value: 9,
                domain: 4
            })
        );
    }

    #[test]
    fn in_mask_splits() {
        let mut ctx = SymCtx::symbolic();
        ctx.begin_run();
        let mut e = symbolic(6);
        assert!(e.in_mask(&mut ctx, 0b000110));
        assert_eq!(e.constraint_set(), 0b000110);
        assert!(ctx.advance());
        ctx.begin_run();
        let mut e = symbolic(6);
        assert!(!e.in_mask(&mut ctx, 0b000110));
        assert_eq!(e.constraint_set(), 0b111001);
    }

    #[test]
    fn assignment_binds() {
        let mut ctx = SymCtx::symbolic();
        let mut e = symbolic(4);
        assert!(e.eq_c(&mut ctx, 1)); // narrows to {1}
        e.assign(&mut ctx, 3);
        assert_eq!(e.concrete_value(), Some(3));
        assert_eq!(e.constraint_set(), 0b0010, "constraint survives binding");
        assert!(e.is_concrete());
    }

    #[test]
    fn union_always_merges() {
        let mut a = symbolic(8);
        a.set = BitSet256::from_mask64(0b0000_0011);
        let mut b = symbolic(8);
        b.set = BitSet256::from_mask64(0b1100_0000);
        assert!(!a.constraint_overlaps(&b));
        assert!(a.union_constraint(&b));
        assert_eq!(a.constraint_set(), 0b1100_0011);
    }

    #[test]
    fn compose_with_bound_previous() {
        let mut later = symbolic(4);
        later.set = BitSet256::from_mask64(0b0110); // y ∈ {1, 2}
        later.bound = Some(3); // ⇒ v = 3
        let mut ctx = SymCtx::concrete();
        let mut prev = SymEnum::new(4, 0);
        prev.assign(&mut ctx, 2);
        let prev_all = |_| prev.transfer();
        assert!(later.compose_onto(&prev, &prev_all).unwrap());
        assert_eq!(later.concrete_value(), Some(3));
        // Infeasible: earlier constant not in later's set.
        let mut later = symbolic(4);
        later.set = BitSet256::from_mask64(0b0110);
        let mut prev = SymEnum::new(4, 0);
        prev.assign(&mut ctx, 3);
        let prev_all = |_| prev.transfer();
        assert!(!later.compose_onto(&prev, &prev_all).unwrap());
    }

    #[test]
    fn compose_with_unbound_previous_intersects() {
        let mut later = symbolic(4);
        later.set = BitSet256::from_mask64(0b0110);
        let mut prev = symbolic(4);
        prev.set = BitSet256::from_mask64(0b1100);
        let prev_all = |_| prev.transfer();
        assert!(later.compose_onto(&prev, &prev_all).unwrap());
        assert_eq!(later.constraint_set(), 0b0100);
        assert_eq!(
            later.concrete_value(),
            None,
            "identity ∘ identity = identity"
        );
        // Unbound later value becomes the earlier constant after binding.
        let mut later = symbolic(4);
        let mut ctx = SymCtx::concrete();
        let mut prev = SymEnum::new(4, 0);
        prev.assign(&mut ctx, 1);
        let prev_all = |_| prev.transfer();
        assert!(later.compose_onto(&prev, &prev_all).unwrap());
        assert_eq!(later.concrete_value(), Some(1));
    }

    #[test]
    fn wire_roundtrip() {
        let mut e = symbolic(7);
        e.set = BitSet256::from_mask64(0b101_0011);
        e.bound = Some(5);
        let mut buf = Vec::new();
        e.encode_field(None, &mut buf);
        let mut back = SymEnum::new(7, 0);
        let mut rd = &buf[..];
        back.decode_field(&mut rd, FieldId(0), None).unwrap();
        assert!(rd.is_empty());
        assert_eq!(back, e);
    }

    #[test]
    fn wire_inlines_small_bounds_and_escapes_large_ones() {
        for (domain, bound, len) in [(2, 1, 1), (64, 62, 1), (64, 63, 2), (256, 255, 3)] {
            let e = SymEnum::new(domain, bound);
            let mut buf = Vec::new();
            e.encode_field(None, &mut buf);
            assert_eq!(buf.len(), len, "domain {domain} bound {bound}: {buf:?}");
            let mut back = SymEnum::new(domain, 0);
            let mut rd = &buf[..];
            back.decode_field(&mut rd, FieldId(0), None).unwrap();
            assert!(rd.is_empty());
            assert_eq!(back.concrete_value(), Some(bound));
        }
        // The unknown input over the whole domain: the flag byte alone.
        let mut buf = Vec::new();
        symbolic(200).encode_field(None, &mut buf);
        assert_eq!(buf, [0]);
    }

    #[test]
    fn wire_rejects_bad_payloads() {
        let e = SymEnum::new(4, 0);
        let decode = |bytes: &[u8]| {
            let mut back = e;
            back.decode_field(&mut &bytes[..], FieldId(0), None)
        };
        // Out-of-domain bound, inline and escaped: the error carries the
        // whole value, not its low byte.
        assert_eq!(
            decode(&[FLAG_BOUND | 9 << BOUND_SHIFT]),
            Err(WireError::OutOfDomain {
                value: 9,
                domain: 4
            })
        );
        let mut buf = vec![FLAG_BOUND | (BOUND_ESCAPE as u8) << BOUND_SHIFT];
        wire::put_uvarint(&mut buf, 0x1_0003);
        assert_eq!(
            decode(&buf),
            Err(WireError::OutOfDomain {
                value: 0x1_0003,
                domain: 4
            })
        );
        // Set with bits outside the domain.
        assert_eq!(
            decode(&[FLAG_SET, 0b1_0000]),
            Err(WireError::OutOfDomain {
                value: 4,
                domain: 4
            })
        );
        // Bound bits without the bound flag.
        assert_eq!(decode(&[0b100]), Err(WireError::InvalidTag(0b100)));
    }

    #[test]
    fn describe_is_readable() {
        let mut e = symbolic(4);
        assert_eq!(e.describe(), "x∈* ⇒ x");
        e.set = BitSet256::from_mask64(0b0101);
        e.bound = Some(2);
        assert_eq!(e.describe(), "x∈{0,2} ⇒ 2");
    }

    #[test]
    fn large_domain_fsm_through_engine() {
        use crate::compose::apply_chain;
        use crate::engine::{EngineConfig, SymbolicExecutor};
        use crate::impl_sym_state;
        use crate::uda::Uda;

        // A 200-state ring counter: advance on each event, reset on zero.
        const N: u32 = 200;
        struct Ring;
        #[derive(Clone, Debug)]
        struct RState {
            s: SymEnum,
        }
        impl_sym_state!(RState { s });
        impl Uda for Ring {
            type State = RState;
            type Event = u32;
            type Output = u32;
            fn init(&self) -> RState {
                RState {
                    s: SymEnum::new(N, 0),
                }
            }
            fn update(&self, st: &mut RState, ctx: &mut SymCtx, e: &u32) {
                if *e == 0 {
                    st.s.assign(ctx, 0);
                } else {
                    // Advance: the transition target depends only on the
                    // event, so a single in_set keeps this one-fork.
                    let next = (*e) % N;
                    st.s.assign(ctx, next);
                }
            }
            fn result(&self, st: &RState, _ctx: &mut SymCtx) -> u32 {
                st.s.concrete_value().unwrap()
            }
        }
        let events: Vec<u32> = (0..50u32).map(|i| (i * 97 + 3) % 250).collect();
        let mut exec = SymbolicExecutor::new(&Ring, EngineConfig::default());
        exec.feed_all(events.iter()).unwrap();
        let (chain, _) = exec.finish();
        // Apply to every possible initial state: the first event binds, so
        // the outcome is initial-independent here — but decode/compose must
        // handle the 4-word constraint sets.
        for init_val in [0u32, 63, 64, 128, 199] {
            let mut init = Ring.init();
            let mut ctx = SymCtx::concrete();
            init.s.assign(&mut ctx, init_val);
            let fin = apply_chain(&chain, &init).unwrap();
            assert_eq!(fin.s.concrete_value(), Some(events[49] % N));
        }
        // Wire round-trip of a >64-state constraint.
        let mut e = SymEnum::new(N, 0);
        e.make_symbolic(FieldId(0));
        let mut ctx = SymCtx::symbolic();
        // First exploration takes the equality side: constraint = {150}.
        assert!(!e.ne_c(&mut ctx, 150));
        let mut buf = Vec::new();
        e.encode_field(None, &mut buf);
        let mut back = SymEnum::new(N, 0);
        back.decode_field(&mut &buf[..], FieldId(0), None).unwrap();
        assert_eq!(back, e);
        assert_eq!(back.set.len(), 1);
    }

    #[test]
    fn in_set_large_domain() {
        let mut ctx = SymCtx::symbolic();
        let mut e = SymEnum::new(200, 0);
        e.make_symbolic(FieldId(0));
        let mut members = BitSet256::EMPTY;
        members.insert(10);
        members.insert(150);
        ctx.begin_run();
        assert!(e.in_set(&mut ctx, &members));
        assert_eq!(e.set.len(), 2);
        ctx.advance();
        ctx.begin_run();
        let mut e = SymEnum::new(200, 0);
        e.make_symbolic(FieldId(0));
        assert!(!e.in_set(&mut ctx, &members));
        assert_eq!(e.set.len(), 198);
    }

    #[test]
    fn map_transition_bound_is_direct() {
        let mut ctx = SymCtx::concrete();
        let mut e = SymEnum::new(6, 2);
        let t = e.map_transition(&mut ctx, |v| (v + 1).min(5));
        assert_eq!(t, 3);
        assert_eq!(e.concrete_value(), Some(3));
        assert!(!ctx.has_error());
    }

    #[test]
    fn map_transition_partitions_unbound() {
        // Saturating increment over domain 6: targets {1..5}; value 4 and 5
        // share target 5 → 5 distinct targets, preimage of 5 is {4, 5}.
        let mut ctx = SymCtx::symbolic();
        let mut seen = Vec::new();
        loop {
            ctx.begin_run();
            let mut e = symbolic(6);
            let t = e.map_transition(&mut ctx, |v| (v + 1).min(5));
            seen.push((t, e.set.iter().collect::<Vec<_>>()));
            if !ctx.advance() {
                break;
            }
        }
        assert_eq!(
            seen,
            vec![
                (1, vec![0]),
                (2, vec![1]),
                (3, vec![2]),
                (4, vec![3]),
                (5, vec![4, 5]),
            ]
        );
    }

    #[test]
    fn map_transition_constant_function_never_forks() {
        let mut ctx = SymCtx::symbolic();
        let mut e = symbolic(16);
        let t = e.map_transition(&mut ctx, |_| 7);
        assert_eq!(t, 7);
        assert!(ctx.choice_vector().is_empty());
        assert_eq!(e.concrete_value(), Some(7));
    }

    #[test]
    fn map_transition_oracle() {
        use crate::compose::apply_chain;
        use crate::engine::{EngineConfig, SymbolicExecutor};
        use crate::impl_sym_state;
        use crate::uda::Uda;

        // A saturating counter FSM driven by map_transition; oracle-check
        // against concrete execution from every initial state.
        const N: u32 = 9;
        struct Fsm;
        #[derive(Clone, Debug)]
        struct FState {
            s: SymEnum,
        }
        impl_sym_state!(FState { s });
        impl Uda for Fsm {
            type State = FState;
            type Event = bool;
            type Output = u32;
            fn init(&self) -> FState {
                FState {
                    s: SymEnum::new(N, 0),
                }
            }
            fn update(&self, st: &mut FState, ctx: &mut SymCtx, up: &bool) {
                if *up {
                    st.s.map_transition(ctx, |v| (v + 1).min(N - 1));
                } else {
                    st.s.map_transition(ctx, |v| v.saturating_sub(1));
                }
            }
            fn result(&self, st: &FState, _ctx: &mut SymCtx) -> u32 {
                st.s.concrete_value().unwrap()
            }
        }
        let events = [true, true, false, true, true, true, false, false, true];
        let cfg = EngineConfig {
            max_total_paths: 64,
            ..EngineConfig::default()
        };
        let mut exec = SymbolicExecutor::new(&Fsm, cfg);
        exec.feed_all(events.iter()).unwrap();
        let (chain, _) = exec.finish();
        for x in 0..N {
            let mut init = Fsm.init();
            let mut ctx = SymCtx::concrete();
            init.s.assign(&mut ctx, x);
            let mut truth = init.clone();
            for e in &events {
                Fsm.update(&mut truth, &mut ctx, e);
            }
            let predicted = apply_chain(&chain, &init).unwrap();
            assert_eq!(
                predicted.s.concrete_value(),
                truth.s.concrete_value(),
                "x={x}"
            );
        }
    }

    #[test]
    fn domain_64_masks() {
        let e = symbolic(64);
        assert_eq!(e.constraint_set(), u64::MAX);
    }

    proptest! {
        #[test]
        fn wire_roundtrips_every_canonical_form(
            domain in 1u32..=256,
            words in (
                any::<u64>(),
                any::<u64>(),
                any::<u64>(),
                any::<u64>()
            ),
            full in any::<bool>(),
            bound in prop_oneof![
                Just(None),
                any::<u32>().prop_map(Some)
            ],
        ) {
            let mut e = symbolic(domain);
            if !full {
                let mut set = BitSet256::EMPTY;
                for v in 0..domain {
                    let word = [words.0, words.1, words.2, words.3][(v / 64) as usize];
                    if word >> (v % 64) & 1 != 0 {
                        set.insert(v);
                    }
                }
                e.set = set;
            }
            e.bound = bound.map(|c| c % domain);
            let mut buf = Vec::new();
            e.encode_field(None, &mut buf);
            let mut back = SymEnum::new(domain, 0);
            let mut rd = &buf[..];
            back.decode_field(&mut rd, FieldId(0), None).unwrap();
            prop_assert!(rd.is_empty());
            prop_assert_eq!(back, e);
        }
    }
}
