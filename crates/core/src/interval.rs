//! Closed integer intervals with exact division — the canonical constraint
//! form of [`crate::SymInt`] (§3.4 of the paper).
//!
//! An interval `[lb, ub]` over `i64` represents the path constraint
//! `lb ≤ x ≤ ub` on a symbolic integer `x`. `i64::MIN` / `i64::MAX` act as
//! −∞ / +∞. All bound arithmetic is carried out in `i128` so constraint
//! manipulation itself can never overflow.

use crate::wire::{self, WireError};

/// A closed (possibly empty) interval of `i64` values.
///
/// The canonical constraint form for symbolic integers: `lb ≤ x ≤ ub`.
/// Supports the three operations the SYMPLE decision procedure needs —
/// splitting at a comparison bound, intersection (composition), and union
/// (path merging, only when the union is itself an interval).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Interval {
    /// Inclusive lower bound.
    pub lb: i64,
    /// Inclusive upper bound.
    pub ub: i64,
}

impl Interval {
    /// The full interval: no constraint on `x`.
    pub const FULL: Interval = Interval {
        lb: i64::MIN,
        ub: i64::MAX,
    };

    /// Creates `[lb, ub]`; an inverted pair yields an empty interval.
    pub fn new(lb: i64, ub: i64) -> Interval {
        Interval { lb, ub }
    }

    /// The singleton interval `[v, v]`.
    pub fn point(v: i64) -> Interval {
        Interval { lb: v, ub: v }
    }

    /// A canonical empty interval.
    pub fn empty() -> Interval {
        Interval { lb: 1, ub: 0 }
    }

    /// Whether no value satisfies the constraint.
    pub fn is_empty(&self) -> bool {
        self.lb > self.ub
    }

    /// Whether every `i64` satisfies the constraint.
    pub fn is_full(&self) -> bool {
        self.lb == i64::MIN && self.ub == i64::MAX
    }

    /// Whether `v` satisfies the constraint.
    pub fn contains(&self, v: i64) -> bool {
        self.lb <= v && v <= self.ub
    }

    /// Intersection of two constraints (used by summary composition).
    pub fn intersect(&self, other: &Interval) -> Interval {
        Interval {
            lb: self.lb.max(other.lb),
            ub: self.ub.min(other.ub),
        }
    }

    /// Union of two constraints, if the union is itself an interval.
    ///
    /// Two intervals can be merged when they overlap or are adjacent
    /// (`[0,4]` and `[5,9]` merge to `[0,9]`). Returns `None` when a gap
    /// would make the union non-canonical.
    pub fn union_if_contiguous(&self, other: &Interval) -> Option<Interval> {
        if self.is_empty() {
            return Some(*other);
        }
        if other.is_empty() {
            return Some(*self);
        }
        // Adjacency check in i128 to survive `ub == i64::MAX`.
        let (a, b) = if self.lb <= other.lb {
            (self, other)
        } else {
            (other, self)
        };
        if (b.lb as i128) <= (a.ub as i128) + 1 {
            Some(Interval {
                lb: a.lb,
                ub: a.ub.max(b.ub),
            })
        } else {
            None
        }
    }

    /// Splits at a comparison with an affine value: returns the
    /// sub-intervals of `self` on which `a·x + b < c` holds and does not
    /// hold, respectively.
    ///
    /// Requires `a != 0` (a zero coefficient means the value is concrete and
    /// no split is needed). Either side may come back empty, in which case
    /// the branch outcome is forced.
    pub fn split_lt(&self, a: i64, b: i64, c: i64) -> (Interval, Interval) {
        debug_assert!(a != 0);
        let a128 = a as i128;
        let rhs = c as i128 - b as i128;
        if a > 0 {
            // a·x < rhs  ⇔  x ≤ ceil(rhs / a) − 1 = floor((rhs − 1) / a).
            let nb = div_floor_i128(rhs - 1, a128);
            (self.clamp_above(nb), self.clamp_below(nb + 1))
        } else {
            // a·x < rhs  ⇔  x > rhs / a  ⇔  x ≥ floor(rhs / a) + 1.
            let nb = div_floor_i128(rhs, a128) + 1;
            (self.clamp_below(nb), self.clamp_above(nb - 1))
        }
    }

    /// Splits at `a·x + b ≤ c`: returns the (then, else) sub-intervals.
    pub fn split_le(&self, a: i64, b: i64, c: i64) -> (Interval, Interval) {
        // a·x + b ≤ c  ⇔  a·x + b < c + 1; avoid overflow by shifting rhs.
        debug_assert!(a != 0);
        let a128 = a as i128;
        let rhs = c as i128 - b as i128;
        if a > 0 {
            let nb = div_floor_i128(rhs, a128);
            (self.clamp_above(nb), self.clamp_below(nb + 1))
        } else {
            let nb = div_ceil_i128(rhs, a128);
            (self.clamp_below(nb), self.clamp_above(nb - 1))
        }
    }

    /// Solves `a·x + b == c` within the interval: the singleton solution
    /// interval (possibly empty) and the two residual sides.
    ///
    /// Returns `(eq, below, above)` where `below`/`above` are the parts of
    /// `self` strictly left/right of the solution point. When there is no
    /// integer solution, `eq` is empty and `below` is the whole interval
    /// (with `above` empty), so the caller sees a forced "not equal".
    pub fn split_eq(&self, a: i64, b: i64, c: i64) -> (Interval, Interval, Interval) {
        debug_assert!(a != 0);
        let num = c as i128 - b as i128;
        let den = a as i128;
        if num % den != 0 {
            return (Interval::empty(), *self, Interval::empty());
        }
        let x0 = num / den;
        if x0 < self.lb as i128 || x0 > self.ub as i128 {
            return (Interval::empty(), *self, Interval::empty());
        }
        let x0 = x0 as i64;
        let below = if x0 == i64::MIN {
            Interval::empty()
        } else {
            self.intersect(&Interval::new(i64::MIN, x0 - 1))
        };
        let above = if x0 == i64::MAX {
            Interval::empty()
        } else {
            self.intersect(&Interval::new(x0 + 1, i64::MAX))
        };
        (Interval::point(x0), below, above)
    }

    /// Pre-image of `self` under `y = a·x + b`: the interval of `x` such
    /// that `a·x + b ∈ self`. Used when composing summaries (§3.6).
    ///
    /// Requires `a != 0`.
    pub fn preimage_affine(&self, a: i64, b: i64) -> Interval {
        debug_assert!(a != 0);
        if self.is_empty() {
            return Interval::empty();
        }
        let a128 = a as i128;
        let lo = self.lb as i128 - b as i128;
        let hi = self.ub as i128 - b as i128;
        let (xl, xh) = if a > 0 {
            (div_ceil_i128(lo, a128), div_floor_i128(hi, a128))
        } else {
            (div_ceil_i128(hi, a128), div_floor_i128(lo, a128))
        };
        clamp_pair(xl, xh)
    }

    fn clamp_above(&self, nb: i128) -> Interval {
        // Constrain to x ≤ nb.
        if nb >= self.ub as i128 {
            *self
        } else if nb < self.lb as i128 {
            Interval::empty()
        } else {
            Interval {
                lb: self.lb,
                ub: nb as i64,
            }
        }
    }

    fn clamp_below(&self, nb: i128) -> Interval {
        // Constrain to x ≥ nb.
        if nb <= self.lb as i128 {
            *self
        } else if nb > self.ub as i128 {
            Interval::empty()
        } else {
            Interval {
                lb: nb as i64,
                ub: self.ub,
            }
        }
    }

    /// Wire v2: writes the ends of `self` that differ from `open`'s (the
    /// field's unconstrained range) and reports which were written as
    /// `(lb, ub)` for the caller's flag byte. An end nobody narrowed costs
    /// no bytes.
    pub(crate) fn encode_within(&self, open: &Interval, buf: &mut Vec<u8>) -> (bool, bool) {
        let written = (self.lb != open.lb, self.ub != open.ub);
        if written.0 {
            wire::put_ivarint(buf, self.lb);
        }
        if written.1 {
            wire::put_ivarint(buf, self.ub);
        }
        written
    }

    /// Inverse of [`Interval::encode_within`]: an end the flags mark absent
    /// is `open`'s.
    pub(crate) fn decode_within(
        open: &Interval,
        (has_lb, has_ub): (bool, bool),
        buf: &mut &[u8],
    ) -> Result<Interval, WireError> {
        let lb = if has_lb {
            wire::get_ivarint(buf)?
        } else {
            open.lb
        };
        let ub = if has_ub {
            wire::get_ivarint(buf)?
        } else {
            open.ub
        };
        Ok(Interval::new(lb, ub))
    }
}

/// Converts `i128` bounds back to a (possibly clamped) `i64` interval.
fn clamp_pair(lo: i128, hi: i128) -> Interval {
    if lo > hi {
        return Interval::empty();
    }
    let lo = lo.clamp(i64::MIN as i128, i64::MAX as i128) as i64;
    let hi = hi.clamp(i64::MIN as i128, i64::MAX as i128) as i64;
    Interval::new(lo, hi)
}

/// Floor division on `i128` (Rust `/` truncates toward zero).
fn div_floor_i128(n: i128, d: i128) -> i128 {
    let q = n / d;
    if (n % d != 0) && ((n < 0) != (d < 0)) {
        q - 1
    } else {
        q
    }
}

/// Ceiling division on `i128`.
fn div_ceil_i128(n: i128, d: i128) -> i128 {
    let q = n / d;
    if (n % d != 0) && ((n < 0) == (d < 0)) {
        q + 1
    } else {
        q
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_full() {
        assert!(Interval::empty().is_empty());
        assert!(!Interval::FULL.is_empty());
        assert!(Interval::FULL.is_full());
        assert!(Interval::FULL.contains(i64::MIN));
        assert!(Interval::FULL.contains(i64::MAX));
    }

    #[test]
    fn intersect_basic() {
        let a = Interval::new(0, 10);
        let b = Interval::new(5, 20);
        assert_eq!(a.intersect(&b), Interval::new(5, 10));
        let c = Interval::new(11, 20);
        assert!(a.intersect(&c).is_empty());
    }

    #[test]
    fn union_contiguous() {
        let a = Interval::new(0, 4);
        let b = Interval::new(5, 9);
        assert_eq!(a.union_if_contiguous(&b), Some(Interval::new(0, 9)));
        assert_eq!(b.union_if_contiguous(&a), Some(Interval::new(0, 9)));
        let c = Interval::new(7, 12);
        assert_eq!(a.union_if_contiguous(&c), None);
        // Containment merges too.
        let d = Interval::new(1, 3);
        assert_eq!(a.union_if_contiguous(&d), Some(a));
        // Empty is the identity.
        assert_eq!(a.union_if_contiguous(&Interval::empty()), Some(a));
    }

    #[test]
    fn union_at_extremes() {
        let a = Interval::new(0, i64::MAX);
        let b = Interval::new(i64::MIN, -1);
        assert_eq!(a.union_if_contiguous(&b), Some(Interval::FULL));
    }

    #[test]
    fn split_lt_identity_transfer() {
        // x < 5 over the full range: then = (-inf, 4], else = [5, +inf).
        let (t, e) = Interval::FULL.split_lt(1, 0, 5);
        assert_eq!(t, Interval::new(i64::MIN, 4));
        assert_eq!(e, Interval::new(5, i64::MAX));
    }

    #[test]
    fn split_lt_affine_positive() {
        // 2x + 1 < 8  ⇔  x ≤ 3.
        let (t, e) = Interval::new(0, 10).split_lt(2, 1, 8);
        assert_eq!(t, Interval::new(0, 3));
        assert_eq!(e, Interval::new(4, 10));
    }

    #[test]
    fn split_lt_affine_negative() {
        // -3x + 2 < 5  ⇔  -3x < 3  ⇔  x > -1  ⇔  x ≥ 0.
        let (t, e) = Interval::new(-10, 10).split_lt(-3, 2, 5);
        assert_eq!(t, Interval::new(0, 10));
        assert_eq!(e, Interval::new(-10, -1));
    }

    #[test]
    fn split_le_boundaries() {
        // x ≤ 5.
        let (t, e) = Interval::new(0, 10).split_le(1, 0, 5);
        assert_eq!(t, Interval::new(0, 5));
        assert_eq!(e, Interval::new(6, 10));
        // -x ≤ -4  ⇔  x ≥ 4.
        let (t, e) = Interval::new(0, 10).split_le(-1, 0, -4);
        assert_eq!(t, Interval::new(4, 10));
        assert_eq!(e, Interval::new(0, 3));
    }

    #[test]
    fn split_eq_cases() {
        // 2x + 1 == 7  ⇔  x == 3.
        let (eq, below, above) = Interval::new(0, 10).split_eq(2, 1, 7);
        assert_eq!(eq, Interval::point(3));
        assert_eq!(below, Interval::new(0, 2));
        assert_eq!(above, Interval::new(4, 10));
        // 2x == 7 has no integer solution.
        let (eq, below, above) = Interval::new(0, 10).split_eq(2, 0, 7);
        assert!(eq.is_empty());
        assert_eq!(below, Interval::new(0, 10));
        assert!(above.is_empty());
        // Solution outside interval.
        let (eq, ..) = Interval::new(0, 10).split_eq(1, 0, 42);
        assert!(eq.is_empty());
    }

    #[test]
    fn split_eq_at_interval_edge() {
        let (eq, below, above) = Interval::new(3, 10).split_eq(1, 0, 3);
        assert_eq!(eq, Interval::point(3));
        assert!(below.is_empty());
        assert_eq!(above, Interval::new(4, 10));
    }

    #[test]
    fn preimage_affine_roundtrip() {
        // y ∈ [10, 20], y = 3x + 1  ⇒  x ∈ [3, 6].
        let pre = Interval::new(10, 20).preimage_affine(3, 1);
        assert_eq!(pre, Interval::new(3, 6));
        for x in pre.lb..=pre.ub {
            assert!(Interval::new(10, 20).contains(3 * x + 1));
        }
        // Negative slope: y ∈ [0, 10], y = -2x  ⇒  x ∈ [-5, 0].
        let pre = Interval::new(0, 10).preimage_affine(-2, 0);
        assert_eq!(pre, Interval::new(-5, 0));
    }

    #[test]
    fn preimage_of_empty_is_empty() {
        assert!(Interval::empty().preimage_affine(2, 0).is_empty());
    }

    #[test]
    fn preimage_no_overflow_at_extremes() {
        // The math runs in i128, so extreme bounds must not panic.
        let pre = Interval::FULL.preimage_affine(2, -1);
        assert!(!pre.is_empty());
        let pre = Interval::new(i64::MIN, 0).preimage_affine(-1, 0);
        assert_eq!(pre, Interval::new(0, i64::MAX));
    }

    #[test]
    fn div_floor_ceil() {
        assert_eq!(div_floor_i128(7, 2), 3);
        assert_eq!(div_floor_i128(-7, 2), -4);
        assert_eq!(div_floor_i128(7, -2), -4);
        assert_eq!(div_ceil_i128(7, 2), 4);
        assert_eq!(div_ceil_i128(-7, 2), -3);
        assert_eq!(div_ceil_i128(7, -2), -3);
        assert_eq!(div_floor_i128(6, 3), 2);
        assert_eq!(div_ceil_i128(6, 3), 2);
    }

    #[test]
    fn split_lt_exhaustive_small() {
        // Brute-force check of the decision procedure on a small domain.
        let dom = Interval::new(-8, 8);
        for a in [-3i64, -1, 1, 2, 5] {
            for b in -4i64..=4 {
                for c in -20i64..=20 {
                    let (t, e) = dom.split_lt(a, b, c);
                    for x in dom.lb..=dom.ub {
                        let holds = a * x + b < c;
                        assert_eq!(t.contains(x), holds, "a={a} b={b} c={c} x={x}");
                        assert_eq!(e.contains(x), !holds, "a={a} b={b} c={c} x={x}");
                    }
                }
            }
        }
    }
}
