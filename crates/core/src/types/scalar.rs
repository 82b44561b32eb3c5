//! Scalar transfer functions and symbolic scalar values.
//!
//! Every scalar symbolic field maps its initial unknown `x` to its current
//! value through an affine transfer `a·x + b` (possibly constant). These
//! small helpers centralize the checked affine algebra used by `SymInt`,
//! vector elements, and summary composition.

use crate::error::{Error, Result};
use crate::state::FieldId;
use crate::wire::{self, WireError};

/// The transfer function of a scalar field: current value as a function of
/// the field's own initial symbolic value `x`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScalarTransfer {
    /// The value is concrete: it no longer depends on `x`.
    Const(i64),
    /// The value is `a·x + b` with `a ≠ 0`.
    Affine {
        /// Coefficient of `x` (non-zero).
        a: i64,
        /// Constant offset.
        b: i64,
    },
}

impl ScalarTransfer {
    /// The identity transfer `x`.
    pub const IDENTITY: ScalarTransfer = ScalarTransfer::Affine { a: 1, b: 0 };

    /// Normalizes `(a, b)` coefficients into a transfer.
    pub fn from_coeffs(a: i64, b: i64) -> ScalarTransfer {
        if a == 0 {
            ScalarTransfer::Const(b)
        } else {
            ScalarTransfer::Affine { a, b }
        }
    }

    /// The `(a, b)` coefficient view (`Const(c)` is `(0, c)`).
    pub fn coeffs(self) -> (i64, i64) {
        match self {
            ScalarTransfer::Const(c) => (0, c),
            ScalarTransfer::Affine { a, b } => (a, b),
        }
    }

    /// Composes `self ∘ prev`: feeds `prev`'s output into `self`.
    ///
    /// With `self = a·y + b` and `prev = p·x + q`, the composition is
    /// `a·p·x + (a·q + b)`.
    pub fn compose(self, prev: ScalarTransfer) -> Result<ScalarTransfer> {
        let (a, b) = self.coeffs();
        let (p, q) = prev.coeffs();
        let na = a
            .checked_mul(p)
            .ok_or(Error::ArithmeticOverflow { op: "compose" })?;
        let nb = mul_add_checked(a, q, b)?;
        Ok(ScalarTransfer::from_coeffs(na, nb))
    }
}

/// Checked `a·x + b`.
pub fn mul_add_checked(a: i64, x: i64, b: i64) -> Result<i64> {
    a.checked_mul(x)
        .and_then(|ax| ax.checked_add(b))
        .ok_or(Error::ArithmeticOverflow { op: "mul_add" })
}

/// A possibly-symbolic scalar value, used for vector elements and UDA
/// outputs: either a concrete `i64` or an affine function of the initial
/// value of one state field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SymScalar {
    /// A known value.
    Concrete(i64),
    /// `a·x_f + b`, where `x_f` is the initial symbolic value of field `f`.
    Affine {
        /// The state field whose initial value this depends on.
        field: FieldId,
        /// Coefficient (non-zero).
        a: i64,
        /// Offset.
        b: i64,
    },
}

impl SymScalar {
    /// Builds a scalar from a field id and its transfer.
    fn from_transfer(field: FieldId, t: ScalarTransfer) -> SymScalar {
        match t {
            ScalarTransfer::Const(c) => SymScalar::Concrete(c),
            ScalarTransfer::Affine { a, b } => SymScalar::Affine { field, a, b },
        }
    }

    /// Rewrites this scalar (a function of the *later* chunk's initial
    /// state `y`) in terms of the *earlier* chunk's initial state `x`,
    /// given the earlier path's transfer for the referenced field.
    pub fn substitute(self, prev_transfer: ScalarTransfer) -> Result<SymScalar> {
        match self {
            SymScalar::Concrete(_) => Ok(self),
            SymScalar::Affine { field, a, b } => {
                let composed = ScalarTransfer::Affine { a, b }.compose(prev_transfer)?;
                Ok(SymScalar::from_transfer(field, composed))
            }
        }
    }
}

impl SymScalar {
    /// Wire v2: an affine scalar as `field`, `a`, `b` varints. Symbolic
    /// vector elements are always affine, so a run of them carries no
    /// per-element tag.
    pub(crate) fn encode_affine(field: FieldId, a: i64, b: i64, buf: &mut Vec<u8>) {
        wire::put_uvarint(buf, u64::from(field.0));
        wire::put_ivarint(buf, a);
        wire::put_ivarint(buf, b);
    }

    /// Inverse of [`SymScalar::encode_affine`].
    pub(crate) fn decode_affine(buf: &mut &[u8]) -> Result<SymScalar, WireError> {
        let field = wire::get_uvarint(buf)?;
        let field = u16::try_from(field).map_err(|_| WireError::LengthOverflow(field))?;
        let a = wire::get_ivarint(buf)?;
        let b = wire::get_ivarint(buf)?;
        Ok(SymScalar::Affine {
            field: FieldId(field),
            a,
            b,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The transfer at a concrete input: what composition must preserve.
    fn eval(t: ScalarTransfer, x: i64) -> Result<i64> {
        let (a, b) = t.coeffs();
        mul_add_checked(a, x, b)
    }

    #[test]
    fn coeffs_roundtrip() {
        assert_eq!(ScalarTransfer::from_coeffs(0, 7), ScalarTransfer::Const(7));
        assert_eq!(
            ScalarTransfer::from_coeffs(2, 7),
            ScalarTransfer::Affine { a: 2, b: 7 }
        );
        assert_eq!(ScalarTransfer::Const(7).coeffs(), (0, 7));
    }

    #[test]
    fn eval_and_compose() {
        let f = ScalarTransfer::Affine { a: 2, b: 1 }; // 2y + 1
        let g = ScalarTransfer::Affine { a: 3, b: -4 }; // 3x - 4
                                                        // f ∘ g = 2(3x − 4) + 1 = 6x − 7.
        let fg = f.compose(g).unwrap();
        assert_eq!(fg, ScalarTransfer::Affine { a: 6, b: -7 });
        for x in -5..5 {
            assert_eq!(eval(fg, x).unwrap(), eval(f, eval(g, x).unwrap()).unwrap());
        }
        // Composing onto a constant collapses to a constant.
        let fc = f.compose(ScalarTransfer::Const(10)).unwrap();
        assert_eq!(fc, ScalarTransfer::Const(21));
    }

    #[test]
    fn compose_overflow_detected() {
        let f = ScalarTransfer::Affine { a: i64::MAX, b: 0 };
        assert!(f.compose(ScalarTransfer::Affine { a: 2, b: 0 }).is_err());
        assert!(eval(f, 2).is_err());
    }

    #[test]
    fn identity_laws() {
        let f = ScalarTransfer::Affine { a: 5, b: 3 };
        assert_eq!(f.compose(ScalarTransfer::IDENTITY).unwrap(), f);
        assert_eq!(ScalarTransfer::IDENTITY.compose(f).unwrap(), f);
    }

    #[test]
    fn scalar_substitute() {
        let s = SymScalar::Affine {
            field: FieldId(0),
            a: 2,
            b: 1,
        };
        // Previous chunk left the field as 3x + 4.
        let sub = s.substitute(ScalarTransfer::Affine { a: 3, b: 4 }).unwrap();
        assert_eq!(
            sub,
            SymScalar::Affine {
                field: FieldId(0),
                a: 6,
                b: 9
            }
        );
        // Previous chunk bound the field to 10 — scalar concretizes.
        let sub = s.substitute(ScalarTransfer::Const(10)).unwrap();
        assert_eq!(sub, SymScalar::Concrete(21));
        // Concrete scalars are unaffected.
        let c = SymScalar::Concrete(9);
        assert_eq!(c.substitute(ScalarTransfer::Const(0)).unwrap(), c);
    }

    #[test]
    fn affine_wire_roundtrip() {
        let mut buf = Vec::new();
        SymScalar::encode_affine(FieldId(3), -2, 100, &mut buf);
        let mut rd = &buf[..];
        assert_eq!(
            SymScalar::decode_affine(&mut rd).unwrap(),
            SymScalar::Affine {
                field: FieldId(3),
                a: -2,
                b: 100,
            }
        );
        assert!(rd.is_empty());
    }

    #[test]
    fn affine_wire_rejects_a_field_id_past_u16() {
        let mut buf = Vec::new();
        wire::put_uvarint(&mut buf, 0x1_0000);
        buf.extend([2, 2]);
        assert_eq!(
            SymScalar::decode_affine(&mut &buf[..]),
            Err(WireError::LengthOverflow(0x1_0000))
        );
    }
}
