//! Diagnostic-space coverage: which of the stable `SY001`–`SY008` codes
//! a UDA's lint report exercises, as a compact bitmask.
//!
//! The fuzzer uses this as one axis of its coverage map: a generated
//! program that lights up a lint code no earlier program reached (say,
//! the first overflow-prone accumulator, or the first unmergeable-path
//! shape) is *novel* and worth keeping in the mutation corpus even if its
//! engine metrics look ordinary. Eight codes fit in a `u8`, so the set
//! is one byte of the fuzzer's coverage key.

use crate::{lint_analysis, Diagnostic, CODES};
use symple_core::UdaAnalysis;

/// Bit index of a stable diagnostic code (`SY001` → 0 … `SY008` → 7),
/// or `None` for an unknown code.
fn code_bit(code: &str) -> Option<u8> {
    CODES.iter().position(|c| c.code == code).map(|i| i as u8)
}

/// A set of exercised diagnostic codes, one bit per [`CODES`] entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DiagCoverage(u8);

impl DiagCoverage {
    /// The empty set.
    pub const EMPTY: DiagCoverage = DiagCoverage(0);

    /// Rebuilds a set from a raw bitmask (inverse of [`bits`]).
    ///
    /// [`bits`]: DiagCoverage::bits
    pub fn from_bits(bits: u8) -> DiagCoverage {
        DiagCoverage(bits)
    }

    /// Coverage of one diagnostic list.
    pub fn from_diagnostics(diags: &[Diagnostic]) -> DiagCoverage {
        let mut mask = 0u8;
        for d in diags {
            if let Some(bit) = code_bit(d.code) {
                mask |= 1 << bit;
            }
        }
        DiagCoverage(mask)
    }

    /// The raw bitmask (bit *i* ⇔ `CODES[i]` exercised).
    pub fn bits(self) -> u8 {
        self.0
    }

    /// Set union.
    pub fn union(self, other: DiagCoverage) -> DiagCoverage {
        DiagCoverage(self.0 | other.0)
    }

    /// The exercised codes, in code order.
    pub fn codes(self) -> Vec<&'static str> {
        CODES
            .iter()
            .enumerate()
            .filter(|(i, _)| self.0 & (1 << i) != 0)
            .map(|(_, c)| c.code)
            .collect()
    }
}

/// Lints an analysis and reports which diagnostic codes it exercises —
/// the analyzer half of the fuzzer's coverage signature.
pub fn diag_signature(a: &UdaAnalysis) -> DiagCoverage {
    DiagCoverage::from_diagnostics(&lint_analysis(a))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Severity;

    fn diag(code: &'static str) -> Diagnostic {
        Diagnostic {
            code,
            severity: Severity::Info,
            field: None,
            message: String::new(),
        }
    }

    #[test]
    fn bits_match_code_table_order() {
        for (i, c) in CODES.iter().enumerate() {
            assert_eq!(code_bit(c.code), Some(i as u8));
        }
        assert_eq!(code_bit("SY999"), None);
    }

    #[test]
    fn union_and_codes() {
        let a = DiagCoverage::from_diagnostics(&[diag("SY001"), diag("SY004")]);
        let b = DiagCoverage::from_diagnostics(&[diag("SY004"), diag("SY008")]);
        assert_eq!(a.codes(), vec!["SY001", "SY004"]);
        assert_eq!(a.union(b).codes(), vec!["SY001", "SY004", "SY008"]);
        assert_eq!(DiagCoverage::from_bits(a.bits()), a);
        assert!(DiagCoverage::EMPTY.codes().is_empty());
    }

    #[test]
    fn signature_of_a_straight_line_uda_hits_sy008() {
        // G1 only counts pushes: no branches → SY008 (straight-line)
        // fires, proving the analyzer pipeline reaches the bitmask.
        let g1 = symple_queries::registry::runner_by_id("G1").unwrap();
        let sig = diag_signature(&g1.analyze());
        assert!(sig.codes().contains(&"SY008"), "{:?}", sig.codes());
    }
}
