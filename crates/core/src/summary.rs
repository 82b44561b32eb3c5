//! Symbolic summaries (§3.2 of the paper).
//!
//! A [`Summary`] is the output of symbolically executing a UDA over one
//! chunk: a set of *paths*, each a full clone of the aggregation state whose
//! fields carry their canonical path constraints and transfer functions.
//! Together the paths form
//!
//! ```text
//! ⋀ᵢ PCᵢ(x) ⇒ s = TFᵢ(x)
//! ```
//!
//! A **valid** summary is exhaustive (`⋁ᵢ PCᵢ = true`) and pairwise
//! disjoint (`PCᵢ ∧ PCⱼ = false` for `i ≠ j`).
//!
//! A [`SummaryChain`] is what a mapper actually emits: usually a single
//! summary, but when the engine's total-path bound triggers a restart
//! (§5.2), several summaries that must be applied in order.

use crate::error::{Error, Result};
use crate::state::{FieldId, SymState};
use crate::wire::{self, WireError};

/// A symbolic summary: the disjoint, exhaustive set of explored paths.
#[derive(Debug, Clone)]
pub struct Summary<S: SymState> {
    paths: Vec<S>,
}

/// Serializes one summary's paths (wire v2; §2.3: compact network
/// transfers): the path count, then every path's fields in template order.
/// The decoder knows the field count from its template, and each field sees
/// the same field of the previous path so repeated content is written once
/// (see [`crate::state::SymField::encode_field`]).
///
/// Every summary is written by this function, whether it sits in a
/// [`Summary`] or still in the executor that explored it.
pub(crate) fn encode_paths<S: SymState>(paths: &[S], buf: &mut Vec<u8>) {
    wire::put_uvarint(buf, paths.len() as u64);
    let mut prev: Option<&S> = None;
    for p in paths {
        for i in 0..p.field_count() {
            p.field_ref_at(i)
                .encode_field(prev.map(|prev| prev.field_ref_at(i)), buf);
        }
        prev = Some(p);
    }
}

/// [`Summary::paths_pairwise_disjoint`] over paths not (yet) wrapped in a
/// summary.
pub(crate) fn paths_pairwise_disjoint<S: SymState>(paths: &[S]) -> bool {
    for i in 0..paths.len() {
        for j in (i + 1)..paths.len() {
            let fi = paths[i].fields_ref();
            let fj = paths[j].fields_ref();
            let all_overlap = fi.iter().zip(&fj).all(|(a, b)| a.constraint_overlaps(*b));
            if all_overlap {
                return false;
            }
        }
    }
    true
}

impl<S: SymState> Summary<S> {
    /// Wraps a set of explored paths as a summary.
    pub fn new(paths: Vec<S>) -> Summary<S> {
        Summary { paths }
    }

    /// A summary holding a single (e.g. concrete) path.
    pub fn singleton(path: S) -> Summary<S> {
        Summary { paths: vec![path] }
    }

    /// The paths.
    pub fn paths(&self) -> &[S] {
        &self.paths
    }

    /// Number of paths.
    pub fn len(&self) -> usize {
        self.paths.len()
    }

    /// Whether the summary has no paths (invalid — summaries must be
    /// exhaustive).
    pub fn is_empty(&self) -> bool {
        self.paths.is_empty()
    }

    /// Checks pairwise disjointness of the path constraints, as far as the
    /// canonical forms can decide it.
    ///
    /// Two paths provably overlap when **every** field's constraints
    /// intersect; black-box predicate decisions are assumed compatible
    /// unless the same argument was decided both ways. Used as a validity
    /// diagnostic in tests.
    pub fn paths_pairwise_disjoint(&self) -> bool {
        paths_pairwise_disjoint(&self.paths)
    }

    /// Serializes the summary: [`encode_paths`] over its paths.
    fn encode(&self, buf: &mut Vec<u8>) {
        encode_paths(&self.paths, buf);
    }

    /// Deserializes a summary.
    ///
    /// `template` must be a state with the same shape as the encoder's —
    /// typically `uda.init()` — so that non-serializable parts (predicate
    /// closures, enum domains) are reconstructed in place.
    pub fn decode(template: &S, buf: &mut &[u8]) -> Result<Summary<S>, WireError> {
        let n_paths = wire::get_len(buf)?;
        let mut paths: Vec<S> = Vec::with_capacity(n_paths.min(1024));
        for _ in 0..n_paths {
            let mut s = template.clone();
            for i in 0..s.field_count() {
                let prev = paths.last().map(|prev| prev.field_ref_at(i));
                s.field_mut_at(i)
                    .decode_field(buf, FieldId(i as u16), prev)?;
            }
            paths.push(s);
        }
        Ok(Summary { paths })
    }

    /// Canonical wire encoding as an owned buffer.
    ///
    /// The wire form is deterministic — field order and varint widths are
    /// fixed — so two summaries are semantically interchangeable for a
    /// re-executed map attempt iff their bytes match. The differential
    /// oracle leans on this to check attempt determinism.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode(&mut buf);
        buf
    }

    /// Multi-line rendering of the summary's canonical forms, used by the
    /// paper-figure demos (e.g. Figure 3).
    pub fn describe(&self) -> String {
        let mut out = String::new();
        for (i, p) in self.paths.iter().enumerate() {
            let fields: Vec<String> = p.fields_ref().iter().map(|f| f.describe()).collect();
            out.push_str(&format!("path {i}: {}\n", fields.join(" | ")));
        }
        out
    }
}

/// The full output of one mapper's symbolic execution: one or more
/// summaries that must be applied in order (§5.2's restart fallback).
#[derive(Debug, Clone)]
pub struct SummaryChain<S: SymState> {
    summaries: Vec<Summary<S>>,
}

impl<S: SymState> SummaryChain<S> {
    /// Wraps an ordered list of summaries.
    pub fn new(summaries: Vec<Summary<S>>) -> SummaryChain<S> {
        SummaryChain { summaries }
    }

    /// A chain holding a single summary.
    pub fn single(summary: Summary<S>) -> SummaryChain<S> {
        SummaryChain {
            summaries: vec![summary],
        }
    }

    /// The summaries, in application order.
    pub fn summaries(&self) -> &[Summary<S>] {
        &self.summaries
    }

    /// Number of summaries in the chain (1 unless the engine restarted).
    pub fn len(&self) -> usize {
        self.summaries.len()
    }

    /// Whether the chain is empty.
    pub fn is_empty(&self) -> bool {
        self.summaries.is_empty()
    }

    /// Total number of paths across the chain.
    pub fn total_paths(&self) -> usize {
        self.summaries.iter().map(Summary::len).sum()
    }

    /// Serializes the chain: the summary count, then each summary.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        wire::put_uvarint(buf, self.summaries.len() as u64);
        for s in &self.summaries {
            s.encode(buf);
        }
    }

    /// Appends the bytes of `SummaryChain::single(Summary::singleton(path))`
    /// without building either: what a concretely executed chunk ships.
    pub fn encode_singleton(path: &S, buf: &mut Vec<u8>) {
        wire::put_uvarint(buf, 1);
        encode_paths(std::slice::from_ref(path), buf);
    }

    /// Deserializes a chain; see [`Summary::decode`] for `template`.
    pub fn decode(template: &S, buf: &mut &[u8]) -> Result<SummaryChain<S>, WireError> {
        let n = wire::get_len(buf)?;
        let mut summaries = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            summaries.push(Summary::decode(template, buf)?);
        }
        Ok(SummaryChain { summaries })
    }

    /// Encoded size in bytes (shuffle accounting).
    pub fn wire_len(&self) -> usize {
        self.to_bytes().len()
    }

    /// Canonical wire encoding as an owned buffer (see [`Summary::to_bytes`]).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode(&mut buf);
        buf
    }

    /// Whether two chains have identical canonical wire bytes.
    pub fn byte_eq(&self, other: &SummaryChain<S>) -> bool {
        self.to_bytes() == other.to_bytes()
    }
}

impl<S: SymState> From<Summary<S>> for SummaryChain<S> {
    fn from(s: Summary<S>) -> Self {
        SummaryChain::single(s)
    }
}

/// Validity check used by tests: every path of `summary` must be pairwise
/// disjoint, and the summary must not be empty.
pub fn check_validity<S: SymState>(summary: &Summary<S>) -> Result<()> {
    if summary.is_empty() {
        return Err(Error::IncompleteSummary);
    }
    if !summary.paths_pairwise_disjoint() {
        return Err(Error::OverlappingSummary);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::impl_sym_state;
    use crate::interval::Interval;
    use crate::state::make_state_symbolic;
    use crate::types::sym_int::SymInt;

    #[derive(Clone, Debug)]
    struct S {
        v: SymInt,
    }
    impl_sym_state!(S { v });

    fn path(lb: i64, ub: i64, assign: Option<i64>) -> S {
        let mut s = S { v: SymInt::new(0) };
        make_state_symbolic(&mut s);
        let mut ctx = crate::ctx::SymCtx::symbolic();
        // Narrow the constraint via comparisons.
        if ub != i64::MAX {
            let _ = s.v.le(&mut ctx, ub);
        }
        if lb != i64::MIN {
            let _ = s.v.ge(&mut ctx, lb);
        }
        if let Some(a) = assign {
            s.v.assign(a);
        }
        s
    }

    #[test]
    fn disjointness_check() {
        // x ≤ 9 ⇒ 10  and  x ≥ 10 ⇒ x : disjoint (Figure 3's summary).
        let s = Summary::new(vec![path(i64::MIN, 9, Some(10)), path(10, i64::MAX, None)]);
        assert!(s.paths_pairwise_disjoint());
        assert!(check_validity(&s).is_ok());
        // Overlapping paths are flagged.
        let s = Summary::new(vec![path(i64::MIN, 10, Some(10)), path(10, i64::MAX, None)]);
        assert!(!s.paths_pairwise_disjoint());
        assert!(check_validity(&s).is_err());
    }

    #[test]
    fn empty_summary_is_invalid() {
        let s: Summary<S> = Summary::new(vec![]);
        assert!(matches!(check_validity(&s), Err(Error::IncompleteSummary)));
    }

    #[test]
    fn encode_decode_roundtrip() {
        let s = Summary::new(vec![path(i64::MIN, 9, Some(10)), path(10, i64::MAX, None)]);
        let mut buf = Vec::new();
        s.encode(&mut buf);
        let template = S { v: SymInt::new(0) };
        let mut rd = &buf[..];
        let back = Summary::decode(&template, &mut rd).unwrap();
        assert!(rd.is_empty());
        assert_eq!(back.len(), 2);
        assert_eq!(back.paths()[0].v.constraint(), Interval::new(i64::MIN, 9));
        assert_eq!(back.paths()[0].v.concrete_value(), Some(10));
        assert_eq!(back.paths()[1].v.coeffs(), (1, 0));
    }

    #[test]
    fn unnarrowed_path_is_two_bytes() {
        // One path, identity transfer over an open interval: the path
        // count and one flag byte — no sentinel bounds, no field count.
        let s = Summary::singleton(path(i64::MIN, i64::MAX, None));
        assert_eq!(s.to_bytes().len(), 2);
    }

    #[test]
    fn chain_roundtrip_and_wire_len() {
        let chain = SummaryChain::new(vec![
            Summary::singleton(path(0, 5, Some(1))),
            Summary::singleton(path(i64::MIN, i64::MAX, None)),
        ]);
        let mut buf = Vec::new();
        chain.encode(&mut buf);
        assert_eq!(chain.wire_len(), buf.len());
        let template = S { v: SymInt::new(0) };
        let back = SummaryChain::decode(&template, &mut &buf[..]).unwrap();
        assert_eq!(back.len(), 2);
    }

    #[test]
    fn describe_contains_canonical_forms() {
        let s = Summary::new(vec![path(i64::MIN, 9, Some(10))]);
        let d = s.describe();
        assert!(d.contains("x≤9"), "got: {d}");
        assert!(d.contains("10"));
    }
}
