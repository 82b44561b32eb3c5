//! Summary application and composition (§3.6 of the paper).
//!
//! The reducer recovers the sequential result by applying each chunk's
//! summary, in input order, to the running concrete state:
//! `Sₙ(...(S₃(S₂(C₁))))`. Because function composition is associative, two
//! summaries can also be composed *symbolically* (`S₃ ∘ S₂`) before any
//! concrete input is known — enabling tree-shaped reduction.
//!
//! Both operations reduce to one primitive, `compose_state`: rewriting a
//! later path (a function of its input `y`) in terms of an earlier path's
//! input `x`, per field, discarding infeasible cross-products.
//!
//! The in-order reducer applies chains straight from their bytes instead
//! ([`apply_encoded_chain`]): it composes each path's scalars as it reads
//! them, validates each path's vectors without building them, and appends
//! only the holding path's output, in place, to the running state's. The
//! owned functions above stay its reference.

use crate::engine::merge::merge_paths;
use crate::error::{Error, Result};
use crate::state::{transfers_of, AggregateSpan, FieldId, Skimmed, SymState};
use crate::summary::{Summary, SummaryChain};
use crate::types::scalar::ScalarTransfer;
use crate::wire;

/// Composes one later path onto one earlier path.
///
/// Returns `Ok(None)` when the pair is infeasible (the earlier path's
/// output cannot satisfy the later path's constraint). Scalar fields are
/// composed before aggregates so that infeasibility is detected before any
/// vector substitution can observe an inconsistent state.
fn compose_state<S: SymState>(later: &S, earlier: &S) -> Result<Option<S>> {
    let mut out = later.clone();
    let transfers = transfers_of(earlier);
    debug_assert_eq!(out.field_count(), earlier.field_count());
    for pass_aggregates in [false, true] {
        for i in 0..out.field_count() {
            let f = out.field_mut_at(i);
            if f.is_aggregate() == pass_aggregates
                && !f.compose_onto(earlier.field_ref_at(i), &transfers)?
            {
                return Ok(None);
            }
        }
    }
    Ok(Some(out))
}

/// Applies a summary to a concrete state: `S(c)`.
///
/// Exactly one path constraint must match — a validity property of sound
/// and precise summaries that this function also verifies, returning
/// [`Error::IncompleteSummary`] / [`Error::OverlappingSummary`] otherwise.
pub fn apply_summary<S: SymState>(summary: &Summary<S>, state: &S) -> Result<S> {
    debug_assert!(
        crate::state::state_is_concrete(state),
        "apply_summary requires a fully concrete input state"
    );
    let mut matched: Option<S> = None;
    for path in summary.paths() {
        if let Some(s) = compose_state(path, state)? {
            if matched.is_some() {
                return Err(Error::OverlappingSummary);
            }
            matched = Some(s);
        }
    }
    matched.ok_or(Error::IncompleteSummary)
}

/// Applies every summary of a chain in order, starting from `state`.
pub fn apply_chain<S: SymState>(chain: &SummaryChain<S>, state: &S) -> Result<S> {
    let mut cur = state.clone();
    for summary in chain.summaries() {
        cur = apply_summary(summary, &cur)?;
    }
    Ok(cur)
}

/// Reusable storage of [`apply_encoded_chain`]: two path states and what
/// it keeps of the summary being applied, so that a warm apply allocates
/// nothing but the output it appends.
pub struct WireScratch<S> {
    /// The path being read, and the path that held.
    paths: [S; 2],
    /// The running state's scalar transfers, taken once per summary.
    transfers: Vec<Option<ScalarTransfer>>,
    /// Every aggregate of every path read so far, path by path.
    spans: Vec<AggregateSpan>,
}

impl<S: SymState> WireScratch<S> {
    /// Scratch for chains of `template`'s shape: the UDA's initial state,
    /// so that what the wire does not carry (predicate closures, enum
    /// domains) is in place.
    pub fn new(template: &S) -> WireScratch<S> {
        WireScratch {
            paths: [template.clone(), template.clone()],
            transfers: Vec::with_capacity(template.field_count()),
            spans: Vec::new(),
        }
    }
}

/// [`apply_chain`] straight from a chain's wire bytes: the in-order
/// reducer's tier, which never builds the owned [`SummaryChain`].
///
/// Against a concrete `state` exactly one path of each summary holds. Each
/// path's scalar fields are decoded into one of `scratch`'s two states
/// (whatever it holds is overwritten) and composed onto `state`'s in the
/// same step; the path that held keeps its slot to the end of the summary,
/// when it is swapped with `state`. Aggregates (vectors) are parsed and
/// validated but not built: each leaves an [`AggregateSpan`], and only the
/// holding path's elements are appended, in place, to `state`'s own
/// aggregate once the summary is over.
///
/// The outcome — the final `state`, the error, and where `buf` ends on
/// success — is that of [`SummaryChain::decode`] followed by
/// [`apply_chain`], which stay the reference semantics:
///
/// * every path is parsed to its end, and the reference decodes the whole
///   chain before it applies any of it, so a wire error anywhere outranks
///   every other: after the first failure the rest is still parsed, just
///   no longer composed;
/// * no path holding is [`Error::IncompleteSummary`], a second one
///   [`Error::OverlappingSummary`];
/// * as in `compose_state`, a scalar field that rules a path out stops
///   the composition of the scalars after it, and a path whose scalars
///   hold has its aggregates checked, in field order, before the next path
///   is read ([`SymField::check_aggregate`]): an aggregate's error takes
///   the place in path order that composing it would.
///
/// [`SymField::check_aggregate`]: crate::state::SymField::check_aggregate
///
/// On `Err`, `state` is what the summaries before the failing one left.
pub fn apply_encoded_chain<S: SymState>(
    scratch: &mut WireScratch<S>,
    buf: &mut &[u8],
    state: &mut S,
) -> Result<()> {
    debug_assert!(
        crate::state::state_is_concrete(state),
        "apply_encoded_chain requires a fully concrete running state"
    );
    let chain = *buf;
    let WireScratch {
        paths,
        transfers,
        spans,
    } = scratch;
    let n_fields = state.field_count();
    let stride = (0..n_fields)
        .filter(|&i| state.field_ref_at(i).is_aggregate())
        .count();
    let mut failed: Option<Error> = None;
    for _ in 0..wire::get_len(buf)? {
        transfers.clear();
        transfers.extend((0..n_fields).map(|i| state.field_ref_at(i).transfer()));
        let transfers = |i: usize| transfers.get(i).copied().flatten();
        spans.clear();
        // The slot being written, and the holding path's slot and first span.
        let (mut cur, mut matched) = (0, None);
        for at in 0..wire::get_len(buf)? {
            let path = &mut paths[cur];
            let first = spans.len();
            let mut scalars = Ok(failed.is_none());
            for i in 0..n_fields {
                let f = path.field_mut_at(i);
                if f.is_aggregate() {
                    let before = (at > 0).then(|| spans[spans.len() - stride]);
                    spans.push(f.skim_aggregate(chain, buf, before.as_ref())?);
                } else {
                    f.decode_field(buf, FieldId(i as u16), None)?;
                    if matches!(scalars, Ok(true)) {
                        scalars = f.compose_onto(state.field_ref_at(i), &transfers);
                    }
                }
            }
            // A path the scalars let through has its aggregates checked
            // now, before the next path is read.
            let holds = scalars.and_then(|holds| {
                if holds {
                    let fields = (0..n_fields).map(|i| path.field_ref_at(i));
                    for (a, f) in fields.filter(|f| f.is_aggregate()).enumerate() {
                        let skimmed = Skimmed::new(chain, &spans[a..=first + a], stride);
                        f.check_aggregate(skimmed, &transfers)?;
                    }
                }
                Ok(holds)
            });
            match holds {
                Ok(false) => {}
                Ok(true) if matched.is_none() => matched = Some((cur, first)),
                Ok(true) => failed = Some(Error::OverlappingSummary),
                Err(e) => failed = Some(e),
            }
            if matched.is_some_and(|(slot, _)| slot == cur) {
                cur ^= 1;
            }
        }
        match matched {
            _ if failed.is_some() => {}
            Some((slot, first)) => {
                std::mem::swap(state, &mut paths[slot]);
                let mut a = 0;
                for i in 0..n_fields {
                    let f = state.field_mut_at(i);
                    if f.is_aggregate() {
                        let skimmed = Skimmed::new(chain, &spans[a..=first + a], stride);
                        f.append_aggregate(paths[slot].field_mut_at(i), skimmed, &transfers);
                        a += 1;
                    }
                }
            }
            None => failed = Some(Error::IncompleteSummary),
        }
    }
    failed.map_or(Ok(()), Err)
}

/// Composes two summaries symbolically: the result of `compose_summaries
/// (later, earlier)` behaves exactly like applying `earlier` then `later`.
///
/// Takes the cross-product of the paths, drops infeasible pairs, and merges
/// paths with equal transfer functions (§3.6's example: `S₃ ∘ S₂`).
pub fn compose_summaries<S: SymState>(
    later: &Summary<S>,
    earlier: &Summary<S>,
) -> Result<Summary<S>> {
    let mut out = Vec::new();
    for pe in earlier.paths() {
        for pl in later.paths() {
            if let Some(c) = compose_state(pl, pe)? {
                out.push(c);
            }
        }
    }
    if out.is_empty() {
        return Err(Error::EmptyComposition);
    }
    merge_paths(&mut out);
    Ok(Summary::new(out))
}

/// Collapses a chain into a single summary by symbolic composition.
///
/// This is the expensive (cross-product) form; reducers that hold a
/// concrete running state should prefer [`apply_chain`].
pub fn collapse_chain<S: SymState>(chain: &SummaryChain<S>) -> Result<Summary<S>> {
    let mut iter = chain.summaries().iter();
    let first = iter.next().ok_or(Error::IncompleteSummary)?;
    let mut acc = first.clone();
    for s in iter {
        acc = compose_summaries(s, &acc)?;
    }
    Ok(acc)
}

/// Collapses an ordered slice of summaries by balanced pairwise
/// composition — §3.6's "one can further parallelize this computation as
/// function composition is associative". In a distributed reducer each
/// level of the tree would run in parallel; here the win is the shape
/// (depth `log n` instead of `n`); the repo benchmark's traced run times
/// it as `core.compose.tree_ms`.
pub fn tree_collapse<S: SymState>(summaries: &[Summary<S>]) -> Result<Summary<S>> {
    match summaries {
        [] => Err(Error::IncompleteSummary),
        [one] => Ok(one.clone()),
        _ => {
            let mid = summaries.len() / 2;
            let left = tree_collapse(&summaries[..mid])?;
            let right = tree_collapse(&summaries[mid..])?;
            compose_summaries(&right, &left)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::SymCtx;
    use crate::impl_sym_state;
    use crate::interval::Interval;
    use crate::state::make_state_symbolic;
    use crate::types::sym_int::SymInt;
    use crate::types::sym_vector::SymVector;

    #[derive(Clone, Debug)]
    struct MaxS {
        max: SymInt,
    }
    impl_sym_state!(MaxS { max });

    /// Builds the Max summary of §3.5 for a chunk whose maximum is `m`:
    /// `x ≤ m−1 ⇒ m  ∧  x ≥ m ⇒ x` (using the paper's `<` convention the
    /// split lands at m).
    fn max_summary(m: i64) -> Summary<MaxS> {
        let mut lo = MaxS {
            max: SymInt::new(0),
        };
        make_state_symbolic(&mut lo);
        let mut ctx = SymCtx::symbolic();
        assert!(
            lo.max.lt(&mut ctx, m),
            "first exploration takes the true side"
        );
        lo.max.assign(m);
        let mut hi = MaxS {
            max: SymInt::new(0),
        };
        make_state_symbolic(&mut hi);
        let mut ctx = SymCtx::symbolic();
        assert!(hi.max.ge(&mut ctx, m));
        Summary::new(vec![lo, hi])
    }

    #[test]
    fn apply_matches_paper_example() {
        // §3.6: chunk 2 (max 10) applied to the concrete output 9 of chunk
        // 1 yields 10; chunk 3 (max 8) applied to 10 keeps 10.
        let s2 = max_summary(10);
        let s3 = max_summary(8);
        let c1 = MaxS {
            max: SymInt::new(9),
        };
        let after2 = apply_summary(&s2, &c1).unwrap();
        assert_eq!(after2.max.concrete_value(), Some(10));
        let after3 = apply_summary(&s3, &after2).unwrap();
        assert_eq!(after3.max.concrete_value(), Some(10));
    }

    #[test]
    fn compose_matches_paper_example() {
        // §3.6: S₃ ∘ S₂ = { y ≤ 9 ⇒ 10, y ≥ 10 ⇒ y } for maxima 10, 8.
        let s2 = max_summary(10);
        let s3 = max_summary(8);
        let s32 = compose_summaries(&s3, &s2).unwrap();
        assert_eq!(
            s32.len(),
            2,
            "infeasible pairs pruned, equal transfers merged"
        );
        // Composed-then-applied equals applied-sequentially.
        for v in [-5, 7, 9, 10, 11, 100] {
            let c = MaxS {
                max: SymInt::new(v),
            };
            let seq = apply_summary(&s3, &apply_summary(&s2, &c).unwrap()).unwrap();
            let comp = apply_summary(&s32, &c).unwrap();
            assert_eq!(seq.max.concrete_value(), comp.max.concrete_value(), "v={v}");
        }
    }

    #[test]
    fn composition_is_associative() {
        let s2 = max_summary(10);
        let s3 = max_summary(8);
        let s4 = max_summary(12);
        let left = compose_summaries(&s4, &compose_summaries(&s3, &s2).unwrap()).unwrap();
        let right = compose_summaries(&compose_summaries(&s4, &s3).unwrap(), &s2).unwrap();
        for v in [-1, 9, 10, 11, 12, 13, 50] {
            let c = MaxS {
                max: SymInt::new(v),
            };
            let a = apply_summary(&left, &c).unwrap().max.concrete_value();
            let b = apply_summary(&right, &c).unwrap().max.concrete_value();
            assert_eq!(a, b, "v={v}");
        }
    }

    #[test]
    fn incomplete_summary_detected() {
        // A summary missing the x ≥ 10 path cannot cover input 42.
        let s2 = max_summary(10);
        let partial = Summary::new(vec![s2.paths()[0].clone()]);
        let c = MaxS {
            max: SymInt::new(42),
        };
        assert!(matches!(
            apply_summary(&partial, &c),
            Err(Error::IncompleteSummary)
        ));
    }

    #[test]
    fn overlapping_summary_detected() {
        let s2 = max_summary(10);
        let dup = Summary::new(vec![s2.paths()[0].clone(), s2.paths()[0].clone()]);
        let c = MaxS {
            max: SymInt::new(3),
        };
        assert!(matches!(
            apply_summary(&dup, &c),
            Err(Error::OverlappingSummary)
        ));
    }

    #[derive(Clone, Debug)]
    struct CountS {
        count: SymInt,
        out: SymVector<i64>,
    }
    impl_sym_state!(CountS { count, out });

    #[test]
    fn vectors_stitch_across_composition() {
        // Earlier chunk: count += 2, pushed count (x+2).
        let mut e = CountS {
            count: SymInt::new(0),
            out: SymVector::new(),
        };
        make_state_symbolic(&mut e);
        e.count += 2;
        e.out.push_int(&e.count);
        // Later chunk: count += 3, pushed count (y+3).
        let mut l = CountS {
            count: SymInt::new(0),
            out: SymVector::new(),
        };
        make_state_symbolic(&mut l);
        l.count += 3;
        l.out.push_int(&l.count);

        let se = Summary::singleton(e);
        let sl = Summary::singleton(l);
        let s = compose_summaries(&sl, &se).unwrap();
        let init = CountS {
            count: SymInt::new(10),
            out: SymVector::new(),
        };
        let fin = apply_summary(&s, &init).unwrap();
        assert_eq!(fin.count.concrete_value(), Some(15));
        assert_eq!(fin.out.concrete_elems().unwrap(), vec![12, 15]);
    }

    #[test]
    fn apply_chain_runs_in_order() {
        let chain = SummaryChain::new(vec![max_summary(10), max_summary(8), max_summary(20)]);
        let c = MaxS {
            max: SymInt::new(9),
        };
        let fin = apply_chain(&chain, &c).unwrap();
        assert_eq!(fin.max.concrete_value(), Some(20));
    }

    #[test]
    fn collapse_chain_equals_apply_chain() {
        let chain = SummaryChain::new(vec![max_summary(10), max_summary(8), max_summary(20)]);
        let collapsed = collapse_chain(&chain).unwrap();
        for v in [0, 9, 15, 25] {
            let c = MaxS {
                max: SymInt::new(v),
            };
            let a = apply_chain(&chain, &c).unwrap().max.concrete_value();
            let b = apply_summary(&collapsed, &c).unwrap().max.concrete_value();
            assert_eq!(a, b, "v={v}");
        }
    }

    #[test]
    fn tree_collapse_equals_sequential_collapse() {
        let summaries: Vec<Summary<MaxS>> = [3, 10, 8, 20, 15, 1, 19]
            .iter()
            .map(|m| max_summary(*m))
            .collect();
        let tree = tree_collapse(&summaries).unwrap();
        let chain = SummaryChain::new(summaries.clone());
        for v in [-5, 9, 10, 19, 20, 21, 100] {
            let c = MaxS {
                max: SymInt::new(v),
            };
            let a = apply_summary(&tree, &c).unwrap().max.concrete_value();
            let b = apply_chain(&chain, &c).unwrap().max.concrete_value();
            assert_eq!(a, b, "v={v}");
        }
        assert!(tree_collapse::<MaxS>(&[]).is_err());
    }

    #[test]
    fn compose_constraint_intervals_pull_back() {
        let s2 = max_summary(10);
        let s3 = max_summary(8);
        let s32 = compose_summaries(&s3, &s2).unwrap();
        // Find the constant path; it should cover x ≤ 9 after pullback and
        // merging with the (5 ≤ x ≤ 10 ⇒ 10)-style region.
        let consts: Vec<_> = s32
            .paths()
            .iter()
            .filter(|p| p.max.concrete_value() == Some(10))
            .collect();
        assert_eq!(consts.len(), 1);
        assert_eq!(consts[0].max.constraint(), Interval::new(i64::MIN, 9));
    }
}
