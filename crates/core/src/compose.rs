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
//! ([`apply_encoded_chain`]), in two steps. The parse reads a chain's run
//! headers, decodes each path's scalars and validates each path's vectors
//! without building them, noting where their elements lie. The apply
//! composes each path's scalars onto the running state, checks the vectors
//! of the path that holds, and appends only that path's output, in place,
//! to the running state's. A parse depends on the chain's bytes alone, so
//! a reduce task keeps the parses of its short chains in a [`ChainMemo`]
//! and parses a repeated chain once; the apply, which reads the running
//! state, runs every time. The owned functions above stay the reference.

use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher, RandomState};

use crate::engine::merge::merge_paths;
use crate::error::{Error, Result};
use crate::frame::KeyedWordHasher;
use crate::state::{transfers_of, AggregateSpan, FieldId, Skimmed, SymState};
use crate::summary::{Summary, SummaryChain};
use crate::types::scalar::ScalarTransfer;
use crate::wire::{self, WireError};

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

/// Reusable storage of the wire tier: the UDA's initial state, the chain
/// being parsed, two path states and the running state's transfers, so
/// that a warm apply allocates nothing but the output it appends.
pub struct WireScratch<S> {
    /// What a path state is cloned from the first time a parse needs it.
    template: S,
    /// The chain [`apply_encoded_chain`] parses, reused from call to call.
    parsed: ParsedChain<S>,
    /// The apply step's storage.
    apply: ApplyScratch<S>,
}

/// The apply step's storage: the path being composed and the path that
/// held, and the running state's scalar transfers, taken once per summary.
struct ApplyScratch<S> {
    slots: [S; 2],
    transfers: Vec<Option<ScalarTransfer>>,
}

impl<S: SymState> WireScratch<S> {
    /// Scratch for chains of `template`'s shape: the UDA's initial state,
    /// so that what the wire does not carry (predicate closures, enum
    /// domains) is in place.
    pub fn new(template: &S) -> WireScratch<S> {
        WireScratch {
            template: template.clone(),
            parsed: ParsedChain::default(),
            apply: ApplyScratch {
                slots: [template.clone(), template.clone()],
                transfers: Vec::with_capacity(template.field_count()),
            },
        }
    }

    /// The state the scratch was made for.
    pub fn template(&self) -> &S {
        &self.template
    }
}

/// A chain parsed off its wire bytes: the parse step of the reducer's wire
/// tier, which [`ParsedChain::replay`] applies.
///
/// It holds each summary's path count (the run headers), each path's
/// state with its scalar fields decoded, and where each path's aggregates
/// lie in the chain's bytes ([`AggregateSpan`]); aggregates are parsed and
/// validated ([`SymField::skim_aggregate`]) but not built. It also holds
/// the wire outcome: how many bytes the chain took, or the [`WireError`]
/// that stopped the parse and the byte it was read at. All of it depends
/// on the bytes alone, so one parse serves every application of the same
/// bytes ([`ChainMemo`]); nothing of a running state is in it.
///
/// [`SymField::skim_aggregate`]: crate::state::SymField::skim_aggregate
struct ParsedChain<S> {
    /// The parsed paths, summary by summary; a reused chain may hold more
    /// states than `summaries` counts.
    paths: Vec<S>,
    /// How many paths each summary has, and whether an aggregate of one of
    /// them holds a symbolic element: only then can composing the summary
    /// read the running state's transfers.
    summaries: Vec<(usize, bool)>,
    /// Every aggregate of every path, path by path, `stride` per path.
    spans: Vec<AggregateSpan>,
    /// Aggregates per path.
    stride: usize,
    /// Bytes read: the chain's length, or up to the wire error.
    read: usize,
    /// The wire error that stopped the parse.
    error: Option<WireError>,
}

impl<S> Default for ParsedChain<S> {
    fn default() -> ParsedChain<S> {
        ParsedChain {
            paths: Vec::new(),
            summaries: Vec::new(),
            spans: Vec::new(),
            stride: 0,
            read: 0,
            error: None,
        }
    }
}

impl<S: SymState> ParsedChain<S> {
    /// Parses the chain `chain` starts with, in place of what `self` held.
    /// A path state `self` does not have yet is cloned from `template`.
    ///
    /// Everything [`SummaryChain::decode`] validates is validated, and a
    /// wire error stops the parse where it stops the decoder.
    fn parse(&mut self, template: &S, chain: &[u8]) {
        self.summaries.clear();
        self.spans.clear();
        self.stride = (0..template.field_count())
            .filter(|&i| template.field_ref_at(i).is_aggregate())
            .count();
        let mut buf = chain;
        self.error = self.parse_paths(template, chain, &mut buf).err();
        self.read = chain.len() - buf.len();
    }

    fn parse_paths(
        &mut self,
        template: &S,
        chain: &[u8],
        buf: &mut &[u8],
    ) -> Result<(), WireError> {
        let ParsedChain {
            paths,
            summaries,
            spans,
            stride,
            ..
        } = self;
        let mut used = 0;
        for _ in 0..wire::get_len(buf)? {
            let n = wire::get_len(buf)?;
            let first = spans.len();
            for at in 0..n {
                if used == paths.len() {
                    paths.push(template.clone());
                }
                let path = &mut paths[used];
                used += 1;
                for i in 0..path.field_count() {
                    let f = path.field_mut_at(i);
                    if f.is_aggregate() {
                        let before = (at > 0).then(|| spans[spans.len() - *stride]);
                        spans.push(f.skim_aggregate(chain, buf, before.as_ref())?);
                    } else {
                        f.decode_field(buf, FieldId(i as u16), None)?;
                    }
                }
            }
            let symbolic = spans[first..].iter().any(|span| span.symbolic > 0);
            summaries.push((n, symbolic));
        }
        Ok(())
    }

    /// How many path states the parse uses: those of the summaries it
    /// read whole.
    fn used(&self) -> usize {
        self.summaries.iter().map(|&(n, _)| n).sum()
    }

    /// The bytes [`ChainMemo`] counts for the parse besides its key: its
    /// used states, spans and path counts.
    fn footprint(&self) -> usize {
        self.used() * std::mem::size_of::<S>()
            + self.spans.len() * std::mem::size_of::<AggregateSpan>()
            + self.summaries.len() * std::mem::size_of::<(usize, bool)>()
    }

    /// Drops the states the parse does not use, and spare capacity.
    fn compact(&mut self) {
        self.paths.truncate(self.used());
        self.paths.shrink_to_fit();
        self.spans.shrink_to_fit();
        self.summaries.shrink_to_fit();
    }

    /// [`apply_encoded_chain`] from the parse of `buf`'s bytes: `buf`
    /// moves to where the parse stopped, a wire error is returned as it was
    /// read, and a chain that parsed is applied to `state`.
    fn replay(&self, buf: &mut &[u8], scratch: &mut ApplyScratch<S>, state: &mut S) -> Result<()> {
        let chain = *buf;
        *buf = &chain[self.read..];
        match self.error {
            Some(e) => Err(Error::Wire(e)),
            None => self.apply(chain, scratch, state),
        }
    }

    /// The apply step: composes each summary onto `state`, in order, as
    /// [`apply_chain`] does. Each path is copied into one of the scratch
    /// slots and its scalars are composed onto `state`'s; the path that
    /// held keeps its slot to the end of the summary, when it is swapped
    /// with `state` and its elements are appended, in place, to `state`'s
    /// own aggregates. `chain` holds the bytes the spans index.
    ///
    /// As in `compose_state`, a scalar field that rules a path out stops
    /// the composition of the scalars after it, and a path whose scalars
    /// hold has its aggregates checked, in field order
    /// ([`SymField::check_aggregate`]), before it counts as holding. The
    /// first error in path order is returned, as are
    /// [`Error::OverlappingSummary`] at a second path that holds and
    /// [`Error::IncompleteSummary`] after a summary where none did. On
    /// `Err`, `state` is what the summaries before the failing one left.
    ///
    /// [`SymField::check_aggregate`]: crate::state::SymField::check_aggregate
    fn apply(&self, chain: &[u8], scratch: &mut ApplyScratch<S>, state: &mut S) -> Result<()> {
        debug_assert!(
            crate::state::state_is_concrete(state),
            "the wire tier requires a fully concrete running state"
        );
        let ApplyScratch { slots, transfers } = scratch;
        let (n_fields, stride) = (state.field_count(), self.stride);
        let mut paths = self.paths.iter();
        let mut spans = self.spans.as_slice();
        for &(len, symbolic) in &self.summaries {
            // Without a symbolic element nothing is substituted, so nothing
            // looks a transfer up.
            transfers.clear();
            if symbolic {
                transfers.extend((0..n_fields).map(|i| state.field_ref_at(i).transfer()));
            }
            let transfers = |i: usize| transfers.get(i).copied().flatten();
            let summary;
            (summary, spans) = spans.split_at(len * stride);
            // The slot being written, and the holding path's slot and index.
            let (mut cur, mut holding) = (0, None);
            for (at, path) in paths.by_ref().take(len).enumerate() {
                let slot = &mut slots[cur];
                slot.clone_from(path);
                let mut holds = true;
                for i in 0..n_fields {
                    let f = slot.field_mut_at(i);
                    if !f.is_aggregate() && !f.compose_onto(state.field_ref_at(i), &transfers)? {
                        holds = false;
                        break;
                    }
                }
                if !holds {
                    continue;
                }
                // Aggregate `a` of path `at`, and of the paths before it.
                let skimmed = |a: usize| Skimmed::new(chain, &summary[a..=at * stride + a], stride);
                let aggregates = (0..n_fields).map(|i| slot.field_ref_at(i));
                for (a, f) in aggregates.filter(|f| f.is_aggregate()).enumerate() {
                    f.check_aggregate(skimmed(a), &transfers)?;
                }
                if holding.replace((cur, at)).is_some() {
                    return Err(Error::OverlappingSummary);
                }
                cur ^= 1;
            }
            let (slot, at) = holding.ok_or(Error::IncompleteSummary)?;
            std::mem::swap(state, &mut slots[slot]);
            let mut a = 0;
            for i in 0..n_fields {
                let f = state.field_mut_at(i);
                if f.is_aggregate() {
                    let skimmed = Skimmed::new(chain, &summary[a..=at * stride + a], stride);
                    f.append_aggregate(slots[slot].field_mut_at(i), skimmed, &transfers);
                    a += 1;
                }
            }
        }
        Ok(())
    }
}

/// [`apply_chain`] straight from a chain's wire bytes: the in-order
/// reducer's tier, which never builds the owned [`SummaryChain`].
///
/// The chain at `buf` is parsed whole first, as the reference decodes it
/// whole before it applies any of it, so a wire error outranks every
/// other; it is then applied to `state`. Only the holding path of each summary
/// has its elements appended, in place, to `state`'s own aggregates; the
/// others are only parsed and, when their scalars hold, checked.
///
/// The outcome — the final `state`, the error, and where `buf` ends, on
/// success or at a wire error — is that of [`SummaryChain::decode`]
/// followed by [`apply_chain`], which stay the reference semantics. On a
/// wire error `state` is untouched; on any other `Err` it is what the
/// summaries before the failing one left.
pub fn apply_encoded_chain<S: SymState>(
    scratch: &mut WireScratch<S>,
    buf: &mut &[u8],
    state: &mut S,
) -> Result<()> {
    let WireScratch {
        template,
        parsed,
        apply,
    } = scratch;
    parsed.parse(template, buf);
    parsed.replay(buf, apply, state)
}

/// A chain of at most this many bytes is memoized; a longer one is never
/// looked up, so a reducer of long chains pays one length check per chain.
const CHAIN_MEMO_MAX_BYTES: usize = 64;

/// Distinct chains one memo holds at most.
const CHAIN_MEMO_MAX_CHAINS: usize = 4096;

/// Key bytes and parsed bytes (path states, spans and path counts) one
/// memo holds at most.
const CHAIN_MEMO_MAX_TOTAL: usize = 1 << 20;

/// A reducer's memo of short chains: a chain's exact bytes to its parse
/// (run headers, decoded scalars, aggregate spans and wire outcome), so
/// that a chain that repeats is parsed once.
///
/// Only the parse is remembered, never the apply: composition,
/// [`SymField::check_aggregate`] and the append read the running state,
/// and so can their errors, so every application runs them. A parse
/// depends on the bytes alone, so a stored wire error, or a chain that
/// stops short of its buffer, is replayed as it was read. The key is
/// exact: a hit compares the whole key, and the hasher only places it.
/// The spans of a stored parse index the incoming chain, which is
/// byte-equal to the key.
///
/// Meant to live for one reduce-task attempt, so that a retry computes
/// the same thing; it stops growing when full.
///
/// [`SymField::check_aggregate`]: crate::state::SymField::check_aggregate
pub struct ChainMemo<S, H = KeyedWordHasher> {
    table: HashMap<Box<[u8]>, ParsedChain<S>, H>,
    /// Key and parsed bytes held.
    bytes: usize,
}

impl<S: SymState> ChainMemo<S> {
    /// An empty memo whose table is hashed under a fresh random key.
    pub fn new() -> ChainMemo<S> {
        let seed = RandomState::new().build_hasher().finish();
        ChainMemo::with_hasher(KeyedWordHasher::new(seed))
    }
}

impl<S: SymState> Default for ChainMemo<S> {
    fn default() -> ChainMemo<S> {
        ChainMemo::new()
    }
}

impl<S: SymState, H: BuildHasher> ChainMemo<S, H> {
    /// An empty memo whose table is hashed by `hasher`.
    pub fn with_hasher(hasher: H) -> ChainMemo<S, H> {
        ChainMemo {
            table: HashMap::with_hasher(hasher),
            bytes: 0,
        }
    }

    /// [`apply_encoded_chain`], with the parse of `buf`'s bytes taken from
    /// the memo when they are short enough and were parsed before, and
    /// remembered after a parse when there is room. The outcome is
    /// [`apply_encoded_chain`]'s.
    pub fn apply(
        &mut self,
        scratch: &mut WireScratch<S>,
        buf: &mut &[u8],
        state: &mut S,
    ) -> Result<()> {
        let chain = *buf;
        if chain.len() > CHAIN_MEMO_MAX_BYTES {
            return apply_encoded_chain(scratch, buf, state);
        }
        if let Some(parsed) = self.table.get(chain) {
            return parsed.replay(buf, &mut scratch.apply, state);
        }
        let WireScratch {
            template,
            parsed,
            apply,
        } = scratch;
        parsed.parse(template, chain);
        let bytes = self.bytes + chain.len() + parsed.footprint();
        if self.table.len() >= CHAIN_MEMO_MAX_CHAINS || bytes > CHAIN_MEMO_MAX_TOTAL {
            return parsed.replay(buf, apply, state);
        }
        self.bytes = bytes;
        let mut kept = std::mem::take(parsed);
        kept.compact();
        let kept = self.table.entry(chain.into()).or_insert(kept);
        kept.replay(buf, apply, state)
    }

    /// How many chains the memo holds.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Whether the memo holds no chain.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }
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

    /// Applies `chain` to a running max of `v` through `memo`, and checks
    /// the outcome against the owned tier's.
    fn memo_max(memo: &mut ChainMemo<MaxS, impl BuildHasher>, chain: &[u8], v: i64) -> i64 {
        let template = MaxS {
            max: SymInt::new(0),
        };
        let mut state = MaxS {
            max: SymInt::new(v),
        };
        let mut scratch = WireScratch::new(&template);
        let mut rd = chain;
        memo.apply(&mut scratch, &mut rd, &mut state).unwrap();
        assert!(rd.is_empty());
        let owned = SummaryChain::decode(&template, &mut &chain[..]).unwrap();
        let owned = apply_chain(
            &owned,
            &MaxS {
                max: SymInt::new(v),
            },
        );
        assert_eq!(
            state.max.concrete_value(),
            owned.unwrap().max.concrete_value()
        );
        state.max.concrete_value().unwrap()
    }

    fn max_chain(m: i64) -> Vec<u8> {
        SummaryChain::from(max_summary(m)).to_bytes()
    }

    /// Sends every key to one bucket.
    #[derive(Default)]
    struct OneBucket;
    impl Hasher for OneBucket {
        fn write(&mut self, _: &[u8]) {}
        fn finish(&self) -> u64 {
            0
        }
    }

    #[test]
    fn a_chain_memo_hit_compares_the_whole_key() {
        let mut memo =
            ChainMemo::with_hasher(std::hash::BuildHasherDefault::<OneBucket>::default());
        for round in 0..2 {
            for m in [10, 8, 20] {
                assert_eq!(
                    memo_max(&mut memo, &max_chain(m), 9),
                    m.max(9),
                    "round {round}"
                );
            }
        }
        assert_eq!(memo.len(), 3);
    }

    #[test]
    fn a_full_chain_memo_keeps_serving_and_stops_growing() {
        let mut memo = ChainMemo::new();
        let chains: Vec<Vec<u8>> = (0..CHAIN_MEMO_MAX_CHAINS as i64 + 8)
            .map(max_chain)
            .collect();
        assert!(chains.iter().all(|c| c.len() <= CHAIN_MEMO_MAX_BYTES));
        for (m, chain) in chains.iter().enumerate() {
            assert_eq!(memo_max(&mut memo, chain, 100), (m as i64).max(100));
        }
        assert_eq!(memo.len(), CHAIN_MEMO_MAX_CHAINS);
        // Remembered and not remembered chains both still apply.
        assert_eq!(memo_max(&mut memo, &chains[0], -1), 0);
        assert_eq!(memo_max(&mut memo, chains.last().unwrap(), -1), 4103);
        assert_eq!(memo.len(), CHAIN_MEMO_MAX_CHAINS);
    }

    #[test]
    fn a_long_chain_is_never_remembered() {
        let long = SummaryChain::new((0..16).map(max_summary).collect()).to_bytes();
        assert!(long.len() > CHAIN_MEMO_MAX_BYTES);
        let mut memo = ChainMemo::new();
        assert_eq!(memo_max(&mut memo, &long, 3), 15);
        assert!(memo.is_empty());
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
