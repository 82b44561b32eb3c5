//! Fuzz-style robustness tests for the wire format: decoding arbitrary or
//! mutated bytes must never panic, loop, or mis-decode into something a
//! re-encode doesn't reproduce.

use proptest::prelude::*;

use symple_core::compose::{apply_chain, apply_encoded_chain, ChainMemo, WireScratch};
use symple_core::engine::{EngineConfig, SymbolicExecutor};
use symple_core::error::Error;
use symple_core::impl_sym_state;
use symple_core::state::{make_state_symbolic, FieldId, SymState};
use symple_core::summary::{Summary, SummaryChain};
use symple_core::types::scalar::SymScalar;
use symple_core::types::{
    sym_bool::SymBool, sym_enum::SymEnum, sym_int::SymInt, sym_pred::SymPred, sym_vector::SymVector,
};
use symple_core::uda::{run_concrete_state, Uda};
use symple_core::wire::{Wire, WireError};
use symple_core::SymCtx;

#[derive(Clone, Debug)]
struct Kitchen {
    b: SymBool,
    e: SymEnum,
    i: SymInt,
    p: SymPred<i64>,
    v: SymVector<i64>,
}
impl_sym_state!(Kitchen { b, e, i, p, v });

fn template() -> Kitchen {
    Kitchen {
        b: SymBool::new(false),
        e: SymEnum::new(12, 0),
        i: SymInt::new(0),
        p: SymPred::new(|a: &i64, b: &i64| a < b),
        v: SymVector::new(),
    }
}

/// A UDA over [`Kitchen`] that forks on every type family and appends to
/// the vector on some paths only, so sibling paths share output tails.
struct K;
impl Uda for K {
    type State = Kitchen;
    type Event = i64;
    type Output = ();
    fn init(&self) -> Kitchen {
        template()
    }
    fn update(&self, s: &mut Kitchen, ctx: &mut SymCtx, e: &i64) {
        if s.b.get(ctx) {
            s.i.add(ctx, *e);
        }
        if s.e.eq_c(ctx, 3) {
            s.v.push_int(&s.i);
        }
        if s.p.eval(ctx, e) {
            s.b.assign(true);
        }
        s.p.set(*e);
        s.v.push(*e);
        let _ = s.e.ne_c(ctx, (e % 12).unsigned_abs() as u32);
    }
    fn result(&self, _s: &Kitchen, _ctx: &mut SymCtx) {}
}

/// The field-order fixtures: a state with the vector declared before its
/// scalars, and one with two vectors (one of strings, one of `u32`s that a
/// substitution can push out of range) around them. A reducer that defers
/// aggregates to the end of a summary must still raise each path's errors
/// in path order.
#[derive(Clone, Debug)]
struct Front {
    v: SymVector<i64>,
    e: SymEnum,
    i: SymInt,
    p: SymPred<i64>,
    b: SymBool,
}
impl_sym_state!(Front { v, e, i, p, b });

/// [`K`]'s update over [`Front`].
struct F;
impl Uda for F {
    type State = Front;
    type Event = i64;
    type Output = ();
    fn init(&self) -> Front {
        Front::template()
    }
    fn update(&self, s: &mut Front, ctx: &mut SymCtx, e: &i64) {
        if s.b.get(ctx) {
            s.i.add(ctx, *e);
        }
        if s.e.eq_c(ctx, 3) {
            s.v.push_int(&s.i);
        }
        if s.p.eval(ctx, e) {
            s.b.assign(true);
        }
        s.p.set(*e);
        s.v.push(*e);
        let _ = s.e.ne_c(ctx, (e % 12).unsigned_abs() as u32);
    }
    fn result(&self, _s: &Front, _ctx: &mut SymCtx) {}
}

#[derive(Clone, Debug)]
struct Pair {
    i: SymInt,
    u: SymVector<u32>,
    e: SymEnum,
    s: SymVector<String>,
}
impl_sym_state!(Pair { i, u, e, s });

/// Forks on the enum, and writes both vectors differently on each side.
struct P;
impl Uda for P {
    type State = Pair;
    type Event = i64;
    type Output = ();
    fn init(&self) -> Pair {
        Pair::template()
    }
    fn update(&self, s: &mut Pair, ctx: &mut SymCtx, e: &i64) {
        if s.e.eq_c(ctx, 3) {
            s.u.push_int(&s.i);
            s.s.push(format!("three {e}"));
        }
        s.i.add(ctx, e.abs());
        s.u.push(e.unsigned_abs() as u32);
        if s.e.ne_c(ctx, (e % 12).unsigned_abs() as u32) {
            s.s.push(e.to_string());
        }
    }
    fn result(&self, _s: &Pair, _ctx: &mut SymCtx) {}
}

/// A state the tier properties run over: its UDA's initial state, and the
/// cell count of each of its vectors.
trait Fixture: SymState {
    fn template() -> Self;
    fn cells(&self) -> Vec<usize>;
    /// The integer field the hand-built paths of
    /// `wire_apply_matches_owned_on_aggregate_errors` are constrained on.
    fn int(&mut self) -> &mut SymInt;
    /// Appends one element to each vector: a concrete value, or an affine
    /// `(field, a, b)` where the vector can hold one.
    fn push(&mut self, elem: &Spec);
}

/// A vector element to build: `Ok(value)` or `Err((field, a, b))`.
type Spec = Result<i64, (u16, i64, i64)>;

/// A summary to build: for each path, `lo` and `len` of the constraint
/// `lo..=lo + len` on the integer field, and the path's own elements.
type BuiltSummary = Vec<(i64, i64, Vec<Spec>)>;

fn affine(&(field, a, b): &(u16, i64, i64)) -> SymScalar {
    SymScalar::Affine {
        field: FieldId(field),
        a,
        b,
    }
}

impl Fixture for Kitchen {
    fn template() -> Kitchen {
        template()
    }
    fn cells(&self) -> Vec<usize> {
        vec![self.v.cells()]
    }
    fn int(&mut self) -> &mut SymInt {
        &mut self.i
    }
    fn push(&mut self, elem: &Spec) {
        match elem {
            Ok(v) => self.v.push(*v),
            Err(sym) => self.v.push_scalar(affine(sym)),
        }
    }
}

impl Fixture for Front {
    fn template() -> Front {
        Front {
            v: SymVector::new(),
            e: SymEnum::new(12, 0),
            i: SymInt::new(0),
            p: SymPred::new(|a: &i64, b: &i64| a < b),
            b: SymBool::new(false),
        }
    }
    fn cells(&self) -> Vec<usize> {
        vec![self.v.cells()]
    }
    fn int(&mut self) -> &mut SymInt {
        &mut self.i
    }
    fn push(&mut self, elem: &Spec) {
        match elem {
            Ok(v) => self.v.push(*v),
            Err(sym) => self.v.push_scalar(affine(sym)),
        }
    }
}

impl Fixture for Pair {
    fn template() -> Pair {
        Pair {
            i: SymInt::new(0),
            u: SymVector::new(),
            e: SymEnum::new(12, 0),
            s: SymVector::new(),
        }
    }
    fn cells(&self) -> Vec<usize> {
        vec![self.u.cells(), self.s.cells()]
    }
    fn int(&mut self) -> &mut SymInt {
        &mut self.i
    }
    fn push(&mut self, elem: &Spec) {
        match elem {
            Ok(v) => {
                self.u.push(*v as u32);
                self.s.push(v.to_string());
            }
            Err(sym) => {
                self.u.push_scalar(affine(sym));
                self.s.push(format!("{sym:?}"));
            }
        }
    }
}

/// Wire tier ≡ owned tier: `apply_encoded_chain` over `bytes` from `start`
/// must return what `SummaryChain::decode` followed by `apply_chain`
/// returns — the same final state (compared through its encoding) or the
/// same error, a wire error outranking every other — and leave the cursor
/// where the owned decoder leaves it. `scratch` arrives holding whatever an
/// earlier call left in it.
fn assert_tiers_agree<S: Fixture>(
    bytes: &[u8],
    start: &S,
    scratch: &mut WireScratch<S>,
) -> Result<(), TestCaseError> {
    let encoded = |s: S| Summary::singleton(s).to_bytes();
    let mut owned_rd = bytes;
    let decoded = SummaryChain::decode(&S::template(), &mut owned_rd);
    let consumed = bytes.len() - owned_rd.len();
    // The allocation ceiling: whatever lengths the bytes claim, a decoded
    // vector is chained from no more cells than bytes were read (+ 1).
    for path in decoded
        .iter()
        .flat_map(|c| c.summaries())
        .flat_map(|s| s.paths())
    {
        for cells in path.cells() {
            prop_assert!(cells <= consumed + 1);
        }
    }
    let owned = decoded
        .map_err(Error::Wire)
        .and_then(|chain| apply_chain(&chain, start));
    let mut wire_rd = bytes;
    let mut state = start.clone();
    let applied = apply_encoded_chain(scratch, &mut wire_rd, &mut state);
    let consumed = bytes.len() - wire_rd.len();
    for (cells, before) in state.cells().into_iter().zip(start.cells()) {
        prop_assert!(cells <= before + consumed + 1);
    }
    let wire = applied.map(|()| state);
    prop_assert_eq!(wire.map(encoded), owned.map(encoded));
    prop_assert_eq!(wire_rd, owned_rd);
    Ok(())
}

/// Memo tier ≡ wire tier ≡ owned tier: `memo.apply` over `bytes` from
/// `start` — a parse the first time the memo meets `bytes`, a replay of
/// that parse after — must return what `apply_encoded_chain` and
/// `SummaryChain::decode` followed by `apply_chain` return (the final state
/// through its encoding, or the same error) and leave the cursor where they
/// leave it. `scratch` and `memo` arrive as earlier calls left them.
fn assert_memo_agrees<S: Fixture>(
    bytes: &[u8],
    start: &S,
    scratch: &mut WireScratch<S>,
    memo: &mut ChainMemo<S>,
) -> Result<(), TestCaseError> {
    let encoded = |s: S| Summary::singleton(s).to_bytes();
    let mut owned_rd = bytes;
    let owned = SummaryChain::decode(&S::template(), &mut owned_rd)
        .map_err(Error::Wire)
        .and_then(|chain| apply_chain(&chain, start))
        .map(encoded);
    let mut wire_rd = bytes;
    let mut state = start.clone();
    let wire = apply_encoded_chain(scratch, &mut wire_rd, &mut state).map(|()| encoded(state));
    let mut memo_rd = bytes;
    let mut state = start.clone();
    let memoized = memo
        .apply(scratch, &mut memo_rd, &mut state)
        .map(|()| encoded(state));
    prop_assert_eq!(&wire, &owned);
    prop_assert_eq!(wire_rd, owned_rd);
    prop_assert_eq!(memoized, owned);
    prop_assert_eq!(memo_rd, owned_rd);
    Ok(())
}

/// A pool of chains that the memo property applies again and again: for
/// each hand-built chain (see [`built_chain`]) and each real chain of `uda`
/// over one of `cells`, the chain itself, a byte-flipped copy, its first
/// half, and the chain followed by a stray byte.
fn chain_pool<U>(
    uda: &U,
    built: &[Vec<BuiltSummary>],
    common: &[Spec],
    cells: &[Vec<i64>],
    flips: &[(usize, u8)],
) -> Vec<Vec<u8>>
where
    U: Uda<Event = i64>,
    U::State: Fixture,
{
    let real = cells.iter().map(|events| {
        let mut exec = SymbolicExecutor::new(uda, EngineConfig::default());
        exec.feed_all(events.iter()).unwrap();
        exec.finish().0.to_bytes()
    });
    let built = built.iter().map(|b| built_chain::<U::State>(b, common));
    let mut pool = Vec::new();
    for chain in built.chain(real) {
        let mut flipped = chain.clone();
        for &(at, xor) in flips {
            let i = at % flipped.len();
            flipped[i] ^= xor;
        }
        let cut = chain[..chain.len() / 2].to_vec();
        let trailing = [chain.as_slice(), &[0]].concat();
        pool.extend([chain, flipped, cut, trailing]);
    }
    pool
}

/// The body of `memo_apply_matches_the_tiers_on_repeated_chains` for any
/// fixture: the pool's chains applied as `order` picks them — a chain and
/// a running state, so that each chain repeats, intact or not, under
/// states it holds under, fails under and is ruled out by — through one
/// memo. The running states have their integer at one of `xs`, or are
/// the state `prefix` ends in.
fn memo_agrees_on_repeated_chains<U>(
    uda: &U,
    pool: &[Vec<u8>],
    xs: &[i64],
    prefix: &[i64],
    order: &[(usize, usize)],
) -> Result<(), TestCaseError>
where
    U: Uda<Event = i64>,
    U::State: Fixture,
{
    let mut starts = vec![run_concrete_state(uda, prefix.iter()).unwrap()];
    starts.extend(xs.iter().map(|&x| {
        let mut start = U::State::template();
        *start.int() = SymInt::new(x);
        start
    }));
    let mut scratch = WireScratch::new(&U::State::template());
    let mut memo = ChainMemo::new();
    for &(chain, start) in order {
        let (chain, start) = (&pool[chain % pool.len()], &starts[start % starts.len()]);
        assert_memo_agrees(chain, start, &mut scratch, &mut memo)?;
    }
    // Every chain of at most 64 bytes was memoized, and no other.
    let short = order.iter().map(|&(chain, _)| &pool[chain % pool.len()]);
    let short: std::collections::HashSet<_> = short.filter(|c| c.len() <= 64).collect();
    prop_assert_eq!(memo.len(), short.len());
    Ok(())
}

/// The body of `wire_apply_matches_owned_on_real_and_mutated_chains` for
/// any fixture: a real chain of `uda` over `events`, applied intact and
/// then byte-flipped and truncated, from the initial state and from the
/// state `prefix` ends in.
fn tiers_agree_on_real_and_mutated<U>(
    uda: &U,
    events: &[i64],
    prefix: &[i64],
    flips: &[(usize, u8)],
    cut: usize,
) -> Result<(), TestCaseError>
where
    U: Uda<Event = i64>,
    U::State: Fixture,
{
    let (chain, _) = {
        let mut exec = SymbolicExecutor::new(uda, EngineConfig::default());
        exec.feed_all(events.iter()).unwrap();
        exec.finish()
    };
    let mut buf = chain.to_bytes();
    let mut scratch = WireScratch::new(&U::State::template());
    let starts = [
        U::State::template(),
        run_concrete_state(uda, prefix.iter()).unwrap(),
    ];
    for start in &starts {
        assert_tiers_agree(&buf, start, &mut scratch)?;
    }
    for &(at, xor) in flips {
        let i = at % buf.len();
        buf[i] ^= xor;
    }
    if cut.is_multiple_of(2) {
        buf.truncate(cut / 2 % (buf.len() + 1));
    }
    for start in &starts {
        assert_tiers_agree(&buf, start, &mut scratch)?;
    }
    Ok(())
}

/// A chain of hand-built summaries over `S`: in each, path `j` holds for
/// `int` in `lo..=lo + len` (so a summary may have no path, one, or two
/// that hold), leaves `int` as it was, and appends its own elements and
/// then `common`, which the encoder writes once and sibling paths refer
/// back to. Applied from `int = x`, with elements that reference fields
/// with no transfer, overflow, or (as a `u32`) leave their type's range.
fn tiers_agree_on_built_chain<S: Fixture>(
    summaries: &[BuiltSummary],
    common: &[Spec],
    x: i64,
) -> Result<(), TestCaseError> {
    let mut start = S::template();
    *start.int() = SymInt::new(x);
    assert_tiers_agree(
        &built_chain::<S>(summaries, common),
        &start,
        &mut WireScratch::new(&S::template()),
    )
}

/// The bytes of `tiers_agree_on_built_chain`'s chain.
fn built_chain<S: Fixture>(summaries: &[BuiltSummary], common: &[Spec]) -> Vec<u8> {
    let path = |(lo, len, own): &(i64, i64, Vec<Spec>)| {
        let mut s = S::template();
        make_state_symbolic(&mut s);
        assert!(s.int().ge(&mut SymCtx::symbolic(), *lo));
        assert!(s.int().le(&mut SymCtx::symbolic(), lo + len));
        own.iter().chain(common).for_each(|e| s.push(e));
        s
    };
    SummaryChain::new(
        (summaries.iter())
            .map(|paths| Summary::new(paths.iter().map(path).collect()))
            .collect(),
    )
    .to_bytes()
}

/// … and over arbitrary byte soup.
fn tiers_agree_on_byte_soup<U>(uda: &U, bytes: &[u8], prefix: &[i64]) -> Result<(), TestCaseError>
where
    U: Uda<Event = i64>,
    U::State: Fixture,
{
    let mut scratch = WireScratch::new(&U::State::template());
    for start in [
        U::State::template(),
        run_concrete_state(uda, prefix.iter()).unwrap(),
    ] {
        assert_tiers_agree(bytes, &start, &mut scratch)?;
    }
    Ok(())
}

#[test]
fn real_chains_carry_tail_back_references() {
    // What the mutation test below feeds on: sibling paths whose vectors
    // end alike, written once. Re-encoding every path on its own (a chain
    // of singleton summaries) is what v2 would cost without them.
    let mut exec = SymbolicExecutor::new(&K, EngineConfig::default());
    exec.feed_all([3i64, 9, 4, 4, 7].iter()).unwrap();
    let (chain, _) = exec.finish();
    let shared = chain.to_bytes().len();
    let apart: usize = chain
        .summaries()
        .iter()
        .flat_map(|s| s.paths())
        .map(|p| Summary::singleton(p.clone()).to_bytes().len() - 1)
        .sum();
    assert!(chain.total_paths() >= 4);
    assert!(shared < apart, "{shared} vs {apart}");
}

#[test]
fn hostile_back_references_are_typed_errors() {
    #[derive(Clone, Debug)]
    struct Out {
        v: SymVector<i64>,
    }
    impl_sym_state!(Out { v });
    let t = Out {
        v: SymVector::new(),
    };
    let decode = |bytes: &[u8]| Summary::<Out>::decode(&t, &mut &bytes[..]).map(|s| s.len());
    // Two paths; the second repeats the first's two elements by reference.
    assert_eq!(decode(&[2, 2, 4, 10, 12, 1, 2]), Ok(2));
    // … asks for three of its two elements.
    assert_eq!(
        decode(&[2, 2, 4, 10, 12, 1, 3]),
        Err(WireError::BackReference {
            len: 3,
            available: 2
        })
    );
    // A back-reference in the first path of a summary.
    assert_eq!(
        decode(&[1, 1, 1]),
        Err(WireError::BackReference {
            len: 1,
            available: 0
        })
    );
    // The previous path is the previous path of *this* summary: a chain's
    // second summary starts afresh.
    let chain = [2, 1, 2, 4, 10, 12, 1, 1, 2];
    assert_eq!(
        SummaryChain::<Out>::decode(&t, &mut &chain[..]).map(|c| c.len()),
        Err(WireError::BackReference {
            len: 2,
            available: 0
        })
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary byte soup: decode must return (Ok or Err), never panic.
    #[test]
    fn summary_decode_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let t = template();
        let mut rd = &bytes[..];
        let _ = SummaryChain::<Kitchen>::decode(&t, &mut rd);
    }

    /// Primitive decoders on byte soup.
    #[test]
    fn primitive_decoders_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..64)) {
        let mut rd = &bytes[..];
        let _ = u64::decode(&mut rd);
        let mut rd = &bytes[..];
        let _ = i64::decode(&mut rd);
        let mut rd = &bytes[..];
        let _ = String::decode(&mut rd);
        let mut rd = &bytes[..];
        let _ = Vec::<i64>::decode(&mut rd);
        let mut rd = &bytes[..];
        let _ = Option::<(u32, bool)>::decode(&mut rd);
    }

    /// Byte mutations and truncations of real multi-path v2 chains —
    /// flag bytes, run headers and tail back-references included: decode
    /// either fails with an error or yields something that re-encodes
    /// deterministically.
    #[test]
    fn mutated_valid_encodings_stay_safe(
        events in prop::collection::vec(-3i64..13, 2..9),
        flips in prop::collection::vec((any::<usize>(), 1u8..=255), 1..4),
        cut in any::<usize>(),
    ) {
        let (chain, _) = {
            let mut exec = SymbolicExecutor::new(&K, EngineConfig::default());
            exec.feed_all(events.iter()).unwrap();
            exec.finish()
        };
        prop_assert!(chain.total_paths() >= 2, "fixture must fork");
        let mut buf = Vec::new();
        chain.encode(&mut buf);
        for (at, xor) in flips {
            let i = at % buf.len();
            buf[i] ^= xor;
        }
        // Half the cases also lose their tail.
        if cut % 2 == 0 {
            buf.truncate(cut / 2 % (buf.len() + 1));
        }
        let t = template();
        let mut rd = &buf[..];
        if let Ok(decoded) = SummaryChain::<Kitchen>::decode(&t, &mut rd) {
            let mut re = Vec::new();
            decoded.encode(&mut re);
            let mut rd2 = &re[..];
            let again = SummaryChain::<Kitchen>::decode(&t, &mut rd2)
                .expect("re-encoded output must decode");
            prop_assert!(rd2.is_empty());
            let mut re2 = Vec::new();
            again.encode(&mut re2);
            prop_assert_eq!(re, re2, "encode∘decode must be idempotent");
        }
    }

    /// Wire tier ≡ owned tier over chains from real executions, intact
    /// (no flip, no cut) or byte-flipped and truncated, applied to the
    /// initial state and to states real executions end in, through scratch
    /// states the previous application left dirty.
    #[test]
    fn wire_apply_matches_owned_on_real_and_mutated_chains(
        events in prop::collection::vec(-3i64..13, 2..9),
        prefix in prop::collection::vec(-3i64..13, 0..7),
        flips in prop::collection::vec((any::<usize>(), 1u8..=255), 0..4),
        cut in any::<usize>(),
    ) {
        let (chain, _) = {
            let mut exec = SymbolicExecutor::new(&K, EngineConfig::default());
            exec.feed_all(events.iter()).unwrap();
            exec.finish()
        };
        let mut buf = chain.to_bytes();
        let mut scratch = WireScratch::new(&template());
        let starts = [template(), run_concrete_state(&K, prefix.iter()).unwrap()];
        for start in &starts {
            assert_tiers_agree(&buf, start, &mut scratch)?;
        }
        for (at, xor) in flips {
            let i = at % buf.len();
            buf[i] ^= xor;
        }
        if cut % 2 == 0 {
            buf.truncate(cut / 2 % (buf.len() + 1));
        }
        for start in &starts {
            assert_tiers_agree(&buf, start, &mut scratch)?;
        }
    }

    /// … and over arbitrary byte soup.
    #[test]
    fn wire_apply_matches_owned_on_byte_soup(
        bytes in prop::collection::vec(any::<u8>(), 0..256),
        prefix in prop::collection::vec(-3i64..13, 0..7),
    ) {
        let mut scratch = WireScratch::new(&template());
        for start in [template(), run_concrete_state(&K, prefix.iter()).unwrap()] {
            assert_tiers_agree(&bytes, &start, &mut scratch)?;
        }
    }

    /// Field order, on real and mutated chains: the vector declared before
    /// the scalars …
    #[test]
    fn wire_apply_matches_owned_with_the_vector_first(
        events in prop::collection::vec(-3i64..13, 2..9),
        prefix in prop::collection::vec(-3i64..13, 0..7),
        flips in prop::collection::vec((any::<usize>(), 1u8..=255), 0..4),
        cut in any::<usize>(),
    ) {
        tiers_agree_on_real_and_mutated(&F, &events, &prefix, &flips, cut)?;
    }

    /// … and two vectors, one of them of strings.
    #[test]
    fn wire_apply_matches_owned_with_two_vectors(
        events in prop::collection::vec(-3i64..13, 2..9),
        prefix in prop::collection::vec(-3i64..13, 0..7),
        flips in prop::collection::vec((any::<usize>(), 1u8..=255), 0..4),
        cut in any::<usize>(),
    ) {
        tiers_agree_on_real_and_mutated(&P, &events, &prefix, &flips, cut)?;
    }

    /// Both field orders over arbitrary byte soup.
    #[test]
    fn wire_apply_matches_owned_on_byte_soup_in_any_field_order(
        bytes in prop::collection::vec(any::<u8>(), 0..256),
        prefix in prop::collection::vec(-3i64..13, 0..7),
    ) {
        tiers_agree_on_byte_soup(&F, &bytes, &prefix)?;
        tiers_agree_on_byte_soup(&P, &bytes, &prefix)?;
    }

    /// Aggregate errors keep their place in path order: hand-built chains
    /// whose vectors fail to substitute on paths that hold, on paths the
    /// scalars rule out, and in elements a sibling refers back to, over
    /// all three field orders.
    #[test]
    fn wire_apply_matches_owned_on_aggregate_errors(
        summaries in prop::collection::vec(
            prop::collection::vec((-3i64..3, 0i64..3, prop::collection::vec(spec(), 0..4)), 1..5),
            1..3,
        ),
        common in prop::collection::vec(spec(), 0..4),
        x in prop_oneof![-4i64..6, Just(1i64 << 40)],
    ) {
        tiers_agree_on_built_chain::<Kitchen>(&summaries, &common, x)?;
        tiers_agree_on_built_chain::<Front>(&summaries, &common, x)?;
        tiers_agree_on_built_chain::<Pair>(&summaries, &common, x)?;
    }

    /// Memo tier ≡ wire tier ≡ owned tier on chains that repeat: short
    /// hand-built ones whose aggregate errors depend on the running state,
    /// and real ones, each also byte-flipped, cut short and trailed by a
    /// stray byte, over all three field orders.
    #[test]
    fn memo_apply_matches_the_tiers_on_repeated_chains(
        built in prop::collection::vec(
            prop::collection::vec(
                prop::collection::vec((-3i64..3, 0i64..3, prop::collection::vec(spec(), 0..3)), 1..3),
                1..3,
            ),
            1..4,
        ),
        common in prop::collection::vec(spec(), 0..2),
        cells in prop::collection::vec(prop::collection::vec(-3i64..13, 1..4), 0..2),
        flips in prop::collection::vec((any::<usize>(), 1u8..=255), 1..3),
        xs in prop::collection::vec(prop_oneof![-4i64..6, Just(1i64 << 40)], 1..4),
        prefix in prop::collection::vec(-3i64..13, 0..7),
        order in prop::collection::vec((any::<usize>(), any::<usize>()), 1..32),
    ) {
        let pool = chain_pool(&K, &built, &common, &cells, &flips);
        memo_agrees_on_repeated_chains(&K, &pool, &xs, &prefix, &order)?;
        let pool = chain_pool(&F, &built, &common, &cells, &flips);
        memo_agrees_on_repeated_chains(&F, &pool, &xs, &prefix, &order)?;
        let pool = chain_pool(&P, &built, &common, &cells, &flips);
        memo_agrees_on_repeated_chains(&P, &pool, &xs, &prefix, &order)?;
    }

    /// The key types that do travel the wire — a `String` and a composite
    /// `(u64, String, bool)` — over arbitrary bytes and over valid encodings
    /// cut short and corrupted in one byte: decode returns `Ok` with the
    /// cursor a suffix of the buffer, or a typed [`WireError`]; never a panic.
    #[test]
    fn key_decode_is_total_on_hostile_bytes(
        soup in prop::collection::vec(any::<u8>(), 0..256),
        payload in prop::collection::vec(any::<u8>(), 0..64),
        n in any::<u64>(),
        flag in any::<bool>(),
        cut in 0usize..320,
        at in 0usize..320,
        xor in 0u8..=255,
    ) {
        fn decode_stays_inside<T: Wire>(buf: &[u8]) -> Result<(), TestCaseError> {
            let mut rd = buf;
            let decoded: Result<T, WireError> = T::decode(&mut rd);
            if decoded.is_ok() {
                prop_assert!(rd.len() <= buf.len());
                prop_assert!(std::ptr::eq(rd, &buf[buf.len() - rd.len()..]));
            }
            Ok(())
        }
        let s = String::from_utf8_lossy(&payload).into_owned();
        for mut buf in [soup, s.to_wire(), (n, s, flag).to_wire()] {
            if at < buf.len() {
                buf[at] ^= xor; // the length, the payload, or (xor = 0) nothing
            }
            buf.truncate(cut); // about half the cases lose a tail
            decode_stays_inside::<String>(&buf)?;
            decode_stays_inside::<(u64, String, bool)>(&buf)?;
        }
    }
}

fn spec() -> impl Strategy<Value = Spec> {
    let coeff = || prop_oneof![-3i64..4, any::<i64>()];
    prop_oneof![
        (0i64..1000).prop_map(Ok),
        (0u16..6, coeff(), coeff()).prop_map(Err),
    ]
}
