//! Fuzz-style robustness tests for the wire format: decoding arbitrary or
//! mutated bytes must never panic, loop, or mis-decode into something a
//! re-encode doesn't reproduce.

use proptest::prelude::*;

use symple_core::compose::{apply_chain, apply_encoded_chain};
use symple_core::engine::{EngineConfig, SymbolicExecutor};
use symple_core::error::Error;
use symple_core::impl_sym_state;
use symple_core::summary::{Summary, SummaryChain};
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

/// Wire tier ≡ owned tier: `apply_encoded_chain` over `bytes` from `start`
/// must return what `SummaryChain::decode` followed by `apply_chain`
/// returns — the same final state (compared through its encoding) or the
/// same error, a wire error outranking every other — and leave the cursor
/// where the owned decoder leaves it. `scratch` arrives holding whatever an
/// earlier call left in it.
fn assert_tiers_agree(
    bytes: &[u8],
    start: &Kitchen,
    scratch: &mut [Kitchen; 3],
) -> Result<(), TestCaseError> {
    let encoded = |s: Kitchen| Summary::singleton(s).to_bytes();
    let mut owned_rd = bytes;
    let decoded = SummaryChain::decode(&template(), &mut owned_rd);
    let consumed = bytes.len() - owned_rd.len();
    // The allocation ceiling: whatever lengths the bytes claim, a decoded
    // vector is chained from no more cells than bytes were read (+ 1).
    for path in decoded
        .iter()
        .flat_map(|c| c.summaries())
        .flat_map(|s| s.paths())
    {
        prop_assert!(path.v.cells() <= consumed + 1);
    }
    let owned = decoded
        .map_err(Error::Wire)
        .and_then(|chain| apply_chain(&chain, start));
    let mut wire_rd = bytes;
    let mut state = start.clone();
    let applied = apply_encoded_chain(scratch, &mut wire_rd, &mut state);
    let consumed = bytes.len() - wire_rd.len();
    prop_assert!(state.v.cells() <= start.v.cells() + consumed + 1);
    let wire = applied.map(|()| state);
    prop_assert_eq!(wire.map(encoded), owned.map(encoded));
    prop_assert_eq!(wire_rd, owned_rd);
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
        let mut scratch = [template(), template(), template()];
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
        let mut scratch = [template(), template(), template()];
        for start in [template(), run_concrete_state(&K, prefix.iter()).unwrap()] {
            assert_tiers_agree(&bytes, &start, &mut scratch)?;
        }
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
