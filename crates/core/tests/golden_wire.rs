//! Golden-file tests for the summary wire format: one encoded
//! [`SummaryChain`] per symbolic type family, with the exact bytes
//! checked in under `tests/golden/*.hex`.
//!
//! The wire format is a compatibility surface — map outputs produced by
//! one build are decoded by another — so format changes must be loud and
//! deliberate. If an encoding change is intentional, regenerate with:
//!
//! ```text
//! REGEN_GOLDEN=1 cargo test -p symple-core --test golden_wire
//! ```
//!
//! and commit the updated `.hex` files alongside the change.
//!
//! The files hold **summary wire v2** (a flag byte per field, no per-path
//! field count, run-tagged vector elements, tail back-references between
//! the paths of one summary). v1 bytes do not decode: the break was
//! deliberate, nothing reads v1, and stored frames carry
//! `FRAME_VERSION` 2 so a v1 frame is refused and recomputed.

use symple_core::compose::apply_chain;
use symple_core::engine::EngineConfig;
use symple_core::impl_sym_state;
use symple_core::prelude::*;
use symple_core::summary::SummaryChain;
use symple_core::types::sym_enum::SymEnum;
use symple_core::types::sym_minmax::{Extremum, SymMinMax};
use symple_core::uda::{extract_result, summarize_chunk, Uda};

fn to_hex(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        s.push_str(&format!("{b:02x}"));
    }
    s
}

fn from_hex(hex: &str) -> Vec<u8> {
    let hex = hex.trim();
    assert!(hex.len().is_multiple_of(2), "odd hex length");
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
        .collect()
}

/// Encodes the chain a UDA produces for `events`, checks it against the
/// checked-in golden bytes, and proves the golden bytes decode to a chain
/// with identical semantics (same result from the initial state) and a
/// byte-identical re-encoding.
fn check_golden<U: Uda>(uda: &U, events: &[U::Event], golden_hex: &str, name: &str)
where
    U::Output: std::fmt::Debug + PartialEq,
{
    let chain = summarize_chunk(uda, events.iter(), &EngineConfig::default()).unwrap();
    let mut bytes = Vec::new();
    chain.encode(&mut bytes);

    if std::env::var_os("REGEN_GOLDEN").is_some() {
        let path = format!("{}/tests/golden/{name}.hex", env!("CARGO_MANIFEST_DIR"));
        std::fs::write(&path, format!("{}\n", to_hex(&bytes))).unwrap();
        return;
    }

    assert_eq!(
        to_hex(&bytes),
        golden_hex.trim(),
        "{name}: wire encoding changed — if intentional, regenerate with \
         REGEN_GOLDEN=1 and commit the new golden file"
    );

    // The golden bytes decode, apply identically, and re-encode
    // canonically.
    let template = uda.init();
    let golden_bytes = from_hex(golden_hex);
    let mut rd = &golden_bytes[..];
    let decoded = SummaryChain::<U::State>::decode(&template, &mut rd).unwrap();
    assert!(rd.is_empty(), "{name}: trailing bytes after decode");
    let run = |c: &SummaryChain<U::State>| {
        extract_result(uda, &apply_chain(c, &uda.init()).unwrap()).unwrap()
    };
    assert_eq!(
        run(&decoded),
        run(&chain),
        "{name}: decoded chain behaves differently"
    );
    let mut re = Vec::new();
    decoded.encode(&mut re);
    assert_eq!(re, golden_bytes, "{name}: re-encoding not canonical");
}

// ---------------------------------------------------------------- SymInt

struct IntUda;
#[derive(Clone, Debug)]
struct IntState {
    sum: SymInt,
}
impl_sym_state!(IntState { sum });
impl Uda for IntUda {
    type State = IntState;
    type Event = i64;
    type Output = i64;
    fn init(&self) -> IntState {
        IntState {
            sum: SymInt::new(0),
        }
    }
    fn update(&self, s: &mut IntState, ctx: &mut SymCtx, e: &i64) {
        s.sum.add(ctx, *e);
        if s.sum.gt(ctx, 100) {
            s.sum.assign(0);
        }
    }
    fn result(&self, s: &IntState, _ctx: &mut SymCtx) -> i64 {
        s.sum.concrete_value().unwrap_or(-1)
    }
}

#[test]
fn golden_sym_int() {
    check_golden(
        &IntUda,
        &[40, 50, 7, -3],
        include_str!("golden/sym_int.hex"),
        "sym_int",
    );
}

// --------------------------------------------------------------- SymBool

struct BoolUda;
#[derive(Clone, Debug)]
struct BoolState {
    all_even: SymBool,
}
impl_sym_state!(BoolState { all_even });
impl Uda for BoolUda {
    type State = BoolState;
    type Event = i64;
    type Output = bool;
    fn init(&self) -> BoolState {
        BoolState {
            all_even: SymBool::new(true),
        }
    }
    fn update(&self, s: &mut BoolState, _ctx: &mut SymCtx, e: &i64) {
        if e % 2 != 0 {
            s.all_even.assign(false);
        }
    }
    fn result(&self, s: &BoolState, _ctx: &mut SymCtx) -> bool {
        s.all_even.concrete_value().unwrap_or(false)
    }
}

#[test]
fn golden_sym_bool() {
    check_golden(
        &BoolUda,
        &[2, 4, 6, 8],
        include_str!("golden/sym_bool.hex"),
        "sym_bool",
    );
}

// --------------------------------------------------------------- SymEnum

struct EnumUda;
#[derive(Clone, Debug)]
struct EnumState {
    mode: SymEnum,
}
impl_sym_state!(EnumState { mode });
impl Uda for EnumUda {
    type State = EnumState;
    type Event = i64;
    type Output = u32;
    fn init(&self) -> EnumState {
        EnumState {
            mode: SymEnum::new(4, 0),
        }
    }
    fn update(&self, s: &mut EnumState, ctx: &mut SymCtx, e: &i64) {
        let shift = (*e % 4) as u32;
        s.mode.map_transition(ctx, |m| (m + shift) % 4);
    }
    fn result(&self, s: &EnumState, _ctx: &mut SymCtx) -> u32 {
        s.mode.concrete_value().unwrap_or(u32::MAX)
    }
}

#[test]
fn golden_sym_enum() {
    check_golden(
        &EnumUda,
        &[1, 2, 3],
        include_str!("golden/sym_enum.hex"),
        "sym_enum",
    );
}

// ------------------------------------------------------------- SymMinMax

struct MaxUda;
#[derive(Clone, Debug)]
struct MaxState {
    max: SymMinMax,
}
impl_sym_state!(MaxState { max });
impl Uda for MaxUda {
    type State = MaxState;
    type Event = i64;
    type Output = i64;
    fn init(&self) -> MaxState {
        MaxState {
            max: SymMinMax::new(Extremum::Max),
        }
    }
    fn update(&self, s: &mut MaxState, _ctx: &mut SymCtx, e: &i64) {
        s.max.update(*e);
    }
    fn result(&self, s: &MaxState, _ctx: &mut SymCtx) -> i64 {
        s.max.concrete_value().unwrap_or(i64::MIN)
    }
}

#[test]
fn golden_sym_minmax() {
    check_golden(
        &MaxUda,
        &[3, 99, -20, 41],
        include_str!("golden/sym_minmax.hex"),
        "sym_minmax",
    );
}

// --------------------------------------------------------------- SymPred

struct PredUda;
#[derive(Clone, Debug)]
struct PredState {
    p: SymPred<i64>,
    hits: SymInt,
}
impl_sym_state!(PredState { p, hits });
impl Uda for PredUda {
    type State = PredState;
    type Event = i64;
    type Output = i64;
    fn init(&self) -> PredState {
        PredState {
            p: SymPred::new(|a: &i64, b: &i64| a < b).with_max_decisions(16),
            hits: SymInt::new(0),
        }
    }
    fn update(&self, s: &mut PredState, ctx: &mut SymCtx, e: &i64) {
        if s.p.eval(ctx, e) {
            s.hits.add(ctx, 1);
        }
        if *e > 10 {
            s.p.set(*e);
        }
    }
    fn result(&self, s: &PredState, _ctx: &mut SymCtx) -> i64 {
        s.hits.concrete_value().unwrap_or(-1)
    }
}

#[test]
fn golden_sym_pred() {
    check_golden(
        &PredUda,
        &[5, 20, 7],
        include_str!("golden/sym_pred.hex"),
        "sym_pred",
    );
}

// ------------------------------------------------------------- SymVector

struct VecUda;
#[derive(Clone, Debug)]
struct VecState {
    n: SymInt,
    out: SymVector<i64>,
}
impl_sym_state!(VecState { n, out });
impl Uda for VecUda {
    type State = VecState;
    type Event = i64;
    type Output = Vec<i64>;
    fn init(&self) -> VecState {
        VecState {
            n: SymInt::new(0),
            out: SymVector::new(),
        }
    }
    fn update(&self, s: &mut VecState, ctx: &mut SymCtx, e: &i64) {
        s.n.add(ctx, *e);
        if s.n.gt(ctx, 5) {
            s.out.push_int(&s.n);
            s.n.assign(0);
        }
    }
    fn result(&self, s: &VecState, _ctx: &mut SymCtx) -> Vec<i64> {
        s.out.concrete_elems().unwrap_or_default()
    }
}

#[test]
fn golden_sym_vector() {
    check_golden(
        &VecUda,
        &[2, 2, 3, 1, 4, 2],
        include_str!("golden/sym_vector.hex"),
        "sym_vector",
    );
}
