//! The reducer's apply allocates nothing per summary but the output it
//! appends.
//!
//! `apply_encoded_chain` runs once per `(key, chunk)` cell at the reducer
//! (through the task's `ChainMemo` when the chain is short), and
//! `decode_field` / `compose_onto` (a scalar) or `skim_aggregate` (a
//! vector) once per field, per path, per summary inside it. Once its
//! `WireScratch` is warm, a chain whose paths carry no vector elements must
//! apply without touching the heap, and one whose holding path appends to
//! the running output must grow that list in place, a cell per 64
//! elements, whatever its ruled-out siblings hold. A counting global
//! allocator makes an allocating apply a failing test; it lives in its own
//! test binary so no other test shares it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use symple_core::compose::{apply_encoded_chain, ChainMemo, WireScratch};
use symple_core::engine::{EngineConfig, SymbolicExecutor};
use symple_core::impl_sym_state;
use symple_core::state::make_state_symbolic;
use symple_core::summary::{Summary, SummaryChain};
use symple_core::types::sym_minmax::{Extremum, SymMinMax};
use symple_core::types::{
    sym_bool::SymBool, sym_enum::SymEnum, sym_int::SymInt, sym_vector::SymVector,
};
use symple_core::uda::Uda;
use symple_core::SymCtx;

/// Counts the allocations of the thread that makes them, so the test
/// harness's own threads do not show up in a reading.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

#[derive(Clone, Debug)]
struct Mixed {
    i: SymInt,
    e: SymEnum,
    b: SymBool,
    m: SymMinMax,
    v: SymVector<i64>,
}
impl_sym_state!(Mixed { i, e, b, m, v });

/// T1's shape with every scalar type: a clean event (`0`) counts and
/// resets the run without a fork; a spam event (`1`) steps a saturating
/// six-state run through an equality chain, one path per state, and
/// raises the flag when the run completes. The vector is never written.
struct Runs;
impl Uda for Runs {
    type State = Mixed;
    type Event = i64;
    type Output = ();
    fn init(&self) -> Mixed {
        Mixed {
            i: SymInt::new(0),
            e: SymEnum::new(6, 0),
            b: SymBool::new(false),
            m: SymMinMax::new(Extremum::Max),
            v: SymVector::new(),
        }
    }
    fn update(&self, s: &mut Mixed, ctx: &mut SymCtx, e: &i64) {
        s.m.update(*e);
        if *e == 0 {
            s.i += 1;
            s.e.assign(ctx, 0);
            return;
        }
        for run in 0..5 {
            if s.e.eq_c(ctx, run) {
                s.e.assign(ctx, run + 1);
                if run == 4 {
                    s.b.assign(true);
                }
                return;
            }
        }
    }
    fn result(&self, _s: &Mixed, _ctx: &mut SymCtx) {}
}

fn chain_of(events: &[i64]) -> (Vec<u8>, usize) {
    let mut exec = SymbolicExecutor::new(&Runs, EngineConfig::default());
    exec.feed_all(events.iter()).unwrap();
    let (chain, _) = exec.finish();
    (chain.to_bytes(), chain.total_paths())
}

/// Allocations over `rounds` applies of `bytes` to a running state whose
/// run starts at `run`, after one apply has warmed the scratch states.
fn allocs_per_apply(bytes: &[u8], run: u32) -> f64 {
    let mut state = Runs.init();
    state.e.assign(&mut SymCtx::concrete(), run);
    let mut scratch = WireScratch::new(&Runs.init());
    apply_encoded_chain(&mut scratch, &mut &bytes[..], &mut state).unwrap();
    let rounds = 64;
    let before = allocs();
    for _ in 0..rounds {
        let mut rd = bytes;
        apply_encoded_chain(&mut scratch, &mut rd, &mut state).unwrap();
        assert!(rd.is_empty());
    }
    (allocs() - before) as f64 / f64::from(rounds)
}

#[test]
fn a_one_path_apply_allocates_nothing() {
    let (bytes, paths) = chain_of(&[0, 1, 0]);
    assert_eq!(paths, 1);
    assert_eq!(allocs_per_apply(&bytes, 3), 0.0);
    // One path whose run is written on the wire: the saturated one.
    let mut exec = SymbolicExecutor::new(&Runs, EngineConfig::default());
    exec.feed_all([1].iter()).unwrap();
    let (chain, _) = exec.finish();
    let saturated = chain.summaries()[0]
        .paths()
        .iter()
        .find(|p| p.e.constraint_set() == 1 << 5)
        .expect("a path for run 5");
    let bytes = SummaryChain::from(Summary::singleton(saturated.clone())).to_bytes();
    assert_eq!(allocs_per_apply(&bytes, 5), 0.0);
}

#[test]
fn a_six_path_apply_allocates_nothing() {
    // Five of the six paths are ruled out by the run's written set; which
    // one holds moves as the running state's run saturates.
    let (bytes, paths) = chain_of(&[1]);
    assert_eq!(paths, 6);
    for run in 0..6 {
        assert_eq!(allocs_per_apply(&bytes, run), 0.0, "run {run}");
    }
}

#[test]
fn a_memoized_one_path_apply_allocates_nothing() {
    // The first application parses the chain into the memo; every later
    // one replays that parse and composes it onto the running state.
    let (bytes, paths) = chain_of(&[0, 1, 0]);
    assert_eq!(paths, 1);
    let mut state = Runs.init();
    state.e.assign(&mut SymCtx::concrete(), 3);
    let mut scratch = WireScratch::new(&Runs.init());
    let mut memo = ChainMemo::new();
    memo.apply(&mut scratch, &mut &bytes[..], &mut state)
        .unwrap();
    assert_eq!(memo.len(), 1);
    let before = allocs();
    for _ in 0..64 {
        let mut rd = &bytes[..];
        memo.apply(&mut scratch, &mut rd, &mut state).unwrap();
        assert!(rd.is_empty());
    }
    assert_eq!(allocs() - before, 0);
    assert_eq!(state.i.concrete_value(), Some(2 * 65));
}

#[derive(Clone, Debug)]
struct Out {
    i: SymInt,
    v: SymVector<i64>,
}
impl_sym_state!(Out { i, v });

/// A path that holds for `i < 11` (`low`) or `i ≥ 11`, leaving `i` as it
/// was and appending `elems`.
fn out_path(low: bool, elems: &[i64]) -> Out {
    let mut s = Out {
        i: SymInt::new(0),
        v: SymVector::new(),
    };
    make_state_symbolic(&mut s);
    let mut ctx = SymCtx::symbolic();
    assert!(if low {
        s.i.lt(&mut ctx, 11)
    } else {
        s.i.ge(&mut ctx, 11)
    });
    for &e in elems {
        s.v.push(e);
    }
    s
}

#[test]
fn a_running_list_grows_in_place() {
    // The holding path appends three elements. Its ruled-out sibling
    // refers back to them (it comes after, ending in the same three), or
    // they to it (it comes first, ending in the same last two).
    let holding_first = Summary::new(vec![
        out_path(true, &[1, 2, 3]),
        out_path(false, &[9, 1, 2, 3]),
    ]);
    let holding_last = Summary::new(vec![
        out_path(false, &[9, 2, 3]),
        out_path(true, &[1, 2, 3]),
    ]);
    for summary in [holding_first, holding_last] {
        let apart: usize = (summary.paths().iter())
            .map(|p| Summary::singleton(p.clone()).to_bytes().len() - 1)
            .sum();
        let bytes = SummaryChain::from(summary).to_bytes();
        assert!(bytes.len() < 1 + 1 + apart, "a back-reference is written");
        let template = Out {
            i: SymInt::new(0),
            v: SymVector::new(),
        };
        let mut state = Out {
            i: SymInt::new(5),
            v: SymVector::new(),
        };
        let mut scratch = WireScratch::new(&template);
        apply_encoded_chain(&mut scratch, &mut &bytes[..], &mut state).unwrap();
        let n = 200;
        let before = allocs();
        for _ in 0..n {
            let mut rd = &bytes[..];
            apply_encoded_chain(&mut scratch, &mut rd, &mut state).unwrap();
            assert!(rd.is_empty());
        }
        let made = allocs() - before;
        // A cell is two allocations, the node and its element buffer.
        let cells = (3 * n as u64).div_ceil(64);
        assert!(made <= 2 * cells + 1, "{made} allocations for {n} applies");
        let elems = state.v.concrete_elems().unwrap();
        assert_eq!(elems.len(), 3 * (n + 1));
        assert!(elems.chunks(3).all(|c| c == [1, 2, 3]), "{:?}", &elems[..6]);
        assert!(state.v.cells() as u64 <= cells + 1, "{}", state.v.cells());
    }
}
