//! Extending SYMPLE with a user-defined symbolic data type (§4.5).
//!
//! `SymMinMax` gives running extrema their own canonical form
//! (`lb ≤ x ≤ ub ⇒ v = max(x, c)`), turning the branching `Max` UDA into a
//! zero-fork, single-path summary.
//!
//! ```text
//! cargo run --example custom_type
//! ```

use symple::core::prelude::*;
use symple::core::{Extremum, SymMinMax};

/// `Max` over the custom type: no `if`, no forks.
struct MaxUda;

#[derive(Clone, Debug)]
struct MaxState {
    max: SymMinMax,
}
symple::core::impl_sym_state!(MaxState { max });

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
        s.max.concrete_value().expect("concrete after composition")
    }
}

fn main() {
    let input: Vec<i64> = (0..100_000)
        .map(|i: i64| (i.wrapping_mul(2_654_435_761)) % 1_000_003)
        .collect();
    let uda = MaxUda;
    let seq = run_sequential(&uda, input.iter()).unwrap();
    let par = run_chunked_symbolic(&uda, &input, 16, &EngineConfig::default()).unwrap();
    assert_eq!(seq, par);
    println!("max over 100k values, 16 symbolic chunks: {par} (≡ sequential ✓)");

    let mut exec = SymbolicExecutor::new(&uda, EngineConfig::default());
    exec.feed_all(input[..10_000].iter()).unwrap();
    let (chain, stats) = exec.finish();
    println!(
        "one 10k-record chunk: {} path(s), {} fork(s), {}-byte summary",
        chain.total_paths(),
        stats.forks,
        chain.wire_len()
    );
    println!("  (the same UDA over a branching SymInt explores 2 paths and forks once per chunk)");
}
