//! A multi-stage query plan (the paper's §8 future work): stage 1 runs
//! B3 ("number of queries in a session per user"), stage 2 re-groups the
//! per-user session lengths into a global histogram — both stages
//! parallelized by SYMPLE. The plan is two `run_symple` calls: stage 1's
//! `(user, lengths)` rows, already ordered by key, are re-segmented as
//! stage 2's input records.
//!
//! ```text
//! cargo run --example session_histogram --release
//! ```

use symple::core::prelude::*;
use symple::datagen::{generate_bing, raw_sizes, BingConfig};
use symple::mapreduce::segment::split_into_segments;
use symple::mapreduce::{run_symple, GroupBy, JobConfig};
use symple::queries::bing_q::{B3Group, B3Uda};

/// Stage 2 groupby: fan each user's session-length list out into
/// per-length events.
struct ByLength;
impl GroupBy for ByLength {
    type Record = (u64, Vec<i64>); // stage 1's (user, session lengths)
    type Key = i64;
    type Event = ();
    fn extract(&self, _r: &Self::Record) -> Option<(i64, ())> {
        None // fan-out only
    }
    fn extract_all(&self, r: &Self::Record, out: &mut Vec<(i64, ())>) {
        out.extend(r.1.iter().map(|len| (*len, ())));
    }
}

/// Stage 2 UDA: plain counting.
struct CountUda;
#[derive(Clone, Debug)]
struct CountState {
    n: SymInt,
}
symple::core::impl_sym_state!(CountState { n });
impl Uda for CountUda {
    type State = CountState;
    type Event = ();
    type Output = i64;
    fn init(&self) -> CountState {
        CountState { n: SymInt::new(0) }
    }
    fn update(&self, s: &mut CountState, _ctx: &mut SymCtx, _e: &()) {
        s.n += 1;
    }
    fn result(&self, s: &CountState, _ctx: &mut SymCtx) -> i64 {
        s.n.concrete_value().expect("concrete")
    }
}

fn main() {
    let records = generate_bing(&BingConfig {
        num_records: 150_000,
        num_users: 2_000,
        ..BingConfig::default()
    });
    println!(
        "stage 1: B3 sessionization of {} queries over 2000 users",
        records.len()
    );

    let segments = split_into_segments(&records, 8, raw_sizes::BING);
    let cfg = JobConfig::default();
    let stage1 = run_symple(&B3Group, &B3Uda, &segments, &cfg).expect("stage 1");
    let rows = split_into_segments(&stage1.results, cfg.map_workers, 64);
    let out = run_symple(&ByLength, &CountUda, &rows, &cfg).expect("stage 2");

    println!(
        "stage 2: histogram of session lengths ({} buckets)\n",
        out.results.len()
    );
    let max = out.results.iter().map(|(_, c)| *c).max().unwrap_or(1);
    for (len, count) in out.results.iter().take(20) {
        let bar = "█".repeat(((count * 40) / max.max(1)) as usize);
        println!("  {len:>4} queries/session: {count:>6} {bar}");
    }
    if out.results.len() > 20 {
        println!("  … {} longer buckets elided", out.results.len() - 20);
    }
    println!(
        "\nstage 1: {} input records, {} shuffle bytes, {} symbolic runs",
        stage1.metrics.input_records, stage1.metrics.shuffle_bytes, stage1.metrics.explore.runs
    );
    println!(
        "stage 2: {} user rows, {} shuffle bytes, {} symbolic runs",
        stage1.results.len(),
        out.metrics.shuffle_bytes,
        out.metrics.explore.runs
    );
}
