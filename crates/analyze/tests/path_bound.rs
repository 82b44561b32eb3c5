//! Property test for the analyzer's soundness claim: for any stream built
//! from a UDA's analyzed event variants, the executor's observed live-path
//! peak never exceeds [`UdaAnalysis::predicted_max_live`].
//!
//! The claim rests on the analysis starting from the abstract "top" state,
//! so every runtime per-record path tree is a pruned subtree of the
//! analysis tree (see the soundness note in `symple_core::analysis`).
//! Here random streams and engine configs hammer that argument over the
//! paper UDAs with the richest path structure.

use proptest::prelude::*;

use symple_core::uda::Uda;
use symple_core::{analyze_uda, EngineConfig, MergePolicy, SymbolicExecutor, UdaAnalysis};
use symple_queries::bing_q::{b3_variants, B3Uda};
use symple_queries::funnel::{f1_variants, FunnelUda};
use symple_queries::github_q::{g4_variants, G4Uda};
use symple_queries::redshift_q::{r3_uda, r3_variants, r4_variants, R4Uda};
use symple_queries::twitter_q::{t1_variants, T1Uda};

/// The config grid the proptest draws from: bounds small enough to make
/// restarts and merges frequent, large enough that runs mostly succeed.
fn config(idx: usize) -> EngineConfig {
    let policies = [
        MergePolicy::Eager,
        MergePolicy::HighWater,
        MergePolicy::Never,
    ];
    let totals = [2usize, 4, 8, 64];
    let per_record = [64usize, 256, 1024];
    EngineConfig {
        merge_policy: policies[idx % 3],
        max_total_paths: totals[(idx / 3) % 4],
        max_paths_per_record: per_record[(idx / 12) % 3],
    }
}

/// Feeds `picks` (variant indices) to a fresh executor and checks the
/// observed peak against the analysis bound. A run the engine refuses is
/// skipped — the bound speaks about completed executions.
fn check_bound<U>(
    uda: &U,
    variants: &[(&'static str, U::Event)],
    analysis: &UdaAnalysis,
    picks: &[usize],
    cfg: EngineConfig,
) -> Result<(), TestCaseError>
where
    U: Uda,
    U::Output: std::fmt::Debug,
{
    let bound = analysis.predicted_max_live(&cfg);
    let mut exec = SymbolicExecutor::new(uda, cfg);
    for &p in picks {
        if exec.feed(&variants[p % variants.len()].1).is_err() {
            return Ok(());
        }
    }
    let (_, stats) = exec.finish();
    prop_assert!(
        stats.max_live_paths as u64 <= bound,
        "observed peak {} exceeds predicted bound {} under {:?}",
        stats.max_live_paths,
        bound,
        cfg
    );
    Ok(())
}

macro_rules! bound_prop {
    ($test:ident, $uda:expr, $variants:expr) => {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            #[test]
            fn $test(picks in prop::collection::vec(0usize..16, 0..60), cfg_idx in 0usize..36) {
                let uda = $uda;
                let variants = $variants;
                let analysis = analyze_uda(&uda, &variants);
                check_bound(&uda, &variants, &analysis, &picks, config(cfg_idx))?;
            }
        }
    };
}

bound_prop!(funnel_peak_within_bound, FunnelUda, f1_variants());
bound_prop!(t1_peak_within_bound, T1Uda, t1_variants());
bound_prop!(g4_peak_within_bound, G4Uda, g4_variants());
bound_prop!(b3_peak_within_bound, B3Uda, b3_variants());
bound_prop!(r3_peak_within_bound, r3_uda(), r3_variants());
bound_prop!(r4_peak_within_bound, R4Uda, r4_variants());
