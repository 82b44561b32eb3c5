//! Property tests over the UDA generator and mutator: the fuzzer's whole
//! value rests on every generated program being well-typed, replayable
//! through its token, analyzable, and honestly compared against the
//! concrete reference — so each of those contracts gets a property here.

use proptest::prelude::*;

use symple_core::engine::{EngineConfig, MergePolicy, SymbolicExecutor};
use symple_core::rng::Rng64;
use symple_core::uda::{run_chunked_symbolic, run_sequential};
use symple_core::{analyze_uda, Error};
use symple_oracle::ast::{eval_concrete, AstUda, Program};
use symple_oracle::case::error_variant;
use symple_oracle::fuzz::{gen_program, mutate, GenConfig};
use symple_oracle::InputKind;

fn gen_from(seed: u64) -> Program {
    let mut rng = Rng64::seed_from_u64(seed);
    gen_program(&mut rng, &GenConfig::default())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Every generated program typechecks and survives a token
    /// round-trip byte-for-byte — the property the corpus artifacts and
    /// `--replay` depend on.
    #[test]
    fn generated_programs_typecheck_and_round_trip(seed in any::<u64>()) {
        let p = gen_from(seed);
        prop_assert!(p.typecheck().is_ok(), "{}", p.to_token());
        let token = p.to_token();
        let reparsed = Program::parse_token(&token);
        prop_assert!(reparsed.is_ok(), "unparseable token: {token}");
        prop_assert_eq!(&reparsed.unwrap(), &p);
    }

    /// The static analyzer is total over the generated space: it never
    /// panics, and both the refusal prediction and the live-path bound it
    /// reports are deterministic for a fixed program.
    #[test]
    fn analyzer_accepts_every_generated_program(seed in any::<u64>()) {
        let p = gen_from(seed);
        let uda = AstUda::new(p.clone());
        let variants = p.variants();
        prop_assert!(!variants.is_empty());
        let cfg = EngineConfig {
            max_paths_per_record: 1024,
            max_total_paths: 8,
            merge_policy: MergePolicy::HighWater,
        };
        let a = analyze_uda(&uda, &variants);
        let b = analyze_uda(&uda, &variants);
        prop_assert_eq!(
            a.predicts_refusal(&cfg),
            b.predicts_refusal(&cfg),
            "refusal prediction must be deterministic"
        );
        prop_assert_eq!(a.predicted_max_live(&cfg), b.predicted_max_live(&cfg));
    }

    /// `predicted_max_live` is what `--analyze-first` trusts to skip
    /// doomed cells; on streams built from the analyzed variants it must
    /// really bound the executor's observed live-path peak.
    #[test]
    fn predicted_max_live_bounds_observed_peak(seed in any::<u64>()) {
        let p = gen_from(seed);
        let uda = AstUda::new(p.clone());
        let variants = p.variants();
        let cfg = EngineConfig {
            max_paths_per_record: 1024,
            max_total_paths: 8,
            merge_policy: MergePolicy::HighWater,
        };
        let analysis = analyze_uda(&uda, &variants);
        if analysis.any_exploded() {
            return Ok(()); // bound is vacuous (u64::MAX)
        }
        let events: Vec<i64> = (0..24)
            .map(|i| variants[i % variants.len()].1)
            .collect();
        let mut ex = SymbolicExecutor::new(&uda, cfg);
        let _ = ex.feed_all(events.iter()); // refusals still report stats
        let peak = ex.stats().max_live_paths as u64;
        prop_assert!(
            peak <= analysis.predicted_max_live(&cfg),
            "observed {peak} live paths > predicted {} on {}",
            analysis.predicted_max_live(&cfg),
            p.to_token()
        );
    }

    /// Mutation preserves well-typedness through arbitrary chains, and
    /// the mutant's token still round-trips.
    #[test]
    fn mutation_preserves_well_typedness(seed in any::<u64>(), steps in 1usize..12) {
        let cfg = GenConfig::default();
        let mut rng = Rng64::seed_from_u64(seed);
        let mut p = gen_program(&mut rng, &cfg);
        for _ in 0..steps {
            p = mutate(&mut rng, &p, &cfg);
            prop_assert!(p.typecheck().is_ok(), "{}", p.to_token());
        }
        let reparsed = Program::parse_token(&p.to_token());
        prop_assert!(reparsed.is_ok());
        prop_assert_eq!(&reparsed.unwrap(), &p);
    }

    /// The concrete reference interpreter agrees with sequential UDA
    /// execution on every generated program and adversarial input shape —
    /// the ground truth the differential oracle measures against.
    #[test]
    fn interpreter_matches_sequential_execution(
        seed in any::<u64>(),
        shape in 0usize..6,
        len in 0usize..40,
    ) {
        let p = gen_from(seed);
        let events = InputKind::ALL[shape].generate(seed, len);
        let uda = AstUda::new(p.clone());
        let interp = eval_concrete(&p, &events);
        let seq = run_sequential(&uda, &events);
        let agree = match (&interp, &seq) {
            (Ok(x), Ok(y)) => x == y,
            (Err(x), Err(y)) => error_variant(x) == error_variant(y),
            _ => false,
        };
        prop_assert!(
            agree,
            "program {} on {:?}[{len}]: interp {interp:?} vs sequential {seq:?}",
            p.to_token(),
            InputKind::ALL[shape].as_str()
        );
    }
}

/// Outside `proptest!`: a width-64 transient overflow must never surface
/// as a wrong `Ok` from a chunked run (the second real bug the fuzzer
/// caught). Symbolic refusal (`IncompleteSummary`) or a trap are the only
/// acceptable shapes when the reference traps.
#[test]
fn reference_trap_is_never_a_wrong_ok() {
    let p = Program::parse_token("fields[i64=0] body[(iadd 0 ev) (iset 0 ev)]").unwrap();
    let huge = i64::MAX / 2 + 1;
    let events = vec![huge, huge];
    assert!(matches!(
        eval_concrete(&p, &events),
        Err(Error::ArithmeticOverflow { .. })
    ));
    let uda = AstUda::new(p);
    let chunked = run_chunked_symbolic(&uda, &events, 2, &EngineConfig::default());
    assert!(
        matches!(
            chunked,
            Err(Error::IncompleteSummary) | Err(Error::ArithmeticOverflow { .. })
        ),
        "wrong result for trapping input: {chunked:?}"
    );
}
