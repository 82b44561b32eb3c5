//! Coverage-guided fuzzing: the oracle registry sweeps a *fixed* set of
//! hand-written UDAs; this module generates the UDAs too.
//!
//! Each iteration: pick a program (mutate a corpus member or generate
//! fresh with [`gen_program`]), pick an adversarial input shape, *probe*
//! it (analyzer diagnostic signature + one symbolic-execution run's
//! [`ExploreStats`]), fold the probe into the coverage map, and — the
//! actual oracle — sweep the program through a focused executor matrix
//! with the registry's own driver, shrinker and artifacts,
//! differential-checking every cell against the sequential reference.
//! Programs that reach a novel behavior class seed the mutation corpus.
//! A divergence becomes a `SYMPLE-ORACLE-REPRO` artifact whose embedded
//! program token makes it replayable forever — the committed ones under
//! `tests/corpus/` re-run as ordinary `cargo test`.
//!
//! Alongside the executor sweep, every iteration cross-checks the
//! concrete reference interpreter ([`eval_concrete`]) against sequential
//! UDA execution on the probe stream: the interpreter is the independent
//! ground truth the parity suite leans on, so the fuzzer guards it too.
//!
//! Everything is deterministic in (seed, budget): randomness flows from
//! one [`Rng64`] stream, the sweep seeds derive from it, and wall-clock
//! (`max_secs`) can only *truncate* the iteration sequence, never reorder
//! it.

mod coverage;
mod gen;
mod mutate;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use symple_analyze::diag_signature;
use symple_core::engine::{ExploreStats, MergePolicy, SymbolicExecutor};
use symple_core::rng::Rng64;
use symple_core::uda::run_sequential;

use crate::ast::{eval_concrete, AstUda, Program};
use crate::case::{error_variant, render};
use crate::driver::run_oracle_on;
use crate::{program_case, Cell, Depth, ExecutorKind, Finding, InputKind, OracleOptions, Sabotage};

use coverage::{CoverageKey, CoverageMap};
pub use gen::{gen_program, GenConfig};
pub use mutate::mutate;

/// Events per coverage probe: long enough for restarts and merges to
/// show up, short enough to stay microseconds-cheap.
const PROBE_LEN: usize = 24;

/// Input lengths each generated case is swept with. Short on purpose —
/// engine disagreements reproduce at small scale (the shrinker would
/// minimize there anyway), and short inputs keep per-iteration sweep cost
/// flat.
const FUZZ_LENS: [usize; 3] = [0, 5, 17];

/// Fuzzer configuration.
#[derive(Debug, Clone)]
pub struct FuzzOptions {
    /// Master seed; same seed (and budget) ⇒ same case sequence, same
    /// coverage map, same findings.
    pub seed: u64,
    /// Iteration budget (the determinism unit — *not* wall-clock).
    pub budget: u64,
    /// Optional wall-clock cap; truncates the iteration sequence.
    pub max_secs: Option<u64>,
    /// Deliberate executor break for self-tests: the fuzzer must find it.
    pub sabotage: Sabotage,
    /// Where repro artifacts are written (when `write_artifacts`).
    pub artifact_dir: PathBuf,
    /// Whether findings are persisted to disk.
    pub write_artifacts: bool,
    /// Stop fuzzing after this many findings (each one is shrunk, which
    /// dominates cost once bugs are plentiful — e.g. under sabotage).
    pub max_findings: usize,
}

impl FuzzOptions {
    /// Defaults: seed 0, budget 48, no wall-clock cap, no sabotage,
    /// artifacts under `target/fuzz`.
    pub fn new() -> FuzzOptions {
        FuzzOptions {
            seed: 0,
            budget: 48,
            max_secs: None,
            sabotage: Sabotage::None,
            artifact_dir: PathBuf::from("target/fuzz"),
            write_artifacts: true,
            max_findings: 5,
        }
    }
}

impl Default for FuzzOptions {
    fn default() -> FuzzOptions {
        FuzzOptions::new()
    }
}

/// Outcome of a fuzz run.
#[derive(Debug, Default)]
pub struct FuzzReport {
    /// Iterations actually executed (≤ budget; wall-clock may truncate).
    pub iterations: u64,
    /// Differential comparisons executed across all sweeps.
    pub comparisons: u64,
    /// Programs that reached a novel behavior class (= corpus size).
    pub corpus_size: usize,
    /// The accumulated coverage map.
    pub coverage: CoverageMap,
    /// Confirmed, shrunk divergences (each artifact embeds its program).
    pub findings: Vec<Finding>,
    /// Program tokens where the concrete reference interpreter disagreed
    /// with sequential UDA execution — a bug in `core` itself, reported
    /// separately because no executor cell is involved.
    pub interp_mismatches: Vec<String>,
}

impl FuzzReport {
    /// True when nothing diverged.
    pub fn clean(&self) -> bool {
        self.findings.is_empty() && self.interp_mismatches.is_empty()
    }
}

/// The focused matrix generated cases sweep against: one representative
/// cell per executor but the faulted store, plus the knobs that
/// historically disagree first (restart-heavy `Never`, all-symbolic,
/// crash-resume) and many short cells per map task (multi-key). Tree cells are
/// included but branching programs opt out via
/// [`program_case`]'s supports() decision.
fn fuzz_matrix() -> Vec<Cell> {
    let base = Cell::default_chunked(1);
    vec![
        Cell { chunks: 2, ..base },
        Cell {
            chunks: 3,
            merge_policy: MergePolicy::Never,
            max_total_paths: 2,
            ..base
        },
        Cell {
            chunks: 3,
            first_segment_concrete: false,
            ..base
        },
        Cell {
            executor: ExecutorKind::MapReduce,
            chunks: 3,
            ..base
        },
        Cell {
            executor: ExecutorKind::ChunkedTree,
            chunks: 3,
            ..base
        },
        Cell {
            executor: ExecutorKind::CrashResume,
            chunks: 4,
            ..base
        },
        Cell {
            executor: ExecutorKind::WarmResweep,
            chunks: 4,
            ..base
        },
        Cell {
            executor: ExecutorKind::MultiKey,
            chunks: 3,
            ..base
        },
    ]
}

/// The sabotages a fuzz run can observe: those that break an executor
/// `fuzz_matrix` runs. Any other is never applied, so a self-test with
/// it would pass whatever the tree does.
pub fn sabotages() -> Vec<Sabotage> {
    let matrix = fuzz_matrix();
    Sabotage::ALL
        .into_iter()
        .filter(|s| s.reaches(&matrix))
        .collect()
}

/// One symbolic-execution probe: feeds `events` through a fresh executor
/// and reports the outcome token plus exploration counters. Errors stop
/// the feed but still report the stats accumulated up to that point —
/// "refused after 3 forks" and "refused after 40" are different behavior
/// classes.
fn probe(uda: &AstUda, events: &[i64]) -> (String, ExploreStats) {
    let mut ex = SymbolicExecutor::new(uda, Cell::default_chunked(1).engine());
    let mut outcome = "ok".to_string();
    for e in events {
        if let Err(err) = ex.feed(e) {
            outcome = format!("err:{}", error_variant(&err));
            break;
        }
    }
    (outcome, ex.stats())
}

/// Runs the fuzz loop. Deterministic: same options ⇒ same report
/// (wall-clock capping aside, which can only cut the sequence short).
pub fn run_fuzz(opts: &FuzzOptions) -> FuzzReport {
    let cfg = GenConfig::default();
    let mut rng = Rng64::seed_from_u64(opts.seed);
    let mut corpus: Vec<Program> = Vec::new();
    let mut report = FuzzReport::default();
    let deadline = opts
        .max_secs
        .map(|s| Instant::now() + Duration::from_secs(s));

    let matrix = fuzz_matrix();

    for _ in 0..opts.budget {
        if deadline.is_some_and(|d| Instant::now() >= d) {
            break;
        }
        if report.findings.len() >= opts.max_findings {
            break;
        }
        // Drawn unconditionally, first, so the stream position at each
        // iteration is independent of what earlier iterations found.
        let sweep_seed = rng.gen::<u64>();

        let program = if !corpus.is_empty() && rng.gen_bool(0.5) {
            let pick = rng.gen_range(0usize..corpus.len());
            mutate(&mut rng, &corpus[pick], &cfg)
        } else {
            gen_program(&mut rng, &cfg)
        };
        let kind = InputKind::ALL[rng.gen_range(0usize..InputKind::ALL.len())];
        report.iterations += 1;

        // Coverage probe: analyzer signature + one engine run.
        let variants = program.variants();
        let uda = AstUda::new(program.clone());
        let diag = diag_signature(&symple_core::analyze_uda(&uda, &variants));
        let events = kind.generate(sweep_seed, PROBE_LEN);
        let (outcome, stats) = probe(&uda, &events);

        // Ground-truth guard: the concrete interpreter and sequential UDA
        // execution must agree on every program, not just the committed
        // parity suite.
        if render(eval_concrete(&program, &events)) != render(run_sequential(&uda, &events)) {
            report.interp_mismatches.push(program.to_token());
        }

        if report
            .coverage
            .insert(CoverageKey::new(diag, &outcome, &stats))
        {
            corpus.push(program.clone());
        }

        // The differential oracle sweep — same driver, shrinker, and
        // artifact machinery as the registry cases.
        let case = match program_case(program, kind) {
            Ok(c) => c,
            // Unreachable for generated programs (they typecheck by
            // construction), but never worth a panic mid-fuzz.
            Err(_) => continue,
        };
        let sweep_opts = OracleOptions {
            seed: sweep_seed,
            sabotage: opts.sabotage,
            artifact_dir: opts.artifact_dir.clone(),
            write_artifacts: opts.write_artifacts,
            // Predicted-refusal cells carry no differential signal; skip
            // them instead of growing paths to the bound.
            analyze_first: true,
            ..OracleOptions::new(Depth::Smoke)
        };
        let sweep = run_oracle_on(&[case], &sweep_opts, &matrix, &FUZZ_LENS, 1);
        report.comparisons += sweep.comparisons;
        report.findings.extend(sweep.findings);
    }

    report.corpus_size = corpus.len();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ReplayOutcome;

    fn quiet(seed: u64, budget: u64) -> FuzzOptions {
        FuzzOptions {
            seed,
            budget,
            write_artifacts: false,
            ..FuzzOptions::new()
        }
    }

    #[test]
    fn fuzz_runs_are_deterministic() {
        let opts = quiet(5, 6);
        let a = run_fuzz(&opts);
        let b = run_fuzz(&opts);
        assert_eq!(a.iterations, b.iterations);
        assert_eq!(a.comparisons, b.comparisons);
        assert_eq!(a.corpus_size, b.corpus_size);
        assert_eq!(a.coverage.render(), b.coverage.render());
        assert_eq!(a.findings.len(), b.findings.len());
        for (x, y) in a.findings.iter().zip(&b.findings) {
            assert_eq!(x.artifact, y.artifact);
        }
    }

    #[test]
    fn different_seeds_explore_different_programs() {
        let a = run_fuzz(&quiet(1, 6));
        let b = run_fuzz(&quiet(2, 6));
        // Weak but meaningful: distinct streams should not produce
        // byte-identical coverage on six iterations each.
        assert!(
            a.coverage.render() != b.coverage.render() || a.comparisons != b.comparisons,
            "seeds 1 and 2 produced identical runs"
        );
    }

    #[test]
    fn clean_engine_produces_no_findings() {
        let report = run_fuzz(&quiet(3, 10));
        assert_eq!(report.iterations, 10);
        assert!(
            report.interp_mismatches.is_empty(),
            "{:?}",
            report.interp_mismatches
        );
        assert!(report.clean(), "findings: {:#?}", report.findings);
        assert!(report.comparisons > 0);
        assert!(
            report.corpus_size > 0,
            "nothing was novel in 10 iterations?"
        );
    }

    #[test]
    fn sabotage_is_found_shrunk_and_replayable() {
        let opts = FuzzOptions {
            sabotage: Sabotage::DropLastEvent,
            max_findings: 1,
            ..quiet(0, 40)
        };
        let report = run_fuzz(&opts);
        assert!(!report.clean(), "sabotage must be detected");
        let f = &report.findings[0];
        // The artifact is self-contained: it embeds the generated program
        // and input shape, so replay needs no registry entry.
        assert!(f.artifact.program.is_some());
        assert!(f.artifact.input_kind.is_some());
        assert!(f.artifact.input.effective_len() <= f.original_input.effective_len());
        let outcome = f.artifact.replay().unwrap();
        assert!(
            matches!(outcome, ReplayOutcome::Reproduced { .. }),
            "{outcome:?}"
        );
    }

    #[test]
    fn wall_clock_cap_truncates() {
        let opts = FuzzOptions {
            max_secs: Some(0),
            ..quiet(1, 1000)
        };
        let report = run_fuzz(&opts);
        assert_eq!(report.iterations, 0);
    }
}
