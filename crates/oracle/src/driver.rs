//! The sweep driver: runs every case through the matrix, compares against
//! the sequential reference, shrinks disagreements, and emits artifacts.

use std::path::PathBuf;

use symple_core::frame::fnv1a;
use symple_core::rng::Rng64;

use crate::artifact::{Artifact, ReproKind};
use crate::case::{outputs_agree, CaseInput, DynCase, Sabotage};
use crate::cases::all_cases;
use crate::cell::{deep_matrix, smoke_matrix, Cell, ExecutorKind, FaultKind};
use crate::shrink::shrink_case;

/// How exhaustively to sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Depth {
    /// The CI gate: small matrix, short inputs, sub-2-minutes.
    Smoke,
    /// The full matrix with longer and more varied inputs.
    Deep,
}

/// Driver configuration.
#[derive(Debug, Clone)]
pub struct OracleOptions {
    /// Master seed; every generated input derives from it deterministically.
    pub seed: u64,
    /// Sweep depth.
    pub depth: Depth,
    /// Restrict to one case id (`--case`).
    pub case_filter: Option<String>,
    /// Deliberate soundness break for end-to-end self-tests (`--sabotage`).
    pub sabotage: Sabotage,
    /// Where repro artifacts are written (when `write_artifacts`).
    pub artifact_dir: PathBuf,
    /// Whether findings are persisted to disk.
    pub write_artifacts: bool,
    /// Run the static analyzer over each case first and skip matrix cells
    /// whose engine config the analysis predicts will be refused
    /// (`--analyze-first`). A predicted refusal carries no differential
    /// signal — the engine gives up instead of answering — so those cells
    /// only burn time growing paths up to the bound before erroring.
    pub analyze_first: bool,
}

impl OracleOptions {
    /// Defaults for a given depth: seed 0, no filter, no sabotage,
    /// artifacts under `target/oracle`.
    pub fn new(depth: Depth) -> OracleOptions {
        OracleOptions {
            seed: 0,
            depth,
            case_filter: None,
            sabotage: Sabotage::None,
            artifact_dir: PathBuf::from("target/oracle"),
            write_artifacts: true,
            analyze_first: false,
        }
    }
}

/// One confirmed disagreement, already shrunk.
#[derive(Debug, Clone)]
pub struct Finding {
    /// The minimized artifact.
    pub artifact: Artifact,
    /// Where it was written, when artifacts are enabled.
    pub path: Option<PathBuf>,
    /// Pre-shrink evidence, for the report.
    pub original_input: CaseInput,
    pub original_cell: Cell,
}

/// Summary of a sweep.
#[derive(Debug, Clone, Default)]
pub struct OracleReport {
    /// Differential comparisons executed (reference vs cell).
    pub comparisons: u64,
    /// Determinism probes executed (summary bytes + fault recovery).
    pub probes: u64,
    /// Matrix cells skipped because the static analysis predicted the
    /// engine would refuse them (only under `analyze_first`).
    pub skipped: u64,
    /// Confirmed, shrunk disagreements.
    pub findings: Vec<Finding>,
}

impl OracleReport {
    /// True when the tree passed the sweep.
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// A registry sweep stops sweeping a case after this many findings
/// (shrinking is the expensive part; duplicates of one bug add nothing).
const MAX_FINDINGS_PER_CASE: usize = 2;

fn input_lens(depth: Depth) -> &'static [usize] {
    match depth {
        Depth::Smoke => &[0, 24, 72],
        Depth::Deep => &[0, 1, 9, 48, 160, 384],
    }
}

fn probe_cells(matrix: &[Cell]) -> (Vec<Cell>, Vec<Cell>) {
    // Summary determinism: re-summarizing must be byte-identical under any
    // engine config, so probe one default and one restart-heavy config.
    let summary = vec![
        Cell::default_chunked(1),
        Cell {
            merge_policy: symple_core::engine::MergePolicy::Never,
            max_total_paths: 2,
            ..Cell::default_chunked(1)
        },
    ];
    // Fault determinism: one faulted MapReduce cell per distinct fault
    // kind present in the matrix.
    let mut fault = Vec::new();
    for kind in [FaultKind::FailFirst, FaultKind::FailTwice] {
        if let Some(c) = matrix
            .iter()
            .find(|c| c.faults == kind && c.executor.is_mapreduce())
        {
            fault.push(*c);
        }
    }
    if fault.is_empty() {
        fault.push(Cell {
            executor: ExecutorKind::MapReduce,
            faults: FaultKind::FailFirst,
            chunks: 3,
            ..Cell::default_chunked(3)
        });
    }
    (summary, fault)
}

/// Runs the sweep over the registry cases. Deterministic: same options →
/// same report.
pub fn run_oracle(opts: &OracleOptions) -> OracleReport {
    let matrix = match opts.depth {
        Depth::Smoke => smoke_matrix(),
        Depth::Deep => deep_matrix(),
    };
    run_oracle_on(
        &all_cases(),
        opts,
        &matrix,
        input_lens(opts.depth),
        MAX_FINDINGS_PER_CASE,
    )
}

/// Sweeps `cases` over `matrix` at each of `lens`, stopping a case once
/// it has `max_findings_per_case` findings — the registry sweep above,
/// and the fuzzer's sweep of each generated case through the same
/// driver, shrinker and artifact machinery.
pub(crate) fn run_oracle_on(
    cases: &[Box<dyn DynCase>],
    opts: &OracleOptions,
    matrix: &[Cell],
    lens: &[usize],
    max_findings_per_case: usize,
) -> OracleReport {
    let mut report = OracleReport::default();
    let (summary_cells, fault_cells) = probe_cells(matrix);

    for case in cases {
        if let Some(filter) = &opts.case_filter {
            if case.id() != filter {
                continue;
            }
        }
        // One analysis per case, reused across every cell of the matrix.
        let analysis = if opts.analyze_first {
            case.analyze()
        } else {
            None
        };
        // FNV-1a of the id gives every case an independent input-seed stream.
        let mut rng = Rng64::seed_from_u64(opts.seed ^ fnv1a(case.id().as_bytes()));
        let mut case_findings = 0usize;

        for &len in lens {
            if case_findings >= max_findings_per_case {
                break;
            }
            let input = CaseInput::full(rng.gen::<u64>(), len);
            let expected = case.run_reference(&input);

            for cell in matrix {
                if case_findings >= max_findings_per_case {
                    break;
                }
                if !case.supports(cell) {
                    continue;
                }
                if predicted_refused(analysis.as_ref(), cell) {
                    report.skipped += 1;
                    continue;
                }
                report.comparisons += 1;
                let actual = case.run_cell(&input, cell, opts.sabotage);
                if outputs_agree(&expected, &actual, &input) {
                    continue;
                }
                let finding = build_finding(
                    case.as_ref(),
                    ReproKind::Mismatch,
                    &input,
                    cell,
                    opts,
                    expected.clone(),
                    actual,
                );
                report.findings.push(finding);
                case_findings += 1;
            }

            // Determinism probes (independent of sabotage, which only
            // affects the oracle's own chunked executor).
            let probes = [
                (ReproKind::SummaryNondet, &summary_cells),
                (ReproKind::FaultNondet, &fault_cells),
            ];
            for (kind, cells) in probes {
                for cell in cells {
                    if case_findings >= max_findings_per_case {
                        break;
                    }
                    report.probes += 1;
                    let (invariant, violation) = kind.probe(case.as_ref(), &input, cell);
                    if let Some(violation) = violation {
                        report.findings.push(build_finding(
                            case.as_ref(),
                            kind,
                            &input,
                            cell,
                            opts,
                            invariant.into(),
                            violation,
                        ));
                        case_findings += 1;
                    }
                }
            }
        }
    }
    // Distinct matrix cells often shrink to the same minimal reproducer;
    // keep one finding per artifact.
    let mut seen: Vec<Artifact> = Vec::new();
    report.findings.retain(|f| {
        if seen.contains(&f.artifact) {
            false
        } else {
            seen.push(f.artifact.clone());
            true
        }
    });
    report
}

/// The `--analyze-first` gate: a cell is skipped when the case's static
/// analysis predicts its engine config ends in a [`PathExplosion`] refusal.
/// Cases without variants (no analysis) are never skipped, and refusal
/// prediction is deliberately conservative — see
/// [`symple_core::UdaAnalysis::predicts_refusal`].
///
/// [`PathExplosion`]: symple_core::Error::PathExplosion
fn predicted_refused(analysis: Option<&symple_core::UdaAnalysis>, cell: &Cell) -> bool {
    analysis.is_some_and(|a| a.predicts_refusal(&cell.engine()))
}

/// Shrinks a disagreement and (optionally) writes its artifact.
fn build_finding(
    case: &dyn DynCase,
    kind: ReproKind,
    input: &CaseInput,
    cell: &Cell,
    opts: &OracleOptions,
    expected: String,
    actual: String,
) -> Finding {
    let sabotage = opts.sabotage;
    let (min_input, min_cell) = match kind {
        ReproKind::Mismatch => {
            let fails = |i: &CaseInput, c: &Cell| {
                if !case.supports(c) {
                    return false;
                }
                let e = case.run_reference(i);
                !outputs_agree(&e, &case.run_cell(i, c, sabotage), i)
            };
            shrink_case(input, cell, &fails)
        }
        _ => shrink_case(input, cell, &|i: &CaseInput, c: &Cell| {
            kind.probe(case, i, c).1.is_some()
        }),
    };

    // Re-render the evidence on the minimized pair so the artifact shows
    // the minimal disagreement, not the original one.
    let (expected, actual) = match kind {
        ReproKind::Mismatch => (
            case.run_reference(&min_input),
            case.run_cell(&min_input, &min_cell, sabotage),
        ),
        _ => (
            expected,
            kind.probe(case, &min_input, &min_cell).1.unwrap_or(actual),
        ),
    };

    let artifact = Artifact {
        case: case.id().to_string(),
        kind,
        input: min_input,
        cell: min_cell,
        sabotage,
        program: case.program_token(),
        input_kind: case.input_kind_token(),
        expected,
        actual,
    };

    let path = if opts.write_artifacts {
        write_artifact(case, &artifact, opts)
    } else {
        None
    };

    Finding {
        artifact,
        path,
        original_input: input.clone(),
        original_cell: *cell,
    }
}

fn write_artifact(
    case: &dyn DynCase,
    artifact: &Artifact,
    opts: &OracleOptions,
) -> Option<PathBuf> {
    let text = artifact.render(&case.events_debug(&artifact.input));
    // Distinct minimal artifacts can share (case, kind, seed) — e.g. two
    // matrix cells shrinking to different kept sets — so the filename
    // carries a content hash to keep them from overwriting each other.
    let name = format!(
        "repro-{}-{}-{}-{:08x}.txt",
        artifact.case,
        artifact.kind.as_str(),
        artifact.input.seed,
        fnv1a(text.as_bytes()) as u32
    );
    let path = opts.artifact_dir.join(name);
    if std::fs::create_dir_all(&opts.artifact_dir).is_err() {
        return None;
    }
    match std::fs::write(&path, text) {
        Ok(()) => Some(path),
        Err(_) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversarial::{OverflowState, OverflowSumUda};
    use crate::case::UdaCase;
    use std::sync::atomic::{AtomicI64, Ordering};
    use symple_core::ctx::SymCtx;
    use symple_core::engine::MergePolicy;
    use symple_core::impl_sym_state;
    use symple_core::types::{sym_int::SymInt, sym_pred::SymPred};
    use symple_core::uda::Uda;

    fn quick_opts() -> OracleOptions {
        OracleOptions {
            case_filter: Some("G1".into()),
            write_artifacts: false,
            ..OracleOptions::new(Depth::Smoke)
        }
    }

    #[test]
    fn smoke_is_clean_on_one_case() {
        let report = run_oracle(&quick_opts());
        assert!(report.clean(), "findings: {:#?}", report.findings);
        assert!(report.comparisons > 0);
        assert!(report.probes > 0);
    }

    #[test]
    fn sabotage_produces_a_minimized_finding() {
        // OVF is a plain sum: dropping any nonzero event changes the
        // output, so the sabotage is reliably observable (unlike latching
        // aggregations such as G1, where late events rarely matter).
        let opts = OracleOptions {
            sabotage: Sabotage::DropLastEvent,
            case_filter: Some("OVF".into()),
            ..quick_opts()
        };
        let report = run_oracle(&opts);
        assert!(!report.clean(), "sabotage must be detected");
        let f = &report.findings[0];
        // Minimal sabotage repro: few events, few chunks.
        assert!(f.artifact.input.effective_len() <= f.original_input.effective_len());
        assert!(f.artifact.cell.chunks <= f.original_cell.chunks);
        // And it must still reproduce via the artifact path.
        let outcome = f.artifact.replay().unwrap();
        assert!(
            matches!(outcome, crate::artifact::ReplayOutcome::Reproduced { .. }),
            "{outcome:?}"
        );
    }

    #[test]
    fn chunked_tree_cells_see_a_lost_tail_and_reordered_chunks() {
        // The tree column composes the oracle's own chunks, so both
        // chunk-level sabotages reach it: a lost tail shows on OVF (a plain
        // sum), a reorder on VEC (order-sensitive output).
        let tree = Cell {
            executor: ExecutorKind::ChunkedTree,
            ..Cell::default_chunked(3)
        };
        for (case, sabotage) in [
            ("OVF", Sabotage::DropLastEvent),
            ("VEC", Sabotage::ReorderChunks),
        ] {
            let opts = OracleOptions {
                sabotage,
                case_filter: Some(case.into()),
                ..quick_opts()
            };
            let report = run_oracle_on(
                &all_cases(),
                &opts,
                &[tree],
                input_lens(Depth::Smoke),
                MAX_FINDINGS_PER_CASE,
            );
            assert!(
                report
                    .findings
                    .iter()
                    .any(|f| f.original_cell.executor == ExecutorKind::ChunkedTree),
                "{case} under {sabotage:?}: {:#?}",
                report.findings
            );
        }
    }

    #[test]
    fn stale_checkpoint_sabotage_is_flagged_only_when_validation_is_bypassed() {
        // OVF again: a plain sum, so resuming from checkpoints recorded
        // for a tail-dropped input visibly changes the output.
        let opts = OracleOptions {
            case_filter: Some("OVF".into()),
            ..quick_opts()
        };
        // With frame-metadata validation on (the production default), the
        // crash-resume cells quarantine anything stale and recompute: the
        // sweep is clean. This is the config-hash/input-digest check doing
        // its job.
        let clean = run_oracle(&opts);
        assert!(clean.clean(), "findings: {:#?}", clean.findings);

        // Bypassing the check (`trust_frame_meta`) while feeding the
        // store frames from a different input must produce a wrong answer
        // the oracle flags — and pins the finding to a crash-resume cell.
        let report = run_oracle(&OracleOptions {
            sabotage: Sabotage::StaleCheckpoint,
            ..opts
        });
        assert!(
            !report.clean(),
            "stale-checkpoint sabotage must be detected"
        );
        assert!(report
            .findings
            .iter()
            .any(|f| f.artifact.cell.executor == crate::cell::ExecutorKind::CrashResume));
    }

    #[test]
    fn forged_cache_entry_sabotage_is_flagged_only_when_validation_is_bypassed() {
        // OVF once more: a plain sum, so serving one chunk's cached
        // summary in place of another's visibly changes the output.
        let opts = OracleOptions {
            case_filter: Some("OVF".into()),
            ..quick_opts()
        };
        // With frame-metadata validation on (the production default), the
        // warm-resweep cells quarantine the forged entry and recompute:
        // the sweep is clean. This is the content-digest check in cache
        // frames doing its job.
        let clean = run_oracle(&opts);
        assert!(clean.clean(), "findings: {:#?}", clean.findings);

        // Bypassing the check (`trust_frame_meta`) while a cold-only frame
        // sits under a warm-only key must produce a wrong answer the
        // oracle flags — and pins the finding to a warm-resweep cell.
        let report = run_oracle(&OracleOptions {
            sabotage: Sabotage::ForgedCacheEntry,
            ..opts
        });
        assert!(
            !report.clean(),
            "forged-cache-entry sabotage must be detected"
        );
        assert!(report
            .findings
            .iter()
            .any(|f| f.artifact.cell.executor == crate::cell::ExecutorKind::WarmResweep));
    }

    #[test]
    fn dropped_tear_sabotage_is_flagged_by_the_ledger_audit() {
        let opts = OracleOptions {
            case_filter: Some("OVF".into()),
            ..quick_opts()
        };
        // An honest injector balances its books: every fault it fires is
        // observed (and retried or given up) by the store, the healing
        // run quarantines the debris, and the sweep is clean.
        let clean = run_oracle(&opts);
        assert!(clean.clean(), "findings: {:#?}", clean.findings);

        // A buggy injector that tears a write but reports success leaves
        // the retry ledger short one error. The faulted-store cell's
        // balance audit must turn that into a finding.
        let report = run_oracle(&OracleOptions {
            sabotage: Sabotage::DroppedTear,
            ..opts
        });
        assert!(!report.clean(), "dropped-tear sabotage must be detected");
        assert!(report
            .findings
            .iter()
            .any(|f| f.artifact.cell.executor == crate::cell::ExecutorKind::FaultedStore));
    }

    #[test]
    fn analyze_first_is_a_no_op_on_a_well_behaved_case() {
        let base = run_oracle(&quick_opts());
        let analyzed = run_oracle(&OracleOptions {
            analyze_first: true,
            ..quick_opts()
        });
        // G1 never forks, so no cell is predicted-refused: same coverage,
        // same verdict, nothing skipped.
        assert!(analyzed.clean());
        assert_eq!(analyzed.skipped, 0);
        assert_eq!(analyzed.comparisons, base.comparisons);
    }

    /// Forks six unmergeable ways per eval chain (2^6 = 64 paths per
    /// record): the shape `--analyze-first` exists to catch.
    struct ForkBombUda;

    #[derive(Clone, Debug)]
    struct ForkBombState {
        p: SymPred<i64>,
        acc: SymInt,
    }
    impl_sym_state!(ForkBombState { p, acc });

    impl Uda for ForkBombUda {
        type State = ForkBombState;
        type Event = i64;
        type Output = i64;
        fn init(&self) -> ForkBombState {
            ForkBombState {
                p: SymPred::new(|a: &i64, b: &i64| a < b).with_max_decisions(256),
                acc: SymInt::new(0),
            }
        }
        fn update(&self, s: &mut ForkBombState, ctx: &mut SymCtx, e: &i64) {
            for k in 0..6i64 {
                // Fresh argument per eval: every decision is a new fork,
                // and the distinct added constants keep paths unmergeable.
                if s.p.eval(ctx, &(e + k)) {
                    s.acc.add(ctx, 1 << k);
                }
            }
        }
        fn result(&self, s: &ForkBombState, _ctx: &mut SymCtx) -> i64 {
            s.acc.concrete_value().unwrap_or(0)
        }
    }

    #[test]
    fn analyze_first_gate_skips_doomed_cells_only() {
        let case = UdaCase::new("BOMB", ForkBombUda, |_seed, _len| Vec::new())
            .with_variants(vec![("event", 0i64)]);
        let analysis = case.analyze().expect("variants registered");

        // 64 paths per record with a 64-path restart budget: live paths
        // survive a whole record, and the next record's 64× fan-out blows
        // through max_paths_per_record (1024) — a predicted refusal.
        let doomed = Cell {
            merge_policy: MergePolicy::Never,
            max_total_paths: 64,
            ..Cell::default_chunked(2)
        };
        // A tight restart budget resets live paths to 1 after every
        // record, so the same UDA stays under the per-record bound.
        let rescued = Cell {
            merge_policy: MergePolicy::Never,
            max_total_paths: 2,
            ..Cell::default_chunked(2)
        };
        assert!(predicted_refused(Some(&analysis), &doomed));
        assert!(!predicted_refused(Some(&analysis), &rescued));
        // Cases without variants (GPS) are never skipped.
        assert!(!predicted_refused(None, &doomed));
    }

    /// OVF's sum plus `counter % 5` from state the engine cannot see: the
    /// same events answer differently on every run, so comparisons and
    /// both determinism probes all flag it. (With `% 3`, runs of 24 or 72
    /// events would hide it: any 24 consecutive counter values sum alike.)
    #[derive(Default)]
    struct HiddenCounterUda(AtomicI64);

    impl Uda for HiddenCounterUda {
        type State = OverflowState;
        type Event = i64;
        type Output = i64;
        fn init(&self) -> OverflowState {
            OverflowSumUda.init()
        }
        fn update(&self, s: &mut OverflowState, ctx: &mut SymCtx, e: &i64) {
            let hidden = self.0.fetch_add(1, Ordering::Relaxed) % 5;
            OverflowSumUda.update(s, ctx, &(e + hidden));
        }
        fn result(&self, s: &OverflowState, ctx: &mut SymCtx) -> i64 {
            OverflowSumUda.result(s, ctx)
        }
    }

    /// OVF's sum, but `result` adds `counter % 5` from state the engine
    /// cannot see. `update` is deterministic, so every summary is too and
    /// the summary probe is blind; the comparisons (and the fault probe,
    /// which compares outputs) are what catch an impure `result`.
    #[derive(Default)]
    struct ImpureResultUda(AtomicI64);

    impl Uda for ImpureResultUda {
        type State = OverflowState;
        type Event = i64;
        type Output = i64;
        fn init(&self) -> OverflowState {
            OverflowSumUda.init()
        }
        fn update(&self, s: &mut OverflowState, ctx: &mut SymCtx, e: &i64) {
            OverflowSumUda.update(s, ctx, e);
        }
        fn result(&self, s: &OverflowState, ctx: &mut SymCtx) -> i64 {
            OverflowSumUda.result(s, ctx) + self.0.fetch_add(1, Ordering::Relaxed) % 5
        }
    }

    /// Sweeps `uda` as a fresh case over `matrix` at smoke lengths.
    fn sweep_smoke<U: Uda<Event = i64, Output = i64> + 'static>(
        uda: U,
        matrix: &[Cell],
    ) -> OracleReport {
        let case = UdaCase::new("HIDDEN", uda, |seed, len| {
            (0..len as i64).map(|i| (seed as i64 ^ i) & 0xff).collect()
        });
        let opts = OracleOptions {
            write_artifacts: false,
            ..OracleOptions::new(Depth::Smoke)
        };
        let cases: [Box<dyn DynCase>; 1] = [Box::new(case)];
        let lens = input_lens(Depth::Smoke);
        run_oracle_on(&cases, &opts, matrix, lens, MAX_FINDINGS_PER_CASE)
    }

    #[test]
    fn the_summary_probe_sees_hidden_state() {
        // No matrix cells: only the determinism probes run.
        let report = sweep_smoke(HiddenCounterUda::default(), &[]);
        assert_eq!(report.comparisons, 0);
        let kinds: Vec<ReproKind> = report.findings.iter().map(|f| f.artifact.kind).collect();
        assert!(kinds.contains(&ReproKind::SummaryNondet), "{kinds:?}");
    }

    #[test]
    fn the_comparisons_see_an_impure_result() {
        let report = sweep_smoke(ImpureResultUda::default(), &smoke_matrix());
        let kinds: Vec<ReproKind> = report.findings.iter().map(|f| f.artifact.kind).collect();
        assert!(kinds.contains(&ReproKind::Mismatch), "{kinds:?}");
    }

    #[test]
    fn the_finding_cap_bounds_the_probes_too() {
        // Comparisons, summary probes and fault probes all flag this case;
        // the cap must hold across all three loops.
        let found = sweep_smoke(HiddenCounterUda::default(), &smoke_matrix())
            .findings
            .len();
        assert!((1..=MAX_FINDINGS_PER_CASE).contains(&found), "{found}");
    }

    #[test]
    fn reports_are_deterministic() {
        let opts = OracleOptions {
            sabotage: Sabotage::DropLastEvent,
            case_filter: Some("OVF".into()),
            ..quick_opts()
        };
        let a = run_oracle(&opts);
        let b = run_oracle(&opts);
        assert_eq!(a.comparisons, b.comparisons);
        assert_eq!(a.findings.len(), b.findings.len());
        for (x, y) in a.findings.iter().zip(&b.findings) {
            assert_eq!(x.artifact, y.artifact);
        }
    }
}
