//! Self-contained repro artifacts: a failing finding serialized as a
//! small text file that regenerates the exact input and configuration.
//!
//! The format is line-oriented `key: value` under a versioned header.
//! Events are *not* the source of truth — `seed`/`len`/`kept` are, and
//! the event generator is deterministic — so the `events:` line is
//! informational and ignored by the parser.

use std::fmt::Write as _;

use crate::case::{outputs_agree, CaseInput, DynCase, Sabotage};
use crate::cases::case_by_id;
use crate::cell::{parse_policy, policy_str, Cell, ExecutorKind, FaultKind};

/// Artifact header line; bump the version when the format changes.
pub const HEADER: &str = "SYMPLE-ORACLE-REPRO v1";

/// What kind of disagreement the artifact reproduces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReproKind {
    /// Parallel output differed from the sequential reference.
    Mismatch,
    /// Two summarization attempts of the same chunk differed on the wire.
    SummaryNondet,
    /// Fault-injected re-execution diverged from the clean run.
    FaultNondet,
}

impl ReproKind {
    /// Stable artifact token.
    pub fn as_str(self) -> &'static str {
        match self {
            ReproKind::Mismatch => "mismatch",
            ReproKind::SummaryNondet => "summary-nondeterminism",
            ReproKind::FaultNondet => "fault-nondeterminism",
        }
    }

    /// Parses an artifact token.
    pub fn parse(s: &str) -> Option<ReproKind> {
        Some(match s {
            "mismatch" => ReproKind::Mismatch,
            "summary-nondeterminism" => ReproKind::SummaryNondet,
            "fault-nondeterminism" => ReproKind::FaultNondet,
            _ => return None,
        })
    }

    /// For a determinism-probe kind: the invariant its probe holds, and
    /// the probe's violation on one cell, if it sees one.
    pub(crate) fn probe(
        self,
        case: &dyn DynCase,
        input: &CaseInput,
        cell: &Cell,
    ) -> (&'static str, Option<String>) {
        match self {
            ReproKind::Mismatch => unreachable!("a mismatch is found by comparison, not a probe"),
            ReproKind::SummaryNondet => {
                ("byte-identical summaries", case.summary_nondet(input, cell))
            }
            ReproKind::FaultNondet => (
                "deterministic fault recovery",
                case.fault_nondet(input, cell),
            ),
        }
    }
}

/// A parsed (or to-be-written) repro artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct Artifact {
    /// Case id from the registry.
    pub case: String,
    /// What the oracle observed.
    pub kind: ReproKind,
    /// The (shrunk) input.
    pub input: CaseInput,
    /// The (shrunk) matrix cell.
    pub cell: Cell,
    /// Sabotage active when the finding was made.
    pub sabotage: Sabotage,
    /// For generated (fuzz) cases: the serialized UDA program
    /// ([`crate::ast::Program::to_token`]), making the artifact
    /// self-contained — replay rebuilds the case from this token instead
    /// of the case registry. `None` for registry cases.
    pub program: Option<String>,
    /// For generated cases: which adversarial input generator produced
    /// the event stream. `None` for registry cases.
    pub input_kind: Option<String>,
    /// Rendered reference output at write time (informational).
    pub expected: String,
    /// Rendered parallel output / violation at write time (informational).
    pub actual: String,
}

/// Outcome of replaying an artifact against the current tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayOutcome {
    /// The disagreement still occurs; the rendered evidence is attached.
    Reproduced { expected: String, actual: String },
    /// The tree now agrees — the bug is gone (or never was).
    NotReproduced { actual: String },
}

impl Artifact {
    /// Serializes the artifact; `events` is the debug rendering of the
    /// filtered stream, included for human readers only.
    pub fn render(&self, events: &str) -> String {
        let mut s = String::new();
        let kept = self.input.kept_str();
        writeln!(s, "{HEADER}").unwrap();
        writeln!(s, "case: {}", self.case).unwrap();
        writeln!(s, "kind: {}", self.kind.as_str()).unwrap();
        // Written only when present, so registry artifacts are
        // byte-identical to the pre-fuzzer format.
        if let Some(p) = &self.program {
            writeln!(s, "program: {p}").unwrap();
        }
        if let Some(k) = &self.input_kind {
            writeln!(s, "input-kind: {k}").unwrap();
        }
        writeln!(s, "seed: {}", self.input.seed).unwrap();
        writeln!(s, "len: {}", self.input.len).unwrap();
        writeln!(s, "kept: {kept}").unwrap();
        writeln!(s, "executor: {}", self.cell.executor.as_str()).unwrap();
        writeln!(s, "chunks: {}", self.cell.chunks).unwrap();
        writeln!(s, "merge-policy: {}", policy_str(self.cell.merge_policy)).unwrap();
        writeln!(s, "max-total-paths: {}", self.cell.max_total_paths).unwrap();
        writeln!(
            s,
            "first-segment-concrete: {}",
            self.cell.first_segment_concrete
        )
        .unwrap();
        writeln!(s, "faults: {}", self.cell.faults.as_str()).unwrap();
        writeln!(s, "sabotage: {}", self.sabotage.as_str()).unwrap();
        writeln!(s, "expected: {}", self.expected).unwrap();
        writeln!(s, "actual: {}", self.actual).unwrap();
        writeln!(s, "events: {events}").unwrap();
        s
    }

    /// Parses an artifact. Unknown keys are ignored (forward
    /// compatibility); missing required keys are an error.
    pub fn parse(text: &str) -> std::result::Result<Artifact, String> {
        let mut lines = text.lines();
        match lines.next() {
            Some(h) if h.trim() == HEADER => {}
            other => return Err(format!("bad header: {other:?}")),
        }
        let mut case = None;
        let mut kind = None;
        let mut seed = None;
        let mut len = None;
        let mut kept = None;
        let mut executor = None;
        let mut chunks = None;
        let mut merge_policy = None;
        let mut max_total_paths = None;
        let mut first_segment_concrete = None;
        let mut faults = None;
        let mut sabotage = None;
        let mut program = None;
        let mut input_kind = None;
        let mut expected = String::new();
        let mut actual = String::new();

        for line in lines {
            let Some((key, value)) = line.split_once(':') else {
                continue;
            };
            let key = key.trim();
            let value = value.trim();
            let bad = || format!("bad value for {key}: {value:?}");
            match key {
                "case" => case = Some(value.to_string()),
                "kind" => kind = Some(ReproKind::parse(value).ok_or_else(bad)?),
                "seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
                "len" => len = Some(value.parse::<usize>().map_err(|_| bad())?),
                "kept" => {
                    kept = Some(match value {
                        "all" => None,
                        "(empty)" => Some(Vec::new()),
                        list => Some(
                            list.split(',')
                                .map(|i| i.trim().parse::<usize>().map_err(|_| bad()))
                                .collect::<std::result::Result<Vec<_>, _>>()?,
                        ),
                    })
                }
                "executor" => executor = Some(ExecutorKind::parse(value).ok_or_else(bad)?),
                "chunks" => chunks = Some(value.parse::<usize>().map_err(|_| bad())?),
                "merge-policy" => merge_policy = Some(parse_policy(value).ok_or_else(bad)?),
                "max-total-paths" => {
                    max_total_paths = Some(value.parse::<usize>().map_err(|_| bad())?)
                }
                "first-segment-concrete" => {
                    first_segment_concrete = Some(value.parse::<bool>().map_err(|_| bad())?)
                }
                "faults" => faults = Some(FaultKind::parse(value).ok_or_else(bad)?),
                "sabotage" => sabotage = Some(Sabotage::parse(value).ok_or_else(bad)?),
                "program" => program = Some(value.to_string()),
                "input-kind" => input_kind = Some(value.to_string()),
                "expected" => expected = value.to_string(),
                "actual" => actual = value.to_string(),
                _ => {}
            }
        }

        let missing = |k: &str| format!("missing key: {k}");
        Ok(Artifact {
            case: case.ok_or_else(|| missing("case"))?,
            kind: kind.ok_or_else(|| missing("kind"))?,
            input: CaseInput {
                seed: seed.ok_or_else(|| missing("seed"))?,
                len: len.ok_or_else(|| missing("len"))?,
                kept: kept.ok_or_else(|| missing("kept"))?,
            },
            cell: Cell {
                executor: executor.ok_or_else(|| missing("executor"))?,
                chunks: chunks.ok_or_else(|| missing("chunks"))?,
                merge_policy: merge_policy.ok_or_else(|| missing("merge-policy"))?,
                max_total_paths: max_total_paths.ok_or_else(|| missing("max-total-paths"))?,
                first_segment_concrete: first_segment_concrete
                    .ok_or_else(|| missing("first-segment-concrete"))?,
                faults: faults.ok_or_else(|| missing("faults"))?,
            },
            sabotage: sabotage.ok_or_else(|| missing("sabotage"))?,
            program,
            input_kind,
            expected,
            actual,
        })
    }

    /// Re-runs the artifact's case and reports whether the disagreement
    /// still reproduces on the current tree.
    pub fn replay(&self) -> std::result::Result<ReplayOutcome, String> {
        // An embedded program takes precedence over the registry: fuzz
        // artifacts stay replayable even though their case was generated.
        let case = match &self.program {
            Some(token) => crate::fuzz_case::replay_case(token, self.input_kind.as_deref())
                .map_err(|e| format!("bad embedded program: {e}"))?,
            None => case_by_id(&self.case).ok_or_else(|| format!("unknown case: {}", self.case))?,
        };
        match self.kind {
            ReproKind::Mismatch => {
                let expected = case.run_reference(&self.input);
                let actual = case.run_cell(&self.input, &self.cell, self.sabotage);
                Ok(if outputs_agree(&expected, &actual, &self.input) {
                    ReplayOutcome::NotReproduced { actual }
                } else {
                    ReplayOutcome::Reproduced { expected, actual }
                })
            }
            kind => {
                let (invariant, violation) = kind.probe(case.as_ref(), &self.input, &self.cell);
                Ok(match violation {
                    Some(actual) => ReplayOutcome::Reproduced {
                        expected: invariant.into(),
                        actual,
                    },
                    None => ReplayOutcome::NotReproduced {
                        actual: invariant.into(),
                    },
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use symple_core::engine::MergePolicy;

    fn sample() -> Artifact {
        Artifact {
            case: "G1".into(),
            kind: ReproKind::Mismatch,
            input: CaseInput {
                seed: 42,
                len: 30,
                kept: Some(vec![3, 7, 11]),
            },
            cell: Cell {
                executor: ExecutorKind::ChunkedTree,
                chunks: 4,
                merge_policy: MergePolicy::Never,
                max_total_paths: 2,
                first_segment_concrete: false,
                faults: FaultKind::FailTwice,
            },
            sabotage: Sabotage::DropLastEvent,
            program: None,
            input_kind: None,
            expected: "Ok(3)".into(),
            actual: "Ok(2)".into(),
        }
    }

    #[test]
    fn render_parse_round_trips() {
        let a = sample();
        let text = a.render("[1, 2, 3]");
        assert_eq!(Artifact::parse(&text).unwrap(), a);

        // `kept: all` and `kept: (empty)` both survive.
        for kept in [None, Some(vec![])] {
            let mut b = sample();
            b.input.kept = kept;
            let text = b.render("[]");
            assert_eq!(Artifact::parse(&text).unwrap(), b);
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Artifact::parse("not an artifact").is_err());
        let truncated = format!("{HEADER}\ncase: G1\n");
        let err = Artifact::parse(&truncated).unwrap_err();
        assert!(err.contains("missing key"), "{err}");
        let bad = sample().render("[]").replace("chunks: 4", "chunks: x");
        assert!(Artifact::parse(&bad).is_err());
    }

    #[test]
    fn clean_tree_does_not_reproduce_sound_cell() {
        let a = Artifact {
            case: "G1".into(),
            kind: ReproKind::Mismatch,
            input: CaseInput::full(7, 24),
            cell: Cell::default_chunked(3),
            sabotage: Sabotage::None,
            program: None,
            input_kind: None,
            expected: String::new(),
            actual: String::new(),
        };
        assert!(matches!(
            a.replay().unwrap(),
            ReplayOutcome::NotReproduced { .. }
        ));
    }

    #[test]
    fn sabotaged_artifact_reproduces() {
        let a = Artifact {
            case: "G1".into(),
            kind: ReproKind::Mismatch,
            input: CaseInput::full(7, 24),
            cell: Cell::default_chunked(3),
            sabotage: Sabotage::ReorderChunks,
            program: None,
            input_kind: None,
            expected: String::new(),
            actual: String::new(),
        };
        // Reordering chain application is only *observable* when the UDA is
        // order-sensitive; G1 counts pushes so reordering still agrees.
        // Use the artifact machinery itself to find out, rather than
        // hard-coding: replay must at minimum not error.
        a.replay().unwrap();
    }

    #[test]
    fn unknown_case_is_an_error() {
        let mut a = sample();
        a.case = "NOPE".into();
        assert!(a.replay().is_err());
    }

    #[test]
    fn registry_artifact_format_is_unchanged() {
        // `program:`/`input-kind:` lines appear only for fuzz cases, so
        // pre-fuzzer artifacts (and their byte-level format) still parse
        // and render identically.
        let text = sample().render("[]");
        assert!(!text.contains("program:"));
        assert!(!text.contains("input-kind:"));
    }

    #[test]
    fn embedded_program_round_trips_and_replays() {
        let mut a = sample();
        a.case = "FUZZ".into();
        a.cell = Cell::default_chunked(3);
        a.sabotage = Sabotage::None;
        a.program = Some("fields[i32=0] body[(iadd 0 ev)]".into());
        a.input_kind = Some("uniform".into());
        let text = a.render("[]");
        let parsed = Artifact::parse(&text).unwrap();
        assert_eq!(parsed, a);
        // Replay resolves the case from the embedded token, not the
        // registry, and a plain sum is sound — not reproduced.
        assert!(matches!(
            parsed.replay().unwrap(),
            ReplayOutcome::NotReproduced { .. }
        ));
    }

    #[test]
    fn bad_embedded_program_is_an_error() {
        let mut a = sample();
        a.program = Some("fields[] body[".into());
        assert!(a.replay().is_err());
    }
}
