#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # symple-analyze
//!
//! Lint diagnostics derived from `symple-core`'s static UDA analysis
//! ([`symple_core::analyze_uda`]): the library behind the `symple-lint`
//! CLI and the oracle's `--analyze-first` pre-flight.
//!
//! The analyzer abstractly interprets a UDA's `update` once per event
//! variant from the all-symbolic "top" state; this crate turns the
//! resulting [`UdaAnalysis`] into stable, numbered diagnostics:
//!
//! | code  | severity | meaning |
//! |-------|----------|---------|
//! | SY001 | error    | analysis could not bound the per-record path tree |
//! | SY002 | warn     | per-record branching factor ≥ 8 |
//! | SY003 | warn     | predicate window grows without the value binding |
//! | SY004 | warn     | overflow-prone accumulator (monotone, no rebind) |
//! | SY005 | warn     | state field written but never read |
//! | SY006 | info     | vector accumulates symbolic elements |
//! | SY007 | info     | sibling paths never merge (`M == B > 1`) |
//! | SY008 | info     | straight-line UDA (never forks) |
//!
//! Codes are a compatibility surface: renumbering or re-meaning one is a
//! breaking change (the golden-file test pins the full report for the 12
//! paper queries). Adding a new code at the end is fine.

pub mod coverage;

pub use coverage::{diag_signature, DiagCoverage};

use symple_core::{EngineConfig, MergePolicy, UdaAnalysis};
use symple_obs::json::{obj, Json};

/// Report schema identifier emitted by [`render_json`].
pub const SCHEMA: &str = "symple-lint/v1";

/// Branching factor at which `SY002` fires. The default engine allows 64
/// paths per record; a per-record fan-out of 8 leaves fewer than two
/// doublings of headroom for live paths entering the record.
pub const HIGH_BRANCHING: usize = 8;

/// Accumulator growth step at which `SY004` fires even for 64-bit fields:
/// with steps this large, ~2³² records overflow — reachable in one job.
pub const BIG_STEP: u64 = 1 << 32;

/// Diagnostic severity, ordered from worst to mildest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// The engine is expected to refuse (or the analysis itself failed).
    Error,
    /// Likely correctness or capacity hazard; worth changing the UDA.
    Warn,
    /// Structural observation; useful for tuning, not a hazard.
    Info,
}

impl Severity {
    /// Lower-case label used in both renderers.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warn => "warn",
            Severity::Info => "info",
        }
    }
}

/// One stable lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable code, `SY001`…
    pub code: &'static str,
    /// Severity class.
    pub severity: Severity,
    /// The state field the finding is about, if field-scoped.
    pub field: Option<String>,
    /// Human-readable explanation with the concrete numbers inlined.
    pub message: String,
}

/// A row of the `--list-codes` table.
#[derive(Debug, Clone, Copy)]
pub struct CodeInfo {
    /// Stable code.
    pub code: &'static str,
    /// Severity class.
    pub severity: Severity,
    /// Short title.
    pub title: &'static str,
    /// One-line meaning.
    pub meaning: &'static str,
}

/// The full code table, in code order.
pub const CODES: [CodeInfo; 8] = [
    CodeInfo {
        code: "SY001",
        severity: Severity::Error,
        title: "path explosion under analysis",
        meaning: "the per-record path tree could not be bounded; the engine will refuse",
    },
    CodeInfo {
        code: "SY002",
        severity: Severity::Warn,
        title: "high branching factor",
        meaning: "a single record forks 8+ paths; little headroom before the per-record bound",
    },
    CodeInfo {
        code: "SY003",
        severity: Severity::Warn,
        title: "unbounded predicate window",
        meaning: "a predicate's decision window grows every record without the value binding",
    },
    CodeInfo {
        code: "SY004",
        severity: Severity::Warn,
        title: "overflow-prone accumulator",
        meaning: "an integer grows monotonically with no rebind and a narrow width or huge step",
    },
    CodeInfo {
        code: "SY005",
        severity: Severity::Warn,
        title: "dead state field",
        meaning: "written but never read by a guard, a vector element, or result",
    },
    CodeInfo {
        code: "SY006",
        severity: Severity::Info,
        title: "symbolic vector accumulation",
        meaning: "a vector stores elements referencing unknown state; summaries grow with matches",
    },
    CodeInfo {
        code: "SY007",
        severity: Severity::Info,
        title: "unmergeable sibling paths",
        meaning: "no two paths of one record merge (M == B > 1); relies on the restart fallback",
    },
    CodeInfo {
        code: "SY008",
        severity: Severity::Info,
        title: "straight-line UDA",
        meaning: "update never forks; path merging is pure overhead (policy Never suggested)",
    },
];

/// Derives the diagnostics for one analyzed UDA, in code order (which is
/// also severity order: errors, then warnings, then infos).
pub fn lint_analysis(a: &UdaAnalysis) -> Vec<Diagnostic> {
    let mut out = Vec::new();

    // SY001: the analysis itself could not bound the UDA.
    for v in &a.variants {
        if v.exploded {
            out.push(Diagnostic {
                code: "SY001",
                severity: Severity::Error,
                field: None,
                message: format!(
                    "variant '{}' still had unexplored forks after {} paths; \
                     the engine will refuse streams containing it",
                    v.name,
                    symple_core::analysis::ANALYSIS_PATH_BOUND
                ),
            });
        } else if let Some(e) = &v.error {
            out.push(Diagnostic {
                code: "SY001",
                severity: Severity::Error,
                field: None,
                message: format!("variant '{}' errored under the abstract state: {e}", v.name),
            });
        }
    }

    // SY002: high per-record branching (skip when SY001 already covers
    // the same variant — an exploded B is pinned at the analysis bound).
    for v in &a.variants {
        if !v.exploded && v.branching >= HIGH_BRANCHING {
            out.push(Diagnostic {
                code: "SY002",
                severity: Severity::Warn,
                field: None,
                message: format!(
                    "variant '{}' forks {} paths per record (threshold {})",
                    v.name, v.branching, HIGH_BRANCHING
                ),
            });
        }
    }

    for f in &a.fields {
        // SY003: predicate window grows and the value never binds.
        if f.pred_left_unknown {
            out.push(Diagnostic {
                code: "SY003",
                severity: Severity::Warn,
                field: Some(f.name.clone()),
                message: format!(
                    "decision window grows by {} per record and the predicate \
                     never binds; the window bound ({}) will be hit",
                    f.pred_window_growth,
                    f.max_decisions
                        .map(|d| d.to_string())
                        .unwrap_or_else(|| "unset".into()),
                ),
            });
        }
    }

    for f in &a.fields {
        // SY004: monotone accumulator with no rebinding path anywhere and
        // either a narrow width, a huge step, or multiplicative growth.
        if f.kind == "int" && !f.rebound {
            let narrow = f.width.is_some_and(|w| w < 64);
            let hazardous =
                f.multiplicative || (f.growth_step > 0 && (narrow || f.growth_step >= BIG_STEP));
            if hazardous {
                let why = if f.multiplicative {
                    "multiplicative growth".to_string()
                } else if narrow {
                    format!("step {} at width {}", f.growth_step, f.width.unwrap_or(64))
                } else {
                    format!("step {} (≥ 2^32)", f.growth_step)
                };
                out.push(Diagnostic {
                    code: "SY004",
                    severity: Severity::Warn,
                    field: Some(f.name.clone()),
                    message: format!(
                        "accumulator grows monotonically with no rebinding path ({why}); \
                         long streams overflow"
                    ),
                });
            }
        }
    }

    for f in &a.fields {
        // SY005: written but never read.
        if f.dead() {
            out.push(Diagnostic {
                code: "SY005",
                severity: Severity::Warn,
                field: Some(f.name.clone()),
                message: "written by update but never read by a guard, a vector element, \
                          or result; state (and summary) bytes are wasted"
                    .to_string(),
            });
        }
    }

    for f in &a.fields {
        // SY006: symbolic vector accumulation.
        if f.pushed_symbolic > 0 {
            out.push(Diagnostic {
                code: "SY006",
                severity: Severity::Info,
                field: Some(f.name.clone()),
                message: format!(
                    "appends up to {} symbolic element(s) per record; \
                     summary size grows with the match count",
                    f.pushed_symbolic
                ),
            });
        }
    }

    // SY007 / SY008: merge-shape observations, mutually exclusive.
    let b = a.max_branching();
    if !a.any_exploded() {
        if b > 1 && a.max_merged() == b {
            out.push(Diagnostic {
                code: "SY007",
                severity: Severity::Info,
                field: None,
                message: format!(
                    "all {b} sibling paths survive merging; live paths are bounded \
                     only by the restart fallback"
                ),
            });
        } else if b == 1 {
            out.push(Diagnostic {
                code: "SY008",
                severity: Severity::Info,
                field: None,
                message: "update never forks from the symbolic state; merge policy Never \
                          avoids pointless merge scans"
                    .to_string(),
            });
        }
    }

    out
}

/// One query's lint result: the analysis, the derived config, and the
/// diagnostics.
#[derive(Debug, Clone)]
pub struct QueryLint {
    /// Query id from the registry (`"G1"`…).
    pub id: String,
    /// The underlying static analysis.
    pub analysis: UdaAnalysis,
    /// Engine tuning derived via [`EngineConfig::from_analysis`].
    pub suggested: EngineConfig,
    /// Diagnostics in code order.
    pub diagnostics: Vec<Diagnostic>,
}

impl QueryLint {
    /// Lints one analysis under a query id.
    pub fn new(id: &str, analysis: UdaAnalysis) -> QueryLint {
        let suggested = EngineConfig::from_analysis(&analysis);
        let diagnostics = lint_analysis(&analysis);
        QueryLint {
            id: id.to_string(),
            analysis,
            suggested,
            diagnostics,
        }
    }

    /// Worst severity present, if any finding exists.
    pub fn worst(&self) -> Option<Severity> {
        self.diagnostics.iter().map(|d| d.severity).min()
    }
}

/// Lints every query in the registry (the 12 Table 1 rows), in registry
/// order.
pub fn lint_registry() -> Vec<QueryLint> {
    symple_queries::registry::all_queries()
        .iter()
        .map(|q| QueryLint::new(q.info().id, q.analyze()))
        .collect()
}

/// Lints a single registry query by id (including `F1` and the condensed
/// RedShift variants). `None` for unknown ids.
pub fn lint_query_by_id(id: &str) -> Option<QueryLint> {
    let q = symple_queries::registry::runner_by_id(id)?;
    Some(QueryLint::new(q.info().id, q.analyze()))
}

/// Severity tally over a report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LintTotals {
    /// Count of error-severity findings.
    pub errors: usize,
    /// Count of warn-severity findings.
    pub warnings: usize,
    /// Count of info-severity findings.
    pub infos: usize,
}

/// Tallies severities across a set of query lints.
pub fn totals(lints: &[QueryLint]) -> LintTotals {
    let mut t = LintTotals::default();
    for l in lints {
        for d in &l.diagnostics {
            match d.severity {
                Severity::Error => t.errors += 1,
                Severity::Warn => t.warnings += 1,
                Severity::Info => t.infos += 1,
            }
        }
    }
    t
}

fn policy_str(p: MergePolicy) -> &'static str {
    match p {
        MergePolicy::Eager => "eager",
        MergePolicy::HighWater => "high-water",
        MergePolicy::Never => "never",
    }
}

/// Horizon of the path-growth matrix included in the JSON report.
const GROWTH_HORIZON: usize = 4;

/// Counts travel as JSON numbers (`f64`): exact below 2^53, which a
/// growth factor would have to exceed 9 741 to leave within the horizon.
fn growth_row(a: &UdaAnalysis, p: MergePolicy) -> Json {
    Json::Arr(
        a.path_growth(p, GROWTH_HORIZON)
            .into_iter()
            .map(|n| Json::Num(n as f64))
            .collect(),
    )
}

/// Renders the machine-readable report (schema [`SCHEMA`]).
pub fn render_json(lints: &[QueryLint]) -> String {
    let queries: Vec<Json> = lints
        .iter()
        .map(|l| {
            let a = &l.analysis;
            let variants: Vec<Json> = a
                .variants
                .iter()
                .map(|v| {
                    obj(vec![
                        ("name", Json::Str(v.name.to_string())),
                        ("branching", Json::Num(v.branching as f64)),
                        ("merged", Json::Num(v.merged as f64)),
                        ("exploded", Json::Bool(v.exploded)),
                    ])
                })
                .collect();
            let fields: Vec<Json> = a
                .fields
                .iter()
                .map(|f| {
                    obj(vec![
                        ("name", Json::Str(f.name.clone())),
                        ("kind", Json::Str(f.kind.to_string())),
                        ("written", Json::Bool(f.written)),
                        ("live", Json::Bool(f.live())),
                    ])
                })
                .collect();
            let diags: Vec<Json> = l
                .diagnostics
                .iter()
                .map(|d| {
                    obj(vec![
                        ("code", Json::Str(d.code.to_string())),
                        ("severity", Json::Str(d.severity.as_str().to_string())),
                        (
                            "field",
                            d.field.clone().map(Json::Str).unwrap_or(Json::Null),
                        ),
                        ("message", Json::Str(d.message.clone())),
                    ])
                })
                .collect();
            obj(vec![
                ("id", Json::Str(l.id.clone())),
                ("branching", Json::Num(a.max_branching() as f64)),
                ("merged", Json::Num(a.max_merged() as f64)),
                ("variants", Json::Arr(variants)),
                ("fields", Json::Arr(fields)),
                (
                    "path_growth",
                    obj(vec![
                        ("eager", growth_row(a, MergePolicy::Eager)),
                        ("high_water", growth_row(a, MergePolicy::HighWater)),
                        ("never", growth_row(a, MergePolicy::Never)),
                    ]),
                ),
                (
                    "suggested_config",
                    obj(vec![
                        (
                            "merge_policy",
                            Json::Str(policy_str(l.suggested.merge_policy).to_string()),
                        ),
                        (
                            "max_total_paths",
                            Json::Num(l.suggested.max_total_paths as f64),
                        ),
                        (
                            "max_paths_per_record",
                            Json::Num(l.suggested.max_paths_per_record as f64),
                        ),
                    ]),
                ),
                ("diagnostics", Json::Arr(diags)),
            ])
        })
        .collect();
    let t = totals(lints);
    obj(vec![
        ("schema", Json::Str(SCHEMA.to_string())),
        ("queries", Json::Arr(queries)),
        (
            "totals",
            obj(vec![
                ("errors", Json::Num(t.errors as f64)),
                ("warnings", Json::Num(t.warnings as f64)),
                ("infos", Json::Num(t.infos as f64)),
            ]),
        ),
    ])
    .render()
}

/// Renders the human-readable report.
pub fn render_human(lints: &[QueryLint]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for l in lints {
        let a = &l.analysis;
        let _ = writeln!(
            out,
            "{}: B={} M={}  suggest {} (per-record {}, total {})",
            l.id,
            a.max_branching(),
            a.max_merged(),
            policy_str(l.suggested.merge_policy),
            l.suggested.max_paths_per_record,
            l.suggested.max_total_paths,
        );
        for d in &l.diagnostics {
            let scope = d
                .field
                .as_deref()
                .map(|f| format!(" [{f}]"))
                .unwrap_or_default();
            let _ = writeln!(
                out,
                "  {:5} {}{}: {}",
                d.severity.as_str(),
                d.code,
                scope,
                d.message
            );
        }
    }
    let t = totals(lints);
    let _ = writeln!(
        out,
        "summary: {} error(s), {} warning(s), {} info(s) across {} quer{}",
        t.errors,
        t.warnings,
        t.infos,
        lints.len(),
        if lints.len() == 1 { "y" } else { "ies" },
    );
    out
}

/// Renders the `--list-codes` table.
pub fn render_codes() -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "{:<6} {:<6} {:<30} meaning", "code", "sev", "title");
    for c in CODES {
        let _ = writeln!(
            out,
            "{:<6} {:<6} {:<30} {}",
            c.code,
            c.severity.as_str(),
            c.title,
            c.meaning
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use symple_core::ctx::SymCtx;
    use symple_core::impl_sym_state;
    use symple_core::uda::Uda;
    use symple_core::{analyze_uda, SymBool, SymInt};

    struct OverflowUda;

    #[derive(Clone, Debug)]
    struct OneInt {
        sum: SymInt,
    }
    impl_sym_state!(OneInt { sum });

    impl Uda for OverflowUda {
        type State = OneInt;
        type Event = i64;
        type Output = i64;
        fn init(&self) -> OneInt {
            OneInt {
                sum: SymInt::new(0),
            }
        }
        fn update(&self, s: &mut OneInt, ctx: &mut SymCtx, e: &i64) {
            s.sum.add(ctx, *e);
        }
        fn result(&self, s: &OneInt, _ctx: &mut SymCtx) -> i64 {
            s.sum.concrete_value().unwrap_or(0)
        }
    }

    #[test]
    fn big_step_accumulator_trips_sy004() {
        let a = analyze_uda(&OverflowUda, &[("small", 3), ("giant", i64::MAX / 8)]);
        let diags = lint_analysis(&a);
        assert!(diags.iter().any(|d| d.code == "SY004"), "{diags:?}");
        // Small steps alone stay clean.
        let a = analyze_uda(&OverflowUda, &[("small", 3)]);
        let diags = lint_analysis(&a);
        assert!(!diags.iter().any(|d| d.code == "SY004"), "{diags:?}");
        // Straight-line info fires either way.
        assert!(diags.iter().any(|d| d.code == "SY008"));
    }

    struct NarrowUda;

    impl Uda for NarrowUda {
        type State = OneInt;
        type Event = i64;
        type Output = i64;
        fn init(&self) -> OneInt {
            OneInt {
                sum: SymInt::with_width(16, 0),
            }
        }
        fn update(&self, s: &mut OneInt, ctx: &mut SymCtx, e: &i64) {
            s.sum.add(ctx, *e);
        }
        fn result(&self, s: &OneInt, _ctx: &mut SymCtx) -> i64 {
            s.sum.concrete_value().unwrap_or(0)
        }
    }

    #[test]
    fn narrow_width_accumulator_errors_under_analysis() {
        // A width-16 accumulator overflows the moment it is bumped from
        // the full symbolic range, so the abstract run itself errors —
        // the analyzer reports SY001 rather than the softer SY004.
        let a = analyze_uda(&NarrowUda, &[("event", 1)]);
        let diags = lint_analysis(&a);
        let d = diags.iter().find(|d| d.code == "SY001").expect("SY001");
        assert!(d.message.contains("overflow"), "{}", d.message);
        assert_eq!(d.severity, Severity::Error);
    }

    struct ForkBombUda;

    #[derive(Clone, Debug)]
    struct Bools7 {
        b0: SymBool,
        b1: SymBool,
        b2: SymBool,
        b3: SymBool,
        b4: SymBool,
        b5: SymBool,
        b6: SymBool,
    }
    impl_sym_state!(Bools7 {
        b0,
        b1,
        b2,
        b3,
        b4,
        b5,
        b6
    });

    impl Uda for ForkBombUda {
        type State = Bools7;
        type Event = i64;
        type Output = i64;
        fn init(&self) -> Bools7 {
            Bools7 {
                b0: SymBool::new(false),
                b1: SymBool::new(false),
                b2: SymBool::new(false),
                b3: SymBool::new(false),
                b4: SymBool::new(false),
                b5: SymBool::new(false),
                b6: SymBool::new(false),
            }
        }
        fn update(&self, s: &mut Bools7, ctx: &mut SymCtx, _e: &i64) {
            let _ = s.b0.get(ctx);
            let _ = s.b1.get(ctx);
            let _ = s.b2.get(ctx);
            let _ = s.b3.get(ctx);
            let _ = s.b4.get(ctx);
            let _ = s.b5.get(ctx);
            let _ = s.b6.get(ctx);
        }
        fn result(&self, _s: &Bools7, _ctx: &mut SymCtx) -> i64 {
            0
        }
    }

    #[test]
    fn explosion_is_an_error_and_gates_exit_code() {
        let a = analyze_uda(&ForkBombUda, &[("any", 0)]);
        let l = QueryLint::new("BOMB", a);
        assert_eq!(l.worst(), Some(Severity::Error));
        let d = &l.diagnostics[0];
        assert_eq!(d.code, "SY001");
        assert!(d.message.contains("'any'"));
        let t = totals(std::slice::from_ref(&l));
        assert_eq!(t.errors, 1);
    }

    #[test]
    fn registry_sweep_is_clean_of_errors() {
        let lints = lint_registry();
        assert_eq!(lints.len(), 12);
        let t = totals(&lints);
        assert_eq!(t.errors, 0, "{}", render_human(&lints));
        // Every paper query gets at least one structural observation.
        for l in &lints {
            assert!(
                !l.diagnostics.is_empty() || l.analysis.max_branching() > 1,
                "query {} produced no finding at all",
                l.id
            );
        }
    }

    #[test]
    fn json_report_is_deterministic_and_tagged() {
        let lints = lint_registry();
        let a = render_json(&lints);
        assert_eq!(a, render_json(&lint_registry()));
        assert!(a.contains("\"schema\": \"symple-lint/v1\""));
    }

    #[test]
    fn code_table_is_sorted_and_unique() {
        let codes: Vec<&str> = CODES.iter().map(|c| c.code).collect();
        let mut sorted = codes.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(codes, sorted);
        assert!(render_codes().contains("SY005"));
    }
}
