//! Golden-file test for `symple-lint --json`: the exact report for the 12
//! paper queries is checked in under `tests/golden/lint.json`.
//!
//! The report is a compatibility surface (CI parses it, and SY codes are
//! stable identifiers), so analyzer or renderer changes must be loud and
//! deliberate. If a change is intentional, bump [`symple_analyze::SCHEMA`]
//! when the shape changes, regenerate with:
//!
//! ```text
//! REGEN_GOLDEN=1 cargo test -p symple-analyze --test golden_lint
//! ```
//!
//! and commit the updated golden file alongside the change (the same flow
//! as `symple-bench`'s `golden_cells` test).

use symple_analyze::{lint_registry, render_json, totals, Severity, SCHEMA};

const GOLDEN: &str = include_str!("golden/lint.json");

fn golden_path() -> String {
    format!("{}/tests/golden/lint.json", env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn golden_lint_report() {
    let lints = lint_registry();
    let rendered = render_json(&lints);

    if std::env::var_os("REGEN_GOLDEN").is_some() {
        std::fs::write(golden_path(), &rendered).unwrap();
        return;
    }

    assert_eq!(
        rendered, GOLDEN,
        "symple-lint --json output changed — if intentional, regenerate \
         with REGEN_GOLDEN=1 and commit the new golden file (bump SCHEMA \
         if the shape changed)"
    );

    // The acceptance gate: zero error-severity findings on the paper's
    // 12 queries, and the golden file itself says so.
    assert_eq!(totals(&lints).errors, 0);
    assert!(
        lints.iter().all(|l| l.worst() != Some(Severity::Error)),
        "an error-severity finding on a paper query"
    );
    assert!(GOLDEN.contains("\"errors\": 0"));
}

#[test]
fn golden_file_declares_current_schema_version() {
    // Belt-and-braces: the checked-in artifact names the schema version,
    // so a schema bump without regeneration fails even if the rendering
    // is otherwise untouched.
    assert!(
        GOLDEN.contains(&format!("\"schema\": \"{SCHEMA}\"")),
        "golden file does not declare schema {SCHEMA}"
    );
}

#[test]
fn golden_covers_all_twelve_queries() {
    for id in [
        "G1", "G2", "G3", "G4", "B1", "B2", "B3", "T1", "R1", "R2", "R3", "R4",
    ] {
        assert!(
            GOLDEN.contains(&format!("\"id\": \"{id}\"")),
            "golden file is missing query {id}"
        );
    }
}
