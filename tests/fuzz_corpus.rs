//! Corpus-backed regression suite (fuzzer findings as ordinary tests).
//!
//! Every artifact committed under `tests/corpus/` replays here on each
//! `cargo test` run. Two flavors coexist:
//!
//! - `sabotage: none` — pins of real engine bugs the fuzzer found and we
//!   fixed. They must **not** reproduce: the current tree has to agree
//!   with the sequential reference on the recorded program and input.
//! - `sabotage: <kind>` — recordings made with a deliberately broken
//!   executor. Replay re-injects the recorded sabotage, so these must
//!   **still** reproduce; if one stops reproducing, the differential
//!   check itself has gone blind.
//!
//! A live self-test at the end runs a short sabotaged fuzz session and
//! requires it to find, shrink, and replay a divergence — proving the
//! whole detect → shrink → persist → replay loop end to end, not just
//! the committed files.

use std::path::PathBuf;

use symple_oracle::fuzz::{run_fuzz, FuzzOptions};
use symple_oracle::{Artifact, ReplayOutcome, Sabotage};

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}

fn corpus_artifacts() -> Vec<(PathBuf, Artifact)> {
    let mut out = Vec::new();
    let mut entries: Vec<_> = std::fs::read_dir(corpus_dir())
        .expect("tests/corpus must exist")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "txt"))
        .collect();
    entries.sort();
    for path in entries {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        let artifact = Artifact::parse(&text)
            .unwrap_or_else(|e| panic!("cannot parse {}: {e}", path.display()));
        out.push((path, artifact));
    }
    out
}

/// The corpus is actually populated — an empty directory would make every
/// other assertion here pass vacuously.
#[test]
fn corpus_is_nonempty_and_mixed() {
    let artifacts = corpus_artifacts();
    let pins = artifacts
        .iter()
        .filter(|(_, a)| a.sabotage == Sabotage::None)
        .count();
    let sabotaged = artifacts.len() - pins;
    assert!(
        pins >= 2,
        "expected at least the two fixed-bug pins, found {pins}"
    );
    assert!(
        sabotaged >= 3,
        "expected sabotage recordings for several kinds, found {sabotaged}"
    );
}

/// Fixed-bug pins stay fixed: replaying them on the current tree must
/// agree with the sequential reference.
#[test]
fn fixed_bug_pins_do_not_reproduce() {
    for (path, artifact) in corpus_artifacts() {
        if artifact.sabotage != Sabotage::None {
            continue;
        }
        match artifact.replay() {
            Ok(ReplayOutcome::NotReproduced { .. }) => {}
            Ok(ReplayOutcome::Reproduced { expected, actual }) => panic!(
                "REGRESSION: {} reproduces again\n  expected: {expected}\n  actual:   {actual}",
                path.display()
            ),
            Err(e) => panic!("{} failed to replay: {e}", path.display()),
        }
    }
}

/// Sabotage recordings keep reproducing: replay re-applies the recorded
/// executor sabotage, and the differential check must still flag it.
#[test]
fn sabotage_recordings_still_reproduce() {
    for (path, artifact) in corpus_artifacts() {
        if artifact.sabotage == Sabotage::None {
            continue;
        }
        match artifact.replay() {
            Ok(ReplayOutcome::Reproduced { .. }) => {}
            Ok(ReplayOutcome::NotReproduced { actual }) => panic!(
                "{} no longer reproduces under sabotage {} (got {actual}) — \
                 the differential oracle has gone blind to this bug class",
                path.display(),
                artifact.sabotage.as_str()
            ),
            Err(e) => panic!("{} failed to replay: {e}", path.display()),
        }
    }
}

/// Live end-to-end self-test: a short fuzz session against a sabotaged
/// executor must find a divergence, shrink it, and produce an artifact
/// that reproduces when replayed.
#[test]
fn sabotaged_fuzz_session_detects_and_replays() {
    let mut opts = FuzzOptions::new();
    opts.seed = 0;
    opts.budget = 48;
    opts.sabotage = Sabotage::DropLastEvent;
    opts.write_artifacts = false;
    opts.max_findings = 1;
    let report = run_fuzz(&opts);
    assert!(
        !report.findings.is_empty(),
        "sabotaged engine produced no findings in {} iterations",
        report.iterations
    );
    let artifact = &report.findings[0].artifact;
    // Round-trip through the on-disk format before replaying, exactly as
    // a committed corpus file would.
    let reparsed = Artifact::parse(&artifact.render("[]")).expect("artifact round-trips");
    match reparsed.replay() {
        Ok(ReplayOutcome::Reproduced { .. }) => {}
        other => panic!("shrunk sabotage artifact did not reproduce: {other:?}"),
    }
}
