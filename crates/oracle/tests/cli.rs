//! Drives the `symple-oracle` and `symple-fuzz` binaries themselves: exit
//! codes and the sweep → artifact → replay loop, exactly as CI and a human
//! would use them.

use std::path::{Path, PathBuf};
use std::process::Command;

const ORACLE: &str = env!("CARGO_BIN_EXE_symple-oracle");
const FUZZ: &str = env!("CARGO_BIN_EXE_symple-fuzz");

/// Both binaries, for the cases their shared front end must answer alike.
const BOTH: [&str; 2] = [ORACLE, FUZZ];

/// Runs `exe` with `args`: its exit code and stdout.
fn run(exe: &str, args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(exe).args(args).output().unwrap();
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into(),
    )
}

fn replay(exe: &str, artifact: &Path) -> (Option<i32>, String) {
    run(exe, &["--replay", artifact.to_str().unwrap()])
}

fn corpus() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/corpus")
}

fn tmp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("symple-oracle-cli-{}-{tag}", std::process::id()))
}

#[test]
fn help_exits_zero() {
    for exe in BOTH {
        let (code, stdout) = run(exe, &["--help"]);
        assert_eq!(code, Some(0), "{exe}");
        assert!(
            stdout.contains("--smoke") && stdout.contains("--replay"),
            "{exe}: {stdout}"
        );
    }
}

#[test]
fn usage_errors_exit_two() {
    let mut cases: Vec<(&str, Vec<&str>)> = Vec::new();
    for exe in BOTH {
        cases.push((exe, vec!["--bogus"]));
        cases.push((exe, vec!["--smoke", "--seed", "notanumber"]));
        cases.push((exe, vec!["--replay", "/nonexistent/file.txt"]));
        cases.push((exe, vec!["--smoke", "--sabotage", "bogus"]));
        cases.push((exe, vec!["--smoke", "--sabotage"]));
    }
    cases.push((ORACLE, vec![]));
    cases.push((ORACLE, vec!["--smoke", "--deep"]));
    cases.push((ORACLE, vec!["--smoke", "--case", "NOPE"]));
    cases.push((FUZZ, vec!["--budget", "-1"]));
    // The fuzz matrix has no faulted-store cell, so `dropped-tear` would
    // never be applied and its self-test would pass: refused up front.
    cases.push((FUZZ, vec!["--smoke", "--sabotage", "dropped-tear"]));
    for (exe, args) in cases {
        assert_eq!(run(exe, &args).0, Some(2), "{exe} {args:?}");
    }
}

#[test]
fn replay_exits_zero_on_a_fixed_bug_and_one_on_a_sabotage_recording() {
    let recording = std::fs::read_dir(corpus())
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.to_string_lossy().contains("/repro-FUZZ-"))
        .min()
        .expect("a repro-FUZZ-* recording in tests/corpus");
    for exe in BOTH {
        let (code, stdout) = replay(exe, &corpus().join("pin-iset-width-hole.txt"));
        assert_eq!(code, Some(0), "{exe}: {stdout}");
        assert!(stdout.contains("not reproduced"), "{exe}: {stdout}");
        let (code, stdout) = replay(exe, &recording);
        assert_eq!(code, Some(1), "{exe}: {stdout}");
        assert!(stdout.contains("REPRODUCED"), "{exe}: {stdout}");
    }
}

#[test]
fn smoke_single_case_passes() {
    let (code, stdout) = run(ORACLE, &["--smoke", "--case", "T1", "--no-artifacts"]);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.contains("PASS"), "{stdout}");
}

#[test]
fn sabotage_fails_writes_artifact_and_replays() {
    let dir = tmp_dir("sabotage");
    let _ = std::fs::remove_dir_all(&dir);

    // 1. Sabotaged sweep must fail and write a repro.
    let sweep = [
        "--smoke",
        "--case",
        "OVF",
        "--sabotage",
        "drop-last-event",
        "--artifact-dir",
        dir.to_str().unwrap(),
    ];
    let (code, stdout) = run(ORACLE, &sweep);
    assert_eq!(code, Some(1), "{stdout}");
    assert!(stdout.contains("FAIL"), "{stdout}");

    let repro = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|e| e == "txt"))
        .expect("a repro file");

    // 2. Replaying the repro must reproduce (exit 1).
    let (code, stdout) = replay(ORACLE, &repro);
    assert_eq!(code, Some(1), "{stdout}");
    assert!(stdout.contains("REPRODUCED"), "{stdout}");

    // 3. The same repro with the sabotage stripped no longer reproduces
    //    (exit 0): the tree itself is sound.
    let text = std::fs::read_to_string(&repro).unwrap();
    let clean = text.replace("sabotage: drop-last-event", "sabotage: none");
    let clean_path = dir.join("clean.txt");
    std::fs::write(&clean_path, clean).unwrap();
    let (code, stdout) = replay(ORACLE, &clean_path);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.contains("not reproduced"), "{stdout}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn replay_rejects_malformed_artifacts() {
    let dir = tmp_dir("malformed");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("bad.txt");
    std::fs::write(&path, "SYMPLE-ORACLE-REPRO v1\ncase: G1\n").unwrap();
    for exe in BOTH {
        assert_eq!(replay(exe, &path).0, Some(2), "{exe}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
