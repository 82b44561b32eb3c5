//! `symple-cli run` explains itself when `SYMPLE_OBS` is set: after the
//! job report it prints the `symple-obs` snapshot of that job to stderr,
//! and the snapshot agrees with the report.

use std::path::Path;
use std::process::{Command, Output};

fn cli(args: &[&str], obs: Option<&str>) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_symple-cli"));
    cmd.args(args).env_remove("SYMPLE_OBS");
    if let Some(v) = obs {
        cmd.env("SYMPLE_OBS", v);
    }
    let out = cmd.output().expect("symple-cli runs");
    assert!(out.status.success(), "symple-cli {args:?}: {out:?}");
    out
}

/// The whitespace-separated columns after `name` on the snapshot line
/// that starts with it.
fn snapshot_row<'a>(stderr: &'a str, name: &str) -> Vec<&'a str> {
    stderr
        .lines()
        .find_map(|l| {
            let mut words = l.split_whitespace();
            (words.next() == Some(name)).then(|| words.collect())
        })
        .unwrap_or_else(|| panic!("no `{name}` row in:\n{stderr}"))
}

fn run_g1(input: &Path, obs: Option<&str>) -> (String, String) {
    let out = cli(
        &["run", "--query", "G1", "--input", input.to_str().unwrap()],
        obs,
    );
    (
        String::from_utf8(out.stdout).unwrap(),
        String::from_utf8(out.stderr).unwrap(),
    )
}

#[test]
fn run_prints_the_obs_snapshot_when_symple_obs_is_set() {
    let dir = std::env::temp_dir().join(format!("symple-cli-obs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    cli(
        &[
            "generate",
            "--dataset",
            "github",
            "--records",
            "3000",
            "--groups",
            "88",
            "--segments",
            "4",
            "--out",
            dir.to_str().unwrap(),
        ],
        None,
    );

    let (stdout, stderr) = run_g1(&dir, Some("1"));
    // "  shuffle         : <bytes> bytes in <records> records"
    let shuffle_bytes = stdout
        .lines()
        .find_map(|l| l.trim_start().strip_prefix("shuffle"))
        .and_then(|rest| rest.split_whitespace().nth(1))
        .unwrap_or_else(|| panic!("no shuffle line in:\n{stdout}"));
    assert!(stderr.contains("--- obs snapshot ---"), "{stderr}");
    assert_eq!(snapshot_row(&stderr, "symple.job")[0], "1", "span count");
    assert_eq!(snapshot_row(&stderr, "shuffle.bytes"), [shuffle_bytes]);
    // Exploration totals follow, from the job's metrics.
    assert_ne!(snapshot_row(&stderr, "explore.records"), ["0"]);

    // Off by default, and `SYMPLE_OBS=0` means off: nothing on stderr and
    // the same report (its two `cpu` lines are timed, the rest is not).
    let untimed = |report: &str| -> Vec<String> {
        report
            .lines()
            .filter(|l| !l.contains(" cpu "))
            .map(str::to_string)
            .collect()
    };
    for off in [None, Some("0")] {
        let (plain_stdout, plain_stderr) = run_g1(&dir, off);
        assert_eq!(untimed(&plain_stdout), untimed(&stdout));
        assert!(plain_stderr.is_empty(), "{plain_stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
