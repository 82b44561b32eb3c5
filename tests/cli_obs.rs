//! `symple-cli run` explains itself when `SYMPLE_OBS` is set: after the
//! job report it prints the job's `JobMetrics` record to stderr, one row
//! per value, and the record agrees with the report.

use std::path::Path;
use std::process::{Command, Output};

use symple::mapreduce::JobMetrics;

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

/// Word `n` of the line whose first word is `first`: a record row is
/// `name value`, a report line `label : words…`.
fn word<'a>(text: &'a str, first: &str, n: usize) -> &'a str {
    text.lines()
        .map(|l| l.split_whitespace().collect::<Vec<_>>())
        .find(|words| words.first() == Some(&first))
        .and_then(|words| words.get(n).copied())
        .unwrap_or_else(|| panic!("no `{first}` line with word {n} in:\n{text}"))
}

fn run_g1(input: &Path, cache: Option<&Path>, obs: Option<&str>) -> (String, String) {
    let mut args = vec!["run", "--query", "G1", "--input", input.to_str().unwrap()];
    if let Some(dir) = cache {
        args.extend(["--cache-dir", dir.to_str().unwrap()]);
    }
    let out = cli(&args, obs);
    (
        String::from_utf8(out.stdout).unwrap(),
        String::from_utf8(out.stderr).unwrap(),
    )
}

#[test]
fn run_prints_the_job_record_when_symple_obs_is_set() {
    let dir = std::env::temp_dir().join(format!("symple-cli-obs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (data, cache) = (dir.join("data"), dir.join("cache"));
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
            data.to_str().unwrap(),
        ],
        None,
    );

    // Exactly one row per `JobMetrics` value, in table order, nothing else.
    let (stdout, stderr) = run_g1(&data, None, Some("1"));
    let printed: Vec<&str> = stderr
        .lines()
        .map(|l| l.split_whitespace().next().unwrap_or(""))
        .collect();
    let declared = JobMetrics::default().rows().map(|(name, ..)| name);
    assert_eq!(printed, declared, "{stderr}");
    // "  shuffle         : <bytes> bytes in <records> records"
    // "  symbolic        : <runs> runs over <records> records, …"
    for (name, label, n) in [
        ("shuffle.bytes", "shuffle", 2),
        ("shuffle.records", "shuffle", 5),
        ("explore.records", "symbolic", 5),
    ] {
        assert_eq!(word(&stderr, name, 1), word(&stdout, label, n), "{name}");
    }
    assert_eq!(word(&stderr, "input.records", 1), "3000");

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
        let (plain_stdout, plain_stderr) = run_g1(&data, None, off);
        assert_eq!(untimed(&plain_stdout), untimed(&stdout));
        assert!(plain_stderr.is_empty(), "{plain_stderr}");
    }

    // The record is that job's alone: a cold cached run misses every
    // chunk, a second run over the same input hits every one.
    let (_, cold) = run_g1(&data, Some(&cache), Some("1"));
    let chunks = word(&cold, "cache.misses", 1);
    assert_ne!(chunks, "0", "{cold}");
    assert_eq!(word(&cold, "cache.hits", 1), "0");
    let (_, warm) = run_g1(&data, Some(&cache), Some("1"));
    assert_eq!(word(&warm, "cache.hits", 1), chunks);
    assert_eq!(word(&warm, "cache.misses", 1), "0");
    let _ = std::fs::remove_dir_all(&dir);
}
