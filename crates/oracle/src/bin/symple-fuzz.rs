//! Coverage-guided UDA fuzzer CLI: `--smoke` is the CI gate (seed 0, 48
//! iterations, 60 s cap), `--seed`/`--budget` a longer deterministic run,
//! `--replay <file>` the regression check, and `--sabotage <kind>` a
//! self-test that must fail. `--help` prints the flags and exit codes.

mod front;

use std::process::ExitCode;

use front::{print_findings, sabotage_note, value, Cli};
use symple_oracle::fuzz::{run_fuzz, sabotages, FuzzOptions};

const HEAD: &str = "\
symple-fuzz: coverage-guided differential fuzzer for SYMPLE UDAs

USAGE:
    symple-fuzz --smoke [OPTIONS]           bounded CI run (48 iters, 60 s)
    symple-fuzz [OPTIONS]                   run with explicit --seed/--budget
    symple-fuzz --replay <ARTIFACT>         re-run a repro artifact";

const OPTIONS: &str = "    --budget <u64>        iteration budget (default 48); the same seed
                          and budget give the same case sequence,
                          coverage map, and findings
    --max-secs <u64>      wall-clock cap; truncates the run (default: none,
                          60 with --smoke)";

fn main() -> ExitCode {
    let cli = Cli::new(HEAD, OPTIONS, "target/fuzz", sabotages());
    let mut opts = FuzzOptions::new();
    let (sweep, replay) = match cli.parse(|flag, args| {
        match flag {
            // The CI preset; later flags may still override pieces.
            "--smoke" => {
                opts.budget = 48;
                opts.max_secs = Some(60);
            }
            "--budget" => opts.budget = value(args, flag, "a u64")?,
            "--max-secs" => opts.max_secs = Some(value(args, flag, "a u64")?),
            _ => return Ok(false),
        }
        Ok(true)
    }) {
        Ok(parsed) => parsed,
        Err(code) => return code,
    };
    if let Some(path) = &replay {
        return cli.replay(path);
    }
    opts.seed = sweep.seed;
    opts.sabotage = sweep.sabotage;
    opts.artifact_dir = sweep.artifact_dir;
    opts.write_artifacts = sweep.write_artifacts;

    println!(
        "symple-fuzz: seed {}, budget {}{}{}",
        opts.seed,
        opts.budget,
        opts.max_secs
            .map(|s| format!(", max {s}s"))
            .unwrap_or_default(),
        sabotage_note(opts.sabotage),
    );
    let report = run_fuzz(&opts);
    println!(
        "ran {} iterations, {} differential comparisons; {} behavior classes, corpus {}",
        report.iterations,
        report.comparisons,
        report.coverage.len(),
        report.corpus_size,
    );
    let codes = report.coverage.diag_union().codes();
    println!(
        "diagnostic coverage: {}/8 codes [{}]",
        codes.len(),
        codes.join(", ")
    );
    if report.clean() {
        println!("PASS: every generated case agreed with the sequential reference");
        return ExitCode::SUCCESS;
    }
    if !report.interp_mismatches.is_empty() {
        println!(
            "FAIL: concrete reference interpreter disagreed with sequential \
             execution on {} program(s):",
            report.interp_mismatches.len()
        );
        for token in &report.interp_mismatches {
            println!("  {token}");
        }
    }
    if !report.findings.is_empty() {
        print_findings(&report.findings);
    }
    ExitCode::FAILURE
}
