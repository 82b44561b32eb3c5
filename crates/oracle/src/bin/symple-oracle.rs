//! Differential soundness oracle CLI: `--smoke` is the CI gate, `--deep
//! --seed <s>` the full-matrix sweep, `--replay <file>` the regression
//! check, and `--sabotage <kind>` a self-test that must fail. `--help`
//! prints the flags and exit codes.

mod front;

use std::process::ExitCode;

use front::{print_findings, sabotage_note, value, Cli};
use symple_oracle::{all_cases, case_by_id, run_oracle, Depth, Sabotage};

const HEAD: &str = "\
symple-oracle: differential soundness oracle for the SYMPLE engine

USAGE:
    symple-oracle --smoke [OPTIONS]         quick sweep (CI gate)
    symple-oracle --deep  [OPTIONS]         full-matrix sweep
    symple-oracle --replay <ARTIFACT>       re-run a repro artifact";

const OPTIONS: &str = "    --case <ID>           sweep a single case (G1..G4, B1..B3, T1,
                          R1..R4, F1, GPS, OVF, RST, VEC, SUB)
    --analyze-first       run the static analyzer over each case first and
                          skip matrix cells it predicts the engine will
                          refuse (PathExplosion) — no differential signal
                          there, only wasted path growth";

fn main() -> ExitCode {
    // Both matrices run every executor, so every sabotage is observable.
    let cli = Cli::new(HEAD, OPTIONS, "target/oracle", Sabotage::ALL[1..].to_vec());
    let mut depth = None;
    let mut case_filter: Option<String> = None;
    let mut analyze_first = false;
    let (mut opts, replay) = match cli.parse(|flag, args| {
        match flag {
            "--smoke" | "--deep" => {
                let d = if flag == "--smoke" {
                    Depth::Smoke
                } else {
                    Depth::Deep
                };
                if depth.is_some_and(|old| old != d) {
                    return Err("--smoke and --deep are mutually exclusive".into());
                }
                depth = Some(d);
            }
            "--case" => case_filter = Some(value(args, flag, "an id")?),
            "--analyze-first" => analyze_first = true,
            _ => return Ok(false),
        }
        Ok(true)
    }) {
        Ok(parsed) => parsed,
        Err(code) => return code,
    };

    if let Some(path) = &replay {
        if depth.is_some() {
            return cli.usage_error("--replay cannot be combined with --smoke/--deep");
        }
        return cli.replay(path);
    }
    let Some(depth) = depth else {
        return cli.usage_error("pick one of --smoke, --deep, or --replay");
    };
    if let Some(filter) = &case_filter {
        if case_by_id(filter).is_none() {
            // A typo'd filter would otherwise sweep zero cases and PASS.
            let ids: Vec<&str> = all_cases().iter().map(|c| c.id()).collect();
            return cli.usage_error(&format!(
                "unknown case {filter:?}; valid cases: {}",
                ids.join(", ")
            ));
        }
    }
    opts.depth = depth;
    opts.case_filter = case_filter;
    opts.analyze_first = analyze_first;

    println!(
        "symple-oracle: {} sweep, seed {}{}{}",
        format!("{depth:?}").to_lowercase(),
        opts.seed,
        opts.case_filter
            .as_deref()
            .map(|c| format!(", case {c}"))
            .unwrap_or_default(),
        sabotage_note(opts.sabotage),
    );
    let report = run_oracle(&opts);
    println!(
        "ran {} differential comparisons and {} determinism probes{}",
        report.comparisons,
        report.probes,
        if analyze_first {
            format!(" (skipped {} predicted-refusal cells)", report.skipped)
        } else {
            String::new()
        },
    );
    if report.clean() {
        println!("PASS: every cell agreed with the sequential reference");
        return ExitCode::SUCCESS;
    }
    print_findings(&report.findings);
    ExitCode::FAILURE
}
