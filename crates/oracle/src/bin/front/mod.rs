//! The command-line front end `symple-oracle` and `symple-fuzz` share:
//! the flags both take and the usage text around them, `--replay`, and
//! the finding printer. Exit codes, in both: `0` clean run / artifact no
//! longer reproduces, `1` findings / artifact reproduced, `2` usage error.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;
use std::vec::IntoIter;

use symple_oracle::{Artifact, Depth, Finding, OracleOptions, ReplayOutcome, Sabotage};

/// The value after `flag`, parsed; `what` names it in the error.
pub fn value<T: FromStr>(args: &mut IntoIter<String>, flag: &str, what: &str) -> Result<T, String> {
    args.next()
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("{flag} needs {what}"))
}

/// One binary's front end: its usage text and the sabotages it offers.
pub struct Cli {
    usage: String,
    default_dir: &'static str,
    sabotages: Vec<Sabotage>,
}

impl Cli {
    /// `head` is the binary's title and `USAGE:` block, `own_options` the
    /// `OPTIONS:` lines of its own flags. Only `sabotages` — the kinds
    /// its sweeps can observe — are offered and accepted.
    pub fn new(
        head: &str,
        own_options: &str,
        default_dir: &'static str,
        sabotages: Vec<Sabotage>,
    ) -> Cli {
        let kinds: String = sabotages
            .iter()
            .map(|&s| format!("\n{:28}{:<20}{}", "", s.as_str(), cells(s)))
            .collect();
        let usage = format!(
            "{head}

OPTIONS:
{own_options}
    --seed <u64>          master seed (default 0): the same seed gives
                          the same run
    --sabotage <KIND>     deliberately break an executor; the run must
                          then FAIL (a self-test). KIND, and the cells
                          it breaks:{kinds}
    --artifact-dir <DIR>  where repro files go (default {default_dir})
    --no-artifacts        do not write repro files
    --help                this text

EXIT CODES:
    0  clean run, or replayed artifact no longer reproduces
    1  findings, or replayed artifact still reproduces
    2  usage error"
        );
        Cli {
            usage,
            default_dir,
            sabotages,
        }
    }

    /// Parses the command line. The shared flags fill the returned sweep
    /// options (`--seed`, `--sabotage`, `--artifact-dir`, `--no-artifacts`)
    /// and artifact to replay (`--replay`); any other flag goes to `own`,
    /// which returns `Ok(false)` for one it does not know either. `Err` is
    /// the exit code once help or a usage error has been printed.
    pub fn parse(
        &self,
        mut own: impl FnMut(&str, &mut IntoIter<String>) -> Result<bool, String>,
    ) -> Result<(OracleOptions, Option<PathBuf>), ExitCode> {
        let args: Vec<String> = std::env::args().skip(1).collect();
        if args.iter().any(|a| a == "--help" || a == "-h") {
            println!("{}", self.usage);
            return Err(ExitCode::SUCCESS);
        }
        let mut opts = OracleOptions {
            artifact_dir: self.default_dir.into(),
            ..OracleOptions::new(Depth::Smoke)
        };
        let mut replay = None;
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let parsed = match flag.as_str() {
                "--seed" => value(&mut args, &flag, "a u64").map(|s| opts.seed = s),
                "--sabotage" => self.sabotage(args.next()).map(|s| opts.sabotage = s),
                "--artifact-dir" => {
                    value(&mut args, &flag, "a path").map(|d| opts.artifact_dir = d)
                }
                "--no-artifacts" => {
                    opts.write_artifacts = false;
                    Ok(())
                }
                "--replay" => value(&mut args, &flag, "a file").map(|p| replay = Some(p)),
                _ => match own(&flag, &mut args) {
                    Ok(false) => Err(format!("unknown argument {flag:?}")),
                    known => known.map(|_| ()),
                },
            };
            if let Err(msg) = parsed {
                return Err(self.usage_error(&msg));
            }
        }
        Ok((opts, replay))
    }

    fn sabotage(&self, token: Option<String>) -> Result<Sabotage, String> {
        let kinds: Vec<&str> = self.sabotages.iter().map(|s| s.as_str()).collect();
        match token.as_deref().and_then(Sabotage::parse) {
            Some(s) if s == Sabotage::None || self.sabotages.contains(&s) => Ok(s),
            Some(s) => Err(format!(
                "--sabotage {} breaks only {} cells, and this sweep runs none; pick one of: {}",
                s.as_str(),
                cells(s),
                kinds.join(", ")
            )),
            None => Err(format!("--sabotage needs one of: {}", kinds.join(", "))),
        }
    }

    /// Prints `msg` and the usage text; exit code 2.
    pub fn usage_error(&self, msg: &str) -> ExitCode {
        eprintln!("error: {msg}\n\n{}", self.usage);
        ExitCode::from(2)
    }

    /// `--replay`: re-runs one artifact against the current tree.
    pub fn replay(&self, path: &Path) -> ExitCode {
        let artifact = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))
            .and_then(|text| {
                Artifact::parse(&text).map_err(|e| format!("cannot parse {}: {e}", path.display()))
            });
        let artifact = match artifact {
            Ok(a) => a,
            Err(msg) => return self.usage_error(&msg),
        };
        println!(
            "replaying {} ({} on {}, {})",
            path.display(),
            artifact.kind.as_str(),
            subject(&artifact),
            artifact.cell.describe()
        );
        match artifact.replay() {
            Ok(ReplayOutcome::Reproduced { expected, actual }) => {
                println!("REPRODUCED\n  expected: {expected}\n  actual:   {actual}");
                ExitCode::FAILURE
            }
            Ok(ReplayOutcome::NotReproduced { actual }) => {
                println!("not reproduced — current tree agrees ({actual})");
                ExitCode::SUCCESS
            }
            Err(e) => self.usage_error(&e),
        }
    }
}

/// `, SABOTAGE <kind>` for a run's header line, or nothing.
pub fn sabotage_note(sabotage: Sabotage) -> String {
    match sabotage {
        Sabotage::None => String::new(),
        s => format!(", SABOTAGE {}", s.as_str()),
    }
}

/// Prints a failed run's findings: each one's shrunk input, its evidence,
/// and where its repro file went.
pub fn print_findings(findings: &[Finding]) {
    println!("FAIL: {} finding(s)", findings.len());
    for f in findings {
        let a = &f.artifact;
        println!(
            "\n  [{}] {} — {}",
            a.kind.as_str(),
            subject(a),
            a.cell.describe()
        );
        let kind = a.input_kind.as_ref().map(|k| format!("kind={k} "));
        println!(
            "    input: {}seed={} len={} kept={}",
            kind.unwrap_or_default(),
            a.input.seed,
            a.input.len,
            a.input.kept_str()
        );
        println!("    expected: {}\n    actual:   {}", a.expected, a.actual);
        match &f.path {
            Some(p) => println!("    repro: {}", p.display()),
            None => println!("    repro: (not written)"),
        }
    }
}

/// What an artifact ran: its embedded program, or its registry case.
fn subject(a: &Artifact) -> String {
    match &a.program {
        Some(token) => token.clone(),
        None => format!("case {}", a.case),
    }
}

/// The executor kinds a sabotage breaks, comma-separated.
fn cells(sabotage: Sabotage) -> String {
    let kinds: Vec<&str> = sabotage.targets().iter().map(|e| e.as_str()).collect();
    kinds.join(", ")
}
