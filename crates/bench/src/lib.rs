#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # symple-bench
//!
//! Harnesses that regenerate every table and figure of the SYMPLE
//! evaluation (§6). Each paper artifact has a binary:
//!
//! | Artifact | Binary | What it prints |
//! |----------|--------|----------------|
//! | Table 1 | `table1` | datasets, queries, group counts, sym types |
//! | Figure 4 | `fig4` | multi-core throughput (MB/s) per configuration |
//! | Figure 5 | `fig5` | EMR end-to-end latency (minutes) |
//! | Figure 6 | `fig6` | EMR shuffle data (MB, log scale + ratios) |
//! | Figure 7 | `fig7` | 380-node CPU usage (×1000 s) |
//! | Figure 8 | `fig8` | 380-node shuffle data (MB, log scale) |
//!
//! Figure 3 (the Max walkthrough) is `examples/max_demo.rs` at the
//! workspace root. Nothing here is timed: speed is measured by the
//! repo benchmark (`benchmark/`, its own workspace), and this crate's
//! `golden_cells` test pins the deterministic half of each cell.
//!
//! Every binary accepts `--records N` to set the measurement scale
//! (default 200 000) and prints machine-parseable rows; EXPERIMENTS.md
//! records a full run against the paper's numbers.

/// The workspace's one JSON value, parser and printer lives in
/// `symple-obs`; this re-export is kept *only* because `benchmark/`
/// (its own workspace, outside this PR's reach) links
/// `symple_bench::json::{obj, Json}`.
pub use symple_obs::json;

use symple_cluster::{MeasuredProfile, PaperTarget};
use symple_core::error::Result;
use symple_mapreduce::JobConfig;
use symple_queries::{runner_by_id, Backend, DataScale, QueryReport};

/// Default measurement size (records generated per query).
pub const DEFAULT_RECORDS: usize = 200_000;

/// The measurement scale an argv slice asks for: `--records N`, or
/// `--fast` for 20 000; the first of the two wins and every other
/// argument is left to the binary. `Err` carries a one-line usage message
/// when `--records` has no value or one that is not a count.
fn parse_records<S: AsRef<str>>(args: &[S]) -> std::result::Result<usize, String> {
    let mut it = args.iter().map(AsRef::as_ref);
    while let Some(arg) = it.next() {
        match arg {
            "--records" => {
                return it.next().and_then(|s| s.parse().ok()).ok_or_else(|| {
                    format!("usage: --records <count> | --fast (default {DEFAULT_RECORDS} records)")
                });
            }
            "--fast" => return Ok(20_000),
            _ => {}
        }
    }
    Ok(DEFAULT_RECORDS)
}

/// The measurement scale the process arguments ask for (`--records N`,
/// or `--fast` for 20 000; default [`DEFAULT_RECORDS`]). A `--records`
/// without a count prints a usage line and exits 2 rather than measuring
/// at a scale nobody asked for.
pub fn records_from_args() -> usize {
    let args: Vec<String> = std::env::args().skip(1).collect();
    parse_records(&args).unwrap_or_else(|usage| {
        eprintln!("{usage}");
        std::process::exit(2)
    })
}

/// The measurement-time workload for a query: scaled-down groups chosen to
/// preserve the paper's records-per-group and groups-per-mapper regimes.
pub fn measurement_scale(id: &str, records: usize) -> DataScale {
    // Records per group at full scale (Table 1 / §6.1), which drives how
    // much SYMPLE can compress a chunk into one summary.
    let groups = match id {
        // github: ≈400 M records over 12–22 M repos → ≈34/group.
        "G1" | "G2" | "G3" | "G4" => (records / 34).max(8) as u64,
        // B1: one global group, whatever the user count.
        "B1" => 3_000,
        // B2: ~50 geographic areas.
        "B2" => 1_000, // num_geos = groups/20 = 50
        // B3: 1.9 B queries over ~100 M users → ≈19/group.
        "B3" => (records / 19).max(8) as u64,
        // T1: ≈50 tweets per hashtag.
        "T1" => (records / 50).max(8) as u64,
        // RedShift: 1.2 B impressions over 10 K advertisers — mappers see
        // every group; keep groups ≪ records/mapper.
        _ => 2_000,
    };
    DataScale {
        records,
        groups,
        segments: 8,
        seed: 0x5a_2e_97,
        parse_lines: true,
    }
}

/// Runs one query on one backend at measurement scale, returning the
/// report and the extrapolation profile.
pub fn measure(
    id: &str,
    records: usize,
    backend: Backend,
    job: &JobConfig,
) -> Result<(QueryReport, MeasuredProfile)> {
    let runner = runner_by_id(id).unwrap_or_else(|| panic!("unknown query id {id}"));
    let scale = measurement_scale(id, records);
    let report = runner.run(&scale, backend, job)?;
    let profile = MeasuredProfile::from_metrics(&report.metrics, scale.segments as u64);
    Ok((report, profile))
}

/// The paper's full-scale target for a query.
pub fn target_for(id: &str) -> PaperTarget {
    symple_cluster::paper_target(id).unwrap_or_else(|| panic!("no paper target for {id}"))
}

/// Renders a labelled horizontal ASCII bar scaled to `max`.
pub fn bar(value: f64, max: f64, width: usize) -> String {
    if max <= 0.0 {
        return String::new();
    }
    let n = ((value / max) * width as f64).round() as usize;
    "█".repeat(n.min(width))
}

/// Renders a log-scale ASCII bar between `min` and `max`.
pub fn log_bar(value: f64, min: f64, max: f64, width: usize) -> String {
    if value <= 0.0 || max <= min {
        return String::new();
    }
    let f = ((value.max(min) / min).ln() / (max / min).ln()).clamp(0.0, 1.0);
    let n = (f * width as f64).round() as usize;
    "█".repeat(n.min(width))
}

/// Formats a ratio like the paper's Figure 6 annotations (`238x`).
pub fn ratio_label(baseline: f64, symple: f64) -> String {
    if symple <= 0.0 {
        return "∞".to_string();
    }
    let r = baseline / symple;
    if r >= 10.0 {
        format!("{r:.0}x")
    } else {
        format!("{r:.1}x")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bars_render() {
        assert_eq!(bar(5.0, 10.0, 10), "█████");
        assert_eq!(bar(20.0, 10.0, 10).chars().count(), 10, "clamped");
        assert_eq!(bar(1.0, 0.0, 10), "");
        assert!(log_bar(100.0, 1.0, 10_000.0, 8).chars().count() == 4);
        assert_eq!(log_bar(0.0, 1.0, 100.0, 8), "");
    }

    #[test]
    fn ratio_labels() {
        assert_eq!(ratio_label(238.0, 1.0), "238x");
        assert_eq!(ratio_label(5.0, 1.0), "5.0x");
        assert_eq!(ratio_label(1.0, 0.0), "∞");
    }

    #[test]
    fn records_flag_is_parsed_or_refused() {
        assert_eq!(parse_records::<&str>(&[]), Ok(DEFAULT_RECORDS));
        assert_eq!(parse_records(&["--no-verify"]), Ok(DEFAULT_RECORDS));
        assert_eq!(parse_records(&["--records", "3000"]), Ok(3_000));
        assert_eq!(parse_records(&["--fast"]), Ok(20_000));
        assert_eq!(parse_records(&["--fast", "--records", "7"]), Ok(20_000));
        for bad in [
            &["--records", "abc"][..],
            &["--records"],
            &["--records", "-5"],
        ] {
            let usage = parse_records(bad).unwrap_err();
            assert!(usage.starts_with("usage: --records"), "{usage}");
            assert_eq!(usage.lines().count(), 1);
        }
    }

    #[test]
    fn measurement_scales_preserve_regimes() {
        let g = measurement_scale("G1", 200_000);
        assert!((g.records as u64 / g.groups) >= 30);
        let b1 = measurement_scale("B1", 200_000);
        assert!(b1.groups > 0);
        let r = measurement_scale("R1", 200_000);
        assert_eq!(r.groups, 2_000);
    }

    #[test]
    fn measure_runs_quickly_at_tiny_scale() {
        let job = JobConfig::default();
        let (report, profile) = measure("R1", 2_000, Backend::Symple, &job).unwrap();
        assert!(report.output_rows > 0);
        assert!(profile.map_ns_per_record > 0.0);
    }

    #[test]
    fn targets_resolve() {
        assert_eq!(target_for("B1").workload.groups, 1);
    }
}
