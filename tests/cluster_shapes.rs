//! Pins the paper's evaluation *shapes* as executable assertions: the
//! figure harnesses print them, these tests enforce them. Each runs a real
//! in-process measurement at small scale and extrapolates with the cluster
//! model exactly as the `fig5`–`fig8` binaries do.

use symple::cluster::big::{big_cluster_run, BigClusterConfig};
use symple::cluster::emr::emr_latency;
use symple::cluster::model::{ScaledJob, ShuffleLaw};
use symple::cluster::{paper_target, MeasuredProfile};
use symple::mapreduce::{JobConfig, JobMetrics};
use symple::queries::{runner_by_id, Backend, DataScale};

const RECORDS: usize = 30_000;

/// One in-process run of `id` at [`RECORDS`] records in 8 segments.
fn run_once(id: &str, backend: Backend) -> JobMetrics {
    let runner = runner_by_id(id).unwrap();
    // Regime-preserving group counts, as in symple-bench's harness.
    let groups = match id {
        "G1" | "G2" | "G3" | "G4" => (RECORDS / 34).max(8) as u64,
        "B1" => 3_000,
        "B2" => 1_000,
        "B3" => (RECORDS / 19) as u64,
        "T1" => (RECORDS / 50) as u64,
        _ => 2_000,
    };
    let scale = DataScale {
        records: RECORDS,
        groups,
        segments: 8,
        seed: 0x1234,
        parse_lines: true,
    };
    runner
        .run(&scale, backend, &JobConfig::default())
        .unwrap()
        .metrics
}

fn measure(id: &str, backend: Backend) -> MeasuredProfile {
    // Byte and record counts are deterministic; the two CPU readings are
    // not (debug build, shared host), and the assertions below are ratios
    // of them. Keep the least-disturbed reading of three runs.
    let mut metrics = run_once(id, backend);
    for _ in 0..2 {
        let again = run_once(id, backend);
        metrics.map_cpu = metrics.map_cpu.min(again.map_cpu);
        metrics.reduce_cpu = metrics.reduce_cpu.min(again.reduce_cpu);
    }
    MeasuredProfile::from_metrics(&metrics, 8)
}

fn scaled(id: &str, backend: Backend) -> ScaledJob {
    let target = paper_target(id).unwrap();
    let law = match backend {
        Backend::Symple => ShuffleLaw::PerEmission,
        _ => ShuffleLaw::PerRecord,
    };
    ScaledJob::extrapolate(&measure(id, backend), target.workload, law)
}

#[test]
fn b1_anecdote_hours_vs_minutes() {
    // §6.4: "the baseline MapReduce computation requires 4.5 hours. In
    // contrast, SYMPLE completed only in 5 minutes and 30 seconds."
    let cfg = BigClusterConfig::default();
    let base = big_cluster_run(&cfg, &scaled("B1", Backend::SortedBaseline));
    let sym = big_cluster_run(&cfg, &scaled("B1", Backend::Symple));
    assert!(
        base.latency_s > 2.0 * 3_600.0,
        "baseline B1 should take hours, got {:.0}s",
        base.latency_s
    );
    assert!(
        sym.latency_s < 15.0 * 60.0,
        "SYMPLE B1 should take minutes, got {:.0}s",
        sym.latency_s
    );
    assert!(base.latency_s / sym.latency_s > 20.0);
}

#[test]
fn b1_shuffle_is_one_summary_per_mapper() {
    // §6.4: "the SYMPLE mappers send to the reducers one single record."
    let job = scaled("B1", Backend::Symple);
    let target = paper_target("B1").unwrap();
    assert!(
        (job.shuffle_records - target.workload.mappers as f64).abs() < 1.0,
        "expected {} emissions, got {}",
        target.workload.mappers,
        job.shuffle_records
    );
}

#[test]
fn emr_condensed_crossover() {
    // §6.3: modest speedups on complete RedShift data (S3-bound), 2.5–5.9x
    // on the condensed variant.
    //
    // The crossover is a statement about the cost model, so it is fed the
    // run's record and byte counts — which repeat exactly — and one fixed
    // CPU pair per backend (map ns per record, reduce ns per shuffle byte:
    // R1 in a release build on the reference host) in place of this
    // host's CPU readings of the moment.
    let minutes = |id: &str, backend: Backend| {
        let (law, map_ns, reduce_ns) = match backend {
            Backend::Symple => (ShuffleLaw::PerEmission, 255.0, 30.0),
            _ => (ShuffleLaw::PerRecord, 170.0, 17.0),
        };
        let profile = MeasuredProfile {
            map_ns_per_record: map_ns,
            reduce_ns_per_shuffle_byte: reduce_ns,
            ..MeasuredProfile::from_metrics(&run_once(id, backend), 8)
        };
        let target = paper_target(id).unwrap();
        let job = ScaledJob::extrapolate(&profile, target.workload, law);
        emr_latency(&target.emr, &job).total_min()
    };
    let complete_base = minutes("R1", Backend::SortedBaseline);
    let complete_sym = minutes("R1", Backend::Symple);
    let condensed_base = minutes("R1c", Backend::SortedBaseline);
    let condensed_sym = minutes("R1c", Backend::Symple);

    let complete_speedup = complete_base / complete_sym;
    let condensed_speedup = condensed_base / condensed_sym;
    assert!(
        complete_speedup > 1.0,
        "SYMPLE must not lose on complete data: {complete_speedup:.2}"
    );
    assert!(
        complete_speedup < 1.6,
        "complete data is S3-bound; speedup should be modest: {complete_speedup:.2}"
    );
    assert!(
        condensed_speedup > 1.8,
        "condensed data should show the big win: {condensed_speedup:.2}"
    );
    assert!(
        condensed_speedup > complete_speedup,
        "the crossover must favor condensed data"
    );
}

#[test]
fn github_shuffle_savings_in_paper_band() {
    // §6.3 / Figure 6: github savings 4–8x. Allow a generous band.
    let base = scaled("G1", Backend::SortedBaseline).shuffle_mb();
    let sym = scaled("G1", Backend::Symple).shuffle_mb();
    let ratio = base / sym;
    assert!(
        (2.0..30.0).contains(&ratio),
        "github G1 shuffle ratio {ratio:.1} outside plausible band"
    );
    // Absolute baseline size near the paper's 7.7–10.3 GB.
    assert!(
        (3_000.0..20_000.0).contains(&base),
        "github baseline shuffle {base:.0} MB should be in the GB range"
    );
}

#[test]
fn b3_regime_shows_least_savings() {
    // §6.5: B3 (grouped per user) is the query with no improvement.
    let cfg = BigClusterConfig::default();
    let b3_base = big_cluster_run(&cfg, &scaled("B3", Backend::SortedBaseline));
    let b3_sym = big_cluster_run(&cfg, &scaled("B3", Backend::Symple));
    let b1_base = big_cluster_run(&cfg, &scaled("B1", Backend::SortedBaseline));
    let b1_sym = big_cluster_run(&cfg, &scaled("B1", Backend::Symple));
    let b3_ratio = b3_base.cpu_s / b3_sym.cpu_s;
    let b1_ratio = b1_base.cpu_s / b1_sym.cpu_s;
    assert!(
        b1_ratio > 2.0 * b3_ratio,
        "B1 ({b1_ratio:.1}x) must dwarf B3 ({b3_ratio:.1}x)"
    );
    assert!(
        b3_ratio < 4.0,
        "B3 is the near-no-benefit regime: {b3_ratio:.1}x"
    );
}
