//! Drives the built binary at `--smoke` scale (records ÷ 100): all five
//! workloads through `run`, the traced run, and the driver's
//! one-workload entry point. Smoke numbers are hash-and-ledger checks,
//! never performance evidence.

use std::path::{Path, PathBuf};
use std::process::Command;

use symple_benchmark::json::{one_line, Json};
use symple_benchmark::spec::{END_TO_END, PER_LAYER, WORKLOADS};

fn bench(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_symple-benchmark"))
        .args(args)
        .output()
        .expect("spawn the benchmark binary");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "{args:?} exited with {}:\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

fn num(v: &Json, key: &str) -> f64 {
    v.get(key)
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("missing number {key:?} in {}", one_line(v)))
}

fn metric(row: &Json, name: &str) -> f64 {
    row.get("metrics")
        .and_then(|m| m.get(name))
        .map(|m| num(m, "value"))
        .unwrap_or_else(|| panic!("missing metric {name}"))
}

/// The fields of an object, in file order.
fn fields(v: &Json) -> &[(String, Json)] {
    match v {
        Json::Obj(fields) => fields,
        other => panic!("not an object: {}", one_line(other)),
    }
}

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The results file a `run` or `trace` of this test's children wrote.
fn results(name: &str) -> Json {
    let text = std::fs::read_to_string(out_dir().join(name)).expect("results file");
    Json::parse(&text).expect("results JSON")
}

fn rows(doc: &Json) -> &[Json] {
    let rows = doc
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads");
    let names: Vec<&str> = rows
        .iter()
        .map(|r| r.get("name").and_then(Json::as_str).expect("name"))
        .collect();
    assert_eq!(names, WORKLOADS.map(|w| w.name), "every workload, in order");
    rows
}

/// The last stdout line of a driver-mode run, checked against the shape
/// the acceptance driver reads.
fn driver_result(stdout: &str, expected_metrics: &[&str]) -> Json {
    let result = Json::parse(stdout.lines().last().expect("a result line")).expect("result JSON");
    let keys: Vec<&str> = fields(&result).iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
    assert!(num(&result, "attempted") >= 1.0);
    assert_eq!(num(&result, "failed"), 0.0);
    let metrics: Vec<&str> = fields(result.get("metrics").expect("metrics"))
        .iter()
        .map(|(k, v)| {
            assert!(v.get("value").and_then(Json::as_f64).is_some(), "{k}");
            assert!(v.get("unit").and_then(Json::as_str).is_some(), "{k}");
            k.as_str()
        })
        .collect();
    assert_eq!(metrics, expected_metrics);
    result
}

#[test]
fn smoke_scale_end_to_end() {
    // `run`: hashes equal the sequential reference, cache ledgers balance.
    bench(&["run", "--smoke", "--rounds", "1"]);
    let run_doc = results("smoke.run.json");
    let doc = &run_doc;
    for row in rows(doc) {
        let name = row.get("name").and_then(Json::as_str).unwrap();
        assert_eq!(row.get("correct"), Some(&Json::Bool(true)), "{name}");
        assert_eq!(num(row, "jobs_attempted"), 3.0, "{name}");
        assert_eq!(num(row, "jobs_failed"), 0.0, "{name}");
        for m in &END_TO_END {
            // CPU time comes in 10 ms ticks, which a 2 ms smoke job may
            // never see; everything else is never 0 at any scale.
            let floor = if m.name == "job_cpu_ms" { -1.0 } else { 0.0 };
            assert!(
                metric(row, m.name) > floor,
                "{name}: {} must never be 0",
                m.name
            );
        }
        let (chunks, hits, misses) = (
            num(row, "chunks"),
            num(row, "cache_hits"),
            num(row, "cache_misses"),
        );
        match name {
            "cache_cold.B2" => assert_eq!((hits, misses), (0.0, chunks), "{name}"),
            "cache_warm.B2" => {
                assert_eq!(
                    hits + misses,
                    chunks,
                    "{name}: hits + misses + corrupt == chunks"
                );
                assert!(hits >= 0.95 * chunks, "{name}: {hits} of {chunks} hit");
            }
            _ => assert_eq!((hits, misses), (0.0, 0.0), "{name}"),
        }
    }

    // `compare` of a file with itself: nothing regresses (smoke timings
    // are too noisy to read `unchanged`, which is the guard working).
    let run_path = out_dir().join("smoke.run.json");
    let run_path = run_path.to_str().unwrap();
    let same = bench(&["compare", run_path, run_path]);
    assert!(!same.contains("regressed"), "{same}");

    // `trace`: every per-layer metric, staged pipeline reconciled (the
    // traced run reports itself incorrect otherwise), spans written.
    bench(&["trace", "--smoke"]);
    let doc = results("smoke.trace.json");
    for row in rows(&doc) {
        let name = row.get("name").and_then(Json::as_str).unwrap();
        assert_eq!(row.get("correct"), Some(&Json::Bool(true)), "{name}");
        for m in &PER_LAYER {
            assert!(metric(row, m.name).is_finite(), "{name}: {}", m.name);
        }
        assert!(metric(row, "mapreduce.shuffle.bytes") > 0.0, "{name}");
        assert!(metric(row, "datagen.text.parse_ms") > 0.0, "{name}");
        assert_eq!(metric(row, "core.engine.refused_chunks"), 0.0, "{name}");
        assert_eq!(metric(row, "mapreduce.store_io.io_errors"), 0.0, "{name}");
        let cached = name.starts_with("cache_");
        assert_eq!(
            metric(row, "mapreduce.cache.frames") > 0.0,
            cached,
            "{name}"
        );
        let spans = out_dir().join(format!("trace.{name}.jsonl"));
        let text = std::fs::read_to_string(&spans).expect("span file");
        let first = Json::parse(text.lines().next().expect("a span")).expect("span JSON");
        assert_eq!(first.get("name").and_then(Json::as_str), Some("job"));
        assert_eq!(first.get("parent"), Some(&Json::Null));
    }

    // The driver's entry point prints exactly the contract's last line —
    // here on a second seed, which runs clean against its own reference
    // (a different one: the data changed).
    let e2e: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
    let layers: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
    let common = [
        "--smoke",
        "--workload",
        "cache_warm.B2",
        "--seed",
        "11",
        "--seconds",
        "1",
    ];
    let out = bench(&[&common[..], &["--trace", "0"]].concat());
    driver_result(&out, &e2e);
    let first_seed_hash = rows(&run_doc)[4].get("reference_hash").cloned();
    let cell = out
        .lines()
        .find_map(|l| l.strip_prefix("#cell "))
        .expect("a #cell line");
    assert_ne!(
        Json::parse(cell).unwrap().get("reference_hash").cloned(),
        first_seed_hash
    );
    let out = bench(&[&common[..], &["--trace", "1"]].concat());
    driver_result(&out, &layers);
}

#[test]
fn usage_errors_exit_2_and_print_no_result() {
    for args in [
        &[
            "--workload",
            "nope.X1",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &["frobnicate"][..],
        &["compare", "only-one.json"][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_symple-benchmark"))
            .args(args)
            .output()
            .expect("spawn");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
