//! JSON for result lines and results files: the value, parser and
//! indented printer are `symple-bench`'s; this adds the one-line form
//! the driver reads and the metrics shape both outputs share.

pub use symple_bench::json::{obj, Json};

/// `v` on one line. The indented printer escapes every line break inside
/// a string, so the only ones in its output are layout.
pub fn one_line(v: &Json) -> String {
    v.render().lines().map(str::trim_start).collect()
}

/// `{"name": {"value": v, "unit": u}, …}` — the shape both the driver's
/// result line and the results files use for a set of metrics.
pub fn metrics_object<'a>(metrics: impl IntoIterator<Item = (&'a str, &'a str, f64)>) -> Json {
    Json::Obj(
        metrics
            .into_iter()
            .map(|(name, unit, value)| {
                let entry = obj(vec![
                    ("value", Json::Num(value)),
                    ("unit", Json::Str(unit.to_string())),
                ]);
                (name.to_string(), entry)
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_line_round_trips_and_keeps_all_digits() {
        let v = obj(vec![
            ("text", Json::Str("two\nlines \"quoted\"\t".to_string())),
            ("x", Json::Num(0.1 + 0.2)),
            ("count", Json::Num(9_054_148.0)),
            ("ok", Json::Bool(true)),
            (
                "nested",
                Json::Arr(vec![obj(vec![("a", Json::Arr(vec![]))]), Json::Null]),
            ),
            ("m", metrics_object([("job_wall_ms", "ms", 173.402_918_5)])),
        ]);
        let line = one_line(&v);
        assert!(!line.contains('\n'));
        assert!(line.contains("0.30000000000000004") && line.contains("9054148"));
        assert_eq!(Json::parse(&line).unwrap(), v);
    }
}
