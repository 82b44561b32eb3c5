//! `-- compare A.json B.json`: one row per (workload, end-to-end
//! metric), A as the base.

use std::fmt;

use crate::json::{one_line, Json};
use crate::run::SCHEMA;
use crate::spec::{Better, EndToEnd, END_TO_END};

/// What a cell's two medians say.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better than the base by more than the bound.
    Improved,
    /// Within the bound either way.
    Unchanged,
    /// Worse than the base by more than the bound.
    Regressed,
    /// A wall-clock metric on a cell too noisy to call.
    Unresolved,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        })
    }
}

/// Classifies `b` against base `a`. On an `unstable` cell a wall-type
/// metric is `Unresolved` unless the two sides' wall samples do not
/// overlap at all (`separated`: `Some(true)` when every B sample is
/// faster than every A sample, `Some(false)` when every one is slower).
pub fn verdict(
    metric: &EndToEnd,
    bound: f64,
    a: f64,
    b: f64,
    unstable: bool,
    separated: Option<bool>,
) -> Verdict {
    if metric.wall_type && unstable {
        return match separated {
            Some(true) => Verdict::Improved,
            Some(false) => Verdict::Regressed,
            None => Verdict::Unresolved,
        };
    }
    let worse_by = match metric.better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    };
    if worse_by > bound {
        Verdict::Regressed
    } else if -worse_by > bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// One workload's entry in a results file.
struct Entry<'a> {
    name: &'a str,
    json: &'a Json,
}

impl Entry<'_> {
    fn num(&self, key: &str) -> Result<f64, String> {
        self.json
            .get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("{}: missing {key:?}", self.name))
    }

    fn metric(&self, name: &str) -> Result<f64, String> {
        self.json
            .get("metrics")
            .and_then(|m| m.get(name))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("{}: missing metric {name:?}", self.name))
    }

    fn unstable(&self) -> bool {
        // A file that does not say is not known to be stable.
        self.json.get("unstable") != Some(&Json::Bool(false))
    }

    fn wall(&self) -> Vec<f64> {
        self.json
            .get("wall_ms")
            .and_then(Json::as_array)
            .unwrap_or(&[])
            .iter()
            .filter_map(Json::as_f64)
            .collect()
    }
}

fn entries<'a>(doc: &'a Json, path: &str) -> Result<Vec<Entry<'a>>, String> {
    if doc.get("schema").and_then(Json::as_str) != Some(SCHEMA)
        || doc.get("kind").and_then(Json::as_str) != Some("run")
    {
        return Err(format!("{path} is not a {SCHEMA} `run` results file"));
    }
    doc.get("workloads")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{path}: no workloads"))?
        .iter()
        .map(|w| {
            let name = w
                .get("name")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("{path}: a workload has no name"))?;
            Ok(Entry { name, json: w })
        })
        .collect()
}

/// `Some(true)` when every `b` is below every `a`, `Some(false)` when
/// every `b` is above every `a`, `None` when they overlap.
fn separation(a: &[f64], b: &[f64]) -> Option<bool> {
    let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let max = |v: &[f64]| v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if a.is_empty() || b.is_empty() {
        None
    } else if max(b) < min(a) {
        Some(true)
    } else if min(b) > max(a) {
        Some(false)
    } else {
        None
    }
}

/// Compares two results documents, printing the table. `Ok(true)` means
/// no cell regressed and no workload's failed share rose; `Err` means the
/// files cannot be compared at all.
pub fn compare(a_doc: &Json, b_doc: &Json, a_path: &str, b_path: &str) -> Result<bool, String> {
    let (a_entries, b_entries) = (entries(a_doc, a_path)?, entries(b_doc, b_path)?);
    for key in ["host", "smoke"] {
        if a_doc.get(key) != b_doc.get(key) {
            return Err(format!(
                "refusing to compare: {key} differs ({} vs {})",
                a_doc.get(key).map_or("null".to_string(), one_line),
                b_doc.get(key).map_or("null".to_string(), one_line),
            ));
        }
    }
    let same_seed = a_doc.get("seed") == b_doc.get("seed");
    println!("base A = {a_path}, B = {b_path}; ratio = B / A");
    println!(
        "{:<18} {:<16} {:>14} {:>14} {:>8} {:>7}  verdict",
        "workload", "metric", "A", "B", "ratio", "bound"
    );
    let mut ok = true;
    for a in &a_entries {
        let b = b_entries
            .iter()
            .find(|b| b.name == a.name)
            .ok_or_else(|| format!("{b_path} has no workload {}", a.name))?;
        let unstable = a.unstable() || b.unstable();
        let separated = separation(&a.wall(), &b.wall());
        for m in &END_TO_END {
            // On one seed the inputs are identical, so the bytes must be.
            let bound = if m.name == "shuffle_bytes" && same_seed {
                0.0
            } else {
                m.bound
            };
            let (va, vb) = (a.metric(m.name)?, b.metric(m.name)?);
            let v = verdict(m, bound, va, vb, unstable, separated);
            ok &= v != Verdict::Regressed;
            println!(
                "{:<18} {:<16} {:>14.3} {:>14.3} {:>8.4} {:>6.0}%  {v}{}",
                a.name,
                m.name,
                va,
                vb,
                vb / va,
                bound * 100.0,
                if unstable && m.wall_type {
                    " (unstable cell)"
                } else {
                    ""
                }
            );
        }
        let share = |e: &Entry| {
            Ok::<f64, String>(e.num("jobs_failed")? / e.num("jobs_attempted")?.max(1.0))
        };
        let (fa, fb) = (share(a)?, share(b)?);
        if fb > fa {
            ok = false;
            println!(
                "{:<18} jobs_failed share rose: {fa:.4} -> {fb:.4}  regressed",
                a.name
            );
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{metrics_object, obj};

    fn metric(name: &str) -> &'static EndToEnd {
        END_TO_END.iter().find(|m| m.name == name).unwrap()
    }

    #[test]
    fn verdicts_follow_direction_and_bound() {
        let wall = metric("job_wall_ms");
        assert_eq!(
            verdict(wall, 0.10, 100.0, 109.0, false, None),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(wall, 0.10, 100.0, 111.0, false, None),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(wall, 0.10, 100.0, 89.0, false, None),
            Verdict::Improved
        );
        let rate = metric("records_per_s");
        assert_eq!(
            verdict(rate, 0.10, 100.0, 89.0, false, None),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(rate, 0.10, 100.0, 111.0, false, None),
            Verdict::Improved
        );
        let bytes = metric("shuffle_bytes");
        assert_eq!(
            verdict(bytes, 0.0, 367.0, 367.0, false, None),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(bytes, 0.0, 367.0, 368.0, false, None),
            Verdict::Regressed
        );
    }

    #[test]
    fn unstable_cells_never_read_unchanged_on_wall_metrics() {
        let wall = metric("job_wall_ms");
        assert_eq!(
            verdict(wall, 0.10, 100.0, 101.0, true, None),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(wall, 0.10, 100.0, 150.0, true, None),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(wall, 0.10, 100.0, 50.0, true, Some(true)),
            Verdict::Improved
        );
        assert_eq!(
            verdict(wall, 0.10, 100.0, 150.0, true, Some(false)),
            Verdict::Regressed
        );
        // Counts do not care about timing noise.
        let bytes = metric("shuffle_bytes");
        assert_eq!(
            verdict(bytes, 0.0, 367.0, 367.0, true, None),
            Verdict::Unchanged
        );
    }

    #[test]
    fn separation_needs_disjoint_ranges() {
        assert_eq!(separation(&[5.0, 6.0], &[1.0, 4.9]), Some(true));
        assert_eq!(separation(&[5.0, 6.0], &[6.1, 9.0]), Some(false));
        assert_eq!(separation(&[5.0, 6.0], &[5.5, 9.0]), None);
        assert_eq!(separation(&[], &[1.0]), None);
    }

    fn doc(nproc: u64, wall: f64, failed: u64) -> Json {
        let text = |t: &str| Json::Str(t.to_string());
        let metrics = metrics_object(END_TO_END.iter().map(|m| {
            let v = if m.name == "job_wall_ms" { wall } else { 10.0 };
            (m.name, m.unit, v)
        }));
        let host = obj(vec![
            ("nproc", Json::Num(nproc as f64)),
            ("map_workers", Json::Num(2.0)),
        ]);
        let workload = obj(vec![
            ("name", text("w")),
            ("jobs_attempted", Json::Num(45.0)),
            ("jobs_failed", Json::Num(failed as f64)),
            ("unstable", Json::Bool(false)),
            ("metrics", metrics),
            ("wall_ms", Json::Arr(vec![Json::Num(wall)])),
        ]);
        obj(vec![
            ("schema", text(SCHEMA)),
            ("kind", text("run")),
            ("seed", Json::Num(1.0)),
            ("smoke", Json::Bool(false)),
            ("host", host),
            ("workloads", Json::Arr(vec![workload])),
        ])
    }

    #[test]
    fn whole_documents() {
        assert_eq!(
            compare(&doc(2, 100.0, 0), &doc(2, 105.0, 0), "a", "b"),
            Ok(true)
        );
        assert_eq!(
            compare(&doc(2, 100.0, 0), &doc(2, 120.0, 0), "a", "b"),
            Ok(false)
        );
        assert_eq!(
            compare(&doc(2, 100.0, 0), &doc(2, 100.0, 1), "a", "b"),
            Ok(false)
        );
        assert!(compare(&doc(2, 100.0, 0), &doc(4, 100.0, 0), "a", "b")
            .unwrap_err()
            .contains("host differs"));
        assert!(compare(&obj(vec![]), &doc(2, 1.0, 0), "a", "b").is_err());
    }
}
