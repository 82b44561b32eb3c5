//! The benchmark's own in-memory spans.
//!
//! The traced run wraps every call it makes into a layer in a span —
//! name, start, end, the span that caused it, and the job it belongs to —
//! keeps them in memory, and writes them out once at the end. A layer's
//! *self time* is its span's duration minus the part its children cover.
//! Spans inside the program itself are a later change; these sit only at
//! the benchmark's call sites.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::json::{obj, one_line, Json};

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer name, e.g. `core.engine.explore`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The job this span belongs to.
    pub job: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Tracer::enter`]; hand it back to [`Tracer::exit`].
#[derive(Debug, Clone, Copy)]
#[must_use = "a span that is never exited has no end"]
pub struct SpanId(Option<usize>);

/// Records spans on one thread. Disabled, every call is a branch and
/// nothing else — the same staged code runs both ways, and the
/// difference is the tracing overhead.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    job: u64,
    stack: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or ignores every span.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            job: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Sets the job id stamped on spans entered from now on.
    pub fn set_job(&mut self, job: u64) {
        self.job = job;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            job: self.job,
        });
        self.stack.push(id);
        SpanId(Some(id))
    }

    /// Closes a span. Spans close innermost-first; anything else is a bug
    /// in the caller.
    pub fn exit(&mut self, id: SpanId) {
        let Some(id) = id.0 else { return };
        let end_ns = self.now_ns();
        assert_eq!(self.stack.pop(), Some(id), "spans must nest");
        self.spans[id].end_ns = end_ns;
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes one JSON object per span to `path`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let line = obj(vec![
                ("id", Json::Num(id as f64)),
                ("name", Json::Str(s.name.to_string())),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                ("job", Json::Num(s.job as f64)),
            ]);
            writeln!(out, "{}", one_line(&line))?;
        }
        out.flush()
    }
}

/// Self time of every span: duration minus the durations of its direct
/// children (children nest inside their parent and never overlap each
/// other on one thread, so their durations are the covered part).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.duration_ns());
        }
    }
    own
}

/// Self time summed by `(job, name)`, in milliseconds.
pub fn self_ms_by_job_and_name(spans: &[Span]) -> BTreeMap<(u64, &'static str), f64> {
    let mut out = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times_ns(spans)) {
        *out.entry((s.job, s.name)).or_insert(0.0) += own as f64 / 1e6;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            job: 0,
        }
    }

    #[test]
    fn self_time_nested_and_siblings() {
        // job [0,100) ─ map [10,70) ─ parse [10,30), group [30,40), explore [45,70)
        //             └ reduce [70,95) ─ apply [72,90)
        let spans = vec![
            span("job", 0, 100, None),
            span("map", 10, 70, Some(0)),
            span("parse", 10, 30, Some(1)),
            span("group", 30, 40, Some(1)),
            span("explore", 45, 70, Some(1)),
            span("reduce", 70, 95, Some(0)),
            span("apply", 72, 90, Some(5)),
        ];
        assert_eq!(self_times_ns(&spans), vec![15, 5, 20, 10, 25, 7, 18]);
        // Self times partition the root: nothing counted twice or lost.
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn tracer_records_nesting_and_jobs() {
        let mut t = Tracer::new(true);
        t.set_job(3);
        let a = t.enter("a");
        let b = t.enter("b");
        t.exit(b);
        let c = t.enter("c");
        t.exit(c);
        t.exit(a);
        t.set_job(4);
        let d = t.enter("a");
        t.exit(d);
        let s = t.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(
            (s[0].parent, s[1].parent, s[2].parent, s[3].parent),
            (None, Some(0), Some(0), None)
        );
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[2].start_ns);
        assert!(s[2].end_ns <= s[0].end_ns);
        assert_eq!((s[0].job, s[3].job), (3, 4));
        let by = self_ms_by_job_and_name(s);
        assert!(by.contains_key(&(3, "a")) && by.contains_key(&(4, "a")));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let a = t.enter("a");
        t.exit(a);
        assert!(t.spans().is_empty());
    }

    #[test]
    #[should_panic(expected = "spans must nest")]
    fn out_of_order_exit_is_a_bug() {
        let mut t = Tracer::new(true);
        let a = t.enter("a");
        let _b = t.enter("b");
        t.exit(a);
    }
}
