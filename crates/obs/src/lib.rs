#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # symple-obs
//!
//! A zero-dependency structured-tracing and metrics layer for SYMPLE-rs.
//!
//! The evaluation of the source paper is entirely about measured
//! quantities — throughput, shuffle bytes, per-phase CPU — so the hot
//! paths of this workspace (symbolic exploration, summary composition,
//! the worker pool, the shuffle, the oracle) are instrumented with:
//!
//! * **spans** ([`span`]): scoped wall-clock timing with self vs
//!   cumulative attribution across nesting;
//! * **counters** ([`counter_add`]): monotonic `u64` totals (bytes,
//!   records, merges, restarts);
//! * **gauges** ([`gauge_set`]): last-write-wins `i64` readings.
//!
//! Everything funnels into one global registry that [`snapshot`] reads
//! and [`reset`] clears. The crate also carries the workspace's one
//! hand-rolled [`json`] value (printer + parser), being the
//! dependency-free leaf every machine-readable surface links.
//!
//! ## Disabled by default, and a true no-op when disabled
//!
//! The layer ships **off**: every instrumentation call first checks one
//! relaxed [`AtomicBool`] and returns immediately while tracing is
//! disabled. The span guard is a zero-sized type whose state lives in a
//! thread-local stack, so a disabled call site allocates nothing and
//! records nothing — the property `tests` assert. What the layer costs
//! when it is **on** is measured, not asserted: the repo benchmark's
//! traced run reports `obs.on_job_wall_ms` and `obs.overhead_pct` per
//! workload at 1M records (`benchmark/results/trace.json`), and that
//! cost is one registry-mutex take per counter call, so a call site
//! belongs at job or phase granularity, never per (key, chunk).
//!
//! ```
//! symple_obs::set_enabled(true);
//! {
//!     let _outer = symple_obs::span("demo.outer");
//!     let _inner = symple_obs::span("demo.inner");
//!     symple_obs::counter_add("demo.events", 3);
//! }
//! let snap = symple_obs::snapshot();
//! assert_eq!(snap.counter("demo.events"), Some(3));
//! symple_obs::set_enabled(false);
//! symple_obs::reset();
//! ```
//!
//! [`AtomicBool`]: std::sync::atomic::AtomicBool

pub mod json;
mod metrics;
mod span;

use std::sync::atomic::{AtomicBool, Ordering};

pub use metrics::{counter_add, counter_value, gauge_set, gauge_value};
pub use span::{SpanGuard, SpanStats};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether the layer is currently recording.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns recording on or off globally. Also settable through the
/// `SYMPLE_OBS=1` environment variable via [`init_from_env`].
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Enables the layer when the `SYMPLE_OBS` environment variable is set to
/// anything but `0`/empty; returns the resulting state.
pub fn init_from_env() -> bool {
    let on = std::env::var("SYMPLE_OBS").is_ok_and(|v| !v.is_empty() && v != "0");
    if on {
        set_enabled(true);
    }
    enabled()
}

/// Opens a scoped span; time between this call and the guard's drop is
/// recorded under `name`. Zero-sized guard; a no-op while disabled.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    span::enter(name)
}

/// A point-in-time copy of every span, counter, and gauge aggregate.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Per-name span aggregates, sorted by name.
    pub spans: Vec<(String, SpanStats)>,
    /// Counter totals, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Gauge readings, sorted by name.
    pub gauges: Vec<(String, i64)>,
}

impl Snapshot {
    /// Looks up a counter total by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Looks up a span aggregate by name.
    pub fn span(&self, name: &str) -> Option<SpanStats> {
        self.spans.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Looks up a gauge reading by name.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty() && self.counters.is_empty() && self.gauges.is_empty()
    }

    /// Renders an aligned plain-text report (spans with count / cumulative
    /// / self time, then counters, then gauges).
    pub fn render(&self) -> String {
        fn ms(ns: u64) -> f64 {
            ns as f64 / 1.0e6
        }
        let mut out = String::new();
        if !self.spans.is_empty() {
            out.push_str(&format!(
                "{:<32} {:>10} {:>12} {:>12}\n",
                "span", "count", "cum ms", "self ms"
            ));
            for (name, s) in &self.spans {
                out.push_str(&format!(
                    "{:<32} {:>10} {:>12.3} {:>12.3}\n",
                    name,
                    s.count,
                    ms(s.cum_ns),
                    ms(s.self_ns)
                ));
            }
        }
        if !self.counters.is_empty() {
            out.push_str(&format!("{:<32} {:>10}\n", "counter", "total"));
            for (name, v) in &self.counters {
                out.push_str(&format!("{name:<32} {v:>10}\n"));
            }
        }
        if !self.gauges.is_empty() {
            out.push_str(&format!("{:<32} {:>10}\n", "gauge", "value"));
            for (name, v) in &self.gauges {
                out.push_str(&format!("{name:<32} {v:>10}\n"));
            }
        }
        out
    }
}

/// Copies the current registry contents.
pub fn snapshot() -> Snapshot {
    Snapshot {
        spans: span::snapshot(),
        counters: metrics::snapshot_counters(),
        gauges: metrics::snapshot_gauges(),
    }
}

/// Clears every span, counter, and gauge aggregate.
pub fn reset() {
    span::reset();
    metrics::reset();
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The registry is process-global, so tests that enable recording
    /// serialize on this lock to keep their counters isolated.
    static TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn exclusive() -> std::sync::MutexGuard<'static, ()> {
        let g = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        set_enabled(false);
        reset();
        g
    }

    #[test]
    fn span_guard_is_zero_sized() {
        assert_eq!(std::mem::size_of::<SpanGuard>(), 0);
    }

    #[test]
    fn disabled_layer_is_a_true_noop() {
        let _g = exclusive();
        assert!(!enabled());
        {
            let _a = span("noop.outer");
            let _b = span("noop.inner");
            counter_add("noop.counter", 99);
            gauge_set("noop.gauge", -5);
        }
        let snap = snapshot();
        assert!(snap.is_empty(), "disabled layer recorded: {snap:?}");
        assert_eq!(counter_value("noop.counter"), 0);
        assert_eq!(gauge_value("noop.gauge"), None);
    }

    #[test]
    fn nested_spans_attribute_self_vs_cumulative() {
        let _g = exclusive();
        set_enabled(true);
        {
            let _outer = span("nest.outer");
            busy(2_000_000); // ~2 ms of outer self time.
            {
                let _inner = span("nest.inner");
                busy(2_000_000);
            }
        }
        set_enabled(false);
        let snap = snapshot();
        let outer = snap.span("nest.outer").expect("outer recorded");
        let inner = snap.span("nest.inner").expect("inner recorded");
        assert_eq!(outer.count, 1);
        assert_eq!(inner.count, 1);
        // The inner span nests entirely inside the outer one.
        assert!(outer.cum_ns >= inner.cum_ns);
        // Outer self time excludes the inner span exactly.
        assert_eq!(outer.self_ns, outer.cum_ns - inner.cum_ns);
        // A leaf span's self time is its cumulative time.
        assert_eq!(inner.self_ns, inner.cum_ns);
        // Both sides of the split are non-trivial (busy() runs ~2 ms each).
        assert!(outer.self_ns > 0);
        assert!(inner.cum_ns > 0);
    }

    #[test]
    fn sibling_spans_all_deducted_from_parent() {
        let _g = exclusive();
        set_enabled(true);
        {
            let _outer = span("sib.outer");
            for _ in 0..3 {
                let _inner = span("sib.inner");
                busy(400_000);
            }
        }
        set_enabled(false);
        let snap = snapshot();
        let outer = snap.span("sib.outer").unwrap();
        let inner = snap.span("sib.inner").unwrap();
        assert_eq!(inner.count, 3);
        assert_eq!(outer.self_ns, outer.cum_ns - inner.cum_ns);
    }

    #[test]
    fn counters_accumulate_and_gauges_overwrite() {
        let _g = exclusive();
        set_enabled(true);
        counter_add("acc.c", 2);
        counter_add("acc.c", 5);
        gauge_set("acc.g", 10);
        gauge_set("acc.g", -3);
        set_enabled(false);
        assert_eq!(counter_value("acc.c"), 7);
        assert_eq!(gauge_value("acc.g"), Some(-3));
        let snap = snapshot();
        assert_eq!(snap.counter("acc.c"), Some(7));
        assert_eq!(snap.gauge("acc.g"), Some(-3));
    }

    #[test]
    fn reset_clears_everything() {
        let _g = exclusive();
        set_enabled(true);
        {
            let _s = span("reset.s");
        }
        counter_add("reset.c", 1);
        gauge_set("reset.g", 1);
        set_enabled(false);
        assert!(!snapshot().is_empty());
        reset();
        assert!(snapshot().is_empty());
    }

    #[test]
    fn spans_merge_across_threads() {
        let _g = exclusive();
        set_enabled(true);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let _s = span("threads.task");
                    busy(100_000);
                });
            }
        });
        set_enabled(false);
        let snap = snapshot();
        assert_eq!(snap.span("threads.task").unwrap().count, 4);
    }

    #[test]
    fn render_lists_names_and_counts() {
        let _g = exclusive();
        set_enabled(true);
        {
            let _s = span("render.span");
        }
        counter_add("render.counter", 42);
        gauge_set("render.gauge", 7);
        set_enabled(false);
        let text = snapshot().render();
        assert!(text.contains("render.span"));
        assert!(text.contains("render.counter"));
        assert!(text.contains("42"));
        assert!(text.contains("render.gauge"));
    }

    /// Spins for roughly `ns` nanoseconds of real work.
    fn busy(ns: u64) {
        let start = std::time::Instant::now();
        let mut x = 0u64;
        while (start.elapsed().as_nanos() as u64) < ns {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            std::hint::black_box(x);
        }
    }
}
