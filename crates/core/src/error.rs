//! Error types shared across the SYMPLE core.

use std::fmt;

/// Result alias used throughout `symple-core`.
pub type Result<T, E = Error> = std::result::Result<T, E>;

/// Errors raised by symbolic execution, summary composition, and the wire
/// format.
///
/// The engine is *sound and precise* (§2.3 of the paper): it never
/// approximates. Situations it cannot handle exactly are reported as errors
/// so callers can fall back to sequential execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// The number of feasible paths explored for a *single* input record
    /// exceeded [`crate::EngineConfig::max_paths_per_record`].
    ///
    /// Per §5.2 this usually means the UDA contains a loop whose trip count
    /// depends on the aggregation state, which symbolic execution cannot
    /// bound.
    PathExplosion {
        /// Paths explored when the bound was hit.
        paths: usize,
        /// The configured bound.
        bound: usize,
    },
    /// Integer overflow in a symbolic arithmetic operation.
    ///
    /// `SymInt` tracks values as `a·x + b`; if updating `a` or `b` overflows
    /// `i64`, the execution is aborted rather than silently wrapping (the
    /// sequential semantics would have trapped or wrapped at a *different*
    /// point, so no sound summary exists).
    ArithmeticOverflow {
        /// Operation that overflowed, e.g. `"add"`.
        op: &'static str,
    },
    /// A branch on a symbolic value was taken while executing in concrete
    /// mode (sequential reference execution or `Result` extraction).
    ///
    /// This indicates state that was still symbolic where the engine
    /// requires concrete values — an engine-usage bug.
    NonConcreteBranch,
    /// A black-box predicate ([`crate::SymPred`]) accumulated more unbound
    /// decisions than its configured window bound.
    PredicateWindowExceeded {
        /// Decisions accumulated.
        decisions: usize,
        /// The configured window bound.
        bound: usize,
    },
    /// Applying a summary to a concrete state found no matching path.
    ///
    /// A valid summary is exhaustive (`⋁ᵢ PCᵢ = true`), so this indicates a
    /// corrupted or mismatched summary.
    IncompleteSummary,
    /// Applying a summary to a concrete state matched more than one path.
    ///
    /// A valid summary has pairwise-disjoint path constraints, so this
    /// indicates a corrupted or mismatched summary.
    OverlappingSummary,
    /// An enum value outside the declared domain was used with a
    /// [`crate::SymEnum`].
    EnumOutOfDomain {
        /// The offending value.
        value: i64,
        /// Number of values in the domain (valid values are `0..domain`).
        domain: u32,
    },
    /// Composition produced an empty summary (no feasible cross-product
    /// path), meaning the two summaries disagree about reachable states.
    EmptyComposition,
    /// A wire-format decoding failure.
    Wire(crate::wire::WireError),
    /// The UDA signalled a domain-specific failure.
    Uda(String),
    /// A scheduled task panicked on its final allowed attempt.
    ///
    /// The scheduler isolates per-attempt panics with `catch_unwind` and
    /// retries up to the configured cap; only a panic on the *last* attempt
    /// (with no surviving twin in flight) surfaces as this error.
    TaskPanicked {
        /// Task index within the scheduled phase.
        task: usize,
        /// The 1-based attempt number that panicked.
        attempt: u32,
    },
    /// A scheduled task failed every allowed attempt without panicking
    /// (e.g. an injected crash plan that fails every attempt).
    RetriesExhausted {
        /// Task index within the scheduled phase.
        task: usize,
        /// The configured attempt cap that was exhausted.
        attempts: u32,
    },
    /// The whole job process "died" after a number of committed map tasks
    /// — the in-process stand-in for a killed worker that the
    /// checkpoint/resume path recovers from (`FaultPlan::kill_after_n_tasks`
    /// in `symple-mapreduce`).
    JobKilled {
        /// Map tasks that committed (and, when checkpointing is enabled,
        /// persisted their summaries) before the kill.
        after_tasks: u64,
    },
    /// A finished job's own bookkeeping does not add up — e.g. a map chunk
    /// whose store lookup was counted twice or not at all. The results may
    /// be right; the run's record of how it got them is not.
    LedgerImbalance {
        /// The equation that failed, e.g. `"cache hits + misses + corrupt
        /// == chunks"`.
        ledger: &'static str,
        /// Its left-hand side, as counted.
        left: u64,
        /// Its right-hand side, as counted.
        right: u64,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::PathExplosion { paths, bound } => write!(
                f,
                "path explosion: {paths} feasible paths for one record exceeds bound {bound} \
                 (does the UDA contain a loop that depends on the aggregation state?)"
            ),
            Error::ArithmeticOverflow { op } => {
                write!(f, "symbolic integer overflow in `{op}`")
            }
            Error::NonConcreteBranch => {
                write!(f, "branch on symbolic value during concrete-mode execution")
            }
            Error::PredicateWindowExceeded { decisions, bound } => write!(
                f,
                "black-box predicate recorded {decisions} unbound decisions, bound is {bound}"
            ),
            Error::IncompleteSummary => {
                write!(
                    f,
                    "summary is not exhaustive: no path matches the input state"
                )
            }
            Error::OverlappingSummary => {
                write!(
                    f,
                    "summary paths are not disjoint: multiple paths match the input state"
                )
            }
            Error::EnumOutOfDomain { value, domain } => {
                write!(f, "enum value {value} outside domain 0..{domain}")
            }
            Error::EmptyComposition => write!(f, "summary composition yielded no feasible path"),
            Error::Wire(e) => write!(f, "wire format error: {e}"),
            Error::Uda(msg) => write!(f, "UDA error: {msg}"),
            Error::TaskPanicked { task, attempt } => {
                write!(
                    f,
                    "task {task} panicked on attempt {attempt} (final attempt)"
                )
            }
            Error::RetriesExhausted { task, attempts } => {
                write!(f, "task {task} failed all {attempts} allowed attempts")
            }
            Error::JobKilled { after_tasks } => {
                write!(
                    f,
                    "job killed after {after_tasks} committed map tasks (resume from checkpoints)"
                )
            }
            Error::LedgerImbalance {
                ledger,
                left,
                right,
            } => write!(f, "ledger `{ledger}` does not balance: {left} vs {right}"),
        }
    }
}

impl std::error::Error for Error {}

impl From<crate::wire::WireError> for Error {
    fn from(e: crate::wire::WireError) -> Self {
        Error::Wire(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = Error::PathExplosion {
            paths: 100,
            bound: 64,
        };
        let s = e.to_string();
        assert!(s.contains("100"));
        assert!(s.contains("64"));

        let e = Error::EnumOutOfDomain {
            value: 9,
            domain: 4,
        };
        assert!(e.to_string().contains("0..4"));
    }

    #[test]
    fn wire_error_converts() {
        let w = crate::wire::WireError::UnexpectedEof;
        let e: Error = w.into();
        assert!(matches!(e, Error::Wire(_)));
    }
}
