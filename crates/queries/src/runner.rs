//! Uniform execution of any query on any backend, with output
//! fingerprinting for cross-backend validation.

use std::hash::{Hash, Hasher};

use symple_core::error::Result;
use symple_core::frame::WordHasher;
use symple_core::uda::Uda;
use symple_mapreduce::{
    run_baseline, run_baseline_sorted, run_sequential_job, run_symple, GroupBy, JobConfig,
    JobMetrics, JobOutput, Segment, SympleJob,
};

/// Which execution strategy to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Single thread, no shuffle (§6.2's "Sequential").
    Sequential,
    /// Groupby in mappers, UDA in reducers (§6.3's "MapReduce").
    Baseline,
    /// §6.2's Local MapReduce: per-record shuffle sorted by key (the
    /// paper's Unix-`sort` pipeline) — less optimized than [`Backend::Baseline`].
    SortedBaseline,
    /// Groupby + symbolic UDA in mappers, composition in reducers.
    Symple,
}

impl Backend {
    /// The three core backends, for correctness sweeps.
    pub const ALL: [Backend; 3] = [Backend::Sequential, Backend::Baseline, Backend::Symple];

    /// Display name matching the paper's figure legends.
    pub fn label(self) -> &'static str {
        match self {
            Backend::Sequential => "Sequential",
            Backend::Baseline => "MapReduce",
            Backend::SortedBaseline => "LocalMapReduce",
            Backend::Symple => "SYMPLE",
        }
    }
}

/// Workload scale knobs shared by all queries.
#[derive(Debug, Clone, Copy)]
pub struct DataScale {
    /// Records to generate.
    pub records: usize,
    /// Approximate number of groups (dataset-specific meaning; queries map
    /// it onto users/repos/advertisers/hashtags).
    pub groups: u64,
    /// Input segments (= mappers).
    pub segments: usize,
    /// Generator seed.
    pub seed: u64,
    /// Feed mappers raw *log lines* that they must parse (datetime fields
    /// and all), as the paper's mappers do — the realistic cost profile
    /// used by the figure harnesses. When false, mappers receive
    /// pre-parsed structs (faster; used by correctness tests).
    pub parse_lines: bool,
}

impl Default for DataScale {
    fn default() -> DataScale {
        DataScale {
            records: 100_000,
            groups: 1_000,
            segments: 8,
            seed: 42,
            parse_lines: false,
        }
    }
}

/// Adapts a structured [`GroupBy`] to raw log-line input: each mapper
/// parses the line (the dominant per-record cost in the paper's setup,
/// §6.3) before extracting the key and projected event.
///
/// A line its record type's `parse_line` refuses is dropped like a record
/// the inner `extract` filters out. The parse is strict about every column
/// the record keeps — the datetime's shape and ranges, ASCII digits only
/// (no sign) within the field's type, exact prefixes and words — and reads
/// nothing of the filler column beyond the `,` that starts it; the whole
/// accept set is in [`symple_datagen::text`]'s module doc.
pub struct LineGroup<G>(pub G);

impl<G> GroupBy for LineGroup<G>
where
    G: GroupBy,
    G::Record: symple_datagen::TextRecord + Send + Sync,
{
    type Record = String;
    type Key = G::Key;
    type Event = G::Event;
    fn extract(&self, line: &String) -> Option<(G::Key, G::Event)> {
        let record = <G::Record as symple_datagen::TextRecord>::parse_line(line)?;
        self.0.extract(&record)
    }
}

/// What a query run reports back to the harness.
#[derive(Debug, Clone, Copy)]
pub struct QueryReport {
    /// Phase metrics from the job.
    pub metrics: JobMetrics,
    /// Fingerprint of the key-sorted results ([`hash_results`]), for
    /// cross-backend equality checks.
    pub output_hash: u64,
    /// Number of result rows (groups with output).
    pub output_rows: u64,
}

/// Fingerprints a result set by value: each `(key, output)` row goes
/// through [`Hash`] into a fresh [`WordHasher`], and the row digests fold
/// as `h·31 + row`. Results arrive key-sorted, so equal outputs hash
/// equally, and the fold's order sensitivity catches ordering bugs.
pub fn hash_results<K: Hash, O: Hash>(results: &[(K, O)]) -> u64 {
    results.iter().fold(0, |h, row| {
        let mut digest = WordHasher::new();
        row.hash(&mut digest);
        h.wrapping_mul(31).wrapping_add(digest.finish())
    })
}

impl QueryReport {
    fn of<K: Hash, O: Hash>(out: JobOutput<K, O>) -> QueryReport {
        QueryReport {
            metrics: out.metrics,
            output_hash: hash_results(&out.results),
            output_rows: out.results.len() as u64,
        }
    }
}

/// Runs a groupby-aggregate query on the chosen backend.
pub fn execute<G, U>(
    g: &G,
    uda: &U,
    segments: &[Segment<G::Record>],
    backend: Backend,
    job: &JobConfig,
) -> Result<QueryReport>
where
    G: GroupBy,
    U: Uda<Event = G::Event>,
    U::Output: Send,
{
    Ok(QueryReport::of(match backend {
        Backend::Sequential => run_sequential_job(g, uda, segments)?,
        Backend::Baseline => run_baseline(g, uda, segments, job)?,
        Backend::SortedBaseline => run_baseline_sorted(g, uda, segments, job)?,
        Backend::Symple => run_symple(g, uda, segments, job)?,
    }))
}

/// Runs a groupby-aggregate query on the SYMPLE backend as described by
/// `job` — with its chunk store (summary cache or checkpoints) and fault
/// plan, if any. The report's `metrics.cache_*` / `checkpoint_*` (and, on
/// failing disks, `io_*`) fields say how the store behaved; the output is
/// byte-identical to a plain [`Backend::Symple`] run either way.
pub fn execute_job<G, U>(
    g: &G,
    uda: &U,
    segments: &[Segment<G::Record>],
    job: &SympleJob<'_>,
) -> Result<QueryReport>
where
    G: GroupBy,
    U: Uda<Event = G::Event>,
    U::Output: Send,
{
    Ok(QueryReport::of(job.run(g, uda, segments)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `hash_results` of the rows in `hash_is_pinned`: per row, words
    /// `key, len, elements…` stepped from the seed, then the avalanche.
    const PINNED: u64 = 0x8a00_c4e0_148f_478b;

    #[test]
    fn hash_distinguishes_results() {
        let a = vec![(1u8, 10i64), (2, 20)];
        let b = vec![(1u8, 10i64), (2, 21)];
        assert_ne!(hash_results(&a), hash_results(&b));
        assert_eq!(hash_results(&a), hash_results(&a.clone()));
    }

    #[test]
    fn hash_is_pinned() {
        // A silent redefinition of the fingerprint fails here before it
        // reaches `golden/cells.txt`.
        let rows = vec![(7u32, vec![1i64, -2]), (9, vec![]), (11, vec![i64::MIN])];
        assert_eq!(hash_results(&rows), PINNED);
        assert_eq!(hash_results::<u32, Vec<i64>>(&[]), 0);
    }

    #[test]
    fn hash_sees_where_vectors_split() {
        // Length prefixes keep row and element boundaries apart.
        let split = vec![(1u32, vec![1i64]), (2, vec![2])];
        let joined = vec![(1u32, vec![1i64, 2])];
        assert_ne!(hash_results(&split), hash_results(&joined));
        let empty = vec![(1u32, Vec::<i64>::new())];
        let zero = vec![(1u32, vec![0i64])];
        assert_ne!(hash_results(&empty), hash_results(&zero));
    }

    #[test]
    fn hash_is_order_sensitive() {
        // Results are key-sorted by the jobs, so order sensitivity is fine
        // and catches ordering bugs.
        let a = vec![(1u8, 1i64), (2, 2)];
        let b = vec![(2u8, 2i64), (1, 1)];
        assert_ne!(hash_results(&a), hash_results(&b));
    }

    #[test]
    fn backend_labels() {
        assert_eq!(Backend::Sequential.label(), "Sequential");
        assert_eq!(Backend::Baseline.label(), "MapReduce");
        assert_eq!(Backend::Symple.label(), "SYMPLE");
        assert_eq!(Backend::ALL.len(), 3);
    }
}
