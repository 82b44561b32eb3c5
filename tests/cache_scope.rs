//! What a chunk-store key covers, and what a hit costs. A chunk is keyed
//! by its raw records and the query's types before anything parses them:
//! a hit must parse nothing, a miss must parse exactly its own records,
//! and two queries sharing one store must never serve each other.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};

use symple::core::frame::fnv1a;
use symple::datagen::{generate_bing, to_lines, BingConfig};
use symple::mapreduce::{
    checkpoint_namespace, run_symple, CheckpointCtx, ChunkStore, Dataset, FaultInjector, FaultPlan,
    GroupBy, JobConfig, MemStore, Segment, SummaryCacheCtx, SympleJob,
};
use symple::queries::bing_q::{b2_uda, B2Group, B3Uda};
use symple::queries::runner::{execute, execute_job, LineGroup};
use symple::queries::{runner_by_id, Backend, QueryReport};

/// Records per content-defined chunk: about 15 chunks of Bing lines.
const TARGET_CHUNK: usize = 40;

fn bing_lines(n: usize) -> Vec<String> {
    to_lines(&generate_bing(&BingConfig {
        num_records: n,
        num_users: 8,
        num_geos: 4,
        seed: 27,
        ..BingConfig::default()
    }))
}

fn line_hash(l: &String) -> u64 {
    fnv1a(l.as_bytes())
}

fn dataset(lines: Vec<String>) -> Dataset<String> {
    let raw = runner_by_id("B2").expect("registry id").raw_record_bytes();
    Dataset::new(lines, raw, TARGET_CHUNK, line_hash)
}

/// A grouping that counts the records it parses.
struct Counting<G> {
    inner: G,
    extracts: AtomicU64,
}

impl<G> Counting<G> {
    fn new(inner: G) -> Counting<G> {
        Counting {
            inner,
            extracts: AtomicU64::new(0),
        }
    }

    /// Records parsed since the last call.
    fn take(&self) -> u64 {
        self.extracts.swap(0, Ordering::SeqCst)
    }
}

impl<G: GroupBy> GroupBy for Counting<G> {
    type Record = G::Record;
    type Key = G::Key;
    type Event = G::Event;
    fn extract(&self, r: &G::Record) -> Option<(G::Key, G::Event)> {
        self.extracts.fetch_add(1, Ordering::SeqCst);
        self.inner.extract(r)
    }
}

fn records_in<'a>(segs: impl IntoIterator<Item = &'a Segment<String>>) -> u64 {
    segs.into_iter().map(|s| s.len() as u64).sum()
}

#[test]
fn a_cache_hit_parses_no_record() {
    let g = Counting::new(LineGroup(B2Group));
    let job = JobConfig::default();
    let cache = MemStore::new();
    let ctx = SummaryCacheCtx::new(&cache);
    let cached = SympleJob::new(job).with_store(ChunkStore::Cache(&ctx));
    let mut lines = bing_lines(1_010);
    let appended = lines.split_off(1_000);
    let mut data = dataset(lines);

    let cold_segs = data.segments();
    let n = cold_segs.len() as u64;
    assert!(n >= 8, "{n} chunks");
    let cold = cached.run(&g, &b2_uda(), &cold_segs).unwrap();
    assert_eq!(cold.metrics.cache_misses, n);
    assert_eq!(
        g.take(),
        records_in(&cold_segs),
        "a cold run parses each record once"
    );

    let warm = cached.run(&g, &b2_uda(), &cold_segs).unwrap();
    assert_eq!(warm.metrics.cache_hits, n);
    assert_eq!(g.take(), 0, "a warm run parses nothing");
    assert_eq!(warm.results, cold.results);

    // A 1 % append: a chunk hits when a cold chunk had its records and
    // its concreteness (only chunk 0 runs concretely); the rest miss, and
    // only their records are parsed.
    data.append(appended);
    let segs = data.segments();
    let settled: HashSet<(bool, &[String])> = cold_segs
        .iter()
        .map(|s| (s.id == 0, s.records.as_slice()))
        .collect();
    let dirty: Vec<&Segment<String>> = segs
        .iter()
        .filter(|s| !settled.contains(&(s.id == 0, s.records.as_slice())))
        .collect();
    assert!(!dirty.is_empty() && dirty.len() < segs.len());
    let resweep = cached.run(&g, &b2_uda(), &segs).unwrap();
    assert_eq!(resweep.metrics.cache_misses, dirty.len() as u64);
    assert_eq!(
        resweep.metrics.cache_hits,
        (segs.len() - dirty.len()) as u64
    );
    assert_eq!(g.take(), records_in(dirty));
    let clean = run_symple(&LineGroup(B2Group), &b2_uda(), &segs, &job).unwrap();
    assert_eq!(resweep.results, clean.results);
}

#[test]
fn a_resumed_checkpoint_parses_only_the_unfinished_chunks() {
    let g = Counting::new(LineGroup(B2Group));
    let job = JobConfig {
        map_workers: 2,
        ..JobConfig::default()
    };
    let store = MemStore::new();
    let ctx = CheckpointCtx::new(&store, "scope");
    let checkpointed = SympleJob::new(job).with_store(ChunkStore::Checkpoint(&ctx));
    let segs = dataset(bing_lines(1_000)).segments();
    let clean = run_symple(&LineGroup(B2Group), &b2_uda(), &segs, &job).unwrap();

    let injector = FaultInjector::new(FaultPlan {
        kill_after_n_tasks: Some(3),
        ..FaultPlan::default()
    });
    let killed = checkpointed
        .with_faults(&injector)
        .run(&g, &b2_uda(), &segs);
    assert!(killed.is_err(), "the kill must fire");
    // A chunk is in the store exactly when its task ran, and a task that
    // ran parsed its records.
    let namespace = checkpoint_namespace("scope");
    let finished: HashSet<u64> = store
        .keys()
        .into_iter()
        .filter(|(ns, _)| *ns == namespace)
        .map(|(_, id)| id)
        .collect();
    assert!(finished.len() >= 3 && finished.len() < segs.len());
    let (done, unfinished): (Vec<_>, Vec<_>) =
        segs.iter().partition(|s| finished.contains(&(s.id as u64)));
    assert_eq!(g.take(), records_in(done));

    let resumed = checkpointed.run(&g, &b2_uda(), &segs).unwrap();
    assert_eq!(resumed.metrics.checkpoint_hits, finished.len() as u64);
    assert_eq!(resumed.metrics.checkpoint_misses, unfinished.len() as u64);
    assert_eq!(g.take(), records_in(unfinished));
    assert_eq!(resumed.results, clean.results);
}

/// B2's grouping with B3's UDA: one grouping type, two UDA types.
const B2_GROUPING_B3_UDA: &str = "B2 grouping, B3 UDA";

/// One query over Bing lines, against `cache` or without a store.
fn run_query(
    id: &str,
    segs: &[Segment<String>],
    cache: Option<&SummaryCacheCtx<'_>>,
) -> QueryReport {
    let job = JobConfig::default();
    if id == B2_GROUPING_B3_UDA {
        let (g, uda) = (LineGroup(B2Group), B3Uda);
        return match cache {
            Some(ctx) => {
                let cached = SympleJob::new(job).with_store(ChunkStore::Cache(ctx));
                execute_job(&g, &uda, segs, &cached)
            }
            None => execute(&g, &uda, segs, Backend::Symple, &job),
        }
        .unwrap();
    }
    let runner = runner_by_id(id).expect("registry id");
    match cache {
        Some(ctx) => runner.run_lines_cached(segs, &job, ctx),
        None => runner.run_lines(segs, Backend::Symple, &job),
    }
    .unwrap()
}

/// B1 and B2 read the same lines with the same UDA type and differ only in
/// their grouping; B2 and the last query differ only in their UDA. Over
/// one store, each runs cold as if the store were empty, then warm.
#[test]
fn queries_sharing_one_cache_never_serve_each_other() {
    let segs = dataset(bing_lines(600)).segments();
    let n = segs.len() as u64;
    let cache = MemStore::new();
    let ctx = SummaryCacheCtx::new(&cache);
    let queries = ["B1", "B2", "B3", B2_GROUPING_B3_UDA];
    for id in queries {
        let cold = run_query(id, &segs, Some(&ctx));
        assert_eq!(
            (cold.metrics.cache_hits, cold.metrics.cache_corrupt),
            (0, 0),
            "{id} was served another query's frames"
        );
        assert_eq!(
            cold.output_hash,
            run_query(id, &segs, None).output_hash,
            "{id}"
        );
    }
    assert_eq!(cache.entry_count() as u64, queries.len() as u64 * n);
    for id in queries {
        let warm = run_query(id, &segs, Some(&ctx));
        assert_eq!(warm.metrics.cache_hits, n, "{id}");
        assert_eq!(
            warm.output_hash,
            run_query(id, &segs, None).output_hash,
            "{id}"
        );
    }
}
