//! Property tests for the content-addressed summary cache: a warm resweep
//! must be byte-identical to a cold run under *arbitrary* append / edit /
//! truncate deltas to the log, hit/miss accounting must balance the chunk
//! count, and evicting or corrupting arbitrary entries may only ever cost
//! recompute — never a wrong answer.

use proptest::prelude::*;

use symple::core::frame::fnv1a;
use symple::core::prelude::*;
use symple::core::wire::{put_slice, put_uvarint, Wire};
use symple::datagen::{
    generate_bing, generate_github, generate_redshift, generate_twitter, to_lines, BingConfig,
    GithubConfig, RedshiftConfig, TwitterConfig,
};
use symple::mapreduce::{
    ChunkStore, Dataset, GroupBy, JobConfig, MemStore, Segment, SummaryCacheCtx, SympleJob,
};
use symple::queries::runner_by_id;
use symple::queries::Backend;

/// The 12 Table-1 queries the registry serves.
const QUERY_IDS: [&str; 12] = [
    "G1", "G2", "G3", "G4", "B1", "B2", "B3", "T1", "R1", "R2", "R3", "R4",
];

/// Base log size per case; small enough that a case runs several jobs in
/// a few milliseconds, large enough for multiple content-defined chunks.
const BASE_RECORDS: usize = 300;
/// Surplus records generated up front to feed appends and edits.
const POOL_RECORDS: usize = 400;
/// Target records per content-defined chunk (~8 chunks at base size).
const TARGET_CHUNK: usize = 40;
/// Group-cardinality knob passed to the generators.
const GROUPS: u64 = 8;

/// One mutation to the log between sweeps.
#[derive(Clone, Debug)]
enum Delta {
    /// Append this many fresh (valid-schema) lines from the pool.
    Append(usize),
    /// Overwrite the line at `index % len` with a fresh pool line.
    Edit(usize),
    /// Drop this many lines from the tail (always keeping at least one).
    Truncate(usize),
}

fn delta_strategy() -> impl Strategy<Value = Delta> {
    prop_oneof![
        (1usize..40).prop_map(Delta::Append),
        (0usize..1_000).prop_map(Delta::Edit),
        (1usize..60).prop_map(Delta::Truncate),
    ]
}

/// Generates `BASE_RECORDS + POOL_RECORDS` raw log lines in the schema the
/// query's mappers parse. Generated once per case and split, because the
/// generators are not guaranteed prefix-stable across record counts.
fn lines_for(id: &str, seed: u64) -> Vec<String> {
    let n = BASE_RECORDS + POOL_RECORDS;
    match id.as_bytes()[0] {
        b'G' => to_lines(&generate_github(&GithubConfig {
            num_records: n,
            num_repos: GROUPS,
            push_only_fraction: 0.3,
            seed,
            ..GithubConfig::default()
        })),
        b'B' => to_lines(&generate_bing(&BingConfig {
            num_records: n,
            num_users: GROUPS,
            num_geos: 4,
            seed,
            ..BingConfig::default()
        })),
        b'T' => to_lines(&generate_twitter(&TwitterConfig {
            num_records: n,
            num_hashtags: GROUPS,
            seed,
            ..TwitterConfig::default()
        })),
        _ => to_lines(&generate_redshift(&RedshiftConfig {
            num_records: n,
            num_advertisers: GROUPS as u32,
            seed,
            ..RedshiftConfig::default()
        })),
    }
}

fn line_hash(l: &String) -> u64 {
    fnv1a(l.as_bytes())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Under an arbitrary delta sequence, every warm resweep is
    /// byte-identical to an uncached SYMPLE run over the same log, the
    /// hit/miss accounting balances the chunk count, and resweeping an
    /// unchanged log hits every chunk.
    #[test]
    fn warm_resweep_equals_cold_under_arbitrary_deltas(
        qi in 0usize..QUERY_IDS.len(),
        seed in 0u64..1_000,
        deltas in prop::collection::vec(delta_strategy(), 1..5),
    ) {
        let id = QUERY_IDS[qi];
        let runner = runner_by_id(id).expect("registry id");
        let job = JobConfig::default();
        let all = lines_for(id, seed);
        let (base, pool) = all.split_at(BASE_RECORDS);
        let mut pool = pool.iter().cloned();
        let mut data = Dataset::new(
            base.to_vec(),
            runner.raw_record_bytes(),
            TARGET_CHUNK,
            line_hash,
        );

        let cache = MemStore::new();
        let ctx = SummaryCacheCtx::new(&cache);
        let segs = data.segments();
        let cold = runner.run_lines_cached(&segs, &job, &ctx).unwrap();
        let plain = runner.run_lines(&segs, Backend::Symple, &job).unwrap();
        prop_assert_eq!(cold.output_hash, plain.output_hash, "{}: cold != uncached", id);
        prop_assert_eq!(cold.metrics.cache_hits, 0, "{}: fresh cache cannot hit", id);
        prop_assert_eq!(cold.metrics.cache_misses, segs.len() as u64, "{}", id);

        for delta in &deltas {
            match *delta {
                Delta::Append(n) => data.append(pool.by_ref().take(n)),
                Delta::Edit(i) => {
                    let idx = i % data.len();
                    let line = pool.next().expect("pool sized for all deltas");
                    data.edit(idx, line);
                }
                Delta::Truncate(n) => {
                    let keep = data.len().saturating_sub(n).max(1);
                    data.truncate(keep);
                }
            }
            let segs = data.segments();
            let warm = runner.run_lines_cached(&segs, &job, &ctx).unwrap();
            let plain = runner.run_lines(&segs, Backend::Symple, &job).unwrap();
            prop_assert_eq!(
                warm.output_hash, plain.output_hash,
                "{}: warm resweep diverged after {:?}", id, delta
            );
            prop_assert_eq!(warm.output_rows, plain.output_rows, "{}", id);
            prop_assert_eq!(warm.metrics.cache_corrupt, 0, "{}", id);
            prop_assert_eq!(
                warm.metrics.cache_hits + warm.metrics.cache_misses,
                segs.len() as u64,
                "{}: hits+misses must balance the chunk count", id
            );
        }

        // A resweep of the unchanged log is all hits, and still agrees.
        let segs = data.segments();
        let again = runner.run_lines_cached(&segs, &job, &ctx).unwrap();
        prop_assert_eq!(again.metrics.cache_hits, segs.len() as u64, "{}", id);
        prop_assert_eq!(again.metrics.cache_misses, 0, "{}", id);
        let plain = runner.run_lines(&segs, Backend::Symple, &job).unwrap();
        prop_assert_eq!(again.output_hash, plain.output_hash, "{}", id);
    }

    /// An append leaves every settled chunk warm: content-defined
    /// boundaries confine the delta to the tail, so at most the final
    /// (possibly re-flowed) chunks miss.
    #[test]
    fn append_only_dirties_the_tail(
        qi in 0usize..QUERY_IDS.len(),
        seed in 0u64..1_000,
        appended in 1usize..80,
    ) {
        let id = QUERY_IDS[qi];
        let runner = runner_by_id(id).expect("registry id");
        let job = JobConfig::default();
        let all = lines_for(id, seed);
        let (base, pool) = all.split_at(BASE_RECORDS);
        let mut data = Dataset::new(
            base.to_vec(),
            runner.raw_record_bytes(),
            TARGET_CHUNK,
            line_hash,
        );

        let cache = MemStore::new();
        let ctx = SummaryCacheCtx::new(&cache);
        let cold_chunks = data.segments().len() as u64;
        runner.run_lines_cached(&data.segments(), &job, &ctx).unwrap();

        data.append(pool.iter().take(appended).cloned());
        let segs = data.segments();
        let warm = runner.run_lines_cached(&segs, &job, &ctx).unwrap();
        let plain = runner.run_lines(&segs, Backend::Symple, &job).unwrap();
        prop_assert_eq!(warm.output_hash, plain.output_hash, "{}", id);
        // Every cold boundary except possibly the last survives an append,
        // so all but one of the cold chunks must be served warm.
        prop_assert!(
            warm.metrics.cache_hits >= cold_chunks - 1,
            "{}: {} hits < {} settled chunks after append",
            id, warm.metrics.cache_hits, cold_chunks - 1
        );
        prop_assert_eq!(
            warm.metrics.cache_hits + warm.metrics.cache_misses,
            segs.len() as u64,
            "{}", id
        );
    }

    /// Evicting or corrupting arbitrary entries costs exactly one
    /// recompute each — never a wrong or stale answer — and the damage
    /// heals: the next sweep is all hits again.
    #[test]
    fn eviction_and_corruption_only_cost_recompute(
        qi in 0usize..QUERY_IDS.len(),
        seed in 0u64..1_000,
        picks in prop::collection::vec(any::<u16>(), 1..6),
        flip in any::<u8>(),
    ) {
        let id = QUERY_IDS[qi];
        let runner = runner_by_id(id).expect("registry id");
        let job = JobConfig::default();
        let all = lines_for(id, seed);
        let data = Dataset::new(
            all[..BASE_RECORDS].to_vec(),
            runner.raw_record_bytes(),
            TARGET_CHUNK,
            line_hash,
        );
        let segs = data.segments();

        let cache = MemStore::new();
        let ctx = SummaryCacheCtx::new(&cache);
        runner.run_lines_cached(&segs, &job, &ctx).unwrap();
        let total = cache.entry_count() as u64;
        prop_assert_eq!(total, segs.len() as u64, "{}", id);

        // Damage an arbitrary subset: alternate picks evict / tamper.
        let mut keys = cache.keys();
        keys.sort_unstable();
        let mut evicted = 0u64;
        let mut tampered = 0u64;
        let mut damaged = std::collections::HashSet::new();
        for (i, p) in picks.iter().enumerate() {
            let (cfg_hash, digest) = keys[*p as usize % keys.len()];
            if !damaged.insert((cfg_hash, digest)) {
                continue;
            }
            if i % 2 == 0 {
                prop_assert!(cache.evict(cfg_hash, digest));
                evicted += 1;
            } else {
                let hit = cache.tamper(cfg_hash, digest, |b| {
                    let last = b.len() - 1;
                    b[last] ^= flip | 1;
                });
                prop_assert!(hit);
                tampered += 1;
            }
        }

        let warm = runner.run_lines_cached(&segs, &job, &ctx).unwrap();
        let plain = runner.run_lines(&segs, Backend::Symple, &job).unwrap();
        prop_assert_eq!(warm.output_hash, plain.output_hash, "{}", id);
        prop_assert_eq!(warm.metrics.cache_misses, evicted, "{}", id);
        prop_assert_eq!(warm.metrics.cache_corrupt, tampered, "{}", id);
        prop_assert_eq!(warm.metrics.cache_hits, total - evicted - tampered, "{}", id);

        // Recomputed entries were re-committed: the cache healed.
        let healed = runner.run_lines_cached(&segs, &job, &ctx).unwrap();
        prop_assert_eq!(healed.metrics.cache_hits, total, "{}", id);
        prop_assert_eq!(healed.metrics.cache_corrupt, 0, "{}", id);
        prop_assert_eq!(healed.output_hash, plain.output_hash, "{}", id);
    }
}

struct ByKey;
impl GroupBy for ByKey {
    type Record = (u8, i64);
    type Key = u8;
    type Event = i64;
    fn extract(&self, r: &(u8, i64)) -> Option<(u8, i64)> {
        Some(*r)
    }
}

struct Sum;

#[derive(Clone, Debug)]
struct SumState {
    sum: SymInt,
}
symple::core::impl_sym_state!(SumState { sum });

impl Uda for Sum {
    type State = SumState;
    type Event = i64;
    type Output = i64;
    fn init(&self) -> SumState {
        SumState {
            sum: SymInt::new(0),
        }
    }
    fn update(&self, s: &mut SumState, ctx: &mut SymCtx, e: &i64) {
        s.sum.add(ctx, *e);
    }
    fn result(&self, s: &SumState, _ctx: &mut SymCtx) -> i64 {
        s.sum.concrete_value().expect("concrete")
    }
}

/// Two one-key chunks whose grouped input — group count, key, events —
/// wire-encodes to 17 bytes that differ only in bit 7 of bytes 7 and 15,
/// bit 63 of the first two words. When the chunk key digested that
/// encoding, a xor-multiply word fold digested them equal, so the second
/// job was served the first one's cached summary and returned its sum.
/// The key now digests the raw `(u8, i64)` records instead, and the
/// scenario holds it to the same rule: each chunk must be its own cache
/// entry and return its own answer.
#[test]
fn chunks_differing_in_two_top_bits_are_distinct_cache_entries() {
    let a = [-67, -8_515, -1, -292_556_668_707_139i64];
    let b = [-67, -1_057_091, -11_081_691_996_483, -1i64];
    let encode = |events: &[i64]| {
        let mut buf = Vec::new();
        put_uvarint(&mut buf, 1);
        0u8.encode(&mut buf);
        put_slice(&mut buf, events);
        buf
    };
    let diff: Vec<(usize, u8)> = encode(&a)
        .iter()
        .zip(encode(&b))
        .enumerate()
        .filter(|(_, (x, y))| *x != y)
        .map(|(i, (x, y))| (i, x ^ y))
        .collect();
    assert_eq!(encode(&a).len(), 17);
    assert_eq!(
        diff,
        [(7, 0x80), (15, 0x80)],
        "the scenario's two flipped bits"
    );

    let cache = MemStore::new();
    let ctx = SummaryCacheCtx::new(&cache);
    let job = SympleJob::new(JobConfig::default()).with_store(ChunkStore::Cache(&ctx));
    for (events, sum) in [(&a, -292_556_668_715_722i64), (&b, -11_081_693_053_642)] {
        let segs = [Segment::new(0, events.map(|e| (0u8, e)).to_vec(), 0)];
        let cached = job.run(&ByKey, &Sum, &segs).unwrap();
        assert_eq!(cached.results, [(0u8, sum)], "{events:?}");
        assert_eq!(
            (cached.metrics.cache_hits, cached.metrics.cache_misses),
            (0, 1),
            "{events:?} must not be served another chunk's entry"
        );
    }
    assert_eq!(cache.entry_count(), 2);
}
