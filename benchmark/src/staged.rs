//! The staged pipeline: one SYMPLE job re-expressed as the public calls
//! it is made of, single-threaded, one span per call site.
//!
//! `run_symple` fuses parse → group → explore → encode per map task and
//! decode → apply → extract per reduce task behind one entry point, so
//! nothing outside the program can time a layer of it. This module makes
//! the same calls in the same order itself — per segment and per reducer
//! rather than per key, so a span covers a loop and its own cost
//! vanishes — and proves it is the same job: the result hash equals the
//! real job's and the byte and exploration totals equal its
//! `JobMetrics`.

use std::fmt::Debug;
use std::hint::black_box;

use symple_core::compose::{apply_chain, tree_collapse};
use symple_core::engine::{ArenaStats, ExploreStats, SymbolicExecutor};
use symple_core::summary::{Summary, SummaryChain};
use symple_core::uda::{extract_result, run_concrete_state, Uda};
use symple_core::wire::Wire;
use symple_datagen::TextRecord;
use symple_mapreduce::groupby::group_segment;
use symple_mapreduce::shuffle::partition_to_reducers;
use symple_mapreduce::{GroupBy, JobConfig, JobMetrics, Segment};
use symple_queries::runner::hash_results;

use crate::spans::Tracer;

/// `run_symple` prefixes every shuffled payload with one tag byte; the
/// staged pipeline ships bare chain bytes and accounts for the tag here.
const PAYLOAD_TAG_BYTES: u64 = 1;

/// One key's decoded chains at a reducer, in mapper order.
type KeyChains<'a, K, S> = (&'a K, Vec<SummaryChain<S>>);

/// Counts one staged job produced.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StagedCounts {
    /// Output hash (same fingerprint the registry computes).
    pub output_hash: u64,
    /// Output rows.
    pub output_rows: u64,
    /// Lines handed to `TextRecord::parse_line`.
    pub lines: u64,
    /// Bytes of those lines.
    pub line_bytes: u64,
    /// Events the groupby emitted.
    pub events: u64,
    /// `(key, segment)` cells.
    pub cells: u64,
    /// Exploration statistics summed over symbolic cells.
    pub explore: ExploreStats,
    /// Arena statistics summed over symbolic cells.
    pub arena: ArenaStats,
    /// Encoded chain bytes (no tag bytes).
    pub chain_bytes: u64,
    /// Summaries across all chains.
    pub summaries: u64,
    /// Paths across all chains.
    pub paths: u64,
    /// Shuffle bytes as `run_symple` counts them: keys + tags + chains.
    pub shuffle_bytes: u64,
    /// Bytes routed to each reducer.
    pub reducer_bytes: Vec<u64>,
    /// Chains applied in the reduce phase.
    pub chains_applied: u64,
}

impl StagedCounts {
    /// Payload bytes as `JobMetrics.summary_bytes` counts them.
    pub fn summary_bytes(&self) -> u64 {
        self.chain_bytes + self.cells * PAYLOAD_TAG_BYTES
    }

    /// Max ÷ mean bytes per reducer.
    pub fn reducer_skew(&self) -> f64 {
        let max = self.reducer_bytes.iter().copied().max().unwrap_or(0) as f64;
        let mean =
            self.reducer_bytes.iter().sum::<u64>() as f64 / self.reducer_bytes.len().max(1) as f64;
        if mean == 0.0 {
            1.0
        } else {
            max / mean
        }
    }

    /// Why this staged job is *not* the job `real` measured, if it isn't.
    pub fn reconcile(&self, real: &JobMetrics, real_hash: u64) -> Result<(), String> {
        let checks = [
            ("output hash", self.output_hash, real_hash),
            ("shuffle_bytes", self.shuffle_bytes, real.shuffle_bytes),
            ("shuffle_records", self.cells, real.shuffle_records),
            ("summary_bytes", self.summary_bytes(), real.summary_bytes),
            ("input_records", self.lines, real.input_records),
            ("groups", self.output_rows, real.groups),
            (
                "explore.records",
                self.explore.records,
                real.explore.records,
            ),
            ("explore.runs", self.explore.runs, real.explore.runs),
            ("explore.forks", self.explore.forks, real.explore.forks),
            ("explore.merges", self.explore.merges, real.explore.merges),
            (
                "explore.restarts",
                self.explore.restarts,
                real.explore.restarts,
            ),
            (
                "explore.max_live_paths",
                self.explore.max_live_paths as u64,
                real.explore.max_live_paths as u64,
            ),
            ("salvaged chunks", 0, real.chunks_salvaged_concrete),
        ];
        for (what, staged, job) in checks {
            if staged != job {
                return Err(format!(
                    "staged pipeline does not reconcile: {what} is {staged}, the real job's is {job}"
                ));
            }
        }
        Ok(())
    }
}

/// Runs one staged job over `segments`, recording spans into `t`.
pub fn staged_job<G, U>(
    g: &G,
    uda: &U,
    segments: &[Segment<String>],
    cfg: &JobConfig,
    t: &mut Tracer,
) -> Result<StagedCounts, String>
where
    G: GroupBy,
    G::Record: TextRecord,
    U: Uda<Event = G::Event>,
    U::Output: Debug,
{
    let mut c = StagedCounts::default();
    let job = t.enter("job");
    let template = uda.init();

    let mut mapper_outputs: Vec<Vec<(G::Key, Vec<u8>)>> = Vec::with_capacity(segments.len());
    for seg in segments {
        let task = t.enter("map_task");

        let s = t.enter("datagen.text.parse");
        let records: Vec<G::Record> = seg
            .records
            .iter()
            .filter_map(|line| G::Record::parse_line(line))
            .collect();
        t.exit(s);
        c.lines += seg.records.len() as u64;
        c.line_bytes += seg.records.iter().map(|l| l.len() as u64).sum::<u64>();

        let s = t.enter("mapreduce.groupby.group");
        let mut groups: Vec<(G::Key, Vec<G::Event>)> =
            group_segment(g, &records).into_iter().collect();
        groups.sort_by(|a, b| a.0.cmp(&b.0));
        t.exit(s);
        c.cells += groups.len() as u64;
        c.events += groups.iter().map(|(_, e)| e.len() as u64).sum::<u64>();

        let mut chains: Vec<SummaryChain<U::State>> = Vec::with_capacity(groups.len());
        if seg.id == 0 && cfg.first_segment_concrete {
            let s = t.enter("core.engine.concrete");
            for (_, events) in &groups {
                let state = run_concrete_state(uda, events.iter()).map_err(|e| e.to_string())?;
                chains.push(SummaryChain::single(Summary::singleton(state)));
            }
            t.exit(s);
        } else {
            let s = t.enter("core.engine.explore");
            for (_, events) in &groups {
                let mut exec = SymbolicExecutor::new(uda, cfg.engine);
                if let Err(e) = exec.feed_slice(events) {
                    // The real job would salvage this cell as raw events;
                    // no benchmark workload may take that path.
                    return Err(format!("engine refused a chunk of segment {}: {e}", seg.id));
                }
                let arena = exec.arena_stats();
                let (chain, stats) = exec.finish();
                c.explore.records += stats.records;
                c.explore.runs += stats.runs;
                c.explore.forks += stats.forks;
                c.explore.merges += stats.merges;
                c.explore.restarts += stats.restarts;
                c.explore.max_live_paths = c.explore.max_live_paths.max(stats.max_live_paths);
                c.arena.state_clones += arena.state_clones;
                c.arena.in_place_runs += arena.in_place_runs;
                c.arena.batched_records += arena.batched_records;
                c.arena.rollbacks += arena.rollbacks;
                c.arena.snapshot_states += arena.snapshot_states;
                chains.push(chain);
            }
            t.exit(s);
        }

        let s = t.enter("core.summary.encode");
        let mut emits: Vec<(G::Key, Vec<u8>)> = Vec::with_capacity(groups.len());
        for ((key, _), chain) in groups.iter().zip(&chains) {
            let bytes = chain.to_bytes();
            c.summaries += chain.len() as u64;
            c.paths += chain.total_paths() as u64;
            c.chain_bytes += bytes.len() as u64;
            emits.push((key.clone(), bytes));
        }
        t.exit(s);
        c.shuffle_bytes += emits
            .iter()
            .map(|(k, p)| k.wire_len() as u64 + PAYLOAD_TAG_BYTES + p.len() as u64)
            .sum::<u64>();
        mapper_outputs.push(emits);
        t.exit(task);
    }

    let s = t.enter("mapreduce.shuffle.partition");
    let reducer_inputs = partition_to_reducers(mapper_outputs, cfg.num_reducers);
    t.exit(s);

    let mut results: Vec<(G::Key, U::Output)> = Vec::new();
    for input in &reducer_inputs {
        let task = t.enter("reduce_task");
        c.reducer_bytes.push(
            input
                .iter()
                .flat_map(|(k, chunks)| {
                    let key_len = k.wire_len() as u64;
                    chunks
                        .iter()
                        .map(move |(_, p)| key_len + PAYLOAD_TAG_BYTES + p.len() as u64)
                })
                .sum(),
        );

        let s = t.enter("core.summary.decode");
        let mut decoded: Vec<KeyChains<'_, G::Key, U::State>> = Vec::with_capacity(input.len());
        for (key, chunks) in input {
            let mut chains = Vec::with_capacity(chunks.len());
            for (_, payload) in chunks {
                chains.push(
                    SummaryChain::decode(&template, &mut payload.as_slice())
                        .map_err(|e| format!("decoding a shuffled chain: {e}"))?,
                );
            }
            decoded.push((key, chains));
        }
        t.exit(s);

        let s = t.enter("core.compose.apply");
        let mut states: Vec<U::State> = Vec::with_capacity(decoded.len());
        for (_, chains) in &decoded {
            let mut state = template.clone();
            for chain in chains {
                state = apply_chain(chain, &state).map_err(|e| e.to_string())?;
            }
            c.chains_applied += chains.len() as u64;
            states.push(state);
        }
        t.exit(s);

        // The layer's second use: collapse the same chains by balanced
        // composition (what `ReduceStrategy::TreeCompose` does). Timed for
        // comparison only; the job's result comes from the in-order path.
        let s = t.enter("core.compose.tree");
        for (_, chains) in &decoded {
            let summaries: Vec<Summary<U::State>> = chains
                .iter()
                .flat_map(|chain| chain.summaries().iter().cloned())
                .collect();
            black_box(tree_collapse(&summaries).map_err(|e| e.to_string())?);
        }
        t.exit(s);

        let s = t.enter("core.uda.extract");
        for ((key, _), state) in decoded.iter().zip(&states) {
            results.push((
                (*key).clone(),
                extract_result(uda, state).map_err(|e| e.to_string())?,
            ));
        }
        t.exit(s);
        t.exit(task);
    }

    let s = t.enter("finalize");
    results.sort_by(|a, b| a.0.cmp(&b.0));
    c.output_hash = hash_results(&results);
    c.output_rows = results.len() as u64;
    t.exit(s);
    t.exit(job);
    Ok(c)
}
