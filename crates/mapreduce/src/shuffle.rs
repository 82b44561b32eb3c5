//! The shuffle: deterministic key partitioning and order-preserving
//! regrouping (§5.4 of the paper).
//!
//! SYMPLE tags every shuffled record with `(mapper_id, record_id)` so that
//! the reduce phase can re-order per-key payloads "according to their order
//! in the input data". Here mappers are processed as whole segments, so the
//! mapper id alone fixes the order (a mapper's internal order is preserved
//! inside its payload).
//!
//! The shuffle is three steps, each written once:
//!
//! 1. **Bucket** (`Buckets`, map side). A mapper hands over its cells in
//!    key order; each goes to the run of the reducer its key hashes to, so
//!    every run is key-sorted.
//! 2. **Transpose** (`transpose`, driver). `[mapper][reducer]` runs
//!    become `[reducer][mapper]` runs — moves, no per-cell work.
//! 3. **Merge** (`MergeRuns`, reduce side). A k-way merge of a reducer's
//!    runs yields its cells by key, and within a key by mapper.
//!
//! [`partition_to_reducers`] is those three steps run back to back.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

use symple_core::frame::fnv1a;

use crate::groupby::Key;

/// Runs `f` over `key`'s wire encoding, written into a per-thread scratch
/// buffer: hashing a key or measuring it allocates nothing.
fn with_key_bytes<K: Key, T>(key: &K, f: impl FnOnce(&[u8]) -> T) -> T {
    thread_local! {
        static SCRATCH: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
    }
    SCRATCH.with_borrow_mut(|buf| {
        buf.clear();
        key.encode(buf);
        f(buf)
    })
}

/// Stable 64-bit FNV-1a hash over a key's wire encoding.
///
/// The standard library hasher is randomized per process; shuffles must be
/// deterministic so that re-executed (failed) map tasks land payloads on
/// the same reducers.
pub fn stable_hash<K: Key>(key: &K) -> u64 {
    with_key_bytes(key, fnv1a)
}

/// The reducer a hash is routed to.
fn reducer_of(hash: u64, num_reducers: usize) -> usize {
    (hash % num_reducers.max(1) as u64) as usize
}

/// The reducer a key is routed to.
pub fn partition<K: Key>(key: &K, num_reducers: usize) -> usize {
    reducer_of(stable_hash(key), num_reducers)
}

/// One mapper's cells bound for one reducer, ascending by key: the key and
/// whatever stands for its payload (the payload itself, or where it ends in
/// a byte arena).
pub(crate) type Run<K, X> = Vec<(K, X)>;

/// Step 1, map side: one [`Run`] per reducer, filled in key order.
pub(crate) struct Buckets<K, X> {
    runs: Vec<Run<K, X>>,
}

impl<K: Key, X> Buckets<K, X> {
    /// Empty runs for `num_reducers` reducers (zero clamps to one).
    pub fn new(num_reducers: usize) -> Buckets<K, X> {
        Buckets {
            runs: (0..num_reducers.max(1)).map(|_| Vec::new()).collect(),
        }
    }

    /// Appends a cell to the run of the reducer `key` hashes to and returns
    /// the key's wire length (the encoding it was hashed over). `payload`
    /// is told which reducer that is. Keys must arrive in ascending order.
    pub fn push(&mut self, key: K, payload: impl FnOnce(usize) -> X) -> usize {
        let (hash, key_len) = with_key_bytes(&key, |b| (fnv1a(b), b.len()));
        let r = reducer_of(hash, self.runs.len());
        self.runs[r].push((key, payload(r)));
        key_len
    }

    /// Whether every run ascends by key — what [`MergeRuns`] relies on.
    /// [`Buckets::push`] takes it on trust; cells that come from outside
    /// the program are checked with this.
    pub fn is_sorted(&self) -> bool {
        let ascends = |run: &Run<K, X>| run.is_sorted_by(|a, b| a.0 <= b.0);
        self.runs.iter().all(ascends)
    }

    /// The runs, indexed by reducer.
    pub fn runs(&self) -> &[Run<K, X>] {
        &self.runs
    }

    /// Consumes the buckets into their runs, indexed by reducer.
    pub fn into_runs(self) -> Vec<Run<K, X>> {
        self.runs
    }
}

/// Step 2, driver: turns per-mapper rows of `width` per-reducer items into
/// per-reducer rows of per-mapper items, mapper order kept.
pub(crate) fn transpose<T>(rows: impl IntoIterator<Item = Vec<T>>, width: usize) -> Vec<Vec<T>> {
    let mut columns: Vec<Vec<T>> = (0..width).map(|_| Vec::new()).collect();
    for row in rows {
        assert_eq!(
            row.len(),
            width,
            "a mapper bucketed for another reducer count"
        );
        for (column, item) in columns.iter_mut().zip(row) {
            column.push(item);
        }
    }
    columns
}

/// Step 3, reduce side: a k-way merge of key-sorted runs. Yields every
/// cell as `(key, run index, payload)`, ascending by key, within a key by
/// run index (mapper order), within a run in the run's own order.
pub(crate) struct MergeRuns<Q, X, I> {
    runs: Vec<I>,
    /// The payload of each run's next cell; its key is in `heap`.
    heads: Vec<Option<X>>,
    heap: BinaryHeap<Reverse<(Q, usize)>>,
}

impl<Q: Ord, X, I: Iterator<Item = (Q, X)>> MergeRuns<Q, X, I> {
    /// Merges `runs`, each of which must ascend by key.
    pub fn new(runs: impl IntoIterator<Item = I>) -> MergeRuns<Q, X, I> {
        let runs: Vec<I> = runs.into_iter().collect();
        let mut merge = MergeRuns {
            heads: runs.iter().map(|_| None).collect(),
            heap: BinaryHeap::with_capacity(runs.len()),
            runs,
        };
        for m in 0..merge.runs.len() {
            merge.advance(m);
        }
        merge
    }

    /// Moves run `m`'s next cell, if any, into the heap.
    fn advance(&mut self, m: usize) {
        if let Some((key, payload)) = self.runs[m].next() {
            self.heads[m] = Some(payload);
            self.heap.push(Reverse((key, m)));
        }
    }
}

impl<Q: Ord, X, I: Iterator<Item = (Q, X)>> Iterator for MergeRuns<Q, X, I> {
    type Item = (Q, usize, X);

    fn next(&mut self) -> Option<(Q, usize, X)> {
        let Reverse((key, m)) = self.heap.pop()?;
        let payload = self.heads[m].take().expect("a run in the heap has a head");
        self.advance(m);
        Some((key, m, payload))
    }
}

/// One reducer's input: per key, the payloads of every mapper that emitted
/// for that key, ordered by mapper id.
pub type ReducerInput<K, P> = BTreeMap<K, Vec<(usize, P)>>;

/// Routes mapper outputs to reducers.
///
/// `mapper_outputs[m]` is mapper `m`'s emitted `(key, payload)` list.
/// Within each key the payloads keep ascending mapper order — the shuffle
/// sort the paper implements with lexicographic `(mapper_id, record_id)`
/// keys. This is the job's own shuffle run on one thread: bucket each
/// mapper's cells, transpose, merge each reducer's runs.
pub fn partition_to_reducers<K: Key, P>(
    mapper_outputs: Vec<Vec<(K, P)>>,
    num_reducers: usize,
) -> Vec<ReducerInput<K, P>> {
    let width = num_reducers.max(1);
    let per_mapper = mapper_outputs.into_iter().map(|mut cells| {
        // Stable, so a mapper's own order within a key survives.
        cells.sort_by(|a, b| a.0.cmp(&b.0));
        let mut buckets = Buckets::new(width);
        for (key, payload) in cells {
            buckets.push(key, |_| payload);
        }
        buckets.into_runs()
    });
    transpose(per_mapper, width)
        .into_iter()
        .map(|runs| {
            let mut groups: Vec<(K, Vec<(usize, P)>)> = Vec::new();
            for (key, mapper, payload) in MergeRuns::new(runs.into_iter().map(Vec::into_iter)) {
                match groups.last_mut() {
                    Some((last, cells)) if *last == key => cells.push((mapper, payload)),
                    _ => groups.push((key, vec![(mapper, payload)])),
                }
            }
            groups.into_iter().collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use symple_core::wire::Wire;

    #[test]
    fn hash_is_deterministic_across_calls() {
        let a = stable_hash(&42u64);
        let b = stable_hash(&42u64);
        assert_eq!(a, b);
        assert_ne!(stable_hash(&1u64), stable_hash(&2u64));
    }

    #[test]
    fn hash_is_fnv1a_of_the_wire_encoding() {
        // The reused scratch buffer must not leak one key's bytes into the
        // next key's hash, whatever their lengths.
        for key in ["a long key first", "", "k", "another longer key"] {
            let key = key.to_string();
            assert_eq!(stable_hash(&key), fnv1a(&key.to_wire()));
        }
        assert_eq!(stable_hash(&300u64), fnv1a(&300u64.to_wire()));
    }

    #[test]
    fn partition_in_range() {
        for k in 0..1000u64 {
            assert!(partition(&k, 7) < 7);
        }
        assert_eq!(partition(&5u64, 0), 0, "zero reducers clamps to one");
    }

    #[test]
    fn partition_spreads_keys() {
        let mut counts = [0usize; 8];
        for k in 0..10_000u64 {
            counts[partition(&k, 8)] += 1;
        }
        for c in counts {
            assert!(c > 500, "badly skewed partitioning: {counts:?}");
        }
    }

    #[test]
    fn buckets_route_like_partition_and_measure_the_key() {
        let mut buckets: Buckets<String, usize> = Buckets::new(5);
        for key in ["a", "bb", "ccc", "dddd"] {
            let key = key.to_string();
            let expect = partition(&key, 5);
            let len = buckets.push(key.clone(), |r| {
                assert_eq!(r, expect);
                r
            });
            assert_eq!(len, key.wire_len());
        }
        let cells: usize = buckets.runs().iter().map(Vec::len).sum();
        assert_eq!(cells, 4);
    }

    #[test]
    fn regroup_orders_by_mapper() {
        let outputs = vec![
            vec![("k".to_string(), 100)],
            vec![("k".to_string(), 200), ("j".to_string(), 1)],
            vec![("k".to_string(), 300)],
        ];
        let reducers = partition_to_reducers(outputs, 3);
        let all: Vec<_> = reducers.iter().flat_map(|r| r.iter()).collect();
        assert_eq!(all.len(), 2);
        let k_entry = reducers
            .iter()
            .find_map(|r| r.get("k"))
            .expect("key k present");
        assert_eq!(k_entry, &vec![(0, 100), (1, 200), (2, 300)]);
    }

    #[test]
    fn same_key_lands_on_one_reducer() {
        let outputs = vec![vec![(7u64, 1)], vec![(7u64, 2)]];
        let reducers = partition_to_reducers(outputs, 4);
        let populated: Vec<_> = reducers.iter().filter(|r| !r.is_empty()).collect();
        assert_eq!(populated.len(), 1);
    }
}
