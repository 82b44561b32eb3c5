//! The groupby side of a groupby-aggregate query (§2.1 of the paper).
//!
//! `GroupBy: List<R> → Set<(K, List<E>)>` parses each record, extracts a
//! key, and emits a (possibly projected) event per record, grouping events
//! into per-key lists that retain the input order. Executed by mappers in
//! both the baseline and SYMPLE jobs.

use std::collections::HashMap;
use std::fmt::Debug;
use std::hash::Hash;

use symple_core::wire::Wire;

/// Grouping keys: hashable (for partitioning), ordered (for deterministic
/// output), and wire-encodable (for shuffle accounting).
pub trait Key: Hash + Eq + Ord + Clone + Debug + Send + Sync + Wire + 'static {}
impl<T: Hash + Eq + Ord + Clone + Debug + Send + Sync + Wire + 'static> Key for T {}

/// A user-provided groupby function.
///
/// `extract` parses one input record into a key and a projected event —
/// only the fields the UDA actually reads, the optimization the paper's
/// baseline also applies ("each mapper is optimized to only send input
/// record fields that are used by the UDAs", §6.2). Returning `None`
/// filters the record out.
pub trait GroupBy: Send + Sync {
    /// Raw input record type. `Hash` feeds the chunk store's content key,
    /// which is taken over a chunk's records before anything parses them.
    type Record: Send + Sync + Hash;
    /// Grouping key type.
    type Key: Key;
    /// Projected event type fed to the UDA.
    type Event: Clone + Debug + Send + Sync + Wire + 'static;

    /// Parses a record into `(key, event)`, or `None` to drop it.
    fn extract(&self, r: &Self::Record) -> Option<(Self::Key, Self::Event)>;

    /// Parses a record into *any number* of `(key, event)` pairs.
    ///
    /// Defaults to the single-pair [`GroupBy::extract`]; override for
    /// records that fan out (e.g. the per-element re-grouping of a
    /// previous stage's list-valued results in a multi-stage plan).
    fn extract_all(&self, r: &Self::Record, out: &mut Vec<(Self::Key, Self::Event)>) {
        out.extend(self.extract(r));
    }
}

/// Groups one segment's records into per-key ordered event lists.
///
/// Order within each key's list follows the segment's record order, as the
/// aggregation semantics require.
pub fn group_segment<G: GroupBy>(g: &G, records: &[G::Record]) -> HashMap<G::Key, Vec<G::Event>> {
    let mut groups: HashMap<G::Key, Vec<G::Event>> = HashMap::new();
    let mut pairs = Vec::with_capacity(4);
    for r in records {
        pairs.clear();
        g.extract_all(r, &mut pairs);
        for (k, e) in pairs.drain(..) {
            groups.entry(k).or_default().push(e);
        }
    }
    groups
}

/// One segment's events grouped by key, flat: `index` ascends by key and
/// pairs each key with where its events end in `events`; they start where
/// the previous key's end, in record order. Two allocations however many
/// keys the segment holds.
pub(crate) struct Groups<K, E> {
    index: Vec<(K, u32)>,
    events: Vec<E>,
}

impl<K, E> Groups<K, E> {
    /// Number of keys.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Every key with its events, ascending by key.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &[E])> {
        let mut from = 0;
        self.index.iter().map(move |(key, end)| {
            let events = &self.events[from..*end as usize];
            from = *end as usize;
            (key, events)
        })
    }
}

/// Groups records into per-key event lists that retain the record order,
/// sorted by key: the order map tasks emit in, which makes a chunk's
/// stored frame deterministic and keeps every shuffle run key-sorted.
pub(crate) fn sorted_groups<'r, G: GroupBy>(
    g: &G,
    records: impl IntoIterator<Item = &'r G::Record>,
) -> Groups<G::Key, G::Event>
where
    G::Record: 'r,
{
    // Stage every event once, in record order. Consecutive events of one
    // key are a run, filed as `(the key's slot, end)` when the next key
    // shows up: a key is hashed once per run, not once per event.
    let records = records.into_iter();
    let mut slots: HashMap<G::Key, u32> = HashMap::new();
    let mut runs: Vec<(u32, u32)> = Vec::new();
    let mut events = Vec::with_capacity(records.size_hint().0);
    let mut open: Option<G::Key> = None;
    let mut close = |key, end: usize| {
        let next = slots.len() as u32;
        runs.push((*slots.entry(key).or_insert(next), end as u32));
    };
    let mut pairs = Vec::with_capacity(4);
    for r in records {
        g.extract_all(r, &mut pairs);
        for (k, e) in pairs.drain(..) {
            if open.as_ref() != Some(&k) {
                if let Some(done) = open.replace(k) {
                    close(done, events.len());
                }
            }
            events.push(e);
        }
    }
    if let Some(done) = open {
        close(done, events.len());
    }
    // Slots, counts and positions are `u32`s, and none exceeds this.
    u32::try_from(events.len()).expect("a segment stages fewer than 2^32 events");

    // Counting sort of the runs by key rank: each key's event count, then
    // where its events start (from here on `cursor`) and end.
    let mut cursor = vec![0u32; slots.len()];
    let mut from = 0;
    for &(slot, end) in &runs {
        cursor[slot as usize] += end - from;
        from = end;
    }
    let mut index: Vec<(G::Key, u32)> = slots.into_iter().collect();
    index.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    let mut at = 0;
    for (_, slot_then_end) in &mut index {
        at += std::mem::replace(&mut cursor[*slot_then_end as usize], at);
        *slot_then_end = at;
    }
    // Where each run goes, in place of its slot.
    let (mut from, mut in_place) = (0, true);
    for (slot_then_to, end) in &mut runs {
        let cursor = &mut cursor[*slot_then_to as usize];
        in_place &= *cursor == from;
        *slot_then_to = *cursor;
        *cursor += *end - from;
        from = *end;
    }
    // A segment already in key order (one key, say) pays no second copy;
    // any other is rewritten from a copy of itself, run by run.
    if !in_place {
        let staged = events.clone();
        let mut from = 0;
        for &(to, end) in &runs {
            let (to, end) = (to as usize, end as usize);
            events[to..to + end - from].clone_from_slice(&staged[from..end]);
            from = end;
        }
    }
    Groups { index, events }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// Keys by `r % keys`; negative records are filtered, multiples of 7
    /// fan out to a second key.
    struct ByMod(i64);
    impl GroupBy for ByMod {
        type Record = i64;
        type Key = u8;
        type Event = i64;
        fn extract(&self, r: &i64) -> Option<(u8, i64)> {
            (*r >= 0).then(|| ((r % self.0) as u8, *r))
        }
        fn extract_all(&self, r: &i64, out: &mut Vec<(u8, i64)>) {
            out.extend(self.extract(r));
            if *r > 0 && r % 7 == 0 {
                out.push((((r + 1) % self.0) as u8, -r));
            }
        }
    }

    fn model(g: &ByMod, records: &[i64]) -> BTreeMap<u8, Vec<i64>> {
        let mut groups: BTreeMap<u8, Vec<i64>> = BTreeMap::new();
        let mut pairs = Vec::new();
        for r in records {
            g.extract_all(r, &mut pairs);
            for (k, e) in pairs.drain(..) {
                groups.entry(k).or_default().push(e);
            }
        }
        groups
    }

    fn assert_matches_model(g: &ByMod, records: &[i64]) {
        let want = model(g, records);
        let flat = sorted_groups(g, records);
        assert_eq!(flat.len(), want.len());
        let got: Vec<(u8, Vec<i64>)> = flat.iter().map(|(k, e)| (*k, e.to_vec())).collect();
        assert_eq!(got, want.into_iter().collect::<Vec<_>>());
        // The benchmark's staged harness still groups through the map.
        let hashed: BTreeMap<_, _> = group_segment(g, records).into_iter().collect();
        assert_eq!(hashed, model(g, records));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Keys ascend and each key's events keep record order, fan-out and
        /// filtered records included, for one key and for many.
        #[test]
        fn flat_grouping_matches_the_btreemap_model(
            records in prop::collection::vec(-20i64..200, 0..120),
            keys in 1i64..40,
        ) {
            assert_matches_model(&ByMod(keys), &records);
        }
    }

    #[test]
    fn groups_retain_order() {
        let flat = sorted_groups(&ByMod(2), &[1, 2, -5, 3, 4, 6, 5]);
        let got: Vec<_> = flat.iter().collect();
        assert_eq!(got, [(&0, &[2, 4, 6][..]), (&1, &[1, 3, 5][..])]);
    }

    #[test]
    fn empty_segment() {
        assert_eq!(sorted_groups(&ByMod(2), &[]).len(), 0);
        assert_matches_model(&ByMod(2), &[]);
    }

    #[test]
    fn all_filtered() {
        assert_eq!(sorted_groups(&ByMod(2), &[-1, -2]).len(), 0);
        assert_matches_model(&ByMod(2), &[-1, -2]);
    }

    #[test]
    fn single_key_and_key_ordered_segments() {
        // Staging order is already final order: the permutation is the
        // identity and no event moves.
        assert_matches_model(&ByMod(1), &[5, 3, 9, 1]);
        assert_matches_model(&ByMod(100), &[1, 1, 2, 3, 3, 50]);
    }
}
