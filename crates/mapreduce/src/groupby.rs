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
    /// Raw input record type.
    type Record: Send + Sync;
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

/// [`group_segment`], sorted by key: the order map tasks emit in, which
/// makes a chunk's input digest and stored frame deterministic and keeps
/// every shuffle run key-sorted.
pub(crate) fn sorted_groups<G: GroupBy>(
    g: &G,
    records: &[G::Record],
) -> Vec<(G::Key, Vec<G::Event>)> {
    let mut groups: Vec<_> = group_segment(g, records).into_iter().collect();
    groups.sort_by(|a, b| a.0.cmp(&b.0));
    groups
}

#[cfg(test)]
mod tests {
    use super::*;

    struct ByParity;
    impl GroupBy for ByParity {
        type Record = i64;
        type Key = u8;
        type Event = i64;
        fn extract(&self, r: &i64) -> Option<(u8, i64)> {
            if *r < 0 {
                None // filtered
            } else {
                Some(((r % 2) as u8, *r))
            }
        }
    }

    #[test]
    fn groups_retain_order() {
        let recs = vec![1, 2, -5, 3, 4, 6, 5];
        let groups = group_segment(&ByParity, &recs);
        assert_eq!(groups[&1], vec![1, 3, 5]);
        assert_eq!(groups[&0], vec![2, 4, 6]);
        assert_eq!(groups.len(), 2);
    }

    #[test]
    fn empty_segment() {
        let groups = group_segment(&ByParity, &[]);
        assert!(groups.is_empty());
    }

    #[test]
    fn all_filtered() {
        let groups = group_segment(&ByParity, &[-1, -2]);
        assert!(groups.is_empty());
    }
}
