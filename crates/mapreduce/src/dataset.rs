//! Mutable datasets with content-defined chunk boundaries.
//!
//! The summary cache (the cache policy of [`crate::store`]) is addressed
//! by chunk *content*, so its hit rate is decided entirely by how stable
//! chunk boundaries are under edits. Fixed-count splitting
//! ([`crate::segment::split_into_segments`]) is the worst case: appending
//! one record shifts every boundary and dirties every chunk. A
//! [`Dataset`] instead cuts chunks where the *records themselves* say to
//! cut — a record whose hash matches a mask ends its chunk — so an append
//! dirties only the trailing chunk and an edit dirties only the chunk
//! holding it (plus, rarely, a neighbor when the edited record was itself
//! a boundary).
//!
//! Deltas are deliberately minimal — [`Dataset::append`],
//! [`Dataset::edit`], [`Dataset::truncate`] — matching the append-mostly
//! log workloads of the paper's queries. None of them can displace the
//! globally first chunk (edits replace in place, truncation eats the
//! tail), which matters because chunk 0 is the one that runs concretely
//! and is cache-keyed as such.

use crate::segment::Segment;

/// A record sequence plus the rules for cutting it into cache-friendly
/// chunks. The per-record hash must be a pure function of the record's
/// content (never of its position), or boundaries stop being
/// content-defined and the cache degrades to cold runs.
pub struct Dataset<R> {
    records: Vec<R>,
    raw_record_bytes: u64,
    target_chunk_records: usize,
    hash: fn(&R) -> u64,
}

impl<R: Clone> Dataset<R> {
    /// Builds a dataset. `target_chunk_records` is the *expected* chunk
    /// size; actual chunks vary between a quarter and four times the
    /// target (the usual content-defined-chunking min/max discipline).
    pub fn new(
        records: Vec<R>,
        raw_record_bytes: u64,
        target_chunk_records: usize,
        hash: fn(&R) -> u64,
    ) -> Dataset<R> {
        Dataset {
            records,
            raw_record_bytes,
            target_chunk_records: target_chunk_records.max(1),
            hash,
        }
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the dataset holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The records, in order.
    pub fn records(&self) -> &[R] {
        &self.records
    }

    /// Appends records at the end (the 1%-append resweep workload).
    pub fn append(&mut self, more: impl IntoIterator<Item = R>) {
        self.records.extend(more);
    }

    /// Replaces the record at `index` in place. Returns whether the index
    /// was in range.
    pub fn edit(&mut self, index: usize, record: R) -> bool {
        match self.records.get_mut(index) {
            Some(slot) => {
                *slot = record;
                true
            }
            None => false,
        }
    }

    /// Drops every record past the first `len` (a log rollback).
    pub fn truncate(&mut self, len: usize) {
        self.records.truncate(len);
    }

    /// The chunk boundaries as end-exclusive offsets (the last one is
    /// always `len()`, unless the dataset is empty).
    pub fn boundaries(&self) -> Vec<usize> {
        // A record cuts when the low bits of its content hash hit the
        // all-ones mask — probability ≈ 1/target per record, so chunk
        // sizes are geometric around the target. The min bound stops
        // pathological runs of boundary records from producing confetti;
        // the max bound stops boundary-free data from producing one giant
        // chunk. Only the max bound costs locality (a forced cut's
        // position depends on the previous cut), and it resynchronizes at
        // the next natural boundary.
        let mask = self.target_chunk_records.next_power_of_two() as u64 - 1;
        let min = (self.target_chunk_records / 4).max(1);
        let max = self.target_chunk_records.saturating_mul(4).max(min + 1);
        let mut bounds = Vec::new();
        let mut current = 0usize;
        for r in &self.records {
            current += 1;
            let natural = (self.hash)(r) & mask == mask;
            if (natural && current >= min) || current >= max {
                bounds.push(bounds.last().copied().unwrap_or(0) + current);
                current = 0;
            }
        }
        if current > 0 {
            bounds.push(self.records.len());
        }
        bounds
    }

    /// Materializes the chunks as ordered [`Segment`]s, ready for
    /// cache-policy ([`crate::store::SummaryCacheCtx`]) execution.
    pub fn segments(&self) -> Vec<Segment<R>> {
        let mut out = Vec::new();
        let mut start = 0usize;
        for (id, end) in self.boundaries().into_iter().enumerate() {
            let records = self.records[start..end].to_vec();
            let raw = records.len() as u64 * self.raw_record_bytes;
            out.push(Segment::new(id, records, raw));
            start = end;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use symple_core::frame::fnv1a;

    fn hash_i64(r: &i64) -> u64 {
        fnv1a(&r.to_le_bytes())
    }

    fn dataset(records: Vec<i64>) -> Dataset<i64> {
        Dataset::new(records, 64, 16, hash_i64)
    }

    fn chunk_contents(d: &Dataset<i64>) -> Vec<Vec<i64>> {
        d.segments().into_iter().map(|s| s.records).collect()
    }

    #[test]
    fn segments_cover_input_in_order() {
        let records: Vec<i64> = (0..500).map(|i| (i * 37 + 5) % 211).collect();
        let d = dataset(records.clone());
        let segs = d.segments();
        assert!(segs.len() > 1, "expected multiple chunks");
        let rejoined: Vec<i64> = segs.iter().flat_map(|s| s.records.clone()).collect();
        assert_eq!(rejoined, records);
        for (i, s) in segs.iter().enumerate() {
            assert_eq!(s.id, i);
            assert_eq!(s.raw_bytes, s.records.len() as u64 * 64);
        }
    }

    #[test]
    fn chunk_sizes_respect_bounds() {
        let records: Vec<i64> = (0..2000).map(|i| (i * 13 + 7) % 997).collect();
        let d = dataset(records);
        let segs = d.segments();
        for s in &segs[..segs.len() - 1] {
            assert!(s.len() >= 4, "min bound violated: {}", s.len());
            assert!(s.len() <= 64, "max bound violated: {}", s.len());
        }
        // The trailing chunk may be short (no natural cut at end-of-log)
        // but never oversized.
        assert!(segs.last().unwrap().len() <= 64);
    }

    #[test]
    fn append_only_dirties_the_tail() {
        let records: Vec<i64> = (0..800).map(|i| (i * 37 + 5) % 211).collect();
        let mut d = dataset(records);
        let before = chunk_contents(&d);
        d.append((0..8).map(|i| (i * 31 + 3) % 211));
        let after = chunk_contents(&d);
        // Every chunk except the last pre-append one is byte-identical.
        assert!(after.len() >= before.len());
        assert_eq!(
            &after[..before.len() - 1],
            &before[..before.len() - 1],
            "append must not move earlier boundaries"
        );
    }

    #[test]
    fn edit_dirties_a_bounded_neighborhood() {
        let records: Vec<i64> = (0..800).map(|i| (i * 37 + 5) % 211).collect();
        let mut d = dataset(records);
        let before = chunk_contents(&d);
        assert!(d.edit(400, 123_456));
        let after = chunk_contents(&d);
        let changed: usize = {
            // Count chunks of `after` that do not appear in `before` —
            // the chunks a warm run must recompute.
            let before_set: std::collections::HashSet<&Vec<i64>> = before.iter().collect();
            after.iter().filter(|c| !before_set.contains(c)).count()
        };
        assert!(
            changed <= 2,
            "an edit may dirty the containing chunk and at most one neighbor, dirtied {changed}"
        );
    }

    #[test]
    fn truncate_and_edit_out_of_range() {
        let mut d = dataset((0..100).collect());
        assert!(!d.edit(100, 0));
        d.truncate(40);
        assert_eq!(d.len(), 40);
        let rejoined: Vec<i64> = chunk_contents(&d).concat();
        assert_eq!(rejoined, (0..40).collect::<Vec<i64>>());
        d.truncate(0);
        assert!(d.is_empty());
        assert!(d.segments().is_empty());
        assert!(d.boundaries().is_empty());
    }

    #[test]
    fn boundaries_are_deterministic_and_content_defined() {
        let records: Vec<i64> = (0..600).map(|i| (i * 41 + 11) % 509).collect();
        let a = dataset(records.clone());
        let b = dataset(records);
        assert_eq!(a.boundaries(), b.boundaries());
    }
}
