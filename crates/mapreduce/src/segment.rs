//! Input segments: the distributed file chunks mappers read (§2.1).
//!
//! The paper assumes "input data is distributed across several machines …
//! each distributed chunk has an identifier that allows the system to
//! reconstitute the input data in the correct order". A [`Segment`] is one
//! such chunk: an ordered slice of records plus its position in the global
//! order and the number of raw on-disk bytes it represents (paper records
//! are ≈1 KB with many fields most queries discard, so raw size and
//! in-memory size differ deliberately).
//!
//! Records reach a mapper as text lines (`TextRecord`) or as in-memory
//! structs; nothing reads records from the summary wire format.

/// One ordered chunk of the input, processed by one mapper.
#[derive(Debug, Clone)]
pub struct Segment<R> {
    /// Position of this segment in the global input order (= mapper id).
    pub id: usize,
    /// The records, in input order.
    pub records: Vec<R>,
    /// Raw bytes this segment occupies in storage (full records with all
    /// fields), used for I/O accounting.
    pub raw_bytes: u64,
}

impl<R> Segment<R> {
    /// Creates a segment.
    pub fn new(id: usize, records: Vec<R>, raw_bytes: u64) -> Segment<R> {
        Segment {
            id,
            records,
            raw_bytes,
        }
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the segment holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

/// Splits a flat record list into `n` contiguous segments, charging each
/// record `raw_record_bytes` of storage.
pub fn split_into_segments<R: Clone>(
    records: &[R],
    n: usize,
    raw_record_bytes: u64,
) -> Vec<Segment<R>> {
    let n = n.max(1);
    let chunk = records.len().div_ceil(n).max(1);
    records
        .chunks(chunk)
        .enumerate()
        .map(|(id, rs)| Segment::new(id, rs.to_vec(), rs.len() as u64 * raw_record_bytes))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_preserves_order_and_ids() {
        let records: Vec<i64> = (0..10).collect();
        let segs = split_into_segments(&records, 3, 100);
        assert_eq!(segs.len(), 3);
        assert_eq!(segs[0].records, vec![0, 1, 2, 3]);
        assert_eq!(segs[1].records, vec![4, 5, 6, 7]);
        assert_eq!(segs[2].records, vec![8, 9]);
        assert_eq!(segs[0].id, 0);
        assert_eq!(segs[2].id, 2);
        assert_eq!(segs[0].raw_bytes, 400);
        assert_eq!(segs[2].raw_bytes, 200);
        assert_eq!(segs[2].len(), 2);
        assert!(!segs[2].is_empty());
    }

    #[test]
    fn more_segments_than_records() {
        let records: Vec<i64> = vec![1, 2];
        let segs = split_into_segments(&records, 8, 10);
        assert_eq!(segs.len(), 2);
        let total: usize = segs.iter().map(Segment::len).sum();
        assert_eq!(total, 2);
    }

    #[test]
    fn empty_input_yields_no_segments() {
        let segs = split_into_segments::<i64>(&[], 4, 10);
        assert!(segs.is_empty());
    }
}
