//! A fixed 256-bit set: the constraint representation behind
//! [`crate::SymEnum`].
//!
//! §4.1's canonical form needs set membership, intersection, union and
//! complement in constant time; a quadword array covers state machines up
//! to 256 states without heap allocation or variable-width logic.

use crate::wire;
use crate::wire::WireError;

/// Number of bits a [`BitSet256`] can hold.
pub const BITSET_CAPACITY: u32 = 256;

const WORDS: usize = 4;

/// A set of small integers in `0..256`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct BitSet256 {
    words: [u64; WORDS],
}

impl BitSet256 {
    /// The empty set.
    pub const EMPTY: BitSet256 = BitSet256 { words: [0; WORDS] };

    /// The set `{0, …, domain−1}`.
    ///
    /// # Panics
    ///
    /// Panics if `domain` exceeds [`BITSET_CAPACITY`] — a construction-time
    /// bug, not a data error.
    pub fn full(domain: u32) -> BitSet256 {
        assert!(domain <= BITSET_CAPACITY, "domain {domain} exceeds 256");
        let mut words = [0u64; WORDS];
        for (i, w) in words.iter_mut().enumerate() {
            let lo = (i as u32) * 64;
            if domain > lo {
                let n = (domain - lo).min(64);
                *w = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
            }
        }
        BitSet256 { words }
    }

    /// The singleton `{v}`.
    pub fn singleton(v: u32) -> BitSet256 {
        let mut s = BitSet256::EMPTY;
        s.insert(v);
        s
    }

    /// Builds a set from the low 64 values of a mask (convenience for
    /// small domains).
    pub fn from_mask64(mask: u64) -> BitSet256 {
        BitSet256 {
            words: [mask, 0, 0, 0],
        }
    }

    /// The low 64 values as a mask.
    pub fn low_mask64(&self) -> u64 {
        self.words[0]
    }

    /// Adds `v` to the set.
    pub fn insert(&mut self, v: u32) {
        debug_assert!(v < BITSET_CAPACITY);
        self.words[(v / 64) as usize] |= 1u64 << (v % 64);
    }

    /// Whether `v` is in the set.
    pub fn contains(&self, v: u32) -> bool {
        v < BITSET_CAPACITY && self.words[(v / 64) as usize] & (1u64 << (v % 64)) != 0
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|w| *w == 0)
    }

    /// Number of members.
    pub fn len(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    /// Set intersection.
    pub fn intersect(&self, other: &BitSet256) -> BitSet256 {
        self.zip_with(other, |a, b| a & b)
    }

    /// Set union.
    pub fn union(&self, other: &BitSet256) -> BitSet256 {
        self.zip_with(other, |a, b| a | b)
    }

    /// Set difference `self \ other`.
    pub fn difference(&self, other: &BitSet256) -> BitSet256 {
        self.zip_with(other, |a, b| a & !b)
    }

    fn zip_with(&self, other: &BitSet256, f: impl Fn(u64, u64) -> u64) -> BitSet256 {
        let mut words = [0u64; WORDS];
        for (w, (a, b)) in words.iter_mut().zip(self.words.iter().zip(&other.words)) {
            *w = f(*a, *b);
        }
        BitSet256 { words }
    }

    /// Iterates the members in ascending order, a word at a time: each
    /// step takes the lowest set bit and clears it, so the cost is the
    /// number of members, not the capacity.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.words.iter().enumerate().flat_map(|(i, &word)| {
            let mut w = word;
            std::iter::from_fn(move || {
                (w != 0).then(|| {
                    let bit = w.trailing_zeros();
                    w &= w - 1;
                    i as u32 * 64 + bit
                })
            })
        })
    }

    /// The largest member, if any.
    fn max(&self) -> Option<u32> {
        let (i, w) = self
            .words
            .iter()
            .enumerate()
            .rev()
            .find(|(_, w)| **w != 0)?;
        Some(i as u32 * 64 + 63 - w.leading_zeros())
    }

    /// Encodes only the words a domain of the given size needs.
    pub fn encode_for_domain(&self, domain: u32, buf: &mut Vec<u8>) {
        let words = domain.div_ceil(64) as usize;
        for w in &self.words[..words.max(1)] {
            wire::put_uvarint(buf, *w);
        }
    }

    /// Decodes the words a domain of the given size needs.
    pub fn decode_for_domain(domain: u32, buf: &mut &[u8]) -> Result<BitSet256, WireError> {
        let n = (domain.div_ceil(64) as usize).max(1);
        let mut words = [0u64; WORDS];
        for w in words.iter_mut().take(n) {
            *w = wire::get_uvarint(buf)?;
        }
        let s = BitSet256 { words };
        if let Some(stray) = s.difference(&BitSet256::full(domain)).max() {
            return Err(WireError::OutOfDomain {
                value: u64::from(stray),
                domain: u64::from(domain),
            });
        }
        Ok(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The reference `iter` must equal: a scan of the whole capacity.
    fn naive(s: &BitSet256) -> Vec<u32> {
        (0..BITSET_CAPACITY).filter(|v| s.contains(*v)).collect()
    }

    /// A set over all four words: dense (`a`) or thinned (`a & b`), plus
    /// the word-edge members `edges` picks.
    fn set_of(a: &[u64], b: &[u64], dense: bool, edges: u8) -> BitSet256 {
        let mut words = [0u64; WORDS];
        for (w, (a, b)) in words.iter_mut().zip(a.iter().zip(b)) {
            *w = if dense { *a } else { a & b };
        }
        let mut s = BitSet256 { words };
        for (i, v) in [0, 63, 64, 127, 128, 255].into_iter().enumerate() {
            if edges & (1 << i) != 0 {
                s.insert(v);
            }
        }
        s
    }

    const DOMAINS: [u32; 7] = [1, 6, 63, 64, 65, 200, 256];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn iter_is_the_naive_scan(
            a in prop::collection::vec(any::<u64>(), WORDS),
            b in prop::collection::vec(any::<u64>(), WORDS),
            dense in any::<bool>(),
            edges in any::<u8>(),
        ) {
            let s = set_of(&a, &b, dense, edges);
            prop_assert_eq!(s.iter().collect::<Vec<_>>(), naive(&s));
            prop_assert_eq!(s.max(), naive(&s).last().copied());
        }

        /// Whatever the words on the wire, a decode either names the
        /// highest member outside the domain or returns the set itself.
        #[test]
        fn decode_reports_the_highest_stray_or_accepts(
            a in prop::collection::vec(any::<u64>(), WORDS),
            b in prop::collection::vec(any::<u64>(), WORDS),
            dense in any::<bool>(),
            edges in any::<u8>(),
        ) {
            let s = set_of(&a, &b, dense, edges);
            for domain in DOMAINS {
                let sent = (domain.div_ceil(64) as usize).max(1);
                let mut words = s.words;
                words[sent..].fill(0);
                let sent = BitSet256 { words };
                let mut buf = Vec::new();
                sent.encode_for_domain(domain, &mut buf);
                let stray = naive(&sent).into_iter().rfind(|v| *v >= domain);
                let want = match stray {
                    Some(v) => Err(WireError::OutOfDomain {
                        value: u64::from(v),
                        domain: u64::from(domain),
                    }),
                    None => Ok(sent),
                };
                prop_assert_eq!(BitSet256::decode_for_domain(domain, &mut &buf[..]), want);
                // The same set cut down to the domain is always accepted.
                let inside = sent.intersect(&BitSet256::full(domain));
                let mut buf = Vec::new();
                inside.encode_for_domain(domain, &mut buf);
                prop_assert_eq!(BitSet256::decode_for_domain(domain, &mut &buf[..]), Ok(inside));
            }
        }
    }

    #[test]
    fn iter_on_the_empty_the_full_and_the_word_edges() {
        assert_eq!(BitSet256::EMPTY.iter().next(), None);
        assert_eq!(BitSet256::EMPTY.max(), None);
        let full = BitSet256::full(256);
        assert_eq!(
            full.iter().collect::<Vec<_>>(),
            (0..256).collect::<Vec<_>>()
        );
        assert_eq!(full.max(), Some(255));
        let edges = set_of(&[0; 4], &[0; 4], true, u8::MAX);
        assert_eq!(edges.iter().collect::<Vec<_>>(), [0, 63, 64, 127, 128, 255]);
        for domain in DOMAINS {
            assert_eq!(
                BitSet256::full(domain).iter().collect::<Vec<_>>(),
                (0..domain).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn full_and_membership() {
        let s = BitSet256::full(100);
        assert_eq!(s.len(), 100);
        assert!(s.contains(0));
        assert!(s.contains(99));
        assert!(!s.contains(100));
        assert!(!s.contains(300));
        assert!(BitSet256::full(64).contains(63));
        assert_eq!(BitSet256::full(256).len(), 256);
        assert!(BitSet256::full(0).is_empty());
    }

    #[test]
    fn insert_singleton_iter() {
        let mut s = BitSet256::EMPTY;
        s.insert(3);
        s.insert(130);
        s.insert(255);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![3, 130, 255]);
        assert_eq!(BitSet256::singleton(77).len(), 1);
    }

    #[test]
    fn algebra() {
        let a = BitSet256::full(10);
        let b = BitSet256::from_mask64(0b1010_1010);
        assert_eq!(a.intersect(&b), b);
        assert_eq!(a.union(&b), a);
        assert_eq!(a.difference(&b).len(), 10 - 4);
        // Across word boundaries.
        let hi = BitSet256::singleton(200);
        assert!(hi.intersect(&a).is_empty());
        assert_eq!(hi.union(&a).len(), 11);
    }

    #[test]
    fn wire_roundtrip_per_domain() {
        for domain in [1u32, 7, 64, 65, 128, 200, 256] {
            let mut s = BitSet256::EMPTY;
            for v in (0..domain).step_by(3) {
                s.insert(v);
            }
            let mut buf = Vec::new();
            s.encode_for_domain(domain, &mut buf);
            let mut rd = &buf[..];
            let back = BitSet256::decode_for_domain(domain, &mut rd).unwrap();
            assert!(rd.is_empty(), "domain {domain}");
            assert_eq!(back, s, "domain {domain}");
        }
    }

    #[test]
    fn wire_rejects_out_of_domain_bits() {
        let s = BitSet256::full(64);
        let mut buf = Vec::new();
        s.encode_for_domain(64, &mut buf);
        // Decode as a smaller domain: the high bits are invalid, and the
        // error names the highest of them.
        let mut rd = &buf[..];
        assert_eq!(
            BitSet256::decode_for_domain(10, &mut rd),
            Err(WireError::OutOfDomain {
                value: 63,
                domain: 10
            })
        );
    }
}
