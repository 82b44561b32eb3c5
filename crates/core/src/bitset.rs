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

    /// Iterates the members in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        (0..BITSET_CAPACITY).filter(move |v| self.contains(*v))
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
        if let Some(stray) = s.difference(&BitSet256::full(domain)).iter().last() {
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
