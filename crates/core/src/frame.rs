//! Framed, checksummed records for durable chunk-summary checkpoints.
//!
//! A checkpoint frame wraps one chunk's encoded map output in enough
//! metadata to prove, on resume, that the bytes are (a) intact and (b)
//! still *meaningful* for the job being resumed:
//!
//! ```text
//! +-------+---------+-------------+-------------+--------------+---------+-------+
//! | magic | version | chunk_index | config_hash | input_digest | payload | crc32 |
//! | SYCP  |   u8    |   uvarint   |   uvarint   |   uvarint    | len+buf | u32le |
//! +-------+---------+-------------+-------------+--------------+---------+-------+
//! ```
//!
//! The CRC covers every byte before it. Integrity failures (truncation,
//! bit flips, unknown version, trailing garbage) classify as
//! [`FrameCheck::Corrupt`]; an intact frame whose metadata does not match
//! the resuming job (different engine configuration, different input
//! bytes, wrong chunk) classifies as [`FrameCheck::Stale`]. Both mean
//! "recompute this chunk"; the distinction is kept because stale frames
//! are evidence of an operator-visible configuration or data change, not
//! of storage rot.

use std::hash::{BuildHasher, Hasher};

use crate::wire::{get_bytes, get_len, get_uvarint, put_uvarint};

/// Magic prefix of every checkpoint frame ("SYmple CheckPoint").
pub const FRAME_MAGIC: [u8; 4] = *b"SYCP";

/// Current frame format version. Bump on any layout change; readers
/// refuse (quarantine) versions they do not know rather than guessing.
/// Version 2 frames carry summary wire v2 chains; nothing reads version 1.
pub const FRAME_VERSION: u8 = 2;

/// Slicing-by-8 tables for [`crc32`], computed at compile time.
/// `CRC_TABLES[0][b]` is the CRC register after shifting byte `b` through
/// it; `CRC_TABLES[k][b]` is the same byte followed by `k` zero bytes.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) over `bytes`.
///
/// Hand-rolled so the wire layer stays dependency-free. Eight bytes a step
/// through eight table lookups (slicing-by-8), then the tail bytewise:
/// every cache hit verifies a whole frame, so this is on the warm path.
fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = !0u32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = t[0][((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// FNV-1a over a byte slice — the deterministic digest used for engine
/// configuration fingerprints and store namespaces (chunk input digests
/// use [`WordHasher`]).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(0xcbf2_9ce4_8422_2325, bytes)
}

/// Folds more bytes into a running FNV-1a state (start from [`fnv1a`]'s
/// offset basis, or chain calls to digest a multi-part input).
pub fn fnv1a_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A word-at-a-time [`Hasher`]: the digest of a chunk's raw records (the
/// store's content address) and of every output row
/// (`QueryReport::output_hash`).
///
/// Each step xors one 64-bit word into the state, multiplies by an odd
/// constant and xor-shifts. For a fixed word a step is a bijection of the
/// state, so two inputs of one shape that differ in exactly one word never
/// collide; the xor-shift carries high bits down, so — unlike an FNV-style
/// xor-multiply fold, where flipping bit 63 of any two words cancels — a
/// difference cannot ride in the top bit untouched. [`Hasher::write`]
/// reads whole little-endian words and pads a trailing partial word,
/// tagged with its length in the top byte and stepped with a second
/// multiplier; an integer of up to 64 bits is one word, whatever its
/// width. [`Hasher::finish`] runs a final avalanche so every input bit
/// reaches every output bit.
///
/// Deterministic across runs and builds. `std` hashes an integer slice as
/// its in-memory bytes, so a vector's digest differs between little- and
/// big-endian hosts. Unkeyed: it resists accidental and structural
/// collisions, not a deliberate search. In particular the difference a
/// step leaves in the state does not depend on the state when the word's
/// difference is bit 63 alone — it becomes bits 63 and 34 — so a word
/// that flips bit 63, followed by one that flips bits 63 and 34, collides
/// whatever the state.
///
/// Its keyed use is [`KeyedWordHasher`], the map-side grouping's hash
/// table: there the keys come from input files, so a hash an adversary
/// can predict would let crafted keys pile into one bucket.
#[derive(Debug, Clone, Copy)]
pub struct WordHasher(u64);

impl WordHasher {
    const SEED: u64 = 0xcbf2_9ce4_8422_2325;
    const WORD_MUL: u64 = 0x9e37_79b9_7f4a_7c15;
    const TAIL_MUL: u64 = 0xd6e8_feb8_6659_fd93;

    /// A hasher in its fixed initial state.
    pub const fn new() -> WordHasher {
        WordHasher(Self::SEED)
    }

    #[inline]
    fn step(&mut self, word: u64, mul: u64) {
        let x = (self.0 ^ word).wrapping_mul(mul);
        self.0 = x ^ (x >> 29);
    }

    /// [`Hasher::write`], each word passed through `whiten` first.
    #[inline]
    fn absorb(&mut self, bytes: &[u8], whiten: impl Fn(u64) -> u64) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            let word = u64::from_le_bytes(w.try_into().expect("8-byte chunk"));
            self.step(whiten(word), Self::WORD_MUL);
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut word = [0u8; 8];
            word[..tail.len()].copy_from_slice(tail);
            word[7] = tail.len() as u8;
            self.step(whiten(u64::from_le_bytes(word)), Self::TAIL_MUL);
        }
    }
}

impl Default for WordHasher {
    fn default() -> WordHasher {
        WordHasher::new()
    }
}

impl Hasher for WordHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        self.absorb(bytes, |word| word);
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.write_u64(n.into());
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.write_u64(n.into());
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.write_u64(n.into());
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.step(n, Self::WORD_MUL);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    fn finish(&self) -> u64 {
        let mut x = self.0;
        x ^= x >> 33;
        x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
        x ^= x >> 33;
        x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        x ^ (x >> 33)
    }
}

/// [`WordHasher`] under a secret key: the hash of a hash table whose keys
/// come from input files (the map-side grouping's staging table).
///
/// The key sets the start state and an odd multiplier every word passes
/// through before the step folds it in. The multiplier is what hides the
/// hash: the unkeyed step's seed-free collision needs the second word to
/// differ from its twin in bits 63 and 34 *after* whitening, which takes
/// knowing the key's low 30 bits. A one-word key (every integer key) is a
/// secret permutation of the state before the avalanche. Hashes differ
/// from [`WordHasher`]'s and between keys, so they must never be stored.
///
/// A hasher in its initial state is also its own [`BuildHasher`]: the
/// table copies it for every key.
#[derive(Debug, Clone, Copy)]
pub struct KeyedWordHasher {
    inner: WordHasher,
    key: u64,
}

impl KeyedWordHasher {
    /// A hasher keyed by `seed`; draw the seed at random (from
    /// [`std::hash::RandomState`], say) so that no input can aim at it.
    pub fn new(seed: u64) -> KeyedWordHasher {
        let mut inner = WordHasher::new();
        inner.write_u64(seed);
        KeyedWordHasher {
            key: inner.finish() | 1,
            inner,
        }
    }
}

impl BuildHasher for KeyedWordHasher {
    type Hasher = KeyedWordHasher;

    #[inline]
    fn build_hasher(&self) -> KeyedWordHasher {
        *self
    }
}

impl Hasher for KeyedWordHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let key = self.key;
        self.inner.absorb(bytes, |word| word.wrapping_mul(key));
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.write_u64(n.into());
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.write_u64(n.into());
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.write_u64(n.into());
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.inner.write_u64(n.wrapping_mul(self.key));
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.inner.finish()
    }
}

/// The identity a checkpoint frame claims: which chunk it holds and under
/// which engine configuration / input bytes it was produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameMeta {
    /// Chunk (segment) index within the job.
    pub chunk_index: u64,
    /// Fingerprint of every engine/job knob that shapes the chunk's
    /// output bytes.
    pub config_hash: u64,
    /// Digest of the chunk's raw input records under the job's query.
    pub input_digest: u64,
}

/// Outcome of validating a frame against the resuming job's expectation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameCheck {
    /// Intact and matching: the payload may be trusted.
    Valid(Vec<u8>),
    /// Integrity failure — truncated, bit-flipped, bad magic, unknown
    /// version, or trailing garbage. The reason names the first check
    /// that failed.
    Corrupt(String),
    /// Intact bytes whose metadata does not match the resuming job
    /// (engine config changed, input changed, or wrong chunk).
    Stale(String),
}

/// Encodes a frame at the current [`FRAME_VERSION`].
pub fn encode_frame(meta: &FrameMeta, payload: &[u8]) -> Vec<u8> {
    encode_frame_with_version(FRAME_VERSION, meta, payload)
}

/// Encodes a frame with an explicit version byte.
///
/// Only the corruption-matrix tests and sabotage harnesses should pass
/// anything other than [`FRAME_VERSION`]: the frame is fully
/// CRC-consistent, so decoding exercises the version check itself rather
/// than the checksum.
pub fn encode_frame_with_version(version: u8, meta: &FrameMeta, payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(payload.len() + 32);
    buf.extend_from_slice(&FRAME_MAGIC);
    buf.push(version);
    put_uvarint(&mut buf, meta.chunk_index);
    put_uvarint(&mut buf, meta.config_hash);
    put_uvarint(&mut buf, meta.input_digest);
    put_uvarint(&mut buf, payload.len() as u64);
    buf.extend_from_slice(payload);
    let crc = crc32(&buf);
    buf.extend_from_slice(&crc.to_le_bytes());
    buf
}

/// Parses a frame's header and payload after the CRC has been verified.
fn parse_body(body: &[u8]) -> Result<(u8, FrameMeta, Vec<u8>), String> {
    let mut rd = body;
    if rd.len() < FRAME_MAGIC.len() + 1 {
        return Err("frame shorter than header".into());
    }
    let (magic, rest) = rd.split_at(FRAME_MAGIC.len());
    if magic != FRAME_MAGIC {
        return Err("bad magic".into());
    }
    let version = rest[0];
    rd = &rest[1..];
    let meta = FrameMeta {
        chunk_index: get_uvarint(&mut rd).map_err(|e| format!("chunk index: {e}"))?,
        config_hash: get_uvarint(&mut rd).map_err(|e| format!("config hash: {e}"))?,
        input_digest: get_uvarint(&mut rd).map_err(|e| format!("input digest: {e}"))?,
    };
    let len = get_len(&mut rd).map_err(|e| format!("payload length: {e}"))?;
    let payload = get_bytes(&mut rd, len)
        .map_err(|e| format!("payload: {e}"))?
        .to_vec();
    if !rd.is_empty() {
        return Err(format!("{} trailing bytes after payload", rd.len()));
    }
    Ok((version, meta, payload))
}

/// Decodes a frame without comparing its metadata to any expectation.
///
/// Integrity (length, CRC, magic, structure) is still enforced — only the
/// *meaning* checks are skipped. This is the inspection path for
/// quarantine tooling and the deliberate bypass the sabotage self-tests
/// use to prove the metadata checks are load-bearing.
pub fn decode_frame_unchecked(bytes: &[u8]) -> Result<(u8, FrameMeta, Vec<u8>), String> {
    if bytes.len() < 4 {
        return Err("frame shorter than its checksum".into());
    }
    let (body, tail) = bytes.split_at(bytes.len() - 4);
    let stored = u32::from_le_bytes(tail.try_into().expect("4-byte tail"));
    let computed = crc32(body);
    if stored != computed {
        return Err(format!(
            "crc mismatch: stored {stored:#010x}, computed {computed:#010x}"
        ));
    }
    parse_body(body)
}

/// Validates a frame against the resuming job's expected metadata.
pub fn decode_frame(bytes: &[u8], expect: &FrameMeta) -> FrameCheck {
    let (version, meta, payload) = match decode_frame_unchecked(bytes) {
        Ok(parts) => parts,
        Err(reason) => return FrameCheck::Corrupt(reason),
    };
    if version != FRAME_VERSION {
        return FrameCheck::Corrupt(format!(
            "unsupported frame version {version} (reader speaks {FRAME_VERSION})"
        ));
    }
    if meta.chunk_index != expect.chunk_index {
        return FrameCheck::Stale(format!(
            "chunk index {} but expected {}",
            meta.chunk_index, expect.chunk_index
        ));
    }
    if meta.config_hash != expect.config_hash {
        return FrameCheck::Stale(format!(
            "engine-config hash {:#018x} but job expects {:#018x}",
            meta.config_hash, expect.config_hash
        ));
    }
    if meta.input_digest != expect.input_digest {
        return FrameCheck::Stale(format!(
            "input digest {:#018x} but chunk digests to {:#018x}",
            meta.input_digest, expect.input_digest
        ));
    }
    FrameCheck::Valid(payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const META: FrameMeta = FrameMeta {
        chunk_index: 7,
        config_hash: 0xDEAD_BEEF,
        input_digest: 0x1234_5678_9ABC,
    };

    #[test]
    fn crc32_known_vectors() {
        // Standard IEEE test vectors.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    /// The bytewise table loop [`crc32`] replaced: one lookup per byte.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc = CRC_TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
        }
        !crc
    }

    #[test]
    fn slicing_by_8_equals_the_bytewise_crc() {
        let mut rng = crate::rng::Rng64::seed_from_u64(32);
        let short: Vec<u8> = (0..64).map(|_| rng.gen::<u64>() as u8).collect();
        for len in 0..=64 {
            assert_eq!(crc32(&short[..len]), crc32_bytewise(&short[..len]), "{len}");
        }
        for _ in 0..64 {
            let len = (rng.gen::<u64>() % 4097) as usize;
            let buf: Vec<u8> = (0..len + 8).map(|_| rng.gen::<u64>() as u8).collect();
            // Every start offset, so the eight-byte steps meet every
            // alignment and every tail length.
            for at in 0..8 {
                let part = &buf[at..at + len];
                assert_eq!(crc32(part), crc32_bytewise(part), "len {len} at {at}");
            }
        }
    }

    #[test]
    fn round_trip_valid() {
        let frame = encode_frame(&META, b"payload bytes");
        assert_eq!(
            decode_frame(&frame, &META),
            FrameCheck::Valid(b"payload bytes".to_vec())
        );
        // Empty payloads frame fine too.
        let empty = encode_frame(&META, b"");
        assert_eq!(decode_frame(&empty, &META), FrameCheck::Valid(vec![]));
    }

    #[test]
    fn truncation_is_corrupt() {
        let frame = encode_frame(&META, b"some payload");
        for cut in [0, 3, 8, frame.len() - 5, frame.len() - 1] {
            match decode_frame(&frame[..cut], &META) {
                FrameCheck::Corrupt(_) => {}
                other => panic!("truncation at {cut} not corrupt: {other:?}"),
            }
        }
    }

    #[test]
    fn every_bit_flip_is_corrupt() {
        let frame = encode_frame(&META, b"abc");
        for byte in 0..frame.len() {
            for bit in 0..8 {
                let mut flipped = frame.clone();
                flipped[byte] ^= 1 << bit;
                match decode_frame(&flipped, &META) {
                    FrameCheck::Corrupt(_) => {}
                    other => panic!("flip at {byte}.{bit} not corrupt: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn version_bump_with_valid_crc_is_corrupt() {
        let frame = encode_frame_with_version(FRAME_VERSION + 1, &META, b"abc");
        // The CRC is consistent, so this exercises the version check.
        assert!(decode_frame_unchecked(&frame).is_ok());
        match decode_frame(&frame, &META) {
            FrameCheck::Corrupt(reason) => assert!(reason.contains("version"), "{reason}"),
            other => panic!("version bump not corrupt: {other:?}"),
        }
    }

    #[test]
    fn metadata_mismatches_are_stale() {
        let frame = encode_frame(&META, b"abc");
        let cases = [
            FrameMeta {
                chunk_index: 8,
                ..META
            },
            FrameMeta {
                config_hash: 1,
                ..META
            },
            FrameMeta {
                input_digest: 1,
                ..META
            },
        ];
        for expect in cases {
            match decode_frame(&frame, &expect) {
                FrameCheck::Stale(_) => {}
                other => panic!("mismatch vs {expect:?} not stale: {other:?}"),
            }
        }
    }

    #[test]
    fn unchecked_decode_skips_meaning_not_integrity() {
        let frame = encode_frame(&META, b"xyz");
        let (version, meta, payload) = decode_frame_unchecked(&frame).unwrap();
        assert_eq!(version, FRAME_VERSION);
        assert_eq!(meta, META);
        assert_eq!(payload, b"xyz");
        let mut bad = frame;
        let last = bad.len() - 1;
        bad[last] ^= 0xFF;
        assert!(decode_frame_unchecked(&bad).is_err());
    }

    #[test]
    fn fnv_digest_is_order_sensitive() {
        assert_ne!(fnv1a(b"ab"), fnv1a(b"ba"));
        assert_eq!(fnv1a_extend(fnv1a(b"ab"), b"cd"), fnv1a(b"abcd"));
    }

    fn word_digest(bytes: &[u8]) -> u64 {
        let mut h = WordHasher::new();
        h.write(bytes);
        h.finish()
    }

    /// The collision a xor-multiply word fold had: flipping bit 63 of two
    /// words shifts its state by exactly 2^63 at every step, so the second
    /// flip cancels the first.
    #[test]
    fn flipping_bit_63_of_any_two_words_changes_the_digest() {
        let mut rng = crate::rng::Rng64::seed_from_u64(63);
        for words in [2usize, 3, 5, 9] {
            let base: Vec<u8> = (0..words * 8).map(|_| rng.gen::<u64>() as u8).collect();
            let digest = word_digest(&base);
            for i in 0..words {
                for j in i + 1..words {
                    let mut flipped = base.clone();
                    flipped[i * 8 + 7] ^= 0x80;
                    flipped[j * 8 + 7] ^= 0x80;
                    assert_ne!(
                        word_digest(&flipped),
                        digest,
                        "words {i} and {j} of {words}"
                    );
                }
            }
        }
    }

    #[test]
    fn word_hasher_separates_lengths_and_write_kinds() {
        // A padded tail is tagged with its length: trailing zero bytes count.
        assert_ne!(word_digest(b"ab"), word_digest(b"ab\0"));
        assert_ne!(word_digest(b""), word_digest(b"\0"));
        // Seven bytes whose tagged word equals an eight-byte word's value.
        assert_ne!(word_digest(b"abcdefg"), word_digest(b"abcdefg\x07"));
        // Integer writes are one word each, independent of width.
        let int = |f: &dyn Fn(&mut WordHasher)| {
            let mut h = WordHasher::new();
            f(&mut h);
            h.finish()
        };
        assert_eq!(int(&|h| h.write_u8(7)), int(&|h| h.write_u64(7)));
        assert_eq!(int(&|h| h.write_i64(-1)), int(&|h| h.write_u64(u64::MAX)));
        assert_eq!(int(&|h| h.write_u64(7)), word_digest(&7u64.to_le_bytes()));
        assert_ne!(int(&|h| h.write_u64(7)), int(&|h| h.write_u64(8)));
    }

    /// The unkeyed step's seed-free collision, and the keyed hasher
    /// keeping the same two inputs apart under every key tried.
    #[test]
    fn a_keyed_hasher_hides_the_two_word_collision() {
        let mut rng = crate::rng::Rng64::seed_from_u64(34);
        let base: Vec<u8> = (0..24).map(|_| rng.gen::<u64>() as u8).collect();
        let mut twin = base.clone();
        twin[7] ^= 0x80; // word 0: bit 63
        twin[15] ^= 0x80; // word 1: bits 63 …
        twin[12] ^= 0x04; // … and 34
        assert_eq!(word_digest(&twin), word_digest(&base));
        let keyed = |seed, bytes: &[u8]| {
            let mut h = KeyedWordHasher::new(seed);
            h.write(bytes);
            h.finish()
        };
        for seed in 0..256 {
            assert_ne!(keyed(seed, &twin), keyed(seed, &base), "seed {seed}");
        }
    }

    #[test]
    fn keyed_hashes_depend_on_the_key_not_the_integer_width() {
        let int = |seed, f: &dyn Fn(&mut KeyedWordHasher)| {
            let mut h = KeyedWordHasher::new(seed).build_hasher();
            f(&mut h);
            h.finish()
        };
        assert_eq!(int(5, &|h| h.write_u8(7)), int(5, &|h| h.write_u64(7)));
        assert_eq!(int(5, &|h| h.write_u32(7)), int(5, &|h| h.write_usize(7)));
        assert_ne!(int(5, &|h| h.write_u64(7)), int(6, &|h| h.write_u64(7)));
        assert_ne!(int(5, &|h| h.write_u64(7)), int(5, &|h| h.write_u64(8)));
        let mut unkeyed = WordHasher::new();
        unkeyed.write_u64(7);
        assert_ne!(int(0, &|h| h.write_u64(7)), unkeyed.finish());
    }

    proptest! {
        /// Two byte strings of one length that differ in exactly one
        /// (possibly partial, trailing) word never digest equal: every step
        /// is a bijection of the state for a fixed word.
        #[test]
        fn a_one_word_difference_never_collides(
            bytes in prop::collection::vec(any::<u8>(), 1..80),
            at in any::<u16>(),
            xor in 1u64..=u64::MAX,
        ) {
            let words = bytes.len().div_ceil(8);
            let start = (at as usize % words) * 8;
            let end = (start + 8).min(bytes.len());
            // Keep the xor inside the bytes that exist, and nonzero there.
            let mut mask = xor.to_le_bytes();
            if mask[..end - start].iter().all(|&b| b == 0) {
                mask[0] = 1;
            }
            let mut other = bytes.clone();
            for (b, m) in other[start..end].iter_mut().zip(mask) {
                *b ^= m;
            }
            prop_assert_ne!(word_digest(&bytes), word_digest(&other));
        }
    }
}
