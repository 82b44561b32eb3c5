//! Compact binary wire format for symbolic summaries and shuffle records.
//!
//! §2.3 of the paper calls out compact serialization of symbolic expressions
//! as a first-order design requirement: summaries travel the network in the
//! MapReduce shuffle, and the whole point of SYMPLE is to shrink that
//! shuffle. This module implements a small LEB128-style varint codec with
//! zigzag encoding for signed values, plus a [`Wire`] trait implemented for
//! the primitives, tuples and containers that shuffle keys, projected events
//! and summaries are built from. Input records are never encoded: they reach
//! a job as text lines or in-memory structs.
//!
//! The format is self-contained and deterministic: equal values encode to
//! equal bytes, which the shuffle relies on for byte-accurate accounting.
//!
//! # Examples
//!
//! ```
//! use symple_core::wire::Wire;
//!
//! let mut buf = Vec::new();
//! (42i64, "hello".to_string()).encode(&mut buf);
//! let mut rd = &buf[..];
//! let back = <(i64, String)>::decode(&mut rd).unwrap();
//! assert_eq!(back, (42, "hello".to_string()));
//! assert!(rd.is_empty());
//! ```

use std::fmt;

/// Errors produced while decoding the wire format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the value was complete.
    UnexpectedEof,
    /// A varint ran longer than the maximum 10 bytes for a `u64`.
    VarintOverflow,
    /// A tag or discriminant byte had an invalid value.
    InvalidTag(u8),
    /// A length prefix exceeded the sanity bound.
    LengthOverflow(u64),
    /// A string payload was not valid UTF-8.
    InvalidUtf8,
    /// A buffer held more bytes than its declared contents.
    TrailingBytes,
    /// A decoded value lies outside the domain `0..domain` its field allows
    /// (an enum bound or constraint bit the template's domain excludes).
    OutOfDomain {
        /// The offending value (for a bit-set, its highest stray bit).
        value: u64,
        /// The domain size the template declares.
        domain: u64,
    },
    /// A path's vector asked for more trailing elements of the previous
    /// path's vector than that vector holds (`available` is 0 in a
    /// summary's first path, which has no previous path).
    BackReference {
        /// Elements the back-reference asked for.
        len: u64,
        /// Elements the previous path's vector holds.
        available: u64,
    },
    /// Keys that must arrive in ascending order did not.
    KeyOrder,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::UnexpectedEof => write!(f, "unexpected end of buffer"),
            WireError::VarintOverflow => write!(f, "varint longer than 10 bytes"),
            WireError::InvalidTag(t) => write!(f, "invalid tag byte {t:#04x}"),
            WireError::LengthOverflow(n) => write!(f, "length prefix {n} exceeds sanity bound"),
            WireError::InvalidUtf8 => write!(f, "string payload is not valid UTF-8"),
            WireError::TrailingBytes => write!(f, "buffer holds bytes past its declared contents"),
            WireError::OutOfDomain { value, domain } => {
                write!(
                    f,
                    "value {value} lies outside the field's domain 0..{domain}"
                )
            }
            WireError::BackReference { len, available } => write!(
                f,
                "back-reference to {len} trailing elements but the previous path holds {available}"
            ),
            WireError::KeyOrder => write!(f, "keys are not in ascending order"),
        }
    }
}

impl std::error::Error for WireError {}

/// Sanity bound on decoded collection lengths (guards corrupted buffers).
const MAX_LEN: u64 = 1 << 32;

/// Writes `v` as an unsigned LEB128 varint.
pub fn put_uvarint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Reads an unsigned LEB128 varint, advancing `buf`.
pub fn get_uvarint(buf: &mut &[u8]) -> Result<u64, WireError> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    for i in 0..10 {
        let Some(&byte) = buf.get(i) else {
            return Err(WireError::UnexpectedEof);
        };
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            *buf = &buf[i + 1..];
            return Ok(v);
        }
        shift += 7;
    }
    Err(WireError::VarintOverflow)
}

/// Zigzag-encodes a signed value so small magnitudes stay small.
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Writes `v` as a zigzag varint.
pub fn put_ivarint(buf: &mut Vec<u8>, v: i64) {
    put_uvarint(buf, zigzag(v));
}

/// Reads a zigzag varint.
pub fn get_ivarint(buf: &mut &[u8]) -> Result<i64, WireError> {
    Ok(unzigzag(get_uvarint(buf)?))
}

/// Reads exactly `n` bytes, advancing `buf`.
pub fn get_bytes<'a>(buf: &mut &'a [u8], n: usize) -> Result<&'a [u8], WireError> {
    if buf.len() < n {
        return Err(WireError::UnexpectedEof);
    }
    let (head, tail) = buf.split_at(n);
    *buf = tail;
    Ok(head)
}

/// Reads a collection length prefix with the sanity bound applied.
pub fn get_len(buf: &mut &[u8]) -> Result<usize, WireError> {
    let n = get_uvarint(buf)?;
    if n > MAX_LEN {
        return Err(WireError::LengthOverflow(n));
    }
    Ok(n as usize)
}

/// Values that serialize to the SYMPLE wire format.
///
/// Implemented for the primitives and containers that shuffle records,
/// keys, and symbolic summaries are built from. Implementations must be
/// *round-trip exact*: `decode(encode(v)) == v`.
pub trait Wire: Sized {
    /// Appends the encoding of `self` to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);
    /// Decodes a value, advancing `buf` past it.
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError>;

    /// Convenience: encodes into a fresh buffer.
    fn to_wire(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode(&mut buf);
        buf
    }

    /// Number of bytes `self` occupies on the wire.
    fn wire_len(&self) -> usize {
        self.to_wire().len()
    }
}

macro_rules! wire_unsigned {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            fn encode(&self, buf: &mut Vec<u8>) {
                put_uvarint(buf, *self as u64);
            }
            fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
                let v = get_uvarint(buf)?;
                <$t>::try_from(v).map_err(|_| WireError::LengthOverflow(v))
            }
        }
    )*};
}

macro_rules! wire_signed {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            fn encode(&self, buf: &mut Vec<u8>) {
                put_ivarint(buf, *self as i64);
            }
            fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
                let v = get_ivarint(buf)?;
                <$t>::try_from(v).map_err(|_| WireError::LengthOverflow(v as u64))
            }
        }
    )*};
}

wire_unsigned!(u8, u16, u32, u64, usize);
wire_signed!(i8, i16, i32, i64, isize);

impl Wire for bool {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(u8::from(*self));
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        match get_bytes(buf, 1)?[0] {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(WireError::InvalidTag(t)),
        }
    }
}

impl Wire for f64 {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.to_bits().to_le_bytes());
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        let b = get_bytes(buf, 8)?;
        let mut arr = [0u8; 8];
        arr.copy_from_slice(b);
        Ok(f64::from_bits(u64::from_le_bytes(arr)))
    }
}

impl Wire for String {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_uvarint(buf, self.len() as u64);
        buf.extend_from_slice(self.as_bytes());
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        // Validate in place, then take ownership with a single
        // exact-capacity allocation.
        let n = get_len(buf)?;
        let bytes = get_bytes(buf, n)?;
        let s = std::str::from_utf8(bytes).map_err(|_| WireError::InvalidUtf8)?;
        Ok(s.to_owned())
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            None => buf.push(0),
            Some(v) => {
                buf.push(1);
                v.encode(buf);
            }
        }
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        match get_bytes(buf, 1)?[0] {
            0 => Ok(None),
            1 => Ok(Some(T::decode(buf)?)),
            t => Err(WireError::InvalidTag(t)),
        }
    }
}

/// Appends a slice the way `Vec<T>` encodes: the length, then each element.
/// For callers whose elements sit in a larger buffer.
pub fn put_slice<T: Wire>(buf: &mut Vec<u8>, items: &[T]) {
    put_uvarint(buf, items.len() as u64);
    for v in items {
        v.encode(buf);
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_slice(buf, self);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        let n = get_len(buf)?;
        let mut out = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            out.push(T::decode(buf)?);
        }
        Ok(out)
    }
}

impl Wire for () {
    fn encode(&self, _buf: &mut Vec<u8>) {}
    fn decode(_buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(())
    }
}

macro_rules! wire_tuple {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Wire),+> Wire for ($($name,)+) {
            fn encode(&self, buf: &mut Vec<u8>) {
                $(self.$idx.encode(buf);)+
            }
            fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
                Ok(($($name::decode(buf)?,)+))
            }
        }
    };
}

wire_tuple!(A: 0);
wire_tuple!(A: 0, B: 1);
wire_tuple!(A: 0, B: 1, C: 2);
wire_tuple!(A: 0, B: 1, C: 2, D: 3);
wire_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4);

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
        let buf = v.to_wire();
        let mut rd = &buf[..];
        let back = T::decode(&mut rd).unwrap();
        assert_eq!(back, v);
        assert!(rd.is_empty(), "trailing bytes after decoding {v:?}");
    }

    #[test]
    fn varint_roundtrip_edges() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            put_uvarint(&mut buf, v);
            let mut rd = &buf[..];
            assert_eq!(get_uvarint(&mut rd).unwrap(), v);
            assert!(rd.is_empty());
        }
    }

    #[test]
    fn varint_compactness() {
        let mut buf = Vec::new();
        put_uvarint(&mut buf, 5);
        assert_eq!(buf.len(), 1);
        buf.clear();
        put_ivarint(&mut buf, -3);
        assert_eq!(buf.len(), 1);
    }

    #[test]
    fn zigzag_roundtrip() {
        for v in [0i64, 1, -1, 63, -64, i64::MIN, i64::MAX] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        // Small magnitudes map to small codes.
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
    }

    #[test]
    fn primitive_roundtrips() {
        roundtrip(0u8);
        roundtrip(u16::MAX);
        roundtrip(u32::MAX);
        roundtrip(u64::MAX);
        roundtrip(i64::MIN);
        roundtrip(i32::MIN);
        roundtrip(-1i8);
        roundtrip(true);
        roundtrip(false);
        roundtrip(3.25f64);
        roundtrip(f64::NEG_INFINITY);
        roundtrip("héllo wörld".to_string());
        roundtrip(String::new());
    }

    #[test]
    fn container_roundtrips() {
        roundtrip(Some(42i64));
        roundtrip(Option::<i64>::None);
        roundtrip(vec![1u64, 2, 3]);
        roundtrip(Vec::<i64>::new());
        roundtrip((1u32, -5i64, "k".to_string()));
        roundtrip(vec![(1u64, true), (2, false)]);
    }

    #[test]
    fn decode_eof_errors() {
        let mut rd: &[u8] = &[];
        assert_eq!(u64::decode(&mut rd), Err(WireError::UnexpectedEof));
        let mut rd: &[u8] = &[0x80];
        assert_eq!(u64::decode(&mut rd), Err(WireError::UnexpectedEof));
        let mut rd: &[u8] = &[2, b'a'];
        assert_eq!(String::decode(&mut rd), Err(WireError::UnexpectedEof));
    }

    #[test]
    fn string_payload_must_be_utf8() {
        let mut rd: &[u8] = &[2, 0xff, 0xfe];
        assert_eq!(String::decode(&mut rd), Err(WireError::InvalidUtf8));
    }

    #[test]
    fn decode_bad_tags() {
        let mut rd: &[u8] = &[7];
        assert_eq!(bool::decode(&mut rd), Err(WireError::InvalidTag(7)));
        let mut rd: &[u8] = &[9, 1];
        assert_eq!(Option::<u8>::decode(&mut rd), Err(WireError::InvalidTag(9)));
    }

    #[test]
    fn varint_overflow_rejected() {
        let mut rd: &[u8] = &[0xff; 11];
        assert_eq!(get_uvarint(&mut rd), Err(WireError::VarintOverflow));
    }

    #[test]
    fn narrowing_rejects_oversized() {
        let mut buf = Vec::new();
        put_uvarint(&mut buf, u64::from(u32::MAX) + 1);
        let mut rd = &buf[..];
        assert!(u32::decode(&mut rd).is_err());
    }

    #[test]
    fn wire_len_matches() {
        let v = vec![1i64, -200, 3];
        assert_eq!(v.wire_len(), v.to_wire().len());
    }

    #[test]
    fn string_decode_allocates_exactly_once() {
        // The owned tier validates in place and then makes one
        // exact-capacity allocation: any spare capacity would betray an
        // intermediate buffer (the old to_vec + from_utf8 path grew a
        // Vec first and converted second).
        for s in ["", "a", "héllo wörld", &"x".repeat(4096)] {
            let buf = s.to_string().to_wire();
            let mut rd = &buf[..];
            let out = String::decode(&mut rd).unwrap();
            assert_eq!(out, s);
            assert_eq!(
                out.capacity(),
                out.len(),
                "decode of {:?} over-allocated: cap {} for len {}",
                s,
                out.capacity(),
                out.len()
            );
        }
    }
}
