//! Byte-level codec primitives for the `wfomc-snap/v2` snapshot format.
//!
//! Prepared plan state (normal forms, cell tables, compiled circuits) is
//! persisted by `wfomc-serve` as a flat binary payload so daemon restarts
//! can skip replanning. This module holds the crate-neutral pieces: a
//! little-endian byte writer/reader pair ([`Enc`]/[`Dec`]) plus codecs for
//! the logic-layer types every payload embeds — [`Weight`], [`Weights`],
//! [`Predicate`] and [`Formula`] (the latter round-trips through the
//! canonical printed text, which the parser/printer pair reproduces
//! exactly).
//!
//! Decoding is defensive by construction: every read is bounds-checked and
//! returns a [`SnapError`] instead of panicking, because snapshot bytes come
//! from disk and may be truncated, corrupt, or written by a different
//! version. Callers treat any error as "replan from scratch" — a bad
//! snapshot must never change an answer, only cost time.

use std::fmt;
use std::str::FromStr;

use num_bigint::BigInt;
use num_rational::BigRational;
use num_traits::Zero;

use crate::parser::parse;
use crate::syntax::Formula;
use crate::vocabulary::Predicate;
use crate::weights::{Weight, Weights};

/// A decode failure: the snapshot bytes are truncated, corrupt, or encode
/// state this build cannot reconstruct. Always recoverable by replanning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapError {
    message: String,
}

impl SnapError {
    /// Creates an error with the given message.
    pub fn new(message: impl Into<String>) -> Self {
        SnapError {
            message: message.into(),
        }
    }
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "snapshot decode error: {}", self.message)
    }
}

impl std::error::Error for SnapError {}

/// Convenience alias for decode results.
pub type SnapResult<T> = Result<T, SnapError>;

/// An append-only little-endian byte writer.
///
/// Writers are infallible; the encoded buffer is retrieved with
/// [`into_bytes`](Enc::into_bytes).
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// Creates an empty encoder.
    pub fn new() -> Self {
        Enc::default()
    }

    /// Consumes the encoder and returns the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `u16` (little-endian).
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u32` (little-endian).
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64` (little-endian).
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as a `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Writes a boolean as one byte (0 or 1).
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Writes a length-prefixed byte slice.
    pub fn bytes(&mut self, v: &[u8]) {
        self.usize(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }
}

/// A bounds-checked little-endian byte reader over a borrowed buffer.
#[derive(Debug)]
pub struct Dec<'a> {
    bytes: &'a [u8],
    pos: usize,
}

// `len` reads a length prefix off the wire (consuming bytes) — it is not a
// collection-size getter, so a paired `is_empty` would be meaningless.
#[allow(clippy::len_without_is_empty)]
impl<'a> Dec<'a> {
    /// Creates a reader positioned at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Dec { bytes, pos: 0 }
    }

    /// Number of unread bytes.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Errors unless every byte has been consumed — trailing garbage means
    /// the payload was not produced by the matching encoder.
    pub fn finish(&self) -> SnapResult<()> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(SnapError::new(format!(
                "{} trailing bytes after payload",
                self.remaining()
            )))
        }
    }

    fn take(&mut self, n: usize) -> SnapResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(SnapError::new(format!(
                "truncated: needed {n} bytes, {} left",
                self.remaining()
            )));
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> SnapResult<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u16` (little-endian).
    pub fn u16(&mut self) -> SnapResult<u16> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a `u32` (little-endian).
    pub fn u32(&mut self) -> SnapResult<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a `u64` (little-endian).
    pub fn u64(&mut self) -> SnapResult<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a `usize` encoded as `u64`, rejecting values that do not fit.
    pub fn usize(&mut self) -> SnapResult<usize> {
        usize::try_from(self.u64()?).map_err(|_| SnapError::new("length overflows usize"))
    }

    /// Reads a length that will be used to reserve a collection, additionally
    /// rejecting lengths larger than the bytes that remain (each element
    /// needs at least one byte, so anything bigger is corrupt — this stops a
    /// flipped length byte from triggering a huge allocation).
    pub fn len(&mut self) -> SnapResult<usize> {
        let n = self.usize()?;
        if n > self.remaining() {
            return Err(SnapError::new(format!(
                "declared length {n} exceeds {} remaining bytes",
                self.remaining()
            )));
        }
        Ok(n)
    }

    /// Reads a boolean byte, rejecting anything but 0 or 1.
    pub fn bool(&mut self) -> SnapResult<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(SnapError::new(format!("invalid bool byte {other}"))),
        }
    }

    /// Reads a length-prefixed byte slice.
    pub fn bytes(&mut self) -> SnapResult<&'a [u8]> {
        let n = self.len()?;
        self.take(n)
    }

    /// Consumes and returns every unread byte (used for payloads whose
    /// length is carried out-of-band, e.g. in a snapshot file header).
    pub fn rest(&mut self) -> &'a [u8] {
        let out = &self.bytes[self.pos..];
        self.pos = self.bytes.len();
        out
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> SnapResult<String> {
        let raw = self.bytes()?;
        String::from_utf8(raw.to_vec()).map_err(|_| SnapError::new("invalid UTF-8 in string"))
    }
}

/// Encodes a rational weight via its canonical decimal text (`"2"`,
/// `"-1/3"`), which [`decode_weight`] parses back exactly.
pub fn encode_weight(enc: &mut Enc, w: &Weight) {
    enc.str(&w.to_string());
}

/// Decodes a weight written by [`encode_weight`].
pub fn decode_weight(dec: &mut Dec<'_>) -> SnapResult<Weight> {
    let text = dec.str()?;
    let (num, den) = match text.split_once('/') {
        Some((n, d)) => (n, d),
        None => (text.as_str(), "1"),
    };
    let num = BigInt::from_str(num).map_err(|_| SnapError::new("bad weight numerator"))?;
    let den = BigInt::from_str(den).map_err(|_| SnapError::new("bad weight denominator"))?;
    if den.is_zero() {
        return Err(SnapError::new("zero weight denominator"));
    }
    Ok(BigRational::new(num, den))
}

/// Encodes a weight function as its explicitly-set `(name, w, w̄)` entries.
pub fn encode_weights(enc: &mut Enc, weights: &Weights) {
    let entries: Vec<_> = weights.iter().collect();
    enc.usize(entries.len());
    for (name, pair) in entries {
        enc.str(name);
        encode_weight(enc, &pair.pos);
        encode_weight(enc, &pair.neg);
    }
}

/// Decodes a weight function written by [`encode_weights`].
pub fn decode_weights(dec: &mut Dec<'_>) -> SnapResult<Weights> {
    let n = dec.len()?;
    let mut out = Weights::ones();
    for _ in 0..n {
        let name = dec.str()?;
        let pos = decode_weight(dec)?;
        let neg = decode_weight(dec)?;
        out.set(name, pos, neg);
    }
    Ok(out)
}

/// Encodes a predicate symbol as `(name, arity)`.
pub fn encode_predicate(enc: &mut Enc, p: &Predicate) {
    enc.str(p.name());
    enc.usize(p.arity());
}

/// Decodes a predicate symbol written by [`encode_predicate`].
pub fn decode_predicate(dec: &mut Dec<'_>) -> SnapResult<Predicate> {
    let name = dec.str()?;
    let arity = dec.usize()?;
    Ok(Predicate::new(name, arity))
}

/// Encodes a formula as its canonical printed text. The printer/parser pair
/// round-trips exactly (`parse(format(f)) == f`), so this is both compact
/// and self-validating.
pub fn encode_formula(enc: &mut Enc, f: &Formula) {
    enc.str(&f.to_string());
}

/// Decodes a formula written by [`encode_formula`].
pub fn decode_formula(dec: &mut Dec<'_>) -> SnapResult<Formula> {
    let text = dec.str()?;
    parse(&text).map_err(|e| SnapError::new(format!("formula does not parse: {e}")))
}

/// The FNV-1a offset basis (the same constant the serve registry uses for
/// sentence keys).
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The FNV-1a prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over a byte slice — the snapshot header checksum.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = FNV_OFFSET;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::weights::weight_ratio;

    #[test]
    fn scalar_round_trip() {
        let mut enc = Enc::new();
        enc.u8(7);
        enc.u16(300);
        enc.u32(70_000);
        enc.u64(u64::MAX);
        enc.usize(42);
        enc.bool(true);
        enc.bool(false);
        enc.str("héllo");
        enc.bytes(&[1, 2, 3]);
        let bytes = enc.into_bytes();

        let mut dec = Dec::new(&bytes);
        assert_eq!(dec.u8().unwrap(), 7);
        assert_eq!(dec.u16().unwrap(), 300);
        assert_eq!(dec.u32().unwrap(), 70_000);
        assert_eq!(dec.u64().unwrap(), u64::MAX);
        assert_eq!(dec.usize().unwrap(), 42);
        assert!(dec.bool().unwrap());
        assert!(!dec.bool().unwrap());
        assert_eq!(dec.str().unwrap(), "héllo");
        assert_eq!(dec.bytes().unwrap(), &[1, 2, 3]);
        dec.finish().unwrap();
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut enc = Enc::new();
        enc.u64(123);
        let bytes = enc.into_bytes();
        let mut dec = Dec::new(&bytes[..5]);
        assert!(dec.u64().is_err());
    }

    #[test]
    fn oversized_length_is_rejected_before_allocating() {
        let mut enc = Enc::new();
        enc.usize(usize::MAX / 2);
        let bytes = enc.into_bytes();
        let mut dec = Dec::new(&bytes);
        assert!(dec.len().is_err());
        let mut dec = Dec::new(&bytes);
        assert!(dec.bytes().is_err());
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut enc = Enc::new();
        enc.u8(1);
        enc.u8(2);
        let bytes = enc.into_bytes();
        let mut dec = Dec::new(&bytes);
        assert_eq!(dec.u8().unwrap(), 1);
        assert!(dec.finish().is_err());
    }

    #[test]
    fn weight_round_trip_covers_signs_and_ratios() {
        for w in [
            weight_ratio(0, 1),
            weight_ratio(2, 1),
            weight_ratio(-1, 1),
            weight_ratio(1, 3),
            weight_ratio(-7, 5),
        ] {
            let mut enc = Enc::new();
            encode_weight(&mut enc, &w);
            let bytes = enc.into_bytes();
            let mut dec = Dec::new(&bytes);
            assert_eq!(decode_weight(&mut dec).unwrap(), w);
            dec.finish().unwrap();
        }
    }

    #[test]
    fn weights_round_trip() {
        let w = Weights::from_ints([("R", 2, 1), ("S", 0, -3)]);
        let mut enc = Enc::new();
        encode_weights(&mut enc, &w);
        let bytes = enc.into_bytes();
        let mut dec = Dec::new(&bytes);
        assert_eq!(decode_weights(&mut dec).unwrap(), w);
    }

    #[test]
    fn predicate_and_formula_round_trip() {
        let p = Predicate::new("Edge", 2);
        let f = parse("forall x. forall y. (R(x) | S(x,y))").unwrap();
        let mut enc = Enc::new();
        encode_predicate(&mut enc, &p);
        encode_formula(&mut enc, &f);
        let bytes = enc.into_bytes();
        let mut dec = Dec::new(&bytes);
        assert_eq!(decode_predicate(&mut dec).unwrap(), p);
        assert_eq!(decode_formula(&mut dec).unwrap(), f);
    }

    #[test]
    fn fnv1a_matches_known_vector() {
        // FNV-1a of the empty input is the offset basis.
        assert_eq!(fnv1a(b""), FNV_OFFSET);
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
    }
}
