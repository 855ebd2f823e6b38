//! A tiny versioned binary codec for cache payloads.
//!
//! The cache stores plain-data values (memoized per-function outcomes,
//! rendered reports) with no external serialization dependency. Encoding
//! is explicit and little-endian; decoding is *total* — every read is
//! bounds-checked and returns [`DecodeError`] instead of panicking, so a
//! truncated or corrupted cache entry degrades to a cache miss, never a
//! crash.
//!
//! # Examples
//!
//! ```
//! use ffisafe_cache::codec::{Decoder, Encoder};
//!
//! let mut e = Encoder::new();
//! e.put_str("ml_reverse");
//! e.put_u64(3);
//! e.put_bool(true);
//! let bytes = e.into_bytes();
//!
//! let mut d = Decoder::new(&bytes);
//! assert_eq!(d.get_str().unwrap(), "ml_reverse");
//! assert_eq!(d.get_u64().unwrap(), 3);
//! assert!(d.get_bool().unwrap());
//! assert!(d.finish().is_ok());
//! ```

use ffisafe_support::Span;
use std::fmt;

/// Why a payload failed to decode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// The payload ended before the requested read.
    Truncated,
    /// A tag/bool/length field held an impossible value.
    Invalid,
    /// Bytes remained after the value was fully decoded.
    TrailingBytes,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DecodeError::Truncated => "payload truncated",
            DecodeError::Invalid => "invalid field value",
            DecodeError::TrailingBytes => "trailing bytes after value",
        };
        f.write_str(s)
    }
}

impl std::error::Error for DecodeError {}

/// Append-only byte writer.
#[derive(Clone, Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// Creates an empty encoder.
    pub fn new() -> Self {
        Encoder::default()
    }

    /// The bytes written so far.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Current encoded length.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `i64`.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `bool` as one byte (0/1).
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }

    /// Writes a `usize` as `u64` (collection lengths, indices).
    pub fn put_len(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_len(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Writes a [`Span`] as `(file, lo, hi)` raw fields.
    pub fn put_span(&mut self, span: Span) {
        self.put_u32(span.file.as_raw());
        self.put_u32(span.lo);
        self.put_u32(span.hi);
    }
}

/// Bounds-checked byte reader over an encoded payload.
#[derive(Clone, Debug)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Creates a reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Decoder { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let end = self.pos.checked_add(n).ok_or(DecodeError::Truncated)?;
        if end > self.buf.len() {
            return Err(DecodeError::Truncated);
        }
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a little-endian `i64`.
    pub fn get_i64(&mut self) -> Result<i64, DecodeError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a `bool`; any byte other than 0/1 is [`DecodeError::Invalid`].
    pub fn get_bool(&mut self) -> Result<bool, DecodeError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(DecodeError::Invalid),
        }
    }

    /// Reads a collection length, rejecting lengths that cannot fit in the
    /// remaining payload (cheap corruption guard against huge allocations).
    pub fn get_len(&mut self) -> Result<usize, DecodeError> {
        let v = self.get_u64()?;
        if v > self.buf.len() as u64 {
            return Err(DecodeError::Invalid);
        }
        Ok(v as usize)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, DecodeError> {
        let len = self.get_len()?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| DecodeError::Invalid)
    }

    /// Reads a [`Span`] written by [`Encoder::put_span`].
    pub fn get_span(&mut self) -> Result<Span, DecodeError> {
        let file = ffisafe_support::source_map::FileId::from_raw(self.get_u32()?);
        let lo = self.get_u32()?;
        let hi = self.get_u32()?;
        if lo > hi {
            return Err(DecodeError::Invalid);
        }
        Ok(Span { file, lo, hi })
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Asserts the payload was consumed exactly.
    pub fn finish(self) -> Result<(), DecodeError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(DecodeError::TrailingBytes)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffisafe_support::source_map::FileId;

    #[test]
    fn primitive_roundtrip() {
        let mut e = Encoder::new();
        e.put_u8(7);
        e.put_u32(0xdead_beef);
        e.put_u64(u64::MAX);
        e.put_i64(-42);
        e.put_bool(false);
        e.put_str("héllo");
        e.put_span(Span::new(FileId::from_raw(3), 10, 20));
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.get_u8().unwrap(), 7);
        assert_eq!(d.get_u32().unwrap(), 0xdead_beef);
        assert_eq!(d.get_u64().unwrap(), u64::MAX);
        assert_eq!(d.get_i64().unwrap(), -42);
        assert!(!d.get_bool().unwrap());
        assert_eq!(d.get_str().unwrap(), "héllo");
        assert_eq!(d.get_span().unwrap(), Span::new(FileId::from_raw(3), 10, 20));
        d.finish().unwrap();
    }

    #[test]
    fn dummy_span_roundtrip() {
        let mut e = Encoder::new();
        e.put_span(Span::dummy());
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        assert!(d.get_span().unwrap().is_dummy());
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut e = Encoder::new();
        e.put_str("a long enough string");
        let bytes = e.into_bytes();
        for cut in 0..bytes.len() {
            let mut d = Decoder::new(&bytes[..cut]);
            assert!(d.get_str().is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn corrupt_fields_are_invalid() {
        // bool byte out of range
        let mut d = Decoder::new(&[9]);
        assert_eq!(d.get_bool(), Err(DecodeError::Invalid));
        // length far beyond the payload
        let mut e = Encoder::new();
        e.put_u64(1 << 40);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.get_len(), Err(DecodeError::Invalid));
        // invalid utf-8
        let mut e = Encoder::new();
        e.put_len(2);
        let mut bytes = e.into_bytes();
        bytes.extend_from_slice(&[0xff, 0xfe]);
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.get_str(), Err(DecodeError::Invalid));
        // inverted span
        let mut e = Encoder::new();
        e.put_u32(0);
        e.put_u32(9);
        e.put_u32(3);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.get_span(), Err(DecodeError::Invalid));
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut e = Encoder::new();
        e.put_u8(1);
        e.put_u8(2);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.get_u8().unwrap(), 1);
        assert_eq!(d.finish(), Err(DecodeError::TrailingBytes));
    }
}
