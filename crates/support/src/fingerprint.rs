//! Stable content fingerprints for the incremental-reanalysis cache.
//!
//! The cache subsystem addresses everything — lowered function IR, the
//! `.ml`/prototype surface a function observes, whole corpora — by a
//! 128-bit [`Fingerprint`]. The hasher is built from two independently
//! seeded `splitmix64` lanes (the same mixer as [`crate::rng::Rng64`]),
//! so it needs no external dependency and, crucially, is **stable across
//! platforms, processes and runs**: unlike `std`'s `DefaultHasher`, equal
//! inputs always produce equal fingerprints, which is what makes them
//! usable as on-disk cache keys.
//!
//! This is a content-addressing hash, not a cryptographic one; the cache
//! is a local trusted store and 128 bits make accidental collisions
//! negligible.
//!
//! # Examples
//!
//! ```
//! use ffisafe_support::fingerprint::{Fingerprint, FingerprintHasher};
//!
//! let mut h = FingerprintHasher::new();
//! h.write_str("value ml_f(value n)");
//! h.write_u32(2);
//! let a = h.finish();
//! assert_eq!(a, {
//!     let mut h = FingerprintHasher::new();
//!     h.write_str("value ml_f(value n)");
//!     h.write_u32(2);
//!     h.finish()
//! });
//! assert_ne!(a, Fingerprint::of_bytes(b"something else"));
//! assert_eq!(Fingerprint::parse_hex(&a.to_hex()), Some(a));
//! ```

use std::fmt;

/// A 128-bit stable content hash.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(pub u64, pub u64);

impl Fingerprint {
    /// Fingerprints a byte slice in one call.
    pub fn of_bytes(bytes: &[u8]) -> Fingerprint {
        let mut h = FingerprintHasher::new();
        h.write_bytes(bytes);
        h.finish()
    }

    /// Lowercase 32-digit hex form — the on-disk entry file stem.
    pub fn to_hex(self) -> String {
        format!("{:016x}{:016x}", self.0, self.1)
    }

    /// Parses the [`Fingerprint::to_hex`] form back.
    pub fn parse_hex(s: &str) -> Option<Fingerprint> {
        if s.len() != 32 || !s.is_ascii() {
            return None;
        }
        let a = u64::from_str_radix(&s[..16], 16).ok()?;
        let b = u64::from_str_radix(&s[16..], 16).ok()?;
        Some(Fingerprint(a, b))
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

fn splitmix64(state: &mut u64, input: u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15).wrapping_add(input);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Streaming hasher producing a [`Fingerprint`].
///
/// Inputs are length-prefixed internally, so `write_str("ab")` followed by
/// `write_str("c")` hashes differently from `write_str("a")` then
/// `write_str("bc")` — field boundaries cannot silently collide.
#[derive(Clone, Debug)]
pub struct FingerprintHasher {
    a: u64,
    b: u64,
    acc_a: u64,
    acc_b: u64,
    /// Bytes pending in the current 8-byte chunk.
    pending: [u8; 8],
    pending_len: usize,
    total: u64,
}

impl Default for FingerprintHasher {
    fn default() -> Self {
        FingerprintHasher::new()
    }
}

impl FingerprintHasher {
    /// Creates a hasher with the two lane seeds.
    pub fn new() -> Self {
        FingerprintHasher {
            a: 0x5151_5151_c0ff_ee00,
            b: 0xdead_beef_0bad_cafe,
            acc_a: 0,
            acc_b: 0,
            pending: [0; 8],
            pending_len: 0,
            total: 0,
        }
    }

    fn mix(&mut self, chunk: u64) {
        self.acc_a ^= splitmix64(&mut self.a, chunk);
        self.acc_b = self.acc_b.rotate_left(23) ^ splitmix64(&mut self.b, chunk ^ self.acc_a);
    }

    /// Feeds raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        self.total = self.total.wrapping_add(bytes.len() as u64);
        let mut rest = bytes;
        if self.pending_len > 0 {
            let take = rest.len().min(8 - self.pending_len);
            self.pending[self.pending_len..self.pending_len + take].copy_from_slice(&rest[..take]);
            self.pending_len += take;
            rest = &rest[take..];
            if self.pending_len < 8 {
                // `rest` is exhausted; the partial chunk stays buffered.
                return;
            }
            let chunk = u64::from_le_bytes(self.pending);
            self.mix(chunk);
            self.pending_len = 0;
        }
        let mut iter = rest.chunks_exact(8);
        for c in &mut iter {
            self.mix(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let tail = iter.remainder();
        self.pending[..tail.len()].copy_from_slice(tail);
        self.pending_len = tail.len();
    }

    /// Feeds a length-prefixed string.
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write_bytes(s.as_bytes());
    }

    /// Feeds one byte.
    pub fn write_u8(&mut self, v: u8) {
        self.write_bytes(&[v]);
    }

    /// Feeds a `u32` (little-endian).
    pub fn write_u32(&mut self, v: u32) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Feeds a `u64` (little-endian).
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Feeds a `bool` as one byte.
    pub fn write_bool(&mut self, v: bool) {
        self.write_u8(v as u8);
    }

    /// Feeds another fingerprint (for composing digests of digests).
    pub fn write_fingerprint(&mut self, fp: Fingerprint) {
        self.write_u64(fp.0);
        self.write_u64(fp.1);
    }

    /// Total bytes fed so far. With the [`std::fmt::Write`] impl this lets
    /// callers stream a `Debug` rendering without materializing it and
    /// then delimit the field by writing the streamed byte count.
    pub fn bytes_written(&self) -> u64 {
        self.total
    }

    /// Finalizes: flushes the pending chunk and folds in the total length,
    /// so prefixes of an input never collide with the input itself.
    pub fn finish(mut self) -> Fingerprint {
        if self.pending_len > 0 {
            let mut last = [0u8; 8];
            last[..self.pending_len].copy_from_slice(&self.pending[..self.pending_len]);
            last[7] = 0x80 | self.pending_len as u8;
            let chunk = u64::from_le_bytes(last);
            self.mix(chunk);
        }
        let total = self.total;
        self.mix(total ^ 0xa076_1d64_78bd_642f);
        Fingerprint(self.acc_a, self.acc_b)
    }
}

/// Streams formatted output (e.g. `write!(h, "{value:?}")`) straight into
/// the hash, with no intermediate `String`. Note this feeds *raw* bytes —
/// unlike the inherent [`FingerprintHasher::write_str`], no length prefix
/// is added, so callers composing multiple formatted fields must delimit
/// them (e.g. by writing [`FingerprintHasher::bytes_written`] deltas).
impl fmt::Write for FingerprintHasher {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.write_bytes(s.as_bytes());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_write_streams_raw_bytes() {
        use std::fmt::Write as _;
        let mut h1 = FingerprintHasher::new();
        write!(h1, "{:?}", (1u32, "ab")).unwrap();
        let mut h2 = FingerprintHasher::new();
        h2.write_bytes(format!("{:?}", (1u32, "ab")).as_bytes());
        assert_eq!(h1.bytes_written(), h2.bytes_written());
        assert_eq!(h1.finish(), h2.finish());
    }

    #[test]
    fn equal_inputs_equal_outputs() {
        let mut h1 = FingerprintHasher::new();
        let mut h2 = FingerprintHasher::new();
        for h in [&mut h1, &mut h2] {
            h.write_str("external f : int -> int");
            h.write_u64(7);
            h.write_bool(true);
        }
        assert_eq!(h1.finish(), h2.finish());
    }

    #[test]
    fn chunk_boundaries_do_not_matter() {
        let data = b"0123456789abcdef0123456789abcdef!";
        let whole = Fingerprint::of_bytes(data);
        for split in [1, 7, 8, 9, 16, 31] {
            let mut h = FingerprintHasher::new();
            h.write_bytes(&data[..split]);
            h.write_bytes(&data[split..]);
            assert_eq!(h.finish(), whole, "split at {split}");
        }
    }

    #[test]
    fn byte_at_a_time_equals_whole_write() {
        // Regression: a write landing entirely inside the pending buffer
        // must not clobber `pending_len` on the fall-through path.
        let data = b"incremental hashing, one byte at a time, must agree";
        let whole = Fingerprint::of_bytes(data);
        let mut h = FingerprintHasher::new();
        for b in data {
            h.write_bytes(&[*b]);
        }
        assert_eq!(h.finish(), whole);

        // and mid-stream single-byte differences must change the digest
        let mut h1 = FingerprintHasher::new();
        h1.write_str("prefix-prefix-prefix");
        h1.write_str("f");
        h1.write_str("suffix-suffix");
        let mut h2 = FingerprintHasher::new();
        h2.write_str("prefix-prefix-prefix");
        h2.write_str("g");
        h2.write_str("suffix-suffix");
        assert_ne!(h1.finish(), h2.finish());
    }

    #[test]
    fn field_boundaries_do_matter() {
        let mut h1 = FingerprintHasher::new();
        h1.write_str("ab");
        h1.write_str("c");
        let mut h2 = FingerprintHasher::new();
        h2.write_str("a");
        h2.write_str("bc");
        assert_ne!(h1.finish(), h2.finish());
    }

    #[test]
    fn prefix_differs_from_whole() {
        assert_ne!(Fingerprint::of_bytes(b"abcd"), Fingerprint::of_bytes(b"abc"));
        assert_ne!(Fingerprint::of_bytes(b""), Fingerprint::of_bytes(b"\0"));
    }

    #[test]
    fn hex_roundtrip() {
        let fp = Fingerprint::of_bytes(b"roundtrip");
        let hex = fp.to_hex();
        assert_eq!(hex.len(), 32);
        assert_eq!(Fingerprint::parse_hex(&hex), Some(fp));
        assert_eq!(Fingerprint::parse_hex("nope"), None);
        assert_eq!(Fingerprint::parse_hex(&"z".repeat(32)), None);
    }

    #[test]
    fn small_corpus_has_no_collisions() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..2000u32 {
            let fp = Fingerprint::of_bytes(format!("input-{i}").as_bytes());
            assert!(seen.insert(fp), "collision at {i}");
        }
    }
}
