//! A tiny length-prefixed binary codec.
//!
//! DepSky stores each blob as blocks that carry, beside the erasure-coded
//! shard, what a reader needs to decode it (slot, key share, nonce,
//! plaintext length); a block must be serialized into bytes before it can be
//! PUT. To avoid pulling in a serialization framework for a handful of fixed
//! fields, this module provides a minimal writer/reader pair with explicit
//! little-endian encodings. The SCFS crate reuses it for its metadata tuples.

/// Encoder that appends primitive values to a byte buffer.
#[derive(Debug, Default, Clone)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// Creates an empty writer whose buffer holds `capacity` bytes before it
    /// grows.
    pub fn with_capacity(capacity: usize) -> Self {
        Writer {
            buf: Vec::with_capacity(capacity),
        }
    }

    /// Appends a `u8`.
    pub fn put_u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// Appends a `u64` (little endian).
    pub fn put_u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a length-prefixed byte slice.
    pub fn put_bytes(&mut self, v: &[u8]) -> &mut Self {
        self.put_u64(v.len() as u64);
        self.buf.extend_from_slice(v);
        self
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) -> &mut Self {
        self.put_bytes(v.as_bytes())
    }

    /// Consumes the writer and returns the encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Current length of the encoded buffer.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// Errors produced when decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// What went wrong.
    pub reason: String,
}

impl DecodeError {
    fn new(reason: impl Into<String>) -> Self {
        DecodeError {
            reason: reason.into(),
        }
    }
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "decode error: {}", self.reason)
    }
}

impl std::error::Error for DecodeError {}

/// Decoder that reads primitive values from a byte slice.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Creates a reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        // `n` may be a hostile length prefix: compare against what is left
        // instead of adding it to `pos`, which would overflow.
        if n > self.buf.len() - self.pos {
            return Err(DecodeError::new(format!(
                "need {n} bytes at offset {}, only {} available",
                self.pos,
                self.buf.len() - self.pos
            )));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads a `u8`.
    pub fn get_u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u64`.
    pub fn get_u64(&mut self) -> Result<u64, DecodeError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a length-prefixed byte vector.
    pub fn get_bytes(&mut self) -> Result<Vec<u8>, DecodeError> {
        let len = self.get_u64()? as usize;
        Ok(self.take(len)?.to_vec())
    }

    /// Reads a length-prefixed byte slice of at most `max` bytes, borrowed
    /// from the input: the claimed length is checked before anything is
    /// copied.
    pub fn get_bytes_max(&mut self, max: usize) -> Result<&'a [u8], DecodeError> {
        let len = self.get_u64()?;
        if len > max as u64 {
            return Err(DecodeError::new(format!(
                "length prefix {len} exceeds the {max}-byte bound"
            )));
        }
        self.take(len as usize)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, DecodeError> {
        let bytes = self.get_bytes()?;
        String::from_utf8(bytes).map_err(|_| DecodeError::new("invalid UTF-8"))
    }

    /// Number of bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether the reader has consumed the whole buffer.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }
}

/// Test support for the decoders of bytes a Byzantine cloud controls:
/// structure-aware damage to a `valid` encoding, so the decoder gets deep
/// into it. At every offset a hostile `u64` is planted (counts and length
/// prefixes are `u64`s: near-`u64::MAX` values overflow offset arithmetic,
/// `small` redirects the decoder mid-field) and a byte is flipped; every
/// truncation and `tail` appended are tried too. `reencode` decodes and,
/// on success, encodes again: each input must fail or come back as itself —
/// the codec is canonical, so nothing hostile hides in bytes that pass.
#[cfg(test)]
pub(crate) fn assert_fails_closed(
    valid: &[u8],
    tail: &[u8],
    flip: u8,
    small: u64,
    reencode: impl Fn(&[u8]) -> Option<Vec<u8>>,
) {
    let check = |bytes: &[u8]| {
        if let Some(again) = reencode(bytes) {
            assert_eq!(again, bytes, "two encodings of one value");
        }
    };
    assert_eq!(reencode(valid).as_deref(), Some(valid));
    assert_eq!(reencode(&[valid, tail].concat()), None, "trailing bytes");
    for at in 0..valid.len() {
        for hostile in [u64::MAX, u64::MAX - 7, 1 << 63, 1 << 32, small] {
            let mut bytes = valid.to_vec();
            let end = (at + 8).min(bytes.len());
            bytes[at..end].copy_from_slice(&hostile.to_le_bytes()[..end - at]);
            check(&bytes);
        }
        let mut bytes = valid.to_vec();
        bytes[at] ^= flip;
        check(&bytes);
        assert_eq!(reencode(&valid[..at]), None, "truncated at {at}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn round_trip_primitives() {
        let mut w = Writer::new();
        w.put_u8(7)
            .put_u64(1 << 40)
            .put_str("hello")
            .put_bytes(&[1, 2, 3]);
        let buf = w.finish();
        let mut r = Reader::new(&buf);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u64().unwrap(), 1 << 40);
        assert_eq!(r.get_str().unwrap(), "hello");
        assert_eq!(r.get_bytes().unwrap(), vec![1, 2, 3]);
        assert!(r.is_exhausted());
    }

    #[test]
    fn truncated_buffer_errors() {
        let mut w = Writer::new();
        w.put_u64(5);
        let mut buf = w.finish();
        buf.truncate(4);
        let mut r = Reader::new(&buf);
        assert!(r.get_u64().is_err());
    }

    #[test]
    fn hostile_length_prefix_errors_instead_of_overflowing() {
        // `pos + len` used to overflow (debug) or wrap into an inverted
        // slice (release): both panicked on a length prefix near u64::MAX.
        for len in [u64::MAX, u64::MAX - 7, 1 << 63] {
            let mut w = Writer::new();
            w.put_u64(len).put_u8(1);
            let buf = w.finish();
            assert!(Reader::new(&buf).get_bytes().is_err());
            assert!(Reader::new(&buf).get_str().is_err());
            assert!(Reader::new(&buf).get_bytes_max(usize::MAX).is_err());
        }
    }

    #[test]
    fn bounded_bytes_check_the_prefix_before_the_payload() {
        let mut w = Writer::new();
        w.put_bytes(&[9; 16]);
        let buf = w.finish();
        assert_eq!(Reader::new(&buf).get_bytes_max(16).unwrap(), &[9; 16]);
        assert!(Reader::new(&buf).get_bytes_max(15).is_err());
    }

    #[test]
    fn bad_utf8_is_rejected() {
        let mut w = Writer::new();
        w.put_bytes(&[0xff, 0xfe]);
        let buf = w.finish();
        let mut r = Reader::new(&buf);
        assert!(r.get_str().is_err());
    }

    #[test]
    fn writer_len_tracking() {
        let mut w = Writer::new();
        assert!(w.is_empty());
        w.put_u64(1);
        assert_eq!(w.len(), 8);
    }

    proptest! {
        #[test]
        fn prop_bytes_round_trip(data in proptest::collection::vec(any::<u8>(), 0..256), n in any::<u64>()) {
            let mut w = Writer::new();
            w.put_u64(n).put_bytes(&data);
            let buf = w.finish();
            let mut r = Reader::new(&buf);
            prop_assert_eq!(r.get_u64().unwrap(), n);
            prop_assert_eq!(r.get_bytes().unwrap(), data);
        }
    }
}
