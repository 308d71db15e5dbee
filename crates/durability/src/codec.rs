//! The little-endian binary codec shared by the WAL record payloads, the
//! checkpoint bodies, and the per-crate state serializers built on top.
//!
//! Encoding is by plain `put_*` free functions appending to a `Vec<u8>`;
//! decoding goes through a position-tracking [`Cursor`] whose every read
//! is bounds-checked and returns a [`CodecError`] carrying the byte
//! offset of the failure — no decoder in the workspace panics on
//! truncated or hostile input.

use std::fmt;

/// A decode failure, carrying the byte offset at which it happened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before the value being read was complete.
    UnexpectedEof {
        /// Byte offset at which more input was needed.
        offset: usize,
    },
    /// The bytes were well-formed at the framing level but semantically
    /// invalid (bad magic, out-of-range tag, mismatched count, ...).
    Invalid {
        /// Byte offset of the offending value.
        offset: usize,
        /// What was wrong.
        what: String,
    },
}

impl CodecError {
    /// Builds an [`CodecError::Invalid`] at `offset`.
    pub fn invalid(offset: usize, what: impl Into<String>) -> Self {
        CodecError::Invalid {
            offset,
            what: what.into(),
        }
    }
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnexpectedEof { offset } => {
                write!(f, "unexpected end of input at byte {offset}")
            }
            CodecError::Invalid { offset, what } => write!(f, "{what} at byte {offset}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Appends a `u8`.
pub fn put_u8(out: &mut Vec<u8>, value: u8) {
    out.push(value);
}

/// Appends a `u32`, little-endian.
pub fn put_u32(out: &mut Vec<u8>, value: u32) {
    out.extend_from_slice(&value.to_le_bytes());
}

/// Appends a `u64`, little-endian.
pub fn put_u64(out: &mut Vec<u8>, value: u64) {
    out.extend_from_slice(&value.to_le_bytes());
}

/// Appends an `i64`, little-endian.
pub fn put_i64(out: &mut Vec<u8>, value: i64) {
    out.extend_from_slice(&value.to_le_bytes());
}

/// Appends a `usize` as a `u64` (the formats are 64-bit on every host).
pub fn put_len(out: &mut Vec<u8>, value: usize) {
    put_u64(out, value as u64);
}

/// Appends a length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, value: &str) {
    put_len(out, value.len());
    out.extend_from_slice(value.as_bytes());
}

/// Appends length-prefixed raw bytes.
pub fn put_bytes(out: &mut Vec<u8>, value: &[u8]) {
    put_len(out, value.len());
    out.extend_from_slice(value);
}

/// A bounds-checked, position-tracking reader over a byte slice.  A clone
/// reads ahead without moving the original.
#[derive(Debug, Clone)]
pub struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, pos: 0 }
    }

    /// Current byte offset (also the offset reported in errors).
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// True once every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Fails unless the cursor consumed its input exactly.
    pub fn expect_end(&self) -> Result<(), CodecError> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(CodecError::invalid(
                self.pos,
                format!("{} trailing bytes after the last field", self.remaining()),
            ))
        }
    }

    /// Takes the next `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::UnexpectedEof { offset: self.pos });
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads a `u8`.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        let bytes = self.take(4)?;
        Ok(u32::from_le_bytes(bytes.try_into().expect("4 bytes")))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        let bytes = self.take(8)?;
        Ok(u64::from_le_bytes(bytes.try_into().expect("8 bytes")))
    }

    /// Reads a little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64, CodecError> {
        let bytes = self.take(8)?;
        Ok(i64::from_le_bytes(bytes.try_into().expect("8 bytes")))
    }

    /// Reads a [`put_len`] length prefix, rejecting values that could not
    /// possibly fit in the remaining input (so hostile prefixes cannot
    /// drive huge allocations).
    pub fn len(&mut self) -> Result<usize, CodecError> {
        let at = self.pos;
        let raw = self.u64()?;
        if raw > self.remaining() as u64 {
            return Err(CodecError::invalid(
                at,
                format!(
                    "length prefix {raw} exceeds {} remaining bytes",
                    self.remaining()
                ),
            ));
        }
        Ok(raw as usize)
    }

    /// Reads a count prefix where each counted element occupies at least
    /// `min_element_bytes` of further input — same hostile-input guard as
    /// [`Cursor::len`] for element counts rather than byte lengths.
    pub fn count(&mut self, min_element_bytes: usize) -> Result<usize, CodecError> {
        let at = self.pos;
        let raw = self.u64()?;
        let min = min_element_bytes.max(1) as u64;
        if raw > self.remaining() as u64 / min {
            return Err(CodecError::invalid(
                at,
                format!("element count {raw} exceeds what the remaining input could hold"),
            ));
        }
        Ok(raw as usize)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, CodecError> {
        let at = self.pos;
        let len = self.len()?;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes).map_err(|_| CodecError::invalid(at, "invalid UTF-8 string"))
    }

    /// Reads length-prefixed raw bytes.
    pub fn bytes(&mut self) -> Result<&'a [u8], CodecError> {
        let len = self.len()?;
        self.take(len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_primitive() {
        let mut out = Vec::new();
        put_u8(&mut out, 7);
        put_u32(&mut out, 0xDEAD_BEEF);
        put_u64(&mut out, u64::MAX - 1);
        put_i64(&mut out, -42);
        put_str(&mut out, "views");
        put_bytes(&mut out, &[1, 2, 3]);
        let mut cursor = Cursor::new(&out);
        assert_eq!(cursor.u8().unwrap(), 7);
        assert_eq!(cursor.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(cursor.u64().unwrap(), u64::MAX - 1);
        assert_eq!(cursor.i64().unwrap(), -42);
        assert_eq!(cursor.str().unwrap(), "views");
        assert_eq!(cursor.bytes().unwrap(), &[1, 2, 3]);
        cursor.expect_end().unwrap();
    }

    #[test]
    fn truncation_reports_offset() {
        let mut out = Vec::new();
        put_u64(&mut out, 9);
        out.truncate(5);
        let mut cursor = Cursor::new(&out);
        assert_eq!(cursor.u64(), Err(CodecError::UnexpectedEof { offset: 0 }));
    }

    #[test]
    fn hostile_length_prefix_is_rejected_without_allocating() {
        let mut out = Vec::new();
        put_u64(&mut out, u64::MAX);
        let mut cursor = Cursor::new(&out);
        assert!(matches!(cursor.len(), Err(CodecError::Invalid { .. })));
        let mut cursor = Cursor::new(&out);
        assert!(matches!(cursor.count(24), Err(CodecError::Invalid { .. })));
    }

    #[test]
    fn invalid_utf8_is_an_error_not_a_panic() {
        let mut out = Vec::new();
        put_bytes(&mut out, &[0xFF, 0xFE]);
        let mut cursor = Cursor::new(&out);
        assert!(matches!(cursor.str(), Err(CodecError::Invalid { .. })));
    }

    #[test]
    fn trailing_bytes_fail_expect_end() {
        let bytes = [0u8; 3];
        let mut cursor = Cursor::new(&bytes);
        cursor.u8().unwrap();
        let err = cursor.expect_end().unwrap_err();
        assert!(err.to_string().contains("trailing"));
    }
}
