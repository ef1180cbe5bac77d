//! Shared binary-format helpers for index files.
//!
//! All `pprl-index` files follow the `protocols::transport` framing
//! conventions: little-endian fixed-width integers, length-prefixed
//! entries, and a trailing FNV-1a checksum over everything before it. The
//! FNV-1a absorb step `h ← (h ⊕ b) · prime` is a bijection on `u64` for
//! every fixed byte, so any single flipped byte is guaranteed to change
//! the checksum; structural sizes are additionally declared in headers so
//! every truncation is detected by an exact length check rather than
//! probabilistically.

use pprl_core::error::{PprlError, Result};
use pprl_core::hash::fnv1a;

/// Convenience constructor for a [`PprlError::Storage`] error.
pub fn storage_err(msg: impl Into<String>) -> PprlError {
    PprlError::Storage(msg.into())
}

/// Bounds-checked little-endian reader over file bytes; every
/// malformation surfaces as a typed [`PprlError::Storage`] error naming
/// the offending offset.
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// File label used in error messages ("segment", "manifest", …).
    what: &'static str,
}

impl<'a> Reader<'a> {
    /// Wraps `bytes`; `what` names the file kind in error messages.
    pub fn new(bytes: &'a [u8], what: &'static str) -> Self {
        Reader {
            bytes,
            pos: 0,
            what,
        }
    }

    /// Current read offset.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Takes the next `n` bytes or reports truncation.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.bytes.len());
        let Some(end) = end else {
            return Err(storage_err(format!(
                "{} truncated: wanted {n} bytes at offset {}, file has {}",
                self.what,
                self.pos,
                self.bytes.len()
            )));
        };
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(
            self.take(2)?.try_into().expect("2 bytes"),
        ))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Errors unless every byte has been consumed.
    pub fn finish(&self) -> Result<()> {
        if self.pos != self.bytes.len() {
            return Err(storage_err(format!(
                "{} has {} trailing bytes after offset {}",
                self.what,
                self.bytes.len() - self.pos,
                self.pos
            )));
        }
        Ok(())
    }
}

/// Verifies the trailing FNV-1a checksum of a whole file image and
/// returns the covered body. The last 8 bytes are the little-endian
/// checksum of everything before them.
pub fn checked_body<'a>(bytes: &'a [u8], what: &'static str) -> Result<&'a [u8]> {
    if bytes.len() < 8 {
        return Err(storage_err(format!(
            "{what} too short for a checksum: {} bytes",
            bytes.len()
        )));
    }
    let body = &bytes[..bytes.len() - 8];
    let declared = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().expect("8 bytes"));
    if fnv1a(body) != declared {
        return Err(storage_err(format!("{what} checksum mismatch")));
    }
    Ok(body)
}

/// Appends the FNV-1a checksum of the current contents to `out`.
pub fn append_checksum(out: &mut Vec<u8>) {
    let sum = fnv1a(out);
    out.extend_from_slice(&sum.to_le_bytes());
}

/// Maps an I/O failure on `path` to a typed [`PprlError::Storage`].
pub fn io_err(path: &std::path::Path, op: &str, e: std::io::Error) -> PprlError {
    storage_err(format!("{op} {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_round_trip_and_flip_detection() {
        let mut out = b"hello segment".to_vec();
        append_checksum(&mut out);
        assert_eq!(checked_body(&out, "test").unwrap(), b"hello segment");
        // Any single-byte flip anywhere (body or checksum) is caught.
        for pos in 0..out.len() {
            for bit in [0x01u8, 0x80] {
                let mut bad = out.clone();
                bad[pos] ^= bit;
                let err = checked_body(&bad, "test").unwrap_err();
                assert!(matches!(err, PprlError::Storage(_)), "byte {pos}: {err}");
            }
        }
    }

    #[test]
    fn reader_bounds_and_finish() {
        let bytes = 7u32.to_le_bytes().to_vec();
        let mut r = Reader::new(&bytes, "test");
        assert_eq!(r.u32().unwrap(), 7);
        r.finish().unwrap();
        let mut r = Reader::new(&bytes, "test");
        assert!(r.u64().is_err());
        let mut r = Reader::new(&bytes, "test");
        let _ = r.u16().unwrap();
        let err = r.finish().unwrap_err();
        assert!(matches!(err, PprlError::Storage(_)), "{err}");
    }

    #[test]
    fn short_file_is_storage_error() {
        assert!(matches!(
            checked_body(b"tiny", "test").unwrap_err(),
            PprlError::Storage(_)
        ));
    }
}
