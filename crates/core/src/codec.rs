//! The one byte codec under every decoder in the workspace: a
//! bounds-checked little-endian [`Reader`] and the `body ‖ word_fold(body)`
//! checksum trailer.
//!
//! Segment, manifest and WAL files, wire and session frames, handshake
//! messages, simulated-network frames and streaming checkpoints all
//! parse through [`Reader`]; every checksummed one of them ends in the
//! 8-byte little-endian trailer [`append_checksum`] writes and
//! [`checked_body`] verifies. Neither piece knows which format it
//! serves: the caller passes the error constructor, so an index file
//! fails with [`PprlError::Storage`], a frame with
//! [`PprlError::Transport`] and a handshake message with
//! [`PprlError::Auth`] — every malformation is a typed error of the
//! caller's kind, never a panic.
//!
//! The trailer detects accidents only (see [`crate::hash`]); a format
//! that must resist an adversary adds a MAC on top.

use crate::error::{PprlError, Result};
use crate::hash::word_fold;

/// Bounds-checked little-endian cursor over a byte slice. Every read
/// past the end, and every byte left over at [`finish`](Reader::finish),
/// is an error built by the caller's constructor. The fixed-width reads
/// are `#[inline]` so decoders in other crates keep them in their loops.
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
    err: fn(String) -> PprlError,
}

impl<'a> Reader<'a> {
    /// Wraps `bytes`; failures are reported through `err`, e.g.
    /// `Reader::new(bytes, PprlError::Storage)`.
    pub fn new(bytes: &'a [u8], err: fn(String) -> PprlError) -> Self {
        Reader { bytes, pos: 0, err }
    }

    /// Current read offset.
    #[inline]
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Takes the next `n` bytes or reports truncation.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.bytes.len());
        let Some(end) = end else {
            return Err((self.err)(format!(
                "truncated: wanted {n} bytes at offset {} of {}",
                self.pos,
                self.bytes.len()
            )));
        };
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn le<const N: usize>(&mut self) -> Result<[u8; N]> {
        Ok(self.take(N)?.try_into().expect("take returns N bytes"))
    }

    /// Reads one byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    #[inline]
    pub fn u16(&mut self) -> Result<u16> {
        self.le().map(u16::from_le_bytes)
    }

    /// Reads a little-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32> {
        self.le().map(u32::from_le_bytes)
    }

    /// Reads a little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64> {
        self.le().map(u64::from_le_bytes)
    }

    /// Reads an IEEE-754 `f64` from its little-endian bit pattern.
    #[inline]
    pub fn f64(&mut self) -> Result<f64> {
        self.le().map(f64::from_le_bytes)
    }

    /// Reads the `len`-byte UTF-8 string a length prefix announced (the
    /// caller reads the prefix at its format's width).
    pub fn str(&mut self, len: usize) -> Result<&'a str> {
        let at = self.pos;
        std::str::from_utf8(self.take(len)?)
            .map_err(|_| (self.err)(format!("string at offset {at} is not UTF-8")))
    }

    /// Errors unless every byte has been consumed.
    pub fn finish(&self) -> Result<()> {
        if self.pos != self.bytes.len() {
            return Err((self.err)(format!(
                "{} trailing bytes after offset {}",
                self.bytes.len() - self.pos,
                self.pos
            )));
        }
        Ok(())
    }
}

/// Appends the [`word_fold`] checksum of everything in `out` as an
/// 8-byte little-endian trailer.
pub fn append_checksum(out: &mut Vec<u8>) {
    append_checksum_from(out, 0);
}

/// [`append_checksum`] over `out[start..]` only: seals one record
/// appended to a buffer that already holds others.
pub fn append_checksum_from(out: &mut Vec<u8>, start: usize) {
    let sum = word_fold(&out[start..]);
    out.extend_from_slice(&sum.to_le_bytes());
}

/// Verifies the trailer [`append_checksum`] wrote and returns the body
/// it covers. The comparison is one 64-bit word compare, so how long it
/// takes does not depend on where two checksums differ.
pub fn checked_body(bytes: &[u8], err: fn(String) -> PprlError) -> Result<&[u8]> {
    let Some(split) = bytes.len().checked_sub(8) else {
        return Err(err(format!(
            "{} bytes is too short for a checksum",
            bytes.len()
        )));
    };
    let (body, sum) = bytes.split_at(split);
    if word_fold(body) != u64::from_le_bytes(sum.try_into().expect("8 bytes")) {
        return Err(err("checksum mismatch".into()));
    }
    Ok(body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trailer_round_trips_and_catches_every_flip() {
        let mut out = b"hello segment".to_vec();
        append_checksum(&mut out);
        assert_eq!(
            checked_body(&out, PprlError::Storage).unwrap(),
            b"hello segment"
        );
        for pos in 0..out.len() {
            for bit in 0..8 {
                let mut bad = out.clone();
                bad[pos] ^= 1 << bit;
                let err = checked_body(&bad, PprlError::Transport).unwrap_err();
                assert!(matches!(err, PprlError::Transport(_)), "byte {pos}: {err}");
            }
        }
        for cut in 0..8 {
            let err = checked_body(&out[..cut], PprlError::Auth).unwrap_err();
            assert!(matches!(err, PprlError::Auth(_)), "cut {cut}: {err}");
        }
    }

    #[test]
    fn reader_reads_little_endian_and_reports_in_the_callers_kind() {
        let mut bytes = vec![7u8];
        bytes.extend_from_slice(&0x0102u16.to_le_bytes());
        bytes.extend_from_slice(&0x0304_0506u32.to_le_bytes());
        bytes.extend_from_slice(&u64::MAX.to_le_bytes());
        bytes.extend_from_slice(&0.75f64.to_bits().to_le_bytes());
        bytes.extend_from_slice(b"ok");
        let mut r = Reader::new(&bytes, PprlError::Storage);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 0x0102);
        assert_eq!(r.u32().unwrap(), 0x0304_0506);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.f64().unwrap(), 0.75);
        assert_eq!(r.pos(), bytes.len() - 2);
        assert_eq!(r.str(2).unwrap(), "ok");
        r.finish().unwrap();

        let mut r = Reader::new(&bytes[..3], PprlError::Storage);
        assert!(matches!(r.u32().unwrap_err(), PprlError::Storage(_)));
        assert_eq!(r.pos(), 0, "a failed read consumes nothing");
        assert!(matches!(
            r.take(usize::MAX).unwrap_err(),
            PprlError::Storage(_)
        ));
        r.u8().unwrap();
        assert!(matches!(r.finish().unwrap_err(), PprlError::Storage(_)));

        let mut r = Reader::new(&[0xff, 0xfe], PprlError::Auth);
        assert!(matches!(r.str(2).unwrap_err(), PprlError::Auth(_)));
    }
}
