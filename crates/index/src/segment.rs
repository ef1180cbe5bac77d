//! Immutable segment files of Bloom-filter-encoded records.
//!
//! A segment is the unit of persistent storage: one shard's worth of
//! `(record id, filter)` entries written once and never modified (updates
//! happen by writing new segments and compacting). The layout is
//!
//! ```text
//! magic   u32   "PSG1"
//! version u16   2
//! shard   u32   owning shard
//! flen    u32   filter length in bits
//! count   u32   number of entries
//! entry × count:
//!   elen  u32   length prefix (= 8 + ⌈flen/8⌉)
//!   id    u64   record id
//!   bits  ⌈flen/8⌉ bytes: the filter's u64 words, little-endian, cut
//!               after byte ⌈flen/8⌉; no bit set past flen
//! sum     u64   word_fold checksum of everything above
//! ```
//!
//! Version 1 (the same layout under an FNV-1a trailer) is a typed
//! "unsupported segment version" error, never a checksum mismatch.
//!
//! Both encoders emit the same bytes. The one verifier
//! ([`verify_segment`]) and the one decoder ([`decode_segment_arena`])
//! make the same checks, through `pprl_core::codec`: the declared sizes must
//! match the image length *exactly* before any entry is trusted, so
//! every truncation is detected deterministically; the trailing
//! checksum must verify, so every byte flip is detected; and each
//! entry's length prefix and tail bits must be right — all as typed
//! [`PprlError::Storage`] errors. The WAL logs the same entry layout
//! (`push_entry` / `read_entry`) with a checksum per entry.

use crate::arena::{ArenaBuilder, FilterArena};
use crate::format::{io_err, storage_err};
use crate::vfs::Vfs;
use pprl_core::bitvec::BitVec;
use pprl_core::codec::{append_checksum, checked_body, Reader};
use pprl_core::error::{PprlError, Result};
use std::path::Path;

/// Segment file magic ("PSG1").
const SEGMENT_MAGIC: u32 = 0x3147_5350;
/// Current segment format version (2 = `word_fold` trailer).
const SEGMENT_VERSION: u16 = 2;
/// Header bytes before the entries.
const HEADER_LEN: usize = 18;

/// Bytes of a segment file holding `count` records of `filter_len`-bit
/// filters (the layout is fixed: header, `count` equal-length entries,
/// checksum).
pub fn segment_len(count: usize, filter_len: usize) -> u64 {
    (HEADER_LEN + count * (4 + 8 + filter_len.div_ceil(8)) + 8) as u64
}

/// Appends one entry, `elen u32 | id u64 | bits`: the filter's whole
/// words, then the first bytes of the next one up to `⌈filter_len/8⌉`.
pub(crate) fn push_entry(out: &mut Vec<u8>, id: u64, row: &[u64], filter_len: usize) {
    let filter_bytes = filter_len.div_ceil(8);
    out.extend_from_slice(&((8 + filter_bytes) as u32).to_le_bytes());
    out.extend_from_slice(&id.to_le_bytes());
    let (whole, tail) = (filter_bytes / 8, filter_bytes % 8);
    for w in &row[..whole] {
        out.extend_from_slice(&w.to_le_bytes());
    }
    if tail > 0 {
        out.extend_from_slice(&row[whole].to_le_bytes()[..tail]);
    }
}

/// Reads one entry [`push_entry`] wrote: checks its length prefix and
/// that no bit is set past `filter_len`, and returns the id and the
/// filter bytes.
pub(crate) fn read_entry<'a>(r: &mut Reader<'a>, filter_len: usize) -> Result<(u64, &'a [u8])> {
    let filter_bytes = filter_len.div_ceil(8);
    let declared = r.u32()? as usize;
    if declared != 8 + filter_bytes {
        return Err(storage_err(format!(
            "entry length prefix {declared}, expected {}",
            8 + filter_bytes
        )));
    }
    let id = r.u64()?;
    let raw = r.take(filter_bytes)?;
    let spare = filter_bytes * 8 - filter_len;
    if spare > 0 && raw[filter_bytes - 1] >> (8 - spare) != 0 {
        return Err(storage_err(format!(
            "record {id} has bits set beyond its {filter_len} bit length"
        )));
    }
    Ok((id, raw))
}

/// Loads filter bytes into a word row, a whole word at a time (the
/// inverse of [`push_entry`]).
pub(crate) fn load_row(raw: &[u8], row: &mut [u64]) {
    let mut words = raw.chunks_exact(8);
    for (w, bytes) in row.iter_mut().zip(&mut words) {
        *w = u64::from_le_bytes(bytes.try_into().expect("8-byte chunk"));
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut last = [0u8; 8];
        last[..tail.len()].copy_from_slice(tail);
        row[raw.len() / 8] = u64::from_le_bytes(last);
    }
}
/// A segment image with `count` entries: the header, then each entry
/// from `rows` in order, then the checksum.
fn encode_image<'a>(
    shard: u32,
    filter_len: usize,
    count: usize,
    rows: impl Iterator<Item = (u64, &'a [u64])>,
) -> Result<Vec<u8>> {
    let count32 = u32::try_from(count)
        .map_err(|_| PprlError::invalid("records", "segment exceeds u32 entries"))?;
    let flen = u32::try_from(filter_len)
        .map_err(|_| PprlError::invalid("filter_len", "exceeds u32 bits"))?;
    let mut out = Vec::with_capacity(HEADER_LEN + count * (12 + filter_len.div_ceil(8)) + 8);
    out.extend_from_slice(&SEGMENT_MAGIC.to_le_bytes());
    out.extend_from_slice(&SEGMENT_VERSION.to_le_bytes());
    out.extend_from_slice(&shard.to_le_bytes());
    out.extend_from_slice(&flen.to_le_bytes());
    out.extend_from_slice(&count32.to_le_bytes());
    for (id, row) in rows {
        push_entry(&mut out, id, row, filter_len);
    }
    append_checksum(&mut out);
    Ok(out)
}

/// Serialises a segment to its file image.
pub fn encode_segment(
    shard: u32,
    filter_len: usize,
    records: &[(u64, &BitVec)],
) -> Result<Vec<u8>> {
    if let Some((_, f)) = records.iter().find(|(_, f)| f.len() != filter_len) {
        return Err(PprlError::shape(
            format!("{filter_len} bits"),
            format!("{} bits", f.len()),
        ));
    }
    let rows = records.iter().map(|(id, f)| (*id, f.as_words()));
    encode_image(shard, filter_len, records.len(), rows)
}

/// Serialises a segment file image straight from an arena's rows, in
/// arena row order, without materialising a `BitVec` per record —
/// byte-identical to [`encode_segment`] over the same rows in the same
/// order.
pub fn encode_segment_from_arena(shard: u32, arena: &FilterArena) -> Result<Vec<u8>> {
    let rows = (0..arena.len()).map(|i| (arena.id(i), arena.row(i)));
    encode_image(shard, arena.filter_len(), arena.len(), rows)
}

/// Checks a segment image's header, its exact declared size and its
/// checksum, and returns `(shard, filter_len, count)` with a reader
/// positioned at the first entry. The declared sizes account for every
/// byte, so reading `count` entries consumes the entry region exactly.
fn open_image(bytes: &[u8]) -> Result<(u32, usize, usize, Reader<'_>)> {
    let mut r = Reader::new(bytes, PprlError::Storage);
    let magic = r.u32()?;
    if magic != SEGMENT_MAGIC {
        return Err(storage_err(format!(
            "not a segment file (magic {magic:#x})"
        )));
    }
    let version = r.u16()?;
    if version != SEGMENT_VERSION {
        return Err(storage_err(format!(
            "unsupported segment version {version}"
        )));
    }
    let shard = r.u32()?;
    let filter_len = r.u32()? as usize;
    let count = r.u32()? as usize;
    let entry_len = 8 + filter_len.div_ceil(8);
    // Structural validation first: the header determines the exact file
    // length, so truncation (and flips inside the size fields) are
    // caught deterministically before the checksum is consulted.
    let expected = count
        .checked_mul(4 + entry_len)
        .and_then(|n| n.checked_add(HEADER_LEN + 8))
        .ok_or_else(|| storage_err(format!("segment entry count {count} overflows")))?;
    if bytes.len() != expected {
        return Err(storage_err(format!(
            "segment size mismatch: header declares {count} entries of {entry_len} bytes \
             ({expected} bytes total), file has {}",
            bytes.len()
        )));
    }
    checked_body(bytes, PprlError::Storage)?;
    Ok((shard, filter_len, count, r))
}

/// Verifies a segment image exactly as [`decode_segment_arena`] does
/// — header, exact size, checksum, each entry's length prefix and tail
/// bits — without building a row, and returns `(shard, filter_len,
/// count)`. Any byte flip, truncation or structural malformation is a
/// typed [`PprlError::Storage`].
pub fn verify_segment(bytes: &[u8]) -> Result<(u32, usize, usize)> {
    let (shard, filter_len, count, mut r) = open_image(bytes)?;
    for _ in 0..count {
        read_entry(&mut r, filter_len)?;
    }
    Ok((shard, filter_len, count))
}

/// Parses and verifies a segment file image into a columnar
/// [`FilterArena`], one builder push per entry, with
/// [`verify_segment`]'s checks. Returns the owning shard alongside the
/// arena (rows sorted by `(popcount, id)`; a segment already written in
/// that order — the arena-native flush/compaction output — skips the
/// sort entirely).
pub fn decode_segment_arena(bytes: &[u8]) -> Result<(u32, FilterArena)> {
    let (shard, filter_len, count, mut r) = open_image(bytes)?;
    let mut builder = ArenaBuilder::with_capacity(filter_len, count);
    let mut row = vec![0u64; BitVec::words_for_len(filter_len)];
    for _ in 0..count {
        let (id, raw) = read_entry(&mut r, filter_len)?;
        load_row(raw, &mut row);
        builder.push(id, &row)?;
    }
    Ok((shard, builder.finish()))
}

/// Writes a segment file straight from an arena's rows through an
/// injectable [`Vfs`]. Durably persists the file's *content* (write +
/// fsync); making its directory entry durable is the caller's barrier
/// (`sync_dir` once per batch of segments).
pub fn write_segment_arena_with(
    vfs: &dyn Vfs,
    path: &Path,
    shard: u32,
    arena: &FilterArena,
) -> Result<()> {
    let bytes = encode_segment_from_arena(shard, arena)?;
    vfs.write(path, &bytes)
        .map_err(|e| io_err(path, "writing", e))?;
    vfs.sync_file(path).map_err(|e| io_err(path, "syncing", e))
}

/// Reads the catalogued segment file at `path` and runs `check` over
/// its image; then checks that the header's shard and filter length are
/// the manifest's `shard` and `filter_len`. Every failure is a typed
/// [`PprlError::Storage`] naming the file.
fn read_catalogued<T>(
    vfs: &dyn Vfs,
    path: &Path,
    shard: u32,
    filter_len: usize,
    check: impl FnOnce(&[u8]) -> Result<(u32, usize, T)>,
) -> Result<T> {
    let bytes = vfs.read(path).map_err(|e| io_err(path, "reading", e))?;
    let named = |e: PprlError| storage_err(format!("{}: {e}", path.display()));
    let (got_shard, got_len, out) = check(&bytes).map_err(named)?;
    if got_shard != shard {
        return Err(named(storage_err(format!(
            "claims shard {got_shard}, manifest says {shard}"
        ))));
    }
    if got_len != filter_len {
        return Err(named(storage_err(format!(
            "has {got_len}-bit filters, index expects {filter_len}"
        ))));
    }
    Ok(out)
}

/// Verifies the segment file at `path` ([`verify_segment`]) as the
/// manifest's `shard` of a `filter_len`-bit index, and returns its
/// record count and its size in bytes. Allocates the file image only.
pub fn verify_segment_file(
    vfs: &dyn Vfs,
    path: &Path,
    shard: u32,
    filter_len: usize,
) -> Result<(usize, u64)> {
    read_catalogued(vfs, path, shard, filter_len, |bytes| {
        let (got_shard, got_len, count) = verify_segment(bytes)?;
        Ok((got_shard, got_len, (count, bytes.len() as u64)))
    })
}

/// Reads the segment file at `path` into a columnar arena
/// ([`decode_segment_arena`]) as the manifest's `shard` of a
/// `filter_len`-bit index.
pub fn read_segment_arena_with(
    vfs: &dyn Vfs,
    path: &Path,
    shard: u32,
    filter_len: usize,
) -> Result<FilterArena> {
    read_catalogued(vfs, path, shard, filter_len, |bytes| {
        let (got_shard, arena) = decode_segment_arena(bytes)?;
        Ok((got_shard, arena.filter_len(), arena))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::StdVfs;

    fn sample_records(n: usize, len: usize) -> Vec<(u64, BitVec)> {
        (0..n)
            .map(|i| {
                let ones: Vec<usize> = (0..len).filter(|p| (p + i) % 7 == 0).collect();
                (
                    i as u64 * 3 + 1,
                    BitVec::from_positions(len, &ones).unwrap(),
                )
            })
            .collect()
    }

    fn refs(records: &[(u64, BitVec)]) -> Vec<(u64, &BitVec)> {
        records.iter().map(|(id, f)| (*id, f)).collect()
    }

    /// Both readers of `bytes` fail with a typed storage error.
    fn assert_rejected(bytes: &[u8], what: &str) -> String {
        let verified = verify_segment(bytes).unwrap_err();
        let decoded = decode_segment_arena(bytes).unwrap_err();
        assert!(
            matches!(verified, PprlError::Storage(_)),
            "{what}: {verified}"
        );
        assert_eq!(verified.to_string(), decoded.to_string(), "{what}");
        verified.to_string()
    }

    /// `image` with the entry bytes at `at` replaced and the checksum
    /// recomputed, so only the structural checks can catch it.
    fn resealed(image: &[u8], at: usize, bytes: &[u8]) -> Vec<u8> {
        let mut body = image[..image.len() - 8].to_vec();
        body[at..at + bytes.len()].copy_from_slice(bytes);
        append_checksum(&mut body);
        body
    }

    #[test]
    fn decode_round_trips_in_arena_order_and_verify_agrees() {
        for len in [63usize, 64, 80, 100, 129, 130] {
            let records = sample_records(7, len);
            let bytes = encode_segment(2, len, &refs(&records)).unwrap();
            assert_eq!(verify_segment(&bytes).unwrap(), (2, len, 7));
            let (shard, arena) = decode_segment_arena(&bytes).unwrap();
            assert_eq!(shard, 2);
            assert_eq!(arena.filter_len(), len);
            let mut expect = records.clone();
            expect.sort_by_key(|(id, f)| (f.count_ones(), *id));
            assert_eq!(arena.len(), expect.len());
            for (i, (id, filter)) in expect.iter().enumerate() {
                assert_eq!(
                    arena.get(i).unwrap(),
                    (*id, filter.clone()),
                    "len={len} row {i}"
                );
            }
            // Decode→encode of an already-sorted image is the identity.
            let sorted_bytes = encode_segment_from_arena(2, &arena).unwrap();
            let (_, again) = decode_segment_arena(&sorted_bytes).unwrap();
            assert_eq!(
                encode_segment_from_arena(2, &again).unwrap(),
                sorted_bytes,
                "len={len}"
            );
        }
    }

    #[test]
    fn empty_segment_round_trips() {
        let bytes = encode_segment(0, 64, &[]).unwrap();
        assert_eq!(verify_segment(&bytes).unwrap(), (0, 64, 0));
        let (_, arena) = decode_segment_arena(&bytes).unwrap();
        assert!(arena.is_empty());
        assert_eq!(arena.filter_len(), 64);
    }

    #[test]
    fn extension_is_rejected_by_both_readers() {
        let records = sample_records(2, 64);
        let mut bytes = encode_segment(0, 64, &refs(&records)).unwrap();
        bytes.push(0);
        assert_rejected(&bytes, "extension");
    }

    #[test]
    fn a_bad_length_prefix_or_a_bit_past_the_filter_is_rejected_under_a_good_checksum() {
        let records = sample_records(2, 100);
        let bytes = encode_segment(1, 100, &refs(&records)).unwrap();
        let second = HEADER_LEN + 4 + 8 + 13;
        let msg = assert_rejected(&resealed(&bytes, second, &22u32.to_le_bytes()), "prefix");
        assert!(msg.contains("length prefix 22"), "{msg}");
        // 100 bits fill 12 bytes and 4 bits of the 13th: bit 100 is set.
        let last = HEADER_LEN + 4 + 8 + 12;
        let msg = assert_rejected(&resealed(&bytes, last, &[bytes[last] | 0x10]), "tail");
        assert!(msg.contains("bits set beyond its 100 bit length"), "{msg}");
    }

    #[test]
    fn a_version_1_image_is_a_typed_unsupported_error_not_a_checksum_mismatch() {
        let records = sample_records(2, 64);
        let mut bytes = encode_segment(0, 64, &refs(&records)).unwrap();
        bytes[4..6].copy_from_slice(&1u16.to_le_bytes());
        let msg = assert_rejected(&bytes, "v1");
        assert!(msg.contains("unsupported segment version 1"), "{msg}");
    }

    #[test]
    fn filter_length_mismatch_rejected_at_encode() {
        let f = BitVec::zeros(32);
        let err = encode_segment(0, 64, &[(1, &f)]).unwrap_err();
        assert!(matches!(err, PprlError::ShapeMismatch { .. }), "{err}");
    }

    #[test]
    fn file_round_trip_checks_the_catalogue() {
        let dir = std::env::temp_dir().join("pprl-index-segment-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("seg-0.seg");
        let records = sample_records(6, 120);
        let arena = FilterArena::from_records(records, 120).unwrap();
        write_segment_arena_with(&StdVfs, &path, 2, &arena).unwrap();
        let size = std::fs::metadata(&path).unwrap().len();
        assert_eq!(
            verify_segment_file(&StdVfs, &path, 2, 120).unwrap(),
            (6, size)
        );
        let again = read_segment_arena_with(&StdVfs, &path, 2, 120).unwrap();
        assert_eq!(again.len(), 6);
        for (shard, len, what) in [(1, 120, "claims shard 2"), (2, 128, "120-bit filters")] {
            for err in [
                verify_segment_file(&StdVfs, &path, shard, len).unwrap_err(),
                read_segment_arena_with(&StdVfs, &path, shard, len).unwrap_err(),
            ] {
                let msg = err.to_string();
                assert!(
                    matches!(err, PprlError::Storage(_)) && msg.contains(what),
                    "{msg}"
                );
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_file_is_storage_error() {
        let path = Path::new("/nonexistent/seg.seg");
        let err = read_segment_arena_with(&StdVfs, path, 0, 64).unwrap_err();
        assert!(matches!(err, PprlError::Storage(_)), "{err}");
        let err = verify_segment_file(&StdVfs, path, 0, 64).unwrap_err();
        assert!(matches!(err, PprlError::Storage(_)), "{err}");
    }

    #[test]
    fn arena_encode_is_byte_identical_to_record_encode() {
        for len in [63usize, 64, 80, 100, 129] {
            let mut records = sample_records(9, len);
            // Arena row order is (popcount, id); feed the record encoder
            // the same order so the images must match byte for byte.
            records.sort_by_key(|(id, f)| (f.count_ones(), *id));
            let via_records = encode_segment(5, len, &refs(&records)).unwrap();
            let arena = crate::arena::FilterArena::from_records(records, len).unwrap();
            let via_arena = encode_segment_from_arena(5, &arena).unwrap();
            assert_eq!(via_records, via_arena, "len={len}");
        }
    }
}
