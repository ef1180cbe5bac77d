//! Immutable segment files of Bloom-filter-encoded records.
//!
//! A segment is the unit of persistent storage: one shard's worth of
//! `(record id, filter)` entries written once and never modified (updates
//! happen by writing new segments and compacting). The layout is
//!
//! ```text
//! magic   u32   "PSG1"
//! version u16   1
//! shard   u32   owning shard
//! flen    u32   filter length in bits
//! count   u32   number of entries
//! entry × count:
//!   elen  u32   length prefix (= 8 + ⌈flen/8⌉)
//!   id    u64   record id
//!   bits  ⌈flen/8⌉ bytes, little-endian bit order
//! fnv1a   u64   checksum of everything above
//! ```
//!
//! Both encoders emit the same bytes and both decoders share one
//! header check through `pprl_core::codec`: the declared sizes must
//! match the image length *exactly* before any entry is trusted, so
//! every truncation is detected deterministically, and the trailing
//! checksum must verify, so every byte flip is detected — both as typed
//! [`PprlError::Storage`] errors. The WAL logs the same entry layout
//! (`push_entry` / `read_entry`) with a checksum per entry.

use crate::arena::{ArenaBuilder, FilterArena};
use crate::format::{io_err, storage_err};
use crate::vfs::{StdVfs, Vfs};
use pprl_core::bitvec::BitVec;
use pprl_core::codec::{append_checksum, checked_body, Reader};
use pprl_core::error::{PprlError, Result};
use std::path::Path;

/// Segment file magic ("PSG1").
const SEGMENT_MAGIC: u32 = 0x3147_5350;
/// Current segment format version.
const SEGMENT_VERSION: u16 = 1;
/// Header bytes before the entries.
const HEADER_LEN: usize = 18;

/// One stored record: id plus encoded filter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentRecord {
    /// Caller-assigned record id (unique across the index by convention).
    pub id: u64,
    /// The Bloom-filter encoding.
    pub filter: BitVec,
}

/// Decoded segment: shard ownership, filter geometry, entries.
#[derive(Debug, Clone)]
pub struct Segment {
    /// Owning shard.
    pub shard: u32,
    /// Filter length in bits.
    pub filter_len: usize,
    /// Stored records.
    pub records: Vec<SegmentRecord>,
}

/// Number of records a well-formed segment file of `bytes` length holds
/// for `filter_len`-bit filters, derived purely from the file size (the
/// layout is fixed: header, `count` equal-length entries, checksum).
pub fn record_count_for_size(bytes: u64, filter_len: usize) -> usize {
    let entry = (4 + 8 + filter_len.div_ceil(8)) as u64;
    (bytes.saturating_sub((HEADER_LEN + 8) as u64) / entry) as usize
}

/// Appends one entry, `elen u32 | id u64 | bits`, taking the filter's
/// `⌈filter_len/8⌉` bytes off its backing words — the little-endian
/// bytes `BitVec::to_bytes` emits.
pub(crate) fn push_entry(out: &mut Vec<u8>, id: u64, row: &[u64], filter_len: usize) {
    let filter_bytes = filter_len.div_ceil(8);
    out.extend_from_slice(&((8 + filter_bytes) as u32).to_le_bytes());
    out.extend_from_slice(&id.to_le_bytes());
    for b in 0..filter_bytes {
        out.push((row[b / 8] >> ((b % 8) * 8)) as u8);
    }
}

/// Reads one entry [`push_entry`] wrote: checks its length prefix and
/// returns the id and the filter bytes.
pub(crate) fn read_entry<'a>(r: &mut Reader<'a>, filter_len: usize) -> Result<(u64, &'a [u8])> {
    let filter_bytes = filter_len.div_ceil(8);
    let declared = r.u32()? as usize;
    if declared != 8 + filter_bytes {
        return Err(storage_err(format!(
            "entry length prefix {declared}, expected {}",
            8 + filter_bytes
        )));
    }
    Ok((r.u64()?, r.take(filter_bytes)?))
}

/// Loads filter bytes into a word row (the inverse of [`push_entry`]'s
/// byte extraction).
pub(crate) fn load_row(raw: &[u8], row: &mut [u64]) {
    row.fill(0);
    for (b, &byte) in raw.iter().enumerate() {
        row[b / 8] |= u64::from(byte) << ((b % 8) * 8);
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

/// Parses and verifies a segment file image. Any byte flip, truncation,
/// or structural malformation yields a typed [`PprlError::Storage`].
pub fn decode_segment(bytes: &[u8]) -> Result<Segment> {
    let (shard, filter_len, count, mut r) = open_image(bytes)?;
    let mut records = Vec::with_capacity(count);
    for _ in 0..count {
        let (id, raw) = read_entry(&mut r, filter_len)?;
        let filter = BitVec::from_bytes(raw, filter_len)
            .map_err(|e| storage_err(format!("segment record {id}: {e}")))?;
        records.push(SegmentRecord { id, filter });
    }
    Ok(Segment {
        shard,
        filter_len,
        records,
    })
}

/// Parses and verifies a segment file image directly into a columnar
/// [`FilterArena`] — one builder push per entry instead of one `BitVec`
/// heap allocation per record, with [`decode_segment`]'s validation
/// (the builder rejects set bits beyond the filter length as
/// `BitVec::from_bytes` does). Returns the owning shard alongside the
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

/// Writes a segment file (whole-file write; segments are immutable).
pub fn write_segment(
    path: &Path,
    shard: u32,
    filter_len: usize,
    records: &[(u64, &BitVec)],
) -> Result<()> {
    write_segment_with(&StdVfs, path, shard, filter_len, records)
}

/// [`write_segment`] through an injectable [`Vfs`]. Durably persists the
/// file's *content* (write + fsync); making its directory entry durable
/// is the caller's barrier (`sync_dir` once per batch of segments).
pub fn write_segment_with(
    vfs: &dyn Vfs,
    path: &Path,
    shard: u32,
    filter_len: usize,
    records: &[(u64, &BitVec)],
) -> Result<()> {
    let bytes = encode_segment(shard, filter_len, records)?;
    vfs.write(path, &bytes)
        .map_err(|e| io_err(path, "writing", e))?;
    vfs.sync_file(path).map_err(|e| io_err(path, "syncing", e))
}

/// Writes a segment file straight from an arena's rows through an
/// injectable [`Vfs`] (content write + fsync; the directory barrier is
/// the caller's, as with [`write_segment_with`]).
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

/// Reads and verifies a segment file.
pub fn read_segment(path: &Path) -> Result<Segment> {
    read_segment_with(&StdVfs, path)
}

/// [`read_segment`] through an injectable [`Vfs`].
pub fn read_segment_with(vfs: &dyn Vfs, path: &Path) -> Result<Segment> {
    let bytes = vfs.read(path).map_err(|e| io_err(path, "reading", e))?;
    decode_segment(&bytes).map_err(|e| storage_err(format!("{}: {e}", path.display())))
}

/// Reads and verifies a segment file directly into a columnar arena.
pub fn read_segment_arena_with(vfs: &dyn Vfs, path: &Path) -> Result<(u32, FilterArena)> {
    let bytes = vfs.read(path).map_err(|e| io_err(path, "reading", e))?;
    decode_segment_arena(&bytes).map_err(|e| storage_err(format!("{}: {e}", path.display())))
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn round_trip_preserves_everything() {
        let records = sample_records(5, 100);
        let bytes = encode_segment(3, 100, &refs(&records)).unwrap();
        let seg = decode_segment(&bytes).unwrap();
        assert_eq!(seg.shard, 3);
        assert_eq!(seg.filter_len, 100);
        assert_eq!(seg.records.len(), 5);
        for ((id, filter), rec) in records.iter().zip(&seg.records) {
            assert_eq!(*id, rec.id);
            assert_eq!(*filter, rec.filter);
        }
    }

    #[test]
    fn empty_segment_round_trips() {
        let bytes = encode_segment(0, 64, &[]).unwrap();
        let seg = decode_segment(&bytes).unwrap();
        assert!(seg.records.is_empty());
        assert_eq!(seg.filter_len, 64);
    }

    #[test]
    fn extension_is_detected() {
        let records = sample_records(2, 64);
        let mut bytes = encode_segment(0, 64, &refs(&records)).unwrap();
        bytes.push(0);
        assert!(matches!(
            decode_segment(&bytes).unwrap_err(),
            PprlError::Storage(_)
        ));
    }

    #[test]
    fn filter_length_mismatch_rejected_at_encode() {
        let f = BitVec::zeros(32);
        let err = encode_segment(0, 64, &[(1, &f)]).unwrap_err();
        assert!(matches!(err, PprlError::ShapeMismatch { .. }), "{err}");
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("pprl-index-segment-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("seg-0.seg");
        let records = sample_records(6, 120);
        write_segment(&path, 2, 120, &refs(&records)).unwrap();
        let seg = read_segment(&path).unwrap();
        assert_eq!(seg.records.len(), 6);
        assert_eq!(seg.shard, 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_file_is_storage_error() {
        let err = read_segment(Path::new("/nonexistent/seg.seg")).unwrap_err();
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

    #[test]
    fn arena_decode_round_trips_and_matches_record_decode() {
        for len in [63usize, 64, 100, 130] {
            let records = sample_records(7, len);
            let bytes = encode_segment(2, len, &refs(&records)).unwrap();
            let seg = decode_segment(&bytes).unwrap();
            let (shard, arena) = decode_segment_arena(&bytes).unwrap();
            assert_eq!(shard, 2);
            assert_eq!(arena.filter_len(), len);
            assert_eq!(arena.len(), seg.records.len());
            let mut expect: Vec<(u64, BitVec)> =
                seg.records.into_iter().map(|r| (r.id, r.filter)).collect();
            expect.sort_by_key(|(id, f)| (f.count_ones(), *id));
            for (i, (id, filter)) in expect.iter().enumerate() {
                let (got_id, got_filter) = arena.get(i).unwrap();
                assert_eq!(got_id, *id, "len={len} row {i}");
                assert_eq!(&got_filter, filter, "len={len} row {i}");
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
}
