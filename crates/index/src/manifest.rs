//! The index manifest: the authoritative, checksummed catalogue of an
//! on-disk index.
//!
//! The manifest records the index configuration (filter geometry, shard
//! count, LSH routing parameters, band-key summary geometry), the next
//! segment id to allocate, and which segment files belong to which
//! shard. It is rewritten atomically (write to `MANIFEST.tmp`, then
//! rename, with fsync barriers on the tmp file and the directory) so a
//! crash mid-update leaves either the old or the new manifest, never a
//! torn one. Version-4 layout:
//!
//! ```text
//! magic       u32   "PMF1"
//! version     u16   4
//! flen        u32   filter length in bits
//! shards      u32   number of shards
//! lsh_seed    u64   Hamming-LSH routing seed
//! lsh_bits    u32   bits per LSH band key
//! sum_tables  u16   band-key summary tables (0 = summaries disabled)
//! sum_bits    u16   sampled positions per summary table
//! flush_epoch u64   WAL flush epoch (see below)
//! next_seg    u64   next segment id to allocate
//! segs        u32   number of segment entries
//! quar        u32   number of quarantined-segment records
//! entry_len   u32   total bytes of the entry region (entries vary in size)
//! entry × segs:
//!   shard     u32
//!   seg_id    u64
//!   pc_min    u32   smallest filter popcount in the segment
//!   pc_max    u32   largest filter popcount in the segment
//!   sum_words u32   Bloom words following (0 = no summary stored)
//!   words     sum_words × u64
//! quarantined × quar:
//!   shard     u32
//!   seg_id    u64
//! fnv1a       u64   checksum of everything above
//! ```
//!
//! `flush_epoch` counts WAL→segment flushes and is stamped into the WAL
//! header each time the log is reset: a crash *between* the manifest
//! swap and the WAL reset leaves a stale WAL whose epoch lags the
//! manifest, so replay can discard those already-flushed entries instead
//! of doubling them. The quarantine records are the index's health
//! ledger: segments whose file failed verification at open were moved to
//! `quarantine/` and remain listed here until an operator intervenes,
//! letting every stats surface report degraded reads honestly.
//!
//! The per-segment popcount bounds enable length pruning (a threshold
//! query whose Dice length bounds cannot intersect `[pc_min, pc_max]`
//! skips the segment) and the per-segment band-key Bloom summary enables
//! *content* pruning (see [`crate::summary`]) — both before the segment
//! file is ever read.
//!
//! The image parses through `pprl_core::codec` with
//! [`PprlError::Storage`] as the error kind. Only version 4 decodes:
//! versions 1–3 never shipped, so any other version byte is a typed
//! "unsupported manifest version" error.

use crate::format::{io_err, storage_err};
use crate::summary::{BandKeySummary, SummaryConfig};
use crate::vfs::{StdVfs, Vfs};
use pprl_core::codec::{append_checksum, checked_body, Reader};
use pprl_core::error::{PprlError, Result};
use std::path::{Path, PathBuf};

/// Manifest file magic ("PMF1").
const MANIFEST_MAGIC: u32 = 0x3146_4d50;
/// Manifest format version (4 = flush epoch + quarantine ledger).
const MANIFEST_VERSION: u16 = 4;
/// Fixed bytes before the segment entries.
const HEADER_LEN: usize = 58;
/// Fixed bytes per segment entry before its variable Bloom words.
const ENTRY_FIXED_LEN: usize = 24;
/// Bytes per quarantined-segment record.
const QUAR_ENTRY_LEN: usize = 12;
/// Largest admissible per-segment summary, in u64 words (16 KiB).
const MAX_SUMMARY_WORDS: usize = 131_072 / 64;

/// Manifest file name inside an index directory.
pub const MANIFEST_FILE: &str = "MANIFEST";

/// Immutable index configuration, fixed at creation time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexConfig {
    /// Bloom-filter length in bits; every stored record must match.
    pub filter_len: usize,
    /// Number of shards records are routed across.
    pub num_shards: u32,
    /// Seed for the Hamming-LSH shard router.
    pub lsh_seed: u64,
    /// Sampled bits per LSH band key used for routing.
    pub lsh_bits: u32,
    /// Band-key summary geometry (disabled when `tables == 0`).
    pub summary: SummaryConfig,
}

impl IndexConfig {
    /// Configuration with default routing parameters (seed 0x5eed,
    /// 16-bit band keys) and the default summary geometry when the
    /// filter is long enough to support it.
    pub fn new(filter_len: usize, num_shards: u32) -> Self {
        IndexConfig {
            filter_len,
            num_shards,
            lsh_seed: 0x5eed,
            lsh_bits: 16,
            summary: SummaryConfig::for_filter_len(filter_len),
        }
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<()> {
        if self.filter_len == 0 {
            return Err(PprlError::invalid("filter_len", "must be positive"));
        }
        if self.num_shards == 0 {
            return Err(PprlError::invalid("num_shards", "must be positive"));
        }
        if self.lsh_bits == 0 {
            return Err(PprlError::invalid("lsh_bits", "must be positive"));
        }
        if self.summary.enabled() {
            if self.summary.bits > 64 {
                return Err(PprlError::invalid("summary.bits", "must be at most 64"));
            }
            let need = self.summary.tables as usize * self.summary.bits as usize;
            if self.filter_len < need {
                return Err(PprlError::invalid(
                    "summary",
                    "tables × bits exceeds the filter length",
                ));
            }
        }
        Ok(())
    }
}

/// One catalogued segment: its shard, id, filter-popcount range and
/// optional band-key Bloom summary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentEntry {
    /// Owning shard.
    pub shard: u32,
    /// Segment id (names the `seg-<id>.seg` file).
    pub id: u64,
    /// Smallest filter popcount stored in the segment.
    pub pc_min: u32,
    /// Largest filter popcount stored in the segment.
    pub pc_max: u32,
    /// Band-key Bloom summary over the segment's filters, when the index
    /// was built with summaries enabled.
    pub summary: Option<BandKeySummary>,
}

impl SegmentEntry {
    /// True when the segment may hold filters with a popcount in
    /// `[lo, hi]` — false means a query bounded to that range can skip
    /// the segment without reading it.
    pub fn intersects(&self, lo: usize, hi: usize) -> bool {
        (self.pc_min as usize) <= hi && lo <= (self.pc_max as usize)
    }
}

/// A segment that failed verification at open and was moved to the
/// `quarantine/` subdirectory instead of being served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuarantinedSegment {
    /// Shard the segment belonged to.
    pub shard: u32,
    /// Segment id (the file now lives at `quarantine/seg-<id>.seg`).
    pub id: u64,
}

/// The manifest: configuration plus the current segment catalogue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Index configuration.
    pub config: IndexConfig,
    /// WAL flush epoch: incremented on every WAL→segment flush and
    /// stamped into the WAL header, so replay can recognise (and
    /// discard) a stale log that survived a crash after the manifest
    /// swap but before the WAL reset.
    pub flush_epoch: u64,
    /// Next segment id to allocate.
    pub next_segment_id: u64,
    /// Segment entries, in catalogue order.
    pub segments: Vec<SegmentEntry>,
    /// Health ledger of segments quarantined at open.
    pub quarantined: Vec<QuarantinedSegment>,
}

impl Manifest {
    /// A fresh manifest for a new, empty index.
    pub fn new(config: IndexConfig) -> Self {
        Manifest {
            config,
            flush_epoch: 0,
            next_segment_id: 0,
            segments: Vec::new(),
            quarantined: Vec::new(),
        }
    }

    /// Segment entries belonging to `shard`, in catalogue order.
    pub fn shard_segments(&self, shard: u32) -> Vec<SegmentEntry> {
        self.segments
            .iter()
            .filter(|e| e.shard == shard)
            .cloned()
            .collect()
    }

    /// Serialises the manifest to its (version 4) file image.
    pub fn encode(&self) -> Result<Vec<u8>> {
        let flen = u32::try_from(self.config.filter_len)
            .map_err(|_| PprlError::invalid("filter_len", "exceeds u32 bits"))?;
        let segs = u32::try_from(self.segments.len())
            .map_err(|_| PprlError::invalid("segments", "catalogue exceeds u32 entries"))?;
        let quar = u32::try_from(self.quarantined.len())
            .map_err(|_| PprlError::invalid("quarantined", "ledger exceeds u32 entries"))?;
        let mut entry_bytes = 0usize;
        for entry in &self.segments {
            let words = entry.summary.as_ref().map_or(0, |s| s.words().len());
            if words > MAX_SUMMARY_WORDS {
                return Err(PprlError::invalid(
                    "summary",
                    "segment summary exceeds the size cap",
                ));
            }
            entry_bytes += ENTRY_FIXED_LEN + words * 8;
        }
        let entry_bytes_u32 = u32::try_from(entry_bytes)
            .map_err(|_| PprlError::invalid("segments", "entry region exceeds u32 bytes"))?;
        let mut out = Vec::with_capacity(
            HEADER_LEN + entry_bytes + self.quarantined.len() * QUAR_ENTRY_LEN + 8,
        );
        out.extend_from_slice(&MANIFEST_MAGIC.to_le_bytes());
        out.extend_from_slice(&MANIFEST_VERSION.to_le_bytes());
        out.extend_from_slice(&flen.to_le_bytes());
        out.extend_from_slice(&self.config.num_shards.to_le_bytes());
        out.extend_from_slice(&self.config.lsh_seed.to_le_bytes());
        out.extend_from_slice(&self.config.lsh_bits.to_le_bytes());
        out.extend_from_slice(&self.config.summary.tables.to_le_bytes());
        out.extend_from_slice(&self.config.summary.bits.to_le_bytes());
        out.extend_from_slice(&self.flush_epoch.to_le_bytes());
        out.extend_from_slice(&self.next_segment_id.to_le_bytes());
        out.extend_from_slice(&segs.to_le_bytes());
        out.extend_from_slice(&quar.to_le_bytes());
        out.extend_from_slice(&entry_bytes_u32.to_le_bytes());
        for entry in &self.segments {
            out.extend_from_slice(&entry.shard.to_le_bytes());
            out.extend_from_slice(&entry.id.to_le_bytes());
            out.extend_from_slice(&entry.pc_min.to_le_bytes());
            out.extend_from_slice(&entry.pc_max.to_le_bytes());
            match &entry.summary {
                None => out.extend_from_slice(&0u32.to_le_bytes()),
                Some(s) => {
                    out.extend_from_slice(&(s.words().len() as u32).to_le_bytes());
                    for w in s.words() {
                        out.extend_from_slice(&w.to_le_bytes());
                    }
                }
            }
        }
        for q in &self.quarantined {
            out.extend_from_slice(&q.shard.to_le_bytes());
            out.extend_from_slice(&q.id.to_le_bytes());
        }
        append_checksum(&mut out);
        Ok(out)
    }

    /// Parses and verifies a version-4 manifest file image.
    pub fn decode(bytes: &[u8]) -> Result<Manifest> {
        let mut header = Reader::new(bytes, PprlError::Storage);
        let magic = header.u32()?;
        if magic != MANIFEST_MAGIC {
            return Err(storage_err(format!(
                "not a manifest file (magic {magic:#x})"
            )));
        }
        let version = header.u16()?;
        if version != MANIFEST_VERSION {
            return Err(storage_err(format!(
                "unsupported manifest version {version}"
            )));
        }
        let filter_len = header.u32()? as usize;
        let num_shards = header.u32()?;
        let lsh_seed = header.u64()?;
        let lsh_bits = header.u32()?;
        let summary = SummaryConfig {
            tables: header.u16()?,
            bits: header.u16()?,
        };
        let flush_epoch = header.u64()?;
        let next_segment_id = header.u64()?;
        let segs = header.u32()? as usize;
        let quar = header.u32()? as usize;
        let entry_bytes = header.u32()? as usize;
        let expected = quar
            .checked_mul(QUAR_ENTRY_LEN)
            .and_then(|n| n.checked_add(HEADER_LEN + 8 + entry_bytes))
            .ok_or_else(|| storage_err("manifest entry region overflows".to_string()))?;
        if bytes.len() != expected {
            return Err(storage_err(format!(
                "manifest size mismatch: header declares {segs} segment entries \
                 ({expected} bytes total), file has {}",
                bytes.len()
            )));
        }
        let body = checked_body(bytes, PprlError::Storage)?;
        let mut r = Reader::new(&body[HEADER_LEN..], PprlError::Storage);
        let mut segments = Vec::with_capacity(segs.min(entry_bytes / ENTRY_FIXED_LEN));
        for i in 0..segs {
            let shard = r.u32()?;
            if shard >= num_shards {
                return Err(storage_err(format!(
                    "manifest entry {i}: shard {shard} out of range ({num_shards} shards)"
                )));
            }
            let id = r.u64()?;
            let (pc_min, pc_max) = (r.u32()?, r.u32()?);
            if pc_min > pc_max {
                return Err(storage_err(format!(
                    "manifest entry {i}: popcount bounds inverted ({pc_min} > {pc_max})"
                )));
            }
            let sum_words = r.u32()? as usize;
            let entry_summary = if sum_words == 0 {
                None
            } else {
                if sum_words > MAX_SUMMARY_WORDS || !sum_words.is_power_of_two() {
                    return Err(storage_err(format!(
                        "manifest entry {i}: invalid summary size ({sum_words} words)"
                    )));
                }
                let words = (0..sum_words).map(|_| r.u64()).collect::<Result<_>>()?;
                Some(BandKeySummary::from_words(words))
            };
            segments.push(SegmentEntry {
                shard,
                id,
                pc_min,
                pc_max,
                summary: entry_summary,
            });
        }
        let mut quarantined = Vec::with_capacity(quar);
        for _ in 0..quar {
            let shard = r.u32()?;
            let id = r.u64()?;
            quarantined.push(QuarantinedSegment { shard, id });
        }
        r.finish()?;
        let config = IndexConfig {
            filter_len,
            num_shards,
            lsh_seed,
            lsh_bits,
            summary,
        };
        config
            .validate()
            .map_err(|e| storage_err(format!("manifest config invalid: {e}")))?;
        Ok(Manifest {
            config,
            flush_epoch,
            next_segment_id,
            segments,
            quarantined,
        })
    }

    /// Atomically and durably persists the manifest into `dir` through
    /// `vfs`: write `MANIFEST.tmp`, fsync it, rename over `MANIFEST`,
    /// fsync the directory. After this returns, a crash at any point
    /// leaves either the old or the new manifest — never a torn or
    /// vanished one.
    pub fn save_with(&self, vfs: &dyn Vfs, dir: &Path) -> Result<()> {
        let bytes = self.encode()?;
        let tmp = dir.join("MANIFEST.tmp");
        let path = dir.join(MANIFEST_FILE);
        vfs.write(&tmp, &bytes)
            .map_err(|e| io_err(&tmp, "writing", e))?;
        vfs.sync_file(&tmp)
            .map_err(|e| io_err(&tmp, "syncing", e))?;
        vfs.rename(&tmp, &path)
            .map_err(|e| io_err(&path, "renaming manifest into", e))?;
        vfs.sync_dir(dir)
            .map_err(|e| io_err(dir, "syncing directory", e))
    }

    /// [`Manifest::save_with`] on the real filesystem.
    pub fn save(&self, dir: &Path) -> Result<()> {
        self.save_with(&StdVfs, dir)
    }

    /// Loads and verifies the manifest from `dir` through `vfs`.
    pub fn load_with(vfs: &dyn Vfs, dir: &Path) -> Result<Manifest> {
        let path = dir.join(MANIFEST_FILE);
        let bytes = vfs.read(&path).map_err(|e| io_err(&path, "reading", e))?;
        Manifest::decode(&bytes).map_err(|e| storage_err(format!("{}: {e}", path.display())))
    }

    /// [`Manifest::load_with`] on the real filesystem.
    pub fn load(dir: &Path) -> Result<Manifest> {
        Manifest::load_with(&StdVfs, dir)
    }
}

/// Path of segment `seg_id` inside `dir`.
pub fn segment_path(dir: &Path, seg_id: u64) -> PathBuf {
    dir.join(format!("seg-{seg_id}.seg"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(shard: u32, id: u64, pc_min: u32, pc_max: u32) -> SegmentEntry {
        SegmentEntry {
            shard,
            id,
            pc_min,
            pc_max,
            summary: None,
        }
    }

    fn entry_with_summary(shard: u32, id: u64, pc_min: u32, pc_max: u32) -> SegmentEntry {
        let mut summary = BandKeySummary::with_capacity(64, 8);
        for t in 0..8usize {
            summary.insert(t, id ^ ((t as u64) << 8));
        }
        SegmentEntry {
            shard,
            id,
            pc_min,
            pc_max,
            summary: Some(summary),
        }
    }

    fn sample() -> Manifest {
        let mut m = Manifest::new(IndexConfig::new(1000, 4));
        m.flush_epoch = 9;
        m.next_segment_id = 5;
        m.segments = vec![
            entry_with_summary(0, 0, 10, 250),
            entry(1, 1, 5, 40),
            entry_with_summary(0, 2, 100, 300),
            entry(3, 4, 0, 1000),
        ];
        m.quarantined = vec![QuarantinedSegment { shard: 2, id: 3 }];
        m
    }

    #[test]
    fn round_trip() {
        let m = sample();
        let decoded = Manifest::decode(&m.encode().unwrap()).unwrap();
        assert_eq!(m, decoded);
        assert_eq!(
            decoded
                .shard_segments(0)
                .iter()
                .map(|e| e.id)
                .collect::<Vec<_>>(),
            vec![0, 2]
        );
        assert!(decoded.shard_segments(2).is_empty());
        assert!(decoded.segments[0].summary.is_some());
        assert!(decoded.segments[1].summary.is_none());
    }

    #[test]
    fn popcount_intersection_decides_pruning() {
        let e = entry(0, 0, 10, 20);
        assert!(e.intersects(0, 10));
        assert!(e.intersects(20, 99));
        assert!(e.intersects(12, 15));
        assert!(e.intersects(0, usize::MAX));
        assert!(!e.intersects(0, 9));
        assert!(!e.intersects(21, 99));
    }

    #[test]
    fn quarantine_ledger_round_trips() {
        let mut m = sample();
        m.quarantined = vec![
            QuarantinedSegment { shard: 0, id: 11 },
            QuarantinedSegment { shard: 3, id: 7 },
        ];
        let decoded = Manifest::decode(&m.encode().unwrap()).unwrap();
        assert_eq!(decoded.quarantined, m.quarantined);
        assert_eq!(decoded.flush_epoch, m.flush_epoch);
    }

    #[test]
    fn save_through_fault_vfs_is_crash_atomic() {
        use crate::vfs::{FaultPlan, FaultVfs};
        let dir = Path::new("/idx");
        let vfs = FaultVfs::new(FaultPlan {
            seed: 5,
            ..FaultPlan::none()
        });
        vfs.create_dir_all(dir).unwrap();
        let m = sample();
        m.save_with(&*vfs, dir).unwrap();
        let mut m2 = m.clone();
        m2.next_segment_id = 42;
        m2.save_with(&*vfs, dir).unwrap();
        // A crash after a fully barriered save must preserve the *new*
        // manifest exactly.
        vfs.crash_and_recover();
        assert_eq!(Manifest::load_with(&*vfs, dir).unwrap(), m2);
    }

    #[test]
    fn inverted_popcount_bounds_rejected() {
        let mut m = sample();
        m.segments[0] = entry(0, 0, 50, 10);
        let err = Manifest::decode(&m.encode().unwrap()).unwrap_err();
        assert!(matches!(err, PprlError::Storage(_)), "{err}");
    }

    #[test]
    fn versions_that_never_shipped_are_a_typed_error() {
        let image = sample().encode().unwrap();
        for version in 1u16..4 {
            let mut old = image[..image.len() - 8].to_vec();
            old[4..6].copy_from_slice(&version.to_le_bytes());
            append_checksum(&mut old);
            match Manifest::decode(&old) {
                Err(PprlError::Storage(msg)) => assert!(
                    msg.contains(&format!("unsupported manifest version {version}")),
                    "{msg}"
                ),
                other => panic!("version {version}: {other:?}"),
            }
        }
    }

    #[test]
    fn out_of_range_shard_rejected() {
        let mut m = sample();
        m.segments.push(entry(9, 7, 0, 1)); // only 4 shards configured
        let err = Manifest::decode(&m.encode().unwrap()).unwrap_err();
        assert!(matches!(err, PprlError::Storage(_)), "{err}");
    }

    #[test]
    fn save_load_round_trip_is_atomic() {
        let dir = std::env::temp_dir().join("pprl-index-manifest-test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let m = sample();
        m.save(&dir).unwrap();
        assert!(!dir.join("MANIFEST.tmp").exists());
        assert_eq!(Manifest::load(&dir).unwrap(), m);
        // Overwrite with a changed manifest: rename replaces atomically.
        let mut m2 = m.clone();
        m2.next_segment_id = 6;
        m2.save(&dir).unwrap();
        assert_eq!(Manifest::load(&dir).unwrap(), m2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn invalid_config_rejected() {
        assert!(IndexConfig::new(0, 4).validate().is_err());
        assert!(IndexConfig::new(64, 0).validate().is_err());
        // Summary geometry must fit inside the filter.
        let mut c = IndexConfig::new(1000, 4);
        c.summary = SummaryConfig {
            tables: 100,
            bits: 16,
        };
        assert!(c.validate().is_err());
        c.summary = SummaryConfig {
            tables: 2,
            bits: 65,
        };
        assert!(c.validate().is_err());
    }
}
