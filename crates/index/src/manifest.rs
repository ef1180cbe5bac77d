//! The index manifest: the authoritative, checksummed catalogue of an
//! on-disk index.
//!
//! The manifest records the index configuration (filter geometry, shard
//! count, LSH routing parameters), the next segment id to allocate, and
//! which segment files belong to which shard. It is rewritten
//! atomically (write to `MANIFEST.tmp`, then rename, with fsync barriers
//! on the tmp file and the directory) so a crash mid-update leaves
//! either the old or the new manifest, never a torn one. Version-6
//! layout:
//!
//! ```text
//! magic       u32   "PMF1"
//! version     u16   6
//! flen        u32   filter length in bits
//! shards      u32   number of shards
//! lsh_seed    u64   Hamming-LSH routing seed
//! lsh_bits    u32   bits per LSH band key
//! flush_epoch u64   WAL flush epoch (see below)
//! next_seg    u64   next segment id to allocate
//! segs        u32   number of segment entries
//! quar        u32   number of quarantined-segment records
//! entry × segs, then quarantined × quar, each 12 bytes:
//!   shard     u32
//!   seg_id    u64
//! sum         u64   word_fold checksum of everything above
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
//! The image parses through `pprl_core::codec` with
//! [`PprlError::Storage`] as the error kind. Only version 6 decodes.
//! Version 5 (20-byte entries carrying each segment's popcount range),
//! version 4 (an FNV-1a trailer and the zeroed fields of a deleted
//! band-key summary) and the never-shipped versions 1–3 are typed
//! "unsupported manifest version" errors, never a checksum mismatch.

use crate::format::{io_err, storage_err};
use crate::vfs::{StdVfs, Vfs};
use pprl_core::codec::{append_checksum, checked_body, Reader};
use pprl_core::error::{PprlError, Result};
use std::path::{Path, PathBuf};

/// Manifest file magic ("PMF1").
const MANIFEST_MAGIC: u32 = 0x3146_4d50;
/// Manifest format version (6 = `(shard, seg_id)` entries only).
const MANIFEST_VERSION: u16 = 6;
/// Fixed bytes before the segment entries.
const HEADER_LEN: usize = 50;
/// Bytes per segment entry and per quarantined-segment record.
const ENTRY_LEN: usize = 12;

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
}

impl IndexConfig {
    /// Configuration with default routing parameters (seed 0x5eed,
    /// 16-bit band keys).
    pub fn new(filter_len: usize, num_shards: u32) -> Self {
        IndexConfig {
            filter_len,
            num_shards,
            lsh_seed: 0x5eed,
            lsh_bits: 16,
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
        Ok(())
    }
}

/// One catalogued segment: its shard and id. The quarantine ledger
/// lists segments by the same pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentEntry {
    /// Owning shard.
    pub shard: u32,
    /// Segment id (names the `seg-<id>.seg` file, or
    /// `quarantine/seg-<id>.seg` once quarantined).
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
    /// Health ledger of segments that failed verification at open and
    /// were moved to the `quarantine/` subdirectory instead of being
    /// served.
    pub quarantined: Vec<SegmentEntry>,
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

    /// Serialises the manifest to its (version 6) file image.
    pub fn encode(&self) -> Result<Vec<u8>> {
        let flen = u32::try_from(self.config.filter_len)
            .map_err(|_| PprlError::invalid("filter_len", "exceeds u32 bits"))?;
        let segs = u32::try_from(self.segments.len())
            .map_err(|_| PprlError::invalid("segments", "catalogue exceeds u32 entries"))?;
        let quar = u32::try_from(self.quarantined.len())
            .map_err(|_| PprlError::invalid("quarantined", "ledger exceeds u32 entries"))?;
        let mut out = Vec::with_capacity(
            HEADER_LEN + (self.segments.len() + self.quarantined.len()) * ENTRY_LEN + 8,
        );
        out.extend_from_slice(&MANIFEST_MAGIC.to_le_bytes());
        out.extend_from_slice(&MANIFEST_VERSION.to_le_bytes());
        out.extend_from_slice(&flen.to_le_bytes());
        out.extend_from_slice(&self.config.num_shards.to_le_bytes());
        out.extend_from_slice(&self.config.lsh_seed.to_le_bytes());
        out.extend_from_slice(&self.config.lsh_bits.to_le_bytes());
        out.extend_from_slice(&self.flush_epoch.to_le_bytes());
        out.extend_from_slice(&self.next_segment_id.to_le_bytes());
        out.extend_from_slice(&segs.to_le_bytes());
        out.extend_from_slice(&quar.to_le_bytes());
        for entry in self.segments.iter().chain(&self.quarantined) {
            out.extend_from_slice(&entry.shard.to_le_bytes());
            out.extend_from_slice(&entry.id.to_le_bytes());
        }
        append_checksum(&mut out);
        Ok(out)
    }

    /// Parses and verifies a version-6 manifest file image.
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
        let flush_epoch = header.u64()?;
        let next_segment_id = header.u64()?;
        let segs = header.u32()? as usize;
        let quar = header.u32()? as usize;
        // Sized in u64, where u32 counts cannot overflow.
        let expected = (HEADER_LEN + 8) as u64 + (segs as u64 + quar as u64) * ENTRY_LEN as u64;
        if bytes.len() as u64 != expected {
            return Err(storage_err(format!(
                "manifest size mismatch: header declares {segs} segment entries \
                 ({expected} bytes total), file has {}",
                bytes.len()
            )));
        }
        let body = checked_body(bytes, PprlError::Storage)?;
        let mut r = Reader::new(&body[HEADER_LEN..], PprlError::Storage);
        let mut entries = (0..segs + quar).map(|i| {
            let shard = r.u32()?;
            if shard >= num_shards {
                return Err(storage_err(format!(
                    "manifest entry {i}: shard {shard} out of range ({num_shards} shards)"
                )));
            }
            Ok(SegmentEntry {
                shard,
                id: r.u64()?,
            })
        });
        let segments = entries.by_ref().take(segs).collect::<Result<Vec<_>>>()?;
        let quarantined = entries.collect::<Result<Vec<_>>>()?;
        r.finish()?;
        let config = IndexConfig {
            filter_len,
            num_shards,
            lsh_seed,
            lsh_bits,
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

    fn entry(shard: u32, id: u64) -> SegmentEntry {
        SegmentEntry { shard, id }
    }

    fn sample() -> Manifest {
        let mut m = Manifest::new(IndexConfig::new(1000, 4));
        m.flush_epoch = 9;
        m.next_segment_id = 5;
        m.segments = vec![entry(0, 0), entry(1, 1), entry(0, 2), entry(3, 4)];
        m.quarantined = vec![entry(2, 3)];
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
    }

    #[test]
    fn quarantine_ledger_round_trips() {
        let mut m = sample();
        m.quarantined = vec![entry(0, 11), entry(3, 7)];
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
    fn older_versions_are_a_typed_error() {
        let image = sample().encode().unwrap();
        for version in 1u16..6 {
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
        m.segments.push(entry(9, 7)); // only 4 shards configured
        let err = Manifest::decode(&m.encode().unwrap()).unwrap_err();
        assert!(matches!(err, PprlError::Storage(_)), "{err}");
        let mut m = sample();
        m.quarantined.push(entry(4, 8));
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
    }
}
