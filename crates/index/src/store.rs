//! The persistent index store: WAL-backed inserts, manifest-coordinated
//! segment flushes, and background-style compaction.
//!
//! An [`IndexStore`] owns one index directory. Inserts are appended to a
//! write-ahead log (`wal.log`, per-entry checksums) and — under the
//! default [`DurabilityMode::Always`] — fsynced before the call
//! returns, so an acked insert survives a crash before the next flush;
//! [`IndexStore::flush`] groups pending records by shard, writes (and
//! fsyncs) one immutable segment per non-empty shard, syncs the
//! directory, commits the new catalogue to the manifest (fsynced tmp +
//! rename + directory fsync) and then resets the log under a new flush
//! epoch. [`IndexStore::compact`] merges each shard's segments into a
//! single popcount-sorted segment, which keeps per-shard file counts
//! bounded under incremental insert workloads.
//!
//! All file IO goes through an injectable [`Vfs`] (see
//! [`StoreOptions`]), so the crash-recovery property tests drive the
//! identical code paths against a deterministic in-memory
//! [`crate::vfs::FaultVfs`]. Recovery distinguishes benign crash
//! artefacts (a torn WAL tail, a stale-epoch log left by a crash
//! between the manifest swap and the WAL reset — both repaired
//! silently on open) from real corruption (a flipped byte mid-file is
//! a typed [`PprlError::Storage`] error naming the byte offset). A
//! catalogued segment that fails verification at open is moved to the
//! `quarantine/` subdirectory and recorded in the manifest's health
//! ledger, so the surviving index still opens and serves degraded
//! reads instead of refusing entirely.
//!
//! Records are routed to shards by the FNV-1a hash of their Hamming-LSH
//! band key (table 0 of a [`pprl_blocking::lsh::HammingLsh`] built from
//! the manifest's routing seed), so Hamming-similar filters tend to
//! co-locate and the routing is stable across process restarts.

use crate::arena::{ArenaBuilder, FilterArena};
use crate::format::{io_err, storage_err};
use crate::manifest::{segment_path, Manifest, SegmentEntry};
use crate::query::{ArenaCell, IndexReader, SlotSpec};
use crate::segment::{
    load_row, push_entry, read_entry, read_segment_arena_with, read_segment_with,
    record_count_for_size, write_segment_arena_with,
};
use crate::summary::{band_keys_words_into, summary_positions, BandKeySummary};
use crate::vfs::{std_vfs, Vfs};
use pprl_blocking::lsh::HammingLsh;
use pprl_core::bitvec::BitVec;
use pprl_core::codec::{append_checksum, checked_body, Reader};
use pprl_core::error::{PprlError, Result};
use pprl_core::gauge::foreground;
use pprl_core::hash::fnv1a;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

pub use crate::manifest::{IndexConfig, QuarantinedSegment, MANIFEST_FILE};

/// WAL file name inside an index directory.
pub const WAL_FILE: &str = "wal.log";

/// Subdirectory segments that fail verification at open are moved to.
pub const QUARANTINE_DIR: &str = "quarantine";

/// WAL file magic ("PWL1").
const WAL_MAGIC: u32 = 0x314c_5750;
/// WAL format version (2 = flush epoch + header checksum; version 1
/// never shipped and is a typed error).
const WAL_VERSION: u16 = 2;
/// WAL header bytes: `magic u32 | version u16 | flen u32 | flush_epoch
/// u64 | fnv1a u64`, the checksum covering the preceding 18 bytes. A
/// flipped header byte is therefore a typed error, while a short header
/// can only be a torn creation — benign and repairable.
const WAL_HEADER_LEN: usize = 26;

/// Summary of an index's on-disk and in-log state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexStats {
    /// Filter length in bits.
    pub filter_len: usize,
    /// Configured shard count.
    pub num_shards: u32,
    /// Number of segment files.
    pub segments: usize,
    /// Records persisted in segments.
    pub persisted_records: usize,
    /// Records pending in the write-ahead log.
    pub pending_records: usize,
    /// Total bytes of segment + log + manifest files.
    pub disk_bytes: u64,
    /// Segments quarantined at open (0 = healthy; > 0 = the index
    /// serves degraded reads over the surviving segments).
    pub quarantined_segments: usize,
}

/// What an [`IndexReader`] read from disk and scanned.
///
/// `bytes_read` and `segments_read` count only what *this* reader (or
/// the call that built it) pulled from disk. A lazy reader's segment
/// that an earlier generation already materialised is inherited through
/// the store's shared cell and counts as neither read nor skipped.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReadStats {
    /// Bytes read (loaded segment files; plus manifest + log for
    /// [`IndexStore::reader_for_popcounts`]).
    pub bytes_read: u64,
    /// Segments decoded.
    pub segments_read: usize,
    /// Segments not resident: excluded up front by
    /// [`IndexStore::reader_for_popcounts`]' popcount range, or, for a
    /// lazy reader, not materialised by anyone yet (every query so far
    /// pruned them, or none ran).
    pub segments_skipped: usize,
    /// `(query, row)` pairs the scan kernel AND-popcounted (rows of
    /// tiles skipped by the threshold bound are not counted).
    pub rows_scanned: u64,
    /// Of `rows_scanned`, the rows that reached the f64 score and the
    /// top-k heap; `rows_scored / rows_scanned` is the scan's
    /// wasted-work ratio.
    pub rows_scored: u64,
    /// Of `rows_scanned`, the pairs scanned by helper threads lent to
    /// large calls (see [`pprl_core::runner`]); 0 when every call ran on its
    /// caller alone. In-process only: not part of server `STATS`.
    pub helper_rows: u64,
    /// Name of the dispatched scan-kernel path serving these reads
    /// (`"scalar"`, `"avx2"`, …; empty in a default-constructed value).
    pub kernel: &'static str,
}

/// When the WAL is fsynced relative to acking an insert.
///
/// The trade-off is the classic one: `Always` makes every acked insert
/// crash-durable at the cost of one fsync per batch; `Interval(n)`
/// amortises the fsync over `n` records and bounds the crash-loss
/// window to at most `n` acked records; `Never` leaves durability to
/// the next [`IndexStore::flush`] (or the OS), the fastest and least
/// safe setting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DurabilityMode {
    /// Fsync the WAL before every [`IndexStore::insert_batch`] returns.
    #[default]
    Always,
    /// Fsync once at least this many records have been appended since
    /// the last sync.
    Interval(u32),
    /// Never fsync the WAL on insert; segments and the manifest are
    /// still fsynced on flush.
    Never,
}

/// How an [`IndexStore`] talks to storage: the durability policy and
/// the [`Vfs`] implementation every file operation is routed through.
#[derive(Debug, Clone)]
pub struct StoreOptions {
    /// WAL fsync policy (default [`DurabilityMode::Always`]).
    pub durability: DurabilityMode,
    /// IO layer (default [`crate::vfs::StdVfs`]).
    pub vfs: Arc<dyn Vfs>,
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions {
            durability: DurabilityMode::Always,
            vfs: std_vfs(),
        }
    }
}

impl StoreOptions {
    /// Default durability on the given VFS — the common harness setup.
    pub fn with_vfs(vfs: Arc<dyn Vfs>) -> Self {
        StoreOptions {
            durability: DurabilityMode::Always,
            vfs,
        }
    }
}

/// Policy for [`IndexStore::compact_tiered`]: segments are grouped into
/// size tiers (tier `t` covers files of `min_bytes·growth^t` up to
/// `min_bytes·growth^(t+1)` bytes) and a tier is merged only once it
/// accumulates `min_segments` files. Small fresh segments therefore merge
/// often and cheaply, while a large settled segment is rewritten only
/// when enough peers of its own size exist — the classic size-tiered
/// bound on write amplification, which keeps individual compaction steps
/// short enough to run on a maintenance thread between queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TieredPolicy {
    /// Segments a tier must hold before it is merged (≥ 2).
    pub min_segments: usize,
    /// Size ratio between consecutive tiers (≥ 2).
    pub growth: u64,
    /// Floor of tier 0 in bytes; files smaller than this share a tier.
    pub min_bytes: u64,
}

impl Default for TieredPolicy {
    fn default() -> Self {
        TieredPolicy {
            min_segments: 4,
            growth: 4,
            min_bytes: 4096,
        }
    }
}

impl TieredPolicy {
    /// Validates the policy parameters.
    pub fn validate(&self) -> Result<()> {
        if self.min_segments < 2 {
            return Err(PprlError::invalid("min_segments", "must be at least 2"));
        }
        if self.growth < 2 {
            return Err(PprlError::invalid("growth", "must be at least 2"));
        }
        if self.min_bytes == 0 {
            return Err(PprlError::invalid("min_bytes", "must be positive"));
        }
        Ok(())
    }

    /// The size tier a segment of `bytes` belongs to.
    fn tier(&self, bytes: u64) -> u32 {
        let mut tier = 0u32;
        let mut ceiling = self.min_bytes;
        while bytes >= ceiling && tier < 63 {
            tier += 1;
            ceiling = ceiling.saturating_mul(self.growth);
        }
        tier
    }
}

/// What one [`IndexStore::compact_tiered`] step did. The rewritten
/// segment files in `obsolete` are **not** deleted by the store — they
/// stay on disk until the caller decides every reader of the previous
/// manifest generation has drained, then removes them via [`reclaim`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CompactionOutcome {
    /// Segments merged away (inputs of merges).
    pub merged_segments: usize,
    /// Replacement segments written.
    pub new_segments: usize,
    /// Records rewritten into the new segments.
    pub records_rewritten: usize,
    /// Old segment files superseded by the new manifest, awaiting
    /// [`reclaim`] once readers of the old generation drain.
    pub obsolete: Vec<PathBuf>,
}

impl CompactionOutcome {
    /// True when this step changed nothing (no tier was full).
    pub fn is_noop(&self) -> bool {
        self.merged_segments == 0
    }
}

/// What [`IndexStore::export_snapshot`] shipped.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SnapshotStats {
    /// Sealed segment files copied.
    pub segments: usize,
    /// Records the snapshot holds (sealed + WAL tail).
    pub records: usize,
    /// Segment bytes copied (excludes manifest and WAL image).
    pub bytes: u64,
}

/// Deletes segment files superseded by a compaction, once the caller
/// knows no reader of the old manifest generation remains. Returns how
/// many files were removed; a file already gone is not an error (crash
/// between manifest swap and reclaim leaves orphans that a later pass
/// may have cleaned).
pub fn reclaim(paths: &[PathBuf]) -> Result<usize> {
    reclaim_with(&crate::vfs::StdVfs, paths)
}

/// [`reclaim`] through an injectable [`Vfs`].
pub fn reclaim_with(vfs: &dyn Vfs, paths: &[PathBuf]) -> Result<usize> {
    let mut removed = 0usize;
    for path in paths {
        match vfs.remove_file(path) {
            Ok(()) => removed += 1,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(io_err(path, "reclaiming", e)),
        }
    }
    Ok(removed)
}

/// A persistent, sharded store of Bloom-filter-encoded records.
#[derive(Debug)]
pub struct IndexStore {
    dir: PathBuf,
    manifest: Manifest,
    /// Replayed + newly appended records not yet flushed to segments,
    /// held columnar (flat words + ids) in append order — the write
    /// path never materialises a per-record `BitVec`.
    pending: ArenaBuilder,
    /// Cached LSH bit positions (table 0) used for shard routing.
    routing_positions: Vec<usize>,
    /// Cached disjoint band-key position tables for segment summaries
    /// (empty when summaries are disabled).
    band_positions: Vec<Vec<usize>>,
    /// IO layer every file operation goes through.
    vfs: Arc<dyn Vfs>,
    /// WAL fsync policy.
    durability: DurabilityMode,
    /// Records appended since the last WAL fsync (Interval mode).
    wal_unsynced: u64,
    /// False after a failed WAL write: the on-disk log may be torn or
    /// carry a stale epoch, so it is rewritten from `pending` before
    /// the next append.
    wal_ok: bool,
    /// Materialised rows by segment id, shared with the lazy readers
    /// handed out so far: a generation swap re-reads nothing an earlier
    /// generation loaded. Sound because a segment file is immutable
    /// once a committed manifest names its id and ids are never reused
    /// after that; [`IndexStore::lazy_reader`] creates cells only for
    /// ids in the committed manifest and prunes the rest.
    arenas: Mutex<HashMap<u64, ArenaCell>>,
}

impl IndexStore {
    /// Creates a new, empty index in `dir` (which must not already hold
    /// one). The directory is created if missing.
    pub fn create(dir: &Path, config: IndexConfig) -> Result<IndexStore> {
        Self::create_with(dir, config, StoreOptions::default())
    }

    /// [`IndexStore::create`] with an explicit durability policy and
    /// IO layer.
    pub fn create_with(
        dir: &Path,
        config: IndexConfig,
        options: StoreOptions,
    ) -> Result<IndexStore> {
        config.validate()?;
        let vfs = options.vfs;
        vfs.create_dir_all(dir)
            .map_err(|e| io_err(dir, "creating", e))?;
        if vfs.exists(&dir.join(MANIFEST_FILE)) {
            return Err(storage_err(format!(
                "{} already holds an index (MANIFEST exists)",
                dir.display()
            )));
        }
        let manifest = Manifest::new(config);
        let wal = dir.join(WAL_FILE);
        let image = encode_wal_image(
            config.filter_len,
            manifest.flush_epoch,
            &ArenaBuilder::new(config.filter_len),
        );
        vfs.write(&wal, &image)
            .map_err(|e| io_err(&wal, "writing", e))?;
        vfs.sync_file(&wal)
            .map_err(|e| io_err(&wal, "syncing", e))?;
        // save_with ends in a directory fsync, which also persists the
        // fresh WAL's directory entry.
        manifest.save_with(&*vfs, dir)?;
        Ok(IndexStore {
            dir: dir.to_path_buf(),
            routing_positions: routing_positions(&config)?,
            band_positions: summary_positions(config.lsh_seed, config.filter_len, config.summary),
            manifest,
            pending: ArenaBuilder::new(config.filter_len),
            vfs,
            durability: options.durability,
            wal_unsynced: 0,
            wal_ok: true,
            arenas: Mutex::default(),
        })
    }

    /// Opens an existing index, replaying any pending log entries.
    ///
    /// A directory without a `MANIFEST` is reported as a typed
    /// [`PprlError::Storage`] error naming the directory — not a panic,
    /// and not a bare "file not found" that hides *which* file an index
    /// was expected to provide. A truncated or corrupted manifest
    /// likewise surfaces as a typed error from [`Manifest::load`].
    ///
    /// Open is also where crash recovery happens: a missing, torn, or
    /// stale-epoch WAL is repaired (rewritten with exactly the entries
    /// that survive the recovery rules; see [`DurabilityMode`] and the
    /// module docs), and every catalogued segment is fully verified —
    /// one that fails its checksum, length, or shard/geometry checks is
    /// moved to `quarantine/` and recorded in the manifest's health
    /// ledger rather than refusing the open. Check
    /// [`IndexStore::is_degraded`] after opening.
    pub fn open(dir: &Path) -> Result<IndexStore> {
        Self::open_with(dir, StoreOptions::default())
    }

    /// [`IndexStore::open`] with an explicit durability policy and IO
    /// layer.
    pub fn open_with(dir: &Path, options: StoreOptions) -> Result<IndexStore> {
        let vfs = options.vfs;
        if !vfs.exists(&dir.join(MANIFEST_FILE)) {
            return Err(storage_err(format!(
                "no index at {}: MANIFEST missing (not an index directory, \
                 or the manifest was deleted)",
                dir.display()
            )));
        }
        let mut manifest = Manifest::load_with(&*vfs, dir)?;
        let replay = replay_wal_with(
            &*vfs,
            &dir.join(WAL_FILE),
            manifest.config.filter_len,
            manifest.flush_epoch,
        )?;
        // Verify every catalogued segment up front; quarantine failures
        // instead of refusing to open. The full read costs one pass over
        // the index, paid once per open, and is what makes "the store
        // opened" mean "every segment it will serve is intact".
        let mut newly_quarantined = false;
        let mut kept = Vec::with_capacity(manifest.segments.len());
        for entry in std::mem::take(&mut manifest.segments) {
            match verify_segment(&*vfs, dir, &entry, manifest.config.filter_len) {
                Ok(()) => kept.push(entry),
                Err(_) => {
                    quarantine_segment(&*vfs, dir, entry.id)?;
                    manifest.quarantined.push(QuarantinedSegment {
                        shard: entry.shard,
                        id: entry.id,
                    });
                    newly_quarantined = true;
                }
            }
        }
        manifest.segments = kept;
        if newly_quarantined {
            manifest.save_with(&*vfs, dir)?;
        }
        let mut store = IndexStore {
            dir: dir.to_path_buf(),
            routing_positions: routing_positions(&manifest.config)?,
            band_positions: summary_positions(
                manifest.config.lsh_seed,
                manifest.config.filter_len,
                manifest.config.summary,
            ),
            manifest,
            pending: replay.records,
            vfs,
            durability: options.durability,
            wal_unsynced: 0,
            wal_ok: true,
            arenas: Mutex::default(),
        };
        if replay.repair {
            // Rewrite the log so the torn/stale bytes are gone before
            // any new append lands after them.
            store.rewrite_wal()?;
            store
                .vfs
                .sync_dir(dir)
                .map_err(|e| io_err(dir, "syncing directory", e))?;
        }
        Ok(store)
    }

    /// The index configuration.
    pub fn config(&self) -> &IndexConfig {
        &self.manifest.config
    }

    /// The index directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Records pending in the log, not yet flushed to segments.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// The WAL-resident records themselves, columnar, in append order.
    /// Exactly what a reopen after a crash would replay.
    pub fn pending(&self) -> &ArenaBuilder {
        &self.pending
    }

    /// Shard a filter routes to (stable across restarts).
    pub fn shard_of(&self, filter: &BitVec) -> Result<u32> {
        // `sample` also validates the positions are in range for this
        // filter; the word-slice fast path assumes store-length rows.
        filter.sample(&self.routing_positions)?;
        Ok(self.shard_of_words(filter.as_words()))
    }

    /// [`shard_of`] over a filter's backing words: builds the same LSH
    /// band-key bytes `BitVec::sample(..).to_bytes()` would (bit `j` of
    /// the key = filter bit `routing_positions[j]`) without allocating
    /// the intermediate `BitVec`, so routing stays bit-identical.
    ///
    /// [`shard_of`]: IndexStore::shard_of
    fn shard_of_words(&self, row: &[u64]) -> u32 {
        let mut key = vec![0u8; self.routing_positions.len().div_ceil(8)];
        for (j, &p) in self.routing_positions.iter().enumerate() {
            if (row[p / 64] >> (p % 64)) & 1 == 1 {
                key[j / 8] |= 1 << (j % 8);
            }
        }
        (fnv1a(&key) % u64::from(self.manifest.config.num_shards)) as u32
    }

    /// Appends records to the write-ahead log. Under
    /// [`DurabilityMode::Always`] (the default) the log is fsynced before
    /// this returns, so an acked batch survives a crash; see
    /// [`DurabilityMode`] for the weaker settings. Records become
    /// segment-resident on the next [`flush`].
    ///
    /// [`flush`]: IndexStore::flush
    pub fn insert_batch(&mut self, records: &[(u64, BitVec)]) -> Result<()> {
        let _busy = foreground();
        let flen = self.manifest.config.filter_len;
        for (id, filter) in records {
            if filter.len() != flen {
                return Err(PprlError::shape(
                    format!("{flen} bits"),
                    format!("{} bits for record {id}", filter.len()),
                ));
            }
        }
        let path = self.dir.join(WAL_FILE);
        if !self.wal_ok {
            // A previous write failed, so the on-disk log may be torn:
            // rebuild it from the authoritative in-memory pending set
            // before appending anything after the damage.
            self.rewrite_wal()?;
        }
        let mut buf = Vec::new();
        for (id, filter) in records {
            encode_wal_entry(&mut buf, *id, filter.as_words(), flen);
        }
        if let Err(e) = self.vfs.append(&path, &buf) {
            // The append may have half-landed (short write, crash,
            // ENOSPC). Best-effort repair now; if the disk is still
            // failing the flag makes the next insert retry the repair.
            self.wal_ok = false;
            if self.rewrite_wal().is_ok() {
                self.wal_ok = true;
            }
            return Err(io_err(&path, "appending to", e));
        }
        match self.durability {
            DurabilityMode::Always => {
                self.vfs
                    .sync_file(&path)
                    .map_err(|e| io_err(&path, "syncing", e))?;
            }
            DurabilityMode::Interval(n) => {
                self.wal_unsynced += records.len() as u64;
                if self.wal_unsynced >= u64::from(n.max(1)) {
                    self.vfs
                        .sync_file(&path)
                        .map_err(|e| io_err(&path, "syncing", e))?;
                    self.wal_unsynced = 0;
                }
            }
            DurabilityMode::Never => {}
        }
        for (id, filter) in records {
            self.pending
                .push_filter(*id, filter)
                .expect("length validated above; BitVec tail bits are zero by invariant");
        }
        Ok(())
    }

    /// Rewrites the log from scratch — header at the current flush epoch
    /// plus every pending record — and fsyncs it.
    fn rewrite_wal(&mut self) -> Result<()> {
        let path = self.dir.join(WAL_FILE);
        let image = encode_wal_image(
            self.manifest.config.filter_len,
            self.manifest.flush_epoch,
            &self.pending,
        );
        self.vfs
            .write(&path, &image)
            .map_err(|e| io_err(&path, "rewriting", e))?;
        self.vfs
            .sync_file(&path)
            .map_err(|e| io_err(&path, "syncing", e))?;
        self.wal_ok = true;
        self.wal_unsynced = 0;
        Ok(())
    }

    /// Flushes pending records into immutable segments: one new segment
    /// per non-empty shard, committed via the manifest, after which the
    /// log is reset. A no-op when nothing is pending.
    ///
    /// Barrier order: segment contents are fsynced by the segment
    /// writer, the directory is fsynced so their entries are durable
    /// *before* the manifest names them, the manifest commits under a
    /// bumped flush epoch (fsynced tmp + rename + dir fsync), and only
    /// then is the log reset under the new epoch. A crash anywhere in
    /// between leaves either the old manifest + intact WAL (the flush
    /// simply never happened) or the new manifest + a stale-epoch WAL
    /// that replay discards — never a double replay of flushed records.
    pub fn flush(&mut self) -> Result<()> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let _busy = foreground();
        let num_shards = self.manifest.config.num_shards;
        let flen = self.manifest.config.filter_len;
        // Route pending rows to shards by index — no per-record BitVec.
        let mut by_shard: Vec<Vec<u32>> = vec![Vec::new(); num_shards as usize];
        for i in 0..self.pending.len() {
            let shard = self.shard_of_words(self.pending.row(i));
            by_shard[shard as usize].push(i as u32);
        }
        let mut new_segments = Vec::new();
        for (shard, rows) in by_shard.iter().enumerate() {
            if rows.is_empty() {
                continue;
            }
            let mut builder = ArenaBuilder::with_capacity(flen, rows.len());
            for &i in rows {
                builder.push(self.pending.id(i as usize), self.pending.row(i as usize))?;
            }
            // Segments are written popcount-sorted, the arena's native
            // order, so later decodes and merges skip re-sorting.
            let arena = builder.finish();
            let seg_id = self.manifest.next_segment_id + new_segments.len() as u64;
            write_segment_arena_with(
                &*self.vfs,
                &segment_path(&self.dir, seg_id),
                shard as u32,
                &arena,
            )?;
            new_segments.push(entry_with_bounds_arena(
                shard as u32,
                seg_id,
                &arena,
                &self.band_positions,
            )?);
        }
        self.vfs
            .sync_dir(&self.dir)
            .map_err(|e| io_err(&self.dir, "syncing directory", e))?;
        // Commit on a scratch manifest so a failed save leaves the
        // in-memory state (and the next segment id) untouched; the
        // orphaned segment files are simply overwritten by a retry.
        let mut next = self.manifest.clone();
        next.next_segment_id += new_segments.len() as u64;
        next.segments.extend(new_segments);
        next.flush_epoch += 1;
        next.save_with(&*self.vfs, &self.dir)?;
        self.manifest = next;
        self.pending.clear();
        self.rewrite_wal()
    }

    /// Flushes, then merges every shard with more than one segment into a
    /// single popcount-sorted segment. Returns the number of segments
    /// reclaimed.
    pub fn compact(&mut self) -> Result<usize> {
        let _busy = foreground();
        self.flush()?;
        let num_shards = self.manifest.config.num_shards;
        let mut catalogue = Vec::new();
        let mut removed_paths = Vec::new();
        let mut reclaimed = 0usize;
        for shard in 0..num_shards {
            let entries = self.manifest.shard_segments(shard);
            if entries.len() < 2 {
                catalogue.extend(entries);
                continue;
            }
            let (entry, _) = self.merge_segments(shard, &entries)?;
            catalogue.push(entry);
            reclaimed += entries.len() - 1;
            removed_paths.extend(entries.iter().map(|e| segment_path(&self.dir, e.id)));
        }
        self.vfs
            .sync_dir(&self.dir)
            .map_err(|e| io_err(&self.dir, "syncing directory", e))?;
        self.manifest.segments = catalogue;
        self.manifest.save_with(&*self.vfs, &self.dir)?;
        // Only after the manifest commit is it safe to reclaim old files.
        for path in removed_paths {
            self.vfs
                .remove_file(&path)
                .map_err(|e| io_err(&path, "removing", e))?;
        }
        Ok(reclaimed)
    }

    /// One size-tiered compaction step: in every shard, each size tier
    /// (see [`TieredPolicy`]) holding at least `policy.min_segments`
    /// segments is merged into a single popcount-sorted segment. Unlike
    /// [`compact`], pending log records are left alone (flushing is the
    /// caller's cadence, not compaction's) and superseded segment files
    /// are **not** deleted — they are listed in
    /// [`CompactionOutcome::obsolete`] so a serving layer can hold them
    /// until every reader pinned to the previous manifest generation has
    /// drained, then [`reclaim`] them. The manifest swap itself is atomic
    /// (tmp + rename), so a crash at any point leaves a readable index.
    ///
    /// [`compact`]: IndexStore::compact
    pub fn compact_tiered(&mut self, policy: &TieredPolicy) -> Result<CompactionOutcome> {
        policy.validate()?;
        let _busy = foreground();
        let num_shards = self.manifest.config.num_shards;
        let mut catalogue = Vec::new();
        let mut outcome = CompactionOutcome::default();
        for shard in 0..num_shards {
            let entries = self.manifest.shard_segments(shard);
            if entries.len() < policy.min_segments {
                catalogue.extend(entries);
                continue;
            }
            // Group this shard's segments into size tiers.
            let mut tiers: std::collections::BTreeMap<u32, Vec<SegmentEntry>> =
                std::collections::BTreeMap::new();
            for entry in entries {
                let bytes = file_size_with(&*self.vfs, &segment_path(&self.dir, entry.id))?;
                tiers.entry(policy.tier(bytes)).or_default().push(entry);
            }
            for (_, members) in tiers {
                if members.len() < policy.min_segments {
                    catalogue.extend(members);
                    continue;
                }
                let (entry, records) = self.merge_segments(shard, &members)?;
                catalogue.push(entry);
                outcome.merged_segments += members.len();
                outcome.new_segments += 1;
                outcome.records_rewritten += records;
                outcome
                    .obsolete
                    .extend(members.iter().map(|e| segment_path(&self.dir, e.id)));
            }
        }
        if outcome.is_noop() {
            return Ok(outcome);
        }
        self.vfs
            .sync_dir(&self.dir)
            .map_err(|e| io_err(&self.dir, "syncing directory", e))?;
        self.manifest.segments = catalogue;
        self.manifest.save_with(&*self.vfs, &self.dir)?;
        Ok(outcome)
    }

    /// Loads `entries` (all of `shard`) as popcount-sorted arena runs
    /// and k-way merges them by `(popcount, id)` straight into one new
    /// segment file — rows stream from run slices into the output
    /// builder with no per-record `BitVec` and no re-sort (the merged
    /// order is already the arena order, so `finish` is a move).
    /// Returns the new manifest entry plus the row count. The old files
    /// are left untouched.
    ///
    /// Output bytes are identical to the old concatenate-then-
    /// stable-sort merge: the heap key ends with the run index, which
    /// reproduces a stable sort's tie-breaking by original (segment,
    /// entry) order.
    fn merge_segments(
        &mut self,
        shard: u32,
        entries: &[SegmentEntry],
    ) -> Result<(SegmentEntry, usize)> {
        let flen = self.manifest.config.filter_len;
        let mut runs = Vec::with_capacity(entries.len());
        for entry in entries {
            runs.push(self.load_segment_arena(entry.id, shard)?);
        }
        let total = runs.iter().map(|a| a.len()).sum();
        let mut builder = ArenaBuilder::with_capacity(flen, total);
        let mut cursor = vec![0usize; runs.len()];
        let mut heap = std::collections::BinaryHeap::with_capacity(runs.len());
        for (r, run) in runs.iter().enumerate() {
            if !run.is_empty() {
                heap.push(std::cmp::Reverse((run.popcount(0), run.id(0), r)));
            }
        }
        while let Some(std::cmp::Reverse((_, _, r))) = heap.pop() {
            let run = &runs[r];
            let i = cursor[r];
            builder.push(run.id(i), run.row(i))?;
            cursor[r] = i + 1;
            if i + 1 < run.len() {
                heap.push(std::cmp::Reverse((run.popcount(i + 1), run.id(i + 1), r)));
            }
        }
        let arena = builder.finish();
        let new_id = self.manifest.next_segment_id;
        self.manifest.next_segment_id += 1;
        write_segment_arena_with(&*self.vfs, &segment_path(&self.dir, new_id), shard, &arena)?;
        let entry = entry_with_bounds_arena(shard, new_id, &arena, &self.band_positions)?;
        Ok((entry, arena.len()))
    }

    /// Loads every segment plus pending records into an in-memory
    /// [`IndexReader`] for querying.
    pub fn reader(&self) -> Result<IndexReader> {
        Ok(self.reader_for_popcounts(0, usize::MAX)?.0)
    }

    /// Like [`reader`], but skips segments whose manifest popcount range
    /// `[pc_min, pc_max]` does not intersect `[lo, hi]` — those segment
    /// files are never opened. Pending (log-resident) records are always
    /// included, since the manifest holds no bounds for them. The returned
    /// [`ReadStats`] report what was actually read versus pruned.
    ///
    /// Pruning is lossless for queries whose candidates all have popcounts
    /// in `[lo, hi]` (e.g. the Dice length bound at a score threshold).
    ///
    /// [`reader`]: IndexStore::reader
    pub fn reader_for_popcounts(&self, lo: usize, hi: usize) -> Result<(IndexReader, ReadStats)> {
        let num_shards = self.manifest.config.num_shards as usize;
        let flen = self.manifest.config.filter_len;
        let mut stats = ReadStats {
            bytes_read: file_size_with(&*self.vfs, &self.dir.join(MANIFEST_FILE))?
                + file_size_with(&*self.vfs, &self.dir.join(WAL_FILE))?,
            kernel: pprl_similarity::kernel::kernel_name(),
            ..ReadStats::default()
        };
        // Each surviving segment decodes straight into its own arena
        // slot; per-shard builders gather the pending rows. No
        // per-record BitVec is materialised anywhere on this path.
        let mut specs = Vec::with_capacity(self.manifest.segments.len() + num_shards);
        for entry in &self.manifest.segments {
            if !entry.intersects(lo, hi) {
                stats.segments_skipped += 1;
                continue;
            }
            let arena = self.load_segment_arena(entry.id, entry.shard)?;
            stats.segments_read += 1;
            stats.bytes_read += file_size_with(&*self.vfs, &segment_path(&self.dir, entry.id))?;
            specs.push(SlotSpec::Memory(arena));
        }
        for builder in self.pending_by_shard()? {
            if !builder.is_empty() {
                specs.push(SlotSpec::Memory(builder.finish()));
            }
        }
        let mut reader =
            IndexReader::from_specs(specs, flen, num_shards, Vec::new(), Arc::clone(&self.vfs))?;
        reader.set_quarantined(self.manifest.quarantined.len());
        Ok((reader, stats))
    }

    /// Splits the pending buffer into one builder per shard (row order
    /// preserved within a shard).
    fn pending_by_shard(&self) -> Result<Vec<ArenaBuilder>> {
        let flen = self.manifest.config.filter_len;
        let num_shards = self.manifest.config.num_shards as usize;
        let mut out: Vec<ArenaBuilder> = (0..num_shards).map(|_| ArenaBuilder::new(flen)).collect();
        for i in 0..self.pending.len() {
            let shard = self.shard_of_words(self.pending.row(i)) as usize;
            out[shard].push(self.pending.id(i), self.pending.row(i))?;
        }
        Ok(out)
    }

    /// A reader that defers segment loading to query time: every segment
    /// becomes a lazily-materialised slot carrying its manifest popcount
    /// bounds and band-key summary, so a segment every query of a batch
    /// can prune (by length, content, or a full top-k) is never read at
    /// all. Pending records are memory-resident from the start. Unlike
    /// [`reader`], disk corruption in a pruned segment goes unnoticed
    /// until some query actually needs it — call
    /// [`IndexReader::materialise_all`] to force full verification.
    ///
    /// Segments an earlier lazy reader of this store already
    /// materialised are handed over resident (shared, not copied), so
    /// the reader built after a flush loads only the segments that flush
    /// wrote, and the one after a compaction only the merged output.
    ///
    /// [`reader`]: IndexStore::reader
    pub fn lazy_reader(&self) -> Result<IndexReader> {
        let flen = self.manifest.config.filter_len;
        let num_shards = self.manifest.config.num_shards as usize;
        let mut specs = Vec::with_capacity(self.manifest.segments.len() + num_shards);
        let mut arenas = self.arenas.lock().expect("arena map lock");
        let mut live: HashMap<u64, ArenaCell> =
            HashMap::with_capacity(self.manifest.segments.len());
        for entry in &self.manifest.segments {
            let path = segment_path(&self.dir, entry.id);
            let bytes = file_size_with(&*self.vfs, &path)?;
            let arena = arenas.get(&entry.id).cloned().unwrap_or_default();
            live.insert(entry.id, Arc::clone(&arena));
            specs.push(SlotSpec::File {
                path,
                shard: entry.shard,
                seg_id: entry.id,
                bytes,
                rows: record_count_for_size(bytes, flen),
                pc_min: entry.pc_min as usize,
                pc_max: entry.pc_max as usize,
                summary: entry.summary.clone(),
                arena,
            });
        }
        // Whatever the committed manifest no longer names is dropped
        // here; readers still pinned to it keep their own handles.
        *arenas = live;
        drop(arenas);
        for builder in self.pending_by_shard()? {
            if !builder.is_empty() {
                specs.push(SlotSpec::Memory(builder.finish()));
            }
        }
        let mut reader = IndexReader::from_specs(
            specs,
            flen,
            num_shards,
            self.band_positions.clone(),
            Arc::clone(&self.vfs),
        )?;
        reader.set_quarantined(self.manifest.quarantined.len());
        Ok(reader)
    }

    /// Total records in the index (segment-resident + pending), derived
    /// from segment file sizes without decoding any segment. Structural
    /// only: corruption inside a segment surfaces when it is actually
    /// read, not here.
    pub fn record_count(&self) -> Result<usize> {
        let flen = self.manifest.config.filter_len;
        let mut n = self.pending.len();
        for entry in &self.manifest.segments {
            let bytes = file_size_with(&*self.vfs, &segment_path(&self.dir, entry.id))?;
            n += crate::segment::record_count_for_size(bytes, flen);
        }
        Ok(n)
    }

    /// Verifies and summarises the index: every segment is fully decoded,
    /// so corruption anywhere surfaces here as a typed error.
    pub fn stats(&self) -> Result<IndexStats> {
        let mut persisted = 0usize;
        let mut disk_bytes = file_size_with(&*self.vfs, &self.dir.join(MANIFEST_FILE))?
            + file_size_with(&*self.vfs, &self.dir.join(WAL_FILE))?;
        for entry in &self.manifest.segments {
            let seg = self.load_segment(entry.id, entry.shard)?;
            persisted += seg.records.len();
            disk_bytes += file_size_with(&*self.vfs, &segment_path(&self.dir, entry.id))?;
        }
        Ok(IndexStats {
            filter_len: self.manifest.config.filter_len,
            num_shards: self.manifest.config.num_shards,
            segments: self.manifest.segments.len(),
            persisted_records: persisted,
            pending_records: self.pending.len(),
            disk_bytes,
            quarantined_segments: self.manifest.quarantined.len(),
        })
    }

    /// Segments quarantined at open, from the manifest's health ledger.
    pub fn quarantined(&self) -> &[QuarantinedSegment] {
        &self.manifest.quarantined
    }

    /// True when any segment has been quarantined: the index serves
    /// reads over the survivors only.
    pub fn is_degraded(&self) -> bool {
        !self.manifest.quarantined.is_empty()
    }

    /// Flush epochs committed so far (bumped once per non-empty flush).
    pub fn flush_epoch(&self) -> u64 {
        self.manifest.flush_epoch
    }

    /// The IO layer this store routes file operations through.
    pub fn vfs(&self) -> Arc<dyn Vfs> {
        Arc::clone(&self.vfs)
    }

    /// Exports a complete, self-contained snapshot of this index into
    /// `dest`: every sealed segment file is copied byte-for-byte
    /// (segments are immutable and carry their own checksums), a WAL
    /// image holding the not-yet-flushed tail is written at the
    /// manifest's flush epoch, and the manifest itself lands last via
    /// its usual tmp+fsync+rename swap — whose closing directory fsync
    /// also persists everything copied before it. Opening the copy
    /// replays the WAL tail and re-verifies every segment, so the
    /// replica is bit-identical to the donor at export time.
    ///
    /// This is the shipping half of cluster replication/rebalancing: a
    /// fresh shard node starts by receiving such a snapshot directory.
    /// A degraded donor (quarantined segments) is refused — replicas
    /// must be built from intact data — as is a `dest` that already
    /// holds an index.
    pub fn export_snapshot(&self, dest: &Path) -> Result<SnapshotStats> {
        if self.is_degraded() {
            return Err(storage_err(format!(
                "refusing to export a snapshot of a degraded index ({} \
                 quarantined segment(s) at {})",
                self.manifest.quarantined.len(),
                self.dir.display()
            )));
        }
        if self.vfs.exists(&dest.join(MANIFEST_FILE)) {
            return Err(storage_err(format!(
                "{} already holds an index (MANIFEST exists)",
                dest.display()
            )));
        }
        self.vfs
            .create_dir_all(dest)
            .map_err(|e| io_err(dest, "creating", e))?;
        let mut bytes = 0u64;
        for entry in &self.manifest.segments {
            let src = segment_path(&self.dir, entry.id);
            let data = self
                .vfs
                .read(&src)
                .map_err(|e| io_err(&src, "reading", e))?;
            bytes += data.len() as u64;
            let dst = segment_path(dest, entry.id);
            self.vfs
                .write(&dst, &data)
                .map_err(|e| io_err(&dst, "writing", e))?;
            self.vfs
                .sync_file(&dst)
                .map_err(|e| io_err(&dst, "syncing", e))?;
        }
        let image = encode_wal_image(
            self.manifest.config.filter_len,
            self.manifest.flush_epoch,
            &self.pending,
        );
        let wal = dest.join(WAL_FILE);
        self.vfs
            .write(&wal, &image)
            .map_err(|e| io_err(&wal, "writing", e))?;
        self.vfs
            .sync_file(&wal)
            .map_err(|e| io_err(&wal, "syncing", e))?;
        self.manifest.save_with(&*self.vfs, dest)?;
        Ok(SnapshotStats {
            segments: self.manifest.segments.len(),
            records: self.record_count()?,
            bytes,
        })
    }

    /// Opens a shipped snapshot directory, insisting it verifies clean:
    /// the usual open-time checks run (WAL replay, full segment
    /// verification), and any segment that fails — i.e. was corrupted
    /// in transit — turns the whole import into a typed
    /// [`PprlError::Storage`] error instead of a silently degraded
    /// replica. Use [`IndexStore::open`] for the forgiving behaviour.
    pub fn import_snapshot(dir: &Path) -> Result<IndexStore> {
        Self::import_snapshot_with(dir, StoreOptions::default())
    }

    /// [`IndexStore::import_snapshot`] with an explicit IO layer and
    /// durability policy.
    pub fn import_snapshot_with(dir: &Path, options: StoreOptions) -> Result<IndexStore> {
        let store = Self::open_with(dir, options)?;
        if store.is_degraded() {
            return Err(storage_err(format!(
                "snapshot at {} failed verification: {} segment(s) \
                 quarantined at open",
                dir.display(),
                store.quarantined().len()
            )));
        }
        Ok(store)
    }

    fn load_segment(&self, seg_id: u64, shard: u32) -> Result<crate::segment::Segment> {
        let seg = read_segment_with(&*self.vfs, &segment_path(&self.dir, seg_id))?;
        if seg.shard != shard {
            return Err(storage_err(format!(
                "segment {seg_id} claims shard {}, manifest says {shard}",
                seg.shard
            )));
        }
        if seg.filter_len != self.manifest.config.filter_len {
            return Err(storage_err(format!(
                "segment {seg_id} has {}-bit filters, index expects {}",
                seg.filter_len, self.manifest.config.filter_len
            )));
        }
        Ok(seg)
    }

    /// [`load_segment`] decoding straight into a columnar arena, with
    /// the same shard and geometry checks.
    ///
    /// [`load_segment`]: IndexStore::load_segment
    fn load_segment_arena(&self, seg_id: u64, shard: u32) -> Result<FilterArena> {
        let (seg_shard, arena) =
            read_segment_arena_with(&*self.vfs, &segment_path(&self.dir, seg_id))?;
        if seg_shard != shard {
            return Err(storage_err(format!(
                "segment {seg_id} claims shard {seg_shard}, manifest says {shard}"
            )));
        }
        if arena.filter_len() != self.manifest.config.filter_len {
            return Err(storage_err(format!(
                "segment {seg_id} has {}-bit filters, index expects {}",
                arena.filter_len(),
                self.manifest.config.filter_len
            )));
        }
        Ok(arena)
    }
}

fn routing_positions(config: &IndexConfig) -> Result<Vec<usize>> {
    let lsh = HammingLsh::new(1, config.lsh_bits as usize, config.lsh_seed)?;
    Ok(lsh.sampled_positions(config.filter_len).swap_remove(0))
}

/// Builds a manifest entry for a freshly written arena-backed segment:
/// the popcount bounds come straight off the sorted arena's ends, and
/// the band-key Bloom summary (when `positions` is non-empty) is built
/// from each row's word slice — no per-record `BitVec`.
fn entry_with_bounds_arena(
    shard: u32,
    id: u64,
    arena: &FilterArena,
    positions: &[Vec<usize>],
) -> Result<SegmentEntry> {
    debug_assert!(!arena.is_empty(), "segments are never empty");
    let mut summary = if positions.is_empty() {
        None
    } else {
        Some(BandKeySummary::with_capacity(arena.len(), positions.len()))
    };
    if let Some(summary) = &mut summary {
        let mut keys = Vec::with_capacity(positions.len());
        for i in 0..arena.len() {
            band_keys_words_into(arena.row(i), positions, &mut keys);
            for (table, &key) in keys.iter().enumerate() {
                summary.insert(table, key);
            }
        }
    }
    Ok(SegmentEntry {
        shard,
        id,
        pc_min: arena.pc_min().unwrap_or(0),
        pc_max: arena.pc_max().unwrap_or(0),
        summary,
    })
}

fn file_size_with(vfs: &dyn Vfs, path: &Path) -> Result<u64> {
    vfs.file_size(path)
        .map_err(|e| io_err(path, "inspecting", e))
}

/// Fully decodes one catalogued segment and checks its shard and filter
/// geometry against the manifest — the open-time health check behind
/// quarantining.
fn verify_segment(
    vfs: &dyn Vfs,
    dir: &Path,
    entry: &SegmentEntry,
    filter_len: usize,
) -> Result<()> {
    let seg = read_segment_with(vfs, &segment_path(dir, entry.id))?;
    if seg.shard != entry.shard {
        return Err(storage_err(format!(
            "segment {} claims shard {}, manifest says {}",
            entry.id, seg.shard, entry.shard
        )));
    }
    if seg.filter_len != filter_len {
        return Err(storage_err(format!(
            "segment {} has {}-bit filters, index expects {filter_len}",
            entry.id, seg.filter_len
        )));
    }
    Ok(())
}

/// Moves a failed segment file into the `quarantine/` subdirectory so a
/// later forensic pass can inspect it. A file that is already missing is
/// quarantined by ledger record alone.
fn quarantine_segment(vfs: &dyn Vfs, dir: &Path, seg_id: u64) -> Result<()> {
    let src = segment_path(dir, seg_id);
    if !vfs.exists(&src) {
        return Ok(());
    }
    let qdir = dir.join(QUARANTINE_DIR);
    vfs.create_dir_all(&qdir)
        .map_err(|e| io_err(&qdir, "creating", e))?;
    let dst = qdir.join(format!("seg-{seg_id}.seg"));
    vfs.rename(&src, &dst)
        .map_err(|e| io_err(&dst, "quarantining segment into", e))?;
    vfs.sync_dir(&qdir)
        .map_err(|e| io_err(&qdir, "syncing directory", e))?;
    vfs.sync_dir(dir)
        .map_err(|e| io_err(dir, "syncing directory", e))
}

/// A complete WAL image: header at `flush_epoch` followed by the
/// pending rows in append order. Byte-identical to the log the appends
/// originally produced.
fn encode_wal_image(filter_len: usize, flush_epoch: u64, records: &ArenaBuilder) -> Vec<u8> {
    let mut out =
        Vec::with_capacity(WAL_HEADER_LEN + records.len() * (20 + filter_len.div_ceil(8)));
    out.extend_from_slice(&WAL_MAGIC.to_le_bytes());
    out.extend_from_slice(&WAL_VERSION.to_le_bytes());
    out.extend_from_slice(&(filter_len as u32).to_le_bytes());
    out.extend_from_slice(&flush_epoch.to_le_bytes());
    append_checksum(&mut out);
    for i in 0..records.len() {
        encode_wal_entry(&mut out, records.id(i), records.row(i), filter_len);
    }
    out
}

/// One log entry: a segment entry (`elen u32 | id u64 | bits`, read off
/// the filter's backing words) followed by its own checksum, so a torn
/// or flipped tail fails verification on replay.
fn encode_wal_entry(out: &mut Vec<u8>, id: u64, row: &[u64], filter_len: usize) {
    let mut entry = Vec::with_capacity(20 + filter_len.div_ceil(8));
    push_entry(&mut entry, id, row, filter_len);
    append_checksum(&mut entry);
    out.extend_from_slice(&entry);
}

/// What [`replay_wal_with`] recovered, plus whether the on-disk log
/// needs rewriting (missing file, torn header or tail, stale epoch).
struct WalReplay {
    records: ArenaBuilder,
    repair: bool,
}

impl WalReplay {
    fn repaired(records: ArenaBuilder) -> WalReplay {
        WalReplay {
            records,
            repair: true,
        }
    }
}

/// Replays the log, distinguishing three outcomes per the recovery
/// state machine (DESIGN.md):
///
/// - **Benign crash artefacts** — a missing log, a header shorter than
///   its fixed length, a tail that is a proper prefix of a well-formed
///   entry, or a header epoch *behind* the manifest (crash between the
///   manifest swap and the WAL reset — the entries are already
///   segment-resident): recovered silently, `repair` set so the caller
///   rewrites the log.
/// - **Corruption** — bad magic/version, a header or entry checksum
///   mismatch, a wrong length prefix with its bytes fully present, or
///   an epoch *ahead* of the manifest: a typed [`PprlError::Storage`]
///   error naming the byte offset. Flipped bits never replay silently.
/// - **Clean** — every entry verifies; `repair` is false.
fn replay_wal_with(
    vfs: &dyn Vfs,
    path: &Path,
    filter_len: usize,
    manifest_epoch: u64,
) -> Result<WalReplay> {
    let bytes = match vfs.read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Ok(WalReplay::repaired(ArenaBuilder::new(filter_len)))
        }
        Err(e) => return Err(io_err(path, "reading", e)),
    };
    // A header shorter than its fixed length can only be a torn
    // creation or reset: nothing was logged yet.
    if bytes.len() < WAL_HEADER_LEN {
        return Ok(WalReplay::repaired(ArenaBuilder::new(filter_len)));
    }
    let (header, entries) = bytes.split_at(WAL_HEADER_LEN);
    let mut r = Reader::new(header, PprlError::Storage);
    let magic = r.u32()?;
    if magic != WAL_MAGIC {
        return Err(storage_err(format!("not a wal file (magic {magic:#x})")));
    }
    let version = r.u16()?;
    if version != WAL_VERSION {
        return Err(storage_err(format!("unsupported wal version {version}")));
    }
    checked_body(header, PprlError::Storage)
        .map_err(|e| storage_err(format!("wal header: {e}")))?;
    let flen = r.u32()? as usize;
    let epoch = r.u64()?;
    if flen != filter_len {
        return Err(storage_err(format!(
            "wal declares {flen}-bit filters, index expects {filter_len}"
        )));
    }
    if epoch < manifest_epoch {
        // Stale log: a flush committed the manifest but crashed before
        // resetting the WAL. Replaying it would duplicate records that
        // are already segment-resident, so discard it.
        return Ok(WalReplay::repaired(ArenaBuilder::new(filter_len)));
    }
    if epoch > manifest_epoch {
        return Err(storage_err(format!(
            "wal flush epoch {epoch} is ahead of manifest epoch {manifest_epoch}: \
             this log does not pair with this manifest"
        )));
    }
    let entry_len = 8 + filter_len.div_ceil(8);
    let frame_len = 4 + entry_len + 8;
    let mut records = ArenaBuilder::new(filter_len);
    let mut row = vec![0u64; records.stride()];
    for (n, frame) in entries.chunks(frame_len).enumerate() {
        let offset = WAL_HEADER_LEN + n * frame_len;
        let at = |e: PprlError| storage_err(format!("wal entry at offset {offset}: {e}"));
        if frame.len() < frame_len {
            // Short tail. It is a benign torn append only if what *is*
            // present is a prefix of a well-formed entry; a fully
            // present length prefix that disagrees is corruption.
            if let Ok(declared) = Reader::new(frame, PprlError::Storage).u32() {
                if declared as usize != entry_len {
                    return Err(storage_err(format!(
                        "wal entry at offset {offset}: length prefix {declared}, \
                         expected {entry_len}"
                    )));
                }
            }
            return Ok(WalReplay::repaired(records));
        }
        let body = checked_body(frame, PprlError::Storage).map_err(at)?;
        let (id, raw) =
            read_entry(&mut Reader::new(body, PprlError::Storage), filter_len).map_err(at)?;
        load_row(raw, &mut row);
        records.push(id, &row).map_err(at)?;
    }
    Ok(WalReplay {
        records,
        repair: false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pprl-index-store-{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn filters(n: usize, len: usize) -> Vec<(u64, BitVec)> {
        use pprl_core::rng::SplitMix64;
        let mut rng = SplitMix64::new(42);
        (0..n)
            .map(|i| {
                let ones: Vec<usize> = (0..len)
                    .filter(|_| rng.next_u64().is_multiple_of(4))
                    .collect();
                (i as u64, BitVec::from_positions(len, &ones).unwrap())
            })
            .collect()
    }

    #[test]
    fn create_open_round_trip_with_wal_replay() {
        let dir = temp_dir("reopen");
        let records = filters(20, 128);
        {
            let mut store = IndexStore::create(&dir, IndexConfig::new(128, 4)).unwrap();
            store.insert_batch(&records[..10]).unwrap();
            store.flush().unwrap();
            store.insert_batch(&records[10..]).unwrap();
            // No flush: the last 10 live only in the log.
        }
        let store = IndexStore::open(&dir).unwrap();
        assert_eq!(store.pending_len(), 10);
        let reader = store.reader().unwrap();
        assert_eq!(reader.len(), 20);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn create_refuses_existing_index() {
        let dir = temp_dir("exists");
        IndexStore::create(&dir, IndexConfig::new(64, 2)).unwrap();
        let err = IndexStore::create(&dir, IndexConfig::new(64, 2)).unwrap_err();
        assert!(matches!(err, PprlError::Storage(_)), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wrong_filter_length_rejected() {
        let dir = temp_dir("flen");
        let mut store = IndexStore::create(&dir, IndexConfig::new(64, 2)).unwrap();
        let err = store.insert_batch(&[(0, BitVec::zeros(32))]).unwrap_err();
        assert!(matches!(err, PprlError::ShapeMismatch { .. }), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shard_routing_is_stable_and_in_range() {
        let dir = temp_dir("routing");
        let store = IndexStore::create(&dir, IndexConfig::new(256, 8)).unwrap();
        let records = filters(50, 256);
        for (_, f) in &records {
            let s = store.shard_of(f).unwrap();
            assert!(s < 8);
            assert_eq!(s, store.shard_of(f).unwrap());
        }
        // Routing survives reopen (positions derive from the manifest seed).
        let reopened = IndexStore::open(&dir).unwrap();
        for (_, f) in &records {
            assert_eq!(store.shard_of(f).unwrap(), reopened.shard_of(f).unwrap());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compact_merges_segments_and_preserves_records() {
        let dir = temp_dir("compact");
        let mut store = IndexStore::create(&dir, IndexConfig::new(128, 2)).unwrap();
        let records = filters(30, 128);
        for chunk in records.chunks(10) {
            store.insert_batch(chunk).unwrap();
            store.flush().unwrap();
        }
        let before = store.stats().unwrap();
        assert!(before.segments > 2, "expected several segments");
        let reclaimed = store.compact().unwrap();
        assert!(reclaimed > 0);
        let after = store.stats().unwrap();
        assert!(after.segments <= 2, "one segment per shard after compact");
        assert_eq!(after.persisted_records, 30);
        assert_eq!(after.pending_records, 0);
        // No orphaned files: every seg-*.seg is in the manifest.
        let on_disk = std::fs::read_dir(&dir)
            .unwrap()
            .filter(|e| {
                e.as_ref()
                    .unwrap()
                    .file_name()
                    .to_string_lossy()
                    .ends_with(".seg")
            })
            .count();
        assert_eq!(on_disk, after.segments);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_missing_or_truncated_manifest_is_typed_error() {
        // Missing directory entirely.
        let dir = temp_dir("no-index");
        let err = IndexStore::open(&dir).unwrap_err();
        assert!(matches!(err, PprlError::Storage(_)), "{err}");
        assert!(err.to_string().contains("MANIFEST missing"), "{err}");
        // Directory exists but was never an index.
        std::fs::create_dir_all(&dir).unwrap();
        let err = IndexStore::open(&dir).unwrap_err();
        assert!(err.to_string().contains("MANIFEST missing"), "{err}");
        // A real index whose manifest got truncated.
        IndexStore::create(&dir, IndexConfig::new(64, 2)).unwrap();
        let path = dir.join(MANIFEST_FILE);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        let err = IndexStore::open(&dir).unwrap_err();
        assert!(matches!(err, PprlError::Storage(_)), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tiered_compaction_merges_full_tiers_and_defers_reclaim() {
        let dir = temp_dir("tiered");
        let mut store = IndexStore::create(&dir, IndexConfig::new(128, 1)).unwrap();
        let records = filters(40, 128);
        // Four similar-sized segments in one shard: one full tier.
        for chunk in records.chunks(10) {
            store.insert_batch(chunk).unwrap();
            store.flush().unwrap();
        }
        let policy = TieredPolicy {
            min_segments: 4,
            ..TieredPolicy::default()
        };
        let before = store.reader().unwrap();
        let query = records[7].1.clone();
        let expected = before.top_k(&query, 5, 1).unwrap();

        let outcome = store.compact_tiered(&policy).unwrap();
        assert_eq!(outcome.merged_segments, 4);
        assert_eq!(outcome.new_segments, 1);
        assert_eq!(outcome.records_rewritten, 40);
        assert_eq!(outcome.obsolete.len(), 4);
        // Old files are NOT deleted until the caller reclaims them.
        for path in &outcome.obsolete {
            assert!(path.exists(), "{} reclaimed too early", path.display());
        }
        // The new manifest answers bit-for-bit identically.
        let after = store.reader().unwrap();
        assert_eq!(after.top_k(&query, 5, 1).unwrap(), expected);
        assert_eq!(after.len(), 40);

        assert_eq!(reclaim(&outcome.obsolete).unwrap(), 4);
        for path in &outcome.obsolete {
            assert!(!path.exists());
        }
        // Double reclaim is a clean no-op, and the store still reads.
        assert_eq!(reclaim(&outcome.obsolete).unwrap(), 0);
        let reopened = IndexStore::open(&dir).unwrap();
        assert_eq!(
            reopened.reader().unwrap().top_k(&query, 5, 1).unwrap(),
            expected
        );

        // A second step with nothing mergeable is a no-op.
        let noop = store.compact_tiered(&policy).unwrap();
        assert!(noop.is_noop());
        assert!(noop.obsolete.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tiered_policy_separates_size_tiers() {
        let policy = TieredPolicy {
            min_segments: 2,
            growth: 4,
            min_bytes: 1024,
        };
        assert_eq!(policy.tier(0), 0);
        assert_eq!(policy.tier(1023), 0);
        assert_eq!(policy.tier(1024), 1);
        assert_eq!(policy.tier(4095), 1);
        assert_eq!(policy.tier(4096), 2);
        assert!(TieredPolicy::default().validate().is_ok());
        assert!(TieredPolicy {
            min_segments: 1,
            ..TieredPolicy::default()
        }
        .validate()
        .is_err());
        assert!(TieredPolicy {
            growth: 1,
            ..TieredPolicy::default()
        }
        .validate()
        .is_err());
        assert!(TieredPolicy {
            min_bytes: 0,
            ..TieredPolicy::default()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn tiered_compaction_spares_segments_of_a_different_tier() {
        let dir = temp_dir("tiered-spare");
        let mut store = IndexStore::create(&dir, IndexConfig::new(128, 1)).unwrap();
        let records = filters(64, 128);
        // One big segment …
        store.insert_batch(&records[..60]).unwrap();
        store.flush().unwrap();
        // … plus two tiny ones: with min_bytes small enough to separate
        // them into different tiers, only the tiny tier merges.
        store.insert_batch(&records[60..62]).unwrap();
        store.flush().unwrap();
        store.insert_batch(&records[62..]).unwrap();
        store.flush().unwrap();
        let policy = TieredPolicy {
            min_segments: 2,
            growth: 4,
            min_bytes: 256,
        };
        let outcome = store.compact_tiered(&policy).unwrap();
        assert_eq!(outcome.merged_segments, 2, "only the small tier merges");
        assert_eq!(outcome.records_rewritten, 4);
        let stats = store.stats().unwrap();
        assert_eq!(stats.persisted_records, 64);
        assert_eq!(stats.segments, 2, "big segment + merged small segment");
        reclaim(&outcome.obsolete).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_wal_tail_recovers_prefix_but_flipped_byte_is_typed_error() {
        let dir = temp_dir("torn");
        let mut store = IndexStore::create(&dir, IndexConfig::new(64, 2)).unwrap();
        store.insert_batch(&filters(3, 64)).unwrap();
        drop(store);
        let wal = dir.join(WAL_FILE);
        let bytes = std::fs::read(&wal).unwrap();
        // A tear mid-entry is a benign crash artefact: open recovers
        // exactly the entries before it and repairs the log in place.
        std::fs::write(&wal, &bytes[..bytes.len() - 5]).unwrap();
        let store = IndexStore::open(&dir).unwrap();
        assert_eq!(store.record_count().unwrap(), 2, "entries before the tear");
        let repaired = std::fs::read(&wal).unwrap();
        assert_eq!(
            repaired.len(),
            bytes.len() - (bytes.len() - WAL_HEADER_LEN) / 3,
            "repair drops exactly the torn frame"
        );
        drop(store);
        // A flipped byte mid-file is corruption, not a crash: typed error.
        let mut flipped = bytes.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x40;
        std::fs::write(&wal, &flipped).unwrap();
        let err = IndexStore::open(&dir).unwrap_err();
        assert!(matches!(err, PprlError::Storage(_)), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn version_1_wal_is_a_typed_unsupported_error() {
        let dir = temp_dir("wal-v1");
        let mut store = IndexStore::create(&dir, IndexConfig::new(64, 2)).unwrap();
        store.insert_batch(&filters(2, 64)).unwrap();
        drop(store);
        let wal = dir.join(WAL_FILE);
        let bytes = std::fs::read(&wal).unwrap();
        // The never-shipped v1 layout: `magic | version 1 | flen`, no
        // epoch and no header checksum, then the same entries.
        let mut v1 = bytes[..4].to_vec();
        v1.extend_from_slice(&1u16.to_le_bytes());
        v1.extend_from_slice(&bytes[6..10]);
        v1.extend_from_slice(&bytes[WAL_HEADER_LEN..]);
        std::fs::write(&wal, &v1).unwrap();
        match IndexStore::open(&dir) {
            Err(PprlError::Storage(msg)) => {
                assert!(msg.contains("unsupported wal version 1"), "{msg}")
            }
            other => panic!("expected a typed storage error, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn popcount_pruned_reader_skips_disjoint_segments() {
        let dir = temp_dir("prune");
        let mut store = IndexStore::create(&dir, IndexConfig::new(128, 1)).unwrap();
        // Two flushes with disjoint popcount ranges: sparse (~8 ones) and
        // dense (~64 ones) segments in the same shard.
        let sparse: Vec<(u64, BitVec)> = (0..5u64)
            .map(|i| {
                let ones: Vec<usize> = (0..8).map(|k| (k * 16 + i as usize) % 128).collect();
                (i, BitVec::from_positions(128, &ones).unwrap())
            })
            .collect();
        let dense: Vec<(u64, BitVec)> = (0..5u64)
            .map(|i| {
                let ones: Vec<usize> = (0..64).map(|k| (k * 2 + i as usize) % 128).collect();
                (100 + i, BitVec::from_positions(128, &ones).unwrap())
            })
            .collect();
        store.insert_batch(&sparse).unwrap();
        store.flush().unwrap();
        store.insert_batch(&dense).unwrap();
        store.flush().unwrap();

        let (full, full_stats) = store.reader_for_popcounts(0, usize::MAX).unwrap();
        assert_eq!(full.len(), 10);
        assert_eq!(full_stats.segments_read, 2);
        assert_eq!(full_stats.segments_skipped, 0);

        // Only the sparse range: the dense segment is never opened.
        let (pruned, stats) = store.reader_for_popcounts(0, 20).unwrap();
        assert_eq!(pruned.len(), 5);
        assert_eq!(stats.segments_read, 1);
        assert_eq!(stats.segments_skipped, 1);
        assert!(stats.bytes_read < full_stats.bytes_read);

        // Pending records are always included, even outside the range.
        store
            .insert_batch(&[(200, BitVec::from_positions(128, &[0]).unwrap())])
            .unwrap();
        let (with_pending, _) = store.reader_for_popcounts(50, 70).unwrap();
        assert_eq!(with_pending.len(), 6, "dense segment + pending record");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lazy_reader_matches_eager_reader_bit_for_bit() {
        let dir = temp_dir("lazy-eq");
        let mut store = IndexStore::create(&dir, IndexConfig::new(128, 2)).unwrap();
        let records = filters(45, 128);
        for chunk in records[..40].chunks(10) {
            store.insert_batch(chunk).unwrap();
            store.flush().unwrap();
        }
        // Leave 5 records pending in the log.
        store.insert_batch(&records[40..]).unwrap();
        let eager = store.reader().unwrap();
        let lazy = store.lazy_reader().unwrap();
        assert_eq!(lazy.len(), eager.len());
        assert_eq!(lazy.num_shards(), eager.num_shards());
        for (_, query) in &records[..10] {
            for k in [1, 5, 50] {
                let expected = eager.top_k(query, k, 1).unwrap();
                assert_eq!(lazy.top_k(query, k, 2).unwrap(), expected, "k={k}");
                let mut thresholded = expected.clone();
                thresholded.retain(|h| h.score >= 0.7);
                assert_eq!(
                    lazy.top_k_batch(&[query], k, 1, Some(0.7)).unwrap()[0],
                    thresholded,
                    "k={k} with min_score"
                );
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lazy_reader_defers_segment_reads_and_prunes_by_popcount() {
        let dir = temp_dir("lazy-prune");
        let mut store = IndexStore::create(&dir, IndexConfig::new(128, 1)).unwrap();
        let sparse: Vec<(u64, BitVec)> = (0..5u64)
            .map(|i| {
                let ones: Vec<usize> = (0..8).map(|k| (k * 16 + i as usize) % 128).collect();
                (i, BitVec::from_positions(128, &ones).unwrap())
            })
            .collect();
        let dense: Vec<(u64, BitVec)> = (0..5u64)
            .map(|i| {
                let ones: Vec<usize> = (0..64).map(|k| (k * 2 + i as usize) % 128).collect();
                (100 + i, BitVec::from_positions(128, &ones).unwrap())
            })
            .collect();
        store.insert_batch(&sparse).unwrap();
        store.flush().unwrap();
        store.insert_batch(&dense).unwrap();
        store.flush().unwrap();

        let lazy = store.lazy_reader().unwrap();
        let fresh = lazy.read_stats();
        assert_eq!(fresh.segments_read, 0, "nothing read before any query");
        assert_eq!(fresh.bytes_read, 0);
        assert_eq!(fresh.segments_skipped, 2);

        // A sparse probe at a high threshold: the dense segment's popcount
        // upper bound (2·8/(8+64) ≈ 0.22) cannot reach 0.8, so its file is
        // never opened.
        let probe = &sparse[0].1;
        let hits = lazy.top_k_batch(&[probe], 3, 1, Some(0.8)).unwrap();
        assert_eq!(hits[0][0].id, 0);
        let stats = lazy.read_stats();
        assert_eq!(stats.segments_read, 1);
        assert_eq!(stats.segments_skipped, 1);
        assert!(stats.bytes_read > 0);

        // Forcing materialisation reads the rest.
        lazy.materialise_all().unwrap();
        assert_eq!(lazy.read_stats().segments_read, 2);
        assert_eq!(lazy.read_stats().segments_skipped, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn generations_share_resident_arenas_instead_of_copying_them() {
        let dir = temp_dir("share");
        let mut store = IndexStore::create(&dir, IndexConfig::new(128, 3)).unwrap();
        let recs = filters(240, 128);
        store.insert_batch(&recs[..200]).unwrap();
        store.flush().unwrap();
        let first = store.lazy_reader().unwrap();
        assert!(first.resident_arenas().is_empty(), "nothing loaded yet");
        first.materialise_all().unwrap();
        let old = first.resident_arenas();
        let corpus: usize = old.iter().map(|&(_, bytes)| bytes).sum();

        store.insert_batch(&recs[200..]).unwrap();
        store.flush().unwrap();
        let second = store.lazy_reader().unwrap();
        // Resident before any query, and the very same allocations.
        assert_eq!(second.resident_arenas(), old);
        second.materialise_all().unwrap();
        let new = second.resident_arenas();
        assert_eq!(new[..old.len()], old[..]);

        // Two pinned generations hold ~1x the corpus, not 2x.
        let mut unique: Vec<_> = old.iter().chain(&new).copied().collect();
        unique.sort();
        unique.dedup();
        let resident: usize = unique.iter().map(|&(_, bytes)| bytes).sum();
        let added: usize = new[old.len()..].iter().map(|&(_, bytes)| bytes).sum();
        assert_eq!(resident, corpus + added);
        assert!(added * 4 < corpus, "40 of 240 records were new");

        // A compaction drops the merged-away ids from the store's map;
        // the pinned readers keep theirs alive and the map forgets them.
        store.compact().unwrap();
        let third = store.lazy_reader().unwrap();
        assert!(third.resident_arenas().is_empty(), "merged output is new");
        assert_eq!(store.arenas.lock().unwrap().len(), 3);
        drop((first, second));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lazy_reader_surfaces_corruption_when_segment_is_needed() {
        let dir = temp_dir("lazy-corrupt");
        let mut store = IndexStore::create(&dir, IndexConfig::new(64, 1)).unwrap();
        store.insert_batch(&filters(8, 64)).unwrap();
        store.flush().unwrap();
        let seg = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| p.extension().is_some_and(|e| e == "seg"))
            .unwrap();
        let mut bytes = std::fs::read(&seg).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&seg, &bytes).unwrap();
        // Constructing the lazy reader succeeds (nothing is read) …
        let lazy = store.lazy_reader().unwrap();
        // … but touching the segment is a typed error, not silence.
        let err = lazy.materialise_all().unwrap_err();
        assert!(matches!(err, PprlError::Storage(_)), "{err}");
        let err = lazy.top_k(&filters(1, 64)[0].1, 3, 1).unwrap_err();
        assert!(matches!(err, PprlError::Storage(_)), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stats_counts_everything() {
        let dir = temp_dir("stats");
        let mut store = IndexStore::create(&dir, IndexConfig::new(64, 4)).unwrap();
        let records = filters(12, 64);
        store.insert_batch(&records[..8]).unwrap();
        store.flush().unwrap();
        store.insert_batch(&records[8..]).unwrap();
        let stats = store.stats().unwrap();
        assert_eq!(stats.persisted_records, 8);
        assert_eq!(stats.pending_records, 4);
        assert_eq!(stats.filter_len, 64);
        assert!(stats.disk_bytes > 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_ships_sealed_segments_and_wal_tail() {
        let dir = temp_dir("snap-src");
        let dest = temp_dir("snap-dst");
        let mut store = IndexStore::create(&dir, IndexConfig::new(128, 2)).unwrap();
        let records = filters(30, 128);
        // Two sealed segments plus a pending WAL tail at export time.
        store.insert_batch(&records[..12]).unwrap();
        store.flush().unwrap();
        store.insert_batch(&records[12..24]).unwrap();
        store.flush().unwrap();
        store.insert_batch(&records[24..]).unwrap();
        let shipped = store.export_snapshot(&dest).unwrap();
        assert_eq!(shipped.records, 30);
        assert!(shipped.segments >= 2);
        assert!(shipped.bytes > 0);
        // The replica opens clean and answers queries bit-identically.
        let replica = IndexStore::import_snapshot(&dest).unwrap();
        assert_eq!(replica.record_count().unwrap(), 30);
        assert_eq!(replica.flush_epoch(), store.flush_epoch());
        let donor_reader = store.reader().unwrap();
        let replica_reader = replica.reader().unwrap();
        for (_, probe) in &records[..6] {
            assert_eq!(
                replica_reader.top_k(probe, 5, 1).unwrap(),
                donor_reader.top_k(probe, 5, 1).unwrap()
            );
        }
        // Exporting onto an existing index is refused.
        let err = store.export_snapshot(&dest).unwrap_err();
        assert!(matches!(err, PprlError::Storage(_)), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&dest).unwrap();
    }

    #[test]
    fn snapshot_import_rejects_a_corrupted_copy() {
        let dir = temp_dir("snap-corrupt-src");
        let dest = temp_dir("snap-corrupt-dst");
        let mut store = IndexStore::create(&dir, IndexConfig::new(64, 1)).unwrap();
        store.insert_batch(&filters(10, 64)).unwrap();
        store.flush().unwrap();
        store.export_snapshot(&dest).unwrap();
        // Flip a byte in the shipped segment: the open-time verification
        // must turn the import into a typed error, not a degraded
        // replica that silently misses records.
        let seg = std::fs::read_dir(&dest)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .find(|p| p.extension().is_some_and(|x| x == "seg"))
            .expect("shipped segment");
        let mut bytes = std::fs::read(&seg).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x04;
        std::fs::write(&seg, &bytes).unwrap();
        let err = IndexStore::import_snapshot(&dest).unwrap_err();
        assert!(matches!(err, PprlError::Storage(_)), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&dest).unwrap();
    }

    #[test]
    fn degraded_donor_refuses_to_export() {
        let dir = temp_dir("snap-degraded");
        let dest = temp_dir("snap-degraded-dst");
        let mut store = IndexStore::create(&dir, IndexConfig::new(64, 1)).unwrap();
        store.insert_batch(&filters(8, 64)).unwrap();
        store.flush().unwrap();
        // Corrupt the only segment so reopening quarantines it.
        let seg = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .find(|p| p.extension().is_some_and(|x| x == "seg"))
            .expect("segment");
        let mut bytes = std::fs::read(&seg).unwrap();
        bytes[10] ^= 0xff;
        std::fs::write(&seg, &bytes).unwrap();
        drop(store);
        let store = IndexStore::open(&dir).unwrap();
        assert!(store.is_degraded());
        let err = store.export_snapshot(&dest).unwrap_err();
        assert!(matches!(err, PprlError::Storage(_)), "{err}");
        assert!(!dest.join(MANIFEST_FILE).exists());
        std::fs::remove_dir_all(&dir).unwrap();
        let _ = std::fs::remove_dir_all(&dest);
    }
}
