//! The persistent index store: WAL-backed inserts, manifest-coordinated
//! segment flushes, and background-style compaction.
//!
//! An [`IndexStore`] owns one index directory. Inserts are appended to a
//! write-ahead log (`wal.log`, per-entry checksums) and fsynced before
//! the call returns, so an acked insert survives a crash before the
//! next flush;
//! [`IndexStore::flush`] groups pending records by shard, writes (and
//! fsyncs) one immutable segment per non-empty shard, syncs the
//! directory, commits the new catalogue to the manifest (fsynced tmp +
//! rename + directory fsync) and then resets the log under a new flush
//! epoch. [`IndexStore::compact`] merges each shard's segments into a
//! single popcount-sorted segment, which keeps per-shard file counts
//! bounded under incremental insert workloads.
//!
//! Every committed segment is resident: open decodes each catalogued
//! file into its columnar [`FilterArena`] (the decode is the open-time
//! verification), and flush and merge keep the arena they write. Readers
//! share those arenas and never touch a segment file, so a compaction
//! deletes the files it supersedes as soon as its manifest commits.
//!
//! All file IO goes through an injectable [`Vfs`] (see
//! [`IndexStore::create_with`]), so the crash-recovery property tests
//! drive the identical code paths against a deterministic in-memory
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
use crate::query::IndexReader;
use crate::segment::{
    load_row, push_entry, read_entry, read_segment_arena_with, segment_len, verify_segment_file,
    write_segment_arena_with,
};
use crate::vfs::{std_vfs, Vfs};
use pprl_blocking::lsh::HammingLsh;
use pprl_core::bitvec::BitVec;
use pprl_core::codec::{append_checksum, append_checksum_from, checked_body, Reader};
use pprl_core::error::{PprlError, Result};
use pprl_core::gauge::foreground;
use pprl_core::hash::fnv1a_iter;
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::Arc;

pub use crate::manifest::{IndexConfig, MANIFEST_FILE};

/// WAL file name inside an index directory.
pub const WAL_FILE: &str = "wal.log";

/// Subdirectory segments that fail verification at open are moved to.
pub const QUARANTINE_DIR: &str = "quarantine";

/// WAL file magic ("PWL1").
const WAL_MAGIC: u32 = 0x314c_5750;
/// WAL format version (3 = `word_fold` trailers; 2 = the same layout
/// under FNV-1a trailers; version 1 never shipped). Older versions are
/// typed errors naming the version.
const WAL_VERSION: u16 = 3;
/// WAL header bytes: `magic u32 | version u16 | flen u32 | flush_epoch
/// u64 | sum u64`, the checksum covering the preceding 18 bytes. A
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

/// What the store read to build an [`IndexReader`], and what the
/// reader scanned.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReadStats {
    /// Segment bytes the store read at open to make its segments
    /// resident (0 for a memory reader). Flushes and merges keep the
    /// arenas they write, so this stays the open total for every later
    /// reader of the same store.
    pub bytes_read: u64,
    /// `(query, row)` pairs the scan kernel AND-popcounted (rows of
    /// tiles skipped by the threshold bound are not counted).
    pub rows_scanned: u64,
    /// Of `rows_scanned`, the rows that reached the f64 score and the
    /// top-k heap; `rows_scored / rows_scanned` is the scan's
    /// wasted-work ratio.
    pub rows_scored: u64,
    /// Of `rows_scanned`, the pairs a thread other than the probe's
    /// caller scanned: runner helpers lent to large calls (see
    /// [`pprl_core::runner`]), and concurrent single-probe callers that
    /// scanned a task of the shared pass for one another (see
    /// [`crate::query`]). 0 when every call ran on its caller alone.
    /// In-process only: not part of server `STATS`.
    pub helper_rows: u64,
    /// Name of the dispatched scan-kernel path serving these reads
    /// (`"scalar"`, `"avx2"`, …; empty in a default-constructed value).
    pub kernel: &'static str,
}

/// Segments a size tier must hold before [`IndexStore::compact_tiered`]
/// merges it.
const TIER_MIN_SEGMENTS: usize = 4;
/// Size ratio between consecutive tiers.
const TIER_GROWTH: u64 = 4;
/// Ceiling of tier 0 in bytes: files smaller than this share a tier.
const TIER_MIN_BYTES: u64 = 4096;

/// The size tier of a segment file of `bytes`: tier 0 holds files below
/// `TIER_MIN_BYTES`, tier `t > 0` those from `TIER_MIN_BYTES·TIER_GROWTH^(t-1)`
/// up to `TIER_MIN_BYTES·TIER_GROWTH^t`. A tier merges only once it holds
/// `TIER_MIN_SEGMENTS` files, so small fresh segments merge often and
/// cheaply while a large settled one is rewritten only when enough peers
/// of its size exist: the classic size-tiered bound on write
/// amplification, which keeps each step short enough for a maintenance
/// thread between queries. Constants, not settings: no caller outside
/// tests ever chose other values.
fn tier(bytes: u64) -> u32 {
    let mut tier = 0u32;
    let mut ceiling = TIER_MIN_BYTES;
    while bytes >= ceiling && tier < 63 {
        tier += 1;
        ceiling = ceiling.saturating_mul(TIER_GROWTH);
    }
    tier
}

/// What one compaction step merged.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactionOutcome {
    /// Segments merged away (inputs of merges).
    pub merged_segments: usize,
    /// Replacement segments written.
    pub new_segments: usize,
    /// Records rewritten into the new segments.
    pub records_rewritten: usize,
}

impl CompactionOutcome {
    /// True when this step merged nothing (and so committed nothing).
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

/// A persistent, sharded store of Bloom-filter-encoded records.
#[derive(Debug)]
pub struct IndexStore {
    dir: PathBuf,
    manifest: Manifest,
    /// Replayed + newly appended records not yet flushed to segments,
    /// held columnar (flat words + ids) in append order — the write
    /// path never materialises a per-record `BitVec`.
    pending: ArenaBuilder,
    /// Shard of each `pending` row, in the same order: a row is routed
    /// once, when an insert or the WAL replay adds it.
    pending_shards: Vec<u32>,
    /// Cached LSH bit positions (table 0) used for shard routing.
    routing_positions: Vec<usize>,
    /// IO layer every file operation goes through.
    vfs: Arc<dyn Vfs>,
    /// False after a failed WAL write: the on-disk log may be torn or
    /// carry a stale epoch, so it is rewritten from `pending` before
    /// the next append.
    wal_ok: bool,
    /// The rows of every segment the committed manifest names, by
    /// segment id: decoded at open, kept from flush and merge, and
    /// shared with every reader handed out. Changed only after a
    /// manifest commit succeeds, so rows a failed flush wrote under an
    /// id its retry reuses are never served.
    arenas: HashMap<u64, Arc<FilterArena>>,
    /// Segment bytes read at open to fill `arenas`.
    bytes_read: u64,
}

impl IndexStore {
    /// Creates a new, empty index in `dir` (which must not already hold
    /// one). The directory is created if missing.
    pub fn create(dir: &Path, config: IndexConfig) -> Result<IndexStore> {
        Self::create_with(dir, config, std_vfs())
    }

    /// [`IndexStore::create`] through an explicit IO layer.
    pub fn create_with(dir: &Path, config: IndexConfig, vfs: Arc<dyn Vfs>) -> Result<IndexStore> {
        config.validate()?;
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
            manifest,
            pending: ArenaBuilder::new(config.filter_len),
            pending_shards: Vec::new(),
            vfs,
            wal_ok: true,
            arenas: HashMap::new(),
            bytes_read: 0,
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
    /// that survive the recovery rules; see the module docs), and every
    /// catalogued segment is decoded into its resident arena — one that
    /// fails its checksum, length, or shard/geometry checks is moved to
    /// `quarantine/` and recorded in the manifest's health ledger rather
    /// than refusing the open. Check [`IndexStore::is_degraded`] after
    /// opening.
    pub fn open(dir: &Path) -> Result<IndexStore> {
        Self::open_with(dir, std_vfs())
    }

    /// [`IndexStore::open`] through an explicit IO layer.
    pub fn open_with(dir: &Path, vfs: Arc<dyn Vfs>) -> Result<IndexStore> {
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
        // Decode every catalogued segment up front; quarantine failures
        // instead of refusing to open. The decode runs every check the
        // verifier does, costs one pass over the index per open, and is
        // what makes "the store opened" mean "every segment it will
        // serve is intact and resident".
        let flen = manifest.config.filter_len;
        let mut newly_quarantined = false;
        let mut kept = Vec::with_capacity(manifest.segments.len());
        let mut arenas = HashMap::with_capacity(manifest.segments.len());
        let mut bytes_read = 0;
        for entry in std::mem::take(&mut manifest.segments) {
            let path = segment_path(dir, entry.id);
            match read_segment_arena_with(&*vfs, &path, entry.shard, flen) {
                Ok(arena) => {
                    bytes_read += segment_len(arena.len(), flen);
                    arenas.insert(entry.id, Arc::new(arena));
                    kept.push(entry);
                }
                Err(_) => {
                    quarantine_segment(&*vfs, dir, entry.id)?;
                    manifest.quarantined.push(entry);
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
            manifest,
            pending: replay.records,
            pending_shards: Vec::new(),
            vfs,
            wal_ok: true,
            arenas,
            bytes_read,
        };
        store.pending_shards = (0..store.pending.len())
            .map(|i| store.shard_of_words(store.pending.row(i)))
            .collect();
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

    /// [`shard_of`] over a filter's backing words: hashes the same LSH
    /// band-key bytes `BitVec::sample(..).to_bytes()` would (bit `j` of
    /// the key = filter bit `routing_positions[j]`), folding each byte
    /// into FNV-1a as soon as its eight bits are known, so routing stays
    /// bit-identical and allocates nothing.
    ///
    /// [`shard_of`]: IndexStore::shard_of
    fn shard_of_words(&self, row: &[u64]) -> u32 {
        let bit = |p: usize| ((row[p / 64] >> (p % 64)) & 1) as u8;
        let key = self.routing_positions.chunks(8).map(|byte| {
            byte.iter()
                .enumerate()
                .fold(0u8, |acc, (j, &p)| acc | bit(p) << j)
        });
        (fnv1a_iter(key) % u64::from(self.manifest.config.num_shards)) as u32
    }

    /// Appends records to the write-ahead log and fsyncs it before this
    /// returns, so an acked batch survives a crash. Records become
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
        let mut buf = Vec::with_capacity(records.len() * wal_entry_len(flen));
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
        self.vfs
            .sync_file(&path)
            .map_err(|e| io_err(&path, "syncing", e))?;
        for (id, filter) in records {
            self.pending
                .push_filter(*id, filter)
                .expect("length validated above; BitVec tail bits are zero by invariant");
            self.pending_shards
                .push(self.shard_of_words(filter.as_words()));
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
        // Group pending rows by their shard, by index — no per-record BitVec.
        let mut by_shard: Vec<Vec<u32>> = vec![Vec::new(); num_shards as usize];
        for (i, &shard) in self.pending_shards.iter().enumerate() {
            by_shard[shard as usize].push(i as u32);
        }
        let mut next = self.manifest.clone();
        let mut added = Vec::new();
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
            let id = next.next_segment_id;
            next.next_segment_id += 1;
            let shard = shard as u32;
            write_segment_arena_with(&*self.vfs, &segment_path(&self.dir, id), shard, &arena)?;
            next.segments.push(SegmentEntry { shard, id });
            added.push((id, arena));
        }
        next.flush_epoch += 1;
        self.commit(next, added, &[])?;
        self.pending.clear();
        self.pending_shards.clear();
        self.rewrite_wal()
    }

    /// Flushes, then merges every shard with more than one segment into a
    /// single popcount-sorted segment. Returns the number of segments
    /// reclaimed.
    pub fn compact(&mut self) -> Result<usize> {
        let _busy = foreground();
        self.flush()?;
        let outcome = self.merge_groups(2, |_| 0)?;
        Ok(outcome.merged_segments - outcome.new_segments)
    }

    /// One size-tiered compaction step: in every shard, each size tier
    /// (see `tier`) holding at least `TIER_MIN_SEGMENTS` segments is
    /// merged into a single popcount-sorted segment. Unlike [`compact`],
    /// pending log records are left alone (flushing is the caller's
    /// cadence, not compaction's).
    ///
    /// [`compact`]: IndexStore::compact
    pub fn compact_tiered(&mut self) -> Result<CompactionOutcome> {
        let _busy = foreground();
        self.merge_groups(TIER_MIN_SEGMENTS, tier)
    }

    /// The one merge planner behind [`compact`] and [`compact_tiered`]:
    /// in every shard holding at least `min` segments, the segments are
    /// grouped by `key` of their file size, and each group of at least
    /// `min` members is merged into one new segment. Shards are walked in
    /// ascending order and groups by ascending key, which fixes the new
    /// segment ids and the manifest order; a shard below `min` keeps its
    /// catalogue order. Everything commits at once, after which the
    /// superseded files are deleted (no reader ever opens a segment
    /// file). The manifest swap is atomic (tmp + rename), so a crash at
    /// any point leaves a readable index. A step that merges nothing
    /// commits nothing.
    ///
    /// [`compact`]: IndexStore::compact
    /// [`compact_tiered`]: IndexStore::compact_tiered
    fn merge_groups(&mut self, min: usize, key: fn(u64) -> u32) -> Result<CompactionOutcome> {
        let flen = self.manifest.config.filter_len;
        let mut next = self.manifest.clone();
        next.segments.clear();
        let (mut added, mut removed) = (Vec::new(), Vec::new());
        let mut outcome = CompactionOutcome::default();
        for shard in 0..self.manifest.config.num_shards {
            let entries = self.manifest.shard_segments(shard);
            if entries.len() < min {
                next.segments.extend(entries);
                continue;
            }
            let mut groups: BTreeMap<u32, Vec<SegmentEntry>> = BTreeMap::new();
            for entry in entries {
                let bytes = segment_len(self.arenas[&entry.id].len(), flen);
                groups.entry(key(bytes)).or_default().push(entry);
            }
            for members in groups.into_values() {
                if members.len() < min {
                    next.segments.extend(members);
                    continue;
                }
                let (id, arena) = self.merge_segments(&mut next, shard, &members)?;
                outcome.merged_segments += members.len();
                outcome.new_segments += 1;
                outcome.records_rewritten += arena.len();
                added.push((id, arena));
                removed.extend(members.iter().map(|e| e.id));
            }
        }
        if !outcome.is_noop() {
            self.commit(next, added, &removed)?;
        }
        Ok(outcome)
    }

    /// K-way merges the resident arenas of `entries` (all of `shard`) by
    /// `(popcount, id)` into one new segment, written under `next`'s
    /// next segment id and appended to its catalogue — rows stream from
    /// run slices into the output builder with no per-record `BitVec`
    /// and no re-sort (the merged order is already the arena order, so
    /// `finish` is a move). Returns the new id and its arena. The old
    /// files are left untouched.
    ///
    /// Output bytes are identical to the old concatenate-then-
    /// stable-sort merge: the heap key ends with the run index, which
    /// reproduces a stable sort's tie-breaking by original (segment,
    /// entry) order.
    fn merge_segments(
        &self,
        next: &mut Manifest,
        shard: u32,
        entries: &[SegmentEntry],
    ) -> Result<(u64, FilterArena)> {
        let runs: Vec<&FilterArena> = entries.iter().map(|e| &*self.arenas[&e.id]).collect();
        let total = runs.iter().map(|a| a.len()).sum();
        let mut builder = ArenaBuilder::with_capacity(self.manifest.config.filter_len, total);
        let mut cursor = vec![0usize; runs.len()];
        let mut heap = std::collections::BinaryHeap::with_capacity(runs.len());
        for (r, run) in runs.iter().enumerate() {
            if !run.is_empty() {
                heap.push(std::cmp::Reverse((run.popcount(0), run.id(0), r)));
            }
        }
        while let Some(std::cmp::Reverse((_, _, r))) = heap.pop() {
            let run = runs[r];
            let i = cursor[r];
            builder.push(run.id(i), run.row(i))?;
            cursor[r] = i + 1;
            if i + 1 < run.len() {
                heap.push(std::cmp::Reverse((run.popcount(i + 1), run.id(i + 1), r)));
            }
        }
        let arena = builder.finish();
        let id = next.next_segment_id;
        next.next_segment_id += 1;
        write_segment_arena_with(&*self.vfs, &segment_path(&self.dir, id), shard, &arena)?;
        next.segments.push(SegmentEntry { shard, id });
        Ok((id, arena))
    }

    /// Makes the segment files written so far durable, commits `next`
    /// (fsynced tmp + rename + directory fsync) and only then adopts it:
    /// the `added` arenas become resident, the `removed` ones are
    /// dropped and their files deleted. A failed commit leaves the
    /// in-memory state (and the next segment id) untouched; the
    /// orphaned files are simply overwritten by a retry.
    fn commit(
        &mut self,
        next: Manifest,
        added: Vec<(u64, FilterArena)>,
        removed: &[u64],
    ) -> Result<()> {
        self.vfs
            .sync_dir(&self.dir)
            .map_err(|e| io_err(&self.dir, "syncing directory", e))?;
        next.save_with(&*self.vfs, &self.dir)?;
        self.manifest = next;
        for (id, arena) in added {
            self.arenas.insert(id, Arc::new(arena));
        }
        // The map is settled before any file goes, so a failed delete
        // leaves an orphan file, never a stale entry.
        for id in removed {
            self.arenas.remove(id);
        }
        for &id in removed {
            let path = segment_path(&self.dir, id);
            self.vfs
                .remove_file(&path)
                .map_err(|e| io_err(&path, "removing", e))?;
        }
        Ok(())
    }

    /// Splits the pending buffer into one builder per shard (row order
    /// preserved within a shard).
    fn pending_by_shard(&self) -> Result<Vec<ArenaBuilder>> {
        let flen = self.manifest.config.filter_len;
        let num_shards = self.manifest.config.num_shards as usize;
        let mut out: Vec<ArenaBuilder> = (0..num_shards).map(|_| ArenaBuilder::new(flen)).collect();
        for (i, &shard) in self.pending_shards.iter().enumerate() {
            out[shard as usize].push(self.pending.id(i), self.pending.row(i))?;
        }
        Ok(out)
    }

    /// A reader over the committed segments and the pending rows. Each
    /// segment's resident arena is shared with the store, not copied,
    /// and no file is read: the cost is a copy of the pending rows, each
    /// into the memory slot of the shard it was routed to on insert.
    pub fn reader(&self) -> Result<IndexReader> {
        let num_shards = self.manifest.config.num_shards as usize;
        let mut slots = Vec::with_capacity(self.manifest.segments.len() + num_shards);
        for entry in &self.manifest.segments {
            slots.push(Arc::clone(&self.arenas[&entry.id]));
        }
        for builder in self.pending_by_shard()? {
            if !builder.is_empty() {
                slots.push(Arc::new(builder.finish()));
            }
        }
        Ok(IndexReader::from_arenas(
            slots,
            self.manifest.config.filter_len,
            num_shards,
            self.bytes_read,
            self.manifest.quarantined.len(),
        ))
    }

    /// Total records in the index: segment-resident plus pending.
    pub fn record_count(&self) -> usize {
        self.pending.len() + self.arenas.values().map(|a| a.len()).sum::<usize>()
    }

    /// Verifies and summarises the index: every segment file is read
    /// and checked as open checks it (every entry, without building
    /// one), so corruption on disk since open surfaces here as a typed
    /// error.
    pub fn stats(&self) -> Result<IndexStats> {
        let flen = self.manifest.config.filter_len;
        let mut persisted = 0usize;
        let mut disk_bytes = file_size_with(&*self.vfs, &self.dir.join(MANIFEST_FILE))?
            + file_size_with(&*self.vfs, &self.dir.join(WAL_FILE))?;
        for entry in &self.manifest.segments {
            let path = segment_path(&self.dir, entry.id);
            let (records, bytes) = verify_segment_file(&*self.vfs, &path, entry.shard, flen)?;
            persisted += records;
            disk_bytes += bytes;
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
    pub fn quarantined(&self) -> &[SegmentEntry] {
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
            records: self.record_count(),
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
        let store = Self::open(dir)?;
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
}

fn routing_positions(config: &IndexConfig) -> Result<Vec<usize>> {
    let lsh = HammingLsh::new(1, config.lsh_bits as usize, config.lsh_seed)?;
    Ok(lsh.sampled_positions(config.filter_len).swap_remove(0))
}

fn file_size_with(vfs: &dyn Vfs, path: &Path) -> Result<u64> {
    vfs.file_size(path)
        .map_err(|e| io_err(path, "inspecting", e))
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
    let mut out = Vec::with_capacity(WAL_HEADER_LEN + records.len() * wal_entry_len(filter_len));
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

/// Bytes of one log entry for `filter_len`-bit filters.
fn wal_entry_len(filter_len: usize) -> usize {
    4 + 8 + filter_len.div_ceil(8) + 8
}

/// Appends one log entry to `out`: a segment entry (`elen u32 | id u64
/// | bits`, copied off the filter's backing words) followed by its own
/// checksum, so a torn or flipped tail fails verification on replay.
fn encode_wal_entry(out: &mut Vec<u8>, id: u64, row: &[u64], filter_len: usize) {
    let start = out.len();
    push_entry(out, id, row, filter_len);
    append_checksum_from(out, start);
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
    let frame_len = wal_entry_len(filter_len);
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

    /// The byte-streamed router hashes exactly the band key a sampled
    /// `BitVec` serialises to, including the partial last byte of
    /// widths that are not a multiple of 8.
    #[test]
    fn word_routing_matches_the_sampled_band_key_bytes() {
        use pprl_core::hash::fnv1a;
        let mut rng = pprl_core::rng::SplitMix64::new(0x0bad_5eed);
        for (lsh_bits, num_shards) in [(1u32, 3u32), (5, 8), (13, 7), (16, 8), (21, 5), (63, 11)] {
            let dir = temp_dir(&format!("route-bytes-{lsh_bits}"));
            let config = IndexConfig {
                lsh_bits,
                ..IndexConfig::new(300, num_shards)
            };
            let store = IndexStore::create(&dir, config).unwrap();
            for _ in 0..200 {
                let ones: Vec<usize> = (0..300).filter(|_| rng.next_below(3) == 0).collect();
                let filter = BitVec::from_positions(300, &ones).unwrap();
                let key = filter.sample(&store.routing_positions).unwrap().to_bytes();
                let want = (fnv1a(&key) % u64::from(num_shards)) as u32;
                assert_eq!(store.shard_of(&filter).unwrap(), want, "{lsh_bits} bits");
            }
            std::fs::remove_dir_all(&dir).unwrap();
        }
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
    fn tiered_compaction_merges_full_tiers_and_deletes_their_files() {
        let dir = temp_dir("tiered");
        let mut store = IndexStore::create(&dir, IndexConfig::new(128, 1)).unwrap();
        let records = filters(40, 128);
        // Four similar-sized segments in one shard: one full tier.
        for chunk in records.chunks(10) {
            store.insert_batch(chunk).unwrap();
            store.flush().unwrap();
        }
        let before = store.reader().unwrap();
        let query = records[7].1.clone();
        let expected = before.top_k(&query, 5, 1).unwrap();

        let outcome = store.compact_tiered().unwrap();
        assert_eq!(outcome.merged_segments, 4);
        assert_eq!(outcome.new_segments, 1);
        assert_eq!(outcome.records_rewritten, 40);
        // The merged-away files are gone at once; only the output stays.
        let on_disk: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|e| e == "seg"))
            .collect();
        assert_eq!(
            on_disk,
            vec![segment_path(&dir, store.manifest.segments[0].id)]
        );
        // The new manifest answers bit-for-bit identically, and so does
        // the reader taken before the merge, whose files are gone.
        let after = store.reader().unwrap();
        assert_eq!(after.top_k(&query, 5, 1).unwrap(), expected);
        assert_eq!(after.len(), 40);
        assert_eq!(before.top_k(&query, 5, 1).unwrap(), expected);
        let reopened = IndexStore::open(&dir).unwrap();
        assert_eq!(
            reopened.reader().unwrap().top_k(&query, 5, 1).unwrap(),
            expected
        );

        // A second step with nothing mergeable is a no-op.
        assert!(store.compact_tiered().unwrap().is_noop());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tiers_split_at_powers_of_the_growth_above_the_floor() {
        assert_eq!(tier(0), 0);
        assert_eq!(tier(4095), 0);
        assert_eq!(tier(4096), 1);
        assert_eq!(tier(16383), 1);
        assert_eq!(tier(16384), 2);
    }

    #[test]
    fn tiered_compaction_spares_segments_of_a_different_tier() {
        let dir = temp_dir("tiered-spare");
        let mut store = IndexStore::create(&dir, IndexConfig::new(128, 1)).unwrap();
        let records = filters(208, 128);
        // One big segment (200 rows of 28 bytes: tier 1) …
        store.insert_batch(&records[..200]).unwrap();
        store.flush().unwrap();
        assert_eq!(tier(segment_len(200, 128)), 1);
        // … plus four tiny ones in tier 0: only the tiny tier merges.
        for chunk in records[200..].chunks(2) {
            store.insert_batch(chunk).unwrap();
            store.flush().unwrap();
        }
        let outcome = store.compact_tiered().unwrap();
        assert_eq!(outcome.merged_segments, 4, "only the small tier merges");
        assert_eq!(outcome.records_rewritten, 8);
        let stats = store.stats().unwrap();
        assert_eq!(stats.persisted_records, 208);
        assert_eq!(stats.segments, 2, "big segment + merged small segment");
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
        assert_eq!(store.record_count(), 2, "entries before the tear");
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
    fn wal_versions_1_and_2_are_typed_unsupported_errors() {
        let dir = temp_dir("wal-old");
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
        // v2: this layout under FNV-1a trailers, which no longer verify.
        let mut v2 = bytes.clone();
        v2[4..6].copy_from_slice(&2u16.to_le_bytes());
        for (version, image) in [(1, v1), (2, v2)] {
            std::fs::write(&wal, &image).unwrap();
            match IndexStore::open(&dir) {
                Err(PprlError::Storage(msg)) => assert!(
                    msg.contains(&format!("unsupported wal version {version}")),
                    "{msg}"
                ),
                other => panic!("expected a typed storage error, got {other:?}"),
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The store's reader, before and after a reopen, answers like an
    /// independently built memory reader over the same records, scores
    /// compared as raw bits, with the pending rows of the log included.
    #[test]
    fn store_readers_match_a_memory_reader_bit_for_bit() {
        let dir = temp_dir("reader-eq");
        let mut store = IndexStore::create(&dir, IndexConfig::new(128, 2)).unwrap();
        let records = filters(45, 128);
        for chunk in records[..40].chunks(10) {
            store.insert_batch(chunk).unwrap();
            store.flush().unwrap();
        }
        // Leave 5 records pending in the log.
        store.insert_batch(&records[40..]).unwrap();
        let oracle = IndexReader::new(vec![records.clone()], 128).unwrap();
        let mut probes: Vec<(u64, BitVec)> = records.iter().step_by(4).cloned().collect();
        for (_, probe) in probes.clone() {
            let mut near = probe;
            for bit in [3, 40, 77, 101] {
                near.flip(bit);
            }
            probes.push((0, near));
        }
        let want = answers(&oracle, &probes);
        let kept = store.reader().unwrap();
        assert_eq!(kept.len(), records.len());
        assert_eq!(kept.num_shards(), 2);
        assert_eq!(answers(&kept, &probes), want, "flushed arenas");
        let reopened = IndexStore::open(&dir).unwrap().reader().unwrap();
        assert_eq!(answers(&reopened, &probes), want, "decoded arenas");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn generations_share_resident_arenas_instead_of_copying_them() {
        let dir = temp_dir("share");
        let mut store = IndexStore::create(&dir, IndexConfig::new(128, 3)).unwrap();
        let recs = filters(240, 128);
        store.insert_batch(&recs[..200]).unwrap();
        store.flush().unwrap();
        let first = store.reader().unwrap();
        let old = first.resident_arenas();
        let corpus: usize = old.iter().map(|&(_, bytes)| bytes).sum();

        store.insert_batch(&recs[200..]).unwrap();
        store.flush().unwrap();
        // The very same allocations, plus the flush's own arenas.
        let second = store.reader().unwrap();
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
        let third = store.reader().unwrap();
        assert!(
            third.resident_arenas().iter().all(|a| !new.contains(a)),
            "merged output is new"
        );
        assert_eq!(store.arenas.len(), 3);
        drop((first, second));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Every pending row's cached shard is the one routing gives it.
    fn assert_routed(store: &IndexStore, when: &str) {
        assert_eq!(store.pending_shards.len(), store.pending.len(), "{when}");
        for (i, &shard) in store.pending_shards.iter().enumerate() {
            assert_eq!(
                shard,
                store.shard_of_words(store.pending.row(i)),
                "{when}: row {i}"
            );
        }
    }

    #[test]
    fn pending_rows_keep_the_shard_they_were_routed_to() {
        let vfs = crate::vfs::FaultVfs::reliable();
        let io = || Arc::clone(&vfs) as Arc<dyn Vfs>;
        let dir = Path::new("/route-once");
        let recs = filters(120, 128);
        let mut store = IndexStore::create_with(dir, IndexConfig::new(128, 8), io()).unwrap();
        store.insert_batch(&recs[..30]).unwrap();
        store.insert_batch(&recs[30..40]).unwrap();
        assert_routed(&store, "insert_batch");
        assert_eq!(store.pending_len(), 40);

        drop(store);
        let mut store = IndexStore::open_with(dir, io()).unwrap();
        assert_routed(&store, "WAL replay");
        assert_eq!(store.pending_len(), 40);

        // The append and the repair after it both fail: nothing is added.
        vfs.arm_crash_after(1);
        assert!(store.insert_batch(&recs[40..50]).is_err());
        assert_routed(&store, "failed append");
        assert_eq!(store.pending_len(), 40);
        vfs.crash_and_recover();
        store.insert_batch(&recs[50..60]).unwrap();
        assert_routed(&store, "insert after a repaired log");
        assert_eq!(store.pending_len(), 50);

        store.flush().unwrap();
        assert_routed(&store, "flush");
        assert_eq!(store.pending_len(), 0);
        store.insert_batch(&recs[60..90]).unwrap();
        assert_routed(&store, "insert after flush");

        let dest = Path::new("/route-once-copy");
        store.export_snapshot(dest).unwrap();
        let copy = IndexStore::open_with(dest, io()).unwrap();
        assert!(!copy.is_degraded());
        assert_routed(&copy, "open of an exported snapshot");
        assert_eq!(copy.pending_len(), 30);
    }

    /// Every answer `reader` gives for `probes`, scores as raw bits.
    fn answers(reader: &IndexReader, probes: &[(u64, BitVec)]) -> Vec<Vec<(u64, u64)>> {
        let bits = |hits: Vec<crate::query::Hit>| -> Vec<(u64, u64)> {
            hits.into_iter()
                .map(|h| (h.id, h.score.to_bits()))
                .collect()
        };
        let refs: Vec<&BitVec> = probes.iter().map(|(_, f)| f).collect();
        let mut out: Vec<_> = probes
            .iter()
            .map(|(_, probe)| bits(reader.top_k(probe, 7, 1).unwrap()))
            .collect();
        out.extend(
            reader
                .top_k_batch(&refs, 7, 1, Some(0.6))
                .unwrap()
                .into_iter()
                .map(bits),
        );
        out
    }

    #[test]
    fn an_incrementally_installed_reader_answers_like_a_reopened_store() {
        let vfs = crate::vfs::FaultVfs::reliable();
        let io = || Arc::clone(&vfs) as Arc<dyn Vfs>;
        let dir = Path::new("/incremental");
        let recs = filters(400, 128);
        let probes: &Vec<_> = &recs.iter().step_by(23).cloned().collect();
        let mut store = IndexStore::create_with(dir, IndexConfig::new(128, 4), io()).unwrap();
        // Chunks of 20 rows over 4 shards: every second compaction step
        // finds a full tier 0 and merges it.
        let mut merges = 0;
        for (step, chunk) in recs.chunks(20).enumerate() {
            store.insert_batch(chunk).unwrap();
            match step % 3 {
                0 => {}
                1 => store.flush().unwrap(),
                _ => {
                    store.flush().unwrap();
                    merges += usize::from(!store.compact_tiered().unwrap().is_noop());
                }
            }
            let incremental = store.reader().unwrap();
            let reopened = IndexStore::open_with(dir, io()).unwrap();
            assert_eq!(
                answers(&incremental, probes),
                answers(&reopened.reader().unwrap(), probes),
                "step {step}"
            );
        }
        assert_eq!(merges, 3, "compaction steps that merged");
    }

    /// Readers never read a file, so a byte flipped on disk after a
    /// flush cannot reach a query: `stats()` re-reads every segment and
    /// names it, and the next open quarantines it.
    #[test]
    fn a_byte_flipped_after_a_flush_fails_stats_and_quarantines_at_open() {
        let dir = temp_dir("flip-after-flush");
        let mut store = IndexStore::create(&dir, IndexConfig::new(64, 1)).unwrap();
        let records = filters(8, 64);
        store.insert_batch(&records).unwrap();
        store.flush().unwrap();
        let seg = segment_path(&dir, store.manifest.segments[0].id);
        let mut bytes = std::fs::read(&seg).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&seg, &bytes).unwrap();
        // The resident rows still answer exactly.
        let hits = store.reader().unwrap().top_k(&records[3].1, 1, 1).unwrap();
        assert_eq!(hits[0].id, records[3].0);
        let err = store.stats().unwrap_err();
        assert!(matches!(err, PprlError::Storage(_)), "{err}");
        drop(store);
        let reopened = IndexStore::open(&dir).unwrap();
        assert!(reopened.is_degraded());
        assert_eq!(reopened.reader().unwrap().len(), 0);
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
        assert_eq!(replica.record_count(), 30);
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
