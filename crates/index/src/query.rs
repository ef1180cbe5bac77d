//! Exact top-k Dice queries over the sharded store, on a columnar scan
//! kernel.
//!
//! The reader is a list of *slots*, each one popcount-sorted
//! [`FilterArena`] (flat `Vec<u64>`, fixed stride, parallel id/popcount
//! arrays). A slot is either memory-resident from construction or backed
//! by a segment file that is materialised lazily, on first scan — so
//! segments pruned for every query of a batch are never read at all. A
//! materialised arena lives in a cell shared with the store, so the
//! reader of the next generation inherits it instead of re-reading it.
//!
//! One scan loop serves [`IndexReader::top_k`],
//! [`IndexReader::top_k_planned`] and [`IndexReader::top_k_batch`], and
//! a row costs float arithmetic only if it can place:
//!
//! 1. **Slot bounds, before any IO** — for query popcount `q` and a slot
//!    whose popcounts span `[pc_min, pc_max]`, no record can beat
//!    `2·min(q,x)/(q+x)` at `x = clamp(q, pc_min, pc_max)`; if the
//!    query's band keys also miss the slot's Bloom summary in every
//!    table the ceiling drops to [`no_match_dice_bound`]. A slot whose
//!    ceiling is below the query's threshold is never read.
//! 2. **Tiles and `need`** — rows are walked in tiles of [`TILE_ROWS`].
//!    Per live query the threshold θ (its k-th score so far, floored by
//!    `min_score`) becomes `need = need_count(θ, q, x_lo)`, the smallest
//!    intersection whose Dice reaches θ at the tile's lowest popcount. A
//!    tile with `need > min(q, x_hi)` is skipped; otherwise the
//!    dispatched `Kernel::scan_ge` AND-popcounts it and reports only
//!    rows with `count >= need`.
//! 3. **Survivors** get their exact f64 score and meet the heap.
//!
//! Exactness: `need_count` is decided by the f64 expression of
//! [`dice_from_counts`] and is monotone in the row popcount, and rows
//! are popcount-sorted, so `count < need` means `score < θ` for every
//! row of the tile: a dropped row could neither enter the heap nor pass
//! `min_score`, while rows tying θ survive (ties break by ascending id).
//! θ only rises during a scan, so a stale `need` merely lets a few extra
//! rows through to the heap, which rejects them. Results are
//! bit-identical to brute force over `dice_bits`.
//!
//! The scan's `(slot, range)` tasks run on [`pprl_core::runner`]: the
//! caller drains them, and a call with `threads > 1` and at least ~1M
//! (row, probe) pairs is cut into tasks of [`TASK_ROWS`] so that helpers
//! the runner admits to idle cores can share it. Each participant keeps
//! one local top-k per query (sound: a candidate below a thread's own
//! k-th score cannot be in the global top k either) and helpers' heaps
//! merge into the caller's at the end. In a batch every tile is loaded
//! once and scanned by each live query while it sits in L1.

use crate::arena::FilterArena;
use crate::format::storage_err;
use crate::segment::read_segment_arena_with;
use crate::store::ReadStats;
use crate::summary::{band_keys, no_match_dice_bound, BandKeySummary};
use crate::vfs::{std_vfs, Vfs};
use pprl_core::bitvec::BitVec;
use pprl_core::error::{PprlError, Result};
use pprl_core::runner;
use pprl_similarity::kernel::{active_kernel, dice_from_counts, need_count};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// A segment's rows once materialised, shared between the store and every
/// reader whose manifest names the segment: one load serves all of them.
pub(crate) type ArenaCell = Arc<OnceLock<FilterArena>>;

/// One query result: a stored record id and its Dice similarity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hit {
    /// Record id as supplied at insert time.
    pub id: u64,
    /// Dice similarity in `[0, 1]`.
    pub score: f64,
}

/// Where a slot's rows come from.
#[derive(Debug)]
enum SlotSource {
    /// Arena resident since construction.
    Memory,
    /// Backed by a segment file, materialised on first scan.
    File {
        path: PathBuf,
        shard: u32,
        seg_id: u64,
        bytes: u64,
    },
}

/// One scannable unit: a (possibly not yet materialised) filter arena
/// plus everything needed to prune it without reading it.
#[derive(Debug)]
struct Slot {
    /// Row count (known up front, from the file size for lazy slots).
    rows: usize,
    /// Smallest filter popcount in the slot.
    pc_min: usize,
    /// Largest filter popcount in the slot.
    pc_max: usize,
    /// Band-key Bloom summary (file slots of summary-enabled indexes).
    summary: Option<BandKeySummary>,
    source: SlotSource,
    arena: ArenaCell,
}

/// Constructor input for [`IndexReader::from_specs`].
#[derive(Debug)]
pub(crate) enum SlotSpec {
    /// An in-memory arena (pending records, or an eager build).
    Memory(FilterArena),
    /// A segment file to materialise on demand.
    File {
        /// Segment file path.
        path: PathBuf,
        /// Shard the segment must declare.
        shard: u32,
        /// Segment id (for error messages).
        seg_id: u64,
        /// File size in bytes (for read accounting).
        bytes: u64,
        /// Record count derived from the file size.
        rows: usize,
        /// Manifest popcount lower bound.
        pc_min: usize,
        /// Manifest popcount upper bound.
        pc_max: usize,
        /// Manifest band-key summary, if the index stores them.
        summary: Option<BandKeySummary>,
        /// The store's cell for this segment id (possibly already
        /// filled by an earlier generation's reader).
        arena: ArenaCell,
    },
}

/// An immutable snapshot of an index, ready for queries. Memory-resident
/// slots are scanned directly; file-backed slots (from
/// [`crate::store::IndexStore::lazy_reader`]) are read only when some
/// query's pruning bounds fail to exclude them.
#[derive(Debug)]
pub struct IndexReader {
    slots: Vec<Slot>,
    filter_len: usize,
    num_shards: usize,
    len: usize,
    /// Disjoint band-key position tables (empty = summaries disabled).
    summary_positions: Vec<Vec<usize>>,
    /// Cumulative bytes this reader read materialising file slots.
    bytes_read: AtomicU64,
    /// File slots this reader materialised so far.
    segments_loaded: AtomicUsize,
    /// (query, row) pairs handed to the scan kernel.
    rows_scanned: AtomicU64,
    /// Of those, the survivors that were scored and met the heap.
    rows_scored: AtomicU64,
    /// Of `rows_scanned`, the pairs scan helpers took.
    helper_rows: AtomicU64,
    /// Serialises lazy materialisation so this reader reads each file at
    /// most once.
    load_lock: Mutex<()>,
    /// IO layer file-backed slots are materialised through.
    vfs: Arc<dyn Vfs>,
    /// Segments the store quarantined at open; > 0 means this reader
    /// serves a degraded view of the index.
    quarantined_segments: usize,
}

impl IndexReader {
    /// Builds an eager, memory-resident reader from per-shard record
    /// lists. Every filter must have length `filter_len`.
    pub fn new(shard_records: Vec<Vec<(u64, BitVec)>>, filter_len: usize) -> Result<IndexReader> {
        let num_shards = shard_records.len();
        let specs = shard_records
            .into_iter()
            .map(|records| {
                Ok(SlotSpec::Memory(FilterArena::from_records(
                    records, filter_len,
                )?))
            })
            .collect::<Result<Vec<_>>>()?;
        Self::from_specs(specs, filter_len, num_shards, Vec::new(), std_vfs())
    }

    /// Builds a reader from slot specs (crate-internal; the public
    /// constructors are [`IndexReader::new`] and the store's reader
    /// methods).
    pub(crate) fn from_specs(
        specs: Vec<SlotSpec>,
        filter_len: usize,
        num_shards: usize,
        summary_positions: Vec<Vec<usize>>,
        vfs: Arc<dyn Vfs>,
    ) -> Result<IndexReader> {
        let mut slots = Vec::with_capacity(specs.len());
        let mut len = 0usize;
        for spec in specs {
            let slot = match spec {
                SlotSpec::Memory(arena) => Slot {
                    rows: arena.len(),
                    pc_min: arena.pc_min().unwrap_or(0) as usize,
                    pc_max: arena.pc_max().unwrap_or(0) as usize,
                    summary: None,
                    source: SlotSource::Memory,
                    arena: Arc::new(OnceLock::from(arena)),
                },
                SlotSpec::File {
                    path,
                    shard,
                    seg_id,
                    bytes,
                    rows,
                    pc_min,
                    pc_max,
                    summary,
                    arena,
                } => Slot {
                    rows,
                    pc_min,
                    pc_max,
                    summary,
                    source: SlotSource::File {
                        path,
                        shard,
                        seg_id,
                        bytes,
                    },
                    arena,
                },
            };
            len += slot.rows;
            slots.push(slot);
        }
        Ok(IndexReader {
            slots,
            filter_len,
            num_shards,
            len,
            summary_positions,
            bytes_read: AtomicU64::new(0),
            segments_loaded: AtomicUsize::new(0),
            rows_scanned: AtomicU64::new(0),
            rows_scored: AtomicU64::new(0),
            helper_rows: AtomicU64::new(0),
            load_lock: Mutex::new(()),
            vfs,
            quarantined_segments: 0,
        })
    }

    /// Records how many segments the store quarantined at open, so the
    /// degraded flag propagates through every stats surface.
    pub(crate) fn set_quarantined(&mut self, n: usize) {
        self.quarantined_segments = n;
    }

    /// Segments quarantined by the store this reader was built from.
    pub fn quarantined_segments(&self) -> usize {
        self.quarantined_segments
    }

    /// True when quarantined segments mean reads cover only the
    /// surviving part of the index.
    pub fn is_degraded(&self) -> bool {
        self.quarantined_segments > 0
    }

    /// Total records across all slots.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the reader holds no records.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of shards the underlying index routes across.
    pub fn num_shards(&self) -> usize {
        self.num_shards
    }

    /// Filter length in bits.
    pub fn filter_len(&self) -> usize {
        self.filter_len
    }

    /// What this reader has read, avoided reading, and scanned so far
    /// (see [`ReadStats`] for what counts as which). Counters are
    /// cumulative over the reader's lifetime.
    pub fn read_stats(&self) -> ReadStats {
        let segments_skipped = self
            .slots
            .iter()
            .filter(|s| matches!(s.source, SlotSource::File { .. }) && s.arena.get().is_none())
            .count();
        ReadStats {
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            segments_read: self.segments_loaded.load(Ordering::Relaxed),
            segments_skipped,
            rows_scanned: self.rows_scanned.load(Ordering::Relaxed),
            rows_scored: self.rows_scored.load(Ordering::Relaxed),
            helper_rows: self.helper_rows.load(Ordering::Relaxed),
            kernel: pprl_similarity::kernel::kernel_name(),
        }
    }

    /// Materialises every file-backed slot (corruption surfaces here).
    pub fn materialise_all(&self) -> Result<()> {
        for slot in &self.slots {
            self.arena(slot)?;
        }
        Ok(())
    }

    /// The slot's arena, loading it from its segment file on first use.
    fn arena<'a>(&self, slot: &'a Slot) -> Result<&'a FilterArena> {
        if let Some(arena) = slot.arena.get() {
            return Ok(arena);
        }
        let _guard = self.load_lock.lock().expect("load lock");
        if let Some(arena) = slot.arena.get() {
            return Ok(arena);
        }
        let SlotSource::File {
            path,
            shard,
            seg_id,
            bytes,
        } = &slot.source
        else {
            return Err(storage_err("memory slot lost its arena".to_string()));
        };
        // Decode straight into the columnar arena — no per-record BitVec.
        let (seg_shard, arena) = read_segment_arena_with(&*self.vfs, path)?;
        if seg_shard != *shard {
            return Err(storage_err(format!(
                "segment {seg_id} claims shard {}, manifest says {shard}",
                seg_shard
            )));
        }
        if arena.filter_len() != self.filter_len {
            return Err(storage_err(format!(
                "segment {seg_id} has {}-bit filters, index expects {}",
                arena.filter_len(),
                self.filter_len
            )));
        }
        if arena.len() != slot.rows {
            return Err(storage_err(format!(
                "segment {seg_id} decoded {} records, manifest size implies {}",
                arena.len(),
                slot.rows
            )));
        }
        self.bytes_read.fetch_add(*bytes, Ordering::Relaxed);
        self.segments_loaded.fetch_add(1, Ordering::Relaxed);
        let _ = slot.arena.set(arena);
        Ok(slot.arena.get().expect("arena just set"))
    }

    /// The exact `k` most Dice-similar records to `query`, scanned by at
    /// most `threads` threads (a cap; see the module docs for when
    /// helpers join). Results are sorted by score
    /// descending, ties broken by ascending record id, and are
    /// bit-identical to a brute-force scan.
    pub fn top_k(&self, query: &BitVec, k: usize, threads: usize) -> Result<Vec<Hit>> {
        let mut results = self.top_k_batch(&[query], k, threads, None)?;
        Ok(results.pop().expect("one result per query"))
    }

    /// The slot visiting order that serves a query of popcount `q`
    /// best: indices of non-empty slots sorted by their popcount-only
    /// Dice ceiling `2·min(q, clamp(q, pc_min, pc_max)) / (q + ·)`
    /// descending, ties by index ascending. Scanning the
    /// highest-ceiling slots first makes the running k-th score rise as
    /// early as possible, so later low-ceiling slots are pruned without
    /// ever being materialised. The order depends only on this reader's
    /// slot geometry and `q` — never on filter *content* — which is
    /// what makes it cacheable per `(generation, popcount)`.
    pub fn popcount_scan_order(&self, q: usize) -> Vec<u32> {
        let mut order: Vec<u32> = (0..self.slots.len() as u32)
            .filter(|&si| self.slots[si as usize].rows > 0)
            .collect();
        order.sort_by(|&a, &b| {
            let sa = &self.slots[a as usize];
            let sb = &self.slots[b as usize];
            let ba = dice_upper_bound(q, q.clamp(sa.pc_min, sa.pc_max));
            let bb = dice_upper_bound(q, q.clamp(sb.pc_min, sb.pc_max));
            bb.total_cmp(&ba).then(a.cmp(&b))
        });
        order
    }

    /// [`IndexReader::top_k`] visiting slots in the given order (as
    /// produced by [`IndexReader::popcount_scan_order`], possibly served
    /// from a cache). The order is a *hint*: invalid or duplicate
    /// indices are ignored and unmentioned slots are appended, so the
    /// scan always covers the whole index and results stay bit-identical
    /// to the default order — only the amount of pruning changes.
    pub fn top_k_planned(
        &self,
        query: &BitVec,
        k: usize,
        threads: usize,
        order: &[u32],
    ) -> Result<Vec<Hit>> {
        let mut results = self.top_k_batch_inner(&[query], k, threads, None, Some(order))?;
        Ok(results.pop().expect("one result per query"))
    }

    /// Exact top-k for a whole batch of queries in one pass: every arena
    /// tile is loaded once and scanned by all still-live queries. With
    /// `min_score`, hits below it are dropped from the results —
    /// equivalently (and bit-for-bit identically), the top k among hits
    /// scoring at least `min_score` — which lets slots whose upper bound
    /// cannot reach `min_score` be skipped without ever materialising
    /// them, and turns the threshold into an integer floor for the scan
    /// kernel from the first tile on.
    pub fn top_k_batch(
        &self,
        queries: &[&BitVec],
        k: usize,
        threads: usize,
        min_score: Option<f64>,
    ) -> Result<Vec<Vec<Hit>>> {
        self.top_k_batch_inner(queries, k, threads, min_score, None)
    }

    fn top_k_batch_inner(
        &self,
        queries: &[&BitVec],
        k: usize,
        threads: usize,
        min_score: Option<f64>,
        order: Option<&[u32]>,
    ) -> Result<Vec<Vec<Hit>>> {
        for query in queries {
            if query.len() != self.filter_len {
                return Err(PprlError::shape(
                    format!("{} bits", self.filter_len),
                    format!("{} bits", query.len()),
                ));
            }
        }
        if let Some(ms) = min_score {
            if !(0.0..=1.0).contains(&ms) {
                return Err(PprlError::invalid("min_score", "must be in [0, 1]"));
            }
        }
        if queries.is_empty() {
            return Ok(Vec::new());
        }
        if k == 0 {
            return Ok(vec![Vec::new(); queries.len()]);
        }
        let ctxs: Vec<QueryCtx> = queries
            .iter()
            .map(|q| QueryCtx {
                words: q.as_words(),
                q: q.count_ones(),
                keys: band_keys(q, &self.summary_positions),
            })
            .collect();
        let nanos = (self.len * ctxs.len()) as u64 * SCAN_PAIR_NANOS;
        let elastic = runner::may_admit(threads, nanos);
        let tasks = self.split_tasks(if elastic { TASK_ROWS } else { usize::MAX }, order);
        let task_nanos = if elastic {
            nanos.div_ceil(tasks.len() as u64)
        } else {
            0
        };
        // Each participant's per-query heaps, scan buffers and pairs scanned.
        let init = || {
            let tops: Vec<TopK> = (0..queries.len()).map(|_| TopK::new(k)).collect();
            (tops, ScanScratch::new(ctxs.len()), 0)
        };
        let ((mut merged, _, _), helpers) = runner::run(
            threads,
            tasks.len(),
            task_nanos,
            init,
            |(tops, scratch, scanned), i| {
                *scanned += self.scan_task(tasks[i], &ctxs, min_score, tops, scratch)?;
                Ok(())
            },
        )?;
        for (tops, _, scanned) in helpers {
            self.helper_rows.fetch_add(scanned, Ordering::Relaxed);
            for (top, local) in merged.iter_mut().zip(tops) {
                for hit in local.heap {
                    top.push(hit.0);
                }
            }
        }
        Ok(merged
            .into_iter()
            .map(|top| {
                let mut hits = top.into_sorted();
                if let Some(ms) = min_score {
                    hits.retain(|h| h.score >= ms);
                }
                hits
            })
            .collect())
    }

    /// Best Dice score any record in `slot` could reach against `ctx`:
    /// the popcount bound at `clamp(q, pc_min, pc_max)`, tightened by the
    /// band-key summary bound when the query misses every summary table.
    fn slot_upper_bound(&self, slot: &Slot, ctx: &QueryCtx) -> f64 {
        let mut ub = dice_upper_bound(ctx.q, ctx.q.clamp(slot.pc_min, slot.pc_max));
        if !ctx.keys.is_empty() {
            if let Some(summary) = &slot.summary {
                if !summary.contains_any(&ctx.keys) {
                    ub = ub.min(no_match_dice_bound(
                        ctx.q,
                        slot.pc_max,
                        self.summary_positions.len(),
                    ));
                }
            }
        }
        ub
    }

    /// Scans rows `[start, end)` of slot `si` for every query whose
    /// bounds cannot exclude the slot, pushing into the caller's
    /// per-query accumulators, and returns the `(query, row)` pairs it
    /// handed the kernel. Pruned-for-all tasks return without
    /// materialising the slot.
    fn scan_task(
        &self,
        (si, start, end): Task,
        ctxs: &[QueryCtx],
        min_score: Option<f64>,
        locals: &mut [TopK],
        scratch: &mut ScanScratch,
    ) -> Result<u64> {
        let slot = &self.slots[si];
        // Slot-level pruning, before the segment file is touched.
        scratch.live.clear();
        for (qi, ctx) in ctxs.iter().enumerate() {
            let ub = self.slot_upper_bound(slot, ctx);
            if !locals[qi].theta(min_score).is_some_and(|theta| ub < theta) {
                scratch.live.push(qi);
            }
        }
        if scratch.live.is_empty() {
            return Ok(0);
        }
        let arena = self.arena(slot)?;
        let stride = arena.stride();
        let popcounts = arena.popcounts();
        // One dispatch-table fetch per task; tiles go through a fn pointer.
        let kernel = active_kernel();
        let (mut scanned, mut scored) = (0u64, 0u64);
        for tile in (start..end).step_by(TILE_ROWS) {
            let tile_end = end.min(tile + TILE_ROWS);
            let (x_lo, x_hi) = (popcounts[tile] as usize, popcounts[tile_end - 1] as usize);
            let rows = &arena.words()[tile * stride..tile_end * stride];
            for &qi in &scratch.live {
                let ctx = &ctxs[qi];
                let top = &mut locals[qi];
                let need = top
                    .theta(min_score)
                    .map_or(0, |theta| need_count(theta, ctx.q, x_lo));
                if need > ctx.q.min(x_hi) {
                    continue;
                }
                scratch.survivors.clear();
                kernel.scan_ge(ctx.words, rows, need, &mut scratch.survivors);
                scanned += (tile_end - tile) as u64;
                scored += scratch.survivors.len() as u64;
                for &(r, count) in &scratch.survivors {
                    let row = tile + r as usize;
                    top.push(Hit {
                        id: arena.id(row),
                        score: dice_from_counts(count as usize, ctx.q, popcounts[row] as usize),
                    });
                }
            }
        }
        self.rows_scanned.fetch_add(scanned, Ordering::Relaxed);
        self.rows_scored.fetch_add(scored, Ordering::Relaxed);
        Ok(scanned)
    }

    /// Splits slots into `(slot, start, end)` scan tasks of at most
    /// `chunk` rows (`usize::MAX`: one task per slot).
    ///
    /// `order` is the optional slot-visiting hint from
    /// [`IndexReader::popcount_scan_order`]: tasks are emitted (and thus
    /// claimed) in that order, with out-of-range or repeated indices
    /// dropped and unmentioned slots appended so coverage is identical
    /// either way.
    fn split_tasks(&self, chunk: usize, order: Option<&[u32]>) -> Vec<Task> {
        let visit: Vec<usize> = match order {
            None => (0..self.slots.len()).collect(),
            Some(hint) => {
                let mut seen = vec![false; self.slots.len()];
                let mut visit = Vec::with_capacity(self.slots.len());
                for &si in hint {
                    let si = si as usize;
                    if si < self.slots.len() && !seen[si] {
                        seen[si] = true;
                        visit.push(si);
                    }
                }
                visit.extend((0..self.slots.len()).filter(|&si| !seen[si]));
                visit
            }
        };
        // Exact capacity: a query's allocator calls must not grow with slots.
        let mut tasks = Vec::with_capacity(self.slots.iter().map(|s| s.rows.div_ceil(chunk)).sum());
        for si in visit {
            let n = self.slots[si].rows;
            if n == 0 {
                continue;
            }
            let mut start = 0;
            while start < n {
                let end = n.min(start.saturating_add(chunk));
                tasks.push((si, start, end));
                start = end;
            }
        }
        tasks
    }
}

/// A scan task: rows `[start, end)` of one slot, as `(slot, start, end)`.
type Task = (usize, usize, usize);

/// Per-query scan state: the query's words, popcount and band keys.
struct QueryCtx<'a> {
    words: &'a [u64],
    q: usize,
    keys: Vec<u64>,
}

/// Per-participant scan buffers, so no slot or tile allocates:
/// the queries the current slot's bounds could not exclude, and the
/// `(row in tile, intersection)` pairs one kernel call reported.
struct ScanScratch {
    live: Vec<usize>,
    survivors: Vec<(u32, u32)>,
}

impl ScanScratch {
    fn new(queries: usize) -> Self {
        ScanScratch {
            live: Vec::with_capacity(queries),
            survivors: Vec::with_capacity(TILE_ROWS),
        }
    }
}

/// Rows per scan tile: the unit at which a query's threshold becomes an
/// integer `need` and at which a batch shares loaded rows. 128 rows of a
/// 1000-bit index are 16 KiB — resident in any L1 while every query of a
/// batch scans them — and amortise the per-tile arithmetic and kernel
/// call to ~0.1 ns per row (64 → 96, 128 → 91, 256 → 87, L2-sized 512 →
/// 101 µs per probe on the benchmark's 50k CLKs).
const TILE_ROWS: usize = 128;

/// Rows per task of a call helpers may join: 16 tiles, ≤ ~150 µs for a
/// 32-probe batch, which bounds how long a writer waits for a helper to
/// yield its core.
const TASK_ROWS: usize = 16 * TILE_ROWS;

/// Estimated cost of one (row, probe) pair of a batched scan, for the
/// runner's admission rule: ~2.0–2.5 ns measured on 1000-bit CLKs.
const SCAN_PAIR_NANOS: u64 = 2;

/// `2·min(q, x)/(q + x)`, the best Dice score any filter with popcount
/// `x` can reach against a query with popcount `q`: a full overlap. Two
/// empty filters have Dice 1.0 by convention, matching `dice_bits`.
fn dice_upper_bound(q: usize, x: usize) -> f64 {
    dice_from_counts(q.min(x), q, x)
}

/// Worst-at-top ordering so a max-`BinaryHeap` evicts the weakest hit:
/// lower score is "greater"; on ties the larger id is "greater" (ids
/// break ties ascending in the final ranking).
#[derive(Debug)]
struct WorstFirst(Hit);

impl PartialEq for WorstFirst {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}
impl Eq for WorstFirst {}
impl PartialOrd for WorstFirst {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for WorstFirst {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .0
            .score
            .total_cmp(&self.0.score)
            .then(self.0.id.cmp(&other.0.id))
    }
}

/// Bounded top-k accumulator.
struct TopK {
    k: usize,
    heap: std::collections::BinaryHeap<WorstFirst>,
}

impl TopK {
    fn new(k: usize) -> Self {
        TopK {
            k,
            heap: std::collections::BinaryHeap::with_capacity(k + 1),
        }
    }

    /// The score a candidate must reach (ties included) to matter: the
    /// k-th score once full, floored by `min_score` (sub-threshold hits are
    /// dropped from the result anyway). `None` = everything matters.
    fn theta(&self, min_score: Option<f64>) -> Option<f64> {
        let kth = (self.heap.len() == self.k)
            .then(|| self.heap.peek().map(|w| w.0.score))
            .flatten();
        match (kth, min_score) {
            (Some(t), Some(ms)) => Some(t.max(ms)),
            (t, ms) => t.or(ms),
        }
    }

    fn push(&mut self, hit: Hit) {
        if self.heap.len() < self.k {
            self.heap.push(WorstFirst(hit));
            return;
        }
        let worst = self.heap.peek().expect("heap full").0;
        let better = hit.score > worst.score || (hit.score == worst.score && hit.id < worst.id);
        if better {
            self.heap.pop();
            self.heap.push(WorstFirst(hit));
        }
    }

    /// Drains into the final ranking: score descending, id ascending.
    fn into_sorted(self) -> Vec<Hit> {
        let mut hits: Vec<Hit> = self.heap.into_iter().map(|w| w.0).collect();
        hits.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.id.cmp(&b.id)));
        hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pprl_core::rng::SplitMix64;
    use pprl_similarity::bitvec_sim::dice_bits;

    impl IndexReader {
        /// Address and heap size of every resident arena, so store tests
        /// can tell shared rows from copies.
        pub(crate) fn resident_arenas(&self) -> Vec<(*const FilterArena, usize)> {
            let resident = self.slots.iter().filter_map(|s| s.arena.get());
            resident
                .map(|a| (std::ptr::from_ref(a), a.bytes()))
                .collect()
        }
    }

    fn random_filters(n: usize, len: usize, seed: u64) -> Vec<(u64, BitVec)> {
        let mut rng = SplitMix64::new(seed);
        (0..n)
            .map(|i| {
                let ones: Vec<usize> = (0..len)
                    .filter(|_| rng.next_u64().is_multiple_of(4))
                    .collect();
                (i as u64, BitVec::from_positions(len, &ones).unwrap())
            })
            .collect()
    }

    /// Reference implementation: score everything, sort, truncate.
    fn brute_force(records: &[(u64, BitVec)], query: &BitVec, k: usize) -> Vec<Hit> {
        let mut hits: Vec<Hit> = records
            .iter()
            .map(|(id, f)| Hit {
                id: *id,
                score: dice_bits(query, f).unwrap(),
            })
            .collect();
        hits.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.id.cmp(&b.id)));
        hits.truncate(k);
        hits
    }

    fn shard_split(records: &[(u64, BitVec)], shards: usize) -> Vec<Vec<(u64, BitVec)>> {
        let mut out = vec![Vec::new(); shards];
        for (i, r) in records.iter().enumerate() {
            out[i % shards].push(r.clone());
        }
        out
    }

    #[test]
    fn matches_brute_force_across_k_and_threads() {
        let records = random_filters(300, 128, 7);
        let reader = IndexReader::new(shard_split(&records, 4), 128).unwrap();
        let queries = random_filters(20, 128, 99);
        for (_, query) in &queries {
            for k in [1, 3, 10, 300, 500] {
                let expected = brute_force(&records, query, k);
                for threads in [1, 2, 4] {
                    let got = reader.top_k(query, k, threads).unwrap();
                    assert_eq!(got, expected, "k={k} threads={threads}");
                }
            }
        }
    }

    #[test]
    fn planned_scan_is_bit_identical_to_default_order() {
        let records = random_filters(260, 128, 23);
        let reader = IndexReader::new(shard_split(&records, 5), 128).unwrap();
        let queries = random_filters(12, 128, 71);
        for (_, query) in &queries {
            let plan = reader.popcount_scan_order(query.count_ones());
            for k in [1, 4, 50] {
                for threads in [1, 3] {
                    let default = reader.top_k(query, k, threads).unwrap();
                    let planned = reader.top_k_planned(query, k, threads, &plan).unwrap();
                    assert_eq!(planned, default, "k={k} threads={threads}");
                }
            }
            // A garbage hint (wrong indices, duplicates, empty) must not
            // change results either — it is only a visiting order.
            let garbage: Vec<u32> = vec![99, 99, 3, 3, 1_000_000];
            assert_eq!(
                reader.top_k_planned(query, 10, 2, &garbage).unwrap(),
                reader.top_k(query, 10, 1).unwrap()
            );
            assert_eq!(
                reader.top_k_planned(query, 10, 1, &[]).unwrap(),
                reader.top_k(query, 10, 1).unwrap()
            );
        }
    }

    #[test]
    fn scan_order_sorts_slots_by_popcount_ceiling() {
        // Three shards with forced popcount bands: sparse, medium, dense.
        let len = 128;
        let mk = |ones: std::ops::Range<usize>, base: u64| -> Vec<(u64, BitVec)> {
            ones.clone()
                .map(|n| {
                    let pos: Vec<usize> = (0..n.max(1)).collect();
                    (base + n as u64, BitVec::from_positions(len, &pos).unwrap())
                })
                .collect()
        };
        let shards = vec![mk(2..6, 0), mk(40..48, 100), mk(100..110, 200)];
        let reader = IndexReader::new(shards, len).unwrap();
        // A dense query should visit the dense slot first, sparse last.
        let dense_query = BitVec::from_positions(len, &(0..104).collect::<Vec<_>>()).unwrap();
        assert_eq!(
            reader.popcount_scan_order(dense_query.count_ones()),
            [2, 1, 0]
        );
        // A sparse query reverses the preference.
        let sparse_query = BitVec::from_positions(len, &[0, 1, 2, 3]).unwrap();
        assert_eq!(
            reader.popcount_scan_order(sparse_query.count_ones()),
            [0, 1, 2]
        );
    }

    #[test]
    fn batch_matches_per_query_top_k() {
        let records = random_filters(250, 128, 13);
        let reader = IndexReader::new(shard_split(&records, 3), 128).unwrap();
        let queries = random_filters(17, 128, 31);
        let probes: Vec<&BitVec> = queries.iter().map(|(_, q)| q).collect();
        for k in [1, 5, 40] {
            for threads in [1, 3, 8] {
                let batched = reader.top_k_batch(&probes, k, threads, None).unwrap();
                assert_eq!(batched.len(), probes.len());
                for (qi, probe) in probes.iter().enumerate() {
                    assert_eq!(
                        batched[qi],
                        reader.top_k(probe, k, 1).unwrap(),
                        "k={k} threads={threads} query={qi}"
                    );
                }
            }
        }
    }

    #[test]
    fn min_score_equals_top_k_then_filter() {
        // Hits at or above min_score always outrank hits below it, so
        // "top-k then filter" and "filter then top-k" coincide — the
        // batched path with min_score must be bit-identical to the
        // unbounded scan with a retain() after it.
        let records = random_filters(200, 128, 41);
        let reader = IndexReader::new(shard_split(&records, 2), 128).unwrap();
        let queries = random_filters(10, 128, 5);
        let probes: Vec<&BitVec> = queries.iter().map(|(_, q)| q).collect();
        for ms in [0.0, 0.4, 0.7, 1.0] {
            for k in [1, 6, 300] {
                let bounded = reader.top_k_batch(&probes, k, 2, Some(ms)).unwrap();
                for (qi, probe) in probes.iter().enumerate() {
                    let mut expected = reader.top_k(probe, k, 1).unwrap();
                    expected.retain(|h| h.score >= ms);
                    assert_eq!(bounded[qi], expected, "ms={ms} k={k} query={qi}");
                }
            }
        }
        let err = reader.top_k_batch(&probes, 3, 1, Some(1.5)).unwrap_err();
        assert!(matches!(err, PprlError::InvalidParameter { .. }), "{err}");
    }

    #[test]
    fn exact_match_ranks_first() {
        let records = random_filters(100, 96, 3);
        let reader = IndexReader::new(shard_split(&records, 2), 96).unwrap();
        let (id, query) = records[37].clone();
        let hits = reader.top_k(&query, 5, 2).unwrap();
        assert_eq!(hits[0].id, id);
        assert_eq!(hits[0].score, 1.0);
    }

    #[test]
    fn ties_break_by_ascending_id() {
        // Three identical filters: scores tie at 1.0, ids decide.
        let f = BitVec::from_positions(64, &[1, 5, 9]).unwrap();
        let records = vec![(30, f.clone()), (10, f.clone()), (20, f.clone())];
        let reader = IndexReader::new(vec![records], 64).unwrap();
        let hits = reader.top_k(&f, 2, 1).unwrap();
        assert_eq!(hits.iter().map(|h| h.id).collect::<Vec<_>>(), vec![10, 20]);
    }

    #[test]
    fn empty_query_and_empty_records() {
        let empty = BitVec::zeros(64);
        let records = vec![(0, empty.clone()), (1, BitVec::ones(64))];
        let reader = IndexReader::new(vec![records.clone()], 64).unwrap();
        // dice(empty, empty) = 1.0 by convention; dice(empty, ones) = 0.
        let hits = reader.top_k(&empty, 2, 1).unwrap();
        assert_eq!(hits, brute_force(&records, &empty, 2));
        assert_eq!(hits[0], Hit { id: 0, score: 1.0 });
    }

    #[test]
    fn k_zero_empty_batch_and_wrong_length() {
        let records = random_filters(10, 64, 1);
        let reader = IndexReader::new(vec![records], 64).unwrap();
        assert!(reader.top_k(&BitVec::zeros(64), 0, 1).unwrap().is_empty());
        assert!(reader.top_k_batch(&[], 3, 1, None).unwrap().is_empty());
        let err = reader.top_k(&BitVec::zeros(32), 1, 1).unwrap_err();
        assert!(matches!(err, PprlError::ShapeMismatch { .. }), "{err}");
    }

    #[test]
    fn reader_rejects_mismatched_record_length() {
        let err = IndexReader::new(vec![vec![(0, BitVec::zeros(32))]], 64).unwrap_err();
        assert!(matches!(err, PprlError::Storage(_)), "{err}");
    }

    #[test]
    fn more_threads_than_shards_is_fine() {
        let records = random_filters(50, 64, 5);
        let reader = IndexReader::new(shard_split(&records, 2), 64).unwrap();
        let (_, q) = &records[0];
        assert_eq!(reader.top_k(q, 5, 16).unwrap(), brute_force(&records, q, 5));
    }

    #[test]
    fn single_shard_splits_into_sub_ranges() {
        // One big slot: split_tasks must cut it into chunk-sized tasks
        // so helpers have something to claim.
        let records = random_filters(400, 128, 11);
        let reader = IndexReader::new(vec![records.clone()], 128).unwrap();
        let tasks = reader.split_tasks(64, None);
        assert_eq!(tasks.len(), 7, "expected sub-slot splitting, got {tasks:?}");
        assert!(tasks.iter().all(|&(si, s, e)| si == 0 && s < e && e <= 400));
        let covered: usize = tasks.iter().map(|&(_, s, e)| e - s).sum();
        assert_eq!(covered, 400, "tasks must tile the slot exactly");
    }

    #[test]
    fn sub_shard_split_matches_single_thread_scan() {
        // Regression: per-range pruning must stay lossless — the
        // multi-threaded, sub-slot-split result is bit-identical to the
        // one-task-per-slot single-thread scan and to brute force.
        let records = random_filters(500, 128, 23);
        let reader = IndexReader::new(shard_split(&records, 3), 128).unwrap();
        let queries = random_filters(10, 128, 77);
        for (_, query) in &queries {
            for k in [1, 7, 25] {
                let single = reader.top_k(query, k, 1).unwrap();
                assert_eq!(single, brute_force(&records, query, k));
                for threads in [2, 5, 8, 32] {
                    assert_eq!(
                        reader.top_k(query, k, threads).unwrap(),
                        single,
                        "k={k} threads={threads}"
                    );
                }
            }
        }
    }

    #[test]
    fn memory_reader_read_stats_are_zero() {
        let records = random_filters(20, 64, 3);
        let reader = IndexReader::new(vec![records], 64).unwrap();
        let stats = reader.read_stats();
        assert_eq!(stats.bytes_read, 0);
        assert_eq!(stats.segments_read, 0);
        assert_eq!(stats.segments_skipped, 0);
    }
}
