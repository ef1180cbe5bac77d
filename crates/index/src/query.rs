//! Exact top-k Dice queries over the sharded store, on a columnar scan
//! kernel.
//!
//! The reader is a list of *slots*, each one popcount-sorted
//! [`FilterArena`] (flat `Vec<u64>`, fixed stride, parallel id/popcount
//! arrays) seen as a range of tiles. Every slot is resident when the
//! reader is built: a segment's arena is shared (`Arc`) with the store
//! that decoded it at open or wrote it in a flush or merge, and with
//! every other reader whose generation names it, so a reader never
//! touches a file.
//!
//! One scan loop serves [`IndexReader::top_k`] and
//! [`IndexReader::top_k_batch`], visiting slots in order, and a row
//! costs float arithmetic only if it can place:
//!
//! 1. **Tiles and `need`** — rows are walked in tiles of `TILE_ROWS`.
//!    Per query the threshold θ (its k-th score so far, floored by
//!    `min_score`) becomes `need = need_count(θ, q, x_lo)`, the smallest
//!    intersection whose Dice reaches θ at the tile's lowest popcount. A
//!    tile with `need > min(q, x_hi)` is skipped; otherwise the
//!    dispatched `Kernel::scan_ge` AND-popcounts it and reports only
//!    rows with `count >= need`. This is the scan's only bound.
//! 2. **Survivors** get their exact f64 score and meet the heap.
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
//! (row, probe) pairs is cut into tasks of `TASK_ROWS` so that helpers
//! the runner admits to idle cores can share it. Each participant keeps
//! one local top-k per query (sound: a candidate below a thread's own
//! k-th score cannot be in the global top k either) and helpers' heaps
//! merge into the caller's at the end. In a batch every tile is loaded
//! once and scanned by each query while it sits in L1.

use crate::arena::FilterArena;
use crate::store::ReadStats;
use pprl_core::bitvec::BitVec;
use pprl_core::error::{PprlError, Result};
use pprl_core::runner;
use pprl_similarity::kernel::{active_kernel, dice_from_counts, need_count};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One query result: a stored record id and its Dice similarity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hit {
    /// Record id as supplied at insert time.
    pub id: u64,
    /// Dice similarity in `[0, 1]`.
    pub score: f64,
}

/// An immutable snapshot of an index, ready for queries: one resident
/// arena per slot.
#[derive(Debug)]
pub struct IndexReader {
    slots: Vec<Arc<FilterArena>>,
    filter_len: usize,
    num_shards: usize,
    len: usize,
    /// Segment bytes the store read at open (0 for a memory reader).
    bytes_read: u64,
    /// (query, row) pairs handed to the scan kernel.
    rows_scanned: AtomicU64,
    /// Of those, the survivors that were scored and met the heap.
    rows_scored: AtomicU64,
    /// Of `rows_scanned`, the pairs scan helpers took.
    helper_rows: AtomicU64,
    /// Segments the store quarantined at open; > 0 means this reader
    /// serves a degraded view of the index.
    quarantined_segments: usize,
}

impl IndexReader {
    /// Builds a memory reader from per-shard record lists. Every filter
    /// must have length `filter_len`.
    pub fn new(shard_records: Vec<Vec<(u64, BitVec)>>, filter_len: usize) -> Result<IndexReader> {
        let num_shards = shard_records.len();
        let slots = shard_records
            .into_iter()
            .map(|records| Ok(Arc::new(FilterArena::from_records(records, filter_len)?)))
            .collect::<Result<Vec<_>>>()?;
        Ok(Self::from_arenas(slots, filter_len, num_shards, 0, 0))
    }

    /// A reader over `slots` (crate-internal; the public constructors
    /// are [`IndexReader::new`] and [`crate::store::IndexStore::reader`]),
    /// reporting `bytes_read` and `quarantined_segments` from the store.
    pub(crate) fn from_arenas(
        slots: Vec<Arc<FilterArena>>,
        filter_len: usize,
        num_shards: usize,
        bytes_read: u64,
        quarantined_segments: usize,
    ) -> IndexReader {
        IndexReader {
            len: slots.iter().map(|a| a.len()).sum(),
            slots,
            filter_len,
            num_shards,
            bytes_read,
            rows_scanned: AtomicU64::new(0),
            rows_scored: AtomicU64::new(0),
            helper_rows: AtomicU64::new(0),
            quarantined_segments,
        }
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

    /// What the store read to build this reader and what it has scanned
    /// so far (see [`ReadStats`]). Scan counters are cumulative over the
    /// reader's lifetime.
    pub fn read_stats(&self) -> ReadStats {
        ReadStats {
            bytes_read: self.bytes_read,
            rows_scanned: self.rows_scanned.load(Ordering::Relaxed),
            rows_scored: self.rows_scored.load(Ordering::Relaxed),
            helper_rows: self.helper_rows.load(Ordering::Relaxed),
            kernel: pprl_similarity::kernel::kernel_name(),
        }
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

    /// Exact top-k for a whole batch of queries in one pass: every arena
    /// tile is loaded once and scanned by every query. With
    /// `min_score`, hits below it are dropped from the results —
    /// equivalently (and bit-for-bit identically), the top k among hits
    /// scoring at least `min_score` — which turns the threshold into an
    /// integer floor for the scan kernel from the first tile on.
    pub fn top_k_batch(
        &self,
        queries: &[&BitVec],
        k: usize,
        threads: usize,
        min_score: Option<f64>,
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
            })
            .collect();
        let nanos = (self.len * ctxs.len()) as u64 * SCAN_PAIR_NANOS;
        let elastic = runner::may_admit(threads, nanos);
        let tasks = self.split_tasks(if elastic { TASK_ROWS } else { usize::MAX });
        let task_nanos = if elastic {
            nanos.div_ceil(tasks.len() as u64)
        } else {
            0
        };
        // Each participant's per-query heaps, its kernel's survivor
        // buffer (so no tile allocates) and the pairs it scanned.
        let init = || {
            let tops: Vec<TopK> = (0..queries.len()).map(|_| TopK::new(k)).collect();
            (tops, Vec::with_capacity(TILE_ROWS), 0)
        };
        let ((mut merged, _, _), helpers) = runner::run(
            threads,
            tasks.len(),
            task_nanos,
            init,
            |(tops, survivors, scanned), i| {
                *scanned += self.scan_task(tasks[i], &ctxs, min_score, tops, survivors);
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

    /// Scans rows `[start, end)` of slot `si` for every query, pushing
    /// into the caller's per-query accumulators, and returns the
    /// `(query, row)` pairs it handed the kernel. `survivors` holds the
    /// `(row in tile, intersection)` pairs of one kernel call.
    fn scan_task(
        &self,
        (si, start, end): Task,
        ctxs: &[QueryCtx],
        min_score: Option<f64>,
        locals: &mut [TopK],
        survivors: &mut Vec<(u32, u32)>,
    ) -> u64 {
        let arena = &self.slots[si];
        let stride = arena.stride();
        let popcounts = arena.popcounts();
        // One dispatch-table fetch per task; tiles go through a fn pointer.
        let kernel = active_kernel();
        let (mut scanned, mut scored) = (0u64, 0u64);
        for tile in (start..end).step_by(TILE_ROWS) {
            let tile_end = end.min(tile + TILE_ROWS);
            let (x_lo, x_hi) = (popcounts[tile] as usize, popcounts[tile_end - 1] as usize);
            let rows = &arena.words()[tile * stride..tile_end * stride];
            for (ctx, top) in ctxs.iter().zip(locals.iter_mut()) {
                let need = top
                    .theta(min_score)
                    .map_or(0, |theta| need_count(theta, ctx.q, x_lo));
                if need > ctx.q.min(x_hi) {
                    continue;
                }
                survivors.clear();
                kernel.scan_ge(ctx.words, rows, need, survivors);
                scanned += (tile_end - tile) as u64;
                scored += survivors.len() as u64;
                for &(r, count) in survivors.iter() {
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
        scanned
    }

    /// Splits slots into `(slot, start, end)` scan tasks of at most
    /// `chunk` rows (`usize::MAX`: one task per slot), in slot order.
    fn split_tasks(&self, chunk: usize) -> Vec<Task> {
        // Exact capacity: a query's allocator calls must not grow with slots.
        let mut tasks =
            Vec::with_capacity(self.slots.iter().map(|s| s.len().div_ceil(chunk)).sum());
        for (si, slot) in self.slots.iter().enumerate() {
            let n = slot.len();
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

/// Per-query scan state: the query's words and popcount.
struct QueryCtx<'a> {
    words: &'a [u64],
    q: usize,
}

/// Rows per scan tile: the unit at which a query's threshold becomes an
/// integer `need` and at which a batch shares loaded rows. 128 rows of a
/// 1000-bit index are 16 KiB — resident in any L1 while every query of a
/// batch scans them — and amortise the per-tile arithmetic and kernel
/// call to ~0.1 ns per row (64 → 96, 128 → 91, 256 → 87, L2-sized 512 →
/// 101 µs per probe on the benchmark's 50k CLKs).
const TILE_ROWS: usize = 128;

/// Rows per task of a call helpers may join: 16 tiles, ≤ ~150 µs for a
/// 32-probe batch, which bounds how long a woken writer waits for a
/// scan thread to yield its core at its next claim.
const TASK_ROWS: usize = 16 * TILE_ROWS;

/// Estimated cost of one (row, probe) pair of a batched scan, for the
/// runner's admission rule: ~2.0–2.5 ns measured on 1000-bit CLKs.
const SCAN_PAIR_NANOS: u64 = 2;

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
        /// Address and heap size of every slot's arena, so store tests
        /// can tell shared rows from copies.
        pub(crate) fn resident_arenas(&self) -> Vec<(*const FilterArena, usize)> {
            self.slots
                .iter()
                .map(|a| (Arc::as_ptr(a), a.bytes()))
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
        let tasks = reader.split_tasks(64);
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
        assert_eq!(reader.read_stats().bytes_read, 0);
    }
}
