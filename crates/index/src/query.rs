//! Exact top-k Dice queries over the sharded store, on a columnar scan
//! kernel.
//!
//! The reader is a list of *slots*, each one popcount-sorted
//! [`FilterArena`] (flat `Vec<u64>`, fixed stride, parallel id/popcount
//! arrays) seen as a range of tiles. Every slot is resident when the
//! reader is built: a segment's arena is shared (`Arc`) with the store
//! that decoded it at open or wrote it in a flush or merge, and with
//! every other reader whose generation names it, so a reader never
//! touches a file. The reader cuts its slots once, when it is built,
//! into `(slot, range)` scan tasks of `TASK_ROWS` rows.
//!
//! One scan loop serves [`IndexReader::top_k`] and
//! [`IndexReader::top_k_batch`]: a task is walked tile by tile for every
//! probe it serves, and a row costs float arithmetic only if it can
//! place:
//!
//! 1. **Tiles and `need`** — rows are walked in tiles of `TILE_ROWS`.
//!    Per probe the threshold θ (its k-th score so far, floored by
//!    `min_score` or by the probe's shared k-th score) becomes
//!    `need = need_count(θ, q, x_lo)`, the smallest intersection whose
//!    Dice reaches θ at the tile's lowest popcount. A tile with
//!    `need > min(q, x_hi)` is skipped; otherwise the dispatched
//!    `Kernel::scan_ge` AND-popcounts it and reports only rows with
//!    `count >= need`. This is the scan's only bound.
//! 2. **Survivors** get their exact f64 score and meet the heap.
//!
//! Exactness: `need_count` is decided by the f64 expression of
//! [`dice_from_counts`] and is monotone in the row popcount, and rows
//! are popcount-sorted, so `count < need` means `score < θ` for every
//! row of the tile: a dropped row could neither enter the heap nor pass
//! `min_score`, while rows tying θ survive (ties break by ascending id).
//! θ only rises during a scan, so a stale `need` merely lets a few extra
//! rows through to the heap, which rejects them. Every participant keeps
//! its own top-k per probe, which is sound: a candidate below any
//! participant's k-th score cannot be in the global top k either.
//! Results are bit-identical to brute force over `dice_bits`.
//!
//! Two schedules drain the same tasks, both on [`pprl_core::runner`]:
//!
//! - **A batch** ([`IndexReader::top_k_batch`]) makes its own pass. The
//!   caller drains the tasks; a call with `threads > 1` and at least ~1M
//!   (row, probe) pairs lends idle cores to helpers the runner admits,
//!   whose heaps merge into the caller's at the end. Every tile is
//!   loaded once and scanned by each probe of the batch while it sits
//!   in L1.
//! - **A single probe** ([`IndexReader::top_k`]) joins the reader's
//!   *shared pass*: a claim counter that runs round the task list, and
//!   the single-probe calls in flight. A call registers at the current
//!   claim `s` and needs claims `[s, s + n)` of the `n` tasks; claim `i`
//!   is task `i mod n`, and whoever takes it scans it, in one tile loop,
//!   for every call whose span covers `i`. Concurrent queries thus load
//!   each tile once between them, and answers do not depend on where a
//!   call joined, because each visits every task exactly once. A
//!   participant scans a task into a local heap per call it covers,
//!   floored by that call's merged k-th score when the task began, and
//!   merges it into the call's heap when the task ends. A caller claims
//!   until its own span is issued, then parks until the tasks of its
//!   span that other threads took are scanned. A participant that
//!   panics holding a claim marks the calls it covers failed, so none
//!   of their callers waits on it; each of them panics in turn, as a
//!   batch caller does when its helper panics. A lone call large enough
//!   for helpers admits them through the runner like a batch, over the
//!   same claims.

use crate::arena::FilterArena;
use crate::store::ReadStats;
use pprl_core::bitvec::BitVec;
use pprl_core::error::{PprlError, Result};
use pprl_core::runner::{self, Claims};
use pprl_similarity::kernel::{active_kernel, dice_from_counts, need_count};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// One query result: a stored record id and its Dice similarity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hit {
    /// Record id as supplied at insert time.
    pub id: u64,
    /// Dice similarity in `[0, 1]`.
    pub score: f64,
}

/// An immutable snapshot of an index, ready for queries: one resident
/// arena per slot, the scan tasks cut from them, and the shared pass
/// its single-probe queries join.
#[derive(Debug)]
pub struct IndexReader {
    slots: Vec<Arc<FilterArena>>,
    /// `(slot, start, end)` scan tasks of `TASK_ROWS` rows, in slot order.
    tasks: Vec<Task>,
    ring: Ring,
    filter_len: usize,
    num_shards: usize,
    len: usize,
    /// Segment bytes the store read at open (0 for a memory reader).
    bytes_read: u64,
    /// (query, row) pairs handed to the scan kernel.
    rows_scanned: AtomicU64,
    /// Of those, the survivors that were scored and met the heap.
    rows_scored: AtomicU64,
    /// Of `rows_scanned`, the pairs a thread other than the probe's
    /// caller scanned.
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
            tasks: split_tasks(&slots, TASK_ROWS),
            ring: Ring::new(),
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

    /// The exact `k` most Dice-similar records to `query`, scanned on the
    /// reader's shared pass with every other single-probe query in
    /// flight, by at most `threads` threads of this call (a cap; see the
    /// module docs for when helpers join). Results are sorted by score
    /// descending, ties broken by ascending record id, and are
    /// bit-identical to a brute-force scan.
    pub fn top_k(&self, query: &BitVec, k: usize, threads: usize) -> Result<Vec<Hit>> {
        self.top_k_observed(query, k, threads, |_| ())
    }

    /// [`IndexReader::top_k`], calling `on_claim` on the claiming thread
    /// after each claim this call's participants take on the shared pass
    /// (`Some(claim)`, before it is scanned) and when one finds its
    /// span issued (`None`). Claim `i` is task `i mod n`. Blocking in
    /// `on_claim` holds the pass at that point, which lets tests script
    /// how concurrent calls interleave.
    #[doc(hidden)]
    pub fn top_k_observed(
        &self,
        query: &BitVec,
        k: usize,
        threads: usize,
        on_claim: impl Fn(Option<u64>) + Sync,
    ) -> Result<Vec<Hit>> {
        self.check_shape(query)?;
        if k == 0 {
            return Ok(Vec::new());
        }
        let Some((call, scratch)) = self.ring.register(query, k, self.tasks.len(), on_claim) else {
            // Every place on the pass is taken: scan alone.
            let mut hits = self.top_k_batch(&[query], k, threads, None)?;
            return Ok(hits.pop().expect("one result per query"));
        };
        let run = runner::run_claims(
            threads,
            &call,
            self.task_nanos(1, threads),
            scratch,
            Scratch::default,
            |scratch, claim| {
                self.scan_claim(claim, scratch);
                Ok(())
            },
        );
        let mut group = call.settle();
        let (scratch, _) = run?;
        group.scratch = scratch;
        assert!(!group.failed, "a shared-scan participant panicked");
        Ok(group.top.take_sorted())
    }

    /// Exact top-k for a whole batch of queries in one pass of its own:
    /// every arena tile is loaded once and scanned by every query. With
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
            self.check_shape(query)?;
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
        let probes: Vec<u64> = queries.iter().flat_map(|q| q.as_words()).copied().collect();
        let qs: Vec<usize> = queries.iter().map(|q| q.count_ones()).collect();
        // Each participant's per-query heaps and its kernel's survivor
        // buffer (so no tile allocates).
        let init = || {
            let tops: Vec<TopK> = (0..queries.len())
                .map(|_| TopK {
                    k,
                    floor: min_score,
                    ..TopK::default()
                })
                .collect();
            (tops, Vec::with_capacity(TILE_ROWS))
        };
        let ((mut merged, _), helpers) = runner::run(
            threads,
            self.tasks.len(),
            self.task_nanos(queries.len(), threads),
            init,
            |(tops, survivors), i| {
                self.scan_task(self.tasks[i], &probes, &qs, tops, survivors);
                Ok(())
            },
        )?;
        for (tops, _) in helpers {
            for (top, mut local) in merged.iter_mut().zip(tops) {
                self.helper_rows.fetch_add(local.scanned, Ordering::Relaxed);
                top.merge(&mut local);
            }
        }
        Ok(merged
            .iter_mut()
            .map(|top| {
                let mut hits = top.take_sorted();
                if let Some(ms) = min_score {
                    hits.retain(|h| h.score >= ms);
                }
                hits
            })
            .collect())
    }

    /// The runner's estimate for one task of a call scanning `probes`
    /// probes: 0 (no helpers) unless the whole call is worth helpers.
    fn task_nanos(&self, probes: usize, threads: usize) -> u64 {
        let nanos = (self.len * probes) as u64 * SCAN_PAIR_NANOS;
        if runner::may_admit(threads, nanos) {
            nanos.div_ceil(self.tasks.len() as u64)
        } else {
            0
        }
    }

    fn check_shape(&self, query: &BitVec) -> Result<()> {
        if query.len() != self.filter_len {
            return Err(PprlError::shape(
                format!("{} bits", self.filter_len),
                format!("{} bits", query.len()),
            ));
        }
        Ok(())
    }

    /// Scans the task of shared-pass `claim` for every call it covers, in
    /// one tile loop, and merges each call's hits into its heap.
    fn scan_claim(&self, (claim, mut unsettled): (u64, Unsettled<'_>), scratch: &mut Scratch) {
        let covered = unsettled.covered;
        let Scratch {
            probes,
            qs,
            tops,
            survivors,
            own,
        } = scratch;
        probes.clear();
        qs.clear();
        for (j, place) in places(covered).enumerate() {
            let group = lock(&self.ring.groups[place].state);
            probes.extend_from_slice(&group.words);
            qs.push(group.q);
            if tops.len() == j {
                tops.push(TopK::default());
            }
            tops[j].reset(group.top.k, group.top.kth());
        }
        let task = self.tasks[(claim % self.tasks.len() as u64) as usize];
        self.scan_task(task, probes, qs, &mut tops[..qs.len()], survivors);
        for (place, local) in places(covered).zip(tops.iter_mut()) {
            if *own != Some(place) {
                self.helper_rows.fetch_add(local.scanned, Ordering::Relaxed);
            }
            let mut group = lock(&self.ring.groups[place].state);
            group.top.merge(local);
            group.settled += 1;
            if group.waiting {
                self.ring.groups[place].settled.notify_one();
            }
            unsettled.covered &= !(1 << place);
        }
    }

    /// Scans rows `[start, end)` of slot `si` for every probe (`probes`
    /// holds their words back to back, `qs` their popcounts), pushing
    /// into the participant's per-probe heaps. `survivors` holds the
    /// `(row in tile, intersection)` pairs of one kernel call.
    fn scan_task(
        &self,
        (si, start, end): Task,
        probes: &[u64],
        qs: &[usize],
        tops: &mut [TopK],
        survivors: &mut Vec<(u32, u32)>,
    ) {
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
            for ((words, &q), top) in probes.chunks_exact(stride).zip(qs).zip(tops.iter_mut()) {
                let need = top.theta().map_or(0, |theta| need_count(theta, q, x_lo));
                if need > q.min(x_hi) {
                    continue;
                }
                survivors.clear();
                kernel.scan_ge(words, rows, need, survivors);
                top.scanned += (tile_end - tile) as u64;
                scanned += (tile_end - tile) as u64;
                scored += survivors.len() as u64;
                for &(r, count) in survivors.iter() {
                    let row = tile + r as usize;
                    top.push(Hit {
                        id: arena.id(row),
                        score: dice_from_counts(count as usize, q, popcounts[row] as usize),
                    });
                }
            }
        }
        self.rows_scanned.fetch_add(scanned, Ordering::Relaxed);
        self.rows_scored.fetch_add(scored, Ordering::Relaxed);
    }
}

/// Splits slots into `(slot, start, end)` scan tasks of at most `chunk`
/// rows, in slot order.
fn split_tasks(slots: &[Arc<FilterArena>], chunk: usize) -> Vec<Task> {
    let mut tasks = Vec::new();
    for (si, slot) in slots.iter().enumerate() {
        let n = slot.len();
        let mut start = 0;
        while start < n {
            let end = n.min(start + chunk);
            tasks.push((si, start, end));
            start = end;
        }
    }
    tasks
}

/// A scan task: rows `[start, end)` of one slot, as `(slot, start, end)`.
type Task = (usize, usize, usize);

/// Rows per scan tile: the unit at which a query's threshold becomes an
/// integer `need` and at which a batch shares loaded rows. 128 rows of a
/// 512-bit index are 8 KiB, resident in any L1 while every query of a
/// batch scans them. ns per (row, probe), 32 probes over 50k CLKs, in
/// alternating runs: 64 rows 2.85–2.95 against 128 rows 2.56–2.76;
/// 128 → 1.60–1.67, 256 → 1.57–1.62, 512 → 1.49–1.71 (within noise).
const TILE_ROWS: usize = 128;

/// Rows per scan task: 16 tiles, ~6 µs for one probe and ~0.1–0.2 ms for
/// a 32-probe batch at 512 bits: how long a woken writer waits for an
/// elastic scan thread to yield its core at its next claim, and a finished
/// shared-pass caller for a co-participant's task.
const TASK_ROWS: usize = 16 * TILE_ROWS;

/// Estimated cost of one (row, probe) pair of a batched scan, for the
/// runner's admission rule: 1.5–1.7 ns on 512-bit CLKs (slow phase 2.5–2.9).
const SCAN_PAIR_NANOS: u64 = 2;

/// Single-probe calls one reader's shared pass serves at once (bits of
/// a `u64` mask); a call that finds every place taken scans alone.
const RING_PLACES: usize = 64;

/// A reader's shared pass: the claim cursor and the calls on it.
#[derive(Debug)]
struct Ring {
    cursor: Mutex<Cursor>,
    groups: Box<[Group]>,
}

#[derive(Debug)]
struct Cursor {
    /// The next claim; claim `i` is task `i mod n`.
    next: u64,
    /// Bit `p` set: place `p` holds a call.
    taken: u64,
    /// The claims `[start, end)` the call in each place needs.
    spans: [(u64, u64); RING_PLACES],
}

/// One place on the pass: the state of the call in it, and where its
/// caller parks until the last task of its span is scanned.
#[derive(Debug, Default)]
struct Group {
    state: Mutex<GroupState>,
    settled: Condvar,
}

#[derive(Debug, Default)]
struct GroupState {
    /// The probe's words and popcount, written at registration.
    words: Vec<u64>,
    q: usize,
    /// The merged top k of the tasks scanned for the call so far.
    top: TopK,
    /// Claims of the call's span scanned (or abandoned by a panic).
    settled: u64,
    /// A participant panicked mid-task: the answer is incomplete.
    failed: bool,
    /// The caller is parked on [`Group::settled`].
    waiting: bool,
    /// The caller's scan scratch, kept here between calls.
    scratch: Scratch,
}

/// One participant's scan scratch: the words, popcounts and local heaps
/// of the calls its current claim covers, and the kernel's survivors.
#[derive(Debug, Default)]
struct Scratch {
    probes: Vec<u64>,
    qs: Vec<usize>,
    tops: Vec<TopK>,
    survivors: Vec<(u32, u32)>,
    /// The place of the call this participant is the caller of (`None`
    /// on a runner helper).
    own: Option<usize>,
}

/// The places set in `mask`, lowest first.
fn places(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let place = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            place
        })
    })
}

/// Locks `mutex`, past a poisoning panic: a participant that panicked
/// has already marked the calls it covered failed.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Ring {
    fn new() -> Ring {
        Ring {
            cursor: Mutex::new(Cursor {
                next: 0,
                taken: 0,
                spans: [(0, 0); RING_PLACES],
            }),
            groups: (0..RING_PLACES).map(|_| Group::default()).collect(),
        }
    }

    /// Puts a call for `query` on the pass at the current claim, needing
    /// the next `tasks` claims, and hands back the call and the caller's
    /// scratch; `None` when every place is taken. The call's state is
    /// written before the cursor lock is released, so no claim covers it
    /// half-written.
    fn register<F>(
        &self,
        query: &BitVec,
        k: usize,
        tasks: usize,
        on_claim: F,
    ) -> Option<(Call<'_, F>, Scratch)> {
        let mut cursor = lock(&self.cursor);
        let place = (!cursor.taken).trailing_zeros() as usize;
        if place == RING_PLACES {
            return None;
        }
        cursor.taken |= 1 << place;
        cursor.spans[place] = (cursor.next, cursor.next + tasks as u64);
        let mut group = lock(&self.groups[place].state);
        group.words.clear();
        group.words.extend_from_slice(query.as_words());
        group.q = query.count_ones();
        group.top.reset(k, None);
        group.settled = 0;
        group.failed = false;
        let mut scratch = std::mem::take(&mut group.scratch);
        scratch.own = Some(place);
        let call = Call {
            ring: self,
            place,
            on_claim,
        };
        Some((call, scratch))
    }
}

/// One call's place on the pass. Its participants drain it as their
/// claim source: the next claim of the pass while the call's span has
/// claims left, with the calls the claim covers. Dropping it settles
/// the call and frees the place.
struct Call<'a, F> {
    ring: &'a Ring,
    place: usize,
    on_claim: F,
}

impl<'a, F: Fn(Option<u64>) + Sync> Claims for Call<'a, F> {
    /// The claim, and the calls whose spans cover it, which its
    /// participant now owes a scan.
    type Claim = (u64, Unsettled<'a>);

    fn claim(&self) -> Option<(u64, Unsettled<'a>)> {
        let claim = {
            let mut cursor = lock(&self.ring.cursor);
            let i = cursor.next;
            (i < cursor.spans[self.place].1).then(|| {
                cursor.next += 1;
                let covered = places(cursor.taken)
                    .filter(|&p| (cursor.spans[p].0..cursor.spans[p].1).contains(&i))
                    .fold(0u64, |mask, p| mask | 1 << p);
                let ring = self.ring;
                (i, Unsettled { ring, covered })
            })
        };
        (self.on_claim)(claim.as_ref().map(|(i, _)| *i));
        claim
    }

    fn left(&self) -> usize {
        let cursor = lock(&self.ring.cursor);
        cursor.spans[self.place].1.saturating_sub(cursor.next) as usize
    }

    fn close(&self) {
        // Scanning a claim cannot fail, so nothing ever closes the pass.
    }
}

impl<F> Call<'_, F> {
    /// Ends the call's span at the claims already issued, then parks
    /// until every one of them is scanned; returns the call's state.
    fn settle(&self) -> MutexGuard<'_, GroupState> {
        let issued = {
            let mut cursor = lock(&self.ring.cursor);
            let next = cursor.next;
            let (start, end) = &mut cursor.spans[self.place];
            *end = (*end).min(next);
            *end - *start
        };
        let place = &self.ring.groups[self.place];
        let mut group = lock(&place.state);
        group.waiting = true;
        while group.settled < issued {
            group = place
                .settled
                .wait(group)
                .unwrap_or_else(PoisonError::into_inner);
        }
        group.waiting = false;
        group
    }
}

impl<F> Drop for Call<'_, F> {
    fn drop(&mut self) {
        drop(self.settle());
        lock(&self.ring.cursor).taken &= !(1 << self.place);
    }
}

/// The calls a claim covers that its scan has not settled yet, from the
/// moment the claim is taken: dropped by a panic, it settles them as
/// failed so their callers do not wait.
struct Unsettled<'a> {
    ring: &'a Ring,
    covered: u64,
}

impl Drop for Unsettled<'_> {
    fn drop(&mut self) {
        for place in places(self.covered) {
            let mut group = lock(&self.ring.groups[place].state);
            group.failed = true;
            group.settled += 1;
            if group.waiting {
                self.ring.groups[place].settled.notify_one();
            }
        }
    }
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

/// Bounded top-k accumulator for one probe, with the floor its scan
/// starts from and the rows scanned into it.
#[derive(Debug, Default)]
struct TopK {
    k: usize,
    /// A score no hit below can matter: `min_score`, or the probe's
    /// merged k-th score when a shared-pass task began.
    floor: Option<f64>,
    heap: std::collections::BinaryHeap<WorstFirst>,
    /// Rows handed to the kernel for this probe.
    scanned: u64,
}

impl TopK {
    /// Empties the heap, keeping its buffer, for a scan of the top `k`
    /// above `floor`.
    fn reset(&mut self, k: usize, floor: Option<f64>) {
        self.heap.clear();
        (self.k, self.floor, self.scanned) = (k, floor, 0);
    }

    /// The k-th score once full.
    fn kth(&self) -> Option<f64> {
        (self.heap.len() == self.k)
            .then(|| self.heap.peek().map(|w| w.0.score))
            .flatten()
    }

    /// The score a candidate must reach (ties included) to matter: the
    /// k-th score once full, raised to the floor. `None` = everything
    /// matters.
    fn theta(&self) -> Option<f64> {
        match (self.kth(), self.floor) {
            (Some(t), Some(f)) => Some(t.max(f)),
            (t, f) => t.or(f),
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

    /// Moves `other`'s hits in.
    fn merge(&mut self, other: &mut TopK) {
        for hit in other.heap.drain() {
            self.push(hit.0);
        }
    }

    /// Drains into the final ranking: score descending, id ascending.
    fn take_sorted(&mut self) -> Vec<Hit> {
        let mut hits: Vec<Hit> = self.heap.drain().map(|w| w.0).collect();
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
        // so the shared pass and helpers have something to claim.
        let records = random_filters(400, 128, 11);
        let reader = IndexReader::new(vec![records.clone()], 128).unwrap();
        let tasks = split_tasks(&reader.slots, 64);
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
    fn a_k_beyond_the_rows_allocates_by_rows_not_by_k() {
        // k arrives from the wire as a u32: heaps grow with the hits
        // they hold, never to k up front.
        let records = random_filters(60, 64, 9);
        let reader = IndexReader::new(shard_split(&records, 2), 64).unwrap();
        let (_, q) = &records[4];
        let k = u32::MAX as usize;
        let all = brute_force(&records, q, k);
        assert_eq!(all.len(), 60);
        assert_eq!(reader.top_k(q, k, 1).unwrap(), all);
        assert_eq!(reader.top_k_batch(&[q], k, 2, None).unwrap()[0], all);
    }

    #[test]
    fn memory_reader_read_stats_are_zero() {
        let records = random_filters(20, 64, 3);
        let reader = IndexReader::new(vec![records], 64).unwrap();
        assert_eq!(reader.read_stats().bytes_read, 0);
    }
}
