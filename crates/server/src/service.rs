//! The linkage service: snapshot-isolated queries, serialised writes,
//! background compaction, result caching, and the stats surface.
//!
//! Concurrency model in one paragraph: the [`IndexStore`] sits behind a
//! `Mutex` that only *writers* (insert, compaction) take. Queries never
//! touch it — they pin an immutable [`Snapshot`] from the
//! [`SnapshotHub`] and run entirely against in-memory state, so a
//! compaction rewriting segments on the maintenance thread can neither
//! block nor be blocked by reads. After any mutation the writer builds a
//! fresh reader over the store's resident arenas and installs it as the
//! next generation (the on-disk counterpart being `pprl-index`'s atomic
//! tmp+rename manifest swap).

use crate::cache::{LruCache, QueryKey};
use crate::metrics::Metrics;
use crate::snapshot::{Snapshot, SnapshotHub};
use crate::wire::StatsReport;
use pprl_core::bitvec::BitVec;
use pprl_core::error::{PprlError, Result};
use pprl_core::gauge;
use pprl_index::query::Hit;
use pprl_index::store::{CompactionOutcome, IndexStore};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Pending rows at which [`LinkageService::insert`] flushes inline
/// rather than waiting for the maintenance tick. Every install rebuilds
/// the pending rows' memory slots, copying and popcount-sorting each row
/// into the slot of the shard it was routed to on insert: 0.055 µs per
/// 1000-bit row over 8 shards on an idle 2-vCPU x86-64 host (0.15 µs
/// when each install also re-routed every row). At 8,192 rows that is
/// ~0.46 ms per ack, far below the 5.6–8.4 ms a per-insert flush cost on
/// a 50k-record store. What sizes the constant is the inline flush
/// itself (14–18 ms at 8,192 rows), paid by one ack in ≥ 40 200-row
/// batches: a larger value makes that stall longer and holds more rows
/// in memory, a smaller one pays the flush's 12 fsyncs more often. A
/// constant, not a setting: it bounds memory and install cost only,
/// never what an ack guarantees.
pub const INLINE_FLUSH_ROWS: usize = 8_192;

/// A thread-safe linkage service over one persistent index.
#[derive(Debug)]
pub struct LinkageService {
    store: Mutex<IndexStore>,
    hub: SnapshotHub,
    cache: Mutex<LruCache<QueryKey, Vec<Hit>>>,
    /// Aggregate counters and the latency histogram.
    pub metrics: Metrics,
    started: Instant,
}

impl LinkageService {
    /// Opens the index at `dir` — which reads every segment file once,
    /// into the arenas every later generation shares — and builds the
    /// generation-0 snapshot, with a result cache of `cache_capacity`
    /// entries (0 disables caching).
    pub fn open(dir: &Path, cache_capacity: usize) -> Result<LinkageService> {
        let store = IndexStore::open(dir)?;
        let reader = store.reader()?;
        Ok(LinkageService {
            store: Mutex::new(store),
            hub: SnapshotHub::new(reader),
            cache: Mutex::new(LruCache::new(cache_capacity)),
            metrics: Metrics::default(),
            started: Instant::now(),
        })
    }

    /// Pins the snapshot currently being served.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.hub.pin()
    }

    /// Generation currently being served.
    pub fn generation(&self) -> u64 {
        self.hub.generation()
    }

    /// Filter length (bits) this index serves.
    pub fn filter_len(&self) -> usize {
        self.hub.pin().reader.filter_len()
    }

    fn check_filter(&self, filter: &BitVec, expected: usize) -> Result<()> {
        if filter.len() != expected {
            return Err(PprlError::shape(
                format!("{expected}-bit filter"),
                format!("{}-bit filter", filter.len()),
            ));
        }
        Ok(())
    }

    /// Answers a top-k Dice query against the current snapshot, serving
    /// from the result cache when possible. Deterministic: hits are
    /// ordered by (score desc, id asc), identical to an offline
    /// [`pprl_index::query::IndexReader::top_k`] on the same generation.
    pub fn query(&self, filter: &BitVec, k: usize) -> Result<Vec<Hit>> {
        let started = Instant::now();
        let snap = self.hub.pin();
        self.check_filter(filter, snap.reader.filter_len())?;
        // The generation inside the key makes stale population harmless:
        // a result computed against generation g can only ever be
        // returned for lookups that also pinned g.
        let key: QueryKey = (snap.generation, filter.to_bytes(), k as u32);
        if let Some(hits) = self.cache.lock().expect("cache lock").get(&key) {
            Metrics::add(&self.metrics.cache_hits, 1);
            Metrics::add(&self.metrics.queries, 1);
            self.metrics.observe_latency(started);
            return Ok(hits);
        }
        Metrics::add(&self.metrics.cache_misses, 1);
        let hits = snap.reader.top_k(filter, k, gauge::cores())?;
        self.cache
            .lock()
            .expect("cache lock")
            .put(key, hits.clone());
        Metrics::add(&self.metrics.queries, 1);
        self.metrics.observe_latency(started);
        Ok(hits)
    }

    /// Batch link: top-k per probe against one pinned snapshot, dropping
    /// hits below `min_score`. All probes see the same generation. The
    /// whole batch runs through one columnar
    /// [`pprl_index::query::IndexReader::top_k_batch`] scan — every arena
    /// block is walked once for all probes — with results bit-identical
    /// to per-probe `top_k` followed by a `min_score` filter.
    pub fn link(&self, probes: &[BitVec], k: usize, min_score: f64) -> Result<Vec<Vec<Hit>>> {
        let started = Instant::now();
        let snap = self.hub.pin();
        for probe in probes {
            self.check_filter(probe, snap.reader.filter_len())?;
        }
        let refs: Vec<&BitVec> = probes.iter().collect();
        let out = snap
            .reader
            .top_k_batch(&refs, k, gauge::cores(), Some(min_score))?;
        Metrics::add(&self.metrics.links, 1);
        self.metrics.observe_latency(started);
        Ok(out)
    }

    /// Builds a fresh reader from the (locked) store and installs it as
    /// the next generation, clearing the result cache. The new reader
    /// shares every segment arena with the store and reads no file, so
    /// the swap costs a copy of the pending rows, not the index.
    fn install_fresh(&self, store: &IndexStore) -> Result<u64> {
        let generation = self.hub.install(store.reader()?);
        self.cache.lock().expect("cache lock").clear();
        Ok(generation)
    }

    /// Appends records to the write-ahead log and installs the next
    /// snapshot generation, in which they are visible and exact at once
    /// as in-memory pending rows. Returns the new generation.
    ///
    /// The ack boundary is the WAL append and its one fsync: a crash
    /// after it loses nothing, because opening the store replays the
    /// log. Moving the rows into segment files is left to
    /// [`compact_step`] on the maintenance tick; only when pending rows
    /// reach [`INLINE_FLUSH_ROWS`] (maintenance off, or behind) does an
    /// insert flush them itself.
    ///
    /// [`compact_step`]: LinkageService::compact_step
    pub fn insert(&self, records: &[(u64, BitVec)]) -> Result<u64> {
        let expected = self.filter_len();
        for (_, filter) in records {
            self.check_filter(filter, expected)?;
        }
        let mut store = self.store.lock().expect("store lock");
        store.insert_batch(records)?;
        if store.pending_len() >= INLINE_FLUSH_ROWS {
            store.flush()?;
        }
        let generation = self.install_fresh(&store)?;
        Metrics::add(&self.metrics.inserts, 1);
        Ok(generation)
    }

    /// One maintenance step: flushes pending rows into segments, then
    /// runs one size-tiered compaction step, then installs one next
    /// snapshot generation if either changed the store. When a tier
    /// merges, the new manifest is swapped in atomically and the
    /// rewritten segment files are deleted at once; pinned older
    /// generations keep the arenas they share. The returned outcome
    /// describes the merge only.
    pub fn compact_step(&self) -> Result<CompactionOutcome> {
        let mut store = self.store.lock().expect("store lock");
        let flushed = store.pending_len() > 0;
        store.flush()?;
        let outcome = store.compact_tiered()?;
        if flushed || !outcome.is_noop() {
            self.install_fresh(&store)?;
        }
        if !outcome.is_noop() {
            Metrics::add(&self.metrics.compactions, 1);
            Metrics::add(
                &self.metrics.segments_merged,
                outcome.merged_segments as u64,
            );
            Metrics::add(&self.metrics.merge_rows, outcome.records_rewritten as u64);
        }
        Ok(outcome)
    }

    /// Flushes pending rows into segment files and, if there were any,
    /// installs the next generation. The maintenance thread's last step
    /// on shutdown.
    pub(crate) fn flush(&self) -> Result<()> {
        let mut store = self.store.lock().expect("store lock");
        if store.pending_len() > 0 {
            store.flush()?;
            self.install_fresh(&store)?;
        }
        Ok(())
    }

    /// Snapshot of the aggregate stats surface.
    pub fn stats_report(&self, workers: u32, queue_capacity: u32) -> StatsReport {
        let snap = self.hub.pin();
        let read_stats = snap.reader.read_stats();
        StatsReport {
            records: snap.reader.len() as u64,
            generation: snap.generation,
            queries: Metrics::get(&self.metrics.queries),
            links: Metrics::get(&self.metrics.links),
            inserts: Metrics::get(&self.metrics.inserts),
            cache_hits: Metrics::get(&self.metrics.cache_hits),
            cache_misses: Metrics::get(&self.metrics.cache_misses),
            plan_hits: 0,
            plan_misses: 0,
            // Counted by the front end: a `Busy` rejection happens
            // before any tenant is known.
            busy_rejected: 0,
            compactions: Metrics::get(&self.metrics.compactions),
            segments_merged: Metrics::get(&self.metrics.segments_merged),
            bytes_read: read_stats.bytes_read,
            latency_p50_us: self.metrics.latency.quantile_us(0.50),
            latency_p99_us: self.metrics.latency.quantile_us(0.99),
            uptime_ms: self.started.elapsed().as_millis() as u64,
            workers,
            queue_capacity,
            quarantined_segments: snap.reader.quarantined_segments() as u64,
            degraded: snap.reader.is_degraded(),
            cluster_shards: 0,
            shards_down: 0,
            missing_shards: Vec::new(),
            merge_rows: Metrics::get(&self.metrics.merge_rows),
            kernel: read_stats.kernel.to_string(),
        }
    }
}
