//! The linkage service: snapshot-isolated queries, serialised writes,
//! background compaction, result caching, and the stats surface.
//!
//! Concurrency model in one paragraph: the [`IndexStore`] sits behind a
//! `Mutex` that only *writers* (insert, compaction) take. Queries never
//! touch it — they pin an immutable [`Snapshot`] from the
//! [`SnapshotHub`] and run entirely against in-memory state, so a
//! compaction rewriting segments on the maintenance thread can neither
//! block nor be blocked by reads. After any mutation the writer builds a
//! fresh reader, installs it as the next generation (the on-disk
//! counterpart being `pprl-index`'s atomic tmp+rename manifest swap),
//! and the superseded segment files wait in the hub until every reader
//! of an older generation drains.

use crate::cache::{plan_bucket, plan_bucket_representative, LruCache, PlanKey, QueryKey};
use crate::metrics::Metrics;
use crate::snapshot::{Snapshot, SnapshotHub};
use crate::wire::StatsReport;
use pprl_core::bitvec::BitVec;
use pprl_core::error::{PprlError, Result};
use pprl_core::gauge;
use pprl_index::query::Hit;
use pprl_index::store::{CompactionOutcome, IndexStore, TieredPolicy};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Tunables for a [`LinkageService`].
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Result-cache capacity in entries (0 disables caching).
    pub cache_capacity: usize,
    /// Size-tiered compaction policy for maintenance steps.
    pub tiered: TieredPolicy,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            cache_capacity: 256,
            tiered: TieredPolicy::default(),
        }
    }
}

/// A thread-safe linkage service over one persistent index.
#[derive(Debug)]
pub struct LinkageService {
    store: Mutex<IndexStore>,
    hub: SnapshotHub,
    cache: Mutex<LruCache<QueryKey, Vec<Hit>>>,
    /// Popcount scan plans, keyed `(generation, popcount)`: probes that
    /// miss the exact-key result cache still reuse the slot-visiting
    /// order computed for any earlier probe of the same popcount.
    plans: Mutex<LruCache<PlanKey, Arc<Vec<u32>>>>,
    /// Aggregate counters and the latency histogram.
    pub metrics: Metrics,
    config: ServiceConfig,
    started: Instant,
}

impl LinkageService {
    /// Opens the index at `dir` and builds the generation-0 snapshot.
    /// The snapshot's reader is *lazy*: segment files are read on the
    /// first query that actually needs them (popcount bounds and
    /// band-key summaries prune the rest), not all up front.
    pub fn open(dir: &Path, config: ServiceConfig) -> Result<LinkageService> {
        config.tiered.validate()?;
        let store = IndexStore::open(dir)?;
        let reader = store.lazy_reader()?;
        Ok(LinkageService {
            store: Mutex::new(store),
            hub: SnapshotHub::new(reader),
            cache: Mutex::new(LruCache::new(config.cache_capacity)),
            plans: Mutex::new(LruCache::new(config.cache_capacity)),
            metrics: Metrics::default(),
            config,
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
        let plan = self.scan_plan(&snap, filter.count_ones());
        let hits = snap
            .reader
            .top_k_planned(filter, k, gauge::cores(), &plan)?;
        self.cache
            .lock()
            .expect("cache lock")
            .put(key, hits.clone());
        Metrics::add(&self.metrics.queries, 1);
        self.metrics.observe_latency(started);
        Ok(hits)
    }

    /// The cached slot-visiting order for a probe of popcount `q`
    /// against `snap`'s generation, deriving and caching it on a miss.
    /// The plan is purely an ordering hint — results are bit-identical
    /// with or without it (see `IndexReader::top_k_planned`) — so a
    /// cache race can at worst cost a recomputation, never correctness.
    ///
    /// Plans are keyed on the probe's popcount *bucket* and derived
    /// from the bucket midpoint, so a miss-heavy workload whose
    /// popcounts wander within a band still reuses one derivation per
    /// `(generation, bucket)` instead of re-sorting segment bounds for
    /// every distinct popcount. `STATS` exposes the hit/derive split as
    /// `plan_hits` / `plan_misses`.
    fn scan_plan(&self, snap: &Snapshot, q: usize) -> Arc<Vec<u32>> {
        let bucket = plan_bucket(q as u32);
        let key: PlanKey = (snap.generation, bucket);
        if let Some(plan) = self.plans.lock().expect("plan lock").get(&key) {
            Metrics::add(&self.metrics.plan_hits, 1);
            return plan;
        }
        Metrics::add(&self.metrics.plan_misses, 1);
        let plan = Arc::new(
            snap.reader
                .popcount_scan_order(plan_bucket_representative(bucket) as usize),
        );
        self.plans
            .lock()
            .expect("plan lock")
            .put(key, Arc::clone(&plan));
        plan
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

    /// Builds a fresh lazy reader from the (locked) store and installs it
    /// as the next generation, clearing the result cache. The new reader
    /// inherits every segment the store's earlier readers materialised,
    /// so the swap costs the segments this mutation wrote, not the index.
    /// The retiring snapshot's cumulative read counter folds into the
    /// service metrics here, so `bytes_read` in [`stats_report`] stays a
    /// running total across generations.
    ///
    /// [`stats_report`]: LinkageService::stats_report
    fn install_fresh(&self, store: &IndexStore, obsolete: Vec<std::path::PathBuf>) -> Result<u64> {
        let reader = store.lazy_reader()?;
        let retiring = self.hub.pin();
        Metrics::add(
            &self.metrics.bytes_read,
            retiring.reader.read_stats().bytes_read,
        );
        let generation = self.hub.install(reader, obsolete);
        self.cache.lock().expect("cache lock").clear();
        self.plans.lock().expect("plan lock").clear();
        Ok(generation)
    }

    /// Appends records durably (WAL + flush to segments) and installs
    /// the next snapshot generation. Returns the new generation.
    pub fn insert(&self, records: &[(u64, BitVec)]) -> Result<u64> {
        let expected = self.filter_len();
        for (_, filter) in records {
            self.check_filter(filter, expected)?;
        }
        let mut store = self.store.lock().expect("store lock");
        store.insert_batch(records)?;
        store.flush()?;
        let generation = self.install_fresh(&store, Vec::new())?;
        Metrics::add(&self.metrics.inserts, 1);
        Ok(generation)
    }

    /// Runs one size-tiered compaction step. When a tier merges, the new
    /// manifest is swapped in atomically, the next snapshot generation
    /// is installed, and the rewritten segment files are queued for
    /// reclamation once readers of older generations drain (attempted
    /// immediately, and again on every later step).
    pub fn compact_step(&self) -> Result<CompactionOutcome> {
        let outcome = {
            let mut store = self.store.lock().expect("store lock");
            let outcome = store.compact_tiered(&self.config.tiered)?;
            if !outcome.is_noop() {
                self.install_fresh(&store, outcome.obsolete.clone())?;
                Metrics::add(&self.metrics.compactions, 1);
                Metrics::add(
                    &self.metrics.segments_merged,
                    outcome.merged_segments as u64,
                );
                Metrics::add(&self.metrics.merge_rows, outcome.records_rewritten as u64);
            }
            outcome
        };
        self.hub.reclaim_drained()?;
        Ok(outcome)
    }

    /// Deletes obsolete segment files of drained generations.
    pub fn reclaim_drained(&self) -> Result<usize> {
        self.hub.reclaim_drained()
    }

    /// Retired generations whose files are still awaiting reclamation.
    pub fn retired_generations(&self) -> usize {
        self.hub.retired_len()
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
            plan_hits: Metrics::get(&self.metrics.plan_hits),
            plan_misses: Metrics::get(&self.metrics.plan_misses),
            busy_rejected: Metrics::get(&self.metrics.busy_rejected),
            compactions: Metrics::get(&self.metrics.compactions),
            segments_merged: Metrics::get(&self.metrics.segments_merged),
            // Retired generations' reads (folded in at install) plus what
            // the live snapshot has lazily materialised so far.
            bytes_read: Metrics::get(&self.metrics.bytes_read) + read_stats.bytes_read,
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
