//! The scatter–gather coordinator: shard connections, routing, quorum,
//! and degraded-mode bookkeeping.
//!
//! Topology is deliberately dumb: N independent `pprl-server` shard
//! nodes, each holding a disjoint slice of the corpus, fronted by one
//! coordinator that speaks the same wire protocol downstream (through
//! the stock [`Client`]) and upstream (see [`crate::server`]). Reads
//! (Query/Link) are broadcast to every shard and the per-shard top-k
//! lists merged exactly by [`crate::merge::merge_top_k`]; writes
//! (Insert) are routed to a single shard by a stable hash of the record
//! id, so a record always lands — and is always found — on the same
//! node.
//!
//! Fan-out needs no threads. Every operation goes through one
//! [`Coordinator::scatter`]: the request is encoded once from the
//! caller's borrowed data, *phase 1* writes that payload to a pooled
//! (or freshly dialed) connection of every target shard, *phase 2*
//! reads the replies in shard order on the calling thread. Once the
//! requests are on the wire the shards work concurrently and the
//! kernel buffers whatever arrives early, so reading in turn waits
//! exactly as long as the slowest shard — what a thread per shard
//! would wait — without the spawn, join and wake-up per shard per
//! request. One absolute deadline covers the whole gather.
//!
//! Failure handling follows the quorum/degraded-mode semantics of
//! `protocols::session`: a shard whose call fails at the transport
//! layer is marked down and the operation proceeds over the survivors,
//! as long as at least [`ClusterConfig::min_shards`] answered.
//! Degradation is never silent — it is surfaced through the Stats
//! opcode (`degraded`, `shards_down`, `missing_shards`), the CLI
//! banner, and the coordinator's own metrics. A down shard is probed
//! again on the next request; recovery is automatic once it answers.

use crate::merge::merge_top_k;
use pprl_core::bitvec::BitVec;
use pprl_core::error::{PprlError, Result};
use pprl_core::hash::fnv1a;
use pprl_index::query::Hit;
use pprl_server::client::Client;
use pprl_server::metrics::{LatencyHistogram, Metrics};
use pprl_server::wire::{
    encode_insert, encode_link, encode_query, Request, Response, StatsReport, WIRE_VERSION,
};
use pprl_session::handshake::ClientAuth;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Tunables for a [`Coordinator`].
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Shard node addresses (`host:port`), in shard-index order. The
    /// order is part of the cluster's identity: insert routing hashes
    /// record ids onto *indices* of this list.
    pub shards: Vec<String>,
    /// Read quorum: a broadcast read succeeds as long as at least this
    /// many shards answered; fewer is a typed error, not a silently
    /// partial result. Writes always require their routed shard.
    pub min_shards: usize,
    /// Deadline of one gather: every shard's reply (request + shard
    /// think time) is awaited against the same instant, this long after
    /// the scatter began. A fallback on one shard (stale-socket redial,
    /// `Busy` backoff) runs a plain [`Client::call`] under a fresh
    /// budget of the same length.
    pub deadline: Duration,
    /// Credentials the coordinator presents to its shard nodes. `None`
    /// speaks plaintext wire v3 (shards must be running without an auth
    /// registry); `Some` runs the wire v4 handshake on every shard
    /// connection — including redials after stale pooled sockets. The
    /// identity should be privileged (`*` grant) on the shards so
    /// [`Coordinator::shutdown_shards`] can tear the fleet down.
    pub shard_auth: Option<ClientAuth>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            shards: Vec::new(),
            min_shards: 1,
            deadline: Duration::from_secs(10),
            shard_auth: None,
        }
    }
}

impl ClusterConfig {
    /// A config fronting `shards` with default quorum and deadline.
    pub fn new(shards: Vec<String>) -> Self {
        ClusterConfig {
            shards,
            ..ClusterConfig::default()
        }
    }

    fn validate(&self) -> Result<()> {
        if self.shards.is_empty() {
            return Err(PprlError::invalid("shards", "need at least one address"));
        }
        if self.min_shards == 0 || self.min_shards > self.shards.len() {
            return Err(PprlError::invalid(
                "min_shards",
                format!("must be in 1..={}", self.shards.len()),
            ));
        }
        Ok(())
    }
}

/// Coordinator-level counters: requests as seen at the coordinator
/// (one broadcast query counts once here, once per shard downstream).
#[derive(Debug, Default)]
pub struct ClusterMetrics {
    /// Broadcast queries answered.
    pub queries: AtomicU64,
    /// Broadcast link batches answered.
    pub links: AtomicU64,
    /// Routed insert batches applied.
    pub inserts: AtomicU64,
    /// Shard calls that failed at the transport layer.
    pub shard_failures: AtomicU64,
    /// Reads answered from a strict subset of shards.
    pub degraded_replies: AtomicU64,
    /// Coordinator-side request latency (scatter + gather + merge).
    pub latency: LatencyHistogram,
}

/// One shard node: its address, a small pool of idle connections
/// (workers return connections after successful calls, so concurrent
/// requests multiplex without a global lock), and the last known
/// health, updated by every call outcome. Every pooled connection is
/// quiescent — no request of ours is unanswered on it.
#[derive(Debug)]
struct ShardSlot {
    addr: String,
    idle: Mutex<Vec<Client>>,
    down: AtomicBool,
}

/// Stable routing of a record id onto `shards` buckets: FNV-1a over the
/// id's little-endian bytes. Not the Hamming-LSH sharding `pprl-index`
/// uses *inside* each node — cluster routing must depend only on the
/// id, so a client can later locate a record without knowing its
/// filter.
pub fn route_id(id: u64, shards: usize) -> usize {
    (fnv1a(&id.to_le_bytes()) % shards.max(1) as u64) as usize
}

/// True for errors that mean "this shard is unreachable or unusable"
/// (connect failures, broken frames, deadline exhaustion, version
/// skew) as opposed to "the shard is fine but rejected this request"
/// (e.g. a filter-length mismatch), which must surface to the caller
/// rather than degrade the cluster.
fn is_shard_failure(e: &PprlError) -> bool {
    matches!(
        e,
        PprlError::Transport(_) | PprlError::Timeout(_) | PprlError::UnsupportedVersion { .. }
    )
}

/// The scatter–gather coordinator. All methods take `&self`; concurrent
/// requests from the front end's worker threads share the per-shard
/// connection pools.
#[derive(Debug)]
pub struct Coordinator {
    shards: Vec<ShardSlot>,
    config: ClusterConfig,
    started: Instant,
    /// Coordinator-level counters and latency histogram.
    pub metrics: ClusterMetrics,
}

impl Coordinator {
    /// Builds a coordinator over `config.shards`. Connections are opened
    /// lazily per call, so a cluster can be assembled before every
    /// shard is up — health is discovered (and re-discovered) on use.
    pub fn new(config: ClusterConfig) -> Result<Coordinator> {
        config.validate()?;
        let shards = config
            .shards
            .iter()
            .map(|addr| ShardSlot {
                addr: addr.clone(),
                idle: Mutex::new(Vec::new()),
                down: AtomicBool::new(false),
            })
            .collect();
        Ok(Coordinator {
            shards,
            config,
            started: Instant::now(),
            metrics: ClusterMetrics::default(),
        })
    }

    /// [`Coordinator::new`] plus an eager health probe: connects to
    /// every shard (retrying briefly, for shards still binding their
    /// port) and exchanges one real request — a Stats round-trip — so a
    /// version-skewed shard, or some non-pprl service that happens to
    /// accept on the configured port, fails fast at startup instead of
    /// on first use. Fails unless at least the read quorum answered
    /// the probe.
    pub fn connect(config: ClusterConfig) -> Result<Coordinator> {
        let coordinator = Self::new(config)?;
        let mut up = 0usize;
        for slot in &coordinator.shards {
            let probed = Client::connect_retry_with(
                &slot.addr,
                coordinator.config.shard_auth.clone(),
                20,
                Duration::from_millis(50),
            )
            .and_then(|mut client| {
                client.set_deadline(coordinator.config.deadline);
                client.stats().map(|_| client)
            });
            match probed {
                Ok(client) => {
                    slot.idle.lock().expect("idle lock").push(client);
                    up += 1;
                }
                // Bad credentials are a configuration error, not a down
                // shard: every node would reject them identically, so
                // fail fast with the real reason instead of a quorum
                // error that hides it.
                Err(e @ (PprlError::Auth(_) | PprlError::CrossTenant { .. })) => return Err(e),
                Err(_) => {
                    slot.down.store(true, Ordering::SeqCst);
                    Metrics::add(&coordinator.metrics.shard_failures, 1);
                }
            }
        }
        if up < coordinator.config.min_shards {
            return Err(PprlError::Transport(format!(
                "cluster below quorum at startup: {up} of {} shards answered \
                 the stats probe (quorum {})",
                coordinator.shards.len(),
                coordinator.config.min_shards
            )));
        }
        Ok(coordinator)
    }

    /// Shard addresses, in shard-index order.
    pub fn shard_addrs(&self) -> Vec<String> {
        self.shards.iter().map(|s| s.addr.clone()).collect()
    }

    /// Number of shards this coordinator fronts.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Indices of shards whose last call failed (down as of the most
    /// recent contact; a later successful call clears the mark).
    pub fn missing_shards(&self) -> Vec<u32> {
        self.shards
            .iter()
            .enumerate()
            .filter(|(_, s)| s.down.load(Ordering::SeqCst))
            .map(|(i, _)| i as u32)
            .collect()
    }

    /// Marks shard `i` down if `e` is a shard failure; a typed rejection
    /// passes through (the shard is up, it just refused this request).
    fn failed(&self, i: usize, e: PprlError) -> PprlError {
        if is_shard_failure(&e) {
            self.shards[i].down.store(true, Ordering::SeqCst);
            Metrics::add(&self.metrics.shard_failures, 1);
        }
        e
    }

    /// A fresh connection to shard `i` (handshake included when
    /// authenticating) with the cluster deadline set.
    fn dial(&self, i: usize) -> Result<Client> {
        let mut client = Client::connect_with(&self.shards[i].addr, self.config.shard_auth.clone())
            .map_err(|e| self.failed(i, e))?;
        client.set_deadline(self.config.deadline);
        Ok(client)
    }

    /// Phase 1 for one shard: writes `payload` on a pooled connection,
    /// else a fresh one, and returns it with whether it was pooled.
    ///
    /// A `Transport` failure writing to a *pooled* socket proves nothing
    /// about the shard — nodes close sessions idle past their
    /// `idle_timeout`, so a quiet pool holds dead sockets — and a frame
    /// that never arrived whole was never processed: dial once and send
    /// there instead. A write `Timeout` is terminal on a pooled socket
    /// as on a fresh one, like a read timeout in
    /// [`recv_from`](Coordinator::recv_from): the peer holds the socket
    /// open but is not draining it, so a redial would most likely stall
    /// the same way and spend the deadline twice.
    fn send_to(&self, i: usize, payload: &[u8]) -> Result<(Client, bool)> {
        // Bind the pop first: the pool's guard must not outlive this
        // statement, or it would be held across the I/O below.
        let pooled = self.shards[i].idle.lock().expect("idle lock").pop();
        if let Some(mut client) = pooled {
            match client.send(payload) {
                Ok(()) => return Ok((client, true)),
                Err(PprlError::Transport(_)) => {}
                Err(e) => return Err(self.failed(i, e)),
            }
        }
        let mut client = self.dial(i)?;
        client.send(payload).map_err(|e| self.failed(i, e))?;
        Ok((client, false))
    }

    /// Phase 2 for one shard: reads the reply owed on the connection
    /// `send_to` returned, against the gather's `deadline`, and updates
    /// the shard's health mark. Per shard:
    ///
    /// - `Transport` on a *pooled* socket is taken as the stale-socket
    ///   signature (EOF or reset, no reply byte): the write went into a
    ///   dead socket's buffer. A node that reads a request always
    ///   writes its reply on the same connection before closing it, so
    ///   no reply means never processed, and one fresh dial plus a
    ///   plain [`Client::call`] cannot double-apply an insert. A
    ///   freshly dialed socket gets no second chance.
    /// - `Timeout` carries no such proof — the request may be fully
    ///   written to a slow-but-alive shard that applies it after we
    ///   give up, so resending could double-apply — and a version-skewed
    ///   shard answers a redial identically: both are terminal and mark
    ///   the shard down.
    /// - `Busy` means rejected before dispatch and the connection
    ///   closed: `Client::call` on the same client backs off,
    ///   reconnects and resends within its own deadline.
    /// - A typed rejection leaves the health mark alone and surfaces to
    ///   [`Coordinator::gather`], which aborts the operation on it.
    ///
    /// **A connection returns to the idle pool only here, once its reply
    /// has been read in full and has the shape `expect` accepts.** A
    /// reply left unread would be taken for the answer to the *next*
    /// request on that connection — under wire v4 too, where it carries
    /// exactly the sequence number the next reply is expected to. Every
    /// other outcome drops the connection.
    fn recv_from<T>(
        &self,
        i: usize,
        payload: &[u8],
        sent: Result<(Client, bool)>,
        deadline: Instant,
        expect: &impl Fn(Response) -> Option<T>,
    ) -> Result<T> {
        let (mut client, pooled) = sent?;
        let call = |client: &mut Client| client.call(&Request::decode(payload)?);
        let reply = match client.recv(deadline) {
            Ok(Response::Busy { .. }) => call(&mut client),
            Err(PprlError::Transport(_)) if pooled => {
                client = self.dial(i)?;
                call(&mut client)
            }
            other => other,
        };
        let malformed =
            || PprlError::Transport(format!("shard {i}: malformed or unexpected reply"));
        match reply.and_then(|reply| expect(reply).ok_or_else(malformed)) {
            Ok(value) => {
                self.shards[i].down.store(false, Ordering::SeqCst);
                self.shards[i].idle.lock().expect("idle lock").push(client);
                Ok(value)
            }
            Err(e) => Err(self.failed(i, e)),
        }
    }

    /// The one fan-out path. Sends each `(shard, payload)` leg, then
    /// reads the replies in the same order on the calling thread; a
    /// reply `expect` does not accept is a shard failure. Every request
    /// is on the wire before the first reply is awaited, so the shards
    /// overlap; every reply is awaited even after another leg has
    /// failed, so no connection is left with a reply in flight. A silent
    /// shard costs the gather its deadline once (blocking reads wake at
    /// least every `deadline`; each further silent shard adds at most
    /// one such wake-up).
    fn scatter<'a, T>(
        &self,
        legs: impl Iterator<Item = (usize, &'a [u8])>,
        expect: impl Fn(Response) -> Option<T>,
    ) -> Vec<Result<T>> {
        let deadline = Instant::now() + self.config.deadline;
        let sent: Vec<_> = legs
            .map(|(i, payload)| (i, payload, self.send_to(i, payload)))
            .collect();
        sent.into_iter()
            .map(|(i, payload, sent)| self.recv_from(i, payload, sent, deadline, &expect))
            .collect()
    }

    /// [`Coordinator::scatter`] of one shared payload to every shard.
    fn broadcast<T>(
        &self,
        payload: &[u8],
        expect: impl Fn(Response) -> Option<T>,
    ) -> Vec<Result<T>> {
        self.scatter((0..self.shards.len()).map(|i| (i, payload)), expect)
    }

    /// Splits gather results into per-shard successes and a missing
    /// count, enforcing the read quorum. Non-shard-failure errors (the
    /// shard answered, but with a typed rejection) abort the whole
    /// operation — they indicate a caller bug, not a down node.
    fn gather<T>(&self, results: Vec<Result<T>>) -> Result<(Vec<T>, usize)> {
        let total = results.len();
        let mut values = Vec::with_capacity(total);
        let mut missing = 0usize;
        for r in results {
            match r {
                Ok(v) => values.push(v),
                Err(e) if is_shard_failure(&e) => missing += 1,
                Err(e) => return Err(e),
            }
        }
        if values.len() < self.config.min_shards {
            return Err(PprlError::Transport(format!(
                "cluster below quorum: {} of {total} shards answered \
                 (quorum {})",
                values.len(),
                self.config.min_shards
            )));
        }
        if missing > 0 {
            Metrics::add(&self.metrics.degraded_replies, 1);
        }
        Ok((values, missing))
    }

    /// Broadcast top-k query: every reachable shard computes its local
    /// top k, and the lists merge exactly into the global top k. With
    /// every shard up the result is bit-identical to a single node
    /// holding the union corpus; with shards down it is the exact
    /// answer over the surviving sub-corpus (and the reply is counted
    /// as degraded).
    pub fn query(&self, filter: &BitVec, k: usize) -> Result<Vec<Hit>> {
        let started = Instant::now();
        let results = self.broadcast(&encode_query(filter, k as u32), |reply| match reply {
            Response::Hits(hits) => Some(hits),
            _ => None,
        });
        let (lists, _missing) = self.gather(results)?;
        let merged = merge_top_k(&lists, k);
        Metrics::add(&self.metrics.queries, 1);
        self.metrics
            .latency
            .record_us(started.elapsed().as_micros() as u64);
        Ok(merged)
    }

    /// Broadcast batch link: per-probe top-k at or above `min_score`,
    /// merged per probe with the same exact k-way merge as
    /// [`Coordinator::query`]. A shard whose reply does not carry
    /// exactly one hit list per probe is malformed, not "no hits for
    /// the rest": it counts as a failed shard under the quorum rules.
    pub fn link(&self, probes: &[BitVec], k: usize, min_score: f64) -> Result<Vec<Vec<Hit>>> {
        let started = Instant::now();
        let payload = encode_link(probes, k as u32, min_score);
        let results = self.broadcast(&payload, |reply| match reply {
            Response::LinkHits(lists) if lists.len() == probes.len() => Some(lists),
            _ => None,
        });
        let (mut per_shard, _missing) = self.gather(results)?;
        // Each probe's lists are moved out of the replies, not cloned;
        // `[pi]` is in range because short replies were refused above.
        let merged = (0..probes.len())
            .map(|pi| {
                let lists: Vec<Vec<Hit>> = per_shard
                    .iter_mut()
                    .map(|shard| std::mem::take(&mut shard[pi]))
                    .collect();
                merge_top_k(&lists, k)
            })
            .collect();
        Metrics::add(&self.metrics.links, 1);
        self.metrics
            .latency
            .record_us(started.elapsed().as_micros() as u64);
        Ok(merged)
    }

    /// Routed insert: each record goes to the shard chosen by
    /// [`route_id`] of its id, so lookups and future inserts agree on
    /// placement. Unlike reads there is no quorum forgiveness — every
    /// shard that owns part of the batch must acknowledge, because a
    /// dropped sub-batch would silently lose acknowledged records.
    /// Returns the total count and the highest shard generation
    /// observed in the acknowledgements.
    ///
    /// # Partial application
    ///
    /// Sub-batches land on their shards independently, and shard stores
    /// are append-only with no id-level dedup. When some shards ack and
    /// others fail, the acked sub-batches **are** durably applied; the
    /// call waits for every sub-batch outcome and then returns
    /// [`PprlError::PartialWrite`] naming the applied and failed shard
    /// indices — retrying the whole batch would duplicate the applied
    /// records, so retry only the records whose [`route_id`] falls in
    /// `failed_shards`. (A shard that failed with a timeout may still
    /// apply its sub-batch late; verify — e.g. query one of its records
    /// — before resending to it.) When no shard acked anything, the
    /// first underlying error is returned unchanged.
    pub fn insert(&self, records: &[(u64, BitVec)]) -> Result<(u32, u64)> {
        let started = Instant::now();
        let n = self.shards.len();
        let mut groups: Vec<Vec<&(u64, BitVec)>> = vec![Vec::new(); n];
        for record in records {
            groups[route_id(record.0, n)].push(record);
        }
        // One payload per target shard, encoded straight from the
        // caller's records; shards that own nothing are not contacted.
        let payloads: Vec<(usize, Vec<u8>)> = groups
            .iter()
            .enumerate()
            .filter(|(_, group)| !group.is_empty())
            .map(|(i, group)| (i, encode_insert(group.iter().copied())))
            .collect();
        let legs = payloads.iter().map(|(i, payload)| (*i, payload.as_slice()));
        let outcomes = self.scatter(legs, |reply| match reply {
            Response::Inserted { count, generation } => Some((count, generation)),
            _ => None,
        });
        let mut count = 0u32;
        let mut generation = 0u64;
        let mut applied_shards = Vec::new();
        let mut failed_shards = Vec::new();
        let mut first_error = None;
        for ((shard, _), outcome) in payloads.iter().zip(outcomes) {
            match outcome {
                Ok((c, g)) => {
                    count += c;
                    generation = generation.max(g);
                    applied_shards.push(*shard as u32);
                }
                Err(e) => {
                    failed_shards.push(*shard as u32);
                    if first_error.is_none() {
                        first_error = Some(e);
                    }
                }
            }
        }
        if let Some(cause) = first_error {
            // Nothing acked: the caller may retry the whole batch
            // (modulo the timeout caveat above), so the underlying
            // error speaks for itself.
            if applied_shards.is_empty() {
                return Err(cause);
            }
            return Err(PprlError::PartialWrite {
                applied: count,
                applied_shards,
                failed_shards,
                cause: cause.to_string(),
            });
        }
        Metrics::add(&self.metrics.inserts, 1);
        self.metrics
            .latency
            .record_us(started.elapsed().as_micros() as u64);
        Ok((count, generation))
    }

    /// The cluster stats surface. Corpus-shaped fields (`records`,
    /// `generation`, cache/plan counters, compaction counters,
    /// `quarantined_segments`, `busy_rejected`) are summed over the
    /// shards that answered — `generation` in particular is the *sum*
    /// of shard generations, a counter that bumps whenever any shard
    /// changes. The serving front end fills `workers`/`queue_capacity`
    /// with its own pool size and adds its own `busy_rejected` count.
    /// Request-shaped fields (`queries`, `links`, `inserts`, latency
    /// quantiles, uptime) are the coordinator's own, since one
    /// broadcast query would otherwise count N times. Unlike reads,
    /// stats never fails on lost shards: operators need this surface
    /// *most* when the cluster is degraded, so it reports whatever
    /// subset answered, with `degraded`/`shards_down`/`missing_shards`
    /// telling the truth about the rest.
    pub fn stats(&self) -> StatsReport {
        let results = self.broadcast(&Request::Stats.encode(), |reply| match reply {
            Response::Stats(report) => Some(report),
            _ => None,
        });
        let mut report = StatsReport::default();
        let mut missing_shards = Vec::new();
        for (i, r) in results.into_iter().enumerate() {
            match r {
                Ok(s) => {
                    report.records += s.records;
                    report.generation += s.generation;
                    report.cache_hits += s.cache_hits;
                    report.cache_misses += s.cache_misses;
                    report.plan_hits += s.plan_hits;
                    report.plan_misses += s.plan_misses;
                    report.busy_rejected += s.busy_rejected;
                    report.compactions += s.compactions;
                    report.segments_merged += s.segments_merged;
                    report.bytes_read += s.bytes_read;
                    report.quarantined_segments += s.quarantined_segments;
                    report.degraded |= s.degraded;
                    report.merge_rows += s.merge_rows;
                    // One kernel name when every shard agrees; "mixed"
                    // flags heterogeneous fleets (worth knowing when
                    // chasing a per-shard throughput gap).
                    if report.kernel.is_empty() {
                        report.kernel = s.kernel;
                    } else if report.kernel != s.kernel {
                        report.kernel = "mixed".to_string();
                    }
                }
                Err(_) => missing_shards.push(i as u32),
            }
        }
        report.queries = Metrics::get(&self.metrics.queries);
        report.links = Metrics::get(&self.metrics.links);
        report.inserts = Metrics::get(&self.metrics.inserts);
        report.latency_p50_us = self.metrics.latency.quantile_us(0.50);
        report.latency_p99_us = self.metrics.latency.quantile_us(0.99);
        report.uptime_ms = self.started.elapsed().as_millis() as u64;
        report.cluster_shards = self.shards.len() as u32;
        report.shards_down = missing_shards.len() as u32;
        report.degraded |= !missing_shards.is_empty();
        report.missing_shards = missing_shards;
        report
    }

    /// Asks every reachable shard to shut down; returns how many
    /// acknowledged. Used by orderly cluster teardown (the coordinator
    /// front end itself is stopped separately).
    pub fn shutdown_shards(&self) -> usize {
        let results = self.broadcast(&Request::Shutdown.encode(), |reply| match reply {
            Response::Bye => Some(()),
            _ => None,
        });
        results.into_iter().filter(Result::is_ok).count()
    }

    /// The wire version this coordinator speaks to its shards — shards
    /// built at a different version answer every call with a typed
    /// [`PprlError::UnsupportedVersion`] instead of garbage.
    pub fn wire_version(&self) -> u8 {
        WIRE_VERSION
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn route_is_stable_and_in_range() {
        for shards in [1usize, 2, 3, 5, 16] {
            for id in 0..200u64 {
                let a = route_id(id, shards);
                let b = route_id(id, shards);
                assert_eq!(a, b);
                assert!(a < shards);
            }
        }
    }

    /// Every shipped shard and the benchmark's `partition()` depend on
    /// this placement; the values were captured before the hash moved
    /// to `pprl_core::hash`.
    #[test]
    fn route_golden_three_shards() {
        let golden: [(u64, usize); 16] = [
            (0, 1),
            (1, 0),
            (2, 0),
            (3, 2),
            (7, 1),
            (42, 0),
            (255, 1),
            (256, 1),
            (1000, 1),
            (10_001, 0),
            (65_535, 0),
            (123_456_789, 0),
            (1 << 32, 2),
            (u64::MAX / 3, 1),
            (u64::MAX - 1, 2),
            (u64::MAX, 1),
        ];
        for (id, shard) in golden {
            assert_eq!(route_id(id, 3), shard, "id {id} moved shards");
        }
    }

    #[test]
    fn route_spreads_ids_over_shards() {
        let shards = 4usize;
        let mut counts = vec![0usize; shards];
        for id in 0..4000u64 {
            counts[route_id(id, shards)] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (600..=1400).contains(&c),
                "shard {i} got {c} of 4000 ids — routing is badly skewed"
            );
        }
    }

    #[test]
    fn config_validation() {
        assert!(ClusterConfig::new(vec![]).validate().is_err());
        let mut c = ClusterConfig::new(vec!["a:1".into(), "b:2".into()]);
        assert!(c.validate().is_ok());
        c.min_shards = 3;
        assert!(c.validate().is_err());
        c.min_shards = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn shard_failure_classification() {
        assert!(is_shard_failure(&PprlError::Transport("x".into())));
        assert!(is_shard_failure(&PprlError::Timeout("x".into())));
        assert!(is_shard_failure(&PprlError::UnsupportedVersion {
            found: 1,
            expected: 2
        }));
        assert!(!is_shard_failure(&PprlError::ProtocolError("x".into())));
        assert!(!is_shard_failure(&PprlError::shape("a", "b")));
    }
}
