//! The traced pass: per-layer metrics and layer budgets, all taken
//! from outside by timing calls into each crate's public functions.
//!
//! Every traced run measures every layer on the workload's own corpus
//! and probes. The layers on the workload's path are replayed against
//! the servers the load just ran on, [`spec::TRACED_OPS`] operations
//! each; for the layers off its path (the cluster for a one-node
//! workload, everything served for the batch workload) a fixture is
//! stood up over the same corpus and a quarter as many are replayed.
//!
//! A replay keeps the result caches in the state the load left them:
//! real round trips first, over the whole probe cycle, then the layer
//! calls for the first probes of the cycle — by then evicted again if
//! the cycle is larger than the cache, still cached if it is not.

use crate::data;
use crate::fixtures::{self, Built, Cluster, Scratch};
use crate::json::Json;
use crate::load::{Clock, Epoch};
use crate::spec::{self, Kind, Workload, PER_LAYER};
use crate::stats::median;
use crate::trace::{print_budget, BudgetRow, Span, Tracer};
use crate::workloads::{stats_of, Measured, RunConfig, StatsDelta, Target, World};
use pprl_blocking::engine::compare_pairs;
use pprl_cluster::merge::merge_top_k;
use pprl_core::bitvec::BitVec;
use pprl_core::candidate::Probes;
use pprl_core::record::Dataset;
use pprl_encoding::encoder::RecordEncoder;
use pprl_index::arena::FilterArena;
use pprl_index::query::{Hit, IndexReader};
use pprl_index::store::IndexStore;
use pprl_matching::assignment::greedy_one_to_one;
use pprl_pipeline::batch::{build_source, PipelineConfig};
use pprl_server::client::Client;
use pprl_server::metrics::Metrics;
use pprl_server::server::ServerConfig;
use pprl_server::service::LinkageService;
use pprl_server::wire::{read_payload, Incoming, Request, Response};
use pprl_session::channel::SecureChannel;
use pprl_session::handshake::{client_handshake_established, server_handshake};
use pprl_session::keys::entropy_rng;
use pprl_session::suite::SuiteOffer;
use pprl_similarity::bitvec_sim::dice_bits;
use pprl_similarity::kernel::active_kernel;
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::time::Instant;

/// Records of a served workload's population the batch stages run over.
const BATCH_SLICE: usize = 6_000;

fn us(started: Instant) -> f64 {
    started.elapsed().as_nanos() as f64 / 1e3
}

/// The median of the budget row called `name`.
fn row(rows: &[BudgetRow], name: &str) -> f64 {
    rows.iter()
        .find(|r| r.name == name)
        .map_or(0.0, |r| r.p50_us)
}

/// The summed medians of the layer calls whose names start with `prefix`.
fn rows_with_prefix(rows: &[BudgetRow], prefix: &str) -> f64 {
    rows.iter()
        .filter(|r| r.depth == 1 && r.name.starts_with(prefix))
        .map(|r| r.p50_us)
        .sum()
}

/// Both ends of one session from a real handshake over loopback.
fn channel_pair() -> (SecureChannel, SecureChannel) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");
    std::thread::scope(|scope| {
        let server = scope.spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            let Incoming::Payload(hello) = read_payload(&mut stream).expect("read HELLO") else {
                panic!("peer closed before HELLO");
            };
            server_handshake(
                &mut stream,
                &hello,
                &fixtures::registry(),
                &mut entropy_rng(),
                SuiteOffer::all(),
            )
            .expect("server handshake")
            .channel
        });
        let mut stream = TcpStream::connect(addr).expect("connect");
        let client = client_handshake_established(&mut stream, &fixtures::client_auth())
            .expect("client handshake");
        (client, server.join().expect("handshake thread"))
    })
}

/// What a replay sends.
#[derive(Clone, Copy, PartialEq)]
enum Op {
    Query,
    Link,
}

impl Op {
    fn root(self) -> &'static str {
        match self {
            Op::Query => "query.round_trip",
            Op::Link => "link.round_trip",
        }
    }

    /// Distinct requests in one cycle of `probes`.
    fn cycle(self, probes: &[BitVec]) -> usize {
        match self {
            Op::Query => probes.len(),
            Op::Link => (probes.len() / spec::LINK_BATCH).max(1),
        }
    }

    /// The `i`-th request of the cycle (wrapping).
    fn request(self, probes: &[BitVec], i: usize) -> Request {
        let at = i % self.cycle(probes);
        match self {
            Op::Query => Request::Query {
                filter: probes[at].clone(),
                k: spec::TOP_K as u32,
            },
            Op::Link => Request::Link {
                probes: probes[at * spec::LINK_BATCH..]
                    .iter()
                    .take(spec::LINK_BATCH)
                    .cloned()
                    .collect(),
                k: spec::TOP_K as u32,
                min_score: spec::LINK_MIN_SCORE,
            },
        }
    }
}

/// One traced pass: the spans it records, the per-layer metrics it
/// sets (each exactly once), and the budgets it derives.
pub struct Pass<'a> {
    cfg: &'a RunConfig,
    clock: &'a Epoch,
    scratch: &'a Scratch,
    pub tracer: Tracer,
    values: Vec<(&'static str, f64)>,
    budgets: Vec<(String, Vec<BudgetRow>)>,
    notes: Vec<(String, Json)>,
}

impl<'a> Pass<'a> {
    pub fn new(cfg: &'a RunConfig, clock: &'a Epoch, scratch: &'a Scratch) -> Pass<'a> {
        Pass {
            cfg,
            clock,
            scratch,
            tracer: Tracer::default(),
            values: Vec::new(),
            budgets: Vec::new(),
            notes: Vec::new(),
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|m| m.name == name),
            "{name} is not a per-layer metric"
        );
        assert!(
            self.values.iter().all(|(n, _)| *n != name),
            "{name} measured twice"
        );
        self.values.push((name, value));
    }

    pub fn set_built(&mut self, built: &Built) {
        self.set(
            "index.build_records_per_s",
            built.records as f64 / built.seconds,
        );
        self.set(
            "index.bytes_per_record",
            built.disk_bytes as f64 / built.records as f64,
        );
    }

    pub fn set_stats(&mut self, delta: &StatsDelta) {
        self.set("server.cache_hit_ratio", delta.cache_hit_ratio);
        self.set("server.plan_hit_ratio", delta.plan_hit_ratio);
        self.set("server.busy_rejected", delta.busy_rejected as f64);
    }

    /// Operations to replay: all of them on the workload's own path, a
    /// quarter off it, an eighth of either under `--smoke`.
    fn ops(&self, on_path: bool) -> usize {
        let full = if self.cfg.smoke {
            spec::TRACED_OPS / 8
        } else {
            spec::TRACED_OPS
        };
        if on_path {
            full
        } else {
            full / 4
        }
    }

    fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        id: u64,
        work: impl FnOnce() -> T,
    ) -> (T, usize) {
        self.tracer.time(self.clock, name, parent, id, work)
    }

    // -------------------------------------------------------- batch layers

    /// Replays the stages of `pipeline::batch::link` one by one over
    /// `(a, b)` as children of `parent`, sets the batch-layer metrics,
    /// and returns B's filters.
    fn batch_layers(
        &mut self,
        a: &Dataset,
        b: &Dataset,
        config: &PipelineConfig,
        parent: Option<usize>,
    ) -> Vec<BitVec> {
        let encoder = RecordEncoder::new(config.encoder.clone(), a.schema()).expect("encoder");
        let (enc_a, s_a) = self.time("encoding.encode_dataset_a", parent, 0, || {
            encoder.encode_dataset(a).expect("encode A")
        });
        let (enc_b, s_b) = self.time("encoding.encode_dataset_b", parent, 0, || {
            encoder.encode_dataset(b).expect("encode B")
        });
        let filters_a = enc_a.clks().expect("CLK mode");
        let filters_b = enc_b.clks().expect("CLK mode");
        let (mut source, s_build) = self.time("blocking.build_source", parent, 0, || {
            build_source(
                b,
                &filters_b,
                &config.blocking,
                config.threshold,
                config.threads,
            )
            .expect("build source")
        });
        let (candidates, s_cand) = self.time("blocking.candidates", parent, 0, || {
            source
                .candidates(&Probes::from_filters(&filters_a))
                .expect("candidates")
        });
        let (outcome, s_cmp) = self.time("similarity.compare_pairs", parent, 0, || {
            compare_pairs(&candidates, config.threshold, |i, j| {
                dice_bits(filters_a[i], filters_b[j])
            })
            .expect("compare")
        });
        let scored: Vec<(usize, usize, f64)> = outcome
            .matches
            .iter()
            .map(|m| (m.a, m.b, m.similarity))
            .collect();
        let (_, s_assign) = self.time("matching.greedy_one_to_one", parent, 0, || {
            greedy_one_to_one(&scored)
        });

        let span_us = |i: usize| self.tracer.span_us(i);
        let encode_us = span_us(s_a) + span_us(s_b);
        let block_ms = (span_us(s_build) + span_us(s_cand)) / 1e3;
        let compare_ns = span_us(s_cmp) * 1e3;
        let assign_ms = span_us(s_assign) / 1e3;
        let true_matches = a.ground_truth_pairs(b).len().max(1);
        self.set(
            "encoding.encode_us_per_record",
            encode_us / (a.len() + b.len()) as f64,
        );
        self.set("blocking.candidates_ms", block_ms);
        self.set(
            "blocking.candidates_per_true_match",
            candidates.len() as f64 / true_matches as f64,
        );
        self.set(
            "similarity.compare_ns_per_pair",
            compare_ns / outcome.comparisons.max(1) as f64,
        );
        self.set("matching.assign_ms", assign_ms);
        self.notes.push((
            "batch_layers".into(),
            Json::obj([
                ("records_a", Json::Num(a.len() as f64)),
                ("records_b", Json::Num(b.len() as f64)),
                ("candidates", Json::Num(candidates.len() as f64)),
                ("true_matches", Json::Num(true_matches as f64)),
            ]),
        ));
        filters_b.into_iter().cloned().collect()
    }

    /// For a served workload: the batch stages over the duplicates (A)
    /// and the originals (B) among the first records of its population.
    fn batch_layers_on_slice(&mut self, dataset: &Dataset) {
        let records = &dataset.records()[..BATCH_SLICE.min(dataset.len())];
        let side = |duplicates: bool| {
            let rows = records
                .iter()
                .enumerate()
                .filter(|(j, _)| (j % 3 == 2) == duplicates)
                .map(|(_, r)| r.clone())
                .collect();
            Dataset::from_records(dataset.schema().clone(), rows).expect("slice of a dataset")
        };
        let config = PipelineConfig::standard(data::SHARED_KEY).expect("standard pipeline config");
        self.batch_layers(&side(true), &side(false), &config, None);
    }

    // -------------------------------------------------------- kernel, index

    /// The dispatched scan kernel over the whole corpus laid out as the
    /// index lays it out: one query against every row, four rows a call.
    fn kernel_layer(&mut self, corpus: &[(u64, BitVec)]) {
        let filter_len = corpus[0].1.len();
        let arena = FilterArena::from_records(corpus.to_vec(), filter_len).expect("arena");
        let stride = arena.stride();
        let query = arena.row(arena.len() / 2).to_vec();
        let kernel = active_kernel();
        let blocks = arena.len() / 4;
        let started = Instant::now();
        let mut passes = 0u64;
        let mut sink = 0usize;
        while started.elapsed().as_millis() < 200 {
            for block in arena.words()[..blocks * 4 * stride].chunks_exact(4 * stride) {
                sink += kernel.and_count4(&query, block)[0];
            }
            passes += 1;
        }
        std::hint::black_box(sink);
        let rows = passes * blocks as u64 * 4;
        self.set(
            "similarity.and_count_rows_per_s",
            rows as f64 / started.elapsed().as_secs_f64(),
        );
        self.notes.push((
            "kernel".into(),
            Json::obj([
                ("name", Json::str(kernel.name())),
                ("rows", Json::Num(arena.len() as f64)),
                ("words_per_row", Json::Num(stride as f64)),
                ("passes", Json::Num(passes as f64)),
            ]),
        ));
    }

    /// `IndexReader::top_k` and `top_k_batch`, direct, one thread.
    fn index_layers(&mut self, reader: &IndexReader, probes: &[BitVec], n: usize) {
        let single: Vec<f64> = (0..n)
            .map(|i| {
                let started = Instant::now();
                std::hint::black_box(
                    reader
                        .top_k(&probes[i % probes.len()], spec::TOP_K, 1)
                        .expect("top_k"),
                );
                us(started)
            })
            .collect();
        self.set("index.top_k_us", median(&single));
        let batched: Vec<f64> = probes
            .chunks(spec::LINK_BATCH)
            .take((n / spec::LINK_BATCH).max(4))
            .map(|batch| {
                let refs: Vec<&BitVec> = batch.iter().collect();
                let started = Instant::now();
                std::hint::black_box(
                    reader
                        .top_k_batch(&refs, spec::TOP_K, 1, Some(spec::LINK_MIN_SCORE))
                        .expect("top_k_batch"),
                );
                us(started) / batch.len() as f64
            })
            .collect();
        self.set("index.top_k_batch_us_per_probe", median(&batched));
    }

    /// A full compaction of the index at `dir`, once nothing serves it.
    fn compact_layer(&mut self, dir: &Path) {
        let mut store = IndexStore::open(dir).expect("open index");
        let started = Instant::now();
        let merged = store.compact().expect("compact");
        self.set("index.compact_ms", us(started) / 1e3);
        self.notes
            .push(("compact_segments_merged".into(), Json::Num(merged as f64)));
    }

    // -------------------------------------------------------- replays

    /// Real round trips for the first `n` requests of the cycle (roots).
    /// The second half of the cycle goes first and the rest of it last,
    /// both untimed: whatever the load left in the result caches is gone
    /// before the roots are timed, and the roots' own entries are gone
    /// again before the layer calls replay them — unless the whole cycle
    /// fits the cache, and then both hit. Returns the root span indices.
    fn round_trips(
        &mut self,
        op: Op,
        root: &'static str,
        addr: &str,
        probes: &[BitVec],
        n: usize,
    ) -> Vec<usize> {
        let mut client = fixtures::connect(addr);
        let cycle = op.cycle(probes);
        for i in cycle / 2..cycle {
            client
                .call(&op.request(probes, i))
                .expect("cycle round trip");
        }
        let mut roots = Vec::with_capacity(n);
        for i in 0..n.max(cycle) {
            let request = op.request(probes, i);
            if i < n {
                let (_, span) = self.time(root, None, i as u64, || {
                    client.call(&request).expect("traced round trip")
                });
                roots.push(span);
            } else {
                client.call(&request).expect("cycle round trip");
            }
        }
        roots
    }

    /// The four codec and four session spans of one client hop, around
    /// `serve`, which stands for whatever answers the decoded request
    /// on the far side.
    fn hop(
        &mut self,
        request: &Request,
        channels: &mut (SecureChannel, SecureChannel),
        parent: usize,
        id: u64,
        serve: impl FnOnce(&mut Self, &Request) -> Response,
    ) {
        let (client, server) = channels;
        let at = Some(parent);
        // `Client::query` builds its request from a borrowed filter, so
        // the clone is part of what the client pays.
        let (encoded, _) = self.time("wire.encode_request", at, id, || request.clone().encode());
        let (sealed, _) = self.time("session.seal_request", at, id, || {
            client.seal(&encoded).expect("seal request")
        });
        let (opened, _) = self.time("session.open_request", at, id, || {
            server.open(&sealed).expect("open request")
        });
        let (decoded, _) = self.time("wire.decode_request", at, id, || {
            Request::decode(&opened).expect("decode request")
        });
        let response = serve(self, &decoded);
        let (encoded, _) = self.time("wire.encode_response", at, id, || response.encode());
        let (sealed, _) = self.time("session.seal_response", at, id, || {
            server.seal(&encoded).expect("seal response")
        });
        let (opened, _) = self.time("session.open_response", at, id, || {
            client.open(&sealed).expect("open response")
        });
        self.time("wire.decode_response", at, id, || {
            Response::decode(&opened).expect("decode response")
        });
    }

    /// Replays `n` operations against the node at `addr`, whose service
    /// is `service`: the round trip as the root, then wire encode → seal
    /// → open → decode → service call (with the index call inside it,
    /// when the result cache missed) → encode → seal → open → decode.
    /// A query replay also sets the server, session and index metrics.
    fn node_replay(
        &mut self,
        op: Op,
        title: &str,
        addr: &str,
        service: &LinkageService,
        probes: &[BitVec],
        n: usize,
    ) {
        let roots = self.round_trips(op, op.root(), addr, probes, n);
        let mut channels = channel_pair();
        for (i, &root) in roots.iter().enumerate() {
            let id = i as u64;
            let request = op.request(probes, i);
            self.hop(
                &request,
                &mut channels,
                root,
                id,
                |pass, decoded| match decoded {
                    Request::Query { filter, k } => {
                        let k = *k as usize;
                        let misses = Metrics::get(&service.metrics.cache_misses);
                        let (hits, span) = pass.time("service.query", Some(root), id, || {
                            service.query(filter, k).expect("service query")
                        });
                        if Metrics::get(&service.metrics.cache_misses) > misses {
                            let snapshot = service.snapshot();
                            pass.time("index.top_k", Some(span), id, || {
                                snapshot.reader.top_k(filter, k, 1).expect("top_k")
                            });
                        }
                        Response::Hits(hits)
                    }
                    Request::Link {
                        probes,
                        k,
                        min_score,
                    } => {
                        let (k, min_score) = (*k as usize, *min_score);
                        let (hits, span) = pass.time("service.link", Some(root), id, || {
                            service.link(probes, k, min_score).expect("service link")
                        });
                        let snapshot = service.snapshot();
                        let refs: Vec<&BitVec> = probes.iter().collect();
                        pass.time("index.top_k_batch", Some(span), id, || {
                            snapshot
                                .reader
                                .top_k_batch(&refs, k, 1, Some(min_score))
                                .expect("top_k_batch")
                        });
                        Response::LinkHits(hits)
                    }
                    other => panic!("a replay sends only queries and links, got {other:?}"),
                },
            );
        }
        let rows = self.tracer.budget(op.root());
        if op == Op::Query {
            self.set("server.service_query_us", row(&rows, "service.query"));
            self.set("server.wire_codec_us", rows_with_prefix(&rows, "wire."));
            self.set("session.seal_open_us", rows_with_prefix(&rows, "session."));
            self.set("server.transport_residual_us", row(&rows, "residual"));
            let handshakes: Vec<f64> = (0..(n / 8).max(8))
                .map(|_| {
                    let started = Instant::now();
                    drop(fixtures::connect(addr));
                    us(started) / 1e3
                })
                .collect();
            self.set("session.handshake_ms", median(&handshakes));
            self.index_layers(&service.snapshot().reader, probes, n);
        }
        self.budgets.push((title.into(), rows));
    }

    /// Replays `n` queries against the cluster: the round trip through
    /// the front end as the root, then the client hop's codec and
    /// session spans around an in-process `Coordinator::query`, inside
    /// which sit the slowest of three direct shard round trips and the
    /// merge of their three lists. The direct shard queries use the
    /// probes after the first `n`, which the coordinator's own queries
    /// have not just put into the shards' caches.
    fn cluster_replay(&mut self, title: &str, cluster: &Cluster, probes: &[BitVec], n: usize) {
        const ROOT: &str = "cluster.query_round_trip";
        let roots = self.round_trips(Op::Query, ROOT, &cluster.front_addr(), probes, n);
        let mut channels = channel_pair();
        let coordinator = cluster.coordinator();
        let mut coordinator_spans = Vec::with_capacity(n);
        for (i, &root) in roots.iter().enumerate() {
            let id = i as u64;
            let request = Op::Query.request(probes, i);
            self.hop(&request, &mut channels, root, id, |pass, decoded| {
                let Request::Query { filter, k } = decoded else {
                    panic!("a cluster replay sends only queries");
                };
                let (hits, span) = pass.time("coordinator.query", Some(root), id, || {
                    coordinator
                        .query(filter, *k as usize)
                        .expect("coordinator query")
                });
                coordinator_spans.push(span);
                Response::Hits(hits)
            });
        }
        let mut shards: Vec<Client> = cluster
            .shard_addrs()
            .iter()
            .map(|addr| fixtures::connect(addr))
            .collect();
        for (i, &parent) in coordinator_spans.iter().enumerate() {
            let probe = &probes[(n + i) % probes.len()];
            let mut lists: Vec<Vec<Hit>> = Vec::with_capacity(shards.len());
            let mut slowest = (0u64, 0u64);
            for shard in &mut shards {
                let start = self.clock.now().as_nanos() as u64;
                lists.push(shard.query(probe, spec::TOP_K).expect("shard query"));
                let end = self.clock.now().as_nanos() as u64;
                if end - start > slowest.1 - slowest.0 {
                    slowest = (start, end);
                }
            }
            self.tracer.record(Span {
                name: "shard.slowest_query_round_trip",
                start_ns: slowest.0,
                end_ns: slowest.1,
                parent: Some(parent),
                request_id: i as u64,
            });
            self.time("cluster.merge_top_k", Some(parent), i as u64, || {
                merge_top_k(&lists, spec::TOP_K)
            });
        }
        let rows = self.tracer.budget(ROOT);
        self.set("cluster.merge_us", row(&rows, "cluster.merge_top_k"));
        self.set(
            "cluster.scatter_gather_us",
            row(&rows, "coordinator.query") - row(&rows, "shard.slowest_query_round_trip"),
        );
        self.budgets.push((title.into(), rows));
    }

    // -------------------------------------------------------- fixtures

    /// Stands up one node over `corpus`, replays queries on it, and
    /// tears it down. `with_stats` takes the cache and plan ratios from
    /// the replay itself, for a workload whose load has no server.
    fn node_fixture(
        &mut self,
        corpus: &[(u64, BitVec)],
        probes: &[BitVec],
        with_stats: bool,
    ) -> Built {
        let dir = self.scratch.dir("layer-node");
        let built = fixtures::build_index(&dir, corpus);
        let handle = fixtures::serve_node(
            &dir,
            ServerConfig {
                compact_interval: None,
                ..ServerConfig::default()
            },
        );
        let addr = handle.addr().to_string();
        let before = stats_of(&addr);
        self.node_replay(
            Op::Query,
            "query, one node over the same corpus (off this workload's path)",
            &addr,
            handle.service(),
            probes,
            self.ops(false),
        );
        if with_stats {
            self.set_stats(&StatsDelta::between(&before, &stats_of(&addr)));
        }
        handle.shutdown_now();
        self.compact_layer(&dir);
        built
    }

    /// Stands up a cluster over `corpus`, replays queries on it, and
    /// tears it down.
    fn cluster_fixture(&mut self, corpus: &[(u64, BitVec)], probes: &[BitVec]) {
        let dirs: Vec<_> = (0..fixtures::CLUSTER_SHARDS)
            .map(|i| self.scratch.dir(&format!("layer-shard-{i}")))
            .collect();
        for (dir, part) in dirs.iter().zip(fixtures::partition(corpus)) {
            fixtures::build_index(dir, &part);
        }
        let cluster = Cluster::start(&dirs);
        self.cluster_replay(
            "query, 3-shard cluster over the same corpus (off this workload's path)",
            &cluster,
            probes,
            self.ops(false),
        );
        cluster.shutdown();
    }

    // -------------------------------------------------------- passes

    /// The traced pass of a served workload; shuts `target` down.
    /// `load` is what moved in STATS over the workload's load. The
    /// ingest load sends no queries, so its cache and plan ratios are
    /// those of the query replay instead.
    pub fn served(&mut self, kind: Kind, world: &World, target: Target, load: StatsDelta) {
        let n = self.ops(true);
        match target {
            Target::Node { handle, dir } => {
                let addr = handle.addr().to_string();
                if kind == Kind::IngestLink {
                    self.node_replay(
                        Op::Link,
                        "32-probe Link batch, one node",
                        &addr,
                        handle.service(),
                        &world.probes,
                        self.ops(false),
                    );
                }
                let before = stats_of(&addr);
                self.node_replay(
                    Op::Query,
                    "query, one node",
                    &addr,
                    handle.service(),
                    &world.probes,
                    n,
                );
                if kind == Kind::IngestLink {
                    let replay = StatsDelta::between(&before, &stats_of(&addr));
                    self.set_stats(&StatsDelta {
                        busy_rejected: load.busy_rejected + replay.busy_rejected,
                        ..replay
                    });
                } else {
                    self.set_stats(&load);
                }
                handle.shutdown_now();
                self.compact_layer(&dir);
                self.cluster_fixture(&world.corpus, &world.probes);
            }
            Target::Cluster { cluster } => {
                self.cluster_replay(
                    "query, front end over coordinator over 3 shards",
                    &cluster,
                    &world.probes,
                    n,
                );
                cluster.shutdown();
                self.set_stats(&load);
                self.node_fixture(&world.corpus, &world.probes, false);
            }
        }
        self.kernel_layer(&world.corpus);
        self.batch_layers_on_slice(&world.dataset);
    }

    /// The traced pass of the batch workload: the pipeline's stages over
    /// the full pair under the `link()` root (span 0), then every served
    /// layer over dataset B's filters as the corpus.
    pub fn batch(&mut self, a: &Dataset, b: &Dataset, config: &PipelineConfig, probes: usize) {
        let filters_b = self.batch_layers(a, b, config, Some(0));
        let rows = self.tracer.budget("pipeline.link");
        self.budgets.push(("link() over the pair".into(), rows));
        let corpus = data::with_ids(filters_b, 0);
        let probes = data::probes(&corpus, probes, self.cfg.seed);
        let built = self.node_fixture(&corpus, &probes, true);
        self.set_built(&built);
        self.cluster_fixture(&corpus, &probes);
        self.kernel_layer(&corpus);
    }

    /// Prints the budgets, writes the span file, adds budgets and notes
    /// to `detail`, and returns every per-layer metric in
    /// `BENCHMARK.json` order.
    pub fn finish(mut self, w: &Workload, detail: &mut Vec<(String, Json)>) -> Vec<Measured> {
        for (title, rows) in &self.budgets {
            print_budget(&format!("{}: {title}", w.name), rows);
        }
        let out = fixtures::out_dir();
        std::fs::create_dir_all(&out).expect("create output directory");
        let path = out.join(format!("trace-{}.json", w.name));
        std::fs::write(&path, self.tracer.to_json(w.name).compact()).expect("write span file");
        println!(
            "\n{} spans written to {}",
            self.tracer.len(),
            path.display()
        );

        // The first budget is the workload's own. The index's share of
        // it says whether the workload still stresses the layer it is
        // sized for; if not, the workload needs resizing, not the band.
        if let Some((_, rows)) = self.budgets.first() {
            let root = rows.first().map_or(0.0, |r| r.p50_us);
            let share = if root > 0.0 {
                row(rows, "index.top_k") / root
            } else {
                0.0
            };
            let in_band = match w.kind {
                _ if self.cfg.smoke => true, // too small to be sized for anything
                Kind::ServeScan => share >= 0.80,
                Kind::ServeHot => share <= 0.10,
                _ => true,
            };
            if !in_band {
                eprintln!(
                    "warning: {}: the index is {:.0}% of the round trip — the workload is mis-sized",
                    w.name,
                    share * 100.0
                );
            }
            detail.push(("index_share_of_round_trip".into(), Json::Num(share)));
        }
        detail.push((
            "budgets".into(),
            Json::Arr(
                self.budgets
                    .iter()
                    .map(|(title, rows)| {
                        Json::obj([
                            ("title", Json::str(title.clone())),
                            (
                                "rows",
                                Json::Arr(rows.iter().map(BudgetRow::to_json).collect()),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ));
        detail.append(&mut self.notes);
        PER_LAYER
            .iter()
            .map(|m| Measured {
                name: m.name,
                value: self
                    .values
                    .iter()
                    .find(|(name, _)| *name == m.name)
                    .unwrap_or_else(|| panic!("{}: {} was not measured", w.name, m.name))
                    .1,
                window_spread: None,
            })
            .collect()
    }
}
