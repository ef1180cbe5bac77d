//! The five workloads: set-up, correctness gate, load, teardown.
//!
//! Everything goes through public functions of the crates under test.
//! A run with tracing off yields the end-to-end metrics; with tracing
//! on, the same set-up is followed by a shorter load with span
//! recording on and by the layer pass of [`crate::layers`].

use crate::data::{self, nproc};
use crate::fingerprint::calibration_ns;
use crate::fixtures::{self, Built, Cluster, Scratch};
use crate::json::Json;
use crate::layers::Pass;
use crate::load::{closed_loop, paced, process_cpu_ms, Clock, Epoch, Sample, Summary, Windows};
use crate::oracle::{self, GateOutcome};
use crate::spec::{self, Kind, Workload};
use crate::stats::{median, window_spread};
use crate::trace::{Span, Tracer};
use pprl_core::bitvec::BitVec;
use pprl_core::record::Dataset;
use pprl_eval::quality::Confusion;
use pprl_index::query::Hit;
use pprl_pipeline::batch::{link, PipelineConfig};
use pprl_server::client::Client;
use pprl_server::server::{ServerConfig, ServerHandle};
use pprl_server::StatsReport;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// How one run was asked for.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    pub seed: u64,
    /// Measuring time of the run.
    pub seconds: f64,
    pub trace: bool,
    /// 1/100 of the records and a single measured window.
    pub smoke: bool,
}

impl RunConfig {
    /// The windows of a run. A traced run measures for half the time,
    /// since the layer pass needs the rest; `--smoke` measures one window.
    fn windows(&self, kind: Kind) -> Windows {
        let seconds = if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        };
        if self.smoke {
            let half = Duration::from_secs_f64(seconds / 2.0);
            return Windows {
                warm_up: half,
                measured: 1,
                length: half,
            };
        }
        let length = match kind {
            Kind::IngestLink => spec::INGEST_WINDOW_MS,
            _ => spec::QUERY_WINDOW_MS,
        };
        Windows::cut(seconds, Duration::from_millis(length))
    }
}

/// One metric as one run measured it.
#[derive(Debug, Clone, Copy)]
pub struct Measured {
    pub name: &'static str,
    pub value: f64,
    /// Interquartile spread over the run's windows or repetitions.
    pub window_spread: Option<f64>,
}

fn end_to_end(throughput: (f64, f64), p50_ms: (f64, f64), setup_totals: &[f64]) -> Vec<Measured> {
    let measured = |name, (value, spread): (f64, f64)| Measured {
        name,
        value,
        window_spread: Some(spread),
    };
    vec![
        measured("throughput", throughput),
        measured("p50_ms", p50_ms),
        Measured {
            name: "setup_s",
            value: median(setup_totals),
            window_spread: (setup_totals.len() > 1).then(|| window_spread(setup_totals)),
        },
    ]
}

/// What one run of one workload produced.
#[derive(Debug)]
pub struct Outcome {
    pub workload: &'static str,
    /// Every oracle check passed and no operation failed.
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// The metrics of this mode: end-to-end, or per-layer when traced.
    pub metrics: Vec<Measured>,
    /// Everything else worth keeping: windows, spreads, tails, stages.
    pub detail: Json,
}

/// Load clients: callers that each wait for their reply, never more
/// than there are cores to generate load from.
pub fn clients() -> usize {
    nproc().min(2)
}

pub fn run(workload: &Workload, cfg: &RunConfig, clock: &Epoch, scratch: &Scratch) -> Outcome {
    let calibration_before = calibration_ns();
    let mut outcome = match workload.kind {
        Kind::BatchLink => batch_link(workload, cfg, clock, scratch),
        Kind::ServeScan | Kind::ServeHot | Kind::ClusterScan => {
            serve_queries(workload, cfg, clock, scratch)
        }
        Kind::IngestLink => ingest_link(workload, cfg, clock, scratch),
    };
    if let Json::Obj(pairs) = &mut outcome.detail {
        pairs.push((
            "calibration_ns".into(),
            Json::nums(&[calibration_before, calibration_ns()]),
        ));
    }
    outcome
}

// ------------------------------------------------------------ set-up

/// Seconds each stage of one set-up took.
#[derive(Debug, Clone, Copy, Default)]
struct Stages {
    datagen_s: f64,
    encode_s: f64,
    build_s: f64,
    serve_s: f64,
    total_s: f64,
}

/// Repeats `set_up` `reps` times, tearing down all but the last, and
/// returns the last product with the median of each stage.
fn repeat_set_up<T>(
    reps: usize,
    mut set_up: impl FnMut() -> (T, Stages),
    mut tear_down: impl FnMut(T),
) -> (T, Stages, Vec<f64>) {
    let mut all: Vec<Stages> = Vec::new();
    let mut product = None;
    for _ in 0..reps.max(1) {
        if let Some(previous) = product.take() {
            tear_down(previous);
        }
        let started = Instant::now();
        let (made, mut stages) = set_up();
        stages.total_s = started.elapsed().as_secs_f64();
        all.push(stages);
        product = Some(made);
    }
    let mid = |f: fn(&Stages) -> f64| median(&all.iter().map(f).collect::<Vec<_>>());
    let stages = Stages {
        datagen_s: mid(|s| s.datagen_s),
        encode_s: mid(|s| s.encode_s),
        build_s: mid(|s| s.build_s),
        serve_s: mid(|s| s.serve_s),
        total_s: mid(|s| s.total_s),
    };
    let totals = all.iter().map(|s| s.total_s).collect();
    (product.expect("at least one set-up"), stages, totals)
}

fn stages_json(stages: &Stages, totals: &[f64]) -> Json {
    Json::obj([
        ("setup.datagen_s", Json::Num(stages.datagen_s)),
        ("setup.encode_s", Json::Num(stages.encode_s)),
        ("setup.build_s", Json::Num(stages.build_s)),
        ("setup.serve_s", Json::Num(stages.serve_s)),
        ("setup_s_repetitions", Json::nums(totals)),
    ])
}

/// Records, their encodings, and the probes derived from them.
pub struct World {
    pub dataset: Dataset,
    pub corpus: Vec<(u64, BitVec)>,
    /// Encoded records beyond the corpus, for the ingest feed.
    pub feed: Vec<(u64, BitVec)>,
    pub probes: Vec<BitVec>,
}

/// Generates `records + extra` person records from the seed, encodes
/// them on every core, and keeps the first `records` as the corpus.
fn make_world(records: usize, extra: usize, probes: usize, seed: u64) -> (World, Stages) {
    let started = Instant::now();
    let dataset = data::population(records + extra, seed);
    let datagen_s = started.elapsed().as_secs_f64();
    let started = Instant::now();
    let mut corpus = data::with_ids(data::encode(&dataset, nproc()), 0);
    let encode_s = started.elapsed().as_secs_f64();
    let feed = corpus.split_off(records);
    let probes = data::probes(&corpus, probes, seed);
    let stages = Stages {
        datagen_s,
        encode_s,
        ..Stages::default()
    };
    (
        World {
            dataset,
            corpus,
            feed,
            probes,
        },
        stages,
    )
}

/// A running target of queries: one node, or the cluster front end.
pub enum Target {
    Node { handle: ServerHandle, dir: PathBuf },
    Cluster { cluster: Cluster },
}

impl Target {
    pub fn addr(&self) -> String {
        match self {
            Target::Node { handle, .. } => handle.addr().to_string(),
            Target::Cluster { cluster } => cluster.front_addr(),
        }
    }

    pub fn shutdown(self) {
        match self {
            Target::Node { handle, .. } => {
                handle.shutdown_now();
            }
            Target::Cluster { cluster } => cluster.shutdown(),
        }
    }
}

/// Builds the index (or the three shard indexes) over `corpus`, starts
/// serving, and waits for the first authenticated STATS reply: ready to
/// take load.
fn stand_up(
    kind: Kind,
    corpus: &[(u64, BitVec)],
    scratch: &Scratch,
    stages: &mut Stages,
) -> (Target, Built) {
    let started = Instant::now();
    let (dirs, built): (Vec<PathBuf>, Built) = if kind == Kind::ClusterScan {
        let dirs: Vec<PathBuf> = (0..fixtures::CLUSTER_SHARDS)
            .map(|i| scratch.dir(&format!("shard-{i}")))
            .collect();
        let mut total = Built {
            seconds: 0.0,
            records: 0,
            disk_bytes: 0,
        };
        for (dir, part) in dirs.iter().zip(fixtures::partition(corpus)) {
            let built = fixtures::build_index(dir, &part);
            total.records += built.records;
            total.disk_bytes += built.disk_bytes;
        }
        total.seconds = started.elapsed().as_secs_f64();
        (dirs, total)
    } else {
        let dir = scratch.dir("node");
        let built = fixtures::build_index(&dir, corpus);
        (vec![dir], built)
    };
    stages.build_s = started.elapsed().as_secs_f64();

    let started = Instant::now();
    let target = match kind {
        Kind::ClusterScan => Target::Cluster {
            cluster: Cluster::start(&dirs),
        },
        _ => Target::Node {
            handle: fixtures::serve_node(&dirs[0], node_config(kind)),
            dir: dirs.into_iter().next().expect("one directory"),
        },
    };
    let stats = stats_of(&target.addr());
    assert_eq!(stats.records as usize, corpus.len(), "served corpus size");
    stages.serve_s = started.elapsed().as_secs_f64();
    (target, built)
}

/// `ServerConfig::default()` — two workers, a 256-entry result cache,
/// one scan thread — with background compaction left on only where
/// writes arrive.
fn node_config(kind: Kind) -> ServerConfig {
    ServerConfig {
        compact_interval: if kind == Kind::IngestLink {
            ServerConfig::default().compact_interval
        } else {
            None
        },
        ..ServerConfig::default()
    }
}

/// One STATS round trip on a connection of its own, closed again at
/// once: a node serves a session per worker, and the load needs both.
pub fn stats_of(addr: &str) -> StatsReport {
    fixtures::connect(addr).stats().expect("STATS")
}

fn ratio(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

/// What moved in STATS between two reports.
pub struct StatsDelta {
    pub cache_hit_ratio: f64,
    pub plan_hit_ratio: f64,
    pub busy_rejected: u64,
}

impl StatsDelta {
    pub fn between(before: &StatsReport, after: &StatsReport) -> StatsDelta {
        StatsDelta {
            cache_hit_ratio: ratio(
                after.cache_hits - before.cache_hits,
                after.cache_misses - before.cache_misses,
            ),
            plan_hit_ratio: ratio(
                after.plan_hits - before.plan_hits,
                after.plan_misses - before.plan_misses,
            ),
            busy_rejected: after.busy_rejected - before.busy_rejected,
        }
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("server.cache_hit_ratio", Json::Num(self.cache_hit_ratio)),
            ("server.plan_hit_ratio", Json::Num(self.plan_hit_ratio)),
            ("server.busy_rejected", Json::Num(self.busy_rejected as f64)),
        ])
    }
}

fn windows_json(windows: &Windows) -> Json {
    Json::obj([
        ("warm_up_s", Json::Num(windows.warm_up.as_secs_f64())),
        ("measured", Json::Num(windows.measured as f64)),
        ("length_s", Json::Num(windows.length.as_secs_f64())),
    ])
}

fn summary_json(summary: &Summary) -> Json {
    Json::obj([
        ("rate_windows", Json::nums(&summary.rate_windows)),
        ("rate_window_spread", Json::Num(summary.rate_spread())),
        ("p50_ms_windows", Json::nums(&summary.p50_windows)),
        ("p50_ms_window_spread", Json::Num(summary.p50_spread())),
        ("latency_samples", Json::Num(summary.samples as f64)),
        ("p99_ms", Json::Num(summary.p99_ms)),
        (
            "highest_supported_percentile",
            summary.tail.map_or(Json::Null, |(p, ms)| {
                Json::obj([("percentile", Json::Num(p)), ("ms", Json::Num(ms))])
            }),
        ),
        ("ops_attempted", Json::Num(summary.attempted as f64)),
        ("ops_failed", Json::Num(summary.failed as f64)),
    ])
}

/// Keeps the load's operations as root spans — every one of them up
/// to a few thousand, evenly thinned beyond that so the span file of a
/// 100k-ops/s workload stays readable.
fn root_spans(tracer: &mut Tracer, name: &'static str, samples: &[Sample]) {
    const KEPT: usize = 4096;
    let step = samples.len().div_ceil(KEPT).max(1);
    for (i, sample) in samples.iter().enumerate().step_by(step) {
        tracer.record(Span {
            name,
            start_ns: sample.from.as_nanos() as u64,
            end_ns: sample.end.as_nanos() as u64,
            parent: None,
            request_id: i as u64,
        });
    }
}

// ---------------------------------------------- serve_* and cluster_*

impl World {
    /// The probes whose answers are checked against the oracle.
    fn gate_probes(&self) -> &[BitVec] {
        &self.probes[..spec::GATE_PROBES.min(self.probes.len())]
    }
}

/// Checks the first probes against the oracle through a real client,
/// then asks every distinct probe once: the answers the load is
/// verified against, and the warm-up that materialises every segment.
fn gate_and_reference(what: &str, addr: &str, world: &World) -> (GateOutcome, Vec<Vec<Hit>>) {
    let mut client = fixtures::connect(addr);
    let gate = oracle::gate(
        what,
        &world.corpus,
        world.gate_probes(),
        spec::TOP_K,
        0.0,
        |p| client.query(p, spec::TOP_K),
    );
    let reference = world
        .probes
        .iter()
        .map(|p| client.query(p, spec::TOP_K).unwrap_or_default())
        .collect();
    (gate, reference)
}

/// The closed query loop shared by the three query workloads. Each
/// client cycles through its own share of the probes, so two uses of
/// one probe are always a whole cycle of other queries apart however
/// the clients drift against each other.
fn query_load(
    clock: &Epoch,
    addr: &str,
    probes: &[BitVec],
    reference: &[Vec<Hit>],
    length: Duration,
) -> (Duration, Vec<Sample>) {
    let clients = clients();
    closed_loop(
        clock,
        clients,
        length,
        |_| fixtures::connect(addr),
        |client: &mut Client, c, i| {
            let share = probes.len() / clients;
            let at = c * share + i as usize % share;
            let ok = client
                .query(&probes[at], spec::TOP_K)
                .is_ok_and(|hits| hits == reference[at]);
            (ok, 1)
        },
    )
}

fn serve_queries(w: &Workload, cfg: &RunConfig, clock: &Epoch, scratch: &Scratch) -> Outcome {
    let records = w.records(cfg.smoke);
    let ((world, target, built), stages, totals) = repeat_set_up(
        w.setup_reps,
        || {
            let (world, mut stages) = make_world(records, 0, w.probes, cfg.seed);
            let (target, built) = stand_up(w.kind, &world.corpus, scratch, &mut stages);
            ((world, target, built), stages)
        },
        |(_, target, _)| target.shutdown(),
    );
    let addr = target.addr();
    let (gate, reference) = gate_and_reference(w.name, &addr, &world);

    let connect_ms = (w.kind == Kind::ServeHot).then(|| {
        let n = if cfg.smoke { 20 } else { spec::CONNECTS };
        let times: Vec<f64> = (0..n)
            .map(|_| {
                let started = Instant::now();
                drop(fixtures::connect(&addr));
                started.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        median(&times)
    });

    let windows = cfg.windows(w.kind);
    let before = stats_of(&addr);
    let cpu_before = process_cpu_ms();
    let (started, samples) = query_load(clock, &addr, &world.probes, &reference, windows.total());
    let cpu_ms = process_cpu_ms() - cpu_before;
    let after = stats_of(&addr);
    let summary = Summary::of(&samples, started, windows);
    let delta = StatsDelta::between(&before, &after);

    // Each workload must exercise the path it is named for.
    let sized_right = match w.kind {
        Kind::ServeHot => delta.cache_hit_ratio >= 0.95,
        _ => delta.cache_hit_ratio <= 0.05,
    };
    if !sized_right {
        eprintln!(
            "{}: result-cache hit ratio {:.3} — the workload no longer exercises its path",
            w.name, delta.cache_hit_ratio
        );
    }

    let mut detail = vec![
        ("records".to_string(), Json::Num(records as f64)),
        (
            "distinct_probes".into(),
            Json::Num(world.probes.len() as f64),
        ),
        ("clients".into(), Json::Num(clients() as f64)),
        ("load".into(), Json::str("closed loop")),
        ("windows".into(), windows_json(&windows)),
        ("setup".into(), stages_json(&stages, &totals)),
        ("queries".into(), summary_json(&summary)),
        (
            "cpu_ms_per_op".into(),
            Json::Num(cpu_ms / (summary.attempted - summary.failed).max(1) as f64),
        ),
        ("stats".into(), delta.to_json()),
        ("scan_kernel".into(), Json::str(after.kernel.clone())),
        ("gate_probes_checked".into(), Json::Num(gate.checked as f64)),
        ("gate_mismatches".into(), Json::Num(gate.mismatched as f64)),
    ];
    if let Some(ms) = connect_ms {
        detail.push(("connect_ms".into(), Json::Num(ms)));
    }

    let attempted = summary.attempted + gate.checked;
    let failed = summary.failed + gate.mismatched;
    let correct = failed == 0 && sized_right;
    let metrics = if cfg.trace {
        let mut pass = Pass::new(cfg, clock, scratch);
        root_spans(&mut pass.tracer, "load.query_round_trip", &samples);
        detail.push(("traced_throughput".into(), Json::Num(summary.rate)));
        pass.set_built(&built);
        pass.served(w.kind, &world, target, delta);
        pass.finish(w, &mut detail)
    } else {
        target.shutdown();
        end_to_end(
            (summary.rate, summary.rate_spread()),
            (summary.p50_ms, summary.p50_spread()),
            &totals,
        )
    };
    Outcome {
        workload: w.name,
        correct,
        attempted,
        failed,
        metrics,
        detail: Json::Obj(detail),
    }
}

// ------------------------------------------------------ ingest_link_50k

fn well_formed(hits: &[Vec<Hit>], probes: usize) -> bool {
    hits.len() == probes
        && hits.iter().all(|per_probe| {
            per_probe.len() <= spec::TOP_K
                && per_probe.iter().all(|h| h.score >= spec::LINK_MIN_SCORE)
                && per_probe.windows(2).all(|w| w[0].score >= w[1].score)
        })
}

fn ingest_link(w: &Workload, cfg: &RunConfig, clock: &Epoch, scratch: &Scratch) -> Outcome {
    let records = w.records(cfg.smoke);
    let windows = cfg.windows(w.kind);
    let interval = Duration::from_secs(1) / spec::INSERTS_PER_SECOND;
    let batches = (windows.total().as_secs_f64() / interval.as_secs_f64()) as usize;
    let feed_records = batches * spec::INSERT_BATCH;

    let ((world, target, built), stages, totals) = repeat_set_up(
        w.setup_reps,
        || {
            let (world, mut stages) = make_world(records, feed_records, w.probes, cfg.seed);
            let (target, built) = stand_up(w.kind, &world.corpus, scratch, &mut stages);
            ((world, target, built), stages)
        },
        |(_, target, _)| target.shutdown(),
    );
    let addr = target.addr();

    // Gate: single queries and whole Link batches against the oracle.
    let (mut gate, _) = gate_and_reference(w.name, &addr, &world);
    {
        let mut client = fixtures::connect(&addr);
        let checked = world.gate_probes();
        let mut answers = checked
            .chunks(spec::LINK_BATCH)
            .flat_map(|batch| {
                client
                    .link(batch, spec::TOP_K, spec::LINK_MIN_SCORE)
                    .unwrap_or_default()
            })
            .collect::<Vec<_>>()
            .into_iter();
        gate.add(oracle::gate(
            "ingest_link_50k Link",
            &world.corpus,
            checked,
            spec::TOP_K,
            spec::LINK_MIN_SCORE,
            |_| Ok(answers.next().unwrap_or_default()),
        ));
    }

    // One writer on a fixed schedule, one linker in a closed loop, both
    // for the length of the windows.
    let link_batches: Vec<&[BitVec]> = world.probes.chunks(spec::LINK_BATCH).collect();
    let feed_batches: Vec<&[(u64, BitVec)]> = world.feed.chunks(spec::INSERT_BATCH).collect();
    let before = stats_of(&addr);
    let cpu_before = process_cpu_ms();
    let (link_started, link_samples, insert_samples, lateness) = std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            let mut client = fixtures::connect(&addr);
            let start = clock.now() + Duration::from_millis(20);
            paced(clock, start, interval, batches, |i| {
                let batch = feed_batches[i];
                let acked = client
                    .insert(batch)
                    .is_ok_and(|(n, _)| n as usize == batch.len());
                (acked, batch.len() as u64)
            })
        });
        let (started, link_samples) = closed_loop(
            clock,
            1,
            windows.total(),
            |_| fixtures::connect(&addr),
            |client: &mut Client, _, i| {
                let batch = link_batches[i as usize % link_batches.len()];
                let ok = client
                    .link(batch, spec::TOP_K, spec::LINK_MIN_SCORE)
                    .is_ok_and(|hits| well_formed(&hits, batch.len()));
                (ok, batch.len() as u64)
            },
        );
        let (insert_samples, lateness) = writer.join().expect("writer thread");
        (started, link_samples, insert_samples, lateness)
    });
    let cpu_ms = process_cpu_ms() - cpu_before;
    let links = Summary::of(&link_samples, link_started, windows);
    let inserts = Summary::of(&insert_samples, link_started, windows);

    // After the run: nothing acked was lost, inserted records are
    // found, and answers over the grown corpus still match the oracle.
    let acked = insert_samples.iter().filter(|s| s.ok).count();
    let mut grown = world.corpus.clone();
    for (sample, batch) in insert_samples.iter().zip(&feed_batches) {
        if sample.ok {
            grown.extend_from_slice(batch);
        }
    }
    let after = stats_of(&addr);
    let mut post = GateOutcome::default();
    post.checked += 1;
    if after.records as usize != grown.len() {
        post.mismatched += 1;
        eprintln!(
            "{}: STATS.records is {} after {acked} acked inserts, want {}",
            w.name,
            after.records,
            grown.len()
        );
    }
    {
        let mut client = fixtures::connect(&addr);
        let inserted = &grown[world.corpus.len()..];
        let step = (inserted.len() / spec::GATE_PROBES).max(1);
        for (id, filter) in inserted.iter().step_by(step).take(spec::GATE_PROBES) {
            post.checked += 1;
            let found = client
                .query(filter, spec::TOP_K)
                .is_ok_and(|hits| hits.iter().any(|h| h.id == *id && h.score == 1.0));
            if !found {
                post.mismatched += 1;
                eprintln!("{}: inserted record {id} does not find itself", w.name);
            }
        }
        post.add(oracle::gate(
            "ingest_link_50k after ingest",
            &grown,
            world.gate_probes(),
            spec::TOP_K,
            0.0,
            |p| client.query(p, spec::TOP_K),
        ));
    }
    gate.add(post);

    let late_ms: Vec<f64> = lateness.iter().map(|d| d.as_secs_f64() * 1e3).collect();
    let mut detail = vec![
        ("records".to_string(), Json::Num(records as f64)),
        (
            "load".into(),
            Json::str("open loop, paced inserts + closed loop Link"),
        ),
        ("insert_batches".into(), Json::Num(batches as f64)),
        ("insert_batches_acked".into(), Json::Num(acked as f64)),
        ("windows".into(), windows_json(&windows)),
        ("setup".into(), stages_json(&stages, &totals)),
        ("links".into(), summary_json(&links)),
        ("inserts".into(), summary_json(&inserts)),
        (
            "cpu_ms_per_op".into(),
            Json::Num(cpu_ms / (links.attempted + inserts.attempted).max(1) as f64),
        ),
        ("link_batch_p50_ms".into(), Json::Num(links.p50_ms)),
        (
            "generator_lateness_ms".into(),
            Json::obj([
                ("median", Json::Num(median(&late_ms))),
                (
                    "max",
                    Json::Num(late_ms.iter().copied().fold(0.0, f64::max)),
                ),
            ]),
        ),
        ("records_after".into(), Json::Num(after.records as f64)),
        (
            "compactions".into(),
            Json::Num((after.compactions - before.compactions) as f64),
        ),
        (
            "index.bytes_per_record_built".into(),
            Json::Num(built.disk_bytes as f64 / built.records as f64),
        ),
        ("gate_probes_checked".into(), Json::Num(gate.checked as f64)),
        ("gate_mismatches".into(), Json::Num(gate.mismatched as f64)),
    ];

    let attempted = links.attempted + inserts.attempted + gate.checked;
    let failed = links.failed + inserts.failed + gate.mismatched;
    let metrics = if cfg.trace {
        let mut pass = Pass::new(cfg, clock, scratch);
        root_spans(&mut pass.tracer, "load.link_round_trip", &link_samples);
        root_spans(&mut pass.tracer, "load.insert_from_due", &insert_samples);
        detail.push(("traced_throughput".into(), Json::Num(links.rate)));
        pass.set_built(&built);
        // The layer pass probes the corpus as it is now served.
        let world = World {
            corpus: grown,
            ..world
        };
        let load = StatsDelta::between(&before, &after);
        pass.served(w.kind, &world, target, load);
        pass.finish(w, &mut detail)
    } else {
        target.shutdown();
        end_to_end(
            (links.rate, links.rate_spread()),
            (inserts.p50_ms, inserts.p50_spread()),
            &totals,
        )
    };
    Outcome {
        workload: w.name,
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        detail: Json::Obj(detail),
    }
}

// ------------------------------------------------------ batch_link_20k

fn batch_link(w: &Workload, cfg: &RunConfig, clock: &Epoch, scratch: &Scratch) -> Outcome {
    let size = w.records(cfg.smoke);
    let ((a, b), stages, totals) = repeat_set_up(
        w.setup_reps,
        || {
            let started = Instant::now();
            let pair = data::dataset_pair(size, cfg.seed);
            let stages = Stages {
                datagen_s: started.elapsed().as_secs_f64(),
                ..Stages::default()
            };
            (pair, stages)
        },
        drop,
    );
    let config = PipelineConfig::standard(data::SHARED_KEY).expect("standard pipeline config");
    let truth = a.ground_truth_pairs(&b);
    let units = (a.len() + b.len()) as u64;

    // At least three repetitions (one under --smoke or tracing), more
    // while they still fit the measuring time.
    let min_reps = if cfg.smoke || cfg.trace { 1 } else { 3 };
    let budget = Duration::from_secs_f64(cfg.seconds);
    let started = clock.now();
    let cpu_before = process_cpu_ms();
    let mut samples: Vec<Sample> = Vec::new();
    let mut match_counts: Vec<usize> = Vec::new();
    let mut f1s: Vec<f64> = Vec::new();
    let mut last = Duration::ZERO;
    while samples.len() < min_reps || clock.now() - started + last <= budget {
        let from = clock.now();
        let result = link(&a, &b, &config);
        let end = clock.now();
        last = end - from;
        let ok = match &result {
            Ok(r) => {
                let f1 = Confusion::from_pairs(&r.pairs(), &truth).f1();
                f1s.push(f1);
                match_counts.push(r.matches.len());
                f1 >= spec::MIN_F1 && r.matches.len() == match_counts[0]
            }
            Err(e) => {
                eprintln!("{}: link failed: {e}", w.name);
                false
            }
        };
        samples.push(Sample {
            from,
            end,
            ok,
            units,
        });
        if cfg.trace {
            break;
        }
    }
    let cpu_ms = process_cpu_ms() - cpu_before;
    let good: Vec<&Sample> = samples.iter().filter(|s| s.ok).collect();
    let walls_ms: Vec<f64> = good
        .iter()
        .map(|s| (s.end - s.from).as_secs_f64() * 1e3)
        .collect();
    let rates: Vec<f64> = walls_ms
        .iter()
        .map(|ms| units as f64 / (ms / 1e3))
        .collect();
    let failed = (samples.len() - good.len()) as u64;
    if failed > 0 {
        eprintln!(
            "{}: F1 {f1s:?} (want >= {}), match counts {match_counts:?}",
            w.name,
            spec::MIN_F1
        );
    }
    let (throughput, p50_ms) = if good.is_empty() {
        (0.0, 0.0)
    } else {
        (median(&rates), median(&walls_ms))
    };

    let mut detail = vec![
        ("records_per_side".to_string(), Json::Num(size as f64)),
        ("true_matches".into(), Json::Num(truth.len() as f64)),
        (
            "load".into(),
            Json::str("one thread, repetitions back to back"),
        ),
        ("setup".into(), stages_json(&stages, &totals)),
        ("link_ms_repetitions".into(), Json::nums(&walls_ms)),
        (
            "link_ms_spread".into(),
            Json::Num(if walls_ms.is_empty() {
                0.0
            } else {
                window_spread(&walls_ms)
            }),
        ),
        ("f1".into(), Json::nums(&f1s)),
        (
            "matches".into(),
            Json::Num(match_counts.first().copied().unwrap_or(0) as f64),
        ),
        (
            "cpu_ms_per_op".into(),
            Json::Num(cpu_ms / samples.len() as f64),
        ),
        ("ops_attempted".into(), Json::Num(samples.len() as f64)),
        ("ops_failed".into(), Json::Num(failed as f64)),
    ];

    let metrics = if cfg.trace {
        let mut pass = Pass::new(cfg, clock, scratch);
        root_spans(&mut pass.tracer, "pipeline.link", &samples);
        detail.push(("traced_throughput".into(), Json::Num(throughput)));
        pass.batch(&a, &b, &config, w.probes);
        pass.finish(w, &mut detail)
    } else {
        let spread = if walls_ms.is_empty() {
            0.0
        } else {
            window_spread(&walls_ms)
        };
        end_to_end((throughput, spread), (p50_ms, spread), &totals)
    };
    Outcome {
        workload: w.name,
        correct: failed == 0,
        attempted: samples.len() as u64,
        failed,
        metrics,
        detail: Json::Obj(detail),
    }
}
