//! E21 — scatter–gather distributed linkage: load-test of `pprl-cluster`,
//! the coordinator that fans linkage queries out over sharded
//! `pprl-server` nodes (§5.1's volume axis past a single machine:
//! linkage over a corpus partitioned across nodes, merged exactly).
//!
//! Builds three shard indexes of real GeCo-person CLKs (partitioned by
//! the coordinator's own routing function), starts three in-process
//! shard servers plus the cluster front end, then:
//!
//! 1. asserts the cluster's merged top-k is bit-identical to a single
//!    node holding the union corpus,
//! 2. sweeps concurrent closed-loop clients (1 → 8) against the cluster
//!    front end and reports wall-clock QPS and client-observed latency,
//! 3. kills one shard and repeats the sweep's top level in degraded
//!    mode — results must match the surviving-shard oracle and the
//!    Stats opcode must surface the missing shard.
//!
//! Run: `cargo run --release -p pprl-bench --bin exp_cluster`
//! (pass `--smoke` for a quick small-N pass).

use pprl_bench::{banner, report, secs, Table};
use pprl_cluster::coordinator::{route_id, ClusterConfig, Coordinator};
use pprl_cluster::server::{serve_cluster, ClusterServerConfig};
use pprl_core::bitvec::BitVec;
use pprl_core::json::Json;
use pprl_core::record::Dataset;
use pprl_core::rng::SplitMix64;
use pprl_core::schema::Schema;
use pprl_datagen::generator::{Generator, GeneratorConfig};
use pprl_encoding::encoder::{RecordEncoder, RecordEncoderConfig};
use pprl_index::query::Hit;
use pprl_index::store::{IndexConfig, IndexStore};
use pprl_server::client::Client;
use pprl_server::server::{serve, ServerConfig, ServerHandle};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

const FILTER_BITS: usize = 1000;
const TOP_K: usize = 10;
const SHARDS: usize = 3;

/// CLK encodings of GeCo person records; every third is a corrupted
/// duplicate so queries have realistic near-matches (same population
/// recipe as E17/E18).
fn clk_filters(n: usize, seed: u64) -> Vec<(u64, BitVec)> {
    let mut g = Generator::new(GeneratorConfig {
        seed,
        corruption_rate: 0.3,
        ..GeneratorConfig::default()
    })
    .expect("generator");
    let schema = Schema::person();
    let encoder = RecordEncoder::new(
        RecordEncoderConfig::person_clk(b"exp-cluster".to_vec()),
        &schema,
    )
    .expect("encoder");
    let mut ds = Dataset::new(schema);
    for j in 0..n {
        let r = if j % 3 == 2 {
            let base = g.entity((j / 3) as u64);
            g.corrupt_record(&base)
        } else {
            g.entity(j as u64)
        };
        ds.push(r).expect("push");
    }
    let encoded = encoder.encode_dataset(&ds).expect("encode");
    encoded
        .records
        .iter()
        .enumerate()
        .map(|(j, r)| (j as u64, r.try_clk().expect("clk").clone()))
        .collect()
}

/// Near-duplicate probe: a stored filter with ~5% of bits flipped.
fn perturb(filter: &BitVec, rng: &mut SplitMix64) -> BitVec {
    let mut out = filter.clone();
    for pos in 0..out.len() {
        if rng.next_u64().is_multiple_of(20) {
            out.flip(pos);
        }
    }
    out
}

/// Upper-quantile from a sorted latency sample, in milliseconds.
fn quantile_ms(sorted_us: &[u64], q: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_us.len() - 1) as f64 * q).round() as usize;
    sorted_us[idx] as f64 / 1_000.0
}

/// Builds an index at `dir` holding exactly `records` and returns it.
fn build_store(dir: &Path, records: &[(u64, BitVec)]) {
    let mut store = IndexStore::create(dir, IndexConfig::new(FILTER_BITS, 4)).expect("create");
    for chunk in records.chunks(1000) {
        store.insert_batch(chunk).expect("insert");
        store.flush().expect("flush");
    }
}

/// Single-node oracle answers over an arbitrary record set.
fn oracle_top_k(dir: &Path, probes: &[BitVec], k: usize) -> Vec<Vec<Hit>> {
    let store = IndexStore::open(dir).expect("open oracle");
    let reader = store.reader().expect("oracle reader");
    probes
        .iter()
        .map(|p| reader.top_k(p, k, 1).expect("oracle top_k"))
        .collect()
}

/// Closed-loop client sweep against `addr`: `clients` threads each issue
/// `per_client` queries; returns (wall seconds, sorted latencies in µs).
fn run_level(
    addr: &str,
    probes: &Arc<Vec<BitVec>>,
    clients: usize,
    per_client: usize,
) -> (f64, Vec<u64>) {
    let started = Instant::now();
    let threads: Vec<_> = (0..clients)
        .map(|c| {
            let addr = addr.to_string();
            let probes = Arc::clone(probes);
            std::thread::spawn(move || {
                let mut client = Client::connect_retry(&addr, 50, Duration::from_millis(20))
                    .expect("client connect");
                let mut lat_us = Vec::with_capacity(per_client);
                for q in 0..per_client {
                    let probe = &probes[(c * 131 + q * 17) % probes.len()];
                    let t = Instant::now();
                    let hits = client.query(probe, TOP_K).expect("cluster query");
                    assert!(!hits.is_empty(), "top-k over a populated cluster");
                    lat_us.push(t.elapsed().as_micros() as u64);
                }
                lat_us
            })
        })
        .collect();
    let mut all_us = Vec::new();
    for t in threads {
        all_us.extend(t.join().expect("client thread"));
    }
    let wall = started.elapsed().as_secs_f64();
    all_us.sort_unstable();
    (wall, all_us)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let index_records: usize = if smoke { 900 } else { 6_000 };
    let per_client: usize = if smoke { 25 } else { 100 };
    let client_levels: &[usize] = if smoke { &[1, 2] } else { &[1, 2, 4, 8] };
    let probe_count: usize = if smoke { 64 } else { 256 };

    banner(
        "E21",
        "Scatter–gather cluster linkage (pprl-cluster)",
        "a sharded cluster answers top-k bit-identically to one node holding the union corpus, \
         and keeps answering (flagged degraded) when a shard dies",
    );
    let base = std::env::temp_dir().join("pprl-exp-cluster");
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).expect("bench dir");

    // Union corpus, partitioned by the coordinator's own routing
    // function so routed inserts would land exactly where these live.
    let (records, gen_secs) = pprl_bench::timed(|| clk_filters(index_records, 0xE21));
    println!(
        "generated + CLK-encoded {index_records} GeCo records in {}",
        secs(gen_secs)
    );
    let mut parts: Vec<Vec<(u64, BitVec)>> = vec![Vec::new(); SHARDS];
    for (id, f) in &records {
        parts[route_id(*id, SHARDS)].push((*id, f.clone()));
    }
    let shard_sizes: Vec<usize> = parts.iter().map(Vec::len).collect();
    assert!(
        shard_sizes.iter().all(|&n| n > 0),
        "routing spreads the corpus over every shard"
    );
    for (i, part) in parts.iter().enumerate() {
        build_store(&base.join(format!("shard-{i}")), part);
    }
    let oracle_dir = base.join("oracle");
    build_store(&oracle_dir, &records);
    println!(
        "partitioned into {SHARDS} shards by route_id: {shard_sizes:?} records \
         (+ a single-node oracle of all {index_records})"
    );

    // Three shard servers plus the cluster front end on loopback.
    let mut shard_handles: Vec<Option<ServerHandle>> = (0..SHARDS)
        .map(|i| {
            Some(
                serve(
                    &base.join(format!("shard-{i}")),
                    "127.0.0.1:0",
                    ServerConfig {
                        // Each front-end worker pins one session per
                        // shard while its connection sits in the
                        // coordinator pool, so shards get spare workers
                        // for admin connections (the shard-kill below).
                        workers: 6,
                        queue_capacity: 32,
                        compact_interval: None,
                        ..ServerConfig::default()
                    },
                )
                .expect("serve shard"),
            )
        })
        .collect();
    let shard_addrs: Vec<String> = shard_handles
        .iter()
        .map(|h| h.as_ref().expect("live shard").addr().to_string())
        .collect();
    let coordinator = Coordinator::connect(ClusterConfig {
        min_shards: 1,
        ..ClusterConfig::new(shard_addrs.clone())
    })
    .expect("connect coordinator");
    let front = serve_cluster(
        Arc::new(coordinator),
        "127.0.0.1:0",
        ClusterServerConfig {
            workers: 4,
            queue_capacity: 64,
            ..ClusterServerConfig::default()
        },
    )
    .expect("serve cluster");
    let front_addr = front.addr().to_string();
    println!("cluster front end on {front_addr} fanning out to {SHARDS} shards\n");

    let probes: Arc<Vec<BitVec>> = {
        let mut rng = SplitMix64::new(0xC1A5);
        Arc::new(
            (0..probe_count)
                .map(|qi| perturb(&records[(qi * 97) % index_records].1, &mut rng))
                .collect(),
        )
    };

    // 1. Exactness: merged scatter–gather answers == single-node oracle.
    let oracle = oracle_top_k(&oracle_dir, &probes, TOP_K);
    let mut checker =
        Client::connect_retry(&front_addr, 50, Duration::from_millis(20)).expect("connect");
    for (probe, expect) in probes.iter().zip(&oracle) {
        let hits = checker.query(probe, TOP_K).expect("cluster query");
        assert_eq!(&hits, expect, "cluster top-k must match the union oracle");
    }
    println!(
        "exactness: {} merged top-{TOP_K} answers bit-identical to the union oracle",
        probes.len()
    );
    report::note(format!(
        "{} cluster answers bit-identical to a single-node union oracle",
        probes.len()
    ));

    // 2. Healthy sweep over the cluster front end.
    let mut sweep = Table::new(&[
        "shards up",
        "clients",
        "queries",
        "wall time",
        "QPS",
        "p50 ms",
        "p99 ms",
    ]);
    let mut qps_rows: Vec<Json> = Vec::new();
    let mut record_level = |sweep: &mut Table, up: usize, clients: usize, wall: f64, us: &[u64]| {
        let total = clients * per_client;
        let qps = total as f64 / wall;
        sweep.row(vec![
            up.to_string(),
            clients.to_string(),
            total.to_string(),
            secs(wall),
            format!("{qps:.1}"),
            format!("{:.2}", quantile_ms(us, 0.50)),
            format!("{:.2}", quantile_ms(us, 0.99)),
        ]);
        qps_rows.push(Json::Obj(vec![
            ("shards_up".into(), Json::Num(up as f64)),
            ("clients".into(), Json::Num(clients as f64)),
            ("qps".into(), Json::Num((qps * 10.0).round() / 10.0)),
            ("p50_ms".into(), Json::Num(quantile_ms(us, 0.50))),
            ("p99_ms".into(), Json::Num(quantile_ms(us, 0.99))),
        ]));
    };
    for &clients in client_levels {
        let (wall, us) = run_level(&front_addr, &probes, clients, per_client);
        record_level(&mut sweep, SHARDS, clients, wall, &us);
    }

    // 3. Kill one shard: the cluster keeps answering from the survivors,
    //    bit-identical to an oracle over the surviving partitions, and
    //    flags the loss through the Stats opcode.
    let dead = 1usize;
    Client::connect_retry(&shard_addrs[dead], 50, Duration::from_millis(20))
        .expect("connect doomed shard")
        .shutdown()
        .expect("shutdown shard");
    shard_handles[dead].take().expect("live shard").join();
    println!("\nkilled shard {dead}; cluster continues in degraded mode");

    let survivors: Vec<(u64, BitVec)> = parts
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != dead)
        .flat_map(|(_, p)| p.iter().cloned())
        .collect();
    let degraded_oracle_dir = base.join("oracle-degraded");
    build_store(&degraded_oracle_dir, &survivors);
    let degraded_oracle = oracle_top_k(&degraded_oracle_dir, &probes, TOP_K);
    for (probe, expect) in probes.iter().zip(&degraded_oracle) {
        let hits = checker.query(probe, TOP_K).expect("degraded query");
        assert_eq!(
            &hits, expect,
            "degraded top-k must match the survivor oracle"
        );
    }
    println!(
        "degraded exactness: {} answers bit-identical to the surviving-shard oracle",
        probes.len()
    );

    let degraded_clients = *client_levels.last().expect("levels");
    let (wall, us) = run_level(&front_addr, &probes, degraded_clients, per_client);
    record_level(&mut sweep, SHARDS - 1, degraded_clients, wall, &us);

    let stats = checker.stats().expect("cluster stats");
    assert!(stats.degraded, "stats must flag the dead shard");
    assert_eq!(stats.cluster_shards, SHARDS as u32);
    assert_eq!(stats.shards_down, 1);
    assert_eq!(stats.missing_shards, vec![dead as u32]);
    assert_eq!(
        stats.records as usize,
        survivors.len(),
        "stats sum the surviving corpus"
    );
    println!(
        "stats: {} shards, {} down (missing {:?}), {} records served, {} degraded replies",
        stats.cluster_shards,
        stats.shards_down,
        stats.missing_shards,
        stats.records,
        front
            .backend()
            .metrics
            .degraded_replies
            .load(std::sync::atomic::Ordering::Relaxed),
    );

    println!("\nClosed-loop client sweep against the cluster front end:");
    sweep.print();
    report::note(format!(
        "one-shard-down cluster still serves exact survivor-side answers; \
         stats surface missing shard {dead}"
    ));

    // Tear down: stop the coordinator over the wire (shards keep
    // running), then shut the surviving shards down through it.
    checker.shutdown().expect("shutdown coordinator");
    let coordinator = front.join();
    coordinator.shutdown_shards();
    for h in shard_handles.into_iter().flatten() {
        h.join();
    }

    // Splice the cluster summary into the workspace BENCH_index.json.
    let summary = Json::Obj(vec![
        ("experiment".into(), Json::str("E21")),
        ("shards".into(), Json::Num(SHARDS as f64)),
        ("records".into(), Json::Num(index_records as f64)),
        ("probes_checked".into(), Json::Num(probes.len() as f64)),
        ("sweep".into(), Json::Arr(qps_rows)),
        (
            "degraded_missing_shards".into(),
            Json::Arr(vec![Json::Num(dead as f64)]),
        ),
    ]);
    let path = report::results_dir()
        .parent()
        .expect("workspace root")
        .join("BENCH_index.json");
    append_to_bench_index(&path, summary);
    println!("\nappended cluster summary: {}", path.display());

    println!("\nEvery merged answer — healthy and degraded — was bit-identical to the");
    println!("corresponding single-node oracle: the k-way merge's total order (score");
    println!("desc, id asc) makes shard count an implementation detail of the results.");

    let _ = std::fs::remove_dir_all(&base);
    report::save();
}

/// Merges `summary` into the workspace `BENCH_index.json` under the
/// `"cluster"` key, replacing any previous run's entry.
fn append_to_bench_index(path: &Path, summary: Json) {
    let merged = match std::fs::read_to_string(path) {
        Ok(existing) => {
            let trimmed = existing.trim_end();
            match trimmed.strip_suffix('}') {
                Some(head) if trimmed.starts_with('{') => {
                    let head = head
                        .rfind(",\n  \"cluster\":")
                        .map_or(head, |at| &head[..at]);
                    format!(
                        "{},\n  \"cluster\": {}\n}}",
                        head.trim_end().trim_end_matches(','),
                        summary.render()
                    )
                }
                _ => summary.render(),
            }
        }
        Err(_) => Json::Obj(vec![
            ("experiment".into(), Json::str("E21")),
            ("cluster".into(), summary),
        ])
        .render(),
    };
    std::fs::write(path, merged).expect("write BENCH_index.json");
}
