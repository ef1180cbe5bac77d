//! End-to-end tests for `pprl-cluster`: 3-shard scatter–gather results
//! bit-identical to a single node holding the union corpus, degraded
//! merges after a shard dies mid-query, quorum enforcement, `Busy`
//! absorption within the deadline, snapshot-shipped replicas, and the
//! TCP front end speaking the stock client protocol.

use pprl_cluster::coordinator::{route_id, ClusterConfig, Coordinator};
use pprl_cluster::server::{serve_cluster, ClusterServerConfig};
use pprl_core::bitvec::BitVec;
use pprl_core::error::PprlError;
use pprl_index::manifest::IndexConfig;
use pprl_index::query::Hit;
use pprl_index::store::IndexStore;
use pprl_server::client::Client;
use pprl_server::server::{serve, ServerConfig, ServerHandle};
use pprl_server::wire::{read_payload, write_payload, Incoming, Request, Response};
use pprl_session::suite::SuiteOffer;
use std::path::{Path, PathBuf};
use std::time::Duration;

const FILTER_LEN: usize = 256;
const SHARDS: usize = 3;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "pprl-cluster-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Deterministic pseudo-random filter for record `id`.
fn filter_for(id: u64) -> BitVec {
    let mut positions = Vec::new();
    let mut x = id.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(17);
    for _ in 0..40 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        positions.push((x % FILTER_LEN as u64) as usize);
    }
    positions.sort_unstable();
    positions.dedup();
    BitVec::from_positions(FILTER_LEN, &positions).unwrap()
}

/// Creates an index at `dir` holding exactly `records`.
fn build_store(dir: &Path, records: &[(u64, BitVec)]) {
    let mut store = IndexStore::create(dir, IndexConfig::new(FILTER_LEN, 4)).unwrap();
    if !records.is_empty() {
        store.insert_batch(records).unwrap();
        store.flush().unwrap();
    }
}

fn serve_shard(dir: &Path) -> ServerHandle {
    serve(
        dir,
        "127.0.0.1:0",
        ServerConfig {
            workers: 2,
            queue_capacity: 16,
            compact_interval: None,
            ..ServerConfig::default()
        },
    )
    .unwrap()
}

/// The union corpus: ids 0..180 routed across shards by `route_id`,
/// plus six records over three shards sharing one filter (equal Dice
/// score against it from every shard) to exercise cross-shard
/// tie-breaking in the merge.
fn union_corpus() -> Vec<(u64, BitVec)> {
    let mut records: Vec<(u64, BitVec)> = (0..180u64).map(|id| (id, filter_for(id))).collect();
    let tie_filter = filter_for(999_999);
    for id in [10_001u64, 10_002, 10_003, 10_004, 10_005, 10_006] {
        records.push((id, tie_filter.clone()));
    }
    records
}

/// Partitions `records` by the coordinator's routing function.
fn partition(records: &[(u64, BitVec)]) -> Vec<Vec<(u64, BitVec)>> {
    let mut parts = vec![Vec::new(); SHARDS];
    for (id, f) in records {
        parts[route_id(*id, SHARDS)].push((*id, f.clone()));
    }
    parts
}

/// Offline single-node oracle answers over an arbitrary record set.
fn oracle_top_k(
    tag: &str,
    records: &[(u64, BitVec)],
    probes: &[BitVec],
    k: usize,
) -> Vec<Vec<Hit>> {
    let dir = temp_dir(tag);
    build_store(&dir, records);
    let store = IndexStore::open(&dir).unwrap();
    let reader = store.reader().unwrap();
    let out = probes
        .iter()
        .map(|p| reader.top_k(p, k, 1).unwrap())
        .collect();
    drop(store);
    std::fs::remove_dir_all(&dir).ok();
    out
}

struct TestCluster {
    shards: Vec<ServerHandle>,
    dirs: Vec<PathBuf>,
}

impl TestCluster {
    /// 3 shard nodes over a routed partition of `records`.
    fn start(tag: &str, records: &[(u64, BitVec)]) -> TestCluster {
        let parts = partition(records);
        let dirs: Vec<PathBuf> = (0..SHARDS)
            .map(|i| temp_dir(&format!("{tag}-s{i}")))
            .collect();
        let shards = dirs
            .iter()
            .zip(&parts)
            .map(|(dir, part)| {
                build_store(dir, part);
                serve_shard(dir)
            })
            .collect();
        TestCluster { shards, dirs }
    }

    fn addrs(&self) -> Vec<String> {
        self.shards.iter().map(|h| h.addr().to_string()).collect()
    }

    fn stop(self) {
        for shard in self.shards {
            shard.shutdown_now();
        }
        for dir in self.dirs {
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

/// The headline acceptance criterion: a 3-shard cluster answers query
/// and link bit-identically to a single node holding the union corpus,
/// including crafted cross-shard score ties.
#[test]
fn cluster_matches_single_node_union_oracle() {
    let records = union_corpus();
    // The tie records must actually land on distinct shards for the
    // cross-shard tie-break to be exercised.
    let tie_shards: std::collections::HashSet<usize> = (10_001u64..=10_006)
        .map(|id| route_id(id, SHARDS))
        .collect();
    assert!(tie_shards.len() >= 2, "tie ids all routed to one shard");

    let cluster = TestCluster::start("oracle", &records);
    let coordinator = Coordinator::connect(ClusterConfig {
        shards: cluster.addrs(),
        min_shards: SHARDS,
        deadline: Duration::from_secs(10),
        shard_auth: None,
    })
    .unwrap();

    // Probes: in-corpus records, unseen records, and the tie filter.
    let mut probes: Vec<BitVec> = (0..10u64).map(filter_for).collect();
    probes.extend((5000..5010u64).map(filter_for));
    probes.push(filter_for(999_999));

    for k in [1usize, 5, 17] {
        let expected = oracle_top_k("oracle-ref", &records, &probes, k);
        for (probe, want) in probes.iter().zip(&expected) {
            let got = coordinator.query(probe, k).unwrap();
            assert_eq!(&got, want, "k={k}: cluster diverged from union oracle");
        }
    }

    // The tie probe must rank the six equal-score records by id.
    let ties = coordinator.query(&filter_for(999_999), 6).unwrap();
    assert_eq!(
        ties.iter().map(|h| h.id).collect::<Vec<_>>(),
        [10_001, 10_002, 10_003, 10_004, 10_005, 10_006]
    );
    let first_score = ties[0].score;
    assert!(ties.iter().all(|h| h.score == first_score));

    // Batch link with a threshold merges identically too.
    let min_score = 0.55;
    let k = 6;
    let expected: Vec<Vec<Hit>> = oracle_top_k("oracle-link", &records, &probes, k)
        .into_iter()
        .map(|mut hits| {
            hits.retain(|h| h.score >= min_score);
            hits
        })
        .collect();
    let got = coordinator.link(&probes, k, min_score).unwrap();
    assert_eq!(got, expected, "cluster link diverged from union oracle");

    assert!(coordinator.missing_shards().is_empty());
    assert_eq!(
        coordinator
            .metrics
            .degraded_replies
            .load(std::sync::atomic::Ordering::Relaxed),
        0
    );
    cluster.stop();
}

/// Inserts through the coordinator route by id hash, are acknowledged
/// with the summed count, and are immediately visible to broadcast
/// queries — from every shard they landed on.
#[test]
fn routed_inserts_are_visible_cluster_wide() {
    let records = union_corpus();
    let cluster = TestCluster::start("insert", &records);
    let coordinator = Coordinator::connect(ClusterConfig {
        shards: cluster.addrs(),
        min_shards: SHARDS,
        deadline: Duration::from_secs(10),
        shard_auth: None,
    })
    .unwrap();

    let fresh: Vec<(u64, BitVec)> = (20_000..20_030u64).map(|id| (id, filter_for(id))).collect();
    // The batch must split across at least two shards to test routing.
    let routed: std::collections::HashSet<usize> =
        fresh.iter().map(|(id, _)| route_id(*id, SHARDS)).collect();
    assert!(routed.len() >= 2);

    let (count, generation) = coordinator.insert(&fresh).unwrap();
    assert_eq!(count, 30);
    assert!(generation >= 1);

    for (id, filter) in &fresh {
        let hits = coordinator.query(filter, 1).unwrap();
        assert_eq!(
            hits[0].id, *id,
            "inserted record not the top hit for its own filter"
        );
        assert!((hits[0].score - 1.0).abs() < 1e-12);
    }

    // The stats surface sums the shard corpora: originals + the batch.
    let stats = coordinator.stats(0);
    assert_eq!(stats.records, records.len() as u64 + 30);
    assert_eq!(stats.cluster_shards, SHARDS as u32);
    assert_eq!(stats.shards_down, 0);
    assert!(!stats.degraded);
    cluster.stop();
}

/// Killing a shard degrades reads instead of failing them: queries
/// merge the survivors exactly (bit-identical to an oracle over the
/// surviving sub-corpus), stats reports the missing shard, and losing
/// quorum turns reads into typed errors.
#[test]
fn killed_shard_degrades_merge_and_stats_then_quorum_fails() {
    let records = union_corpus();
    let parts = partition(&records);
    let cluster = TestCluster::start("degraded", &records);
    let addrs = cluster.addrs();
    let coordinator = Coordinator::connect(ClusterConfig {
        shards: addrs.clone(),
        min_shards: 1,
        deadline: Duration::from_secs(5),
        shard_auth: None,
    })
    .unwrap();

    let probes: Vec<BitVec> = (0..8u64).map(filter_for).collect();
    let full = oracle_top_k("degraded-full", &records, &probes, 5);
    for (probe, want) in probes.iter().zip(&full) {
        assert_eq!(&coordinator.query(probe, 5).unwrap(), want);
    }

    // Kill shard 1 out from under the coordinator.
    let mut killer = Client::connect(&addrs[1]).unwrap();
    killer.shutdown().unwrap();
    drop(killer);
    std::thread::sleep(Duration::from_millis(300));

    // Reads still succeed, now exactly over shards 0 and 2.
    let survivors: Vec<(u64, BitVec)> = parts[0].iter().chain(&parts[2]).cloned().collect();
    let degraded = oracle_top_k("degraded-rest", &survivors, &probes, 5);
    for (probe, want) in probes.iter().zip(&degraded) {
        assert_eq!(
            &coordinator.query(probe, 5).unwrap(),
            want,
            "degraded merge diverged from the surviving sub-corpus"
        );
    }
    assert_eq!(coordinator.missing_shards(), vec![1]);
    assert!(
        coordinator
            .metrics
            .degraded_replies
            .load(std::sync::atomic::Ordering::Relaxed)
            >= probes.len() as u64
    );

    // Stats never fails on lost shards; it reports them.
    let stats = coordinator.stats(0);
    assert!(stats.degraded);
    assert_eq!(stats.cluster_shards, 3);
    assert_eq!(stats.shards_down, 1);
    assert_eq!(stats.missing_shards, vec![1]);
    assert_eq!(
        stats.records,
        (parts[0].len() + parts[2].len()) as u64,
        "degraded stats must count the surviving corpus only"
    );

    // Writes routed to the dead shard fail loudly — no silent loss.
    let doomed_id = (0..u64::MAX).find(|id| route_id(*id, SHARDS) == 1).unwrap();
    let err = coordinator
        .insert(&[(doomed_id, filter_for(doomed_id))])
        .unwrap_err();
    assert!(
        matches!(err, PprlError::Transport(_) | PprlError::Timeout(_)),
        "got {err:?}"
    );

    // Below quorum (min_shards back up to 2 conceptually): kill another
    // shard with a 2-survivor quorum coordinator and reads must error.
    let strict = Coordinator::new(ClusterConfig {
        shards: addrs.clone(),
        min_shards: 2,
        deadline: Duration::from_secs(5),
        shard_auth: None,
    })
    .unwrap();
    let mut killer = Client::connect(&addrs[2]).unwrap();
    killer.shutdown().unwrap();
    drop(killer);
    std::thread::sleep(Duration::from_millis(300));
    match strict.query(&probes[0], 5) {
        Err(PprlError::Transport(msg)) => assert!(msg.contains("quorum"), "{msg}"),
        other => panic!("expected a quorum error, got {other:?}"),
    }
    cluster.stop();
}

/// A scripted wire-speaking shard that answers the first request with
/// `Busy` (closing the connection, as the real server does) and the
/// second with real hits: the coordinator's client absorbs the
/// rejection with backoff and the scatter still succeeds within its
/// deadline.
#[test]
fn busy_shard_is_retried_within_the_deadline() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let hits = vec![
        Hit {
            id: 7,
            score: 0.875,
        },
        Hit { id: 9, score: 0.5 },
    ];
    let scripted = hits.clone();
    let fake = std::thread::spawn(move || {
        // Connection 1: read the request, reject with Busy, close.
        let (mut conn, _) = listener.accept().unwrap();
        loop {
            match read_payload(&mut conn).unwrap() {
                Incoming::Payload(p) => {
                    assert!(matches!(
                        Request::decode(&p).unwrap(),
                        Request::Query { .. }
                    ));
                    break;
                }
                Incoming::TimedOut => continue,
                Incoming::Eof => panic!("client hung up before sending"),
            }
        }
        let busy = Response::Busy { retry_after_ms: 5 };
        write_payload(&mut conn, &busy.encode()).unwrap();
        drop(conn);
        // Connection 2: the retried request gets real hits.
        let (mut conn, _) = listener.accept().unwrap();
        loop {
            match read_payload(&mut conn).unwrap() {
                Incoming::Payload(p) => {
                    assert!(matches!(
                        Request::decode(&p).unwrap(),
                        Request::Query { .. }
                    ));
                    break;
                }
                Incoming::TimedOut => continue,
                Incoming::Eof => panic!("client never retried after Busy"),
            }
        }
        write_payload(&mut conn, &Response::Hits(scripted).encode()).unwrap();
    });

    let coordinator = Coordinator::new(ClusterConfig {
        shards: vec![addr],
        min_shards: 1,
        deadline: Duration::from_secs(5),
        shard_auth: None,
    })
    .unwrap();
    let got = coordinator.query(&filter_for(1), 2).unwrap();
    assert_eq!(got, hits);
    fake.join().unwrap();
    // The Busy bounce was absorbed inside the client, not surfaced as a
    // shard failure.
    assert!(coordinator.missing_shards().is_empty());
}

/// Snapshot shipping: a replica built by `export_snapshot` from a
/// donor store serves as a drop-in shard — the rebuilt cluster answers
/// bit-identically to the union oracle.
#[test]
fn snapshot_shipped_replica_serves_as_a_shard() {
    let records = union_corpus();
    let parts = partition(&records);

    // Donor for shard 1: includes an unflushed WAL tail, which the
    // export must carry over.
    let donor_dir = temp_dir("ship-donor");
    let (flushed, tail) = parts[1].split_at(parts[1].len() - 3);
    let mut donor = IndexStore::create(&donor_dir, IndexConfig::new(FILTER_LEN, 4)).unwrap();
    donor.insert_batch(flushed).unwrap();
    donor.flush().unwrap();
    donor.insert_batch(tail).unwrap(); // pending, not flushed

    let replica_dir = temp_dir("ship-replica");
    std::fs::remove_dir_all(&replica_dir).ok(); // export wants a fresh dir
    std::fs::create_dir_all(&replica_dir).unwrap();
    let shipped = donor.export_snapshot(&replica_dir).unwrap();
    assert!(shipped.records >= flushed.len());
    drop(donor);
    std::fs::remove_dir_all(&donor_dir).ok();

    // Shards 0 and 2 from the routed partition; shard 1 is the replica.
    let dir0 = temp_dir("ship-s0");
    let dir2 = temp_dir("ship-s2");
    build_store(&dir0, &parts[0]);
    build_store(&dir2, &parts[2]);
    let shards = [
        serve_shard(&dir0),
        serve_shard(&replica_dir),
        serve_shard(&dir2),
    ];
    let coordinator = Coordinator::connect(ClusterConfig {
        shards: shards.iter().map(|h| h.addr().to_string()).collect(),
        min_shards: 3,
        deadline: Duration::from_secs(10),
        shard_auth: None,
    })
    .unwrap();

    let probes: Vec<BitVec> = (0..6u64)
        .map(filter_for)
        .chain(parts[1].iter().take(4).map(|(_, f)| f.clone()))
        .collect();
    let expected = oracle_top_k("ship-oracle", &records, &probes, 5);
    for (probe, want) in probes.iter().zip(&expected) {
        assert_eq!(
            &coordinator.query(probe, 5).unwrap(),
            want,
            "replica-backed cluster diverged from the union oracle"
        );
    }

    for shard in shards {
        shard.shutdown_now();
    }
    for dir in [dir0, replica_dir, dir2] {
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// The TCP front end: a stock client talks to the cluster exactly as
/// to one node — same results, cluster-shaped stats, and `Shutdown`
/// stopping only the coordinator while shards keep serving.
#[test]
fn front_end_speaks_the_stock_client_protocol() {
    let records = union_corpus();
    let cluster = TestCluster::start("front", &records);
    let coordinator = std::sync::Arc::new(
        Coordinator::connect(ClusterConfig {
            shards: cluster.addrs(),
            min_shards: SHARDS,
            deadline: Duration::from_secs(10),
            shard_auth: None,
        })
        .unwrap(),
    );
    let front = serve_cluster(
        std::sync::Arc::clone(&coordinator),
        "127.0.0.1:0",
        ClusterServerConfig {
            workers: 2,
            queue_capacity: 8,
            ..ClusterServerConfig::default()
        },
    )
    .unwrap();
    let front_addr = front.addr().to_string();

    let probes: Vec<BitVec> = (0..6u64).map(filter_for).collect();
    let expected = oracle_top_k("front-oracle", &records, &probes, 4);
    let mut client = Client::connect_retry(&front_addr, 20, Duration::from_millis(10)).unwrap();
    for (probe, want) in probes.iter().zip(&expected) {
        assert_eq!(&client.query(probe, 4).unwrap(), want);
    }

    let stats = client.stats().unwrap();
    assert_eq!(stats.cluster_shards, SHARDS as u32);
    assert_eq!(stats.shards_down, 0);
    assert!(!stats.degraded);
    assert_eq!(stats.records, records.len() as u64);
    assert_eq!(stats.queries, probes.len() as u64);
    assert_eq!(stats.workers, 2);
    assert_eq!(stats.queue_capacity, 8);

    // Shutdown through the wire stops the coordinator only.
    client.shutdown().unwrap();
    front.join();
    for addr in cluster.addrs() {
        let mut direct = Client::connect(&addr).unwrap();
        assert!(direct.stats().is_ok(), "shard died with the coordinator");
    }
    cluster.stop();
}

/// A timed-out call on a pooled connection must NOT fall through to a
/// fresh dial: the request may be fully written to a slow-but-alive
/// shard that applies it after the deadline, so resending the insert
/// on a new connection could append the same records twice (shard
/// stores are append-only with no id dedup). Scripted shard: it acks
/// the first insert (populating the pool), then answers the second
/// with a `Busy` whose backoff cannot fit in the deadline — the client
/// gives up with a `Timeout` — and watches for a forbidden redial.
#[test]
fn timed_out_insert_is_not_redialed() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let accepts = Arc::new(AtomicUsize::new(0));
    let fake_accepts = Arc::clone(&accepts);
    let fake = std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().unwrap();
        fake_accepts.fetch_add(1, Ordering::SeqCst);
        let script = [
            Response::Inserted {
                count: 1,
                generation: 1,
            },
            Response::Busy {
                retry_after_ms: 5000,
            },
        ];
        for response in script {
            loop {
                match read_payload(&mut conn).unwrap() {
                    Incoming::Payload(p) => {
                        assert!(matches!(
                            Request::decode(&p).unwrap(),
                            Request::Insert { .. }
                        ));
                        break;
                    }
                    Incoming::TimedOut => continue,
                    Incoming::Eof => panic!("coordinator hung up before sending"),
                }
            }
            write_payload(&mut conn, &response.encode()).unwrap();
        }
        // The timed-out insert must not arrive again on a fresh dial.
        listener.set_nonblocking(true).unwrap();
        let end = std::time::Instant::now() + Duration::from_millis(800);
        while std::time::Instant::now() < end {
            if listener.accept().is_ok() {
                fake_accepts.fetch_add(1, Ordering::SeqCst);
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    });

    let coordinator = Coordinator::new(ClusterConfig {
        shards: vec![addr],
        min_shards: 1,
        deadline: Duration::from_millis(200),
        shard_auth: None,
    })
    .unwrap();
    let (count, _) = coordinator.insert(&[(1, filter_for(1))]).unwrap();
    assert_eq!(count, 1);
    let err = coordinator.insert(&[(2, filter_for(2))]).unwrap_err();
    assert!(matches!(err, PprlError::Timeout(_)), "got {err:?}");
    fake.join().unwrap();
    assert_eq!(
        accepts.load(Ordering::SeqCst),
        1,
        "coordinator redialed after a timeout — a slow shard could have \
         applied the first send, and the resend would duplicate it"
    );
    // The timeout marks the shard down (health is re-probed on use).
    assert_eq!(coordinator.missing_shards(), vec![0]);
}

/// Killing a shard mid-batch: the insert still waits for every
/// sub-batch outcome, then names exactly which shards applied theirs
/// and which failed, so a caller retries only the failed subset
/// instead of duplicating the applied records.
#[test]
fn partial_insert_names_applied_and_failed_shards() {
    let records = union_corpus();
    let cluster = TestCluster::start("partial", &records);
    let addrs = cluster.addrs();
    let coordinator = Coordinator::connect(ClusterConfig {
        shards: addrs.clone(),
        min_shards: 1,
        deadline: Duration::from_secs(5),
        shard_auth: None,
    })
    .unwrap();

    let batch: Vec<(u64, BitVec)> = (50_000..50_030u64).map(|id| (id, filter_for(id))).collect();
    let routed: Vec<usize> = batch.iter().map(|(id, _)| route_id(*id, SHARDS)).collect();
    assert!(
        (0..SHARDS).all(|s| routed.contains(&s)),
        "batch must span all shards"
    );
    let survivors_share = routed.iter().filter(|&&s| s != 1).count() as u32;

    let mut killer = Client::connect(&addrs[1]).unwrap();
    killer.shutdown().unwrap();
    drop(killer);
    std::thread::sleep(Duration::from_millis(300));

    match coordinator.insert(&batch).unwrap_err() {
        PprlError::PartialWrite {
            applied,
            applied_shards,
            failed_shards,
            cause,
        } => {
            assert_eq!(applied, survivors_share);
            assert_eq!(applied_shards, vec![0, 2]);
            assert_eq!(failed_shards, vec![1]);
            assert!(!cause.is_empty());
        }
        other => panic!("expected PartialWrite, got {other:?}"),
    }

    // The acked sub-batches are really there, served degraded by the
    // surviving shards.
    for (id, filter) in batch.iter().filter(|(id, _)| route_id(*id, SHARDS) != 1) {
        let hits = coordinator.query(filter, 1).unwrap();
        assert_eq!(hits[0].id, *id, "applied record missing from its shard");
    }
    cluster.stop();
}

/// The startup probe exchanges a real Stats round-trip, so a listener
/// that accepts TCP but does not speak the pprl protocol (here: it
/// hangs up on every connection) cannot satisfy the startup quorum.
#[test]
fn connect_probe_rejects_a_non_pprl_listener() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let records = union_corpus();
    let cluster = TestCluster::start("probe", &records);

    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let fake_addr = listener.local_addr().unwrap().to_string();
    listener.set_nonblocking(true).unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let fake_stop = Arc::clone(&stop);
    let fake = std::thread::spawn(move || {
        while !fake_stop.load(Ordering::SeqCst) {
            match listener.accept() {
                Ok((conn, _)) => drop(conn), // accept, then hang up
                Err(_) => std::thread::sleep(Duration::from_millis(5)),
            }
        }
    });

    let mut addrs = cluster.addrs();
    addrs.push(fake_addr);

    // All four must answer: the impostor cannot, so startup fails.
    let err = Coordinator::connect(ClusterConfig {
        shards: addrs.clone(),
        min_shards: 4,
        deadline: Duration::from_secs(5),
        shard_auth: None,
    })
    .unwrap_err();
    match err {
        PprlError::Transport(msg) => assert!(msg.contains("quorum"), "{msg}"),
        other => panic!("expected a startup quorum error, got {other:?}"),
    }

    // With quorum 3 the real shards carry the cluster, and the
    // impostor starts out marked down instead of lurking until first
    // use.
    let coordinator = Coordinator::connect(ClusterConfig {
        shards: addrs,
        min_shards: 3,
        deadline: Duration::from_secs(5),
        shard_auth: None,
    })
    .unwrap();
    assert_eq!(coordinator.missing_shards(), vec![3]);

    stop.store(true, Ordering::SeqCst);
    fake.join().unwrap();
    cluster.stop();
}

/// Shard nodes close sessions idle past their `idle_timeout`, so a
/// coordinator that sat quiet holds a pool of dead sockets. The first
/// call on such a socket must fall through to a fresh dial instead of
/// declaring the (perfectly healthy) shard down.
#[test]
fn stale_pooled_connections_are_redialed_not_degraded() {
    let records = union_corpus();
    let parts = partition(&records);
    let dirs: Vec<PathBuf> = (0..SHARDS)
        .map(|i| temp_dir(&format!("stale-s{i}")))
        .collect();
    let shards: Vec<ServerHandle> = dirs
        .iter()
        .zip(&parts)
        .map(|(dir, part)| {
            build_store(dir, part);
            serve(
                dir,
                "127.0.0.1:0",
                ServerConfig {
                    workers: 2,
                    queue_capacity: 16,
                    compact_interval: None,
                    // Aggressive reaping: pooled coordinator
                    // connections go stale almost immediately.
                    idle_timeout: Duration::from_millis(300),
                    ..ServerConfig::default()
                },
            )
            .unwrap()
        })
        .collect();
    let addrs: Vec<String> = shards.iter().map(|h| h.addr().to_string()).collect();

    let coordinator = Coordinator::connect(ClusterConfig {
        shards: addrs,
        min_shards: SHARDS,
        deadline: Duration::from_secs(10),
        shard_auth: None,
    })
    .unwrap();
    let probes: Vec<BitVec> = (0..4u64).map(filter_for).collect();
    let expected = oracle_top_k("stale-ref", &records, &probes, 5);

    // Populate the pool, let every shard reap the idle sessions, then
    // query again: answers stay exact, no shard is reported missing,
    // and no reply is counted degraded. Quorum is ALL shards, so a
    // single wrongly-degraded node would fail the whole query.
    for round in 0..3 {
        for (probe, want) in probes.iter().zip(&expected) {
            let got = coordinator.query(probe, 5).unwrap();
            assert_eq!(&got, want, "round {round}: stale pool changed answers");
        }
        std::thread::sleep(Duration::from_millis(700));
    }
    let (count, _) = coordinator
        .insert(&[(40_000, filter_for(40_000))])
        .expect("insert over a stale pool");
    assert_eq!(count, 1);
    assert!(coordinator.missing_shards().is_empty());
    assert_eq!(
        coordinator
            .metrics
            .degraded_replies
            .load(std::sync::atomic::Ordering::Relaxed),
        0
    );

    for shard in shards {
        shard.shutdown_now();
    }
    for dir in dirs {
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// The fully authenticated topology: shards demand wire v4 from the
/// coordinator, the coordinator authenticates to them with a
/// privileged identity (encrypted frames on the shard leg), and the
/// front end authenticates stock clients against its own registry.
/// Results stay bit-identical to the plaintext union oracle; plaintext
/// and wrong-key clients are rejected; `Shutdown` needs privilege at
/// every layer.
#[test]
fn authenticated_cluster_end_to_end() {
    use pprl_server::server::serve_auth;
    use pprl_session::handshake::ClientAuth;
    use pprl_session::keys::PartyKey;
    use pprl_session::registry::{AuthRegistry, TenantGrant};

    let coord_key = PartyKey::from_bytes([0xC0; 32]);
    let alice_key = PartyKey::from_bytes([0xA1; 32]);
    let admin_key = PartyKey::from_bytes([0xAD; 32]);

    // Shard-side registry: only the coordinator's identity, privileged
    // so shutdown_shards can tear the fleet down.
    let mut shard_registry = AuthRegistry::new();
    shard_registry
        .insert("coordinator", coord_key.clone(), TenantGrant::Any)
        .unwrap();

    // Front-end registry: a stock tenant client plus an operator.
    let mut front_registry = AuthRegistry::new();
    front_registry
        .insert(
            "alice",
            alice_key.clone(),
            TenantGrant::One("default".into()),
        )
        .unwrap();
    front_registry
        .insert("admin", admin_key.clone(), TenantGrant::Any)
        .unwrap();

    let records = union_corpus();
    let parts = partition(&records);
    let dirs: Vec<PathBuf> = (0..SHARDS)
        .map(|i| temp_dir(&format!("auth-s{i}")))
        .collect();
    let shards: Vec<ServerHandle> = dirs
        .iter()
        .zip(&parts)
        .map(|(dir, part)| {
            build_store(dir, part);
            serve_auth(
                dir,
                "127.0.0.1:0",
                ServerConfig {
                    workers: 2,
                    queue_capacity: 16,
                    compact_interval: None,
                    ..ServerConfig::default()
                },
                shard_registry.clone(),
            )
            .unwrap()
        })
        .collect();
    let shard_addrs: Vec<String> = shards.iter().map(|h| h.addr().to_string()).collect();

    let coordinator = std::sync::Arc::new(
        Coordinator::connect(ClusterConfig {
            shards: shard_addrs.clone(),
            min_shards: SHARDS,
            deadline: Duration::from_secs(10),
            shard_auth: Some(ClientAuth {
                identity: "coordinator".into(),
                key: coord_key.clone(),
                tenant: "default".into(),
                encrypt: true,
                suites: SuiteOffer::default(),
            }),
        })
        .unwrap(),
    );

    let front = pprl_cluster::server::serve_cluster_auth(
        std::sync::Arc::clone(&coordinator),
        "127.0.0.1:0",
        ClusterServerConfig {
            workers: 2,
            queue_capacity: 8,
            ..ClusterServerConfig::default()
        },
        front_registry,
    )
    .unwrap();
    let front_addr = front.addr().to_string();

    // A coordinator with the wrong shard key fails fast with the typed
    // auth error instead of a quorum error that hides it.
    match Coordinator::connect(ClusterConfig {
        shards: shard_addrs.clone(),
        min_shards: SHARDS,
        deadline: Duration::from_secs(5),
        shard_auth: Some(ClientAuth {
            identity: "coordinator".into(),
            key: PartyKey::from_bytes([0xEE; 32]),
            tenant: "default".into(),
            encrypt: false,
            suites: SuiteOffer::default(),
        }),
    }) {
        Err(PprlError::Auth(_)) => {}
        other => panic!("expected a typed auth error, got {other:?}"),
    }

    // The authorized client sees results bit-identical to the union
    // oracle, through two authenticated hops.
    let alice_auth = ClientAuth {
        identity: "alice".into(),
        key: alice_key.clone(),
        tenant: "default".into(),
        encrypt: true,
        suites: SuiteOffer::default(),
    };
    let probes: Vec<BitVec> = (0..6u64).map(filter_for).collect();
    let expected = oracle_top_k("auth-oracle", &records, &probes, 4);
    let mut alice = Client::connect_retry_with(
        &front_addr,
        Some(alice_auth.clone()),
        20,
        Duration::from_millis(10),
    )
    .unwrap();
    for (probe, want) in probes.iter().zip(&expected) {
        assert_eq!(&alice.query(probe, 4).unwrap(), want);
    }
    let stats = alice.stats().unwrap();
    assert_eq!(stats.cluster_shards, SHARDS as u32);
    assert_eq!(stats.shards_down, 0);
    assert_eq!(stats.records, records.len() as u64);

    // Routed inserts work over the authenticated shard leg too.
    let fresh: Vec<(u64, BitVec)> = (70_000..70_010u64).map(|id| (id, filter_for(id))).collect();
    let (count, _) = alice.insert(&fresh).unwrap();
    assert_eq!(count, 10);
    for (id, filter) in &fresh {
        assert_eq!(alice.query(filter, 1).unwrap()[0].id, *id);
    }

    // A plaintext client is refused before any request is interpreted.
    let mut plain = Client::connect(&front_addr).unwrap();
    match plain.stats() {
        Err(PprlError::ProtocolError(msg)) => {
            assert!(msg.contains("authentication required"), "{msg}")
        }
        other => panic!("expected an authentication-required error, got {other:?}"),
    }

    // A wrong-key client fails the handshake at connect.
    let wrong = Client::connect_with(
        &front_addr,
        Some(ClientAuth {
            identity: "alice".into(),
            key: PartyKey::from_bytes([0x5A; 32]),
            tenant: "default".into(),
            encrypt: false,
            suites: SuiteOffer::default(),
        }),
    );
    match wrong {
        Err(PprlError::Auth(_)) => {}
        other => panic!(
            "expected a handshake auth error, got {:?}",
            other.map(|_| ())
        ),
    }

    // Shutdown through the front end needs a privileged identity.
    match alice.shutdown() {
        Err(PprlError::ProtocolError(msg)) => assert!(msg.contains("not privileged"), "{msg}"),
        other => panic!("expected a privilege error, got {other:?}"),
    }
    let mut admin = Client::connect_with(
        &front_addr,
        Some(ClientAuth {
            identity: "admin".into(),
            key: admin_key,
            tenant: "default".into(),
            encrypt: false,
            suites: SuiteOffer::default(),
        }),
    )
    .unwrap();
    admin.shutdown().unwrap();
    front.join();

    // Shards are still up behind their own auth wall; the coordinator's
    // privileged identity tears them down.
    let shut = coordinator.shutdown_shards();
    assert_eq!(shut, SHARDS, "coordinator failed to shut down its shards");
    for shard in shards {
        shard.join();
    }
    for dir in dirs {
        std::fs::remove_dir_all(&dir).ok();
    }
}

// ------------------------------------------------------------------
// Scripted shards: the two-phase scatter under forced interleavings.
//
// A fake shard speaks plaintext wire v3 — or wire v4, after the real
// server-side handshake — and answers from a script, so each test
// decides exactly when a request has been received, when (and whether)
// its reply is written, and what the reply says. Ordering is forced
// with channels, never with sleeps.

use pprl_cluster::merge::merge_top_k;
use pprl_session::channel::SecureChannel;
use pprl_session::handshake::{server_handshake, ClientAuth};
use pprl_session::keys::{entropy_rng, PartyKey};
use pprl_session::registry::{AuthRegistry, TenantGrant};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Instant;

/// How long a scripted shard waits for a signal that a correct
/// coordinator delivers at once; a wrong one fails the test instead of
/// hanging it.
const SIGNAL_WAIT: Duration = Duration::from_secs(5);

/// One accepted connection of a scripted shard.
struct FakeConn {
    stream: TcpStream,
    channel: Option<SecureChannel>,
}

impl FakeConn {
    fn accept(listener: &TcpListener, registry: Option<&AuthRegistry>) -> FakeConn {
        let (mut stream, _) = listener.accept().unwrap();
        let channel = registry.map(|registry| {
            let Incoming::Payload(hello) = read_payload(&mut stream).unwrap() else {
                panic!("coordinator hung up before HELLO");
            };
            let mut rng = entropy_rng();
            server_handshake(
                &mut stream,
                &hello,
                registry,
                &mut rng,
                SuiteOffer::default(),
            )
            .unwrap()
            .channel
        });
        FakeConn { stream, channel }
    }

    /// The next request, or `None` once the coordinator has dropped
    /// this connection.
    fn request(&mut self) -> Option<Request> {
        let incoming = match &mut self.channel {
            Some(channel) => channel.recv(&mut self.stream),
            None => read_payload(&mut self.stream),
        };
        match incoming {
            Ok(Incoming::Payload(p)) => Some(Request::decode(&p).unwrap()),
            Ok(Incoming::Eof) | Err(_) => None,
            Ok(Incoming::TimedOut) => panic!("fake shards set no read timeout"),
        }
    }

    fn reply(&mut self, response: Response) {
        match &mut self.channel {
            Some(channel) => channel.send(&mut self.stream, &response.encode()).unwrap(),
            None => write_payload(&mut self.stream, &response.encode()).unwrap(),
        }
    }
}

struct FakeShard {
    addr: String,
    /// Connections accepted so far.
    connections: Arc<AtomicUsize>,
    thread: std::thread::JoinHandle<()>,
}

/// A scripted shard that serves `requests` requests, over as many
/// successive connections as the coordinator opens. `script(n, request,
/// conn)` plays the n-th: it replies on `conn` (or does not) and
/// returns whether the shard lives on — `false` kills it on the spot,
/// connection and listener closed.
fn fake_shard(
    registry: Option<AuthRegistry>,
    requests: usize,
    mut script: impl FnMut(usize, Request, &mut FakeConn) -> bool + Send + 'static,
) -> FakeShard {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let connections = Arc::new(AtomicUsize::new(0));
    let accepted = Arc::clone(&connections);
    let thread = std::thread::spawn(move || {
        let mut served = 0;
        while served < requests {
            let mut conn = FakeConn::accept(&listener, registry.as_ref());
            accepted.fetch_add(1, Ordering::SeqCst);
            while served < requests {
                let Some(request) = conn.request() else { break };
                if !script(served, request, &mut conn) {
                    return;
                }
                served += 1;
            }
        }
    });
    FakeShard {
        addr,
        connections,
        thread,
    }
}

/// A coordinator over `fakes` (plaintext unless `auth`).
fn coordinator_over(
    fakes: &[FakeShard],
    min_shards: usize,
    deadline: Duration,
    auth: Option<ClientAuth>,
) -> Coordinator {
    Coordinator::new(ClusterConfig {
        shards: fakes.iter().map(|f| f.addr.clone()).collect(),
        min_shards,
        deadline,
        shard_auth: auth,
    })
    .unwrap()
}

fn join_all(fakes: Vec<FakeShard>) {
    for fake in fakes {
        fake.thread.join().expect("scripted shard panicked");
    }
}

/// Scripted hits of `shard` for its `request`-th request: sorted the
/// way a node sorts, distinct per request (a reply consumed one request
/// late changes the merged answer), with scores that tie across shards
/// (so the merge has to break ties by id).
fn scripted_hits(shard: usize, request: usize) -> Vec<Hit> {
    (0..3)
        .map(|rank| Hit {
            id: (shard * 1000 + request * 10 + rank) as u64,
            score: 0.9 - 0.1 * rank as f64,
        })
        .collect()
}

/// The script step of a well-behaved shard: answer with the scripted
/// hits.
fn reply_hits(conn: &mut FakeConn, shard: usize, request: usize) -> bool {
    conn.reply(Response::Hits(scripted_hits(shard, request)));
    true
}

/// What the coordinator must answer for request number `request` when
/// exactly `shards` reply.
fn scripted_merge(shards: &[usize], request: usize, k: usize) -> Vec<Hit> {
    let lists: Vec<Vec<Hit>> = shards.iter().map(|&s| scripted_hits(s, request)).collect();
    merge_top_k(&lists, k)
}

/// Overlap: shard 0 replies only after shards 1 and 2 have each
/// *received* their request. A coordinator that awaits shard 0's reply
/// before writing to the others deadlocks against this script and times
/// out; the two-phase scatter has every request on the wire first.
#[test]
fn every_request_is_on_the_wire_before_the_first_reply_is_awaited() {
    let (seen_tx, seen_rx) = mpsc::channel::<()>();
    let mut fakes = vec![fake_shard(None, 1, move |n, _, conn| {
        for _ in 0..2 {
            seen_rx
                .recv_timeout(SIGNAL_WAIT)
                .expect("shard 0's reply was awaited before shards 1 and 2 got their requests");
        }
        reply_hits(conn, 0, n)
    })];
    for shard in 1..SHARDS {
        let seen = seen_tx.clone();
        fakes.push(fake_shard(None, 1, move |n, _, conn| {
            seen.send(()).unwrap();
            reply_hits(conn, shard, n)
        }));
    }
    let coordinator = coordinator_over(&fakes, SHARDS, Duration::from_secs(2), None);
    let got = coordinator.query(&filter_for(1), 5).unwrap();
    assert_eq!(got, scripted_merge(&[0, 1, 2], 0, 5));
    assert!(coordinator.missing_shards().is_empty());
    join_all(fakes);
}

/// One query against three scripted shards whose replies are written
/// strictly in `order` (each shard waits for its predecessor's reply to
/// be on the wire).
fn query_with_reply_order(order: [usize; SHARDS]) -> Vec<Hit> {
    let (turn_txs, turn_rxs): (Vec<_>, Vec<_>) = (0..SHARDS).map(|_| mpsc::channel::<()>()).unzip();
    turn_txs[order[0]].send(()).unwrap();
    let fakes: Vec<FakeShard> = turn_rxs
        .into_iter()
        .enumerate()
        .map(|(shard, my_turn)| {
            let place = order.iter().position(|&s| s == shard).unwrap();
            let next = order.get(place + 1).map(|&s| turn_txs[s].clone());
            fake_shard(None, 1, move |n, _, conn| {
                my_turn.recv_timeout(SIGNAL_WAIT).expect("turn never came");
                reply_hits(conn, shard, n);
                if let Some(next) = &next {
                    next.send(()).unwrap();
                }
                true
            })
        })
        .collect();
    let coordinator = coordinator_over(&fakes, SHARDS, Duration::from_secs(2), None);
    let got = coordinator.query(&filter_for(1), 7).unwrap();
    join_all(fakes);
    got
}

/// Order: replies arriving in reverse shard order merge to the same
/// answer as replies arriving in shard order — the gather reads them in
/// turn whatever order they land in, and the merge sees them by shard.
#[test]
fn reply_arrival_order_does_not_change_the_answer() {
    let forward = query_with_reply_order([0, 1, 2]);
    let reverse = query_with_reply_order([2, 1, 0]);
    assert_eq!(forward, scripted_merge(&[0, 1, 2], 0, 7));
    assert_eq!(reverse, forward);
}

/// A shard that reads the request and never answers costs the gather
/// its deadline once: a typed timeout inside 2 × deadline, that shard
/// marked down, and — quorum allowing — the other shards' hits returned
/// as a degraded reply, including replies that sat buffered while the
/// silent shard (read first when it is shard 0) ran the clock out.
#[test]
fn silent_shard_times_out_and_the_rest_answer_degraded() {
    let deadline = Duration::from_millis(200);
    for silent in [0usize, 2] {
        let (done_tx, done_rx) = mpsc::channel::<()>();
        let mut done_rx = Some(done_rx);
        let fakes: Vec<FakeShard> = (0..SHARDS)
            .map(|shard| {
                if shard == silent {
                    let done = done_rx.take().unwrap();
                    fake_shard(None, 1, move |_, _, _| {
                        // Hold the connection open, silently, until the
                        // test is over; then die.
                        let _ = done.recv();
                        false
                    })
                } else {
                    fake_shard(None, 1, move |n, _, conn| reply_hits(conn, shard, n))
                }
            })
            .collect();
        let coordinator = coordinator_over(&fakes, 2, deadline, None);
        let started = Instant::now();
        let got = coordinator.query(&filter_for(1), 5).unwrap();
        let elapsed = started.elapsed();
        assert!(
            elapsed >= deadline && elapsed < 2 * deadline,
            "silent shard {silent}: gather took {elapsed:?} under a {deadline:?} deadline"
        );
        let answered: Vec<usize> = (0..SHARDS).filter(|&s| s != silent).collect();
        assert_eq!(got, scripted_merge(&answered, 0, 5));
        assert_eq!(coordinator.missing_shards(), vec![silent as u32]);
        let count = |c: &AtomicU64| c.load(Ordering::Relaxed);
        assert_eq!(count(&coordinator.metrics.shard_failures), 1);
        assert_eq!(count(&coordinator.metrics.degraded_replies), 1);
        drop(done_tx);
        join_all(fakes);
    }
}

/// Pool hygiene. Shard 0 rejects the first query with a typed
/// `ServerError` while shards 1 and 2 answer it normally: the call
/// returns that error, and the next three queries are exactly the merge
/// of what each shard scripted for *them*. A connection pooled with the
/// first query's reply still unread would hand that reply to the second
/// query — over wire v4 too, where the stale frame carries the expected
/// sequence number and a valid MAC.
fn typed_rejection_leaves_no_stale_reply(authenticated: bool) {
    let key = PartyKey::from_bytes([0xC0; 32]);
    let registry = authenticated.then(|| {
        let mut registry = AuthRegistry::new();
        registry
            .insert("coordinator", key.clone(), TenantGrant::Any)
            .unwrap();
        registry
    });
    let auth = authenticated.then(|| ClientAuth {
        identity: "coordinator".into(),
        key: key.clone(),
        tenant: "default".into(),
        encrypt: true,
        suites: SuiteOffer::default(),
    });
    let fakes: Vec<FakeShard> = (0..SHARDS)
        .map(|shard| {
            fake_shard(registry.clone(), 4, move |n, request, conn| {
                assert!(matches!(request, Request::Query { .. }));
                if shard == 0 && n == 0 {
                    conn.reply(Response::ServerError {
                        message: "shape mismatch: expected 512-bit filter, got 256-bit filter"
                            .into(),
                    });
                    return true;
                }
                reply_hits(conn, shard, n)
            })
        })
        .collect();
    let coordinator = coordinator_over(&fakes, SHARDS, Duration::from_secs(5), auth);
    match coordinator.query(&filter_for(1), 5) {
        Err(PprlError::ProtocolError(msg)) => assert!(msg.contains("512-bit filter"), "{msg}"),
        other => panic!("expected the shard's typed rejection, got {other:?}"),
    }
    // A rejection is not a failure: nobody is marked down.
    assert!(coordinator.missing_shards().is_empty());
    for request in 1..4 {
        let got = coordinator.query(&filter_for(request as u64), 5).unwrap();
        assert_eq!(
            got,
            scripted_merge(&[0, 1, 2], request, 5),
            "query {request} consumed a reply that was not its own"
        );
    }
    join_all(fakes);
}

#[test]
fn typed_rejection_leaves_no_stale_reply_plaintext() {
    typed_rejection_leaves_no_stale_reply(false);
}

#[test]
fn typed_rejection_leaves_no_stale_reply_authenticated() {
    typed_rejection_leaves_no_stale_reply(true);
}

/// A shard killed between phase 1 and phase 2 — it has read its request
/// (on a pooled connection) and dies without a word once every other
/// request is delivered — yields a degraded reply with exactly that
/// shard missing, and the survivors keep serving on the connections
/// they already had.
#[test]
fn shard_killed_mid_scatter_degrades_and_survivors_keep_their_connections() {
    let (seen_tx, seen_rx) = mpsc::channel::<()>();
    let mut seen_rx = Some(seen_rx);
    let fakes: Vec<FakeShard> = (0..SHARDS)
        .map(|shard| {
            if shard == 1 {
                let seen = seen_rx.take().unwrap();
                fake_shard(None, 2, move |n, _, conn| {
                    if n == 0 {
                        return reply_hits(conn, shard, n);
                    }
                    for _ in 0..2 {
                        seen.recv_timeout(SIGNAL_WAIT)
                            .expect("shards 0 and 2 never got the second request");
                    }
                    false
                })
            } else {
                let seen = seen_tx.clone();
                fake_shard(None, 3, move |n, _, conn| {
                    if n == 1 {
                        seen.send(()).unwrap();
                    }
                    reply_hits(conn, shard, n)
                })
            }
        })
        .collect();
    let coordinator = coordinator_over(&fakes, 2, Duration::from_secs(5), None);

    // Query 0 fills the pools; query 1 loses shard 1 mid-flight; query
    // 2 finds it still gone (its listener died with it).
    assert_eq!(
        coordinator.query(&filter_for(0), 5).unwrap(),
        scripted_merge(&[0, 1, 2], 0, 5)
    );
    for request in 1..3 {
        assert_eq!(
            coordinator.query(&filter_for(request as u64), 5).unwrap(),
            scripted_merge(&[0, 2], request, 5),
            "query {request}: degraded merge is not exactly the survivors' hits"
        );
        assert_eq!(coordinator.missing_shards(), vec![1]);
    }
    for survivor in [0, 2] {
        assert_eq!(
            fakes[survivor].connections.load(Ordering::SeqCst),
            1,
            "survivor {survivor} was redialed: its pooled connection was not kept"
        );
    }
    join_all(fakes);
}

/// A `LinkHits` reply with fewer hit lists than probes is a malformed
/// reply — a failed shard under the quorum rules — not "no hits for
/// the remaining probes".
#[test]
fn short_link_reply_is_a_shard_failure_not_a_partial_result() {
    let probes: Vec<BitVec> = (0..3u64).map(filter_for).collect();
    // Probe p's list from `shard`: the scripted hits of "request" p.
    let lists_of = |shard: usize, n: usize| (0..n).map(|p| scripted_hits(shard, p)).collect();
    let fakes: Vec<FakeShard> = (0..SHARDS)
        .map(|shard| {
            fake_shard(None, 1, move |_, request, conn| {
                let Request::Link { probes, .. } = request else {
                    panic!("expected a link request");
                };
                let answered = if shard == 1 { 2 } else { probes.len() };
                conn.reply(Response::LinkHits(lists_of(shard, answered)));
                true
            })
        })
        .collect();
    let coordinator = coordinator_over(&fakes, 2, Duration::from_secs(5), None);
    let got = coordinator.link(&probes, 4, 0.0).unwrap();
    let want: Vec<Vec<Hit>> = (0..probes.len())
        .map(|p| scripted_merge(&[0, 2], p, 4))
        .collect();
    assert_eq!(got, want);
    assert_eq!(coordinator.missing_shards(), vec![1]);
    let failures = &coordinator.metrics.shard_failures;
    assert_eq!(failures.load(Ordering::Relaxed), 1);
    join_all(fakes);
}
