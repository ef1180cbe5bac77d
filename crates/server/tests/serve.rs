//! End-to-end tests for `pprl-server`: concurrent TCP queries
//! bit-identical to offline reads while background compaction runs,
//! explicit backpressure, cache invalidation on insert, snapshot
//! isolation under compaction, and framing robustness.

use pprl_core::bitvec::BitVec;
use pprl_core::error::PprlError;
use pprl_index::manifest::IndexConfig;
use pprl_index::query::Hit;
use pprl_index::store::{IndexStore, TieredPolicy};
use pprl_server::client::Client;
use pprl_server::server::{serve, ServerConfig};
use pprl_server::service::{LinkageService, ServiceConfig};
use pprl_server::wire::{read_payload, write_payload, Incoming, Request, Response};
use std::path::PathBuf;
use std::time::Duration;

const FILTER_LEN: usize = 256;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "pprl-serve-{tag}-{}-{:?}",
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

/// Builds an index of `n` records flushed in `batches` segments per
/// batch boundary, so tiered compaction has real work to do.
fn build_index(dir: &std::path::Path, n: u64, batches: u64) -> IndexStore {
    let mut store = IndexStore::create(dir, IndexConfig::new(FILTER_LEN, 4)).unwrap();
    let per = n.div_ceil(batches);
    for b in 0..batches {
        let records: Vec<(u64, BitVec)> = (b * per..((b + 1) * per).min(n))
            .map(|id| (id, filter_for(id)))
            .collect();
        if records.is_empty() {
            break;
        }
        store.insert_batch(&records).unwrap();
        store.flush().unwrap();
    }
    store
}

fn aggressive_policy() -> TieredPolicy {
    TieredPolicy {
        min_segments: 2,
        growth: 4,
        min_bytes: 4096,
    }
}

/// The headline acceptance criterion: concurrent clients get results
/// bit-for-bit equal to the offline reader while a background
/// compaction triggered mid-load completes without a failed read.
#[test]
fn concurrent_queries_match_offline_during_background_compaction() {
    let dir = temp_dir("concurrent");
    let store = build_index(&dir, 400, 16);
    let probes: Vec<BitVec> = (0..8).map(|i| filter_for(1000 + i)).collect();
    let offline = store.reader().unwrap();
    let expected: Vec<Vec<Hit>> = probes
        .iter()
        .map(|p| offline.top_k(p, 5, 1).unwrap())
        .collect();
    drop(store);

    let handle = serve(
        &dir,
        "127.0.0.1:0",
        ServerConfig {
            workers: 3,
            queue_capacity: 16,
            compact_interval: Some(Duration::from_millis(25)),
            tiered: aggressive_policy(),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = handle.addr().to_string();

    let clients: Vec<_> = (0..3)
        .map(|_| {
            let addr = addr.clone();
            let probes = probes.clone();
            let expected = expected.clone();
            std::thread::spawn(move || {
                let mut client =
                    Client::connect_retry(&addr, 20, Duration::from_millis(10)).unwrap();
                for round in 0..25 {
                    for (probe, want) in probes.iter().zip(&expected) {
                        let got = client.query(probe, 5).unwrap();
                        assert_eq!(&got, want, "round {round}: served hits diverged");
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
            })
        })
        .collect();
    for c in clients {
        c.join().unwrap();
    }

    // The load ran long enough for several maintenance ticks; compaction
    // must have merged at least once and never failed a read (asserted
    // above by every query succeeding bit-identically).
    let mut client = Client::connect(&addr).unwrap();
    let stats = client.stats().unwrap();
    assert!(stats.compactions >= 1, "no background compaction ran");
    assert!(stats.generation >= 1);
    assert_eq!(stats.queries, 3 * 25 * 8);
    assert!(stats.cache_hits > 0, "repeated queries never hit the cache");
    assert_eq!(stats.records, 400);
    client.shutdown().unwrap();
    let backend = handle.join();
    let service = backend.default_service();
    assert_eq!(service.retired_generations(), 0, "files not reclaimed");

    // The compacted on-disk index still answers identically offline.
    let reopened = IndexStore::open(&dir).unwrap();
    let reader = reopened.reader().unwrap();
    for (probe, want) in probes.iter().zip(&expected) {
        assert_eq!(&reader.top_k(probe, 5, 1).unwrap(), want);
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Satellite: a reader pinned to an old snapshot returns bit-for-bit
/// identical top-k results while compaction rewrites segments and swaps
/// the manifest underneath it, and obsolete files survive until that
/// reader drains.
#[test]
fn old_snapshot_reads_identical_while_compaction_swaps() {
    let dir = temp_dir("snapshot");
    drop(build_index(&dir, 300, 12));
    let service = LinkageService::open(
        &dir,
        ServiceConfig {
            tiered: aggressive_policy(),
            ..ServiceConfig::default()
        },
    )
    .unwrap();

    let probes: Vec<BitVec> = (0..6).map(|i| filter_for(2000 + i)).collect();
    let pinned = service.snapshot();
    assert_eq!(pinned.generation, 0);
    let expected: Vec<Vec<Hit>> = probes
        .iter()
        .map(|p| pinned.reader.top_k(p, 7, 1).unwrap())
        .collect();

    let outcome = service.compact_step().unwrap();
    assert!(!outcome.is_noop(), "compaction found nothing to merge");
    assert!(service.generation() >= 1);
    // The pinned generation still exists, so its files must too.
    assert!(service.retired_generations() >= 1);
    for path in &outcome.obsolete {
        assert!(
            path.exists(),
            "{} reclaimed under a live reader",
            path.display()
        );
    }

    // Old snapshot: bit-for-bit identical results mid-rewrite.
    for (probe, want) in probes.iter().zip(&expected) {
        assert_eq!(&pinned.reader.top_k(probe, 7, 1).unwrap(), want);
    }
    // New snapshot: same logical content, same exact results.
    for (probe, want) in probes.iter().zip(&expected) {
        assert_eq!(&service.query(probe, 7).unwrap(), want);
    }

    // Only once the old reader drains do the files go away.
    drop(pinned);
    assert!(service.reclaim_drained().unwrap() >= 1);
    assert_eq!(service.retired_generations(), 0);
    for path in &outcome.obsolete {
        assert!(
            !path.exists(),
            "{} not reclaimed after drain",
            path.display()
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Total size of the `.seg` files under `dir`, by file name.
fn segment_bytes(dir: &std::path::Path) -> std::collections::BTreeMap<String, u64> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap())
        .filter(|e| e.file_name().to_string_lossy().ends_with(".seg"))
        .map(|e| {
            (
                e.file_name().to_string_lossy().into_owned(),
                e.metadata().unwrap().len(),
            )
        })
        .collect()
}

/// A generation swap costs the segments it added, not the index: over N
/// served inserts and a compaction, cumulative `bytes_read` grows by the
/// size of the newly written segment files only, while an old pinned
/// generation keeps answering from the rows it shares with the new one.
#[test]
fn generation_swaps_read_only_the_segments_they_added() {
    let dir = temp_dir("carry-over");
    drop(build_index(&dir, 300, 6));
    let service = LinkageService::open(
        &dir,
        ServiceConfig {
            tiered: aggressive_policy(),
            ..ServiceConfig::default()
        },
    )
    .unwrap();
    let pinned = service.snapshot();
    pinned.reader.materialise_all().unwrap();
    let probe = filter_for(7);
    let pinned_answer = pinned.reader.top_k(&probe, 5, 1).unwrap();
    let mut expected = segment_bytes(&dir).values().sum::<u64>();
    assert_eq!(service.stats_report(1, 1).bytes_read, expected);

    for round in 0..5u64 {
        let known = segment_bytes(&dir);
        let records: Vec<(u64, BitVec)> = (0..20)
            .map(|i| 5_000 + 20 * round + i)
            .map(|id| (id, filter_for(id)))
            .collect();
        service.insert(&records).unwrap();
        let added: u64 = segment_bytes(&dir)
            .iter()
            .filter(|(name, _)| !known.contains_key(*name))
            .map(|(_, bytes)| bytes)
            .sum();
        assert!(added > 0);
        service.snapshot().reader.materialise_all().unwrap();
        assert_eq!(service.query(&records[3].1, 1).unwrap()[0].score, 1.0);
        expected += added;
        assert_eq!(
            service.stats_report(1, 1).bytes_read,
            expected,
            "insert {round} re-read segments it did not write"
        );
    }

    let known = segment_bytes(&dir);
    let outcome = service.compact_step().unwrap();
    assert!(!outcome.is_noop());
    service.snapshot().reader.materialise_all().unwrap();
    expected += segment_bytes(&dir)
        .iter()
        .filter(|(name, _)| !known.contains_key(*name))
        .map(|(_, bytes)| bytes)
        .sum::<u64>();
    assert_eq!(service.stats_report(1, 1).bytes_read, expected);
    assert_eq!(pinned.reader.top_k(&probe, 5, 1).unwrap(), pinned_answer);
    std::fs::remove_dir_all(&dir).ok();
}

/// Overflowing the bounded queue yields an immediate `Busy` with the
/// configured retry hint — not an ever-growing backlog.
#[test]
fn full_queue_rejects_with_busy_retry_after() {
    let dir = temp_dir("busy");
    drop(build_index(&dir, 50, 2));
    let handle = serve(
        &dir,
        "127.0.0.1:0",
        ServerConfig {
            workers: 1,
            queue_capacity: 1,
            retry_after_ms: 77,
            compact_interval: None,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = handle.addr().to_string();

    // Occupy the only worker with an idle session, then fill the queue.
    let held = Client::connect_retry(&addr, 20, Duration::from_millis(10)).unwrap();
    std::thread::sleep(Duration::from_millis(150)); // worker picks it up
    let queued = Client::connect(&addr).unwrap();
    std::thread::sleep(Duration::from_millis(50));

    // Third connection overflows: raw socket sees the Busy frame.
    let mut raw = std::net::TcpStream::connect(&addr).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    match read_payload(&mut raw).unwrap() {
        Incoming::Payload(p) => match Response::decode(&p).unwrap() {
            Response::Busy { retry_after_ms } => assert_eq!(retry_after_ms, 77),
            other => panic!("expected Busy, got {other:?}"),
        },
        other => panic!("expected a frame, got {other:?}"),
    }

    // The typed client absorbs Busy with backoff + reconnect; with the
    // server still saturated and a short deadline, the rejection
    // surfaces as a busy Timeout once the deadline is spent.
    let mut rejected = Client::connect(&addr).unwrap();
    rejected.set_deadline(Duration::from_millis(300));
    match rejected.stats() {
        Err(PprlError::Timeout(msg)) => assert!(msg.contains("busy"), "{msg}"),
        other => panic!("expected busy Timeout, got {other:?}"),
    }

    // Draining both idle sessions frees the worker and the queue slot.
    drop(held);
    drop(queued);
    std::thread::sleep(Duration::from_millis(300));
    let mut ok = Client::connect_retry(&addr, 40, Duration::from_millis(25)).unwrap();
    let mut stats = None;
    for _ in 0..40 {
        match ok.stats() {
            Ok(s) => {
                stats = Some(s);
                break;
            }
            Err(PprlError::Timeout(_)) => {
                std::thread::sleep(Duration::from_millis(50));
                ok = Client::connect_retry(&addr, 40, Duration::from_millis(25)).unwrap();
            }
            Err(e) => panic!("stats failed: {e}"),
        }
    }
    let stats = stats.expect("server never recovered from backpressure");
    assert!(stats.busy_rejected >= 2);
    ok.shutdown().unwrap();
    handle.join();
    std::fs::remove_dir_all(&dir).ok();
}

/// A client that connects and then goes silent (or half-closes) must
/// not pin the only worker forever: after `idle_timeout` the server
/// closes the session and serves the next connection.
#[test]
fn stalled_client_cannot_pin_a_worker() {
    use std::io::Read;
    let dir = temp_dir("slow-client");
    drop(build_index(&dir, 30, 2));
    let handle = serve(
        &dir,
        "127.0.0.1:0",
        ServerConfig {
            workers: 1,
            queue_capacity: 1,
            compact_interval: None,
            idle_timeout: Duration::from_millis(300),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = handle.addr().to_string();

    // The stalled client occupies the worker without ever sending a
    // complete frame.
    let mut stalled = std::net::TcpStream::connect(&addr).unwrap();
    std::thread::sleep(Duration::from_millis(150)); // worker adopts it

    // A well-behaved client queues behind it and is served once the
    // idle cap evicts the staller (its internal Busy backoff absorbs
    // any queue-full rejections in between).
    let mut ok = Client::connect_retry(&addr, 40, Duration::from_millis(25)).unwrap();
    ok.set_deadline(Duration::from_secs(10));
    let stats = ok.stats().expect("server must free the pinned worker");
    assert!(stats.records > 0);

    // The server closed the stalled session: its socket reads EOF.
    stalled
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut sink = [0u8; 16];
    match stalled.read(&mut sink) {
        Ok(0) => {}
        other => panic!("expected server-side close, got {other:?}"),
    }

    ok.shutdown().unwrap();
    handle.join();
    std::fs::remove_dir_all(&dir).ok();
}

/// Wire inserts are durable, bump the generation, and invalidate the
/// result cache so the new record is immediately visible.
#[test]
fn insert_over_wire_invalidates_cache_and_bumps_generation() {
    let dir = temp_dir("insert");
    drop(build_index(&dir, 100, 4));
    let handle = serve(
        &dir,
        "127.0.0.1:0",
        ServerConfig {
            workers: 1,
            compact_interval: None,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = handle.addr().to_string();
    let mut client = Client::connect_retry(&addr, 20, Duration::from_millis(10)).unwrap();

    let probe = filter_for(5000);
    let before = client.query(&probe, 3).unwrap();
    assert!(before.iter().all(|h| h.id != 5000));
    let cached = client.query(&probe, 3).unwrap();
    assert_eq!(before, cached);

    // Insert the probe itself: it must become the top hit at score 1.
    let (count, generation) = client.insert(&[(5000, probe.clone())]).unwrap();
    assert_eq!(count, 1);
    assert_eq!(generation, 1);
    let after = client.query(&probe, 3).unwrap();
    assert_eq!(after[0].id, 5000);
    assert!((after[0].score - 1.0).abs() < 1e-12);

    let stats = client.stats().unwrap();
    assert_eq!(stats.inserts, 1);
    assert_eq!(stats.generation, 1);
    assert_eq!(stats.records, 101);
    assert!(stats.cache_hits >= 1);
    client.shutdown().unwrap();
    handle.join();

    // Durability: a reopened store sees the inserted record.
    let store = IndexStore::open(&dir).unwrap();
    assert_eq!(store.record_count().unwrap(), 101);
    std::fs::remove_dir_all(&dir).ok();
}

/// Malformed input: a corrupt frame gets a typed error and only kills
/// that connection; a shape-mismatched query errors but keeps its
/// session; the server keeps serving either way.
#[test]
fn malformed_frames_and_bad_requests_get_typed_errors() {
    let dir = temp_dir("malformed");
    drop(build_index(&dir, 30, 1));
    let handle = serve(
        &dir,
        "127.0.0.1:0",
        ServerConfig {
            workers: 1,
            compact_interval: None,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = handle.addr().to_string();

    // Corrupt checksum: ServerError frame, then the connection closes.
    {
        let mut raw = std::net::TcpStream::connect(&addr).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        std::thread::sleep(Duration::from_millis(100)); // reach a worker
        let mut frame = Vec::new();
        write_payload(&mut frame, &Request::Stats.encode()).unwrap();
        let last = frame.len() - 1;
        frame[last] ^= 0xff;
        use std::io::Write as _;
        raw.write_all(&frame).unwrap();
        match read_payload(&mut raw).unwrap() {
            Incoming::Payload(p) => match Response::decode(&p).unwrap() {
                Response::ServerError { message } => {
                    assert!(message.contains("checksum"), "got: {message}")
                }
                other => panic!("expected ServerError, got {other:?}"),
            },
            other => panic!("expected a frame, got {other:?}"),
        }
        match read_payload(&mut raw).unwrap() {
            Incoming::Eof => {}
            other => panic!("expected connection close, got {other:?}"),
        }
    }

    // Wrong filter length: typed error, session survives.
    let mut client = Client::connect_retry(&addr, 20, Duration::from_millis(10)).unwrap();
    let bad = BitVec::from_positions(FILTER_LEN / 2, &[1, 2]).unwrap();
    match client.query(&bad, 3) {
        Err(PprlError::ProtocolError(msg)) => assert!(msg.contains("shape"), "got: {msg}"),
        other => panic!("expected a protocol error, got {other:?}"),
    }
    assert!(!client.query(&filter_for(1), 3).unwrap().is_empty());
    client.shutdown().unwrap();
    handle.join();
    std::fs::remove_dir_all(&dir).ok();
}

/// Batch link over the wire matches per-probe offline top-k with the
/// score threshold applied, all against one generation.
#[test]
fn link_request_matches_offline_thresholded_topk() {
    let dir = temp_dir("link");
    let store = build_index(&dir, 150, 6);
    let probes: Vec<BitVec> = (0..5).map(filter_for).collect(); // known records
    let offline = store.reader().unwrap();
    let expected: Vec<Vec<Hit>> = probes
        .iter()
        .map(|p| {
            let mut hits = offline.top_k(p, 4, 1).unwrap();
            hits.retain(|h| h.score >= 0.6);
            hits
        })
        .collect();
    drop(store);

    let handle = serve(
        &dir,
        "127.0.0.1:0",
        ServerConfig {
            workers: 1,
            compact_interval: None,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut client =
        Client::connect_retry(&handle.addr().to_string(), 20, Duration::from_millis(10)).unwrap();
    let got = client.link(&probes, 4, 0.6).unwrap();
    assert_eq!(got, expected);
    // Each probe's own record is a perfect match.
    for (i, hits) in got.iter().enumerate() {
        assert_eq!(hits[0].id, i as u64);
        assert!((hits[0].score - 1.0).abs() < 1e-12);
    }
    client.shutdown().unwrap();
    handle.join();
    std::fs::remove_dir_all(&dir).ok();
}

/// The scan-plan cache keys on popcount *buckets*: distinct probes
/// whose popcounts fall in one bucket share a single derivation, while
/// answers stay bit-identical to the offline reader (the plan is only
/// an ordering hint).
#[test]
fn plan_cache_shares_one_derivation_per_popcount_bucket() {
    let dir = temp_dir("plan-bucket");
    let store = build_index(&dir, 120, 3);
    let offline = store.reader().unwrap();
    drop(store);
    let service = LinkageService::open(&dir, ServiceConfig::default()).unwrap();

    // Nine distinct probes with popcounts 32..=40 — all inside one
    // 16-wide bucket. Their filter bytes differ, so the exact-key
    // result cache never hits; only the plan cache can save work.
    for q in 32..=40usize {
        let positions: Vec<usize> = (0..q).map(|i| (i * 5 + q) % FILTER_LEN).collect();
        let f = BitVec::from_positions(FILTER_LEN, &positions).unwrap();
        assert_eq!(f.count_ones(), q);
        let hits = service.query(&f, 5).unwrap();
        assert_eq!(hits, offline.top_k(&f, 5, 1).unwrap(), "popcount {q}");
    }
    let stats = service.stats_report(1, 1);
    assert_eq!(
        stats.plan_misses, 1,
        "nearby popcounts re-derived the scan plan"
    );
    assert_eq!(stats.plan_hits, 8);

    // A probe two buckets away derives its own plan.
    let positions: Vec<usize> = (0..100).collect();
    let f = BitVec::from_positions(FILTER_LEN, &positions).unwrap();
    let hits = service.query(&f, 5).unwrap();
    assert_eq!(hits, offline.top_k(&f, 5, 1).unwrap());
    let stats = service.stats_report(1, 1);
    assert_eq!(stats.plan_misses, 2);
    std::fs::remove_dir_all(&dir).ok();
}

/// The call deadline bounds blocking socket I/O in both directions: a
/// peer that accepts and never answers yields a typed `Timeout` within
/// 2 × the deadline (not after the 30 s socket timeout the deadline
/// used to be rounded up to), and a peer that never drains its socket
/// fails the write with a typed `Timeout` too, instead of pinning the
/// caller in `write_all` forever.
#[test]
fn silent_or_stalled_peer_cannot_pin_a_caller_past_its_deadline() {
    use std::time::Instant;
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
    let peer = std::thread::spawn(move || {
        // Hold both connections open without reading or writing a byte.
        let held: Vec<_> = (0..2).map(|_| listener.accept().unwrap().0).collect();
        let _ = done_rx.recv();
        drop(held);
    });
    let deadline = Duration::from_millis(200);

    let mut silent = Client::connect(&addr).unwrap();
    silent.set_deadline(deadline);
    let started = Instant::now();
    match silent.stats() {
        Err(PprlError::Timeout(_)) => {}
        other => panic!("expected a typed timeout, got {other:?}"),
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed >= deadline && elapsed < 2 * deadline,
        "silent peer held the call for {elapsed:?} under a {deadline:?} deadline"
    );

    // Far more than the loopback socket buffers absorb, so the write
    // must block on a peer that never reads.
    let mut stalled = Client::connect(&addr).unwrap();
    stalled.set_deadline(deadline);
    let started = Instant::now();
    match stalled.send(&vec![0u8; 32 << 20]) {
        Err(PprlError::Timeout(_)) => {}
        other => panic!("expected the stalled write to time out, got {other:?}"),
    }
    assert!(started.elapsed() < Duration::from_secs(5));

    drop(done_tx);
    peer.join().unwrap();
}
