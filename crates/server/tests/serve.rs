//! End-to-end tests for `pprl-server`: concurrent TCP queries
//! bit-identical to offline reads while background compaction runs,
//! explicit backpressure, cache invalidation on insert, snapshot
//! isolation under compaction, and framing robustness — every session
//! authenticated through the shared fixture.

#[path = "common/auth.rs"]
mod fixture;

use pprl_core::bitvec::BitVec;
use pprl_core::error::PprlError;
use pprl_encoding::encoder::RecordEncoderConfig;
use pprl_index::manifest::IndexConfig;
use pprl_index::query::Hit;
use pprl_index::segment::segment_len;
use pprl_index::store::{IndexStore, WAL_FILE};
use pprl_server::client::Client;
use pprl_server::server::ServerConfig;
use pprl_server::service::{LinkageService, INLINE_FLUSH_ROWS};
use pprl_server::wire::{read_payload, write_payload, Incoming, Request, Response, WIRE_VERSION};
use pprl_similarity::bitvec_sim::dice_bits;
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

    let handle = fixture::serve(
        &dir,
        ServerConfig {
            workers: 3,
            queue_capacity: 16,
            compact_interval: Some(Duration::from_millis(25)),
            ..ServerConfig::default()
        },
    );
    let addr = handle.addr().to_string();

    let clients: Vec<_> = (0..3)
        .map(|_| {
            let addr = addr.clone();
            let probes = probes.clone();
            let expected = expected.clone();
            std::thread::spawn(move || {
                let mut client = fixture::connect(&addr);
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
    let mut client = fixture::connect(&addr);
    let stats = client.stats().unwrap();
    assert!(stats.compactions >= 1, "no background compaction ran");
    assert!(stats.generation >= 1);
    assert_eq!(stats.queries, 3 * 25 * 8);
    assert!(stats.cache_hits > 0, "repeated queries never hit the cache");
    assert_eq!(stats.records, 400);
    client.shutdown().unwrap();
    handle.join();

    // The compacted on-disk index still answers identically offline,
    // and every superseded segment file is gone.
    let reopened = IndexStore::open(&dir).unwrap();
    assert_eq!(
        segment_bytes(&dir).len(),
        reopened.stats().unwrap().segments,
        "superseded segment files left behind"
    );
    let reader = reopened.reader().unwrap();
    for (probe, want) in probes.iter().zip(&expected) {
        assert_eq!(&reader.top_k(probe, 5, 1).unwrap(), want);
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Satellite: a reader pinned to an old snapshot returns bit-for-bit
/// identical top-k results after compaction rewrote segments, swapped
/// the manifest and deleted the files that reader was built from: its
/// rows are arenas it shares, not files it reads.
#[test]
fn old_snapshot_reads_identical_while_compaction_swaps() {
    let dir = temp_dir("snapshot");
    drop(build_index(&dir, 300, 12));
    let service = LinkageService::open(&dir, 256).unwrap();

    let probes: Vec<BitVec> = (0..6).map(|i| filter_for(2000 + i)).collect();
    let pinned = service.snapshot();
    assert_eq!(pinned.generation, 0);
    let expected: Vec<Vec<Hit>> = probes
        .iter()
        .map(|p| pinned.reader.top_k(p, 7, 1).unwrap())
        .collect();

    let built = segment_bytes(&dir);
    let outcome = service.compact_step().unwrap();
    assert!(!outcome.is_noop(), "compaction found nothing to merge");
    assert!(service.generation() >= 1);
    // The merged-away files are gone while the old generation is pinned.
    let now = segment_bytes(&dir);
    let gone = built.keys().filter(|name| !now.contains_key(*name)).count();
    assert_eq!(gone, outcome.merged_segments);

    // Old snapshot: bit-for-bit identical results after the rewrite.
    for (probe, want) in probes.iter().zip(&expected) {
        assert_eq!(&pinned.reader.top_k(probe, 7, 1).unwrap(), want);
    }
    // New snapshot: same logical content, same exact results.
    for (probe, want) in probes.iter().zip(&expected) {
        assert_eq!(&service.query(probe, 7).unwrap(), want);
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

/// Rows held in the `.seg` files under `dir`, from their sizes.
fn segment_rows(dir: &std::path::Path) -> usize {
    let (empty, row) = (segment_len(0, FILTER_LEN), segment_len(1, FILTER_LEN));
    segment_bytes(dir)
        .values()
        .map(|&bytes| ((bytes - empty) / (row - empty)) as usize)
        .sum()
}

/// Brute-force top-k over `corpus`: Dice per record, ordered by (score
/// desc, id asc) like every index read path.
fn brute_force(corpus: &[(u64, BitVec)], probe: &BitVec, k: usize) -> Vec<Hit> {
    let mut hits: Vec<Hit> = corpus
        .iter()
        .map(|(id, f)| Hit {
            id: *id,
            score: dice_bits(probe, f).unwrap(),
        })
        .collect();
    hits.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.id.cmp(&b.id)));
    hits.truncate(k);
    hits
}

/// The base corpus [`build_index`] writes, plus `extra`.
fn corpus_with(n: u64, extra: &[(u64, BitVec)]) -> Vec<(u64, BitVec)> {
    let mut corpus: Vec<(u64, BitVec)> = (0..n).map(|id| (id, filter_for(id))).collect();
    corpus.extend_from_slice(extra);
    corpus
}

/// Asserts that `answer` matches the oracle over `corpus` for a spread
/// of probes, inserted records among them.
fn assert_oracle_exact(corpus: &[(u64, BitVec)], answer: impl Fn(&BitVec) -> Vec<Hit>, what: &str) {
    for (id, probe) in corpus.iter().step_by(corpus.len() / 9 + 1) {
        assert_eq!(
            answer(probe),
            brute_force(corpus, probe, 5),
            "{what}: probe {id}"
        );
    }
}

/// A generation swap reads none of the segments it added, nor any
/// other. Opening the service reads each segment file once; a served
/// insert writes no segment, and the compaction step's flush and merge
/// keep the arenas they write, so `bytes_read` stays the open total
/// throughout. An old pinned generation keeps answering from the rows
/// it shares with the new one.
#[test]
fn generation_swaps_read_only_the_segments_they_added() {
    let dir = temp_dir("carry-over");
    drop(build_index(&dir, 300, 6));
    let built = segment_bytes(&dir);
    let expected = built.values().sum::<u64>();
    let service = LinkageService::open(&dir, 256).unwrap();
    let pinned = service.snapshot();
    let probe = filter_for(7);
    let pinned_answer = pinned.reader.top_k(&probe, 5, 1).unwrap();
    assert_eq!(service.stats_report(1, 1).bytes_read, expected);

    let mut inserted = Vec::new();
    for round in 0..5u64 {
        let records: Vec<(u64, BitVec)> = (0..20)
            .map(|i| 5_000 + 20 * round + i)
            .map(|id| (id, filter_for(id)))
            .collect();
        service.insert(&records).unwrap();
        inserted.extend_from_slice(&records);
        assert_eq!(segment_bytes(&dir), built, "insert {round} wrote a segment");
        assert_eq!(service.query(&records[3].1, 1).unwrap()[0].score, 1.0);
        assert_eq!(
            service.stats_report(1, 1).bytes_read,
            expected,
            "insert {round} read from disk"
        );
    }
    let corpus = corpus_with(300, &inserted);
    assert_oracle_exact(&corpus, |p| service.query(p, 5).unwrap(), "pending rows");

    let generation = service.generation();
    let outcome = service.compact_step().unwrap();
    assert!(!outcome.is_noop());
    assert_eq!(service.generation(), generation + 1, "one install per step");
    assert_eq!(segment_rows(&dir), 400, "only live segment files remain");
    assert_eq!(service.stats_report(1, 1).bytes_read, expected);
    assert_eq!(pinned.reader.top_k(&probe, 5, 1).unwrap(), pinned_answer);
    assert_oracle_exact(&corpus, |p| service.query(p, 5).unwrap(), "after step");
    std::fs::remove_dir_all(&dir).ok();
}

/// With no maintenance step to flush them, inserts hold their rows in
/// memory until pending reaches [`INLINE_FLUSH_ROWS`], then flush
/// inline: segment files appear, pending drops below the bound, and
/// answers stay oracle-exact on both sides of the flush.
#[test]
fn inserts_past_the_pending_bound_flush_inline() {
    let dir = temp_dir("inline-flush");
    drop(build_index(&dir, 200, 2));
    let service = LinkageService::open(&dir, 256).unwrap();
    let built = segment_bytes(&dir);
    let batch = 1_000u64;
    let mut inserted = Vec::new();
    let mut flushed_at = None;
    for round in 0..(INLINE_FLUSH_ROWS as u64 / batch + 2) {
        let records: Vec<(u64, BitVec)> = (0..batch)
            .map(|i| 10_000 + batch * round + i)
            .map(|id| (id, filter_for(id)))
            .collect();
        service.insert(&records).unwrap();
        inserted.extend_from_slice(&records);
        let records_now = service.stats_report(1, 1).records as usize;
        assert_eq!(records_now, 200 + inserted.len());
        let pending = records_now - segment_rows(&dir);
        assert!(
            pending < INLINE_FLUSH_ROWS,
            "round {round}: {pending} pending"
        );
        if inserted.len() < INLINE_FLUSH_ROWS {
            assert_eq!(segment_bytes(&dir), built, "round {round} flushed early");
            assert_eq!(pending, inserted.len());
        } else if flushed_at.is_none() {
            assert_ne!(segment_bytes(&dir), built, "round {round} never flushed");
            assert_eq!(pending, 0);
            flushed_at = Some(round);
        }
    }
    assert!(flushed_at.is_some());
    let corpus = corpus_with(200, &inserted);
    assert_oracle_exact(&corpus, |p| service.query(p, 5).unwrap(), "inline flush");
    drop(service);
    let reopened = IndexStore::open(&dir).unwrap();
    assert_eq!(reopened.record_count(), corpus.len());
    let reader = reopened.reader().unwrap();
    assert_oracle_exact(&corpus, |p| reader.top_k(p, 5, 1).unwrap(), "reopened");
    std::fs::remove_dir_all(&dir).ok();
}

/// The ack boundary is the WAL fsync. Inserts acked by the service and
/// never flushed survive dropping it: opening the store replays them,
/// counted exactly once, and answers match the oracle over the grown
/// corpus. A compaction step then moves them into segment files and
/// resets the WAL, and a second reopen answers identically.
#[test]
fn acked_unflushed_inserts_survive_a_reopen() {
    let dir = temp_dir("ack-durable");
    drop(build_index(&dir, 200, 4));
    let built = segment_bytes(&dir);
    let empty_wal = std::fs::metadata(dir.join(WAL_FILE)).unwrap().len();
    let service = LinkageService::open(&dir, 256).unwrap();
    let inserted: Vec<(u64, BitVec)> = (7_000..7_060).map(|id| (id, filter_for(id))).collect();
    for chunk in inserted.chunks(15) {
        service.insert(chunk).unwrap();
    }
    assert_eq!(segment_bytes(&dir), built, "an insert flushed");
    drop(service);

    let corpus = corpus_with(200, &inserted);
    let store = IndexStore::open(&dir).unwrap();
    assert_eq!(store.pending_len(), inserted.len(), "WAL replay");
    assert_eq!(store.record_count(), corpus.len());
    let reader = store.reader().unwrap();
    assert_oracle_exact(&corpus, |p| reader.top_k(p, 5, 1).unwrap(), "replayed");
    let replayed: Vec<Vec<Hit>> = corpus
        .iter()
        .map(|(_, p)| reader.top_k(p, 5, 1).unwrap())
        .collect();
    drop((reader, store));

    let service = LinkageService::open(&dir, 256).unwrap();
    service.compact_step().unwrap();
    assert_eq!(segment_rows(&dir), corpus.len(), "rows not in segments");
    assert_eq!(
        std::fs::metadata(dir.join(WAL_FILE)).unwrap().len(),
        empty_wal,
        "WAL not reset"
    );
    drop(service);

    let store = IndexStore::open(&dir).unwrap();
    assert_eq!(store.pending_len(), 0);
    assert_eq!(store.record_count(), corpus.len());
    let reader = store.reader().unwrap();
    for ((_, p), want) in corpus.iter().zip(&replayed) {
        assert_eq!(&reader.top_k(p, 5, 1).unwrap(), want);
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Overflowing the bounded queue yields an immediate `Busy` with the
/// configured retry hint — not an ever-growing backlog — and a client
/// shed while connecting backs off and gets in once the queue drains.
#[test]
fn full_queue_rejects_with_busy_retry_after() {
    let dir = temp_dir("busy");
    drop(build_index(&dir, 50, 2));
    let handle = fixture::serve(
        &dir,
        ServerConfig {
            workers: 1,
            queue_capacity: 1,
            retry_after_ms: 77,
            compact_interval: None,
            ..ServerConfig::default()
        },
    );
    let addr = handle.addr().to_string();

    // `held` owns the only worker once its handshake is answered; the
    // acceptor takes connections in arrival order, so `queued` fills
    // the one queue slot before the next connection is accepted.
    let mut held = fixture::connect(&addr);
    let queued = std::net::TcpStream::connect(&addr).unwrap();

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

    // A client connecting now is shed before its handshake too. With the
    // server still saturated and a short deadline, the rejection
    // surfaces as a busy Timeout once that deadline is spent.
    let started = std::time::Instant::now();
    match Client::connect_within(&addr, fixture::auth(true), Duration::from_millis(300)) {
        Err(PprlError::Timeout(msg)) => assert!(msg.contains("busy"), "{msg}"),
        other => panic!("expected busy Timeout, got {other:?}"),
    }
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "{:?}",
        started.elapsed()
    );

    // One with the default deadline absorbs the Busy with backoff and
    // reconnects until it gets in.
    let shed = held.stats().unwrap().busy_rejected;
    assert!(shed >= 2, "{shed}");
    let connecting = {
        let addr = addr.clone();
        std::thread::spawn(move || fixture::connect(&addr))
    };
    while held.stats().unwrap().busy_rejected == shed {
        std::thread::sleep(Duration::from_millis(10));
    }

    // Draining both sessions frees the worker and the queue slot.
    drop(held);
    drop(queued);
    let mut ok = connecting.join().unwrap();
    let stats = ok.stats().unwrap();
    assert!(stats.busy_rejected > shed);
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
    let handle = fixture::serve(
        &dir,
        ServerConfig {
            workers: 1,
            queue_capacity: 1,
            compact_interval: None,
            idle_timeout: Duration::from_millis(300),
            ..ServerConfig::default()
        },
    );
    let addr = handle.addr().to_string();

    // The stalled client occupies the worker without ever sending a
    // complete frame.
    let mut stalled = std::net::TcpStream::connect(&addr).unwrap();
    std::thread::sleep(Duration::from_millis(150)); // worker adopts it

    // A well-behaved client queues behind it and its handshake is
    // answered once the idle cap evicts the staller (its internal Busy
    // backoff absorbs any queue-full rejections in between).
    let mut ok = fixture::connect(&addr);
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
    let handle = fixture::serve(
        &dir,
        ServerConfig {
            workers: 1,
            compact_interval: None,
            ..ServerConfig::default()
        },
    );
    let mut client = fixture::connect(&handle.addr().to_string());

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
    // One hit (the repeat) and two misses (first query, post-insert
    // query); the reserved scan-plan fields stay 0 on the wire.
    assert_eq!(
        (stats.cache_hits, stats.cache_misses),
        (1, 2),
        "result cache hits / misses"
    );
    assert_eq!((stats.plan_hits, stats.plan_misses), (0, 0));
    client.shutdown().unwrap();
    handle.join();

    // Durability: a reopened store sees the inserted record.
    let store = IndexStore::open(&dir).unwrap();
    assert_eq!(store.record_count(), 101);
    std::fs::remove_dir_all(&dir).ok();
}

/// Malformed input: a corrupt first frame gets a typed refusal and
/// only kills that connection; an intact request that does not decode,
/// or a shape-mismatched query, errors but keeps its session; the
/// server keeps serving either way.
#[test]
fn malformed_frames_and_bad_requests_get_typed_errors() {
    let dir = temp_dir("malformed");
    drop(build_index(&dir, 30, 1));
    let handle = fixture::serve(
        &dir,
        ServerConfig {
            workers: 1,
            compact_interval: None,
            ..ServerConfig::default()
        },
    );
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

    // Sealed and intact, but no such opcode: a ServerError, and the
    // session stays in sync.
    let mut client = fixture::connect(&addr);
    client.send(&[WIRE_VERSION, 0x7f]).unwrap();
    match client.recv(std::time::Instant::now() + Duration::from_secs(5)) {
        Err(PprlError::ProtocolError(msg)) => {
            assert!(msg.contains("unknown request opcode"), "got: {msg}")
        }
        other => panic!("expected a protocol error, got {other:?}"),
    }
    assert_eq!(client.stats().unwrap().records, 30);

    // Wrong filter length: typed error, session survives.
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

/// A node serving the shipped person-CLK length answers a probe of the
/// 1000-bit CLK it replaced with a typed error naming both lengths, and
/// the session keeps serving.
#[test]
fn a_probe_of_the_old_clk_length_gets_a_typed_error() {
    let len = RecordEncoderConfig::person_clk(b"k".to_vec()).params.len;
    let row = |id: usize| BitVec::from_positions(len, &[id, id + 7, id + 64]).unwrap();
    let dir = temp_dir("old-clk");
    let mut store = IndexStore::create(&dir, IndexConfig::new(len, 2)).unwrap();
    let rows: Vec<(u64, BitVec)> = (0..20).map(|id| (id as u64, row(id))).collect();
    store.insert_batch(&rows).unwrap();
    store.flush().unwrap();
    drop(store);
    let handle = fixture::serve(
        &dir,
        ServerConfig {
            workers: 1,
            compact_interval: None,
            ..ServerConfig::default()
        },
    );
    let mut client = fixture::connect(&handle.addr().to_string());
    let old = BitVec::from_positions(1000, &[1, 2, 999]).unwrap();
    match client.query(&old, 3) {
        Err(PprlError::ProtocolError(msg)) => {
            assert!(msg.contains("1000-bit"), "got: {msg}");
            assert!(msg.contains(&format!("{len}-bit")), "got: {msg}");
        }
        other => panic!("expected a protocol error, got {other:?}"),
    }
    let hits = client.query(&row(5), 1).unwrap();
    assert_eq!((hits[0].id, hits[0].score), (5, 1.0));
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

    let handle = fixture::serve(
        &dir,
        ServerConfig {
            workers: 1,
            compact_interval: None,
            ..ServerConfig::default()
        },
    );
    let mut client = fixture::connect(&handle.addr().to_string());
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

/// The call deadline bounds blocking socket I/O in both directions: a
/// peer that completes the handshake and never answers yields a typed
/// `Timeout` within 2 × the deadline (not after the 30 s socket timeout
/// the deadline used to be rounded up to), and a peer that never drains
/// its socket fails the write with a typed `Timeout` too, instead of
/// pinning the caller in `write_all` forever.
#[test]
fn silent_or_stalled_peer_cannot_pin_a_caller_past_its_deadline() {
    use std::time::Instant;
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
    let peer = std::thread::spawn(move || {
        // Answer both handshakes, then hold the sessions open without
        // reading or writing another byte.
        let held: Vec<_> = (0..2).map(|_| fixture::accept_session(&listener)).collect();
        let _ = done_rx.recv();
        drop(held);
    });
    let deadline = Duration::from_millis(200);

    let mut silent = fixture::connect(&addr);
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
    let mut stalled = Client::connect_with(&addr, fixture::auth(false)).unwrap();
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
