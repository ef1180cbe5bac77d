//! Crash-recovery property tests: the acceptance harness for the
//! crash-safe storage layer.
//!
//! Deterministic insert/flush/compact schedules run against the
//! in-memory [`FaultVfs`]; the harness kills the store at **every**
//! mutating IO operation of every schedule (crash-during-WAL-append,
//! crash-between-tmp-write-and-rename, crash-mid-compaction — every
//! point, not a sample), recovers the surviving bytes under the
//! crash-consistency model, reopens, and asserts the two invariants the
//! paper's linkage-unit deployment needs:
//!
//! 1. **No acked loss** — every insert acked before the crash is
//!    queryable after reopening (extras are limited to a prefix-consistent subset of the
//!    batch that was in flight when the crash hit).
//! 2. **Oracle bit-identity** — every query against the recovered store
//!    returns results bit-identical to a never-crashed oracle store
//!    holding exactly the recovered records.
//!
//! ENOSPC, read-side corruption, and quarantined-segment degraded opens
//! are covered by the dedicated tests below.

use pprl_core::bitvec::BitVec;
use pprl_core::error::PprlError;
use pprl_core::rng::SplitMix64;
use pprl_index::store::{IndexConfig, IndexStore};
use pprl_index::vfs::{FaultPlan, FaultVfs};
use std::path::Path;
use std::sync::Arc;

const FILTER_LEN: usize = 64;
const NUM_SHARDS: u32 = 2;

#[derive(Debug, Clone)]
enum Op {
    Insert(Vec<(u64, BitVec)>),
    Flush,
    Compact,
}

fn random_filter(rng: &mut SplitMix64) -> BitVec {
    let mut ones: Vec<usize> = (0..FILTER_LEN)
        .filter(|_| rng.next_u64().is_multiple_of(4))
        .collect();
    if ones.is_empty() {
        ones.push(rng.next_below(FILTER_LEN as u64) as usize);
    }
    BitVec::from_positions(FILTER_LEN, &ones).expect("filter")
}

/// A deterministic workload: 10 drawn operations, inserts of 1–4
/// records with globally unique ids, interleaved flushes and compaction
/// steps. Each compaction step is led by two insert-and-flush rounds and
/// one more insert, so `compact()`'s own flush is the third non-empty
/// flush in a row: over two shards two of those three flushes share a
/// shard, and every compaction step merges a group.
fn schedule(seed: u64) -> Vec<Op> {
    let mut rng = SplitMix64::new(seed.wrapping_mul(0x9e37_79b9).wrapping_add(1));
    let mut next_id = 0u64;
    let mut insert = |rng: &mut SplitMix64| {
        let n = 1 + rng.next_below(4) as usize;
        let batch: Vec<(u64, BitVec)> = (0..n)
            .map(|_| {
                let id = next_id;
                next_id += 1;
                (id, random_filter(rng))
            })
            .collect();
        Op::Insert(batch)
    };
    let mut ops = Vec::new();
    for _ in 0..10 {
        match rng.next_below(100) {
            0..=59 => ops.push(insert(&mut rng)),
            60..=84 => ops.push(Op::Flush),
            _ => {
                for _ in 0..2 {
                    ops.push(insert(&mut rng));
                    ops.push(Op::Flush);
                }
                ops.push(insert(&mut rng));
                ops.push(Op::Compact);
            }
        }
    }
    ops
}

/// Runs the schedule, tracking which inserts were acked, which batch
/// (if any) was in flight when the first failure hit, and how many
/// `Compact` steps merged a group. Returns false on the first error (the
/// simulated crash); every op after a crash fails.
fn run_schedule(
    store: &mut IndexStore,
    ops: &[Op],
    acked: &mut Vec<(u64, BitVec)>,
    in_flight: &mut Vec<(u64, BitVec)>,
    merges: &mut usize,
) -> bool {
    for op in ops {
        let outcome = match op {
            Op::Insert(batch) => {
                *in_flight = batch.clone();
                let r = store.insert_batch(batch);
                if r.is_ok() {
                    acked.extend(batch.iter().cloned());
                    in_flight.clear();
                }
                r
            }
            Op::Flush => store.flush(),
            Op::Compact => store
                .compact()
                .map(|reclaimed| *merges += usize::from(reclaimed > 0)),
        };
        if outcome.is_err() {
            return false;
        }
    }
    true
}

/// All `(id, score)` pairs the store currently answers, via a real
/// query (k larger than the record count returns everything).
fn scan_ids(store: &IndexStore, probe: &BitVec) -> Vec<u64> {
    let reader = store.reader().expect("reader");
    let hits = reader
        .top_k(probe, reader.len() + 16, 1)
        .expect("full scan");
    hits.into_iter().map(|h| h.id).collect()
}

fn probes(n: usize) -> Vec<BitVec> {
    let mut rng = SplitMix64::new(0xbeef);
    (0..n).map(|_| random_filter(&mut rng)).collect()
}

/// Builds a never-crashed oracle holding exactly `records` and checks
/// that the recovered store answers every probe bit-identically.
fn assert_oracle_identical(recovered: &IndexStore, records: &[(u64, BitVec)], what: &str) {
    let vfs = FaultVfs::reliable();
    let dir = Path::new("/oracle");
    let mut oracle = IndexStore::create_with(dir, IndexConfig::new(FILTER_LEN, NUM_SHARDS), vfs)
        .expect("oracle create");
    if !records.is_empty() {
        oracle.insert_batch(records).expect("oracle insert");
        oracle.flush().expect("oracle flush");
    }
    let oracle_reader = oracle.reader().expect("oracle reader");
    let recovered_reader = recovered.reader().expect("recovered reader");
    assert_eq!(recovered_reader.len(), oracle_reader.len(), "{what}");
    for (i, probe) in probes(4).iter().enumerate() {
        for k in [1usize, 5, records.len() + 8] {
            let want = oracle_reader.top_k(probe, k, 1).expect("oracle top_k");
            let got = recovered_reader
                .top_k(probe, k, 1)
                .expect("recovered top_k");
            assert_eq!(got, want, "{what}: probe {i}, k={k} diverged from oracle");
        }
    }
}

/// The tentpole acceptance criterion: ≥ 200 seeded fault schedules,
/// crashing at every mutating IO operation, losing no acked insert,
/// with recovered query results bit-identical to the oracle.
#[test]
fn crash_at_every_io_op_loses_no_acked_insert_and_matches_oracle() {
    let mut schedules_run = 0u64;
    for seed in 0..8u64 {
        let ops = schedule(seed);
        // Dry run on a reliable vfs to learn how many mutating IO
        // operations the whole schedule performs (including create).
        let dry = FaultVfs::reliable();
        let dir = Path::new("/idx");
        let mut store = IndexStore::create_with(
            dir,
            IndexConfig::new(FILTER_LEN, NUM_SHARDS),
            Arc::clone(&dry) as Arc<dyn pprl_index::vfs::Vfs>,
        )
        .expect("dry create");
        let (mut acked, mut in_flight, mut merges) = (Vec::new(), Vec::new(), 0);
        assert!(
            run_schedule(&mut store, &ops, &mut acked, &mut in_flight, &mut merges),
            "reliable run must not fail"
        );
        let compactions = ops.iter().filter(|op| matches!(op, Op::Compact)).count();
        assert_eq!(
            merges, compactions,
            "seed {seed}: a Compact step merged nothing"
        );
        let total_ops = dry.mutating_ops();
        assert!(total_ops > 10, "schedule too trivial to exercise crashes");

        for crash_at in 1..=total_ops {
            schedules_run += 1;
            let vfs = FaultVfs::new(FaultPlan::crash_at(seed, crash_at));
            let io = Arc::clone(&vfs) as Arc<dyn pprl_index::vfs::Vfs>;
            let mut acked = Vec::new();
            let mut in_flight = Vec::new();
            let finished = match IndexStore::create_with(
                dir,
                IndexConfig::new(FILTER_LEN, NUM_SHARDS),
                io.clone(),
            ) {
                Ok(mut store) => run_schedule(&mut store, &ops, &mut acked, &mut in_flight, &mut 0),
                Err(_) => false, // crashed during create: nothing acked
            };
            if finished {
                // The crash point was beyond the schedule's last op
                // (the dry count includes everything, so this only
                // happens for the very last points). Nothing to check
                // beyond a clean reopen below.
                assert!(
                    crash_at == total_ops || vfs.crashed(),
                    "schedule finished yet the crash never fired (point {crash_at})"
                );
            }
            vfs.crash_and_recover();

            match IndexStore::open_with(dir, io) {
                Ok(recovered) => {
                    let probe = &probes(1)[0];
                    let ids = scan_ids(&recovered, probe);
                    let mut unique = ids.clone();
                    unique.sort_unstable();
                    unique.dedup();
                    assert_eq!(
                        unique.len(),
                        ids.len(),
                        "seed {seed} point {crash_at}: duplicate ids after recovery \
                         (WAL replayed flushed records?)"
                    );
                    let id_set: std::collections::BTreeSet<u64> = unique.iter().copied().collect();
                    for (id, _) in &acked {
                        assert!(
                            id_set.contains(id),
                            "seed {seed} point {crash_at}: acked insert {id} lost \
                             ({} acked, {} recovered)",
                            acked.len(),
                            id_set.len()
                        );
                    }
                    let allowed: std::collections::BTreeSet<u64> = acked
                        .iter()
                        .map(|(id, _)| *id)
                        .chain(in_flight.iter().map(|(id, _)| *id))
                        .collect();
                    for id in &id_set {
                        assert!(
                            allowed.contains(id),
                            "seed {seed} point {crash_at}: recovered unknown id {id}"
                        );
                    }
                    // The never-crashed oracle holds exactly what the
                    // recovered store ended up with.
                    let mut recovered_records: Vec<(u64, BitVec)> = acked.clone();
                    recovered_records.extend(
                        in_flight
                            .iter()
                            .filter(|(id, _)| id_set.contains(id))
                            .cloned(),
                    );
                    recovered_records.retain(|(id, _)| id_set.contains(id));
                    assert_oracle_identical(
                        &recovered,
                        &recovered_records,
                        &format!("seed {seed} point {crash_at}"),
                    );
                }
                Err(PprlError::Storage(_)) => {
                    // Only legitimate when the crash hit during create,
                    // before the manifest ever became durable.
                    assert!(
                        acked.is_empty(),
                        "seed {seed} point {crash_at}: open refused with acked inserts"
                    );
                }
                Err(e) => panic!("seed {seed} point {crash_at}: unexpected error {e}"),
            }
        }
    }
    assert!(
        schedules_run >= 200,
        "harness ran only {schedules_run} fault schedules (need ≥ 200)"
    );
}

/// ENOSPC during a WAL append is a typed error, nothing is half-acked,
/// and once space frees the same store keeps working with no loss.
#[test]
fn enospc_is_typed_and_the_store_stays_consistent() {
    let mut rng = SplitMix64::new(77);
    let vfs = FaultVfs::new(FaultPlan {
        enospc_after_bytes: Some(600),
        ..FaultPlan::none()
    });
    let dir = Path::new("/idx");
    let io = Arc::clone(&vfs) as Arc<dyn pprl_index::vfs::Vfs>;
    let mut store =
        IndexStore::create_with(dir, IndexConfig::new(FILTER_LEN, NUM_SHARDS), io.clone())
            .expect("create");
    let mut acked: Vec<(u64, BitVec)> = Vec::new();
    let mut hit_enospc = false;
    for id in 0..60u64 {
        let batch = vec![(id, random_filter(&mut rng))];
        match store.insert_batch(&batch) {
            Ok(()) => acked.extend(batch),
            Err(PprlError::Storage(msg)) => {
                assert!(
                    msg.contains("space") || msg.contains("appending") || msg.contains("syncing"),
                    "unexpected storage error: {msg}"
                );
                hit_enospc = true;
            }
            Err(e) => panic!("unexpected error kind: {e}"),
        }
    }
    assert!(hit_enospc, "the ENOSPC injection never fired");
    // The disk "freed up" (the fault is one-shot): later inserts acked,
    // and a reopen finds every acked record.
    drop(store);
    let recovered = IndexStore::open_with(dir, io).expect("reopen after ENOSPC");
    let ids: std::collections::BTreeSet<u64> =
        scan_ids(&recovered, &probes(1)[0]).into_iter().collect();
    for (id, _) in &acked {
        assert!(ids.contains(id), "acked insert {id} lost after ENOSPC");
    }
}

/// A store with a corrupted (hence quarantined) segment still opens,
/// reports `degraded`, and answers queries exactly over the survivors.
#[test]
fn corrupt_segment_quarantines_and_serves_degraded_reads() {
    let mut rng = SplitMix64::new(99);
    let vfs = FaultVfs::reliable();
    let dir = Path::new("/idx");
    let io = Arc::clone(&vfs) as Arc<dyn pprl_index::vfs::Vfs>;
    let mut store =
        IndexStore::create_with(dir, IndexConfig::new(FILTER_LEN, NUM_SHARDS), io.clone())
            .expect("create");
    // Two flushes so at least two segments exist.
    let first: Vec<(u64, BitVec)> = (0..12u64).map(|id| (id, random_filter(&mut rng))).collect();
    let second: Vec<(u64, BitVec)> = (12..20u64)
        .map(|id| (id, random_filter(&mut rng)))
        .collect();
    store.insert_batch(&first).expect("insert");
    store.flush().expect("flush");
    store.insert_batch(&second).expect("insert");
    store.flush().expect("flush");
    drop(store);

    // Flip one persisted byte inside the first segment file.
    let victim = vfs
        .list_files()
        .into_iter()
        .find(|p| p.extension().is_some_and(|e| e == "seg"))
        .expect("a segment file");
    vfs.corrupt_stored(&victim, 40, 0x20);

    let store = IndexStore::open_with(dir, io).expect("degraded open must succeed");
    assert!(store.is_degraded(), "corruption must degrade the store");
    assert_eq!(store.quarantined().len(), 1);
    let stats = store.stats().expect("stats");
    assert_eq!(stats.quarantined_segments, 1);
    // The quarantined file moved out of the way.
    assert!(
        vfs.list_files()
            .iter()
            .any(|p| p.starts_with(dir.join("quarantine"))),
        "victim not moved into quarantine/"
    );

    // Queries still answer, exactly over the surviving records.
    let reader = store.reader().expect("reader");
    assert!(reader.is_degraded());
    assert_eq!(reader.quarantined_segments(), 1);
    let ids = scan_ids(&store, &probes(1)[0]);
    let all: std::collections::BTreeSet<u64> = (0..20u64).collect();
    for id in &ids {
        assert!(all.contains(id), "unknown id {id} after quarantine");
    }
    assert!(
        ids.len() < 20,
        "the quarantined segment's records cannot still be served"
    );

    // Reopening again is stable: the ledger persists, nothing else is
    // quarantined, and the same records answer.
    drop(store);
    let vfs2_io = Arc::clone(&vfs) as Arc<dyn pprl_index::vfs::Vfs>;
    let reopened = IndexStore::open_with(dir, vfs2_io).expect("second open");
    assert!(reopened.is_degraded());
    assert_eq!(reopened.quarantined().len(), 1);
    assert_eq!(scan_ids(&reopened, &probes(1)[0]).len(), ids.len());
}

/// Read-side bit flips are transient (a bad cable, not bad platters):
/// they surface as typed errors or quarantine, never panics or silent
/// corruption, and a retry eventually succeeds.
#[test]
fn read_flips_surface_as_typed_errors_never_panics() {
    let mut rng = SplitMix64::new(5);
    let records: Vec<(u64, BitVec)> = (0..16u64).map(|id| (id, random_filter(&mut rng))).collect();
    let vfs = FaultVfs::new(FaultPlan {
        read_flip_rate: 0.4,
        ..FaultPlan::none()
    });
    let dir = Path::new("/idx");
    let io = Arc::clone(&vfs) as Arc<dyn pprl_index::vfs::Vfs>;
    let mut store =
        IndexStore::create_with(dir, IndexConfig::new(FILTER_LEN, NUM_SHARDS), io.clone())
            .expect("create");
    store.insert_batch(&records).expect("insert");
    store.flush().expect("flush");
    drop(store);

    // Every open re-reads everything through the flipping vfs. The
    // property under test: a flip can fail an open with a
    // typed error, or trigger a (spurious but safe) quarantine — it can
    // never panic and never surface wrong data, because every file
    // carries checksums. Data that loads is correct data.
    let known: std::collections::BTreeSet<u64> = records.iter().map(|(id, _)| *id).collect();
    let mut served = false;
    for _ in 0..64 {
        match IndexStore::open_with(dir, io.clone()) {
            Ok(store) => match store.reader() {
                Ok(reader) => match reader.top_k(&probes(1)[0], 5, 1) {
                    Ok(hits) => {
                        for hit in &hits {
                            assert!(
                                known.contains(&hit.id),
                                "flip fabricated record id {}",
                                hit.id
                            );
                        }
                        served = true;
                    }
                    Err(PprlError::Storage(_)) => {}
                    Err(e) => panic!("unexpected error: {e}"),
                },
                Err(PprlError::Storage(_)) => {}
                Err(e) => panic!("unexpected error: {e}"),
            },
            Err(PprlError::Storage(_)) => {}
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    assert!(
        served,
        "transient flips at rate 0.4 blocked every one of 64 attempts"
    );
}
