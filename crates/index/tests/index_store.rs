//! End-to-end properties of the persistent index:
//!
//! 1. Corruption detection: every single-byte flip and every truncation
//!    of a segment file on disk is caught at open — the damaged segment
//!    is quarantined and the store reports degraded reads over the
//!    survivors; never a panic, never silently wrong results.
//! 2. Query exactness: `top_k` returns exactly the same `(id, dice)`
//!    pairs as a brute-force in-memory scan — on a fresh build, after
//!    incremental inserts, and after compaction — for real CLK-encoded
//!    records, across k and thread counts.

use pprl_core::bitvec::BitVec;
use pprl_core::error::PprlError;
use pprl_core::schema::Schema;
use pprl_datagen::generator::{Generator, GeneratorConfig};
use pprl_encoding::encoder::{RecordEncoder, RecordEncoderConfig};
use pprl_index::query::Hit;
use pprl_index::store::{IndexConfig, IndexStore};
use pprl_similarity::bitvec_sim::dice_bits;
use std::path::PathBuf;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pprl-index-it-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Real CLK encodings of synthetic person records (not uniform noise, so
/// popcounts and similarities have realistic structure).
fn clk_filters(n: usize, seed: u64) -> Vec<(u64, BitVec)> {
    let mut g = Generator::new(GeneratorConfig {
        seed,
        corruption_rate: 0.3,
        ..GeneratorConfig::default()
    })
    .expect("generator");
    let schema = Schema::person();
    let encoder = RecordEncoder::new(
        RecordEncoderConfig::person_clk(b"index-it".to_vec()),
        &schema,
    )
    .expect("encoder");
    let mut ds = pprl_core::record::Dataset::new(schema);
    for i in 0..n {
        // Every third record is a corrupted duplicate of an earlier
        // entity, so near-matches exist below the exact-match score.
        let r = if i % 3 == 2 {
            let base = g.entity((i / 3) as u64);
            g.corrupt_record(&base)
        } else {
            g.entity(i as u64)
        };
        ds.push(r).expect("push");
    }
    let encoded = encoder.encode_dataset(&ds).expect("encode");
    encoded
        .records
        .iter()
        .enumerate()
        .map(|(i, r)| (i as u64, r.try_clk().expect("clk").clone()))
        .collect()
}

fn brute_force(records: &[(u64, BitVec)], query: &BitVec, k: usize) -> Vec<Hit> {
    let mut hits: Vec<Hit> = records
        .iter()
        .map(|(id, f)| Hit {
            id: *id,
            score: dice_bits(query, f).expect("dice"),
        })
        .collect();
    hits.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.id.cmp(&b.id)));
    hits.truncate(k);
    hits
}

fn assert_equivalent(store: &IndexStore, records: &[(u64, BitVec)], stage: &str) {
    let reader = store.reader().expect("reader");
    assert_eq!(reader.len(), records.len(), "{stage}: record count");
    for (qi, (_, query)) in records.iter().enumerate().step_by(17) {
        for k in [1, 5, 64, records.len() + 10] {
            let expected = brute_force(records, query, k);
            for threads in [1, 3] {
                let got = reader.top_k(query, k, threads).expect("top_k");
                assert_eq!(
                    got, expected,
                    "{stage}: query {qi}, k={k}, threads={threads}"
                );
            }
        }
    }
}

#[test]
fn top_k_equals_brute_force_fresh_inserted_compacted() {
    let dir = temp_dir("equivalence");
    let filter_len = clk_filters(1, 0)[0].1.len();
    let all = clk_filters(260, 42);

    // Fresh build: one batch, one flush.
    let mut store = IndexStore::create(&dir, IndexConfig::new(filter_len, 8)).expect("create");
    store.insert_batch(&all[..150]).expect("insert");
    store.flush().expect("flush");
    assert_equivalent(&store, &all[..150], "fresh build");

    // Incremental inserts: several small flushed batches plus a pending
    // tail that only lives in the WAL.
    for chunk in all[150..240].chunks(30) {
        store.insert_batch(chunk).expect("insert");
        store.flush().expect("flush");
    }
    store.insert_batch(&all[240..]).expect("insert");
    assert_equivalent(&store, &all, "after incremental inserts");

    // Reopen from disk (WAL replay) — same answers.
    drop(store);
    let mut store = IndexStore::open(&dir).expect("open");
    assert_equivalent(&store, &all, "after reopen");

    // Compaction merges every shard to one segment — same answers.
    let reclaimed = store.compact().expect("compact");
    assert!(
        reclaimed > 0,
        "multiple flushes should leave work to compact"
    );
    assert_equivalent(&store, &all, "after compaction");

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn every_segment_byte_flip_and_truncation_quarantines_and_degrades() {
    let dir = temp_dir("corruption");
    let records = clk_filters(12, 7);
    let filter_len = records[0].1.len();
    let mut store = IndexStore::create(&dir, IndexConfig::new(filter_len, 2)).expect("create");
    store.insert_batch(&records).expect("insert");
    store.flush().expect("flush");
    drop(store);

    let seg_paths: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "seg"))
        .collect();
    assert!(!seg_paths.is_empty());
    let victim = &seg_paths[0];
    let pristine = std::fs::read(victim).unwrap();
    let (_, _, victim_records) =
        pprl_index::segment::verify_segment(&pristine).expect("pristine segment");
    let manifest_path = dir.join("MANIFEST");
    let pristine_manifest = std::fs::read(&manifest_path).unwrap();

    // Opening a store whose segment is damaged quarantines it (moved to
    // quarantine/, recorded in the manifest's health ledger) and serves
    // the survivors — open never returns silently wrong data and never
    // refuses outright. Restore the index between corruptions, since
    // quarantining rewrites the manifest and moves the file.
    let check = |bad: &[u8], what: &str| {
        std::fs::write(&manifest_path, &pristine_manifest).unwrap();
        std::fs::write(victim, bad).unwrap();
        let _ = std::fs::remove_dir_all(dir.join("quarantine"));
        let store = IndexStore::open(&dir).expect(what);
        assert!(store.is_degraded(), "{what}: must be degraded");
        assert_eq!(store.quarantined().len(), 1, "{what}");
        let stats = store.stats().expect(what);
        assert_eq!(stats.quarantined_segments, 1, "{what}");
        assert_eq!(
            stats.persisted_records,
            records.len() - victim_records,
            "{what}: survivors only"
        );
        let reader = store.reader().expect(what);
        assert_eq!(reader.len(), records.len() - victim_records, "{what}");
        assert!(
            dir.join("quarantine")
                .join(victim.file_name().unwrap())
                .exists(),
            "{what}: file moved to quarantine/"
        );
    };

    // Every single-byte flip anywhere in the segment file.
    for pos in 0..pristine.len() {
        let mut bad = pristine.clone();
        bad[pos] ^= 1 << (pos % 8);
        check(&bad, &format!("flip at byte {pos}"));
    }

    // Every truncation length, including the empty file.
    for cut in 0..pristine.len() {
        check(&pristine[..cut], &format!("truncated to {cut}"));
    }

    // Restore the pristine bytes: the store opens healthy again.
    std::fs::write(&manifest_path, &pristine_manifest).unwrap();
    std::fs::write(victim, &pristine).unwrap();
    let _ = std::fs::remove_dir_all(dir.join("quarantine"));
    let store = IndexStore::open(&dir).expect("open");
    assert!(!store.is_degraded());
    let reader = store.reader().expect("reader");
    assert_eq!(reader.len(), records.len());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn manifest_corruption_is_typed_error() {
    let dir = temp_dir("manifest-corruption");
    let records = clk_filters(6, 9);
    let filter_len = records[0].1.len();
    let mut store = IndexStore::create(&dir, IndexConfig::new(filter_len, 2)).expect("create");
    store.insert_batch(&records).expect("insert");
    store.flush().expect("flush");
    drop(store);

    let manifest = dir.join("MANIFEST");
    let pristine = std::fs::read(&manifest).unwrap();
    for pos in [0, pristine.len() / 2, pristine.len() - 1] {
        let mut bad = pristine.clone();
        bad[pos] ^= 0x10;
        std::fs::write(&manifest, &bad).unwrap();
        let err = IndexStore::open(&dir).expect_err(&format!("flip at {pos}"));
        assert!(matches!(err, PprlError::Storage(_)), "byte {pos}: {err}");
    }
    std::fs::write(&manifest, &pristine[..pristine.len() - 3]).unwrap();
    let err = IndexStore::open(&dir).expect_err("truncated manifest");
    assert!(matches!(err, PprlError::Storage(_)), "{err}");
    std::fs::remove_dir_all(&dir).unwrap();
}
