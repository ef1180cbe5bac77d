//! Cross-backend equivalence of the batch pipeline.
//!
//! The `CandidateSource` contract promises that backends differ only in
//! *which* candidate pairs they surface — scoring is always the same
//! `dice_bits` over the same encoded filters. These tests pin the two
//! equivalences the persistent index backend is designed around:
//!
//! 1. With `top_k ≥ |B|`, the index backend's candidate set is complete
//!    at the pipeline threshold, so its match list is identical — scores
//!    bit-for-bit — to exhaustive (full) in-memory linkage.
//! 2. A Hamming-LSH configuration with enough tables recovers the same
//!    match set, which ties the in-memory approximate path to the index
//!    path on real CLK-encoded GeCo-style records.
//!
//! Both properties are checked across several generator seeds and thread
//! counts (the threaded run also exercises sub-shard query splitting).

use pprl_blocking::lsh::HammingLsh;
use pprl_core::record::Dataset;
use pprl_encoding::encoder::RecordEncoder;
use pprl_index::store::{IndexConfig, IndexStore};
use pprl_pipeline::batch::{link, BlockingChoice, IndexSourceConfig, PipelineConfig};
use std::path::{Path, PathBuf};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pprl-pipeline-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn dataset_pair(seed: u64) -> (Dataset, Dataset) {
    let mut g = pprl_datagen::generator::Generator::new(pprl_datagen::generator::GeneratorConfig {
        seed,
        corruption_rate: 0.15,
        ..pprl_datagen::generator::GeneratorConfig::default()
    })
    .expect("generator");
    g.dataset_pair(140, 130, 45).expect("pair")
}

/// Builds a persistent index over dataset B's CLKs with `id = row`,
/// split across several flushes so multiple segments (and WAL-pending
/// records) exist.
fn build_index(dir: &Path, b: &Dataset, config: &PipelineConfig) -> usize {
    let encoder = RecordEncoder::new(config.encoder.clone(), b.schema()).expect("encoder");
    let encoded = encoder.encode_dataset(b).expect("encode");
    let filters = encoded.clks().expect("clks");
    let records: Vec<(u64, pprl_core::bitvec::BitVec)> = filters
        .iter()
        .enumerate()
        .map(|(row, f)| (row as u64, (*f).clone()))
        .collect();
    let mut store = IndexStore::create(dir, IndexConfig::new(filters[0].len(), 4)).expect("create");
    let mid = records.len() / 2;
    store.insert_batch(&records[..mid]).expect("insert");
    store.flush().expect("flush");
    store
        .insert_batch(&records[mid..records.len() - 10])
        .expect("insert");
    store.flush().expect("flush");
    // Leave a pending tail in the WAL: readers must include it.
    store
        .insert_batch(&records[records.len() - 10..])
        .expect("insert");
    records.len()
}

#[test]
fn index_backend_matches_exhaustive_linkage_bit_for_bit() {
    for seed in [11, 29, 47] {
        let (a, b) = dataset_pair(seed);
        let mut cfg = PipelineConfig::standard(b"equiv-key".to_vec()).unwrap();
        let dir = temp_dir(&format!("exhaustive-{seed}"));
        build_index(&dir, &b, &cfg);

        cfg.blocking = BlockingChoice::Full;
        let full = link(&a, &b, &cfg).unwrap();

        for threads in [1, 8] {
            cfg.threads = threads;
            cfg.blocking = BlockingChoice::Index(IndexSourceConfig {
                dir: dir.clone(),
                top_k: b.len(),
            });
            let idx = link(&a, &b, &cfg).unwrap();
            assert_eq!(
                idx.matches, full.matches,
                "seed {seed}, threads {threads}: match lists must be identical \
                 (scores bit-for-bit)"
            );
            assert_eq!(idx.source, "index");
            assert!(idx.source_stats.bytes_read > 0, "index reads from disk");
            assert!(
                idx.candidates < full.candidates,
                "top-k at the threshold prunes the cross product"
            );
            assert!(idx.source_stats.comparisons_saved > 0);
        }
        assert_eq!(full.source_stats.bytes_read, 0, "in-memory source");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn hlsh_with_enough_tables_matches_index_backend() {
    // 64 tables of 8-bit keys: a pair at Dice ≥ 0.8 collides in at least
    // one table except with probability ~(1 − 0.3)^64 — never observed
    // across these fixed seeds, making the test deterministic.
    for seed in [5, 23] {
        let (a, b) = dataset_pair(seed);
        let mut cfg = PipelineConfig::standard(b"equiv-key".to_vec()).unwrap();
        let dir = temp_dir(&format!("hlsh-{seed}"));
        build_index(&dir, &b, &cfg);

        cfg.blocking = BlockingChoice::Lsh(HammingLsh::new(64, 8, 0xfeed).unwrap());
        let lsh = link(&a, &b, &cfg).unwrap();

        cfg.blocking = BlockingChoice::Index(IndexSourceConfig {
            dir: dir.clone(),
            top_k: b.len(),
        });
        let idx = link(&a, &b, &cfg).unwrap();

        assert_eq!(
            idx.matches, lsh.matches,
            "seed {seed}: index-backed linkage must reproduce the in-memory \
             HLSH match set with bit-identical scores"
        );
        assert!(lsh.candidates > 0 && idx.candidates > 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
