//! Internal de-duplication of a single database.
//!
//! §3.4 "matching": it is common practice to de-duplicate each database
//! before cross-database linkage, so the subsequent linking can be
//! one-to-one. This module links a dataset against itself through any
//! [`BlockingChoice`] candidate source — in-memory key blocking by
//! default, or a pre-built persistent index
//! ([`BlockingChoice::Index`]), whose batched columnar scan makes the
//! self-join feasible without rebuilding blocks in RAM — restricts the
//! pairs to the upper triangle, clusters the duplicates, and can
//! materialise a de-duplicated dataset keeping one representative per
//! cluster.

use crate::batch::{build_source, probe_modalities, score_pairs, BlockingChoice};
use pprl_blocking::keys::BlockingKey;
use pprl_core::candidate::Probes;
use pprl_core::error::Result;
use pprl_core::record::{Dataset, RecordRef};
use pprl_encoding::encoder::{RecordEncoder, RecordEncoderConfig};
use pprl_matching::clustering::connected_components;

/// Configuration for de-duplication.
#[derive(Debug, Clone)]
pub struct DedupConfig {
    /// Encoder (the dataset owner can use any key; this runs locally).
    pub encoder: RecordEncoderConfig,
    /// Candidate source bounding the quadratic self-join. An
    /// [`BlockingChoice::Index`] choice probes a pre-built persistent
    /// index of this same dataset (`id = row`, same encoder key).
    pub blocking: BlockingChoice,
    /// Dice duplicate threshold.
    pub threshold: f64,
    /// Thread cap for scoring the candidates and for the index-backed
    /// and Hamming-LSH sources (the other in-memory sources run on the
    /// caller alone).
    pub threads: usize,
}

impl DedupConfig {
    /// Defaults for the person schema: key blocking, threshold 0.85.
    pub fn standard() -> Self {
        DedupConfig {
            encoder: RecordEncoderConfig::person_clk(b"local-dedup".to_vec()),
            blocking: BlockingChoice::Standard(BlockingKey::person_default()),
            threshold: 0.85,
            threads: 1,
        }
    }
}

/// Result of a de-duplication pass.
#[derive(Debug, Clone)]
pub struct DedupOutcome {
    /// Duplicate clusters (row indices), each with ≥ 2 members.
    pub clusters: Vec<Vec<usize>>,
    /// Pairwise duplicate links found.
    pub pairs: Vec<(usize, usize, f64)>,
    /// Comparisons computed.
    pub comparisons: usize,
}

impl DedupOutcome {
    /// Rows to drop so one representative (the smallest row index) remains
    /// per cluster.
    pub fn rows_to_drop(&self) -> Vec<usize> {
        let mut drop = Vec::new();
        for c in &self.clusters {
            for &row in &c[1..] {
                drop.push(row);
            }
        }
        drop.sort_unstable();
        drop
    }
}

/// Finds duplicate clusters within `dataset`.
pub fn deduplicate(dataset: &Dataset, config: &DedupConfig) -> Result<DedupOutcome> {
    let encoder = RecordEncoder::new(config.encoder.clone(), dataset.schema())?;
    let encoded = encoder.encode_dataset(dataset)?;
    let filters = encoded.clks()?;

    // Self-join through the candidate source: probe the blocked dataset
    // with itself. Sources may emit self-pairs and both orientations of a
    // pair (an index backend returns each probe's top-k, which includes
    // the probe itself at score 1.0); normalise to the upper triangle.
    let mut source = build_source(
        dataset,
        &filters,
        &config.blocking,
        config.threshold,
        config.threads,
    )?;
    let (probe_keys, probe_tokens) = probe_modalities(dataset, &config.blocking)?;
    let probes = Probes {
        filters: Some(&filters),
        keys: probe_keys.as_deref(),
        tokens: probe_tokens.as_deref(),
        signatures: None,
    };
    let mut candidates: Vec<(usize, usize)> = source
        .candidates(&probes)?
        .into_iter()
        .filter(|&(i, j)| i != j)
        .map(|(i, j)| (i.min(j), i.max(j)))
        .collect();
    candidates.sort_unstable();
    candidates.dedup();

    let scored = score_pairs(
        &filters,
        &filters,
        &candidates,
        config.threshold,
        config.threads,
    )?;
    let pairs: Vec<(usize, usize, f64)> = scored
        .matches
        .iter()
        .map(|m| (m.a, m.b, m.similarity))
        .collect();

    // Cluster duplicates transitively.
    let edges: Vec<(RecordRef, RecordRef, f64)> = pairs
        .iter()
        .map(|&(i, j, s)| (RecordRef::new(0, i), RecordRef::new(0, j), s))
        .collect();
    let clusters: Vec<Vec<usize>> = connected_components(&edges, config.threshold)?
        .into_iter()
        .map(|c| c.into_iter().map(|r| r.row).collect())
        .collect();
    Ok(DedupOutcome {
        clusters,
        pairs,
        comparisons: scored.comparisons,
    })
}

/// Materialises the de-duplicated dataset (one representative per cluster).
pub fn deduplicated_dataset(dataset: &Dataset, outcome: &DedupOutcome) -> Result<Dataset> {
    let drop: std::collections::HashSet<usize> = outcome.rows_to_drop().into_iter().collect();
    let records = dataset
        .records()
        .iter()
        .enumerate()
        .filter(|(i, _)| !drop.contains(i))
        .map(|(_, r)| r.clone())
        .collect();
    Dataset::from_records(dataset.schema().clone(), records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::IndexSourceConfig;
    use pprl_datagen::generator::{Generator, GeneratorConfig};
    use pprl_index::store::{IndexConfig, IndexStore};
    use pprl_similarity::bitvec_sim::dice_bits;
    use std::collections::HashMap;

    fn dirty_dataset(seed: u64) -> Dataset {
        let mut g = Generator::new(GeneratorConfig {
            corruption_rate: 0.1,
            seed,
            ..GeneratorConfig::default()
        })
        .expect("valid");
        g.with_duplicates(80, 0.4).expect("valid")
    }

    #[test]
    fn finds_injected_duplicates() {
        let ds = dirty_dataset(1);
        let out = deduplicate(&ds, &DedupConfig::standard()).unwrap();
        // Count true duplicate pairs (same entity, different rows).
        let truth: usize = {
            let mut by_entity: HashMap<u64, usize> = HashMap::new();
            for r in ds.records() {
                *by_entity.entry(r.entity_id).or_insert(0) += 1;
            }
            by_entity.values().map(|&c| c * (c - 1) / 2).sum()
        };
        let correct = out
            .pairs
            .iter()
            .filter(|&&(i, j, _)| ds.records()[i].entity_id == ds.records()[j].entity_id)
            .count();
        assert!(truth > 0, "generator should have produced duplicates");
        assert!(
            correct as f64 / truth as f64 > 0.6,
            "dedup recall {correct}/{truth}"
        );
        let precision = correct as f64 / out.pairs.len().max(1) as f64;
        assert!(precision > 0.9, "dedup precision {precision}");
    }

    #[test]
    fn blocking_bounds_self_join() {
        let ds = dirty_dataset(2);
        let out = deduplicate(&ds, &DedupConfig::standard()).unwrap();
        let n = ds.len();
        assert!(
            out.comparisons < n * (n - 1) / 8,
            "comparisons {}",
            out.comparisons
        );
    }

    #[test]
    fn index_backed_dedup_finds_every_thresholded_pair() {
        let ds = dirty_dataset(9);
        let config = DedupConfig::standard();
        // Build a persistent index of the dataset's own encoded filters
        // (id = row, same encoder key).
        let dir = std::env::temp_dir().join("pprl-dedup-index-test");
        let _ = std::fs::remove_dir_all(&dir);
        let encoder = RecordEncoder::new(config.encoder.clone(), ds.schema()).unwrap();
        let encoded = encoder.encode_dataset(&ds).unwrap();
        let filters = encoded.clks().unwrap();
        let mut store = IndexStore::create(&dir, IndexConfig::new(filters[0].len(), 4)).unwrap();
        let records: Vec<(u64, pprl_core::bitvec::BitVec)> = filters
            .iter()
            .enumerate()
            .map(|(i, f)| (i as u64, (*f).clone()))
            .collect();
        store.insert_batch(&records).unwrap();
        store.flush().unwrap();
        drop(store);

        // top_k covering the whole population: the index self-join is the
        // exact thresholded cross product, so its pairs must equal brute
        // force and form a superset of the key-blocked run's pairs.
        let indexed = deduplicate(
            &ds,
            &DedupConfig {
                blocking: BlockingChoice::Index(IndexSourceConfig {
                    dir: dir.clone(),
                    top_k: ds.len(),
                }),
                threads: 2,
                ..config.clone()
            },
        )
        .unwrap();
        let mut brute = Vec::new();
        for i in 0..filters.len() {
            for j in (i + 1)..filters.len() {
                let s = dice_bits(filters[i], filters[j]).unwrap();
                if s >= config.threshold {
                    brute.push((i, j, s));
                }
            }
        }
        assert_eq!(indexed.pairs, brute);
        let blocked = deduplicate(&ds, &config).unwrap();
        let indexed_set: std::collections::HashSet<(usize, usize)> =
            indexed.pairs.iter().map(|&(i, j, _)| (i, j)).collect();
        for (i, j, _) in &blocked.pairs {
            assert!(indexed_set.contains(&(*i, *j)), "({i},{j}) missing");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Candidates are scored on the shared pairwise scorer: at 1 and 4
    /// threads its pairs and scores equal a `dice_bits` scan of the same
    /// candidates (a full self-join, so every pair is a candidate).
    #[test]
    fn pairs_and_scores_equal_a_dice_bits_scan_at_any_thread_cap() {
        let ds = dirty_dataset(5);
        let config = DedupConfig {
            blocking: BlockingChoice::Full,
            ..DedupConfig::standard()
        };
        let encoder = RecordEncoder::new(config.encoder.clone(), ds.schema()).unwrap();
        let encoded = encoder.encode_dataset(&ds).unwrap();
        let filters = encoded.clks().unwrap();
        let mut want = Vec::new();
        for i in 0..filters.len() {
            for j in (i + 1)..filters.len() {
                let s = dice_bits(filters[i], filters[j]).unwrap();
                if s >= config.threshold {
                    want.push((i, j, s.to_bits()));
                }
            }
        }
        assert!(!want.is_empty(), "the dataset holds duplicates");
        for threads in [1, 4] {
            let out = deduplicate(
                &ds,
                &DedupConfig {
                    threads,
                    ..config.clone()
                },
            )
            .unwrap();
            let got: Vec<_> = out
                .pairs
                .iter()
                .map(|&(i, j, s)| (i, j, s.to_bits()))
                .collect();
            assert_eq!(got, want, "{threads} threads");
            assert_eq!(out.comparisons, ds.len() * (ds.len() - 1) / 2);
        }
    }

    #[test]
    fn deduplicated_dataset_shrinks_and_keeps_entities() {
        let ds = dirty_dataset(3);
        let out = deduplicate(&ds, &DedupConfig::standard()).unwrap();
        let clean = deduplicated_dataset(&ds, &out).unwrap();
        assert!(clean.len() < ds.len());
        // every original entity still represented
        let before: std::collections::HashSet<u64> =
            ds.records().iter().map(|r| r.entity_id).collect();
        let after: std::collections::HashSet<u64> =
            clean.records().iter().map(|r| r.entity_id).collect();
        assert_eq!(before, after);
    }

    #[test]
    fn clean_dataset_untouched() {
        let mut g = Generator::new(GeneratorConfig {
            corruption_rate: 0.0,
            seed: 4,
            ..GeneratorConfig::default()
        })
        .expect("valid");
        let ds = g.with_duplicates(60, 0.0).expect("valid");
        let out = deduplicate(&ds, &DedupConfig::standard()).unwrap();
        assert!(out.clusters.is_empty());
        assert_eq!(deduplicated_dataset(&ds, &out).unwrap().len(), 60);
    }

    #[test]
    fn rows_to_drop_keeps_first_member() {
        let outcome = DedupOutcome {
            clusters: vec![vec![1, 5, 9], vec![2, 3]],
            pairs: vec![],
            comparisons: 0,
        };
        assert_eq!(outcome.rows_to_drop(), vec![3, 5, 9]);
    }
}
