//! The persistent index as a first-class linkage backend.
//!
//! [`IndexBackend`] adapts an on-disk [`IndexStore`] to the
//! [`CandidateSource`] trait, so a batch linkage run can probe a
//! pre-built index instead of rebuilding in-memory blocks per run.
//! Stored record ids are interpreted as target row numbers — an index
//! built by inserting dataset B row-by-row (`id = row`) yields pairs
//! directly comparable to any in-memory source over the same dataset.
//!
//! Candidates come from the exact batched top-k Dice engine
//! ([`IndexReader::top_k_batch`]): each probe batch walks the columnar
//! arenas once for all probes together, and the `min_score` bound is
//! pushed down so a segment no probe can reach (by popcount or band-key
//! summary) is never read from disk at all. Because the engine is exact,
//! the emitted pairs are precisely the k nearest stored records per
//! probe at or above the threshold — no false dismissals within k.

use crate::query::IndexReader;
use crate::store::{IndexStore, ReadStats};
use pprl_core::candidate::{CandidatePair, CandidateSource, Probes, SourceStats};
use pprl_core::error::{PprlError, Result};
use std::path::Path;

/// A [`CandidateSource`] over a persistent [`IndexStore`].
#[derive(Debug)]
pub struct IndexBackend {
    reader: IndexReader,
    target_len: usize,
    top_k: usize,
    min_score: f64,
    threads: usize,
    stats: SourceStats,
}

impl IndexBackend {
    /// Opens the index at `dir` as a candidate source emitting up to
    /// `top_k` neighbours per probe with Dice score ≥ `min_score`,
    /// scanning with at most `threads` threads (a cap; 0 fails the first
    /// probe batch). Segment files load lazily, on the first probe batch
    /// that actually needs them.
    pub fn open(dir: &Path, top_k: usize, min_score: f64, threads: usize) -> Result<IndexBackend> {
        if top_k == 0 {
            return Err(PprlError::invalid("top_k", "must be at least 1"));
        }
        if !(0.0..=1.0).contains(&min_score) {
            return Err(PprlError::invalid("min_score", "must be in [0, 1]"));
        }
        let store = IndexStore::open(dir)?;
        let target_len = store.record_count()?;
        let reader = store.lazy_reader()?;
        let stats = SourceStats {
            degraded: reader.is_degraded(),
            quarantined_segments: reader.quarantined_segments(),
            ..SourceStats::default()
        };
        Ok(IndexBackend {
            reader,
            target_len,
            top_k,
            min_score,
            threads,
            stats,
        })
    }

    /// True when segments were quarantined at open: candidates are exact
    /// over the surviving records only.
    pub fn is_degraded(&self) -> bool {
        self.stats.degraded
    }

    /// What the backend has read from (and pruned out of) storage so far.
    pub fn read_stats(&self) -> ReadStats {
        self.reader.read_stats()
    }
}

impl CandidateSource for IndexBackend {
    fn name(&self) -> &'static str {
        "index"
    }

    fn target_len(&self) -> usize {
        self.target_len
    }

    fn candidates(&mut self, probes: &Probes<'_>) -> Result<Vec<CandidatePair>> {
        let filters = probes.require_filters("index backend")?;
        if filters.is_empty() {
            return Ok(Vec::new());
        }
        let per_probe =
            self.reader
                .top_k_batch(filters, self.top_k, self.threads, Some(self.min_score))?;
        let mut pairs = Vec::new();
        for (row, hits) in per_probe.into_iter().enumerate() {
            pairs.extend(hits.into_iter().map(|hit| (row, hit.id as usize)));
        }
        pairs.sort_unstable();
        pairs.dedup();
        self.stats
            .record_call(filters.len(), self.target_len, pairs.len());
        self.stats.bytes_read = self.reader.read_stats().bytes_read;
        Ok(pairs)
    }

    fn stats(&self) -> SourceStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::IndexConfig;
    use pprl_core::bitvec::BitVec;
    use pprl_core::rng::SplitMix64;
    use pprl_similarity::bitvec_sim::dice_bits;
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pprl-index-backend-{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn random_filters(n: usize, len: usize, seed: u64) -> Vec<BitVec> {
        let mut rng = SplitMix64::new(seed);
        (0..n)
            .map(|_| {
                let ones: Vec<usize> = (0..len)
                    .filter(|_| rng.next_u64().is_multiple_of(4))
                    .collect();
                BitVec::from_positions(len, &ones).unwrap()
            })
            .collect()
    }

    fn build_index(dir: &Path, filters: &[BitVec]) {
        let mut store = IndexStore::create(dir, IndexConfig::new(128, 2)).unwrap();
        let records: Vec<(u64, BitVec)> = filters
            .iter()
            .enumerate()
            .map(|(i, f)| (i as u64, f.clone()))
            .collect();
        store.insert_batch(&records).unwrap();
        store.flush().unwrap();
    }

    #[test]
    fn emits_exact_top_k_above_threshold() {
        let dir = temp_dir("topk");
        let targets = random_filters(60, 128, 9);
        build_index(&dir, &targets);
        let probe_owned = random_filters(5, 128, 31);
        let probe_refs: Vec<&BitVec> = probe_owned.iter().collect();
        let mut backend = IndexBackend::open(&dir, 3, 0.2, 2).unwrap();
        assert_eq!(backend.name(), "index");
        assert_eq!(backend.target_len(), 60);
        let pairs = backend
            .candidates(&Probes::from_filters(&probe_refs))
            .unwrap();
        // Reference: brute-force top-3 per probe at the threshold.
        let mut expected = Vec::new();
        for (row, probe) in probe_owned.iter().enumerate() {
            let mut scored: Vec<(usize, f64)> = targets
                .iter()
                .enumerate()
                .map(|(t, f)| (t, dice_bits(probe, f).unwrap()))
                .collect();
            scored.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
            expected.extend(
                scored
                    .into_iter()
                    .take(3)
                    .filter(|(_, s)| *s >= 0.2)
                    .map(|(t, _)| (row, t)),
            );
        }
        expected.sort_unstable();
        assert_eq!(pairs, expected);
        let stats = backend.stats();
        assert_eq!(stats.candidates, pairs.len());
        assert_eq!(stats.comparisons_saved, 5 * 60 - pairs.len());
        assert!(stats.bytes_read > 0, "disk-backed source reports bytes");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_filters_is_typed_error_and_params_validated() {
        let dir = temp_dir("params");
        build_index(&dir, &random_filters(4, 128, 1));
        let err = IndexBackend::open(&dir, 0, 0.5, 1).unwrap_err();
        assert!(matches!(err, PprlError::InvalidParameter { .. }), "{err}");
        let err = IndexBackend::open(&dir, 5, 1.5, 1).unwrap_err();
        assert!(matches!(err, PprlError::InvalidParameter { .. }), "{err}");
        let mut backend = IndexBackend::open(&dir, 5, 0.5, 1).unwrap();
        let keys = vec!["k".to_string()];
        let probes = Probes {
            keys: Some(&keys),
            ..Probes::default()
        };
        let err = backend.candidates(&probes).unwrap_err();
        assert!(matches!(err, PprlError::InvalidParameter { .. }), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lazy_reader_loads_only_segments_probes_can_reach() {
        let dir = temp_dir("lazy");
        // Sparse and dense targets land in segments with disjoint bounds.
        let mut targets = Vec::new();
        for i in 0..6usize {
            targets
                .push(BitVec::from_positions(128, &[(i * 7) % 128, (i * 11 + 1) % 128]).unwrap());
        }
        for i in 0..6usize {
            let ones: Vec<usize> = (0..60).map(|k| (k * 2 + i) % 128).collect();
            targets.push(BitVec::from_positions(128, &ones).unwrap());
        }
        // Two flushes so sparse and dense records sit in different segments.
        let mut store = IndexStore::create(&dir, IndexConfig::new(128, 1)).unwrap();
        let recs: Vec<(u64, BitVec)> = targets
            .iter()
            .enumerate()
            .map(|(i, f)| (i as u64, f.clone()))
            .collect();
        store.insert_batch(&recs[..6]).unwrap();
        store.flush().unwrap();
        store.insert_batch(&recs[6..]).unwrap();
        store.flush().unwrap();
        drop(store);

        let mut backend = IndexBackend::open(&dir, 2, 0.6, 1).unwrap();
        assert_eq!(
            backend.read_stats().segments_read,
            0,
            "opening reads no segments"
        );
        // A sparse probe cannot reach the dense segment at 0.6: it stays
        // unread on disk.
        let sparse = BitVec::from_positions(128, &[0, 12]).unwrap();
        let refs = vec![&sparse];
        backend.candidates(&Probes::from_filters(&refs)).unwrap();
        assert_eq!(backend.read_stats().segments_skipped, 1);
        assert_eq!(backend.read_stats().segments_read, 1);
        let bytes_after_first = backend.read_stats().bytes_read;
        // A dense probe needs the dense segment, which loads on demand.
        let ones: Vec<usize> = (0..60).map(|k| k * 2 % 128).collect();
        let dense = BitVec::from_positions(128, &ones).unwrap();
        let refs = vec![&dense];
        let pairs = backend.candidates(&Probes::from_filters(&refs)).unwrap();
        assert!(!pairs.is_empty(), "dense probe finds dense targets");
        assert!(backend.read_stats().bytes_read > bytes_after_first);
        assert_eq!(backend.read_stats().segments_skipped, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
