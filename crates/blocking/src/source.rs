//! [`CandidateSource`] adapters for every blocking engine in this crate.
//!
//! Each adapter binds the **target** side (dataset B) at construction and
//! generates candidate pairs for probe batches through the shared
//! [`CandidateSource`] contract, so the pipeline can swap blocking
//! strategies — or the persistent index backend from `pprl-index` —
//! without touching the comparison stage. The adapters delegate to the
//! engine functions in this crate ([`sorted_neighbourhood`],
//! [`CanopyBlocking`], [`MinHashLsh`] / [`HammingLsh`], meta-blocking), so
//! candidate sets are identical to calling the engines directly.
//!
//! [`KeyBlockSource`] is standard blocking itself. It also supports
//! incremental target insertion ([`KeyBlockSource::push_target`]), which
//! is what the streaming linker uses: arriving records probe the source,
//! then join it as targets.

use crate::canopy::CanopyBlocking;
use crate::lsh::{HammingLsh, HammingLshTables, MinHashLsh};
use crate::metablocking::{block_filtering, block_pairs, build_blocks, purge_blocks};
use crate::standard::{full_cross_product, sorted_neighbourhood};
use pprl_core::bitvec::BitVec;
use pprl_core::candidate::{CandidatePair, CandidateSource, Probes, SourceStats};
use pprl_core::error::{PprlError, Result};
use std::collections::HashMap;

/// True for a blocking key carrying no evidence (all separators).
fn is_empty_key(k: &str) -> bool {
    k.chars().all(|c| c == '|')
}

/// The no-blocking baseline: every `(probe, target)` pair.
#[derive(Debug, Default)]
pub struct FullSource {
    target_len: usize,
    stats: SourceStats,
}

impl FullSource {
    /// A source over `target_len` target rows.
    pub fn new(target_len: usize) -> Self {
        FullSource {
            target_len,
            stats: SourceStats::default(),
        }
    }
}

impl CandidateSource for FullSource {
    fn name(&self) -> &'static str {
        "full"
    }

    fn target_len(&self) -> usize {
        self.target_len
    }

    fn candidates(&mut self, probes: &Probes<'_>) -> Result<Vec<CandidatePair>> {
        let pairs = full_cross_product(probes.len(), self.target_len);
        self.stats
            .record_call(probes.len(), self.target_len, pairs.len());
        Ok(pairs)
    }

    fn stats(&self) -> SourceStats {
        self.stats
    }
}

/// Standard key blocking over an (optionally growing) target set:
/// candidates are the pairs with equal, non-empty keys.
///
/// A key is empty when it is all separators; an all-missing key would
/// otherwise create one giant junk block. Targets with an empty key are
/// held only for `target_len` accounting — they never enter a block, and
/// a probe with one gets no candidates.
#[derive(Debug, Default)]
pub struct KeyBlockSource {
    blocks: HashMap<String, Vec<usize>>,
    target_len: usize,
    stats: SourceStats,
}

impl KeyBlockSource {
    /// An empty source; targets arrive via [`KeyBlockSource::push_target`].
    pub fn new() -> Self {
        KeyBlockSource::default()
    }

    /// A source over a fixed target key column (row = position).
    pub fn from_keys(keys_b: &[String]) -> Self {
        let mut source = KeyBlockSource::new();
        for (row, key) in keys_b.iter().enumerate() {
            source.push_target(key, row);
        }
        source
    }

    /// Rebuilds a source from a previously exported block map (used when
    /// restoring a streaming checkpoint).
    pub fn from_parts(blocks: HashMap<String, Vec<usize>>, target_len: usize) -> Self {
        KeyBlockSource {
            blocks,
            target_len,
            stats: SourceStats::default(),
        }
    }

    /// Adds one target row under `key`. Rows need not be contiguous; the
    /// target length becomes `max(target_len, row + 1)`.
    pub fn push_target(&mut self, key: &str, row: usize) {
        self.target_len = self.target_len.max(row + 1);
        if !is_empty_key(key) {
            self.blocks.entry(key.to_string()).or_default().push(row);
        }
    }

    /// The current block map (key → target rows), e.g. for checkpointing.
    pub fn blocks(&self) -> &HashMap<String, Vec<usize>> {
        &self.blocks
    }
}

impl CandidateSource for KeyBlockSource {
    fn name(&self) -> &'static str {
        "standard"
    }

    fn target_len(&self) -> usize {
        self.target_len
    }

    fn candidates(&mut self, probes: &Probes<'_>) -> Result<Vec<CandidatePair>> {
        let keys = probes.require_keys(self.name())?;
        let mut pairs = Vec::new();
        for (i, key) in keys.iter().enumerate() {
            if is_empty_key(key) {
                continue;
            }
            if let Some(rows) = self.blocks.get(key.as_str()) {
                pairs.extend(rows.iter().map(|&j| (i, j)));
            }
        }
        // One block lookup per probe and ascending rows within a block:
        // the list is already sorted and duplicate-free.
        self.stats
            .record_call(keys.len(), self.target_len, pairs.len());
        Ok(pairs)
    }

    fn stats(&self) -> SourceStats {
        self.stats
    }
}

/// Sorted-neighbourhood blocking bound to the target key column.
#[derive(Debug)]
pub struct SortedNeighbourhoodSource {
    keys_b: Vec<String>,
    window: usize,
    stats: SourceStats,
}

impl SortedNeighbourhoodSource {
    /// Validates the window (must be ≥ 2) and binds the target keys.
    pub fn new(keys_b: Vec<String>, window: usize) -> Result<Self> {
        if window < 2 {
            return Err(PprlError::invalid("window", "window must be >= 2"));
        }
        Ok(SortedNeighbourhoodSource {
            keys_b,
            window,
            stats: SourceStats::default(),
        })
    }
}

impl CandidateSource for SortedNeighbourhoodSource {
    fn name(&self) -> &'static str {
        "sorted-neighbourhood"
    }

    fn target_len(&self) -> usize {
        self.keys_b.len()
    }

    fn candidates(&mut self, probes: &Probes<'_>) -> Result<Vec<CandidatePair>> {
        let keys = probes.require_keys(self.name())?;
        let pairs = sorted_neighbourhood(keys, &self.keys_b, self.window)?;
        self.stats
            .record_call(keys.len(), self.keys_b.len(), pairs.len());
        Ok(pairs)
    }

    fn stats(&self) -> SourceStats {
        self.stats
    }
}

/// Canopy clustering bound to the target token sets.
#[derive(Debug)]
pub struct CanopySource {
    canopy: CanopyBlocking,
    tokens_b: Vec<Vec<String>>,
    stats: SourceStats,
}

impl CanopySource {
    /// Binds the canopy parameters and target q-gram token sets.
    pub fn new(canopy: CanopyBlocking, tokens_b: Vec<Vec<String>>) -> Self {
        CanopySource {
            canopy,
            tokens_b,
            stats: SourceStats::default(),
        }
    }
}

impl CandidateSource for CanopySource {
    fn name(&self) -> &'static str {
        "canopy"
    }

    fn target_len(&self) -> usize {
        self.tokens_b.len()
    }

    fn candidates(&mut self, probes: &Probes<'_>) -> Result<Vec<CandidatePair>> {
        let tokens = probes.require_tokens(self.name())?;
        let pairs = self.canopy.candidates(tokens, &self.tokens_b)?;
        self.stats
            .record_call(tokens.len(), self.tokens_b.len(), pairs.len());
        Ok(pairs)
    }

    fn stats(&self) -> SourceStats {
        self.stats
    }
}

/// MinHash-LSH blocking bound to the target signatures.
#[derive(Debug)]
pub struct MinHashLshSource {
    lsh: MinHashLsh,
    signatures_b: Vec<Vec<u64>>,
    stats: SourceStats,
}

impl MinHashLshSource {
    /// Binds the LSH parameters and target MinHash signatures.
    pub fn new(lsh: MinHashLsh, signatures_b: Vec<Vec<u64>>) -> Self {
        MinHashLshSource {
            lsh,
            signatures_b,
            stats: SourceStats::default(),
        }
    }
}

impl CandidateSource for MinHashLshSource {
    fn name(&self) -> &'static str {
        "minhash-lsh"
    }

    fn target_len(&self) -> usize {
        self.signatures_b.len()
    }

    fn candidates(&mut self, probes: &Probes<'_>) -> Result<Vec<CandidatePair>> {
        let signatures = probes.require_signatures(self.name())?;
        let pairs = self.lsh.candidates(signatures, &self.signatures_b)?;
        self.stats
            .record_call(signatures.len(), self.signatures_b.len(), pairs.len());
        Ok(pairs)
    }

    fn stats(&self) -> SourceStats {
        self.stats
    }
}

/// Hamming-LSH blocking bound to the target filters, keyed once.
#[derive(Debug)]
pub struct HammingLshSource {
    tables: HammingLshTables,
    threads: usize,
    stats: SourceStats,
}

impl HammingLshSource {
    /// Binds the LSH parameters and target Bloom filters; binding and
    /// candidate generation use at most `threads` threads.
    pub fn new(lsh: HammingLsh, filters_b: &[&BitVec], threads: usize) -> Result<Self> {
        Ok(HammingLshSource {
            tables: lsh.bind(filters_b, threads)?,
            threads,
            stats: SourceStats::default(),
        })
    }
}

impl CandidateSource for HammingLshSource {
    fn name(&self) -> &'static str {
        "hamming-lsh"
    }

    fn target_len(&self) -> usize {
        self.tables.rows()
    }

    fn candidates(&mut self, probes: &Probes<'_>) -> Result<Vec<CandidatePair>> {
        let filters = probes.require_filters(self.name())?;
        let pairs = self.tables.probe(filters, self.threads)?;
        self.stats
            .record_call(filters.len(), self.tables.rows(), pairs.len());
        Ok(pairs)
    }

    fn stats(&self) -> SourceStats {
        self.stats
    }
}

/// Meta-blocking (purging + block filtering) over the target key column.
#[derive(Debug)]
pub struct MetaBlockSource {
    keys_b: Vec<String>,
    max_block_comparisons: usize,
    keep_per_record: usize,
    stats: SourceStats,
}

impl MetaBlockSource {
    /// Binds the target keys; oversized blocks (more than
    /// `max_block_comparisons` cross comparisons) are purged and each
    /// record keeps only its `keep_per_record` smallest blocks.
    pub fn new(
        keys_b: Vec<String>,
        max_block_comparisons: usize,
        keep_per_record: usize,
    ) -> Result<Self> {
        if max_block_comparisons == 0 || keep_per_record == 0 {
            return Err(PprlError::invalid(
                "max_block_comparisons/keep_per_record",
                "must be positive",
            ));
        }
        Ok(MetaBlockSource {
            keys_b,
            max_block_comparisons,
            keep_per_record,
            stats: SourceStats::default(),
        })
    }
}

impl CandidateSource for MetaBlockSource {
    fn name(&self) -> &'static str {
        "metablocking"
    }

    fn target_len(&self) -> usize {
        self.keys_b.len()
    }

    fn candidates(&mut self, probes: &Probes<'_>) -> Result<Vec<CandidatePair>> {
        let keys = probes.require_keys(self.name())?;
        let blocks = build_blocks(keys, &self.keys_b);
        let blocks = purge_blocks(blocks, self.max_block_comparisons);
        let blocks = block_filtering(blocks, self.keep_per_record);
        let pairs = block_pairs(&blocks);
        self.stats
            .record_call(keys.len(), self.keys_b.len(), pairs.len());
        Ok(pairs)
    }

    fn stats(&self) -> SourceStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::BlockingKey;
    use pprl_core::qgram::{qgram_set, QGramConfig};
    use pprl_core::rng::SplitMix64;

    fn keys(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
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

    #[test]
    fn full_source_is_cross_product() {
        let mut s = FullSource::new(3);
        let ka = keys(&["x", "y"]);
        let probes = Probes {
            keys: Some(&ka),
            ..Probes::default()
        };
        assert_eq!(s.candidates(&probes).unwrap().len(), 6);
        assert_eq!(s.stats().candidates, 6);
        assert_eq!(s.stats().comparisons_saved, 0);
        assert_eq!(s.stats().bytes_read, 0);
    }

    /// The candidates of a [`KeyBlockSource`] over `kb` probed with `ka`.
    fn key_blocks(ka: &[String], kb: &[String]) -> Vec<CandidatePair> {
        let probes = Probes {
            keys: Some(ka),
            ..Probes::default()
        };
        KeyBlockSource::from_keys(kb).candidates(&probes).unwrap()
    }

    #[test]
    fn key_block_source_pairs_equal_keys() {
        let ka = keys(&["s530|", "j520|", "s530|", "|"]);
        let kb = keys(&["s530|", "b600|", "|"]);
        let mut s = KeyBlockSource::from_keys(&kb);
        let probes = Probes {
            keys: Some(&ka),
            ..Probes::default()
        };
        let got = s.candidates(&probes).unwrap();
        assert_eq!(got, vec![(0, 0), (2, 0)]);
        assert_eq!(s.target_len(), 3);
        assert_eq!(s.stats().candidates, got.len());
        assert_eq!(s.stats().comparisons_saved, 4 * 3 - got.len());
    }

    #[test]
    fn key_block_source_excludes_empty_keys() {
        let k = keys(&["||", "s530|"]);
        assert_eq!(key_blocks(&k, &k), vec![(1, 1)]);
    }

    #[test]
    fn key_blocks_reduce_comparisons() {
        // 100 records spread over 10 keys: ~10x reduction vs cross product.
        let k: Vec<String> = (0..100).map(|i| format!("k{}", i % 10)).collect();
        let blocked = key_blocks(&k, &k).len();
        assert_eq!(blocked, 10 * 10 * 10);
        assert!(blocked * 5 < full_cross_product(100, 100).len());
    }

    #[test]
    fn sorted_neighbourhood_catches_what_key_blocks_miss() {
        let ka = keys(&["smith1987"]);
        let kb = keys(&["smith1988"]);
        assert!(key_blocks(&ka, &kb).is_empty());
        let mut s = SortedNeighbourhoodSource::new(kb, 2).unwrap();
        let probes = Probes {
            keys: Some(&ka),
            ..Probes::default()
        };
        assert_eq!(s.candidates(&probes).unwrap(), vec![(0, 0)]);
    }

    #[test]
    fn key_block_source_grows_incrementally() {
        let mut s = KeyBlockSource::new();
        let probe = keys(&["k1|"]);
        let probes = Probes {
            keys: Some(&probe),
            ..Probes::default()
        };
        assert!(s.candidates(&probes).unwrap().is_empty());
        s.push_target("k1|", 0);
        s.push_target("k2|", 1);
        s.push_target("k1|", 2);
        assert_eq!(s.candidates(&probes).unwrap(), vec![(0, 0), (0, 2)]);
        assert_eq!(s.target_len(), 3);
        // Empty keys count toward target_len but never block.
        s.push_target("|", 3);
        assert_eq!(s.target_len(), 4);
        assert_eq!(s.candidates(&probes).unwrap(), vec![(0, 0), (0, 2)]);
    }

    #[test]
    fn sorted_neighbourhood_source_matches_engine() {
        let ka = keys(&["adam", "beth", "carl"]);
        let kb = keys(&["abel", "bert", "carla"]);
        let mut s = SortedNeighbourhoodSource::new(kb.clone(), 3).unwrap();
        let probes = Probes {
            keys: Some(&ka),
            ..Probes::default()
        };
        assert_eq!(
            s.candidates(&probes).unwrap(),
            sorted_neighbourhood(&ka, &kb, 3).unwrap()
        );
        assert!(SortedNeighbourhoodSource::new(kb, 1).is_err());
    }

    #[test]
    fn canopy_source_matches_engine() {
        let cfg = QGramConfig::bigrams();
        let grams = |names: &[&str]| -> Vec<Vec<String>> {
            names.iter().map(|n| qgram_set(n, &cfg)).collect()
        };
        let ta = grams(&["smith", "jones"]);
        let tb = grams(&["smyth", "brown"]);
        let canopy = CanopyBlocking::new(0.3, 0.8, 7).unwrap();
        let mut s = CanopySource::new(canopy.clone(), tb.clone());
        let probes = Probes {
            tokens: Some(&ta),
            ..Probes::default()
        };
        assert_eq!(
            s.candidates(&probes).unwrap(),
            canopy.candidates(&ta, &tb).unwrap()
        );
    }

    #[test]
    fn hamming_lsh_source_matches_engine() {
        let fa = random_filters(20, 128, 1);
        let fb = random_filters(20, 128, 2);
        let lsh = HammingLsh::new(4, 10, 99).unwrap();
        let ra: Vec<&BitVec> = fa.iter().collect();
        let rb: Vec<&BitVec> = fb.iter().collect();
        let mut s = HammingLshSource::new(lsh.clone(), &rb, 2).unwrap();
        let probes = Probes::from_filters(&ra);
        assert_eq!(
            s.candidates(&probes).unwrap(),
            lsh.candidates(&ra, &rb, 1).unwrap()
        );
    }

    #[test]
    fn minhash_source_matches_engine() {
        let sigs = |seed: u64| -> Vec<Vec<u64>> {
            let mut rng = SplitMix64::new(seed);
            (0..10)
                .map(|_| (0..8).map(|_| rng.next_u64() % 4).collect())
                .collect()
        };
        let (sa, sb) = (sigs(1), sigs(2));
        let lsh = MinHashLsh::new(4, 2).unwrap();
        let mut s = MinHashLshSource::new(lsh.clone(), sb.clone());
        let probes = Probes {
            signatures: Some(&sa),
            ..Probes::default()
        };
        assert_eq!(
            s.candidates(&probes).unwrap(),
            lsh.candidates(&sa, &sb).unwrap()
        );
    }

    #[test]
    fn metablocking_source_prunes_junk_blocks() {
        // One giant junk block ("x") and one small informative block.
        let ka: Vec<String> = (0..20)
            .map(|i| if i == 0 { "rare|" } else { "x|" }.to_string())
            .collect();
        let kb = ka.clone();
        let mut s = MetaBlockSource::new(kb, 50, 2).unwrap();
        let probes = Probes {
            keys: Some(&ka),
            ..Probes::default()
        };
        let pairs = s.candidates(&probes).unwrap();
        assert!(pairs.contains(&(0, 0)));
        // The 19×19 junk block exceeds the purge cap and is dropped.
        assert!(pairs.len() < 19 * 19);
        assert!(MetaBlockSource::new(Vec::new(), 0, 2).is_err());
    }

    #[test]
    fn missing_modality_is_typed_error() {
        let mut s = KeyBlockSource::from_keys(&keys(&["a"]));
        let err = s.candidates(&Probes::default()).unwrap_err();
        assert!(matches!(err, PprlError::InvalidParameter { .. }), "{err}");
        let mut s = HammingLshSource::new(HammingLsh::new(2, 4, 1).unwrap(), &[], 1).unwrap();
        assert!(s.candidates(&Probes::default()).is_err());
    }

    #[test]
    fn sources_work_with_extracted_keys() {
        // End-to-end shape check with the real key extractor.
        use pprl_core::record::{Dataset, Record};
        use pprl_core::schema::Schema;
        use pprl_core::value::Value;
        let schema = Schema::person();
        let mut ds = Dataset::new(schema.clone());
        let mut values = vec![Value::Missing; schema.len()];
        values[schema.index_of("last_name").unwrap()] = Value::Text("smith".into());
        ds.push(Record::new(1, values)).unwrap();
        let key = BlockingKey::person_default();
        let kb = key.extract(&ds).unwrap();
        let mut s = KeyBlockSource::from_keys(&kb);
        let probes = Probes {
            keys: Some(&kb),
            ..Probes::default()
        };
        assert_eq!(s.candidates(&probes).unwrap(), vec![(0, 0)]);
    }
}
