//! The end-to-end batch PPRL pipeline.
//!
//! Composes the full process described in the paper's Overview: encode →
//! block → compare → classify (→ one-to-one assign), with every stage
//! configurable and instrumented. This is the high-level API the examples
//! and experiment harness use.
//!
//! Candidate generation goes through the [`CandidateSource`] trait: every
//! [`BlockingChoice`] builds a source bound to dataset B (or, for
//! [`BlockingChoice::Index`], to a pre-built persistent index on disk —
//! no per-run in-memory block rebuild), and the pipeline probes it with
//! dataset A. Scores are always recomputed from the encoded filters with
//! the arithmetic of `dice_bits` (each filter's popcount taken once, one
//! AND-popcount per pair), so the match scores are bit-identical across
//! backends that emit the same candidate pairs.
//!
//! Every heavy stage runs on the elastic [`runner`], capped at
//! [`PipelineConfig::threads`]: encoding A and B (tasks of
//! `ENCODE_ROWS` rows, token and value memos per thread, hardening nonces by
//! global row), Hamming-LSH keying, map build, join and merge, the index
//! scan and comparison. The caller works through each stage's tasks and
//! borrows only cores the process-wide foreground gauge shows idle;
//! outputs are stitched in task order, so a result is bit-identical at
//! any cap.

use pprl_blocking::canopy::CanopyBlocking;
use pprl_blocking::engine::{compare_pairs_parallel, CompareOutcome};
use pprl_blocking::keys::BlockingKey;
use pprl_blocking::lsh::HammingLsh;
use pprl_blocking::source::{
    CanopySource, FullSource, HammingLshSource, KeyBlockSource, MetaBlockSource,
    SortedNeighbourhoodSource,
};
use pprl_core::bitvec::BitVec;
use pprl_core::candidate::{CandidatePair, CandidateSource, Probes, SourceStats};
use pprl_core::error::{PprlError, Result};
use pprl_core::gauge;
use pprl_core::json::Json;
use pprl_core::qgram::{qgram_set, QGramConfig};
use pprl_core::record::Dataset;
use pprl_core::runner;
use pprl_core::value::Value;
use pprl_encoding::encoder::{EncodedDataset, RecordEncoder, RecordEncoderConfig};
use pprl_index::backend::IndexBackend;
use pprl_matching::assignment::greedy_one_to_one;
use pprl_similarity::kernel::{and_count, dice_from_counts};
use std::path::PathBuf;

/// Linking against a pre-built persistent index (see `pprl-index`).
#[derive(Debug, Clone)]
pub struct IndexSourceConfig {
    /// Index directory (as produced by `pprl index build`).
    pub dir: PathBuf,
    /// Neighbours fetched per probe record. Candidates are the exact
    /// top-k stored records per probe with Dice ≥ the pipeline threshold;
    /// `top_k ≥` the stored population makes the candidate set complete.
    pub top_k: usize,
}

/// Blocking strategy of the pipeline.
#[derive(Debug, Clone)]
pub enum BlockingChoice {
    /// No blocking: all |A|·|B| pairs.
    Full,
    /// Standard key blocking.
    Standard(BlockingKey),
    /// Sorted neighbourhood with a window.
    SortedNeighbourhood(BlockingKey, usize),
    /// Hamming LSH over the encoded filters.
    Lsh(HammingLsh),
    /// Canopy clustering over q-gram token sets of the text fields.
    Canopy(CanopyBlocking),
    /// Standard key blocking refined by meta-blocking (block purging +
    /// per-record block filtering).
    Metablocked {
        /// Blocking key.
        key: BlockingKey,
        /// Purge blocks above this many cross comparisons.
        max_block_comparisons: usize,
        /// Blocks each record keeps (smallest first).
        keep_per_record: usize,
    },
    /// A pre-built persistent index as the target population.
    Index(IndexSourceConfig),
}

/// Pipeline configuration.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Record encoder (shared key between the parties).
    pub encoder: RecordEncoderConfig,
    /// Blocking strategy.
    pub blocking: BlockingChoice,
    /// Dice match threshold.
    pub threshold: f64,
    /// Enforce one-to-one matching (greedy post-processing).
    pub one_to_one: bool,
    /// Most threads one run may use: its caller plus helpers borrowed
    /// while a core is idle (1 = the caller alone; 0 is an error).
    /// Results do not depend on it.
    pub threads: usize,
}

impl PipelineConfig {
    /// Sensible defaults: person CLK with the given key, LSH blocking,
    /// threshold 0.8, one-to-one, and a thread cap of every core.
    pub fn standard(shared_key: impl Into<Vec<u8>>) -> Result<Self> {
        Ok(PipelineConfig {
            encoder: RecordEncoderConfig::person_clk(shared_key.into()),
            blocking: BlockingChoice::Lsh(HammingLsh::new(16, 24, 0x1234)?),
            threshold: 0.8,
            one_to_one: true,
            threads: gauge::cores(),
        })
    }
}

/// Instrumented result of a pipeline run.
#[derive(Debug, Clone)]
pub struct LinkageResult {
    /// Final match pairs `(row_a, row_b, similarity)`.
    pub matches: Vec<(usize, usize, f64)>,
    /// Candidate pairs after blocking.
    pub candidates: usize,
    /// Similarity comparisons computed.
    pub comparisons: usize,
    /// Name of the candidate source that generated the pairs.
    pub source: &'static str,
    /// The source's own accounting (candidates, comparisons saved
    /// relative to the cross product, bytes read from storage).
    pub source_stats: SourceStats,
}

impl LinkageResult {
    /// The match pairs without scores.
    pub fn pairs(&self) -> Vec<(usize, usize)> {
        self.matches.iter().map(|&(a, b, _)| (a, b)).collect()
    }

    /// Machine-readable run summary (the same shape the CLI's `--json`
    /// flag emits), including per-source statistics for backend
    /// comparisons.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("source".into(), Json::str(self.source)),
            ("matches".into(), Json::num(self.matches.len() as f64)),
            ("candidates".into(), Json::num(self.candidates as f64)),
            ("comparisons".into(), Json::num(self.comparisons as f64)),
            (
                "comparisons_saved".into(),
                Json::num(self.source_stats.comparisons_saved as f64),
            ),
            (
                "bytes_read".into(),
                Json::num(self.source_stats.bytes_read as f64),
            ),
            (
                "pairs".into(),
                Json::Arr(
                    self.matches
                        .iter()
                        .map(|&(a, b, s)| {
                            Json::Arr(vec![Json::num(a as f64), Json::num(b as f64), Json::num(s)])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Sorted, deduplicated bigram token set per record, over every text
/// field (the canopy similarity space).
pub(crate) fn record_tokens(dataset: &Dataset) -> Vec<Vec<String>> {
    let cfg = QGramConfig::bigrams();
    dataset
        .records()
        .iter()
        .map(|r| {
            let text: Vec<&str> = r
                .values
                .iter()
                .filter_map(|v| match v {
                    Value::Text(s) | Value::Categorical(s) => Some(s.as_str()),
                    _ => None,
                })
                .collect();
            qgram_set(&text.join(" "), &cfg)
        })
        .collect()
}

/// Builds the candidate source for `blocking`, bound to dataset `b` (or
/// to the configured persistent index, which must hold dataset B's
/// encoded filters with `id = row`). `threshold` only matters to the
/// index backend, which pushes the score bound down into the scan;
/// `threads` caps the Hamming-LSH and index sources' runner calls.
pub fn build_source(
    b: &Dataset,
    filters_b: &[&BitVec],
    blocking: &BlockingChoice,
    threshold: f64,
    threads: usize,
) -> Result<Box<dyn CandidateSource>> {
    Ok(match blocking {
        BlockingChoice::Full => Box::new(FullSource::new(b.len())),
        BlockingChoice::Standard(key) => Box::new(KeyBlockSource::from_keys(&key.extract(b)?)),
        BlockingChoice::SortedNeighbourhood(key, window) => {
            Box::new(SortedNeighbourhoodSource::new(key.extract(b)?, *window)?)
        }
        BlockingChoice::Lsh(lsh) => {
            Box::new(HammingLshSource::new(lsh.clone(), filters_b, threads)?)
        }
        BlockingChoice::Canopy(canopy) => {
            Box::new(CanopySource::new(canopy.clone(), record_tokens(b)))
        }
        BlockingChoice::Metablocked {
            key,
            max_block_comparisons,
            keep_per_record,
        } => Box::new(MetaBlockSource::new(
            key.extract(b)?,
            *max_block_comparisons,
            *keep_per_record,
        )?),
        BlockingChoice::Index(index) => Box::new(IndexBackend::open(
            &index.dir,
            index.top_k,
            threshold,
            threads,
        )?),
    })
}

/// Per-record blocking keys and q-gram token sets, either absent when
/// the chosen blocking does not consume that modality.
pub(crate) type ProbeModalities = (Option<Vec<String>>, Option<Vec<Vec<String>>>);

/// The probe modalities `blocking` consumes from dataset `a`: blocking
/// keys for the key-based choices, q-gram token sets for canopy, nothing
/// extra otherwise (filters are always probed separately).
pub(crate) fn probe_modalities(a: &Dataset, blocking: &BlockingChoice) -> Result<ProbeModalities> {
    let keys = match blocking {
        BlockingChoice::Standard(key)
        | BlockingChoice::SortedNeighbourhood(key, _)
        | BlockingChoice::Metablocked { key, .. } => Some(key.extract(a)?),
        _ => None,
    };
    let tokens = match blocking {
        BlockingChoice::Canopy(_) => Some(record_tokens(a)),
        _ => None,
    };
    Ok((keys, tokens))
}

/// Rows per encoding task: ~0.5 ms at the ~2 µs a person CLK costs
/// with the value memo (2-vCPU AVX-512 Xeon: 0.59–0.63× the 3 µs before
/// it, same-process pairs over the `clk_encode_dataset_10k_records`
/// corpus).
const ENCODE_ROWS: usize = 256;
/// Estimated cost of encoding one record, for the runner's admission.
const ENCODE_ROW_NANOS: u64 = 2_000;

/// Encodes `a` and `b` (which share `encoder`'s schema) as one task list
/// on at most `threads` threads, each thread keeping one token and value
/// memo for both datasets. Filters equal `encoder.encode_dataset` of each.
fn encode_pair(
    encoder: &RecordEncoder,
    a: &Dataset,
    b: &Dataset,
    threads: usize,
) -> Result<(EncodedDataset, EncodedDataset)> {
    let tasks_a = a.len().div_ceil(ENCODE_ROWS);
    let tasks = tasks_a + b.len().div_ceil(ENCODE_ROWS);
    let scratch = || {
        encoder
            .scratch(a.schema())
            .expect("RecordEncoder::new took this schema")
    };
    let parts = runner::map(
        threads,
        tasks,
        ENCODE_ROWS as u64 * ENCODE_ROW_NANOS,
        scratch,
        |scratch, t| {
            let (data, t) = if t < tasks_a {
                (a, t)
            } else {
                (b, t - tasks_a)
            };
            let first = t * ENCODE_ROWS;
            let rows = &data.records()[first..data.len().min(first + ENCODE_ROWS)];
            encoder.encode_rows(scratch, rows, first)
        },
    )?;
    let mut parts = parts.into_iter();
    let records_a = parts.by_ref().take(tasks_a).flatten().collect();
    let records_b = parts.flatten().collect();
    Ok((
        EncodedDataset { records: records_a },
        EncodedDataset { records: records_b },
    ))
}

/// Scores each candidate `(i, j)` as the Dice similarity of `a[i]` and
/// `b[j]` on at most `threads` threads, keeping the pairs at or above
/// `threshold` in candidate order. Popcounts are taken once per filter,
/// so a pair costs one AND-popcount and its score stays bit-identical to
/// `dice_bits`.
pub(crate) fn score_pairs(
    a: &[&BitVec],
    b: &[&BitVec],
    candidates: &[CandidatePair],
    threshold: f64,
    threads: usize,
) -> Result<CompareOutcome> {
    let ones_a: Vec<usize> = a.iter().map(|f| f.count_ones()).collect();
    let ones_b: Vec<usize> = b.iter().map(|f| f.count_ones()).collect();
    let similarity = |i: usize, j: usize| {
        let both = and_count(a[i].as_words(), b[j].as_words());
        Ok(dice_from_counts(both, ones_a[i], ones_b[j]))
    };
    compare_pairs_parallel(candidates, threshold, threads, similarity)
}

/// Runs the batch pipeline over two datasets with a shared schema.
pub fn link(a: &Dataset, b: &Dataset, config: &PipelineConfig) -> Result<LinkageResult> {
    if a.schema() != b.schema() {
        return Err(PprlError::shape(
            "identical schemas".to_string(),
            "differing schemas".to_string(),
        ));
    }
    let encoder = RecordEncoder::new(config.encoder.clone(), a.schema())?;
    let (enc_a, enc_b) = encode_pair(&encoder, a, b, config.threads)?;
    let filters_a = enc_a.clks()?;
    let filters_b = enc_b.clks()?;

    let mut source = build_source(
        b,
        &filters_b,
        &config.blocking,
        config.threshold,
        config.threads,
    )?;

    // Probe modalities: filters always (already encoded); keys and tokens
    // only for the choices that consume them.
    let (probe_keys, probe_tokens) = probe_modalities(a, &config.blocking)?;
    let probes = Probes {
        filters: Some(&filters_a),
        keys: probe_keys.as_deref(),
        tokens: probe_tokens.as_deref(),
        signatures: None,
    };
    let candidates = source.candidates(&probes)?;
    let outcome = score_pairs(
        &filters_a,
        &filters_b,
        &candidates,
        config.threshold,
        config.threads,
    )?;

    let mut matches: Vec<(usize, usize, f64)> = outcome
        .matches
        .iter()
        .map(|m| (m.a, m.b, m.similarity))
        .collect();
    if config.one_to_one {
        matches = greedy_one_to_one(&matches);
    }
    Ok(LinkageResult {
        matches,
        candidates: candidates.len(),
        comparisons: outcome.comparisons,
        source: source.name(),
        source_stats: source.stats(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pprl_datagen::generator::{Generator, GeneratorConfig};
    use pprl_eval::quality::Confusion;

    fn data(seed: u64) -> (Dataset, Dataset) {
        let mut g = Generator::new(GeneratorConfig {
            seed,
            corruption_rate: 0.15,
            ..GeneratorConfig::default()
        })
        .unwrap();
        g.dataset_pair(120, 120, 40).unwrap()
    }

    fn quality(a: &Dataset, b: &Dataset, r: &LinkageResult) -> Confusion {
        Confusion::from_pairs(&r.pairs(), &a.ground_truth_pairs(b))
    }

    #[test]
    fn full_pipeline_has_high_quality() {
        let (a, b) = data(1);
        let cfg = PipelineConfig::standard(b"key".to_vec()).unwrap();
        let r = link(&a, &b, &cfg).unwrap();
        let q = quality(&a, &b, &r);
        assert!(q.precision() > 0.9, "precision {}", q.precision());
        assert!(q.recall() > 0.6, "recall {}", q.recall());
        assert_eq!(r.source, "hamming-lsh");
        assert!(r.source_stats.comparisons_saved > 0);
        assert_eq!(r.source_stats.bytes_read, 0, "in-memory source");
    }

    #[test]
    fn blocking_choices_trade_candidates_for_recall() {
        let (a, b) = data(2);
        let mut cfg = PipelineConfig::standard(b"key".to_vec()).unwrap();
        cfg.blocking = BlockingChoice::Full;
        let full = link(&a, &b, &cfg).unwrap();
        cfg.blocking = BlockingChoice::Standard(BlockingKey::person_default());
        let std = link(&a, &b, &cfg).unwrap();
        assert_eq!(full.candidates, 120 * 120);
        assert_eq!(full.source, "full");
        assert_eq!(std.source, "standard");
        assert!(std.candidates < full.candidates / 4);
        // Standard blocking loses at most some recall, never precision.
        let qf = quality(&a, &b, &full);
        let qs = quality(&a, &b, &std);
        assert!(qs.recall() <= qf.recall() + 1e-9);
    }

    #[test]
    fn sorted_neighbourhood_choice_runs() {
        let (a, b) = data(3);
        let mut cfg = PipelineConfig::standard(b"key".to_vec()).unwrap();
        cfg.blocking = BlockingChoice::SortedNeighbourhood(BlockingKey::person_default(), 5);
        let r = link(&a, &b, &cfg).unwrap();
        assert!(r.candidates > 0);
        assert!(quality(&a, &b, &r).precision() > 0.8);
    }

    #[test]
    fn canopy_and_metablocked_choices_run() {
        let (a, b) = data(7);
        let mut cfg = PipelineConfig::standard(b"key".to_vec()).unwrap();
        cfg.blocking = BlockingChoice::Canopy(CanopyBlocking::new(0.3, 0.7, 42).unwrap());
        let canopy = link(&a, &b, &cfg).unwrap();
        assert_eq!(canopy.source, "canopy");
        assert!(canopy.candidates > 0);
        assert!(quality(&a, &b, &canopy).precision() > 0.8);
        cfg.blocking = BlockingChoice::Metablocked {
            key: BlockingKey::person_default(),
            max_block_comparisons: 500,
            keep_per_record: 4,
        };
        let meta = link(&a, &b, &cfg).unwrap();
        assert_eq!(meta.source, "metablocking");
        assert!(quality(&a, &b, &meta).precision() > 0.8);
    }

    #[test]
    fn parallel_equals_sequential() {
        let (a, b) = data(4);
        let mut cfg = PipelineConfig::standard(b"key".to_vec()).unwrap();
        cfg.blocking = BlockingChoice::Full;
        cfg.threads = 1;
        let seq = link(&a, &b, &cfg).unwrap();
        cfg.threads = 4;
        let par = link(&a, &b, &cfg).unwrap();
        assert_eq!(seq.matches, par.matches);
    }

    #[test]
    fn task_encoding_equals_encode_dataset_at_every_cap() {
        // Several tasks a side, salted and BLIP-hardened: each row keeps
        // its dataset-global nonce whichever thread encodes it.
        let mut g = Generator::new(GeneratorConfig::default()).unwrap();
        let (a, b) = g
            .dataset_pair(3 * ENCODE_ROWS - 7, 2 * ENCODE_ROWS + 5, 90)
            .unwrap();
        let mut config = RecordEncoderConfig::person_clk(b"key".to_vec());
        config.salt_field = Some("dob".into());
        config.hardening = vec![pprl_encoding::hardening::Hardening::Blip { epsilon: 2.0 }];
        let encoder = RecordEncoder::new(config, a.schema()).unwrap();
        let want_a = encoder.encode_dataset(&a).unwrap().records;
        let want_b = encoder.encode_dataset(&b).unwrap().records;
        for threads in [1, 2, 4] {
            let (got_a, got_b) = encode_pair(&encoder, &a, &b, threads).unwrap();
            assert_eq!(got_a.records, want_a, "A at {threads} threads");
            assert_eq!(got_b.records, want_b, "B at {threads} threads");
        }
    }

    #[test]
    fn zero_threads_is_a_typed_error() {
        let (a, b) = data(4);
        let mut cfg = PipelineConfig::standard(b"key".to_vec()).unwrap();
        cfg.threads = 0;
        let err = link(&a, &b, &cfg).unwrap_err();
        assert!(
            matches!(
                err,
                PprlError::InvalidParameter {
                    name: "threads",
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn match_scores_are_bit_identical_to_dice_bits() {
        let (a, b) = data(9);
        let mut cfg = PipelineConfig::standard(b"key".to_vec()).unwrap();
        cfg.threshold = 0.5;
        cfg.one_to_one = false;
        let encoder = RecordEncoder::new(cfg.encoder.clone(), a.schema()).unwrap();
        let enc_a = encoder.encode_dataset(&a).unwrap();
        let enc_b = encoder.encode_dataset(&b).unwrap();
        let (filters_a, filters_b) = (enc_a.clks().unwrap(), enc_b.clks().unwrap());
        for threads in [1, gauge::cores()] {
            cfg.threads = threads;
            let r = link(&a, &b, &cfg).unwrap();
            assert!(!r.matches.is_empty());
            for &(i, j, s) in &r.matches {
                let want = pprl_similarity::bitvec_sim::dice_bits(filters_a[i], filters_b[j]);
                assert_eq!(
                    s.to_bits(),
                    want.unwrap().to_bits(),
                    "({i}, {j}) at {threads}"
                );
            }
        }
    }

    #[test]
    fn one_to_one_removes_duplicate_rows() {
        let (a, b) = data(5);
        let mut cfg = PipelineConfig::standard(b"key".to_vec()).unwrap();
        cfg.threshold = 0.5; // deliberately lax
        cfg.one_to_one = true;
        let r = link(&a, &b, &cfg).unwrap();
        let rows_a: Vec<usize> = r.matches.iter().map(|m| m.0).collect();
        let set: std::collections::HashSet<_> = rows_a.iter().collect();
        assert_eq!(rows_a.len(), set.len());
    }

    #[test]
    fn schema_mismatch_rejected() {
        let (a, _) = data(6);
        let other = Dataset::new(pprl_core::schema::Schema::default());
        let cfg = PipelineConfig::standard(b"key".to_vec()).unwrap();
        assert!(link(&a, &other, &cfg).is_err());
    }

    #[test]
    fn result_json_has_stats() {
        let (a, b) = data(8);
        let cfg = PipelineConfig::standard(b"key".to_vec()).unwrap();
        let r = link(&a, &b, &cfg).unwrap();
        let rendered = r.to_json().render();
        assert!(rendered.contains("\"source\": \"hamming-lsh\""));
        assert!(rendered.contains("\"comparisons_saved\""));
        assert!(rendered.contains("\"bytes_read\": 0"));
        assert!(rendered.contains("\"pairs\""));
    }
}
