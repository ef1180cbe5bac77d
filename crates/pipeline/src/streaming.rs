//! Streaming / incremental linkage (the *velocity* axis of Figure 3,
//! §5.1).
//!
//! Current PPRL techniques are batch-only; the paper calls for systems
//! that link records "as they arrive at an organization, ideally in (near)
//! real-time". [`StreamingLinker`] maintains a growing
//! [`KeyBlockSource`] over the encoded records; each arriving record is
//! encoded, probed against the source (so streaming and batch share one
//! standard-blocking implementation — records with an empty blocking key
//! are never compared), classified, clustered incrementally, and
//! inserted — all in one call, with per-insert comparison counts for
//! throughput experiments. The linker holds its whole history in
//! memory; a stream that outgrows it goes to `pprl-server`'s
//! `LinkageService`, whose durable inserts and `Link` batches run
//! against the persistent index.
//!
//! For fault tolerance the linker can be checkpointed:
//! [`StreamingLinker::snapshot`] serialises the full index/cluster state
//! into an in-memory blob — `magic ‖ body ‖ sum`, `pprl_core::codec`'s
//! checksum trailer — and [`StreamingLinker::restore`] rebuilds an
//! identical linker from it through `pprl_core::codec`'s `Reader`: any
//! corruption of the blob is detected and reported as a typed
//! [`PprlError::Transport`] instead of silently resuming from bad state.

use pprl_blocking::keys::BlockingKey;
use pprl_blocking::source::KeyBlockSource;
use pprl_core::bitvec::BitVec;
use pprl_core::candidate::{CandidateSource, Probes};
use pprl_core::codec::{append_checksum, checked_body, Reader};
use pprl_core::error::{PprlError, Result};
use pprl_core::record::{Record, RecordRef};
use pprl_core::schema::Schema;
use pprl_encoding::encoder::{EncodedRecord, RecordEncoder, RecordEncoderConfig};
use pprl_matching::clustering::IncrementalClusterer;
use pprl_similarity::bitvec_sim::dice_bits;
use std::collections::HashMap;

/// Magic prefix of a serialised [`StreamingLinker`] checkpoint ("PSL1").
const SNAPSHOT_MAGIC: u32 = 0x314C_5350;

fn push_u32(out: &mut Vec<u8>, v: usize, what: &str) -> Result<()> {
    let v = u32::try_from(v)
        .map_err(|_| PprlError::invalid("snapshot", format!("{what} exceeds u32 range")))?;
    out.extend_from_slice(&v.to_le_bytes());
    Ok(())
}

/// A match reported for an arriving record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamMatch {
    /// The existing record matched against.
    pub existing: RecordRef,
    /// Dice similarity.
    pub similarity: f64,
}

/// Outcome of one insert.
#[derive(Debug, Clone)]
pub struct InsertOutcome {
    /// The reference assigned to the inserted record.
    pub inserted: RecordRef,
    /// Matches against previously inserted records.
    pub matches: Vec<StreamMatch>,
    /// Comparisons performed for this insert.
    pub comparisons: usize,
    /// Cluster index the record joined.
    pub cluster: usize,
}

/// Incremental PPRL index.
///
/// ```
/// use pprl_pipeline::streaming::StreamingLinker;
/// use pprl_encoding::encoder::RecordEncoderConfig;
/// use pprl_blocking::keys::BlockingKey;
/// use pprl_core::schema::Schema;
/// use pprl_datagen::generator::{Generator, GeneratorConfig};
///
/// let mut gen = Generator::new(GeneratorConfig::default()).unwrap();
/// let mut linker = StreamingLinker::new(
///     Schema::person(),
///     RecordEncoderConfig::person_clk(b"key".to_vec()),
///     BlockingKey::person_default(),
///     0.8,
/// ).unwrap();
/// let record = gen.entity(1);
/// let duplicate = gen.corrupt_record(&record);
/// linker.insert(0, &record).unwrap();
/// let out = linker.insert(1, &duplicate).unwrap();
/// assert_eq!(out.matches.len(), 1);
/// ```
#[derive(Debug)]
pub struct StreamingLinker {
    schema: Schema,
    encoder: RecordEncoder,
    blocking: BlockingKey,
    threshold: f64,
    /// Key-blocked candidate source over the stored rows (grows with
    /// every insert via [`KeyBlockSource::push_target`]).
    blocks: KeyBlockSource,
    /// All stored filters (insertion order).
    filters: Vec<BitVec>,
    refs: Vec<RecordRef>,
    clusterer: IncrementalClusterer,
}

impl StreamingLinker {
    /// Creates an empty streaming linker.
    pub fn new(
        schema: Schema,
        encoder_config: RecordEncoderConfig,
        blocking: BlockingKey,
        threshold: f64,
    ) -> Result<Self> {
        let encoder = RecordEncoder::new(encoder_config, &schema)?;
        Ok(StreamingLinker {
            schema,
            encoder,
            blocking,
            threshold,
            blocks: KeyBlockSource::new(),
            filters: Vec::new(),
            refs: Vec::new(),
            clusterer: IncrementalClusterer::new(threshold)?,
        })
    }

    /// Number of indexed records.
    pub fn len(&self) -> usize {
        self.filters.len()
    }

    /// True when nothing has been inserted.
    pub fn is_empty(&self) -> bool {
        self.filters.is_empty()
    }

    /// Current clusters.
    pub fn clusters(&self) -> Vec<Vec<RecordRef>> {
        self.clusterer.clusters()
    }

    /// Validates and encodes one arriving record to its CLK filter and
    /// blocking key. The record is row `len()` of the stream, which is
    /// its hardening nonce: streamed records encode exactly as the same
    /// records would in one dataset.
    fn encode_one(&self, record: &Record) -> Result<(BitVec, String)> {
        if record.values.len() != self.schema.len() {
            return Err(PprlError::shape(
                format!("{} values", self.schema.len()),
                format!("{} values", record.values.len()),
            ));
        }
        let row = std::slice::from_ref(record);
        let mut scratch = self.encoder.scratch(&self.schema)?;
        let encoded = self.encoder.encode_rows(&mut scratch, row, self.len())?;
        let EncodedRecord::Clk(filter) = encoded.into_iter().next().expect("one row") else {
            return Err(PprlError::Unsupported(
                "streaming linker requires CLK encoding".into(),
            ));
        };
        let key = self
            .blocking
            .extract_rows(&self.schema, row)?
            .pop()
            .expect("one key");
        Ok((filter, key))
    }

    /// Scores `rows` against `filter`, appending matches at or above the
    /// threshold. Returns comparisons performed.
    fn score_rows(
        &self,
        filter: &BitVec,
        rows: impl IntoIterator<Item = usize>,
        matches: &mut Vec<StreamMatch>,
    ) -> Result<usize> {
        let mut comparisons = 0usize;
        for row in rows {
            comparisons += 1;
            let s = dice_bits(filter, &self.filters[row])?;
            if s >= self.threshold {
                matches.push(StreamMatch {
                    existing: self.refs[row],
                    similarity: s,
                });
            }
        }
        Ok(comparisons)
    }

    /// Clusters and stores an encoded record, completing an insert.
    fn commit(
        &mut self,
        party: u32,
        filter: BitVec,
        key: &str,
        mut matches: Vec<StreamMatch>,
        comparisons: usize,
    ) -> Result<InsertOutcome> {
        matches.sort_by(|x, y| {
            y.similarity
                .partial_cmp(&x.similarity)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let row = self.filters.len();
        let rref = RecordRef::new(party, row);
        let edges: Vec<(RecordRef, f64)> =
            matches.iter().map(|m| (m.existing, m.similarity)).collect();
        let cluster = self.clusterer.add(rref, &edges)?;
        self.blocks.push_target(key, row);
        self.filters.push(filter);
        self.refs.push(rref);
        Ok(InsertOutcome {
            inserted: rref,
            matches,
            comparisons,
            cluster,
        })
    }

    /// Inserts one record from `party`, matching it against the current
    /// index first.
    pub fn insert(&mut self, party: u32, record: &Record) -> Result<InsertOutcome> {
        let (filter, key) = self.encode_one(record)?;

        // Compare within the record's block, via the candidate source.
        let probes = Probes {
            keys: Some(std::slice::from_ref(&key)),
            ..Probes::default()
        };
        let candidate_rows: Vec<usize> = self
            .blocks
            .candidates(&probes)?
            .into_iter()
            .map(|(_, row)| row)
            .collect();
        let mut matches = Vec::new();
        let comparisons = self.score_rows(&filter, candidate_rows, &mut matches)?;
        self.commit(party, filter, &key, matches, comparisons)
    }

    /// Serialises the linker's mutable state (filters, blocking index,
    /// clusters) into a checksummed checkpoint blob. Configuration
    /// (schema, encoder, blocking definition, threshold) is *not* restored
    /// from the blob — the caller supplies it again on
    /// [`StreamingLinker::restore`], and mismatches are rejected.
    pub fn snapshot(&self) -> Result<Vec<u8>> {
        let mut payload = Vec::new();
        payload.extend_from_slice(&SNAPSHOT_MAGIC.to_le_bytes());
        payload.extend_from_slice(&self.threshold.to_le_bytes());
        push_u32(&mut payload, self.encoder.output_len(), "filter length")?;
        // Stored records: party + filter bytes (the row is the position).
        push_u32(&mut payload, self.filters.len(), "record count")?;
        for (filter, rref) in self.filters.iter().zip(&self.refs) {
            payload.extend_from_slice(&rref.party.0.to_le_bytes());
            payload.extend_from_slice(&filter.to_bytes());
        }
        // Blocking index, keys sorted for a deterministic blob.
        let blocks = self.blocks.blocks();
        let mut keys: Vec<&String> = blocks.keys().collect();
        keys.sort_unstable();
        push_u32(&mut payload, keys.len(), "block count")?;
        for key in keys {
            push_u32(&mut payload, key.len(), "block key length")?;
            payload.extend_from_slice(key.as_bytes());
            let rows = &blocks[key];
            push_u32(&mut payload, rows.len(), "block size")?;
            for &row in rows {
                push_u32(&mut payload, row, "row index")?;
            }
        }
        // Raw clusters (indices must survive, so no canonicalisation).
        let clusters = self.clusterer.raw_clusters();
        push_u32(&mut payload, clusters.len(), "cluster count")?;
        for cluster in clusters {
            push_u32(&mut payload, cluster.len(), "cluster size")?;
            for member in cluster {
                payload.extend_from_slice(&member.party.0.to_le_bytes());
                push_u32(&mut payload, member.row, "cluster row")?;
            }
        }
        append_checksum(&mut payload);
        Ok(payload)
    }

    /// Rebuilds a linker from a [`StreamingLinker::snapshot`] payload and the
    /// same configuration the snapshotted linker was built with. Any
    /// corruption of the payload — a flipped bit, truncation, a foreign byte
    /// stream — yields a typed [`PprlError::Transport`].
    pub fn restore(
        schema: Schema,
        encoder_config: RecordEncoderConfig,
        blocking: BlockingKey,
        bytes: &[u8],
    ) -> Result<Self> {
        let mut r = Reader::new(
            checked_body(bytes, PprlError::Transport)?,
            PprlError::Transport,
        );
        if r.u32()? != SNAPSHOT_MAGIC {
            return Err(PprlError::Transport(
                "not a streaming-linker checkpoint".into(),
            ));
        }
        let threshold = r.f64()?;
        let encoder = RecordEncoder::new(encoder_config, &schema)?;
        let filter_len = r.u32()? as usize;
        if filter_len != encoder.output_len() {
            return Err(PprlError::shape(
                format!("{} filter bits", encoder.output_len()),
                format!("{filter_len} filter bits in checkpoint"),
            ));
        }
        let filter_bytes = filter_len.div_ceil(8);
        let n = r.u32()? as usize;
        let mut filters = Vec::with_capacity(n);
        let mut refs = Vec::with_capacity(n);
        for row in 0..n {
            let party = r.u32()?;
            filters.push(BitVec::from_bytes(r.take(filter_bytes)?, filter_len)?);
            refs.push(RecordRef::new(party, row));
        }
        let blocks = r.u32()? as usize;
        let mut index: HashMap<String, Vec<usize>> = HashMap::with_capacity(blocks);
        for _ in 0..blocks {
            let key_len = r.u32()? as usize;
            let key = r.str(key_len)?.to_string();
            let rows_len = r.u32()? as usize;
            let mut rows = Vec::with_capacity(rows_len);
            for _ in 0..rows_len {
                let row = r.u32()? as usize;
                if row >= n {
                    return Err(PprlError::Transport(format!(
                        "checkpoint block row {row} out of range ({n} records)"
                    )));
                }
                rows.push(row);
            }
            index.insert(key, rows);
        }
        let n_clusters = r.u32()? as usize;
        let mut clusters = Vec::with_capacity(n_clusters);
        for _ in 0..n_clusters {
            let len = r.u32()? as usize;
            let mut cluster = Vec::with_capacity(len);
            for _ in 0..len {
                let party = r.u32()?;
                cluster.push(RecordRef::new(party, r.u32()? as usize));
            }
            clusters.push(cluster);
        }
        r.finish()?;
        Ok(StreamingLinker {
            schema,
            encoder,
            blocking,
            threshold,
            blocks: KeyBlockSource::from_parts(index, n),
            filters,
            refs,
            clusterer: IncrementalClusterer::from_state(threshold, clusters)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pprl_datagen::generator::{Generator, GeneratorConfig};

    fn linker() -> StreamingLinker {
        StreamingLinker::new(
            Schema::person(),
            RecordEncoderConfig::person_clk(b"stream-key".to_vec()),
            BlockingKey::person_default(),
            0.8,
        )
        .unwrap()
    }

    fn generator(seed: u64) -> Generator {
        Generator::new(GeneratorConfig {
            seed,
            corruption_rate: 0.1,
            ..GeneratorConfig::default()
        })
        .unwrap()
    }

    #[test]
    fn duplicate_stream_records_match() {
        let mut g = generator(1);
        let mut linker = linker();
        let base = g.entity(1);
        let dup = g.corrupt_record(&base);
        let first = linker.insert(0, &base).unwrap();
        assert!(first.matches.is_empty());
        let second = linker.insert(1, &dup).unwrap();
        assert_eq!(second.matches.len(), 1, "corrupted duplicate should match");
        assert_eq!(second.matches[0].existing, first.inserted);
        assert_eq!(second.cluster, first.cluster);
    }

    #[test]
    fn streamed_blip_filters_equal_the_batch_encoding() {
        // Each streamed record's BLIP nonce is its row in the stream, so
        // records get independent noise, exactly as in one dataset.
        let mut config = RecordEncoderConfig::person_clk(b"stream-key".to_vec());
        config.hardening = vec![pprl_encoding::hardening::Hardening::Blip { epsilon: 2.0 }];
        let mut linker = StreamingLinker::new(
            Schema::person(),
            config.clone(),
            BlockingKey::person_default(),
            0.8,
        )
        .unwrap();
        let (a, _) = generator(9).dataset_pair(12, 12, 4).unwrap();
        for r in a.records() {
            linker.insert(0, r).unwrap();
        }
        let batch = RecordEncoder::new(config, a.schema())
            .unwrap()
            .encode_dataset(&a)
            .unwrap();
        assert_eq!(
            linker.filters,
            batch
                .clks()
                .unwrap()
                .into_iter()
                .cloned()
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn distinct_records_do_not_match() {
        let mut g = generator(2);
        let mut linker = linker();
        let r1 = g.entity(1);
        let r2 = g.entity(2);
        linker.insert(0, &r1).unwrap();
        let out = linker.insert(0, &r2).unwrap();
        assert!(out.matches.is_empty());
        assert_eq!(linker.clusters().len(), 2);
    }

    #[test]
    fn blocking_bounds_per_insert_comparisons() {
        let mut g = generator(3);
        let mut linker = linker();
        let mut total_comparisons = 0usize;
        let n = 300;
        for id in 0..n {
            let r = g.entity(id);
            total_comparisons += linker.insert(0, &r).unwrap().comparisons;
        }
        // Unblocked incremental linkage would cost n(n-1)/2 ≈ 45k.
        assert!(
            total_comparisons < n as usize * (n as usize - 1) / 8,
            "blocking should prune most comparisons, did {total_comparisons}"
        );
        assert_eq!(linker.len(), n as usize);
    }

    #[test]
    fn streaming_recovers_batch_ground_truth() {
        let mut g = generator(4);
        let (a, b) = g.dataset_pair(60, 60, 20).unwrap();
        let mut linker = linker();
        for r in a.records() {
            linker.insert(0, r).unwrap();
        }
        let mut found = 0usize;
        for r in b.records() {
            let out = linker.insert(1, r).unwrap();
            if out.matches.iter().any(|m| {
                m.existing.party.0 == 0 && a.records()[m.existing.row].entity_id == r.entity_id
            }) {
                found += 1;
            }
        }
        let truth = a.ground_truth_pairs(&b).len();
        assert!(
            found as f64 / truth as f64 > 0.6,
            "stream recall {found}/{truth}"
        );
    }

    #[test]
    fn snapshot_restore_round_trip_is_exact() {
        let mut g = generator(5);
        let mut original = linker();
        for id in 0..40 {
            original.insert(id % 3, &g.entity(u64::from(id))).unwrap();
        }
        let blob = original.snapshot().unwrap();
        let mut restored = StreamingLinker::restore(
            Schema::person(),
            RecordEncoderConfig::person_clk(b"stream-key".to_vec()),
            BlockingKey::person_default(),
            &blob,
        )
        .unwrap();
        assert_eq!(restored.len(), original.len());
        assert_eq!(restored.clusters(), original.clusters());
        // Post-restore inserts behave exactly like the uncrashed linker.
        let next = g.entity(7);
        let dup = g.corrupt_record(&next);
        let a = original.insert(0, &next).unwrap();
        let b = restored.insert(0, &next).unwrap();
        assert_eq!(a.matches, b.matches);
        assert_eq!(a.cluster, b.cluster);
        let a = original.insert(1, &dup).unwrap();
        let b = restored.insert(1, &dup).unwrap();
        assert_eq!(a.matches, b.matches);
        assert_eq!(original.clusters(), restored.clusters());
    }

    #[test]
    fn corrupted_snapshot_is_typed_transport_error() {
        let mut g = generator(6);
        let mut l = linker();
        for id in 0..10 {
            l.insert(0, &g.entity(id)).unwrap();
        }
        let blob = l.snapshot().unwrap();
        // Flip one byte anywhere: the frame checksum must catch it.
        for pos in [0, blob.len() / 2, blob.len() - 1] {
            let mut bad = blob.clone();
            bad[pos] ^= 0x40;
            let err = StreamingLinker::restore(
                Schema::person(),
                RecordEncoderConfig::person_clk(b"stream-key".to_vec()),
                BlockingKey::person_default(),
                &bad,
            )
            .unwrap_err();
            assert!(matches!(err, PprlError::Transport(_)), "byte {pos}: {err}");
        }
        // Truncation too.
        let err = StreamingLinker::restore(
            Schema::person(),
            RecordEncoderConfig::person_clk(b"stream-key".to_vec()),
            BlockingKey::person_default(),
            &blob[..blob.len() / 2],
        )
        .unwrap_err();
        assert!(matches!(err, PprlError::Transport(_)), "{err}");
    }

    #[test]
    fn restore_rejects_mismatched_encoder() {
        let mut g = generator(7);
        let mut l = linker();
        l.insert(0, &g.entity(1)).unwrap();
        let blob = l.snapshot().unwrap();
        let mut other = RecordEncoderConfig::person_clk(b"stream-key".to_vec());
        other.params.len /= 2;
        let err = StreamingLinker::restore(
            Schema::person(),
            other,
            BlockingKey::person_default(),
            &blob,
        )
        .unwrap_err();
        assert!(matches!(err, PprlError::ShapeMismatch { .. }), "{err}");
    }

    #[test]
    fn schema_mismatch_rejected() {
        let mut linker = linker();
        let bad = Record::new(0, vec![pprl_core::value::Value::Missing]);
        assert!(linker.insert(0, &bad).is_err());
        assert!(linker.is_empty());
    }
}
