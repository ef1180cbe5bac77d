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
//! throughput experiments.
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
use pprl_index::store::IndexStore;
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
    /// Rows already handed to a persistent index via
    /// [`StreamingLinker::flush_to_index`].
    indexed_rows: usize,
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
            indexed_rows: 0,
        })
    }

    /// Flushes every not-yet-indexed filter into a persistent
    /// [`IndexStore`] and returns how many records were written. Record
    /// ids are `party << 32 | row`, so linker rows stay recoverable from
    /// query hits. Repeated calls only ship the rows inserted since the
    /// previous flush; a linker rebuilt via [`StreamingLinker::restore`]
    /// starts from a zero watermark and re-ships everything.
    pub fn flush_to_index(&mut self, store: &mut IndexStore) -> Result<usize> {
        if store.config().filter_len != self.encoder.output_len() {
            return Err(PprlError::shape(
                format!("{}-bit index", store.config().filter_len),
                format!("{}-bit filters", self.encoder.output_len()),
            ));
        }
        let mut batch = Vec::with_capacity(self.filters.len() - self.indexed_rows);
        for row in self.indexed_rows..self.filters.len() {
            let rref = self.refs[row];
            let row32 = u32::try_from(rref.row).map_err(|_| {
                PprlError::invalid("row", format!("row {} exceeds u32 range", rref.row))
            })?;
            let id = (u64::from(rref.party.0) << 32) | u64::from(row32);
            batch.push((id, self.filters[row].clone()));
        }
        if batch.is_empty() {
            return Ok(0);
        }
        store.insert_batch(&batch)?;
        store.flush()?;
        self.indexed_rows = self.filters.len();
        Ok(batch.len())
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

    /// Inserts one record, generating candidates for the already-flushed
    /// rows from a **persistent index** instead of the in-memory blocks —
    /// the other half of the index-backed streaming story next to
    /// [`StreamingLinker::flush_to_index`]: the linker no longer needs
    /// its full history in memory to match against it.
    ///
    /// `index` is any [`CandidateSource`] over an index this linker
    /// flushed to (typically `pprl_index::IndexBackend` opened on that
    /// directory, or a served snapshot). Candidate ids are decoded by the
    /// `party << 32 | row` contract of [`flush_to_index`]; rows the
    /// linker never flushed are rejected as a typed error rather than
    /// silently matched. Rows inserted *after* the last flush are not in
    /// the index yet, so they are still probed via the in-memory blocks —
    /// together the two paths cover exactly the linker's history.
    ///
    /// The caller configures the source's own candidate policy (top-k,
    /// score floor); a floor above this linker's threshold will drop
    /// matches [`StreamingLinker::insert`] would have found.
    ///
    /// [`flush_to_index`]: StreamingLinker::flush_to_index
    pub fn insert_via(
        &mut self,
        party: u32,
        record: &Record,
        index: &mut dyn CandidateSource,
    ) -> Result<InsertOutcome> {
        let (filter, key) = self.encode_one(record)?;

        // Flushed rows: candidates from the persistent index.
        let filter_refs = [&filter];
        let pairs = index.candidates(&Probes::from_filters(&filter_refs))?;
        let mut indexed_rows = Vec::with_capacity(pairs.len());
        for (_, id) in pairs {
            let row = id & 0xffff_ffff;
            if row >= self.indexed_rows {
                return Err(PprlError::invalid(
                    "index",
                    format!(
                        "candidate id {id} does not decode to a flushed linker row \
                         (row {row}, {} flushed)",
                        self.indexed_rows
                    ),
                ));
            }
            indexed_rows.push(row);
        }
        let mut matches = Vec::new();
        let mut comparisons = self.score_rows(&filter, indexed_rows, &mut matches)?;

        // Unflushed tail: still only in memory, probe the blocks.
        let probes = Probes {
            keys: Some(std::slice::from_ref(&key)),
            ..Probes::default()
        };
        let tail_rows: Vec<usize> = self
            .blocks
            .candidates(&probes)?
            .into_iter()
            .map(|(_, row)| row)
            .filter(|&row| row >= self.indexed_rows)
            .collect();
        comparisons += self.score_rows(&filter, tail_rows, &mut matches)?;
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
            indexed_rows: 0,
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
    fn flush_to_index_is_incremental_and_queryable() {
        use pprl_index::store::{IndexConfig, IndexStore};
        let dir = std::env::temp_dir().join("pprl-streaming-flush-index");
        let _ = std::fs::remove_dir_all(&dir);
        let mut g = generator(8);
        let mut l = linker();
        for id in 0..15 {
            l.insert(0, &g.entity(id)).unwrap();
        }
        let flen = RecordEncoderConfig::person_clk(b"stream-key".to_vec())
            .params
            .len;
        let mut store = IndexStore::create(&dir, IndexConfig::new(flen, 4)).unwrap();
        assert_eq!(l.flush_to_index(&mut store).unwrap(), 15);
        // Only new rows ship on the second flush.
        assert_eq!(l.flush_to_index(&mut store).unwrap(), 0);
        l.insert(1, &g.entity(99)).unwrap();
        assert_eq!(l.flush_to_index(&mut store).unwrap(), 1);
        let reader = store.reader().unwrap();
        assert_eq!(reader.len(), 16);
        // A stored record's own filter is its top hit, id = party<<32|row.
        let hits = reader.top_k(&l.filters[3], 1, 2).unwrap();
        assert_eq!(hits[0].id, 3);
        assert_eq!(hits[0].score, 1.0);
        let hits = reader.top_k(&l.filters[15], 1, 2).unwrap();
        assert_eq!(hits[0].id, (1u64 << 32) | 15);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn insert_via_persistent_index_matches_in_memory_insert() {
        use pprl_index::backend::IndexBackend;
        use pprl_index::store::{IndexConfig, IndexStore};
        let dir = std::env::temp_dir().join("pprl-streaming-insert-via");
        let _ = std::fs::remove_dir_all(&dir);
        let mut g = generator(9);
        let mut indexed = linker();
        let mut memory = linker();
        let mut originals = Vec::new();
        for id in 0..20 {
            let r = g.entity(id);
            indexed.insert(0, &r).unwrap();
            memory.insert(0, &r).unwrap();
            originals.push(r);
        }
        let flen = RecordEncoderConfig::person_clk(b"stream-key".to_vec())
            .params
            .len;
        let mut store = IndexStore::create(&dir, IndexConfig::new(flen, 4)).unwrap();
        assert_eq!(indexed.flush_to_index(&mut store).unwrap(), 20);
        // One record arrives after the flush: only the in-memory tail
        // knows it.
        let late = g.entity(50);
        indexed.insert(0, &late).unwrap();
        memory.insert(0, &late).unwrap();
        drop(store);
        let mut backend = IndexBackend::open(&dir, 64, 0.0, 1).unwrap();

        // A duplicate of a flushed entity: found through the index, and
        // every match the blocking-only linker finds is found here too,
        // with the identical similarity.
        let dup = g.corrupt_record(&originals[3]);
        let via = indexed.insert_via(1, &dup, &mut backend).unwrap();
        let plain = memory.insert(1, &dup).unwrap();
        assert!(
            via.matches.iter().any(|m| m.existing.row == 3),
            "flushed duplicate not found via index: {:?}",
            via.matches
        );
        for m in &plain.matches {
            assert!(
                via.matches.contains(m),
                "in-memory match {m:?} missing from insert_via: {:?}",
                via.matches
            );
        }
        assert_eq!(via.cluster, plain.cluster);

        // A duplicate of the unflushed record: only the tail path can
        // find it (row 20 >= indexed_rows).
        let late_dup = g.corrupt_record(&late);
        let via = indexed.insert_via(1, &late_dup, &mut backend).unwrap();
        assert!(
            via.matches.iter().any(|m| m.existing.row == 20),
            "unflushed tail record not matched: {:?}",
            via.matches
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn insert_via_rejects_foreign_index() {
        use pprl_index::backend::IndexBackend;
        use pprl_index::store::{IndexConfig, IndexStore};
        let dir = std::env::temp_dir().join("pprl-streaming-insert-via-foreign");
        let _ = std::fs::remove_dir_all(&dir);
        let mut g = generator(10);
        // The index holds 8 rows, but this linker only ever flushed 5:
        // candidate ids 5..8 cannot be resolved to local filters.
        let mut other = linker();
        for id in 0..8 {
            other.insert(0, &g.entity(id)).unwrap();
        }
        let flen = RecordEncoderConfig::person_clk(b"stream-key".to_vec())
            .params
            .len;
        let mut store = IndexStore::create(&dir, IndexConfig::new(flen, 4)).unwrap();
        other.flush_to_index(&mut store).unwrap();
        drop(store);
        let own_dir = std::env::temp_dir().join("pprl-streaming-insert-via-own");
        let _ = std::fs::remove_dir_all(&own_dir);
        let mut g2 = generator(10);
        let mut local = linker();
        for id in 0..5 {
            local.insert(0, &g2.entity(id)).unwrap();
        }
        let mut own = IndexStore::create(&own_dir, IndexConfig::new(flen, 4)).unwrap();
        local.flush_to_index(&mut own).unwrap();
        drop(own);
        // Probing the *foreign* index surfaces rows 5..8 the local linker
        // cannot resolve — a typed error, not a silent wrong match.
        let probe = g2.entity(6);
        let mut backend = IndexBackend::open(&dir, 64, 0.0, 1).unwrap();
        let err = local.insert_via(0, &probe, &mut backend).unwrap_err();
        assert!(
            matches!(err, PprlError::InvalidParameter { name: "index", .. }),
            "{err}"
        );
        // The failed insert must not have half-committed anything.
        assert_eq!(local.len(), 5);
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&own_dir).unwrap();
    }

    #[test]
    fn flush_to_index_rejects_mismatched_filter_length() {
        use pprl_index::store::{IndexConfig, IndexStore};
        let dir = std::env::temp_dir().join("pprl-streaming-flush-badlen");
        let _ = std::fs::remove_dir_all(&dir);
        let mut l = linker();
        let mut store = IndexStore::create(&dir, IndexConfig::new(8, 2)).unwrap();
        let err = l.flush_to_index(&mut store).unwrap_err();
        assert!(matches!(err, PprlError::ShapeMismatch { .. }), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn schema_mismatch_rejected() {
        let mut linker = linker();
        let bad = Record::new(0, vec![pprl_core::value::Value::Missing]);
        assert!(linker.insert(0, &bad).is_err());
        assert!(linker.is_empty());
    }
}
