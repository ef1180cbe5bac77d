//! Record-level encoding: field Bloom filters and CLKs.
//!
//! Two granularities from the literature (§3.4, refs \[12, 33]):
//!
//! * **Field-level** — one Bloom filter per QID; comparison averages
//!   per-field Dice scores (more information, more attack surface).
//! * **CLK** (cryptographic long-term key, Schnell et al.) — all QIDs
//!   hashed into a *single* record-level filter; tokens are
//!   domain-separated by field name so "ann" as a first name and "ann" as
//!   a city set different bits.
//!
//! The encoder handles tokenisation per QID type (q-grams for text,
//! neighbourhood tokens for numerics, component tokens for dates, a single
//! token for categoricals), optional salting by a stable field, and a
//! hardening pipeline applied to every output filter.

use crate::bloom::{BloomEncoder, BloomParams, TokenMemo};
use crate::hardening::{apply_pipeline, salted_key, Hardening};
use crate::numeric_bf::NeighbourhoodParams;
use pprl_core::bitvec::BitVec;
use pprl_core::error::{PprlError, Result};
use pprl_core::normalize::normalize_default;
use pprl_core::qgram::{for_each_qgram, QGramConfig, QGramScratch};
use pprl_core::record::{Dataset, Record};
use pprl_core::schema::Schema;
use pprl_core::value::Value;
use pprl_similarity::bitvec_sim::dice_bits;
use std::borrow::Cow;
use std::collections::hash_map::{Entry, HashMap};
use std::fmt::Write;

/// How one field's value becomes tokens.
#[derive(Debug, Clone)]
pub enum FieldEncoding {
    /// Normalise then q-gram tokenise (text QIDs).
    TextQGram(QGramConfig),
    /// Neighbourhood tokens (numeric QIDs).
    Numeric(NeighbourhoodParams),
    /// Date components: full date plus year, month, day tokens, so close
    /// dates get partial credit.
    DateComponents,
    /// Single token (categorical QIDs).
    Categorical,
}

/// Buffers [`FieldEncoding::for_each_token`] reuses from value to value,
/// so that tokenising allocates per value at most, never per token.
#[derive(Debug, Default)]
pub struct TokenScratch {
    qgrams: QGramScratch,
    token: String,
}

impl FieldEncoding {
    /// Calls `f` with every token of `value`, without the field-name
    /// domain prefix and possibly repeating. Missing values produce no
    /// tokens.
    pub fn for_each_token(
        &self,
        value: &Value,
        scratch: &mut TokenScratch,
        mut f: impl FnMut(&str),
    ) -> Result<()> {
        if value.is_missing() {
            return Ok(());
        }
        let TokenScratch { qgrams, token } = scratch;
        let mut emit = |parts: std::fmt::Arguments<'_>| {
            token.clear();
            token
                .write_fmt(parts)
                .expect("writing to a String cannot fail");
            f(token);
        };
        match self {
            FieldEncoding::TextQGram(cfg) => {
                let normalised = normalize_default(&value.as_text());
                for_each_qgram(&normalised, cfg, qgrams, f);
            }
            FieldEncoding::Numeric(params) => {
                for point in params.grid_points(value.as_f64()?)? {
                    emit(format_args!("n{point}"));
                }
            }
            FieldEncoding::DateComponents => match value {
                Value::Date(d) => {
                    emit(format_args!("full:{d}"));
                    emit(format_args!("y:{}", d.year()));
                    emit(format_args!("m:{}", d.month()));
                    emit(format_args!("d:{}", d.day()));
                }
                _ => {
                    return Err(PprlError::ValueError(
                        "DateComponents encoding needs a Date value".into(),
                    ))
                }
            },
            FieldEncoding::Categorical => {
                let normalised = normalize_default(&value.as_text());
                if !normalised.is_empty() {
                    f(&normalised);
                }
            }
        }
        Ok(())
    }

    /// Tokenises `value` for field `field_name` (tokens are domain-separated
    /// by the field name; q-gram tokens are a sorted set). Missing values
    /// produce no tokens.
    pub fn tokens(&self, field_name: &str, value: &Value) -> Result<Vec<String>> {
        let mut tokens = Vec::new();
        self.for_each_token(value, &mut TokenScratch::default(), |t| {
            tokens.push(format!("{field_name}|{t}"));
        })?;
        if matches!(self, FieldEncoding::TextQGram(_)) {
            tokens.sort_unstable();
            tokens.dedup();
        }
        Ok(tokens)
    }
}

/// One encoded field of a record-encoder configuration.
#[derive(Debug, Clone)]
pub struct FieldSpec {
    /// Field name in the schema.
    pub field: String,
    /// Tokenisation.
    pub encoding: FieldEncoding,
    /// Attribute weight: the number of hash functions used for this field
    /// is `weight × k` (Durham-style weighted CLK). Discriminating fields
    /// (names, dob) get higher weights so they dominate the Dice score.
    /// Must be ≥ 1; the default is 1.
    pub weight: usize,
}

impl FieldSpec {
    /// Shorthand constructor with weight 1.
    pub fn new(field: impl Into<String>, encoding: FieldEncoding) -> Self {
        FieldSpec {
            field: field.into(),
            encoding,
            weight: 1,
        }
    }

    /// Sets the attribute weight (hash-count multiplier).
    pub fn weighted(mut self, weight: usize) -> Self {
        self.weight = weight;
        self
    }
}

/// Record-level vs field-level encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EncodingMode {
    /// One CLK filter per record.
    Clk,
    /// One filter per field.
    FieldLevel,
}

/// Configuration of a [`RecordEncoder`].
#[derive(Debug, Clone)]
pub struct RecordEncoderConfig {
    /// Bloom parameters (length, hashes, scheme, shared key).
    pub params: BloomParams,
    /// CLK or field-level.
    pub mode: EncodingMode,
    /// Which fields to encode and how.
    pub fields: Vec<FieldSpec>,
    /// Optional salting field: its canonical text is mixed into the HMAC
    /// key per record (must be error-free and stable, e.g. year of birth).
    pub salt_field: Option<String>,
    /// Hardening pipeline applied to each output filter.
    pub hardening: Vec<Hardening>,
}

impl RecordEncoderConfig {
    /// Sensible defaults for [`Schema::person`]: CLK over names, street,
    /// city, postcode (bigrams), dob (components), gender (categorical) and
    /// age (neighbourhood ±2 years); l = 1000, k = 20, no hardening.
    pub fn person_clk(key: impl Into<Vec<u8>>) -> Self {
        let q = QGramConfig::default();
        RecordEncoderConfig {
            params: BloomParams {
                len: 1000,
                num_hashes: 10,
                scheme: crate::bloom::HashingScheme::DoubleHashing,
                key: key.into(),
            },
            mode: EncodingMode::Clk,
            fields: vec![
                FieldSpec::new("first_name", FieldEncoding::TextQGram(q)),
                FieldSpec::new("last_name", FieldEncoding::TextQGram(q)),
                FieldSpec::new("street", FieldEncoding::TextQGram(q)),
                FieldSpec::new("city", FieldEncoding::TextQGram(q)),
                FieldSpec::new("postcode", FieldEncoding::TextQGram(q)),
                FieldSpec::new("dob", FieldEncoding::DateComponents),
                FieldSpec::new("gender", FieldEncoding::Categorical),
                FieldSpec::new(
                    "age",
                    FieldEncoding::Numeric(NeighbourhoodParams {
                        step: 1.0,
                        neighbours: 2,
                    }),
                ),
            ],
            salt_field: None,
            hardening: Vec::new(),
        }
    }
}

/// An encoded record: one or several Bloom filters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EncodedRecord {
    /// Record-level CLK.
    Clk(BitVec),
    /// Field-level filters, aligned with the encoder's field specs.
    Fields(Vec<BitVec>),
}

impl EncodedRecord {
    /// The CLK filter, if record-level.
    pub fn clk(&self) -> Option<&BitVec> {
        match self {
            EncodedRecord::Clk(bv) => Some(bv),
            EncodedRecord::Fields(_) => None,
        }
    }

    /// The per-field filters, if field-level.
    pub fn fields(&self) -> Option<&[BitVec]> {
        match self {
            EncodedRecord::Clk(_) => None,
            EncodedRecord::Fields(f) => Some(f),
        }
    }

    /// The CLK filter, or a typed error for field-level records. Use this
    /// instead of matching-and-panicking when CLK encoding is required.
    pub fn try_clk(&self) -> Result<&BitVec> {
        self.clk()
            .ok_or_else(|| PprlError::Unsupported("record is field-level encoded, not CLK".into()))
    }

    /// The per-field filters, or a typed error for CLK records.
    pub fn try_fields(&self) -> Result<&[BitVec]> {
        self.fields()
            .ok_or_else(|| PprlError::Unsupported("record is CLK encoded, not field-level".into()))
    }

    /// Dice similarity to another encoded record: CLK Dice, or the mean of
    /// per-field Dice scores.
    pub fn dice(&self, other: &EncodedRecord) -> Result<f64> {
        match (self, other) {
            (EncodedRecord::Clk(a), EncodedRecord::Clk(b)) => dice_bits(a, b),
            (EncodedRecord::Fields(a), EncodedRecord::Fields(b)) => {
                if a.len() != b.len() {
                    return Err(PprlError::shape(
                        format!("{} field filters", a.len()),
                        format!("{} field filters", b.len()),
                    ));
                }
                if a.is_empty() {
                    return Ok(0.0);
                }
                let mut sum = 0.0;
                for (x, y) in a.iter().zip(b) {
                    sum += dice_bits(x, y)?;
                }
                Ok(sum / a.len() as f64)
            }
            _ => Err(PprlError::shape(
                "matching encoding modes".to_string(),
                "CLK vs field-level".to_string(),
            )),
        }
    }
}

/// A dataset's worth of encoded records (row-aligned with the source).
#[derive(Debug, Clone)]
pub struct EncodedDataset {
    /// Encoded rows.
    pub records: Vec<EncodedRecord>,
}

impl EncodedDataset {
    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The CLK filters as a vector (errors if field-level).
    pub fn clks(&self) -> Result<Vec<&BitVec>> {
        self.records
            .iter()
            .map(|r| {
                r.clk().ok_or_else(|| {
                    PprlError::Unsupported("dataset is field-level encoded, not CLK".into())
                })
            })
            .collect()
    }
}

/// Encodes datasets according to a [`RecordEncoderConfig`].
///
/// ```
/// use pprl_encoding::encoder::{RecordEncoder, RecordEncoderConfig};
/// use pprl_core::schema::Schema;
/// use pprl_core::record::{Dataset, Record};
/// use pprl_core::value::{Date, Value};
///
/// let schema = Schema::person();
/// let record = Record::new(1, vec![
///     Value::Text("anna".into()), Value::Text("smith".into()),
///     Value::Text("1 main st".into()), Value::Text("oxford".into()),
///     Value::Text("1234".into()), Value::Date(Date::new(1990, 6, 5).unwrap()),
///     Value::Categorical("f".into()), Value::Integer(36),
/// ]);
/// let dataset = Dataset::from_records(schema.clone(), vec![record]).unwrap();
/// let encoder = RecordEncoder::new(
///     RecordEncoderConfig::person_clk(b"shared-key".to_vec()), &schema).unwrap();
/// let encoded = encoder.encode_dataset(&dataset).unwrap();
/// assert_eq!(encoded.records[0].clk().unwrap().len(), 1000);
/// ```
#[derive(Debug, Clone)]
pub struct RecordEncoder {
    config: RecordEncoderConfig,
    /// One encoder per field spec under the unsalted key, built once.
    encoders: Vec<BloomEncoder>,
}

/// Distinct salt values whose encoders one [`EncodeScratch`] keeps before
/// it drops them all and starts over.
const SALT_CACHE_CAP: usize = 1024;
/// Tokens one [`EncodeScratch`] memoises, over all its encoders:
/// some tens of megabytes at most, and several times the distinct tokens
/// (q-grams, dates, ages) of a person corpus.
const MEMO_BUDGET: usize = 1 << 16;

/// The field encoders under one key and what they have hashed so far.
struct KeyedCoders<'a> {
    encoders: Cow<'a, [BloomEncoder]>,
    memos: Vec<TokenMemo>,
}

impl<'a> KeyedCoders<'a> {
    fn new(encoders: Cow<'a, [BloomEncoder]>) -> Self {
        let memos = encoders.iter().map(|_| TokenMemo::default()).collect();
        KeyedCoders { encoders, memos }
    }
}

impl RecordEncoder {
    /// Validates the configuration against a schema.
    pub fn new(config: RecordEncoderConfig, schema: &Schema) -> Result<Self> {
        if config.fields.is_empty() {
            return Err(PprlError::invalid("fields", "need at least one field spec"));
        }
        for spec in &config.fields {
            schema.index_of(&spec.field)?;
            if spec.weight == 0 {
                return Err(PprlError::invalid(
                    "weight",
                    format!("field `{}` has weight 0", spec.field),
                ));
            }
        }
        if let Some(salt) = &config.salt_field {
            schema.index_of(salt)?;
        }
        let encoders = build_encoders(&config, &config.params.key)?;
        Ok(RecordEncoder { config, encoders })
    }

    /// The configured output filter length after hardening.
    pub fn output_len(&self) -> usize {
        let mut len = self.config.params.len;
        for h in &self.config.hardening {
            len = h.output_len(len);
        }
        len
    }

    /// Encodes every record of `dataset`: [`RecordEncoder::encode_rows`]
    /// over all rows, on the calling thread.
    pub fn encode_dataset(&self, dataset: &Dataset) -> Result<EncodedDataset> {
        let mut scratch = self.scratch(dataset.schema())?;
        let records = self.encode_rows(&mut scratch, dataset.records(), 0)?;
        Ok(EncodedDataset { records })
    }

    /// A fresh [`EncodeScratch`] for records laid out by `schema`.
    pub fn scratch(&self, schema: &Schema) -> Result<EncodeScratch<'_>> {
        let field_idx = self
            .config
            .fields
            .iter()
            .map(|s| schema.index_of(&s.field))
            .collect::<Result<_>>()?;
        let salt_idx = match &self.config.salt_field {
            Some(f) => Some(schema.index_of(f)?),
            None => None,
        };
        Ok(EncodeScratch {
            encoder: self,
            field_idx,
            salt_idx,
            budget: MEMO_BUDGET,
            unsalted: KeyedCoders::new((&self.encoders[..]).into()),
            salted: HashMap::new(),
            tokens: TokenScratch::default(),
        })
    }

    /// Encodes `records`, the rows `first_row..` of a dataset laid out as
    /// `scratch` was built for: each row's hardening nonce is its global
    /// row number, so any split of a dataset into calls encodes it exactly
    /// as [`RecordEncoder::encode_dataset`] does. `scratch` must come from
    /// this encoder.
    pub fn encode_rows(
        &self,
        scratch: &mut EncodeScratch<'_>,
        records: &[Record],
        first_row: usize,
    ) -> Result<Vec<EncodedRecord>> {
        if !std::ptr::eq(scratch.encoder, self) {
            return Err(PprlError::invalid("scratch", "built by another encoder"));
        }
        // A lone record (a streaming insert) has no repeats worth keeping.
        let mut no_budget = 0;
        let budget = if records.len() > 1 {
            &mut scratch.budget
        } else {
            &mut no_budget
        };
        let salted = &mut scratch.salted;
        let mut encoded = Vec::with_capacity(records.len());
        for (row, record) in (first_row..).zip(records) {
            let coders = match scratch.salt_idx {
                None => &mut scratch.unsalted,
                Some(si) => {
                    let salt = record.values[si].as_text();
                    if salted.len() >= SALT_CACHE_CAP && !salted.contains_key(&salt) {
                        salted.clear();
                    }
                    match salted.entry(salt) {
                        Entry::Occupied(held) => held.into_mut(),
                        Entry::Vacant(slot) => {
                            let key = salted_key(&self.config.params.key, slot.key());
                            let encoders = build_encoders(&self.config, &key)?;
                            slot.insert(KeyedCoders::new(encoders.into()))
                        }
                    }
                }
            };
            let nonce = row as u64;
            let mut filters = Vec::new();
            for (f, (spec, &idx)) in self
                .config
                .fields
                .iter()
                .zip(&scratch.field_idx)
                .enumerate()
            {
                if f == 0 || self.config.mode == EncodingMode::FieldLevel {
                    filters.push(BitVec::zeros(self.config.params.len));
                }
                let filter = filters.last_mut().expect("pushed for the first field");
                let (encoder, memo) = (&coders.encoders[f], &mut coders.memos[f]);
                spec.encoding.for_each_token(
                    &record.values[idx],
                    &mut scratch.tokens,
                    |token| memo.encode(encoder, &spec.field, token, filter, budget),
                )?;
            }
            let mut hardened = filters
                .into_iter()
                .map(|filter| apply_pipeline(filter, &self.config.hardening, nonce));
            encoded.push(match self.config.mode {
                EncodingMode::Clk => {
                    EncodedRecord::Clk(hardened.next().expect("one CLK filter per record")?)
                }
                EncodingMode::FieldLevel => EncodedRecord::Fields(hardened.collect::<Result<_>>()?),
            });
        }
        Ok(encoded)
    }
}

/// What one thread's [`RecordEncoder::encode_rows`] calls share: the
/// schema's column indices, the field encoders under each salt seen so
/// far, and the tokens every encoder has hashed. Reusing it across calls
/// saves work only: filters never depend on it. Built by
/// [`RecordEncoder::scratch`].
pub struct EncodeScratch<'a> {
    encoder: &'a RecordEncoder,
    field_idx: Vec<usize>,
    salt_idx: Option<usize>,
    /// Tokens the memos may still add.
    budget: usize,
    unsalted: KeyedCoders<'a>,
    salted: HashMap<String, KeyedCoders<'a>>,
    tokens: TokenScratch,
}

/// One encoder per field spec under `key`, each honouring its field's
/// attribute weight (hash-count multiplier) of the weighted-CLK
/// construction.
fn build_encoders(config: &RecordEncoderConfig, key: &[u8]) -> Result<Vec<BloomEncoder>> {
    config
        .fields
        .iter()
        .map(|spec| {
            BloomEncoder::new(BloomParams {
                len: config.params.len,
                num_hashes: config.params.num_hashes * spec.weight,
                scheme: config.params.scheme,
                key: key.to_vec(),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pprl_core::record::Record;
    use pprl_core::value::Date;

    fn person_at(
        first: &str,
        last: &str,
        dob: (i32, u8, u8),
        age: i64,
        street: &str,
        city: &str,
        postcode: &str,
    ) -> Record {
        Record::new(
            0,
            vec![
                Value::Text(first.into()),
                Value::Text(last.into()),
                Value::Text(street.into()),
                Value::Text(city.into()),
                Value::Text(postcode.into()),
                Value::Date(Date::new(dob.0, dob.1, dob.2).unwrap()),
                Value::Categorical("f".into()),
                Value::Integer(age),
            ],
        )
    }

    fn person(first: &str, last: &str, dob: (i32, u8, u8), age: i64) -> Record {
        person_at(first, last, dob, age, "12 main st", "springfield", "1234")
    }

    fn dataset(records: Vec<Record>) -> Dataset {
        Dataset::from_records(Schema::person(), records).unwrap()
    }

    #[test]
    fn config_validation() {
        let schema = Schema::person();
        let mut cfg = RecordEncoderConfig::person_clk(b"k".to_vec());
        cfg.fields
            .push(FieldSpec::new("nope", FieldEncoding::Categorical));
        assert!(RecordEncoder::new(cfg, &schema).is_err());
        let mut cfg = RecordEncoderConfig::person_clk(b"k".to_vec());
        cfg.salt_field = Some("nope".into());
        assert!(RecordEncoder::new(cfg, &schema).is_err());
        let mut cfg = RecordEncoderConfig::person_clk(b"k".to_vec());
        cfg.fields.clear();
        assert!(RecordEncoder::new(cfg, &schema).is_err());
    }

    #[test]
    fn clk_similarity_separates_matches_from_nonmatches() {
        let cfg = RecordEncoderConfig::person_clk(b"shared-key".to_vec());
        let enc = RecordEncoder::new(cfg, &Schema::person()).unwrap();
        let ds_a = dataset(vec![person("anna", "smith", (1987, 6, 5), 39)]);
        let ds_b = dataset(vec![
            person("anna", "smyth", (1987, 6, 5), 39), // near match (same address)
            person_at(
                "greg",
                "jones",
                (1960, 2, 2),
                66,
                "7 oak avenue",
                "shelbyville",
                "9876",
            ), // non-match
        ]);
        let ea = enc.encode_dataset(&ds_a).unwrap();
        let eb = enc.encode_dataset(&ds_b).unwrap();
        let sim_match = ea.records[0].dice(&eb.records[0]).unwrap();
        let sim_non = ea.records[0].dice(&eb.records[1]).unwrap();
        assert!(sim_match > 0.75, "near match scored {sim_match}");
        assert!(sim_non < 0.55, "non-match scored {sim_non}");
        assert!(sim_match > sim_non);
    }

    #[test]
    fn field_level_mode_produces_per_field_filters() {
        let mut cfg = RecordEncoderConfig::person_clk(b"k".to_vec());
        cfg.mode = EncodingMode::FieldLevel;
        let enc = RecordEncoder::new(cfg, &Schema::person()).unwrap();
        let ds = dataset(vec![person("anna", "smith", (1987, 6, 5), 39)]);
        let e = enc.encode_dataset(&ds).unwrap();
        let fields = e.records[0].try_fields().expect("field-level encoding");
        assert_eq!(fields.len(), 8);
        // The typed accessors reject the wrong granularity without panicking.
        let err = e.records[0].try_clk().unwrap_err();
        assert!(matches!(err, PprlError::Unsupported(_)), "{err}");
        assert!(e.records[0].clk().is_none());
        // Self similarity is 1.
        assert_eq!(e.records[0].dice(&e.records[0]).unwrap(), 1.0);
    }

    #[test]
    fn mode_mismatch_is_error() {
        let clk_cfg = RecordEncoderConfig::person_clk(b"k".to_vec());
        let mut fl_cfg = RecordEncoderConfig::person_clk(b"k".to_vec());
        fl_cfg.mode = EncodingMode::FieldLevel;
        let schema = Schema::person();
        let ds = dataset(vec![person("anna", "smith", (1987, 6, 5), 39)]);
        let a = RecordEncoder::new(clk_cfg, &schema)
            .unwrap()
            .encode_dataset(&ds)
            .unwrap();
        let b = RecordEncoder::new(fl_cfg, &schema)
            .unwrap()
            .encode_dataset(&ds)
            .unwrap();
        assert!(a.records[0].dice(&b.records[0]).is_err());
    }

    #[test]
    fn salting_breaks_cross_salt_similarity() {
        let mut cfg = RecordEncoderConfig::person_clk(b"k".to_vec());
        cfg.salt_field = Some("dob".into());
        let enc = RecordEncoder::new(cfg, &Schema::person()).unwrap();
        // Same name, different dob → different salt → dissimilar filters.
        let ds = dataset(vec![
            person("anna", "smith", (1987, 6, 5), 39),
            person("anna", "smith", (1988, 7, 6), 38),
            person("anna", "smith", (1987, 6, 5), 39),
        ]);
        let e = enc.encode_dataset(&ds).unwrap();
        let same_salt = e.records[0].dice(&e.records[2]).unwrap();
        let diff_salt = e.records[0].dice(&e.records[1]).unwrap();
        assert_eq!(same_salt, 1.0);
        assert!(diff_salt < 0.5, "cross-salt similarity {diff_salt}");
    }

    #[test]
    fn encoders_are_built_per_key_not_per_call_or_record() {
        let built = || crate::bloom::ENCODERS_BUILT.with(|built| built.get());
        let anna = |dob| person("anna", "smith", dob, 39);
        let enc = RecordEncoder::new(
            RecordEncoderConfig::person_clk(b"k".to_vec()),
            &Schema::person(),
        )
        .unwrap();
        let before = built();
        // One-record datasets, as `StreamingLinker::insert` encodes them.
        for _ in 0..5 {
            enc.encode_dataset(&dataset(vec![anna((1987, 6, 5))]))
                .unwrap();
        }
        enc.encode_dataset(&dataset(vec![anna((1987, 6, 5)); 3]))
            .unwrap();
        assert_eq!(built(), before, "the unsalted encoders come from `new`");

        // Salted: one set per distinct salt value in the call.
        let mut cfg = RecordEncoderConfig::person_clk(b"k".to_vec());
        cfg.salt_field = Some("dob".into());
        let fields = cfg.fields.len();
        let enc = RecordEncoder::new(cfg, &Schema::person()).unwrap();
        let before = built();
        let rows = [(1987, 6, 5), (1988, 7, 6), (1987, 6, 5), (1988, 7, 6)];
        enc.encode_dataset(&dataset(rows.map(anna).to_vec()))
            .unwrap();
        assert_eq!(built() - before, 2 * fields);
    }

    #[test]
    fn salt_cache_eviction_does_not_show_in_the_filters() {
        // More distinct salts than the cache holds, each revisited after
        // it was evicted: the whole dataset must encode as its rows do
        // one by one.
        let mut cfg = RecordEncoderConfig::person_clk(b"k".to_vec());
        cfg.salt_field = Some("postcode".into());
        cfg.params.len = 64;
        cfg.params.num_hashes = 2;
        cfg.fields.truncate(2);
        let enc = RecordEncoder::new(cfg, &Schema::person()).unwrap();
        let rows: Vec<Record> = (0..2 * (SALT_CACHE_CAP + 10))
            .map(|i| {
                let salt = (i % (SALT_CACHE_CAP + 10)).to_string();
                person_at("anna", "smith", (1987, 6, 5), 39, "1 main st", "ulm", &salt)
            })
            .collect();
        let whole = enc.encode_dataset(&dataset(rows.clone())).unwrap();
        for (row, record) in rows.into_iter().enumerate() {
            let alone = enc.encode_dataset(&dataset(vec![record])).unwrap();
            assert_eq!(alone.records[0], whole.records[row], "row {row}");
        }
    }

    #[test]
    fn encoder_is_shareable_across_threads() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<RecordEncoder>();
    }

    #[test]
    fn hardening_changes_output_length() {
        let mut cfg = RecordEncoderConfig::person_clk(b"k".to_vec());
        cfg.hardening = vec![Hardening::XorFold];
        let enc = RecordEncoder::new(cfg, &Schema::person()).unwrap();
        assert_eq!(enc.output_len(), 500);
        let ds = dataset(vec![person("anna", "smith", (1987, 6, 5), 39)]);
        let e = enc.encode_dataset(&ds).unwrap();
        assert_eq!(e.records[0].clk().unwrap().len(), 500);
    }

    #[test]
    fn missing_values_encode_to_no_tokens() {
        let cfg = RecordEncoderConfig::person_clk(b"k".to_vec());
        let enc = RecordEncoder::new(cfg, &Schema::person()).unwrap();
        let mut r = person("anna", "smith", (1987, 6, 5), 39);
        for v in r.values.iter_mut() {
            *v = Value::Missing;
        }
        let ds = dataset(vec![r]);
        let e = enc.encode_dataset(&ds).unwrap();
        assert_eq!(e.records[0].clk().unwrap().count_ones(), 0);
    }

    #[test]
    fn clks_accessor() {
        let cfg = RecordEncoderConfig::person_clk(b"k".to_vec());
        let enc = RecordEncoder::new(cfg, &Schema::person()).unwrap();
        let ds = dataset(vec![person("anna", "smith", (1987, 6, 5), 39)]);
        let e = enc.encode_dataset(&ds).unwrap();
        assert_eq!(e.clks().unwrap().len(), 1);
        assert_eq!(e.len(), 1);
        assert!(!e.is_empty());
        assert!(e.records[0].try_clk().is_ok());
        assert!(matches!(
            e.records[0].try_fields().unwrap_err(),
            PprlError::Unsupported(_)
        ));
        assert!(e.records[0].fields().is_none());
    }

    #[test]
    fn date_component_tokens_give_partial_credit() {
        let cfg = RecordEncoderConfig {
            fields: vec![FieldSpec::new("dob", FieldEncoding::DateComponents)],
            ..RecordEncoderConfig::person_clk(b"k".to_vec())
        };
        let enc = RecordEncoder::new(cfg, &Schema::person()).unwrap();
        let ds = dataset(vec![
            person("a", "b", (1987, 6, 5), 39),
            person("a", "b", (1987, 6, 6), 39), // day differs
            person("a", "b", (1950, 1, 1), 76), // all components differ
        ]);
        let e = enc.encode_dataset(&ds).unwrap();
        let close = e.records[0].dice(&e.records[1]).unwrap();
        let far = e.records[0].dice(&e.records[2]).unwrap();
        assert!(close > far, "close {close} vs far {far}");
        assert!(close > 0.4);
    }

    #[test]
    fn wrong_value_type_for_date_errors() {
        let spec = FieldEncoding::DateComponents;
        assert!(spec
            .tokens("dob", &Value::Text("1987-06-05".into()))
            .is_err());
        assert!(spec.tokens("dob", &Value::Missing).unwrap().is_empty());
    }
}

#[cfg(test)]
mod weight_tests {
    use super::*;
    use pprl_core::record::Record;
    use pprl_core::value::Date;

    fn two_field_schema() -> Schema {
        pprl_core::schema::Schema::new(vec![
            pprl_core::schema::FieldDef::qid("name", pprl_core::schema::FieldType::Text),
            pprl_core::schema::FieldDef::qid("city", pprl_core::schema::FieldType::Text),
        ])
        .unwrap()
    }

    fn cfg(weight_name: usize) -> RecordEncoderConfig {
        RecordEncoderConfig {
            params: crate::bloom::BloomParams {
                len: 1000,
                num_hashes: 4,
                scheme: crate::bloom::HashingScheme::DoubleHashing,
                key: b"w".to_vec(),
            },
            mode: EncodingMode::Clk,
            fields: vec![
                FieldSpec::new(
                    "name",
                    FieldEncoding::TextQGram(pprl_core::qgram::QGramConfig::default()),
                )
                .weighted(weight_name),
                FieldSpec::new(
                    "city",
                    FieldEncoding::TextQGram(pprl_core::qgram::QGramConfig::default()),
                ),
            ],
            salt_field: None,
            hardening: Vec::new(),
        }
    }

    fn rec(name: &str, city: &str) -> Record {
        Record::new(0, vec![Value::Text(name.into()), Value::Text(city.into())])
    }

    fn ds(records: Vec<Record>) -> Dataset {
        Dataset::from_records(two_field_schema(), records).unwrap()
    }

    #[test]
    fn zero_weight_rejected() {
        let mut c = cfg(1);
        c.fields[0].weight = 0;
        assert!(RecordEncoder::new(c, &two_field_schema()).is_err());
    }

    #[test]
    fn higher_weight_makes_field_dominate_similarity() {
        // Same name / different city vs different name / same city.
        let data = ds(vec![
            rec("jonathan", "springfield"),
            rec("jonathan", "riverside"),   // name agrees
            rec("margaret", "springfield"), // city agrees
        ]);
        let sims = |weight: usize| {
            let enc = RecordEncoder::new(cfg(weight), &two_field_schema()).unwrap();
            let e = enc.encode_dataset(&data).unwrap();
            (
                e.records[0].dice(&e.records[1]).unwrap(), // name-agree pair
                e.records[0].dice(&e.records[2]).unwrap(), // city-agree pair
            )
        };
        let (name_w1, city_w1) = sims(1);
        let (name_w4, city_w4) = sims(4);
        // With weight 4 on the name, the name-agreeing pair gains relative
        // to the city-agreeing pair.
        assert!(
            name_w4 - city_w4 > name_w1 - city_w1,
            "weighting should widen the gap: w1 ({name_w1:.3},{city_w1:.3}) w4 ({name_w4:.3},{city_w4:.3})"
        );
        assert!(name_w4 > 0.6);
    }

    #[test]
    fn weighting_keeps_self_similarity_one() {
        let data = ds(vec![rec("anna", "oxford")]);
        let enc = RecordEncoder::new(cfg(3), &two_field_schema()).unwrap();
        let e = enc.encode_dataset(&data).unwrap();
        assert_eq!(e.records[0].dice(&e.records[0]).unwrap(), 1.0);
    }

    #[test]
    fn date_unused_helper_still_compiles() {
        // Keep the Date import exercised for the weighted module.
        let _ = Date::new(2000, 1, 1).unwrap();
    }
}
