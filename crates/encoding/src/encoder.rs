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

use crate::bloom::{or_words, BloomEncoder, BloomParams, PositionMemo, ValueMemo};
use crate::hardening::{apply_pipeline, salted_key, Hardening};
use crate::numeric_bf::NeighbourhoodParams;
use pprl_core::bitvec::BitVec;
use pprl_core::error::{PprlError, Result};
use pprl_core::normalize::{normalize_into, NormalizeConfig};
use pprl_core::qgram::{for_each_qgram, QGramConfig, QGramScratch};
use pprl_core::record::{Dataset, Record};
use pprl_core::schema::Schema;
use pprl_core::value::Value;
use pprl_similarity::bitvec_sim::dice_bits;
use std::borrow::Cow;
use std::collections::HashMap;

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
/// so that tokenising allocates nothing once they have grown.
#[derive(Debug, Default)]
pub struct TokenScratch {
    qgrams: QGramScratch,
    /// The value rendered as text, when it is not text already.
    text: String,
    /// The normalised text.
    normalised: String,
    /// The current date or numeric token.
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
        let TokenScratch {
            qgrams,
            text,
            normalised,
            token,
        } = scratch;
        // `prefix`, then the numbers `-`-joined, each zero-padded to its
        // width: what `format!` writes, without its machinery.
        let mut emit = |prefix: &str, numbers: &[(i64, usize)]| {
            token.clear();
            token.push_str(prefix);
            for (i, &(n, width)) in numbers.iter().enumerate() {
                if i > 0 {
                    token.push('-');
                }
                push_decimal(token, n, width);
            }
            f(token);
        };
        match self {
            FieldEncoding::TextQGram(cfg) => {
                normalize_into(value.text(text), &NormalizeConfig::default(), normalised);
                for_each_qgram(normalised, cfg, qgrams, f);
            }
            FieldEncoding::Numeric(params) => {
                for point in params.grid_points(value.as_f64()?)? {
                    emit("n", &[(point, 0)]);
                }
            }
            FieldEncoding::DateComponents => match value {
                Value::Date(d) => {
                    let year = d.year().into();
                    let (month, day) = (d.month().into(), d.day().into());
                    emit("full:", &[(year, 4), (month, 2), (day, 2)]);
                    emit("y:", &[(year, 0)]);
                    emit("m:", &[(month, 0)]);
                    emit("d:", &[(day, 0)]);
                }
                _ => {
                    return Err(PprlError::ValueError(
                        "DateComponents encoding needs a Date value".into(),
                    ))
                }
            },
            FieldEncoding::Categorical => {
                normalize_into(value.text(text), &NormalizeConfig::default(), normalised);
                if !normalised.is_empty() {
                    f(normalised);
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

/// Appends `n` in decimal, zero-padded to `width` characters counting
/// the sign, as `{n:0width$}` does.
fn push_decimal(out: &mut String, n: i64, width: usize) {
    let mut digits = [0; 20];
    let mut rest = n.unsigned_abs();
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    if n < 0 {
        out.push('-');
    }
    let len = digits.len() - at + usize::from(n < 0);
    out.extend(std::iter::repeat_n('0', width.saturating_sub(len)));
    out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
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
    /// age (neighbourhood ±2 years); l = 512, k = 4, no hardening.
    ///
    /// **Derivation.** A person record inserts n ≈ 54 tokens (fill 0.419 at
    /// l = 1000, k = 10). The scan is memory-bound, so l = 512: the shortest
    /// row that is one 64-byte line, 8 words with no masked tail (384 and
    /// 448 bits keep F1 only at k = 3). At the 0.8 Dice threshold F1 rises
    /// as the filter gets sparser, not at the false-positive optimum
    /// k = (l/n)·ln 2 ≈ 6.6 (k = 6 loses 0.006–0.009, k = 5 is within
    /// ±0.003), so k = 4: fill 1 − (1 − 1/512)^(4·54) ≈ 0.34, 0.33–0.36
    /// measured. k = 3 scores higher, but the standard 16 × 24 `HammingLsh`
    /// then passes ~12× the candidates of l = 1000 (k = 4: ~3×).
    ///
    /// F1 of `PipelineConfig::standard`'s `link`, 20k × 20k generated records:
    ///
    /// | (l, k) | seed 1 | seed 2 | seed 3 | seed 7 | seed 201 |
    /// |---|---|---|---|---|---|
    /// | (1000, 10) | 0.9826 | 0.9838 | 0.9821 | 0.9827 | 0.9833 |
    /// | (512, 4) | 0.9885 | 0.9889 | 0.9896 | 0.9893 | 0.9871 |
    pub fn person_clk(key: impl Into<Vec<u8>>) -> Self {
        let q = QGramConfig::default();
        RecordEncoderConfig {
            params: BloomParams {
                len: 512,
                num_hashes: 4,
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
/// let params = &RecordEncoderConfig::person_clk(b"shared-key".to_vec()).params;
/// assert_eq!(encoded.records[0].clk().unwrap().len(), params.len);
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
/// Bytes of values and their filter words one [`EncodeScratch`] memoises:
/// ~16k values of a 512-bit filter, which stay in a core's L2 cache.
/// On a 10k-record 1000-bit corpus 64 and 256 KiB hit less, 8 MiB cost more.
const VALUE_MEMO_BYTES: usize = 1 << 20;

/// The field encoders under one key and what they have encoded so far.
struct KeyedCoders<'a> {
    encoders: Cow<'a, [BloomEncoder]>,
    /// Per field: the tokens and the values it has encoded.
    memos: Vec<(PositionMemo, ValueMemo)>,
}

impl<'a> KeyedCoders<'a> {
    fn new(encoders: Cow<'a, [BloomEncoder]>) -> Self {
        let memos = encoders.iter().map(|_| Default::default()).collect();
        KeyedCoders { encoders, memos }
    }
}

/// `value` as a [`ValueMemo`] key, equal only for equal values: a variant
/// tag and the text's bytes, or the number's (a date's epoch day) written
/// into `number`. `None` for a missing value, which sets no bits.
fn value_key<'v>(value: &'v Value, number: &'v mut [u8; 8]) -> Option<(u8, &'v [u8])> {
    let (tag, n) = match value {
        Value::Text(s) => return Some((b't', s.as_bytes())),
        Value::Categorical(s) => return Some((b'c', s.as_bytes())),
        Value::Integer(i) => (b'i', *i),
        Value::Float(x) => (b'f', x.to_bits() as i64),
        Value::Date(d) => (b'd', d.to_epoch_days()),
        Value::Missing => return None,
    };
    *number = n.to_le_bytes();
    Some((tag, number))
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
            value_budget: VALUE_MEMO_BYTES,
            entry: Vec::new(),
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
        let remember = records.len() > 1;
        let mut no_budget = 0;
        let budget = if remember {
            &mut scratch.budget
        } else {
            &mut no_budget
        };
        let salted = &mut scratch.salted;
        let len = self.config.params.len;
        let mut encoded = Vec::with_capacity(records.len());
        for (row, record) in (first_row..).zip(records) {
            let coders = match scratch.salt_idx {
                None => &mut scratch.unsalted,
                Some(si) => {
                    let salt = record.values[si].text(&mut scratch.tokens.text);
                    if !salted.contains_key(salt) {
                        if salted.len() >= SALT_CACHE_CAP {
                            salted.clear();
                        }
                        let key = salted_key(&self.config.params.key, salt);
                        let encoders = build_encoders(&self.config, &key)?;
                        salted.insert(salt.to_owned(), KeyedCoders::new(encoders.into()));
                    }
                    salted.get_mut(salt).expect("inserted above")
                }
            };
            let harden = |words| {
                let filter = BitVec::from_words(words, len)?;
                apply_pipeline(filter, &self.config.hardening, row as u64)
            };
            // Every token's bits go straight into the words of the filter
            // being built: one allocation per output filter.
            let mut fields = Vec::new();
            let mut words = vec![0; BitVec::words_for_len(len)];
            for (f, (spec, &idx)) in self
                .config
                .fields
                .iter()
                .zip(&scratch.field_idx)
                .enumerate()
            {
                if f > 0 && self.config.mode == EncodingMode::FieldLevel {
                    let next = vec![0; words.len()];
                    fields.push(harden(std::mem::replace(&mut words, next))?);
                }
                let (encoder, (memo, values)) = (&coders.encoders[f], &mut coders.memos[f]);
                let value = &record.values[idx];
                let mut number = [0; 8];
                let key = value_key(value, &mut number).filter(|_| remember && values.repeats());
                if key.is_some_and(|key| values.get(key, &mut words)) {
                    continue;
                }
                // A value to remember is tokenised into words of its own,
                // swapped in for the record's.
                let keep = key.filter(|_| scratch.value_budget > 0);
                if keep.is_some() {
                    scratch.entry.clear();
                    scratch.entry.resize(words.len(), 0);
                    std::mem::swap(&mut words, &mut scratch.entry);
                }
                #[cfg(test)]
                crate::bloom::VALUES_TOKENISED.with(|n| n.set(n.get() + 1));
                spec.encoding
                    .for_each_token(value, &mut scratch.tokens, |token| {
                        memo.encode(encoder, &spec.field, token, &mut words, budget)
                    })?;
                if let Some(key) = keep {
                    std::mem::swap(&mut words, &mut scratch.entry);
                    or_words(&mut words, &scratch.entry);
                    values.insert(key, &scratch.entry, &mut scratch.value_budget);
                }
            }
            encoded.push(match self.config.mode {
                EncodingMode::Clk => EncodedRecord::Clk(harden(words)?),
                EncodingMode::FieldLevel => {
                    fields.push(harden(words)?);
                    EncodedRecord::Fields(fields)
                }
            });
        }
        Ok(encoded)
    }
}

/// What one thread's [`RecordEncoder::encode_rows`] calls share: the
/// schema's column indices, the field encoders under each salt seen so
/// far, and the tokens and values every encoder has encoded. Reusing it
/// across calls saves work only: filters never depend on it. Built by
/// [`RecordEncoder::scratch`].
pub struct EncodeScratch<'a> {
    encoder: &'a RecordEncoder,
    field_idx: Vec<usize>,
    salt_idx: Option<usize>,
    /// Tokens the memos may still add.
    budget: usize,
    /// Bytes the value memos may still add.
    value_budget: usize,
    /// The words of the value being remembered.
    entry: Vec<u64>,
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

    /// Room for two entries of a 512-bit filter and a long key: the
    /// value memo fills up a few records into a call.
    const TINY_VALUE_BUDGET: usize = 2 * 64 + 40;

    #[test]
    fn value_memo_filling_up_mid_call_does_not_show_in_the_filters() {
        let enc = RecordEncoder::new(
            RecordEncoderConfig::person_clk(b"k".to_vec()),
            &Schema::person(),
        )
        .unwrap();
        let long = "a street name of more than fifteen bytes";
        let rows: Vec<Record> = (0..12)
            .map(|i| {
                let first = ["anna", "bert", "carl"][i % 3];
                let street = [long, "1 main st"][i % 2];
                person_at(first, "smith", (1987, 6, 5), 39, street, "ulm", "1234")
            })
            .collect();
        let mut scratch = enc.scratch(&Schema::person()).unwrap();
        scratch.value_budget = TINY_VALUE_BUDGET;
        let whole = enc.encode_rows(&mut scratch, &rows, 0).unwrap();
        assert!(scratch.value_budget < 64, "the budget ran out");
        for (row, record) in rows.into_iter().enumerate() {
            let alone = enc.encode_dataset(&dataset(vec![record])).unwrap();
            assert_eq!(alone.records[0], whole[row], "row {row}");
        }
    }

    #[test]
    fn values_that_never_repeat_stop_being_looked_up() {
        let mut cfg = RecordEncoderConfig::person_clk(b"k".to_vec());
        cfg.params.len = 64;
        cfg.params.num_hashes = 2;
        cfg.fields.truncate(2);
        let enc = RecordEncoder::new(cfg, &Schema::person()).unwrap();
        let rows: Vec<Record> = (0..1100)
            .map(|i| {
                person(
                    &format!("n{i}"),
                    ["smith", "jones"][i % 2],
                    (1987, 6, 5),
                    39,
                )
            })
            .collect();
        let mut scratch = enc.scratch(&Schema::person()).unwrap();
        let whole = enc.encode_rows(&mut scratch, &rows, 0).unwrap();
        // Unique first names closed their memo; repeating last names did not.
        let memos = &scratch.unsalted.memos;
        assert!(!memos[0].1.repeats() && memos[1].1.repeats());
        for (row, record) in rows.into_iter().enumerate() {
            let alone = enc.encode_dataset(&dataset(vec![record])).unwrap();
            assert_eq!(alone.records[0], whole[row], "row {row}");
        }
    }

    #[test]
    fn failed_values_are_never_memoised() {
        let enc = RecordEncoder::new(
            RecordEncoderConfig::person_clk(b"k".to_vec()),
            &Schema::person(),
        )
        .unwrap();
        let date = Value::Text("1987-06-05".into());
        let mut bad = person("anna", "smith", (1987, 6, 5), 39);
        // The same value encodes as a first name and fails as a dob.
        bad.values[0] = date.clone();
        bad.values[5] = date;
        let mut scratch = enc.scratch(&Schema::person()).unwrap();
        let good = person("anna", "smith", (1987, 6, 5), 39);
        for rows in [vec![bad.clone(); 2], vec![good, bad.clone()], vec![bad; 3]] {
            let err = enc.encode_rows(&mut scratch, &rows, 0).unwrap_err();
            assert!(matches!(err, PprlError::ValueError(_)), "{err}");
        }
    }

    #[test]
    fn each_distinct_value_is_tokenised_once_per_scratch() {
        let tokenised = || crate::bloom::VALUES_TOKENISED.with(|n| n.get());
        let cfg = RecordEncoderConfig::person_clk(b"k".to_vec());
        let fields = cfg.fields.len();
        let enc = RecordEncoder::new(cfg, &Schema::person()).unwrap();
        // Two records that differ in every field.
        let a = person("anna", "smith", (1987, 6, 5), 39);
        let mut b = person_at(
            "bert",
            "jones",
            (1960, 2, 2),
            66,
            "7 oak ave",
            "ulm",
            "9876",
        );
        b.values[6] = Value::Categorical("m".into());
        let before = tokenised();
        let rows = [&a, &b, &a, &a, &b].map(Record::clone).to_vec();
        enc.encode_dataset(&dataset(rows)).unwrap();
        assert_eq!(tokenised() - before, 2 * fields);

        // One-record calls tokenise every value and remember none.
        let mut scratch = enc.scratch(&Schema::person()).unwrap();
        let before = tokenised();
        for _ in 0..3 {
            enc.encode_rows(&mut scratch, std::slice::from_ref(&a), 0)
                .unwrap();
        }
        assert_eq!(tokenised() - before, 3 * fields);
        assert_eq!(scratch.value_budget, VALUE_MEMO_BYTES);
        let before = tokenised();
        enc.encode_rows(&mut scratch, &[a.clone(), a], 0).unwrap();
        assert_eq!(tokenised() - before, fields);
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
        let folded = cfg.params.len / 2;
        let enc = RecordEncoder::new(cfg, &Schema::person()).unwrap();
        assert_eq!(enc.output_len(), folded);
        let ds = dataset(vec![person("anna", "smith", (1987, 6, 5), 39)]);
        let e = enc.encode_dataset(&ds).unwrap();
        assert_eq!(e.records[0].clk().unwrap().len(), folded);
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
    fn push_decimal_writes_what_format_does() {
        for n in [0, 7, -7, 42, -42, 1987, -1987, 12_345, i64::MAX, i64::MIN] {
            for width in [0, 2, 4] {
                let mut out = String::from("x");
                push_decimal(&mut out, n, width);
                assert_eq!(out, format!("x{n:0width$}"));
            }
        }
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
