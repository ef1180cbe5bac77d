//! Randomized property tests over the encoding, CSV, matching and protocol
//! layers: round trips, invariants, and structural guarantees under
//! arbitrary inputs.
//!
//! Ported from `proptest` to the in-repo deterministic `SplitMix64`
//! harness (zero external crates); each property runs a fixed number of
//! seeded random cases.

use pprl::blocking::lsh::HammingLsh;
use pprl::blocking::source::HammingLshSource;
use pprl::core::bitvec::BitVec;
use pprl::core::candidate::{CandidateSource, Probes};
use pprl::core::qgram::QGramConfig;
use pprl::core::record::{Dataset, Record};
use pprl::core::rng::SplitMix64;
use pprl::core::schema::{FieldDef, FieldType, Schema};
use pprl::core::value::{Date, Value};
use pprl::crypto::secure_sum::{sum_additive_shares, sum_masked_ring};
use pprl::crypto::sha::to_hex;
use pprl::encoding::bloom::{BloomEncoder, BloomParams, HashingScheme};
use pprl::encoding::encoder::{
    EncodedRecord, EncodingMode, FieldEncoding, FieldSpec, RecordEncoder, RecordEncoderConfig,
};
use pprl::encoding::hardening::{apply_pipeline, salted_key, Hardening};
use pprl::encoding::numeric_bf::NeighbourhoodParams;
use pprl::matching::assignment::{greedy_one_to_one, hungarian_one_to_one};
use pprl::matching::collective::{collective_refine, CollectiveConfig};
use std::collections::{HashMap, HashSet};

const CASES: usize = 48;

fn small_schema() -> Schema {
    Schema::new(vec![
        FieldDef::qid("name", FieldType::Text),
        FieldDef::qid("age", FieldType::Integer),
        FieldDef::qid("dob", FieldType::Date),
        FieldDef::qid("gender", FieldType::Categorical),
    ])
    .expect("unique names")
}

/// Text including CSV-hostile characters (commas, quotes, newlines).
fn value_text(rng: &mut SplitMix64) -> String {
    const ALPHABET: &[char] = &['a', 'b', 'c', 'x', 'y', 'z', ' ', ',', '"', '\n', '\''];
    let len = rng.next_below(17) as usize;
    (0..len)
        .map(|_| ALPHABET[rng.next_below(ALPHABET.len() as u64) as usize])
        .collect()
}

fn arb_record(rng: &mut SplitMix64) -> Record {
    let name = value_text(rng);
    let age = rng.next_below(120) as i64;
    let y = 1940 + rng.next_below(80) as i32;
    let m = 1 + rng.next_below(12) as u8;
    let d = 1 + rng.next_below(28) as u8;
    let g = ["m", "f", "x"][rng.next_below(3) as usize];
    Record::new(
        rng.next_u64(),
        vec![
            Value::Text(name),
            Value::Integer(age),
            Value::Date(Date::new(y, m, d).expect("day < 29 always valid")),
            Value::Categorical(g.to_string()),
        ],
    )
}

fn positions(rng: &mut SplitMix64, len: usize) -> Vec<usize> {
    let n = rng.next_below(len as u64 / 2) as usize;
    (0..n)
        .map(|_| rng.next_below(len as u64) as usize)
        .collect()
}

/// Random scored pairs `(a, b, s)` over small index ranges.
fn scored_pairs(rng: &mut SplitMix64, max_idx: u64, max_len: u64) -> Vec<(usize, usize, f64)> {
    let n = 1 + rng.next_below(max_len) as usize;
    (0..n)
        .map(|_| {
            (
                rng.next_below(max_idx) as usize,
                rng.next_below(max_idx) as usize,
                rng.next_f64(),
            )
        })
        .collect()
}

// ---------- CSV round trip ----------

#[test]
fn csv_round_trips_arbitrary_datasets() {
    let mut rng = SplitMix64::new(0xC1);
    for case in 0..CASES {
        let n = rng.next_below(20) as usize;
        let records: Vec<Record> = (0..n).map(|_| arb_record(&mut rng)).collect();
        let ds = Dataset::from_records(small_schema(), records).expect("valid widths");
        let csv = ds.to_csv();
        let back = Dataset::from_csv(&csv, small_schema()).expect("parses own output");
        assert_eq!(back.len(), ds.len(), "case {case}");
        for (a, b) in ds.records().iter().zip(back.records()) {
            assert_eq!(a.entity_id, b.entity_id);
            // Text round-trips modulo the reader's documented trim
            // semantics (cells are trimmed; all-whitespace becomes Missing).
            for (va, vb) in a.values.iter().zip(&b.values) {
                let (ta, tb) = (va.as_text(), vb.as_text());
                assert_eq!(ta.trim(), tb.trim(), "case {case}");
            }
        }
    }
}

// ---------- hardening invariants ----------

#[test]
fn hardening_output_lengths_match_contract() {
    let mut rng = SplitMix64::new(0xC2);
    for case in 0..CASES {
        let ones = positions(&mut rng, 128);
        let nonce = rng.next_u64();
        let f = BitVec::from_positions(128, &ones).expect("in range");
        for h in [
            Hardening::Balance,
            Hardening::XorFold,
            Hardening::Rule90,
            Hardening::Blip { epsilon: 2.0 },
            Hardening::Permute { seed: 5 },
        ] {
            let out = h.apply(&f, nonce).expect("valid");
            assert_eq!(out.len(), h.output_len(128), "case {case}: {h:?}");
        }
        // Balance always yields exactly half the bits set.
        let b = Hardening::Balance.apply(&f, nonce).expect("valid");
        assert_eq!(b.count_ones(), 128, "case {case}");
        // Permutation preserves weight.
        let p = Hardening::Permute { seed: 9 }
            .apply(&f, nonce)
            .expect("valid");
        assert_eq!(p.count_ones(), f.count_ones(), "case {case}");
    }
}

// ---------- assignment invariants ----------

#[test]
fn hungarian_never_worse_than_greedy() {
    let mut rng = SplitMix64::new(0xC3);
    for case in 0..CASES {
        let raw = scored_pairs(&mut rng, 8, 24);
        let greedy: f64 = greedy_one_to_one(&raw).iter().map(|p| p.2).sum();
        let optimal: f64 = hungarian_one_to_one(&raw)
            .expect("valid scores")
            .iter()
            .map(|p| p.2)
            .sum();
        assert!(
            optimal >= greedy - 1e-9,
            "case {case}: hungarian {optimal} < greedy {greedy}"
        );
    }
}

#[test]
fn assignments_are_one_to_one() {
    let mut rng = SplitMix64::new(0xC4);
    for case in 0..CASES {
        let raw = scored_pairs(&mut rng, 6, 20);
        for out in [
            greedy_one_to_one(&raw),
            hungarian_one_to_one(&raw).expect("valid"),
        ] {
            let rows_a: std::collections::HashSet<_> = out.iter().map(|p| p.0).collect();
            let rows_b: std::collections::HashSet<_> = out.iter().map(|p| p.1).collect();
            assert_eq!(rows_a.len(), out.len(), "case {case}");
            assert_eq!(rows_b.len(), out.len(), "case {case}");
        }
    }
}

// ---------- collective refinement invariants ----------

#[test]
fn collective_refinement_never_raises_scores() {
    let mut rng = SplitMix64::new(0xC5);
    for case in 0..CASES {
        let raw = scored_pairs(&mut rng, 6, 20);
        let cfg = CollectiveConfig {
            threshold: 0.0,
            ..CollectiveConfig::default()
        };
        let refined = collective_refine(&raw, &cfg).expect("valid scores");
        // exclusivity ≤ 1 ⇒ refined score ≤ raw score for every pair kept
        let raw_best: std::collections::HashMap<(usize, usize), f64> = raw
            .iter()
            .map(|&(a, b, s)| ((a, b), s))
            .fold(std::collections::HashMap::new(), |mut m, (k, s)| {
                let e = m.entry(k).or_insert(0.0);
                if s > *e {
                    *e = s;
                }
                m
            });
        for (a, b, s) in refined {
            assert!(s <= raw_best[&(a, b)] + 1e-9, "case {case}");
            assert!(s >= 0.0, "case {case}");
        }
    }
}

// ---------- secure summation agreement ----------

#[test]
fn secure_sum_protocols_agree() {
    let mut rng = SplitMix64::new(0xC6);
    for case in 0..CASES {
        let n = 2 + rng.next_below(5) as usize;
        let values: Vec<u64> = (0..n).map(|_| rng.next_below(1_000_000)).collect();
        let expected: u64 = values.iter().sum();
        let ring = sum_masked_ring(&values, &mut rng).expect("valid inputs");
        let shares = sum_additive_shares(&values, &mut rng).expect("valid inputs");
        assert_eq!(ring.sum, expected, "case {case}");
        assert_eq!(shares.sum, expected, "case {case}");
    }
}

// ---------- memoised encoding ≡ memo-free reference ----------

/// Records over a tiny alphabet, so q-grams repeat heavily within and
/// across rows, with missing values and exact duplicate rows mixed in.
/// The alphabet has non-ASCII letters and punctuation, tabs and runs of
/// spaces (the normaliser's slow branch and whitespace collapsing), and
/// one categorical value is longer than the 15 bytes a packed memo key
/// holds. Values of different variants that render alike (`31` as text,
/// integer and categorical in the name field; `0`, `-0` and `31` as
/// floats beside the integer ages) must each encode as their variant
/// does, and a long name exercises the value memo's long keys.
fn repetitive_dataset(rng: &mut SplitMix64) -> Dataset {
    let n = rng.next_below(40) as usize;
    let mut records: Vec<Record> = Vec::with_capacity(n);
    for _ in 0..n {
        if !records.is_empty() && rng.next_below(4) == 0 {
            let twin = records[rng.next_below(records.len() as u64) as usize].clone();
            records.push(twin);
            continue;
        }
        const PIECES: [&str; 11] = ["a", "b", "A", " ", "   ", "\t", "é", "ß", "ł", "Ø", "’"];
        let name: String = (0..rng.next_below(9))
            .map(|_| PIECES[rng.next_below(PIECES.len() as u64) as usize])
            .collect();
        const GENDERS: [&str; 3] = ["m", "f", "not stated at admission"];
        let name = match rng.next_below(8) {
            0 => Value::Integer(31),
            1 => Value::Categorical("31".into()),
            2 => Value::Text("31".into()),
            3 => Value::Text("a name longer than fifteen bytes".into()),
            _ => Value::Text(name),
        };
        let age = match rng.next_below(6) {
            0 => Value::Float([0.0, -0.0, 31.0][rng.next_below(3) as usize]),
            _ => Value::Integer(30 + rng.next_below(4) as i64),
        };
        let mut values = vec![
            name,
            age,
            Value::Date(Date::new(1990, 1 + rng.next_below(2) as u8, 1).expect("valid date")),
            Value::Categorical(GENDERS[rng.next_below(3) as usize].to_string()),
        ];
        for value in values.iter_mut() {
            if rng.next_below(6) == 0 {
                *value = Value::Missing;
            }
        }
        records.push(Record::new(rng.next_u64(), values));
    }
    Dataset::from_records(small_schema(), records).expect("valid widths")
}

/// A random encoder over [`small_schema`]: either scheme and mode, field
/// weights, an optional salt with few or many distinct values, and
/// deterministic hardening (so a row's filter does not depend on where
/// the row sits in its dataset).
fn arb_encoder_config(rng: &mut SplitMix64) -> RecordEncoderConfig {
    let qgrams = QGramConfig {
        q: 1 + rng.next_below(3) as usize,
        padded: rng.next_below(2) == 0,
        positional: rng.next_below(3) == 0,
    };
    let numeric = NeighbourhoodParams::new(1.0, 2).expect("valid");
    let mut fields = vec![
        FieldSpec::new("name", FieldEncoding::TextQGram(qgrams)),
        FieldSpec::new("age", FieldEncoding::Numeric(numeric)),
        FieldSpec::new("dob", FieldEncoding::DateComponents),
        FieldSpec::new("gender", FieldEncoding::Categorical),
    ];
    for spec in fields.iter_mut() {
        spec.weight = 1 + rng.next_below(3) as usize;
    }
    RecordEncoderConfig {
        params: BloomParams {
            len: [64, 100, 257][rng.next_below(3) as usize],
            num_hashes: 1 + rng.next_below(5) as usize,
            scheme: [HashingScheme::DoubleHashing, HashingScheme::KIndependent]
                [rng.next_below(2) as usize],
            key: b"property-key".to_vec(),
        },
        mode: [EncodingMode::Clk, EncodingMode::FieldLevel][rng.next_below(2) as usize],
        fields,
        salt_field: [None, Some("gender".to_string()), Some("name".to_string())]
            [rng.next_below(3) as usize]
            .clone(),
        hardening: [
            vec![],
            vec![Hardening::XorFold],
            vec![Hardening::Permute { seed: 3 }, Hardening::Rule90],
        ][rng.next_below(3) as usize]
            .clone(),
    }
}

/// Encodes without any memo: fresh encoders per record, every token
/// hashed through `positions()`.
fn reference_encode(config: &RecordEncoderConfig, dataset: &Dataset) -> Vec<EncodedRecord> {
    let schema = dataset.schema();
    let rows = dataset.records().iter().enumerate();
    rows.map(|(row, record)| {
        let key = match &config.salt_field {
            Some(salt) => {
                let salt = record.values[schema.index_of(salt).expect("salt field")].as_text();
                salted_key(&config.params.key, &salt)
            }
            None => config.params.key.clone(),
        };
        let filters: Vec<BitVec> = config
            .fields
            .iter()
            .map(|spec| {
                let encoder = BloomEncoder::new(BloomParams {
                    key: key.clone(),
                    num_hashes: config.params.num_hashes * spec.weight,
                    ..config.params.clone()
                })
                .expect("valid params");
                let value = &record.values[schema.index_of(&spec.field).expect("field")];
                let tokens = spec.encoding.tokens(&spec.field, value).expect("tokenises");
                let positions: Vec<usize> =
                    tokens.iter().flat_map(|t| encoder.positions(t)).collect();
                BitVec::from_positions(config.params.len, &positions).expect("in range")
            })
            .collect();
        let harden = |f: BitVec| apply_pipeline(f, &config.hardening, row as u64).expect("valid");
        match config.mode {
            EncodingMode::Clk => {
                let mut clk = BitVec::zeros(config.params.len);
                for f in &filters {
                    clk.or_assign(f).expect("same length");
                }
                EncodedRecord::Clk(harden(clk))
            }
            EncodingMode::FieldLevel => {
                EncodedRecord::Fields(filters.into_iter().map(harden).collect())
            }
        }
    })
    .collect()
}

#[test]
fn memoised_encoding_equals_memo_free_reference_in_any_chunking() {
    let mut rng = SplitMix64::new(0xC7);
    for case in 0..CASES {
        let dataset = repetitive_dataset(&mut rng);
        let config = arb_encoder_config(&mut rng);
        let encoder = RecordEncoder::new(config.clone(), dataset.schema()).expect("valid config");
        let whole = encoder.encode_dataset(&dataset).expect("encodes").records;
        assert_eq!(whole, reference_encode(&config, &dataset), "case {case}");
        // The same rows in three chunks, as the benchmark's encoder
        // threads see them: a call-scoped memo must not show.
        let chunked: Vec<EncodedRecord> = dataset
            .records()
            .chunks(dataset.len().div_ceil(3).max(1))
            .flat_map(|part| {
                let part = Dataset::from_records(small_schema(), part.to_vec()).expect("rows");
                encoder.encode_dataset(&part).expect("encodes").records
            })
            .collect();
        assert_eq!(chunked, whole, "case {case}");
    }
}

// ---------- integer-key Hamming LSH ≡ byte-key oracle ----------

/// `candidates` as it was before integer keys: a byte key per filter
/// per table, pairs unioned through a hash set.
fn candidates_by_byte_keys(
    lsh: &HammingLsh,
    filters_a: &[&BitVec],
    filters_b: &[&BitVec],
) -> Vec<(usize, usize)> {
    let len = filters_a
        .first()
        .or(filters_b.first())
        .map_or(0, |f| f.len());
    let mut out: HashSet<(usize, usize)> = HashSet::new();
    for positions in lsh.sampled_positions(len) {
        let mut table: HashMap<Vec<u8>, Vec<usize>> = HashMap::new();
        for (j, f) in filters_b.iter().enumerate() {
            if f.count_ones() != 0 {
                let key = f.sample(&positions).unwrap().to_bytes();
                table.entry(key).or_default().push(j);
            }
        }
        for (i, f) in filters_a.iter().enumerate() {
            if f.count_ones() != 0 {
                let key = f.sample(&positions).unwrap().to_bytes();
                out.extend(table.get(&key).into_iter().flatten().map(|&j| (i, j)));
            }
        }
    }
    let mut pairs: Vec<(usize, usize)> = out.into_iter().collect();
    pairs.sort_unstable();
    pairs
}

#[test]
fn integer_keys_give_exactly_the_byte_key_pairs() {
    let mut rng = SplitMix64::new(0x15A);
    for case in 0..64 {
        // The last cases are large enough for the runner to admit helpers.
        let large = case >= 60;
        let len = if large {
            1000
        } else {
            [64usize, 65, 100, 256, 1000][case % 5]
        };
        let bits = if large {
            24
        } else {
            [1usize, 24, 64][case % 3]
        };
        // Clusters of near-duplicates plus all-zero filters, so that
        // tables collide often and rows repeat across tables.
        let mut population = |n: usize| -> Vec<BitVec> {
            let bases: Vec<BitVec> = (0..(n / 3).max(4))
                .map(|_| {
                    let mut f = BitVec::zeros(len);
                    for _ in 0..len / 3 {
                        f.set(rng.next_below(len as u64) as usize);
                    }
                    f
                })
                .collect();
            (0..n)
                .map(|_| {
                    if rng.next_below(8) == 0 {
                        return BitVec::zeros(len);
                    }
                    let mut f = bases[rng.next_below(bases.len() as u64) as usize].clone();
                    for _ in 0..rng.next_below(4) {
                        f.flip(rng.next_below(len as u64) as usize);
                    }
                    f
                })
                .collect()
        };
        let (a, a2, b) = if large {
            (population(3000), population(2000), population(3000))
        } else {
            (
                population(1 + case % 17),
                population(case % 5),
                population(case % 23),
            )
        };
        let (a, b): (Vec<&BitVec>, Vec<&BitVec>) = (a.iter().collect(), b.iter().collect());
        // A second probe set: fresh rows and A's rows in reverse.
        let a2: Vec<&BitVec> = a2.iter().chain(a.iter().rev().copied()).collect();
        let tables = if large { 16 } else { 1 + case % 6 };
        let lsh = HammingLsh::new(tables, bits, rng.next_u64()).unwrap();
        let want = candidates_by_byte_keys(&lsh, &a, &b);
        let want2 = candidates_by_byte_keys(&lsh, &a2, &b);
        for threads in [1, 2, 4, 8] {
            let at = format!("case {case}: {len} bits, {bits} per key, {threads} threads");
            assert_eq!(lsh.candidates(&a, &b, threads).unwrap(), want, "{at}");
            // B bound once answers every probe set.
            let mut source = HammingLshSource::new(lsh.clone(), &b, threads).unwrap();
            let mut probe =
                |filters: &[&BitVec]| source.candidates(&Probes::from_filters(filters)).unwrap();
            assert_eq!(probe(&a), want, "{at}, bound");
            assert_eq!(probe(&a2), want2, "{at}, bound, second probe");
            assert!(probe(&[]).is_empty(), "{at}, bound, empty probe");
        }
    }
}

// ---------- golden filters (bit identity with stored indexes) ----------

/// Two fixed person records: a full one with accents, punctuation and
/// repeated q-grams, and one with missing values.
fn golden_dataset() -> Dataset {
    let full = Record::new(
        1,
        vec![
            Value::Text("Anna-María".into()),
            Value::Text("O'Brien".into()),
            Value::Text("12 Banana  Street".into()),
            Value::Text("Springfield".into()),
            Value::Text("AB1 2CD".into()),
            Value::Date(Date::new(1987, 6, 5).expect("valid date")),
            Value::Categorical("F".into()),
            Value::Integer(39),
        ],
    );
    let sparse = Record::new(
        2,
        vec![
            Value::Text("Bo".into()),
            Value::Missing,
            Value::Text("".into()),
            Value::Text("Ulm".into()),
            Value::Missing,
            Value::Date(Date::new(2001, 12, 31).expect("valid date")),
            Value::Missing,
            Value::Integer(-3),
        ],
    );
    Dataset::from_records(Schema::person(), vec![full, sparse]).expect("person records")
}

/// Lower-case hex of every output filter, record by record.
fn golden_hex(config: RecordEncoderConfig) -> Vec<String> {
    let data = golden_dataset();
    let encoded = RecordEncoder::new(config, data.schema())
        .expect("valid config")
        .encode_dataset(&data)
        .expect("encodes");
    encoded
        .records
        .iter()
        .flat_map(|r| match r {
            EncodedRecord::Clk(f) => vec![to_hex(&f.to_bytes())],
            EncodedRecord::Fields(fs) => fs.iter().map(|f| to_hex(&f.to_bytes())).collect(),
        })
        .collect()
}

/// A short-filter CLK config so the pinned strings stay readable.
fn small_clk(scheme: HashingScheme) -> RecordEncoderConfig {
    let mut config = RecordEncoderConfig::person_clk(b"golden-key".to_vec());
    config.params.len = 256;
    config.params.num_hashes = 3;
    config.params.scheme = scheme;
    config
}

/// Every value below but `GOLDEN_PERSON_CLK_512` was captured from the
/// commit before the memoised encode path landed: an index stored by that
/// commit must keep matching the filters this one produces.
#[test]
fn golden_filters_are_bit_identical_to_the_parent_commit() {
    // The person encoder before its 512-bit default, which every index
    // stored until then holds: 1000-bit CLK, k = 10, double hashing.
    let mut wide = RecordEncoderConfig::person_clk(b"golden-key".to_vec());
    wide.params.len = 1000;
    wide.params.num_hashes = 10;
    assert_eq!(golden_hex(wide), GOLDEN_PERSON_CLK);
    // The shipped default, the benchmark's encoder: 512 bits, k = 4.
    assert_eq!(
        golden_hex(RecordEncoderConfig::person_clk(b"golden-key".to_vec())),
        GOLDEN_PERSON_CLK_512
    );
    assert_eq!(
        golden_hex(small_clk(HashingScheme::DoubleHashing)),
        GOLDEN_DOUBLE
    );
    assert_eq!(
        golden_hex(small_clk(HashingScheme::KIndependent)),
        GOLDEN_K_INDEPENDENT
    );

    // Field-level filters with a weight > 1 on the first field.
    let mut weighted = small_clk(HashingScheme::DoubleHashing);
    weighted.params.len = 128;
    weighted.mode = EncodingMode::FieldLevel;
    weighted
        .fields
        .retain(|f| ["first_name", "dob", "age"].contains(&f.field.as_str()));
    weighted.fields[0].weight = 3;
    assert_eq!(golden_hex(weighted), GOLDEN_WEIGHTED_FIELDS);

    let mut salted = small_clk(HashingScheme::DoubleHashing);
    salted.salt_field = Some("dob".into());
    assert_eq!(golden_hex(salted), GOLDEN_SALTED);

    // Rule 90, then BLIP (seeded by the row number), then folding.
    let mut hardened = small_clk(HashingScheme::KIndependent);
    hardened.hardening = vec![
        Hardening::Rule90,
        Hardening::Blip { epsilon: 3.0 },
        Hardening::XorFold,
    ];
    assert_eq!(golden_hex(hardened), GOLDEN_HARDENED);

    // Token positions themselves, as `contains` and the attacks see them.
    let positions = |scheme| {
        BloomEncoder::new(small_clk(scheme).params)
            .expect("valid params")
            .positions("first_name|an")
    };
    assert_eq!(positions(HashingScheme::DoubleHashing), GOLDEN_POS_DOUBLE);
    assert_eq!(
        positions(HashingScheme::KIndependent),
        GOLDEN_POS_K_INDEPENDENT
    );
}

const GOLDEN_PERSON_CLK: [&str; 2] = [
    "dcf6599af596ba847c204fc2bfb950ec6d9ad6497640992008f6f2bf620201a198e48cc68091a06af9fee8d6614507c60d90bf1744fc142a0f4e374a9dc665a0dccdca210094777b40f7de14643120645c2b104890ce80e84e8fec51e80a9420433ba3e5ff49c0bf2fd5b0ecadbe4e759dc080bc8c0f50709f00426021",
    "82000141b01a080100080020154000010101003100200100000011050480002400001510510103041a420101441081d04001080003000200100400b02a000008000004b30200c010080000000004400200220110202500081402010151000000800144545d551108050000810000800001805600118008400104011002",
];
/// Captured when `person_clk` became 512 bits, k = 4.
const GOLDEN_PERSON_CLK_512: [&str; 2] = [
    "44265ca5145c05c280896898f86081302822efa2040c72809c039819d9d692aac053b58c46fa410a31239b847c64a43484648230033375c12b0424101081c2f4",
    "0214000101000c80001001011000015a9100138002001041681101000009041006000401000004005a8102000020008000401010008000000000000404020021",
];
const GOLDEN_DOUBLE: [&str; 2] = [
    "c057bd8556fe458ab18bfa9c7464a53484662f32053e77c12f07b810c8d3c2fe",
    "0610000101000c805a9103011020019a01401290020010406811010000010431",
];
const GOLDEN_K_INDEPENDENT: [&str; 2] = [
    "e821f58fa06895c55d89cf952adcd77fc750b0eb727b88d8533dffbfa4aac4ff",
    "a40240a81318008c102000c0000060200104281920112000044000e081020044",
];
const GOLDEN_WEIGHTED_FIELDS: [&str; 6] = [
    "a8a67aa967ba254279b8f8083bb3c6bc",
    "00040794000000800004008000400000",
    "00010020041005002000208440410040",
    "04104110100114114114000510400150",
    "04000281030000002801000000010402",
    "07000010000018401a90010000200000",
];
const GOLDEN_SALTED: [&str; 2] = [
    "c7ced57da6eb5098c3ad2a9beb42744d636cf711283a273fd4cfe78d16693706",
    "004110d1000650148940201c0181000140440100005510205100028000061480",
];
const GOLDEN_HARDENED: [&str; 2] = [
    "c05aa8fe46a6b4341f3279416b4e3fc0",
    "1a8e64bbfe17505e23f808900206e072",
];
const GOLDEN_POS_DOUBLE: [usize; 3] = [160, 137, 114];
const GOLDEN_POS_K_INDEPENDENT: [usize; 3] = [200, 202, 179];
