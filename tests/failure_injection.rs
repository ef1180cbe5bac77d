//! Failure-injection tests: every layer must reject bad input with a typed
//! error — never panic, never silently produce garbage.

use pprl::blocking::keys::{BlockingKey, KeyPart};
use pprl::blocking::lsh::HammingLsh;
use pprl::core::bitvec::BitVec;
use pprl::core::error::PprlError;
use pprl::core::record::{Dataset, Record};
use pprl::core::schema::{FieldDef, FieldType, Schema};
use pprl::core::value::{Date, Value};
use pprl::crypto::bigint::BigUint;
use pprl::datagen::generator::{Generator, GeneratorConfig};
use pprl::encoding::encoder::{RecordEncoder, RecordEncoderConfig};
use pprl::pipeline::batch::{link, PipelineConfig};
use pprl::pipeline::streaming::StreamingLinker;
use pprl::protocols::transport::{Crash, FaultPlan};
use pprl::protocols::{
    multi_party_linkage, two_party_linkage, MultiPartyConfig, RetryPolicy, TwoPartyConfig,
};

fn person_pair(seed: u64) -> (Dataset, Dataset) {
    let mut g = Generator::new(GeneratorConfig {
        seed,
        ..GeneratorConfig::default()
    })
    .expect("valid");
    g.dataset_pair(30, 30, 10).expect("valid")
}

#[test]
fn empty_datasets_link_cleanly() {
    let empty = Dataset::new(Schema::person());
    let cfg = PipelineConfig::standard(b"k".to_vec()).unwrap();
    let r = link(&empty, &empty, &cfg).unwrap();
    assert!(r.matches.is_empty());
    assert_eq!(r.comparisons, 0);
}

#[test]
fn one_sided_empty_dataset() {
    let (a, _) = person_pair(1);
    let empty = Dataset::new(Schema::person());
    let cfg = PipelineConfig::standard(b"k".to_vec()).unwrap();
    let r = link(&a, &empty, &cfg).unwrap();
    assert!(r.matches.is_empty());
}

#[test]
fn all_missing_records_produce_no_false_matches() {
    let schema = Schema::person();
    let blank = Record::new(0, vec![Value::Missing; schema.len()]);
    let ds = Dataset::from_records(schema.clone(), vec![blank.clone(), blank]).unwrap();
    let cfg = PipelineConfig::standard(b"k".to_vec()).unwrap();
    // All-missing records have empty filters and empty blocking keys; they
    // must not match anything (Dice of empty filters is defined as 1, so
    // the blocker must exclude them — verify it does).
    let r = link(&ds, &ds, &cfg).unwrap();
    assert!(
        r.matches.is_empty(),
        "all-missing records carry no evidence and must not match"
    );
}

#[test]
fn schema_field_type_mismatch_is_a_typed_error() {
    // A "dob" column carrying text instead of a date must fail encoding
    // with PprlError, not panic.
    let schema = Schema::person();
    let mut values = vec![Value::Missing; schema.len()];
    values[5] = Value::Text("not-a-date".into());
    let ds = Dataset::from_records(schema.clone(), vec![Record::new(0, values)]).unwrap();
    let enc = RecordEncoder::new(RecordEncoderConfig::person_clk(b"k".to_vec()), &schema).unwrap();
    let err = enc.encode_dataset(&ds);
    assert!(err.is_err());
}

#[test]
fn streaming_linker_survives_error_then_continues() {
    let mut g = Generator::new(GeneratorConfig::default()).unwrap();
    let mut linker = StreamingLinker::new(
        Schema::person(),
        RecordEncoderConfig::person_clk(b"k".to_vec()),
        BlockingKey::person_default(),
        0.8,
    )
    .unwrap();
    // Bad record (wrong width) rejected without corrupting state…
    let bad = Record::new(0, vec![Value::Missing]);
    assert!(linker.insert(0, &bad).is_err());
    assert!(linker.is_empty());
    // …then a good record still works.
    let good = g.entity(1);
    assert!(linker.insert(0, &good).is_ok());
    assert_eq!(linker.len(), 1);
}

#[test]
fn lsh_rejects_mixed_filter_lengths() {
    let lsh = HammingLsh::new(4, 8, 1).unwrap();
    let a = BitVec::zeros(64);
    let b = BitVec::zeros(128);
    assert!(lsh.candidates(&[&a], &[&b], 1).is_err());
}

#[test]
fn blocking_key_on_wrong_schema_is_typed_error() {
    let other = Schema::new(vec![FieldDef::qid("only_field", FieldType::Text)]).unwrap();
    let ds = Dataset::new(other);
    let key = BlockingKey::new(vec![KeyPart::Soundex("last_name".into())]);
    assert!(key.extract(&ds).is_err());
}

#[test]
fn bigint_division_by_zero_and_underflow() {
    let a = BigUint::from_u64(5);
    assert!(a.divrem(&BigUint::zero()).is_err());
    assert!(BigUint::zero().sub(&a).is_err());
    assert!(a.modpow(&a, &BigUint::zero()).is_err());
}

#[test]
fn date_arithmetic_rejects_impossible_dates() {
    assert!(Date::new(2021, 2, 29).is_err());
    assert!(Date::parse("2021-13-01").is_err());
    assert!(Date::parse("garbage").is_err());
}

#[test]
fn csv_with_wrong_types_reports_line() {
    let csv = "first_name,last_name,street,city,postcode,dob,gender,age\n\
               ann,smith,1 x st,oxford,1234,1990-01-02,f,notanumber\n";
    let err = Dataset::from_csv(csv, Schema::person()).unwrap_err();
    assert!(err.to_string().contains("notanumber"));
}

#[test]
fn cross_key_linkage_finds_nothing() {
    // Parties that failed to agree on the secret key must not leak
    // accidental matches.
    let (a, b) = person_pair(2);
    let mut cfg = PipelineConfig::standard(b"key-one".to_vec()).unwrap();
    let r_same = link(&a, &b, &cfg).unwrap();
    assert!(
        !r_same.matches.is_empty(),
        "same key should find the overlap"
    );
    // Re-encode b with a different key by linking a-vs-a under different
    // keys: emulate by changing the key and relinking; recall collapses.
    cfg.encoder.params.key = b"key-two".to_vec();
    let enc1 = RecordEncoder::new(
        RecordEncoderConfig::person_clk(b"key-one".to_vec()),
        a.schema(),
    )
    .unwrap();
    let enc2 = RecordEncoder::new(cfg.encoder.clone(), a.schema()).unwrap();
    let f1 = enc1.encode_dataset(&a).unwrap();
    let f2 = enc2.encode_dataset(&a).unwrap();
    let same_record_cross_key =
        pprl::similarity::bitvec_sim::dice_bits(f1.clks().unwrap()[0], f2.clks().unwrap()[0])
            .unwrap();
    assert!(
        same_record_cross_key < 0.6,
        "cross-key similarity must be near chance: {same_record_cross_key}"
    );
}

#[test]
fn crash_mid_aggregation_recovers_or_aborts_typed() {
    let mut g = Generator::new(GeneratorConfig {
        seed: 11,
        corruption_rate: 0.1,
        ..GeneratorConfig::default()
    })
    .unwrap();
    let ds = g.multi_party(4, 12, 4).unwrap();
    // Party 2 dies a few rounds in — mid-aggregation, not at a tuple
    // boundary. With the default quorum the run degrades to the three
    // survivors…
    let mut cfg = MultiPartyConfig::standard(b"k".to_vec());
    cfg.fault_plan.crash = Some(Crash {
        party: 2,
        at_round: 3,
    });
    let out = multi_party_linkage(&ds, &cfg).unwrap();
    assert_eq!(out.failed_parties, vec![2]);
    assert!(out
        .matches
        .iter()
        .all(|m| m.members.iter().all(|r| r.party.0 != 2)));
    // …and with a full quorum demanded, the same crash is a typed abort.
    cfg.min_parties = 4;
    let err = multi_party_linkage(&ds, &cfg).unwrap_err();
    assert!(
        matches!(err, PprlError::ProtocolError(ref m) if m.contains("quorum")),
        "{err}"
    );
}

#[test]
fn retry_exhaustion_is_a_typed_timeout_never_a_panic() {
    let mut g = Generator::new(GeneratorConfig {
        seed: 12,
        ..GeneratorConfig::default()
    })
    .unwrap();
    let (a, b) = g.dataset_pair(15, 15, 5).unwrap();
    // A network this lossy exhausts any small retry budget.
    let mut cfg = TwoPartyConfig::standard(b"k".to_vec()).unwrap();
    cfg.fault_plan = FaultPlan::with_drop_rate(0.97);
    cfg.retry = RetryPolicy {
        max_retries: 1,
        ..RetryPolicy::default()
    };
    let err = two_party_linkage(&a, &b, &cfg).unwrap_err();
    assert!(matches!(err, PprlError::Timeout(_)), "{err}");
}

#[test]
fn restored_streaming_linker_equals_pre_crash_state() {
    // Feed the same stream to a continuously-running linker and to one
    // that "crashes" halfway and is rebuilt from its checkpoint: every
    // post-restore answer must be identical.
    let records: Vec<_> = {
        let mut g = Generator::new(GeneratorConfig {
            seed: 13,
            corruption_rate: 0.1,
            ..GeneratorConfig::default()
        })
        .unwrap();
        (0..60).map(|id| g.entity(id % 20)).collect()
    };
    let new_linker = || {
        StreamingLinker::new(
            Schema::person(),
            RecordEncoderConfig::person_clk(b"k".to_vec()),
            BlockingKey::person_default(),
            0.8,
        )
        .unwrap()
    };
    let mut uninterrupted = new_linker();
    let mut crashing = new_linker();
    for r in &records[..30] {
        uninterrupted.insert(0, r).unwrap();
        crashing.insert(0, r).unwrap();
    }
    let checkpoint = crashing.snapshot().unwrap();
    drop(crashing); // the crash
    let mut restored = StreamingLinker::restore(
        Schema::person(),
        RecordEncoderConfig::person_clk(b"k".to_vec()),
        BlockingKey::person_default(),
        &checkpoint,
    )
    .unwrap();
    assert_eq!(restored.clusters(), uninterrupted.clusters());
    for r in &records[30..] {
        let expect = uninterrupted.insert(1, r).unwrap();
        let got = restored.insert(1, r).unwrap();
        assert_eq!(expect.matches, got.matches);
        assert_eq!(expect.cluster, got.cluster);
        assert_eq!(expect.inserted, got.inserted);
    }
    assert_eq!(restored.clusters(), uninterrupted.clusters());
}

#[test]
fn generator_rejects_nonsense_configs() {
    assert!(Generator::new(GeneratorConfig {
        corruption_rate: -0.1,
        ..GeneratorConfig::default()
    })
    .is_err());
    let mut g = Generator::new(GeneratorConfig::default()).unwrap();
    assert!(g.dataset_pair(10, 10, 11).is_err());
    assert!(g.multi_party(1, 10, 10).is_err());
}
