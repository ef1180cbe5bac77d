//! Criterion micro-benchmarks for the encoding layer (supports E2/E3):
//! Bloom-filter token encoding, CLK record encoding, and bit-vector Dice.

use pprl_bench::{
    criterion_group, criterion_main,
    micro::{BenchmarkId, Criterion},
};
use pprl_core::qgram::{qgram_set, QGramConfig};
use pprl_core::record::Dataset;
use pprl_core::value::{Date, Value};
use pprl_datagen::generator::{Generator, GeneratorConfig};
use pprl_encoding::bloom::{BloomEncoder, BloomParams, HashingScheme};
use pprl_encoding::encoder::{RecordEncoder, RecordEncoderConfig};
use pprl_encoding::minhash::MinHasher;
use pprl_similarity::bitvec_sim::dice_bits;

fn bench_bloom_encoding(c: &mut Criterion) {
    let tokens = qgram_set("jonathan livingston seagull", &QGramConfig::default());
    let mut group = c.benchmark_group("bloom_encode_token_set");
    for scheme in [HashingScheme::DoubleHashing, HashingScheme::KIndependent] {
        let enc = BloomEncoder::new(BloomParams {
            len: 1000,
            num_hashes: 10,
            scheme,
            key: b"bench".to_vec(),
        })
        .expect("valid");
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{scheme:?}")),
            &enc,
            |b, enc| b.iter(|| std::hint::black_box(enc.encode_tokens(&tokens))),
        );
    }
    group.finish();
}

fn bench_record_encoding(c: &mut Criterion) {
    let mut g = Generator::new(GeneratorConfig::default()).expect("valid");
    let ds = Dataset::from_records(pprl_core::schema::Schema::person(), g.population(10_000))
        .expect("valid");
    let enc = RecordEncoder::new(
        RecordEncoderConfig::person_clk(b"bench".to_vec()),
        ds.schema(),
    )
    .expect("valid");
    // The same call, corpus shape and encoder as the benchmark's
    // `encoding.encode_us_per_record` layer metric: divide by 10k.
    c.bench_function("clk_encode_dataset_10k_records", |b| {
        b.iter(|| std::hint::black_box(enc.encode_dataset(&ds).expect("encodes")))
    });
    // The same records, no value repeated: text suffixed with its row
    // number, dates shifted by it. What a memo of values costs unused.
    let mut unique = ds.records().to_vec();
    for (row, record) in unique.iter_mut().enumerate() {
        for value in record.values.iter_mut() {
            match value {
                Value::Text(text) | Value::Categorical(text) => text.push_str(&format!(" {row}")),
                Value::Date(d) => *d = Date::from_epoch_days(d.to_epoch_days() + row as i64),
                _ => {}
            }
        }
    }
    let unique = Dataset::from_records(ds.schema().clone(), unique).expect("valid");
    c.bench_function("clk_encode_dataset_10k_unique_values", |b| {
        b.iter(|| std::hint::black_box(enc.encode_dataset(&unique).expect("encodes")))
    });
}

fn bench_dice(c: &mut Criterion) {
    let mut g = Generator::new(GeneratorConfig::default()).expect("valid");
    let ds = pprl_core::record::Dataset::from_records(
        pprl_core::schema::Schema::person(),
        g.population(2),
    )
    .expect("valid");
    let enc = RecordEncoder::new(
        RecordEncoderConfig::person_clk(b"bench".to_vec()),
        ds.schema(),
    )
    .expect("valid");
    let e = enc.encode_dataset(&ds).expect("encodes");
    let clks = e.clks().expect("clk");
    c.bench_function("dice_1000bit_filters", |b| {
        b.iter(|| std::hint::black_box(dice_bits(clks[0], clks[1]).expect("len")))
    });
}

fn bench_minhash(c: &mut Criterion) {
    let hasher = MinHasher::new(128, b"bench").expect("valid");
    let tokens = qgram_set("jonathan livingston seagull", &QGramConfig::default());
    c.bench_function("minhash_signature_128", |b| {
        b.iter(|| std::hint::black_box(hasher.signature(&tokens)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_bloom_encoding, bench_record_encoding, bench_dice, bench_minhash
}
criterion_main!(benches);
