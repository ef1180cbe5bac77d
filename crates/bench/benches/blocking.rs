//! Criterion benchmarks for the blocking layer (supports E4): candidate
//! generation cost of each method at fixed size.

use pprl_bench::{criterion_group, criterion_main, micro::Criterion};
use pprl_blocking::keys::BlockingKey;
use pprl_blocking::lsh::{HammingLsh, MinHashLsh};
use pprl_blocking::source::KeyBlockSource;
use pprl_blocking::standard::sorted_neighbourhood;
use pprl_core::candidate::{CandidateSource, Probes};
use pprl_core::normalize::normalize_default;
use pprl_core::qgram::{qgram_set, QGramConfig};
use pprl_datagen::generator::{Generator, GeneratorConfig};
use pprl_encoding::encoder::{RecordEncoder, RecordEncoderConfig};
use pprl_encoding::minhash::MinHasher;

fn bench_blocking(c: &mut Criterion) {
    let n = 500usize;
    let mut g = Generator::new(GeneratorConfig {
        corruption_rate: 0.2,
        seed: 1,
        ..GeneratorConfig::default()
    })
    .expect("valid");
    let (a, b) = g.dataset_pair(n, n, n / 4).expect("valid");

    let key = BlockingKey::person_default();
    let ka = key.extract(&a).expect("keys");
    let kb = key.extract(&b).expect("keys");
    let probes = Probes {
        keys: Some(&ka),
        ..Probes::default()
    };
    c.bench_function("key_block_source_500", |bch| {
        bch.iter(|| {
            std::hint::black_box(
                KeyBlockSource::from_keys(&kb)
                    .candidates(&probes)
                    .expect("keys"),
            )
        })
    });
    c.bench_function("sorted_neighbourhood_500_w6", |bch| {
        bch.iter(|| std::hint::black_box(sorted_neighbourhood(&ka, &kb, 6).expect("window")))
    });

    let enc = RecordEncoder::new(
        RecordEncoderConfig::person_clk(b"bench".to_vec()),
        a.schema(),
    )
    .expect("valid");
    let ea = enc.encode_dataset(&a).expect("encodes");
    let eb = enc.encode_dataset(&b).expect("encodes");
    let fa = ea.clks().expect("clk");
    let fb = eb.clks().expect("clk");
    let hlsh = HammingLsh::new(16, 24, 3).expect("valid");
    c.bench_function("hamming_lsh_500_16x24", |bch| {
        bch.iter(|| std::hint::black_box(hlsh.candidates(&fa, &fb, 1).expect("filters")))
    });

    let hasher = MinHasher::new(64, b"bench").expect("valid");
    let cfg = QGramConfig::default();
    let sig = |ds: &pprl_core::record::Dataset| -> Vec<Vec<u64>> {
        (0..ds.len())
            .map(|i| {
                let name = format!(
                    "{} {}",
                    ds.text(i, "first_name").expect("field"),
                    ds.text(i, "last_name").expect("field")
                );
                hasher.signature(&qgram_set(&normalize_default(&name), &cfg))
            })
            .collect()
    };
    let sa = sig(&a);
    let sb = sig(&b);
    let mlsh = MinHashLsh::new(16, 4).expect("valid");
    c.bench_function("minhash_lsh_500_16x4", |bch| {
        bch.iter(|| std::hint::black_box(mlsh.candidates(&sa, &sb).expect("signatures")))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_blocking
}
criterion_main!(benches);
