//! Criterion benchmarks for the cryptographic substrates (supports E9):
//! hashing, modular exponentiation, Paillier operations, secure edit
//! distance.

use pprl_bench::{
    criterion_group, criterion_main,
    micro::{BenchmarkId, Criterion},
};
use pprl_core::rng::SplitMix64;
use pprl_crypto::bigint::BigUint;
use pprl_crypto::paillier::KeyPair;
use pprl_crypto::secure_edit::{plaintext_edit_distance, secure_edit_distance};
use pprl_crypto::sha::{hmac_sha256, sha1, sha256, HmacKey, HmacSha1Key};

fn bench_hashing(c: &mut Criterion) {
    let data = vec![0xABu8; 64];
    c.bench_function("sha256_64B", |b| {
        b.iter(|| std::hint::black_box(sha256(&data)))
    });
    c.bench_function("sha1_64B", |b| b.iter(|| std::hint::black_box(sha1(&data))));
    // One-shot: derives the key pads on every call, unlike an encoder.
    c.bench_function("hmac_sha256_64B", |b| {
        b.iter(|| std::hint::black_box(hmac_sha256(b"key", &data)))
    });
    // What a Bloom encoder pays for a token its memo has not seen.
    let token = std::hint::black_box(b"dob|full:1984-07-19");
    let key256 = HmacKey::new(b"key");
    c.bench_function("hmac_key_sha256_19B", |b| {
        b.iter(|| std::hint::black_box(key256.mac(token)))
    });
    let key1 = HmacSha1Key::new(b"key");
    c.bench_function("hmac_key_sha1_19B", |b| {
        b.iter(|| std::hint::black_box(key1.mac(token)))
    });
}

fn bench_modpow(c: &mut Criterion) {
    let mut rng = SplitMix64::new(1);
    let mut group = c.benchmark_group("modpow");
    for bits in [256usize, 512, 1024] {
        let base = BigUint::random_bits(&mut rng, bits);
        let exp = BigUint::random_bits(&mut rng, bits);
        let modulus = BigUint::random_bits(&mut rng, bits);
        group.bench_with_input(BenchmarkId::from_parameter(bits), &bits, |b, _| {
            b.iter(|| std::hint::black_box(base.modpow(&exp, &modulus).expect("nonzero")))
        });
    }
    group.finish();
}

fn bench_paillier(c: &mut Criterion) {
    let mut rng = SplitMix64::new(2);
    let kp = KeyPair::generate(512, &mut rng).expect("keygen");
    let ct = kp.public.encrypt_u64(1234, &mut rng).expect("encrypt");
    c.bench_function("paillier512_encrypt", |b| {
        b.iter(|| std::hint::black_box(kp.public.encrypt_u64(42, &mut rng).expect("encrypt")))
    });
    c.bench_function("paillier512_add", |b| {
        b.iter(|| std::hint::black_box(kp.public.add_ciphertexts(&ct, &ct).expect("add")))
    });
    c.bench_function("paillier512_decrypt", |b| {
        b.iter(|| std::hint::black_box(kp.private.decrypt_u64(&ct).expect("decrypt")))
    });
}

fn bench_secure_edit(c: &mut Criterion) {
    let mut rng = SplitMix64::new(3);
    let x = "jonathan livingston";
    let y = "johnathan levingston";
    c.bench_function("secure_edit_19x20", |b| {
        b.iter(|| std::hint::black_box(secure_edit_distance(x, y, &mut rng).expect("length")))
    });
    c.bench_function("plaintext_edit_19x20", |b| {
        b.iter(|| std::hint::black_box(plaintext_edit_distance(x, y)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_hashing, bench_modpow, bench_paillier, bench_secure_edit
}
criterion_main!(benches);
