//! Quickstart: privacy-preserving linkage of two synthetic databases.
//!
//! Two organisations hold overlapping person databases with independent
//! data-entry errors. They agree on a secret key, encode their records as
//! Bloom-filter CLKs, and link on the encodings only. The example prints
//! the pipeline configuration, the complexity reduction achieved by LSH
//! blocking, and the linkage quality against ground truth.
//!
//! Run with: `cargo run --release --example quickstart`

use pprl::datagen::generator::{Generator, GeneratorConfig};
use pprl::eval::quality::{blocking_quality, Confusion};
use pprl::pipeline::batch::{link, PipelineConfig};

fn main() {
    // 1. Synthesise the two databases (stand-ins for two real registries).
    let mut gen = Generator::new(GeneratorConfig {
        corruption_rate: 0.2,
        seed: 2026,
        ..GeneratorConfig::default()
    })
    .expect("valid generator config");
    let (hospital, insurer) = gen.dataset_pair(1000, 1000, 300).expect("valid sizes");
    println!(
        "Database A: {} records, database B: {} records, true overlap: 300 entities",
        hospital.len(),
        insurer.len()
    );

    // 2. Configure the privacy-preserving pipeline. Both parties must use
    //    the same shared secret key; the linkage never sees plaintext.
    let config =
        PipelineConfig::standard(b"example-shared-secret".to_vec()).expect("valid pipeline config");
    println!(
        "Encoding: {}-bit CLK, double hashing; blocking: Hamming LSH; threshold {}",
        config.encoder.params.len, config.threshold
    );

    // 3. Link.
    let started = std::time::Instant::now();
    let result = link(&hospital, &insurer, &config).expect("linkage runs");
    let elapsed = started.elapsed();

    // 4. Evaluate against the generator's ground truth.
    let truth = hospital.ground_truth_pairs(&insurer);
    let quality = Confusion::from_pairs(&result.pairs(), &truth);
    let blocking = blocking_quality(&result.pairs(), &truth, hospital.len(), insurer.len())
        .expect("non-empty datasets");

    println!();
    println!(
        "candidates after blocking: {:>8} (of {} cross pairs, reduction ratio {:.4})",
        result.candidates,
        hospital.len() * insurer.len(),
        1.0 - result.candidates as f64 / (hospital.len() * insurer.len()) as f64
    );
    println!("comparisons computed:      {:>8}", result.comparisons);
    println!("matches reported:          {:>8}", result.matches.len());
    println!();
    println!("precision: {:.3}", quality.precision());
    println!("recall:    {:.3}", quality.recall());
    println!("f1:        {:.3}", quality.f1());
    println!(
        "match completeness after all stages: {:.3}",
        blocking.pairs_completeness
    );
    println!("wall time: {elapsed:.2?}");
}
