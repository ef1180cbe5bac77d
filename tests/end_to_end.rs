//! Cross-crate integration tests: full pipelines from synthetic data to
//! evaluated linkage results, spanning datagen → encoding → blocking →
//! matching → eval.

use pprl::blocking::keys::BlockingKey;
use pprl::core::schema::Schema;
use pprl::datagen::generator::{Generator, GeneratorConfig};
use pprl::encoding::encoder::EncodingMode;
use pprl::encoding::hardening::Hardening;
use pprl::eval::quality::{auc, blocking_quality, Confusion};
use pprl::pipeline::batch::{link, BlockingChoice, PipelineConfig};

fn generator(seed: u64, corruption: f64) -> Generator {
    Generator::new(GeneratorConfig {
        seed,
        corruption_rate: corruption,
        ..GeneratorConfig::default()
    })
    .expect("valid config")
}

#[test]
fn clean_data_links_perfectly() {
    let (a, b) = generator(1, 0.0).dataset_pair(300, 300, 100).unwrap();
    let cfg = PipelineConfig::standard(b"k".to_vec()).unwrap();
    let r = link(&a, &b, &cfg).unwrap();
    let q = Confusion::from_pairs(&r.pairs(), &a.ground_truth_pairs(&b));
    assert_eq!(q.precision(), 1.0);
    assert_eq!(q.recall(), 1.0);
}

#[test]
fn quality_degrades_gracefully_with_corruption() {
    let cfg = PipelineConfig::standard(b"k".to_vec()).unwrap();
    let mut last_f1 = 1.1;
    for corruption in [0.0, 0.3, 0.6] {
        let (a, b) = generator(2, corruption).dataset_pair(200, 200, 60).unwrap();
        let r = link(&a, &b, &cfg).unwrap();
        let q = Confusion::from_pairs(&r.pairs(), &a.ground_truth_pairs(&b));
        assert!(
            q.f1() <= last_f1 + 0.02,
            "f1 should not improve with corruption: {} then {}",
            last_f1,
            q.f1()
        );
        last_f1 = q.f1();
    }
    assert!(last_f1 < 0.9, "heavy corruption should hurt, f1 {last_f1}");
}

#[test]
fn encoded_linkage_close_to_plaintext_linkage() {
    // The paper's headline claim (ref [30]): probabilistic encodings can
    // match unencoded linkage quality. Compare Dice on CLKs against a
    // plaintext record comparator at the same pipeline settings.
    use pprl::similarity::composite::RecordComparator;
    let (a, b) = generator(3, 0.2).dataset_pair(250, 250, 80).unwrap();
    let truth = a.ground_truth_pairs(&b);

    // Encoded pipeline.
    let cfg = PipelineConfig::standard(b"k".to_vec()).unwrap();
    let encoded = link(&a, &b, &cfg).unwrap();
    let q_enc = Confusion::from_pairs(&encoded.pairs(), &truth);

    // Plaintext comparator over the same candidate space (full product,
    // threshold tuned to its scale).
    let cmp = RecordComparator::person_default(a.schema()).unwrap();
    let mut plain_matches = Vec::new();
    for (i, ra) in a.records().iter().enumerate() {
        for (j, rb) in b.records().iter().enumerate() {
            let s = cmp.weighted_similarity(ra, rb).unwrap();
            if s >= 0.8 {
                plain_matches.push((i, j));
            }
        }
    }
    let q_plain = Confusion::from_pairs(&plain_matches, &truth);
    assert!(
        q_enc.f1() >= q_plain.f1() - 0.1,
        "encoded f1 {} should be within 0.1 of plaintext f1 {}",
        q_enc.f1(),
        q_plain.f1()
    );
}

#[test]
fn hardening_costs_modest_quality() {
    let (a, b) = generator(4, 0.2).dataset_pair(200, 200, 60).unwrap();
    let truth = a.ground_truth_pairs(&b);
    let plain_cfg = PipelineConfig::standard(b"k".to_vec()).unwrap();
    let plain = Confusion::from_pairs(&link(&a, &b, &plain_cfg).unwrap().pairs(), &truth);

    let mut hard_cfg = PipelineConfig::standard(b"k".to_vec()).unwrap();
    hard_cfg.encoder.hardening = vec![Hardening::XorFold];
    hard_cfg.threshold = 0.7; // folding compresses similarity scale
    let hard = Confusion::from_pairs(&link(&a, &b, &hard_cfg).unwrap().pairs(), &truth);

    assert!(plain.f1() > 0.7);
    assert!(
        hard.f1() > plain.f1() - 0.35,
        "xor-fold f1 {} vs plain {}",
        hard.f1(),
        plain.f1()
    );
}

#[test]
fn field_level_encoding_links_too() {
    let (a, b) = generator(5, 0.15).dataset_pair(150, 150, 50).unwrap();
    let mut cfg = PipelineConfig::standard(b"k".to_vec()).unwrap();
    cfg.encoder.mode = EncodingMode::FieldLevel;
    // Field-level has no CLK for LSH; use standard blocking instead.
    cfg.blocking = BlockingChoice::Standard(BlockingKey::person_default());
    // Field-level mean-of-dice has a different scale.
    let err = link(&a, &b, &cfg);
    // The batch pipeline requires CLKs; field-level goes through the
    // lower-level APIs. Assert the pipeline reports this clearly.
    assert!(err.is_err(), "pipeline should reject field-level encoding");
}

#[test]
fn auc_of_scored_pipeline_is_high() {
    let (a, b) = generator(6, 0.2).dataset_pair(150, 150, 50).unwrap();
    let mut cfg = PipelineConfig::standard(b"k".to_vec()).unwrap();
    cfg.blocking = BlockingChoice::Full;
    cfg.threshold = 0.0; // keep all scores
    cfg.one_to_one = false;
    let r = link(&a, &b, &cfg).unwrap();
    let truth = a.ground_truth_pairs(&b);
    let a_value = auc(&r.matches, &truth).unwrap();
    assert!(a_value > 0.95, "AUC {a_value}");
}

#[test]
fn blocking_quality_metrics_consistent_with_pipeline() {
    let (a, b) = generator(7, 0.2).dataset_pair(200, 200, 60).unwrap();
    let cfg = PipelineConfig::standard(b"k".to_vec()).unwrap();
    let r = link(&a, &b, &cfg).unwrap();
    let q = blocking_quality(&r.pairs(), &a.ground_truth_pairs(&b), a.len(), b.len()).unwrap();
    assert!(q.reduction_ratio > 0.9);
    assert!(q.pairs_completeness > 0.5);
    assert!((0.0..=1.0).contains(&q.pairs_quality));
}

#[test]
fn schema_agreement_before_linkage() {
    // Schema matching step: two schemas agree on the common QIDs.
    let s1 = Schema::person();
    let s2 = Schema::person();
    let common = s1.common_qids(&s2);
    assert_eq!(common.len(), 8);
}

#[test]
fn ground_truth_free_quality_estimation_tracks_reality() {
    // §5.2 of the paper: estimating linkage quality without ground truth.
    // Fit Fellegi–Sunter by EM (no labels), estimate precision/recall from
    // the posteriors alone, then check against the actual ground truth.
    use pprl::eval::estimate::estimate_quality;
    use pprl::matching::fellegi_sunter::FellegiSunter;
    use pprl::similarity::composite::RecordComparator;

    let (a, b) = generator(42, 0.25).dataset_pair(150, 150, 50).unwrap();
    let cmp = RecordComparator::person_default(a.schema()).unwrap();
    let mut pairs = Vec::new();
    let mut vectors = Vec::new();
    for (i, ra) in a.records().iter().enumerate() {
        for (j, rb) in b.records().iter().enumerate() {
            pairs.push((i, j));
            vectors.push(cmp.similarity_vector(ra, rb).unwrap());
        }
    }
    let patterns = FellegiSunter::binarise(&vectors, 0.8);
    let model = FellegiSunter::fit_em(&patterns, 40, 0.01).unwrap();
    let posteriors: Vec<f64> = patterns
        .iter()
        .map(|p| model.posterior(p).unwrap())
        .collect();

    let threshold = 0.5;
    let estimated = estimate_quality(&posteriors, threshold).unwrap();

    // Actual quality of the same decision rule.
    let predicted: Vec<(usize, usize)> = pairs
        .iter()
        .zip(&posteriors)
        .filter(|(_, &p)| p >= threshold)
        .map(|(&pr, _)| pr)
        .collect();
    let actual = Confusion::from_pairs(&predicted, &a.ground_truth_pairs(&b));

    assert!(
        (estimated.precision() - actual.precision()).abs() < 0.1,
        "estimated P {:.3} vs actual {:.3}",
        estimated.precision(),
        actual.precision()
    );
    assert!(
        (estimated.f1() - actual.f1()).abs() < 0.15,
        "estimated F1 {:.3} vs actual {:.3}",
        estimated.f1(),
        actual.f1()
    );
    assert!(actual.f1() > 0.8, "the linkage itself should be good");
}

/// The shipped CLK geometry (`person_clk`: 512 bits, k = 4) keeps the
/// linkage quality of the 1000-bit, k = 10 filter it replaced, and fills
/// its rows as its doc states (mean fill 0.33–0.36). k = 5 at 512 bits
/// fills ~0.41 and fails here.
#[test]
fn person_clk_geometry_keeps_f1_of_the_1000_bit_filter() {
    use pprl::encoding::encoder::RecordEncoder;
    for seed in [1, 2, 3] {
        let (a, b) = generator(seed, 0.2).dataset_pair(2000, 2000, 1000).unwrap();
        let truth = a.ground_truth_pairs(&b);
        let shipped = PipelineConfig::standard(b"k".to_vec()).unwrap();
        let mut wide = shipped.clone();
        wide.encoder.params.len = 1000;
        wide.encoder.params.num_hashes = 10;
        let f1 = |cfg: &PipelineConfig| {
            let r = link(&a, &b, cfg).unwrap();
            Confusion::from_pairs(&r.pairs(), &truth).f1()
        };
        let (f1_shipped, f1_wide) = (f1(&shipped), f1(&wide));
        assert!(
            f1_shipped >= f1_wide - 0.005,
            "seed {seed}: F1 {f1_shipped:.4} at 512 bits, {f1_wide:.4} at 1000"
        );

        let encoder = RecordEncoder::new(shipped.encoder, a.schema()).unwrap();
        let fills: Vec<f64> = [&a, &b]
            .into_iter()
            .flat_map(|d| encoder.encode_dataset(d).unwrap().records)
            .map(|r| r.clk().unwrap().fill_ratio())
            .collect();
        let mean = fills.iter().sum::<f64>() / fills.len() as f64;
        assert!(
            (0.33..=0.36).contains(&mean),
            "seed {seed}: mean fill {mean:.4} outside person_clk's 0.33–0.36"
        );
    }
}
