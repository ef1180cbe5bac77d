//! E2 — Figure 2 (left) and the probabilistic-methods claim (§3.4,
//! ref \[30]): Bloom-filter/Dice string matching achieves linkage quality
//! comparable to unencoded matching.
//!
//! Sweeps the corruption rate and reports precision/recall/F1 for (a) a
//! plaintext q-gram Dice baseline and (b) CLK Bloom-filter Dice on the
//! same data and threshold, plus two ablations: hashing scheme and CLK vs
//! field-level encoding.

use crate::{encoded_matches, f3, fixed, generator, Claim, Report, Size, Table};
use pprl_blocking::standard::full_cross_product;
use pprl_core::qgram::{qgram_dice, QGramConfig};
use pprl_core::record::Dataset;
use pprl_encoding::bloom::{BloomParams, HashingScheme};
use pprl_encoding::encoder::{EncodingMode, FieldEncoding, RecordEncoderConfig};
use pprl_encoding::numeric_bf::NeighbourhoodParams;
use pprl_encoding::rbf::{RbfConfig, RbfEncoder, RbfField};
use pprl_eval::quality::Confusion;
use pprl_similarity::bitvec_sim::dice_bits;

const THRESHOLD: f64 = 0.8;

/// Plaintext baseline: mean q-gram Dice over the text QIDs.
fn plaintext_matches(a: &Dataset, b: &Dataset) -> Vec<(usize, usize)> {
    let cfg = QGramConfig::default();
    let fields = ["first_name", "last_name", "street", "city", "postcode"];
    full_cross_product(a.len(), b.len())
        .into_iter()
        .filter(|&(i, j)| {
            let sum: f64 = fields
                .iter()
                .map(|f| {
                    qgram_dice(
                        &a.text(i, f).expect("field exists"),
                        &b.text(j, f).expect("field exists"),
                        &cfg,
                    )
                })
                .sum();
            sum / fields.len() as f64 >= THRESHOLD
        })
        .collect()
}

/// RBF (Durham): weighted bit sampling from field filters.
fn rbf_matches(a: &Dataset, b: &Dataset) -> Vec<(usize, usize)> {
    let q = QGramConfig::default();
    let cfg = RbfConfig {
        field_params: BloomParams {
            len: 512,
            num_hashes: 8,
            scheme: HashingScheme::DoubleHashing,
            key: b"e2".to_vec(),
        },
        output_len: 1000,
        fields: vec![
            RbfField::new("first_name", FieldEncoding::TextQGram(q), 2.0),
            RbfField::new("last_name", FieldEncoding::TextQGram(q), 2.0),
            RbfField::new("street", FieldEncoding::TextQGram(q), 1.0),
            RbfField::new("city", FieldEncoding::TextQGram(q), 1.0),
            RbfField::new("postcode", FieldEncoding::TextQGram(q), 1.0),
            RbfField::new("dob", FieldEncoding::DateComponents, 2.0),
            RbfField::new("gender", FieldEncoding::Categorical, 0.5),
            RbfField::new(
                "age",
                FieldEncoding::Numeric(NeighbourhoodParams {
                    step: 1.0,
                    neighbours: 2,
                }),
                0.5,
            ),
        ],
        seed: 0xE2,
    };
    let enc = RbfEncoder::new(cfg, a.schema()).expect("valid");
    let fa = enc.encode_dataset(a).expect("encodes");
    let fb = enc.encode_dataset(b).expect("encodes");
    full_cross_product(a.len(), b.len())
        .into_iter()
        .filter(|&(i, j)| dice_bits(&fa[i], &fb[j]).expect("len") >= THRESHOLD)
        .collect()
}

/// Quality per corruption level, then the ablation at corruption 0.2.
pub fn run(size: Size) -> Report {
    let (n, overlap) = size.pick((60, 18), (400, 120));
    let data = |corruption, seed| {
        generator(corruption, seed)
            .dataset_pair(n, n, overlap)
            .expect("valid sizes")
    };
    let clk = || RecordEncoderConfig::person_clk(b"e2".to_vec());
    let mut r = Report::default();

    let mut t = Table::new(
        "",
        &[
            "corruption",
            "plain P",
            "plain R",
            "plain F1",
            "clk P",
            "clk R",
            "clk F1",
        ],
    );
    for corruption in [0.0, 0.1, 0.2, 0.3, 0.4] {
        let (a, b) = data(corruption, 42);
        let truth = a.ground_truth_pairs(&b);
        let plain = Confusion::from_pairs(&plaintext_matches(&a, &b), &truth);
        let encoded = Confusion::from_pairs(&encoded_matches(&a, &b, clk()), &truth);
        t.row(vec![
            fixed(corruption, 1),
            f3(plain.precision()),
            f3(plain.recall()),
            f3(plain.f1()),
            f3(encoded.precision()),
            f3(encoded.recall()),
            f3(encoded.f1()),
        ]);
    }
    r.table(t);

    let (a, b) = data(0.2, 43);
    let truth = a.ground_truth_pairs(&b);
    let mut t = Table::new(
        "Ablation: hashing scheme and encoding granularity (corruption 0.2)",
        &["variant", "P", "R", "F1"],
    );
    let mut kind = clk();
    kind.params.scheme = HashingScheme::KIndependent;
    let mut field = clk();
    field.mode = EncodingMode::FieldLevel;
    for (name, pairs) in [
        ("CLK + double hashing", encoded_matches(&a, &b, clk())),
        ("CLK + k-independent", encoded_matches(&a, &b, kind)),
        (
            "field-level + double hashing",
            encoded_matches(&a, &b, field),
        ),
        ("RBF (weighted sampling)", rbf_matches(&a, &b)),
    ] {
        let q = Confusion::from_pairs(&pairs, &truth);
        t.row(vec![
            name.into(),
            f3(q.precision()),
            f3(q.recall()),
            f3(q.f1()),
        ]);
    }
    r.table(t);
    r
}

/// CLK quality tracks plaintext; every encoding variant links well.
pub fn claims(r: &Report) -> Vec<Claim> {
    let sweep = &r.tables[0];
    let tracks = sweep
        .column("clk F1")
        .iter()
        .zip(sweep.column("plain F1"))
        .all(|(clk, plain)| *clk >= plain - 0.02);
    vec![
        Claim::check(
            "CLK F1 >= plaintext F1 - 0.02 at every corruption level",
            tracks,
        ),
        Claim::check(
            "every hashing scheme and encoding granularity reaches F1 >= 0.95 at corruption 0.2",
            r.tables[1].column("F1").iter().all(|&f1| f1 >= 0.95),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(clk_f1: f64, field_level_f1: f64) -> Report {
        let mut sweep = Table::new("", &["plain F1", "clk F1"]);
        sweep.row(vec![f3(1.0), f3(1.0)]);
        sweep.row(vec![f3(0.95), f3(clk_f1)]);
        let mut ablation = Table::new("", &["variant", "F1"]);
        ablation.row(vec!["CLK".into(), f3(0.99)]);
        ablation.row(vec!["field-level".into(), f3(field_level_f1)]);
        let mut r = Report::default();
        r.table(sweep);
        r.table(ablation);
        r
    }

    #[test]
    fn an_encoding_that_loses_quality_fails() {
        assert!(claims(&report(0.94, 0.97)).iter().all(|c| c.pass));
        assert!(!claims(&report(0.90, 0.97))[0].pass);
        assert!(!claims(&report(0.94, 0.80))[1].pass);
    }
}
