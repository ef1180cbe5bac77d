//! E8 — §3.4 differential privacy (refs \[14, 41]): DP noise trades
//! linkage utility for privacy monotonically in ε.
//!
//! Sweeps the BLIP ε over the full pipeline: F1 of the linkage on hardened
//! CLKs (utility) against the dictionary-attack re-identification rate
//! (privacy), plus the geometric mechanism's error on candidate-set
//! counts.

use crate::{bloom, f3, fixed, generator, non_increasing, pct, surname_dictionary, tokens};
use crate::{zipf_surnames, Claim, Report, Size, Table};
use pprl_attacks::bf_cryptanalysis::dictionary_attack;
use pprl_attacks::frequency::reidentification_rate;
use pprl_core::bitvec::BitVec;
use pprl_core::rng::SplitMix64;
use pprl_crypto::dp::geometric_mechanism;
use pprl_encoding::hardening::Hardening;
use pprl_eval::quality::Confusion;
use pprl_pipeline::batch::{link, BlockingChoice, PipelineConfig};

/// The ε sweep, then the geometric mechanism's error per ε.
pub fn run(size: Size) -> Report {
    let (n, overlap) = size.pick((80, 24), (400, 120));
    let (a, b) = generator(0.15, 8)
        .dataset_pair(n, n, overlap)
        .expect("valid");
    let truth = a.ground_truth_pairs(&b);
    // F1 without DP, or under BLIP at (epsilon, threshold).
    let f1_at = |blip: Option<(f64, f64)>| {
        let mut cfg = PipelineConfig {
            blocking: BlockingChoice::Full,
            ..PipelineConfig::standard(b"e8".to_vec()).expect("valid")
        };
        if let Some((epsilon, threshold)) = blip {
            cfg.encoder.hardening = vec![Hardening::Blip { epsilon }];
            cfg.threshold = threshold;
        }
        let r = link(&a, &b, &cfg).expect("runs");
        Confusion::from_pairs(&r.pairs(), &truth).f1()
    };

    // Attack substrate: surname field filters with leaked parameters.
    let names = zipf_surnames(size.pick(600, 3000), 88);
    let leaked = bloom(1000, 10, b"leaked");
    let plain: Vec<BitVec> = names
        .iter()
        .map(|n| leaked.encode_tokens(&tokens(n)))
        .collect();
    let dictionary = surname_dictionary();
    let reid = |filters: &[BitVec]| {
        let attack = dictionary_attack(filters, &dictionary, &leaked, tokens, 0.8).expect("runs");
        reidentification_rate(&attack.guesses, &names).expect("aligned")
    };

    let mut r = Report::default();
    let mut t = Table::new("", &["epsilon", "linkage F1", "attack reid rate"]);
    t.row(vec![
        "inf (no DP)".into(),
        f3(f1_at(None)),
        pct(reid(&plain)),
    ]);
    for epsilon in [5.0, 3.0, 2.0, 1.5, 1.0, 0.5] {
        // BLIP compresses the similarity scale, so the decision threshold
        // must be re-tuned per epsilon; report the best-threshold F1 (the
        // standard way to trace the utility frontier).
        let f1 = (40..=90)
            .step_by(5)
            .map(|t100| f1_at(Some((epsilon, t100 as f64 / 100.0))))
            .fold(0.0, f64::max);
        let blip = Hardening::Blip { epsilon };
        let hardened: Vec<BitVec> = plain
            .iter()
            .enumerate()
            .map(|(i, f)| blip.apply(f, i as u64).expect("valid"))
            .collect();
        t.row(vec![fixed(epsilon, 1), f3(f1), pct(reid(&hardened))]);
    }
    r.table(t);

    let mut t = Table::new(
        "Geometric mechanism on a count query (true count 1000, 2000 trials):",
        &["epsilon", "mean |error|", "debiased estimate possible"],
    );
    let mut rng = SplitMix64::new(99);
    for epsilon in [0.1, 0.5, 1.0, 2.0, 5.0] {
        let mean_err = (0..2000)
            .map(|_| {
                let noisy = geometric_mechanism(1000, epsilon, &mut rng).expect("valid epsilon");
                (noisy - 1000).unsigned_abs() as f64
            })
            .sum::<f64>()
            / 2000.0;
        t.row(vec![
            fixed(epsilon, 1),
            f3(mean_err),
            "yes (unbiased)".into(),
        ]);
    }
    r.table(t);
    r
}

/// Utility and attack success both fall as ε falls.
pub fn claims(r: &Report) -> Vec<Claim> {
    // The sweep runs from no DP down to the smallest ε.
    let sweep = &r.tables[0];
    vec![
        Claim::check(
            "linkage F1 is non-decreasing in epsilon",
            non_increasing(&sweep.column("linkage F1")),
        ),
        Claim::check(
            "attack re-identification is non-increasing as epsilon falls",
            non_increasing(&sweep.column("attack reid rate")),
        ),
        Claim::check(
            "the geometric mechanism's mean |error| falls as epsilon rises",
            non_increasing(&r.tables[1].column("mean |error|")),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(f1: [f64; 3], reid: [f64; 3], error: [f64; 2]) -> Report {
        let mut sweep = Table::new("", &["linkage F1", "attack reid rate"]);
        for (f, x) in f1.into_iter().zip(reid) {
            sweep.row(vec![f3(f), pct(x)]);
        }
        let mut mechanism = Table::new("", &["mean |error|"]);
        for e in error {
            mechanism.row(vec![f3(e)]);
        }
        let mut r = Report::default();
        r.table(sweep);
        r.table(mechanism);
        r
    }

    #[test]
    fn utility_rising_as_noise_grows_fails() {
        let ok = report([1.0, 0.9, 0.4], [1.0, 0.1, 0.0], [10.0, 0.1]);
        assert!(claims(&ok).iter().all(|c| c.pass));
        assert!(!claims(&report([0.4, 0.9, 1.0], [1.0, 0.1, 0.0], [10.0, 0.1]))[0].pass);
        assert!(!claims(&report([1.0, 0.9, 0.4], [0.0, 0.1, 1.0], [10.0, 0.1]))[1].pass);
        assert!(!claims(&report([1.0, 0.9, 0.4], [1.0, 0.1, 0.0], [0.1, 10.0]))[2].pass);
    }
}
