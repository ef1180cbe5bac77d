//! E6 — §3.2/§5.3 (refs \[7, 23]): Bloom-filter cryptanalysis succeeds or
//! fails depending on the parameter setting, and hardening defeats it.
//!
//! Sweeps filter length and hash count for the key-less pattern-frequency
//! attack, then evaluates each hardening mechanism against the stronger
//! leaked-parameters dictionary attack, reporting re-identification rate
//! alongside the linkage utility (Dice of a known close pair) that the
//! hardening costs.

use crate::{bloom, f3, pct, surname_dictionary, tokens, zipf_surnames};
use crate::{Claim, Report, Size, Table};
use pprl_attacks::bf_cryptanalysis::{
    dictionary_attack, dictionary_attack_with, pattern_frequency_attack,
};
use pprl_attacks::frequency::reidentification_rate;
use pprl_core::bitvec::BitVec;
use pprl_encoding::hardening::{salted_key, Hardening};
use pprl_eval::privacy::disclosure_risk;
use pprl_similarity::bitvec_sim::dice_bits;

/// The hardenings an attacker can replicate on its dictionary, because
/// they are public and deterministic.
const PUBLIC: [&str; 4] = ["balance", "xor-fold", "rule-90", "permute"];
/// The hardenings that rest on a secret the attacker lacks.
const SECRET: [&str; 2] = ["blip eps=2", "salting (secret salt)"];

/// The parameter sweep, then the dictionary attack against each hardening.
pub fn run(size: Size) -> Report {
    let names = zipf_surnames(size.pick(600, 3000), 6);
    let dictionary = surname_dictionary();
    let reid =
        |guesses: &[Option<String>]| reidentification_rate(guesses, &names).expect("aligned");
    let mut r = Report::default();

    let mut t = Table::new(
        "Pattern-frequency attack (no key material) vs parameters:",
        &["l (bits)", "k (hashes)", "reid rate", "disclosure risk"],
    );
    for (len, k) in [(256usize, 4usize), (512, 8), (1000, 10), (1000, 30)] {
        let enc = bloom(len, k, b"secret-key");
        let filters: Vec<BitVec> = names
            .iter()
            .map(|s| enc.encode_tokens(&tokens(s)))
            .collect();
        let out = pattern_frequency_attack(&filters, &dictionary, tokens).expect("runs");
        let bytes: Vec<_> = filters.iter().map(|f| f.to_bytes()).collect();
        t.row(vec![
            len.into(),
            k.into(),
            pct(reid(&out.guesses)),
            f3(disclosure_risk(&bytes).expect("nonempty")),
        ]);
    }
    r.table(t);

    let enc = bloom(1000, 10, b"leaked");
    let plain: Vec<BitVec> = names
        .iter()
        .map(|s| enc.encode_tokens(&tokens(s)))
        .collect();
    let mut t = Table::new(
        "Dictionary attack (leaked parameters) vs hardening:",
        &["hardening", "reid rate", "dice close pair", "dice far pair"],
    );
    for (name, hardening) in [
        ("none (plain BF)", None),
        ("balance", Some(Hardening::Balance)),
        ("xor-fold", Some(Hardening::XorFold)),
        ("rule-90", Some(Hardening::Rule90)),
        ("blip eps=2", Some(Hardening::Blip { epsilon: 2.0 })),
        ("blip eps=5", Some(Hardening::Blip { epsilon: 5.0 })),
        ("permute", Some(Hardening::Permute { seed: 77 })),
    ] {
        let harden = |f: &BitVec, i: u64| match &hardening {
            None => f.clone(),
            Some(h) => h.apply(f, i).expect("valid"),
        };
        let hardened: Vec<BitVec> = plain
            .iter()
            .enumerate()
            .map(|(i, f)| harden(f, i as u64))
            .collect();
        // The attacker replicates every *public deterministic* hardening
        // step on its dictionary encodings; BLIP flips are record-specific
        // secrets it cannot reproduce.
        let out = dictionary_attack_with(&hardened, &dictionary, 0.8, |w| {
            let base = enc.encode_tokens(&tokens(w));
            match &hardening {
                Some(h) if PUBLIC.contains(&name) => h.apply(&base, 0).expect("valid"),
                _ => base,
            }
        })
        .expect("runs");
        let probe = |w: &str, i| harden(&enc.encode_tokens(&tokens(w)), i);
        let smith = probe("smith", 10_001);
        t.row(vec![
            name.into(),
            pct(reid(&out.guesses)),
            f3(dice_bits(&smith, &probe("smyth", 10_002)).expect("len")),
            f3(dice_bits(&smith, &probe("garcia", 10_003)).expect("len")),
        ]);
    }

    // Salting uses a *record-specific* secret the attacker cannot
    // replicate; same-salt pairs keep their utility.
    let salted = |salt: &str| bloom(1000, 10, &salted_key(b"leaked", salt));
    let filters: Vec<BitVec> = names
        .iter()
        .enumerate()
        .map(|(i, n)| salted(&format!("dob-{}", i % 50)).encode_tokens(&tokens(n)))
        .collect();
    let out = dictionary_attack(&filters, &dictionary, &enc, tokens, 0.8).expect("runs");
    let s1 = salted("dob-1");
    let smith = s1.encode_tokens(&tokens("smith"));
    t.row(vec![
        "salting (secret salt)".into(),
        pct(reid(&out.guesses)),
        f3(dice_bits(&smith, &s1.encode_tokens(&tokens("smyth"))).expect("len")),
        f3(dice_bits(&smith, &s1.encode_tokens(&tokens("garcia"))).expect("len")),
    ]);
    r.table(t);
    r
}

/// Frequency leakage ignores (l, k); only secret randomness stops the
/// dictionary attack.
pub fn claims(r: &Report) -> Vec<Claim> {
    let sweep = r.tables[0].column("reid rate");
    let hardening = &r.tables[1];
    let reid = |name: &str| {
        hardening
            .find("hardening", name)
            .map_or(f64::NAN, |i| hardening.cell(i, "reid rate").value())
    };
    vec![
        Claim::check(
            "the pattern-frequency attack re-identifies the same share at every (l, k)",
            sweep.iter().all(|&x| x == sweep[0]),
        ),
        Claim::check(
            "salting and BLIP at eps = 2 hold dictionary re-identification <= 1%",
            SECRET.iter().all(|&h| reid(h) <= 0.01),
        ),
        Claim::check(
            "every public deterministic hardening (balance, xor-fold, rule-90, permute) \
             leaves the dictionary attack at >= 90%",
            PUBLIC.iter().all(|&h| reid(h) >= 0.9),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(reid_by_k: [f64; 2], salting: f64, balance: f64) -> Report {
        let mut sweep = Table::new("", &["k (hashes)", "reid rate"]);
        for (k, reid) in [4usize, 30].into_iter().zip(reid_by_k) {
            sweep.row(vec![k.into(), pct(reid)]);
        }
        let mut hardening = Table::new("", &["hardening", "reid rate"]);
        for (name, reid) in [
            ("balance", balance),
            ("xor-fold", 1.0),
            ("rule-90", 1.0),
            ("permute", 1.0),
            ("blip eps=2", 0.0),
            ("salting (secret salt)", salting),
        ] {
            hardening.row(vec![name.into(), pct(reid)]);
        }
        let mut r = Report::default();
        r.table(sweep);
        r.table(hardening);
        r
    }

    #[test]
    fn leaky_salting_or_parameter_dependent_leakage_fails() {
        assert!(claims(&report([0.6, 0.6], 0.0, 1.0)).iter().all(|c| c.pass));
        assert!(!claims(&report([0.6, 0.2], 0.0, 1.0))[0].pass);
        assert!(!claims(&report([0.6, 0.6], 1.0, 1.0))[1].pass);
        assert!(!claims(&report([0.6, 0.6], 0.0, 0.5))[2].pass);
    }
}
