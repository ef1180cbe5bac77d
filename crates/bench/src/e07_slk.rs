//! E7 — §3.4 SLK (ref \[31]): "limited privacy protection and poor
//! sensitivity: is it time to move on from the statistical linkage
//! key-581?"
//!
//! Compares SLK-581 exact matching against CLK Bloom-filter matching on
//! corrupted duplicates (sensitivity = recall on true matches), and runs
//! the frequency attack against hashed SLKs vs CLKs (privacy).

use crate::{clks, encoded_matches, f3, fixed, generator, non_increasing, pct};
use crate::surname_dictionary;
use crate::{Claim, Report, Size, Table};
use pprl_attacks::frequency::{frequency_attack, reidentification_rate};
use pprl_core::record::Dataset;
use pprl_core::schema::Schema;
use pprl_core::value::{Date, Value};
use pprl_encoding::encoder::RecordEncoderConfig;
use pprl_encoding::slk::hashed_slk581;
use pprl_eval::quality::Confusion;
use std::collections::HashMap;

fn slk_of(ds: &Dataset, row: usize) -> Option<String> {
    let first = ds.text(row, "first_name").expect("field");
    let last = ds.text(row, "last_name").expect("field");
    let sex = ds.text(row, "gender").expect("field");
    match ds.value(row, "dob").expect("field") {
        Value::Date(d) => {
            Some(hashed_slk581(&first, &last, d, &sex, b"slk-key").expect("key non-empty"))
        }
        _ => None,
    }
}

/// Sensitivity per corruption level, then the surname frequency attack.
pub fn run(size: Size) -> Report {
    let (n, overlap) = size.pick((150, 45), (500, 150));
    let mut r = Report::default();
    let mut t = Table::new(
        format!("Sensitivity (recall on corrupted true matches), n = {n}/side:"),
        &[
            "corruption",
            "SLK recall",
            "SLK precision",
            "CLK recall",
            "CLK precision",
        ],
    );
    for corruption in [0.0, 0.1, 0.2, 0.3, 0.4] {
        let (a, b) = generator(corruption, 7)
            .dataset_pair(n, n, overlap)
            .expect("valid");
        let truth = a.ground_truth_pairs(&b);

        // SLK: exact equality of hashed keys.
        let mut slk_index: HashMap<String, Vec<usize>> = HashMap::new();
        for j in 0..b.len() {
            if let Some(k) = slk_of(&b, j) {
                slk_index.entry(k).or_default().push(j);
            }
        }
        let mut slk_pairs = Vec::new();
        for i in 0..a.len() {
            if let Some(rows) = slk_of(&a, i).and_then(|k| slk_index.get(&k)) {
                slk_pairs.extend(rows.iter().map(|&j| (i, j)));
            }
        }
        let slk = Confusion::from_pairs(&slk_pairs, &truth);

        // CLK at the usual threshold (full comparison for parity).
        let clk_pairs = encoded_matches(&a, &b, RecordEncoderConfig::person_clk(b"e7".to_vec()));
        let clk = Confusion::from_pairs(&clk_pairs, &truth);
        t.row(vec![
            fixed(corruption, 1),
            f3(slk.recall()),
            f3(slk.precision()),
            f3(clk.recall()),
            f3(clk.precision()),
        ]);
    }
    r.table(t);

    // Records with identical (name, dob, sex) produce identical hashed
    // SLKs, so an attacker aligns frequencies. We attack a name-only SLK
    // variant (common in practice when dob is unreliable) vs the CLK.
    let people = generator(0.0, 8).population(size.pick(1000, 3000));
    let ds = Dataset::from_records(Schema::person(), people).expect("valid");
    let surnames: Vec<String> = ds.column_text("last_name").expect("field");
    let fixed_dob = Date::new(1980, 1, 1).expect("valid");
    let name_slks: Vec<String> = surnames
        .iter()
        .map(|s| hashed_slk581("jane", s, &fixed_dob, "f", b"slk-key").expect("key"))
        .collect();
    let clk_bytes: Vec<Vec<u8>> = clks(&ds, b"e7").iter().map(|f| f.to_bytes()).collect();
    let dictionary = surname_dictionary();
    let reid = |guesses| reidentification_rate(guesses, &surnames).expect("aligned");
    let mut t = Table::new(
        "Privacy: frequency attack on the surname component",
        &["encoding", "surname re-identification"],
    );
    let slk_attack = frequency_attack(&name_slks, &dictionary).expect("runs");
    t.row(vec![
        "hashed SLK (name component)".into(),
        pct(reid(&slk_attack.guesses)),
    ]);
    let clk_attack = frequency_attack(&clk_bytes, &dictionary).expect("runs");
    t.row(vec![
        "record-level CLK".into(),
        pct(reid(&clk_attack.guesses)),
    ]);
    r.table(t);
    r
}

/// SLK recall collapses and its hashes leak; the CLK does neither.
pub fn claims(r: &Report) -> Vec<Claim> {
    let sweep = &r.tables[0];
    let leak = r.tables[1].column("surname re-identification");
    vec![
        Claim::check(
            "SLK recall never rises with corruption, while CLK recall stays >= 0.95",
            non_increasing(&sweep.column("SLK recall"))
                && sweep.column("CLK recall").iter().all(|&x| x >= 0.95),
        ),
        Claim::check(
            "SLK recall at the highest corruption is below CLK recall by >= 0.3",
            sweep.rows().len() >= 2 && {
                let last = sweep.rows().len() - 1;
                sweep.cell(last, "CLK recall").value() - sweep.cell(last, "SLK recall").value()
                    >= 0.3
            },
        ),
        Claim::check(
            "the frequency attack re-identifies >= 10x more surnames from hashed SLKs than from CLKs",
            leak[0] >= 10.0 * leak[1] && leak[0] > 0.0,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(slk_recall: [f64; 3], clk_leak: f64) -> Report {
        let mut sweep = Table::new("", &["SLK recall", "CLK recall"]);
        for x in slk_recall {
            sweep.row(vec![f3(x), f3(1.0)]);
        }
        let mut leak = Table::new("", &["encoding", "surname re-identification"]);
        leak.row(vec!["slk".into(), pct(0.36)]);
        leak.row(vec!["clk".into(), pct(clk_leak)]);
        let mut r = Report::default();
        r.table(sweep);
        r.table(leak);
        r
    }

    #[test]
    fn a_robust_slk_or_a_leaky_clk_fails() {
        assert!(claims(&report([1.0, 0.6, 0.4], 0.001))
            .iter()
            .all(|c| c.pass));
        assert!(!claims(&report([1.0, 0.6, 0.7], 0.001))[0].pass);
        assert!(!claims(&report([1.0, 0.9, 0.9], 0.001))[1].pass);
        assert!(!claims(&report([1.0, 0.6, 0.4], 0.3))[2].pass);
    }
}
