//! E11 — §3.3/§5.2 fairness (ref \[46]): linkage errors concentrate in
//! subgroups whose data is noisier, and per-group thresholds close the
//! recall gap.
//!
//! Simulates a population where one subgroup's records suffer heavier
//! corruption (the documented real-world situation for transliterated
//! names), measures per-group recall gaps at a single global threshold,
//! then applies equal-opportunity threshold mitigation.

use crate::{clks, f3, generator, Claim, Report, Size, Table};
use pprl_core::record::{Dataset, Record};
use pprl_core::schema::Schema;
use pprl_eval::fairness::{
    classify_with_group_thresholds, demographic_parity_gap, equalised_thresholds,
    per_group_quality, recall_gap, GroupedPair,
};
use pprl_eval::quality::Confusion;
use pprl_similarity::bitvec_sim::dice_bits;

const GAP_AFTER: &str = "recall gap after mitigation";

/// Per-group quality at a global threshold, the equalising thresholds,
/// and the gap they leave.
pub fn run(size: Size) -> Report {
    // Group "m": light corruption. Group "f": heavy corruption. Gender is
    // the (stand-in) protected attribute.
    let n = size.pick(150, 300);
    let mut gen_light = generator(0.1, 11);
    let mut gen_heavy = generator(0.65, 11);
    let base = gen_light.population(n);
    let clk = |r: &Record| {
        let ds = Dataset::from_records(Schema::person(), vec![r.clone()]).expect("matches schema");
        clks(&ds, b"e11").remove(0)
    };

    // Each entity vs its duplicate (match) and vs the next entity
    // (non-match), with corruption by protected group.
    let mut pairs: Vec<GroupedPair> = Vec::new();
    for (i, r) in base.iter().enumerate() {
        let group = r.values[6].as_text(); // gender as protected attribute
        let dup = if group == "f" {
            gen_heavy.corrupt_record(r)
        } else {
            gen_light.corrupt_record(r)
        };
        let (me, other) = (clk(r), clk(&base[(i + 1) % n]));
        pairs.push(GroupedPair {
            a: i,
            b: i,
            score: dice_bits(&me, &clk(&dup)).expect("len"),
            group: group.clone(),
            is_match: true,
        });
        pairs.push(GroupedPair {
            a: i,
            b: n + (i + 1) % n,
            score: dice_bits(&me, &other).expect("len"),
            group,
            is_match: false,
        });
    }

    let threshold = 0.85;
    let q = per_group_quality(&pairs, threshold).expect("valid threshold");
    let mut r = Report::default();
    let mut t = Table::new(
        format!("Global threshold {threshold}:"),
        &["group", "recall", "precision", "pred. positive rate"],
    );
    for gq in &q {
        t.row(vec![
            gq.group.as_str().into(),
            f3(gq.confusion.recall()),
            f3(gq.confusion.precision()),
            f3(gq.predicted_positive_rate),
        ]);
    }
    r.table(t);

    let thresholds = equalised_thresholds(&pairs, 0.95).expect("valid target");
    let mut t = Table::new(
        "Mitigation: per-group thresholds equalising recall at 0.95:",
        &["group", "threshold"],
    );
    let mut names: Vec<_> = thresholds.keys().cloned().collect();
    names.sort();
    for g in &names {
        t.row(vec![g.as_str().into(), f3(thresholds[g])]);
    }
    r.table(t);

    let predicted = classify_with_group_thresholds(&pairs, &thresholds);
    let truth: Vec<(usize, usize)> = pairs
        .iter()
        .filter(|p| p.is_match)
        .map(|p| (p.a, p.b))
        .collect();
    let overall = Confusion::from_pairs(&predicted, &truth);
    // Re-measure the per-group gap at the mitigated decision.
    let mitigated: Vec<GroupedPair> = pairs
        .iter()
        .map(|p| GroupedPair {
            score: f64::from(u8::from(p.score >= thresholds[&p.group])),
            ..p.clone()
        })
        .collect();
    let q2 = per_group_quality(&mitigated, 0.5).expect("valid");
    r.fact("recall gap", f3(recall_gap(&q)));
    r.fact("demographic parity gap", f3(demographic_parity_gap(&q)));
    r.fact(GAP_AFTER, f3(recall_gap(&q2)));
    r.fact(
        "overall precision after mitigation",
        f3(overall.precision()),
    );
    r.fact("overall recall after mitigation", f3(overall.recall()));
    r
}

/// A global threshold leaves a gap; per-group thresholds close it.
pub fn claims(r: &Report) -> Vec<Claim> {
    let recall = r.tables[0].column("recall");
    let gap = recall.iter().copied().fold(f64::NAN, f64::max)
        - recall.iter().copied().fold(f64::NAN, f64::min);
    vec![
        Claim::check(
            "a global threshold leaves a subgroup recall gap >= 0.1",
            gap >= 0.1,
        ),
        Claim::check(
            "per-group thresholds shrink the recall gap below 0.05",
            r.value(GAP_AFTER) < 0.05,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(recall_f: f64, gap_after: f64) -> Report {
        let mut t = Table::new("", &["group", "recall"]);
        t.row(vec!["f".into(), f3(recall_f)]);
        t.row(vec!["m".into(), f3(1.0)]);
        let mut r = Report::default();
        r.table(t);
        r.fact(GAP_AFTER, f3(gap_after));
        r
    }

    #[test]
    fn no_gap_or_an_unclosed_gap_fails() {
        assert!(claims(&report(0.79, 0.002)).iter().all(|c| c.pass));
        assert!(!claims(&report(0.97, 0.002))[0].pass);
        assert!(!claims(&report(0.79, 0.2))[1].pass);
    }
}
