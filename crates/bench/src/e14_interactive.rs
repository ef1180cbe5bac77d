//! E14 — §5.2 interactive PPRL (ref \[22]): bounded manual review of the
//! ambiguous band buys linkage quality proportional to the privacy budget.
//!
//! Traces F1 against the review budget for pairs whose masked similarity
//! falls between the auto-reject and auto-accept thresholds.

use crate::{clks, f3, fixed, generator, Cell, Claim, Report, Size, Table};
use pprl_crypto::dp::BudgetAccountant;
use pprl_eval::quality::Confusion;
use pprl_protocols::interactive::{interactive_linkage, ReviewablePair};
use pprl_similarity::bitvec_sim::dice_bits;
use std::collections::HashSet;

/// Quality per review budget.
pub fn run(size: Size) -> Report {
    let (n, overlap) = size.pick((120, 40), (300, 100));
    // Noisy data creates a real ambiguous band.
    let (a, b) = generator(0.35, 14)
        .dataset_pair(n, n, overlap)
        .expect("valid");
    let truth: HashSet<_> = a.ground_truth_pairs(&b).into_iter().collect();
    let (fa, fb) = (clks(&a, b"e14"), clks(&b, b"e14"));
    let mut pairs = Vec::new();
    for (i, x) in fa.iter().enumerate() {
        for (j, y) in fb.iter().enumerate() {
            let s = dice_bits(x, y).expect("len");
            if s >= 0.4 {
                pairs.push(ReviewablePair {
                    a: i,
                    b: j,
                    similarity: s,
                    is_match: truth.contains(&(i, j)),
                });
            }
        }
    }
    let (lower, upper) = (0.6, 0.85);
    let band = pairs
        .iter()
        .filter(|p| p.similarity >= lower && p.similarity < upper)
        .count();

    let truth_vec: Vec<(usize, usize)> = truth.iter().copied().collect();
    let mut t = Table::new(
        "",
        &["review budget", "reviewed", "precision", "recall", "F1"],
    );
    for budget_units in [0.001, 5.0, 20.0, 50.0, 100.0, 200.0, 1000.0] {
        let mut budget = BudgetAccountant::new(budget_units).expect("valid");
        let out = interactive_linkage(&pairs, lower, upper, &mut budget, 1.0).expect("runs");
        let q = Confusion::from_pairs(&out.predicted, &truth_vec);
        t.row(vec![
            fixed(budget_units, 0),
            out.reviewed.into(),
            f3(q.precision()),
            f3(q.recall()),
            f3(q.f1()),
        ]);
    }
    let mut r = Report::default();
    r.table(t);
    r.fact("candidate pairs", Cell::from(pairs.len()));
    r.fact(
        &format!("pairs in the review band [{lower}, {upper})"),
        Cell::from(band),
    );
    r
}

/// Each unit of budget buys quality, and disclosure stays within budget.
pub fn claims(r: &Report) -> Vec<Claim> {
    let t = &r.tables[0];
    let f1 = t.column("F1");
    vec![
        Claim::check(
            "F1 never falls as the review budget grows",
            f1.windows(2).all(|w| w[1] >= w[0]),
        ),
        Claim::check(
            "no run reviews more pairs than its budget allows",
            t.column("reviewed")
                .iter()
                .zip(t.column("review budget"))
                .all(|(reviewed, budget)| *reviewed <= budget),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(f1_at_50: f64, reviewed_at_50: usize) -> Report {
        let mut t = Table::new("", &["review budget", "reviewed", "F1"]);
        t.row(vec![f3(5.0), 5usize.into(), f3(0.88)]);
        t.row(vec![f3(50.0), reviewed_at_50.into(), f3(f1_at_50)]);
        let mut r = Report::default();
        r.table(t);
        r
    }

    #[test]
    fn review_that_hurts_or_overspends_fails() {
        assert!(claims(&report(0.93, 50)).iter().all(|c| c.pass));
        assert!(!claims(&report(0.80, 50))[0].pass);
        assert!(!claims(&report(0.93, 80))[1].pass);
    }
}
