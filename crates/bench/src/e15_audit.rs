//! E15 — §3.2 hybrid threat models: accountable computing catches a
//! cheating linkage unit at a small audit cost.
//!
//! The paper positions accountable computing between the semi-honest and
//! malicious models. This experiment runs the LU protocol, injects LU
//! tampering at several rates, and measures the empirical detection rate
//! of spot-check audits against the analytic `1 − (1 − p)^t` curve, plus
//! the audit's cost (recomputed comparisons).

use crate::{clks, f3, fixed, generator, pct, Cell, Claim, Report, Size, Table};
use pprl_core::rng::SplitMix64;
use pprl_protocols::audit::{audit_lu_decisions, detection_probability, ReportedDecision};
use pprl_similarity::bitvec_sim::dice_bits;

const TRIALS: usize = 100;

/// Detection and audit cost per (tampered decisions, audit rate).
pub fn run(size: Size) -> Report {
    let (n, overlap) = size.pick((60, 20), (150, 50));
    let (a, b) = generator(0.15, 15)
        .dataset_pair(n, n, overlap)
        .expect("valid");
    let (fa, fb) = (clks(&a, b"e15"), clks(&b, b"e15"));
    let (ra, rb): (Vec<_>, Vec<_>) = (fa.iter().collect(), fb.iter().collect());
    let threshold = 0.8;

    // The LU's honest report over all pairs.
    let mut honest: Vec<ReportedDecision> = Vec::new();
    for (i, x) in fa.iter().enumerate() {
        for (j, y) in fb.iter().enumerate() {
            let s = dice_bits(x, y).expect("len");
            honest.push(ReportedDecision {
                a: i,
                b: j,
                claimed_similarity: s,
                claimed_match: s >= threshold,
            });
        }
    }

    let mut t = Table::new(
        "",
        &[
            "tampered",
            "audit rate",
            "analytic P(detect)",
            "empirical (100 trials)",
            "audited/total",
        ],
    );
    let mut rng = SplitMix64::new(77);
    for tampered in [1usize, 5, 20, 100] {
        for rate in [0.01f64, 0.05, 0.2] {
            let mut detected = 0usize;
            let mut audited_total = 0usize;
            for trial in 0..TRIALS {
                let mut report = honest.clone();
                // Tamper with a pseudo-random subset (suppress matches).
                for k in 0..tampered {
                    let idx = (trial * 7919 + k * 104729) % report.len();
                    report[idx].claimed_match = !report[idx].claimed_match;
                }
                let out = audit_lu_decisions(&report, &ra, &rb, threshold, rate, 1e-9, &mut rng)
                    .expect("runs");
                detected += usize::from(!out.clean);
                audited_total += out.audited;
            }
            let audited = audited_total / TRIALS;
            t.row(vec![
                tampered.into(),
                fixed(rate, 2),
                f3(detection_probability(tampered, rate)),
                pct(detected as f64 / TRIALS as f64),
                Cell::num(
                    audited as f64 / honest.len() as f64,
                    format!("{audited}/{}", honest.len()),
                ),
            ]);
        }
    }
    let mut r = Report::default();
    r.table(t);
    r.fact("decisions reported by the LU", Cell::from(honest.len()));
    r
}

/// Spot checks catch tampering as the analytic curve predicts, at the
/// audited fraction of the work.
pub fn claims(r: &Report) -> Vec<Claim> {
    let t = &r.tables[0];
    let analytic = t.column("analytic P(detect)");
    let empirical = t.column("empirical (100 trials)");
    let rate = t.column("audit rate");
    let audited = t.column("audited/total");
    // Three binomial standard errors of a TRIALS-trial detection rate.
    let within =
        |p: f64, x: f64| (x - p).abs() <= 3.0 * (p * (1.0 - p) / TRIALS as f64).sqrt() + 0.02;
    vec![
        Claim::check(
            "empirical detection lies within 3 standard errors of the analytic 1-(1-p)^t in every cell",
            analytic.iter().zip(&empirical).all(|(&p, &x)| within(p, x)),
        ),
        Claim::check(
            "an audit recomputes within 20% of its audit rate's share of the decisions",
            rate.iter().zip(&audited).all(|(&p, &x)| (x - p).abs() <= 0.2 * p),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(empirical: f64, audited: f64) -> Report {
        let mut t = Table::new(
            "",
            &[
                "audit rate",
                "analytic P(detect)",
                "empirical (100 trials)",
                "audited/total",
            ],
        );
        t.row(vec![f3(0.05), f3(0.642), pct(empirical), f3(audited)]);
        let mut r = Report::default();
        r.table(t);
        r
    }

    #[test]
    fn detection_off_the_curve_or_an_overspending_audit_fails() {
        assert!(claims(&report(0.63, 0.05)).iter().all(|c| c.pass));
        assert!(!claims(&report(0.30, 0.05))[0].pass);
        assert!(!claims(&report(0.63, 0.5))[1].pass);
    }
}
