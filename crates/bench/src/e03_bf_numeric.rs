//! E3 — Figure 2 (right), ref \[40]: neighbourhood encoding of numeric
//! QIDs preserves numeric similarity in the Bloom-filter domain.
//!
//! For value pairs at increasing distance, compares the analytically
//! expected token-set Dice with the Dice actually measured on the Bloom
//! filters, across grid steps and neighbourhood widths.

use crate::{bloom, f3, fixed, non_increasing, Claim, Report, Size, Table};
use pprl_encoding::numeric_bf::NeighbourhoodParams;
use pprl_similarity::bitvec_sim::dice_bits;

/// One table per (step, neighbours) setting (the same at every size).
pub fn run(_: Size) -> Report {
    let encoder = bloom(512, 6, b"e3");
    let mut r = Report::default();
    for (step, neighbours) in [(1.0, 3usize), (1.0, 5), (5.0, 3)] {
        let params = NeighbourhoodParams::new(step, neighbours).expect("valid params");
        let mut t = Table::new(
            format!(
                "step = {step}, neighbours/side = {neighbours} (matchable up to ±{})",
                params.max_matchable_distance()
            ),
            &["delta", "expected dice", "measured dice"],
        );
        let base = 120.0f64;
        let max_delta = params.max_matchable_distance() * 1.25;
        let mut delta = 0.0;
        while delta <= max_delta {
            let fa = encoder.encode_tokens(&params.tokens(base).expect("finite"));
            let fb = encoder.encode_tokens(&params.tokens(base + delta).expect("finite"));
            let measured = dice_bits(&fa, &fb).expect("same length");
            t.row(vec![
                fixed(delta, 1),
                f3(params.expected_dice(delta)),
                f3(measured),
            ]);
            delta += step * neighbours as f64 / 2.0;
        }
        r.table(t);
    }
    r
}

/// Measured Dice follows the expected window overlap.
pub fn claims(r: &Report) -> Vec<Claim> {
    let pairs = |t: &Table| {
        t.column("expected dice")
            .into_iter()
            .zip(t.column("measured dice"))
    };
    vec![
        Claim::check(
            "measured Dice is within 0.1 of the expected window overlap at every distance",
            r.tables
                .iter()
                .all(|t| pairs(t).all(|(e, m)| (m - e).abs() <= 0.1)),
        ),
        Claim::check(
            "measured Dice never rises with distance, and is below 0.1 beyond the matchable window",
            r.tables.iter().all(|t| {
                non_increasing(&t.column("measured dice"))
                    && pairs(t).all(|(e, m)| e > 0.0 || m < 0.1)
            }),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(measured: [f64; 3]) -> Report {
        let mut t = Table::new("", &["expected dice", "measured dice"]);
        for (e, m) in [1.0, 0.5, 0.0].into_iter().zip(measured) {
            t.row(vec![f3(e), f3(m)]);
        }
        let mut r = Report::default();
        r.table(t);
        r
    }

    #[test]
    fn dice_that_ignores_distance_fails() {
        assert!(claims(&report([1.0, 0.55, 0.05])).iter().all(|c| c.pass));
        assert!(!claims(&report([1.0, 0.8, 0.05]))[0].pass);
        assert!(!claims(&report([1.0, 0.45, 0.5]))[1].pass);
    }
}
