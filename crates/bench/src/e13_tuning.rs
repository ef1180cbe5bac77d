//! E13 — §3.1 schema optimization (refs \[3, 36]): Bayesian optimization
//! reaches good linkage parameters in fewer pipeline evaluations than grid
//! or random search.
//!
//! The objective is the real pipeline F1 as a function of (threshold,
//! LSH tables, LSH bits/key) on a fixed dataset pair.

use crate::{f3, generator, Cell, Claim, Report, Size, Table};
use pprl_blocking::lsh::HammingLsh;
use pprl_core::error::Result;
use pprl_eval::quality::Confusion;
use pprl_eval::tuning::{bayesian_optimization, grid_search, random_search, ParamSpace};
use pprl_pipeline::batch::{link, BlockingChoice, PipelineConfig};
use std::cell::Cell as Counter;

/// Best F1 per search method at one budget, then seed-averaged
/// convergence.
pub fn run(size: Size) -> Report {
    let (n, overlap) = size.pick((60, 20), (250, 80));
    let (a, b) = generator(0.45, 13)
        .dataset_pair(n, n, overlap)
        .expect("valid");
    let truth = a.ground_truth_pairs(&b);

    // Objective: F1 of the full pipeline at (threshold, tables, bits).
    let evals = Counter::new(0usize);
    let objective = |x: &[f64]| -> Result<f64> {
        evals.set(evals.get() + 1);
        let tables = x[1].round().max(1.0) as usize;
        let bits = x[2].round().max(4.0) as usize;
        let mut cfg = PipelineConfig::standard(b"e13".to_vec())?;
        cfg.threshold = x[0];
        cfg.blocking = BlockingChoice::Lsh(HammingLsh::new(tables, bits, 0xE13)?);
        let r = link(&a, &b, &cfg)?;
        Ok(Confusion::from_pairs(&r.pairs(), &truth).f1())
    };
    let space = ParamSpace::new(vec![(0.3, 0.95), (1.0, 24.0), (8.0, 64.0)]).expect("valid");
    let budget = 27;

    let mut t = Table::new(
        "",
        &[
            "method",
            "evaluations",
            "best F1",
            "best params (t, tables, bits)",
        ],
    );
    let fmt_params = |p: &[f64]| format!("({:.2}, {:.0}, {:.0})", p[0], p[1].round(), p[2].round());
    for (name, out) in [
        ("grid 3x3x3", grid_search(&space, 3, objective)),
        ("random", random_search(&space, budget, 1, objective)),
        (
            "bayesian (6 init)",
            bayesian_optimization(&space, budget, 6, 1, objective),
        ),
    ] {
        let out = out.expect("runs");
        t.row(vec![
            name.into(),
            budget.into(),
            f3(out.best_value),
            fmt_params(&out.best_params).into(),
        ]);
    }
    let mut r = Report::default();
    r.table(t);

    // Convergence: best-so-far after k evaluations (seed-averaged).
    let seeds = size.pick(&[2u64][..], &[2, 3, 4]);
    let curves = |search: &dyn Fn(u64) -> Vec<f64>| -> Vec<Vec<f64>> {
        seeds.iter().map(|&s| search(s)).collect()
    };
    let random_curves = curves(&|s| {
        random_search(&space, budget, s, objective)
            .expect("runs")
            .best_so_far()
    });
    let bo_curves = curves(&|s| {
        bayesian_optimization(&space, budget, 6, s, objective)
            .expect("runs")
            .best_so_far()
    });
    let mut t = Table::new(
        format!(
            "Best F1 after k evaluations (mean of {} seeds):",
            seeds.len()
        ),
        &["k", "random", "bayesian"],
    );
    for k in [5usize, 10, 15, 20, 26] {
        let mean = |c: &[Vec<f64>]| c.iter().map(|c| c[k]).sum::<f64>() / c.len() as f64;
        t.row(vec![
            (k + 1).into(),
            f3(mean(&random_curves)),
            f3(mean(&bo_curves)),
        ]);
    }
    r.table(t);
    r.fact("total pipeline evaluations spent", Cell::from(evals.get()));
    r
}

/// Bayesian optimization finds at least as good a setting as grid and
/// random search within the same budget.
pub fn claims(r: &Report) -> Vec<Claim> {
    let best = r.tables[0].column("best F1");
    let convergence = &r.tables[1];
    vec![
        Claim::check(
            "Bayesian optimization's best F1 >= grid's and random's within the same 27 evaluations",
            best[2] >= best[0] && best[2] >= best[1],
        ),
        Claim::check(
            "seed-averaged, Bayesian optimization's best-so-far F1 >= random search's at every k",
            convergence
                .column("bayesian")
                .iter()
                .zip(convergence.column("random"))
                .all(|(bo, random)| *bo >= random),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(bo_best: f64, bo_at_16: f64) -> Report {
        let mut t = Table::new("", &["method", "best F1"]);
        for (name, f1) in [("grid", 0.88), ("random", 0.97), ("bayesian", bo_best)] {
            t.row(vec![name.into(), f3(f1)]);
        }
        let mut convergence = Table::new("", &["k", "random", "bayesian"]);
        convergence.row(vec![6usize.into(), f3(0.974), f3(0.974)]);
        convergence.row(vec![16usize.into(), f3(0.974), f3(bo_at_16)]);
        let mut r = Report::default();
        r.table(t);
        r.table(convergence);
        r
    }

    #[test]
    fn a_search_no_better_than_random_fails() {
        assert!(claims(&report(0.987, 0.994)).iter().all(|c| c.pass));
        assert!(!claims(&report(0.95, 0.994))[0].pass);
        assert!(!claims(&report(0.987, 0.90))[1].pass);
    }
}
