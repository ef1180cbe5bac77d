//! E1 — Figure 1 reproduction: the taxonomy of PPRL methodologies and
//! technologies, with the implementing module for every leaf.
//!
//! The survey's Figure 1 is a concept map; its faithful "reproduction" in
//! a software artifact is a coverage matrix showing that every branch of
//! the taxonomy exists in code.

use crate::{Claim, Report, Size, Table};

/// Every leaf of Figure 1 with its implementation, by dimension.
const TAXONOMY: &[(&str, &[(&str, &str)])] = &[
    (
        "linkage model",
        &[
            ("two-party protocol", "pprl-protocols::two_party"),
            ("linkage-unit (three-party)", "pprl-protocols::three_party"),
            ("multi-party", "pprl-protocols::multi_party"),
            (
                "schema matching / feature selection",
                "pprl-core::schema::common_qids",
            ),
            (
                "schema optimization (grid/random/Bayesian)",
                "pprl-eval::tuning",
            ),
        ],
    ),
    (
        "threat model",
        &[
            (
                "semi-honest adversary",
                "all protocols (simulated semi-honest)",
            ),
            (
                "collusion analysis",
                "pprl-crypto::secure_sum::ring_collusion_exposed, three_party::collusion_leakage",
            ),
            ("accountable computing (audit)", "pprl-protocols::audit"),
            ("frequency attack", "pprl-attacks::frequency"),
            ("BF cryptanalysis", "pprl-attacks::bf_cryptanalysis"),
        ],
    ),
    (
        "evaluation model",
        &[
            (
                "computation/communication cost",
                "pprl-crypto::cost::CommCost + harness timers",
            ),
            (
                "privacy (entropy, info gain, disclosure risk)",
                "pprl-eval::privacy",
            ),
            ("correctness (P/R/F1/AUC)", "pprl-eval::quality"),
            ("fairness", "pprl-eval::fairness"),
        ],
    ),
    (
        "privacy technology",
        &[
            (
                "cryptography (SMC)",
                "pprl-crypto (paillier, PSI, sharing, secure edit)",
            ),
            ("embedding", "pprl-encoding::embedding"),
            ("differential privacy", "pprl-crypto::dp + Hardening::Blip"),
            ("statistical linkage key (SLK-581)", "pprl-encoding::slk"),
            (
                "probabilistic (Bloom filters)",
                "pprl-encoding::{bloom,encoder,numeric_bf,cbf}",
            ),
            ("record-level BF (weighted sampling)", "pprl-encoding::rbf"),
        ],
    ),
    (
        "complexity reduction",
        &[
            (
                "blocking (standard/sorted-neigh/canopy)",
                "pprl-blocking::{source::KeyBlockSource,standard,canopy}",
            ),
            ("LSH blocking (MinHash, Hamming)", "pprl-blocking::lsh"),
            ("meta-blocking", "pprl-blocking::metablocking"),
            (
                "filtering (PPJoin-style)",
                "pprl-blocking::filtering on pprl-similarity::kernel::need_count",
            ),
            (
                "parallel/distributed",
                "pprl-core::runner (encoding, LSH blocking, comparison, index scan)",
            ),
            ("communication patterns", "pprl-protocols::patterns"),
        ],
    ),
    (
        "linkage technology",
        &[
            ("similarity functions", "pprl-similarity"),
            (
                "matching (one-to-one, subset)",
                "pprl-matching::{assignment,clustering::subset_matches}",
            ),
            ("deduplication (internal linking)", "pprl-pipeline::dedup"),
            (
                "collective / graph-based refinement",
                "pprl-matching::collective",
            ),
            (
                "classification (threshold/rules/FS/ML)",
                "pprl-matching::{threshold,fellegi_sunter,ml}",
            ),
            (
                "clustering (batch + incremental)",
                "pprl-matching::clustering",
            ),
            (
                "fairness-aware linkage",
                "pprl-eval::fairness::equalised_thresholds",
            ),
        ],
    ),
    (
        "big-data challenge",
        &[
            ("velocity (streaming)", "pprl-pipeline::streaming"),
            ("interactive PPRL", "pprl-protocols::interactive"),
            ("label-free quality estimation", "pprl-eval::estimate"),
            (
                "identity drift (temporal evolution)",
                "pprl-datagen::temporal",
            ),
        ],
    ),
    (
        "evaluation substrate",
        &[(
            "synthetic data with ground truth",
            "pprl-datagen (GeCo-style)",
        )],
    ),
];

/// The coverage matrix (the same at every size).
pub fn run(_: Size) -> Report {
    let mut t = Table::new("", &["dimension", "leaf", "implementation"]);
    for &(dim, leaves) in TAXONOMY {
        for &(leaf, implementation) in leaves {
            t.row(vec![dim.into(), leaf.into(), implementation.into()]);
        }
    }
    let mut r = Report::default();
    r.table(t);
    r
}

/// Every leaf names its implementation.
pub fn claims(r: &Report) -> Vec<Claim> {
    let t = &r.tables[0];
    let named = (0..t.rows().len()).all(|i| !t.cell(i, "implementation").text().is_empty());
    vec![Claim::check(
        "all 38 leaves of the Figure 1 taxonomy name the module that implements them",
        t.rows().len() == 38 && named,
    )]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_leaf_without_an_implementation_fails() {
        assert!(claims(&run(Size::Smoke)).iter().all(|c| c.pass));
        let mut r = run(Size::Smoke);
        let mut t = Table::new("", &["dimension", "leaf", "implementation"]);
        for row in r.tables[0].rows() {
            let implementation = if row[1].text() == "fairness" {
                ""
            } else {
                row[2].text()
            };
            t.row(vec![row[0].clone(), row[1].clone(), implementation.into()]);
        }
        r.tables[0] = t;
        assert!(!claims(&r)[0].pass);
    }
}
