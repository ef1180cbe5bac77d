//! E1 — Figure 1 reproduction: the taxonomy of PPRL methodologies and
//! technologies, with the implementing module for every leaf.
//!
//! The survey's Figure 1 is a concept map; its faithful "reproduction" in
//! a software artifact is a coverage matrix showing that every branch of
//! the taxonomy exists in code. Run: `cargo run --release -p pprl-bench --bin exp_taxonomy`

use pprl_bench::{banner, Table};

fn main() {
    banner(
        "E1",
        "Taxonomy coverage (Figure 1)",
        "every leaf of the PPRL taxonomy maps to an implemented, tested module",
    );
    let mut t = Table::new(&["dimension", "leaf", "implementation"]);
    let rows: &[(&str, &str, &str)] = &[
        (
            "linkage model",
            "two-party protocol",
            "pprl-protocols::two_party",
        ),
        (
            "linkage model",
            "linkage-unit (three-party)",
            "pprl-protocols::three_party",
        ),
        (
            "linkage model",
            "multi-party",
            "pprl-protocols::multi_party",
        ),
        (
            "linkage model",
            "schema matching / feature selection",
            "pprl-core::schema::common_qids",
        ),
        (
            "linkage model",
            "schema optimization (grid/random/Bayesian)",
            "pprl-eval::tuning",
        ),
        (
            "threat model",
            "semi-honest adversary",
            "all protocols (simulated semi-honest)",
        ),
        (
            "threat model",
            "collusion analysis",
            "pprl-crypto::secure_sum::ring_collusion_exposed, three_party::collusion_leakage",
        ),
        (
            "threat model",
            "accountable computing (audit)",
            "pprl-protocols::audit",
        ),
        (
            "threat model",
            "frequency attack",
            "pprl-attacks::frequency",
        ),
        (
            "threat model",
            "BF cryptanalysis",
            "pprl-attacks::bf_cryptanalysis",
        ),
        (
            "evaluation model",
            "computation/communication cost",
            "pprl-crypto::cost::CommCost + harness timers",
        ),
        (
            "evaluation model",
            "privacy (entropy, info gain, disclosure risk)",
            "pprl-eval::privacy",
        ),
        (
            "evaluation model",
            "correctness (P/R/F1/AUC)",
            "pprl-eval::quality",
        ),
        ("evaluation model", "fairness", "pprl-eval::fairness"),
        (
            "privacy technology",
            "cryptography (SMC)",
            "pprl-crypto (paillier, PSI, sharing, secure edit)",
        ),
        (
            "privacy technology",
            "embedding",
            "pprl-encoding::embedding",
        ),
        (
            "privacy technology",
            "differential privacy",
            "pprl-crypto::dp + Hardening::Blip",
        ),
        (
            "privacy technology",
            "statistical linkage key (SLK-581)",
            "pprl-encoding::slk",
        ),
        (
            "privacy technology",
            "probabilistic (Bloom filters)",
            "pprl-encoding::{bloom,encoder,numeric_bf,cbf}",
        ),
        (
            "privacy technology",
            "record-level BF (weighted sampling)",
            "pprl-encoding::rbf",
        ),
        (
            "complexity reduction",
            "blocking (standard/sorted-neigh/canopy)",
            "pprl-blocking::{standard,canopy}",
        ),
        (
            "complexity reduction",
            "LSH blocking (MinHash, Hamming)",
            "pprl-blocking::lsh",
        ),
        (
            "complexity reduction",
            "meta-blocking",
            "pprl-blocking::metablocking",
        ),
        (
            "complexity reduction",
            "filtering (PPJoin-style)",
            "pprl-blocking::filtering",
        ),
        (
            "complexity reduction",
            "parallel/distributed",
            "pprl-core::runner (encoding, LSH blocking, comparison, index scan)",
        ),
        (
            "complexity reduction",
            "communication patterns",
            "pprl-protocols::patterns",
        ),
        (
            "linkage technology",
            "similarity functions",
            "pprl-similarity",
        ),
        (
            "linkage technology",
            "matching (one-to-one, subset)",
            "pprl-matching::{assignment,clustering::subset_matches}",
        ),
        (
            "linkage technology",
            "deduplication (internal linking)",
            "pprl-pipeline::dedup",
        ),
        (
            "linkage technology",
            "collective / graph-based refinement",
            "pprl-matching::collective",
        ),
        (
            "linkage technology",
            "classification (threshold/rules/FS/ML)",
            "pprl-matching::{threshold,fellegi_sunter,ml}",
        ),
        (
            "linkage technology",
            "clustering (batch + incremental)",
            "pprl-matching::clustering",
        ),
        (
            "linkage technology",
            "fairness-aware linkage",
            "pprl-eval::fairness::equalised_thresholds",
        ),
        (
            "big-data challenge",
            "velocity (streaming)",
            "pprl-pipeline::streaming",
        ),
        (
            "big-data challenge",
            "interactive PPRL",
            "pprl-protocols::interactive",
        ),
        (
            "big-data challenge",
            "label-free quality estimation",
            "pprl-eval::estimate",
        ),
        (
            "big-data challenge",
            "identity drift (temporal evolution)",
            "pprl-datagen::temporal",
        ),
        (
            "evaluation substrate",
            "synthetic data with ground truth",
            "pprl-datagen (GeCo-style)",
        ),
    ];
    for (dim, leaf, implementation) in rows {
        t.row(vec![
            dim.to_string(),
            leaf.to_string(),
            implementation.to_string(),
        ]);
    }
    t.print();
    println!("\n{} taxonomy leaves covered.", rows.len());

    pprl_bench::report::save();
}
