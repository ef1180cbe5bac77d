//! E4 — §3.4 complexity reduction (refs \[12, 16, 18]): blocking and LSH
//! prune the comparison space by orders of magnitude at a small recall
//! cost; meta-blocking prunes further.
//!
//! Sweeps dataset size and compares full cross product, standard blocking,
//! sorted neighbourhood, canopy clustering, MinHash LSH and Hamming LSH on
//! candidates, reduction ratio, pairs completeness and runtime; then shows
//! the meta-blocking and PPJoin-filter ablations.

use crate::{clks, f3, generator, secs, timed, Cell, Claim, Report, Size, Table};
use pprl_blocking::canopy::CanopyBlocking;
use pprl_blocking::filtering::filter_candidates;
use pprl_blocking::keys::{BlockingKey, KeyPart};
use pprl_blocking::lsh::{HammingLsh, MinHashLsh};
use pprl_blocking::metablocking::{block_pairs, build_blocks, purge_blocks};
use pprl_blocking::source::KeyBlockSource;
use pprl_blocking::standard::{full_cross_product, sorted_neighbourhood};
use pprl_core::candidate::{CandidateSource, Probes};
use pprl_core::normalize::normalize_default;
use pprl_core::qgram::{qgram_set, QGramConfig};
use pprl_core::record::Dataset;
use pprl_encoding::minhash::MinHasher;
use pprl_eval::quality::blocking_quality;

fn name_tokens(ds: &Dataset) -> Vec<Vec<String>> {
    let cfg = QGramConfig::default();
    (0..ds.len())
        .map(|i| {
            let name = format!(
                "{} {}",
                ds.text(i, "first_name").expect("field"),
                ds.text(i, "last_name").expect("field")
            );
            qgram_set(&normalize_default(&name), &cfg)
        })
        .collect()
}

/// One table per size, then the meta-blocking and filtering ablation.
pub fn run(size: Size) -> Report {
    let mut r = Report::default();
    for n in size.pick(vec![200usize, 400], vec![500, 1000, 2000]) {
        let (a, b) = generator(0.2, 4)
            .dataset_pair(n, n, n / 4)
            .expect("valid sizes");
        let truth = a.ground_truth_pairs(&b);

        // Shared preprocessing for LSH methods.
        let fa = clks(&a, b"e4");
        let fb = clks(&b, b"e4");
        let hasher = MinHasher::new(64, b"e4").expect("valid");
        let ta = name_tokens(&a);
        let tb = name_tokens(&b);
        let sa: Vec<Vec<u64>> = ta.iter().map(|t| hasher.signature(t)).collect();
        let sb: Vec<Vec<u64>> = tb.iter().map(|t| hasher.signature(t)).collect();
        let key = BlockingKey::person_default();
        let ka = key.extract(&a).expect("keys");
        let kb = key.extract(&b).expect("keys");

        let mut t = Table::new(
            format!("n = {n} per party ({} true matches):", truth.len()),
            &["method", "candidates", "RR", "PC", "time"],
        );
        let mut report = |name: &str, (pairs, time): (Vec<(usize, usize)>, f64)| {
            let q = blocking_quality(&pairs, &truth, a.len(), b.len()).expect("non-empty");
            t.row(vec![
                name.into(),
                pairs.len().into(),
                f3(q.reduction_ratio),
                f3(q.pairs_completeness),
                secs(time),
            ]);
        };
        report(
            "full cross product",
            timed(|| full_cross_product(a.len(), b.len())),
        );
        report(
            "standard (sdx+year)",
            timed(|| {
                let probes = Probes {
                    keys: Some(&ka),
                    ..Probes::default()
                };
                KeyBlockSource::from_keys(&kb)
                    .candidates(&probes)
                    .expect("keys")
            }),
        );
        report(
            "sorted neighbourhood",
            timed(|| sorted_neighbourhood(&ka, &kb, 6).expect("window")),
        );
        report(
            "canopy (jaccard)",
            timed(|| {
                CanopyBlocking::new(0.4, 0.8, 7)
                    .expect("thresholds")
                    .candidates(&ta, &tb)
                    .expect("tokens")
            }),
        );
        report(
            "minhash lsh (16x4)",
            timed(|| {
                MinHashLsh::new(16, 4)
                    .expect("bands")
                    .candidates(&sa, &sb)
                    .expect("signatures")
            }),
        );
        let (ra, rb): (Vec<_>, Vec<_>) = (fa.iter().collect(), fb.iter().collect());
        report(
            "hamming lsh (16x24)",
            timed(|| {
                HammingLsh::new(16, 24, 11)
                    .expect("params")
                    .candidates(&ra, &rb, 1)
                    .expect("filters")
            }),
        );
        r.table(t);
    }

    // Meta-blocking and filtering ablation.
    let n = size.pick(400, 1000);
    let (a, b) = generator(0.2, 5)
        .dataset_pair(n, n, n / 4)
        .expect("valid sizes");
    let truth = a.ground_truth_pairs(&b);
    // A deliberately weak key (city only) creating oversized blocks.
    let weak = BlockingKey::new(vec![KeyPart::Exact("city".into())]);
    let blocks = build_blocks(
        &weak.extract(&a).expect("keys"),
        &weak.extract(&b).expect("keys"),
    );
    let raw = block_pairs(&blocks);
    let purged = block_pairs(&purge_blocks(blocks, size.pick(800, 5_000)));
    let fa = clks(&a, b"e4");
    let fb = clks(&b, b"e4");
    let (ra, rb): (Vec<_>, Vec<_>) = (fa.iter().collect(), fb.iter().collect());
    let filtered = filter_candidates(&ra, &rb, &purged, 0.8).expect("threshold");
    let mut t = Table::new(
        format!("Ablation at n = {n}: meta-blocking and PPJoin-style filtering"),
        &["stage", "candidates", "RR", "PC"],
    );
    for (name, pairs) in [
        ("city blocks (raw)", &raw),
        ("after block purging", &purged),
        ("after dice>=0.8 filter", &filtered.survivors),
    ] {
        let q = blocking_quality(pairs, &truth, a.len(), b.len()).expect("non-empty");
        t.row(vec![
            name.into(),
            pairs.len().into(),
            f3(q.reduction_ratio),
            f3(q.pairs_completeness),
        ]);
    }
    r.table(t);
    r.fact(
        "pairs the filter pruned by bit-count alone (no AND computed)",
        Cell::from(filtered.pruned_by_length),
    );
    r.fact(
        "pairs the filter pruned by the overlap bound",
        Cell::from(filtered.pruned_by_overlap),
    );
    r
}

/// Hamming LSH keeps completeness at a tiny candidate set; the Dice
/// filter prunes without losing matches.
pub fn claims(r: &Report) -> Vec<Claim> {
    let (sweep, ablation) = r.tables.split_at(r.tables.len() - 1);
    let hlsh = sweep.iter().all(|t| {
        t.find("method", "hamming lsh (16x24)")
            .is_some_and(|i| t.cell(i, "PC").value() >= 0.95 && t.cell(i, "RR").value() >= 0.99)
    });
    let stages = &ablation[0];
    let candidates = stages.column("candidates");
    let pc = stages.column("PC");
    vec![
        Claim::check("Hamming-LSH PC >= 0.95 at RR >= 0.99 at every n", hlsh),
        Claim::check(
            "the Dice >= 0.8 filter prunes >= 95% of the purged candidates and loses <= 0.02 PC",
            candidates[2] <= 0.05 * candidates[1] && pc[2] >= pc[1] - 0.02,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(hlsh_pc: f64, filtered_pc: f64) -> Report {
        let mut sweep = Table::new("", &["method", "RR", "PC"]);
        sweep.row(vec!["hamming lsh (16x24)".into(), f3(0.999), f3(hlsh_pc)]);
        let mut ablation = Table::new("", &["stage", "candidates", "PC"]);
        for (stage, candidates, pc) in [("raw", 1000usize, 0.8), ("purged", 200, 0.5)] {
            ablation.row(vec![stage.into(), candidates.into(), f3(pc)]);
        }
        ablation.row(vec!["filtered".into(), 5usize.into(), f3(filtered_pc)]);
        let mut r = Report::default();
        r.table(sweep);
        r.table(ablation);
        r
    }

    #[test]
    fn incomplete_blocking_or_a_lossy_filter_fails() {
        assert!(claims(&report(0.97, 0.49)).iter().all(|c| c.pass));
        assert!(!claims(&report(0.90, 0.49))[0].pass);
        assert!(!claims(&report(0.97, 0.40))[1].pass);
    }
}
