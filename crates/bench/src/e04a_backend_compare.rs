//! E4a — candidate-source backends on one dataset (§3.4 + ROADMAP
//! "index-accelerated linkage"): the persistent index as a first-class
//! linkage backend versus in-memory blocking.
//!
//! Runs the same E4-style GeCo dataset through the batch pipeline with
//! every `CandidateSource` backend — full cross product, standard key
//! blocking, Hamming LSH, and the on-disk sharded index — and reports
//! the per-source accounting the trait exposes (candidates emitted,
//! comparisons saved, bytes read) next to linkage quality. With
//! `top_k = |B|` the index backend's match set must equal the in-memory
//! HLSH and full match sets exactly (scores bit-identical).

use crate::{clks, f3, fixed, generator, secs, timed, Cell, Claim, Report, Size, Table};
use pprl_blocking::keys::BlockingKey;
use pprl_blocking::lsh::HammingLsh;
use pprl_core::bitvec::BitVec;
use pprl_eval::quality::Confusion;
use pprl_index::store::{IndexConfig, IndexStore};
use pprl_pipeline::batch::{link, BlockingChoice, IndexSourceConfig, PipelineConfig};

/// The shared key both parties encode under.
const KEY: &[u8] = b"e4a-key";
const SAME: &str = "index == hamming-lsh == full match set (scores bit-identical)";

/// Links every backend over one dataset pair.
pub fn run(size: Size) -> Report {
    let (side, overlap) = size.pick((400, 100), (2000, 500));
    let (a, b) = generator(0.15, 0xE4A)
        .dataset_pair(side, side, overlap)
        .expect("dataset pair");
    let truth = a.ground_truth_pairs(&b);
    let mut cfg = PipelineConfig::standard(KEY.to_vec()).expect("config");
    let mut r = Report::default();

    // Build the persistent index over B's CLKs once, id = row — the
    // amortised cost every subsequent linkage run against B skips.
    let dir = std::env::temp_dir().join(format!("pprl-e4a-index-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let ((), build_secs) = timed(|| {
        let records: Vec<(u64, BitVec)> = (0u64..).zip(clks(&b, KEY)).collect();
        let config = IndexConfig::new(records[0].1.len(), 8);
        let mut store = IndexStore::create(&dir, config).expect("create index");
        store.insert_batch(&records).expect("insert");
        store.flush().expect("flush");
        store.compact().expect("compact");
    });

    // 64 tables of 8-bit keys: enough redundancy that HLSH is candidate-
    // complete at Dice >= 0.8 on this dataset (checked against the
    // exhaustive run), so the index/HLSH equality is meaningful.
    let backends = [
        ("full", BlockingChoice::Full),
        (
            "standard",
            BlockingChoice::Standard(BlockingKey::person_default()),
        ),
        (
            "hamming-lsh",
            BlockingChoice::Lsh(HammingLsh::new(64, 8, 0x1234).expect("lsh")),
        ),
        (
            "index",
            BlockingChoice::Index(IndexSourceConfig {
                dir: dir.clone(),
                top_k: side,
            }),
        ),
    ];
    let mut t = Table::new(
        "",
        &[
            "backend",
            "matches",
            "precision",
            "recall",
            "candidates",
            "comparisons",
            "saved",
            "bytes read",
            "link time",
        ],
    );
    let mut match_sets = Vec::new();
    for (label, blocking) in backends {
        cfg.blocking = blocking;
        let (result, elapsed) = timed(|| link(&a, &b, &cfg).expect("link"));
        let q = Confusion::from_pairs(&result.pairs(), &truth);
        t.row(vec![
            label.into(),
            result.matches.len().into(),
            f3(q.precision()),
            f3(q.recall()),
            result.candidates.into(),
            result.comparisons.into(),
            result.source_stats.comparisons_saved.into(),
            result.source_stats.bytes_read.into(),
            secs(elapsed),
        ]);
        match_sets.push(result.matches);
    }
    let _ = std::fs::remove_dir_all(&dir);
    r.table(t);
    r.fact("records per side", Cell::from(side));
    r.fact("true matches", Cell::from(truth.len()));
    r.fact("threshold", fixed(cfg.threshold, 2));
    r.fact("index build time (amortised across runs)", secs(build_secs));
    r.fact(
        SAME,
        Cell::flag(match_sets[3] == match_sets[2] && match_sets[3] == match_sets[0]),
    );
    r
}

/// The index is a drop-in candidate source that scores a sliver of the
/// cross product.
pub fn claims(r: &Report) -> Vec<Claim> {
    let t = &r.tables[0];
    let candidates = |backend| {
        t.find("backend", backend)
            .map(|i| t.cell(i, "candidates").value())
    };
    let sliver = matches!(
        (candidates("index"), candidates("full")),
        (Some(index), Some(full)) if index <= 0.01 * full
    );
    vec![
        Claim::check(
            "the index backend's match set equals the Hamming-LSH and full match sets, scores bit-identical",
            r.value(SAME) == 1.0,
        ),
        Claim::check(
            "the index backend scores <= 1% of the full cross product's candidates",
            sliver,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(same: bool, index_candidates: usize) -> Report {
        let mut t = Table::new("", &["backend", "candidates"]);
        t.row(vec!["full".into(), 4_000_000usize.into()]);
        t.row(vec!["index".into(), index_candidates.into()]);
        let mut r = Report::default();
        r.table(t);
        r.fact(SAME, Cell::flag(same));
        r
    }

    #[test]
    fn a_diverging_or_unselective_index_fails() {
        assert!(claims(&report(true, 551)).iter().all(|c| c.pass));
        assert!(!claims(&report(false, 551))[0].pass);
        assert!(!claims(&report(true, 100_000))[1].pass);
    }
}
