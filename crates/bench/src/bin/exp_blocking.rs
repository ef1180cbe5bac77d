//! E4 — §3.4 complexity reduction (refs \[12, 16, 18]): blocking and LSH
//! prune the comparison space by orders of magnitude at a small recall
//! cost; meta-blocking prunes further.
//!
//! Sweeps dataset size and compares full cross product, standard blocking,
//! sorted neighbourhood, canopy clustering, MinHash LSH and Hamming LSH on
//! candidates, reduction ratio, pairs completeness and runtime; then shows
//! the meta-blocking and PPJoin-filter ablations. Run:
//! `cargo run --release -p pprl-bench --bin exp_blocking`

use pprl_bench::{banner, f3, secs, timed, Table};
use pprl_blocking::canopy::CanopyBlocking;
use pprl_blocking::filtering::filter_candidates;
use pprl_blocking::keys::BlockingKey;
use pprl_blocking::lsh::{HammingLsh, MinHashLsh};
use pprl_blocking::metablocking::{block_pairs, build_blocks, purge_blocks};
use pprl_blocking::standard::{full_cross_product, sorted_neighbourhood, standard_blocking};
use pprl_core::normalize::normalize_default;
use pprl_core::qgram::{qgram_set, QGramConfig};
use pprl_core::record::Dataset;
use pprl_datagen::generator::{Generator, GeneratorConfig};
use pprl_encoding::encoder::{RecordEncoder, RecordEncoderConfig};
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

fn main() {
    banner(
        "E4",
        "Blocking & LSH scalability (§3.4 complexity reduction)",
        "blocking cuts candidates by orders of magnitude at small recall loss",
    );
    for n in [500usize, 1000, 2000] {
        let mut g = Generator::new(GeneratorConfig {
            corruption_rate: 0.2,
            seed: 4,
            ..GeneratorConfig::default()
        })
        .expect("valid config");
        let (a, b) = g.dataset_pair(n, n, n / 4).expect("valid sizes");
        let truth = a.ground_truth_pairs(&b);

        // Shared preprocessing for LSH methods.
        let enc = RecordEncoder::new(RecordEncoderConfig::person_clk(b"e4".to_vec()), a.schema())
            .expect("valid config");
        let ea = enc.encode_dataset(&a).expect("encode");
        let eb = enc.encode_dataset(&b).expect("encode");
        let fa = ea.clks().expect("clk");
        let fb = eb.clks().expect("clk");
        let hasher = MinHasher::new(64, b"e4").expect("valid");
        let ta = name_tokens(&a);
        let tb = name_tokens(&b);
        let sa: Vec<Vec<u64>> = ta.iter().map(|t| hasher.signature(t)).collect();
        let sb: Vec<Vec<u64>> = tb.iter().map(|t| hasher.signature(t)).collect();
        let key = BlockingKey::person_default();
        let ka = key.extract(&a).expect("keys");
        let kb = key.extract(&b).expect("keys");

        println!("\nn = {n} per party ({} true matches):", truth.len());
        let mut t = Table::new(&["method", "candidates", "RR", "PC", "time"]);
        let mut report = |name: &str, pairs: Vec<(usize, usize)>, time: f64| {
            let q = blocking_quality(&pairs, &truth, a.len(), b.len()).expect("non-empty");
            t.row(vec![
                name.to_string(),
                pairs.len().to_string(),
                f3(q.reduction_ratio),
                f3(q.pairs_completeness),
                secs(time),
            ]);
        };
        let (pairs, time) = timed(|| full_cross_product(a.len(), b.len()));
        report("full cross product", pairs, time);
        let (pairs, time) = timed(|| standard_blocking(&ka, &kb));
        report("standard (sdx+year)", pairs, time);
        let (pairs, time) = timed(|| sorted_neighbourhood(&ka, &kb, 6).expect("window"));
        report("sorted neighbourhood", pairs, time);
        let (pairs, time) = timed(|| {
            CanopyBlocking::new(0.4, 0.8, 7)
                .expect("thresholds")
                .candidates(&ta, &tb)
                .expect("tokens")
        });
        report("canopy (jaccard)", pairs, time);
        let (pairs, time) = timed(|| {
            MinHashLsh::new(16, 4)
                .expect("bands")
                .candidates(&sa, &sb)
                .expect("signatures")
        });
        report("minhash lsh (16x4)", pairs, time);
        let (pairs, time) = timed(|| {
            HammingLsh::new(16, 24, 11)
                .expect("params")
                .candidates(&fa, &fb, 1)
                .expect("filters")
        });
        report("hamming lsh (16x24)", pairs, time);
        t.print();
    }

    // Meta-blocking and filtering ablation at n = 1000.
    println!("\nAblation at n = 1000: meta-blocking and PPJoin-style filtering");
    let mut g = Generator::new(GeneratorConfig {
        corruption_rate: 0.2,
        seed: 5,
        ..GeneratorConfig::default()
    })
    .expect("valid config");
    let (a, b) = g.dataset_pair(1000, 1000, 250).expect("valid sizes");
    let truth = a.ground_truth_pairs(&b);
    // A deliberately weak key (city only) creating oversized blocks.
    let weak = BlockingKey::new(vec![pprl_blocking::keys::KeyPart::Exact("city".into())]);
    let ka = weak.extract(&a).expect("keys");
    let kb = weak.extract(&b).expect("keys");
    let blocks = build_blocks(&ka, &kb);
    let raw = block_pairs(&blocks);
    let purged = block_pairs(&purge_blocks(blocks, 5_000));
    let mut t = Table::new(&["stage", "candidates", "RR", "PC"]);
    for (name, pairs) in [
        ("city blocks (raw)", &raw),
        ("after block purging", &purged),
    ] {
        let q = blocking_quality(pairs, &truth, a.len(), b.len()).expect("non-empty");
        t.row(vec![
            name.to_string(),
            pairs.len().to_string(),
            f3(q.reduction_ratio),
            f3(q.pairs_completeness),
        ]);
    }
    // Dice filtering on top of the purged candidates.
    let enc = RecordEncoder::new(RecordEncoderConfig::person_clk(b"e4".to_vec()), a.schema())
        .expect("valid");
    let ea = enc.encode_dataset(&a).expect("encode");
    let eb = enc.encode_dataset(&b).expect("encode");
    let fa = ea.clks().expect("clk");
    let fb = eb.clks().expect("clk");
    let filtered = filter_candidates(&fa, &fb, &purged, 0.8).expect("threshold");
    let q = blocking_quality(&filtered.survivors, &truth, a.len(), b.len()).expect("non-empty");
    t.row(vec![
        "after dice>=0.8 filter".to_string(),
        filtered.survivors.len().to_string(),
        f3(q.reduction_ratio),
        f3(q.pairs_completeness),
    ]);
    t.print();
    println!(
        "filter pruned {} pairs by bit-count alone (no AND computed) and {} by overlap",
        filtered.pruned_by_length, filtered.pruned_by_overlap
    );

    pprl_bench::report::save();
}
