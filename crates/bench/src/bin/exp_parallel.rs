//! E12a — §3.4 parallel processing (ref \[9]): a whole `link()` —
//! encoding, Hamming-LSH blocking and comparison on the elastic runner —
//! speeds up with the cores it may borrow, and answers identically at
//! every thread cap.
//!
//! Run: `cargo run --release -p pprl-bench --bin exp_parallel`

use pprl_bench::{banner, f3, secs, timed, Table};
use pprl_core::gauge::cores;
use pprl_datagen::generator::{Generator, GeneratorConfig};
use pprl_pipeline::batch::{link, PipelineConfig};

/// Timed repetitions per cap; the median is reported.
const REPS: usize = 5;

fn main() {
    banner(
        "E12a",
        "Parallel linkage speedup (§3.4, ref [9])",
        "runtime improves near-linearly with the processors available",
    );
    let n = 20_000usize;
    let mut g = Generator::new(GeneratorConfig {
        seed: 12,
        ..GeneratorConfig::default()
    })
    .expect("valid");
    let (a, b) = g.dataset_pair(n, n, n / 2).expect("valid");
    let mut config = PipelineConfig::standard(b"e12".to_vec()).expect("valid");
    println!("\nlink() of {n} x {n} records (person CLK, Hamming-LSH blocking):");

    let mut t = Table::new(&[
        "threads",
        "time",
        "speedup",
        "records/s",
        "candidates",
        "matches",
    ]);
    // Caps take turns within each round, so a drift in machine speed
    // lands on every cap alike; each cap reports its median.
    let caps = [1usize, 2, 4, 8];
    let mut times = vec![Vec::with_capacity(REPS); caps.len()];
    let mut results = Vec::new();
    for _ in 0..REPS {
        results.clear();
        for (c, &threads) in caps.iter().enumerate() {
            config.threads = threads;
            let (out, time) = timed(|| link(&a, &b, &config).expect("links"));
            times[c].push(time);
            results.push(out);
        }
    }
    let median = |c: usize| {
        let mut sorted = times[c].clone();
        sorted.sort_by(f64::total_cmp);
        sorted[REPS / 2]
    };
    for (c, out) in results.iter().enumerate() {
        // Every cap must give the one-thread answer.
        assert_eq!(out.matches, results[0].matches, "cap {}", caps[c]);
        t.row(vec![
            caps[c].to_string(),
            secs(median(c)),
            f3(median(0) / median(c)),
            format!("{:.0}", (2 * n) as f64 / median(c)),
            out.candidates.to_string(),
            out.matches.len().to_string(),
        ]);
    }
    t.print();
    println!("\n(cores available: {})", cores());
    if cores() == 1 {
        println!("NOTE: this machine exposes a single core, so no helper is ever");
        println!("admitted and every cap runs on the caller alone.");
    }

    pprl_bench::report::save();
}
