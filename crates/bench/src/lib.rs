//! # pprl-bench
//!
//! The experiment harness. Each survey experiment of `EXPERIMENTS.md`
//! (E1–E16, and the scan-kernel experiment E19) is a module with
//! `run(Size) -> Report`, which returns its tables as values, and
//! `claims(&Report) -> Vec<Claim>`, which states what the survey says
//! those tables show as predicates that can fail. One driver runs them:
//!
//! ```text
//! cargo run --release -p pprl-bench -- [--smoke] [--only E4]
//! ```
//!
//! It prints every table and a `PASS` / `FAIL` line per claim, writes
//! `results/<exp>.json` for a full-size run, and exits non-zero on any
//! `FAIL`. `tests/survey_claims.rs` checks every claim that does not rest
//! on wall-clock timing at smoke size. The `micro` module is the
//! criterion shim behind `cargo bench`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod micro;
pub mod report;

pub use report::{Cell, Claim, Report, Table};

use pprl_blocking::standard::full_cross_product;
use pprl_core::bitvec::BitVec;
use pprl_core::qgram::{qgram_set, QGramConfig};
use pprl_core::record::Dataset;
use pprl_core::rng::SplitMix64;
use pprl_datagen::generator::{Generator, GeneratorConfig};
use pprl_datagen::lookup::LAST_NAMES;
use pprl_encoding::bloom::{BloomEncoder, BloomParams, HashingScheme};
use pprl_encoding::encoder::{RecordEncoder, RecordEncoderConfig};
use std::time::Instant;

/// How much work a run does. `Full` is the size `EXPERIMENTS.md` and
/// `results/` record; `Smoke` is a seconds-long run whose claims must
/// hold too.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// Small inputs, for CI and tier-1 tests.
    Smoke,
    /// The recorded parameters and seeds.
    Full,
}

impl Size {
    /// `smoke` or `full`, by size.
    pub fn pick<T>(self, smoke: T, full: T) -> T {
        match self {
            Size::Smoke => smoke,
            Size::Full => full,
        }
    }
}

/// One survey experiment.
pub struct Experiment {
    /// The `EXPERIMENTS.md` id, e.g. `E4`.
    pub id: &'static str,
    /// What it measures.
    pub title: &'static str,
    /// File stem of its `results/<stem>.json`.
    pub stem: &'static str,
    /// Runs it at a size.
    pub run: fn(Size) -> Report,
    /// States its claims about a report.
    pub claims: fn(&Report) -> Vec<Claim>,
}

/// Declares each experiment module once: as a module, and as an entry
/// of [`EXPERIMENTS`].
macro_rules! experiments {
    ($($module:ident: $id:literal, $stem:literal, $title:literal;)+) => {
        $(pub mod $module;)+

        /// Every experiment, in `EXPERIMENTS.md` order.
        pub const EXPERIMENTS: &[Experiment] = &[$(Experiment {
            id: $id,
            title: $title,
            stem: $stem,
            run: $module::run,
            claims: $module::claims,
        }),+];
    };
}

experiments! {
    e01_taxonomy: "E1", "exp_taxonomy", "Taxonomy coverage (Figure 1)";
    e02_bf_string: "E2", "exp_bf_string",
        "Bloom-filter string matching vs unencoded baseline (Fig. 2 left)";
    e03_bf_numeric: "E3", "exp_bf_numeric", "Numeric neighbourhood encoding (Fig. 2 right)";
    e04_blocking: "E4", "exp_blocking", "Blocking & LSH scalability (§3.4 complexity reduction)";
    e04a_backend_compare: "E4a", "exp_backend_compare",
        "Index backend vs in-memory blocking (CandidateSource)";
    e05_comm_patterns: "E5", "exp_comm_patterns",
        "Multi-party communication patterns (§3.4, ref [42])";
    e06_attack: "E6", "exp_attack",
        "Bloom-filter cryptanalysis vs parameters and hardening (refs [7, 23])";
    e07_slk: "E7", "exp_slk", "SLK-581 vs Bloom-filter linkage (ref [31])";
    e08_dp_tradeoff: "E8", "exp_dp_tradeoff",
        "Differential-privacy trade-off (BLIP, refs [14, 41])";
    e09_secure_edit: "E9", "exp_secure_edit", "Secure edit distance & homomorphic cost (ref [1])";
    e10a_classification: "E10a", "exp_classification", "Classification techniques (§3.4)";
    e10b_clustering: "E10b", "exp_clustering",
        "Batch vs incremental multi-party clustering (ref [43])";
    e11_fairness: "E11", "exp_fairness", "Fairness-aware linkage (§3.3, ref [46])";
    e12a_parallel: "E12a", "exp_parallel", "Parallel linkage speedup (§3.4, ref [9])";
    e12b_streaming: "E12b", "exp_streaming", "Streaming linkage throughput (Figure 3 velocity)";
    e13_tuning: "E13", "exp_tuning",
        "Parameter tuning: grid vs random vs Bayesian (§3.1, refs [3, 36])";
    e14_interactive: "E14", "exp_interactive",
        "Interactive PPRL under a privacy budget (§5.2, ref [22])";
    e15_audit: "E15", "exp_audit", "Accountable computing: auditing the linkage unit (§3.2)";
    e16_fault_tolerance: "E16", "exp_fault_tolerance",
        "Fault-tolerant protocol sessions (transport faults, retries, crashes)";
    e19_scan_kernel: "E19", "exp_scan", "Columnar scan kernel: flat arenas and batched Dice";
}

/// Times a closure, returning `(result, seconds)`.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed().as_secs_f64())
}

/// A number printed with a fixed number of decimal places.
pub fn fixed(x: f64, decimals: usize) -> Cell {
    Cell::num(x, format!("{x:.decimals$}"))
}

/// A number printed with 3 decimal places.
pub fn f3(x: f64) -> Cell {
    fixed(x, 3)
}

/// A fraction printed as a percentage with 1 decimal.
pub fn pct(x: f64) -> Cell {
    Cell::num(x, format!("{:.1}%", x * 100.0))
}

/// Seconds printed adaptively (µs/ms/s).
pub fn secs(s: f64) -> Cell {
    let text = if s < 1e-3 {
        format!("{:.1}µs", s * 1e6)
    } else if s < 1.0 {
        format!("{:.1}ms", s * 1e3)
    } else {
        format!("{s:.2}s")
    };
    Cell::num(s, text)
}

/// Whether `xs` never rises from one entry to the next.
pub fn non_increasing(xs: &[f64]) -> bool {
    xs.windows(2).all(|w| w[1] <= w[0])
}

/// A GeCo-style generator at a corruption rate and seed.
fn generator(corruption_rate: f64, seed: u64) -> Generator {
    Generator::new(GeneratorConfig {
        corruption_rate,
        seed,
        ..GeneratorConfig::default()
    })
    .expect("valid generator config")
}

/// The person CLKs of `ds` under `key`.
fn clks(ds: &Dataset, key: &[u8]) -> Vec<BitVec> {
    RecordEncoder::new(RecordEncoderConfig::person_clk(key.to_vec()), ds.schema())
        .expect("valid encoder config")
        .encode_dataset(ds)
        .expect("encodes")
        .clks()
        .expect("clk mode")
        .into_iter()
        .cloned()
        .collect()
}

/// The pairs of the full cross product whose encodings under `config`
/// reach Dice 0.8.
fn encoded_matches(a: &Dataset, b: &Dataset, config: RecordEncoderConfig) -> Vec<(usize, usize)> {
    let enc = RecordEncoder::new(config, a.schema()).expect("valid encoder config");
    let ea = enc.encode_dataset(a).expect("encodes");
    let eb = enc.encode_dataset(b).expect("encodes");
    full_cross_product(a.len(), b.len())
        .into_iter()
        .filter(|&(i, j)| ea.records[i].dice(&eb.records[j]).expect("same mode") >= 0.8)
        .collect()
}

/// The default q-gram set of a word.
fn tokens(word: &str) -> Vec<String> {
    qgram_set(word, &QGramConfig::default())
}

/// A double-hashing Bloom encoder.
fn bloom(len: usize, num_hashes: usize, key: &[u8]) -> BloomEncoder {
    BloomEncoder::new(BloomParams {
        len,
        num_hashes,
        scheme: HashingScheme::DoubleHashing,
        key: key.to_vec(),
    })
    .expect("valid Bloom params")
}

/// `n` surnames drawn Zipf(1) from the public surname list — the skew a
/// frequency attack exploits.
fn zipf_surnames(n: usize, seed: u64) -> Vec<String> {
    let mut rng = SplitMix64::new(seed);
    let weights: Vec<f64> = (1..=LAST_NAMES.len()).map(|r| 1.0 / r as f64).collect();
    let total: f64 = weights.iter().sum();
    (0..n)
        .map(|_| {
            let mut u = rng.next_f64() * total;
            for (name, w) in LAST_NAMES.iter().zip(&weights) {
                if u < *w {
                    return name.to_string();
                }
                u -= w;
            }
            LAST_NAMES[LAST_NAMES.len() - 1].to_string()
        })
        .collect()
}

/// The public surname dictionary an attacker aligns against.
fn surname_dictionary() -> Vec<String> {
    LAST_NAMES.iter().map(|s| s.to_string()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatters_keep_the_number() {
        assert_eq!(f3(0.12345).text(), "0.123");
        assert_eq!(f3(0.12345).value(), 0.12345);
        assert_eq!(pct(0.5).text(), "50.0%");
        assert_eq!(pct(0.5).value(), 0.5);
        assert_eq!(secs(0.5).text(), "500.0ms");
        assert_eq!(secs(2.0).text(), "2.00s");
        assert_eq!(secs(1e-5).text(), "10.0µs");
    }

    #[test]
    fn experiment_ids_and_stems_are_unique() {
        for (i, e) in EXPERIMENTS.iter().enumerate() {
            for other in &EXPERIMENTS[i + 1..] {
                assert_ne!(e.id, other.id);
                assert_ne!(e.stem, other.stem);
            }
        }
    }

    #[test]
    fn timed_returns_result() {
        let (x, t) = timed(|| 42);
        assert_eq!(x, 42);
        assert!(t >= 0.0);
    }
}
