//! The comparison engine: scoring candidate pairs, sequentially or in
//! parallel.
//!
//! Comparison is the PPRL bottleneck (§3.4); the engine runs a similarity
//! function over a candidate list and reports the pairs at or above a
//! threshold together with comparison counts. [`compare_pairs_parallel`]
//! cuts the list into tasks of `COMPARE_PAIRS` pairs on the elastic
//! [`runner`] (§3.4 "parallel/distributed processing", ref \[9]), which
//! lends the call idle cores while there is enough work left to pay for
//! a helper; [`compare_pairs`] runs the same loop on its caller alone.

use pprl_core::error::{PprlError, Result};
use pprl_core::runner;

use crate::standard::CandidatePair;

/// A scored candidate pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoredPair {
    /// Row in dataset A.
    pub a: usize,
    /// Row in dataset B.
    pub b: usize,
    /// Similarity in `[0,1]`.
    pub similarity: f64,
}

/// Outcome of a comparison run.
#[derive(Debug, Clone)]
pub struct CompareOutcome {
    /// Pairs with similarity ≥ threshold, sorted by (a, b).
    pub matches: Vec<ScoredPair>,
    /// Number of similarity evaluations performed.
    pub comparisons: usize,
}

/// Candidate pairs per comparison task: ~0.2 ms of 1000-bit Dice.
const COMPARE_PAIRS: usize = 4096;
/// Estimated cost of one 1000-bit Dice comparison from cached popcounts:
/// 40–65 ns measured on a 2-vCPU AVX-512 Xeon.
const PAIR_NANOS: u64 = 50;

/// Scores `candidates` with `similarity`, keeping pairs ≥ `threshold`.
pub fn compare_pairs<F>(
    candidates: &[CandidatePair],
    threshold: f64,
    similarity: F,
) -> Result<CompareOutcome>
where
    F: Fn(usize, usize) -> Result<f64>,
{
    check_threshold(threshold)?;
    let matches = score(candidates, threshold, &similarity)?;
    Ok(outcome(matches, candidates.len()))
}

/// [`compare_pairs`] on at most `threads` threads (see the module docs):
/// the same matches at any `threads`; `threads = 0` is an error.
pub fn compare_pairs_parallel<F>(
    candidates: &[CandidatePair],
    threshold: f64,
    threads: usize,
    similarity: F,
) -> Result<CompareOutcome>
where
    F: Fn(usize, usize) -> Result<f64> + Sync,
{
    check_threshold(threshold)?;
    let tasks = candidates.len().div_ceil(COMPARE_PAIRS);
    let task_nanos = COMPARE_PAIRS as u64 * PAIR_NANOS;
    let parts = runner::map(
        threads,
        tasks,
        task_nanos,
        || (),
        |(), t| {
            let start = t * COMPARE_PAIRS;
            let part = &candidates[start..candidates.len().min(start + COMPARE_PAIRS)];
            score(part, threshold, &similarity)
        },
    )?;
    Ok(outcome(parts.concat(), candidates.len()))
}

fn check_threshold(threshold: f64) -> Result<()> {
    if !(0.0..=1.0).contains(&threshold) {
        return Err(PprlError::invalid("threshold", "must be in [0,1]"));
    }
    Ok(())
}

/// The pairs of `part` scoring at least `threshold`, in list order.
fn score<F>(part: &[CandidatePair], threshold: f64, similarity: &F) -> Result<Vec<ScoredPair>>
where
    F: Fn(usize, usize) -> Result<f64>,
{
    let mut matches = Vec::new();
    for &(i, j) in part {
        let s = similarity(i, j)?;
        if s >= threshold {
            matches.push(ScoredPair {
                a: i,
                b: j,
                similarity: s,
            });
        }
    }
    Ok(matches)
}

fn outcome(mut matches: Vec<ScoredPair>, comparisons: usize) -> CompareOutcome {
    matches.sort_by_key(|x| (x.a, x.b));
    CompareOutcome {
        matches,
        comparisons,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::standard::full_cross_product;

    fn toy_similarity(i: usize, j: usize) -> Result<f64> {
        // similar when indices are close
        Ok(1.0 / (1.0 + (i as f64 - j as f64).abs()))
    }

    #[test]
    fn sequential_scoring() {
        let cands = full_cross_product(4, 4);
        let out = compare_pairs(&cands, 0.5, toy_similarity).unwrap();
        assert_eq!(out.comparisons, 16);
        // threshold 0.5 keeps |i-j| <= 1
        assert_eq!(out.matches.len(), 4 + 3 + 3);
        assert!(out.matches.iter().all(|m| m.similarity >= 0.5));
        // sorted
        assert!(out
            .matches
            .windows(2)
            .all(|w| (w[0].a, w[0].b) <= (w[1].a, w[1].b)));
    }

    #[test]
    fn threshold_validation() {
        let cands = full_cross_product(2, 2);
        assert!(compare_pairs(&cands, 1.5, toy_similarity).is_err());
        assert!(compare_pairs_parallel(&cands, -0.1, 2, toy_similarity).is_err());
        assert!(compare_pairs_parallel(&cands, 0.5, 0, toy_similarity).is_err());
    }

    #[test]
    fn parallel_matches_sequential() {
        // 300 × 300 pairs are past the runner's helper threshold.
        let cands = full_cross_product(300, 300);
        let seq = compare_pairs(&cands, 0.3, toy_similarity).unwrap();
        for threads in [1, 2, 4, 7] {
            let par = compare_pairs_parallel(&cands, 0.3, threads, toy_similarity).unwrap();
            assert_eq!(par.matches, seq.matches, "threads={threads}");
            assert_eq!(par.comparisons, seq.comparisons);
        }
    }

    #[test]
    fn errors_propagate_from_similarity() {
        let cands = full_cross_product(4, 4);
        let failing = |i: usize, j: usize| -> Result<f64> {
            if i == 3 && j == 3 {
                Err(PprlError::ValueError("boom".into()))
            } else {
                Ok(0.0)
            }
        };
        assert!(compare_pairs(&cands, 0.5, failing).is_err());
        assert!(compare_pairs_parallel(&cands, 0.5, 4, failing).is_err());
    }

    #[test]
    fn empty_candidates() {
        let out = compare_pairs(&[], 0.5, toy_similarity).unwrap();
        assert!(out.matches.is_empty());
        assert_eq!(out.comparisons, 0);
    }
}
