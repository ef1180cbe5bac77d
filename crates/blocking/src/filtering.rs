//! Similarity-threshold filtering (§3.4, refs \[34, 38]).
//!
//! For a fixed Dice threshold `t`, cheap necessary conditions eliminate
//! pairs that *cannot* reach `t` before the full similarity is computed —
//! the PPJoin-style optimisation adapted to Bloom filters. Both tests
//! read one integer, [`need_count`]`(t, |x_a|, |x_b|)`: the smallest bit
//! overlap whose Dice reaches `t` (`|x|` is the number of set bits). It
//! is the rule every index scan applies, and it is exact, ties included.
//!
//! * **Length filter** — no overlap exceeds `min(|x_a|, |x_b|)`, so a
//!   pair whose `need` does is hopeless without computing any AND.
//! * **Overlap test** — otherwise the pair survives iff its AND-popcount
//!   reaches `need`.

use pprl_core::bitvec::BitVec;
use pprl_core::error::{PprlError, Result};
use pprl_similarity::kernel::need_count;

/// Applies length + exact-overlap filtering to a candidate list, returning
/// the surviving pairs and the number of full comparisons avoided.
pub struct FilterOutcome {
    /// Pairs that may still reach the threshold.
    pub survivors: Vec<(usize, usize)>,
    /// Pairs eliminated by the length filter alone (no AND computed).
    pub pruned_by_length: usize,
    /// Pairs eliminated by the overlap test.
    pub pruned_by_overlap: usize,
}

/// Filters candidate pairs for `Dice ≥ t`, `t` in `(0, 1]`.
///
/// The survivor list is exact: a pair survives iff its Dice really is ≥ t,
/// but the length filter skips the popcount-AND for hopeless pairs, which
/// is where the savings come from at scale.
pub fn filter_candidates(
    filters_a: &[&BitVec],
    filters_b: &[&BitVec],
    candidates: &[(usize, usize)],
    t: f64,
) -> Result<FilterOutcome> {
    if !(t > 0.0 && t <= 1.0) {
        return Err(PprlError::invalid("threshold", "must be in (0, 1]"));
    }
    let counts_a: Vec<usize> = filters_a.iter().map(|f| f.count_ones()).collect();
    let counts_b: Vec<usize> = filters_b.iter().map(|f| f.count_ones()).collect();
    let mut survivors = Vec::new();
    let mut pruned_by_length = 0usize;
    let mut pruned_by_overlap = 0usize;
    for &(i, j) in candidates {
        let (ca, cb) = (counts_a[i], counts_b[j]);
        let need = need_count(t, ca, cb);
        if need > ca.min(cb) {
            pruned_by_length += 1;
        } else if filters_a[i].and_count(filters_b[j]) < need {
            pruned_by_overlap += 1;
        } else {
            survivors.push((i, j));
        }
    }
    Ok(FilterOutcome {
        survivors,
        pruned_by_length,
        pruned_by_overlap,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::standard::full_cross_product;
    use pprl_core::rng::SplitMix64;
    use pprl_similarity::kernel::dice_from_counts;

    fn bv(ones: &[usize]) -> BitVec {
        BitVec::from_positions(64, ones).unwrap()
    }

    /// Runs the filter over the full cross product and checks it against
    /// brute force: survivors are exactly the pairs whose
    /// `dice_from_counts(and, ca, cb)` reaches `t`, every pair pruned by
    /// length scores below `t`, and the three counts add up.
    fn check_exact(a: &[BitVec], b: &[BitVec], t: f64) -> FilterOutcome {
        let fa: Vec<&BitVec> = a.iter().collect();
        let fb: Vec<&BitVec> = b.iter().collect();
        let candidates = full_cross_product(a.len(), b.len());
        let out = filter_candidates(&fa, &fb, &candidates, t).unwrap();
        let counts = |(i, j): (usize, usize)| (a[i].count_ones(), b[j].count_ones());
        let hopeless = |p| {
            let (ca, cb) = counts(p);
            need_count(t, ca, cb) > ca.min(cb)
        };
        let dice = |p @ (i, j): (usize, usize)| {
            let (ca, cb) = counts(p);
            dice_from_counts(a[i].and_count(&b[j]), ca, cb)
        };
        let brute: Vec<(usize, usize)> = candidates
            .iter()
            .copied()
            .filter(|&p| dice(p) >= t)
            .collect();
        assert_eq!(out.survivors, brute, "t = {t}");
        let by_length: Vec<(usize, usize)> = candidates
            .iter()
            .copied()
            .filter(|&p| hopeless(p))
            .collect();
        assert_eq!(out.pruned_by_length, by_length.len(), "t = {t}");
        assert!(by_length.iter().all(|&p| dice(p) < t), "t = {t}");
        assert_eq!(
            out.survivors.len() + out.pruned_by_length + out.pruned_by_overlap,
            candidates.len()
        );
        out
    }

    #[test]
    fn threshold_validation() {
        let a = [bv(&[1])];
        let fa: Vec<&BitVec> = a.iter().collect();
        for t in [0.0, -0.1, 1.5, f64::NAN] {
            assert!(
                filter_candidates(&fa, &fa, &[(0, 0)], t).is_err(),
                "t = {t}"
            );
        }
        assert!(filter_candidates(&fa, &fa, &[(0, 0)], 1.0).is_ok());
    }

    #[test]
    fn length_filter_soundness() {
        // The length filter must never eliminate a pair whose Dice >= t.
        let sets: Vec<BitVec> = vec![
            bv(&[1, 2, 3, 4]),
            bv(&[1, 2, 3, 4, 5, 6]),
            bv(&[10, 11]),
            bv(&[1, 2]),
            bv(&(0..30).collect::<Vec<_>>()),
        ];
        for t in [0.3, 0.5, 0.8, 1.0] {
            check_exact(&sets, &sets, t);
        }
    }

    #[test]
    fn filter_candidates_exact_survivors() {
        let a = [bv(&[1, 2, 3, 4]), bv(&(0..20).collect::<Vec<_>>())];
        let b = [bv(&[1, 2, 3, 5]), bv(&[40, 41]), bv(&[1, 2, 3, 4])];
        let out = check_exact(&a, &b, 0.7);
        assert_eq!(out.survivors, vec![(0, 0), (0, 2)]);
        assert!(out.pruned_by_length > 0);
    }

    #[test]
    fn exact_ties_survive() {
        // Popcounts 5/5 with overlap 4 sit exactly on t = 0.8: Dice is
        // 2·4/10 = 0.8, so the pair survives; overlap 3 (0.6) does not.
        let a = [bv(&[0, 1, 2, 3, 4])];
        let b = [bv(&[0, 1, 2, 3, 9]), bv(&[0, 1, 2, 8, 9])];
        let out = check_exact(&a, &b, 0.8);
        assert_eq!(out.survivors, vec![(0, 0)]);
        assert_eq!(out.pruned_by_overlap, 1);
        // Popcounts 4/6 cap the overlap at 4 = need(0.8, 4, 6): a
        // length tie, kept when the smaller set is contained.
        let a = [bv(&[0, 1, 2, 3])];
        let b = [bv(&[0, 1, 2, 3, 4, 5]), bv(&[0, 1, 2, 4, 5, 6])];
        let out = check_exact(&a, &b, 0.8);
        assert_eq!(out.survivors, vec![(0, 0)]);
        assert_eq!(out.pruned_by_length, 0);
        // Popcounts 4/7 need 5 > 4: pruned by length alone.
        let b = [bv(&[0, 1, 2, 3, 4, 5, 6])];
        let out = check_exact(&a, &b, 0.8);
        assert_eq!(out.pruned_by_length, 1);
        // Two empty filters score 1.0 and pass every threshold.
        let empty = [bv(&[])];
        assert_eq!(check_exact(&empty, &empty, 1.0).survivors, vec![(0, 0)]);
    }

    #[test]
    fn random_filters_match_brute_force() {
        let mut rng = SplitMix64::new(43);
        let mut random = |n: usize| -> Vec<BitVec> {
            (0..n)
                .map(|_| {
                    let density = 2 + rng.next_u64() % 6;
                    let ones: Vec<usize> = (0..64)
                        .filter(|_| rng.next_u64().is_multiple_of(density))
                        .collect();
                    bv(&ones)
                })
                .collect()
        };
        let (a, b) = (random(30), random(30));
        for t in [0.1, 0.5, 0.6, 0.7, 0.75, 0.8, 0.85, 0.9, 1.0] {
            check_exact(&a, &b, t);
        }
    }

    #[test]
    fn high_threshold_prunes_more_by_length() {
        let a = [bv(&[1, 2, 3, 4])];
        let b = [
            bv(&[1]),
            bv(&(0..40).collect::<Vec<_>>()),
            bv(&[1, 2, 3, 4]),
        ];
        let strict = check_exact(&a, &b, 0.9);
        let lax = check_exact(&a, &b, 0.2);
        assert!(strict.pruned_by_length >= lax.pruned_by_length);
        assert!(strict.survivors.len() <= lax.survivors.len());
    }
}
