//! One-to-one matching (§3.4 "matching"): assignment of scored pairs.
//!
//! After de-duplication, each record of A matches at most one record of B.
//! Two assignment strategies over the scored candidate pairs:
//!
//! * **Greedy** — take pairs in descending similarity, skipping used rows;
//!   fast, at most a factor-2 from optimal total weight.
//! * **Hungarian** (Kuhn–Munkres, O(n³)) — the maximum-total-similarity
//!   assignment, exact.

use pprl_core::error::{PprlError, Result};

/// A scored candidate pair `(row_a, row_b, similarity)`.
pub type Scored = (usize, usize, f64);

/// Greedy one-to-one assignment by descending similarity ([`f64::total_cmp`],
/// so a NaN cannot break the sort); equal scores are taken in input order.
pub fn greedy_one_to_one(pairs: &[Scored]) -> Vec<Scored> {
    let mut sorted: Vec<Scored> = pairs.to_vec();
    sorted.sort_by(|x, y| y.2.total_cmp(&x.2));
    let rows = |side: fn(&Scored) -> usize| pairs.iter().map(side).max().map_or(0, |r| r + 1);
    let mut used_a = vec![false; rows(|p| p.0)];
    let mut used_b = vec![false; rows(|p| p.1)];
    let mut out = Vec::new();
    for (a, b, s) in sorted {
        if !used_a[a] && !used_b[b] {
            used_a[a] = true;
            used_b[b] = true;
            out.push((a, b, s));
        }
    }
    out.sort_by_key(|x| (x.0, x.1));
    out
}

/// Exact maximum-weight one-to-one assignment via the Hungarian algorithm.
///
/// `pairs` defines a sparse similarity matrix; missing pairs have weight 0
/// and are never reported in the output. Complexity O(n³) in
/// `max(rows_a, rows_b)` — intended for within-block assignment, not whole
/// datasets.
#[allow(clippy::needless_range_loop)] // lockstep multi-array indexing
pub fn hungarian_one_to_one(pairs: &[Scored]) -> Result<Vec<Scored>> {
    if pairs.is_empty() {
        return Ok(Vec::new());
    }
    for &(_, _, s) in pairs {
        if !s.is_finite() || s < 0.0 {
            return Err(PprlError::invalid(
                "pairs",
                "similarities must be finite and >= 0",
            ));
        }
    }
    // Compact the row/column index spaces.
    let mut rows_a: Vec<usize> = pairs.iter().map(|p| p.0).collect();
    let mut rows_b: Vec<usize> = pairs.iter().map(|p| p.1).collect();
    rows_a.sort_unstable();
    rows_a.dedup();
    rows_b.sort_unstable();
    rows_b.dedup();
    let n = rows_a.len().max(rows_b.len());
    let idx_a: std::collections::HashMap<usize, usize> =
        rows_a.iter().enumerate().map(|(i, &r)| (r, i)).collect();
    let idx_b: std::collections::HashMap<usize, usize> =
        rows_b.iter().enumerate().map(|(i, &r)| (r, i)).collect();
    // Build a square cost matrix: cost = max_sim - sim (minimisation form).
    let max_sim = pairs.iter().map(|p| p.2).fold(0.0, f64::max);
    let mut cost = vec![vec![max_sim; n]; n]; // absent pairs cost max (sim 0)
    let mut sim = vec![vec![0.0f64; n]; n];
    for &(a, b, s) in pairs {
        let (i, j) = (idx_a[&a], idx_b[&b]);
        if s > sim[i][j] {
            sim[i][j] = s;
            cost[i][j] = max_sim - s;
        }
    }

    // Hungarian algorithm with potentials (1-indexed internals).
    let inf = f64::INFINITY;
    let mut u = vec![0.0f64; n + 1];
    let mut v = vec![0.0f64; n + 1];
    let mut p = vec![0usize; n + 1]; // column -> row match
    let mut way = vec![0usize; n + 1];
    for i in 1..=n {
        p[0] = i;
        let mut j0 = 0usize;
        let mut minv = vec![inf; n + 1];
        let mut used = vec![false; n + 1];
        loop {
            used[j0] = true;
            let i0 = p[j0];
            let mut delta = inf;
            let mut j1 = 0usize;
            for j in 1..=n {
                if !used[j] {
                    let cur = cost[i0 - 1][j - 1] - u[i0] - v[j];
                    if cur < minv[j] {
                        minv[j] = cur;
                        way[j] = j0;
                    }
                    if minv[j] < delta {
                        delta = minv[j];
                        j1 = j;
                    }
                }
            }
            for j in 0..=n {
                if used[j] {
                    u[p[j]] += delta;
                    v[j] -= delta;
                } else {
                    minv[j] -= delta;
                }
            }
            j0 = j1;
            if p[j0] == 0 {
                break;
            }
        }
        loop {
            let j1 = way[j0];
            p[j0] = p[j1];
            j0 = j1;
            if j0 == 0 {
                break;
            }
        }
    }

    let mut out = Vec::new();
    for j in 1..=n {
        let i = p[j];
        if i == 0 {
            continue;
        }
        let (ri, rj) = (i - 1, j - 1);
        // Only report pairs that actually existed with positive similarity.
        if ri < rows_a.len() && rj < rows_b.len() && sim[ri][rj] > 0.0 {
            out.push((rows_a[ri], rows_b[rj], sim[ri][rj]));
        }
    }
    out.sort_by_key(|x| (x.0, x.1));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn greedy_respects_one_to_one() {
        let pairs = vec![(0, 0, 0.9), (0, 1, 0.8), (1, 0, 0.85), (1, 1, 0.7)];
        let out = greedy_one_to_one(&pairs);
        assert_eq!(out, vec![(0, 0, 0.9), (1, 1, 0.7)]);
    }

    #[test]
    fn greedy_suboptimal_case_hungarian_optimal() {
        // Greedy picks (0,0,0.9) then only (1,1,0.1): total 1.0.
        // Optimal is (0,1,0.8) + (1,0,0.8): total 1.6.
        let pairs = vec![(0, 0, 0.9), (0, 1, 0.8), (1, 0, 0.8), (1, 1, 0.1)];
        let greedy: f64 = greedy_one_to_one(&pairs).iter().map(|p| p.2).sum();
        let optimal: f64 = hungarian_one_to_one(&pairs)
            .unwrap()
            .iter()
            .map(|p| p.2)
            .sum();
        assert!((greedy - 1.0).abs() < 1e-9);
        assert!((optimal - 1.6).abs() < 1e-9);
    }

    #[test]
    fn hungarian_matches_unique_best() {
        let pairs = vec![
            (10, 20, 0.95),
            (10, 21, 0.2),
            (11, 20, 0.3),
            (11, 21, 0.9),
            (12, 22, 0.85),
        ];
        let out = hungarian_one_to_one(&pairs).unwrap();
        assert_eq!(out, vec![(10, 20, 0.95), (11, 21, 0.9), (12, 22, 0.85)]);
    }

    #[test]
    fn hungarian_rectangular() {
        // 3 rows of A, 2 of B: one A row stays unmatched.
        let pairs = vec![(0, 0, 0.9), (1, 0, 0.8), (2, 1, 0.7), (1, 1, 0.6)];
        let out = hungarian_one_to_one(&pairs).unwrap();
        let rows_a: Vec<usize> = out.iter().map(|p| p.0).collect();
        let rows_b: Vec<usize> = out.iter().map(|p| p.1).collect();
        assert_eq!(out.len(), 2);
        assert_eq!(
            rows_a.len(),
            rows_a
                .iter()
                .collect::<std::collections::HashSet<_>>()
                .len()
        );
        assert_eq!(
            rows_b.len(),
            rows_b
                .iter()
                .collect::<std::collections::HashSet<_>>()
                .len()
        );
        // Total weight is maximal: 0.9 + 0.7.
        let total: f64 = out.iter().map(|p| p.2).sum();
        assert!((total - 1.6).abs() < 1e-9);
    }

    #[test]
    fn hungarian_validation_and_edges() {
        assert!(hungarian_one_to_one(&[]).unwrap().is_empty());
        assert!(hungarian_one_to_one(&[(0, 0, f64::NAN)]).is_err());
        assert!(hungarian_one_to_one(&[(0, 0, -1.0)]).is_err());
        let single = hungarian_one_to_one(&[(5, 7, 0.5)]).unwrap();
        assert_eq!(single, vec![(5, 7, 0.5)]);
    }

    #[test]
    fn greedy_empty_and_duplicates() {
        assert!(greedy_one_to_one(&[]).is_empty());
        // Duplicate candidates for the same pair keep the best.
        let out = greedy_one_to_one(&[(0, 0, 0.5), (0, 0, 0.9)]);
        assert_eq!(out.len(), 1);
        assert!((out[0].2 - 0.9).abs() < 1e-9);
    }

    #[test]
    fn greedy_survives_nan_scores() {
        let mut pairs: Vec<Scored> = (0..40)
            .flat_map(|i| (0..40).map(move |j| (i, j, ((i * 7 + j * 3) % 11) as f64 / 11.0)))
            .collect();
        for k in (0..pairs.len()).step_by(5) {
            pairs[k].2 = f64::NAN;
        }
        let out = greedy_one_to_one(&pairs);
        let mut rows_a: Vec<usize> = out.iter().map(|p| p.0).collect();
        let mut rows_b: Vec<usize> = out.iter().map(|p| p.1).collect();
        rows_a.dedup();
        rows_b.sort_unstable();
        rows_b.dedup();
        assert_eq!((rows_a.len(), rows_b.len()), (out.len(), out.len()));
    }

    #[test]
    fn greedy_ties_resolve_by_input_order() {
        // Sorted by (a, b), as the pipeline hands them over: the tie at
        // 0.9 goes to the smallest (a, b).
        let pairs = vec![(0, 1, 0.9), (1, 0, 0.9), (1, 1, 0.9), (2, 2, 0.5)];
        assert_eq!(
            greedy_one_to_one(&pairs),
            vec![(0, 1, 0.9), (1, 0, 0.9), (2, 2, 0.5)]
        );
        let pairs = vec![(0, 0, 0.8), (0, 1, 0.8), (1, 0, 0.8)];
        assert_eq!(greedy_one_to_one(&pairs), vec![(0, 0, 0.8)]);
    }

    /// The assignment before the total order: `partial_cmp` and hash
    /// sets of used rows.
    fn greedy_by_partial_cmp(pairs: &[Scored]) -> Vec<Scored> {
        let mut sorted: Vec<Scored> = pairs.to_vec();
        sorted.sort_by(|x, y| y.2.partial_cmp(&x.2).unwrap());
        let mut used_a = std::collections::HashSet::new();
        let mut used_b = std::collections::HashSet::new();
        let mut out = Vec::new();
        for (a, b, s) in sorted {
            if !used_a.contains(&a) && !used_b.contains(&b) {
                used_a.insert(a);
                used_b.insert(b);
                out.push((a, b, s));
            }
        }
        out.sort_by_key(|x| (x.0, x.1));
        out
    }

    #[test]
    fn greedy_on_finite_scores_is_unchanged() {
        let mut rng = pprl_core::rng::SplitMix64::new(17);
        for case in 0..50 {
            let n = 1 + case * 4;
            let pairs: Vec<Scored> = (0..n)
                .map(|_| {
                    let score = rng.next_below(9) as f64 / 8.0; // many ties
                    (
                        rng.next_below(20) as usize,
                        rng.next_below(20) as usize,
                        score,
                    )
                })
                .collect();
            assert_eq!(
                greedy_one_to_one(&pairs),
                greedy_by_partial_cmp(&pairs),
                "case {case}"
            );
        }
    }

    #[test]
    fn agreement_on_clean_diagonal() {
        let pairs: Vec<Scored> = (0..10)
            .flat_map(|i| (0..10).map(move |j| (i, j, if i == j { 0.9 } else { 0.1 })))
            .collect();
        let g = greedy_one_to_one(&pairs);
        let h = hungarian_one_to_one(&pairs).unwrap();
        let diag: Vec<Scored> = (0..10).map(|i| (i, i, 0.9)).collect();
        assert_eq!(g, diag);
        assert_eq!(h, diag);
    }
}
