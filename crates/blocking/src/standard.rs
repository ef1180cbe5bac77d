//! The no-blocking baseline and sorted-neighbourhood blocking.
//!
//! Standard (hash-based) blocking, which restricts comparison to records
//! sharing a blocking key value, is [`KeyBlockSource`]. Sorted
//! neighbourhood instead sorts both datasets by key and slides a fixed
//! window over the merged order, tolerating small key errors at the cost
//! of window-size-bounded candidate growth.
//!
//! [`KeyBlockSource`]: crate::source::KeyBlockSource

use pprl_core::error::{PprlError, Result};

/// A candidate record pair `(row_in_a, row_in_b)`.
pub type CandidatePair = (usize, usize);

/// All cross pairs — the no-blocking baseline of size `|A|·|B|`.
pub fn full_cross_product(len_a: usize, len_b: usize) -> Vec<CandidatePair> {
    let mut out = Vec::with_capacity(len_a * len_b);
    for i in 0..len_a {
        for j in 0..len_b {
            out.push((i, j));
        }
    }
    out
}

/// Sorted-neighbourhood blocking: merge both key lists into one sorted
/// order and emit all A×B pairs within each sliding window of `window`
/// consecutive entries.
///
/// `window` must be at least 2.
pub fn sorted_neighbourhood(
    keys_a: &[String],
    keys_b: &[String],
    window: usize,
) -> Result<Vec<CandidatePair>> {
    if window < 2 {
        return Err(PprlError::invalid("window", "window must be >= 2"));
    }
    // Tag each entry with its source and row.
    let mut merged: Vec<(&str, bool, usize)> = Vec::with_capacity(keys_a.len() + keys_b.len());
    for (i, k) in keys_a.iter().enumerate() {
        merged.push((k.as_str(), true, i));
    }
    for (j, k) in keys_b.iter().enumerate() {
        merged.push((k.as_str(), false, j));
    }
    merged.sort_by(|x, y| x.0.cmp(y.0).then(x.1.cmp(&y.1)).then(x.2.cmp(&y.2)));
    let mut out = std::collections::HashSet::new();
    for start in 0..merged.len() {
        let end = (start + window).min(merged.len());
        for x in start..end {
            for y in (x + 1)..end {
                match (merged[x], merged[y]) {
                    ((_, true, i), (_, false, j)) | ((_, false, j), (_, true, i)) => {
                        out.insert((i, j));
                    }
                    _ => {}
                }
            }
        }
    }
    let mut pairs: Vec<CandidatePair> = out.into_iter().collect();
    pairs.sort_unstable();
    Ok(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn cross_product_size() {
        assert_eq!(full_cross_product(3, 4).len(), 12);
        assert!(full_cross_product(0, 4).is_empty());
    }

    #[test]
    fn sorted_neighbourhood_window_validation() {
        assert!(sorted_neighbourhood(&keys(&["a"]), &keys(&["a"]), 1).is_err());
        assert!(sorted_neighbourhood(&keys(&["a"]), &keys(&["a"]), 2).is_ok());
    }

    #[test]
    fn sorted_neighbourhood_catches_adjacent_keys() {
        // Keys differ slightly: no shared block, but adjacent in order.
        let a = keys(&["smith1987"]);
        let b = keys(&["smith1988"]);
        let pairs = sorted_neighbourhood(&a, &b, 2).unwrap();
        assert_eq!(pairs, vec![(0, 0)]);
    }

    #[test]
    fn sorted_neighbourhood_window_bounds_candidates() {
        let a: Vec<String> = (0..50).map(|i| format!("{i:03}")).collect();
        let b: Vec<String> = (0..50).map(|i| format!("{i:03}x")).collect();
        let w3 = sorted_neighbourhood(&a, &b, 3).unwrap().len();
        let w8 = sorted_neighbourhood(&a, &b, 8).unwrap().len();
        assert!(w3 < w8);
        assert!(w8 < 50 * 50);
    }

    #[test]
    fn sorted_neighbourhood_no_duplicate_pairs() {
        let a = keys(&["a", "a", "a"]);
        let b = keys(&["a", "a"]);
        let pairs = sorted_neighbourhood(&a, &b, 5).unwrap();
        let set: std::collections::HashSet<_> = pairs.iter().collect();
        assert_eq!(set.len(), pairs.len());
        assert_eq!(pairs.len(), 6); // all cross pairs within the window
    }
}
