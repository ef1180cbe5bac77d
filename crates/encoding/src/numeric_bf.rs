//! Neighbourhood encoding of numeric QIDs into Bloom filters
//! (Figure 2, right, of the paper; Vatsalan & Christen, ref \[40]).
//!
//! A numeric value `v` is expanded into the token set of its neighbours
//! `{v − d·s, …, v − s, v, v + s, …, v + d·s}` on a grid of step `s` with
//! `d` neighbours per side. Two values within `2·d·s` of each other share
//! tokens proportionally to their closeness, so Dice similarity of the
//! filters approximates numeric similarity.

use pprl_core::error::{PprlError, Result};

/// Parameters of the neighbourhood tokenisation.
#[derive(Debug, Clone, Copy)]
pub struct NeighbourhoodParams {
    /// Grid step `s` (> 0). Values are snapped to this grid.
    pub step: f64,
    /// Neighbours per side `d` (≥ 1).
    pub neighbours: usize,
}

impl NeighbourhoodParams {
    /// Validates and constructs.
    pub fn new(step: f64, neighbours: usize) -> Result<Self> {
        if !(step > 0.0) || !step.is_finite() {
            return Err(PprlError::invalid("step", "must be positive and finite"));
        }
        if neighbours == 0 {
            return Err(PprlError::invalid("neighbours", "must be at least 1"));
        }
        Ok(NeighbourhoodParams { step, neighbours })
    }

    /// The `2·d + 1` grid points around `value`, in ascending order.
    pub fn grid_points(&self, value: f64) -> Result<std::ops::RangeInclusive<i64>> {
        if !value.is_finite() {
            return Err(PprlError::ValueError("non-finite numeric value".into()));
        }
        let snapped = (value / self.step).round() as i64;
        let d = self.neighbours as i64;
        Ok(snapped - d..=snapped + d)
    }

    /// The neighbourhood token set of `value`: its grid points rendered as
    /// stable strings.
    pub fn tokens(&self, value: f64) -> Result<Vec<String>> {
        Ok(self
            .grid_points(value)?
            .map(|point| format!("n{point}"))
            .collect())
    }

    /// The maximum absolute difference at which two values still share at
    /// least one token: `2·d·s`.
    pub fn max_matchable_distance(&self) -> f64 {
        2.0 * self.neighbours as f64 * self.step
    }

    /// Expected Dice similarity of the *token sets* for two values at
    /// distance `delta` (before Bloom-filter noise): overlap of two windows
    /// of `2d+1` grid points offset by `delta/s` grid steps.
    pub fn expected_dice(&self, delta: f64) -> f64 {
        let offset = (delta.abs() / self.step).round() as usize;
        let window = 2 * self.neighbours + 1;
        if offset >= window {
            0.0
        } else {
            (window - offset) as f64 / window as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation() {
        assert!(NeighbourhoodParams::new(0.0, 2).is_err());
        assert!(NeighbourhoodParams::new(-1.0, 2).is_err());
        assert!(NeighbourhoodParams::new(f64::NAN, 2).is_err());
        assert!(NeighbourhoodParams::new(1.0, 0).is_err());
        assert!(NeighbourhoodParams::new(1.0, 1).is_ok());
    }

    #[test]
    fn token_window_size() {
        let p = NeighbourhoodParams::new(1.0, 3).unwrap();
        let t = p.tokens(42.0).unwrap();
        assert_eq!(t.len(), 7);
        assert!(t.contains(&"n42".to_string()));
        assert!(t.contains(&"n39".to_string()));
        assert!(t.contains(&"n45".to_string()));
        assert!(p.tokens(f64::INFINITY).is_err());
    }

    #[test]
    fn close_values_share_tokens() {
        let p = NeighbourhoodParams::new(1.0, 3).unwrap();
        let a: std::collections::BTreeSet<_> = p.tokens(40.0).unwrap().into_iter().collect();
        let b: std::collections::BTreeSet<_> = p.tokens(42.0).unwrap().into_iter().collect();
        let c: std::collections::BTreeSet<_> = p.tokens(50.0).unwrap().into_iter().collect();
        assert_eq!(a.intersection(&b).count(), 5); // windows [37,43] and [39,45]
        assert_eq!(a.intersection(&c).count(), 0);
    }

    #[test]
    fn snapping_to_grid() {
        let p = NeighbourhoodParams::new(5.0, 1).unwrap();
        // 42 snaps to grid point 8 (=40), 43 to 9 (=45)
        assert_eq!(p.tokens(42.0).unwrap(), p.tokens(41.0).unwrap());
        assert_ne!(p.tokens(42.0).unwrap(), p.tokens(43.0).unwrap());
    }

    #[test]
    fn negative_values_work() {
        let p = NeighbourhoodParams::new(1.0, 2).unwrap();
        let t = p.tokens(-3.0).unwrap();
        assert!(t.contains(&"n-3".to_string()));
        assert!(t.contains(&"n-5".to_string()));
        assert!(t.contains(&"n-1".to_string()));
    }

    #[test]
    fn expected_dice_decreases_with_distance() {
        let p = NeighbourhoodParams::new(1.0, 3).unwrap();
        assert_eq!(p.expected_dice(0.0), 1.0);
        let d1 = p.expected_dice(1.0);
        let d3 = p.expected_dice(3.0);
        let d7 = p.expected_dice(7.0);
        assert!(d1 > d3 && d3 > 0.0);
        assert_eq!(d7, 0.0);
        assert!((p.max_matchable_distance() - 6.0).abs() < 1e-12);
    }
}
