//! The brute-force reference every served answer is checked against:
//! `dice_bits` over the raw filters, no index, no kernel dispatch.

use pprl_core::bitvec::BitVec;
use pprl_index::query::Hit;
use pprl_similarity::bitvec_sim::dice_bits;

/// Exact top-`k` of `probe` over `corpus`: score descending, ties by
/// ascending id, hits below `min_score` dropped.
pub fn top_k(corpus: &[(u64, BitVec)], probe: &BitVec, k: usize, min_score: f64) -> Vec<Hit> {
    let mut hits: Vec<Hit> = corpus
        .iter()
        .map(|(id, filter)| Hit {
            id: *id,
            score: dice_bits(probe, filter).expect("equal filter lengths"),
        })
        .filter(|hit| hit.score >= min_score)
        .collect();
    hits.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.id.cmp(&b.id)));
    hits.truncate(k);
    hits
}

/// How many of the checked probes a [`Gate`] saw answered wrongly.
#[derive(Debug, Default, Clone, Copy)]
pub struct GateOutcome {
    pub checked: u64,
    pub mismatched: u64,
}

impl GateOutcome {
    pub fn add(&mut self, other: GateOutcome) {
        self.checked += other.checked;
        self.mismatched += other.mismatched;
    }
}

/// Checks `answer(probe)` bit-identical (ids, scores, order) to the
/// oracle for each of `probes`. A mismatch or an error is reported on
/// stderr and counted; it never panics, so the run can finish and
/// print `correct: false`.
pub fn gate(
    what: &str,
    corpus: &[(u64, BitVec)],
    probes: &[BitVec],
    k: usize,
    min_score: f64,
    mut answer: impl FnMut(&BitVec) -> pprl_core::error::Result<Vec<Hit>>,
) -> GateOutcome {
    let mut outcome = GateOutcome::default();
    for (i, probe) in probes.iter().enumerate() {
        outcome.checked += 1;
        let expected = top_k(corpus, probe, k, min_score);
        match answer(probe) {
            Ok(got) if got == expected => {}
            Ok(got) => {
                outcome.mismatched += 1;
                eprintln!("oracle mismatch ({what}, probe {i}): got {got:?}, want {expected:?}");
            }
            Err(e) => {
                outcome.mismatched += 1;
                eprintln!("oracle check failed ({what}, probe {i}): {e}");
            }
        }
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_by_score_then_id_and_thresholds() {
        let f = |bits: &[usize]| BitVec::from_positions(8, bits).unwrap();
        let corpus = vec![
            (7, f(&[0, 1])),
            (3, f(&[0, 1])),
            (5, f(&[0, 2])),
            (9, f(&[4])),
        ];
        let hits = top_k(&corpus, &f(&[0, 1]), 3, 0.0);
        assert_eq!(hits.iter().map(|h| h.id).collect::<Vec<_>>(), vec![3, 7, 5]);
        assert_eq!(hits[0].score, 1.0);
        assert_eq!(top_k(&corpus, &f(&[0, 1]), 3, 0.9).len(), 2);
        let wrong = gate("t", &corpus, &[f(&[0, 1])], 1, 0.0, |_| Ok(vec![]));
        assert_eq!((wrong.checked, wrong.mismatched), (1, 1));
    }
}
