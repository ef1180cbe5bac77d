//! Bloom-filter hardening against cryptanalysis.
//!
//! §5.3 of the paper: frequency-alignment and pattern-mining attacks
//! (refs \[7, 23]) recover QID values from plain Bloom filters, so encodings
//! "need to be hardened". This module implements the standard hardening
//! mechanisms from the literature; their effect on attack success and
//! linkage quality is measured in experiments E6 and E8.
//!
//! * **Salting** — mixes a record-stable attribute (e.g. year of birth)
//!   into the HMAC key so identical names in different records map to
//!   different bit patterns, destroying cross-record frequency alignment.
//! * **Balancing** — concatenates the filter with its complement, giving
//!   every filter the same Hamming weight (removes weight leakage).
//! * **XOR-folding** — folds the filter in half with XOR, superimposing
//!   bit patterns.
//! * **BLIP** — flips each bit with ε-DP randomized response.
//! * **Rule-90 diffusion** — replaces each bit with the XOR of its
//!   neighbours (one step of the chaotic cellular automaton), diffusing
//!   token-to-bit attribution.
//! * **Permutation** — a secret fixed permutation of bit positions (defeats
//!   position-based auxiliary knowledge, not frequency analysis).

use pprl_core::bitvec::BitVec;
use pprl_core::error::Result;
use pprl_core::rng::SplitMix64;
use pprl_crypto::dp::randomized_response_keep_probability;

/// A hardening mechanism applied to an encoded filter.
#[derive(Debug, Clone)]
pub enum Hardening {
    /// Balance: output is `filter ∥ ¬filter`, length doubles, weight = l.
    Balance,
    /// XOR-fold: length halves.
    XorFold,
    /// BLIP with the given ε (bits flipped with probability `1/(1+e^ε)`),
    /// seeded per record by the caller-provided nonce.
    Blip {
        /// Differential-privacy parameter (per bit).
        epsilon: f64,
    },
    /// One step of the Rule-90 cellular automaton (cyclic boundary).
    Rule90,
    /// Fixed secret permutation derived from a seed.
    Permute {
        /// Seed deriving the secret permutation.
        seed: u64,
    },
}

impl Hardening {
    /// Applies the mechanism. `nonce` individualises randomised mechanisms
    /// (BLIP) per record; deterministic mechanisms ignore it.
    pub fn apply(&self, filter: &BitVec, nonce: u64) -> Result<BitVec> {
        match self {
            Hardening::Balance => {
                let mut out = BitVec::zeros(filter.len() * 2);
                for i in 0..filter.len() {
                    if filter.get(i) {
                        out.set(i);
                    } else {
                        out.set(filter.len() + i);
                    }
                }
                Ok(out)
            }
            Hardening::XorFold => Ok(filter.xor_fold()),
            Hardening::Blip { epsilon } => {
                let keep = randomized_response_keep_probability(*epsilon)?;
                let mut rng = SplitMix64::new(nonce ^ 0xB11Fu64);
                let mut out = filter.clone();
                for i in 0..out.len() {
                    if !rng.next_bool(keep) {
                        out.flip(i);
                    }
                }
                Ok(out)
            }
            Hardening::Rule90 => {
                let n = filter.len();
                let mut out = BitVec::zeros(n);
                if n == 0 {
                    return Ok(out);
                }
                for i in 0..n {
                    let left = filter.get((i + n - 1) % n);
                    let right = filter.get((i + 1) % n);
                    if left ^ right {
                        out.set(i);
                    }
                }
                Ok(out)
            }
            Hardening::Permute { seed } => {
                let mut rng = SplitMix64::new(*seed);
                let perm = rng.permutation(filter.len());
                filter.permute(&perm)
            }
        }
    }

    /// Output length for an input of `len` bits.
    pub fn output_len(&self, len: usize) -> usize {
        match self {
            Hardening::Balance => len * 2,
            Hardening::XorFold => len / 2,
            _ => len,
        }
    }
}

/// Applies a pipeline of hardening mechanisms in order.
pub fn apply_pipeline(filter: BitVec, pipeline: &[Hardening], nonce: u64) -> Result<BitVec> {
    let mut out = filter;
    for h in pipeline {
        out = h.apply(&out, nonce)?;
    }
    Ok(out)
}

/// Builds a salted HMAC key: the shared secret concatenated with a
/// record-stable salt value (e.g. year of birth). Records with different
/// salts become incomparable across frequency classes, which is the point.
pub fn salted_key(base_key: &[u8], salt: &str) -> Vec<u8> {
    let mut k = Vec::with_capacity(base_key.len() + 1 + salt.len());
    k.extend_from_slice(base_key);
    k.push(0x1f); // domain separator
    k.extend_from_slice(salt.as_bytes());
    k
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filter() -> BitVec {
        BitVec::from_positions(64, &[0, 3, 17, 42, 63]).unwrap()
    }

    #[test]
    fn balance_gives_constant_weight() {
        let h = Hardening::Balance;
        let a = h.apply(&filter(), 0).unwrap();
        let b = h
            .apply(&BitVec::from_positions(64, &[1, 2]).unwrap(), 0)
            .unwrap();
        assert_eq!(a.len(), 128);
        assert_eq!(a.count_ones(), 64);
        assert_eq!(b.count_ones(), 64);
        assert_eq!(h.output_len(64), 128);
    }

    #[test]
    fn balance_preserves_dice_ordering() {
        use pprl_similarity::bitvec_sim::dice_bits;
        let x = BitVec::from_positions(64, &[1, 2, 3, 4]).unwrap();
        let y = BitVec::from_positions(64, &[3, 4, 5, 6]).unwrap();
        let z = BitVec::from_positions(64, &[40, 41, 42, 43]).unwrap();
        let h = Hardening::Balance;
        let (bx, by, bz) = (
            h.apply(&x, 0).unwrap(),
            h.apply(&y, 0).unwrap(),
            h.apply(&z, 0).unwrap(),
        );
        assert!(dice_bits(&bx, &by).unwrap() > dice_bits(&bx, &bz).unwrap());
    }

    #[test]
    fn xor_fold_halves_length() {
        let h = Hardening::XorFold;
        let out = h.apply(&filter(), 0).unwrap();
        assert_eq!(out.len(), 32);
        assert_eq!(h.output_len(64), 32);
    }

    #[test]
    fn blip_flips_roughly_expected_fraction() {
        let f = BitVec::zeros(10_000);
        let h = Hardening::Blip { epsilon: 1.0 };
        let out = h.apply(&f, 7).unwrap();
        let flip_rate = out.count_ones() as f64 / 10_000.0;
        let expected = 1.0 / (1.0 + 1f64.exp());
        assert!(
            (flip_rate - expected).abs() < 0.02,
            "flip rate {flip_rate} vs expected {expected}"
        );
    }

    #[test]
    fn blip_deterministic_per_nonce() {
        let h = Hardening::Blip { epsilon: 2.0 };
        let f = filter();
        assert_eq!(h.apply(&f, 1).unwrap(), h.apply(&f, 1).unwrap());
        assert_ne!(h.apply(&f, 1).unwrap(), h.apply(&f, 2).unwrap());
    }

    #[test]
    fn blip_rejects_bad_epsilon() {
        let h = Hardening::Blip { epsilon: 0.0 };
        assert!(h.apply(&filter(), 0).is_err());
    }

    #[test]
    fn rule90_known_pattern() {
        // Single set bit at position 2 of 8 → neighbours 1 and 3 set.
        let f = BitVec::from_positions(8, &[2]).unwrap();
        let out = Hardening::Rule90.apply(&f, 0).unwrap();
        assert_eq!(out.iter_ones().collect::<Vec<_>>(), vec![1, 3]);
        // Cyclic boundary: bit 0 set → positions 7 and 1.
        let f = BitVec::from_positions(8, &[0]).unwrap();
        let out = Hardening::Rule90.apply(&f, 0).unwrap();
        assert_eq!(out.iter_ones().collect::<Vec<_>>(), vec![1, 7]);
    }

    #[test]
    fn permutation_is_stable_and_reversible_in_distribution() {
        let h = Hardening::Permute { seed: 99 };
        let f = filter();
        let a = h.apply(&f, 0).unwrap();
        let b = h.apply(&f, 1).unwrap(); // nonce ignored
        assert_eq!(a, b);
        assert_eq!(a.count_ones(), f.count_ones());
        assert_ne!(a, f); // permutation actually moved bits (w.h.p. for seed 99)
    }

    #[test]
    fn permutation_preserves_pairwise_overlap() {
        let h = Hardening::Permute { seed: 5 };
        let x = BitVec::from_positions(64, &[1, 2, 3]).unwrap();
        let y = BitVec::from_positions(64, &[2, 3, 4]).unwrap();
        let px = h.apply(&x, 0).unwrap();
        let py = h.apply(&y, 0).unwrap();
        assert_eq!(px.and_count(&py), x.and_count(&y));
    }

    #[test]
    fn pipeline_composes() {
        let pipeline = [Hardening::Balance, Hardening::XorFold];
        let out = apply_pipeline(filter(), &pipeline, 0).unwrap();
        // Balance doubles to 128, fold halves back to 64.
        assert_eq!(out.len(), 64);
        // Balance then fold = filter XOR ¬filter = all ones.
        assert_eq!(out.count_ones(), 64);
    }

    #[test]
    fn salted_keys_differ_by_salt() {
        let k1 = salted_key(b"base", "1987");
        let k2 = salted_key(b"base", "1988");
        assert_ne!(k1, k2);
        assert_eq!(k1, salted_key(b"base", "1987"));
        // No trivial collision between (base, salt) splits.
        assert_ne!(salted_key(b"base1", "987"), salted_key(b"base", "1987"));
    }

    #[test]
    fn empty_filter_edge_cases() {
        let empty = BitVec::zeros(0);
        assert_eq!(Hardening::Rule90.apply(&empty, 0).unwrap().len(), 0);
        assert_eq!(Hardening::XorFold.apply(&empty, 0).unwrap().len(), 0);
        assert_eq!(Hardening::Balance.apply(&empty, 0).unwrap().len(), 0);
    }
}
