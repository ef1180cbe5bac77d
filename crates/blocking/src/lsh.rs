//! Locality-sensitive-hashing blocking (§3.4, refs \[12, 18]).
//!
//! Two randomised blockers with recall guarantees:
//!
//! * **MinHash LSH** over q-gram sets: the signature is split into `bands`
//!   bands of `rows` rows; records colliding in any band become candidates.
//!   A pair with Jaccard similarity `s` is caught with probability
//!   `1 − (1 − s^rows)^bands`.
//! * **Hamming LSH (HLSH)** over Bloom filters (Karapiperis & Verykios,
//!   ref \[18]): each of `tables` hash tables keys records by the values of
//!   `bits_per_key` randomly sampled bit positions; similar filters (small
//!   Hamming distance) collide in at least one table with high probability.

use pprl_core::bitvec::BitVec;
use pprl_core::error::{PprlError, Result};
use pprl_core::rng::SplitMix64;
use pprl_core::runner;
use std::collections::{HashMap, HashSet};

use crate::standard::CandidatePair;

/// MinHash-LSH banding over precomputed signatures.
#[derive(Debug, Clone)]
pub struct MinHashLsh {
    /// Number of bands.
    pub bands: usize,
    /// Rows (signature components) per band.
    pub rows: usize,
}

impl MinHashLsh {
    /// Validates band/row structure against a signature length.
    pub fn new(bands: usize, rows: usize) -> Result<Self> {
        if bands == 0 || rows == 0 {
            return Err(PprlError::invalid("bands/rows", "must be positive"));
        }
        Ok(MinHashLsh { bands, rows })
    }

    /// Probability a pair of Jaccard similarity `s` becomes a candidate.
    pub fn collision_probability(&self, s: f64) -> f64 {
        1.0 - (1.0 - s.powi(self.rows as i32)).powi(self.bands as i32)
    }

    /// Candidate pairs between two signature sets. Signatures must be at
    /// least `bands·rows` long.
    pub fn candidates(
        &self,
        signatures_a: &[Vec<u64>],
        signatures_b: &[Vec<u64>],
    ) -> Result<Vec<CandidatePair>> {
        let need = self.bands * self.rows;
        for (name, sigs) in [("a", signatures_a), ("b", signatures_b)] {
            if let Some(s) = sigs.iter().find(|s| s.len() < need) {
                return Err(PprlError::shape(
                    format!("signatures of length >= {need}"),
                    format!("dataset {name} has signature of length {}", s.len()),
                ));
            }
        }
        let mut out: HashSet<CandidatePair> = HashSet::new();
        for band in 0..self.bands {
            let lo = band * self.rows;
            let hi = lo + self.rows;
            let mut table: HashMap<&[u64], Vec<usize>> = HashMap::new();
            for (j, sig) in signatures_b.iter().enumerate() {
                table.entry(&sig[lo..hi]).or_default().push(j);
            }
            for (i, sig) in signatures_a.iter().enumerate() {
                if let Some(rows) = table.get(&sig[lo..hi]) {
                    for &j in rows {
                        out.insert((i, j));
                    }
                }
            }
        }
        let mut pairs: Vec<CandidatePair> = out.into_iter().collect();
        pairs.sort_unstable();
        Ok(pairs)
    }
}

/// Hamming LSH over Bloom filters.
#[derive(Debug, Clone)]
pub struct HammingLsh {
    /// Number of hash tables.
    pub tables: usize,
    /// Sampled bit positions per table key.
    pub bits_per_key: usize,
    /// Seed deriving the (shared, secret) position samples.
    pub seed: u64,
}

impl HammingLsh {
    /// Validates parameters.
    pub fn new(tables: usize, bits_per_key: usize, seed: u64) -> Result<Self> {
        if tables == 0 || bits_per_key == 0 {
            return Err(PprlError::invalid(
                "tables/bits_per_key",
                "must be positive",
            ));
        }
        Ok(HammingLsh {
            tables,
            bits_per_key,
            seed,
        })
    }

    /// Probability that two filters at Hamming distance `d` (of length `l`)
    /// collide in at least one table: `1 − (1 − (1−d/l)^bits)^tables`.
    pub fn collision_probability(&self, d: usize, l: usize) -> f64 {
        let p = 1.0 - d as f64 / l as f64;
        1.0 - (1.0 - p.powi(self.bits_per_key as i32)).powi(self.tables as i32)
    }

    /// The sampled bit positions of every hash table for filters of `len`
    /// bits — the projection underlying [`band_key`]. Sampling costs
    /// `tables × bits_per_key` draws, so callers that key many filters
    /// fetch this once per filter length and keep it.
    pub fn sampled_positions(&self, len: usize) -> Vec<Vec<usize>> {
        let mut rng = SplitMix64::new(self.seed);
        (0..self.tables)
            .map(|_| {
                let mut fork = rng.fork(0x415348);
                fork.sample_indices(len, self.bits_per_key.min(len))
            })
            .collect()
    }

    /// Candidate pairs between two filter sets of equal bit length,
    /// sorted and without repeats. Keys are 64-bit integers, so at most
    /// 64 bits per key can be sampled. Runs on [`runner`] with at most
    /// `threads` threads: one task per table sorts B's keys, then tasks
    /// of `PROBE_ROWS` rows of A probe every table; the pairs are the
    /// same at any `threads`.
    pub fn candidates(
        &self,
        filters_a: &[&BitVec],
        filters_b: &[&BitVec],
        threads: usize,
    ) -> Result<Vec<CandidatePair>> {
        let Some(first) = filters_a.first().or(filters_b.first()) else {
            return Ok(Vec::new());
        };
        let len = first.len();
        for f in filters_a.iter().chain(filters_b.iter()) {
            if f.len() != len {
                return Err(PprlError::shape(
                    format!("{len} bits"),
                    format!("{} bits", f.len()),
                ));
            }
        }
        if self.bits_per_key.min(len) > 64 {
            return Err(PprlError::invalid(
                "bits_per_key",
                "candidate generation keys on at most 64 sampled bits",
            ));
        }
        let positions = self.sampled_positions(len);
        // An all-zero filter encodes a record with no usable evidence
        // (e.g. every field missing); it would trivially collide with
        // every sparse filter whose sampled positions happen to be zero,
        // so it is excluded from blocking.
        let informative = |f: &BitVec| f.as_words().iter().any(|&w| w != 0);
        // Per table, B's rows sorted by band key.
        let key_nanos = filters_b.len() as u64 * KEY_NANOS;
        let tables = runner::map(
            threads,
            positions.len(),
            key_nanos,
            || (),
            |(), t| {
                let mut keyed: Vec<(u64, usize)> = (0..)
                    .zip(filters_b)
                    .filter(|(_, f)| informative(f))
                    .map(|(j, f)| (band_key(f.as_words(), &positions[t]), j))
                    .collect();
                keyed.sort_unstable();
                Ok(keyed)
            },
        )?;
        // Probe row by row, so the pairs come out sorted by `i` and only
        // one row's collisions are sorted and deduplicated at a time. A
        // row's keys are all computed before any is searched for: the
        // searches then do not wait on one another.
        let probe_nanos = (PROBE_ROWS * positions.len()) as u64 * PROBE_NANOS;
        let scratch = || (Vec::with_capacity(positions.len()), Vec::new());
        let parts = runner::map(
            threads,
            filters_a.len().div_ceil(PROBE_ROWS),
            probe_nanos,
            scratch,
            |(keys, row): &mut (Vec<u64>, Vec<usize>), t| {
                let mut pairs = Vec::new();
                let start = t * PROBE_ROWS;
                let rows = &filters_a[start..filters_a.len().min(start + PROBE_ROWS)];
                for (i, f) in (start..).zip(rows).filter(|(_, f)| informative(f)) {
                    keys.clear();
                    keys.extend(positions.iter().map(|table| band_key(f.as_words(), table)));
                    row.clear();
                    for (&key, keyed) in keys.iter().zip(&tables) {
                        let from = keyed.partition_point(|&(k, _)| k < key);
                        row.extend(
                            keyed[from..]
                                .iter()
                                .take_while(|&&(k, _)| k == key)
                                .map(|&(_, j)| j),
                        );
                    }
                    row.sort_unstable();
                    row.dedup();
                    pairs.extend(row.iter().map(|&j| (i, j)));
                }
                Ok(pairs)
            },
        )?;
        Ok(parts.concat())
    }
}

/// Rows of A per probing task: ~0.5 ms at 16 tables.
const PROBE_ROWS: usize = 256;
/// Estimated cost of keying one filter of B into one table, its share of
/// the sort included: ~55 ns for 1000-bit CLKs (2-vCPU AVX-512 Xeon).
const KEY_NANOS: u64 = 60;
/// Estimated cost of probing one table with one row of A (band key and
/// binary search): ~130 ns on the same host.
const PROBE_NANOS: u64 = 130;

/// The band key of a filter (given as its backing words) under one hash
/// table's sampled `positions`, at most 64 of them and each below the
/// filter's length: bit `j` of the key is the filter bit `positions[j]`.
/// Two filters collide in the table iff their band keys are equal, so the
/// key doubles as a deterministic partitioning token that keeps
/// Hamming-similar filters together.
#[inline]
pub fn band_key(words: &[u64], positions: &[usize]) -> u64 {
    debug_assert!(positions.len() <= 64);
    positions.iter().enumerate().fold(0u64, |key, (j, &p)| {
        key | ((words[p / 64] >> (p % 64)) & 1) << j
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pprl_core::qgram::{qgram_set, QGramConfig};
    use pprl_encoding::minhash::MinHasher;

    #[test]
    fn minhash_lsh_validation() {
        assert!(MinHashLsh::new(0, 4).is_err());
        assert!(MinHashLsh::new(4, 0).is_err());
        let lsh = MinHashLsh::new(8, 4).unwrap();
        let short = vec![vec![1u64; 16]];
        assert!(lsh.candidates(&short, &short).is_err());
    }

    #[test]
    fn collision_probability_s_curve() {
        let lsh = MinHashLsh::new(20, 5).unwrap();
        assert!(lsh.collision_probability(0.9) > 0.99);
        assert!(lsh.collision_probability(0.1) < 0.01);
        assert!(lsh.collision_probability(0.9) > lsh.collision_probability(0.5));
    }

    #[test]
    fn minhash_lsh_finds_similar_strings() {
        let hasher = MinHasher::new(100, b"k").unwrap();
        let cfg = QGramConfig::bigrams();
        let names_a = ["jonathan smith", "mary johnson", "peter miller"];
        let names_b = ["jonathan smyth", "completely different", "peter miller"];
        let sigs_a: Vec<Vec<u64>> = names_a
            .iter()
            .map(|n| hasher.signature(&qgram_set(n, &cfg)))
            .collect();
        let sigs_b: Vec<Vec<u64>> = names_b
            .iter()
            .map(|n| hasher.signature(&qgram_set(n, &cfg)))
            .collect();
        let lsh = MinHashLsh::new(25, 4).unwrap();
        let pairs = lsh.candidates(&sigs_a, &sigs_b).unwrap();
        assert!(
            pairs.contains(&(0, 0)),
            "similar pair should be a candidate: {pairs:?}"
        );
        assert!(pairs.contains(&(2, 2)), "identical pair must collide");
        assert!(
            !pairs.contains(&(1, 1)),
            "dissimilar pair should not collide"
        );
    }

    #[test]
    fn hamming_lsh_validation() {
        assert!(HammingLsh::new(0, 8, 1).is_err());
        assert!(HammingLsh::new(8, 0, 1).is_err());
    }

    #[test]
    fn hamming_lsh_identical_always_collides() {
        let f = BitVec::from_positions(256, &[1, 17, 33, 200]).unwrap();
        let lsh = HammingLsh::new(4, 16, 7).unwrap();
        let pairs = lsh.candidates(&[&f], &[&f], 1).unwrap();
        assert_eq!(pairs, vec![(0, 0)]);
    }

    #[test]
    fn hamming_lsh_similar_collides_dissimilar_not() {
        let mut rng = SplitMix64::new(3);
        let len = 512;
        // base filter with ~25% fill
        let mut base = BitVec::zeros(len);
        for _ in 0..128 {
            base.set(rng.next_below(len as u64) as usize);
        }
        // near: flip 10 bits; far: independent random filter
        let mut near = base.clone();
        for _ in 0..10 {
            near.flip(rng.next_below(len as u64) as usize);
        }
        let mut far = BitVec::zeros(len);
        for _ in 0..128 {
            far.set(rng.next_below(len as u64) as usize);
        }
        let lsh = HammingLsh::new(20, 24, 99).unwrap();
        let pairs = lsh.candidates(&[&base], &[&near, &far], 1).unwrap();
        assert!(
            pairs.contains(&(0, 0)),
            "near filter should collide: {pairs:?}"
        );
        assert!(
            !pairs.contains(&(0, 1)),
            "far filter should not collide: {pairs:?}"
        );
    }

    #[test]
    fn hamming_lsh_probability_monotone() {
        let lsh = HammingLsh::new(10, 16, 1).unwrap();
        assert!(lsh.collision_probability(5, 512) > lsh.collision_probability(50, 512));
        assert!(lsh.collision_probability(0, 512) > 0.999);
    }

    #[test]
    fn hamming_lsh_empty_and_mismatched() {
        let lsh = HammingLsh::new(2, 4, 1).unwrap();
        assert!(lsh.candidates(&[], &[], 1).unwrap().is_empty());
        let a = BitVec::zeros(8);
        let b = BitVec::zeros(16);
        assert!(lsh.candidates(&[&a], &[&b], 1).is_err());
    }

    #[test]
    fn all_zero_filters_are_excluded() {
        // Two empty (all-missing) records must not collide with each other
        // nor with a sparse filter whose sampled positions are all zero.
        let lsh = HammingLsh::new(8, 16, 11).unwrap();
        let zero = BitVec::zeros(256);
        let sparse = BitVec::from_positions(256, &[7]).unwrap();
        let pairs = lsh
            .candidates(&[&zero, &sparse], &[&zero, &sparse], 1)
            .unwrap();
        assert_eq!(pairs, vec![(1, 1)], "only the sparse self-pair collides");
    }

    #[test]
    fn band_key_packs_the_sampled_bits() {
        let lsh = HammingLsh::new(4, 16, 7).unwrap();
        let mut g = BitVec::from_positions(256, &[1, 17, 33, 200]).unwrap();
        g.flip(2);
        for pos in lsh.sampled_positions(256) {
            let key = band_key(g.as_words(), &pos);
            let sampled = g.sample(&pos).unwrap();
            assert_eq!(key, sampled.as_words()[0]);
        }
        // All 64 key bits are usable.
        let ones = BitVec::ones(70);
        let all: Vec<usize> = (3..67).collect();
        assert_eq!(band_key(ones.as_words(), &all), u64::MAX);
    }

    #[test]
    fn more_than_64_key_bits_is_a_typed_error() {
        let f = BitVec::ones(128);
        let wide = HammingLsh::new(2, 65, 1).unwrap();
        assert!(wide.candidates(&[&f], &[&f], 1).is_err());
        // The sample is capped by the filter length.
        let short = BitVec::ones(40);
        assert_eq!(wide.candidates(&[&short], &[&short], 1).unwrap(), [(0, 0)]);
    }

    #[test]
    fn deterministic_by_seed() {
        let f1 = BitVec::from_positions(128, &[1, 2, 3]).unwrap();
        let f2 = BitVec::from_positions(128, &[2, 3, 4]).unwrap();
        let l1 = HammingLsh::new(6, 8, 42).unwrap();
        let l2 = HammingLsh::new(6, 8, 42).unwrap();
        assert_eq!(
            l1.candidates(&[&f1], &[&f2], 1).unwrap(),
            l2.candidates(&[&f1], &[&f2], 1).unwrap()
        );
    }
}
