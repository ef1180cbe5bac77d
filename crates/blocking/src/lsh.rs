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
use pprl_core::hash::mix128;
use pprl_core::rng::SplitMix64;
use pprl_core::runner;
use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::hash::BuildHasher;

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

    /// Each table's sampled bits of a `len`-bit filter as taps: bits of one
    /// word that an AND and a rotation move onto key bits of their own. A
    /// key thus permutes [`band_key`]'s bits (equal iff the band keys are)
    /// in ~13 taps, not 24. Keys are `u64`s: at most 64 sampled bits.
    fn taps(&self, len: usize) -> Result<Vec<Vec<Tap>>> {
        if self.bits_per_key.min(len) > 64 {
            return Err(PprlError::invalid(
                "bits_per_key",
                "candidate generation keys on at most 64 sampled bits",
            ));
        }
        let table_taps = |positions: &Vec<usize>| {
            let (mut used, mut taps) = (0u64, Vec::<Tap>::new());
            for &p in positions {
                let (w, bit) = (p / 64, 1u64 << (p % 64));
                let fits = |&(tw, _, r): &Tap| tw == w && bit.rotate_left(r) & used == 0;
                let i = taps.iter().position(fits).unwrap_or_else(|| {
                    let r = ((!used).trailing_zeros() + 64 - bit.trailing_zeros()) % 64;
                    taps.push((w, 0, r));
                    taps.len() - 1
                });
                taps[i].1 |= bit;
                used |= bit.rotate_left(taps[i].2);
            }
            taps
        };
        Ok(self.sampled_positions(len).iter().map(table_taps).collect())
    }

    /// Candidate pairs between two filter sets of equal bit length,
    /// sorted and without repeats: [`HammingLsh::bind`] B, then probe it
    /// with A. The pairs are the same at any `threads`.
    pub fn candidates(
        &self,
        filters_a: &[&BitVec],
        filters_b: &[&BitVec],
        threads: usize,
    ) -> Result<Vec<CandidatePair>> {
        self.bind(filters_b, threads)?.probe(filters_a, threads)
    }

    /// Keys B once and builds a map of its keys per table, on [`runner`]
    /// with at most `threads` threads, for any number of probes.
    pub fn bind(&self, filters_b: &[&BitVec], threads: usize) -> Result<HammingLshTables> {
        let len = common_len(filters_b, None)?;
        // An empty B samples no bits: its maps are empty.
        let taps = self.taps(len.unwrap_or(0))?;
        let b = Keyed::new(filters_b, &taps, threads)?;
        let build = |_: &mut (), t: usize| Ok(KeyMap::build(&b, t));
        let nanos = filters_b.len() as u64 * BUILD_NANOS;
        let maps = runner::map(threads, b.tables, nanos, || (), build)?;
        Ok(HammingLshTables { taps, len, maps })
    }
}

/// B's side of a Hamming-LSH join ([`HammingLsh::bind`]): its taps, its
/// filter length (`None` when B is empty) and a map per table.
#[derive(Debug)]
pub struct HammingLshTables {
    taps: Vec<Vec<Tap>>,
    len: Option<usize>,
    maps: Vec<KeyMap>,
}

impl HammingLshTables {
    /// The number of bound B rows (each map chains every one).
    pub fn rows(&self) -> usize {
        self.maps.first().map_or(0, |map| map.next.len())
    }

    /// Candidate pairs `(row of A, row of B)`, sorted and without repeats,
    /// the same at any `threads` (a cap): A is keyed once, a [`runner`]
    /// task per table joins it, one per `KEY_ROWS` rows merges the runs.
    pub fn probe(&self, filters_a: &[&BitVec], threads: usize) -> Result<Vec<CandidatePair>> {
        common_len(filters_a, self.len)?;
        let a = Keyed::new(filters_a, &self.taps, threads)?;
        let join = |_: &mut (), t: usize| Ok(self.maps[t].join(&a, t));
        let nanos = filters_a.len() as u64 * JOIN_NANOS;
        let runs = runner::map(threads, a.tables, nanos, || (), join)?;
        let nanos = (KEY_ROWS * a.tables) as u64 * MERGE_NANOS;
        let parts = runner::map(threads, a.chunks.len(), nanos, Vec::new, |merged, c| {
            merged.clear();
            for (run, bounds) in &runs {
                merged.extend_from_slice(&run[bounds[c]..bounds[c + 1]]);
            }
            // The runs are sorted: the stable sort only merges them.
            merged.sort();
            merged.dedup();
            let pair = |&p: &u64| ((p >> 32) as usize, p as u32 as usize);
            Ok(merged.iter().map(pair).collect::<Vec<_>>())
        })?;
        Ok(parts.concat())
    }
}

/// Sampled bits of one filter word: `(word, mask, left rotation)`.
type Tap = (usize, u64, u32);

/// Rows per keying task and per merge task.
const KEY_ROWS: usize = 1024;
/// ~20 ns: keying a CLK under one 24-bit table (2-vCPU AVX-512 Xeon).
const KEY_NANOS: u64 = 20;
/// ~25 ns: inserting a row of B into one table's map, at 20k rows.
const BUILD_NANOS: u64 = 25;
/// ~40 ns: looking a row of A up in one table's map, collisions emitted.
const JOIN_NANOS: u64 = 40;
/// ~11–12 ns: merging one table's run for a row of A.
const MERGE_NANOS: u64 = 12;
/// No row: an empty slot's head, a chain's end.
const NONE: u32 = u32::MAX;

/// The bit length of `filters` and `expect`; at most `u32::MAX` rows.
fn common_len(filters: &[&BitVec], expect: Option<usize>) -> Result<Option<usize>> {
    if filters.len() > NONE as usize {
        return Err(PprlError::invalid("filters", "more than u32::MAX rows"));
    }
    let len = expect.or(filters.first().map(|f| f.len()));
    match filters.iter().find(|f| Some(f.len()) != len) {
        Some(f) => Err(PprlError::shape(
            format!("{} bits", len.unwrap_or_default()),
            format!("{} bits", f.len()),
        )),
        None => Ok(len),
    }
}

/// A filter set keyed under every table.
struct Keyed<'a> {
    filters: &'a [&'a BitVec],
    /// Per `KEY_ROWS` rows, their keys table by table, row by row.
    chunks: Vec<Vec<u64>>,
    tables: usize,
}

impl<'a> Keyed<'a> {
    /// Keys `filters` under every table of `taps`, one task per chunk.
    fn new(filters: &'a [&'a BitVec], taps: &[Vec<Tap>], threads: usize) -> Result<Self> {
        let nanos = (KEY_ROWS * taps.len()) as u64 * KEY_NANOS;
        let key = |_: &mut (), c: usize| {
            let rows = &filters[c * KEY_ROWS..filters.len().min((c + 1) * KEY_ROWS)];
            let mut keys = vec![0; rows.len() * taps.len()];
            for (r, words) in rows.iter().map(|f| f.as_words()).enumerate() {
                for (t, table) in taps.iter().enumerate() {
                    keys[t * rows.len() + r] = table.iter().fold(0, |key, &(w, mask, rot)| {
                        key | (words[w] & mask).rotate_left(rot)
                    });
                }
            }
            Ok(keys)
        };
        let tasks = filters.len().div_ceil(KEY_ROWS);
        Ok(Keyed {
            filters,
            chunks: runner::map(threads, tasks, nanos, || (), key)?,
            tables: taps.len(),
        })
    }

    /// `(row, key)` in table `t` of each row but all-zero filters, which
    /// carry no evidence (e.g. every field missing) and would collide with
    /// every filter whose sampled bits are zero.
    fn column(&self, t: usize) -> impl Iterator<Item = (u32, u64)> + '_ {
        let keys = self.chunks.iter().flat_map(move |keys| {
            let rows = keys.len() / self.tables;
            &keys[t * rows..(t + 1) * rows]
        });
        (0u32..)
            .zip(keys.zip(self.filters))
            .filter_map(|(row, (&key, f))| {
                (key != 0 || f.as_words().iter().any(|&w| w != 0)).then_some((row, key))
            })
    }
}

/// One table's B rows by key: linear probing, rows chained ascending.
#[derive(Debug)]
struct KeyMap {
    /// `(key, first row, last row)` per slot; [`NONE`] first when empty.
    slots: Vec<(u64, u32, u32)>,
    /// Random per map: keys crafted to share a slot cannot be aimed.
    salt: u64,
    /// Per B row, the next row with the same key, or [`NONE`].
    next: Vec<u32>,
}

impl KeyMap {
    /// B's map in table `t`.
    fn build(b: &Keyed, t: usize) -> KeyMap {
        // Under 2/3 full (512 KB at 20k rows: in L2); probes end at a gap.
        let rows = b.filters.len();
        let mut map = KeyMap {
            slots: vec![(0, NONE, NONE); (rows * 3 / 2 + 1).next_power_of_two()],
            next: vec![NONE; rows],
            salt: RandomState::new().hash_one(t),
        };
        for (row, key) in b.column(t) {
            let s = map.home(key);
            let slot = &mut map.slots[s];
            match slot.1 {
                NONE => *slot = (key, row, row),
                _ => map.next[std::mem::replace(&mut slot.2, row) as usize] = row,
            }
        }
        map
    }

    /// The slot holding `key`, or the empty slot where it would go.
    #[inline]
    fn home(&self, key: u64) -> usize {
        let mask = self.slots.len() - 1;
        let mut s = mix128(u128::from(key ^ self.salt)) as usize & mask;
        while self.slots[s].1 != NONE && self.slots[s].0 != key {
            s = (s + 1) & mask;
        }
        s
    }

    /// Every `(row of A, row of B)` colliding in table `t`, ascending as
    /// `a << 32 | b`, and the offsets of each `KEY_ROWS` rows of A's pairs.
    fn join(&self, a: &Keyed, t: usize) -> (Vec<u64>, Vec<usize>) {
        let (mut run, mut bounds) = (Vec::new(), Vec::with_capacity(a.chunks.len() + 1));
        for (row, key) in a.column(t) {
            bounds.resize(bounds.len().max(row as usize / KEY_ROWS + 1), run.len());
            let mut b = self.slots[self.home(key)].1;
            while b != NONE {
                run.push(u64::from(row) << 32 | u64::from(b));
                b = self.next[b as usize];
            }
        }
        bounds.resize(a.chunks.len() + 1, run.len());
        (run, bounds)
    }
}

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
    fn tap_keys_permute_the_band_key_bits() {
        // Each sampled bit lands on a key bit of its own, so a key is as
        // fine a partition as the band key, up to 64 bits per key.
        for (tables, bits, len) in [(16, 24, 1000), (8, 64, 1000), (4, 64, 70), (6, 13, 65)] {
            let lsh = HammingLsh::new(tables, bits, 5).unwrap();
            let taps = lsh.taps(len).unwrap();
            let key = |f: &BitVec, t: usize| Keyed::new(&[f], &taps, 1).unwrap().chunks[0][t];
            for (t, positions) in lsh.sampled_positions(len).iter().enumerate() {
                let mut seen = 0u64;
                for &p in positions {
                    let key = key(&BitVec::from_positions(len, &[p]).unwrap(), t);
                    assert_eq!(key.count_ones(), 1, "bit {p}");
                    assert_eq!(seen & key, 0, "bit {p} shares a key bit");
                    seen |= key;
                }
                assert_eq!(key(&BitVec::ones(len), t), seen);
            }
        }
    }

    #[test]
    fn one_binding_answers_every_probe() {
        let mut rng = SplitMix64::new(9);
        let mut filters = |n: usize| -> Vec<BitVec> {
            (0..n)
                .map(|_| {
                    let ones: Vec<usize> = (0..64).map(|_| rng.next_below(128) as usize).collect();
                    BitVec::from_positions(128, &ones).unwrap()
                })
                .collect()
        };
        let (fa, fa2, fb) = (filters(40), filters(7), filters(50));
        let a: Vec<&BitVec> = fa.iter().collect();
        let a2: Vec<&BitVec> = fa2.iter().collect();
        let b: Vec<&BitVec> = fb.iter().collect();
        let lsh = HammingLsh::new(6, 6, 3).unwrap();
        let bound = lsh.bind(&b, 1).unwrap();
        assert_eq!(bound.rows(), 50);
        for probe in [&a, &a2, &b, &Vec::new()] {
            assert_eq!(
                bound.probe(probe, 1).unwrap(),
                lsh.candidates(probe, &b, 1).unwrap()
            );
        }
        assert!(!bound.probe(&a, 1).unwrap().is_empty());
        // A probe of another filter length is a typed error.
        let short = BitVec::ones(64);
        assert!(bound.probe(&[&short], 1).is_err());
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
