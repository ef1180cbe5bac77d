//! Per-segment band-key Bloom summaries for content-based pruning.
//!
//! Popcount bounds prune segments whose filters are the wrong *length*
//! for a Dice threshold; summaries prune segments with the wrong
//! *content*. The construction keeps pruning lossless for exact top-k:
//!
//! * `tables` pairwise-**disjoint** sets of `bits` filter positions are
//!   sampled deterministically from the manifest's LSH seed
//!   ([`summary_positions`]).
//! * Each stored filter contributes one `bits`-wide key per table (the
//!   filter's bits at that table's positions); every `(table, key)` pair
//!   is inserted into a small per-segment Bloom filter
//!   ([`BandKeySummary`]). Blooms have no false negatives, so "key
//!   absent" is a proof.
//! * At query time, if the query's key misses in **all** `tables`
//!   tables, every record in the segment differs from the query in at
//!   least one position *per table*; the position sets are disjoint, so
//!   the Hamming distance is at least `tables`. Substituting
//!   `H = q + x − 2·|a∧b|` into Dice gives
//!   `dice = (q + x − H)/(q + x) ≤ (q + x − tables)/(q + x)`, which is
//!   increasing in `x` — evaluate it at the segment's `pc_max` and a
//!   sound upper bound for the whole segment falls out
//!   ([`no_match_dice_bound`]). If that bound is below the current
//!   threshold, the segment cannot contribute a hit and its arena is
//!   never materialised.

use pprl_blocking::lsh::band_key;
use pprl_core::bitvec::BitVec;
use pprl_core::rng::SplitMix64;

/// Stream id used when forking the summary position RNG off the
/// manifest's LSH seed (keeps it independent of shard routing, which
/// forks with a different stream).
const SUMMARY_STREAM: u64 = 0x5355_4d52; // "SUMR"
/// Bloom probes per inserted key.
const BLOOM_PROBES: u32 = 4;
/// Target Bloom bits per inserted `(table, key)` pair.
const BLOOM_BITS_PER_KEY: usize = 16;
/// Smallest Bloom size in bits (power of two).
const BLOOM_MIN_BITS: usize = 1024;
/// Largest Bloom size in bits (power of two) — 16 KiB per segment.
const BLOOM_MAX_BITS: usize = 131_072;

/// Band-key summary geometry, fixed per index in the manifest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SummaryConfig {
    /// Number of disjoint position tables (0 disables summaries).
    pub tables: u16,
    /// Sampled filter positions per table.
    pub bits: u16,
}

impl SummaryConfig {
    /// Default geometry: 8 tables × 16 bits = 128 disjoint positions.
    pub const DEFAULT: SummaryConfig = SummaryConfig {
        tables: 8,
        bits: 16,
    };

    /// Summaries switched off (what v1/v2 manifests decode to).
    pub const DISABLED: SummaryConfig = SummaryConfig { tables: 0, bits: 0 };

    /// The default geometry when the filter is long enough to donate
    /// `tables × bits` disjoint positions, otherwise disabled.
    pub fn for_filter_len(filter_len: usize) -> SummaryConfig {
        let need = Self::DEFAULT.tables as usize * Self::DEFAULT.bits as usize;
        if filter_len >= need {
            Self::DEFAULT
        } else {
            Self::DISABLED
        }
    }

    /// True when summaries are built and consulted.
    pub fn enabled(&self) -> bool {
        self.tables > 0 && self.bits > 0
    }
}

/// Samples `tables` pairwise-disjoint sets of `bits` positions in
/// `0..filter_len`, deterministically from `seed`. Returns an empty
/// vector when the config is disabled or the filter is too short.
pub fn summary_positions(seed: u64, filter_len: usize, config: SummaryConfig) -> Vec<Vec<usize>> {
    let tables = config.tables as usize;
    let bits = config.bits as usize;
    if !config.enabled() || filter_len < tables * bits {
        return Vec::new();
    }
    let mut rng = SplitMix64::new(seed).fork(SUMMARY_STREAM);
    let perm = rng.permutation(filter_len);
    perm.chunks(bits)
        .take(tables)
        .map(|chunk| chunk.to_vec())
        .collect()
}

/// The query/record key for each table: bit `j` of table `t`'s key is
/// the filter bit at `positions[t][j]`.
pub fn band_keys(filter: &BitVec, positions: &[Vec<usize>]) -> Vec<u64> {
    band_keys_words(filter.as_words(), positions)
}

/// [`band_keys`] over a filter's backing words (little-endian bit
/// order), for callers holding arena rows rather than `BitVec`s. Every
/// position must be within the words' bit span; positions come from
/// [`summary_positions`], which samples below the filter length.
pub fn band_keys_words(words: &[u64], positions: &[Vec<usize>]) -> Vec<u64> {
    let mut keys = Vec::with_capacity(positions.len());
    band_keys_words_into(words, positions, &mut keys);
    keys
}

/// [`band_keys_words`] into a caller-owned buffer (cleared first), so
/// per-record loops — segment sealing walks every arena row — can reuse
/// one allocation across the whole segment.
pub fn band_keys_words_into(words: &[u64], positions: &[Vec<usize>], keys: &mut Vec<u64>) {
    keys.clear();
    keys.extend(positions.iter().map(|table| band_key(words, table)));
}

/// Sound Dice upper bound for a query (popcount `q`) against any record
/// in a segment whose keys missed the summary in all `tables` tables and
/// whose largest popcount is `pc_max`: Hamming distance is at least
/// `tables`, so `dice ≤ (q + pc_max − tables)/(q + pc_max)`.
pub fn no_match_dice_bound(q: usize, pc_max: usize, tables: usize) -> f64 {
    let denom = q + pc_max;
    if denom == 0 {
        // Both sides empty: dice is 1.0 by convention (and the all-zero
        // key would have been found in the summary anyway).
        return 1.0;
    }
    (denom.saturating_sub(tables)) as f64 / denom as f64
}

/// A per-segment Bloom filter over `(table, key)` pairs.
///
/// Power-of-two sized, 4 probes per key via double hashing. No false
/// negatives, so [`BandKeySummary::contains_any`] returning `false` is a
/// proof that no stored record shares a band key with the query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BandKeySummary {
    words: Vec<u64>,
}

impl BandKeySummary {
    /// An empty summary sized for `records` stored filters (16 bits per
    /// expected key, power-of-two clamped to `[1024, 131072]` bits).
    pub fn with_capacity(records: usize, tables: usize) -> BandKeySummary {
        let want = records
            .saturating_mul(tables)
            .saturating_mul(BLOOM_BITS_PER_KEY)
            .clamp(BLOOM_MIN_BITS, BLOOM_MAX_BITS);
        let bits = want.next_power_of_two().min(BLOOM_MAX_BITS);
        BandKeySummary {
            words: vec![0u64; bits / 64],
        }
    }

    /// Reconstructs a summary from its stored words (must be a non-empty
    /// power-of-two word count; callers validate via the manifest codec).
    pub fn from_words(words: Vec<u64>) -> BandKeySummary {
        BandKeySummary { words }
    }

    /// The backing words (for serialisation).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Double-hashing probe positions for `(table, key)`.
    fn probes(&self, table: usize, key: u64) -> [usize; BLOOM_PROBES as usize] {
        let mask = self.words.len() * 64 - 1;
        // SplitMix64-style finalisers keep h1/h2 well mixed and cheap.
        let mut x = key
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(table as u64 + 1);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        let h1 = x ^ (x >> 31);
        // h2 must not be a low-bits function of h1: `h1 * C | 1` would
        // make `h2 mod m` collide whenever `h1 mod m` does (multiplication
        // preserves low bits), turning every h1 collision into a full
        // 4-probe collision. The high half of h1 is independent of
        // `h1 mod m` for any power-of-two m ≤ 2^32. Odd, so probes cycle.
        let h2 = (h1 >> 32) | 1;
        let mut out = [0usize; BLOOM_PROBES as usize];
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = (h1.wrapping_add(h2.wrapping_mul(i as u64)) as usize) & mask;
        }
        out
    }

    /// Inserts the `(table, key)` pair.
    pub fn insert(&mut self, table: usize, key: u64) {
        for bit in self.probes(table, key) {
            self.words[bit / 64] |= 1u64 << (bit % 64);
        }
    }

    /// True when the pair may have been inserted (false is a proof of
    /// absence).
    pub fn contains(&self, table: usize, key: u64) -> bool {
        self.probes(table, key)
            .iter()
            .all(|&bit| self.words[bit / 64] & (1u64 << (bit % 64)) != 0)
    }

    /// True when `keys[t]` may be present in table `t` for *any* table —
    /// i.e. false means the query missed every table and the
    /// [`no_match_dice_bound`] applies to the whole segment.
    pub fn contains_any(&self, keys: &[u64]) -> bool {
        keys.iter()
            .enumerate()
            .any(|(table, &key)| self.contains(table, key))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn random_filter(len: usize, rng: &mut SplitMix64) -> BitVec {
        let ones: Vec<usize> = (0..len)
            .filter(|_| rng.next_u64().is_multiple_of(3))
            .collect();
        BitVec::from_positions(len, &ones).unwrap()
    }

    #[test]
    fn positions_are_disjoint_deterministic_and_sized() {
        let cfg = SummaryConfig::DEFAULT;
        let pos = summary_positions(0x5eed, 1000, cfg);
        assert_eq!(pos.len(), cfg.tables as usize);
        let mut seen = std::collections::HashSet::new();
        for table in &pos {
            assert_eq!(table.len(), cfg.bits as usize);
            for &p in table {
                assert!(p < 1000);
                assert!(seen.insert(p), "position {p} appears in two tables");
            }
        }
        assert_eq!(pos, summary_positions(0x5eed, 1000, cfg));
        assert_ne!(pos, summary_positions(0x5eee, 1000, cfg));
        // Too-short filters and disabled configs sample nothing.
        assert!(summary_positions(0x5eed, 100, cfg).is_empty());
        assert!(summary_positions(0x5eed, 1000, SummaryConfig::DISABLED).is_empty());
    }

    #[test]
    fn config_gates_on_filter_len() {
        assert!(SummaryConfig::for_filter_len(1000).enabled());
        assert_eq!(SummaryConfig::for_filter_len(128), SummaryConfig::DEFAULT);
        assert!(!SummaryConfig::for_filter_len(127).enabled());
        assert!(!SummaryConfig::DISABLED.enabled());
    }

    #[test]
    fn no_false_negatives_ever() {
        // The load-bearing Bloom property: every inserted record's keys
        // are found by contains_any, no matter the fill level.
        let mut rng = SplitMix64::new(77);
        let pos = summary_positions(0x5eed, 1000, SummaryConfig::DEFAULT);
        let filters: Vec<BitVec> = (0..500).map(|_| random_filter(1000, &mut rng)).collect();
        let mut summary = BandKeySummary::with_capacity(filters.len(), pos.len());
        for f in &filters {
            for (t, key) in band_keys(f, &pos).iter().enumerate() {
                summary.insert(t, *key);
            }
        }
        for f in &filters {
            let keys = band_keys(f, &pos);
            assert!(summary.contains_any(&keys));
            for (t, &key) in keys.iter().enumerate() {
                assert!(summary.contains(t, key));
            }
        }
    }

    #[test]
    fn unrelated_keys_mostly_miss() {
        let mut rng = SplitMix64::new(3);
        let pos = summary_positions(0x5eed, 1000, SummaryConfig::DEFAULT);
        let mut summary = BandKeySummary::with_capacity(20, pos.len());
        for _ in 0..20 {
            let f = random_filter(1000, &mut rng);
            for (t, key) in band_keys(&f, &pos).iter().enumerate() {
                summary.insert(t, *key);
            }
        }
        // Random 16-bit keys against a sparse summary: the vast majority
        // of probes must miss, or pruning would never fire.
        let misses = (0..200)
            .filter(|_| {
                let keys: Vec<u64> = (0..8).map(|_| rng.next_u64() & 0xffff).collect();
                !summary.contains_any(&keys)
            })
            .count();
        assert!(misses > 150, "only {misses}/200 random key sets missed");
    }

    #[test]
    fn dice_bound_is_sound_and_tight() {
        // Hamming ≥ T means dice ≤ (q+x−T)/(q+x); check against explicit
        // worst cases.
        assert_eq!(no_match_dice_bound(0, 0, 8), 1.0);
        assert_eq!(no_match_dice_bound(4, 0, 8), 0.0); // saturates
        let b = no_match_dice_bound(100, 100, 8);
        assert!((b - 192.0 / 200.0).abs() < 1e-12);
        // Monotonic in pc_max: larger filters weaken the bound.
        assert!(no_match_dice_bound(100, 200, 8) > b);
    }

    #[test]
    fn summary_words_round_trip() {
        let mut s = BandKeySummary::with_capacity(10, 8);
        s.insert(0, 42);
        s.insert(7, 99);
        let restored = BandKeySummary::from_words(s.words().to_vec());
        assert_eq!(restored, s);
        assert!(restored.contains(0, 42));
        assert!(restored.contains(7, 99));
    }
}
