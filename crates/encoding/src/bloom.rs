//! Bloom-filter encoding of token sets (Figure 2 of the paper).
//!
//! A Bloom filter is a bit array of length `l`; `k` keyed hash functions map
//! each element of a token set (q-grams of a string QID, or neighbourhood
//! tokens of a numeric QID) to bit positions that are set to 1. Two
//! encodings preserve set overlap, so Dice/Jaccard on the filters
//! approximates the similarity of the underlying token sets.
//!
//! Two hashing schemes are provided:
//!
//! * **Double hashing** (Schnell et al.): positions `h1 + i·h2 mod l` from
//!   two keyed hashes — cheap, the PPRL standard, but known to produce
//!   exploitable bit-position structure.
//! * **K independent** hashes: one HMAC per hash function with a derived
//!   key — slower, more uniform.

use pprl_core::bitvec::BitVec;
use pprl_core::error::{PprlError, Result};
use pprl_crypto::sha::{digest_prefix_u64, hmac_sha256, Compression, Hmac, HmacKey, HmacSha1Key};
use std::collections::HashMap;

/// How bit positions are derived from a token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HashingScheme {
    /// `pos_i = (h1 + i·h2) mod l` with two keyed hashes.
    DoubleHashing,
    /// `pos_i = HMAC(key_i, token) mod l` with per-function derived keys.
    KIndependent,
}

/// Parameters of a Bloom-filter encoder.
#[derive(Debug, Clone)]
pub struct BloomParams {
    /// Filter length in bits (`l`).
    pub len: usize,
    /// Number of hash functions (`k`).
    pub num_hashes: usize,
    /// Position-derivation scheme.
    pub scheme: HashingScheme,
    /// Secret key shared by the database owners (never by the linkage unit).
    pub key: Vec<u8>,
}

impl BloomParams {
    /// Standard PPRL parameters: l = 1000 bits, k = 30, double hashing.
    pub fn standard(key: impl Into<Vec<u8>>) -> Self {
        BloomParams {
            len: 1000,
            num_hashes: 30,
            scheme: HashingScheme::DoubleHashing,
            key: key.into(),
        }
    }

    /// The k minimising the false-positive rate for `expected_elements`
    /// insertions into `len` bits: `k = (l/n)·ln 2`, at least 1.
    pub fn optimal_num_hashes(len: usize, expected_elements: usize) -> usize {
        if expected_elements == 0 {
            return 1;
        }
        (((len as f64 / expected_elements as f64) * std::f64::consts::LN_2).round() as usize).max(1)
    }

    fn validate(&self) -> Result<()> {
        if self.len == 0 {
            return Err(PprlError::invalid("len", "filter length must be positive"));
        }
        if self.num_hashes == 0 {
            return Err(PprlError::invalid("num_hashes", "need at least one hash"));
        }
        Ok(())
    }
}

/// Encodes token sets into Bloom filters.
///
/// ```
/// use pprl_encoding::bloom::{BloomEncoder, BloomParams};
/// use pprl_core::qgram::{qgram_set, QGramConfig};
/// use pprl_similarity::bitvec_sim::dice_bits;
///
/// let encoder = BloomEncoder::new(BloomParams::standard(b"shared-key".to_vec())).unwrap();
/// let cfg = QGramConfig::default();
/// let smith = encoder.encode_tokens(&qgram_set("smith", &cfg));
/// let smyth = encoder.encode_tokens(&qgram_set("smyth", &cfg));
/// let jones = encoder.encode_tokens(&qgram_set("jones", &cfg));
/// assert!(dice_bits(&smith, &smyth).unwrap() > dice_bits(&smith, &jones).unwrap());
/// ```
#[derive(Debug, Clone)]
pub struct BloomEncoder {
    params: BloomParams,
    /// The keyed hashes with their HMAC pad midstates, derived once.
    hasher: TokenHasher,
}

#[derive(Debug, Clone)]
enum TokenHasher {
    /// `h1` from HMAC-SHA-1, `h2` from HMAC-SHA-256, both under the key.
    Double(HmacSha1Key, HmacKey),
    /// One HMAC-SHA-256 key per hash function.
    KIndependent(Vec<HmacKey>),
}

#[cfg(test)]
thread_local! {
    /// Encoders built on this thread, for tests that assert none were.
    pub(crate) static ENCODERS_BUILT: std::cell::Cell<usize> =
        const { std::cell::Cell::new(0) };
}

/// The first 8 bytes of `HMAC(key, token)`, the token domain-separated
/// as `field|token` when it comes from a record field.
fn keyed_hash<C: Compression>(key: &Hmac<C>, field: Option<&str>, token: &str) -> u64 {
    let mut state = key.begin();
    if let Some(field) = field {
        state.update(field.as_bytes());
        state.update(b"|");
    }
    state.update(token.as_bytes());
    digest_prefix_u64(key.finish(state).as_ref())
}

impl BloomEncoder {
    /// Creates an encoder, validating parameters.
    pub fn new(params: BloomParams) -> Result<Self> {
        params.validate()?;
        #[cfg(test)]
        ENCODERS_BUILT.with(|built| built.set(built.get() + 1));
        let hasher = match params.scheme {
            HashingScheme::DoubleHashing => {
                TokenHasher::Double(HmacSha1Key::new(&params.key), HmacKey::new(&params.key))
            }
            HashingScheme::KIndependent => TokenHasher::KIndependent(
                (0..params.num_hashes)
                    .map(|i| {
                        let mut k = params.key.clone();
                        k.extend_from_slice(&(i as u64).to_be_bytes());
                        HmacKey::new(&hmac_sha256(&k, b"pprl-kind-key"))
                    })
                    .collect(),
            ),
        };
        Ok(BloomEncoder { params, hasher })
    }

    /// Filter length in bits.
    pub fn len(&self) -> usize {
        self.params.len
    }

    /// True when the configured filter length is zero (never, post-validation).
    pub fn is_empty(&self) -> bool {
        self.params.len == 0
    }

    /// Number of hash functions.
    pub fn num_hashes(&self) -> usize {
        self.params.num_hashes
    }

    /// Appends the `k` bit positions (possibly repeating) of `token` (of
    /// `field|token`, given a field): all the hashing a token ever costs.
    fn push_positions(&self, field: Option<&str>, token: &str, positions: &mut Vec<usize>) {
        let l = self.params.len as u64;
        match &self.hasher {
            TokenHasher::Double(sha1_key, sha256_key) => {
                let h1 = keyed_hash(sha1_key, field, token) % l;
                let h2 = keyed_hash(sha256_key, field, token) % l;
                // With h2 = 0 every position would collapse onto h1.
                let h2 = h2.max(1);
                let hashes = 0..self.params.num_hashes as u64;
                positions.extend(hashes.map(|i| ((h1 + i * h2) % l) as usize));
            }
            TokenHasher::KIndependent(keys) => positions.extend(
                keys.iter()
                    .map(|key| (keyed_hash(key, field, token) % l) as usize),
            ),
        }
    }

    /// Bit positions for one token (with possible duplicates).
    pub fn positions(&self, token: &str) -> Vec<usize> {
        let mut positions = Vec::with_capacity(self.params.num_hashes);
        self.push_positions(None, token, &mut positions);
        positions
    }

    /// Encodes a token set into a fresh filter.
    pub fn encode_tokens<S: AsRef<str>>(&self, tokens: &[S]) -> BitVec {
        let mut bv = BitVec::zeros(self.params.len);
        self.encode_tokens_into(tokens, &mut bv)
            .expect("freshly sized filter always matches the encoder length");
        bv
    }

    /// ORs a token set into an existing filter (CLK composition). The
    /// filter must match the encoder's configured length; a mismatch is a
    /// typed error, not a panic.
    pub fn encode_tokens_into<S: AsRef<str>>(
        &self,
        tokens: &[S],
        filter: &mut BitVec,
    ) -> Result<()> {
        if filter.len() != self.params.len {
            return Err(PprlError::shape(
                format!("{} bits", self.params.len),
                format!("{} bits", filter.len()),
            ));
        }
        let mut positions = Vec::with_capacity(self.params.num_hashes);
        for t in tokens {
            positions.clear();
            self.push_positions(None, t.as_ref(), &mut positions);
            positions.iter().for_each(|&p| filter.set(p));
        }
        Ok(())
    }

    /// Membership test for a token (standard Bloom filter query).
    pub fn contains(&self, filter: &BitVec, token: &str) -> bool {
        self.positions(token).into_iter().all(|p| filter.get(p))
    }

    /// Expected false-positive rate after `n` insertions:
    /// `(1 − e^{−kn/l})^k`.
    pub fn false_positive_rate(&self, n: usize) -> f64 {
        let k = self.params.num_hashes as f64;
        let l = self.params.len as f64;
        (1.0 - (-k * n as f64 / l).exp()).powf(k)
    }
}

/// The tokens one encoder has hashed so far in one `encode_dataset`
/// call, so that each distinct token of a column is hashed once and
/// every repeat costs a lookup and `k` bit-sets. Scoped to the call and
/// to the encoder: nothing outlives the key it was computed under.
#[derive(Debug, Default)]
pub(crate) struct TokenMemo {
    /// Token → where its `k` positions start in `positions`.
    starts: HashMap<String, usize>,
    positions: Vec<usize>,
}

impl TokenMemo {
    /// ORs the bits of `field|token` under `encoder` into `filter`, which
    /// must have the encoder's length. A token not seen before is
    /// hashed, and remembered while `budget` (entries the caller still
    /// allows) lasts.
    pub(crate) fn encode(
        &mut self,
        encoder: &BloomEncoder,
        field: &str,
        token: &str,
        filter: &mut BitVec,
        budget: &mut usize,
    ) {
        let mut set = |positions: &[usize]| positions.iter().for_each(|&p| filter.set(p));
        if let Some(&start) = self.starts.get(token) {
            return set(&self.positions[start..start + encoder.num_hashes()]);
        }
        let start = self.positions.len();
        encoder.push_positions(Some(field), token, &mut self.positions);
        set(&self.positions[start..]);
        if *budget > 0 {
            *budget -= 1;
            self.starts.insert(token.to_owned(), start);
        } else {
            self.positions.truncate(start);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encoder(scheme: HashingScheme) -> BloomEncoder {
        BloomEncoder::new(BloomParams {
            len: 512,
            num_hashes: 8,
            scheme,
            key: b"secret".to_vec(),
        })
        .unwrap()
    }

    #[test]
    fn validation() {
        assert!(BloomEncoder::new(BloomParams {
            len: 0,
            num_hashes: 1,
            scheme: HashingScheme::DoubleHashing,
            key: vec![],
        })
        .is_err());
        assert!(BloomEncoder::new(BloomParams {
            len: 10,
            num_hashes: 0,
            scheme: HashingScheme::DoubleHashing,
            key: vec![],
        })
        .is_err());
    }

    #[test]
    fn deterministic_per_key() {
        for scheme in [HashingScheme::DoubleHashing, HashingScheme::KIndependent] {
            let e = encoder(scheme);
            assert_eq!(e.positions("ab"), e.positions("ab"));
            let bv1 = e.encode_tokens(&["ab", "bc"]);
            let bv2 = e.encode_tokens(&["ab", "bc"]);
            assert_eq!(bv1, bv2);
        }
    }

    #[test]
    fn different_keys_give_different_filters() {
        let mut p1 = BloomParams::standard(b"key-one".to_vec());
        p1.len = 256;
        let mut p2 = BloomParams::standard(b"key-two".to_vec());
        p2.len = 256;
        let e1 = BloomEncoder::new(p1).unwrap();
        let e2 = BloomEncoder::new(p2).unwrap();
        assert_ne!(e1.encode_tokens(&["ab"]), e2.encode_tokens(&["ab"]));
    }

    #[test]
    fn positions_in_range_and_count() {
        for scheme in [HashingScheme::DoubleHashing, HashingScheme::KIndependent] {
            let e = encoder(scheme);
            let pos = e.positions("xy");
            assert_eq!(pos.len(), 8);
            assert!(pos.iter().all(|&p| p < 512));
        }
    }

    #[test]
    fn inserted_tokens_are_contained() {
        for scheme in [HashingScheme::DoubleHashing, HashingScheme::KIndependent] {
            let e = encoder(scheme);
            let tokens = ["pe", "et", "te", "er"];
            let bv = e.encode_tokens(&tokens);
            for t in tokens {
                assert!(e.contains(&bv, t));
            }
            assert!(!e.contains(&bv, "zz") || bv.fill_ratio() > 0.9);
        }
    }

    #[test]
    fn superset_monotonicity() {
        let e = encoder(HashingScheme::DoubleHashing);
        let small = e.encode_tokens(&["ab", "bc"]);
        let big = e.encode_tokens(&["ab", "bc", "cd"]);
        // every bit of `small` is set in `big`
        assert_eq!(small.and_count(&big), small.count_ones());
    }

    #[test]
    fn encode_into_accumulates() {
        let e = encoder(HashingScheme::DoubleHashing);
        let mut acc = BitVec::zeros(512);
        e.encode_tokens_into(&["ab"], &mut acc).unwrap();
        e.encode_tokens_into(&["cd"], &mut acc).unwrap();
        let direct = e.encode_tokens(&["ab", "cd"]);
        assert_eq!(acc, direct);
    }

    #[test]
    fn encode_into_wrong_length_is_typed_error() {
        let e = encoder(HashingScheme::DoubleHashing);
        let mut short = BitVec::zeros(8);
        let err = e.encode_tokens_into(&["ab"], &mut short).unwrap_err();
        assert!(matches!(err, PprlError::ShapeMismatch { .. }), "{err}");
    }

    #[test]
    fn similar_token_sets_have_high_dice() {
        use pprl_similarity::bitvec_sim::dice_bits;
        let e = encoder(HashingScheme::DoubleHashing);
        let a = e.encode_tokens(&["sm", "mi", "it", "th"]);
        let b = e.encode_tokens(&["sm", "my", "yt", "th"]);
        let c = e.encode_tokens(&["jo", "on", "ne", "es"]);
        let sim_ab = dice_bits(&a, &b).unwrap();
        let sim_ac = dice_bits(&a, &c).unwrap();
        assert!(
            sim_ab > sim_ac,
            "smith~smyth {sim_ab} should beat smith~jones {sim_ac}"
        );
        assert!(sim_ab > 0.4);
    }

    #[test]
    fn optimal_k_formula() {
        // l/n = 10 → k = round(10·ln2) = 7
        assert_eq!(BloomParams::optimal_num_hashes(1000, 100), 7);
        assert_eq!(BloomParams::optimal_num_hashes(1000, 0), 1);
        assert!(BloomParams::optimal_num_hashes(10, 1000) >= 1);
    }

    #[test]
    fn false_positive_rate_monotone_in_n() {
        let e = encoder(HashingScheme::DoubleHashing);
        assert!(e.false_positive_rate(10) < e.false_positive_rate(100));
        assert!(e.false_positive_rate(100) < e.false_positive_rate(1000));
        assert!(e.false_positive_rate(0) < 1e-12);
    }

    #[test]
    fn memo_agrees_with_positions_within_and_beyond_its_budget() {
        for scheme in [HashingScheme::DoubleHashing, HashingScheme::KIndependent] {
            let e = encoder(scheme);
            let mut memo = TokenMemo::default();
            let mut budget = 2;
            let mut filter = BitVec::zeros(512);
            let mut expect = BitVec::zeros(512);
            // Repeats of memoised and of unmemoised tokens, interleaved.
            for token in ["ab", "bc", "cd", "ab", "de", "cd", "bc", "de"] {
                memo.encode(&e, "f", token, &mut filter, &mut budget);
                for p in e.positions(&format!("f|{token}")) {
                    expect.set(p);
                }
                assert_eq!(filter, expect, "{scheme:?} after {token}");
            }
            // Only the budgeted tokens were kept, with their positions.
            assert_eq!((memo.starts.len(), budget), (2, 0));
            assert_eq!(memo.positions.len(), 2 * e.num_hashes());
        }
    }

    #[test]
    fn schemes_differ() {
        let d = encoder(HashingScheme::DoubleHashing);
        let k = encoder(HashingScheme::KIndependent);
        assert_ne!(d.positions("ab"), k.positions("ab"));
    }
}
