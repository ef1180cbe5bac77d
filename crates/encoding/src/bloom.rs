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
use pprl_core::hash::{fnv1a, mix128};
use pprl_crypto::sha::{digest_prefix_u64, hmac_sha256, Compression, Hmac, HmacKey, HmacSha1Key};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

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

    fn validate(&self) -> Result<()> {
        if self.len == 0 {
            return Err(PprlError::invalid("len", "filter length must be positive"));
        }
        if self.len as u64 > 1 << 32 {
            return Err(PprlError::invalid(
                "len",
                "filter length must be at most 2^32 bits",
            ));
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
    /// Field values `encode_rows` tokenised on this thread, for tests.
    pub(crate) static VALUES_TOKENISED: std::cell::Cell<usize> =
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

    /// Calls `f` with the `k` bit positions (possibly repeating) of
    /// `token` (of `field|token`, given a field): all the hashing a token
    /// ever costs. Positions fit a `u32`: `validate` caps the length.
    fn for_each_position(&self, field: Option<&str>, token: &str, mut f: impl FnMut(u32)) {
        let l = self.params.len as u64;
        match &self.hasher {
            TokenHasher::Double(sha1_key, sha256_key) => {
                let h1 = keyed_hash(sha1_key, field, token) % l;
                let h2 = keyed_hash(sha256_key, field, token) % l;
                // With h2 = 0 every position would collapse onto h1.
                let h2 = h2.max(1);
                for i in 0..self.params.num_hashes as u64 {
                    f(((h1 + i * h2) % l) as u32);
                }
            }
            TokenHasher::KIndependent(keys) => {
                for key in keys {
                    f((keyed_hash(key, field, token) % l) as u32);
                }
            }
        }
    }

    /// Bit positions for one token (with possible duplicates).
    pub fn positions(&self, token: &str) -> Vec<usize> {
        let mut positions = Vec::with_capacity(self.params.num_hashes);
        self.for_each_position(None, token, |p| positions.push(p as usize));
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
        for t in tokens {
            self.for_each_position(None, t.as_ref(), |p| filter.set(p as usize));
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

/// The tokens one field encoder has hashed so far in one
/// `EncodeScratch`, so that each distinct token of a column is hashed
/// once and every repeat costs one exact lookup and `k` word ORs.
/// Scoped to the scratch and to the encoder: nothing outlives the key it
/// was computed under.
#[derive(Debug, Default)]
pub(crate) struct PositionMemo {
    /// Tokens of at most 15 bytes, by [`packed_key`] → where their `k`
    /// positions start in `positions`.
    short: HashMap<u128, u32, BuildHasherDefault<PackedKeyHasher>>,
    /// Longer tokens, by their text.
    long: HashMap<String, u32>,
    positions: Vec<u32>,
}

/// `bytes` with their length in the top byte, if there are at most 15:
/// equal keys are equal bytes, so a lookup never needs the text.
fn packed_key(bytes: &[u8]) -> Option<u128> {
    if bytes.len() > 15 {
        return None;
    }
    let mut halves = [0u64, (bytes.len() as u64) << 56];
    for (i, &b) in bytes.iter().enumerate() {
        halves[i / 8] |= u64::from(b) << (8 * (i % 8));
    }
    Some(u128::from(halves[0]) | u128::from(halves[1]) << 64)
}

/// Hashes [`PositionMemo`]'s packed keys with [`mix128`].
#[derive(Debug, Default)]
struct PackedKeyHasher(u64);

impl Hasher for PackedKeyHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("the memo hashes only packed u128 keys");
    }

    fn write_u128(&mut self, key: u128) {
        self.0 = mix128(key);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Sets `positions` in a filter's backing words.
fn or_positions(words: &mut [u64], positions: &[u32]) {
    for &p in positions {
        words[(p / 64) as usize] |= 1 << (p % 64);
    }
}

impl PositionMemo {
    /// ORs the bits of `field|token` under `encoder` into `words`, the
    /// backing words of a filter of the encoder's length. A token not
    /// seen before is hashed, and remembered while `budget` (entries the
    /// caller still allows) lasts.
    pub(crate) fn encode(
        &mut self,
        encoder: &BloomEncoder,
        field: &str,
        token: &str,
        words: &mut [u64],
        budget: &mut usize,
    ) {
        let key = packed_key(token.as_bytes());
        let held = match key {
            Some(key) => self.short.get(&key),
            None => self.long.get(token),
        };
        match held {
            Some(&start) => {
                let start = start as usize;
                or_positions(words, &self.positions[start..start + encoder.num_hashes()]);
            }
            None => self.hash(encoder, field, token, key, words, budget),
        }
    }

    /// [`PositionMemo::encode`] of a token not in the memo: out of line,
    /// so that the lookup path stays small.
    #[cold]
    #[inline(never)]
    fn hash(
        &mut self,
        encoder: &BloomEncoder,
        field: &str,
        token: &str,
        key: Option<u128>,
        words: &mut [u64],
        budget: &mut usize,
    ) {
        let start = self.positions.len();
        let fits = u32::try_from(start + encoder.num_hashes()).is_ok();
        if *budget == 0 || !fits {
            return encoder.for_each_position(Some(field), token, |p| {
                or_positions(words, &[p]);
            });
        }
        *budget -= 1;
        encoder.for_each_position(Some(field), token, |p| self.positions.push(p));
        or_positions(words, &self.positions[start..]);
        let start = start as u32;
        match key {
            Some(key) => self.short.insert(key, start),
            None => self.long.insert(token.to_owned(), start),
        };
    }
}

/// The values one field encoder has encoded in one `EncodeScratch`, each
/// with its filter words: a repeat costs one exact lookup and 8 word ORs
/// at 512 bits. Equal caller keys must tokenise alike.
#[derive(Debug, Default)]
pub(crate) struct ValueMemo {
    /// Keys of at most 14 bytes, by [`filing`] → their entry.
    short: HashMap<u128, u32, BuildHasherDefault<PackedKeyHasher>>,
    /// Longer keys, by [`filing`] → their entry and where their bytes
    /// start in `arena`.
    long: HashMap<u128, (u32, u32), BuildHasherDefault<PackedKeyHasher>>,
    arena: Vec<u8>,
    /// Every entry's filter words, back to back.
    words: Vec<u64>,
    /// Lookups so far, and how many of them hit.
    lookups: u64,
    hits: u64,
}

impl ValueMemo {
    /// ORs the words held for the value keyed `key` (a tag and bytes)
    /// into `words`, if there are any.
    pub(crate) fn get(&mut self, key: (u8, &[u8]), words: &mut [u64]) -> bool {
        self.lookups += 1;
        let held = match filing(key) {
            Ok(short) => self.short.get(&short).copied(),
            Err(long) => self
                .long
                .get(&long)
                .filter(|&&(_, at)| self.arena[at as usize..].starts_with(key.1))
                .map(|&(entry, _)| entry),
        };
        if let Some(entry) = held {
            self.hits += 1;
            or_words(words, &self.words[entry as usize * words.len()..]);
        }
        held.is_some()
    }

    /// False once under 1 in 64 of at least 1,024 lookups have hit: a
    /// field whose values do not repeat is not worth looking up.
    pub(crate) fn repeats(&self) -> bool {
        self.lookups < 1024 || self.hits >= self.lookups / 64
    }

    /// Remembers `entry`, the words of the value keyed `key`, while
    /// `budget` (bytes the caller still allows) lasts: the first entry
    /// that does not fit spends it.
    pub(crate) fn insert(&mut self, key: (u8, &[u8]), entry: &[u64], budget: &mut usize) {
        let filing = filing(key);
        let cost = 8 * entry.len() + filing.map_or(key.1.len(), |_| 0);
        if *budget < cost {
            *budget = 0;
            return;
        }
        // Within the budget, entries and arena offsets fit a `u32`.
        let at = (self.words.len() / entry.len()) as u32;
        match filing {
            Ok(short) => {
                self.short.insert(short, at);
            }
            // Of two long keys filed alike, only the first is kept.
            Err(long) if self.long.contains_key(&long) => return,
            Err(long) => {
                self.long.insert(long, (at, self.arena.len() as u32));
                self.arena.extend_from_slice(key.1);
            }
        }
        self.words.extend_from_slice(entry);
        *budget -= cost;
    }
}

/// ORs `held` into `words`, word by word.
pub(crate) fn or_words(words: &mut [u64], held: &[u64]) {
    for (word, held) in words.iter_mut().zip(held) {
        *word |= held;
    }
}

/// Where [`ValueMemo`] files a key: packed whole with its tag in the 15th
/// byte up to 14 bytes, else by its tag, length and FNV-1a hash.
fn filing((tag, bytes): (u8, &[u8])) -> std::result::Result<u128, u128> {
    match packed_key(bytes).filter(|_| bytes.len() < 15) {
        Some(packed) => Ok(packed | u128::from(tag) << 112),
        None => Err(u128::from(tag) << 96 | (bytes.len() as u128) << 64 | u128::from(fnv1a(bytes))),
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
        // Positions are kept as `u32`.
        if let Ok(len) = usize::try_from((1u64 << 32) + 1) {
            assert!(BloomEncoder::new(BloomParams {
                len,
                num_hashes: 1,
                scheme: HashingScheme::DoubleHashing,
                key: vec![],
            })
            .is_err());
        }
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
            let mut memo = PositionMemo::default();
            let mut budget = 3;
            let mut words = vec![0; BitVec::words_for_len(512)];
            let mut expect = BitVec::zeros(512);
            // Repeats of memoised and of unmemoised tokens, interleaved,
            // short and long (more than 15 bytes) alike.
            let long = "a token of twenty bytes";
            for token in ["ab", long, "bc", "cd", "ab", long, "de", "cd", "bc", "de"] {
                memo.encode(&e, "f", token, &mut words, &mut budget);
                for p in e.positions(&format!("f|{token}")) {
                    expect.set(p);
                }
                assert_eq!(words, expect.as_words(), "{scheme:?} after {token}");
            }
            // Only the budgeted tokens were kept, with their positions.
            assert_eq!((memo.short.len(), memo.long.len(), budget), (2, 1, 0));
            assert_eq!(memo.positions.len(), 3 * e.num_hashes());
        }
    }

    #[test]
    fn packed_keys_are_exact_up_to_15_bytes() {
        let tokens = [
            "",
            "a",
            "a\0",
            "ab",
            "ba",
            "full:1987-06-05",
            "full:1987-06-050",
        ];
        let keys: Vec<Option<u128>> = tokens.iter().map(|t| packed_key(t.as_bytes())).collect();
        assert!(keys[..6].iter().all(Option::is_some) && keys[6].is_none());
        let distinct: std::collections::HashSet<_> = keys[..6].iter().collect();
        assert_eq!(distinct.len(), 6);
    }

    #[test]
    fn schemes_differ() {
        let d = encoder(HashingScheme::DoubleHashing);
        let k = encoder(HashingScheme::KIndependent);
        assert_ne!(d.positions("ab"), k.positions("ab"));
    }
}
