//! SHA-1 and SHA-256, implemented from the FIPS 180-4 specification.
//!
//! Bloom-filter PPRL traditionally uses the *double hashing* scheme of
//! Schnell et al. with two independent cryptographic hash functions (SHA-1
//! and MD5 in the original; we use SHA-1 and SHA-256). These implementations
//! are bit-exact against the FIPS test vectors (see tests) and are the only
//! hash primitives in the workspace.

/// Output of SHA-256 (32 bytes).
pub type Sha256Digest = [u8; 32];
/// Output of SHA-1 (20 bytes).
pub type Sha1Digest = [u8; 20];

const SHA256_K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const SHA256_IV: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

const SHA1_IV: [u32; 5] = [0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0];

/// Big-endian words of a 64-byte block (the first 16 schedule words).
fn load_block(w: &mut [u32], block: &[u8; 64]) {
    for (word, bytes) in w.iter_mut().zip(block.chunks_exact(4)) {
        *word = u32::from_be_bytes(bytes.try_into().expect("4-byte chunk"));
    }
}

/// What SHA-1 and SHA-256 differ in: the chaining state, its initial
/// value and the compression of one 64-byte block into it. Buffering,
/// padding and HMAC are written once over this in [`Hasher`] and
/// [`Hmac`].
pub trait Compression: Copy {
    /// The digest: the chaining state as big-endian bytes.
    type Digest: Copy + Default + AsRef<[u8]> + AsMut<[u8]>;
    /// The initial chaining state.
    const IV: Self;
    /// Compresses one block into the state.
    fn compress(&mut self, block: &[u8; 64]);
    /// The state's words, in order.
    fn words(&self) -> &[u32];
}

impl Compression for [u32; 8] {
    type Digest = Sha256Digest;
    const IV: Self = SHA256_IV;

    fn compress(&mut self, block: &[u8; 64]) {
        let mut w = [0u32; 64];
        load_block(&mut w, block);
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut hh] = *self;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ ((!e) & g);
            let temp1 = hh
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(SHA256_K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let temp2 = s0.wrapping_add(maj);
            hh = g;
            g = f;
            f = e;
            e = d.wrapping_add(temp1);
            d = c;
            c = b;
            b = a;
            a = temp1.wrapping_add(temp2);
        }
        for (h, x) in self.iter_mut().zip([a, b, c, d, e, f, g, hh]) {
            *h = h.wrapping_add(x);
        }
    }

    fn words(&self) -> &[u32] {
        self
    }
}

impl Compression for [u32; 5] {
    type Digest = Sha1Digest;
    const IV: Self = SHA1_IV;

    fn compress(&mut self, block: &[u8; 64]) {
        let mut w = [0u32; 80];
        load_block(&mut w, block);
        for i in 16..80 {
            w[i] = (w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16]).rotate_left(1);
        }
        let [mut a, mut b, mut c, mut d, mut e] = *self;
        for (i, &wi) in w.iter().enumerate() {
            let (f, k) = match i {
                0..=19 => ((b & c) | ((!b) & d), 0x5A827999u32),
                20..=39 => (b ^ c ^ d, 0x6ED9EBA1),
                40..=59 => ((b & c) | (b & d) | (c & d), 0x8F1BBCDC),
                _ => (b ^ c ^ d, 0xCA62C1D6),
            };
            let temp = a
                .rotate_left(5)
                .wrapping_add(f)
                .wrapping_add(e)
                .wrapping_add(k)
                .wrapping_add(wi);
            e = d;
            d = c;
            c = b.rotate_left(30);
            b = a;
            a = temp;
        }
        for (h, x) in self.iter_mut().zip([a, b, c, d, e]) {
            *h = h.wrapping_add(x);
        }
    }

    fn words(&self) -> &[u32] {
        self
    }
}

/// An incremental hash computation over a [`Compression`] state.
///
/// Allocation-free: input is absorbed block by block into a fixed
/// 64-byte buffer, so hot paths (per-frame MACs, keystreams, Bloom
/// positions) can hash without touching the heap. Resumable from a saved
/// compression state — that is what lets [`Hmac`] pay for its key pads
/// exactly once.
#[derive(Debug, Clone)]
pub struct Hasher<C> {
    state: C,
    buf: [u8; 64],
    buf_len: usize,
    /// Total bytes absorbed so far (including any resumed-from prefix).
    len: u64,
}

/// Streaming SHA-256.
pub type Sha256 = Hasher<[u32; 8]>;
/// Streaming SHA-1.
pub type Sha1 = Hasher<[u32; 5]>;

impl<C: Compression> Default for Hasher<C> {
    fn default() -> Self {
        Self::new()
    }
}

impl<C: Compression> Hasher<C> {
    /// Starts a fresh hash.
    pub fn new() -> Self {
        Self::from_midstate(C::IV, 0)
    }

    /// Resumes from a saved compression state after `len` bytes were
    /// already absorbed (`len` must be a multiple of 64).
    fn from_midstate(state: C, len: u64) -> Self {
        debug_assert_eq!(len % 64, 0);
        Hasher {
            state,
            buf: [0u8; 64],
            buf_len: 0,
            len,
        }
    }

    /// Absorbs `data`.
    pub fn update(&mut self, data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        let mut rest = data;
        if self.buf_len > 0 {
            let take = rest.len().min(64 - self.buf_len);
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
            self.buf_len += take;
            rest = &rest[take..];
            if self.buf_len < 64 {
                // `rest` is empty: everything fit in the partial buffer.
                return;
            }
            let block = self.buf;
            self.state.compress(&block);
            self.buf_len = 0;
        }
        let mut chunks = rest.chunks_exact(64);
        for block in &mut chunks {
            self.state
                .compress(block.try_into().expect("64-byte chunk"));
        }
        let tail = chunks.remainder();
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
    }

    /// Pads, finishes, and writes the digest into `out`.
    pub fn finalize_into(mut self, out: &mut C::Digest) {
        let bit_len = self.len.wrapping_mul(8);
        let mut block = [0u8; 64];
        block[..self.buf_len].copy_from_slice(&self.buf[..self.buf_len]);
        block[self.buf_len] = 0x80;
        if self.buf_len >= 56 {
            self.state.compress(&block);
            block = [0u8; 64];
        }
        block[56..].copy_from_slice(&bit_len.to_be_bytes());
        self.state.compress(&block);
        for (bytes, word) in out.as_mut().chunks_exact_mut(4).zip(self.state.words()) {
            bytes.copy_from_slice(&word.to_be_bytes());
        }
    }

    /// Pads, finishes, and returns the digest.
    pub fn finalize(self) -> C::Digest {
        let mut out = C::Digest::default();
        self.finalize_into(&mut out);
        out
    }
}

/// Computes the SHA-256 digest of `data`.
pub fn sha256(data: &[u8]) -> Sha256Digest {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// Computes the SHA-1 digest of `data`.
pub fn sha1(data: &[u8]) -> Sha1Digest {
    let mut h = Sha1::new();
    h.update(data);
    h.finalize()
}

/// An HMAC key with precomputed ipad/opad midstates.
///
/// RFC 2104 HMAC hashes `(key ⊕ ipad) ‖ message` and then
/// `(key ⊕ opad) ‖ inner`. Both pad blocks depend only on the key, so
/// their compression states are computed once here; every subsequent
/// [`mac`](Hmac::mac) resumes from the midstates and pays ~2
/// compression calls for a short message instead of 4. That halves the
/// per-frame MAC cost of a session that keeps the key for thousands of
/// frames, and the per-token cost of a Bloom encoder that keeps it for a
/// whole dataset, and it is exactly as strong — the midstates are a pure
/// restatement of the standard computation.
#[derive(Debug, Clone)]
pub struct Hmac<C> {
    inner: C,
    outer: C,
}

/// HMAC-SHA-256 key with cached pad midstates.
pub type HmacKey = Hmac<[u32; 8]>;
/// HMAC-SHA-1 key with cached pad midstates.
pub type HmacSha1Key = Hmac<[u32; 5]>;

impl<C: Compression> Hmac<C> {
    /// Derives the pad midstates from `key` (hashed first if longer than
    /// the 64-byte block, per RFC 2104).
    pub fn new(key: &[u8]) -> Self {
        let mut key_block = [0u8; 64];
        if key.len() > 64 {
            let mut h = Hasher::<C>::new();
            h.update(key);
            let digest = h.finalize();
            key_block[..digest.as_ref().len()].copy_from_slice(digest.as_ref());
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }
        let midstate = |pad: u8| {
            let mut state = C::IV;
            state.compress(&key_block.map(|k| k ^ pad));
            state
        };
        Hmac {
            inner: midstate(0x36),
            outer: midstate(0x5c),
        }
    }

    /// Starts the inner hash, resumed past the key pad. Feed the message
    /// with [`Hasher::update`], then call [`finish`](Hmac::finish).
    pub fn begin(&self) -> Hasher<C> {
        Hasher::from_midstate(self.inner, 64)
    }

    /// Completes an HMAC whose inner hash was started with
    /// [`begin`](Hmac::begin), writing the tag into `out`.
    pub fn finish_into(&self, inner: Hasher<C>, out: &mut C::Digest) {
        let mut digest = C::Digest::default();
        inner.finalize_into(&mut digest);
        let mut outer = Hasher::from_midstate(self.outer, 64);
        outer.update(digest.as_ref());
        outer.finalize_into(out);
    }

    /// Completes an HMAC whose inner hash was started with
    /// [`begin`](Hmac::begin).
    pub fn finish(&self, inner: Hasher<C>) -> C::Digest {
        let mut out = C::Digest::default();
        self.finish_into(inner, &mut out);
        out
    }

    /// One-shot MAC over `message` (allocation-free).
    pub fn mac(&self, message: &[u8]) -> C::Digest {
        let mut state = self.begin();
        state.update(message);
        self.finish(state)
    }
}

/// HMAC-SHA-256 (RFC 2104) — the keyed hash used for salted/keyed Bloom
/// filter encodings so that only parties holding the shared secret can
/// reproduce bit positions. One-shot; callers MACing many messages under
/// one key should hold an [`HmacKey`] instead to reuse the pad midstates.
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> Sha256Digest {
    HmacKey::new(key).mac(message)
}

/// HMAC-SHA-1 (RFC 2104); second independent keyed hash for double
/// hashing. One-shot, like [`hmac_sha256`]; see [`HmacSha1Key`].
pub fn hmac_sha1(key: &[u8], message: &[u8]) -> Sha1Digest {
    HmacSha1Key::new(key).mac(message)
}

/// Constant-time equality for digests, MACs, and checksums.
///
/// `derive(PartialEq)` on byte slices short-circuits at the first
/// mismatch, so the comparison time leaks how many leading bytes an
/// attacker guessed right — enough, over a network, to forge a MAC one
/// byte at a time. This compare accumulates the XOR of every byte pair
/// and only inspects the accumulator at the end; the length check is
/// not secret (frame layouts are public). Use it whenever the
/// comparison input can be chosen by a peer: frame MACs, handshake
/// confirmations, stored-key fingerprints.
pub fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut acc = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        acc |= x ^ y;
    }
    // black_box keeps the optimiser from rediscovering the early exit.
    std::hint::black_box(acc) == 0
}

/// First 8 bytes of a digest as a big-endian `u64` (for hash-to-index use).
pub fn digest_prefix_u64(digest: &[u8]) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&digest[..8]);
    u64::from_be_bytes(b)
}

/// Lower-case hex rendering of a digest.
pub fn to_hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sha256_fips_vectors() {
        assert_eq!(
            to_hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            to_hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            to_hex(&sha256(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn sha256_long_input() {
        // FIPS: one million 'a' characters.
        let million_a = vec![b'a'; 1_000_000];
        assert_eq!(
            to_hex(&sha256(&million_a)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn sha1_fips_vectors() {
        assert_eq!(
            to_hex(&sha1(b"abc")),
            "a9993e364706816aba3e25717850c26c9cd0d89d"
        );
        assert_eq!(
            to_hex(&sha1(b"")),
            "da39a3ee5e6b4b0d3255bfef95601890afd80709"
        );
        assert_eq!(
            to_hex(&sha1(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
        );
    }

    #[test]
    fn hmac_sha256_rfc4231_vectors() {
        // RFC 4231 test case 1.
        let key = [0x0b; 20];
        assert_eq!(
            to_hex(&hmac_sha256(&key, b"Hi There")),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
        // Test case 2: key "Jefe".
        assert_eq!(
            to_hex(&hmac_sha256(b"Jefe", b"what do ya want for nothing?")),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
        // Test case 6: key longer than the block size.
        let long_key = [0xaa; 131];
        assert_eq!(
            to_hex(&hmac_sha256(
                &long_key,
                b"Test Using Larger Than Block-Size Key - Hash Key First"
            )),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn sha1_long_and_uneven_streaming() {
        // FIPS 180: one million 'a' characters, one-shot and fed in
        // uneven slices that straddle the 64-byte block boundary.
        let million_a = vec![b'a'; 1_000_000];
        let expect = "34aa973cd4c4daa4f61eeb2bdbad27316534016f";
        assert_eq!(to_hex(&sha1(&million_a)), expect);
        let mut h = Sha1::new();
        let mut rest = &million_a[..];
        for step in [1usize, 63, 64, 65, 7, 129, 1000].iter().cycle() {
            let (head, tail) = rest.split_at((*step).min(rest.len()));
            h.update(head);
            rest = tail;
            if rest.is_empty() {
                break;
            }
        }
        assert_eq!(to_hex(&h.finalize()), expect);
        // FIPS 180 two-block message.
        let two_block = b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn\
hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu";
        let mut h = Sha1::new();
        for chunk in two_block.chunks(13) {
            h.update(chunk);
        }
        assert_eq!(
            to_hex(&h.finalize()),
            "a49b2446a02c645bf419f995b67091253a04a259"
        );
    }

    #[test]
    fn hmac_sha1_rfc2202_vectors() {
        // RFC 2202 test cases 1-7, one-shot and through the cached key.
        let cases: [(&[u8], &[u8], &str); 7] = [
            (
                &[0x0b; 20],
                b"Hi There",
                "b617318655057264e28bc0b6fb378c8ef146be00",
            ),
            (
                b"Jefe",
                b"what do ya want for nothing?",
                "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79",
            ),
            (
                &[0xaa; 20],
                &[0xdd; 50],
                "125d7342b9ac11cd91a39af48aa17b4f63f175d3",
            ),
            (
                &[
                    1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22,
                    23, 24, 25,
                ],
                &[0xcd; 50],
                "4c9007f4026250c6bc8414f9bf50c86c2d7235da",
            ),
            (
                &[0x0c; 20],
                b"Test With Truncation",
                "4c1a03424b55e07fe7f27be1d58bb9324a9a5a04",
            ),
            (
                &[0xaa; 80],
                b"Test Using Larger Than Block-Size Key - Hash Key First",
                "aa4ae5e15272d00e95705637ce8a3b55ed402112",
            ),
            (
                &[0xaa; 80],
                b"Test Using Larger Than Block-Size Key and Larger Than One Block-Size Data",
                "e8e99d0f45237d786d6bbaa7965c7808bbff1a91",
            ),
        ];
        for (key, message, expect) in cases {
            assert_eq!(to_hex(&hmac_sha1(key, message)), expect);
            let cached = HmacSha1Key::new(key);
            let mut state = cached.begin();
            for chunk in message.chunks(9) {
                state.update(chunk);
            }
            assert_eq!(to_hex(&cached.finish(state)), expect);
        }
    }

    #[test]
    fn different_keys_give_different_macs() {
        let m = b"peter";
        assert_ne!(hmac_sha256(b"k1", m), hmac_sha256(b"k2", m));
        assert_ne!(hmac_sha1(b"k1", m), hmac_sha1(b"k2", m));
    }

    #[test]
    fn ct_eq_matches_derived_partial_eq() {
        // On every input pair, ct_eq must agree exactly with the slice
        // PartialEq it replaces — it changes timing, never the answer.
        let mut x = 0x9e37_79b9u64;
        let mut step = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for len in [0usize, 1, 8, 20, 32, 33, 64] {
            for _ in 0..50 {
                let a: Vec<u8> = (0..len).map(|_| step() as u8).collect();
                let mut b = a.clone();
                assert_eq!(ct_eq(&a, &b), a == b);
                assert!(ct_eq(&a, &b));
                if len > 0 {
                    // Flip one bit: both compares must say "different".
                    let r = step();
                    let pos = (r as usize) % len;
                    b[pos] ^= 1 << ((r >> 8) % 8);
                    assert_eq!(ct_eq(&a, &b), a == b);
                    assert!(!ct_eq(&a, &b));
                }
            }
        }
        // Length mismatches are unequal, like PartialEq on slices.
        assert!(!ct_eq(b"abc", b"abcd"));
        assert!(!ct_eq(b"abcd", b"abc"));
        assert!(ct_eq(b"", b""));
    }

    #[test]
    fn ct_eq_on_real_macs() {
        let a = hmac_sha256(b"k1", b"msg");
        let b = hmac_sha256(b"k1", b"msg");
        let c = hmac_sha256(b"k2", b"msg");
        assert!(ct_eq(&a, &b));
        assert!(!ct_eq(&a, &c));
        assert_eq!(ct_eq(&a, &c), a == c);
    }

    #[test]
    fn digest_prefix() {
        let d = sha256(b"abc");
        let p = digest_prefix_u64(&d);
        assert_eq!(p >> 56, d[0] as u64);
    }

    #[test]
    fn streaming_matches_one_shot_for_every_split() {
        // Absorbing the same bytes in any chunking must give the same
        // digest as the one-shot hash, across the padding boundaries.
        let data: Vec<u8> = (0..257u16).map(|i| (i * 31 + 7) as u8).collect();
        for len in [0usize, 1, 55, 56, 63, 64, 65, 127, 128, 200, 257] {
            let expect = sha256(&data[..len]);
            for split in 0..=len {
                let mut h = Sha256::new();
                h.update(&data[..split]);
                h.update(&data[split..len]);
                assert_eq!(h.finalize(), expect, "len {len} split {split}");
            }
            // Byte-at-a-time.
            let mut h = Sha256::new();
            for b in &data[..len] {
                h.update(std::slice::from_ref(b));
            }
            assert_eq!(h.finalize(), expect, "len {len} byte-at-a-time");
        }
    }

    #[test]
    fn hmac_key_matches_one_shot() {
        // The cached-midstate path must be bit-identical to the direct
        // RFC 2104 computation for every key/message length class.
        let msg: Vec<u8> = (0..150u8).collect();
        for key_len in [0usize, 1, 20, 32, 63, 64, 65, 131] {
            let key: Vec<u8> = (0..key_len).map(|i| (i * 17 + 3) as u8).collect();
            let hk = HmacKey::new(&key);
            for msg_len in [0usize, 1, 27, 64, 150] {
                assert_eq!(
                    hk.mac(&msg[..msg_len]),
                    hmac_sha256(&key, &msg[..msg_len]),
                    "key {key_len} msg {msg_len}"
                );
                // Streaming begin/update/finish agrees too.
                let mut state = hk.begin();
                for chunk in msg[..msg_len].chunks(7) {
                    state.update(chunk);
                }
                assert_eq!(hk.finish(state), hmac_sha256(&key, &msg[..msg_len]));
            }
        }
    }

    #[test]
    fn hmac_key_rfc4231_vectors() {
        let key = [0x0b; 20];
        assert_eq!(
            to_hex(&HmacKey::new(&key).mac(b"Hi There")),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
        let long_key = [0xaa; 131];
        assert_eq!(
            to_hex(
                &HmacKey::new(&long_key)
                    .mac(b"Test Using Larger Than Block-Size Key - Hash Key First")
            ),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn padding_boundary_lengths() {
        // Hash inputs around the 55/56/64-byte padding boundaries; verify
        // determinism and that nearby lengths produce unrelated digests.
        for len in 53..70usize {
            let a = sha256(&vec![0x61; len]);
            let b = sha256(&vec![0x61; len]);
            assert_eq!(a, b);
            let c = sha256(&vec![0x61; len + 1]);
            assert_ne!(a, c);
        }
    }
}
