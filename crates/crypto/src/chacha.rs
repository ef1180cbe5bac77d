//! ChaCha20 (RFC 8439), implemented from the specification.
//!
//! The session record layer needs a fast keystream: the original
//! HMAC-SHA256 counter mode pays four SHA-256 compression calls per 32
//! bytes of body, while one ChaCha20 block function call emits 64 bytes
//! — roughly an order of magnitude fewer rounds per byte, with nothing
//! but `std` arithmetic (add/rotate/xor on `u32`). This module provides
//! the bare block function and a seekable keystream over it; it is a
//! *keystream*, not an AEAD — authenticity comes from the session
//! layer's encrypt-then-MAC with a Poly1305 tag (see
//! `pprl-session::channel`).
//!
//! Layout per RFC 8439 §2.3: a 4×4 state of `u32` words — 4 constant
//! words, 8 key words, a 32-bit block counter, and 3 nonce words (12
//! bytes). The keystream for block `i` is independent of every other
//! block, which is what makes the stream seekable: the channel derives
//! block positions from the frame sequence number alone.

/// One 64-byte ChaCha20 keystream block.
pub type ChaChaBlock = [u8; 64];

const CONSTANTS: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

#[inline(always)]
fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

/// The ChaCha20 block function: 20 rounds over the state for
/// (`key`, `counter`, `nonce`), serialised little-endian (RFC 8439
/// §2.3).
pub fn chacha20_block(key: &[u8; 32], counter: u32, nonce: &[u8; 12]) -> ChaChaBlock {
    let mut state = [0u32; 16];
    state[..4].copy_from_slice(&CONSTANTS);
    for (i, chunk) in key.chunks_exact(4).enumerate() {
        state[4 + i] = u32::from_le_bytes(chunk.try_into().expect("4-byte chunk"));
    }
    state[12] = counter;
    for (i, chunk) in nonce.chunks_exact(4).enumerate() {
        state[13 + i] = u32::from_le_bytes(chunk.try_into().expect("4-byte chunk"));
    }
    let mut working = state;
    for _ in 0..10 {
        // Column rounds.
        quarter_round(&mut working, 0, 4, 8, 12);
        quarter_round(&mut working, 1, 5, 9, 13);
        quarter_round(&mut working, 2, 6, 10, 14);
        quarter_round(&mut working, 3, 7, 11, 15);
        // Diagonal rounds.
        quarter_round(&mut working, 0, 5, 10, 15);
        quarter_round(&mut working, 1, 6, 11, 12);
        quarter_round(&mut working, 2, 7, 8, 13);
        quarter_round(&mut working, 3, 4, 9, 14);
    }
    let mut out = [0u8; 64];
    for (i, (w, s)) in working.iter().zip(state.iter()).enumerate() {
        out[i * 4..i * 4 + 4].copy_from_slice(&w.wrapping_add(*s).to_le_bytes());
    }
    out
}

/// A seekable ChaCha20 keystream for one (key, nonce) pair.
///
/// Blocks are addressed by their 32-bit counter and generated
/// independently, so callers can jump to any position — the session
/// layer XORs frame `seq`'s body starting at counter 0 of a
/// per-sequence nonce, and never revisits a (nonce, counter) pair.
#[derive(Debug, Clone)]
pub struct ChaCha20 {
    key: [u8; 32],
    nonce: [u8; 12],
}

impl ChaCha20 {
    /// Binds the keystream to `key` and `nonce`.
    pub fn new(key: &[u8; 32], nonce: &[u8; 12]) -> ChaCha20 {
        ChaCha20 {
            key: *key,
            nonce: *nonce,
        }
    }

    /// The keystream block at `counter`.
    pub fn block(&self, counter: u32) -> ChaChaBlock {
        chacha20_block(&self.key, counter, &self.nonce)
    }

    /// XORs the keystream starting at block `counter` into `data` in
    /// place. Symmetric: applying it twice restores the input. Panics if
    /// `data` is long enough to overflow the 32-bit block counter
    /// (> ~256 GiB — far beyond any frame this workspace allows).
    pub fn apply(&self, counter: u32, data: &mut [u8]) {
        apply_keystream(&self.key, &self.nonce, counter, data);
    }
}

/// XORs the ChaCha20 keystream for (`key`, `nonce`) starting at block
/// `counter` into `data` in place, allocation-free.
pub fn apply_keystream(key: &[u8; 32], nonce: &[u8; 12], counter: u32, data: &mut [u8]) {
    let blocks = data.len().div_ceil(64);
    assert!(
        (counter as u64) + (blocks as u64) <= (u32::MAX as u64) + 1,
        "ChaCha20 block counter would overflow"
    );
    for (i, chunk) in data.chunks_mut(64).enumerate() {
        let block = chacha20_block(key, counter.wrapping_add(i as u32), nonce);
        for (b, k) in chunk.iter_mut().zip(block.iter()) {
            *b ^= k;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha::to_hex;

    fn hex_bytes(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    fn rfc_key() -> [u8; 32] {
        let mut key = [0u8; 32];
        for (i, b) in key.iter_mut().enumerate() {
            *b = i as u8;
        }
        key
    }

    #[test]
    fn rfc8439_2_3_2_block_function() {
        // RFC 8439 §2.3.2: key 00..1f, nonce 000000090000004a00000000,
        // counter 1.
        let nonce = [0, 0, 0, 9, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let block = chacha20_block(&rfc_key(), 1, &nonce);
        assert_eq!(
            to_hex(&block),
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e\
             d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e"
        );
    }

    #[test]
    fn rfc8439_2_4_2_encryption() {
        // RFC 8439 §2.4.2: the "sunscreen" plaintext, counter starting
        // at 1.
        let nonce = [0, 0, 0, 0, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let plaintext = b"Ladies and Gentlemen of the class of '99: If I could \
                          offer you only one tip for the future, sunscreen wou\
                          ld be it.";
        let mut data = plaintext.to_vec();
        ChaCha20::new(&rfc_key(), &nonce).apply(1, &mut data);
        assert_eq!(
            to_hex(&data),
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b\
             f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8\
             07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736\
             5af90bbf74a35be6b40b8eedf2785e42874d"
        );
        // Symmetry: applying again restores the plaintext.
        ChaCha20::new(&rfc_key(), &nonce).apply(1, &mut data);
        assert_eq!(&data, plaintext);
    }

    #[test]
    fn rfc8439_a1_keystream_vectors() {
        // Appendix A.1 test vectors for the block function.
        let zero_key = [0u8; 32];
        let zero_nonce = [0u8; 12];
        // Test vector #1: all zero, counter 0.
        assert_eq!(
            chacha20_block(&zero_key, 0, &zero_nonce).to_vec(),
            hex_bytes(
                "76b8e0ada0f13d90405d6ae55386bd28bdd219b8a08ded1aa836efcc8b770dc7\
                 da41597c5157488d7724e03fb8d84a376a43b8f41518a11cc387b669b2ee6586"
            )
        );
        // Test vector #2: all zero, counter 1.
        assert_eq!(
            chacha20_block(&zero_key, 1, &zero_nonce).to_vec(),
            hex_bytes(
                "9f07e7be5551387a98ba977c732d080dcb0f29a048e3656912c6533e32ee7aed\
                 29b721769ce64e43d57133b074d839d531ed1f28510afb45ace10a1f4b794d6f"
            )
        );
        // Test vector #3: key bit 255 set, counter 1.
        let mut key = [0u8; 32];
        key[31] = 1;
        assert_eq!(
            chacha20_block(&key, 1, &zero_nonce).to_vec(),
            hex_bytes(
                "3aeb5224ecf849929b9d828db1ced4dd832025e8018b8160b82284f3c949aa5a\
                 8eca00bbb4a73bdad192b5c42f73f2fd4e273644c8b36125a64addeb006c13a0"
            )
        );
        // Test vector #4: key byte 1 = 0xff, counter 2.
        let mut key = [0u8; 32];
        key[1] = 0xff;
        assert_eq!(
            chacha20_block(&key, 2, &zero_nonce).to_vec(),
            hex_bytes(
                "72d54dfbf12ec44b362692df94137f328fea8da73990265ec1bbbea1ae9af0ca\
                 13b25aa26cb4a648cb9b9d1be65b2c0924a66c54d545ec1b7374f4872e99f096"
            )
        );
        // Test vector #5: nonce byte 11 = 2, counter 0.
        let mut nonce = [0u8; 12];
        nonce[11] = 2;
        assert_eq!(
            chacha20_block(&zero_key, 0, &nonce).to_vec(),
            hex_bytes(
                "c2c64d378cd536374ae204b9ef933fcd1a8b2288b3dfa49672ab765b54ee27c7\
                 8a970e0e955c14f3a88e741b97c286f75f8fc299e8148362fa198a39531bed6d"
            )
        );
    }

    #[test]
    fn seek_matches_sequential() {
        // XORing a long buffer in one call must equal block-at-a-time
        // seeks — the definition of a seekable keystream.
        let key = rfc_key();
        let nonce = [7u8; 12];
        let stream = ChaCha20::new(&key, &nonce);
        let mut whole = vec![0u8; 200];
        stream.apply(5, &mut whole);
        for (i, chunk) in whole.chunks(64).enumerate() {
            let block = stream.block(5 + i as u32);
            assert_eq!(chunk, &block[..chunk.len()], "block {i}");
        }
    }

    #[test]
    fn distinct_nonces_and_counters_differ() {
        let key = rfc_key();
        let a = chacha20_block(&key, 0, &[0u8; 12]);
        let b = chacha20_block(&key, 1, &[0u8; 12]);
        let c = chacha20_block(&key, 0, &[1u8; 12]);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }

    #[test]
    fn counter_overflow_panics() {
        let stream = ChaCha20::new(&[0u8; 32], &[0u8; 12]);
        let mut data = vec![0u8; 65];
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            stream.apply(u32::MAX, &mut data);
        }));
        assert!(result.is_err());
    }
}
