//! Poly1305 (RFC 8439 §2.5), implemented from the specification.
//!
//! The session cipher suite authenticates each record-layer frame with a
//! Poly1305 tag under a one-time key drawn from the ChaCha20 keystream
//! (block 0 of a per-frame nonce, exactly the RFC 8439 AEAD key
//! schedule). One tag costs a handful of 32×32→64-bit multiplies per
//! 16 bytes of message — an order of magnitude cheaper than the four
//! SHA-256 compressions an HMAC tag pays on a short frame — with
//! nothing but `std` integer arithmetic.
//!
//! Poly1305 is a *one-time* authenticator: a key must never sign two
//! different messages. The session layer guarantees that by deriving a
//! fresh key from the strictly monotonic frame sequence number; this
//! module just computes the tag.
//!
//! The accumulator works in five 26-bit limbs (the classic "donna"
//! radix-2²⁶ layout): products of two 26-bit limbs fit comfortably in
//! a `u64`, and the prime 2¹³⁰ − 5 reduces by folding the high limbs
//! back in multiplied by 5.

/// A 16-byte Poly1305 authenticator tag.
pub type Poly1305Tag = [u8; 16];

const MASK26: u64 = 0x3ff_ffff;

#[inline(always)]
fn le32(bytes: &[u8]) -> u64 {
    u32::from_le_bytes(bytes.try_into().expect("4-byte chunk")) as u64
}

/// Computes the Poly1305 tag of `msg` under the 32-byte one-time `key`
/// (`r ‖ s` per RFC 8439 §2.5: `r` is clamped here). Allocation-free.
pub fn poly1305(key: &[u8; 32], msg: &[u8]) -> Poly1305Tag {
    // Clamp r (RFC 8439 §2.5: top four bits of r[3,7,11,15] and bottom
    // two bits of r[4,8,12] are zeroed), then split into 26-bit limbs.
    let mut r_bytes = [0u8; 16];
    r_bytes.copy_from_slice(&key[..16]);
    r_bytes[3] &= 15;
    r_bytes[7] &= 15;
    r_bytes[11] &= 15;
    r_bytes[15] &= 15;
    r_bytes[4] &= 252;
    r_bytes[8] &= 252;
    r_bytes[12] &= 252;
    let r0 = le32(&r_bytes[0..4]) & MASK26;
    let r1 = (le32(&r_bytes[3..7]) >> 2) & MASK26;
    let r2 = (le32(&r_bytes[6..10]) >> 4) & MASK26;
    let r3 = (le32(&r_bytes[9..13]) >> 6) & MASK26;
    let r4 = (le32(&r_bytes[12..16]) >> 8) & MASK26;
    // 5·r, used when folding limbs ≥ 2¹³⁰ back into the accumulator.
    let (s1, s2, s3, s4) = (r1 * 5, r2 * 5, r3 * 5, r4 * 5);

    let (mut h0, mut h1, mut h2, mut h3, mut h4) = (0u64, 0u64, 0u64, 0u64, 0u64);
    let mut chunks = msg.chunks_exact(16);
    let mut process = |block: &[u8; 17]| {
        // h += block (17th byte carries the 2¹²⁸ pad bit).
        h0 += le32(&block[0..4]) & MASK26;
        h1 += (le32(&block[3..7]) >> 2) & MASK26;
        h2 += (le32(&block[6..10]) >> 4) & MASK26;
        h3 += (le32(&block[9..13]) >> 6) & MASK26;
        h4 += (le32(&block[12..16]) >> 8) | ((block[16] as u64) << 24);
        // h *= r (mod 2¹³⁰ − 5): limbs that overflow 2¹³⁰ re-enter ×5.
        let d0 = h0 * r0 + h1 * s4 + h2 * s3 + h3 * s2 + h4 * s1;
        let d1 = h0 * r1 + h1 * r0 + h2 * s4 + h3 * s3 + h4 * s2;
        let d2 = h0 * r2 + h1 * r1 + h2 * r0 + h3 * s4 + h4 * s3;
        let d3 = h0 * r3 + h1 * r2 + h2 * r1 + h3 * r0 + h4 * s4;
        let d4 = h0 * r4 + h1 * r3 + h2 * r2 + h3 * r1 + h4 * r0;
        // Carry chain back to 26-bit limbs.
        let mut c;
        c = d0 >> 26;
        h0 = d0 & MASK26;
        let d1 = d1 + c;
        c = d1 >> 26;
        h1 = d1 & MASK26;
        let d2 = d2 + c;
        c = d2 >> 26;
        h2 = d2 & MASK26;
        let d3 = d3 + c;
        c = d3 >> 26;
        h3 = d3 & MASK26;
        let d4 = d4 + c;
        c = d4 >> 26;
        h4 = d4 & MASK26;
        h0 += c * 5;
        c = h0 >> 26;
        h0 &= MASK26;
        h1 += c;
    };
    for chunk in &mut chunks {
        let mut block = [0u8; 17];
        block[..16].copy_from_slice(chunk);
        block[16] = 1;
        process(&block);
    }
    let tail = chunks.remainder();
    if !tail.is_empty() {
        // Final partial block: append the pad bit, zero-fill (the pad
        // bit lands inside the 16 bytes, so byte 17 stays 0).
        let mut block = [0u8; 17];
        block[..tail.len()].copy_from_slice(tail);
        block[tail.len()] = 1;
        process(&block);
    }

    // Full reduction: h is < 2·(2¹³⁰ − 5); conditionally subtract the
    // prime by computing g = h + 5 − 2¹³⁰ and keeping it iff it did not
    // borrow. Branch-free select — the tag must not leak h via timing.
    let mut c;
    c = h1 >> 26;
    h1 &= MASK26;
    h2 += c;
    c = h2 >> 26;
    h2 &= MASK26;
    h3 += c;
    c = h3 >> 26;
    h3 &= MASK26;
    h4 += c;
    c = h4 >> 26;
    h4 &= MASK26;
    h0 += c * 5;
    c = h0 >> 26;
    h0 &= MASK26;
    h1 += c;

    let mut g0 = h0 + 5;
    c = g0 >> 26;
    g0 &= MASK26;
    let mut g1 = h1 + c;
    c = g1 >> 26;
    g1 &= MASK26;
    let mut g2 = h2 + c;
    c = g2 >> 26;
    g2 &= MASK26;
    let mut g3 = h3 + c;
    c = g3 >> 26;
    g3 &= MASK26;
    let g4 = h4.wrapping_add(c).wrapping_sub(1 << 26);
    // If g4's sign bit is clear, h ≥ p and g = h − p is the answer.
    let take_g = 0u64.wrapping_sub((g4 >> 63) ^ 1); // all-ones iff h ≥ p
    h0 = (h0 & !take_g) | (g0 & take_g);
    h1 = (h1 & !take_g) | (g1 & take_g);
    h2 = (h2 & !take_g) | (g2 & take_g);
    h3 = (h3 & !take_g) | (g3 & take_g);
    h4 = (h4 & !take_g) | ((g4 & MASK26) & take_g);

    // Serialise h to 128 bits and add s (mod 2¹²⁸).
    let lo = h0 | (h1 << 26) | (h2 << 52);
    let hi = (h2 >> 12) | (h3 << 14) | (h4 << 40);
    let s_lo = u64::from_le_bytes(key[16..24].try_into().expect("8 bytes"));
    let s_hi = u64::from_le_bytes(key[24..32].try_into().expect("8 bytes"));
    let (t_lo, carry) = lo.overflowing_add(s_lo);
    let t_hi = hi.wrapping_add(s_hi).wrapping_add(carry as u64);
    let mut tag = [0u8; 16];
    tag[..8].copy_from_slice(&t_lo.to_le_bytes());
    tag[8..].copy_from_slice(&t_hi.to_le_bytes());
    tag
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chacha::chacha20_block;
    use crate::sha::to_hex;

    fn hex_bytes(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    fn key_from_hex(s: &str) -> [u8; 32] {
        hex_bytes(s).try_into().unwrap()
    }

    #[test]
    fn rfc8439_2_5_2_tag() {
        let key = key_from_hex("85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b");
        let tag = poly1305(&key, b"Cryptographic Forum Research Group");
        assert_eq!(to_hex(&tag), "a8061dc1305136c6c22b8baf0c0127a9");
    }

    #[test]
    fn rfc8439_2_6_2_key_generation() {
        // The one-time key is the first 32 bytes of ChaCha20 block 0 —
        // the derivation the session layer uses per frame.
        let key = key_from_hex("808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9f");
        let nonce = [0, 0, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7];
        let block = chacha20_block(&key, 0, &nonce);
        assert_eq!(
            to_hex(&block[..32]),
            "8ad5a08b905f81cc815040274ab29471a833b637e3fd0da508dbb8e2fdd1a646"
        );
    }

    #[test]
    fn rfc8439_a3_vectors() {
        // A.3 #1: zero key, zero tag regardless of message.
        let tag = poly1305(&[0u8; 32], &[0u8; 64]);
        assert_eq!(to_hex(&tag), "00000000000000000000000000000000");
        // A.3 #2: r = 0, s = non-zero — the tag is exactly s.
        let key = key_from_hex("0000000000000000000000000000000036e5f6b5c5e06070f0efca96227a863e");
        let msg = b"Any submission to the IETF intended by the Contributor for publ\
                    ication as all or part of an IETF Internet-Draft or RFC and any \
                    statement made within the context of an IETF activity is conside\
                    red an \"IETF Contribution\". Such statements include oral statem\
                    ents in IETF sessions, as well as written and electronic communi\
                    cations made at any time or place, which are addressed to";
        let tag = poly1305(&key, &msg[..]);
        assert_eq!(to_hex(&tag), "36e5f6b5c5e06070f0efca96227a863e");
        // A.3 #3: s = 0, same message, r clamped from the key.
        let key = key_from_hex("36e5f6b5c5e06070f0efca96227a863e00000000000000000000000000000000");
        let tag = poly1305(&key, &msg[..]);
        assert_eq!(to_hex(&tag), "f3477e7cd95417af89a6b8794c310cf0");
    }

    #[test]
    fn rfc8439_a3_edge_vectors() {
        // A.3 #4: a wrap-around-exercising r with the Internet-Draft
        // boilerplate message.
        let key = key_from_hex("1c9240a5eb55d38af333888604f6b5f0473917c1402b80099dca5cbc207075c0");
        let msg = b"'Twas brillig, and the slithy toves\nDid gyre and gimble in the \
                    wabe:\nAll mimsy were the borogoves,\nAnd the mome raths outgrabe.";
        let tag = poly1305(&key, &msg[..]);
        assert_eq!(to_hex(&tag), "4541669a7eaaee61e708dc7cbcc5eb62");
        // A.3 #5: r = 2, s = 0, message = 2¹²⁸ − 1. The padded block is
        // 2¹²⁹ − 1; doubled and reduced mod 2¹³⁰ − 5 it leaves exactly
        // 3 — this vector catches broken carries in the final fold.
        let mut key = [0u8; 32];
        key[0] = 2;
        let tag = poly1305(&key, &[0xffu8; 16]);
        assert_eq!(to_hex(&tag), "03000000000000000000000000000000");
    }

    #[test]
    fn empty_message_tag_is_s() {
        // No blocks processed: h stays 0 and the tag is s verbatim.
        let mut key = [0u8; 32];
        for (i, b) in key.iter_mut().enumerate() {
            *b = i as u8;
        }
        let tag = poly1305(&key, b"");
        assert_eq!(&tag, &key[16..32]);
    }

    #[test]
    fn every_message_length_is_deterministic_and_distinct() {
        // Tags over every length 0..64 under one key: stable across
        // calls, and single-bit flips change the tag.
        let key = key_from_hex("85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b");
        let msg: Vec<u8> = (0..64u8)
            .map(|i| i.wrapping_mul(37).wrapping_add(11))
            .collect();
        for len in 1..=64usize {
            let a = poly1305(&key, &msg[..len]);
            assert_eq!(a, poly1305(&key, &msg[..len]), "len {len} deterministic");
            let mut flipped = msg[..len].to_vec();
            flipped[len / 2] ^= 0x40;
            assert_ne!(a, poly1305(&key, &flipped), "len {len} flip detected");
        }
    }
}
