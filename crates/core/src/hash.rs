//! The workspace's two persistent hashes — [`fnv1a`], the routing hash,
//! and [`word_fold`], the one checksum — plus [`mix128`], the key hash
//! of in-memory integer-keyed tables.
//!
//! Both persistent hashes are part of on-disk and on-wire formats, so
//! neither may ever change. The index and cluster route records by
//! [`fnv1a`]. Every checksum trailer ([`crate::codec`], under segment,
//! manifest and WAL files, wire, session and simulated-network frames
//! and checkpoints) is a [`word_fold`]. Both detect accidents only; an
//! adversary can recompute them.

/// FNV-1a offset basis: the hash of the empty input.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a hash of `bytes`. The absorb step `h ← (h ⊕ b) · prime` is a
/// bijection on `u64` for every fixed byte, so any single flipped byte
/// changes the result.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_iter(bytes.iter().copied())
}

/// [`fnv1a`] of bytes produced one at a time, so a caller that derives
/// its key byte by byte hashes it without materialising it.
#[inline]
pub fn fnv1a_iter(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(FNV_OFFSET, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(FNV_PRIME)
    })
}

/// Starting states of [`word_fold`]'s four lanes (hex digits of π).
const FOLD_SEEDS: [u64; 4] = [
    0x243f_6a88_85a3_08d3,
    0x1319_8a2e_0370_7344,
    0xa409_3822_299f_31d0,
    0x082e_fa98_ec4e_6c89,
];
/// Odd multiplier of [`word_fold`]'s absorb step (2⁶⁴ / φ).
const FOLD_MUL: u64 = 0x9e37_79b9_7f4a_7c15;

/// One absorb step: a bijection of the state for every fixed word, and
/// of the word for every fixed state. One multiply is not enough: an
/// odd multiplier maps a top-bit difference to itself, and so does any
/// fixed rotation or shift after it, to a known bit, which the next
/// word of the lane could flip back. Multiplying again after the
/// rotation leaves no difference that passes a step unchanged.
#[inline(always)]
fn absorb(h: u64, word: u64) -> u64 {
    (h ^ word)
        .wrapping_mul(FOLD_MUL)
        .rotate_left(32)
        .wrapping_mul(FOLD_MUL)
}

/// The checksum of every trailer: `bytes` read as little-endian `u64`
/// words, word `i` absorbed into lane `i mod 4`, so four multiply
/// chains run side by side. The lanes, then the zero-padded tail of
/// fewer than 8 bytes, are absorbed into a state seeded with the byte
/// length, and the result is finalised. Every step is a bijection in
/// the word it takes, so any single changed word (or tail byte) always
/// changes the sum, and folding in the length tells a body from the
/// same body with zero bytes appended.
pub fn word_fold(bytes: &[u8]) -> u64 {
    let word = |c: &[u8]| u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
    let mut lanes = FOLD_SEEDS;
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        for (lane, w) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = absorb(*lane, word(w));
        }
    }
    let mut words = blocks.remainder().chunks_exact(8);
    for (lane, w) in lanes.iter_mut().zip(&mut words) {
        *lane = absorb(*lane, word(w));
    }
    let mut tail = [0u8; 8];
    tail[..words.remainder().len()].copy_from_slice(words.remainder());
    let h = lanes
        .into_iter()
        .chain([u64::from_le_bytes(tail)])
        .fold(bytes.len() as u64, absorb);
    finalise(h)
}

/// The SplitMix64 finaliser: a bijection that spreads every input bit
/// over the whole output.
fn finalise(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Spreads a 128-bit key over all 64 bits of the result: the high half
/// is mixed into the low one, then the sum is mixed again, each time by
/// the SplitMix64 finaliser. For hash tables kept in memory only; never
/// stored or sent.
pub fn mix128(key: u128) -> u64 {
    finalise(key as u64 ^ finalise((key >> 64) as u64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_known_vector() {
        // FNV-1a of the empty string is the offset basis.
        assert_eq!(fnv1a(b""), FNV_OFFSET);
        assert_eq!(fnv1a(b"a"), (FNV_OFFSET ^ 0x61).wrapping_mul(FNV_PRIME));
        // Published 64-bit FNV-1a test vectors.
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn word_fold_known_vector() {
        assert_eq!(word_fold(b""), 0x9712_955f_dfbf_fe5e);
        // 37 bytes: one 32-byte block, no whole word left, a 5-byte tail.
        assert_eq!(
            word_fold(b"The quick brown fox jumps over a dog."),
            0x1e09_575e_7ba7_2d63
        );
    }

    /// Over random bodies of every length 0..=300 (so every tail length
    /// and every lane position), the sum changes on every single-byte
    /// change, every truncation and every one-byte extension.
    #[test]
    fn word_fold_changes_on_every_flip_cut_and_extension() {
        let mut rng = crate::rng::SplitMix64::new(0xF01D);
        for len in 0..=300usize {
            let body: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            let sum = word_fold(&body);
            let mut bad = body.clone();
            for at in 0..len {
                let delta = 1 + rng.next_below(255) as u8;
                bad[at] ^= delta;
                assert_ne!(word_fold(&bad), sum, "len {len}: byte {at} ^ {delta:#x}");
                bad[at] ^= delta;
            }
            for cut in 0..len {
                assert_ne!(word_fold(&body[..cut]), sum, "len {len}: cut to {cut}");
            }
            for byte in 0..=255u8 {
                bad.push(byte);
                assert_ne!(word_fold(&bad), sum, "len {len}: extended by {byte:#x}");
                bad.pop();
            }
        }
    }

    /// Two flipped bits must change the sum too. A multiply alone keeps
    /// a top-bit difference where it is (an odd multiplier maps 2⁶³ to
    /// itself), and a rotation after it only moves it to another fixed
    /// bit, so: every pair of bits in the top bytes of the words of
    /// 16–64-byte bodies, every pair of bits at all in bodies of 40 and
    /// 71 bytes (a flip in word `i` against one in word `i + 4` of the
    /// same lane, and against the tail), and random pairs over bodies of
    /// every length up to 300 bytes.
    #[test]
    fn word_fold_changes_on_every_two_bit_flip() {
        fn flip(body: &mut [u8], bit: usize) {
            body[bit / 8] ^= 1 << (bit % 8);
        }
        fn check_pairs(body: &[u8], pairs: impl Iterator<Item = (usize, usize)>) {
            let sum = word_fold(body);
            let mut bad = body.to_vec();
            for (a, b) in pairs {
                flip(&mut bad, a);
                flip(&mut bad, b);
                assert_ne!(word_fold(&bad), sum, "len {}: bits {a} and {b}", body.len());
                flip(&mut bad, a);
                flip(&mut bad, b);
            }
        }
        fn every_pair(bits: &[usize]) -> impl Iterator<Item = (usize, usize)> + '_ {
            (0..bits.len()).flat_map(move |i| bits[i + 1..].iter().map(move |&b| (bits[i], b)))
        }
        let mut rng = crate::rng::SplitMix64::new(0x2F11);
        let mut random_body =
            |len: usize| -> Vec<u8> { (0..len).map(|_| rng.next_u64() as u8).collect() };
        for len in 16..=64usize {
            let top_bits: Vec<usize> = (7..len)
                .step_by(8)
                .flat_map(|byte| byte * 8..byte * 8 + 8)
                .collect();
            check_pairs(&random_body(len), every_pair(&top_bits));
        }
        for len in [40usize, 71] {
            let bits: Vec<usize> = (0..len * 8).collect();
            check_pairs(&random_body(len), every_pair(&bits));
        }
        for len in 1..=300usize {
            let body = random_body(len);
            let mut pick = crate::rng::SplitMix64::new(len as u64);
            let mut bit = || pick.next_below(len as u64 * 8) as usize;
            let pairs: Vec<(usize, usize)> = (0..200).map(|_| (bit(), bit())).collect();
            check_pairs(&body, pairs.into_iter().filter(|(a, b)| a != b));
        }
    }

    #[test]
    fn mix128_separates_keys_that_differ_in_either_half() {
        let keys = [0u128, 1, 1 << 64, (1 << 64) | 1, u128::MAX, 15 << 120];
        let hashes: std::collections::HashSet<u64> = keys.iter().map(|&k| mix128(k)).collect();
        assert_eq!(hashes.len(), keys.len());
    }
}
