//! FNV-1a, the one checksum and routing hash of the workspace, and
//! [`mix128`], the key hash of in-memory integer-keyed tables.
//!
//! Every checksum trailer ([`crate::codec`], under segment, manifest and
//! WAL files, wire and simulated-network frames and checkpoints) and the
//! index and cluster routing use this function, so its output is part of
//! every on-disk and on-wire format: it must never change. The absorb
//! step `h ← (h ⊕ b) · prime` is a bijection on `u64` for every fixed
//! byte, so any single flipped byte changes the result. It detects
//! accidents only; an adversary can recompute it.

/// FNV-1a offset basis: the hash of the empty input.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a hash of `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Spreads a 128-bit key over all 64 bits of the result: the high half
/// is mixed into the low one, then the sum is mixed again, each time by
/// the SplitMix64 finaliser. For hash tables kept in memory only; never
/// stored or sent.
pub fn mix128(key: u128) -> u64 {
    fn finalise(mut z: u64) -> u64 {
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
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
    fn mix128_separates_keys_that_differ_in_either_half() {
        let keys = [0u128, 1, 1 << 64, (1 << 64) | 1, u128::MAX, 15 << 120];
        let hashes: std::collections::HashSet<u64> = keys.iter().map(|&k| mix128(k)).collect();
        assert_eq!(hashes.len(), keys.len());
    }
}
