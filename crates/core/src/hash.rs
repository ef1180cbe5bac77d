//! FNV-1a, the one checksum and routing hash of the workspace.
//!
//! Segment, manifest and WAL checksums, wire and simulated-network frame
//! checksums, and the cluster's insert routing all use this function, so
//! its output is part of every on-disk and on-wire format: it must never
//! change. The absorb step `h ← (h ⊕ b) · prime` is a bijection on `u64`
//! for every fixed byte, so any single flipped byte changes the result.
//! It detects accidents only; an adversary can recompute it.

/// FNV-1a offset basis: the hash of the empty input.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a hash of `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_from(FNV_OFFSET, bytes)
}

/// Continues an FNV-1a computation from state `h`, so one hash can
/// cover several slices without concatenating them:
/// `fnv1a_from(fnv1a(a), b) == fnv1a(a ‖ b)`.
pub fn fnv1a_from(h: u64, bytes: &[u8]) -> u64 {
    let mut h = h;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
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
    fn continuing_equals_concatenating() {
        assert_eq!(fnv1a_from(fnv1a(b"foo"), b"bar"), fnv1a(b"foobar"));
        assert_eq!(fnv1a_from(fnv1a(b"foobar"), b""), fnv1a(b"foobar"));
    }
}
