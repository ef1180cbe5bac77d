//! # pprl-crypto
//!
//! Cryptographic substrates for the PPRL workspace, all implemented from
//! scratch: SHA-1/SHA-256/HMAC, big-integer arithmetic, primality testing,
//! Paillier additively-homomorphic encryption, an SRA-style commutative
//! cipher with private set intersection, additive and Shamir secret sharing,
//! multi-party secure summation, a cost-preserving simulation of the secure
//! edit-distance protocol, and differential-privacy mechanisms.
//!
//! These are research implementations sized for reproducible experiments,
//! not hardened production cryptography. Library algorithms use the
//! deterministic seeded PRNG by design; anything secret that crosses a
//! wire must instead draw from [`rng::SecretRng`] / [`rng::os_random`],
//! and MAC comparisons go through the constant-time [`sha::ct_eq`].

// Unsafe is denied crate-wide and re-allowed only inside the SHA-NI
// module in `sha`, where every block carries a safety comment tying it
// to runtime CPU-feature detection.
#![deny(unsafe_code)]
// `!(x > 0.0)`-style comparisons are deliberate: they reject NaN, which
// `x <= 0.0` would accept.
#![allow(clippy::neg_cmp_op_on_partial_ord)]
#![warn(missing_docs)]

pub mod bigint;
pub mod chacha;
pub mod commutative;
pub mod cost;
pub mod dp;
pub mod paillier;
pub mod poly1305;
pub mod prime;
pub mod rng;
pub mod secret_sharing;
pub mod secure_edit;
pub mod secure_sum;
pub mod sha;

pub use bigint::BigUint;
pub use cost::CommCost;
pub use paillier::{Ciphertext, KeyPair, PrivateKey, PublicKey};
pub use sha::{hmac_sha1, hmac_sha256, sha1, sha256};
