//! Tier-1 copy of the pipeline crate's backend-equivalence suite: the
//! persistent index backend, probed through `link`, matches exhaustive
//! in-memory linkage bit for bit at `top_k ≥ |B|`, and Hamming-LSH with
//! enough tables recovers the same match set, on real CLK-encoded
//! records across several seeds and thread counts.

#[path = "../crates/pipeline/tests/backend_equivalence.rs"]
mod backend_equivalence;
