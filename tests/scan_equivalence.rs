//! Tier-1 copy of the scan-kernel equivalence suite: `cargo test -q` at
//! the workspace root only runs the umbrella package's tests, so the
//! index crate's `kernel_equivalence.rs` — every kernel op against the
//! `BitVec` oracle, and `top_k` / `top_k_planned` / `top_k_batch`
//! bit-identical to brute force — is included here verbatim rather than
//! left to CI's `--workspace` run (ROADMAP item 6a).

#[path = "../crates/index/tests/kernel_equivalence.rs"]
mod kernel_equivalence;
