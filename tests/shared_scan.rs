//! Tier-1 copy of the index crate's shared-pass suite: concurrent
//! single-probe `top_k` calls join one circular pass over a reader's
//! tasks, driven claim by claim so that a second and a third caller join
//! at every task boundary, and every answer stays bit-identical to brute
//! force and to `top_k_batch`. Its own test binary, because it asserts
//! `ReadStats::helper_rows`.

#[path = "../crates/index/tests/shared_scan.rs"]
mod shared_scan;
