//! Tier-1 copy of the index crate's end-to-end store suite: every flipped
//! byte and every truncation of a segment file is caught at open and
//! quarantined, and `top_k` matches a brute-force scan over real CLKs on
//! a fresh build, after incremental inserts and after compaction.

#[path = "../crates/index/tests/index_store.rs"]
mod index_store;
