//! Tier-1 copy of the index crate's carry-over suite: once a store is
//! open, no insert, flush, compaction step or new reader reads a
//! segment file, pinned generations answer after compaction deleted
//! their files, and no reader serves rows of a segment id no committed
//! manifest named.

#[path = "../crates/index/tests/carry_over.rs"]
mod carry_over;
