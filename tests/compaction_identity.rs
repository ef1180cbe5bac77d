//! Tier-1 copy of the index crate's compaction-identity suite: flushed
//! and merged segment files are byte-for-byte what the record round-trip
//! path would have written, so a change to how pending rows reach their
//! shard cannot alter a segment byte unnoticed.

#[path = "../crates/index/tests/compaction_identity.rs"]
mod compaction_identity;
