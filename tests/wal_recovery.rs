//! Tier-1 copy of the WAL recovery suite: `cargo test -q` at the
//! workspace root only runs the umbrella package's tests, so the log's
//! exhaustive failure modes — every prefix truncation a benign torn tail
//! recovered exactly, every single-bit flip a typed `Storage` error —
//! are included here verbatim beside the decoder mutation harness
//! (`decoder_mutation.rs`), whose rule (every cut is an error) the WAL
//! deliberately does not follow.

#[path = "../crates/index/tests/wal_recovery.rs"]
mod wal_recovery;
