//! Tier-1 copy of the encoding crate's allocation audit: a warm memo
//! encodes with one allocator call per record (its filter), and
//! one-record datasets skip the memo and reuse the encoders. One binary
//! per audit, because each installs its own counting
//! `#[global_allocator]`.

#[path = "../crates/encoding/tests/alloc.rs"]
mod alloc;
