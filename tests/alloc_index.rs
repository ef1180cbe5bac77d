//! Tier-1 copy of the index crate's allocation audit: a warm `top_k`
//! makes one allocator call, for its result, however many slots and rows
//! the reader holds, and helper admission checks allocate nothing. One
//! binary per audit, because each installs its own counting
//! `#[global_allocator]`.

#[path = "../crates/index/tests/alloc.rs"]
mod alloc;
