//! Tier-1 copy of the session crate's allocation audit: steady-state
//! data frames seal and open without allocating, and varying payload
//! sizes allocate only when a buffer grows. One binary per audit,
//! because each installs its own counting `#[global_allocator]`.

#[path = "../crates/session/tests/alloc.rs"]
mod alloc;
