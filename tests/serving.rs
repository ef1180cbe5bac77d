//! Tier-1 copy of the node front-end suites: `cargo test -q` at the
//! workspace root only runs the umbrella package's tests, so the shared
//! accept/worker/session loop is exercised here as a node serves it —
//! backpressure, idle eviction, framing errors, snapshot isolation
//! under compaction, handshake gating, tenant isolation and privileged
//! shutdown, every session authenticated — beside the cluster's copy in
//! `cluster_scatter.rs`.

#[path = "../crates/server/tests/serve.rs"]
mod serve;

#[path = "../crates/server/tests/auth.rs"]
mod auth;
