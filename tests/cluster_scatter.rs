//! Tier-1 copy of the cluster suite: `cargo test -q` at the workspace
//! root only runs the umbrella package's tests, so the coordinator's
//! scatter path — query and link bit-identical to the single-node union
//! oracle, degraded merges, routed and partial inserts, redial rules,
//! and the scripted-shard interleavings of the two-phase gather — is
//! included here verbatim rather than left to CI's `--workspace` run
//! (ROADMAP item 6a).

#[path = "../crates/cluster/tests/cluster.rs"]
mod cluster;
