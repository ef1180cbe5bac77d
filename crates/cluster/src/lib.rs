//! `pprl-cluster`: scatter–gather distributed linkage over sharded
//! `pprl-server` nodes.
//!
//! A cluster is N independent shard nodes — each a stock `pprl-server`
//! over its own persistent index — fronted by a [`Coordinator`] that
//! speaks the same authenticated wire v4 sessions on both sides:
//!
//! - **Reads** (Query/Link) broadcast to every shard; each shard
//!   answers its local top-k and the coordinator merges the lists
//!   *exactly* with a k-way heap under the total order (score
//!   descending by `f64::total_cmp`, ties by ascending record id) —
//!   the merged result is bit-identical to a single node holding the
//!   union corpus.
//! - **Writes** (Insert) route each record to one shard by a stable
//!   FNV-1a hash of its id, so placement is a pure function of the id.
//! - **Failures** degrade instead of erroring, down to the configured
//!   read quorum: a lost shard is dropped from the merge, the reply is
//!   counted degraded, and the Stats surface reports `degraded`,
//!   `shards_down`, and the missing shard indices. Writes never
//!   degrade — every routed target shard must acknowledge.
//! - **Rebalancing** rides on `pprl_index::store::IndexStore`'s
//!   snapshot export/import: sealed checksummed segments plus the WAL
//!   tail are copied to a fresh directory, verified by the usual
//!   open-time checks, and served by a new node.
//!
//! [`serve_cluster_auth`] serves the coordinator through the same TCP front
//! end a single node uses — `pprl-server`'s one accept loop, worker pool
//! and session loop, with the [`Coordinator`] as its
//! [`Backend`](pprl_server::server::Backend) — so existing clients need
//! no changes to talk to a cluster.

#![forbid(unsafe_code)]

pub mod coordinator;
pub mod merge;
pub mod server;

pub use coordinator::{route_id, ClusterConfig, ClusterMetrics, Coordinator};
pub use merge::{hit_order, merge_top_k};
pub use server::{serve_cluster_auth, ClusterHandle, ClusterServerConfig};
