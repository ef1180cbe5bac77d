//! The coordinator served through `pprl-server`'s front end.
//!
//! A cluster is served by exactly the accept loop, worker pool and
//! session loop a single node uses ([`pprl_server::server`]); this module
//! only plugs the [`Coordinator`] in as its [`Backend`]. So every
//! existing client (the [`pprl_server::client::Client`] struct, the
//! `pprl client` CLI) talks to a cluster exactly as it talks to one
//! node, over the same authenticated wire v4 session. The differences
//! live behind the dispatch:
//! requests scatter to shards and gather through the coordinator, the
//! only tenant is `default`, and `Shutdown` stops *only the coordinator's
//! front end* — shard nodes are separate processes with their own
//! lifecycles (use [`Coordinator::shutdown_shards`] for orderly
//! full-cluster teardown).

use crate::coordinator::Coordinator;
use pprl_core::error::Result;
use pprl_server::server::{serve_backend, Backend, ServerConfig, ServerHandle};
use pprl_server::wire::{Request, Response};
use pprl_session::registry::AuthRegistry;
use std::sync::Arc;

/// Tunables for [`serve_cluster_auth`]: the shared front-end config, whose
/// index fields (`cache_capacity`, `compact_interval`) a
/// coordinator ignores. Each scatter fans out to every shard from its
/// worker, so a handful of workers go a long way. Shard hops open
/// their own sessions via `ClusterConfig::shard_auth`.
pub type ClusterServerConfig = ServerConfig;

/// A running cluster front end.
pub type ClusterHandle = ServerHandle<Coordinator>;

impl Backend for Coordinator {
    type Tenant = ();
    const NAME: &'static str = "cluster front end";

    fn tenant(&self, name: &str) -> std::result::Result<(), String> {
        // A privileged identity may name any tenant at handshake, but
        // the cluster fronts one logical corpus.
        if name == "default" {
            Ok(())
        } else {
            Err(format!(
                "tenant `{name}` has no index namespace on this cluster \
                 front end (only `default`)"
            ))
        }
    }

    fn dispatch(&self, _: &(), request: Request) -> Result<Response> {
        match request {
            Request::Query { filter, k } => self.query(&filter, k as usize).map(Response::Hits),
            Request::Link {
                probes,
                k,
                min_score,
            } => self
                .link(&probes, k as usize, min_score)
                .map(Response::LinkHits),
            Request::Insert { records } => self
                .insert(&records)
                .map(|(count, generation)| Response::Inserted { count, generation }),
            Request::Stats => Ok(Response::Stats(self.stats())),
            Request::Shutdown => unreachable!("handled by the front end"),
        }
    }
}

/// Serves `coordinator` on `addr` (e.g. `"127.0.0.1:0"` for an
/// ephemeral port). Returns immediately; the handle owns the acceptor
/// and worker threads.
///
/// Every front-end connection must complete the wire v4 handshake
/// against `registry` before any request is dispatched to the shards.
/// The cluster fronts a
/// single logical corpus, so the only tenant namespace it serves is
/// `default` — identities need a `default` (or `*`) grant, and only
/// privileged identities may send `Shutdown`. Shard-facing credentials
/// are configured separately via
/// [`ClusterConfig::shard_auth`](crate::coordinator::ClusterConfig).
pub fn serve_cluster_auth(
    coordinator: Arc<Coordinator>,
    addr: &str,
    config: ClusterServerConfig,
    registry: AuthRegistry,
) -> Result<ClusterHandle> {
    serve_backend(coordinator, addr, config, registry)
}
