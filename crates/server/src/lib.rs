//! `pprl-server`: a concurrent linkage query service over the
//! persistent `pprl-index` store — std-only, like the rest of the
//! workspace.
//!
//! The survey's Big-Data axis is volume *and velocity*: deployed PPRL
//! answers a stream of link queries against an ever-growing encoded
//! database. This crate turns the offline index into that service:
//!
//! - [`wire`] — the typed request/response payloads every session
//!   frame carries, with typed
//!   [`pprl_core::error::PprlError::Transport`] errors;
//! - `pool` — the front end's bounded connection queue with explicit
//!   backpressure (`Busy {retry_after}`), never unbounded buffering;
//! - [`snapshot`] — generation-tagged snapshot isolation: queries pin an
//!   immutable reader over resident arenas while writes install the next
//!   generation, so compaction deletes superseded files at once;
//! - [`service`] — queries, batch link, durable insert, background
//!   size-tiered compaction (`IndexStore::compact_tiered`, whose tiers
//!   are fixed constants, not settings), and an LRU result cache keyed
//!   by (generation, filter bits, k); a [`ServerConfig`] sets only the
//!   cache capacity and the maintenance interval of a node's index;
//! - [`metrics`] — lock-free counters and a fixed-bucket latency
//!   histogram behind the `STATS` wire command;
//! - [`server`] / [`client`] — the TCP front end, generic over the
//!   [`Backend`] it serves (a node's tenants here, the coordinator in
//!   `pprl-cluster`), and its blocking counterpart. Every session is
//!   wire v4, authenticated against an [`AuthRegistry`].
//!
//! ```no_run
//! use pprl_server::server::{serve_auth, ServerConfig};
//! use pprl_server::{AuthRegistry, Client, ClientAuth, PartyKey, SuiteOffer, TenantGrant};
//! # fn main() -> pprl_core::error::Result<()> {
//! let key = PartyKey::generate()?;
//! let mut registry = AuthRegistry::new();
//! registry.insert("ops", key.clone(), TenantGrant::Any)?;
//! let handle = serve_auth(std::path::Path::new("idx"), "127.0.0.1:0", ServerConfig::default(), registry)?;
//! let auth = ClientAuth {
//!     identity: "ops".into(),
//!     key,
//!     tenant: "default".into(),
//!     encrypt: true,
//!     suites: SuiteOffer::default(),
//! };
//! let mut client = Client::connect_with(&handle.addr().to_string(), auth)?;
//! let stats = client.stats()?;
//! assert_eq!(stats.generation, 0);
//! client.shutdown()?;
//! handle.join();
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod cache;
pub mod client;
pub mod metrics;
mod pool;
pub mod server;
pub mod service;
pub mod snapshot;
pub mod wire;

pub use client::Client;
pub use server::{serve_auth, serve_backend, Backend, ServerBackend, ServerConfig, ServerHandle};
pub use service::LinkageService;
pub use wire::StatsReport;

// Session-layer types every caller needs to open a session.
pub use pprl_session::handshake::ClientAuth;
pub use pprl_session::keys::PartyKey;
pub use pprl_session::registry::{AuthRegistry, TenantGrant};
pub use pprl_session::suite::{CipherSuite, SuiteOffer};
