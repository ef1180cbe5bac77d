//! Standing the stack up and tearing it down: scratch space, index
//! builds, one authenticated node, and a three-shard cluster. Every
//! server binds `127.0.0.1:0` and is shut down and joined before its
//! owner returns, so no worker outlives its workload.

use pprl_cluster::coordinator::{route_id, ClusterConfig, Coordinator};
use pprl_cluster::server::{serve_cluster_auth, ClusterHandle, ClusterServerConfig};
use pprl_core::bitvec::BitVec;
use pprl_index::store::{IndexConfig, IndexStore};
use pprl_server::client::Client;
use pprl_server::server::{serve_auth, ServerConfig, ServerHandle};
use pprl_server::{AuthRegistry, CipherSuite, ClientAuth, PartyKey, SuiteOffer, TenantGrant};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// LSH shards inside every index the benchmark builds.
pub const INDEX_SHARDS: u32 = 8;
/// Shard servers behind the cluster front end.
pub const CLUSTER_SHARDS: usize = 3;
/// Records per `insert_batch` + `flush` while building an index.
const BUILD_BATCH: usize = 10_000;

const IDENTITY: &str = "benchmark";
const KEY: [u8; 32] = [0xB7; 32];

/// Where results, traces and scratch space go: `benchmark/out` of the
/// checkout the command was started in, else next to this package.
pub fn out_dir() -> PathBuf {
    if Path::new("benchmark/Cargo.toml").exists() {
        PathBuf::from("benchmark/out")
    } else {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
    }
}

/// A scratch directory unique to this invocation, removed on drop —
/// so also while a panic unwinds.
pub struct Scratch {
    root: PathBuf,
}

impl Scratch {
    pub fn new() -> Scratch {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.subsec_nanos());
        let root = out_dir().join(format!("scratch-{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&root).expect("create scratch directory");
        Scratch { root }
    }

    /// A fresh, empty subdirectory path (not yet created).
    pub fn dir(&self, name: &str) -> PathBuf {
        let path = self.root.join(name);
        let _ = std::fs::remove_dir_all(&path);
        path
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// What building one index cost and produced.
#[derive(Debug, Clone, Copy)]
pub struct Built {
    pub seconds: f64,
    pub records: usize,
    pub disk_bytes: u64,
}

/// Creates an index at `dir` holding exactly `records`, inserted and
/// flushed in batches of 10k the way a bulk load would.
pub fn build_index(dir: &Path, records: &[(u64, BitVec)]) -> Built {
    let started = Instant::now();
    let filter_len = records.first().map_or(0, |(_, f)| f.len());
    let mut store =
        IndexStore::create(dir, IndexConfig::new(filter_len, INDEX_SHARDS)).expect("create index");
    for batch in records.chunks(BUILD_BATCH) {
        store.insert_batch(batch).expect("insert batch");
        store.flush().expect("flush");
    }
    let seconds = started.elapsed().as_secs_f64();
    let stats = store.stats().expect("index stats");
    Built {
        seconds,
        records: stats.persisted_records,
        disk_bytes: stats.disk_bytes,
    }
}

/// The registry every benchmark server checks clients against: one
/// privileged identity.
pub fn registry() -> AuthRegistry {
    let mut registry = AuthRegistry::new();
    registry
        .insert(IDENTITY, PartyKey::from_bytes(KEY), TenantGrant::Any)
        .expect("valid identity");
    registry
}

/// The credentials every benchmark client presents: ChaCha20, MAC and
/// encryption both on.
pub fn client_auth() -> ClientAuth {
    ClientAuth {
        identity: IDENTITY.into(),
        key: PartyKey::from_bytes(KEY),
        tenant: "default".into(),
        encrypt: true,
        suites: SuiteOffer::only(CipherSuite::ChaCha20),
    }
}

/// One authenticated, encrypted connection, completing the handshake.
pub fn connect(addr: &str) -> Client {
    Client::connect_retry_with(addr, Some(client_auth()), 50, Duration::from_millis(20))
        .expect("connect and handshake")
}

/// Serves the index at `dir` with authentication on.
pub fn serve_node(dir: &Path, config: ServerConfig) -> ServerHandle {
    serve_auth(dir, "127.0.0.1:0", config, registry()).expect("serve_auth")
}

/// `records` split the way the coordinator routes inserts.
pub fn partition(records: &[(u64, BitVec)]) -> Vec<Vec<(u64, BitVec)>> {
    let mut parts = vec![Vec::new(); CLUSTER_SHARDS];
    for (id, filter) in records {
        parts[route_id(*id, CLUSTER_SHARDS)].push((*id, filter.clone()));
    }
    parts
}

/// Three shard servers and the authenticated front end over them.
pub struct Cluster {
    shards: Vec<ServerHandle>,
    front: ClusterHandle,
}

impl Cluster {
    /// Starts a shard server on each of `shard_dirs` and the front end.
    /// Shards get more workers than the front end: each front-end
    /// worker pins one pooled session per shard, and the traced pass
    /// adds a coordinator of its own and a direct client.
    pub fn start(shard_dirs: &[PathBuf]) -> Cluster {
        let shards: Vec<ServerHandle> = shard_dirs
            .iter()
            .map(|dir| {
                serve_node(
                    dir,
                    ServerConfig {
                        workers: 6,
                        compact_interval: None,
                        ..ServerConfig::default()
                    },
                )
            })
            .collect();
        let coordinator = Arc::new(Self::coordinator_for(&shards));
        let front = serve_cluster_auth(
            coordinator,
            "127.0.0.1:0",
            ClusterServerConfig::default(),
            registry(),
        )
        .expect("serve_cluster_auth");
        Cluster { shards, front }
    }

    fn coordinator_for(shards: &[ServerHandle]) -> Coordinator {
        Coordinator::connect(ClusterConfig {
            // A reply from fewer than all shards would be a wrong
            // answer here, not a degraded one.
            min_shards: shards.len(),
            shard_auth: Some(client_auth()),
            ..ClusterConfig::new(shards.iter().map(|s| s.addr().to_string()).collect())
        })
        .expect("connect coordinator")
    }

    pub fn front_addr(&self) -> String {
        self.front.addr().to_string()
    }

    pub fn shard_addrs(&self) -> Vec<String> {
        self.shards.iter().map(|s| s.addr().to_string()).collect()
    }

    /// A second coordinator over the same shards, for in-process calls.
    pub fn coordinator(&self) -> Coordinator {
        Self::coordinator_for(&self.shards)
    }

    pub fn shutdown(self) {
        self.front.shutdown_now();
        for shard in self.shards {
            shard.shutdown_now();
        }
    }
}
