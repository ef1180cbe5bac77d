//! End-to-end tests for the authenticated, multi-tenant server:
//! handshake gating, per-tenant namespace isolation, answers identical
//! to the offline index and STATS to dedicated single-tenant servers,
//! privileged shutdown, and encrypted sessions carrying the full
//! request surface.

use pprl_cluster::coordinator::{ClusterConfig, Coordinator};
use pprl_cluster::server::serve_cluster_auth;
use pprl_core::bitvec::BitVec;
use pprl_index::manifest::IndexConfig;
use pprl_index::query::Hit;
use pprl_index::store::IndexStore;
use pprl_server::client::Client;
use pprl_server::server::{serve_auth, ServerConfig};
use pprl_server::wire::{read_payload, write_payload, Incoming, Request, Response, StatsReport};
use pprl_session::handshake::ClientAuth;
use pprl_session::keys::PartyKey;
use pprl_session::registry::{AuthRegistry, TenantGrant};
use pprl_session::suite::SuiteOffer;
use std::path::{Path, PathBuf};
use std::time::Duration;

const FILTER_LEN: usize = 256;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "pprl-auth-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn filter_for(id: u64) -> BitVec {
    let mut positions = Vec::new();
    let mut x = id.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(17);
    for _ in 0..40 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        positions.push((x % FILTER_LEN as u64) as usize);
    }
    positions.sort_unstable();
    positions.dedup();
    BitVec::from_positions(FILTER_LEN, &positions).unwrap()
}

/// Builds a tenant index under `dir` with `n` records offset by `base`
/// (distinct bases give tenants provably disjoint contents).
fn build_index(dir: &Path, base: u64, n: u64) {
    let mut store = IndexStore::create(dir, IndexConfig::new(FILTER_LEN, 4)).unwrap();
    let records: Vec<(u64, BitVec)> = (base..base + n).map(|id| (id, filter_for(id))).collect();
    store.insert_batch(&records).unwrap();
    store.flush().unwrap();
}

fn quiet_config() -> ServerConfig {
    ServerConfig {
        workers: 2,
        queue_capacity: 8,
        compact_interval: None,
        idle_timeout: Duration::from_secs(5),
        ..ServerConfig::default()
    }
}

fn two_tenant_registry() -> (AuthRegistry, PartyKey, PartyKey, PartyKey) {
    let key_a = PartyKey::from_bytes([0xA1; 32]);
    let key_b = PartyKey::from_bytes([0xB2; 32]);
    let key_admin = PartyKey::from_bytes([0xAD; 32]);
    let mut reg = AuthRegistry::new();
    reg.insert("org-a", key_a.clone(), TenantGrant::One("org-a".into()))
        .unwrap();
    reg.insert("org-b", key_b.clone(), TenantGrant::One("org-b".into()))
        .unwrap();
    reg.insert("admin", key_admin.clone(), TenantGrant::Any)
        .unwrap();
    (reg, key_a, key_b, key_admin)
}

fn auth(identity: &str, key: &PartyKey, tenant: &str, encrypt: bool) -> ClientAuth {
    ClientAuth {
        identity: identity.into(),
        key: key.clone(),
        tenant: tenant.into(),
        encrypt,
        suites: SuiteOffer::default(),
    }
}

/// The offline answers over the index at `dir`: top-5 for every probe,
/// and the same lists thresholded at 0.5 as a link would return them.
fn offline_answers(dir: &Path, probes: &[BitVec]) -> (Vec<Vec<Hit>>, Vec<Vec<Hit>>) {
    let store = IndexStore::open(dir).unwrap();
    let reader = store.reader().unwrap();
    let top: Vec<Vec<Hit>> = probes
        .iter()
        .map(|p| reader.top_k(p, 5, 1).unwrap())
        .collect();
    let linked = top
        .iter()
        .map(|hits| hits.iter().filter(|h| h.score >= 0.5).cloned().collect())
        .collect();
    (top, linked)
}

/// Sends `request` to `addr` as a bare wire v3 payload — no handshake —
/// and returns the refusal the front end answers with, after checking
/// that it then closed the connection.
fn refusal_of_bare_request(addr: &str, request: &Request) -> String {
    let mut raw = std::net::TcpStream::connect(addr).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    write_payload(&mut raw, &request.encode()).unwrap();
    let Incoming::Payload(reply) = read_payload(&mut raw).unwrap() else {
        panic!("the front end sent no refusal");
    };
    let Response::ServerError { message } = Response::decode(&reply).unwrap() else {
        panic!("expected a ServerError refusal");
    };
    assert!(matches!(read_payload(&mut raw).unwrap(), Incoming::Eof));
    message
}

/// Scrubs the fields that legitimately differ run to run (latency,
/// uptime) so the remaining report can be compared bit for bit.
fn normalize(mut s: StatsReport) -> StatsReport {
    s.latency_p50_us = 0;
    s.latency_p99_us = 0;
    s.uptime_ms = 0;
    s
}

#[test]
fn two_tenants_disjoint_and_bit_identical_to_single_tenant_servers() {
    // One server hosting two tenants...
    let root = temp_dir("multi");
    build_index(&root.join("org-a"), 0, 120);
    build_index(&root.join("org-b"), 10_000, 80);
    let probe_ids = [3u64, 77, 10_005, 999];
    let probes: Vec<BitVec> = probe_ids.iter().map(|&id| filter_for(id)).collect();
    let oracle_a = offline_answers(&root.join("org-a"), &probes);
    let oracle_b = offline_answers(&root.join("org-b"), &probes);
    let (reg, key_a, key_b, key_admin) = two_tenant_registry();
    let handle = serve_auth(&root, "127.0.0.1:0", quiet_config(), reg.clone()).unwrap();
    let addr = handle.addr().to_string();

    // ...and two dedicated single-tenant servers, for STATS parity,
    // each serving its root as `default` to the privileged operator.
    let solo_a_dir = temp_dir("solo-a");
    let solo_b_dir = temp_dir("solo-b");
    build_index(&solo_a_dir, 0, 120);
    build_index(&solo_b_dir, 10_000, 80);
    let solo_a = serve_auth(&solo_a_dir, "127.0.0.1:0", quiet_config(), reg.clone()).unwrap();
    let solo_b = serve_auth(&solo_b_dir, "127.0.0.1:0", quiet_config(), reg).unwrap();

    let mut ca = Client::connect_with(&addr, auth("org-a", &key_a, "org-a", false)).unwrap();
    let mut cb = Client::connect_with(&addr, auth("org-b", &key_b, "org-b", true)).unwrap();
    let operator = || auth("admin", &key_admin, "default", true);
    let mut oa = Client::connect_with(&solo_a.addr().to_string(), operator()).unwrap();
    let mut ob = Client::connect_with(&solo_b.addr().to_string(), operator()).unwrap();

    // Queries and links against each tenant give exactly the offline
    // index's hits, over a MAC-only (org-a) and a MAC+enc (org-b)
    // session alike; the dedicated servers see the same requests.
    for (i, probe) in probes.iter().enumerate() {
        let probe_id = probe_ids[i];
        assert_eq!(
            ca.query(probe, 5).unwrap(),
            oracle_a.0[i],
            "tenant org-a diverged from its offline index on probe {probe_id}"
        );
        assert_eq!(
            cb.query(probe, 5).unwrap(),
            oracle_b.0[i],
            "tenant org-b diverged from its offline index on probe {probe_id}"
        );
        let one = std::slice::from_ref(probe);
        assert_eq!(
            ca.link(one, 5, 0.5).unwrap(),
            [oracle_a.1[i].clone()],
            "tenant org-a link diverged from its offline index on probe {probe_id}"
        );
        assert_eq!(
            cb.link(one, 5, 0.5).unwrap(),
            [oracle_b.1[i].clone()],
            "tenant org-b link diverged from its offline index on probe {probe_id}"
        );
        for solo in [&mut oa, &mut ob] {
            solo.query(probe, 5).unwrap();
            solo.link(one, 5, 0.5).unwrap();
        }
    }

    // The tenants see disjoint record sets: a record present in org-a
    // scores an exact match there and not in org-b.
    let exact_a = ca.query(&filter_for(42), 1).unwrap();
    assert_eq!(exact_a[0].id, 42);
    assert!((exact_a[0].score - 1.0).abs() < 1e-12);
    let best_b = cb.query(&filter_for(42), 1).unwrap();
    assert!(best_b.is_empty() || best_b[0].score < 1.0 || best_b[0].id != 42);
    // Mirror those queries on the oracles so the request histories (and
    // therefore the stats counters) stay identical.
    oa.query(&filter_for(42), 1).unwrap();
    ob.query(&filter_for(42), 1).unwrap();

    // Inserts land only in the addressed tenant.
    ca.insert(&[(500_000, filter_for(500_000))]).unwrap();
    let sa = ca.stats().unwrap();
    let sb = cb.stats().unwrap();
    assert_eq!(sa.records, 121);
    assert_eq!(sb.records, 80);
    assert_eq!(sa.inserts, 1);
    assert_eq!(sb.inserts, 0);

    // Per-tenant STATS are bit-identical to the dedicated servers after
    // the same request history (modulo wall-clock fields).
    oa.insert(&[(500_000, filter_for(500_000))]).unwrap();
    let (sa2, soa) = (ca.stats().unwrap(), oa.stats().unwrap());
    assert_eq!(normalize(sa2), normalize(soa));
    let (sb2, sob) = (cb.stats().unwrap(), ob.stats().unwrap());
    assert_eq!(normalize(sb2), normalize(sob));

    drop((ca, cb));
    handle.shutdown_now();
    solo_a.shutdown_now();
    solo_b.shutdown_now();
    for d in [root, solo_a_dir, solo_b_dir] {
        let _ = std::fs::remove_dir_all(d);
    }
}

#[test]
fn wrong_key_and_plaintext_clients_rejected() {
    let root = temp_dir("reject");
    build_index(&root.join("org-a"), 0, 20);
    build_index(&root.join("org-b"), 100, 20);
    let (reg, key_a, _, key_admin) = two_tenant_registry();
    let handle = serve_auth(&root, "127.0.0.1:0", quiet_config(), reg.clone()).unwrap();
    let addr = handle.addr().to_string();

    // Wrong key: rejected at handshake with a typed Auth error.
    let bad = Client::connect_with(
        &addr,
        auth("org-a", &PartyKey::from_bytes([0xFF; 32]), "org-a", false),
    );
    match bad {
        Err(pprl_core::error::PprlError::Auth(_)) => {}
        other => panic!("wrong-key client not rejected at handshake: {other:?}"),
    }

    // Unknown identity: same typed rejection, indistinguishable shape.
    let ghost = Client::connect_with(
        &addr,
        auth("ghost", &PartyKey::from_bytes([0x01; 32]), "ghost", false),
    );
    assert!(matches!(ghost, Err(pprl_core::error::PprlError::Auth(_))));

    // Cross-tenant: authenticates, then gets the typed CrossTenant error.
    let crossed = Client::connect_with(&addr, auth("org-a", &key_a, "org-b", false));
    match crossed {
        Err(pprl_core::error::PprlError::CrossTenant {
            identity,
            requested,
        }) => {
            assert_eq!(identity, "org-a");
            assert_eq!(requested, "org-b");
        }
        other => panic!("expected CrossTenant, got {other:?}"),
    }

    // A bare wire v3 request is refused before it is dispatched: the
    // insert below never lands.
    let v3_insert = Request::Insert {
        records: vec![(9_999, filter_for(9_999))],
    };
    let refusal = refusal_of_bare_request(&addr, &v3_insert);
    assert!(
        refusal.contains("authentication required") && refusal.contains("server"),
        "unexpected plaintext rejection: {refusal}"
    );

    // An authorized client still works fine alongside the rejections.
    let mut good = Client::connect_with(&addr, auth("org-a", &key_a, "org-a", true)).unwrap();
    let stats = good.stats().unwrap();
    assert_eq!((stats.records, stats.inserts), (20, 0));

    // The cluster front end refuses a bare v3 request the same way,
    // before its coordinator dials a shard: the one shard address is a
    // closed port, so a dispatch would count a shard failure.
    let closed = std::net::TcpListener::bind("127.0.0.1:0")
        .unwrap()
        .local_addr()
        .unwrap()
        .to_string();
    let coordinator = std::sync::Arc::new(
        Coordinator::new(ClusterConfig {
            shard_auth: Some(auth("admin", &key_admin, "default", true)),
            ..ClusterConfig::new(vec![closed])
        })
        .unwrap(),
    );
    let front = serve_cluster_auth(
        std::sync::Arc::clone(&coordinator),
        "127.0.0.1:0",
        quiet_config(),
        reg,
    )
    .unwrap();
    let refusal = refusal_of_bare_request(&front.addr().to_string(), &v3_insert);
    assert!(
        refusal.contains("authentication required") && refusal.contains("cluster front end"),
        "unexpected plaintext rejection: {refusal}"
    );
    let count = |c: &std::sync::atomic::AtomicU64| c.load(std::sync::atomic::Ordering::Relaxed);
    assert_eq!(count(&coordinator.metrics.inserts), 0);
    assert_eq!(count(&coordinator.metrics.shard_failures), 0);

    drop(good);
    front.shutdown_now();
    handle.shutdown_now();
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn shutdown_requires_privileged_identity() {
    let root = temp_dir("shutdown");
    build_index(&root.join("org-a"), 0, 10);
    build_index(&root.join("org-b"), 50, 10);
    let (reg, key_a, _, key_admin) = two_tenant_registry();
    let handle = serve_auth(&root, "127.0.0.1:0", quiet_config(), reg).unwrap();
    let addr = handle.addr().to_string();

    let mut tenant = Client::connect_with(&addr, auth("org-a", &key_a, "org-a", false)).unwrap();
    let err = tenant.shutdown().unwrap_err();
    assert!(
        err.to_string().contains("not privileged"),
        "tenant shutdown rejection: {err}"
    );
    // The server is still up and serving after the refused shutdown.
    assert_eq!(tenant.stats().unwrap().records, 10);

    // A privileged identity may open any tenant's namespace and stop the
    // server.
    let mut admin = Client::connect_with(&addr, auth("admin", &key_admin, "org-b", true)).unwrap();
    assert_eq!(admin.stats().unwrap().records, 10);
    admin.shutdown().unwrap();
    handle.join();
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn single_tenant_root_serves_as_default() {
    // An auth root that itself holds a MANIFEST is the single tenant
    // `default` — the upgrade path for existing single-index deployments.
    let root = temp_dir("default");
    build_index(&root, 0, 30);
    let key = PartyKey::from_bytes([0x77; 32]);
    let mut reg = AuthRegistry::new();
    reg.insert("alice", key.clone(), TenantGrant::One("default".into()))
        .unwrap();
    let handle = serve_auth(&root, "127.0.0.1:0", quiet_config(), reg).unwrap();
    let addr = handle.addr().to_string();

    let mut client = Client::connect_with(&addr, auth("alice", &key, "default", true)).unwrap();
    assert_eq!(client.stats().unwrap().records, 30);
    let hits = client.query(&filter_for(7), 3).unwrap();
    assert_eq!(hits[0].id, 7);

    drop(client);
    handle.shutdown_now();
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn missing_tenant_index_is_a_typed_storage_error() {
    let root = temp_dir("missing");
    build_index(&root.join("org-a"), 0, 5);
    // org-b granted but has no index directory under the root.
    let (reg, _, _, _) = two_tenant_registry();
    match serve_auth(&root, "127.0.0.1:0", quiet_config(), reg) {
        Err(pprl_core::error::PprlError::Storage(msg)) => {
            assert!(msg.contains("org-b"), "{msg}");
        }
        Err(other) => panic!("expected Storage error, got {other}"),
        Ok(_) => panic!("serve_auth succeeded despite missing tenant index"),
    }
    let _ = std::fs::remove_dir_all(root);
}
