//! End-to-end tests for the authenticated, multi-tenant server:
//! handshake gating, per-tenant namespace isolation, STATS parity with
//! dedicated single-tenant servers, privileged shutdown, and encrypted
//! sessions carrying the full request surface.

use pprl_core::bitvec::BitVec;
use pprl_index::manifest::IndexConfig;
use pprl_index::store::IndexStore;
use pprl_server::client::Client;
use pprl_server::server::{serve, serve_auth, ServerConfig};
use pprl_server::wire::StatsReport;
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
    let (reg, key_a, key_b, _) = two_tenant_registry();
    let handle = serve_auth(&root, "127.0.0.1:0", quiet_config(), reg).unwrap();
    let addr = handle.addr().to_string();

    // ...and two dedicated single-tenant plaintext servers as oracles.
    let solo_a_dir = temp_dir("solo-a");
    let solo_b_dir = temp_dir("solo-b");
    build_index(&solo_a_dir, 0, 120);
    build_index(&solo_b_dir, 10_000, 80);
    let solo_a = serve(&solo_a_dir, "127.0.0.1:0", quiet_config()).unwrap();
    let solo_b = serve(&solo_b_dir, "127.0.0.1:0", quiet_config()).unwrap();

    let mut ca = Client::connect_with(&addr, Some(auth("org-a", &key_a, "org-a", false))).unwrap();
    let mut cb = Client::connect_with(&addr, Some(auth("org-b", &key_b, "org-b", true))).unwrap();
    let mut oa = Client::connect(&solo_a.addr().to_string()).unwrap();
    let mut ob = Client::connect(&solo_b.addr().to_string()).unwrap();

    // Identical queries and links against tenant and oracle give
    // identical hits, over a MAC-only (org-a) and a MAC+enc (org-b)
    // session alike.
    for probe_id in [3u64, 77, 10_005, 999] {
        let probe = filter_for(probe_id);
        assert_eq!(
            ca.query(&probe, 5).unwrap(),
            oa.query(&probe, 5).unwrap(),
            "tenant org-a diverged from its dedicated server on probe {probe_id}"
        );
        assert_eq!(
            cb.query(&probe, 5).unwrap(),
            ob.query(&probe, 5).unwrap(),
            "tenant org-b diverged from its dedicated server on probe {probe_id}"
        );
        let probes = [probe];
        assert_eq!(
            ca.link(&probes, 5, 0.5).unwrap(),
            oa.link(&probes, 5, 0.5).unwrap(),
            "tenant org-a link diverged from its dedicated server on probe {probe_id}"
        );
        assert_eq!(
            cb.link(&probes, 5, 0.5).unwrap(),
            ob.link(&probes, 5, 0.5).unwrap(),
            "tenant org-b link diverged from its dedicated server on probe {probe_id}"
        );
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
    let (reg, key_a, _, _) = two_tenant_registry();
    let handle = serve_auth(&root, "127.0.0.1:0", quiet_config(), reg).unwrap();
    let addr = handle.addr().to_string();

    // Wrong key: rejected at handshake with a typed Auth error.
    let bad = Client::connect_with(
        &addr,
        Some(auth(
            "org-a",
            &PartyKey::from_bytes([0xFF; 32]),
            "org-a",
            false,
        )),
    );
    match bad {
        Err(pprl_core::error::PprlError::Auth(_)) => {}
        other => panic!("wrong-key client not rejected at handshake: {other:?}"),
    }

    // Unknown identity: same typed rejection, indistinguishable shape.
    let ghost = Client::connect_with(
        &addr,
        Some(auth(
            "ghost",
            &PartyKey::from_bytes([0x01; 32]),
            "ghost",
            false,
        )),
    );
    assert!(matches!(ghost, Err(pprl_core::error::PprlError::Auth(_))));

    // Cross-tenant: authenticates, then gets the typed CrossTenant error.
    let crossed = Client::connect_with(&addr, Some(auth("org-a", &key_a, "org-b", false)));
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

    // A plaintext v3 client is refused before its request is interpreted.
    let mut plain = Client::connect(&addr).unwrap();
    let err = plain.stats().unwrap_err();
    assert!(
        err.to_string().contains("authentication required"),
        "unexpected plaintext rejection: {err}"
    );

    // An authorized client still works fine alongside the rejections.
    let mut good = Client::connect_with(&addr, Some(auth("org-a", &key_a, "org-a", true))).unwrap();
    assert_eq!(good.stats().unwrap().records, 20);

    drop((plain, good));
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

    let mut tenant =
        Client::connect_with(&addr, Some(auth("org-a", &key_a, "org-a", false))).unwrap();
    let err = tenant.shutdown().unwrap_err();
    assert!(
        err.to_string().contains("not privileged"),
        "tenant shutdown rejection: {err}"
    );
    // The server is still up and serving after the refused shutdown.
    assert_eq!(tenant.stats().unwrap().records, 10);

    // A privileged identity may open any tenant's namespace and stop the
    // server.
    let mut admin =
        Client::connect_with(&addr, Some(auth("admin", &key_admin, "org-b", true))).unwrap();
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

    let mut client =
        Client::connect_with(&addr, Some(auth("alice", &key, "default", true))).unwrap();
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
