//! E22 — the price of authentication: wire v4 session overhead over
//! plaintext wire v3 (§6's yet-to-come deployment hardening: linkage
//! units are honest-but-curious *parties*, so the serving layer itself
//! must authenticate callers and protect encodings in transit).
//!
//! Builds the E18 index of GeCo-person CLKs once, then serves it three
//! ways in turn: plaintext wire v3 (baseline), then authenticated wire
//! v4 (ChaCha20/Poly1305), MAC only and MAC + frame encryption. For each mode we time the
//! connection setup (TCP connect + full handshake for the v4 modes)
//! and then run the E18 closed-loop client sweep (1 → 8 clients ×
//! top-k queries), reporting QPS and client-observed p50/p99 per
//! level. Every mode's answers are checked bit-identical to the
//! plaintext baseline — the session layer must change who can ask and
//! what crosses the wire, never what is answered. A keystream
//! micro-bench rounds the picture out with raw ChaCha20 MB/s on this
//! host.
//!
//! Run: `cargo run --release -p pprl-bench --bin exp_auth [-- --smoke]`

use pprl_bench::json::Json;
use pprl_bench::{banner, report, secs, Table};
use pprl_core::bitvec::BitVec;
use pprl_core::record::Dataset;
use pprl_core::rng::SplitMix64;
use pprl_core::schema::Schema;
use pprl_datagen::generator::{Generator, GeneratorConfig};
use pprl_encoding::encoder::{RecordEncoder, RecordEncoderConfig};
use pprl_index::query::Hit;
use pprl_index::store::{IndexConfig, IndexStore};
use pprl_server::client::Client;
use pprl_server::server::{serve, serve_auth, ServerConfig};
use pprl_server::{AuthRegistry, CipherSuite, ClientAuth, PartyKey, SuiteOffer, TenantGrant};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

const FILTER_BITS: usize = 1000;
const TOP_K: usize = 10;
const IDENTITY: &str = "e22";
const KEY: [u8; 32] = [0x22; 32];

/// Workload sizes; `--smoke` shrinks everything for a quick CI pass.
struct Sizes {
    index_records: usize,
    queries_per_client: usize,
    client_levels: &'static [usize],
    handshakes: usize,
    probe_count: usize,
}

fn sizes(smoke: bool) -> Sizes {
    if smoke {
        Sizes {
            index_records: 900,
            queries_per_client: 25,
            client_levels: &[1, 2],
            handshakes: 16,
            probe_count: 64,
        }
    } else {
        Sizes {
            index_records: 5_000,
            queries_per_client: 400,
            client_levels: &[1, 2, 4, 8],
            handshakes: 64,
            probe_count: 256,
        }
    }
}

/// CLK encodings of GeCo person records — the E18 population: every
/// third record is a corrupted duplicate so queries have realistic
/// near-matches.
fn clk_filters(n: usize, seed: u64) -> Vec<(u64, BitVec)> {
    let mut g = Generator::new(GeneratorConfig {
        seed,
        corruption_rate: 0.3,
        ..GeneratorConfig::default()
    })
    .expect("generator");
    let schema = Schema::person();
    let encoder = RecordEncoder::new(
        RecordEncoderConfig::person_clk(b"exp-serve".to_vec()),
        &schema,
    )
    .expect("encoder");
    let mut ds = Dataset::new(schema);
    for j in 0..n {
        let r = if j % 3 == 2 {
            let base = g.entity((j / 3) as u64);
            g.corrupt_record(&base)
        } else {
            g.entity(j as u64)
        };
        ds.push(r).expect("push");
    }
    let encoded = encoder.encode_dataset(&ds).expect("encode");
    encoded
        .records
        .iter()
        .enumerate()
        .map(|(j, r)| (j as u64, r.try_clk().expect("clk").clone()))
        .collect()
}

/// Near-duplicate probe: a stored filter with ~5% of bits flipped.
fn perturb(filter: &BitVec, rng: &mut SplitMix64) -> BitVec {
    let mut out = filter.clone();
    for pos in 0..out.len() {
        if rng.next_u64().is_multiple_of(20) {
            out.flip(pos);
        }
    }
    out
}

/// Upper-quantile from a sorted latency sample, in milliseconds.
fn quantile_ms(sorted_us: &[u64], q: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_us.len() - 1) as f64 * q).round() as usize;
    sorted_us[idx] as f64 / 1_000.0
}

/// The registry every v4 mode serves against: one privileged identity,
/// so the same credentials can query and shut the server down.
fn registry() -> AuthRegistry {
    let mut reg = AuthRegistry::new();
    reg.insert(IDENTITY, PartyKey::from_bytes(KEY), TenantGrant::Any)
        .expect("insert identity");
    reg
}

/// One closed-loop client level: `clients` threads × `per_client`
/// top-k queries each. Returns (wall seconds, sorted latencies in µs).
///
/// Connection setup (TCP connect + handshake) happens *before* the
/// timed window — the handshake table reports it separately, and at
/// short levels a ~2 ms handshake inside the window would masquerade
/// as per-query overhead. Every thread connects, issues one warm-up
/// query, then parks on a barrier; the clock covers only the steady-
/// state query loop.
fn run_level(
    addr: &str,
    auth: &Option<ClientAuth>,
    probes: &Arc<Vec<BitVec>>,
    clients: usize,
    per_client: usize,
) -> (f64, Vec<u64>) {
    let barrier = Arc::new(std::sync::Barrier::new(clients + 1));
    let threads: Vec<_> = (0..clients)
        .map(|c| {
            let addr = addr.to_string();
            let auth = auth.clone();
            let probes = Arc::clone(probes);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut client =
                    Client::connect_retry_with(&addr, auth, 50, Duration::from_millis(20))
                        .expect("client connect");
                let warm = client
                    .query(&probes[c % probes.len()], TOP_K)
                    .expect("warm-up");
                assert!(!warm.is_empty(), "top-k over a full index");
                barrier.wait();
                let mut lat_us = Vec::with_capacity(per_client);
                for q in 0..per_client {
                    let probe = &probes[(c * 131 + q * 17) % probes.len()];
                    let t = Instant::now();
                    let hits = client.query(probe, TOP_K).expect("query");
                    assert!(!hits.is_empty(), "top-k over a full index");
                    lat_us.push(t.elapsed().as_micros() as u64);
                }
                lat_us
            })
        })
        .collect();
    barrier.wait();
    let started = Instant::now();
    let mut all_us = Vec::new();
    for t in threads {
        all_us.extend(t.join().expect("client thread"));
    }
    let wall = started.elapsed().as_secs_f64();
    all_us.sort_unstable();
    (wall, all_us)
}

fn main() {
    banner(
        "E22",
        "Authenticated serving overhead (pprl-session over pprl-server)",
        "wire v4 MAC + encryption cost measured against plaintext v3 on the E18 workload",
    );
    let sz = sizes(std::env::args().any(|a| a == "--smoke"));
    let dir = std::env::temp_dir().join("pprl-exp-auth");
    let _ = std::fs::remove_dir_all(&dir);

    let (records, gen_secs) = pprl_bench::timed(|| clk_filters(sz.index_records, 0xE18));
    println!(
        "generated + CLK-encoded {} GeCo records in {}",
        sz.index_records,
        secs(gen_secs)
    );
    let mut store =
        IndexStore::create(&dir, IndexConfig::new(FILTER_BITS, 4)).expect("create index");
    for chunk in records.chunks(500) {
        store.insert_batch(chunk).expect("insert");
        store.flush().expect("flush");
    }
    drop(store);

    let probes: Arc<Vec<BitVec>> = {
        let mut rng = SplitMix64::new(0xBEEF);
        Arc::new(
            (0..sz.probe_count)
                .map(|qi| perturb(&records[(qi * 97) % sz.index_records].1, &mut rng))
                .collect(),
        )
    };

    // The serving modes under test: plaintext, then MAC-only and
    // MAC+encryption sessions. Compaction is off so the sweep isolates
    // the session layer; E18 covers churn.
    let auth_for = |encrypt: bool| ClientAuth {
        identity: IDENTITY.into(),
        key: PartyKey::from_bytes(KEY),
        tenant: "default".into(),
        encrypt,
        suites: SuiteOffer::default(),
    };
    let suite = CipherSuite::ChaCha20;
    let modes: [(&str, Option<ClientAuth>); 3] = [
        ("plaintext-v3", None),
        ("chacha20-mac", Some(auth_for(false))),
        ("chacha20-mac+enc", Some(auth_for(true))),
    ];
    // One worker per client at the deepest sweep level: each worker
    // owns a session for its lifetime, so fewer workers than clients
    // would serialise the "concurrent" levels into waves.
    let config = ServerConfig {
        workers: 8,
        queue_capacity: 64,
        compact_interval: None,
        ..ServerConfig::default()
    };

    let mut setup = Table::new(&["mode", "handshakes", "p50 ms", "p99 ms"]);
    let mut sweep = Table::new(&["mode", "clients", "queries", "QPS", "p50 ms", "p99 ms"]);
    let mut mode_rows: Vec<Json> = Vec::new();
    let mut baseline: Option<Vec<Vec<Hit>>> = None;
    let mut baseline_qps: Vec<f64> = Vec::new();
    let mut overhead_pct: Vec<(String, f64)> = Vec::new();
    let mut last_qps: Vec<(String, f64)> = Vec::new();

    for (mode, auth) in &modes {
        let handle = serve_mode(&dir, config, auth.is_some());
        let addr = handle.addr().to_string();
        println!("\n[{mode}] serving {} records on {addr}", sz.index_records);

        // Connection setup: TCP connect alone for v3, TCP connect plus
        // the full HELLO→ACCEPT handshake (two modexp key agreements and
        // the session-key derivation) for v4.
        let mut hs_us: Vec<u64> = (0..sz.handshakes)
            .map(|_| {
                let t = Instant::now();
                let c =
                    Client::connect_retry_with(&addr, auth.clone(), 50, Duration::from_millis(20))
                        .expect("handshake connect");
                let us = t.elapsed().as_micros() as u64;
                drop(c);
                us
            })
            .collect();
        hs_us.sort_unstable();
        setup.row(vec![
            mode.to_string(),
            sz.handshakes.to_string(),
            format!("{:.2}", quantile_ms(&hs_us, 0.50)),
            format!("{:.2}", quantile_ms(&hs_us, 0.99)),
        ]);

        // Exactness across the session layer: every probe's top-k must
        // be bit-identical to the plaintext baseline.
        let mut checker =
            Client::connect_retry_with(&addr, auth.clone(), 50, Duration::from_millis(20))
                .expect("checker connect");
        let answers: Vec<Vec<Hit>> = probes
            .iter()
            .map(|p| checker.query(p, TOP_K).expect("checker query"))
            .collect();
        match &baseline {
            None => baseline = Some(answers),
            Some(oracle) => {
                assert_eq!(oracle.len(), answers.len(), "{mode}: probe count drifted");
                for (i, (a, b)) in oracle.iter().zip(&answers).enumerate() {
                    assert_eq!(a, b, "{mode}: probe {i} differs from plaintext baseline");
                }
                println!(
                    "[{mode}] {} probe answers bit-identical to plaintext baseline",
                    answers.len()
                );
            }
        }
        // Release the checker's worker slot before the sweep: the
        // deepest level wants every worker for its own clients.
        drop(checker);

        let mut sweep_rows: Vec<Json> = Vec::new();
        for (level, &clients) in sz.client_levels.iter().enumerate() {
            // Two passes per level, best kept: a closed loop this short
            // is at the mercy of scheduler transients, and the faster
            // pass is the one that measured the code instead of the OS.
            let (wall_a, us_a) = run_level(&addr, auth, &probes, clients, sz.queries_per_client);
            let (wall_b, us_b) = run_level(&addr, auth, &probes, clients, sz.queries_per_client);
            let (wall, us) = if wall_a <= wall_b {
                (wall_a, us_a)
            } else {
                (wall_b, us_b)
            };
            let total = clients * sz.queries_per_client;
            let qps = total as f64 / wall;
            sweep.row(vec![
                mode.to_string(),
                clients.to_string(),
                total.to_string(),
                format!("{qps:.1}"),
                format!("{:.2}", quantile_ms(&us, 0.50)),
                format!("{:.2}", quantile_ms(&us, 0.99)),
            ]);
            sweep_rows.push(Json::Obj(vec![
                ("clients".into(), Json::Num(clients as f64)),
                ("qps".into(), Json::Num((qps * 10.0).round() / 10.0)),
                ("p50_ms".into(), Json::Num(quantile_ms(&us, 0.50))),
                ("p99_ms".into(), Json::Num(quantile_ms(&us, 0.99))),
            ]));
            if auth.is_none() {
                baseline_qps.push(qps);
            } else if level == sz.client_levels.len() - 1 {
                let base = baseline_qps[level];
                let pct = (base - qps) / base * 100.0;
                overhead_pct.push((mode.to_string(), pct));
            }
            if level == sz.client_levels.len() - 1 {
                last_qps.push((mode.to_string(), qps));
            }
        }

        let mut admin =
            Client::connect_retry_with(&addr, auth.clone(), 50, Duration::from_millis(20))
                .expect("admin connect");
        let stats = admin.stats().expect("stats");
        assert!(
            stats.queries as usize >= probes.len(),
            "server counted the probe load"
        );
        admin.shutdown().expect("shutdown");
        handle.join();

        mode_rows.push(Json::Obj(vec![
            ("mode".into(), Json::str(*mode)),
            (
                "handshake_p50_ms".into(),
                Json::Num(quantile_ms(&hs_us, 0.50)),
            ),
            (
                "handshake_p99_ms".into(),
                Json::Num(quantile_ms(&hs_us, 0.99)),
            ),
            ("sweep".into(), Json::Arr(sweep_rows)),
        ]));
    }

    println!("\nConnection setup (TCP connect + handshake where applicable):");
    setup.print();
    println!("\nClosed-loop client sweep, per mode (client-observed latency):");
    sweep.print();
    let top_clients = sz.client_levels[sz.client_levels.len() - 1];
    for (mode, pct) in &overhead_pct {
        println!("{mode}: {pct:.1}% QPS overhead vs plaintext at {top_clients} clients");
        report::note(format!(
            "{mode}: {pct:.1}% QPS overhead vs plaintext v3 at {top_clients} clients; \
             all answers bit-identical to the plaintext baseline"
        ));
    }
    // Encryption must ride almost free on top of the MAC: the keystream
    // is the only difference between the two session modes.
    let qps_of = |name: &str| {
        last_qps
            .iter()
            .find(|(m, _)| m == name)
            .map(|&(_, q)| q)
            .expect("mode measured")
    };
    let mac = qps_of(&format!("{suite}-mac"));
    let enc = qps_of(&format!("{suite}-mac+enc"));
    let pct = (mac - enc) / mac * 100.0;
    println!("{suite}: MAC+enc costs {pct:.1}% QPS over MAC-only at {top_clients} clients");
    let enc_delta = [(suite.name().to_string(), pct)];

    // Keystream micro-bench: the raw cost of turning key material into
    // pad bytes, isolated from sockets and scans.
    let mut body = vec![0u8; 1 << 20];
    let mut ks = Table::new(&["suite", "keystream MB/s"]);
    let mbps = keystream_mbps(&mut body);
    ks.row(vec![suite.name().to_string(), format!("{mbps:.0}")]);
    let keystream_rows = vec![Json::Obj(vec![
        ("suite".into(), Json::str(suite.name())),
        ("mb_per_s".into(), Json::Num(mbps.round())),
    ])];
    println!("\nKeystream micro-bench (1 MiB buffer, pprl-crypto primitives):");
    ks.print();

    // Splice the auth summary into the workspace BENCH_index.json.
    let summary = Json::Obj(vec![
        ("experiment".into(), Json::str("E22")),
        ("records".into(), Json::Num(sz.index_records as f64)),
        ("probes_checked".into(), Json::Num(probes.len() as f64)),
        ("handshakes_timed".into(), Json::Num(sz.handshakes as f64)),
        ("modes".into(), Json::Arr(mode_rows)),
        ("keystream".into(), Json::Arr(keystream_rows)),
        (
            "enc_over_mac_pct".into(),
            Json::Arr(
                enc_delta
                    .iter()
                    .map(|(s, p)| {
                        Json::Obj(vec![
                            ("suite".into(), Json::str(s)),
                            ("pct".into(), Json::Num((p * 10.0).round() / 10.0)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    let path = report::results_dir()
        .parent()
        .expect("workspace root")
        .join("BENCH_index.json");
    append_to_bench_index(&path, summary);
    println!("\nappended auth summary: {}", path.display());

    println!("\nThe session layer prices in two things: a one-time handshake (two");
    println!("fixed-base modexps from a precomputed window table) and a per-frame");
    println!("Poly1305 tag — plus the ChaCha20 keystream when encryption is on.");
    println!("Steady-state query answers are bit-identical across all three modes.");

    let _ = std::fs::remove_dir_all(&dir);
    report::save();
}

/// Raw ChaCha20 keystream throughput over `body`, in MB/s, applied the
/// way the secure channel applies it (one ARX block per 64 bytes).
fn keystream_mbps(body: &mut [u8]) -> f64 {
    use pprl_crypto::chacha;
    let started = Instant::now();
    let mut passes = 0u64;
    while started.elapsed() < Duration::from_millis(300) {
        chacha::apply_keystream(&[0x22; 32], &[9; 12], 0, body);
        passes += 1;
    }
    (passes as f64 * body.len() as f64) / (1024.0 * 1024.0) / started.elapsed().as_secs_f64()
}

/// Starts the server for one mode: plaintext v3, or wire v4 against the
/// single privileged-identity registry.
fn serve_mode(dir: &Path, config: ServerConfig, authenticated: bool) -> pprl_server::ServerHandle {
    if authenticated {
        serve_auth(dir, "127.0.0.1:0", config, registry()).expect("serve_auth")
    } else {
        serve(dir, "127.0.0.1:0", config).expect("serve")
    }
}

/// Merges `summary` into the workspace `BENCH_index.json` under the
/// `"auth"` key, replacing any previous run's entry.
fn append_to_bench_index(path: &Path, summary: Json) {
    let merged = match std::fs::read_to_string(path) {
        Ok(existing) => {
            let trimmed = existing.trim_end();
            match trimmed.strip_suffix('}') {
                Some(head) if trimmed.starts_with('{') => {
                    let head = head.rfind(",\n  \"auth\":").map_or(head, |at| &head[..at]);
                    format!(
                        "{},\n  \"auth\": {}\n}}",
                        head.trim_end().trim_end_matches(','),
                        summary.render()
                    )
                }
                _ => summary.render(),
            }
        }
        Err(_) => Json::Obj(vec![
            ("experiment".into(), Json::str("E22")),
            ("auth".into(), summary),
        ])
        .render(),
    };
    std::fs::write(path, merged).expect("write BENCH_index.json");
}
