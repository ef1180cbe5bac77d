//! Implementations of the `pprl` CLI subcommands.
//!
//! Every command reads/writes CSV through `pprl-core::csv` and prints a
//! short human-readable report to stdout. Commands return a user-facing
//! error string on failure; `main` maps that to exit code 1.

use crate::args::Args;
use pprl_blocking::keys::BlockingKey;
use pprl_blocking::lsh::HammingLsh;
use pprl_cluster::coordinator::{ClusterConfig, Coordinator};
use pprl_cluster::server::{serve_cluster_auth, ClusterServerConfig};
use pprl_core::error::PprlError;
use pprl_core::gauge::cores;
use pprl_core::json::Json;
use pprl_core::record::Dataset;
use pprl_core::schema::Schema;
use pprl_datagen::generator::{Generator, GeneratorConfig};
use pprl_encoding::encoder::{RecordEncoder, RecordEncoderConfig};
use pprl_eval::quality::Confusion;
use pprl_index::store::{IndexConfig, IndexStore};
use pprl_pipeline::batch::{link, BlockingChoice, IndexSourceConfig, PipelineConfig};
use pprl_pipeline::dedup::{deduplicate, deduplicated_dataset, DedupConfig};
use pprl_protocols::transport::Crash;
use pprl_protocols::{multi_party_linkage, MultiPartyConfig, Pattern};
use pprl_server::client::Client;
use pprl_server::server::{serve_auth, ServerConfig};
use pprl_server::wire::StatsReport;
use pprl_server::{AuthRegistry, ClientAuth, PartyKey, SuiteOffer};
use pprl_session::registry::valid_name;

type CmdResult = Result<(), String>;

/// What [`valid_name`] accepts, for error messages.
const NAME_RULE: &str = "must be 1-64 ASCII letters, digits, `-` or `_`";

fn fail(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn read_dataset(path: &str) -> Result<Dataset, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    Dataset::from_csv(&text, Schema::person()).map_err(|e| format!("parsing {path}: {e}"))
}

fn write_file(path: &str, content: &str) -> Result<(), String> {
    std::fs::write(path, content).map_err(|e| format!("writing {path}: {e}"))
}

/// Writes via tmp + rename so a concurrent reader never observes a
/// partially written file (e.g. `--addr-file` racing a client start).
fn write_file_atomic(path: &str, content: &str) -> Result<(), String> {
    let tmp = format!("{path}.tmp");
    std::fs::write(&tmp, content).map_err(|e| format!("writing {tmp}: {e}"))?;
    std::fs::rename(&tmp, path).map_err(|e| format!("renaming {tmp} to {path}: {e}"))
}

/// `pprl generate` — synthesise a linked CSV dataset pair with ground truth.
pub fn generate(mut args: Args) -> CmdResult {
    let out_a = args.require("out-a").map_err(fail)?;
    let out_b = args.require("out-b").map_err(fail)?;
    let size: usize = args.parse_or("size", 1000).map_err(fail)?;
    let overlap: usize = args.parse_or("overlap", size / 4).map_err(fail)?;
    let corruption: f64 = args.parse_or("corruption", 0.2).map_err(fail)?;
    let seed: u64 = args.parse_or("seed", 42).map_err(fail)?;
    args.finish().map_err(fail)?;

    let mut g = Generator::new(GeneratorConfig {
        corruption_rate: corruption,
        seed,
        ..GeneratorConfig::default()
    })
    .map_err(fail)?;
    let (a, b) = g.dataset_pair(size, size, overlap).map_err(fail)?;
    write_file(&out_a, &a.to_csv())?;
    write_file(&out_b, &b.to_csv())?;
    println!(
        "wrote {out_a} and {out_b}: {size} records each, {overlap} shared entities, corruption {corruption}"
    );
    Ok(())
}

/// `pprl link` — privacy-preserving linkage of two CSV datasets.
pub fn link_cmd(mut args: Args) -> CmdResult {
    let path_a = args.require("a").map_err(fail)?;
    let path_b = args.require("b").map_err(fail)?;
    let key = args.require("key").map_err(fail)?;
    let threshold: f64 = args.parse_or("threshold", 0.8).map_err(fail)?;
    let backend = args.get_or("backend", "memory");
    let blocking = args.get_or("blocking", "lsh");
    let index_dir = args.get("index-dir");
    let top_k: usize = args.parse_or("top-k", 10).map_err(fail)?;
    let output = args.get("output");
    let evaluate = args.flag("evaluate");
    let json = args.flag("json");
    let threads: usize = args.parse_or("threads", cores()).map_err(fail)?;
    args.finish().map_err(fail)?;

    let a = read_dataset(&path_a)?;
    let b = read_dataset(&path_b)?;
    let mut cfg = PipelineConfig::standard(key.into_bytes()).map_err(fail)?;
    cfg.threshold = threshold;
    cfg.threads = threads;
    cfg.blocking = match backend.as_str() {
        "memory" => match blocking.as_str() {
            "lsh" => BlockingChoice::Lsh(HammingLsh::new(16, 24, 0xC11).map_err(fail)?),
            "standard" => BlockingChoice::Standard(BlockingKey::person_default()),
            "full" => BlockingChoice::Full,
            other => return Err(format!("unknown blocking `{other}` (lsh|standard|full)")),
        },
        "index" => {
            let Some(dir) = index_dir else {
                return Err("--backend index needs --index-dir".into());
            };
            BlockingChoice::Index(IndexSourceConfig {
                dir: dir.into(),
                top_k,
            })
        }
        other => return Err(format!("unknown backend `{other}` (memory|index)")),
    };
    let started = std::time::Instant::now();
    let result = link(&a, &b, &cfg).map_err(fail)?;
    let quality = evaluate.then(|| {
        let truth = a.ground_truth_pairs(&b);
        Confusion::from_pairs(&result.pairs(), &truth)
    });
    if json {
        let Json::Obj(mut fields) = result.to_json() else {
            unreachable!("LinkageResult::to_json returns an object");
        };
        fields.insert(0, ("records_a".into(), Json::num(a.len() as f64)));
        fields.insert(1, ("records_b".into(), Json::num(b.len() as f64)));
        fields.push((
            "elapsed_ms".into(),
            Json::num(started.elapsed().as_secs_f64() * 1000.0),
        ));
        if let Some(q) = &quality {
            fields.push(("precision".into(), Json::num(q.precision())));
            fields.push(("recall".into(), Json::num(q.recall())));
            fields.push(("f1".into(), Json::num(q.f1())));
        }
        print!("{}", Json::Obj(fields).render());
    } else {
        println!(
            "linked {} x {} records via {}: {} candidates, {} matches in {:.2?}",
            a.len(),
            b.len(),
            result.source,
            result.candidates,
            result.matches.len(),
            started.elapsed()
        );
        if let Some(q) = &quality {
            println!(
                "evaluation vs entity_id ground truth: precision {:.3}, recall {:.3}, f1 {:.3}",
                q.precision(),
                q.recall(),
                q.f1()
            );
        }
    }
    if let Some(path) = output {
        let mut csv = String::from("row_a,row_b,similarity\n");
        for (i, j, s) in &result.matches {
            csv.push_str(&format!("{i},{j},{s:.4}\n"));
        }
        write_file(&path, &csv)?;
        if !json {
            println!("matches written to {path}");
        }
    }
    Ok(())
}

/// `pprl dedup` — find and optionally remove internal duplicates.
pub fn dedup_cmd(mut args: Args) -> CmdResult {
    let input = args.require("input").map_err(fail)?;
    let threshold: f64 = args.parse_or("threshold", 0.85).map_err(fail)?;
    let backend = args.get_or("backend", "memory");
    let index_dir = args.get("index-dir");
    let top_k: usize = args.parse_or("top-k", 10).map_err(fail)?;
    let key = args.get_or("key", "local-dedup");
    let threads: usize = args.parse_or("threads", 1).map_err(fail)?;
    let output = args.get("output");
    args.finish().map_err(fail)?;

    let ds = read_dataset(&input)?;
    let mut cfg = DedupConfig::standard();
    cfg.encoder = RecordEncoderConfig::person_clk(key.into_bytes());
    cfg.threshold = threshold;
    cfg.threads = threads;
    match backend.as_str() {
        "memory" => {}
        "index" => {
            let Some(dir) = index_dir else {
                return Err("--backend index needs --index-dir".into());
            };
            cfg.blocking = BlockingChoice::Index(IndexSourceConfig {
                dir: dir.into(),
                top_k,
            });
        }
        other => return Err(format!("unknown backend `{other}` (memory|index)")),
    }
    let out = deduplicate(&ds, &cfg).map_err(fail)?;
    println!(
        "{}: {} records, {} duplicate clusters ({} rows removable), {} comparisons",
        input,
        ds.len(),
        out.clusters.len(),
        out.rows_to_drop().len(),
        out.comparisons
    );
    if let Some(path) = output {
        let clean = deduplicated_dataset(&ds, &out).map_err(fail)?;
        write_file(&path, &clean.to_csv())?;
        println!(
            "deduplicated dataset ({} records) written to {path}",
            clean.len()
        );
    }
    Ok(())
}

/// `pprl encode` — encode a dataset to CLK hex strings (what a DO would
/// actually ship to a linkage unit).
pub fn encode_cmd(mut args: Args) -> CmdResult {
    let input = args.require("input").map_err(fail)?;
    let key = args.require("key").map_err(fail)?;
    let output = args.require("output").map_err(fail)?;
    args.finish().map_err(fail)?;

    let ds = read_dataset(&input)?;
    let enc = RecordEncoder::new(
        RecordEncoderConfig::person_clk(key.into_bytes()),
        ds.schema(),
    )
    .map_err(fail)?;
    let encoded = enc.encode_dataset(&ds).map_err(fail)?;
    let mut csv = String::from("row,clk_hex\n");
    for (i, r) in encoded.records.iter().enumerate() {
        let clk = r.try_clk().map_err(fail)?;
        let hex: String = clk.to_bytes().iter().map(|b| format!("{b:02x}")).collect();
        csv.push_str(&format!("{i},{hex}\n"));
    }
    write_file(&output, &csv)?;
    println!(
        "encoded {} records to {}-bit CLKs: {output}",
        encoded.len(),
        enc.output_len()
    );
    Ok(())
}

/// `pprl multiparty` — multi-party linkage over a simulated (optionally
/// unreliable) network with retry/timeout fault tolerance.
pub fn multiparty_cmd(mut args: Args) -> CmdResult {
    let inputs = args.require("inputs").map_err(fail)?;
    let key = args.require("key").map_err(fail)?;
    let threshold: f64 = args.parse_or("threshold", 0.8).map_err(fail)?;
    let pattern = args.get_or("pattern", "ring");
    let fault_rate: f64 = args.parse_or("fault-rate", 0.0).map_err(fail)?;
    let crash_party: Option<String> = args.get("crash-party");
    let crash_round: usize = args.parse_or("crash-round", 1).map_err(fail)?;
    let retries: u32 = args.parse_or("retries", 3).map_err(fail)?;
    let min_parties: usize = args.parse_or("min-parties", 2).map_err(fail)?;
    let seed: u64 = args.parse_or("seed", 0x5EED).map_err(fail)?;
    args.finish().map_err(fail)?;

    let paths: Vec<&str> = inputs.split(',').filter(|p| !p.is_empty()).collect();
    let mut datasets = Vec::with_capacity(paths.len());
    for p in &paths {
        datasets.push(read_dataset(p)?);
    }

    let mut cfg = MultiPartyConfig::standard(key.into_bytes());
    cfg.threshold = threshold;
    cfg.pattern = match pattern.as_str() {
        "ring" => Pattern::Ring,
        "sequential" => Pattern::Sequential,
        "tree" => Pattern::Tree { fanout: 2 },
        "hierarchical" => Pattern::Hierarchical { group_size: 3 },
        other => {
            return Err(format!(
                "unknown pattern `{other}` (ring|sequential|tree|hierarchical)"
            ))
        }
    };
    cfg.min_parties = min_parties;
    cfg.fault_plan.drop_rate = fault_rate;
    cfg.fault_plan.corrupt_rate = fault_rate / 2.0;
    if let Some(p) = crash_party {
        let party: usize = p
            .parse()
            .map_err(|_| format!("flag `--crash-party`: cannot parse `{p}`"))?;
        cfg.fault_plan.crash = Some(Crash {
            party,
            at_round: crash_round.max(1),
        });
    }
    cfg.retry.max_retries = retries;
    cfg.sim_seed = seed;

    let started = std::time::Instant::now();
    let out = multi_party_linkage(&datasets, &cfg).map_err(fail)?;
    println!(
        "linked {} parties ({} records total): {} tuples compared, {} matches in {:.2?}",
        datasets.len(),
        datasets.iter().map(|d| d.len()).sum::<usize>(),
        out.tuples_compared,
        out.matches.len(),
        started.elapsed()
    );
    println!(
        "communication: {} messages, {} bytes, {} rounds (pattern {pattern})",
        out.cost.messages, out.cost.bytes, out.cost.rounds
    );
    println!(
        "fault tolerance: {} retransmissions, {} corrupt frames discarded, {} timeouts",
        out.session_stats.retransmissions,
        out.session_stats.corrupt_discarded,
        out.session_stats.timeouts
    );
    if out.failed_parties.is_empty() {
        println!("all parties completed");
    } else {
        println!(
            "degraded run: crashed parties {:?} excluded from matching",
            out.failed_parties
        );
    }
    Ok(())
}

/// Encodes a CSV dataset to `(row id, CLK filter)` pairs for the index.
fn encode_filters(
    path: &str,
    key: &str,
    id_base: u64,
) -> Result<Vec<(u64, pprl_core::bitvec::BitVec)>, String> {
    let ds = read_dataset(path)?;
    let enc = RecordEncoder::new(
        RecordEncoderConfig::person_clk(key.as_bytes().to_vec()),
        ds.schema(),
    )
    .map_err(fail)?;
    let encoded = enc.encode_dataset(&ds).map_err(fail)?;
    encoded
        .records
        .iter()
        .enumerate()
        .map(|(i, r)| Ok((id_base + i as u64, r.try_clk().map_err(fail)?.clone())))
        .collect()
}

/// `pprl index <action>` — manage a persistent sharded filter index.
///
/// The caller parses the action as the subcommand (`build`, `insert`,
/// `query`, `stats`), so `args.command` holds the action here.
pub fn index_cmd(mut args: Args) -> CmdResult {
    match args.command.as_str() {
        "build" => {
            let dir = args.require("dir").map_err(fail)?;
            let input = args.require("input").map_err(fail)?;
            let key = args.require("key").map_err(fail)?;
            let shards: u32 = args.parse_or("shards", 8).map_err(fail)?;
            args.finish().map_err(fail)?;
            let started = std::time::Instant::now();
            let records = encode_filters(&input, &key, 0)?;
            let filter_len = RecordEncoderConfig::person_clk(key).params.len;
            let config = IndexConfig::new(filter_len, shards);
            let mut store = IndexStore::create(std::path::Path::new(&dir), config).map_err(fail)?;
            store.insert_batch(&records).map_err(fail)?;
            store.flush().map_err(fail)?;
            println!(
                "built {dir}: {} records, {} shards, {}-bit filters in {:.2?}",
                records.len(),
                shards,
                config.filter_len,
                started.elapsed()
            );
            Ok(())
        }
        "insert" => {
            let dir = args.require("dir").map_err(fail)?;
            let input = args.require("input").map_err(fail)?;
            let key = args.require("key").map_err(fail)?;
            let compact = args.flag("compact");
            let id_base_flag: Option<u64> = match args.get("id-base") {
                None => None,
                Some(v) => Some(
                    v.parse()
                        .map_err(|_| format!("flag `--id-base`: cannot parse `{v}`"))?,
                ),
            };
            args.finish().map_err(fail)?;
            let mut store = IndexStore::open(std::path::Path::new(&dir)).map_err(fail)?;
            // Resident plus pending rows: `open` has just verified every
            // segment, so the count needs no second read of the files.
            let id_base = id_base_flag.unwrap_or(store.record_count() as u64);
            let records = encode_filters(&input, &key, id_base)?;
            store.insert_batch(&records).map_err(fail)?;
            store.flush().map_err(fail)?;
            print!(
                "inserted {} records into {dir} (ids from {id_base})",
                records.len()
            );
            if compact {
                let reclaimed = store.compact().map_err(fail)?;
                print!(", compacted {reclaimed} segments");
            }
            println!();
            Ok(())
        }
        "query" => {
            let dir = args.require("dir").map_err(fail)?;
            let input = args.require("input").map_err(fail)?;
            let key = args.require("key").map_err(fail)?;
            let row: usize = args.parse_or("row", 0).map_err(fail)?;
            let top_k: usize = args.parse_or("top-k", 10).map_err(fail)?;
            let threads: usize = args.parse_or("threads", 1).map_err(fail)?;
            let json = args.flag("json");
            args.finish().map_err(fail)?;
            let queries = encode_filters(&input, &key, 0)?;
            let Some((_, query)) = queries.get(row) else {
                return Err(format!("--row {row} out of range ({} rows)", queries.len()));
            };
            let store = IndexStore::open(std::path::Path::new(&dir)).map_err(fail)?;
            let reader = store.reader().map_err(fail)?;
            let started = std::time::Instant::now();
            let hits = reader.top_k(query, top_k, threads).map_err(fail)?;
            if json {
                let obj = Json::Obj(vec![
                    ("records".into(), Json::num(reader.len() as f64)),
                    ("row".into(), Json::num(row as f64)),
                    ("top_k".into(), Json::num(top_k as f64)),
                    (
                        "elapsed_ms".into(),
                        Json::num(started.elapsed().as_secs_f64() * 1000.0),
                    ),
                    (
                        "hits".into(),
                        Json::Arr(
                            hits.iter()
                                .map(|h| {
                                    Json::Obj(vec![
                                        ("id".into(), Json::num(h.id as f64)),
                                        ("score".into(), Json::num(h.score)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ]);
                print!("{}", obj.render());
                return Ok(());
            }
            println!(
                "top-{top_k} of {} records for {input} row {row} ({:.2?}):",
                reader.len(),
                started.elapsed()
            );
            for hit in &hits {
                println!("  id {:>8}  dice {:.4}", hit.id, hit.score);
            }
            if hits.is_empty() {
                println!("  (no records indexed)");
            }
            Ok(())
        }
        "stats" => {
            let dir = args.require("dir").map_err(fail)?;
            args.finish().map_err(fail)?;
            let store = IndexStore::open(std::path::Path::new(&dir)).map_err(fail)?;
            let s = store.stats().map_err(fail)?;
            println!(
                "{dir}: {} records persisted in {} segments across {} shards, \
                 {} pending in log, {}-bit filters, {} bytes on disk",
                s.persisted_records,
                s.segments,
                s.num_shards,
                s.pending_records,
                s.filter_len,
                s.disk_bytes
            );
            println!(
                "  scan kernel: {} (set PPRL_KERNEL to override; \
                 `pprl kernels` lists this host's options)",
                pprl_similarity::kernel::kernel_name()
            );
            if s.quarantined_segments > 0 {
                println!(
                    "  DEGRADED: {} segment(s) quarantined at open; reads cover \
                     surviving segments only (see {dir}/quarantine/)",
                    s.quarantined_segments
                );
            }
            Ok(())
        }
        "snapshot" => {
            let dir = args.require("dir").map_err(fail)?;
            let out = args.require("out").map_err(fail)?;
            args.finish().map_err(fail)?;
            let store = IndexStore::open(std::path::Path::new(&dir)).map_err(fail)?;
            let started = std::time::Instant::now();
            let shipped = store
                .export_snapshot(std::path::Path::new(&out))
                .map_err(fail)?;
            // Round-trip verification: the copy must open clean, exactly
            // as a fresh shard node receiving it would.
            let replica = IndexStore::import_snapshot(std::path::Path::new(&out)).map_err(fail)?;
            println!(
                "snapshot of {dir} shipped to {out}: {} records in {} segments \
                 ({} bytes) in {:.2?}; copy verified clean",
                shipped.records,
                shipped.segments,
                shipped.bytes,
                started.elapsed()
            );
            drop(replica);
            Ok(())
        }
        other => Err(format!(
            "unknown index action `{other}` (build|insert|query|stats|snapshot)"
        )),
    }
}

/// `pprl keygen` — generate a party key and write it with owner-only
/// permissions, either to an explicit `--out` path or into an auth
/// directory as `<identity>.psk` (optionally granting the identity a
/// tenant in `tenants.map`). Only the fingerprint is ever printed.
///
/// Names are checked with the rule [`AuthRegistry::load`] applies, before
/// anything is written: a name it would reject (or one such as `../x`
/// that escapes the directory) is an error that leaves the directory as
/// it was.
pub fn keygen(mut args: Args) -> CmdResult {
    let out = args.get("out");
    let auth_dir = args.get("auth-dir");
    let identity = args.get("identity");
    let tenant = args.get("tenant");
    args.finish().map_err(fail)?;

    if identity.as_deref().is_some_and(|name| !valid_name(name)) {
        return Err(fail(PprlError::invalid("identity", NAME_RULE)));
    }
    if let Some(tenant) = &tenant {
        if tenant != "*" && !valid_name(tenant) {
            return Err(fail(PprlError::invalid(
                "tenant",
                format!("{NAME_RULE}, or `*`"),
            )));
        }
        if auth_dir.is_none() || identity.is_none() {
            return Err("--tenant needs --auth-dir and --identity".into());
        }
    }
    let key = PartyKey::generate().map_err(fail)?;
    let path = match (&out, &auth_dir, &identity) {
        (Some(path), None, _) => std::path::PathBuf::from(path),
        (None, Some(dir), Some(identity)) => {
            std::fs::create_dir_all(dir).map_err(|e| format!("creating {dir}: {e}"))?;
            std::path::Path::new(dir).join(format!("{identity}.psk"))
        }
        _ => return Err("keygen needs either --out FILE or --auth-dir DIR --identity NAME".into()),
    };
    key.save(&path).map_err(fail)?;
    println!(
        "wrote key {} (fingerprint {})",
        path.display(),
        key.fingerprint()
    );
    if let (Some(tenant), Some(dir), Some(identity)) = (tenant, &auth_dir, &identity) {
        let map = std::path::Path::new(dir).join("tenants.map");
        let mut lines = match std::fs::read_to_string(&map) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
            Err(e) => return Err(format!("reading {}: {e}", map.display())),
        };
        if !lines.is_empty() && !lines.ends_with('\n') {
            lines.push('\n');
        }
        lines.push_str(&format!("{identity} {tenant}\n"));
        std::fs::write(&map, lines).map_err(|e| format!("writing {}: {e}", map.display()))?;
        println!(
            "granted `{identity}` tenant `{tenant}` in {} ({})",
            map.display(),
            if tenant == "*" {
                "privileged: any tenant, may shut servers down"
            } else {
                "single tenant"
            }
        );
    }
    Ok(())
}

/// Reads the session-auth client flags — `--identity NAME --key-file
/// PATH [--tenant T] [--encrypt]` — into a [`ClientAuth`]; every
/// session is authenticated, so the first two are required.
fn auth_from_args(args: &mut Args) -> Result<ClientAuth, String> {
    let identity = args.get("identity");
    let key_file = args.get("key-file");
    let tenant = args.get_or("tenant", "default");
    let encrypt = args.flag("encrypt");
    let (Some(identity), Some(path)) = (identity, key_file) else {
        return Err(
            "--identity NAME and --key-file K.psk are required: every session \
                    is authenticated (create a key with `pprl keygen`)"
                .into(),
        );
    };
    let key = PartyKey::load(std::path::Path::new(&path)).map_err(fail)?;
    Ok(ClientAuth {
        identity,
        key,
        tenant,
        encrypt,
        suites: SuiteOffer::default(),
    })
}

/// Reads the required `--auth-dir DIR` of a serving command into the
/// registry its front end checks every session against.
fn registry_from_args(args: &mut Args) -> Result<(String, AuthRegistry), String> {
    let dir = args.get("auth-dir").ok_or(
        "--auth-dir DIR is required: every session is authenticated (create keys \
         with `pprl keygen --auth-dir DIR --identity NAME --tenant T`)",
    )?;
    let registry = AuthRegistry::load(std::path::Path::new(&dir)).map_err(fail)?;
    Ok((dir, registry))
}

/// `pprl serve` — serve a persistent index over TCP until a client
/// sends `shutdown` (or the process is killed). Only authenticated
/// wire v4 sessions are accepted, and the server hosts the tenant
/// namespaces named by the auth directory's grants.
pub fn serve_cmd(mut args: Args) -> CmdResult {
    let dir = args.require("index").map_err(fail)?;
    let host = args.get_or("host", "127.0.0.1");
    let port: u16 = args.parse_or("port", 7878).map_err(fail)?;
    let workers: usize = args.parse_or("workers", 2).map_err(fail)?;
    let queue: usize = args.parse_or("queue", 32).map_err(fail)?;
    let cache: usize = args.parse_or("cache", 256).map_err(fail)?;
    let compact_ms: u64 = args.parse_or("compact-interval-ms", 500).map_err(fail)?;
    let addr_file = args.get("addr-file");
    let (auth_dir, registry) = registry_from_args(&mut args)?;
    args.finish().map_err(fail)?;

    let config = ServerConfig {
        workers,
        queue_capacity: queue,
        cache_capacity: cache,
        compact_interval: (compact_ms > 0).then(|| std::time::Duration::from_millis(compact_ms)),
        ..ServerConfig::default()
    };
    let bind = format!("{host}:{port}");
    let handle = serve_auth(std::path::Path::new(&dir), &bind, config, registry).map_err(fail)?;
    let addr = handle.addr();
    // With --port 0 the kernel picks the port; publish the resolved
    // address so scripts (and the CI smoke job) can find it.
    if let Some(path) = addr_file {
        write_file_atomic(&path, &addr.to_string())?;
    }
    println!(
        "serving {dir} on {addr}: {workers} workers, queue {queue}, cache {cache}, \
         compaction every {compact_ms} ms (0 = disabled), auth dir {auth_dir}"
    );
    let backend = handle.join();
    let stats = backend
        .default_service()
        .stats_report(workers as u32, queue as u32);
    println!(
        "shut down after {} queries, {} links, {} inserts, {} compactions",
        stats.queries, stats.links, stats.inserts, stats.compactions
    );
    Ok(())
}

/// `pprl client <action>` — talk to a running `pprl serve`.
///
/// Like `index`, the action is parsed as the subcommand, so
/// `args.command` holds `query|link|insert|stats|shutdown`.
pub fn client_cmd(mut args: Args) -> CmdResult {
    let action = args.command.clone();
    let addr = args.require("addr").map_err(fail)?;
    // Overall per-call budget, including Busy backoff-and-retry cycles.
    let deadline_ms: u64 = args.parse_or("deadline-ms", 60_000).map_err(fail)?;
    // --cluster asserts the peer is a `pprl cluster serve` coordinator
    // (the wire protocol is identical either way, so without the flag a
    // client cannot tell — with it, pointing at a lone shard by mistake
    // is a loud error instead of silently partial results).
    let cluster = args.flag("cluster");
    let auth = auth_from_args(&mut args)?;
    let connect = |addr: &str| -> Result<Client, String> {
        let deadline = std::time::Duration::from_millis(deadline_ms);
        let mut client = Client::connect_within(addr, auth.clone(), deadline).map_err(fail)?;
        if cluster {
            let probe = client.stats().map_err(fail)?;
            if probe.cluster_shards == 0 {
                return Err(format!(
                    "{addr} is a single pprl-server node, not a cluster \
                     coordinator (drop --cluster, or point at a `pprl cluster \
                     serve` address)"
                ));
            }
        }
        Ok(client)
    };
    match action.as_str() {
        "query" => {
            let input = args.require("input").map_err(fail)?;
            let key = args.require("key").map_err(fail)?;
            let row: usize = args.parse_or("row", 0).map_err(fail)?;
            let top_k: usize = args.parse_or("top-k", 10).map_err(fail)?;
            let json = args.flag("json");
            args.finish().map_err(fail)?;
            let queries = encode_filters(&input, &key, 0)?;
            let Some((_, query)) = queries.get(row) else {
                return Err(format!("--row {row} out of range ({} rows)", queries.len()));
            };
            let started = std::time::Instant::now();
            let mut client = connect(&addr)?;
            let hits = client.query(query, top_k).map_err(fail)?;
            if json {
                let obj = Json::Obj(vec![
                    ("addr".into(), Json::Str(addr)),
                    ("row".into(), Json::num(row as f64)),
                    ("top_k".into(), Json::num(top_k as f64)),
                    (
                        "elapsed_ms".into(),
                        Json::num(started.elapsed().as_secs_f64() * 1000.0),
                    ),
                    (
                        "hits".into(),
                        Json::Arr(
                            hits.iter()
                                .map(|h| {
                                    Json::Obj(vec![
                                        ("id".into(), Json::num(h.id as f64)),
                                        ("score".into(), Json::num(h.score)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ]);
                print!("{}", obj.render());
                return Ok(());
            }
            println!(
                "top-{top_k} from {addr} for {input} row {row} ({:.2?}):",
                started.elapsed()
            );
            for hit in &hits {
                println!("  id {:>8}  dice {:.4}", hit.id, hit.score);
            }
            if hits.is_empty() {
                println!("  (no hits)");
            }
            Ok(())
        }
        "link" => {
            let input = args.require("input").map_err(fail)?;
            let key = args.require("key").map_err(fail)?;
            let top_k: usize = args.parse_or("top-k", 5).map_err(fail)?;
            let min_score: f64 = args.parse_or("min-score", 0.8).map_err(fail)?;
            let output = args.get("output");
            args.finish().map_err(fail)?;
            let probes = encode_filters(&input, &key, 0)?;
            let filters: Vec<_> = probes.into_iter().map(|(_, f)| f).collect();
            let started = std::time::Instant::now();
            let mut client = connect(&addr)?;
            let per_probe = client.link(&filters, top_k, min_score).map_err(fail)?;
            let total: usize = per_probe.iter().map(|h| h.len()).sum();
            println!(
                "linked {} probes against {addr}: {total} hits at dice >= {min_score} in {:.2?}",
                filters.len(),
                started.elapsed()
            );
            let mut csv = String::from("row,id,similarity\n");
            for (row, hits) in per_probe.iter().enumerate() {
                for hit in hits {
                    csv.push_str(&format!("{row},{},{:.4}\n", hit.id, hit.score));
                }
            }
            match output {
                Some(path) => {
                    write_file(&path, &csv)?;
                    println!("hits written to {path}");
                }
                None => print!("{csv}"),
            }
            Ok(())
        }
        "insert" => {
            let input = args.require("input").map_err(fail)?;
            let key = args.require("key").map_err(fail)?;
            let id_base_flag: Option<u64> = match args.get("id-base") {
                None => None,
                Some(v) => Some(
                    v.parse()
                        .map_err(|_| format!("flag `--id-base`: cannot parse `{v}`"))?,
                ),
            };
            args.finish().map_err(fail)?;
            let mut client = connect(&addr)?;
            let id_base = match id_base_flag {
                Some(v) => v,
                // Default to appending after the currently served records.
                None => client.stats().map_err(fail)?.records,
            };
            let records = encode_filters(&input, &key, id_base)?;
            let (count, generation) = client.insert(&records).map_err(fail)?;
            println!(
                "inserted {count} records into {addr} (ids from {id_base}); \
                 now serving generation {generation}"
            );
            Ok(())
        }
        "stats" => {
            let json = args.flag("json");
            args.finish().map_err(fail)?;
            let mut client = connect(&addr)?;
            let s = client.stats().map_err(fail)?;
            if json {
                print!("{}", stats_json(&addr, &s).render());
                return Ok(());
            }
            print_stats(&addr, &s);
            Ok(())
        }
        "shutdown" => {
            args.finish().map_err(fail)?;
            let mut client = connect(&addr)?;
            client.shutdown().map_err(fail)?;
            println!("server at {addr} acknowledged shutdown");
            Ok(())
        }
        other => Err(format!(
            "unknown client action `{other}` (query|link|insert|stats|shutdown)"
        )),
    }
}

/// Renders a `StatsReport` as JSON (shared by `client stats` and
/// `cluster stats`).
fn stats_json(addr: &str, s: &StatsReport) -> Json {
    Json::Obj(vec![
        ("addr".into(), Json::Str(addr.to_string())),
        ("records".into(), Json::num(s.records as f64)),
        ("generation".into(), Json::num(s.generation as f64)),
        ("queries".into(), Json::num(s.queries as f64)),
        ("links".into(), Json::num(s.links as f64)),
        ("inserts".into(), Json::num(s.inserts as f64)),
        ("cache_hits".into(), Json::num(s.cache_hits as f64)),
        ("cache_misses".into(), Json::num(s.cache_misses as f64)),
        ("busy_rejected".into(), Json::num(s.busy_rejected as f64)),
        ("compactions".into(), Json::num(s.compactions as f64)),
        (
            "segments_merged".into(),
            Json::num(s.segments_merged as f64),
        ),
        ("merge_rows".into(), Json::num(s.merge_rows as f64)),
        ("kernel".into(), Json::Str(s.kernel.clone())),
        ("bytes_read".into(), Json::num(s.bytes_read as f64)),
        ("latency_p50_us".into(), Json::num(s.latency_p50_us as f64)),
        ("latency_p99_us".into(), Json::num(s.latency_p99_us as f64)),
        ("uptime_ms".into(), Json::num(s.uptime_ms as f64)),
        ("workers".into(), Json::num(s.workers as f64)),
        ("queue_capacity".into(), Json::num(s.queue_capacity as f64)),
        (
            "quarantined_segments".into(),
            Json::num(s.quarantined_segments as f64),
        ),
        ("degraded".into(), Json::Bool(s.degraded)),
        ("cluster_shards".into(), Json::num(s.cluster_shards as f64)),
        ("shards_down".into(), Json::num(s.shards_down as f64)),
        (
            "missing_shards".into(),
            Json::Arr(
                s.missing_shards
                    .iter()
                    .map(|i| Json::num(*i as f64))
                    .collect(),
            ),
        ),
    ])
}

/// Prints a `StatsReport` for humans, including the cluster section and
/// degraded-mode banners when they apply.
fn print_stats(addr: &str, s: &StatsReport) {
    println!(
        "{addr}: {} records at generation {}, up {} ms",
        s.records, s.generation, s.uptime_ms
    );
    println!(
        "  requests: {} queries, {} links, {} inserts; latency p50 {} us, p99 {} us",
        s.queries, s.links, s.inserts, s.latency_p50_us, s.latency_p99_us
    );
    println!(
        "  cache: {} hits / {} misses; backpressure: {} rejected (queue {}, {} workers)",
        s.cache_hits, s.cache_misses, s.busy_rejected, s.queue_capacity, s.workers
    );
    println!(
        "  maintenance: {} compactions merged {} segments ({} rows rewritten); \
         {} bytes read",
        s.compactions, s.segments_merged, s.merge_rows, s.bytes_read
    );
    if !s.kernel.is_empty() {
        println!("  scan kernel: {}", s.kernel);
    }
    if s.cluster_shards > 0 {
        println!(
            "  cluster: {} shards, {} down",
            s.cluster_shards, s.shards_down
        );
        if s.shards_down > 0 {
            println!(
                "  DEGRADED CLUSTER: shard(s) {:?} unreachable; results cover \
                 surviving shards only",
                s.missing_shards
            );
        }
    }
    if s.degraded && s.quarantined_segments > 0 {
        println!(
            "  DEGRADED: {} segment(s) quarantined; results cover \
             surviving segments only",
            s.quarantined_segments
        );
    }
}

/// `pprl cluster <action>` — run or inspect a scatter–gather cluster
/// coordinator over sharded `pprl serve` nodes.
///
/// Like `index`/`client`, the action is parsed as the subcommand, so
/// `args.command` holds `serve|stats`.
pub fn cluster_cmd(mut args: Args) -> CmdResult {
    match args.command.as_str() {
        "serve" => {
            let shards_arg = args.require("shards").map_err(fail)?;
            let host = args.get_or("host", "127.0.0.1");
            let port: u16 = args.parse_or("port", 7879).map_err(fail)?;
            let workers: usize = args.parse_or("workers", 2).map_err(fail)?;
            let queue: usize = args.parse_or("queue", 32).map_err(fail)?;
            let quorum_flag: Option<usize> = match args.get("quorum") {
                None => None,
                Some(v) => Some(
                    v.parse()
                        .map_err(|_| format!("flag `--quorum`: cannot parse `{v}`"))?,
                ),
            };
            let deadline_ms: u64 = args.parse_or("deadline-ms", 10_000).map_err(fail)?;
            let addr_file = args.get("addr-file");
            // Shard-leg credentials: the coordinator is itself a client
            // to the shard nodes, so it reuses the client auth flags.
            let shard_auth = auth_from_args(&mut args)?;
            // Front-end registry: who may connect to the coordinator.
            let (_, registry) = registry_from_args(&mut args)?;
            args.finish().map_err(fail)?;

            let shards: Vec<String> = shards_arg
                .split(',')
                .filter(|s| !s.is_empty())
                .map(str::to_string)
                .collect();
            if shards.is_empty() {
                return Err("--shards needs a comma-separated list of host:port".into());
            }
            // Default quorum: all shards (reads degrade only if asked to).
            let min_shards = quorum_flag.unwrap_or(shards.len());
            let n_shards = shards.len();
            let coordinator = std::sync::Arc::new(
                Coordinator::connect(ClusterConfig {
                    shards,
                    min_shards,
                    deadline: std::time::Duration::from_millis(deadline_ms.max(1)),
                    shard_auth: Some(shard_auth),
                })
                .map_err(fail)?,
            );
            let missing = coordinator.missing_shards();
            let front_config = ClusterServerConfig {
                workers,
                queue_capacity: queue,
                ..ClusterServerConfig::default()
            };
            let bind = format!("{host}:{port}");
            let handle = serve_cluster_auth(
                std::sync::Arc::clone(&coordinator),
                &bind,
                front_config,
                registry,
            )
            .map_err(fail)?;
            let addr = handle.addr();
            if let Some(path) = addr_file {
                write_file_atomic(&path, &addr.to_string())?;
            }
            println!(
                "cluster coordinator on {addr}: {n_shards} shards, quorum {min_shards}, \
                 {workers} workers, queue {queue}, shard deadline {deadline_ms} ms"
            );
            if !missing.is_empty() {
                println!(
                    "  DEGRADED CLUSTER: shard(s) {missing:?} unreachable at start; \
                     serving from the survivors"
                );
            }
            let coordinator = handle.join();
            let stats = coordinator.stats();
            println!(
                "coordinator shut down after {} queries, {} links, {} inserts \
                 ({} degraded replies); shards keep running",
                stats.queries,
                stats.links,
                stats.inserts,
                coordinator
                    .metrics
                    .degraded_replies
                    .load(std::sync::atomic::Ordering::Relaxed)
            );
            Ok(())
        }
        "stats" => {
            let addr = args.require("addr").map_err(fail)?;
            let json = args.flag("json");
            let auth = auth_from_args(&mut args)?;
            args.finish().map_err(fail)?;
            let mut client = Client::connect_with(&addr, auth).map_err(fail)?;
            let s = client.stats().map_err(fail)?;
            if s.cluster_shards == 0 {
                return Err(format!(
                    "{addr} is a single pprl-server node, not a cluster \
                     coordinator (use `pprl client stats`)"
                ));
            }
            if json {
                print!("{}", stats_json(&addr, &s).render());
                return Ok(());
            }
            print_stats(&addr, &s);
            Ok(())
        }
        other => Err(format!("unknown cluster action `{other}` (serve|stats)")),
    }
}

/// `pprl kernels` — report this host's scan-kernel dispatch: detected
/// CPU features, every runnable implementation, the `PPRL_KERNEL`
/// override when one is set, and the active choice; then the SHA
/// compression token hashing runs on (`sha-ni` or `scalar`).
///
/// `--list` prints just the runnable kernel names, one per line, for
/// scripting (CI iterates it to force each path in turn). `--check`
/// turns an unsupported `PPRL_KERNEL` request into a hard error
/// instead of the silent best-available fallback the library applies,
/// and then runs every op of the active kernel against the `scalar`
/// path on fixed vectors (`check_kernel_ops`), so a forced path that
/// dispatches but miscounts fails too.
pub fn kernels_cmd(mut args: Args) -> CmdResult {
    use pprl_similarity::kernel;
    let list = args.flag("list");
    let check = args.flag("check");
    args.finish().map_err(fail)?;
    let names: Vec<&str> = kernel::available_kernels()
        .iter()
        .map(|k| k.name())
        .collect();
    if list {
        for name in &names {
            println!("{name}");
        }
        return Ok(());
    }
    let features = kernel::cpu_features();
    println!(
        "cpu features: {}",
        if features.is_empty() {
            "(none relevant)".to_string()
        } else {
            features.join(" ")
        }
    );
    println!("available kernels (worst to best): {}", names.join(" "));
    match kernel::requested_kernel() {
        Some(req) if kernel::requested_is_supported() => {
            println!("requested via PPRL_KERNEL: {req}");
        }
        Some(req) => {
            println!("requested via PPRL_KERNEL: {req} (NOT runnable on this host)");
        }
        None => println!("requested via PPRL_KERNEL: (unset; best available wins)"),
    }
    println!("active kernel: {}", kernel::kernel_name());
    println!("sha compression: {}", pprl_crypto::sha::compression_name());
    if check && !kernel::requested_is_supported() {
        return Err(format!(
            "PPRL_KERNEL={} is not runnable on this host (available: {})",
            kernel::requested_kernel().unwrap_or("?"),
            names.join(" ")
        ));
    }
    if check {
        let cases = check_kernel_ops(kernel::active_kernel(), kernel::available_kernels()[0])?;
        println!("self-check: {cases} comparisons against scalar, all equal");
    }
    Ok(())
}

/// Runs `and_count`, `and_count4` and `scan_ge` of `active` against
/// `reference`'s `and_count` on fixed pseudo-random vectors: strides of 1, 15, 16 and
/// 17 words (below, one short of, exactly and one past the widest vector
/// width), tiles of 0–17 rows (every step-size remainder), and `need` at
/// 0, a mid-tile count and past the maximum. Returns the number of
/// comparisons made, or a description of the first difference.
fn check_kernel_ops(
    active: pprl_similarity::kernel::Kernel,
    reference: pprl_similarity::kernel::Kernel,
) -> std::result::Result<usize, String> {
    let mut rng = pprl_core::rng::SplitMix64::new(0x5E1F_C4EC);
    // ~44 % density, like a CLK: an AND of two draws is 25 % dense, the
    // OR of two such ANDs 1 − 0.75² ≈ 44 %.
    let mut words = |n: usize| -> Vec<u64> {
        (0..n)
            .map(|_| (rng.next_u64() & rng.next_u64()) | (rng.next_u64() & rng.next_u64()))
            .collect()
    };
    let mut cases = 0usize;
    let differ = |op: &str, stride: usize, rows: usize, detail: String| {
        format!(
            "kernel `{}` disagrees with `{}` on {op} (stride {stride} words, {rows} rows): {detail}",
            active.name(),
            reference.name()
        )
    };
    for stride in [1usize, 15, 16, 17] {
        for n in 0..=17usize {
            let query = words(stride);
            let tile = words(n * stride);
            let counts: Vec<usize> = tile
                .chunks_exact(stride)
                .map(|row| reference.and_count(&query, row))
                .collect();
            for (i, row) in tile.chunks_exact(stride).enumerate() {
                let got = active.and_count(&query, row);
                cases += 1;
                if got != counts[i] {
                    return Err(differ(
                        "and_count",
                        stride,
                        n,
                        format!("row {i}: {got} vs {}", counts[i]),
                    ));
                }
            }
            for (b, block) in tile.chunks_exact(4 * stride).enumerate() {
                let got = active.and_count4(&query, block);
                cases += 1;
                if got[..] != counts[4 * b..4 * b + 4] {
                    return Err(differ(
                        "and_count4",
                        stride,
                        n,
                        format!("block {b}: {got:?}"),
                    ));
                }
            }
            let max = counts.iter().copied().max().unwrap_or(0);
            let mid = counts.get(n / 2).copied().unwrap_or(0);
            for need in [0, mid, max + 1] {
                let mut got = Vec::new();
                active.scan_ge(&query, &tile, need, &mut got);
                cases += 1;
                let want = counts
                    .iter()
                    .enumerate()
                    .filter(|(_, &c)| c >= need)
                    .map(|(i, &c)| (i as u32, c as u32));
                if !got.iter().copied().eq(want) {
                    return Err(differ(
                        "scan_ge",
                        stride,
                        n,
                        format!("need {need}: reported {got:?} of counts {counts:?}"),
                    ));
                }
            }
        }
    }
    Ok(cases)
}

/// Top-level help text.
pub fn help() -> &'static str {
    "pprl — privacy-preserving record linkage toolkit

USAGE:
  pprl <command> [flags]

COMMANDS:
  generate  --out-a A.csv --out-b B.csv [--size N] [--overlap N]
            [--corruption F] [--seed N]
            synthesise a linked dataset pair with ground truth

  link      --a A.csv --b B.csv --key SECRET [--threshold F]
            [--backend memory|index] [--blocking lsh|standard|full]
            [--index-dir IDX] [--top-k K] [--threads N]
            [--output matches.csv] [--evaluate] [--json]
            privacy-preserving linkage of two CSV datasets;
            --backend index links A against a pre-built persistent
            index (see `pprl index build`) instead of re-blocking B
            in memory; --threads caps the threads encoding, blocking,
            scanning and comparison may borrow while cores are idle
            (default: every core; results do not depend on it);
            --json emits machine-readable stats (source, candidates,
            comparisons saved, bytes read, pairs)

  dedup     --input A.csv [--threshold F] [--backend memory|index]
            [--index-dir IDX] [--top-k K] [--key SECRET] [--threads N]
            [--output clean.csv]
            find internal duplicate clusters; optionally materialise
            the deduplicated dataset; --backend index self-joins
            through a pre-built persistent index of the same dataset
            (build it with `pprl index build` and the same --key,
            default local-dedup)

  encode    --input A.csv --key SECRET --output clks.csv
            encode records to CLK Bloom filters (hex)

  index     build  --dir IDX --input A.csv --key SECRET [--shards N]
            insert --dir IDX --input B.csv --key SECRET [--id-base N]
                   [--compact]
            query  --dir IDX --input Q.csv --key SECRET [--row N]
                   [--top-k K] [--threads N] [--json]
            stats  --dir IDX
            snapshot --dir IDX --out COPY
            persistent sharded CLK filter store: build from CSV, add
            records incrementally, run exact top-k Dice queries
            (multi-threaded), inspect/verify the on-disk state; WAL
            appends are fsynced before inserts are acked, and opening
            quarantines corrupt segments (stats reports DEGRADED)
            instead of refusing; snapshot ships a verified byte-exact
            copy (sealed segments + WAL tail) for seeding a new
            cluster shard node

  keygen    --out key.psk | --auth-dir DIR --identity NAME [--tenant T]
            generate a 32-byte party key and write it hex-encoded with
            owner-only (0600) permissions; with --auth-dir the key
            lands as DIR/NAME.psk and --tenant appends a grant to
            DIR/tenants.map (`*` = privileged: any tenant, may shut
            servers down); NAME and T are 1-64 ASCII letters, digits,
            `-` or `_`; only the fingerprint is printed

  serve     --index IDX --auth-dir DIR [--host H] [--port P]
            [--workers N] [--queue N] [--cache N]
            [--compact-interval-ms MS] [--addr-file PATH]
            serve the index over TCP: concurrent top-k Dice queries,
            batch link, inserts acked at their WAL fsync, background
            flush and size-tiered compaction every MS (0 disables it;
            inserts then flush inline), snapshot-isolated
            reads; a large scan borrows idle cores on its own and
            hands them back to writers (no thread flag); --port 0
            binds an ephemeral port and --addr-file publishes the
            resolved address atomically (tmp + rename); every client
            completes the wire v4 handshake against the keys in
            --auth-dir (see keygen), and the server hosts one namespace
            per granted tenant (IDX/<tenant>, or IDX itself as `default`
            when it holds a MANIFEST directly; sessions negotiate
            ChaCha20/Poly1305); runs until a client sends shutdown

  client    query    --addr H:P --input Q.csv --key SECRET [--row N]
                     [--top-k K] [--json]
            link     --addr H:P --input Q.csv --key SECRET [--top-k K]
                     [--min-score F] [--output hits.csv]
            insert   --addr H:P --input B.csv --key SECRET [--id-base N]
            stats    --addr H:P [--json]
            shutdown --addr H:P
            talk to a running `pprl serve` or `pprl cluster serve`;
            every action also takes the session credentials
            --identity NAME --key-file K.psk [--tenant T] [--encrypt]
            (--encrypt additionally encrypts frame bodies; shutdown
            needs a `*` grant), [--deadline-ms MS] (default 60000),
            the budget for the connect and handshake and for the call,
            including bounded-backoff retries after Busy rejections,
            and [--cluster], which
            asserts the address is a cluster coordinator (loud error
            when pointed at a lone shard); query/link results are
            bit-for-bit identical to offline `pprl index query`

  cluster   serve --shards H:P,H:P,... --auth-dir DIR
                  --identity NAME --key-file K.psk [--encrypt]
                  [--host H] [--port P] [--workers N] [--queue N]
                  [--quorum N] [--deadline-ms MS] [--addr-file PATH]
            stats --addr H:P --identity NAME --key-file K.psk
                  [--encrypt] [--json]
            scatter-gather coordinator over sharded `pprl serve` nodes,
            speaking the same wire protocol on both sides: queries
            broadcast to every shard and merge exactly (results
            bit-identical to one node holding the union corpus),
            inserts route by a stable hash of the record id, and a
            dead shard degrades reads down to --quorum survivors
            (default: all shards) instead of failing them — stats
            shows a DEGRADED CLUSTER banner with the missing shards;
            shutdown stops only the coordinator, never the shards;
            --identity/--key-file authenticate the coordinator to its
            shards and --auth-dir holds the keys its own clients
            authenticate against

  kernels   [--list] [--check]
            report the scan-kernel dispatch on this host: detected CPU
            features, runnable implementations, and the active choice;
            every scan obeys PPRL_KERNEL=scalar|portable|avx2|avx512
            (unset or `auto` picks the best the CPU supports); --list
            prints just the runnable names for scripting, --check fails
            loudly when PPRL_KERNEL names a kernel this host cannot run
            or when any op of the active kernel (and_count, and_count4,
            scan_ge) disagrees with the scalar path on fixed vectors;
            also names the SHA compression token hashing runs on
            (sha-ni where the CPU has it, else scalar; no knob)

  multiparty --inputs A.csv,B.csv,C.csv --key SECRET [--threshold F]
            [--pattern ring|sequential|tree|hierarchical]
            [--fault-rate F] [--crash-party N] [--crash-round N]
            [--retries N] [--min-parties N] [--seed N]
            multi-party linkage over a simulated network; --fault-rate
            injects message drops/corruption (recovered by retries),
            --crash-party kills one party mid-run (the run degrades to
            the survivors or aborts once fewer than --min-parties remain)

CSV format: header row with the person-schema columns (first_name,
last_name, street, city, postcode, dob, gender, age); an optional
entity_id column carries evaluation ground truth."
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::Args;

    fn raw(s: &str) -> Vec<String> {
        s.split_whitespace().map(|x| x.to_string()).collect()
    }

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("pprl-cli-tests");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        dir.join(name).to_string_lossy().into_owned()
    }

    #[test]
    fn kernel_self_check_passes_on_every_runnable_path() {
        let kernels = pprl_similarity::kernel::available_kernels();
        for &k in kernels {
            let cases = check_kernel_ops(k, kernels[0]).unwrap_or_else(|e| panic!("{e}"));
            assert!(cases > 900, "{}: only {cases} comparisons", k.name());
        }
    }

    #[test]
    fn generate_then_link_then_dedup_then_encode() {
        let a = tmp("a.csv");
        let b = tmp("b.csv");
        let matches = tmp("m.csv");
        let clean = tmp("clean.csv");
        let clks = tmp("clks.csv");

        generate(
            Args::parse(
                &raw(&format!(
                    "generate --out-a {a} --out-b {b} --size 120 --overlap 40 --seed 7"
                )),
                &[],
            )
            .unwrap(),
        )
        .unwrap();
        assert!(std::path::Path::new(&a).exists());

        link_cmd(
            Args::parse(
                &raw(&format!(
                    "link --a {a} --b {b} --key s3cret --evaluate --output {matches}"
                )),
                &["evaluate"],
            )
            .unwrap(),
        )
        .unwrap();
        let m = std::fs::read_to_string(&matches).unwrap();
        assert!(m.starts_with("row_a,row_b,similarity"));
        assert!(m.lines().count() > 10, "should find matches");

        dedup_cmd(Args::parse(&raw(&format!("dedup --input {a} --output {clean}")), &[]).unwrap())
            .unwrap();
        assert!(std::path::Path::new(&clean).exists());

        encode_cmd(
            Args::parse(
                &raw(&format!("encode --input {a} --key s3cret --output {clks}")),
                &[],
            )
            .unwrap(),
        )
        .unwrap();
        let c = std::fs::read_to_string(&clks).unwrap();
        assert!(c.starts_with("row,clk_hex"));
        assert_eq!(c.lines().count(), 121); // header + 120 rows
    }

    #[test]
    fn dedup_via_index_backend() {
        let input = tmp("dedup-src.csv");
        let other = tmp("dedup-other.csv");
        let idx = tmp("dedup-idx");
        let _ = std::fs::remove_dir_all(&idx);
        generate(
            Args::parse(
                &raw(&format!(
                    "generate --out-a {input} --out-b {other} --size 60 --overlap 20 --seed 11"
                )),
                &[],
            )
            .unwrap(),
        )
        .unwrap();
        // Index the dataset under the dedup encoder key, then self-join
        // through it. Missing --index-dir must be a clean usage error.
        index_cmd(
            Args::parse(
                &raw(&format!(
                    "build --dir {idx} --input {input} --key local-dedup"
                )),
                &[],
            )
            .unwrap(),
        )
        .unwrap();
        let err = dedup_cmd(
            Args::parse(&raw(&format!("dedup --input {input} --backend index")), &[]).unwrap(),
        )
        .unwrap_err();
        assert!(err.contains("--index-dir"), "{err}");
        dedup_cmd(
            Args::parse(
                &raw(&format!(
                    "dedup --input {input} --backend index --index-dir {idx} --top-k 60 --threads 2"
                )),
                &[],
            )
            .unwrap(),
        )
        .unwrap();
        std::fs::remove_dir_all(&idx).ok();
    }

    #[test]
    fn multiparty_with_faults_and_crash() {
        // Three party CSVs with a common core of entities.
        let mut g = Generator::new(GeneratorConfig {
            seed: 21,
            corruption_rate: 0.1,
            ..GeneratorConfig::default()
        })
        .unwrap();
        let ds = g.multi_party(3, 12, 4).unwrap();
        let mut paths = Vec::new();
        for (i, d) in ds.iter().enumerate() {
            let p = tmp(&format!("mp-{i}.csv"));
            std::fs::write(&p, d.to_csv()).unwrap();
            paths.push(p);
        }
        let inputs = paths.join(",");
        // Fault-free run.
        multiparty_cmd(
            Args::parse(&raw(&format!("multiparty --inputs {inputs} --key k")), &[]).unwrap(),
        )
        .unwrap();
        // Lossy network, extra retries.
        multiparty_cmd(
            Args::parse(
                &raw(&format!(
                    "multiparty --inputs {inputs} --key k --fault-rate 0.05 --retries 8"
                )),
                &[],
            )
            .unwrap(),
        )
        .unwrap();
        // A crash with a full quorum demanded is a clean error, not a panic.
        let e = multiparty_cmd(
            Args::parse(
                &raw(&format!(
                    "multiparty --inputs {inputs} --key k --crash-party 1 --min-parties 3"
                )),
                &[],
            )
            .unwrap(),
        )
        .unwrap_err();
        assert!(e.contains("quorum"), "{e}");
        // Bad pattern is a clean error.
        let e = multiparty_cmd(
            Args::parse(
                &raw(&format!(
                    "multiparty --inputs {inputs} --key k --pattern bogus"
                )),
                &[],
            )
            .unwrap(),
        )
        .unwrap_err();
        assert!(e.contains("bogus"));
    }

    #[test]
    fn index_build_insert_query_stats_lifecycle() {
        let a = tmp("idx-a.csv");
        let b = tmp("idx-b.csv");
        let dir = tmp("idx-store");
        let _ = std::fs::remove_dir_all(&dir);
        generate(
            Args::parse(
                &raw(&format!(
                    "generate --out-a {a} --out-b {b} --size 60 --overlap 20 --seed 11"
                )),
                &[],
            )
            .unwrap(),
        )
        .unwrap();

        index_cmd(
            Args::parse(
                &raw(&format!(
                    "build --dir {dir} --input {a} --key s3cret --shards 4"
                )),
                &[],
            )
            .unwrap(),
        )
        .unwrap();
        index_cmd(
            Args::parse(
                &raw(&format!(
                    "insert --dir {dir} --input {b} --key s3cret --compact"
                )),
                &["compact"],
            )
            .unwrap(),
        )
        .unwrap();
        index_cmd(
            Args::parse(
                &raw(&format!(
                    "query --dir {dir} --input {a} --key s3cret --row 3 --top-k 5 --threads 2"
                )),
                &[],
            )
            .unwrap(),
        )
        .unwrap();
        index_cmd(Args::parse(&raw(&format!("stats --dir {dir}")), &[]).unwrap()).unwrap();

        // The store really holds both datasets, and a stored record's own
        // filter is its unit-similarity top hit.
        let store = IndexStore::open(std::path::Path::new(&dir)).unwrap();
        let s = store.stats().unwrap();
        assert_eq!(s.persisted_records, 120);
        assert_eq!(s.pending_records, 0);
        let reader = store.reader().unwrap();
        let queries = encode_filters(&a, "s3cret", 0).unwrap();
        let hits = reader.top_k(&queries[3].1, 5, 2).unwrap();
        assert_eq!(hits[0].id, 3);
        assert_eq!(hits[0].score, 1.0);
        // The inserted rows took ids continuing from the 60 built ones.
        let mut ids: Vec<u64> = reader
            .top_k(&queries[0].1, 500, 1)
            .unwrap()
            .iter()
            .map(|h| h.id)
            .collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..120).collect::<Vec<u64>>());
        for (id, filter) in encode_filters(&b, "s3cret", 60).unwrap().iter().step_by(7) {
            let hits = reader.top_k(filter, 500, 1).unwrap();
            assert!(
                hits.iter().any(|h| h.id == *id && h.score == 1.0),
                "inserted record {id} is not its own exact match"
            );
        }

        // Bad action and out-of-range row are clean errors.
        let e =
            index_cmd(Args::parse(&raw(&format!("drop --dir {dir}")), &[]).unwrap()).unwrap_err();
        assert!(e.contains("unknown index action"), "{e}");
        let e = index_cmd(
            Args::parse(
                &raw(&format!(
                    "query --dir {dir} --input {a} --key s3cret --row 999"
                )),
                &[],
            )
            .unwrap(),
        )
        .unwrap_err();
        assert!(e.contains("out of range"), "{e}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn link_backend_index_matches_memory_full() {
        let a = tmp("lbi-a.csv");
        let b = tmp("lbi-b.csv");
        let dir = tmp("lbi-idx");
        let mem = tmp("lbi-mem.csv");
        let idx = tmp("lbi-via-idx.csv");
        let _ = std::fs::remove_dir_all(&dir);
        generate(
            Args::parse(
                &raw(&format!(
                    "generate --out-a {a} --out-b {b} --size 80 --overlap 30 --seed 13"
                )),
                &[],
            )
            .unwrap(),
        )
        .unwrap();
        // Index dataset B with id = row, the contract of --backend index.
        index_cmd(
            Args::parse(
                &raw(&format!("build --dir {dir} --input {b} --key s3cret")),
                &[],
            )
            .unwrap(),
        )
        .unwrap();
        // Exhaustive in-memory reference vs index-backed run with
        // top_k ≥ |B|: the match CSVs must be identical.
        link_cmd(
            Args::parse(
                &raw(&format!(
                    "link --a {a} --b {b} --key s3cret --blocking full --output {mem}"
                )),
                &[],
            )
            .unwrap(),
        )
        .unwrap();
        link_cmd(
            Args::parse(
                &raw(&format!(
                    "link --a {a} --b {b} --key s3cret --backend index --index-dir {dir} \
                     --top-k 80 --json --output {idx}"
                )),
                &["json"],
            )
            .unwrap(),
        )
        .unwrap();
        let mem_csv = std::fs::read_to_string(&mem).unwrap();
        let idx_csv = std::fs::read_to_string(&idx).unwrap();
        assert!(mem_csv.lines().count() > 10, "reference run found matches");
        assert_eq!(
            mem_csv, idx_csv,
            "index backend must reproduce the match set"
        );
        // JSON query against the same index runs cleanly.
        index_cmd(
            Args::parse(
                &raw(&format!(
                    "query --dir {dir} --input {a} --key s3cret --row 1 --top-k 3 --json"
                )),
                &["json"],
            )
            .unwrap(),
        )
        .unwrap();
        // --backend index without --index-dir is a clean error.
        let e = link_cmd(
            Args::parse(
                &raw(&format!(
                    "link --a {a} --b {b} --key s3cret --backend index"
                )),
                &[],
            )
            .unwrap(),
        )
        .unwrap_err();
        assert!(e.contains("--index-dir"), "{e}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A fresh auth directory under `tag` holding one privileged
    /// identity, `ops`, and the client flags that present it.
    fn ops_keys(tag: &str) -> (String, String) {
        let auth_dir = tmp(tag);
        let _ = std::fs::remove_dir_all(&auth_dir);
        keygen(
            Args::parse(
                &raw(&format!(
                    "keygen --auth-dir {auth_dir} --identity ops --tenant *"
                )),
                &[],
            )
            .unwrap(),
        )
        .unwrap();
        let creds = format!("--identity ops --key-file {auth_dir}/ops.psk");
        (auth_dir, creds)
    }

    /// Every file under `dir`, by path, with its bytes.
    fn dir_contents(dir: &str) -> Vec<(std::path::PathBuf, Vec<u8>)> {
        let mut files: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .map(|entry| {
                let path = entry.unwrap().path();
                let bytes = std::fs::read(&path).unwrap();
                (path, bytes)
            })
            .collect();
        files.sort();
        files
    }

    #[test]
    fn keygen_rejects_names_the_registry_would_and_writes_nothing() {
        let (auth_dir, _) = ops_keys("keygen-names");
        let escaped = std::path::Path::new(&auth_dir).join("../x.psk");
        let _ = std::fs::remove_file(&escaped);
        let before = dir_contents(&auth_dir);
        for (identity, tenant, field) in [
            ("../x", "default", "identity"),
            ("a b", "default", "identity"),
            ("", "default", "identity"),
            ("carol", "x y", "tenant"),
            ("carol", "../t", "tenant"),
            ("carol", "**", "tenant"),
        ] {
            let argv: Vec<String> = [
                "keygen",
                "--auth-dir",
                &auth_dir,
                "--identity",
                identity,
                "--tenant",
                tenant,
            ]
            .iter()
            .map(|s| s.to_string())
            .collect();
            let e = keygen(Args::parse(&argv, &[]).unwrap()).unwrap_err();
            assert!(
                e.starts_with(&format!("invalid parameter `{field}`")),
                "{identity:?}/{tenant:?}: {e}"
            );
            assert_eq!(dir_contents(&auth_dir), before, "{identity:?}/{tenant:?}");
            assert!(!escaped.exists());
        }
        // The directory still loads, and a good name still lands in it.
        AuthRegistry::load(std::path::Path::new(&auth_dir)).unwrap();
        keygen(
            Args::parse(
                &raw(&format!(
                    "keygen --auth-dir {auth_dir} --identity carol-2 --tenant org_b"
                )),
                &[],
            )
            .unwrap(),
        )
        .unwrap();
        let registry = AuthRegistry::load(std::path::Path::new(&auth_dir)).unwrap();
        assert!(registry.get("carol-2").is_some());
        std::fs::remove_dir_all(&auth_dir).unwrap();
    }

    #[test]
    fn client_deadline_bounds_connect_and_handshake() {
        // A peer that accepts the connection and never says a word.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
        let peer = std::thread::spawn(move || {
            let held = listener.accept().unwrap();
            let _ = done_rx.recv();
            drop(held);
        });
        let (auth_dir, ops) = ops_keys("deadline-keys");
        let started = std::time::Instant::now();
        let e = client_cmd(
            Args::parse(
                &raw(&format!("stats --addr {addr} {ops} --deadline-ms 300")),
                &[],
            )
            .unwrap(),
        )
        .unwrap_err();
        let elapsed = started.elapsed();
        assert!(e.starts_with("timeout"), "{e}");
        assert!(
            elapsed < std::time::Duration::from_secs(3),
            "a silent peer held a 300 ms call for {elapsed:?}"
        );
        drop(done_tx);
        peer.join().unwrap();
        std::fs::remove_dir_all(&auth_dir).unwrap();
    }

    #[test]
    fn serve_and_client_round_trip() {
        let a = tmp("srv-a.csv");
        let b = tmp("srv-b.csv");
        let dir = tmp("srv-idx");
        let hits_csv = tmp("srv-hits.csv");
        let _ = std::fs::remove_dir_all(&dir);
        let (auth_dir, ops) = ops_keys("srv-keys");
        generate(
            Args::parse(
                &raw(&format!(
                    "generate --out-a {a} --out-b {b} --size 50 --overlap 15 --seed 5"
                )),
                &[],
            )
            .unwrap(),
        )
        .unwrap();
        index_cmd(
            Args::parse(
                &raw(&format!("build --dir {dir} --input {a} --key s3cret")),
                &[],
            )
            .unwrap(),
        )
        .unwrap();

        // Serve on an ephemeral port; discover it via --addr-file.
        let addr_file = tmp("srv-addr.txt");
        let _ = std::fs::remove_file(&addr_file);
        let serve_args = Args::parse(
            &raw(&format!(
                "serve --index {dir} --port 0 --workers 2 --compact-interval-ms 50 \
                 --auth-dir {auth_dir} --addr-file {addr_file}"
            )),
            &[],
        )
        .unwrap();
        let server = std::thread::spawn(move || serve_cmd(serve_args));
        let addr = {
            let mut waited = 0;
            loop {
                if let Ok(s) = std::fs::read_to_string(&addr_file) {
                    if !s.is_empty() {
                        break s;
                    }
                }
                std::thread::sleep(std::time::Duration::from_millis(50));
                waited += 1;
                assert!(waited < 200, "server never published its address");
            }
        };

        client_cmd(
            Args::parse(
                &raw(&format!(
                    "query --addr {addr} {ops} --input {b} --key s3cret --row 2 --top-k 5 --json"
                )),
                &["json"],
            )
            .unwrap(),
        )
        .unwrap();
        client_cmd(
            Args::parse(
                &raw(&format!(
                    "link --addr {addr} {ops} --input {b} --key s3cret --top-k 3 \
                     --min-score 0.7 --output {hits_csv}"
                )),
                &[],
            )
            .unwrap(),
        )
        .unwrap();
        let hits = std::fs::read_to_string(&hits_csv).unwrap();
        assert!(hits.starts_with("row,id,similarity"));
        assert!(hits.lines().count() > 10, "overlapping rows should link");
        client_cmd(
            Args::parse(
                &raw(&format!(
                    "insert --addr {addr} {ops} --input {b} --key s3cret"
                )),
                &[],
            )
            .unwrap(),
        )
        .unwrap();
        client_cmd(Args::parse(&raw(&format!("stats --addr {addr} {ops}")), &[]).unwrap()).unwrap();
        // Bad action is a clean error that doesn't touch the server.
        let e = client_cmd(Args::parse(&raw(&format!("poke --addr {addr} {ops}")), &[]).unwrap())
            .unwrap_err();
        assert!(e.contains("unknown client action"), "{e}");
        client_cmd(Args::parse(&raw(&format!("shutdown --addr {addr} {ops}")), &[]).unwrap())
            .unwrap();
        server.join().unwrap().unwrap();

        // The wire insert was durable: 50 built + 50 inserted.
        let store = IndexStore::open(std::path::Path::new(&dir)).unwrap();
        assert_eq!(store.record_count(), 100);
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&auth_dir).unwrap();
    }

    #[test]
    fn keygen_serve_auth_and_client_round_trip() {
        let a = tmp("auth-a.csv");
        let b = tmp("auth-b.csv");
        let dir = tmp("auth-idx");
        let auth_dir = tmp("auth-keys");
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&auth_dir);
        generate(
            Args::parse(
                &raw(&format!(
                    "generate --out-a {a} --out-b {b} --size 40 --overlap 10 --seed 9"
                )),
                &[],
            )
            .unwrap(),
        )
        .unwrap();
        index_cmd(
            Args::parse(
                &raw(&format!("build --dir {dir} --input {a} --key s3cret")),
                &[],
            )
            .unwrap(),
        )
        .unwrap();

        // keygen into the auth dir: a default-tenant client and a
        // privileged operator.
        keygen(
            Args::parse(
                &raw(&format!(
                    "keygen --auth-dir {auth_dir} --identity alice --tenant default"
                )),
                &[],
            )
            .unwrap(),
        )
        .unwrap();
        keygen(
            Args::parse(
                &raw(&format!(
                    "keygen --auth-dir {auth_dir} --identity admin --tenant *"
                )),
                &[],
            )
            .unwrap(),
        )
        .unwrap();
        let alice_key = format!("{auth_dir}/alice.psk");
        let admin_key = format!("{auth_dir}/admin.psk");

        let addr_file = tmp("auth-addr.txt");
        let _ = std::fs::remove_file(&addr_file);
        let serve_args = Args::parse(
            &raw(&format!(
                "serve --index {dir} --port 0 --workers 2 --compact-interval-ms 0 \
                 --auth-dir {auth_dir} --addr-file {addr_file}"
            )),
            &[],
        )
        .unwrap();
        let server = std::thread::spawn(move || serve_cmd(serve_args));
        let addr = {
            let mut waited = 0;
            loop {
                if let Ok(s) = std::fs::read_to_string(&addr_file) {
                    if !s.is_empty() {
                        break s;
                    }
                }
                std::thread::sleep(std::time::Duration::from_millis(50));
                waited += 1;
                assert!(waited < 200, "server never published its address");
            }
        };

        // A client without credentials is an argument error naming
        // keygen, and so is a server without an auth directory.
        let e = client_cmd(Args::parse(&raw(&format!("stats --addr {addr}")), &[]).unwrap())
            .unwrap_err();
        assert!(e.contains("pprl keygen"), "{e}");
        let e =
            serve_cmd(Args::parse(&raw(&format!("serve --index {dir} --port 0")), &[]).unwrap())
                .unwrap_err();
        assert!(e.contains("--auth-dir") && e.contains("pprl keygen"), "{e}");

        // Authenticated, encrypted query and stats work.
        client_cmd(
            Args::parse(
                &raw(&format!(
                    "query --addr {addr} --input {b} --key s3cret --row 1 --top-k 3 \
                     --identity alice --key-file {alice_key} --encrypt"
                )),
                &["encrypt"],
            )
            .unwrap(),
        )
        .unwrap();
        client_cmd(
            Args::parse(
                &raw(&format!(
                    "stats --addr {addr} --identity alice --key-file {alice_key}"
                )),
                &[],
            )
            .unwrap(),
        )
        .unwrap();

        // Shutdown needs the privileged grant.
        let e = client_cmd(
            Args::parse(
                &raw(&format!(
                    "shutdown --addr {addr} --identity alice --key-file {alice_key}"
                )),
                &[],
            )
            .unwrap(),
        )
        .unwrap_err();
        assert!(e.contains("not privileged"), "{e}");
        client_cmd(
            Args::parse(
                &raw(&format!(
                    "shutdown --addr {addr} --identity admin --key-file {admin_key}"
                )),
                &[],
            )
            .unwrap(),
        )
        .unwrap();
        server.join().unwrap().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&auth_dir).unwrap();
    }

    #[test]
    fn missing_or_truncated_manifest_is_a_clean_error() {
        // Regression: `pprl index` against a directory that is not an
        // index (or whose manifest was cut short) must return a typed
        // error string, never panic.
        let dir = tmp("no-manifest");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let e =
            index_cmd(Args::parse(&raw(&format!("stats --dir {dir}")), &[]).unwrap()).unwrap_err();
        assert!(e.contains("MANIFEST missing"), "{e}");
        let a = tmp("no-manifest-q.csv");
        let bdummy = tmp("no-manifest-b.csv");
        generate(
            Args::parse(
                &raw(&format!(
                    "generate --out-a {a} --out-b {bdummy} --size 5 --overlap 1"
                )),
                &[],
            )
            .unwrap(),
        )
        .unwrap();
        let e = index_cmd(
            Args::parse(&raw(&format!("query --dir {dir} --input {a} --key k")), &[]).unwrap(),
        )
        .unwrap_err();
        assert!(e.contains("MANIFEST missing"), "{e}");
        let e = index_cmd(
            Args::parse(
                &raw(&format!("insert --dir {dir} --input {a} --key k")),
                &[],
            )
            .unwrap(),
        )
        .unwrap_err();
        assert!(e.contains("MANIFEST missing"), "{e}");

        // A truncated manifest is a storage error, also non-panicking.
        std::fs::write(std::path::Path::new(&dir).join("MANIFEST"), b"PIDX").unwrap();
        let e =
            index_cmd(Args::parse(&raw(&format!("stats --dir {dir}")), &[]).unwrap()).unwrap_err();
        assert!(e.contains("storage error"), "{e}");
        // `pprl serve` surfaces the same typed error.
        let (auth_dir, _) = ops_keys("no-manifest-keys");
        let e = serve_cmd(
            Args::parse(
                &raw(&format!(
                    "serve --index {dir} --auth-dir {auth_dir} --port 0"
                )),
                &[],
            )
            .unwrap(),
        )
        .unwrap_err();
        assert!(e.contains("storage error"), "{e}");
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&auth_dir).unwrap();
    }

    #[test]
    fn helpful_errors() {
        // missing files
        let e = link_cmd(
            Args::parse(&raw("link --a /nonexistent.csv --b /x.csv --key k"), &[]).unwrap(),
        )
        .unwrap_err();
        assert!(e.contains("nonexistent"));
        // bad blocking choice
        let a = tmp("err-a.csv");
        let b = tmp("err-b.csv");
        generate(
            Args::parse(
                &raw(&format!(
                    "generate --out-a {a} --out-b {b} --size 10 --overlap 2"
                )),
                &[],
            )
            .unwrap(),
        )
        .unwrap();
        let e = link_cmd(
            Args::parse(
                &raw(&format!("link --a {a} --b {b} --key k --blocking bogus")),
                &[],
            )
            .unwrap(),
        )
        .unwrap_err();
        assert!(e.contains("bogus"));
        // `--bench` is no flag of any command
        let e = kernels_cmd(Args::parse(&raw("kernels --bench 1"), &[]).unwrap()).unwrap_err();
        assert!(e.contains("unknown flag `--bench`"), "{e}");
    }

    #[test]
    fn help_mentions_every_command() {
        for c in [
            "generate",
            "link",
            "dedup",
            "encode",
            "multiparty",
            "index",
            "serve",
            "client",
            "cluster",
            "snapshot",
        ] {
            assert!(help().contains(c));
        }
    }

    #[test]
    fn index_snapshot_ships_a_verified_copy() {
        let a = tmp("snap-a.csv");
        let b = tmp("snap-b.csv");
        let dir = tmp("snap-idx");
        let copy = tmp("snap-copy");
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&copy);
        generate(
            Args::parse(
                &raw(&format!(
                    "generate --out-a {a} --out-b {b} --size 40 --overlap 10 --seed 9"
                )),
                &[],
            )
            .unwrap(),
        )
        .unwrap();
        index_cmd(
            Args::parse(
                &raw(&format!("build --dir {dir} --input {a} --key s3cret")),
                &[],
            )
            .unwrap(),
        )
        .unwrap();
        index_cmd(Args::parse(&raw(&format!("snapshot --dir {dir} --out {copy}")), &[]).unwrap())
            .unwrap();
        // The copy is a fully working index: stats and queries run.
        index_cmd(Args::parse(&raw(&format!("stats --dir {copy}")), &[]).unwrap()).unwrap();
        let replica = IndexStore::open(std::path::Path::new(&copy)).unwrap();
        assert_eq!(replica.record_count(), 40);
        drop(replica);
        // Re-exporting onto an existing index is a clean error.
        let e = index_cmd(
            Args::parse(&raw(&format!("snapshot --dir {dir} --out {copy}")), &[]).unwrap(),
        )
        .unwrap_err();
        assert!(e.contains("already holds an index"), "{e}");
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&copy).unwrap();
    }

    #[test]
    fn cluster_serve_stats_and_client_round_trip() {
        let a = tmp("cl-a.csv");
        let b = tmp("cl-b.csv");
        let dir0 = tmp("cl-s0");
        let dir1 = tmp("cl-s1");
        let _ = std::fs::remove_dir_all(&dir0);
        let _ = std::fs::remove_dir_all(&dir1);
        let (auth_dir, ops) = ops_keys("cl-keys");
        generate(
            Args::parse(
                &raw(&format!(
                    "generate --out-a {a} --out-b {b} --size 40 --overlap 15 --seed 3"
                )),
                &[],
            )
            .unwrap(),
        )
        .unwrap();
        for (dir, input) in [(&dir0, &a), (&dir1, &b)] {
            index_cmd(
                Args::parse(
                    &raw(&format!("build --dir {dir} --input {input} --key s3cret")),
                    &[],
                )
                .unwrap(),
            )
            .unwrap();
        }

        // Two shard nodes on ephemeral ports, each with a worker to
        // spare beside the coordinator's pooled session.
        let wait_addr = |path: &str| -> String {
            let mut waited = 0;
            loop {
                if let Ok(s) = std::fs::read_to_string(path) {
                    if !s.is_empty() {
                        break s;
                    }
                }
                std::thread::sleep(std::time::Duration::from_millis(50));
                waited += 1;
                assert!(waited < 200, "no address published at {path}");
            }
        };
        let mut shard_threads = Vec::new();
        let mut shard_addrs = Vec::new();
        for (i, dir) in [&dir0, &dir1].into_iter().enumerate() {
            let addr_file = tmp(&format!("cl-shard{i}.addr"));
            let _ = std::fs::remove_file(&addr_file);
            let serve_args = Args::parse(
                &raw(&format!(
                    "serve --index {dir} --port 0 --workers 2 --compact-interval-ms 0 \
                     --auth-dir {auth_dir} --addr-file {addr_file}"
                )),
                &[],
            )
            .unwrap();
            shard_threads.push(std::thread::spawn(move || serve_cmd(serve_args)));
            shard_addrs.push(wait_addr(&addr_file));
        }

        // `cluster stats` against a lone shard is a loud error.
        let e = cluster_cmd(
            Args::parse(&raw(&format!("stats --addr {} {ops}", shard_addrs[0])), &[]).unwrap(),
        )
        .unwrap_err();
        assert!(e.contains("not a cluster coordinator"), "{e}");

        // The coordinator fronting both shards.
        let coord_file = tmp("cl-coord.addr");
        let _ = std::fs::remove_file(&coord_file);
        let cluster_args = Args::parse(
            &raw(&format!(
                "serve --shards {} --auth-dir {auth_dir} {ops} --port 0 --workers 2 \
                 --addr-file {coord_file}",
                shard_addrs.join(",")
            )),
            &[],
        )
        .unwrap();
        let coordinator = std::thread::spawn(move || cluster_cmd(cluster_args));
        let coord_addr = wait_addr(&coord_file);

        // A stock client (with --cluster asserting the topology) sees
        // the union corpus through the coordinator.
        client_cmd(
            Args::parse(
                &raw(&format!(
                    "query --addr {coord_addr} {ops} --input {a} --key s3cret --row 1 \
                     --top-k 3 --cluster --json"
                )),
                &["cluster", "json"],
            )
            .unwrap(),
        )
        .unwrap();
        // --cluster against a lone shard is the mirrored loud error.
        let e = client_cmd(
            Args::parse(
                &raw(&format!("stats --addr {} {ops} --cluster", shard_addrs[0])),
                &["cluster"],
            )
            .unwrap(),
        )
        .unwrap_err();
        assert!(e.contains("not a cluster coordinator"), "{e}");
        cluster_cmd(Args::parse(&raw(&format!("stats --addr {coord_addr} {ops}")), &[]).unwrap())
            .unwrap();
        cluster_cmd(
            Args::parse(
                &raw(&format!("stats --addr {coord_addr} {ops} --json")),
                &["json"],
            )
            .unwrap(),
        )
        .unwrap();

        // Shutdown stops the coordinator only; the shards then answer
        // their own shutdowns.
        let client = |line: String| client_cmd(Args::parse(&raw(&line), &[]).unwrap());
        client(format!("shutdown --addr {coord_addr} {ops}")).unwrap();
        coordinator.join().unwrap().unwrap();
        for addr in &shard_addrs {
            client(format!("stats --addr {addr} {ops}")).unwrap();
            client(format!("shutdown --addr {addr} {ops}")).unwrap();
        }
        for t in shard_threads {
            t.join().unwrap().unwrap();
        }
        std::fs::remove_dir_all(&dir0).unwrap();
        std::fs::remove_dir_all(&dir1).unwrap();
        std::fs::remove_dir_all(&auth_dir).unwrap();
    }
}
