//! The benchmark's fixed vocabulary: workload names and sizes, metric
//! names, units, directions and regression bounds. `BENCHMARK.json`
//! states the same facts for the driver; a unit test keeps the two
//! from drifting apart.

/// Neighbours asked for by every query and link.
pub const TOP_K: usize = 10;
/// Minimum Dice score of a reported `Link` hit.
pub const LINK_MIN_SCORE: f64 = 0.8;
/// Probes per `Link` request.
pub const LINK_BATCH: usize = 32;
/// Records per paced insert, and inserts per second.
pub const INSERT_BATCH: usize = 200;
pub const INSERTS_PER_SECOND: u32 = 10;
/// Length of a measurement window: 200 ms holds hundreds of queries,
/// 500 ms a dozen Link batches and five paced inserts.
pub const QUERY_WINDOW_MS: u64 = 200;
pub const INGEST_WINDOW_MS: u64 = 500;
/// Probes checked against the brute-force oracle before timing.
pub const GATE_PROBES: usize = 64;
/// Operations replayed layer by layer in a traced run.
pub const TRACED_OPS: usize = 256;
/// Sequential connects timed on `serve_hot_5k`.
pub const CONNECTS: usize = 200;
/// Lowest F1 `batch_link_20k` accepts against the ground truth.
pub const MIN_F1: f64 = 0.95;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    BatchLink,
    ServeScan,
    ServeHot,
    IngestLink,
    ClusterScan,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    /// Records in the corpus (per side, for the batch pair).
    pub records: usize,
    /// Distinct probes the clients cycle through.
    pub probes: usize,
    /// Times set-up is repeated for the `setup_s` median. Encoding
    /// costs ~140 µs of CPU per record, so only the small corpora can
    /// afford more than one.
    pub setup_reps: usize,
    /// What one unit of `throughput` is.
    pub unit_of_work: &'static str,
    /// What `p50_ms` is the median of.
    pub latency_of: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "batch_link_20k",
        kind: Kind::BatchLink,
        records: 20_000,
        probes: 256,
        setup_reps: 5,
        unit_of_work: "record linked (|A|+|B| per link() call)",
        latency_of: "one link() call over the 20k x 20k pair",
        why: "The paper's encode-block-compare-classify pipeline on one thread, almost all of it \
              encoding: encoder, blocking or comparison changes show here, scan and session \
              changes must not.",
    },
    Workload {
        name: "serve_scan_100k",
        kind: Kind::ServeScan,
        records: 100_000,
        probes: 1024,
        setup_reps: 1,
        unit_of_work: "verified top-10 query",
        latency_of: "query round trip seen by the client",
        why: "Encrypted session to one node over 100k records; 1024 probes cycle through a \
              256-entry result cache, so every query scans and the index layer does most of \
              the work.",
    },
    Workload {
        name: "serve_hot_5k",
        kind: Kind::ServeHot,
        records: 5_000,
        probes: 128,
        setup_reps: 5,
        unit_of_work: "verified top-10 query",
        latency_of: "query round trip seen by the client",
        why: "Same stack over 5k records with 128 probes that fit the result cache: socket, \
              codec, MAC/encrypt and hand-off do the work, the scan almost none; mirror of \
              serve_scan_100k.",
    },
    Workload {
        name: "ingest_link_50k",
        kind: Kind::IngestLink,
        records: 50_000,
        probes: 1024,
        setup_reps: 1,
        unit_of_work: "probe answered by a 32-probe Link batch",
        latency_of: "ack of a 200-record insert, from the time it was due",
        why: "Writes beside reads: paced fsync'd inserts and background compaction while \
              batched Link scans read through snapshot swaps, so a read gain that costs \
              writers is visible.",
    },
    Workload {
        name: "cluster_scan_100k",
        kind: Kind::ClusterScan,
        records: 100_000,
        probes: 1024,
        setup_reps: 1,
        unit_of_work: "verified top-10 query",
        latency_of: "query round trip seen by the client",
        why: "The serve_scan_100k corpus behind a coordinator and 3 shard servers: each reply \
              waits for the slowest shard, pays two session hops and a merge; the delta to \
              serve_scan_100k is the scatter-gather tax.",
    },
];

impl Workload {
    pub fn named(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// Corpus size for this run: 1/100 of full size under `--smoke`.
    pub fn records(&self, smoke: bool) -> usize {
        if smoke {
            self.records / 100
        } else {
            self.records
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before it counts as a regression; per-layer metrics have none.
    pub bound: Option<f64>,
}

const fn gated(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

/// What a user of the system waits for. Every workload reports all
/// three; what a unit of work and a latency sample are is stated per
/// workload above.
pub const END_TO_END: [Metric; 3] = [
    gated("throughput", "ops/s", Better::Higher, 0.25),
    gated("p50_ms", "ms", Better::Lower, 0.25),
    gated("setup_s", "s", Better::Lower, 0.25),
];

/// One metric per layer call, taken from outside by timing public
/// functions on the workload's own corpus and probes.
pub const PER_LAYER: [Metric; 21] = [
    layer("encoding.encode_us_per_record", "us", Better::Lower),
    layer("blocking.candidates_ms", "ms", Better::Lower),
    layer("blocking.candidates_per_true_match", "ratio", Better::Lower),
    layer("similarity.compare_ns_per_pair", "ns", Better::Lower),
    layer("matching.assign_ms", "ms", Better::Lower),
    layer("similarity.and_count_rows_per_s", "rows/s", Better::Higher),
    layer("index.build_records_per_s", "records/s", Better::Higher),
    layer("index.bytes_per_record", "bytes", Better::Lower),
    layer("index.compact_ms", "ms", Better::Lower),
    layer("index.top_k_us", "us", Better::Lower),
    layer("index.top_k_batch_us_per_probe", "us", Better::Lower),
    layer("server.service_query_us", "us", Better::Lower),
    layer("server.cache_hit_ratio", "ratio", Better::Higher),
    layer("server.plan_hit_ratio", "ratio", Better::Higher),
    layer("server.wire_codec_us", "us", Better::Lower),
    layer("server.transport_residual_us", "us", Better::Lower),
    layer("server.busy_rejected", "count", Better::Lower),
    layer("session.seal_open_us", "us", Better::Lower),
    layer("session.handshake_ms", "ms", Better::Lower),
    layer("cluster.merge_us", "us", Better::Lower),
    layer("cluster.scatter_gather_us", "us", Better::Lower),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    /// `BENCHMARK.json` and this file describe the same benchmark.
    #[test]
    fn benchmark_json_agrees_with_the_code() {
        let manifest = Json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let names = |key: &str| -> Vec<String> {
            manifest
                .get(key)
                .unwrap()
                .as_arr()
                .unwrap()
                .iter()
                .map(|m| m.get("name").unwrap().as_str().unwrap().to_string())
                .collect()
        };
        assert_eq!(names("workloads"), WORKLOADS.map(|w| w.name));
        assert_eq!(names("end_to_end"), END_TO_END.map(|m| m.name));
        assert_eq!(names("per_layer"), PER_LAYER.map(|m| m.name));
        for (key, metrics) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            for (entry, metric) in manifest
                .get(key)
                .unwrap()
                .as_arr()
                .unwrap()
                .iter()
                .zip(metrics)
            {
                assert_eq!(entry.get("unit").unwrap().as_str(), Some(metric.unit));
                assert_eq!(
                    entry.get("better").unwrap().as_str(),
                    Some(metric.better.as_str())
                );
                assert_eq!(entry.get("bound").and_then(Json::as_f64), metric.bound);
            }
        }
        for (entry, workload) in manifest
            .get("workloads")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .zip(&WORKLOADS)
        {
            let why = entry.get("why").unwrap().as_str().unwrap();
            assert_eq!(
                why,
                workload
                    .why
                    .split_whitespace()
                    .collect::<Vec<_>>()
                    .join(" ")
            );
            assert!(
                why.len() <= 200,
                "{}: why has {} characters",
                workload.name,
                why.len()
            );
        }
        assert_eq!(
            manifest.get("paths").unwrap().as_arr().unwrap(),
            [Json::str("benchmark")]
        );
    }
}
