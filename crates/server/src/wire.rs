//! The `pprl-server` wire protocol: framed, checksummed, typed.
//!
//! Every message travels as one frame following the
//! `protocols::transport` / `pprl-index` framing conventions:
//!
//! ```text
//! plen    u32 LE   payload length in bytes
//! payload          version u8 | opcode u8 | body
//! fnv1a   u64 LE   checksum of the length prefix + payload
//! ```
//!
//! The FNV-1a absorb step is a bijection on `u64` for every fixed byte,
//! so any single flipped byte changes the checksum; the explicit length
//! prefix turns every truncation into a detectable short read. All
//! malformations surface as typed [`PprlError::Transport`] errors —
//! never a panic, never a silently misparsed request.
//!
//! The leading [`WIRE_VERSION`] byte exists for mixed deployments: a
//! coordinator fronting shard nodes that were built from a different
//! checkout must fail with a typed
//! [`PprlError::UnsupportedVersion`] naming both versions, not with a
//! baffling checksum or opcode error deep in the decoder.
//!
//! Bodies use little-endian fixed-width integers. Bloom filters are
//! shipped as a `u32` bit length followed by `ceil(len/8)` raw bytes;
//! scores travel as IEEE-754 bit patterns.

use pprl_core::bitvec::BitVec;
use pprl_core::error::{PprlError, Result};
use pprl_index::query::Hit;

// The framing layer (length prefix + FNV-1a checksum) moved down into
// `pprl-session::frame` when the authenticated session layer arrived —
// wire v4 frames travel in the identical envelope. Re-exported here so
// every existing `wire::read_payload` caller keeps compiling.
pub use pprl_session::frame::{read_payload, write_payload, Incoming, MAX_PAYLOAD};

/// Wire protocol version, the first byte of every frame payload.
/// Version 1 had no version byte (the payload began with the opcode);
/// version 2 added the prefix plus the cluster/plan-cache stats fields;
/// version 3 added the scan-kernel name and merged-row counter to the
/// stats reply.
pub const WIRE_VERSION: u8 = 3;

/// Checks the leading version byte of a frame payload.
fn check_version(r: &mut WireReader<'_>) -> Result<()> {
    let found = r.u8()?;
    if found != WIRE_VERSION {
        return Err(PprlError::UnsupportedVersion {
            found,
            expected: WIRE_VERSION,
        });
    }
    Ok(())
}

/// Request opcodes.
const OP_QUERY: u8 = 0x01;
const OP_LINK: u8 = 0x02;
const OP_INSERT: u8 = 0x03;
const OP_STATS: u8 = 0x04;
const OP_SHUTDOWN: u8 = 0x05;
/// Response opcodes.
const OP_HITS: u8 = 0x81;
const OP_LINK_HITS: u8 = 0x82;
const OP_INSERTED: u8 = 0x83;
const OP_STATS_REPLY: u8 = 0x84;
const OP_BUSY: u8 = 0x85;
const OP_ERROR: u8 = 0x86;
const OP_BYE: u8 = 0x87;

// The session crate recognises pre-handshake `Busy` frames structurally
// (it cannot depend on this crate); keep the two views of the plaintext
// protocol pinned together at compile time.
const _: () = {
    assert!(WIRE_VERSION == pprl_session::frame::INNER_WIRE_VERSION);
    assert!(OP_BUSY == pprl_session::frame::INNER_OP_BUSY);
};

fn transport_err(msg: impl Into<String>) -> PprlError {
    PprlError::Transport(msg.into())
}

/// A request a client sends to the server.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Top-k Dice query for one filter.
    Query {
        /// The encoded probe filter.
        filter: BitVec,
        /// How many neighbours to return.
        k: u32,
    },
    /// Batch link: top-k per probe, thresholded.
    Link {
        /// The encoded probe filters.
        probes: Vec<BitVec>,
        /// Neighbours per probe.
        k: u32,
        /// Minimum Dice score for a hit to be reported.
        min_score: f64,
    },
    /// Append records to the index (durable once acknowledged).
    Insert {
        /// `(record id, filter)` pairs.
        records: Vec<(u64, BitVec)>,
    },
    /// Fetch the server's stats surface.
    Stats,
    /// Ask the server to shut down cleanly.
    Shutdown,
}

/// A response the server sends back.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Top-k hits for a [`Request::Query`].
    Hits(Vec<Hit>),
    /// Per-probe hits for a [`Request::Link`].
    LinkHits(Vec<Vec<Hit>>),
    /// Acknowledges a [`Request::Insert`].
    Inserted {
        /// Records appended.
        count: u32,
        /// Snapshot generation now serving (bumped by the insert).
        generation: u64,
    },
    /// The stats surface for a [`Request::Stats`].
    Stats(StatsReport),
    /// Backpressure: the request queue is full; retry after the given
    /// delay instead of queueing unbounded work.
    Busy {
        /// Suggested client back-off in milliseconds.
        retry_after_ms: u32,
    },
    /// The request failed server-side; the session stays open.
    ServerError {
        /// Human-readable failure description.
        message: String,
    },
    /// Acknowledges a [`Request::Shutdown`]; the server is going down.
    Bye,
}

/// Aggregate server statistics, as served by the `STATS` command.
///
/// A single `pprl-server` node reports `cluster_shards == 0`; a
/// `pprl-cluster` coordinator reports its shard topology and health in
/// the `cluster_*` / `missing_shards` fields, with the counter fields
/// summed across the shards that answered.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StatsReport {
    /// Records in the currently served snapshot.
    pub records: u64,
    /// Snapshot generation currently served.
    pub generation: u64,
    /// Query requests answered.
    pub queries: u64,
    /// Link requests answered.
    pub links: u64,
    /// Insert requests applied.
    pub inserts: u64,
    /// Query answers served from the result cache.
    pub cache_hits: u64,
    /// Query answers computed from a snapshot.
    pub cache_misses: u64,
    /// Cache-missing queries that reused a cached popcount scan plan.
    pub plan_hits: u64,
    /// Cache-missing queries that had to compute a fresh scan plan.
    pub plan_misses: u64,
    /// Connections rejected with [`Response::Busy`].
    pub busy_rejected: u64,
    /// Background compaction steps that merged at least one tier.
    pub compactions: u64,
    /// Segments merged away by background compaction.
    pub segments_merged: u64,
    /// Bytes read from storage building snapshots.
    pub bytes_read: u64,
    /// Median request latency in microseconds (fixed-bucket histogram).
    pub latency_p50_us: u64,
    /// 99th-percentile request latency in microseconds.
    pub latency_p99_us: u64,
    /// Milliseconds since the server started.
    pub uptime_ms: u64,
    /// Worker threads serving requests.
    pub workers: u32,
    /// Capacity of the bounded connection queue.
    pub queue_capacity: u32,
    /// Segments quarantined when the index was opened.
    pub quarantined_segments: u64,
    /// True when the index serves degraded reads over surviving
    /// segments only (some were quarantined at open), or — for a
    /// coordinator — when at least one shard is unreachable.
    pub degraded: bool,
    /// Shards this coordinator fronts; 0 for a single server node.
    pub cluster_shards: u32,
    /// Shards currently unreachable from the coordinator.
    pub shards_down: u32,
    /// Indices (into the coordinator's shard list) of the unreachable
    /// shards; empty on a healthy cluster and on single nodes.
    pub missing_shards: Vec<u32>,
    /// Rows rewritten by arena-native segment merges (flushes and
    /// compactions) since startup. Summed across shards on a cluster.
    pub merge_rows: u64,
    /// Scan kernel the node dispatched to at startup (`scalar`,
    /// `portable`, `avx2`, ...); `mixed` on a cluster whose shards
    /// disagree, empty when no shard answered.
    pub kernel: String,
}

/// Bounds-checked little-endian reader over a frame payload.
struct WireReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        WireReader { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.bytes.len());
        let Some(end) = end else {
            return Err(transport_err(format!(
                "frame truncated: wanted {n} bytes at offset {}, payload has {}",
                self.pos,
                self.bytes.len()
            )));
        };
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn finish(&self) -> Result<()> {
        if self.pos != self.bytes.len() {
            return Err(transport_err(format!(
                "frame has {} trailing bytes after offset {}",
                self.bytes.len() - self.pos,
                self.pos
            )));
        }
        Ok(())
    }
}

fn push_filter_bits(out: &mut Vec<u8>, filter: &BitVec) {
    out.extend_from_slice(&filter.to_bytes());
}

fn read_filter(r: &mut WireReader<'_>, flen: usize) -> Result<BitVec> {
    let bytes = r.take(flen.div_ceil(8))?;
    BitVec::from_bytes(bytes, flen).map_err(|e| transport_err(format!("bad filter in frame: {e}")))
}

fn read_filter_len(r: &mut WireReader<'_>) -> Result<usize> {
    let flen = r.u32()? as usize;
    if flen == 0 {
        return Err(transport_err("frame declares a zero-length filter"));
    }
    Ok(flen)
}

fn push_hits(out: &mut Vec<u8>, hits: &[Hit]) {
    out.extend_from_slice(&(hits.len() as u32).to_le_bytes());
    for h in hits {
        out.extend_from_slice(&h.id.to_le_bytes());
        out.extend_from_slice(&h.score.to_bits().to_le_bytes());
    }
}

fn read_hits(r: &mut WireReader<'_>) -> Result<Vec<Hit>> {
    let n = r.u32()? as usize;
    let mut hits = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        let id = r.u64()?;
        let score = r.f64()?;
        hits.push(Hit { id, score });
    }
    Ok(hits)
}

/// [`Request::Query`]'s frame payload, encoded from a borrowed filter.
/// The `encode_*` functions are the request encoders — `Request::encode`
/// calls them — so a sender that already holds the data (the cluster
/// coordinator, once per scatter) need not clone it into a `Request`.
pub fn encode_query(filter: &BitVec, k: u32) -> Vec<u8> {
    let mut out = vec![WIRE_VERSION, OP_QUERY];
    out.extend_from_slice(&(filter.len() as u32).to_le_bytes());
    push_filter_bits(&mut out, filter);
    out.extend_from_slice(&k.to_le_bytes());
    out
}

/// [`Request::Link`]'s frame payload, encoded from borrowed probes.
pub fn encode_link(probes: &[BitVec], k: u32, min_score: f64) -> Vec<u8> {
    let mut out = vec![WIRE_VERSION, OP_LINK];
    let flen = probes.first().map_or(0, |f| f.len());
    out.extend_from_slice(&(flen as u32).to_le_bytes());
    out.extend_from_slice(&k.to_le_bytes());
    out.extend_from_slice(&min_score.to_bits().to_le_bytes());
    out.extend_from_slice(&(probes.len() as u32).to_le_bytes());
    for p in probes {
        push_filter_bits(&mut out, p);
    }
    out
}

/// [`Request::Insert`]'s frame payload, encoded from borrowed records —
/// any subset of a batch, in iteration order.
pub fn encode_insert<'a>(records: impl ExactSizeIterator<Item = &'a (u64, BitVec)>) -> Vec<u8> {
    let mut out = vec![WIRE_VERSION, OP_INSERT];
    let mut records = records.peekable();
    let flen = records.peek().map_or(0, |(_, f)| f.len());
    out.extend_from_slice(&(flen as u32).to_le_bytes());
    out.extend_from_slice(&(records.len() as u32).to_le_bytes());
    for (id, f) in records {
        out.extend_from_slice(&id.to_le_bytes());
        push_filter_bits(&mut out, f);
    }
    out
}

impl Request {
    /// Serialises the request to a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Request::Query { filter, k } => encode_query(filter, *k),
            Request::Link {
                probes,
                k,
                min_score,
            } => encode_link(probes, *k, *min_score),
            Request::Insert { records } => encode_insert(records.iter()),
            Request::Stats => vec![WIRE_VERSION, OP_STATS],
            Request::Shutdown => vec![WIRE_VERSION, OP_SHUTDOWN],
        }
    }

    /// Parses a frame payload into a request. A payload whose leading
    /// version byte differs from [`WIRE_VERSION`] is rejected with
    /// [`PprlError::UnsupportedVersion`] before any body parsing.
    pub fn decode(payload: &[u8]) -> Result<Request> {
        let mut r = WireReader::new(payload);
        check_version(&mut r)?;
        let req = match r.u8()? {
            OP_QUERY => {
                let flen = read_filter_len(&mut r)?;
                let filter = read_filter(&mut r, flen)?;
                let k = r.u32()?;
                Request::Query { filter, k }
            }
            OP_LINK => {
                let flen = read_filter_len(&mut r)?;
                let k = r.u32()?;
                let min_score = r.f64()?;
                if !(0.0..=1.0).contains(&min_score) {
                    return Err(transport_err(format!(
                        "link min_score {min_score} outside [0, 1]"
                    )));
                }
                let n = r.u32()? as usize;
                let mut probes = Vec::with_capacity(n.min(1 << 16));
                for _ in 0..n {
                    probes.push(read_filter(&mut r, flen)?);
                }
                Request::Link {
                    probes,
                    k,
                    min_score,
                }
            }
            OP_INSERT => {
                let flen = read_filter_len(&mut r)?;
                let n = r.u32()? as usize;
                let mut records = Vec::with_capacity(n.min(1 << 16));
                for _ in 0..n {
                    let id = r.u64()?;
                    records.push((id, read_filter(&mut r, flen)?));
                }
                Request::Insert { records }
            }
            OP_STATS => Request::Stats,
            OP_SHUTDOWN => Request::Shutdown,
            other => return Err(transport_err(format!("unknown request opcode {other:#x}"))),
        };
        r.finish()?;
        Ok(req)
    }
}

impl Response {
    /// Serialises the response to a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = vec![WIRE_VERSION];
        match self {
            Response::Hits(hits) => {
                out.push(OP_HITS);
                push_hits(&mut out, hits);
            }
            Response::LinkHits(per_probe) => {
                out.push(OP_LINK_HITS);
                out.extend_from_slice(&(per_probe.len() as u32).to_le_bytes());
                for hits in per_probe {
                    push_hits(&mut out, hits);
                }
            }
            Response::Inserted { count, generation } => {
                out.push(OP_INSERTED);
                out.extend_from_slice(&count.to_le_bytes());
                out.extend_from_slice(&generation.to_le_bytes());
            }
            Response::Stats(s) => {
                out.push(OP_STATS_REPLY);
                for v in [
                    s.records,
                    s.generation,
                    s.queries,
                    s.links,
                    s.inserts,
                    s.cache_hits,
                    s.cache_misses,
                    s.plan_hits,
                    s.plan_misses,
                    s.busy_rejected,
                    s.compactions,
                    s.segments_merged,
                    s.bytes_read,
                    s.latency_p50_us,
                    s.latency_p99_us,
                    s.uptime_ms,
                ] {
                    out.extend_from_slice(&v.to_le_bytes());
                }
                out.extend_from_slice(&s.workers.to_le_bytes());
                out.extend_from_slice(&s.queue_capacity.to_le_bytes());
                out.extend_from_slice(&s.quarantined_segments.to_le_bytes());
                out.push(u8::from(s.degraded));
                out.extend_from_slice(&s.cluster_shards.to_le_bytes());
                out.extend_from_slice(&s.shards_down.to_le_bytes());
                out.extend_from_slice(&(s.missing_shards.len() as u32).to_le_bytes());
                for shard in &s.missing_shards {
                    out.extend_from_slice(&shard.to_le_bytes());
                }
                out.extend_from_slice(&s.merge_rows.to_le_bytes());
                out.extend_from_slice(&(s.kernel.len() as u32).to_le_bytes());
                out.extend_from_slice(s.kernel.as_bytes());
            }
            Response::Busy { retry_after_ms } => {
                out.push(OP_BUSY);
                out.extend_from_slice(&retry_after_ms.to_le_bytes());
            }
            Response::ServerError { message } => {
                out.push(OP_ERROR);
                out.extend_from_slice(&(message.len() as u32).to_le_bytes());
                out.extend_from_slice(message.as_bytes());
            }
            Response::Bye => out.push(OP_BYE),
        }
        out
    }

    /// Parses a frame payload into a response, rejecting foreign
    /// [`WIRE_VERSION`]s up front like [`Request::decode`].
    pub fn decode(payload: &[u8]) -> Result<Response> {
        let mut r = WireReader::new(payload);
        check_version(&mut r)?;
        let resp = match r.u8()? {
            OP_HITS => Response::Hits(read_hits(&mut r)?),
            OP_LINK_HITS => {
                let n = r.u32()? as usize;
                let mut per_probe = Vec::with_capacity(n.min(1 << 16));
                for _ in 0..n {
                    per_probe.push(read_hits(&mut r)?);
                }
                Response::LinkHits(per_probe)
            }
            OP_INSERTED => Response::Inserted {
                count: r.u32()?,
                generation: r.u64()?,
            },
            OP_STATS_REPLY => {
                let mut next = || r.u64();
                let s = StatsReport {
                    records: next()?,
                    generation: next()?,
                    queries: next()?,
                    links: next()?,
                    inserts: next()?,
                    cache_hits: next()?,
                    cache_misses: next()?,
                    plan_hits: next()?,
                    plan_misses: next()?,
                    busy_rejected: next()?,
                    compactions: next()?,
                    segments_merged: next()?,
                    bytes_read: next()?,
                    latency_p50_us: next()?,
                    latency_p99_us: next()?,
                    uptime_ms: next()?,
                    workers: 0,
                    queue_capacity: 0,
                    quarantined_segments: 0,
                    degraded: false,
                    cluster_shards: 0,
                    shards_down: 0,
                    missing_shards: Vec::new(),
                    merge_rows: 0,
                    kernel: String::new(),
                };
                let workers = r.u32()?;
                let queue_capacity = r.u32()?;
                let quarantined_segments = r.u64()?;
                let degraded = r.u8()? != 0;
                let cluster_shards = r.u32()?;
                let shards_down = r.u32()?;
                let n_missing = r.u32()? as usize;
                let mut missing_shards = Vec::with_capacity(n_missing.min(1 << 16));
                for _ in 0..n_missing {
                    missing_shards.push(r.u32()?);
                }
                let merge_rows = r.u64()?;
                let klen = r.u32()? as usize;
                let kernel = std::str::from_utf8(r.take(klen)?)
                    .map_err(|_| transport_err("kernel name not UTF-8"))?
                    .to_string();
                Response::Stats(StatsReport {
                    workers,
                    queue_capacity,
                    quarantined_segments,
                    degraded,
                    cluster_shards,
                    shards_down,
                    missing_shards,
                    merge_rows,
                    kernel,
                    ..s
                })
            }
            OP_BUSY => Response::Busy {
                retry_after_ms: r.u32()?,
            },
            OP_ERROR => {
                let len = r.u32()? as usize;
                let message = std::str::from_utf8(r.take(len)?)
                    .map_err(|_| transport_err("error message not UTF-8"))?
                    .to_string();
                Response::ServerError { message }
            }
            OP_BYE => Response::Bye,
            other => return Err(transport_err(format!("unknown response opcode {other:#x}"))),
        };
        r.finish()?;
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filt(positions: &[usize]) -> BitVec {
        BitVec::from_positions(64, positions).unwrap()
    }

    fn round_trip_request(req: Request) {
        let mut buf = Vec::new();
        write_payload(&mut buf, &req.encode()).unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        let Incoming::Payload(p) = read_payload(&mut cursor).unwrap() else {
            panic!("expected a payload");
        };
        assert_eq!(Request::decode(&p).unwrap(), req);
    }

    fn round_trip_response(resp: Response) {
        let mut buf = Vec::new();
        write_payload(&mut buf, &resp.encode()).unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        let Incoming::Payload(p) = read_payload(&mut cursor).unwrap() else {
            panic!("expected a payload");
        };
        assert_eq!(Response::decode(&p).unwrap(), resp);
    }

    #[test]
    fn requests_round_trip() {
        round_trip_request(Request::Query {
            filter: filt(&[1, 5, 40]),
            k: 7,
        });
        round_trip_request(Request::Link {
            probes: vec![filt(&[1]), filt(&[2, 3])],
            k: 3,
            min_score: 0.75,
        });
        round_trip_request(Request::Insert {
            records: vec![(9, filt(&[0, 63])), (10, filt(&[31]))],
        });
        round_trip_request(Request::Stats);
        round_trip_request(Request::Shutdown);
    }

    #[test]
    fn responses_round_trip() {
        round_trip_response(Response::Hits(vec![
            Hit { id: 3, score: 1.0 },
            Hit { id: 9, score: 0.25 },
        ]));
        round_trip_response(Response::LinkHits(vec![
            vec![Hit { id: 1, score: 0.5 }],
            vec![],
        ]));
        round_trip_response(Response::Inserted {
            count: 12,
            generation: 4,
        });
        round_trip_response(Response::Stats(StatsReport {
            records: 100,
            generation: 2,
            queries: 55,
            links: 1,
            inserts: 3,
            cache_hits: 20,
            cache_misses: 35,
            plan_hits: 18,
            plan_misses: 17,
            busy_rejected: 2,
            compactions: 1,
            segments_merged: 6,
            bytes_read: 12345,
            latency_p50_us: 100,
            latency_p99_us: 900,
            uptime_ms: 60000,
            workers: 4,
            queue_capacity: 16,
            quarantined_segments: 1,
            degraded: true,
            cluster_shards: 3,
            shards_down: 1,
            missing_shards: vec![2],
            merge_rows: 4321,
            kernel: "avx2".into(),
        }));
        round_trip_response(Response::Busy { retry_after_ms: 50 });
        round_trip_response(Response::ServerError {
            message: "no such index".into(),
        });
        round_trip_response(Response::Bye);
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let req = Request::Query {
            filter: filt(&[1, 2, 3]),
            k: 5,
        };
        let mut buf = Vec::new();
        write_payload(&mut buf, &req.encode()).unwrap();
        for pos in 0..buf.len() {
            for delta in [0x01u8, 0x80] {
                let mut bad = buf.clone();
                bad[pos] ^= delta;
                let mut cursor = std::io::Cursor::new(bad);
                // Either the frame read itself fails, or (for a length
                // prefix grown past the buffer) the short read fails —
                // a flip is never silently accepted.
                match read_payload(&mut cursor) {
                    Err(PprlError::Transport(_)) => {}
                    Ok(Incoming::Payload(_)) => panic!("byte {pos} delta {delta:#x} undetected"),
                    Ok(_) | Err(_) => {}
                }
            }
        }
    }

    #[test]
    fn truncations_and_eof_are_distinguished() {
        let mut buf = Vec::new();
        write_payload(&mut buf, &Request::Stats.encode()).unwrap();
        // Clean EOF before any frame byte.
        let mut empty = std::io::Cursor::new(Vec::<u8>::new());
        assert!(matches!(read_payload(&mut empty).unwrap(), Incoming::Eof));
        // Every mid-frame truncation is a typed error.
        for cut in 1..buf.len() {
            let mut cursor = std::io::Cursor::new(buf[..cut].to_vec());
            match read_payload(&mut cursor) {
                Err(PprlError::Transport(_)) => {}
                Ok(Incoming::Eof) if cut < 4 => {} // length prefix itself cut
                other => panic!("cut {cut}: {other:?}"),
            }
        }
    }

    #[test]
    fn zero_and_oversized_lengths_rejected() {
        let mut zero = std::io::Cursor::new(vec![0u8; 12]);
        assert!(matches!(
            read_payload(&mut zero),
            Err(PprlError::Transport(_))
        ));
        let mut huge = Vec::new();
        huge.extend_from_slice(&(u32::MAX).to_le_bytes());
        huge.extend_from_slice(&[0u8; 16]);
        let mut cursor = std::io::Cursor::new(huge);
        assert!(matches!(
            read_payload(&mut cursor),
            Err(PprlError::Transport(_))
        ));
        let mut w = Vec::new();
        assert!(write_payload(&mut w, &[]).is_err());
    }

    #[test]
    fn unknown_opcodes_rejected() {
        assert!(Request::decode(&[WIRE_VERSION, 0x7f]).is_err());
        assert!(Response::decode(&[WIRE_VERSION, 0x01]).is_err());
        // Trailing garbage after a valid body is rejected too.
        let mut p = Request::Stats.encode();
        p.push(0);
        assert!(Request::decode(&p).is_err());
    }

    #[test]
    fn foreign_versions_fail_with_a_typed_error() {
        // A v1 peer's frame began directly with the opcode byte — from a
        // v3 decoder's perspective that is a version-1 prefix. Both
        // requests and responses must name the two versions instead of
        // tripping over the opcode or body.
        for payload in [vec![0x05u8], vec![0x01, 0x04], vec![0x02, 0x84, 0, 0]] {
            let req = Request::decode(&payload);
            let resp = Response::decode(&payload);
            for got in [req.map(|_| ()), resp.map(|_| ())] {
                match got {
                    Err(PprlError::UnsupportedVersion { found, expected }) => {
                        assert_eq!(found, payload[0]);
                        assert_eq!(expected, WIRE_VERSION);
                    }
                    other => panic!("expected UnsupportedVersion, got {other:?}"),
                }
            }
        }
        // The current version is of course accepted.
        assert!(Request::decode(&Request::Stats.encode()).is_ok());
    }
}
