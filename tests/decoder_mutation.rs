//! One structured-mutation harness over every checksummed byte decoder.
//!
//! Each case pins an encoder's output to a hex golden captured from the
//! commit before the decoders moved onto `pprl_core::codec`, so a stored
//! index, a peer built from that commit and this one read each other's
//! bytes. Against each golden the harness then asserts:
//!
//! - every encoder of the format reproduces the golden byte for byte;
//! - every decoder accepts it, and re-encoding what it decoded gives the
//!   golden back;
//! - every single-bit flip and every truncation is an `Err` of the
//!   decoder's own error kind (`Storage` for index files, `Transport`
//!   for frames): never `Ok`, never a panic.
//!
//! Formats whose corruption is *not* always an error are tested where
//! that rule lives: a truncated WAL is a benign torn tail
//! (`wal_recovery.rs`; its bytes are pinned below all the same), and
//! session `DATA` frames are judged by their MAC (the session crate's
//! `channel.rs`).

use pprl_core::bitvec::BitVec;
use pprl_core::error::{PprlError, Result};
use pprl_index::arena::FilterArena;
use pprl_index::manifest::{IndexConfig, Manifest, QuarantinedSegment, SegmentEntry};
use pprl_index::query::Hit;
use pprl_index::segment::{
    decode_segment, decode_segment_arena, encode_segment, encode_segment_from_arena,
};
use pprl_index::store::{IndexStore, StoreOptions, WAL_FILE};
use pprl_index::summary::{BandKeySummary, SummaryConfig};
use pprl_index::vfs::{FaultVfs, Vfs};
use pprl_protocols::transport::Frame;
use pprl_server::wire::{read_payload, write_payload, Incoming, Request, Response, StatsReport};
use std::path::Path;
use std::sync::Arc;

/// A decoder under test: parses the bytes and re-encodes what it read.
type Decoder = fn(&[u8]) -> Result<Vec<u8>>;

/// One pinned format.
struct Case {
    name: &'static str,
    golden: &'static str,
    /// Every encoder's output for the case's value.
    encoded: Vec<Vec<u8>>,
    decoders: Vec<(&'static str, Decoder)>,
    kind: fn(&PprlError) -> bool,
}

fn to_hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn from_hex(hex: &str) -> Vec<u8> {
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("golden is hex"))
        .collect()
}

fn is_transport(e: &PprlError) -> bool {
    matches!(e, PprlError::Transport(_))
}

fn is_storage(e: &PprlError) -> bool {
    matches!(e, PprlError::Storage(_))
}

fn filter(len: usize, ones: &[usize]) -> BitVec {
    BitVec::from_positions(len, ones).expect("positions in range")
}

/// One length-prefixed, checksummed stream frame around `payload`.
fn framed(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    write_payload(&mut out, payload).expect("payload fits a frame");
    out
}

/// Reads exactly one stream frame. Only an empty stream may end
/// without an error — a clean end of stream between frames — and for a
/// caller owed a frame that is the same failure as a cut one.
fn read_frame(bytes: &[u8]) -> Result<Vec<u8>> {
    match read_payload(&mut &bytes[..])? {
        Incoming::Payload(p) => Ok(p),
        other => {
            assert!(bytes.is_empty(), "{other:?} from {} bytes", bytes.len());
            Err(PprlError::Transport("end of stream before a frame".into()))
        }
    }
}

fn decode_request(bytes: &[u8]) -> Result<Vec<u8>> {
    Ok(framed(&Request::decode(&read_frame(bytes)?)?.encode()))
}

fn decode_response(bytes: &[u8]) -> Result<Vec<u8>> {
    Ok(framed(&Response::decode(&read_frame(bytes)?)?.encode()))
}

fn decode_stream_frame(bytes: &[u8]) -> Result<Vec<u8>> {
    Ok(framed(&read_frame(bytes)?))
}

fn decode_simnet(bytes: &[u8]) -> Result<Vec<u8>> {
    Ok(Frame::decode(bytes)?.encode())
}

fn decode_segment_records(bytes: &[u8]) -> Result<Vec<u8>> {
    let seg = decode_segment(bytes)?;
    let refs: Vec<(u64, &BitVec)> = seg.records.iter().map(|r| (r.id, &r.filter)).collect();
    encode_segment(seg.shard, seg.filter_len, &refs)
}

fn decode_segment_to_arena(bytes: &[u8]) -> Result<Vec<u8>> {
    let (shard, arena) = decode_segment_arena(bytes)?;
    encode_segment_from_arena(shard, &arena)
}

fn decode_manifest(bytes: &[u8]) -> Result<Vec<u8>> {
    Manifest::decode(bytes)?.encode()
}

fn wire_case(name: &'static str, golden: &'static str, payload: Vec<u8>, request: bool) -> Case {
    let decoder: (&'static str, Decoder) = if request {
        ("Request::decode", decode_request)
    } else {
        ("Response::decode", decode_response)
    };
    Case {
        name,
        golden,
        encoded: vec![framed(&payload)],
        decoders: vec![decoder],
        kind: is_transport,
    }
}

/// Three 80-bit records already in arena row order (popcount, then id),
/// so the record encoder and the arena encoder emit the same image.
fn segment_records() -> Vec<(u64, BitVec)> {
    vec![
        (1, filter(80, &[0, 9, 33])),
        (4, filter(80, &[2, 17, 40, 79])),
        (7, filter(80, &[5, 6, 50, 64, 70])),
    ]
}

/// A v4 manifest with a summary entry, a summary-less entry and one
/// quarantine record.
fn manifest() -> Manifest {
    let config = IndexConfig {
        summary: SummaryConfig { tables: 2, bits: 8 },
        ..IndexConfig::new(80, 2)
    };
    Manifest {
        config,
        flush_epoch: 3,
        next_segment_id: 9,
        segments: vec![
            SegmentEntry {
                shard: 0,
                id: 4,
                pc_min: 3,
                pc_max: 41,
                summary: Some(BandKeySummary::from_words(vec![
                    0x0123_4567_89ab_cdef,
                    0x8000_0000_0000_0001,
                ])),
            },
            SegmentEntry {
                shard: 1,
                id: 8,
                pc_min: 0,
                pc_max: 80,
                summary: None,
            },
        ],
        quarantined: vec![QuarantinedSegment { shard: 1, id: 6 }],
    }
}

fn cases() -> Vec<Case> {
    let f64bits = |ones: &[usize]| filter(64, ones);
    let stats = StatsReport {
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
    };
    let records = segment_records();
    let refs: Vec<(u64, &BitVec)> = records.iter().map(|(id, f)| (*id, f)).collect();
    let arena = FilterArena::from_records(records.clone(), 80).expect("arena");
    vec![
        wire_case(
            "request/query",
            GOLDEN_REQUEST_QUERY,
            Request::Query {
                filter: f64bits(&[1, 5, 40]),
                k: 7,
            }
            .encode(),
            true,
        ),
        wire_case(
            "request/link",
            GOLDEN_REQUEST_LINK,
            Request::Link {
                probes: vec![f64bits(&[1]), f64bits(&[2, 3])],
                k: 3,
                min_score: 0.75,
            }
            .encode(),
            true,
        ),
        wire_case(
            "request/insert",
            GOLDEN_REQUEST_INSERT,
            Request::Insert {
                records: vec![(9, f64bits(&[0, 63])), (10, f64bits(&[31]))],
            }
            .encode(),
            true,
        ),
        wire_case(
            "request/stats",
            GOLDEN_REQUEST_STATS,
            Request::Stats.encode(),
            true,
        ),
        wire_case(
            "request/shutdown",
            GOLDEN_REQUEST_SHUTDOWN,
            Request::Shutdown.encode(),
            true,
        ),
        wire_case(
            "response/hits",
            GOLDEN_RESPONSE_HITS,
            Response::Hits(vec![Hit { id: 3, score: 1.0 }, Hit { id: 9, score: 0.25 }]).encode(),
            false,
        ),
        wire_case(
            "response/link_hits",
            GOLDEN_RESPONSE_LINK_HITS,
            Response::LinkHits(vec![vec![Hit { id: 1, score: 0.5 }], vec![]]).encode(),
            false,
        ),
        wire_case(
            "response/inserted",
            GOLDEN_RESPONSE_INSERTED,
            Response::Inserted {
                count: 12,
                generation: 4,
            }
            .encode(),
            false,
        ),
        wire_case(
            "response/stats",
            GOLDEN_RESPONSE_STATS,
            Response::Stats(stats).encode(),
            false,
        ),
        wire_case(
            "response/busy",
            GOLDEN_RESPONSE_BUSY,
            Response::Busy { retry_after_ms: 50 }.encode(),
            false,
        ),
        wire_case(
            "response/server_error",
            GOLDEN_RESPONSE_SERVER_ERROR,
            Response::ServerError {
                message: "no such index".into(),
            }
            .encode(),
            false,
        ),
        wire_case(
            "response/bye",
            GOLDEN_RESPONSE_BYE,
            Response::Bye.encode(),
            false,
        ),
        Case {
            name: "session stream frame",
            golden: GOLDEN_STREAM_FRAME,
            encoded: vec![framed(b"some payload bytes")],
            decoders: vec![("read_payload", decode_stream_frame)],
            kind: is_transport,
        },
        Case {
            name: "simnet/data",
            golden: GOLDEN_SIMNET_DATA,
            encoded: vec![Frame::data(9, b"payload".to_vec()).encode()],
            decoders: vec![("Frame::decode", decode_simnet)],
            kind: is_transport,
        },
        Case {
            name: "simnet/ack",
            golden: GOLDEN_SIMNET_ACK,
            encoded: vec![Frame::ack(7).encode()],
            decoders: vec![("Frame::decode", decode_simnet)],
            kind: is_transport,
        },
        Case {
            name: "segment",
            golden: GOLDEN_SEGMENT,
            encoded: vec![
                encode_segment(1, 80, &refs).expect("encode_segment"),
                encode_segment_from_arena(1, &arena).expect("encode_segment_from_arena"),
            ],
            decoders: vec![
                ("decode_segment", decode_segment_records),
                ("decode_segment_arena", decode_segment_to_arena),
            ],
            kind: is_storage,
        },
        Case {
            name: "manifest v4",
            golden: GOLDEN_MANIFEST,
            encoded: vec![manifest().encode().expect("encode manifest")],
            decoders: vec![("Manifest::decode", decode_manifest)],
            kind: is_storage,
        },
    ]
}

#[test]
fn every_encoder_reproduces_its_golden() {
    for case in cases() {
        for (i, bytes) in case.encoded.iter().enumerate() {
            assert_eq!(
                to_hex(bytes),
                case.golden,
                "{}: encoder {i} drifted from the golden",
                case.name
            );
        }
    }
}

#[test]
fn every_decoder_round_trips_its_golden() {
    for case in cases() {
        let golden = from_hex(case.golden);
        for (label, decode) in &case.decoders {
            let again = decode(&golden).unwrap_or_else(|e| panic!("{}: {label}: {e}", case.name));
            assert_eq!(again, golden, "{}: {label} round trip", case.name);
        }
    }
}

#[test]
fn every_bit_flip_is_a_typed_error() {
    for case in cases() {
        let golden = from_hex(case.golden);
        for (label, decode) in &case.decoders {
            for byte in 0..golden.len() {
                for bit in 0..8 {
                    let mut bad = golden.clone();
                    bad[byte] ^= 1 << bit;
                    match decode(&bad) {
                        Err(e) if (case.kind)(&e) => {}
                        Err(e) => panic!(
                            "{}: {label}: flip at byte {byte} bit {bit}: wrong error kind: {e}",
                            case.name
                        ),
                        Ok(_) => panic!(
                            "{}: {label}: flip at byte {byte} bit {bit} decoded",
                            case.name
                        ),
                    }
                }
            }
        }
    }
}

#[test]
fn every_truncation_is_a_typed_error() {
    for case in cases() {
        let golden = from_hex(case.golden);
        for (label, decode) in &case.decoders {
            for cut in 0..golden.len() {
                match decode(&golden[..cut]) {
                    Err(e) if (case.kind)(&e) => {}
                    Err(e) => panic!(
                        "{}: {label}: cut at {cut}: wrong error kind: {e}",
                        case.name
                    ),
                    Ok(_) => panic!("{}: {label}: cut at {cut} decoded", case.name),
                }
            }
        }
    }
}

/// The WAL a store logs for [`segment_records`] reproduces its golden,
/// and a store opened over the golden replays exactly those records.
#[test]
fn the_wal_reproduces_its_golden_and_replays_it() {
    let vfs = FaultVfs::reliable();
    let dir = Path::new("/wal-golden");
    let options = || StoreOptions::with_vfs(Arc::clone(&vfs) as Arc<dyn Vfs>);
    let mut store =
        IndexStore::create_with(dir, IndexConfig::new(80, 2), options()).expect("create");
    store.insert_batch(&segment_records()).expect("insert");
    drop(store);
    let wal = dir.join(WAL_FILE);
    assert_eq!(to_hex(&vfs.read(&wal).expect("read wal")), GOLDEN_WAL);
    vfs.write(&wal, &from_hex(GOLDEN_WAL))
        .expect("write golden");
    let store = IndexStore::open_with(dir, options()).expect("replay");
    assert_eq!(store.pending().ids(), [1, 4, 7]);
}

const GOLDEN_REQUEST_QUERY: &str = "120000000301400000002200000000010000070000004d0a0de3e22d6361";
const GOLDEN_REQUEST_LINK: &str = concat!(
    "2600000003024000000003000000000000000000e83f02000000020000000000",
    "00000c00000000000000fcd2db6a9b86e87c",
);
const GOLDEN_REQUEST_INSERT: &str = concat!(
    "2a00000003034000000002000000090000000000000001000000000000800a00",
    "00000000000000000080000000005534a63d2457209a",
);
const GOLDEN_REQUEST_STATS: &str = "020000000304684d7805608f0791";
const GOLDEN_REQUEST_SHUTDOWN: &str = "0200000003051b4f780560900791";
const GOLDEN_RESPONSE_HITS: &str = concat!(
    "260000000381020000000300000000000000000000000000f03f090000000000",
    "0000000000000000d03f7b80ba55739abacf",
);
const GOLDEN_RESPONSE_LINK_HITS: &str = concat!(
    "1e000000038202000000010000000100000000000000000000000000e03f0000",
    "0000e19184df427e03bc",
);
const GOLDEN_RESPONSE_INSERTED: &str = "0e00000003830c000000040000000000000029ca09b8b081f30d";
const GOLDEN_RESPONSE_STATS: &str = concat!(
    "b300000003846400000000000000020000000000000037000000000000000100",
    "0000000000000300000000000000140000000000000023000000000000001200",
    "0000000000001100000000000000020000000000000001000000000000000600",
    "00000000000039300000000000006400000000000000840300000000000060ea",
    "0000000000000400000010000000010000000000000001030000000100000001",
    "00000002000000e110000000000000040000006176783292f53590f9478cc8",
);
const GOLDEN_RESPONSE_BUSY: &str = "06000000038532000000cd7f6be8be87acf8";
const GOLDEN_RESPONSE_SERVER_ERROR: &str =
    "1300000003860d0000006e6f207375636820696e64657854d8fb1085a184a4";
const GOLDEN_RESPONSE_BYE: &str = "0200000003870179770560120791";
const GOLDEN_STREAM_FRAME: &str = "12000000736f6d65207061796c6f6164206279746573e65fa9508fd8eddc";
const GOLDEN_SIMNET_DATA: &str = "0700000009000000007061796c6f616431db37df16bdf177";
const GOLDEN_SIMNET_ACK: &str = "00000000070000000149eca1acbad9f7bf";
const GOLDEN_SEGMENT: &str = concat!(
    "5053473101000100000050000000030000001200000001000000000000000102",
    "0000020000000000120000000400000000000000040002000001000000801200",
    "0000070000000000000060000000000004004100164f4b48b9a1ce98",
);
const GOLDEN_MANIFEST: &str = concat!(
    "504d463104005000000002000000ed5e00000000000010000000020008000300",
    "0000000000000900000000000000020000000100000040000000000000000400",
    "000000000000030000002900000002000000efcdab8967452301010000000000",
    "0080010000000800000000000000000000005000000000000000010000000600",
    "0000000000000aa18d3128890218",
);
const GOLDEN_WAL: &str = concat!(
    "50574c310200500000000000000000000000ed9f15349cffecaa120000000100",
    "0000000000000102000002000000000077ae430913c70fe31200000004000000",
    "00000000040002000001000000805a34be205def5b9212000000070000000000",
    "0000600000000000040041006d47a48eba3c289e",
);
