//! One structured-mutation harness over every checksummed byte decoder.
//!
//! Each case pins an encoder's output to a hex golden, so a stored index
//! and peers built from different commits are known to read each
//! other's bytes. Against each golden the harness then asserts:
//!
//! - every encoder of the format reproduces the golden byte for byte;
//! - every decoder accepts it, and re-encoding what it decoded gives the
//!   golden back;
//! - every single-bit flip and every truncation is an `Err` of the
//!   decoder's own error kind (`Storage` for index files, `Transport`
//!   for frames): never `Ok`, never a panic.
//!
//! The goldens carry the `word_fold` checksum trailer. Bytes written
//! under the FNV-1a trailer before it (segment v1, WAL v2, manifest v4
//! and frames), and the version-5 manifest with per-segment popcount
//! ranges, are kept as `OLD_*` goldens: each index file must fail as a
//! typed `Storage` error naming its version, and each frame as a
//! `Transport` error, never decode.
//!
//! Formats whose corruption is *not* always an error are tested where
//! that rule lives: a truncated WAL is a benign torn tail
//! (`wal_recovery.rs`; its bytes are pinned below all the same), and
//! session `DATA` frames are judged by their MAC (the session crate's
//! `channel.rs`).

use pprl_core::bitvec::BitVec;
use pprl_core::error::{PprlError, Result};
use pprl_index::arena::FilterArena;
use pprl_index::manifest::{IndexConfig, Manifest, SegmentEntry, MANIFEST_FILE};
use pprl_index::query::Hit;
use pprl_index::segment::{
    decode_segment_arena, encode_segment, encode_segment_from_arena, verify_segment,
};
use pprl_index::store::{IndexStore, WAL_FILE};
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

/// Accepts or rejects like [`verify_segment`]; on success hands the
/// bytes back, as the verifier builds nothing to re-encode.
fn verify_segment_image(bytes: &[u8]) -> Result<Vec<u8>> {
    verify_segment(bytes)?;
    Ok(bytes.to_vec())
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

/// A manifest with two segment entries and one quarantine record.
fn manifest() -> Manifest {
    Manifest {
        config: IndexConfig::new(80, 2),
        flush_epoch: 3,
        next_segment_id: 9,
        segments: vec![
            SegmentEntry { shard: 0, id: 4 },
            SegmentEntry { shard: 1, id: 8 },
        ],
        quarantined: vec![SegmentEntry { shard: 1, id: 6 }],
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
                ("verify_segment", verify_segment_image),
                ("decode_segment_arena", decode_segment_to_arena),
            ],
            kind: is_storage,
        },
        Case {
            name: "manifest v6",
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

/// Index files written under the FNV-1a trailer, and version-5
/// manifests, fail as typed `Storage` errors naming their version, not
/// as checksum mismatches, and frames from a peer of the FNV-1a epoch
/// fail as `Transport` errors.
#[test]
fn files_and_frames_of_the_fnv_epoch_fail_typed() {
    let storage = |result: Result<()>, what: &str, version: &str| match result {
        Err(PprlError::Storage(msg)) => assert!(msg.contains(version), "{what}: {msg}"),
        other => panic!("{what}: expected a typed storage error, got {other:?}"),
    };
    for (what, golden, version) in [
        ("manifest v4", OLD_MANIFEST, 4),
        (
            "manifest v4 with a summary entry",
            OLD_MANIFEST_WITH_SUMMARY,
            4,
        ),
        ("manifest v5", OLD_MANIFEST_V5, 5),
    ] {
        let result = Manifest::decode(&from_hex(golden)).map(drop);
        storage(
            result,
            what,
            &format!("unsupported manifest version {version}"),
        );
    }
    let old_segment = from_hex(OLD_SEGMENT);
    storage(
        verify_segment(&old_segment).map(drop),
        "segment v1",
        "unsupported segment version 1",
    );
    let result = decode_segment_arena(&old_segment).map(drop);
    storage(result, "segment v1", "unsupported segment version 1");

    let vfs = FaultVfs::reliable();
    let dir = Path::new("/wal-old");
    let io = || Arc::clone(&vfs) as Arc<dyn Vfs>;
    drop(IndexStore::create_with(dir, IndexConfig::new(80, 2), io()).expect("create"));
    vfs.write(&dir.join(WAL_FILE), &from_hex(OLD_WAL))
        .expect("write old wal");
    let result = IndexStore::open_with(dir, io()).map(drop);
    storage(result, "wal v2", "unsupported wal version 2");

    // A store whose manifest an older build wrote does not open.
    let dir = Path::new("/manifest-v5");
    drop(IndexStore::create_with(dir, IndexConfig::new(80, 2), io()).expect("create"));
    vfs.write(&dir.join(MANIFEST_FILE), &from_hex(OLD_MANIFEST_V5))
        .expect("write v5 manifest");
    let result = IndexStore::open_with(dir, io()).map(drop);
    storage(
        result,
        "store with a v5 manifest",
        "unsupported manifest version 5",
    );

    for (what, golden, decode) in [
        (
            "request/query",
            OLD_REQUEST_QUERY,
            decode_request as Decoder,
        ),
        ("response/hits", OLD_RESPONSE_HITS, decode_response),
        (
            "session stream frame",
            OLD_STREAM_FRAME,
            decode_stream_frame,
        ),
        ("simnet/data", OLD_SIMNET_DATA, decode_simnet),
    ] {
        match decode(&from_hex(golden)) {
            Err(e) if is_transport(&e) => {}
            other => panic!("{what}: expected a transport error, got {other:?}"),
        }
    }
}

/// The WAL a store logs for [`segment_records`] reproduces its golden,
/// and a store opened over the golden replays exactly those records.
#[test]
fn the_wal_reproduces_its_golden_and_replays_it() {
    let vfs = FaultVfs::reliable();
    let dir = Path::new("/wal-golden");
    let io = || Arc::clone(&vfs) as Arc<dyn Vfs>;
    let mut store = IndexStore::create_with(dir, IndexConfig::new(80, 2), io()).expect("create");
    store.insert_batch(&segment_records()).expect("insert");
    drop(store);
    let wal = dir.join(WAL_FILE);
    assert_eq!(to_hex(&vfs.read(&wal).expect("read wal")), GOLDEN_WAL);
    vfs.write(&wal, &from_hex(GOLDEN_WAL))
        .expect("write golden");
    let store = IndexStore::open_with(dir, io()).expect("replay");
    assert_eq!(store.pending().ids(), [1, 4, 7]);
}

const GOLDEN_REQUEST_QUERY: &str = "12000000030140000000220000000001000007000000ea610fce9c3e02c4";
const GOLDEN_REQUEST_LINK: &str = concat!(
    "2600000003024000000003000000000000000000e83f02000000020000000000",
    "00000c00000000000000957b5d2c38341d1a",
);
const GOLDEN_REQUEST_INSERT: &str = concat!(
    "2a00000003034000000002000000090000000000000001000000000000800a00",
    "00000000000000000080000000006154b65da2e415e6",
);
const GOLDEN_REQUEST_STATS: &str = "02000000030454846b79b6470dc7";
const GOLDEN_REQUEST_SHUTDOWN: &str = "02000000030512f0305d7186528f";
const GOLDEN_RESPONSE_HITS: &str = concat!(
    "260000000381020000000300000000000000000000000000f03f090000000000",
    "0000000000000000d03f7ffca590302ff42f",
);
const GOLDEN_RESPONSE_LINK_HITS: &str = concat!(
    "1e000000038202000000010000000100000000000000000000000000e03f0000",
    "0000fee93c109b23c3c2",
);
const GOLDEN_RESPONSE_INSERTED: &str = "0e00000003830c000000040000000000000004b0567e3091184b";
const GOLDEN_RESPONSE_STATS: &str = concat!(
    "b300000003846400000000000000020000000000000037000000000000000100",
    "0000000000000300000000000000140000000000000023000000000000001200",
    "0000000000001100000000000000020000000000000001000000000000000600",
    "00000000000039300000000000006400000000000000840300000000000060ea",
    "0000000000000400000010000000010000000000000001030000000100000001",
    "00000002000000e1100000000000000400000061767832f4c71b4e7baa49f5",
);
const GOLDEN_RESPONSE_BUSY: &str = "0600000003853200000072a9ae8f65c75e50";
const GOLDEN_RESPONSE_SERVER_ERROR: &str =
    "1300000003860d0000006e6f207375636820696e646578046b44ce7734418e";
const GOLDEN_RESPONSE_BYE: &str = "020000000387233013cb671508c0";
const GOLDEN_STREAM_FRAME: &str = "12000000736f6d65207061796c6f61642062797465732edfea754d26a337";
const GOLDEN_SIMNET_DATA: &str = "0700000009000000007061796c6f61642fbb8f3009687129";
const GOLDEN_SIMNET_ACK: &str = "0000000007000000011e86bfe45ddb428e";
const GOLDEN_SEGMENT: &str = concat!(
    "5053473102000100000050000000030000001200000001000000000000000102",
    "0000020000000000120000000400000000000000040002000001000000801200",
    "00000700000000000000600000000000040041000f7b54eaa56605c2",
);
const GOLDEN_MANIFEST: &str = concat!(
    "504d463106005000000002000000ed5e00000000000010000000030000000000",
    "0000090000000000000002000000010000000000000004000000000000000100",
    "000008000000000000000100000006000000000000007d160e0d233d4da8",
);
const GOLDEN_WAL: &str = concat!(
    "50574c3103005000000000000000000000007ef6682159434877120000000100",
    "00000000000001020000020000000000abd3647d2efa37d01200000004000000",
    "0000000004000200000100000080b89367b82308173412000000070000000000",
    "000060000000000004004100ba844aa1e8874949",
);

/// The same manifest at version 5, whose entries carried each segment's
/// popcount range (`pc_min` 3 / 41 and 0 / 80).
const OLD_MANIFEST_V5: &str = concat!(
    "504d463105005000000002000000ed5e00000000000010000000030000000000",
    "0000090000000000000002000000010000000000000004000000000000000300",
    "0000290000000100000008000000000000000000000050000000010000000600",
    "0000000000009377fad885d125fa",
);

/// Bytes of the FNV-1a trailer epoch (segment v1, WAL v2, manifest v4),
/// as the encoders wrote them before the `word_fold` trailer.
const OLD_REQUEST_QUERY: &str = "120000000301400000002200000000010000070000004d0a0de3e22d6361";
const OLD_RESPONSE_HITS: &str = concat!(
    "260000000381020000000300000000000000000000000000f03f090000000000",
    "0000000000000000d03f7b80ba55739abacf",
);
const OLD_STREAM_FRAME: &str = "12000000736f6d65207061796c6f6164206279746573e65fa9508fd8eddc";
const OLD_SIMNET_DATA: &str = "0700000009000000007061796c6f616431db37df16bdf177";
const OLD_SEGMENT: &str = concat!(
    "5053473101000100000050000000030000001200000001000000000000000102",
    "0000020000000000120000000400000000000000040002000001000000801200",
    "0000070000000000000060000000000004004100164f4b48b9a1ce98",
);
const OLD_MANIFEST: &str = concat!(
    "504d463104005000000002000000ed5e00000000000010000000000000000300",
    "0000000000000900000000000000020000000100000030000000000000000400",
    "0000000000000300000029000000000000000100000008000000000000000000",
    "000050000000000000000100000006000000000000007317dd9f149bc06f",
);
const OLD_MANIFEST_WITH_SUMMARY: &str = concat!(
    "504d463104005000000002000000ed5e00000000000010000000020008000300",
    "0000000000000900000000000000020000000100000040000000000000000400",
    "000000000000030000002900000002000000efcdab8967452301010000000000",
    "0080010000000800000000000000000000005000000000000000010000000600",
    "0000000000000aa18d3128890218",
);
const OLD_WAL: &str = concat!(
    "50574c310200500000000000000000000000ed9f15349cffecaa120000000100",
    "0000000000000102000002000000000077ae430913c70fe31200000004000000",
    "00000000040002000001000000805a34be205def5b9212000000070000000000",
    "0000600000000000040041006d47a48eba3c289e",
);
