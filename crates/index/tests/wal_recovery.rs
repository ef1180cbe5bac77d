//! WAL recovery property tests: the log is the ack boundary, so its
//! failure modes are enumerated exhaustively rather than sampled.
//!
//! - **Every prefix truncation** of a populated WAL is a benign torn
//!   tail: the store opens, recovers exactly the entries wholly before
//!   the cut, and repairs the log in place.
//! - **Every single-bit flip** anywhere in the image is detected:
//!   opening fails with a typed [`PprlError::Storage`] error. Flipped
//!   bits never replay silently — magic, version, filter length, and
//!   epoch are covered by the header checksum; every entry by its
//!   length prefix and frame checksum.
//! - A truncated tail is repaired on open: after recovery the store
//!   accepts new inserts and a further reopen sees the union.

use pprl_core::bitvec::BitVec;
use pprl_core::error::PprlError;
use pprl_index::store::{IndexConfig, IndexStore, WAL_FILE};
use pprl_index::vfs::{FaultVfs, Vfs};
use std::path::Path;
use std::sync::Arc;

const FILTER_LEN: usize = 64;

/// WAL v2 geometry (kept in sync with `store.rs`; the tests below fail
/// loudly if the layout drifts).
const HEADER_LEN: usize = 26;
const FRAME_LEN: usize = 4 + (8 + FILTER_LEN / 8) + 8;

fn filter(seed: u64) -> BitVec {
    let ones: Vec<usize> = (0..FILTER_LEN)
        .filter(|i| (seed >> (i % 61)) & 1 == 1 || i % 7 == (seed % 7) as usize)
        .collect();
    BitVec::from_positions(FILTER_LEN, &ones).expect("filter")
}

/// Builds a store whose WAL holds exactly `n` un-flushed entries and
/// returns (vfs, pristine WAL image).
fn populated_wal(n: u64) -> (Arc<FaultVfs>, Vec<u8>) {
    let vfs = FaultVfs::reliable();
    let dir = Path::new("/wal");
    let mut store = IndexStore::create_with(
        dir,
        IndexConfig::new(FILTER_LEN, 2),
        Arc::clone(&vfs) as Arc<dyn Vfs>,
    )
    .expect("create");
    let records: Vec<(u64, BitVec)> = (0..n).map(|id| (id, filter(id + 1))).collect();
    store.insert_batch(&records).expect("insert");
    let image = vfs.read(&dir.join(WAL_FILE)).expect("read wal");
    assert_eq!(
        image.len(),
        HEADER_LEN + n as usize * FRAME_LEN,
        "wal geometry drifted; update HEADER_LEN/FRAME_LEN"
    );
    (vfs, image)
}

fn reopen(vfs: &Arc<FaultVfs>) -> Result<IndexStore, PprlError> {
    IndexStore::open_with(Path::new("/wal"), Arc::clone(vfs) as Arc<dyn Vfs>)
}

#[test]
fn every_prefix_truncation_recovers_exactly_the_complete_entries() {
    let (vfs, image) = populated_wal(3);
    let wal = Path::new("/wal").join(WAL_FILE);
    for cut in 0..=image.len() {
        vfs.write(&wal, &image[..cut]).expect("truncate");
        let store = reopen(&vfs)
            .unwrap_or_else(|e| panic!("cut at {cut} must be a benign torn tail, got: {e}"));
        let expect = cut.saturating_sub(HEADER_LEN) / FRAME_LEN;
        assert_eq!(
            store.record_count(),
            expect,
            "cut at {cut}: wrong number of entries recovered"
        );
        // Recovered ids are the schedule prefix, in order.
        let got: Vec<u64> = store.pending().ids().to_vec();
        let want: Vec<u64> = (0..expect as u64).collect();
        assert_eq!(got, want, "cut at {cut}: recovered the wrong entries");
        // Open repaired the log in place: the surviving image is a
        // well-formed WAL holding exactly the recovered prefix.
        let repaired = vfs.read(&wal).expect("read repaired");
        assert_eq!(
            repaired.len(),
            HEADER_LEN + expect * FRAME_LEN,
            "cut at {cut}: repair left a ragged log"
        );
    }
}

#[test]
fn every_single_bit_flip_is_a_typed_error() {
    let (vfs, image) = populated_wal(3);
    let wal = Path::new("/wal").join(WAL_FILE);
    for byte in 0..image.len() {
        for bit in 0..8u8 {
            let mut bad = image.clone();
            bad[byte] ^= 1 << bit;
            vfs.write(&wal, &bad).expect("corrupt");
            match reopen(&vfs) {
                Err(PprlError::Storage(_)) => {}
                Err(e) => panic!("flip at byte {byte} bit {bit}: wrong error type: {e}"),
                Ok(_) => panic!("flip at byte {byte} bit {bit} replayed silently"),
            }
        }
    }
    // Pristine image still opens cleanly (the loop never mutated state).
    vfs.write(&wal, &image).expect("restore");
    let store = reopen(&vfs).expect("pristine reopen");
    assert_eq!(store.record_count(), 3);
}

#[test]
fn truncated_tail_repairs_and_store_keeps_accepting_inserts() {
    let (vfs, image) = populated_wal(3);
    let wal = Path::new("/wal").join(WAL_FILE);
    // Tear mid-way through the last entry.
    vfs.write(&wal, &image[..image.len() - FRAME_LEN / 2])
        .expect("tear");
    let mut store = reopen(&vfs).expect("torn tail is benign");
    assert_eq!(store.record_count(), 2);
    // The repaired log keeps working: new appends land after the
    // recovered prefix and survive a further reopen.
    store
        .insert_batch(&[(100, filter(7)), (101, filter(8))])
        .expect("insert after repair");
    drop(store);
    let store = reopen(&vfs).expect("reopen after repair");
    let ids: Vec<u64> = store.pending().ids().to_vec();
    assert_eq!(ids, vec![0, 1, 100, 101]);
}
