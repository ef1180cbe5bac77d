//! Admission of scan helpers, observed through `ReadStats::helper_rows`.
//!
//! The foreground gauge is process-wide, so the tests here take turns
//! (one lock) and nothing else in this binary scans or writes. Every
//! interleaving is forced with channels, never a timer. The pure
//! admission rule is unit-tested in `pprl_core::runner`.

use pprl_core::bitvec::BitVec;
use pprl_core::gauge::{cores, foreground};
use pprl_index::query::IndexReader;
use pprl_index::store::{DurabilityMode, IndexConfig, IndexStore, StoreOptions};
use pprl_index::vfs::{FaultVfs, Vfs};
use std::io;
use std::path::Path;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::{self, JoinHandle, ThreadId};

const PROBES: usize = 32;
/// 32 probes × 34k rows is past the ~1M-pair admission threshold.
const ROWS: usize = 34_000;

static TURN: Mutex<()> = Mutex::new(());

fn my_turn() -> MutexGuard<'static, ()> {
    TURN.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn filter(state: &mut u64) -> BitVec {
    let mut words: Vec<u64> = (0..16)
        .map(|_| splitmix(state) & (splitmix(state) | splitmix(state)))
        .collect();
    words[15] &= (1 << (1000 - 15 * 64)) - 1;
    BitVec::from_words(words, 1000).expect("tail bits masked")
}

fn corpus() -> (Vec<(u64, BitVec)>, Vec<BitVec>) {
    let mut state = 0x4E1Fu64;
    let records = (0..ROWS as u64)
        .map(|id| (id, filter(&mut state)))
        .collect();
    let probes = (0..PROBES).map(|_| filter(&mut state)).collect();
    (records, probes)
}

/// Holds a foreground guard on each of `n` threads until dropped.
struct Held {
    release: Vec<Sender<()>>,
    threads: Vec<JoinHandle<()>>,
}

fn hold(n: usize) -> Held {
    let (ready_tx, ready_rx) = channel();
    let mut held = Held {
        release: Vec::new(),
        threads: Vec::new(),
    };
    for _ in 0..n {
        let (release_tx, release_rx) = channel::<()>();
        let ready = ready_tx.clone();
        held.threads.push(thread::spawn(move || {
            let _busy = foreground();
            ready.send(()).expect("test waits for every holder");
            let _ = release_rx.recv(); // returns once the sender drops
        }));
        held.release.push(release_tx);
    }
    for _ in 0..n {
        ready_rx.recv().expect("holder ready");
    }
    held
}

impl Drop for Held {
    fn drop(&mut self) {
        self.release.clear();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

#[test]
fn a_saturated_gauge_admits_no_helper() {
    let _turn = my_turn();
    let (records, probes) = corpus();
    let refs: Vec<&BitVec> = probes.iter().collect();
    let reader = IndexReader::new(vec![records], 1000).expect("reader");
    let want = reader.top_k_batch(&refs, 10, 1, None).expect("one thread");
    let _held = hold(cores()); // with the caller: one more than cores
    let got = reader.top_k_batch(&refs, 10, 4, None).expect("capped at 4");
    assert_eq!(got, want);
    let stats = reader.read_stats();
    assert_eq!(stats.helper_rows, 0, "a helper ran with no idle core");
    assert_eq!(stats.rows_scanned, 2 * (PROBES * ROWS) as u64);
}

#[test]
fn a_free_gauge_lends_idle_cores_to_a_large_scan_only() {
    if cores() < 2 {
        return;
    }
    let _turn = my_turn();
    let (records, probes) = corpus();
    let refs: Vec<&BitVec> = probes.iter().collect();
    let reader = IndexReader::new(vec![records], 1000).expect("reader");
    let want = reader.top_k_batch(&refs, 10, 1, None).expect("one thread");
    // One probe is below the threshold: no helper even at a cap of 4.
    reader.top_k(&probes[0], 10, 4).expect("single probe");
    assert_eq!(reader.read_stats().helper_rows, 0);
    // A helper claims a task only if the OS runs it before the caller
    // has drained them all, so allow a few calls.
    for _ in 0..20 {
        assert_eq!(reader.top_k_batch(&refs, 10, 4, None).expect("batch"), want);
        if reader.read_stats().helper_rows > 0 {
            break;
        }
    }
    let stats = reader.read_stats();
    assert!(stats.helper_rows > 0, "no helper ran on an idle core");
    assert!(stats.helper_rows < stats.rows_scanned);
}

/// Passes every call to an in-memory filesystem, except that the first
/// segment read on a thread other than the scan's owner — a helper's —
/// reports on `gate`'s sender and then waits for its receiver.
#[derive(Debug)]
struct GatedVfs {
    inner: Arc<FaultVfs>,
    owner: Mutex<Option<ThreadId>>,
    gate: Mutex<Option<(Sender<Event>, Receiver<()>)>>,
}

#[derive(Debug, PartialEq)]
enum Event {
    HelperMidTask,
    ScanDone,
}

impl Vfs for GatedVfs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let helper = *self.owner.lock().expect("owner") != Some(thread::current().id());
        if helper && path.extension().is_some_and(|e| e == "seg") {
            if let Some((mid, go)) = self.gate.lock().expect("gate").take() {
                mid.send(Event::HelperMidTask).expect("test listens");
                go.recv().expect("test releases the helper");
            }
        }
        self.inner.read(path)
    }
    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        self.inner.write(path, data)
    }
    fn append(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        self.inner.append(path, data)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.inner.rename(from, to)
    }
    fn sync_file(&self, path: &Path) -> io::Result<()> {
        self.inner.sync_file(path)
    }
    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        self.inner.sync_dir(path)
    }
    fn file_size(&self, path: &Path) -> io::Result<u64> {
        self.inner.file_size(path)
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.inner.remove_file(path)
    }
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.inner.create_dir_all(path)
    }
    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }
}

/// A helper blocked inside its first task (a lazy segment load) sees
/// every core taken when it resumes: it finishes that one task and
/// claims no other, while the caller scans the rest.
#[test]
fn a_guard_taken_mid_scan_stops_helpers_claiming_tasks() {
    const SEGMENT_ROWS: usize = 1_000; // one task per segment
    if cores() < 2 {
        return;
    }
    let _turn = my_turn();
    let (records, probes) = corpus();
    let refs: Vec<&BitVec> = probes.iter().collect();
    let vfs = Arc::new(GatedVfs {
        inner: FaultVfs::reliable(),
        owner: Mutex::default(),
        gate: Mutex::default(),
    });
    let options = || StoreOptions {
        durability: DurabilityMode::Never,
        vfs: Arc::clone(&vfs) as Arc<dyn Vfs>,
    };
    let dir = Path::new("/scan-helpers");
    let mut store =
        IndexStore::create_with(dir, IndexConfig::new(1000, 1), options()).expect("create");
    for chunk in records.chunks(SEGMENT_ROWS) {
        store.insert_batch(chunk).expect("insert");
        store.flush().expect("flush");
    }
    let want = IndexReader::new(vec![records.clone()], 1000)
        .expect("eager reader")
        .top_k_batch(&refs, 10, 1, None)
        .expect("oracle scan");

    // A store opened afresh has no segment loaded, so a helper's first
    // task reads one; retry in the rare case the caller drains every
    // task before the helper claims any.
    for _ in 0..10 {
        let reader = IndexStore::open_with(dir, options())
            .expect("open")
            .lazy_reader()
            .expect("lazy reader");
        let (events_tx, events) = channel();
        let (go, go_rx) = channel();
        *vfs.gate.lock().expect("gate") = Some((events_tx.clone(), go_rx));
        let (got, helper_rows) = thread::scope(|s| {
            let scan = s.spawn(|| {
                *vfs.owner.lock().expect("owner") = Some(thread::current().id());
                let got = reader.top_k_batch(&refs, 10, 4, None).expect("scan");
                events_tx.send(Event::ScanDone).expect("test listens");
                got
            });
            let first = events.recv().expect("an event");
            let _held = (first == Event::HelperMidTask).then(|| hold(cores()));
            go.send(()).expect("the gate holds its receiver until used");
            let got = scan.join().expect("scan thread");
            (
                got,
                (first == Event::HelperMidTask).then(|| reader.read_stats().helper_rows),
            )
        });
        assert_eq!(got, want);
        if let Some(helper_rows) = helper_rows {
            assert_eq!(
                helper_rows,
                (PROBES * SEGMENT_ROWS) as u64,
                "the helper must finish its one task and claim nothing after"
            );
            return;
        }
        vfs.gate.lock().expect("gate").take();
    }
    panic!("no helper claimed a task in ten large scans on an idle host");
}
