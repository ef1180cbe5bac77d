//! Generation swaps read nothing.
//!
//! An `IndexStore` holds every committed segment resident: open decodes
//! each file once, and flush and merge keep the arenas they write.
//! Readers share those arenas. These tests pin the observable contract
//! through a `Vfs` that logs every segment-file read: once `open`
//! returns, inserts, flushes, compaction steps and new readers read no
//! segment file (only `stats()` and `export_snapshot()` do), a reader's
//! `ReadStats::bytes_read` stays the open total, old generations keep
//! answering after compaction deleted their files, and sharing can
//! never serve rows of a segment id no committed manifest named.

use pprl_core::bitvec::BitVec;
use pprl_core::error::PprlError;
use pprl_core::rng::SplitMix64;
use pprl_index::query::{Hit, IndexReader};
use pprl_index::store::{IndexConfig, IndexStore};
use pprl_index::vfs::{FaultPlan, FaultVfs, Vfs};
use pprl_similarity::bitvec_sim::dice_bits;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

const LEN: usize = 256;

fn records(ids: std::ops::Range<u64>, rng: &mut SplitMix64) -> Vec<(u64, BitVec)> {
    ids.map(|id| {
        let ones: Vec<usize> = (0..LEN)
            .filter(|_| rng.next_below(1000) < 300 + 20 * (id % 10))
            .collect();
        (id, BitVec::from_positions(LEN, &ones).expect("in range"))
    })
    .collect()
}

fn brute_force(records: &[(u64, BitVec)], query: &BitVec, k: usize) -> Vec<Hit> {
    let mut hits: Vec<Hit> = records
        .iter()
        .map(|(id, f)| Hit {
            id: *id,
            score: dice_bits(query, f).expect("dice"),
        })
        .collect();
    hits.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.id.cmp(&b.id)));
    hits.truncate(k);
    hits
}

fn assert_answers(reader: &IndexReader, corpus: &[(u64, BitVec)], what: &str) {
    for (_, probe) in corpus.iter().step_by(corpus.len() / 7 + 1) {
        assert_eq!(
            reader.top_k(probe, 8, 1).expect("top_k"),
            brute_force(corpus, probe, 8),
            "{what}"
        );
    }
}

/// An in-memory filesystem that logs every read of a segment file.
#[derive(Debug)]
struct ReadLog {
    inner: Arc<FaultVfs>,
    reads: Mutex<Vec<PathBuf>>,
}

impl ReadLog {
    fn new() -> Arc<ReadLog> {
        Arc::new(ReadLog {
            inner: FaultVfs::reliable(),
            reads: Mutex::default(),
        })
    }

    /// Segment files read since the last call, sorted.
    fn take(&self) -> Vec<PathBuf> {
        let mut reads = std::mem::take(&mut *self.reads.lock().expect("log"));
        reads.sort();
        reads
    }

    /// Every segment file under `dir`, sorted.
    fn segments(&self, dir: &Path) -> Vec<PathBuf> {
        let mut files: Vec<PathBuf> = self
            .inner
            .list_files()
            .into_iter()
            .filter(|p| p.parent() == Some(dir) && p.extension().is_some_and(|e| e == "seg"))
            .collect();
        files.sort();
        files
    }

    fn io(self: &Arc<Self>) -> Arc<dyn Vfs> {
        Arc::clone(self) as Arc<dyn Vfs>
    }
}

impl Vfs for ReadLog {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        if path.extension().is_some_and(|e| e == "seg") {
            self.reads.lock().expect("log").push(path.to_path_buf());
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

/// Total bytes of `files` in `vfs`.
fn bytes_of(vfs: &ReadLog, files: &[PathBuf]) -> u64 {
    files.iter().map(|p| vfs.file_size(p).expect("size")).sum()
}

#[test]
fn successor_readers_read_no_segment_file() {
    let vfs = ReadLog::new();
    let dir = Path::new("/flush");
    let mut rng = SplitMix64::new(0xCA77);
    let mut store =
        IndexStore::create_with(dir, IndexConfig::new(LEN, 4), vfs.io()).expect("create");
    let mut corpus = records(0..300, &mut rng);
    store.insert_batch(&corpus[..150]).expect("insert");
    store.flush().expect("flush");
    store.insert_batch(&corpus[150..]).expect("insert");
    store.flush().expect("flush");
    drop(store);

    // Open reads each catalogued segment exactly once.
    let mut store = IndexStore::open_with(dir, vfs.io()).expect("open");
    let opened = vfs.segments(dir);
    assert_eq!(vfs.take(), opened, "open reads every segment once");
    let open_bytes = bytes_of(&vfs, &opened);
    let first = store.reader().expect("first reader");
    assert_eq!(first.read_stats().bytes_read, open_bytes);

    for round in 0..3u64 {
        let extra = records(1000 + 40 * round..1040 + 40 * round, &mut rng);
        store.insert_batch(&extra).expect("insert");
        corpus.extend(extra);
        let pending = store.reader().expect("reader over pending rows");
        assert_answers(&pending, &corpus, "successor after insert");
        store.flush().expect("flush");
        let next = store.reader().expect("successor");
        assert_answers(&next, &corpus, "successor after flush");
        assert_eq!(next.read_stats().bytes_read, open_bytes);
        assert!(vfs.take().is_empty(), "round {round} read a segment file");
    }
    // The first generation saw none of that and still answers its own view.
    assert_answers(&first, &corpus[..300], "first generation");
}

#[test]
fn compaction_deletes_superseded_files_and_pinned_readers_still_answer() {
    let vfs = ReadLog::new();
    let dir = Path::new("/compact");
    let mut rng = SplitMix64::new(0xC0DE);
    let mut store =
        IndexStore::create_with(dir, IndexConfig::new(LEN, 2), vfs.io()).expect("create");
    let mut corpus = records(0..400, &mut rng);
    for batch in corpus.chunks(80) {
        store.insert_batch(batch).expect("insert");
        store.flush().expect("flush");
    }
    drop(store);
    let mut store = IndexStore::open_with(dir, vfs.io()).expect("open");
    let before = vfs.segments(dir);
    assert_eq!(vfs.take(), before);
    let open_bytes = bytes_of(&vfs, &before);
    let pinned = store.reader().expect("pinned reader");
    let warm = pinned.top_k(&corpus[0].1, 8, 1).expect("warm query");

    // Five flushes of 80 rows over 2 shards: each shard holds five
    // segments below 4 KiB, one full size tier, so every shard merges.
    let outcome = store.compact_tiered().expect("compact");
    assert!(!outcome.is_noop());
    // The merged-away files are gone as soon as the manifest commits.
    let after = vfs.segments(dir);
    assert_eq!(after.len(), outcome.new_segments);
    assert!(after.iter().all(|p| !before.contains(p)));
    let next = store.reader().expect("successor");
    assert_answers(&next, &corpus, "successor after compaction");
    assert_eq!(next.read_stats().bytes_read, open_bytes);
    // The pinned generation holds its rows though its files are gone.
    assert_eq!(
        pinned.top_k(&corpus[0].1, 8, 1).expect("pinned query"),
        warm
    );
    assert_answers(&pinned, &corpus, "pinned generation after compaction");

    // A full compaction after more inserts reads nothing either.
    let extra = records(1000..1100, &mut rng);
    store.insert_batch(&extra).expect("insert");
    corpus.extend(extra);
    assert!(store.compact().expect("compact") > 0);
    let last = store.reader().expect("reader after compact");
    assert_answers(&last, &corpus, "reader after compact");
    assert_eq!(last.read_stats().bytes_read, open_bytes);
    assert!(vfs.take().is_empty(), "a write path read a segment file");

    // Only a verification pass and a snapshot export read the files.
    let live = vfs.segments(dir);
    store.stats().expect("stats");
    assert_eq!(vfs.take(), live, "stats reads every segment once");
    store.export_snapshot(Path::new("/copy")).expect("export");
    assert_eq!(vfs.take(), live, "export reads every segment once");
}

/// A flush that fails (one-shot `ENOSPC`, swept over every write of the
/// flush: segment files, manifest, WAL reset) leaves segment files under
/// ids no committed manifest names; the retry reuses those ids with
/// *different* content, because more records arrived in between. Readers
/// taken before, between and after must each answer exactly their own
/// view — rows of an uncommitted id are never served from the map.
#[test]
fn a_segment_id_that_never_committed_is_never_served_from_the_map() {
    let dir = Path::new("/idx");
    let mut rng = SplitMix64::new(0xE05C);
    let base = records(0..60, &mut rng);
    let second = records(100..130, &mut rng);
    let third = records(200..215, &mut rng);
    let mut failed_flushes = 0;
    for limit in (2_000..40_000u64).step_by(131) {
        let vfs = FaultVfs::new(FaultPlan {
            enospc_after_bytes: Some(limit),
            ..FaultPlan::none()
        });
        let io = Arc::clone(&vfs) as Arc<dyn Vfs>;
        let Ok(mut store) = IndexStore::create_with(dir, IndexConfig::new(LEN, 2), io) else {
            continue;
        };
        if store.insert_batch(&base).is_err() || store.flush().is_err() {
            continue; // the fault fired before the flush under test
        }
        let first = store.reader().expect("first reader");
        if store.insert_batch(&second).is_err() {
            continue;
        }
        let mut corpus: Vec<(u64, BitVec)> = base.iter().chain(&second).cloned().collect();
        match store.flush() {
            Ok(()) => {}
            Err(PprlError::Storage(_)) => {
                failed_flushes += 1;
                // Whatever the failed flush left behind, a reader taken
                // now is built from the committed manifest + pending.
                let between = store.reader().expect("reader between");
                assert_answers(&between, &corpus, "between failure and retry");
                store.insert_batch(&third).expect("insert after the fault");
                corpus.extend(third.iter().cloned());
                store.flush().expect("retry");
            }
            Err(e) => panic!("unexpected error kind at limit {limit}: {e}"),
        }
        let last = store.reader().expect("reader after retry");
        assert_answers(&last, &corpus, "after the retried flush");
        assert_eq!(last.len(), corpus.len(), "limit {limit}");
        assert_answers(&first, &base, "first generation");
    }
    assert!(
        failed_flushes >= 3,
        "the sweep must hit the flush under test (hit {failed_flushes} times)"
    );
}
