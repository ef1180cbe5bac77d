//! Allocation audit for the scan path: a warm `top_k` makes one
//! allocator call, for its result, no matter how many slots the reader
//! has or how many rows (tiles) they hold, or what thread cap a call
//! below the helper threshold names. The reader cuts its scan tasks
//! once, when it is built, and a call's place on the reader's shared
//! pass keeps the probe's words, its top-k heap and the caller's scan
//! scratch from one call to the next. A per-call, per-slot, per-tile or
//! per-task buffer would show up here as a count above one. Compaction is audited the same way: it merges arena runs and
//! writes segments from arena rows, so it does not allocate per record.
//! Opening a store decodes each segment into its arena with one builder
//! per segment, and `stats()` verifies every entry without building a
//! row, so both allocate per segment, not per record.
//!
//! Same per-thread counting-allocator shim as `session/tests/alloc.rs`.

use pprl_core::bitvec::BitVec;
use pprl_core::gauge::{cores, foreground};
use pprl_core::rng::SplitMix64;
use pprl_index::query::IndexReader;
use pprl_index::store::{IndexConfig, IndexStore};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Barrier;

struct CountingAlloc;

thread_local! {
    static ALLOC_CALLS: Cell<u64> = const { Cell::new(0) };
}

fn count_call() {
    // `try_with`: the allocator also runs while a thread is torn down.
    let _ = ALLOC_CALLS.try_with(|calls| calls.set(calls.get() + 1));
}

// SAFETY: delegates directly to `System`; the counter is a thread-local
// `Cell<u64>` (no destructor, no allocation) and never touches the
// allocator's invariants.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_call();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_call();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING_ALLOC: CountingAlloc = CountingAlloc;

fn alloc_calls<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let calls0 = ALLOC_CALLS.with(Cell::get);
    let out = f();
    (out, ALLOC_CALLS.with(Cell::get) - calls0)
}

fn random_filter(len: usize, per_mille: u64, rng: &mut SplitMix64) -> BitVec {
    let ones: Vec<usize> = (0..len)
        .filter(|_| rng.next_below(1000) < per_mille)
        .collect();
    BitVec::from_positions(len, &ones).expect("positions in range")
}

fn reader(slots: usize, rows_per_slot: usize, rng: &mut SplitMix64) -> IndexReader {
    let shards = (0..slots)
        .map(|s| {
            (0..rows_per_slot)
                .map(|r| {
                    let id = (s * rows_per_slot + r) as u64;
                    (id, random_filter(1000, 350 + 10 * (id % 13), rng))
                })
                .collect()
        })
        .collect();
    IndexReader::new(shards, 1000).expect("reader")
}

#[test]
fn warm_top_k_allocator_calls_do_not_grow_with_slots_or_rows() {
    let mut rng = SplitMix64::new(0xA110C);
    let small = reader(2, 9, &mut rng);
    let wide = reader(9, 40, &mut rng);
    let tall = reader(3, 1500, &mut rng); // a dozen tiles per slot
    let query = random_filter(1000, 414, &mut rng);

    let mut counts = Vec::new();
    for r in [&small, &wide, &tall] {
        let warm = r.top_k(&query, 10, 1).expect("warm-up");
        for threads in [1, 4] {
            let (hits, calls) = alloc_calls(|| r.top_k(&query, 10, threads).expect("top_k"));
            assert_eq!(hits, warm);
            counts.push(calls);
        }
    }
    // Helper admission costs no allocation on a call that stays below
    // its threshold, whatever the thread cap.
    for (i, &count) in counts.iter().enumerate() {
        assert_eq!(count, 1, "reader {} threads {}", i / 2, [1, 4][i % 2]);
    }
}

/// A filter of ~37.5 % density built word-wise (cheap at fixture size).
fn word_filter(rng: &mut SplitMix64) -> BitVec {
    let mut words: Vec<u64> = (0..16)
        .map(|_| rng.next_u64() & (rng.next_u64() | rng.next_u64()))
        .collect();
    words[15] &= (1 << (1000 - 15 * 64)) - 1;
    BitVec::from_words(words, 1000).expect("tail bits masked")
}

/// Past the helper threshold with every core's foreground gauge held,
/// a call runs on its caller alone and checks for an idle core before
/// each task: those checks allocate nothing, so the count does not grow
/// with the number of tasks.
#[test]
fn helper_admission_checks_do_not_allocate() {
    let mut rng = SplitMix64::new(0xAD417);
    let records: Vec<(u64, BitVec)> = (0..34_000u64)
        .map(|id| (id, word_filter(&mut rng)))
        .collect();
    let probes: Vec<BitVec> = (0..32).map(|_| word_filter(&mut rng)).collect();
    let refs: Vec<&BitVec> = probes.iter().collect();
    let one_slot = IndexReader::new(vec![records.clone()], 1000).expect("reader");
    let eight_slots = records.chunks(4_250).map(<[_]>::to_vec).collect();
    let eight_slots = IndexReader::new(eight_slots, 1000).expect("reader");

    // One thread per core holds a foreground guard while the caller
    // measures; asserts wait until they are released.
    let (held, release) = (Barrier::new(cores() + 1), Barrier::new(cores() + 1));
    let runs = std::thread::scope(|s| {
        for _ in 0..cores() {
            s.spawn(|| {
                let _busy = foreground();
                held.wait();
                release.wait();
            });
        }
        held.wait();
        let runs: Vec<_> = [&one_slot, &eight_slots]
            .map(|r| {
                let warm = r.top_k_batch(&refs, 10, 4, None).expect("warm-up");
                let (hits, calls) =
                    alloc_calls(|| r.top_k_batch(&refs, 10, 4, None).expect("batch"));
                (hits == warm, r.read_stats().helper_rows, calls)
            })
            .into();
        release.wait();
        runs
    });
    for &(same, helper_rows, _) in &runs {
        assert!(same, "a warm batch changed its answer");
        assert_eq!(helper_rows, 0, "a helper ran on a busy host");
    }
    assert_eq!(runs[0].2, runs[1].2, "more tasks, more allocator calls");
}

/// Arena-native compaction k-way-merges popcount-sorted arena runs and
/// encodes the merged segment straight from arena rows: far fewer
/// allocator calls than records merged (decoding each record into an
/// owned filter would cost at least one per record).
#[test]
fn arena_native_compaction_does_not_allocate_per_merged_record() {
    let dir = std::env::temp_dir().join(format!("pprl-alloc-compact-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut store = IndexStore::create(&dir, IndexConfig::new(1000, 2)).expect("create");
    let mut rng = SplitMix64::new(0xE19_A110C);
    let (batches, per_batch) = (4u64, 500u64);
    for batch in 0..batches {
        let records: Vec<(u64, BitVec)> = (0..per_batch)
            .map(|i| (batch * per_batch + i, word_filter(&mut rng)))
            .collect();
        store.insert_batch(&records).expect("insert");
        store.flush().expect("flush");
    }
    let (merged, calls) = alloc_calls(|| store.compact().expect("compact"));
    std::fs::remove_dir_all(&dir).expect("remove the store");
    assert_eq!(
        merged,
        2 * (batches as usize - 1),
        "every shard merged its segments"
    );
    let per_record = calls as f64 / (batches * per_batch) as f64;
    assert!(
        per_record < 0.25,
        "{calls} allocator calls merging {} records",
        batches * per_batch
    );
}

/// `IndexStore::open` decodes every segment into a presized arena and
/// `stats()` verifies every entry without building it: over the same
/// number of segments, ten times the records costs not one allocator
/// call more.
#[test]
fn open_and_stats_allocate_per_segment_not_per_record() {
    let mut rng = SplitMix64::new(0x09E2);
    let calls: Vec<(u64, u64)> = [150u64, 1_500]
        .iter()
        .map(|&per_flush| {
            let dir = std::env::temp_dir().join(format!(
                "pprl-alloc-open-{per_flush}-{}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let mut store = IndexStore::create(&dir, IndexConfig::new(1000, 2)).expect("create");
            for batch in 0..3 {
                let records: Vec<(u64, BitVec)> = (0..per_flush)
                    .map(|i| (batch * per_flush + i, word_filter(&mut rng)))
                    .collect();
                store.insert_batch(&records).expect("insert");
                store.flush().expect("flush");
            }
            drop(store);
            let (store, open_calls) = alloc_calls(|| IndexStore::open(&dir).expect("open"));
            let (stats, stats_calls) = alloc_calls(|| store.stats().expect("stats"));
            assert_eq!(stats.segments, 6, "3 flushes over 2 shards");
            assert_eq!(stats.persisted_records as u64, 3 * per_flush);
            std::fs::remove_dir_all(&dir).expect("remove the store");
            (open_calls, stats_calls)
        })
        .collect();
    assert!(calls[0].0 < 150 && calls[0].1 < 150, "{calls:?}");
    assert_eq!(
        calls[0], calls[1],
        "(open, stats) allocator calls grew with records"
    );
}
