//! Allocation audit for the scan path: a warm `top_k` makes a small,
//! fixed number of allocator calls — the per-call query context, task
//! list, top-k heap, scan scratch and result — no matter how many slots
//! the reader has or how many rows (tiles) they hold. A per-slot or
//! per-tile buffer would show up here as a count that grows with the
//! index.
//!
//! Same per-thread counting-allocator shim as `session/tests/alloc.rs`.

use pprl_core::bitvec::BitVec;
use pprl_core::rng::SplitMix64;
use pprl_index::query::IndexReader;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

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
        let plan = r.popcount_scan_order(query.count_ones());
        let warm = r.top_k(&query, 10, 1).expect("warm-up");
        let (hits, calls) = alloc_calls(|| r.top_k(&query, 10, 1).expect("top_k"));
        assert_eq!(hits, warm);
        let (planned, planned_calls) =
            alloc_calls(|| r.top_k_planned(&query, 10, 1, &plan).expect("planned"));
        assert_eq!(planned, warm);
        counts.push((calls, planned_calls));
    }
    assert_eq!(counts[0], counts[1], "more slots, more allocator calls");
    assert_eq!(counts[0], counts[2], "more rows, more allocator calls");
    let (calls, planned_calls) = counts[0];
    assert!(calls <= 12, "top_k made {calls} allocator calls");
    assert!(
        planned_calls <= calls + 2,
        "a plan adds the visit order and its seen-set, not {} calls",
        planned_calls - calls
    );
}
