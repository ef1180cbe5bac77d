//! Allocation audit for the encode path: once a dataset's tokens have
//! been seen, encoding a record costs lookups and bit-sets — the heap is
//! touched per value (the normalised string, the output filter), never
//! per token — and a one-record dataset (a streaming insert) neither
//! rebuilds encoders nor fills a memo it will throw away.
//!
//! Same counting-allocator shim as `session/tests/alloc.rs`, counting per
//! thread so the tests here can run side by side.

use pprl_core::record::{Dataset, Record};
use pprl_core::schema::Schema;
use pprl_core::value::{Date, Value};
use pprl_encoding::encoder::{RecordEncoder, RecordEncoderConfig};
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

/// A person whose five text fields each hold `text`.
fn person(text: &str) -> Record {
    let text = || Value::Text(text.to_string());
    Record::new(
        0,
        vec![
            text(),
            text(),
            text(),
            text(),
            text(),
            Value::Date(Date::new(1987, 6, 5).unwrap()),
            Value::Categorical("f".into()),
            Value::Integer(39),
        ],
    )
}

fn copies(record: &Record, n: usize) -> Dataset {
    Dataset::from_records(Schema::person(), vec![record.clone(); n]).unwrap()
}

const SHORT: &str = "al";
const LONG: &str = "bartholomew fitzgerald-montgomery the 3rd";

fn encoder() -> RecordEncoder {
    RecordEncoder::new(
        RecordEncoderConfig::person_clk(b"alloc-audit".to_vec()),
        &Schema::person(),
    )
    .unwrap()
}

/// Allocator calls per record once the memo is warm: the difference
/// between encoding `2n` and `n` copies of `record`, per extra copy.
fn steady_calls_per_record(encoder: &RecordEncoder, record: &Record) -> u64 {
    const N: usize = 64;
    let (once, twice) = (copies(record, N), copies(record, 2 * N));
    let (_, calls_once) = alloc_calls(|| encoder.encode_dataset(&once).unwrap());
    let (_, calls_twice) = alloc_calls(|| encoder.encode_dataset(&twice).unwrap());
    let extra = calls_twice - calls_once;
    assert_eq!(extra % N as u64, 0, "steady state is the same every record");
    extra / N as u64
}

#[test]
fn warm_memo_encoding_allocates_per_value_not_per_token() {
    let encoder = encoder();
    let short = steady_calls_per_record(&encoder, &person(SHORT));
    let long = steady_calls_per_record(&encoder, &person(LONG));
    // ~20x the q-grams, not one allocator call more.
    assert_eq!(long, short, "calls per record: {LONG:?} vs {SHORT:?}");
    // Three strings per text or categorical value (its text, then two
    // normalisation passes), and the record's filter and filter list.
    assert!(short <= 3 * 6 + 2, "{short} calls per record");
}

#[test]
fn one_record_datasets_skip_the_memo_and_reuse_the_encoders() {
    let encoder = encoder();
    let steady = steady_calls_per_record(&encoder, &person(LONG));
    let (short, long) = (copies(&person(SHORT), 1), copies(&person(LONG), 1));
    let (_, calls_short) = alloc_calls(|| encoder.encode_dataset(&short).unwrap());
    let (_, calls_long) = alloc_calls(|| encoder.encode_dataset(&long).unwrap());
    // Memo keys would cost one call per distinct token (~200 here), new
    // encoders one per field and more; what is left is the call's own
    // buffers: column indices, scratch strings, one position buffer a field.
    assert!(
        calls_long <= steady + 32 && calls_long <= calls_short + 8,
        "one-record encode: {calls_long} calls ({calls_short} for short values, {steady} steady)"
    );
}
