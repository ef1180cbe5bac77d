//! E19 — columnar scan kernel throughput (§5.1 "volume"): the flat
//! filter-arena layout plus the unrolled and batched Dice kernels are
//! what make exhaustive exact top-k scans affordable at population
//! scale.
//!
//! Compares three single-thread implementations of the same workload —
//! score every (query, record) pair over an indexed population — and
//! checks they agree bit-for-bit before trusting the clock:
//!
//! 1. `scalar`: the per-record path the index used before the arena —
//!    one `dice_bits(query, filter)` per heap-allocated `BitVec`, which
//!    re-derives both popcounts on every call.
//! 2. `unrolled`: the 4-accumulator `and_count` slice kernel over arena
//!    rows, with popcounts read from the arena's side array.
//! 3. `batched`: the multi-probe arena walk the real query engine uses —
//!    each 4-row block is loaded once and scored against the whole query
//!    batch with `and_count4`, so arena words are read once per batch
//!    instead of once per query.
//!
//! Two further measurements ride along:
//!
//! - **SIMD dispatch paths** (`simd:*` rows): the batched walk forced
//!   through every kernel this host can run (`scalar`, `popcnt`-only
//!   `portable`, `avx2`, `avx512`), all checked bit-identical
//!   before timing. The dispatched path must be at least as fast as the
//!   batched scalar walk — runtime detection must never cost throughput.
//! - **Compaction allocations**: bytes and allocator calls per merged
//!   record for the old record round-trip merge (decode every segment to
//!   owned `BitVec`s, concatenate, sort, re-encode) versus the
//!   arena-native k-way merge the store now runs. The arena path must
//!   not allocate per record.
//!
//! Run: `cargo run --release -p pprl-bench --bin exp_scan_kernel`
//! (pass `--smoke` for a seconds-long CI-sized run).

use pprl_bench::json::Json;
use pprl_bench::{banner, report, secs, Table};
use pprl_core::bitvec::BitVec;
use pprl_core::rng::SplitMix64;
use pprl_index::arena::FilterArena;
use pprl_index::manifest::{segment_path, Manifest};
use pprl_index::segment::{encode_segment, read_segment};
use pprl_index::store::{IndexConfig, IndexStore};
use pprl_similarity::bitvec_sim::dice_bits;
use pprl_similarity::kernel::{
    and_count, and_count4, available_kernels, cpu_features, dice_from_counts, kernel_name, Kernel,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Allocator shim counting every allocation, so the compaction
/// comparison can report bytes and calls per merged record instead of
/// hand-waving about "fewer allocations".
struct CountingAlloc;

static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates directly to `System`; the counters are relaxed
// atomics and never touch the allocator's invariants.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING_ALLOC: CountingAlloc = CountingAlloc;

/// Runs `f` and returns (result, bytes allocated, allocator calls).
fn count_allocs<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let bytes0 = ALLOC_BYTES.load(Ordering::Relaxed);
    let calls0 = ALLOC_CALLS.load(Ordering::Relaxed);
    let out = f();
    (
        out,
        ALLOC_BYTES.load(Ordering::Relaxed) - bytes0,
        ALLOC_CALLS.load(Ordering::Relaxed) - calls0,
    )
}

/// Random filter with roughly `fill` of its bits set (CLK-like density).
fn random_filter(len: usize, fill: f64, rng: &mut SplitMix64) -> BitVec {
    let threshold = (fill * u64::MAX as f64) as u64;
    let mut f = BitVec::zeros(len);
    for i in 0..len {
        if rng.next_u64() < threshold {
            f.set(i);
        }
    }
    f
}

/// One timed pass; returns (seconds, checksum of intersections + score
/// bits folded together so the optimiser cannot drop the work and any
/// divergence between kernels is caught).
fn run_timed(f: impl Fn() -> u64, reps: usize) -> (f64, u64) {
    let mut best = f64::INFINITY;
    let mut checksum = 0u64;
    for rep in 0..reps {
        let (sum, elapsed) = pprl_bench::timed(&f);
        if rep == 0 {
            checksum = sum;
        } else {
            assert_eq!(sum, checksum, "kernel not deterministic across reps");
        }
        best = best.min(elapsed);
    }
    (best, checksum)
}

fn fold(acc: u64, inter: usize, score: f64) -> u64 {
    acc.wrapping_mul(0x100_0000_01B3)
        .wrapping_add(inter as u64)
        .wrapping_add(score.to_bits() >> 17)
}

/// The batched arena walk forced through one specific kernel path.
/// Fold structure matches the dispatching `batched` loop in `main`
/// exactly, so checksums are comparable across every path.
fn batched_walk(arena: &FilterArena, queries: &[BitVec], kernel: Kernel) -> u64 {
    let stride = arena.stride();
    let mut per_query = vec![0u64; queries.len()];
    let qmeta: Vec<(&[u64], usize)> = queries
        .iter()
        .map(|q| (q.as_words(), q.count_ones()))
        .collect();
    let full = arena.len() / 4 * 4;
    let mut i = 0;
    while i < full {
        let block = &arena.words()[i * stride..(i + 4) * stride];
        for (qi, &(qw, q)) in qmeta.iter().enumerate() {
            let counts = kernel.and_count4(qw, block);
            for (lane, &inter) in counts.iter().enumerate() {
                let score = dice_from_counts(inter, q, arena.popcount(i + lane) as usize);
                per_query[qi] = fold(per_query[qi], inter, score);
            }
        }
        i += 4;
    }
    for row in full..arena.len() {
        for (qi, &(qw, q)) in qmeta.iter().enumerate() {
            let inter = kernel.and_count(qw, arena.row(row));
            let score = dice_from_counts(inter, q, arena.popcount(row) as usize);
            per_query[qi] = fold(per_query[qi], inter, score);
        }
    }
    per_query.into_iter().fold(0u64, |acc, s| {
        acc.wrapping_mul(0x1_0000_01B3).wrapping_add(s)
    })
}

/// Allocation cost of merging one store's segments, old path vs new.
///
/// Seeds a throwaway store with several flushed segments per shard, then
/// measures (a) the record round-trip merge compaction ran before the
/// arena rewrite — decode every member segment into owned `(id, BitVec)`
/// records, concatenate, stable-sort by `(popcount, id)`, re-encode —
/// and (b) the arena-native `IndexStore::compact` that replaced it.
/// Both produce byte-identical segments (pinned by the
/// `compaction_identity` test); only the allocation profile differs.
fn measure_merge_allocs(smoke: bool) -> Json {
    let bits = 1000usize;
    let num_shards = 2u32;
    let per_batch = if smoke { 500 } else { 4_000 };
    let batches = 4;
    let dir = std::env::temp_dir().join("pprl-e19-merge-allocs");
    let _ = std::fs::remove_dir_all(&dir);
    let mut store = IndexStore::create(&dir, IndexConfig::new(bits, num_shards)).expect("create");
    let mut rng = SplitMix64::new(0xE19_A110C);
    let mut next_id = 0u64;
    for _ in 0..batches {
        let records: Vec<(u64, BitVec)> = (0..per_batch)
            .map(|i| (next_id + i as u64, random_filter(bits, 0.3, &mut rng)))
            .collect();
        next_id += per_batch as u64;
        store.insert_batch(&records).expect("insert");
        store.flush().expect("flush");
    }
    let total = next_id as f64;

    // (a) the pre-refactor merge, reconstructed from the same on-disk
    // segments the real compaction is about to consume.
    let manifest = Manifest::load(&dir).expect("manifest");
    let (_, old_bytes, old_calls) = count_allocs(|| {
        let mut out_len = 0usize;
        for shard in 0..num_shards {
            let mut merged: Vec<(u64, BitVec)> = Vec::new();
            for entry in manifest.segments.iter().filter(|e| e.shard == shard) {
                let seg = read_segment(&segment_path(&dir, entry.id)).expect("read");
                for rec in seg.records {
                    merged.push((rec.id, rec.filter));
                }
            }
            merged.sort_by_key(|(id, f)| (f.count_ones(), *id));
            let refs: Vec<(u64, &BitVec)> = merged.iter().map(|(id, f)| (*id, f)).collect();
            out_len += encode_segment(shard, bits, &refs).expect("encode").len();
        }
        out_len
    });

    // (b) the arena-native merge the store actually runs.
    let (_, new_bytes, new_calls) = count_allocs(|| store.compact().expect("compact"));
    let _ = std::fs::remove_dir_all(&dir);

    let old_calls_per_rec = old_calls as f64 / total;
    let new_calls_per_rec = new_calls as f64 / total;
    println!(
        "\nCompaction allocations per merged record ({} records):",
        total as u64
    );
    println!(
        "  record round-trip merge: {:>9.1} bytes, {:>6.2} allocator calls",
        old_bytes as f64 / total,
        old_calls_per_rec
    );
    println!(
        "  arena-native merge:      {:>9.1} bytes, {:>6.2} allocator calls",
        new_bytes as f64 / total,
        new_calls_per_rec
    );
    assert!(
        old_calls_per_rec >= 1.0,
        "baseline sanity: the round-trip merge allocates per record, got {old_calls_per_rec:.2}"
    );
    assert!(
        new_calls_per_rec < 0.25,
        "acceptance: arena-native compaction must not allocate per merged record, \
         got {new_calls_per_rec:.2} calls/record"
    );
    Json::Obj(vec![
        ("records".into(), Json::num(total)),
        (
            "old_bytes_per_record".into(),
            Json::Num(old_bytes as f64 / total),
        ),
        ("old_allocs_per_record".into(), Json::Num(old_calls_per_rec)),
        (
            "new_bytes_per_record".into(),
            Json::Num(new_bytes as f64 / total),
        ),
        ("new_allocs_per_record".into(), Json::Num(new_calls_per_rec)),
    ])
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    banner(
        "E19",
        "Columnar scan kernel: flat arenas and batched Dice",
        "the batched arena kernel sustains >=2x the rows/s of the per-record scalar path",
    );
    let (n_records, n_queries, reps) = if smoke {
        (2_000, 8, 2)
    } else {
        (30_000, 48, 3)
    };
    println!("population {n_records}, query batch {n_queries}, best of {reps} reps\n");

    println!(
        "cpu features: {}; dispatched kernel: {}\n",
        cpu_features().join(" "),
        kernel_name()
    );

    let mut table = Table::new(&["bits", "kernel", "time", "rows/s (M)", "speedup"]);
    let mut summary_rows = Vec::new();
    let mut speedup_at_1000 = 0.0f64;
    let mut scalar_batched_rows_at_1000 = 0.0f64;
    let mut dispatched_rows_at_1000 = 0.0f64;

    for bits in [1000usize, 2048] {
        let mut rng = SplitMix64::new(0xE19 + bits as u64);
        let records: Vec<(u64, BitVec)> = (0..n_records)
            .map(|i| (i as u64, random_filter(bits, 0.3, &mut rng)))
            .collect();
        let queries: Vec<BitVec> = (0..n_queries)
            .map(|_| random_filter(bits, 0.3, &mut rng))
            .collect();
        let arena = FilterArena::from_records(records.clone(), bits).expect("arena");
        let stride = arena.stride();
        // The arena is popcount-sorted, so pair the scalar path with the
        // same row order to make the checksums comparable.
        let ordered: Vec<(usize, BitVec)> = (0..arena.len())
            .map(|i| {
                let (_, f) = arena.get(i).expect("row");
                (f.count_ones(), f)
            })
            .collect();
        let comparisons = (arena.len() * queries.len()) as f64;

        // 1. scalar: per-record BitVec dice, popcounts re-derived per call.
        let (scalar_secs, scalar_sum) = run_timed(
            || {
                let mut acc = 0u64;
                for query in &queries {
                    for (_, f) in &ordered {
                        let inter = query.and_count(f);
                        let score = dice_bits(query, f).expect("dice");
                        acc = fold(acc, inter, score);
                    }
                }
                acc
            },
            reps,
        );

        // 2. unrolled: slice kernel over arena rows, popcounts pre-read.
        let (unrolled_secs, unrolled_sum) = run_timed(
            || {
                let mut acc = 0u64;
                for query in &queries {
                    let qw = query.as_words();
                    let q = query.count_ones();
                    for i in 0..arena.len() {
                        let inter = and_count(qw, arena.row(i));
                        let score = dice_from_counts(inter, q, arena.popcount(i) as usize);
                        acc = fold(acc, inter, score);
                    }
                }
                acc
            },
            reps,
        );

        // 3. batched: each 4-row block read once for the whole query
        // batch; tail rows fall back to the unrolled kernel. Fold order
        // must match the scalar loop (query-major), so per-query
        // accumulators merge after the block walk.
        let (batched_secs, batched_sum) = run_timed(
            || {
                let mut per_query = vec![0u64; queries.len()];
                let qmeta: Vec<(&[u64], usize)> = queries
                    .iter()
                    .map(|q| (q.as_words(), q.count_ones()))
                    .collect();
                let full = arena.len() / 4 * 4;
                let mut i = 0;
                while i < full {
                    let block = &arena.words()[i * stride..(i + 4) * stride];
                    for (qi, &(qw, q)) in qmeta.iter().enumerate() {
                        let counts = and_count4(qw, block);
                        for (lane, &inter) in counts.iter().enumerate() {
                            let score =
                                dice_from_counts(inter, q, arena.popcount(i + lane) as usize);
                            per_query[qi] = fold(per_query[qi], inter, score);
                        }
                    }
                    i += 4;
                }
                for row in full..arena.len() {
                    for (qi, &(qw, q)) in qmeta.iter().enumerate() {
                        let inter = and_count(qw, arena.row(row));
                        let score = dice_from_counts(inter, q, arena.popcount(row) as usize);
                        per_query[qi] = fold(per_query[qi], inter, score);
                    }
                }
                per_query.into_iter().fold(0u64, |acc, s| {
                    acc.wrapping_mul(0x1_0000_01B3).wrapping_add(s)
                })
            },
            reps,
        );
        assert_eq!(
            scalar_sum, unrolled_sum,
            "unrolled kernel diverged from scalar at {bits} bits"
        );

        // 4. simd: the identical batched walk forced through every
        // dispatch path this host can run, cross-checked against the
        // dispatching walk's checksum before timing is trusted.
        let mut simd_rows = Vec::new();
        for kernel in available_kernels() {
            let (t, sum) = run_timed(|| batched_walk(&arena, &queries, *kernel), reps);
            assert_eq!(
                sum,
                batched_sum,
                "kernel {} diverged in the batched walk at {bits} bits",
                kernel.name()
            );
            if bits == 1000 {
                if kernel.name() == "scalar" {
                    scalar_batched_rows_at_1000 = comparisons / t;
                }
                if kernel.name() == kernel_name() {
                    dispatched_rows_at_1000 = comparisons / t;
                }
            }
            simd_rows.push((format!("simd:{}", kernel.name()), t));
        }

        for (kernel, t) in [
            ("scalar".to_string(), scalar_secs),
            ("unrolled".to_string(), unrolled_secs),
            ("batched".to_string(), batched_secs),
        ]
        .into_iter()
        .chain(simd_rows)
        {
            let speedup = scalar_secs / t;
            if bits == 1000 && kernel == "batched" {
                speedup_at_1000 = speedup;
            }
            table.row(vec![
                bits.to_string(),
                kernel.clone(),
                secs(t),
                format!("{:.1}", comparisons / t / 1e6),
                format!("{speedup:.2}x"),
            ]);
            summary_rows.push(Json::Obj(vec![
                ("bits".into(), Json::num(bits as f64)),
                ("kernel".into(), Json::str(&kernel)),
                ("rows_per_sec".into(), Json::Num(comparisons / t)),
                ("speedup_vs_scalar".into(), Json::Num(speedup)),
            ]));
        }
    }

    println!("Single-thread full-scan throughput (row comparisons per second):");
    table.print();
    println!("\nAll three kernels produced identical intersection counts and");
    println!("score bits before timing was trusted. The batched walk reads each");
    println!("arena block once per query batch; the scalar path re-derives both");
    println!("popcounts per pair, which is exactly what the arena removes.");
    report::note(format!(
        "batched columnar kernel at 1000 bits: {speedup_at_1000:.2}x scalar throughput"
    ));
    assert!(
        speedup_at_1000 >= 2.0,
        "acceptance: batched kernel must be >=2x scalar at 1000 bits, got {speedup_at_1000:.2}x"
    );
    report::note(format!(
        "dispatched kernel ({}) at 1000 bits: {:.1}M rows/s vs batched scalar {:.1}M rows/s",
        kernel_name(),
        dispatched_rows_at_1000 / 1e6,
        scalar_batched_rows_at_1000 / 1e6
    ));
    assert!(
        dispatched_rows_at_1000 >= scalar_batched_rows_at_1000,
        "acceptance: the dispatched SIMD path must not lose to the batched scalar walk \
         ({:.1}M vs {:.1}M rows/s)",
        dispatched_rows_at_1000 / 1e6,
        scalar_batched_rows_at_1000 / 1e6
    );

    let compaction = measure_merge_allocs(smoke);

    let summary = Json::Obj(vec![
        ("experiment".into(), Json::str("E19")),
        ("records".into(), Json::num(n_records as f64)),
        ("query_batch".into(), Json::num(n_queries as f64)),
        (
            "cpu_features".into(),
            Json::Arr(cpu_features().into_iter().map(Json::str).collect()),
        ),
        ("kernel_active".into(), Json::str(kernel_name())),
        ("rows".into(), Json::Arr(summary_rows)),
        ("compaction".into(), compaction),
    ]);
    let path = report::results_dir()
        .parent()
        .expect("workspace root")
        .join("BENCH_scan.json");
    std::fs::write(&path, summary.render()).expect("write BENCH_scan.json");
    println!("\ntop-level summary: {}", path.display());
    report::save();
}
