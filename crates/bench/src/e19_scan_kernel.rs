//! E19 — columnar scan kernel throughput (§5.1 "volume"): the flat
//! filter-arena layout plus the unrolled and batched Dice kernels are
//! what make exhaustive exact top-k scans affordable at population
//! scale.
//!
//! Compares three single-thread implementations of the same workload —
//! score every (query, record) pair over an indexed population — and
//! checks they agree before trusting the clock:
//!
//! 1. `scalar`: the per-record path the index used before the arena —
//!    one `dice_bits(query, filter)` per heap-allocated `BitVec`, which
//!    re-derives both popcounts on every call.
//! 2. `unrolled`: the 4-accumulator `and_count` slice kernel over arena
//!    rows, with popcounts read from the arena's side array.
//! 3. `batched`: a multi-probe arena walk — each 4-row block is loaded
//!    once and scored against the whole query batch with `and_count4`,
//!    so arena words are read once per batch instead of once per query.
//!    It times raw counting; the index's query engine walks the same
//!    arena in tiles through `Kernel::scan_ge` and its `need` bound
//!    (see `pprl_index::query`).
//!
//! The `simd:*` rows force the batched walk through every kernel this
//! host can run (`scalar`, `popcnt`-only `portable`, `avx2`, `avx512`),
//! each checked against the dispatched walk before timing: runtime
//! detection must never cost throughput.

use crate::{secs, timed, Cell, Claim, Report, Size, Table};
use pprl_core::bitvec::BitVec;
use pprl_core::rng::SplitMix64;
use pprl_index::arena::FilterArena;
use pprl_similarity::bitvec_sim::dice_bits;
use pprl_similarity::kernel::{
    active_kernel, and_count, available_kernels, cpu_features, dice_from_counts, kernel_name,
    Kernel,
};

const AGREE: &str = "every path agrees with its reference checksum";
const DISPATCHED: &str = "dispatched kernel";

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

/// Best of `reps` timed passes, and the checksum every pass agreed on.
fn run_timed(f: impl Fn() -> u64, reps: usize) -> (f64, u64) {
    let mut best = f64::INFINITY;
    let mut checksum = None;
    for _ in 0..reps {
        let (sum, elapsed) = timed(&f);
        assert_eq!(
            *checksum.get_or_insert(sum),
            sum,
            "kernel not deterministic"
        );
        best = best.min(elapsed);
    }
    (best, checksum.expect("at least one rep"))
}

/// Folds intersections and score bits together so the optimiser cannot
/// drop the work and any divergence between kernels shows.
fn fold(acc: u64, inter: usize, score: f64) -> u64 {
    acc.wrapping_mul(0x100_0000_01B3)
        .wrapping_add(inter as u64)
        .wrapping_add(score.to_bits() >> 17)
}

/// The batched arena walk through one kernel path: each 4-row block read
/// once for the whole query batch, tail rows one at a time, per-query
/// accumulators merged after the walk.
fn batched_walk(arena: &FilterArena, queries: &[BitVec], kernel: Kernel) -> u64 {
    let stride = arena.stride();
    let mut per_query = vec![0u64; queries.len()];
    let qmeta: Vec<(&[u64], usize)> = queries
        .iter()
        .map(|q| (q.as_words(), q.count_ones()))
        .collect();
    let full = arena.len() / 4 * 4;
    for i in (0..full).step_by(4) {
        let block = &arena.words()[i * stride..(i + 4) * stride];
        for (acc, &(qw, q)) in per_query.iter_mut().zip(&qmeta) {
            for (lane, &inter) in kernel.and_count4(qw, block).iter().enumerate() {
                let score = dice_from_counts(inter, q, arena.popcount(i + lane) as usize);
                *acc = fold(*acc, inter, score);
            }
        }
    }
    for row in full..arena.len() {
        for (acc, &(qw, q)) in per_query.iter_mut().zip(&qmeta) {
            let inter = kernel.and_count(qw, arena.row(row));
            let score = dice_from_counts(inter, q, arena.popcount(row) as usize);
            *acc = fold(*acc, inter, score);
        }
    }
    per_query.into_iter().fold(0u64, |acc, s| {
        acc.wrapping_mul(0x1_0000_01B3).wrapping_add(s)
    })
}

/// Single-thread full-scan throughput per filter length and path.
pub fn run(size: Size) -> Report {
    let (n_records, n_queries, reps) = size.pick((2_000, 8, 2), (30_000, 48, 3));
    let mut t = Table::new(
        format!(
            "Single-thread full-scan throughput (row comparisons per second; \
             population {n_records}, query batch {n_queries}, best of {reps} reps):"
        ),
        &["bits", "kernel", "time", "rows/s (M)", "speedup"],
    );
    let mut agree = true;
    for bits in [1000usize, 2048] {
        let mut rng = SplitMix64::new(0xE19 + bits as u64);
        let records: Vec<(u64, BitVec)> = (0..n_records)
            .map(|i| (i as u64, random_filter(bits, 0.3, &mut rng)))
            .collect();
        let queries: Vec<BitVec> = (0..n_queries)
            .map(|_| random_filter(bits, 0.3, &mut rng))
            .collect();
        let arena = FilterArena::from_records(records, bits).expect("arena");
        // The arena is popcount-sorted, so pair the scalar path with the
        // same row order to make the checksums comparable.
        let ordered: Vec<BitVec> = (0..arena.len())
            .map(|i| arena.get(i).expect("row").1)
            .collect();
        let comparisons = (arena.len() * queries.len()) as f64;

        // 1. scalar: per-record BitVec dice, popcounts re-derived per call.
        let (scalar_secs, scalar_sum) = run_timed(
            || {
                let mut acc = 0u64;
                for query in &queries {
                    for f in &ordered {
                        acc = fold(acc, query.and_count(f), dice_bits(query, f).expect("dice"));
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
                    let (qw, q) = (query.as_words(), query.count_ones());
                    for i in 0..arena.len() {
                        let inter = and_count(qw, arena.row(i));
                        acc = fold(
                            acc,
                            inter,
                            dice_from_counts(inter, q, arena.popcount(i) as usize),
                        );
                    }
                }
                acc
            },
            reps,
        );
        // 3. batched through the dispatched kernel, then 4. through every
        // path this host can run.
        let (batched_secs, batched_sum) =
            run_timed(|| batched_walk(&arena, &queries, active_kernel()), reps);
        agree &= scalar_sum == unrolled_sum;
        let mut rows = vec![
            ("scalar".to_string(), scalar_secs),
            ("unrolled".to_string(), unrolled_secs),
            ("batched".to_string(), batched_secs),
        ];
        for kernel in available_kernels() {
            let (time, sum) = run_timed(|| batched_walk(&arena, &queries, *kernel), reps);
            agree &= sum == batched_sum;
            rows.push((format!("simd:{}", kernel.name()), time));
        }
        for (kernel, time) in rows {
            let rate = comparisons / time / 1e6;
            let speedup = scalar_secs / time;
            t.row(vec![
                bits.into(),
                kernel.into(),
                secs(time),
                Cell::num(rate, format!("{rate:.1}")),
                Cell::num(speedup, format!("{speedup:.2}x")),
            ]);
        }
    }
    let mut r = Report::default();
    r.table(t);
    r.fact(AGREE, Cell::flag(agree));
    r.fact("cpu features", cpu_features().join(" ").into());
    r.fact(DISPATCHED, kernel_name().into());
    r
}

/// The arena's batched walk pays for itself, and dispatch never loses to
/// the scalar kernel.
pub fn claims(r: &Report) -> Vec<Claim> {
    let t = &r.tables[0];
    // At 1000 bits, by kernel label.
    let at_1000 = |kernel: &str, header: &str| {
        (0..t.rows().len())
            .find(|&i| t.cell(i, "bits").value() == 1000.0 && t.cell(i, "kernel").text() == kernel)
            .map_or(f64::NAN, |i| t.cell(i, header).value())
    };
    let dispatched = r.get(DISPATCHED).map_or("", Cell::text);
    vec![
        Claim::check(
            "scalar and unrolled paths agree, and every dispatch path agrees with the batched walk",
            r.value(AGREE) == 1.0,
        ),
        Claim::timing(
            "at 1000 bits the batched walk scans >= 2x the rows/s of the per-record scalar path",
            at_1000("batched", "speedup") >= 2.0,
        ),
        Claim::timing(
            "at 1000 bits the dispatched kernel scans >= the rows/s of the batched walk forced to scalar",
            at_1000(&format!("simd:{dispatched}"), "rows/s (M)")
                >= at_1000("simd:scalar", "rows/s (M)"),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(agree: bool, batched_speedup: f64, dispatched_rate: f64) -> Report {
        let mut t = Table::new("", &["bits", "kernel", "rows/s (M)", "speedup"]);
        for (kernel, rate, speedup) in [
            ("scalar", 16.0, 1.0),
            ("batched", 60.0, batched_speedup),
            ("simd:scalar", 27.0, 1.7),
            ("simd:avx512", dispatched_rate, 6.0),
        ] {
            let cells = vec![1000usize.into(), kernel.into()];
            t.row([cells, vec![Cell::num(rate, ""), Cell::num(speedup, "")]].concat());
        }
        let mut r = Report::default();
        r.table(t);
        r.fact(AGREE, Cell::flag(agree));
        r.fact(DISPATCHED, "avx512".into());
        r
    }

    #[test]
    fn diverging_paths_or_slow_dispatch_fail() {
        assert!(claims(&report(true, 3.5, 98.0)).iter().all(|c| c.pass));
        assert!(!claims(&report(false, 3.5, 98.0))[0].pass);
        assert!(!claims(&report(true, 1.5, 98.0))[1].pass);
        assert!(!claims(&report(true, 3.5, 20.0))[2].pass);
    }
}
