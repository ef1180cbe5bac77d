//! Cross-path equivalence of the columnar scan kernel.
//!
//! The correctness bar for the arena rewrite is *bit-for-bit* agreement
//! with the scalar `BitVec` path at every layer:
//!
//! 1. The flat-slice kernels (`and_count`, `and_count4`, `scan_ge`,
//!    `dice_from_counts`) must reproduce `BitVec::and_count` /
//!    `dice_bits` exactly, including all-zero and all-one edges and
//!    lengths that straddle word boundaries.
//! 2. A lazy [`IndexReader`] over segment files, the eager store
//!    reader, and a brute-force scan must return identical `(id,
//!    score)` hit lists for the same queries.
//! 3. Band-key summary pruning is an *optimisation only*: an index
//!    built with summaries enabled must answer every query — at every
//!    `min_score` — identically to one built with summaries disabled.
//! 4. The one scan loop behind `top_k`, `top_k_planned` and
//!    `top_k_batch` must stay bit-identical to the brute-force oracle
//!    across `k`, thread counts, `min_score`, tiny and multi-tile slots,
//!    and runs of equal-score rows whose ids decide the ranking.
//!
//! The root `tests/scan_equivalence.rs` includes this file, so the
//! tier-1 `cargo test -q` runs it too.

use pprl_core::bitvec::BitVec;
use pprl_index::arena::FilterArena;
use pprl_index::query::{Hit, IndexReader};
use pprl_index::store::{IndexConfig, IndexStore};
use pprl_index::summary::SummaryConfig;
use pprl_similarity::bitvec_sim::dice_bits;
use pprl_similarity::kernel::{
    and_count, and_count4, available_kernels, dice_from_counts, kernel_name,
    requested_is_supported, requested_kernel,
};
use std::path::PathBuf;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pprl-kernel-eq-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Random filter with roughly `per_mille`/1000 of its bits set.
fn random_filter(len: usize, per_mille: u64, state: &mut u64) -> BitVec {
    let mut f = BitVec::zeros(len);
    for i in 0..len {
        if splitmix(state) % 1000 < per_mille {
            f.set(i);
        }
    }
    f
}

#[test]
fn slice_kernels_match_bitvec_ops_bit_for_bit() {
    let mut state = 0xA11CEu64;
    for len in [1usize, 7, 63, 64, 65, 127, 128, 1000, 1024, 2048] {
        let mut cases = vec![
            (BitVec::zeros(len), BitVec::zeros(len)),
            (BitVec::ones(len), BitVec::ones(len)),
            (BitVec::zeros(len), BitVec::ones(len)),
        ];
        for fill in [50, 300, 900] {
            cases.push((
                random_filter(len, fill, &mut state),
                random_filter(len, fill, &mut state),
            ));
        }
        for (a, b) in &cases {
            let inter = and_count(a.as_words(), b.as_words());
            assert_eq!(inter, a.and_count(b), "and_count at len {len}");
            let fast = dice_from_counts(inter, a.count_ones(), b.count_ones());
            let exact = dice_bits(a, b).expect("dice");
            assert!(
                fast == exact,
                "dice mismatch at len {len}: {fast} vs {exact}"
            );
        }
    }
}

/// Every dispatch path this host can run — not just the active one —
/// must agree with the `BitVec` oracle bit for bit, across filter
/// lengths whose word counts leave 0–3 trailing words after any SIMD
/// block width (1, 2, 3, 5, 7, 8, 9 ... words).
#[test]
fn every_dispatch_path_matches_the_bitvec_oracle() {
    let mut state = 0xD15Au64;
    let lens = [
        1usize, 63, 64, 65, 127, 129, 191, 193, 255, 257, 319, 321, 447, 449, 511, 513, 575, 1000,
        1001,
    ];
    for kernel in available_kernels() {
        for &len in &lens {
            let mut cases = vec![
                (BitVec::zeros(len), BitVec::zeros(len)),
                (BitVec::ones(len), BitVec::ones(len)),
                (BitVec::zeros(len), BitVec::ones(len)),
            ];
            for fill in [30, 250, 700, 970] {
                cases.push((
                    random_filter(len, fill, &mut state),
                    random_filter(len, fill, &mut state),
                ));
            }
            for (a, b) in &cases {
                assert_eq!(
                    kernel.and_count(a.as_words(), b.as_words()),
                    a.and_count(b),
                    "kernel {} at len {len}",
                    kernel.name()
                );
            }
            // Batched lanes over a 4-row block, against the same oracle.
            let query = random_filter(len, 400, &mut state);
            let rows: Vec<BitVec> = (0..4)
                .map(|i| random_filter(len, 150 + 200 * i, &mut state))
                .collect();
            let mut block = Vec::new();
            for row in &rows {
                block.extend_from_slice(row.as_words());
            }
            let counts = kernel.and_count4(query.as_words(), &block);
            for (lane, row) in rows.iter().enumerate() {
                assert_eq!(
                    counts[lane],
                    query.and_count(row),
                    "kernel {} lane {lane} at len {len}",
                    kernel.name()
                );
            }
        }
    }
}

/// When CI (or an operator) forces a path with `PPRL_KERNEL`, the
/// dispatcher must actually honour it: the active kernel is the
/// requested one whenever this host can run it, and always one of the
/// advertised paths. Run under each forced value by the CI matrix.
#[test]
fn forced_kernel_env_is_honored() {
    let names: Vec<&str> = available_kernels().iter().map(|k| k.name()).collect();
    assert!(
        names.contains(&kernel_name()),
        "active kernel {} not among available {names:?}",
        kernel_name()
    );
    match requested_kernel() {
        Some(req) if req != "auto" && names.contains(&req) => {
            assert_eq!(
                kernel_name(),
                req,
                "PPRL_KERNEL={req} is runnable here but was not dispatched"
            );
            assert!(requested_is_supported());
        }
        Some(_) | None => {
            // Unset, `auto`, or unsupported: best available wins.
            assert_eq!(
                kernel_name(),
                *names.last().expect("scalar always available"),
                "default dispatch must pick the best available path"
            );
        }
    }
}

#[test]
fn batched_kernel_matches_scalar_over_arena_blocks() {
    let mut state = 0xB10Cu64;
    for len in [64usize, 500, 1000, 2048] {
        let records: Vec<(u64, BitVec)> = (0..37)
            .map(|i| (i, random_filter(len, 100 + 20 * (i % 11), &mut state)))
            .collect();
        let arena = FilterArena::from_records(records, len).expect("arena");
        let stride = arena.stride();
        let query = random_filter(len, 250, &mut state);
        let q = query.as_words();
        let mut i = 0;
        while i + 4 <= arena.len() {
            let block = &arena.words()[i * stride..(i + 4) * stride];
            let counts = and_count4(q, block);
            for (lane, &count) in counts.iter().enumerate() {
                assert_eq!(
                    count,
                    and_count(q, arena.row(i + lane)),
                    "lane {lane} of block at row {i}, len {len}"
                );
            }
            i += 4;
        }
        // Every row, tail rows included, against the original BitVec
        // (arena rows round-trip exactly).
        for row in 0..arena.len() {
            let (_, filter) = arena.get(row).expect("row");
            assert_eq!(
                and_count(q, arena.row(row)),
                query.and_count(&filter),
                "row {row} at len {len}"
            );
        }
    }
}

/// `scan_ge` over real arena tiles: on every dispatch path, exactly the
/// rows whose `and_count` reaches `need`, in row order with that count —
/// for strides around both vector widths, tiles whose row count leaves
/// every step-size remainder (including the empty tile), and `need`
/// from "everything" to "nothing".
#[test]
fn scan_ge_reports_exactly_the_rows_reaching_need_on_every_path() {
    let mut state = 0x5CA9u64;
    for len in [1usize, 64, 65, 450, 960, 1000, 1030, 2048] {
        for n in (0..=19u64).chain([40]) {
            let records: Vec<(u64, BitVec)> = (0..n)
                .map(|i| (i, random_filter(len, 200 + 40 * (i % 9), &mut state)))
                .collect();
            let arena = FilterArena::from_records(records, len).expect("arena");
            let query = random_filter(len, 400, &mut state);
            let counts: Vec<usize> = (0..arena.len())
                .map(|row| query.and_count(&arena.get(row).expect("row").1))
                .collect();
            let max = counts.iter().copied().max().unwrap_or(0);
            let mid = counts.get(counts.len() / 2).copied().unwrap_or(0);
            for need in [0, 1, mid, max, max + 1] {
                let want: Vec<(u32, u32)> = counts
                    .iter()
                    .enumerate()
                    .filter(|(_, &c)| c >= need)
                    .map(|(row, &c)| (row as u32, c as u32))
                    .collect();
                for kernel in available_kernels() {
                    let mut got = Vec::new();
                    kernel.scan_ge(query.as_words(), arena.words(), need, &mut got);
                    assert_eq!(
                        got,
                        want,
                        "kernel {} len {len} rows {n} need {need}",
                        kernel.name()
                    );
                }
            }
        }
    }
}

/// Fisher–Yates with the file's splitmix.
fn shuffle<T>(items: &mut [T], state: &mut u64) {
    for i in (1..items.len()).rev() {
        items.swap(i, (splitmix(state) % (i as u64 + 1)) as usize);
    }
}

/// The whole query surface against the brute-force oracle on a reader
/// built to stress the tile/`need` scan: slots of 0–9 rows (no full
/// kernel step), slots of several tiles plus a ragged tail, and three
/// filters stored many times over under shuffled ids, so long runs of
/// rows tie — at 1.0 for member probes — and only the id order decides
/// which of them place.
#[test]
fn scan_paths_match_the_oracle_across_k_threads_min_score_and_slot_shapes() {
    let len = 1000; // the benchmark's CLK length: 16-word stride
    let mut state = 0x71E5u64;
    let twins: Vec<BitVec> = (0..3)
        .map(|i| random_filter(len, 380 + 30 * i, &mut state))
        .collect();
    let mut filters: Vec<BitVec> = Vec::new();
    for twin in &twins {
        filters.extend(std::iter::repeat_n(twin.clone(), 45));
    }
    for i in 0..520u64 {
        filters.push(random_filter(len, 330 + 15 * (i % 12), &mut state));
    }
    // Near-duplicates, so 0.8 keeps some hits and drops others.
    for i in 0..60 {
        let mut near = filters[135 + 7 * i].clone();
        for _ in 0..(10 + 12 * (i % 9)) {
            near.flip((splitmix(&mut state) % len as u64) as usize);
        }
        filters.push(near);
    }
    filters.push(BitVec::zeros(len));
    filters.push(BitVec::zeros(len));
    filters.push(BitVec::ones(len));
    let mut ids: Vec<u64> = (0..filters.len() as u64).map(|i| 3 * i + 1).collect();
    shuffle(&mut ids, &mut state);
    let mut records: Vec<(u64, BitVec)> = ids.into_iter().zip(filters).collect();
    shuffle(&mut records, &mut state);

    // Slots of 0..=9 rows, then two multi-tile slots with ragged ends.
    let mut shards: Vec<Vec<(u64, BitVec)>> = Vec::new();
    let mut rest = records.as_slice();
    for size in 0..=9usize {
        let (head, tail) = rest.split_at(size);
        shards.push(head.to_vec());
        rest = tail;
    }
    let (head, tail) = rest.split_at(301);
    shards.push(head.to_vec());
    shards.push(tail.to_vec());
    let reader = IndexReader::new(shards, len).expect("reader");
    assert_eq!(reader.len(), records.len());

    let mut queries: Vec<BitVec> = twins.clone();
    queries.push(BitVec::zeros(len));
    queries.push(BitVec::ones(len));
    for (_, f) in records.iter().step_by(97) {
        let mut probe = f.clone();
        for _ in 0..50 {
            probe.flip((splitmix(&mut state) % len as u64) as usize);
        }
        queries.push(probe);
    }
    queries.push(random_filter(len, 414, &mut state));
    let refs: Vec<&BitVec> = queries.iter().collect();

    let scanned_before = reader.read_stats().rows_scanned;
    for k in [1usize, 10, records.len() + 5] {
        for threads in [1usize, 3] {
            for min_score in [None, Some(0.0), Some(0.8), Some(1.0)] {
                let batch = reader
                    .top_k_batch(&refs, k, threads, min_score)
                    .expect("batch");
                for (qi, query) in queries.iter().enumerate() {
                    assert_eq!(
                        batch[qi],
                        brute_force(&records, query, k, min_score.unwrap_or(0.0)),
                        "batch k={k} threads={threads} ms={min_score:?} query={qi}"
                    );
                }
            }
            for (qi, query) in queries.iter().enumerate() {
                let expect = brute_force(&records, query, k, 0.0);
                let single = reader.top_k(query, k, threads).expect("top_k");
                assert_eq!(single, expect, "top_k k={k} threads={threads} query={qi}");
                let mut plan = reader.popcount_scan_order(query.count_ones());
                for _ in 0..2 {
                    let planned = reader
                        .top_k_planned(query, k, threads, &plan)
                        .expect("planned");
                    assert_eq!(
                        planned, expect,
                        "planned k={k} threads={threads} query={qi}"
                    );
                    plan.reverse();
                }
            }
        }
    }
    let stats = reader.read_stats();
    assert!(stats.rows_scanned > scanned_before);
    assert!(stats.rows_scored <= stats.rows_scanned);
}

/// A 1000-bit filter of ~37.5 % density (`a & (b | c)` per word), built
/// word-wise so the large fixtures below stay cheap in debug builds.
fn dense_filter(state: &mut u64) -> BitVec {
    let mut words: Vec<u64> = (0..16)
        .map(|_| splitmix(state) & (splitmix(state) | splitmix(state)))
        .collect();
    words[15] &= (1 << (1000 - 15 * 64)) - 1;
    BitVec::from_words(words, 1000).expect("tail bits masked")
}

/// A 32-probe batch over 34k rows is past the helper admission
/// threshold (~1M (row, probe) pairs), so at `threads > 1` the call is
/// cut into tasks that helpers claim whenever this process has an idle
/// core. Every entry point, thread cap and `min_score` must still equal
/// the oracle — including 700-row runs of equal-score twins under
/// shuffled ids, whose id order decides placement across tasks.
#[test]
fn scans_large_enough_for_helpers_match_the_oracle() {
    let mut state = 0x4E1Fu64;
    let twins: Vec<BitVec> = (0..3).map(|_| dense_filter(&mut state)).collect();
    let mut filters: Vec<BitVec> = Vec::new();
    for twin in &twins {
        filters.extend(std::iter::repeat_n(twin.clone(), 700));
    }
    while filters.len() < 34_000 {
        filters.push(dense_filter(&mut state));
    }
    let mut ids: Vec<u64> = (0..filters.len() as u64).map(|i| 5 * i + 2).collect();
    shuffle(&mut ids, &mut state);
    let mut records: Vec<(u64, BitVec)> = ids.into_iter().zip(filters).collect();
    shuffle(&mut records, &mut state);
    let mut shards: Vec<Vec<(u64, BitVec)>> = Vec::new();
    let mut rest = records.as_slice();
    for size in [3_001, 9_000, 12_345, 7_000] {
        let (head, tail) = rest.split_at(size);
        shards.push(head.to_vec());
        rest = tail;
    }
    shards.push(rest.to_vec());
    let reader = IndexReader::new(shards, 1000).expect("reader");

    // Twins, near-duplicates (so 0.8 keeps some hits), and strangers.
    let mut probes: Vec<BitVec> = twins.clone();
    for (i, (_, f)) in records.iter().step_by(1_601).take(21).enumerate() {
        let mut probe = f.clone();
        for _ in 0..(20 + 8 * i) {
            probe.flip((splitmix(&mut state) % 1000) as usize);
        }
        probes.push(probe);
    }
    while probes.len() < 32 {
        probes.push(dense_filter(&mut state));
    }
    let refs: Vec<&BitVec> = probes.iter().collect();
    // The `dice_bits` oracle's top 10 by selection, not a full sort.
    let rank = |a: &Hit, b: &Hit| b.score.total_cmp(&a.score).then(a.id.cmp(&b.id));
    let top10: Vec<Vec<Hit>> = probes
        .iter()
        .map(|p| {
            let mut hits: Vec<Hit> = records
                .iter()
                .map(|(id, f)| Hit {
                    id: *id,
                    score: dice_bits(p, f).expect("dice"),
                })
                .collect();
            hits.select_nth_unstable_by(9, rank);
            hits.truncate(10);
            hits.sort_by(rank);
            hits
        })
        .collect();

    for threads in [1usize, 4] {
        for min_score in [None, Some(0.8)] {
            let batch = reader
                .top_k_batch(&refs, 10, threads, min_score)
                .expect("batch");
            for (qi, want) in top10.iter().enumerate() {
                let mut want = want.clone();
                want.retain(|h| h.score >= min_score.unwrap_or(0.0));
                assert_eq!(
                    batch[qi], want,
                    "batch threads={threads} ms={min_score:?} probe={qi}"
                );
            }
        }
    }
    for (qi, probe) in probes.iter().enumerate().step_by(4) {
        let plan = reader.popcount_scan_order(probe.count_ones());
        for threads in [1usize, 4] {
            assert_eq!(reader.top_k(probe, 10, threads).expect("top_k"), top10[qi]);
            let planned = reader.top_k_planned(probe, 10, threads, &plan);
            assert_eq!(planned.expect("planned"), top10[qi], "probe={qi}");
        }
    }
}

/// The wasted-work ratio on the data the scan is built for: real person
/// CLKs (1000 bits, ~41 % dense, every third record a corrupted
/// duplicate), probes with ~5 % of their bits flipped, `Link` at 0.8.
/// Every row is AND-popcounted, but only rows that can place are scored:
/// `rows_scored` covers every true ≥ 0.8 pair and stays under 2 % of
/// `rows_scanned`.
#[test]
fn link_at_0_8_scores_under_two_percent_of_the_clk_rows_it_scans() {
    use pprl_core::record::{Dataset, Record};
    use pprl_core::schema::Schema;
    use pprl_datagen::generator::{Generator, GeneratorConfig};
    use pprl_encoding::encoder::{RecordEncoder, RecordEncoderConfig};

    let n = 3000usize;
    let mut generator = Generator::new(GeneratorConfig {
        seed: 7,
        corruption_rate: 0.3,
        ..GeneratorConfig::default()
    })
    .expect("generator");
    let mut people: Vec<Record> = Vec::with_capacity(n);
    for j in 0..n {
        let record = if j % 3 == 2 {
            generator.corrupt_record(&people[j / 3])
        } else {
            generator.entity(j as u64)
        };
        people.push(record);
    }
    let dataset = Dataset::from_records(Schema::person(), people).expect("dataset");
    let encoder = RecordEncoder::new(RecordEncoderConfig::person_clk(b"k"), dataset.schema())
        .expect("encoder");
    let encoded = encoder.encode_dataset(&dataset).expect("encode");
    let records: Vec<(u64, BitVec)> = encoded
        .records
        .iter()
        .enumerate()
        .map(|(i, r)| (i as u64, r.try_clk().expect("CLK").clone()))
        .collect();
    let len = records[0].1.len();
    let mut shards = vec![Vec::new(); 8];
    for (i, record) in records.iter().enumerate() {
        shards[i % 8].push(record.clone());
    }
    let reader = IndexReader::new(shards, len).expect("reader");

    let mut state = 0x11CCu64;
    let probes: Vec<BitVec> = (0..32)
        .map(|i| {
            let mut probe = records[(i * 97) % n].1.clone();
            for pos in 0..len {
                if splitmix(&mut state).is_multiple_of(20) {
                    probe.flip(pos);
                }
            }
            probe
        })
        .collect();
    let refs: Vec<&BitVec> = probes.iter().collect();
    // k beyond the corpus: the threshold stays at min_score throughout.
    let hits = reader
        .top_k_batch(&refs, n + 1, 1, Some(0.8))
        .expect("link");
    let qualifying: usize = hits.iter().map(Vec::len).sum();
    for (probe, got) in probes.iter().zip(&hits) {
        assert_eq!(got, &brute_force(&records, probe, n + 1, 0.8));
    }
    let stats = reader.read_stats();
    assert!(qualifying >= probes.len(), "every probe finds its source");
    assert!(stats.rows_scanned <= (probes.len() * n) as u64);
    assert!(stats.rows_scanned >= (probes.len() * n) as u64 / 2);
    assert!(stats.rows_scored >= qualifying as u64);
    assert!(
        stats.rows_scored * 50 < stats.rows_scanned,
        "scored {} of {} scanned rows",
        stats.rows_scored,
        stats.rows_scanned
    );
}

/// Builds a store at `dir` from `records`, flushing in two batches so the
/// reader sees multiple segment files per shard.
fn build_store(
    dir: &std::path::Path,
    config: IndexConfig,
    records: &[(u64, BitVec)],
) -> IndexStore {
    let mut store = IndexStore::create(dir, config).expect("create");
    let mid = records.len() / 2;
    store.insert_batch(&records[..mid]).expect("insert");
    store.flush().expect("flush");
    store.insert_batch(&records[mid..]).expect("insert");
    store.flush().expect("flush");
    store
}

fn brute_force(records: &[(u64, BitVec)], query: &BitVec, k: usize, min_score: f64) -> Vec<Hit> {
    let mut hits: Vec<Hit> = records
        .iter()
        .map(|(id, f)| Hit {
            id: *id,
            score: dice_bits(query, f).expect("dice"),
        })
        .collect();
    hits.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.id.cmp(&b.id)));
    hits.truncate(k);
    hits.retain(|h| h.score >= min_score);
    hits
}

#[test]
fn lazy_reader_eager_reader_and_brute_force_agree() {
    let len = 256; // long enough that summaries are enabled by default
    let mut state = 0x5EEDu64;
    let records: Vec<(u64, BitVec)> = (0..180)
        .map(|i| (i, random_filter(len, 60 + 10 * (i % 30), &mut state)))
        .collect();
    let dir = temp_dir("agree");
    let store = build_store(&dir, IndexConfig::new(len, 4), &records);
    let eager = store.reader().expect("eager");
    let lazy = store.lazy_reader().expect("lazy");

    // Queries: members, perturbed members, and foreign filters (likely
    // full summary misses).
    let mut queries: Vec<BitVec> = records.iter().step_by(23).map(|(_, f)| f.clone()).collect();
    for (_, f) in records.iter().step_by(31) {
        let mut p = f.clone();
        for _ in 0..8 {
            p.flip((splitmix(&mut state) % len as u64) as usize);
        }
        queries.push(p);
    }
    for _ in 0..4 {
        queries.push(random_filter(len, 80, &mut state));
    }

    for query in &queries {
        for k in [1usize, 7, 50, 400] {
            let expect = brute_force(&records, query, k, 0.0);
            for threads in [1usize, 3] {
                let e = eager.top_k(query, k, threads).expect("eager top_k");
                let l = lazy.top_k(query, k, threads).expect("lazy top_k");
                assert_eq!(e, expect, "eager k={k} threads={threads}");
                assert_eq!(l, expect, "lazy k={k} threads={threads}");
            }
        }
    }

    // One batched columnar scan over all queries must equal the
    // per-query answers exactly.
    let refs: Vec<&BitVec> = queries.iter().collect();
    let batch = lazy.top_k_batch(&refs, 9, 2, None).expect("batch");
    for (qi, query) in queries.iter().enumerate() {
        assert_eq!(
            batch[qi],
            brute_force(&records, query, 9, 0.0),
            "query {qi}"
        );
    }
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn summary_pruning_never_drops_a_true_hit() {
    let len = 512;
    let mut state = 0xFACEu64;
    let records: Vec<(u64, BitVec)> = (0..150)
        .map(|i| (i, random_filter(len, 50 + 15 * (i % 12), &mut state)))
        .collect();
    let with = IndexConfig::new(len, 3);
    assert!(
        with.summary.enabled(),
        "default config must enable summaries at {len} bits"
    );
    let without = IndexConfig {
        summary: SummaryConfig::DISABLED,
        ..with
    };
    let dir_on = temp_dir("sum-on");
    let dir_off = temp_dir("sum-off");
    let pruned = build_store(&dir_on, with, &records)
        .lazy_reader()
        .expect("pruned reader");
    let plain = build_store(&dir_off, without, &records)
        .lazy_reader()
        .expect("plain reader");

    let mut queries: Vec<BitVec> = records.iter().step_by(17).map(|(_, f)| f.clone()).collect();
    for _ in 0..6 {
        // Foreign probes: most segments are all-tables Bloom misses, the
        // case where content pruning actually fires.
        queries.push(random_filter(len, 70, &mut state));
    }
    let refs: Vec<&BitVec> = queries.iter().collect();
    for min_score in [0.0, 0.5, 0.8, 0.95] {
        let a = pruned
            .top_k_batch(&refs, 12, 2, Some(min_score))
            .expect("pruned batch");
        let b = plain
            .top_k_batch(&refs, 12, 2, Some(min_score))
            .expect("plain batch");
        assert_eq!(a, b, "summary pruning changed results at ms={min_score}");
        for (qi, query) in queries.iter().enumerate() {
            assert_eq!(
                a[qi],
                brute_force(&records, query, 12, min_score),
                "query {qi} at ms={min_score}"
            );
        }
    }
    std::fs::remove_dir_all(&dir_on).expect("cleanup");
    std::fs::remove_dir_all(&dir_off).expect("cleanup");
}
