//! Generation swaps cost O(new segments).
//!
//! `IndexStore::lazy_reader` hands each new reader the rows every
//! earlier reader of the same store already materialised, keyed by
//! segment id. These tests pin the observable contract: what a
//! successor reader pulls from disk (`ReadStats::bytes_read` /
//! `segments_read` count this reader's IO only; an inherited segment is
//! neither read nor skipped), that old generations keep answering after
//! their files are reclaimed, and that sharing can never serve rows of a
//! segment id no committed manifest named.

use pprl_core::bitvec::BitVec;
use pprl_core::error::PprlError;
use pprl_core::rng::SplitMix64;
use pprl_index::query::{Hit, IndexReader};
use pprl_index::store::{reclaim, IndexConfig, IndexStore, TieredPolicy};
use pprl_index::vfs::{FaultPlan, FaultVfs, Vfs};
use pprl_similarity::bitvec_sim::dice_bits;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const LEN: usize = 256;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pprl-carry-over-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

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

/// Segment file name → size, for the index at `dir`.
fn segment_files(dir: &Path) -> BTreeMap<String, u64> {
    std::fs::read_dir(dir)
        .expect("read_dir")
        .map(|e| e.expect("dir entry"))
        .filter(|e| e.file_name().to_string_lossy().ends_with(".seg"))
        .map(|e| {
            (
                e.file_name().to_string_lossy().into_owned(),
                e.metadata().expect("metadata").len(),
            )
        })
        .collect()
}

#[test]
fn successor_reader_reads_only_the_segments_the_flush_wrote() {
    let dir = temp_dir("flush");
    let mut rng = SplitMix64::new(0xCA77);
    let mut store = IndexStore::create(&dir, IndexConfig::new(LEN, 4)).expect("create");
    let mut corpus = records(0..300, &mut rng);
    store.insert_batch(&corpus[..150]).expect("insert");
    store.flush().expect("flush");
    store.insert_batch(&corpus[150..]).expect("insert");
    store.flush().expect("flush");

    let before = segment_files(&dir);
    let first = store.lazy_reader().expect("first reader");
    first.materialise_all().expect("materialise");
    let stats = first.read_stats();
    assert_eq!(stats.bytes_read, before.values().sum::<u64>());
    assert_eq!(stats.segments_read, before.len());
    assert_eq!(stats.segments_skipped, 0);

    let mut cumulative = stats.bytes_read;
    for round in 0..3u64 {
        let known = segment_files(&dir);
        let extra = records(1000 + 40 * round..1040 + 40 * round, &mut rng);
        store.insert_batch(&extra).expect("insert");
        store.flush().expect("flush");
        corpus.extend(extra);
        let fresh: Vec<u64> = segment_files(&dir)
            .into_iter()
            .filter(|(name, _)| !known.contains_key(name))
            .map(|(_, bytes)| bytes)
            .collect();
        assert!(!fresh.is_empty());

        let next = store.lazy_reader().expect("successor");
        // Inherited segments are resident already: neither read nor
        // skipped. Only the flush's own segments are still on disk.
        let stats = next.read_stats();
        assert_eq!((stats.bytes_read, stats.segments_read), (0, 0));
        assert_eq!(stats.segments_skipped, fresh.len());
        assert_answers(&next, &corpus, "successor after flush");
        next.materialise_all().expect("materialise");
        let stats = next.read_stats();
        assert_eq!(stats.bytes_read, fresh.iter().sum::<u64>());
        assert_eq!(stats.segments_read, fresh.len());
        assert_eq!(stats.segments_skipped, 0);
        cumulative += stats.bytes_read;
    }
    // Four generations read the index once in total, not four times.
    assert_eq!(cumulative, segment_files(&dir).values().sum::<u64>());
    // The first generation saw none of that and still answers its own view.
    assert_eq!(first.read_stats().bytes_read, before.values().sum::<u64>());
    assert_answers(&first, &corpus[..300], "first generation");
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn compaction_successor_reads_only_the_merged_output_and_pinned_readers_survive_reclaim() {
    let dir = temp_dir("compact");
    let mut rng = SplitMix64::new(0xC0DE);
    let mut store = IndexStore::create(&dir, IndexConfig::new(LEN, 2)).expect("create");
    let corpus = records(0..400, &mut rng);
    for batch in corpus.chunks(80) {
        store.insert_batch(batch).expect("insert");
        store.flush().expect("flush");
    }
    let before = segment_files(&dir);
    // Pinned *before* the compaction, fully resident by the time the
    // obsolete files are reclaimed (the serving layer reclaims only once
    // older generations drain; this reader stands for one that has not).
    let pinned = store.lazy_reader().expect("pinned reader");
    let warm = pinned.top_k(&corpus[0].1, 8, 1).expect("warm query");
    pinned.materialise_all().expect("materialise");

    let policy = TieredPolicy {
        min_segments: 2,
        growth: 4,
        min_bytes: 1 << 20, // every segment in tier 0: each shard merges
    };
    let outcome = store.compact_tiered(&policy).expect("compact");
    assert!(!outcome.is_noop());
    let after = segment_files(&dir);
    let merged: Vec<u64> = after
        .iter()
        .filter(|(name, _)| !before.contains_key(*name))
        .map(|(_, &bytes)| bytes)
        .collect();
    assert_eq!(merged.len(), outcome.new_segments);

    let next = store.lazy_reader().expect("successor");
    next.materialise_all().expect("materialise");
    let stats = next.read_stats();
    assert_eq!(stats.bytes_read, merged.iter().sum::<u64>());
    assert_eq!(stats.segments_read, merged.len());
    assert_answers(&next, &corpus, "successor after compaction");

    // The obsolete files go away; the pinned generation holds its rows.
    assert_eq!(
        reclaim(&outcome.obsolete).expect("reclaim"),
        outcome.obsolete.len()
    );
    assert_eq!(
        pinned.top_k(&corpus[0].1, 8, 1).expect("pinned query"),
        warm
    );
    assert_answers(&pinned, &corpus, "pinned generation after reclaim");
    // And a reader built now neither needs nor resurrects them.
    let last = store.lazy_reader().expect("post-reclaim reader");
    assert_eq!(last.read_stats().segments_skipped, 0);
    assert_answers(&last, &corpus, "post-reclaim reader");
    assert_eq!(last.read_stats().bytes_read, 0);
    std::fs::remove_dir_all(&dir).expect("cleanup");
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
        let first = store.lazy_reader().expect("first reader");
        first.materialise_all().expect("materialise");
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
                let between = store.lazy_reader().expect("reader between");
                between.materialise_all().expect("materialise");
                assert_answers(&between, &corpus, "between failure and retry");
                store.insert_batch(&third).expect("insert after the fault");
                corpus.extend(third.iter().cloned());
                store.flush().expect("retry");
            }
            Err(e) => panic!("unexpected error kind at limit {limit}: {e}"),
        }
        let last = store.lazy_reader().expect("reader after retry");
        assert_answers(&last, &corpus, "after the retried flush");
        assert_eq!(last.len(), corpus.len(), "limit {limit}");
        assert_answers(&first, &base, "first generation");
    }
    assert!(
        failed_flushes >= 3,
        "the sweep must hit the flush under test (hit {failed_flushes} times)"
    );
}
