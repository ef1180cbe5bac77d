//! Byte-identity of the arena-native merge with the record round-trip
//! merge it replaced.
//!
//! The old compaction path decoded every member segment into owned
//! `(id, BitVec)` records, concatenated them in manifest order, ran a
//! stable sort by `(popcount, id)`, and re-encoded. The arena-native
//! path k-way-merges popcount-sorted `FilterArena` runs and writes the
//! segment straight from arena rows. This test pins the refactor to the
//! old behaviour at the strongest possible granularity: the merged
//! segment *files* must be byte-for-byte what the old path would have
//! written — same record order (including duplicate `(popcount, id)`
//! keys), same encoding, same checksum. It also checks that every row a
//! flush wrote sits in the segment of the shard it routes to.

use pprl_core::bitvec::BitVec;
use pprl_index::manifest::{segment_path, Manifest};
use pprl_index::segment::encode_segment;
use pprl_index::store::{IndexConfig, IndexStore};
use std::collections::BTreeMap;
use std::path::PathBuf;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pprl-compact-ident-{tag}"));
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

fn random_filter(len: usize, per_mille: u64, state: &mut u64) -> BitVec {
    let mut f = BitVec::zeros(len);
    for i in 0..len {
        if splitmix(state) % 1000 < per_mille {
            f.set(i);
        }
    }
    f
}

/// The shard and the `(id, filter)` records of one segment file, in
/// file order. Parsed here from the documented layout (18-byte header,
/// fixed-stride `elen ‖ id ‖ bits` entries, 8-byte trailer) rather than
/// through the library's decoder, so a decoder bug cannot make both
/// sides of the comparison agree; the trailer is left to the byte
/// comparison and to `segment.rs`'s own tests.
fn read_records(path: &std::path::Path) -> (u32, Vec<(u64, BitVec)>) {
    let bytes = std::fs::read(path).expect("read");
    let u32_at = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
    assert_eq!(&bytes[..4], b"PSG1");
    let (shard, filter_len, count) = (u32_at(6), u32_at(10) as usize, u32_at(14) as usize);
    let stride = 4 + 8 + filter_len.div_ceil(8);
    assert_eq!(bytes.len(), 18 + count * stride + 8, "segment size");
    let records = bytes[18..18 + count * stride]
        .chunks_exact(stride)
        .map(|entry| {
            assert_eq!(entry[..4], ((stride - 4) as u32).to_le_bytes());
            let id = u64::from_le_bytes(entry[4..12].try_into().unwrap());
            (
                id,
                BitVec::from_bytes(&entry[12..], filter_len).expect("filter"),
            )
        })
        .collect();
    (shard, records)
}

/// What the pre-refactor merge produced for one shard: decode every
/// member segment to records, concatenate in manifest order, stable-sort
/// by `(popcount, id)`, re-encode.
fn old_style_merge(dir: &std::path::Path, manifest: &Manifest, shard: u32) -> Vec<u8> {
    let filter_len = manifest.config.filter_len;
    let mut merged: Vec<(u64, BitVec)> = Vec::new();
    for entry in manifest.segments.iter().filter(|e| e.shard == shard) {
        let (seg_shard, records) = read_records(&segment_path(dir, entry.id));
        assert_eq!(seg_shard, shard);
        merged.extend(records);
    }
    merged.sort_by_key(|(id, f)| (f.count_ones(), *id));
    let refs: Vec<(u64, &BitVec)> = merged.iter().map(|(id, f)| (*id, f)).collect();
    encode_segment(shard, filter_len, &refs).expect("encode")
}

#[test]
fn arena_native_compaction_is_byte_identical_to_record_roundtrip_merge() {
    let len = 384;
    let num_shards = 3u32;
    let mut state = 0xC0DAu64;
    let dir = temp_dir("bytes");
    let mut store = IndexStore::create(&dir, IndexConfig::new(len, num_shards)).expect("create");

    // Several flushes so every shard accumulates multiple segments, with
    // skewed densities so popcount ties and duplicate (popcount, id)-ish
    // neighbourhoods actually occur.
    let mut next_id = 0u64;
    for batch in 0..5 {
        let records: Vec<(u64, BitVec)> = (0..40)
            .map(|i| {
                let id = next_id + i;
                // A handful of constant-density rows per batch forces
                // popcount collisions across segments.
                let f = if i % 7 == 0 {
                    let mut f = BitVec::zeros(len);
                    for b in 0..(10 + batch) {
                        f.set(b * 3);
                    }
                    f
                } else {
                    random_filter(len, 80 + 30 * (i % 9), &mut state)
                };
                (id, f)
            })
            .collect();
        next_id += records.len() as u64;
        store.insert_batch(&records).expect("insert");
        store.flush().expect("flush");
    }

    let before = Manifest::load(&dir).expect("manifest before");
    // Every flushed row sits in the segment of the shard it routes to.
    for entry in &before.segments {
        for (_, filter) in read_records(&segment_path(&dir, entry.id)).1 {
            assert_eq!(store.shard_of(&filter).unwrap(), entry.shard);
        }
    }
    let mut expected: BTreeMap<u32, Vec<u8>> = BTreeMap::new();
    for shard in 0..num_shards {
        let members = before.segments.iter().filter(|e| e.shard == shard).count();
        assert!(
            members > 1,
            "shard {shard} needs multiple segments for the merge to be exercised"
        );
        expected.insert(shard, old_style_merge(&dir, &before, shard));
    }

    let reclaimed = store.compact().expect("compact");
    assert!(reclaimed > 0, "compaction must merge something");

    let after = Manifest::load(&dir).expect("manifest after");
    for shard in 0..num_shards {
        let entries: Vec<_> = after.segments.iter().filter(|e| e.shard == shard).collect();
        assert_eq!(
            entries.len(),
            1,
            "shard {shard} must compact to one segment"
        );
        let got = std::fs::read(segment_path(&dir, entries[0].id)).expect("read merged");
        assert_eq!(
            got, expected[&shard],
            "shard {shard}: arena-native merge diverged from the record round-trip merge"
        );
    }
    std::fs::remove_dir_all(&dir).expect("cleanup");
}
