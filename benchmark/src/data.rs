//! Seeded inputs: person records, their CLK encodings and probe filters.
//! The same seed always gives the same inputs; nothing is read from disk.

use pprl_core::bitvec::BitVec;
use pprl_core::record::{Dataset, Record};
use pprl_core::rng::SplitMix64;
use pprl_core::schema::Schema;
use pprl_datagen::generator::{Generator, GeneratorConfig};
use pprl_encoding::encoder::{RecordEncoder, RecordEncoderConfig};

/// The key both "parties" share; any fixed value does.
pub const SHARED_KEY: &[u8] = b"pprl-benchmark";

/// Threads the benchmark may use for set-up work and load generation.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// `n` GeCo-style person records, every third a corrupted duplicate of
/// an earlier one (record `j` with `j % 3 == 2` duplicates record
/// `j / 3`), so the corpus holds realistic near-matches. A shorter
/// population with the same seed is a prefix of a longer one.
pub fn population(n: usize, seed: u64) -> Dataset {
    let mut generator = Generator::new(GeneratorConfig {
        seed,
        corruption_rate: 0.3,
        ..GeneratorConfig::default()
    })
    .expect("generator config");
    let mut records: Vec<Record> = Vec::with_capacity(n);
    for j in 0..n {
        let record = if j % 3 == 2 {
            generator.corrupt_record(&records[j / 3])
        } else {
            generator.entity(j as u64)
        };
        records.push(record);
    }
    Dataset::from_records(Schema::person(), records).expect("records follow the person schema")
}

/// A linked pair for the batch pipeline: `size` clean records in A,
/// `size` in B of which half are corrupted copies of A-side entities.
pub fn dataset_pair(size: usize, seed: u64) -> (Dataset, Dataset) {
    Generator::new(GeneratorConfig {
        seed,
        ..GeneratorConfig::default()
    })
    .expect("generator config")
    .dataset_pair(size, size, size / 2)
    .expect("overlap below both sizes")
}

/// CLK-encodes `dataset` with the person encoder on `threads` threads.
pub fn encode(dataset: &Dataset, threads: usize) -> Vec<BitVec> {
    let schema = dataset.schema();
    let chunk = dataset.len().div_ceil(threads.max(1)).max(1);
    std::thread::scope(|scope| {
        let workers: Vec<_> = dataset
            .records()
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    let encoder =
                        RecordEncoder::new(RecordEncoderConfig::person_clk(SHARED_KEY), schema)
                            .expect("person encoder");
                    let part = Dataset::from_records(schema.clone(), part.to_vec())
                        .expect("slice of a valid dataset");
                    let encoded = encoder.encode_dataset(&part).expect("encode");
                    encoded
                        .records
                        .iter()
                        .map(|r| r.try_clk().expect("CLK mode").clone())
                        .collect::<Vec<BitVec>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("encoder thread"))
            .collect()
    })
}

/// Pairs each filter with its row number, the record id the index stores.
pub fn with_ids(filters: Vec<BitVec>, first_id: u64) -> Vec<(u64, BitVec)> {
    filters
        .into_iter()
        .enumerate()
        .map(|(i, f)| (first_id + i as u64, f))
        .collect()
}

/// A near-duplicate probe: `filter` with about 5% of its bits flipped.
pub fn perturb(filter: &BitVec, rng: &mut SplitMix64) -> BitVec {
    let mut out = filter.clone();
    for pos in 0..out.len() {
        if rng.next_below(20) == 0 {
            out.flip(pos);
        }
    }
    out
}

/// `count` distinct probes, each a perturbed copy of a stored filter.
pub fn probes(corpus: &[(u64, BitVec)], count: usize, seed: u64) -> Vec<BitVec> {
    let mut rng = SplitMix64::new(seed ^ 0x70_72_6f_62_65);
    (0..count)
        .map(|i| perturb(&corpus[(i * 97) % corpus.len()].1, &mut rng))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_prefix_property() {
        let long = population(90, 5);
        let short = population(30, 5);
        assert_eq!(&long.records()[..30], short.records());
        assert_ne!(population(30, 6).records(), short.records());
        // A duplicate keeps the entity id of the record it copies.
        assert_eq!(long.records()[8].entity_id, long.records()[2].entity_id);
    }

    #[test]
    fn parallel_encoding_matches_one_thread() {
        let ds = population(40, 1);
        assert_eq!(encode(&ds, 1), encode(&ds, 3));
    }
}
