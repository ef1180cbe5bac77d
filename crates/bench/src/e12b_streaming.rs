//! E12b — Figure 3 "velocity" (§5.1): incremental linkage sustains
//! throughput as the index grows, because blocking keeps per-insert
//! comparisons a sliver of the index; identity drift erodes matchability
//! over time.

use crate::{f3, generator, Cell, Claim, Report, Size, Table};
use pprl_blocking::keys::BlockingKey;
use pprl_core::rng::SplitMix64;
use pprl_core::schema::Schema;
use pprl_datagen::temporal::{evolve_step, EvolutionConfig};
use pprl_encoding::encoder::RecordEncoderConfig;
use pprl_pipeline::streaming::StreamingLinker;

fn linker(key: &[u8], threshold: f64) -> StreamingLinker {
    StreamingLinker::new(
        Schema::person(),
        RecordEncoderConfig::person_clk(key.to_vec()),
        BlockingKey::person_default(),
        threshold,
    )
    .expect("valid")
}

/// Insert throughput per index size, then re-identification per drift
/// step.
pub fn run(size: Size) -> Report {
    let mut g = generator(0.15, 13);
    let mut stream = linker(b"e12b", 0.8);
    let checkpoints = size.pick([250usize, 500, 1000, 2000], [1000, 2000, 4000, 8000]);
    let total = checkpoints[3];
    // 10% of arrivals are corrupted duplicates of earlier arrivals.
    let records: Vec<_> = (0..total)
        .map(|i| {
            if i > 0 && i % 10 == 0 {
                let target = g.entity((i / 2) as u64);
                g.corrupt_record(&target)
            } else {
                g.entity(i as u64)
            }
        })
        .collect();

    let mut t = Table::new(
        "",
        &[
            "index size",
            "inserts/sec",
            "avg comparisons/insert",
            "matches found",
        ],
    );
    let mut inserted = 0usize;
    let mut matches = 0usize;
    for checkpoint in checkpoints {
        let batch = &records[inserted..checkpoint];
        let started = std::time::Instant::now();
        let mut comparisons = 0usize;
        for r in batch {
            let out = stream.insert(0, r).expect("inserts");
            comparisons += out.comparisons;
            matches += usize::from(!out.matches.is_empty());
        }
        let rate = batch.len() as f64 / started.elapsed().as_secs_f64();
        inserted = checkpoint;
        t.row(vec![
            checkpoint.into(),
            Cell::num(rate, format!("{rate:.0}")),
            f3(comparisons as f64 / batch.len() as f64),
            matches.into(),
        ]);
    }
    let mut r = Report::default();
    r.table(t);

    // Identity drift: re-observe the same people after k evolution steps
    // (moves, surname changes, ageing) and measure how linkage decays.
    let mut g2 = generator(0.05, 131);
    let people = g2.population(200);
    let mut drift = linker(b"e12b-drift", 0.78);
    for p in &people {
        drift.insert(0, p).expect("inserts");
    }
    let mut t = Table::new(
        "Identity drift: match rate of re-observations after k life-event steps",
        &["steps since indexing", "re-identified", "rate"],
    );
    let cfg = EvolutionConfig::default();
    let mut rng = SplitMix64::new(99);
    let mut current = people.clone();
    for step in 1..=6usize {
        for person in current.iter_mut() {
            *person = evolve_step(person, &cfg, step, &mut rng).expect("valid");
        }
        if step % 2 == 0 {
            let mut found = 0usize;
            for person in &current {
                let probe = g2.corrupt_record(person);
                let out = drift.insert(1, &probe).expect("inserts");
                found += usize::from(out.matches.iter().any(|m| {
                    m.existing.party.0 == 0 && people[m.existing.row].entity_id == person.entity_id
                }));
            }
            t.row(vec![
                step.into(),
                format!("{found}/200").into(),
                f3(found as f64 / 200.0),
            ]);
        }
    }
    r.table(t);
    r.fact("clusters formed", Cell::from(stream.clusters().len()));
    r
}

/// Blocking bounds each insert, so throughput holds; drift erodes
/// matches.
pub fn claims(r: &Report) -> Vec<Claim> {
    let t = &r.tables[0];
    let rate = t.column("inserts/sec");
    let (lo, hi) = (
        rate.iter().copied().fold(f64::INFINITY, f64::min),
        rate.iter().copied().fold(0.0, f64::max),
    );
    let sliver = t
        .column("index size")
        .iter()
        .zip(t.column("avg comparisons/insert"))
        .all(|(size, comparisons)| comparisons <= 0.001 * size);
    let reid = r.tables[1].column("rate");
    vec![
        Claim::check(
            "each insert compares against <= 0.1% of the index (blocked index)",
            sliver,
        ),
        Claim::timing(
            "inserts/s stay within 2x from the smallest to the largest index",
            hi <= 2.0 * lo,
        ),
        Claim::check(
            "re-identification falls with every further pair of life-event steps",
            reid.windows(2).all(|w| w[1] < w[0]),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(comparisons_at_8k: f64, rate_at_8k: f64, reid_at_6: f64) -> Report {
        let mut t = Table::new("", &["index size", "inserts/sec", "avg comparisons/insert"]);
        t.row(vec![1000usize.into(), f3(31_000.0), f3(0.36)]);
        t.row(vec![
            8000usize.into(),
            f3(rate_at_8k),
            f3(comparisons_at_8k),
        ]);
        let mut drift = Table::new("", &["rate"]);
        for x in [0.81, 0.69, reid_at_6] {
            drift.row(vec![f3(x)]);
        }
        let mut r = Report::default();
        r.table(t);
        r.table(drift);
        r
    }

    #[test]
    fn unblocked_inserts_or_stable_identities_fail() {
        assert!(claims(&report(4.0, 38_000.0, 0.56)).iter().all(|c| c.pass));
        assert!(!claims(&report(400.0, 38_000.0, 0.56))[0].pass);
        assert!(!claims(&report(4.0, 9_000.0, 0.56))[1].pass);
        assert!(!claims(&report(4.0, 38_000.0, 0.75))[2].pass);
    }
}
