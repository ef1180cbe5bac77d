//! E12a — §3.4 parallel processing (ref \[9]): a whole `link()` —
//! encoding, Hamming-LSH blocking and comparison on the elastic runner —
//! speeds up with the cores it may borrow, and answers identically at
//! every thread cap.

use crate::{f3, generator, secs, timed, Cell, Claim, Report, Size, Table};
use pprl_core::gauge::cores;
use pprl_pipeline::batch::{link, PipelineConfig};

const SAME: &str = "match set identical at every thread cap";
const CORES: &str = "cores available";

/// Median link time per thread cap.
pub fn run(size: Size) -> Report {
    let (n, reps) = size.pick((5_000, 3), (20_000, 5));
    let (a, b) = generator(0.2, 12).dataset_pair(n, n, n / 2).expect("valid");
    let mut config = PipelineConfig::standard(b"e12".to_vec()).expect("valid");

    // Caps take turns within each round, so a drift in machine speed
    // lands on every cap alike; each cap reports its median.
    let caps = size.pick(&[1usize, 2][..], &[1, 2, 4, 8]);
    let mut times = vec![Vec::with_capacity(reps); caps.len()];
    let mut results = Vec::new();
    for _ in 0..reps {
        results.clear();
        for (c, &threads) in caps.iter().enumerate() {
            config.threads = threads;
            let (out, time) = timed(|| link(&a, &b, &config).expect("links"));
            times[c].push(time);
            results.push(out);
        }
    }
    let median = |c: usize| {
        let mut sorted = times[c].clone();
        sorted.sort_by(f64::total_cmp);
        sorted[reps / 2]
    };
    let mut t = Table::new(
        format!("link() of {n} x {n} records (person CLK, Hamming-LSH blocking):"),
        &[
            "threads",
            "time",
            "speedup",
            "records/s",
            "candidates",
            "matches",
        ],
    );
    for (c, out) in results.iter().enumerate() {
        let rate = (2 * n) as f64 / median(c);
        t.row(vec![
            caps[c].into(),
            secs(median(c)),
            f3(median(0) / median(c)),
            Cell::num(rate, format!("{rate:.0}")),
            out.candidates.into(),
            out.matches.len().into(),
        ]);
    }
    let mut r = Report::default();
    r.table(t);
    r.fact(
        SAME,
        Cell::flag(results.iter().all(|out| out.matches == results[0].matches)),
    );
    r.fact(CORES, Cell::from(cores()));
    r
}

/// Every cap answers alike; a second core pays off.
pub fn claims(r: &Report) -> Vec<Claim> {
    let t = &r.tables[0];
    let two = t
        .find("threads", "2")
        .map_or(f64::NAN, |i| t.cell(i, "speedup").value());
    vec![
        Claim::check(
            "the match set is identical at every thread cap",
            r.value(SAME) == 1.0,
        ),
        Claim::timing(
            "with >= 2 cores, 2 threads link >= 1.4x faster than 1",
            r.value(CORES) < 2.0 || two >= 1.4,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(same: bool, cores: usize, speedup: f64) -> Report {
        let mut t = Table::new("", &["threads", "speedup"]);
        t.row(vec![1usize.into(), f3(1.0)]);
        t.row(vec![2usize.into(), f3(speedup)]);
        let mut r = Report::default();
        r.table(t);
        r.fact(SAME, Cell::flag(same));
        r.fact(CORES, Cell::from(cores));
        r
    }

    #[test]
    fn diverging_caps_or_no_speedup_fails() {
        assert!(claims(&report(true, 2, 1.7)).iter().all(|c| c.pass));
        assert!(claims(&report(true, 1, 1.0)).iter().all(|c| c.pass));
        assert!(!claims(&report(false, 2, 1.7))[0].pass);
        assert!(!claims(&report(true, 2, 1.1))[1].pass);
    }
}
