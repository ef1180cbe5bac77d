//! # pprl-bench
//!
//! The experiment harness: one `exp_*` binary per survey experiment in
//! `EXPERIMENTS.md` (E1–E16) plus the scan-kernel gates (E19), and
//! criterion micro-benchmarks. This
//! library holds the shared table-printing and timing helpers so each
//! binary stays a thin driver.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod micro;
pub mod report;

/// Re-export of the shared JSON writer, which lives in `pprl-core` so the
/// CLI and pipeline can emit machine-readable stats without depending on
/// the bench harness.
pub use pprl_core::json;

use std::time::Instant;

/// A simple fixed-width table printer for experiment output.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (cells are pre-formatted strings).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Renders the table to stdout and mirrors it into the machine-
    /// readable report (see [`report::save`]).
    pub fn print(&self) {
        report::record_table(&self.headers, &self.rows);
        let widths: Vec<usize> = self
            .headers
            .iter()
            .enumerate()
            .map(|(i, h)| {
                self.rows
                    .iter()
                    .map(|r| r[i].len())
                    .chain(std::iter::once(h.len()))
                    .max()
                    .unwrap_or(0)
            })
            .collect();
        let line = |cells: &[String]| {
            let mut out = String::new();
            for (i, c) in cells.iter().enumerate() {
                out.push_str(&format!("{:>width$}  ", c, width = widths[i]));
            }
            println!("{}", out.trim_end());
        };
        line(&self.headers);
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
        println!("{}", "-".repeat(total));
        for r in &self.rows {
            line(r);
        }
    }
}

/// Times a closure, returning `(result, seconds)`.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed().as_secs_f64())
}

/// Formats a float with 3 decimal places.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats a float as a percentage with 1 decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Formats seconds adaptively (µs/ms/s).
pub fn secs(s: f64) -> String {
    if s < 1e-3 {
        format!("{:.1}µs", s * 1e6)
    } else if s < 1.0 {
        format!("{:.1}ms", s * 1e3)
    } else {
        format!("{s:.2}s")
    }
}

/// Prints an experiment banner and opens the machine-readable report
/// (finalised by [`report::save`] at the end of the binary).
pub fn banner(id: &str, title: &str, claim: &str) {
    report::begin(id, title, claim);
    println!("==============================================================");
    println!("{id}: {title}");
    println!("claim: {claim}");
    println!("==============================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_requires_consistent_width() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["1".into(), "2".into()]);
        t.print();
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new(&["a"]);
        t.row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn formatters() {
        assert_eq!(f3(0.12345), "0.123");
        assert_eq!(pct(0.5), "50.0%");
        assert_eq!(secs(0.5), "500.0ms");
        assert_eq!(secs(2.0), "2.00s");
        assert_eq!(secs(1e-5), "10.0µs");
    }

    #[test]
    fn timed_returns_result() {
        let (x, t) = timed(|| 42);
        assert_eq!(x, 42);
        assert!(t >= 0.0);
    }
}
