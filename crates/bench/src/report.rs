//! What an experiment run returns, and the micro-benchmark ledger.
//!
//! A run returns a [`Report`]: its tables and named facts as values.
//! Every [`Cell`] keeps the number it was formatted from, so the claims
//! an experiment states about its report read typed values instead of
//! re-parsing text, and the JSON in `results/` holds the formatted text
//! the tables print. The micro-benchmark shim records medians through
//! [`record_bench`] / [`save_bench`] (called by `criterion_main!`).

use pprl_core::json::Json;
use std::fmt;
use std::path::PathBuf;
use std::sync::Mutex;

/// One table or fact value: the text it prints as, and the number it was
/// formatted from (none for a label).
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    text: String,
    value: Option<f64>,
}

impl Cell {
    /// A number with its printed form.
    pub fn num(value: f64, text: impl Into<String>) -> Cell {
        let text = text.into();
        Cell {
            text,
            value: Some(value),
        }
    }

    /// A yes/no outcome, read as 1 or 0.
    pub fn flag(yes: bool) -> Cell {
        Cell::num(f64::from(u8::from(yes)), if yes { "yes" } else { "no" })
    }

    /// The number the cell was formatted from; NaN for a label, so a
    /// comparison against it fails.
    pub fn value(&self) -> f64 {
        self.value.unwrap_or(f64::NAN)
    }

    /// The printed text.
    pub fn text(&self) -> &str {
        &self.text
    }
}

impl From<String> for Cell {
    fn from(text: String) -> Cell {
        Cell { text, value: None }
    }
}

impl From<&str> for Cell {
    fn from(text: &str) -> Cell {
        text.to_string().into()
    }
}

impl From<usize> for Cell {
    fn from(n: usize) -> Cell {
        Cell::num(n as f64, n.to_string())
    }
}

impl From<u64> for Cell {
    fn from(n: u64) -> Cell {
        Cell::num(n as f64, n.to_string())
    }
}

/// A captioned table of cells.
#[derive(Debug, Clone)]
pub struct Table {
    caption: String,
    headers: Vec<String>,
    rows: Vec<Vec<Cell>>,
}

impl Table {
    /// An empty table; an empty caption prints nothing above it.
    pub fn new(caption: impl Into<String>, headers: &[&str]) -> Self {
        let headers = headers.iter().map(|s| s.to_string()).collect();
        Table {
            caption: caption.into(),
            headers,
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn row(&mut self, cells: Vec<Cell>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// The rows, in order.
    pub fn rows(&self) -> &[Vec<Cell>] {
        &self.rows
    }

    fn col(&self, header: &str) -> usize {
        let found = self.headers.iter().position(|h| h == header);
        found.unwrap_or_else(|| panic!("no column {header:?}"))
    }

    /// The cell of `row` under `header`.
    pub fn cell(&self, row: usize, header: &str) -> &Cell {
        &self.rows[row][self.col(header)]
    }

    /// The values under `header`, top to bottom (NaN for labels).
    pub fn column(&self, header: &str) -> Vec<f64> {
        let c = self.col(header);
        self.rows.iter().map(|r| r[c].value()).collect()
    }

    /// The first row whose cell under `header` reads `text`.
    pub fn find(&self, header: &str, text: &str) -> Option<usize> {
        let c = self.col(header);
        self.rows.iter().position(|r| r[c].text == text)
    }

    fn to_json(&self) -> Json {
        let row = |r: &Vec<Cell>| Json::Arr(r.iter().map(|c| Json::cell(&c.text)).collect());
        Json::Obj(vec![
            ("caption".into(), Json::str(&self.caption)),
            (
                "headers".into(),
                Json::Arr(self.headers.iter().map(Json::str).collect()),
            ),
            (
                "rows".into(),
                Json::Arr(self.rows.iter().map(row).collect()),
            ),
        ])
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.caption.is_empty() {
            writeln!(f, "\n{}", self.caption)?;
        }
        let widths: Vec<usize> = (0..self.headers.len())
            .map(|i| {
                let cells = self.rows.iter().map(|r| r[i].text.chars().count());
                cells.fold(self.headers[i].chars().count(), usize::max)
            })
            .collect();
        let line = |f: &mut fmt::Formatter<'_>, cells: Vec<&str>| {
            let padded: Vec<_> = cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect();
            writeln!(f, "{}", padded.join("  "))
        };
        line(f, self.headers.iter().map(String::as_str).collect())?;
        let rule = widths.iter().sum::<usize>() + 2 * widths.len();
        writeln!(f, "{}", "-".repeat(rule))?;
        for r in &self.rows {
            line(f, r.iter().map(Cell::text).collect())?;
        }
        Ok(())
    }
}

/// What one experiment run produced: its tables, then named facts.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// The tables, in print order.
    pub tables: Vec<Table>,
    facts: Vec<(String, Cell)>,
}

impl Report {
    /// Appends a table.
    pub fn table(&mut self, table: Table) {
        self.tables.push(table);
    }

    /// Records a named fact (printed after the tables).
    pub fn fact(&mut self, name: &str, value: Cell) {
        self.facts.push((name.to_string(), value));
    }

    /// The fact `name`, if recorded.
    pub fn get(&self, name: &str) -> Option<&Cell> {
        self.facts.iter().find(|(n, _)| n == name).map(|(_, c)| c)
    }

    /// The value of the fact `name`; NaN if it is missing or a label.
    pub fn value(&self, name: &str) -> f64 {
        self.get(name).map_or(f64::NAN, Cell::value)
    }

    /// The report as JSON: experiment id and title, its claims, tables
    /// and facts.
    pub fn to_json(&self, id: &str, title: &str, claims: &[Claim]) -> Json {
        let claim = |c: &Claim| {
            Json::Obj(vec![
                ("claim".into(), Json::str(c.text)),
                ("pass".into(), Json::Bool(c.pass)),
                ("timing".into(), Json::Bool(c.timing)),
            ])
        };
        let facts = self
            .facts
            .iter()
            .map(|(n, c)| (n.clone(), Json::cell(&c.text)));
        Json::Obj(vec![
            ("experiment".into(), Json::str(id)),
            ("title".into(), Json::str(title)),
            (
                "claims".into(),
                Json::Arr(claims.iter().map(claim).collect()),
            ),
            (
                "tables".into(),
                Json::Arr(self.tables.iter().map(Table::to_json).collect()),
            ),
            ("facts".into(), Json::Obj(facts.collect())),
        ])
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for t in &self.tables {
            write!(f, "{t}")?;
        }
        if !self.facts.is_empty() {
            writeln!(f)?;
        }
        for (name, value) in &self.facts {
            writeln!(f, "{name}: {}", value.text)?;
        }
        Ok(())
    }
}

/// One statement an experiment makes about its report, and whether the
/// report bears it out.
#[derive(Debug, Clone, PartialEq)]
pub struct Claim {
    /// What the claim says.
    pub text: &'static str,
    /// Whether the report shows it.
    pub pass: bool,
    /// Whether it rests on wall-clock timing (checked only in release).
    pub timing: bool,
}

impl Claim {
    /// A claim about counts, qualities or outcomes.
    pub fn check(text: &'static str, pass: bool) -> Claim {
        Claim {
            text,
            pass,
            timing: false,
        }
    }

    /// A claim that rests on wall-clock timing.
    pub fn timing(text: &'static str, pass: bool) -> Claim {
        Claim {
            text,
            pass,
            timing: true,
        }
    }
}

static BENCHES: Mutex<Vec<(String, f64)>> = Mutex::new(Vec::new());

/// The workspace `results/` directory (fixed relative to this crate, so
/// binaries land their JSON in the same place regardless of CWD).
pub fn results_dir() -> PathBuf {
    let mut dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    dir.pop();
    dir.pop();
    dir.join("results")
}

/// Records one micro-benchmark median (called by the criterion shim).
pub fn record_bench(name: &str, median_secs: f64) {
    BENCHES
        .lock()
        .expect("bench lock")
        .push((name.to_string(), median_secs));
}

/// Writes accumulated micro-benchmark medians to
/// `<dir>/bench_<binary>.json`.
fn save_bench_to(dir: &std::path::Path) -> Option<PathBuf> {
    let benches = std::mem::take(&mut *BENCHES.lock().expect("bench lock"));
    if benches.is_empty() {
        return None;
    }
    let stem = exe_stem().unwrap_or_else(|| "bench".into());
    let json = Json::Obj(vec![
        ("bench".into(), Json::str(&stem)),
        (
            "results".into(),
            Json::Arr(
                benches
                    .iter()
                    .map(|(name, median)| {
                        Json::Obj(vec![
                            ("name".into(), Json::str(name)),
                            ("median_secs".into(), Json::Num(*median)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    let path = dir.join(format!("bench_{stem}.json"));
    std::fs::create_dir_all(dir).ok()?;
    std::fs::write(&path, json.render()).ok()?;
    Some(path)
}

/// Writes micro-benchmark medians to `results/bench_<binary>.json`.
/// Called by `criterion_main!` after the benches run.
pub fn save_bench() -> Option<PathBuf> {
    let path = save_bench_to(&results_dir())?;
    println!("machine-readable results: {}", path.display());
    Some(path)
}

/// The running executable's name, with cargo's `-<hash>` suffix stripped
/// (bench binaries are named e.g. `encoding-3f2a...`).
fn exe_stem() -> Option<String> {
    let exe = std::env::current_exe().ok()?;
    let stem = exe.file_stem()?.to_str()?.to_string();
    match stem.rsplit_once('-') {
        Some((base, hash)) if hash.len() == 16 && hash.bytes().all(|b| b.is_ascii_hexdigit()) => {
            Some(base.to_string())
        }
        _ => Some(stem),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_keep_their_number_and_render_their_text() {
        let mut t = Table::new("caption", &["n", "rate", "label"]);
        t.row(vec![10usize.into(), Cell::num(0.4999, "0.500"), "x".into()]);
        assert_eq!(t.column("rate"), vec![0.4999]);
        assert!(t.column("label")[0].is_nan());
        assert_eq!(t.find("label", "x"), Some(0));
        let text = t.to_string();
        assert!(text.contains("caption") && text.contains("0.500"));

        let mut r = Report::default();
        r.table(t);
        r.fact("same", Cell::flag(true));
        assert_eq!(r.value("same"), 1.0);
        assert!(r.value("absent").is_nan());
        let json = r
            .to_json("E99", "test", &[Claim::timing("fast", false)])
            .render();
        // Cells render their printed text: numbers as numbers.
        assert!(json.contains("0.5") && !json.contains("0.4999") && !json.contains("\"0.500\""));
        assert!(json.contains("\"timing\": true") && json.contains("\"same\": \"yes\""));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new("", &["a"]);
        t.row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn bench_ledger_round_trip() {
        let dir = std::env::temp_dir().join(format!("pprl-bench-ledger-{}", std::process::id()));
        // The micro-shim's own tests may add entries concurrently, so
        // only assert on what this test records.
        record_bench("dice/1000", 1.5e-6);
        let path = save_bench_to(&dir).expect("bench written");
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"name\": \"dice/1000\""));
        assert!(text.contains("0.0000015"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn results_dir_points_at_workspace() {
        assert!(results_dir().ends_with("results"));
        assert!(results_dir().parent().unwrap().join("Cargo.toml").exists());
    }
}
