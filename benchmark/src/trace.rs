//! Spans recorded by the benchmark around its own calls into each
//! layer, kept in memory and written out when the run ends, and the
//! layer budget derived from them.
//!
//! A root span is one real operation as its client saw it. Its children
//! replay the same input through each layer's public function, one
//! after another, so a child's clock time lies after its root's: the
//! tree says which operation a span accounts for, not when it ran.
//! The root's self time — its median minus its children's medians — is
//! what no layer call explains: sockets, queue hand-off, thread wake-up.

use crate::json::Json;
use crate::load::Clock;
use crate::stats::median;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span this one accounts for, if any.
    pub parent: Option<usize>,
    /// Shared by every span of one operation.
    pub request_id: u64,
}

#[derive(Debug, Default)]
pub struct Tracer {
    spans: Vec<Span>,
}

/// One line of a layer budget.
#[derive(Debug, Clone)]
pub struct BudgetRow {
    pub name: String,
    /// 0 for the root, 1 for a layer call, 2 for a call inside one.
    pub depth: usize,
    pub p50_us: f64,
    pub count: usize,
}

impl BudgetRow {
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("span", Json::str(self.name.clone())),
            ("depth", Json::Num(self.depth as f64)),
            ("p50_us", Json::Num(self.p50_us)),
            ("spans", Json::Num(self.count as f64)),
        ])
    }
}

impl Tracer {
    /// Times `work` as a span and returns its result and the span's index.
    pub fn time<T>(
        &mut self,
        clock: &impl Clock,
        name: &'static str,
        parent: Option<usize>,
        request_id: u64,
        work: impl FnOnce() -> T,
    ) -> (T, usize) {
        let start = clock.now();
        let out = std::hint::black_box(work());
        let end = clock.now();
        self.spans.push(Span {
            name,
            start_ns: start.as_nanos() as u64,
            end_ns: end.as_nanos() as u64,
            parent,
            request_id,
        });
        (out, self.spans.len() - 1)
    }

    /// Adds a span that has already been timed.
    pub fn record(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Duration of span `index` in µs.
    pub fn span_us(&self, index: usize) -> f64 {
        let span = &self.spans[index];
        (span.end_ns - span.start_ns) as f64 / 1e3
    }

    /// Names from the top-level span down to `span`.
    fn path(&self, span: &Span) -> Vec<&'static str> {
        let mut path = vec![span.name];
        let mut parent = span.parent;
        while let Some(p) = parent {
            path.push(self.spans[p].name);
            parent = self.spans[p].parent;
        }
        path.reverse();
        path
    }

    /// Median duration per span name under roots called `root`: the
    /// root, then each layer call in order of first appearance with
    /// the calls inside it beneath it, closed by a `residual` row so
    /// that the depth-1 rows and the residual sum to the root's median.
    pub fn budget(&self, root: &'static str) -> Vec<BudgetRow> {
        let mut groups: Vec<(Vec<&'static str>, Vec<f64>)> = Vec::new();
        for span in &self.spans {
            let path = self.path(span);
            if path[0] != root {
                continue;
            }
            let at = groups
                .iter()
                .position(|(p, _)| *p == path)
                .unwrap_or_else(|| {
                    groups.push((path, Vec::new()));
                    groups.len() - 1
                });
            groups[at]
                .1
                .push((span.end_ns - span.start_ns) as f64 / 1e3);
        }
        fn emit(
            prefix: &[&'static str],
            groups: &[(Vec<&'static str>, Vec<f64>)],
            rows: &mut Vec<BudgetRow>,
        ) {
            for (path, durations) in groups {
                if path.len() == prefix.len() + 1 && path.starts_with(prefix) {
                    rows.push(BudgetRow {
                        name: path[prefix.len()].to_string(),
                        depth: prefix.len(),
                        p50_us: median(durations),
                        count: durations.len(),
                    });
                    emit(path, groups, rows);
                }
            }
        }
        let mut rows = Vec::new();
        emit(&[], &groups, &mut rows);
        let root_p50 = rows.first().map_or(0.0, |r| r.p50_us);
        let explained: f64 = rows.iter().filter(|r| r.depth == 1).map(|r| r.p50_us).sum();
        rows.push(BudgetRow {
            name: "residual".into(),
            depth: 1,
            p50_us: root_p50 - explained,
            count: 0,
        });
        rows
    }

    pub fn to_json(&self, workload: &str) -> Json {
        Json::obj([
            ("workload", Json::str(workload)),
            (
                "spans",
                Json::Arr(
                    self.spans
                        .iter()
                        .map(|s| {
                            Json::obj([
                                ("name", Json::str(s.name)),
                                ("start_ns", Json::Num(s.start_ns as f64)),
                                ("end_ns", Json::Num(s.end_ns as f64)),
                                (
                                    "parent",
                                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                                ),
                                ("request_id", Json::Num(s.request_id as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Prints a budget: median per row and its share of the root's median.
pub fn print_budget(title: &str, rows: &[BudgetRow]) {
    let root = rows.iter().find(|r| r.depth == 0).map_or(0.0, |r| r.p50_us);
    println!("\nlayer budget — {title}");
    println!(
        "  {:<34} {:>12} {:>8} {:>7}",
        "span", "p50 µs", "share", "spans"
    );
    for row in rows {
        let indent = "  ".repeat(row.depth);
        println!(
            "  {:<34} {:>12.1} {:>7.1}% {:>7}",
            format!("{indent}{}", row.name),
            row.p50_us,
            if root > 0.0 {
                100.0 * row.p50_us / root
            } else {
                0.0
            },
            row.count
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::load::Epoch;

    #[test]
    fn budget_rows_and_residual_sum_to_the_root() {
        let mut tracer = Tracer::default();
        let us = |n: u64| n * 1_000;
        for request in 0..3u64 {
            let base = request * 1_000_000;
            let root = tracer.record(Span {
                name: "round_trip",
                start_ns: base,
                end_ns: base + us(100),
                parent: None,
                request_id: request,
            });
            let service = tracer.record(Span {
                name: "service",
                start_ns: base + us(200),
                end_ns: base + us(260),
                parent: Some(root),
                request_id: request,
            });
            tracer.record(Span {
                name: "scan",
                start_ns: base + us(300),
                end_ns: base + us(350),
                parent: Some(service),
                request_id: request,
            });
            tracer.record(Span {
                name: "codec",
                start_ns: base + us(400),
                end_ns: base + us(410),
                parent: Some(root),
                request_id: request,
            });
        }
        tracer.record(Span {
            name: "other_root",
            start_ns: 0,
            end_ns: 5,
            parent: None,
            request_id: 9,
        });
        let rows = tracer.budget("round_trip");
        let get = |name: &str| rows.iter().find(|r| r.name == name).unwrap();
        assert_eq!(get("round_trip").p50_us, 100.0);
        assert_eq!((get("scan").depth, get("scan").p50_us), (2, 50.0));
        assert_eq!(get("residual").p50_us, 30.0);
        assert!(rows.iter().all(|r| r.name != "other_root"));
        let (_, idx) = tracer.time(&Epoch::start(), "timed", None, 1, || 2 + 2);
        assert_eq!(idx + 1, tracer.len());
        let json = tracer.to_json("w");
        assert_eq!(
            json.get("spans").unwrap().as_arr().unwrap().len(),
            tracer.len()
        );
    }
}
