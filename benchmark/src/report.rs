//! What a run leaves behind: the table on the terminal, the results
//! file, the one-line result the driver reads, and the comparison of
//! two results files against the benchmark's regression bounds.

use crate::json::Json;
use crate::spec::{Better, Metric, Workload, END_TO_END, PER_LAYER};
use crate::stats::median;
use crate::workloads::{Outcome, RunConfig};

fn metric_spec(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(&PER_LAYER).find(|m| m.name == name)
}

/// Prints every metric of `outcome` by name, with its unit.
pub fn print_outcome(outcome: &Outcome) {
    println!(
        "\n== {} — {} ({} operations, {} failed)",
        outcome.workload,
        if outcome.correct {
            "correct"
        } else {
            "INCORRECT"
        },
        outcome.attempted,
        outcome.failed
    );
    if let Some(w) = Workload::named(outcome.workload) {
        println!("   one op of throughput: {}", w.unit_of_work);
        println!("   p50_ms is the median of: {}", w.latency_of);
    }
    for m in &outcome.metrics {
        let unit = metric_spec(m.name).map_or("", |s| s.unit);
        let spread = m.window_spread.map_or(String::new(), |s| {
            format!("   (window spread {:.1}%)", s * 100.0)
        });
        println!("  {:<36} {:>16.4} {:<10}{spread}", m.name, m.value, unit);
    }
}

fn metrics_json(outcome: &Outcome, with_spread: bool) -> Json {
    Json::obj(outcome.metrics.iter().map(|m| {
        let mut entry = vec![
            ("value".to_string(), Json::Num(m.value)),
            (
                "unit".to_string(),
                Json::str(metric_spec(m.name).map_or("", |s| s.unit)),
            ),
        ];
        if let (true, Some(spread)) = (with_spread, m.window_spread) {
            entry.push(("window_spread".into(), Json::Num(spread)));
        }
        (m.name, Json::Obj(entry))
    }))
}

/// The machine-readable record of one invocation.
pub fn results_json(fingerprint: Json, cfg: &RunConfig, outcomes: &[Outcome]) -> Json {
    Json::obj([
        ("schema", Json::Num(1.0)),
        ("fingerprint", fingerprint),
        (
            "config",
            Json::obj([
                ("seed", Json::Num(cfg.seed as f64)),
                ("seconds", Json::Num(cfg.seconds)),
                ("trace", Json::Bool(cfg.trace)),
                ("smoke", Json::Bool(cfg.smoke)),
            ]),
        ),
        (
            "workloads",
            Json::Arr(
                outcomes
                    .iter()
                    .map(|o| {
                        Json::obj([
                            ("name", Json::str(o.workload)),
                            ("correct", Json::Bool(o.correct)),
                            ("attempted", Json::Num(o.attempted as f64)),
                            ("failed", Json::Num(o.failed as f64)),
                            ("metrics", metrics_json(o, true)),
                            ("detail", o.detail.clone()),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// The object the driver reads from the last line of standard output.
/// One workload reports its metrics by their plain names; several are
/// told apart as `<workload>/<metric>`.
pub fn result_line(outcomes: &[Outcome]) -> Json {
    let metrics = match outcomes {
        [only] => metrics_json(only, false),
        many => Json::Obj(
            many.iter()
                .flat_map(|o| {
                    let Json::Obj(pairs) = metrics_json(o, false) else {
                        unreachable!("metrics are an object");
                    };
                    pairs
                        .into_iter()
                        .map(move |(name, value)| (format!("{}/{name}", o.workload), value))
                })
                .collect(),
        ),
    };
    Json::obj([
        ("correct", Json::Bool(outcomes.iter().all(|o| o.correct))),
        (
            "attempted",
            Json::Num(outcomes.iter().map(|o| o.attempted).sum::<u64>().max(1) as f64),
        ),
        (
            "failed",
            Json::Num(outcomes.iter().map(|o| o.failed).sum::<u64>() as f64),
        ),
        ("metrics", metrics),
    ])
}

// ------------------------------------------------------------ compare

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Within,
    Worse,
    /// The windows of one side disagree by more than the bound, so a
    /// difference of that size cannot be told from noise.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Within => "within",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One (workload, end-to-end metric) pair of two results files.
#[derive(Debug, Clone)]
pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub base: f64,
    pub other: f64,
    pub bound: f64,
    pub verdict: Verdict,
}

impl Row {
    /// `other / base`; the base is always the first file.
    pub fn ratio(&self) -> f64 {
        self.other / self.base
    }
}

/// How `other` stands to `base` for a metric with the given direction
/// and bound. `spreads` are the two sides' window spreads, where known.
pub fn verdict(
    better: Better,
    bound: f64,
    base: f64,
    other: f64,
    spreads: [Option<f64>; 2],
) -> Verdict {
    if spreads.iter().flatten().any(|&s| s > bound) {
        return Verdict::Unresolved;
    }
    // Positive when `other` is worse, as a share of the base.
    let worsening = match better {
        Better::Lower => (other - base) / base,
        Better::Higher => (base - other) / base,
    };
    if worsening > bound {
        Verdict::Worse
    } else if worsening < -bound {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

fn workloads_of(results: &Json) -> Result<&[Json], String> {
    results
        .get("workloads")
        .and_then(Json::as_arr)
        .ok_or_else(|| "not a results file: no `workloads` array".to_string())
}

/// Rows for every workload in both files and every end-to-end metric
/// both report. `spread_gate` off compares medians alone — what
/// `selfcheck` wants, since its question is whether two whole runs agree.
pub fn compare(base: &Json, other: &Json, spread_gate: bool) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    for entry in workloads_of(base)? {
        let name = entry.get("name").and_then(Json::as_str).unwrap_or("");
        let Some(peer) = workloads_of(other)?
            .iter()
            .find(|w| w.get("name").and_then(Json::as_str) == Some(name))
        else {
            continue;
        };
        for metric in &END_TO_END {
            let read = |side: &Json, key: &str| {
                side.get("metrics")
                    .and_then(|m| m.get(metric.name))
                    .and_then(|m| m.get(key))
                    .and_then(Json::as_f64)
            };
            let (Some(a), Some(b)) = (read(entry, "value"), read(peer, "value")) else {
                continue;
            };
            let bound = metric.bound.expect("end-to-end metrics are bounded");
            let spreads = if spread_gate {
                [read(entry, "window_spread"), read(peer, "window_spread")]
            } else {
                [None, None]
            };
            rows.push(Row {
                workload: name.to_string(),
                metric: metric.name,
                unit: metric.unit,
                better: metric.better,
                base: a,
                other: b,
                bound,
                verdict: verdict(metric.better, bound, a, b, spreads),
            });
        }
    }
    if rows.is_empty() {
        return Err("the two files share no workload with end-to-end metrics".into());
    }
    Ok(rows)
}

/// One results file standing for several: every end-to-end metric of
/// every workload replaced by its median over `runs`.
pub fn medians(runs: &[Json]) -> Result<Json, String> {
    let first = runs.first().ok_or("no runs to take medians of")?;
    let mut workloads = Vec::new();
    for entry in workloads_of(first)? {
        let name = entry.get("name").and_then(Json::as_str).unwrap_or("");
        let metrics = END_TO_END.iter().filter_map(|metric| {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|run| {
                    workloads_of(run)
                        .ok()?
                        .iter()
                        .find(|w| w.get("name").and_then(Json::as_str) == Some(name))?
                        .get("metrics")?
                        .get(metric.name)?
                        .get("value")?
                        .as_f64()
                })
                .collect();
            (!values.is_empty()).then(|| {
                let entry = Json::obj([
                    ("value", Json::Num(median(&values))),
                    ("unit", Json::str(metric.unit)),
                    ("runs", Json::nums(&values)),
                ]);
                (metric.name, entry)
            })
        });
        workloads.push(Json::obj([
            ("name", Json::str(name)),
            ("metrics", Json::obj(metrics)),
        ]));
    }
    Ok(Json::obj([("workloads", Json::Arr(workloads))]))
}

pub fn print_rows(rows: &[Row]) {
    println!(
        "{:<18} {:<27} {:>12} {:>12} {:>15} {:>6}  verdict",
        "workload", "metric [unit, better]", "base", "other", "other/base", "bound"
    );
    for r in rows {
        println!(
            "{:<18} {:<27} {:>12.4} {:>12.4} {:>7.4} of base {:>5.0}%  {}",
            r.workload,
            format!("{} [{}, {}]", r.metric, r.unit, r.better.as_str()),
            r.base,
            r.other,
            r.ratio(),
            r.bound * 100.0,
            r.verdict.as_str()
        );
    }
}

pub fn rows_json(rows: &[Row]) -> Json {
    Json::Arr(
        rows.iter()
            .map(|r| {
                Json::obj([
                    ("workload", Json::str(r.workload.clone())),
                    ("metric", Json::str(r.metric)),
                    ("unit", Json::str(r.unit)),
                    ("better", Json::str(r.better.as_str())),
                    ("base", Json::Num(r.base)),
                    ("other", Json::Num(r.other)),
                    ("ratio_to_base", Json::Num(r.ratio())),
                    ("bound", Json::Num(r.bound)),
                    ("verdict", Json::str(r.verdict.as_str())),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Measured;

    fn outcome(workload: &'static str, throughput: f64, spread: f64) -> Outcome {
        Outcome {
            workload,
            correct: true,
            attempted: 10,
            failed: 0,
            metrics: vec![
                Measured {
                    name: "throughput",
                    value: throughput,
                    window_spread: Some(spread),
                },
                Measured {
                    name: "p50_ms",
                    value: 1.25,
                    window_spread: Some(0.01),
                },
                Measured {
                    name: "setup_s",
                    value: 0.5,
                    window_spread: None,
                },
            ],
            detail: Json::obj([("note", Json::str("x"))]),
        }
    }

    fn results(throughput: f64, spread: f64) -> Json {
        let cfg = RunConfig {
            seed: 3,
            seconds: 1.0,
            trace: false,
            smoke: true,
        };
        let file = results_json(
            Json::obj([("nproc", Json::Num(2.0))]),
            &cfg,
            &[outcome("serve_hot_5k", throughput, spread)],
        );
        // What `compare` reads is what `run` wrote: through text and back.
        let parsed = Json::parse(&file.pretty()).unwrap();
        assert_eq!(parsed, file);
        parsed
    }

    #[test]
    fn results_schema_round_trips_and_compares() {
        let base = results(1000.0, 0.02);
        let entry = &base.get("workloads").unwrap().as_arr().unwrap()[0];
        assert_eq!(entry.get("name").unwrap().as_str(), Some("serve_hot_5k"));
        let throughput = entry.get("metrics").unwrap().get("throughput").unwrap();
        assert_eq!(throughput.get("unit").unwrap().as_str(), Some("ops/s"));
        assert_eq!(
            throughput.get("window_spread").unwrap().as_f64(),
            Some(0.02)
        );

        let verdict_of = |other: &Json, metric: &str| {
            compare(&base, other, true)
                .unwrap()
                .into_iter()
                .find(|r| r.metric == metric)
                .unwrap()
        };
        assert_eq!(
            verdict_of(&results(1050.0, 0.02), "throughput").verdict,
            Verdict::Within
        );
        assert_eq!(
            verdict_of(&results(700.0, 0.02), "throughput").verdict,
            Verdict::Worse
        );
        assert_eq!(
            verdict_of(&results(1400.0, 0.02), "throughput").verdict,
            Verdict::Better
        );
        assert_eq!(
            verdict_of(&results(700.0, 0.30), "throughput").verdict,
            Verdict::Unresolved
        );
        let row = verdict_of(&results(700.0, 0.02), "throughput");
        assert_eq!((row.base, row.other, row.ratio()), (1000.0, 700.0, 0.7));
        assert_eq!(
            verdict_of(&results(700.0, 0.02), "setup_s").verdict,
            Verdict::Within
        );
        assert!(compare(&base, &Json::obj([("workloads", Json::Arr(vec![]))]), true).is_err());
    }

    #[test]
    fn medians_stand_for_several_runs() {
        let merged = medians(&[
            results(900.0, 0.5),
            results(1100.0, 0.5),
            results(1000.0, 0.5),
        ])
        .unwrap();
        let row = &compare(&results(1000.0, 0.02), &merged, true).unwrap()[0];
        // The median of the three, and no window spread to trip over.
        assert_eq!(
            (row.metric, row.other, row.verdict),
            ("throughput", 1000.0, Verdict::Within)
        );
        assert!(medians(&[]).is_err());
    }

    #[test]
    fn lower_is_better_flips_the_direction() {
        assert_eq!(
            verdict(Better::Lower, 0.1, 2.0, 2.3, [None, None]),
            Verdict::Worse
        );
        assert_eq!(
            verdict(Better::Lower, 0.1, 2.0, 1.7, [None, None]),
            Verdict::Better
        );
        assert_eq!(
            verdict(Better::Lower, 0.1, 2.0, 2.1, [None, Some(0.05)]),
            Verdict::Within
        );
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let one = result_line(&[outcome("serve_hot_5k", 1000.0, 0.02)]);
        let keys: Vec<&str> = one
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metric = one.get("metrics").unwrap().get("p50_ms").unwrap();
        let keys: Vec<&str> = metric
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["value", "unit"]);
        assert!(!one.compact().contains('\n'));
        let two = result_line(&[outcome("a", 1.0, 0.0), outcome("b", 2.0, 0.0)]);
        assert!(two.get("metrics").unwrap().get("b/throughput").is_some());
        assert_eq!(two.get("attempted").unwrap().as_f64(), Some(20.0));
    }
}
