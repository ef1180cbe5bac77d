//! The whole-stack benchmark. See `README.md` next to this package.
//!
//! ```text
//! pprl-benchmark run [--workload NAME|all] [--seed N] [--seconds S]
//!                    [--trace 0|1] [--smoke] [--out FILE]
//! pprl-benchmark compare BASE.json OTHER.json
//! pprl-benchmark selfcheck [--seed N] [--seconds S] [--smoke]
//! ```

mod data;
mod fingerprint;
mod fixtures;
mod json;
mod layers;
mod load;
mod oracle;
mod report;
mod spec;
mod stats;
mod trace;
mod workloads;

use fixtures::Scratch;
use json::Json;
use load::Epoch;
use report::Verdict;
use spec::{Workload, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{Outcome, RunConfig};

/// Measuring time of a run when `--seconds` is not given; the same as
/// `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 12.0;

const USAGE: &str = "usage:
  pprl-benchmark run [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out FILE]
  pprl-benchmark compare BASE.json OTHER.json
  pprl-benchmark selfcheck [--seed N] [--seconds S] [--smoke]";

struct RunArgs {
    workloads: Vec<&'static Workload>,
    cfg: RunConfig,
    out: Option<PathBuf>,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workloads: WORKLOADS.iter().collect(),
        cfg: RunConfig {
            seed: 1,
            seconds: DEFAULT_SECONDS,
            trace: false,
            smoke: false,
        },
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => match value()? {
                "all" => {}
                name => {
                    let known = Workload::named(name).ok_or_else(|| {
                        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                        format!("unknown workload `{name}` (known: {})", names.join(", "))
                    })?;
                    parsed.workloads = vec![known];
                }
            },
            "--seed" => {
                parsed.cfg.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let seconds: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                parsed.cfg.seconds = seconds;
            }
            "--trace" => {
                parsed.cfg.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                };
            }
            "--smoke" => parsed.cfg.smoke = true,
            "--out" => parsed.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(parsed)
}

/// Runs the chosen workloads one after another in this process.
fn run_suite(args: &RunArgs, clock: &Epoch) -> (Json, Vec<Outcome>) {
    let fingerprint = fingerprint::fingerprint(args.cfg.seed);
    println!("fingerprint: {}", fingerprint.compact());
    let scratch = Scratch::new();
    let outcomes: Vec<Outcome> = args
        .workloads
        .iter()
        .map(|w| {
            println!(
                "\n-- {} (seed {}, {} s{}{})\n   {}",
                w.name,
                args.cfg.seed,
                args.cfg.seconds,
                if args.cfg.trace { ", traced" } else { "" },
                if args.cfg.smoke { ", smoke" } else { "" },
                w.why
            );
            let outcome = workloads::run(w, &args.cfg, clock, &scratch);
            report::print_outcome(&outcome);
            outcome
        })
        .collect();
    let results = report::results_json(fingerprint, &args.cfg, &outcomes);
    (results, outcomes)
}

fn write_out(path: &std::path::Path, json: &Json) {
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent).expect("create output directory");
    }
    std::fs::write(path, json.pretty()).expect("write output file");
    println!("wrote {}", path.display());
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let args = parse_run_args(args)?;
    let clock = Epoch::start();
    let (results, outcomes) = run_suite(&args, &clock);
    let out = args
        .out
        .clone()
        .unwrap_or_else(|| fixtures::out_dir().join("results.json"));
    write_out(&out, &results);
    // Last line of standard output: the result the driver reads.
    println!("{}", report::result_line(&outcomes).compact());
    Ok(if outcomes.iter().all(|o| o.correct) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn compare(args: &[String]) -> Result<ExitCode, String> {
    let [base, other] = args else {
        return Err("compare takes two results files".into());
    };
    let read = |path: &String| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|text| Json::parse(&text).map_err(|e| format!("{path}: {e}")))
    };
    let rows = report::compare(&read(base)?, &read(other)?, true)?;
    report::print_rows(&rows);
    Ok(if rows.iter().any(|r| r.verdict == Verdict::Worse) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// Pairs of suite runs `selfcheck` takes medians over. One pair cannot
/// tell the benchmark's own disagreement from a neighbour's burst.
const SELFCHECK_ROUNDS: usize = 3;

/// Runs the suite on the same code as two alternating sides and compares
/// their medians: the benchmark is only fit to judge a change if it
/// agrees with itself within its own bounds.
fn selfcheck(args: &[String]) -> Result<ExitCode, String> {
    let args = parse_run_args(args)?;
    if args.cfg.trace {
        return Err("selfcheck compares end-to-end metrics; run it without --trace".into());
    }
    let clock = Epoch::start();
    let mut sides: [Vec<Json>; 2] = [Vec::new(), Vec::new()];
    let mut correct = true;
    for round in 0..SELFCHECK_ROUNDS {
        // Alternate which side goes first, as a parent-and-change
        // comparison would.
        for side in if round % 2 == 0 { [0, 1] } else { [1, 0] } {
            let (results, outcomes) = run_suite(&args, &clock);
            correct &= outcomes.iter().all(|o| o.correct);
            sides[side].push(results);
        }
    }
    let first = report::medians(&sides[0])?;
    let second = report::medians(&sides[1])?;
    let rows = report::compare(&first, &second, false)?;
    println!();
    report::print_rows(&rows);
    let agree = rows.iter().all(|r| r.verdict == Verdict::Within);
    write_out(
        &fixtures::out_dir().join("selfcheck.json"),
        &Json::obj([
            ("agree", Json::Bool(agree)),
            ("correct", Json::Bool(correct)),
            ("rounds", Json::Num(SELFCHECK_ROUNDS as f64)),
            ("rows", report::rows_json(&rows)),
            ("first", first),
            ("second", second),
        ]),
    );
    println!(
        "selfcheck: {}",
        if agree && correct {
            "the two sides agree within every bound"
        } else {
            "FAILED — the two sides disagree, or an answer was wrong"
        }
    );
    Ok(if agree && correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((command, rest)) => match command.as_str() {
            "run" => run(rest),
            "compare" => compare(rest),
            "selfcheck" => selfcheck(rest),
            other => Err(format!("unknown command `{other}`")),
        },
        None => Err("no command given".into()),
    };
    result.unwrap_or_else(|message| {
        eprintln!("error: {message}\n{USAGE}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_flags_the_driver_passes() {
        let parsed = parse_run_args(&strings(&[
            "--workload",
            "serve_hot_5k",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(parsed.workloads.len(), 1);
        assert_eq!(parsed.workloads[0].name, "serve_hot_5k");
        assert_eq!(
            (parsed.cfg.seed, parsed.cfg.seconds, parsed.cfg.trace),
            (7, 10.0, true)
        );
        assert_eq!(
            parse_run_args(&[]).unwrap().workloads.len(),
            WORKLOADS.len()
        );
        assert!(parse_run_args(&strings(&["--workload", "nope"])).is_err());
        assert!(parse_run_args(&strings(&["--trace", "yes"])).is_err());
        assert!(parse_run_args(&strings(&["--seconds"])).is_err());
    }

    /// `--smoke`: every workload, end to end and traced, tiny sizes, one
    /// window — the whole suite in seconds, every answer checked.
    #[test]
    fn smoke_suite_finishes_in_seconds_and_is_correct() {
        let started = std::time::Instant::now();
        let clock = Epoch::start();
        for trace in [false, true] {
            let args = RunArgs {
                workloads: WORKLOADS.iter().collect(),
                cfg: RunConfig {
                    seed: 11,
                    seconds: 0.6,
                    trace,
                    smoke: true,
                },
                out: None,
            };
            let (results, outcomes) = run_suite(&args, &clock);
            for outcome in &outcomes {
                assert!(
                    outcome.correct,
                    "{}: {:?}",
                    outcome.workload, outcome.detail
                );
                assert_eq!(outcome.failed, 0, "{}", outcome.workload);
                let expected = if trace {
                    spec::PER_LAYER.len()
                } else {
                    spec::END_TO_END.len()
                };
                assert_eq!(outcome.metrics.len(), expected, "{}", outcome.workload);
                assert!(outcome.metrics.iter().all(|m| m.value.is_finite()));
            }
            assert_eq!(Json::parse(&results.pretty()).unwrap(), results);
        }
        assert!(
            started.elapsed().as_secs() < 60,
            "smoke took {:?}",
            started.elapsed()
        );
    }
}
