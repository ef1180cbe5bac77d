//! The experiment driver:
//!
//! ```text
//! cargo run --release -p pprl-bench -- [--smoke] [--only E4]
//! ```
//!
//! Runs every experiment (or the one `--only` names), prints its tables
//! and one `PASS` / `FAIL` line per claim, writes `results/<exp>.json`
//! after a full-size run (a `--smoke` run writes nothing), and exits 1 if
//! any claim fails.

#![forbid(unsafe_code)]

use pprl_bench::report::results_dir;
use pprl_bench::{timed, Size, EXPERIMENTS};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut size = Size::Full;
    let mut only = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match (arg.as_str(), &only) {
            ("--smoke", _) => size = Size::Smoke,
            ("--only", None) => only = Some(args.next().unwrap_or_default()),
            _ => only = Some(String::new()),
        }
    }
    let chosen: Vec<_> = EXPERIMENTS
        .iter()
        .filter(|e| only.as_ref().is_none_or(|id| e.id.eq_ignore_ascii_case(id)))
        .collect();
    if chosen.is_empty() {
        let ids: Vec<_> = EXPERIMENTS.iter().map(|e| e.id).collect();
        eprintln!(
            "usage: pprl-bench [--smoke] [--only ID]\nIDs: {}",
            ids.join(" ")
        );
        return ExitCode::from(2);
    }

    let (mut failed, mut total) = (0, 0.0);
    for exp in chosen {
        let rule = "=".repeat(62);
        println!("{rule}\n{}: {}\n{rule}", exp.id, exp.title);
        let (report, elapsed) = timed(|| (exp.run)(size));
        total += elapsed;
        println!("{report}");
        let claims = (exp.claims)(&report);
        for c in &claims {
            let verdict = if c.pass { "PASS" } else { "FAIL" };
            let timing = if c.timing { " (timing)" } else { "" };
            println!("{verdict} {}{timing}", c.text);
        }
        failed += claims.iter().filter(|c| !c.pass).count();
        if size == Size::Full {
            let path = results_dir().join(format!("{}.json", exp.stem));
            let json = report.to_json(exp.id, exp.title, &claims).render();
            std::fs::write(&path, json).expect("write the results file");
            println!("results: {}", path.display());
        }
        println!("{} ran in {elapsed:.2} s\n", exp.id);
    }
    println!("total {total:.1} s; {failed} claim(s) failed");
    ExitCode::from(u8::from(failed > 0))
}
