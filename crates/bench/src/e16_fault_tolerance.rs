//! E16 — fault-tolerant protocol sessions: linkage quality survives an
//! unreliable network, paid for in retransmissions, and party crashes
//! degrade gracefully instead of failing the run.
//!
//! Sweeps the fault rate of the simulated transport from 0 to 20% for the
//! two-party protocol (recall stays identical to the fault-free run while
//! retry traffic grows), sweeps the retry budget at a fixed fault rate
//! (too few retries ⇒ typed timeout, enough ⇒ full recovery), and crashes
//! one of four parties mid-multi-party-run under each quorum setting.

use crate::{f3, generator, Cell, Claim, Report, Size, Table};
use pprl_core::error::PprlError;
use pprl_protocols::transport::{Crash, FaultPlan};
use pprl_protocols::{
    multi_party_linkage, two_party_linkage, MultiPartyConfig, RetryPolicy, TwoPartyConfig,
};
use std::collections::HashSet;

/// `label` followed by `-` for every other column of a failed run.
fn failed_row(key: Cell, label: String, width: usize) -> Vec<Cell> {
    let mut row = vec![key, label.into()];
    row.resize(width, "-".into());
    row
}

/// The fault-rate sweep, the retry-budget sweep and the crash runs.
pub fn run(size: Size) -> Report {
    let mut g = generator(0.15, 16);
    let (n, overlap) = size.pick((60, 18), (100, 30));
    let (a, b) = g.dataset_pair(n, n, overlap).expect("valid");
    let truth: HashSet<_> = a.ground_truth_pairs(&b).into_iter().collect();
    let recall = |matches: &[(usize, usize, f64)]| {
        let tp = matches
            .iter()
            .filter(|&&(i, j, _)| truth.contains(&(i, j)))
            .count();
        tp as f64 / truth.len() as f64
    };
    let two_party = |plan: FaultPlan, max_retries: u32| {
        let mut cfg = TwoPartyConfig::standard(b"e16".to_vec()).expect("valid");
        cfg.fault_plan = plan;
        cfg.retry = RetryPolicy {
            max_retries,
            ..RetryPolicy::default()
        };
        two_party_linkage(&a, &b, &cfg)
    };
    let mut r = Report::default();

    let mut t = Table::new(
        "Two-party linkage as the network degrades (drop rate r, corrupt rate r/2, 8 retries):",
        &[
            "fault rate",
            "recall",
            "messages",
            "payload bytes",
            "retransmits",
            "overhead bytes",
        ],
    );
    for rate in [0.0, 0.02, 0.05, 0.10, 0.20] {
        let plan = FaultPlan {
            drop_rate: rate,
            corrupt_rate: rate / 2.0,
            ..FaultPlan::none()
        };
        let label = Cell::num(rate, format!("{:.0}%", rate * 100.0));
        t.row(match two_party(plan, 8) {
            Ok(out) => vec![
                label,
                f3(recall(&out.matches)),
                out.cost.messages.into(),
                out.cost.bytes.into(),
                out.session_stats.retransmissions.into(),
                out.session_stats.overhead_bytes.into(),
            ],
            Err(e) => failed_row(label, format!("failed: {e}"), 6),
        });
    }
    r.table(t);

    let mut t = Table::new(
        "Retry budget at a fixed 15% drop rate (exponential backoff, base 16 ticks):",
        &["max retries", "outcome", "retransmits", "timeouts"],
    );
    for retries in [0u32, 1, 2, 4, 8] {
        t.row(match two_party(FaultPlan::with_drop_rate(0.15), retries) {
            Ok(out) => vec![
                Cell::from(retries as usize),
                format!("completed, recall {:.3}", recall(&out.matches)).into(),
                out.session_stats.retransmissions.into(),
                out.session_stats.timeouts.into(),
            ],
            Err(PprlError::Timeout(_)) => failed_row(
                Cell::from(retries as usize),
                "typed timeout (budget exhausted)".into(),
                4,
            ),
            Err(e) => failed_row(
                Cell::from(retries as usize),
                format!("untyped failure: {e}"),
                4,
            ),
        });
    }
    r.table(t);

    let datasets = g.multi_party(4, 20, 6).expect("valid");
    let mut t = Table::new(
        "Party crash during a 4-party run (ring pattern, crash in round 3):",
        &["min parties", "outcome", "tuples", "matches", "failed"],
    );
    for quorum in [2usize, 4] {
        let mut cfg = MultiPartyConfig::standard(b"e16".to_vec());
        cfg.min_parties = quorum;
        cfg.fault_plan.crash = Some(Crash {
            party: 2,
            at_round: 3,
        });
        t.row(match multi_party_linkage(&datasets, &cfg) {
            Ok(out) => vec![
                quorum.into(),
                "degraded (survivors linked)".into(),
                out.tuples_compared.into(),
                out.matches.len().into(),
                format!("{:?}", out.failed_parties).into(),
            ],
            Err(PprlError::ProtocolError(m)) => {
                failed_row(quorum.into(), format!("typed abort: {m}"), 5)
            }
            Err(e) => failed_row(quorum.into(), format!("untyped failure: {e}"), 5),
        });
    }
    r.table(t);
    r
}

/// Retries hold recall; exhausted budgets and lost quorums fail typed.
pub fn claims(r: &Report) -> Vec<Claim> {
    let [faults, retries, crash] = [&r.tables[0], &r.tables[1], &r.tables[2]];
    let recall = faults.column("recall");
    let retransmits = faults.column("retransmits");
    let outcomes = |t: &Table| -> Vec<String> {
        (0..t.rows().len())
            .map(|i| t.cell(i, "outcome").text().to_string())
            .collect()
    };
    let budget = outcomes(retries);
    let crashed = outcomes(crash);
    vec![
        Claim::check(
            "every run up to a 20% fault rate completes with the fault-free recall",
            recall.iter().all(|&x| x == recall[0]),
        ),
        Claim::check(
            "retransmissions never fall as the fault rate rises",
            retransmits.windows(2).all(|w| w[1] >= w[0]),
        ),
        Claim::check(
            "at a 15% drop rate, 8 retries complete and every smaller budget that fails \
             fails as a typed timeout",
            budget.last().is_some_and(|o| o.starts_with("completed"))
                && budget
                    .iter()
                    .all(|o| o.starts_with("completed") || o.starts_with("typed timeout")),
        ),
        Claim::check(
            "a crashed party degrades a quorum-2 run to its survivors and aborts a quorum-4 \
             run with a typed error",
            crashed.len() == 2
                && crashed[0].starts_with("degraded")
                && crashed[1].starts_with("typed abort"),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(recall_at_20: Cell, last_budget: &str, quorum_4: &str) -> Report {
        let mut faults = Table::new("", &["recall", "retransmits"]);
        faults.row(vec![f3(1.0), 0usize.into()]);
        faults.row(vec![recall_at_20, 227usize.into()]);
        let mut retries = Table::new("", &["outcome"]);
        retries.row(vec!["typed timeout (budget exhausted)".into()]);
        retries.row(vec![last_budget.into()]);
        let mut crash = Table::new("", &["outcome"]);
        crash.row(vec!["degraded (survivors linked)".into()]);
        crash.row(vec![quorum_4.into()]);
        let mut r = Report::default();
        r.table(faults);
        r.table(retries);
        r.table(crash);
        r
    }

    #[test]
    fn lost_recall_or_untyped_failures_fail() {
        let done = "completed, recall 1.000";
        let abort = "typed abort: quorum lost";
        assert!(claims(&report(f3(1.0), done, abort)).iter().all(|c| c.pass));
        assert!(!claims(&report(f3(0.9), done, abort))[0].pass);
        assert!(!claims(&report("failed: timeout".into(), done, abort))[0].pass);
        assert!(!claims(&report(f3(1.0), "untyped failure: io", abort))[2].pass);
        assert!(!claims(&report(f3(1.0), done, "untyped failure: io"))[3].pass);
    }
}
