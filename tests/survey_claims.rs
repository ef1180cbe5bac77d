//! The survey's claims, checked: every experiment of `pprl-bench` runs at
//! smoke size and every claim that does not rest on wall-clock timing
//! must hold. Timing claims are checked by the release driver
//! (`cargo run --release -p pprl-bench -- --smoke`): this is a debug
//! build sharing its cores with other tests. Nothing is written to disk
//! beyond E4a's temporary index.

use pprl_bench::{Size, EXPERIMENTS};

fn claims_hold(id: &str) {
    let exp = EXPERIMENTS
        .iter()
        .find(|e| e.id == id)
        .expect("a registered experiment");
    let report = (exp.run)(Size::Smoke);
    let failed: Vec<_> = (exp.claims)(&report)
        .into_iter()
        .filter(|c| !c.timing && !c.pass)
        .map(|c| c.text)
        .collect();
    assert!(failed.is_empty(), "{id} failed {failed:#?}\n{report}");
}

macro_rules! survey_claims {
    ($($test:ident: $id:literal),+ $(,)?) => {
        $(#[test]
        fn $test() {
            claims_hold($id);
        })+

        #[test]
        fn every_experiment_is_checked() {
            let checked = [$($id),+];
            let registered: Vec<_> = EXPERIMENTS.iter().map(|e| e.id).collect();
            assert_eq!(registered, checked);
        }
    };
}

survey_claims! {
    e01_taxonomy: "E1",
    e02_bf_string: "E2",
    e03_bf_numeric: "E3",
    e04_blocking: "E4",
    e04a_backend_compare: "E4a",
    e05_comm_patterns: "E5",
    e06_attack: "E6",
    e07_slk: "E7",
    e08_dp_tradeoff: "E8",
    e09_secure_edit: "E9",
    e10a_classification: "E10a",
    e10b_clustering: "E10b",
    e11_fairness: "E11",
    e12a_parallel: "E12a",
    e12b_streaming: "E12b",
    e13_tuning: "E13",
    e14_interactive: "E14",
    e15_audit: "E15",
    e16_fault_tolerance: "E16",
    e19_scan_kernel: "E19",
}
