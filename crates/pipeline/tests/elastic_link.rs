//! `link` on the elastic runner: the same answer at every thread cap, and
//! no helper while the foreground gauge shows every core busy.
//!
//! The gauge and the runner's admission counter are process-wide, so the
//! tests here take turns (one lock) and nothing else in this binary
//! links, scans or writes. Interleavings are forced with channels, never
//! a timer.

use pprl_blocking::keys::BlockingKey;
use pprl_core::gauge::{cores, foreground};
use pprl_core::record::Dataset;
use pprl_core::runner::helpers_admitted;
use pprl_datagen::generator::{Generator, GeneratorConfig};
use pprl_encoding::hardening::Hardening;
use pprl_pipeline::batch::{link, BlockingChoice, LinkageResult, PipelineConfig};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Mutex, MutexGuard};
use std::thread::{self, JoinHandle};

static TURN: Mutex<()> = Mutex::new(());

fn my_turn() -> MutexGuard<'static, ()> {
    TURN.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A linked pair; at 3,000 records a side every stage of `link` passes
/// the runner's helper threshold, at 1,000 encoding and comparison do.
fn pair(size: usize, seed: u64) -> (Dataset, Dataset) {
    Generator::new(GeneratorConfig {
        seed,
        corruption_rate: 0.15,
        ..GeneratorConfig::default()
    })
    .expect("generator")
    .dataset_pair(size, size, size / 2)
    .expect("overlap below size")
}

/// Everything a run reports that must not depend on the thread cap.
fn observed(r: &LinkageResult) -> impl PartialEq + std::fmt::Debug + '_ {
    (
        &r.matches,
        r.candidates,
        r.comparisons,
        r.source,
        r.source_stats,
    )
}

fn configs() -> Vec<(&'static str, PipelineConfig, usize)> {
    let standard = PipelineConfig::standard(b"elastic".to_vec()).expect("config");
    let mut full = standard.clone();
    full.blocking = BlockingChoice::Full;
    let mut keyed = standard.clone();
    keyed.blocking = BlockingChoice::Standard(BlockingKey::person_default());
    // Salted, BLIP-hardened filters: a nonce per global row, and more
    // distinct salts than one thread's salt cache holds.
    let mut hardened = standard.clone();
    hardened.encoder.salt_field = Some("dob".into());
    hardened.encoder.hardening = vec![Hardening::Rule90, Hardening::Blip { epsilon: 3.0 }];
    hardened.threshold = 0.7;
    vec![
        ("lsh", standard, 3000),
        ("full", full, 1000),
        ("standard", keyed, 1500),
        ("salted blip", hardened, 1500),
    ]
}

#[test]
fn link_is_bit_identical_at_every_thread_cap() {
    let _turn = my_turn();
    let admitted = helpers_admitted();
    for (name, mut config, size) in configs() {
        let (a, b) = pair(size, 23);
        config.threads = 1;
        let want = link(&a, &b, &config).expect("one thread");
        assert!(!want.matches.is_empty(), "{name}: no matches");
        for threads in [2, 4, 8] {
            config.threads = threads;
            let got = link(&a, &b, &config).expect("capped");
            assert_eq!(
                observed(&got),
                observed(&want),
                "{name} at {threads} threads"
            );
        }
    }
    if cores() > 1 {
        assert!(
            helpers_admitted() > admitted,
            "no helper ran on an idle core: the caps were never exercised"
        );
    }
}

/// Holds a foreground guard on each of `n` threads until dropped.
struct Held {
    release: Vec<Sender<()>>,
    threads: Vec<JoinHandle<()>>,
}

fn hold(n: usize) -> Held {
    let (ready_tx, ready_rx) = channel();
    let mut held = Held {
        release: Vec::new(),
        threads: Vec::new(),
    };
    for _ in 0..n {
        let (release_tx, release_rx) = channel::<()>();
        let ready = ready_tx.clone();
        held.threads.push(thread::spawn(move || {
            let _busy = foreground();
            ready.send(()).expect("test waits for every holder");
            let _ = release_rx.recv(); // returns once the sender drops
        }));
        held.release.push(release_tx);
    }
    for _ in 0..n {
        ready_rx.recv().expect("holder ready");
    }
    held
}

impl Drop for Held {
    fn drop(&mut self) {
        self.release.clear();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

#[test]
fn a_saturated_gauge_admits_no_helper_to_a_large_link() {
    let _turn = my_turn();
    let (a, b) = pair(3000, 41);
    let mut config = PipelineConfig::standard(b"elastic".to_vec()).expect("config");
    config.threads = 1;
    let want = link(&a, &b, &config).expect("one thread");
    config.threads = 4;
    let held = hold(cores()); // with the caller: one more than cores
    let admitted = helpers_admitted();
    let got = link(&a, &b, &config).expect("capped at 4");
    assert_eq!(
        helpers_admitted(),
        admitted,
        "a helper ran with no idle core"
    );
    drop(held);
    assert_eq!(observed(&got), observed(&want));
}
