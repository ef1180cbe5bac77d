//! The shared scan pass behind `IndexReader::top_k`, driven claim by
//! claim.
//!
//! Every caller here runs `top_k_observed` on a thread of its own and
//! reports each claim it takes; it then waits, holding that claim
//! unscanned, until the test releases it. Exactly one caller runs at a
//! time, so the test decides every interleaving — which claim each
//! caller takes and where a new caller joins — with channels, never a
//! timer. Whatever the schedule, every answer must be bit-identical to
//! a brute-force `dice_bits` scan and to `top_k_batch`.
//!
//! `ReadStats::helper_rows` is asserted here too, so nothing else in
//! this binary may scan the readers these tests build.

use pprl_core::bitvec::BitVec;
use pprl_index::query::{Hit, IndexReader};
use pprl_similarity::bitvec_sim::dice_bits;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Mutex;
use std::thread::{self, Scope};

/// Filter width: short, so a debug build scans quickly.
const BITS: usize = 512;

/// Rows per slot, chosen so tasks of 2,048 rows end inside slots and at
/// slot ends alike: 3 + 2 + 1 tasks.
const SLOT_ROWS: [usize; 3] = [2 * 2048 + 300, 2048 + 1, 900];

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A filter of ~37.5 % density.
fn filter(state: &mut u64) -> BitVec {
    let words = (0..BITS / 64)
        .map(|_| splitmix(state) & (splitmix(state) | splitmix(state)))
        .collect();
    BitVec::from_words(words, BITS).expect("whole words")
}

/// Three probes and a corpus that holds near-copies of each and, for the
/// first, exact copies under several ids, so scores tie and ids decide.
fn fixture() -> (IndexReader, Vec<(u64, BitVec)>, Vec<BitVec>) {
    let mut state = 0x5CA7u64;
    let probes: Vec<BitVec> = (0..3).map(|_| filter(&mut state)).collect();
    let total: usize = SLOT_ROWS.iter().sum();
    let records: Vec<(u64, BitVec)> = (0..total as u64)
        .map(|id| {
            let f = match id % 997 {
                0 => probes[0].clone(),
                1 | 2 => {
                    let mut f = probes[(id % 3) as usize].clone();
                    f.flip((splitmix(&mut state) % BITS as u64) as usize);
                    f
                }
                _ => filter(&mut state),
            };
            (id * 7 % total as u64, f)
        })
        .collect();
    let mut slots = Vec::new();
    let mut rest = records.as_slice();
    for rows in SLOT_ROWS {
        let (slot, tail) = rest.split_at(rows);
        slots.push(slot.to_vec());
        rest = tail;
    }
    let reader = IndexReader::new(slots, BITS).expect("reader");
    (reader, records, probes)
}

fn brute_force(records: &[(u64, BitVec)], probe: &BitVec, k: usize) -> Vec<Hit> {
    let mut hits: Vec<Hit> = records
        .iter()
        .map(|(id, f)| Hit {
            id: *id,
            score: dice_bits(probe, f).expect("same width"),
        })
        .collect();
    hits.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.id.cmp(&b.id)));
    hits.truncate(k);
    hits
}

/// What a scripted caller reports from its thread.
enum Event {
    /// Took this claim of the pass and holds it until released.
    Claimed(u64),
    /// Found its span issued; it now waits for its tasks, then returns.
    Issued,
    /// The call returned (`Err` if it panicked).
    Done(thread::Result<Vec<Hit>>),
}

/// Where a scripted caller stands.
#[derive(Clone, Copy, Debug, PartialEq)]
enum At {
    Holding(u64),
    Finishing,
}

struct Caller {
    events: Receiver<Event>,
    go: Sender<()>,
    at: At,
    claims: Vec<u64>,
    /// The call's result, once it returned without a claim held.
    done: Option<thread::Result<Vec<Hit>>>,
}

impl Caller {
    /// Starts `top_k(probe, k)` on a thread of `scope` and waits for its
    /// first claim, which it holds (or for its result, if the call never
    /// joined the pass). `panic_at` makes the caller panic inside that
    /// claim instead of holding it.
    fn start<'s>(
        scope: &'s Scope<'s, '_>,
        reader: &'s IndexReader,
        probe: &'s BitVec,
        k: usize,
        panic_at: Option<u64>,
    ) -> Caller {
        let (events_tx, events) = channel();
        let (go, go_rx) = channel::<()>();
        scope.spawn(move || {
            let hook_tx = Mutex::new(events_tx.clone());
            let go_rx = Mutex::new(go_rx);
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                reader
                    .top_k_observed(probe, k, 1, |claim| {
                        if claim.is_some() && claim == panic_at {
                            panic!("scripted panic holding claim {claim:?}");
                        }
                        let event = claim.map_or(Event::Issued, Event::Claimed);
                        hook_tx.lock().unwrap().send(event).unwrap();
                        if claim.is_some() {
                            go_rx.lock().unwrap().recv().unwrap();
                        }
                    })
                    .expect("top_k")
            }));
            let _ = events_tx.send(Event::Done(result));
        });
        let mut caller = Caller {
            events,
            go,
            at: At::Finishing,
            claims: Vec::new(),
            done: None,
        };
        caller.note();
        caller
    }

    /// Reads the caller's next report: a claim it now holds, that its
    /// span is issued, or that it returned without either.
    fn note(&mut self) {
        match self.events.recv().expect("the caller reports") {
            Event::Claimed(claim) => {
                self.claims.push(claim);
                self.at = At::Holding(claim);
            }
            Event::Issued => self.at = At::Finishing,
            Event::Done(result) => {
                self.at = At::Finishing;
                self.done = Some(result);
            }
        }
    }

    /// Lets the caller scan its held claim and take its next one.
    fn step(&mut self) {
        assert!(matches!(self.at, At::Holding(_)), "{:?}", self.at);
        self.go.send(()).expect("the caller holds a claim");
        self.note();
    }

    /// Waits for the call to return (the caller must be finishing).
    fn join(mut self) -> thread::Result<Vec<Hit>> {
        assert_eq!(self.at, At::Finishing);
        if let Some(result) = self.done.take() {
            return result;
        }
        match self.events.recv().expect("the caller reports") {
            Event::Done(result) => result,
            _ => panic!("a finishing caller reported a claim"),
        }
    }
}

/// Steps holding callers round robin until every one is finishing.
fn run_out(callers: &mut [Caller]) {
    while callers.iter().any(|c| c.at != At::Finishing) {
        for caller in callers.iter_mut() {
            if caller.at != At::Finishing {
                caller.step();
            }
        }
    }
}

/// The pass's task count, from one scripted lone call.
fn lone_pass(reader: &IndexReader, probe: &BitVec) -> u64 {
    thread::scope(|s| {
        let mut caller = Caller::start(s, reader, probe, 1, None);
        run_out(std::slice::from_mut(&mut caller));
        let n = caller.claims.len() as u64;
        caller.join().expect("lone call");
        n
    })
}

/// Callers that ran together took each claim of the pass once, in
/// order, and each only claims of its own span: from the claim it
/// joined at, `n` long.
fn assert_one_pass(callers: &[Caller], n: u64) {
    let mut claims: Vec<u64> = callers.iter().flat_map(|c| c.claims.clone()).collect();
    claims.sort_unstable();
    let first = claims[0];
    let want: Vec<u64> = (first..first + claims.len() as u64).collect();
    assert_eq!(claims, want, "every claim once, none skipped");
    for caller in callers {
        let start = caller.claims[0];
        assert!(caller.claims.iter().all(|c| (start..start + n).contains(c)));
    }
}

/// A lone caller took all `n` claims of its span, so it visited every
/// task exactly once itself.
fn assert_covers_every_task(caller: &Caller, n: u64) {
    let mut tasks: Vec<u64> = caller.claims.iter().map(|c| c % n).collect();
    tasks.sort_unstable();
    assert_eq!(
        tasks,
        (0..n).collect::<Vec<_>>(),
        "claims {:?}",
        caller.claims
    );
}

const KS: [usize; 3] = [5, 12, 1];

#[test]
fn a_second_and_third_caller_join_at_every_task_boundary() {
    let (reader, records, probes) = fixture();
    let want: Vec<Vec<Hit>> = (0..3)
        .map(|i| {
            let expected = brute_force(&records, &probes[i], KS[i]);
            let batch = reader.top_k_batch(&[&probes[i]], KS[i], 1, None);
            assert_eq!(batch.expect("batch")[0], expected, "top_k_batch, probe {i}");
            expected
        })
        .collect();
    let n = lone_pass(&reader, &probes[0]);
    assert_eq!(n, 6, "3 + 2 + 1 tasks");
    let mut joins = 0;
    // B joins once A has taken `b` claims; C once A and B have been
    // stepped `t` more times between them, round robin.
    for b in 1..=n {
        for t in 0.. {
            let done = thread::scope(|s| {
                let mut a = Caller::start(s, &reader, &probes[0], KS[0], None);
                for _ in 1..b {
                    a.step();
                }
                let b_caller = Caller::start(s, &reader, &probes[1], KS[1], None);
                assert_eq!(
                    b_caller.claims[0],
                    a.claims[0] + b,
                    "B joins after A's claims"
                );
                let mut pair = [a, b_caller];
                let mut stepped = 0;
                'steps: while stepped < t {
                    for caller in pair.iter_mut() {
                        if stepped == t {
                            break 'steps;
                        }
                        if caller.at != At::Finishing {
                            caller.step();
                            stepped += 1;
                        }
                    }
                    if pair.iter().all(|c| c.at == At::Finishing) {
                        break;
                    }
                }
                let last = pair.iter().all(|c| c.at == At::Finishing);
                let c = Caller::start(s, &reader, &probes[2], KS[2], None);
                let [a, b_caller] = pair;
                let mut all = [a, b_caller, c];
                run_out(&mut all);
                assert_one_pass(&all, n);
                for (i, caller) in all.into_iter().enumerate() {
                    let got = caller.join().expect("no caller panics");
                    assert_eq!(got, want[i], "probe {i}, B after {b}, C after {t} steps");
                }
                last
            });
            joins += 1;
            if done {
                break;
            }
        }
    }
    assert!(joins >= 2 * n as usize, "{joins} schedules");
    // The scripted calls scanned for one another.
    let stats = reader.read_stats();
    assert!(stats.helper_rows > 0 && stats.helper_rows < stats.rows_scanned);
}

#[test]
fn co_participants_count_as_helper_rows_and_a_lone_call_as_none() {
    let (reader, records, probes) = fixture();
    let n = lone_pass(&reader, &probes[0]);
    assert_eq!(
        reader.top_k(&probes[1], 4, 4).expect("lone"),
        brute_force(&records, &probes[1], 4)
    );
    assert_eq!(
        reader.read_stats().helper_rows,
        0,
        "a lone call scans its own rows"
    );
    thread::scope(|s| {
        let mut a = Caller::start(s, &reader, &probes[0], 3, None);
        let mut b = Caller::start(s, &reader, &probes[1], 3, None);
        // A scans its first claim for itself alone, then its next one for
        // both probes.
        a.step();
        assert_eq!(
            reader.read_stats().helper_rows,
            0,
            "A's first task is its own"
        );
        a.step();
        assert!(
            reader.read_stats().helper_rows > 0,
            "A scanned a task for B"
        );
        run_out(std::slice::from_mut(&mut b));
        run_out(std::slice::from_mut(&mut a));
        assert_eq!(a.claims.len() + b.claims.len(), n as usize + 1);
        assert_eq!(a.join().expect("A"), brute_force(&records, &probes[0], 3));
        assert_eq!(b.join().expect("B"), brute_force(&records, &probes[1], 3));
    });
    let stats = reader.read_stats();
    assert!(stats.helper_rows < stats.rows_scanned, "{stats:?}");
}

#[test]
fn one_caller_finishes_while_another_continues() {
    let (reader, records, probes) = fixture();
    thread::scope(|s| {
        let mut a = Caller::start(s, &reader, &probes[0], 7, None);
        a.step();
        a.step();
        let mut b = Caller::start(s, &reader, &probes[2], 2, None);
        let a_end = a.claims[0] + 6;
        // Step both until A's span is issued, then B alone until its held
        // claim lies past A's span: A has nothing left in flight.
        while a.at != At::Finishing {
            a.step();
            if b.at != At::Finishing {
                b.step();
            }
        }
        while matches!(b.at, At::Holding(c) if c < a_end) {
            b.step();
        }
        assert!(matches!(b.at, At::Holding(_)), "B is mid-pass");
        assert_eq!(a.join().expect("A"), brute_force(&records, &probes[0], 7));
        run_out(std::slice::from_mut(&mut b));
        assert_eq!(b.join().expect("B"), brute_force(&records, &probes[2], 2));
    });
}

#[test]
fn a_lone_caller_wraps_from_a_non_zero_cursor() {
    let (reader, records, probes) = fixture();
    let n = lone_pass(&reader, &probes[1]);
    // Leave the cursor mid-way round: B joins A two claims in.
    thread::scope(|s| {
        let mut a = Caller::start(s, &reader, &probes[0], 3, None);
        a.step();
        let b = Caller::start(s, &reader, &probes[1], 3, None);
        let mut both = [a, b];
        run_out(&mut both);
        for caller in both {
            caller.join().expect("no panic");
        }
    });
    for k in [1, 9, 40] {
        for (i, probe) in probes.iter().enumerate() {
            let (got, claims) = thread::scope(|s| {
                let mut caller = Caller::start(s, &reader, probe, k, None);
                run_out(std::slice::from_mut(&mut caller));
                let claims = caller.claims.clone();
                assert_covers_every_task(&caller, n);
                (caller.join().expect("lone"), claims)
            });
            assert_ne!(claims[0] % n, 0, "the pass starts mid-way round");
            assert_eq!(got, brute_force(&records, probe, k), "probe {i} k {k}");
        }
    }
}

#[test]
fn a_participant_that_panics_mid_claim_fails_the_calls_it_covered() {
    let (reader, records, probes) = fixture();
    thread::scope(|s| {
        let a = Caller::start(s, &reader, &probes[0], 5, None);
        let joined = a.claims[0] + 1;
        // B panics inside the claim it joins at, which covers A too.
        let b = Caller::start(s, &reader, &probes[1], 5, Some(joined));
        assert_eq!(b.at, At::Finishing, "B's claim hook panicked");
        assert!(b.join().is_err(), "B's call panicked");
        let mut a = a;
        run_out(std::slice::from_mut(&mut a));
        assert!(a.join().is_err(), "A was covered by the failed claim");
    });
    // Both places were freed: the reader still answers exactly.
    for (i, probe) in probes.iter().enumerate() {
        assert_eq!(
            reader.top_k(probe, 6, 1).expect("after"),
            brute_force(&records, probe, 6),
            "{i}"
        );
    }
}

#[test]
fn a_call_that_finds_every_place_taken_scans_alone() {
    let (reader, records, probes) = fixture();
    thread::scope(|s| {
        // Fill the pass with held callers until one is turned away: it
        // returns without ever reporting a claim.
        let mut held: Vec<Caller> = Vec::new();
        let turned_away = loop {
            let probe = &probes[held.len() % 3];
            let caller = Caller::start(s, &reader, probe, 4, None);
            if caller.claims.is_empty() {
                break (probe, caller.join().expect("no panic"));
            }
            held.push(caller);
        };
        assert_eq!(held.len(), 64, "one place per bit of the pass's mask");
        assert_eq!(turned_away.1, brute_force(&records, turned_away.0, 4));
        run_out(&mut held);
        for (i, caller) in held.into_iter().enumerate() {
            assert_eq!(
                caller.join().expect("held"),
                brute_force(&records, &probes[i % 3], 4)
            );
        }
    });
}
