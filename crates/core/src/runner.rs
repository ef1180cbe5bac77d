//! The elastic task runner: the one fan-out for every loop that may
//! borrow idle cores — the index scans behind `IndexReader::top_k` and
//! `IndexReader::top_k_batch`, and each heavy stage of
//! `pipeline::batch::link` (encoding, Hamming-LSH keying, map build,
//! join and merge, comparison).
//!
//! A call names its tasks `0..n` and an estimate of what one costs in
//! nanoseconds. The caller drains the tasks itself, claiming them in
//! order off an atomic counter ([`run`]); [`run_claims`] takes any other
//! [`Claims`] source instead, such as the shared circular pass behind
//! `IndexReader::top_k`, whose claims also serve other callers' probes.
//! Before each claim the caller may admit one more scoped helper, up to
//! `min(threads, cores) − 1`, while the process-wide
//! [`gauge`] shows an idle core and the unclaimed tasks are estimated at
//! ≥ [`HELPER_MIN_NANOS`] — enough to pay for the spawn. A helper
//! re-checks before each claim and sleeps while foreground threads need
//! every core.
//!
//! Such an *elastic* call (one that may admit helpers at all) can hold
//! every core for milliseconds, and the kernel protects a running
//! thread's time slice: a writer that wakes — for its due time, socket
//! data, an fsync completion — would wait out a scan thread's slice
//! before it could even take its foreground guard. So in an elastic
//! call every participant, caller and helpers alike, yields its core
//! before each claim, and a woken writer waits at most one task. A call
//! too small to admit a helper claims without yielding. Each
//! participant keeps its own state (token memos, scan heaps, scratch
//! buffers), a helper's built by `init` on its own thread; [`map`]
//! stitches per-task outputs back in task order, so no result depends
//! on how many helpers ran or which tasks they took. `threads = 1` runs
//! the same tasks on the caller without spawning.

use crate::error::{PprlError, Result};
use crate::gauge;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Estimated work a call must have left before a helper may join it:
/// ~2.1 ms, ~150× the ~14 µs a scoped spawn + join costs.
pub const HELPER_MIN_NANOS: u64 = 1 << 21;

/// Helpers admitted by every runner call of this process so far.
static ADMITTED: AtomicU64 = AtomicU64::new(0);

/// How many helpers runner calls in this process have admitted so far
/// (monotone; for tests and diagnostics).
pub fn helpers_admitted() -> u64 {
    ADMITTED.load(Ordering::Relaxed)
}

/// Whether a call capped at `threads` with `nanos` of estimated work
/// could admit a helper at all; callers that cut work finer for helpers
/// do so only then.
pub fn may_admit(threads: usize, nanos: u64) -> bool {
    threads > 1 && nanos >= HELPER_MIN_NANOS
}

/// Whether a call with `nanos` of work left may start one more helper,
/// when `occupied` threads hold `cores` cores and the call may still use
/// `threads` threads (its cap less the helpers it runs).
fn admits_helper(nanos: u64, occupied: usize, cores: usize, threads: usize) -> bool {
    may_admit(threads, nanos) && occupied < cores
}

/// Where the participants of one runner call take their tasks: a claim
/// source shared by the caller and every helper it admits.
pub trait Claims: Sync {
    /// What one claim hands the participant that took it.
    type Claim;
    /// The next claim, or `None` once the call has none left.
    fn claim(&self) -> Option<Self::Claim>;
    /// Claims the call may still hand out (for the admission estimate).
    fn left(&self) -> usize;
    /// Hands out no more claims: a task failed.
    fn close(&self);
}

/// Tasks `0..tasks`, claimed in order off an atomic counter.
struct Counter {
    next: AtomicUsize,
    tasks: usize,
}

impl Claims for Counter {
    type Claim = usize;

    fn claim(&self) -> Option<usize> {
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        (i < self.tasks).then_some(i)
    }

    fn left(&self) -> usize {
        self.tasks.saturating_sub(self.next.load(Ordering::Relaxed))
    }

    fn close(&self) {
        self.next.store(self.tasks, Ordering::Relaxed);
    }
}

/// Runs `task(state, i)` for every `i` in `0..tasks` on the caller and
/// whatever helpers the gauge admits, at most `threads` threads in all;
/// one task costs about `task_nanos`. Returns the caller's state and
/// then each helper's, for the caller to merge.
///
/// `threads = 0` is an [`PprlError::InvalidParameter`] error.
pub fn run<S, I, T>(
    threads: usize,
    tasks: usize,
    task_nanos: u64,
    init: I,
    task: T,
) -> Result<(S, Vec<S>)>
where
    S: Send,
    I: Fn() -> S + Sync,
    T: Fn(&mut S, usize) -> Result<()> + Sync,
{
    let counter = Counter {
        next: AtomicUsize::new(0),
        tasks,
    };
    run_claims(threads, &counter, task_nanos, init(), init, task)
}

/// [`run`] over any claim source: the caller starts from `state` and
/// each helper from `init()`; every participant runs `task` on each
/// claim it takes until `claims` has none left for it.
pub fn run_claims<C, S, I, T>(
    threads: usize,
    claims: &C,
    task_nanos: u64,
    mut state: S,
    init: I,
    task: T,
) -> Result<(S, Vec<S>)>
where
    C: Claims,
    S: Send,
    I: Fn() -> S + Sync,
    T: Fn(&mut S, C::Claim) -> Result<()> + Sync,
{
    if threads == 0 {
        return Err(PprlError::invalid("threads", "need at least one thread"));
    }
    let _busy = gauge::foreground();
    let left = || (claims.left() as u64).saturating_mul(task_nanos);
    // Claims tasks until none are left or `ready` says stop; an error
    // ends every participant's claims.
    let drain = |state: &mut S, ready: &mut dyn FnMut() -> bool| -> Result<()> {
        while ready() {
            let Some(claim) = claims.claim() else {
                break;
            };
            task(state, claim).inspect_err(|_| claims.close())?;
        }
        Ok(())
    };
    if !may_admit(threads, left()) {
        drain(&mut state, &mut || true)?;
        return Ok((state, Vec::new()));
    }
    std::thread::scope(|scope| {
        let (drain, init) = (&drain, &init);
        let mut helpers = Vec::new();
        let drained = drain(&mut state, &mut || {
            yield_core();
            let budget = threads - helpers.len();
            if admits_helper(left(), gauge::occupied(), gauge::cores(), budget) {
                let slot = gauge::HelperSlot::enter();
                ADMITTED.fetch_add(1, Ordering::Relaxed);
                helpers.push(scope.spawn(move || {
                    let _slot = slot;
                    let mut state = init();
                    let done = || claims.left() == 0;
                    drain(&mut state, &mut || {
                        yield_core();
                        gauge::wait_for_core(done)
                    })?;
                    Ok(state)
                }));
            }
            true
        });
        let mut states = Vec::with_capacity(helpers.len());
        let mut failed = drained.err();
        for helper in helpers {
            match helper.join().expect("runner helper panicked") {
                Ok(state) => states.push(state),
                Err(e) => failed = failed.or(Some(e)),
            }
        }
        failed.map_or(Ok((state, states)), Err)
    })
}

/// An elastic participant's step before each claim: gives its core to
/// any runnable thread, so a woken writer need not wait out the slice.
fn yield_core() {
    #[cfg(test)]
    YIELDS.with(|n| n.set(n.get() + 1));
    std::thread::yield_now();
}

#[cfg(test)]
thread_local! {
    /// Calls of [`yield_core`] on this thread.
    static YIELDS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// [`run`] for tasks that each produce an output: returns the outputs in
/// task order, whichever participant ran each task.
pub fn map<S, O, I, T>(
    threads: usize,
    tasks: usize,
    task_nanos: u64,
    init: I,
    task: T,
) -> Result<Vec<O>>
where
    S: Send,
    O: Send,
    I: Fn() -> S + Sync,
    T: Fn(&mut S, usize) -> Result<O> + Sync,
{
    let init = || (init(), Vec::new());
    let ((_, mut outputs), helpers) = run(threads, tasks, task_nanos, init, |(state, out), i| {
        out.push((i, task(state, i)?));
        Ok(())
    })?;
    for (_, theirs) in helpers {
        outputs.extend(theirs);
    }
    outputs.sort_unstable_by_key(|&(i, _)| i);
    Ok(outputs.into_iter().map(|(_, out)| out).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers_need_big_work_an_idle_core_and_thread_budget() {
        let big = HELPER_MIN_NANOS;
        assert!(admits_helper(big, 1, 2, 2));
        assert!(admits_helper(big, 1, 8, 4));
        assert!(
            !admits_helper(big - 1, 1, 2, 2),
            "too small to pay the spawn"
        );
        assert!(!admits_helper(big, 2, 2, 2), "no idle core");
        assert!(!admits_helper(big, 5, 4, 8), "oversubscribed");
        assert!(!admits_helper(big, 1, 2, 1), "thread cap reached");
        assert!(!admits_helper(big, 1, 1, 4), "one core: never");
        assert!(!admits_helper(u64::MAX, 0, 16, 0));
    }

    #[test]
    fn outputs_come_back_in_task_order_at_any_cap() {
        // Big enough to admit helpers where a core is idle.
        let cost = HELPER_MIN_NANOS;
        let want: Vec<usize> = (0..500).map(|i| i * i).collect();
        for threads in [1, 2, 4, 8] {
            let got = map(
                threads,
                500,
                cost,
                || 0usize,
                |seen, i| {
                    *seen += 1;
                    Ok(i * i)
                },
            )
            .unwrap();
            assert_eq!(got, want, "threads {threads}");
            let (caller, helpers) = run(
                threads,
                500,
                cost,
                || 0usize,
                |n, _| {
                    *n += 1;
                    Ok(())
                },
            )
            .unwrap();
            assert_eq!(caller + helpers.iter().sum::<usize>(), 500);
            assert!(helpers.len() < threads);
        }
    }

    fn yields() -> u64 {
        YIELDS.with(std::cell::Cell::get)
    }

    #[test]
    fn an_elastic_call_yields_once_per_claim_on_every_participant() {
        // Each participant notes its thread's yields at `init`; when it
        // runs its k-th task it has made exactly k claims, so it must
        // have yielded exactly k times. Retried until a helper joins,
        // since the process-wide gauge moves with the rest of the suite.
        let mut helper_ran = false;
        for _ in 0..100 {
            let (caller, helpers) = run(
                2,
                64,
                HELPER_MIN_NANOS,
                || (yields(), 0u64, true),
                |(base, claims, exact), _| {
                    *claims += 1;
                    *exact &= yields() - *base == *claims;
                    std::thread::sleep(std::time::Duration::from_micros(50));
                    Ok(())
                },
            )
            .unwrap();
            for (_, claims, exact) in std::iter::once(&caller).chain(&helpers) {
                assert!(exact, "a participant skipped a yield ({claims} claims)");
            }
            assert_eq!(caller.1 + helpers.iter().map(|h| h.1).sum::<u64>(), 64);
            helper_ran |= helpers.iter().any(|h| h.1 > 0);
            if helper_ran {
                break;
            }
        }
        assert!(helper_ran || gauge::cores() == 1, "no helper ever joined");
    }

    #[test]
    fn calls_that_cannot_admit_a_helper_never_yield() {
        let before = yields();
        // Too little work to pay for a helper, at any cap.
        map(4, 500, 1, || (), |(), i| Ok(i)).unwrap();
        // Enough work, but capped at the caller.
        map(1, 500, HELPER_MIN_NANOS, || (), |(), i| Ok(i)).unwrap();
        assert_eq!(yields(), before);
    }

    #[test]
    fn zero_threads_is_one_typed_error_even_with_no_tasks() {
        for tasks in [0, 3] {
            let err = map(0, tasks, 1, || (), |(), i| Ok(i)).unwrap_err();
            assert!(
                matches!(&err, PprlError::InvalidParameter { name, .. } if *name == "threads"),
                "{err}"
            );
        }
        assert!(map(1, 0, 1, || (), |(), i| Ok(i)).unwrap().is_empty());
    }

    #[test]
    fn a_failing_task_fails_the_call() {
        for threads in [1, 4] {
            let err = map(
                threads,
                300,
                HELPER_MIN_NANOS,
                || (),
                |(), i| {
                    if i == 150 {
                        Err(PprlError::ValueError("boom".into()))
                    } else {
                        Ok(i)
                    }
                },
            )
            .unwrap_err();
            assert!(matches!(err, PprlError::ValueError(_)), "{err}");
        }
    }
}
