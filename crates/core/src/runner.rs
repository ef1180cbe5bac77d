//! The elastic task runner: the one fan-out for every loop that may
//! borrow idle cores — the index scan behind `IndexReader::top_k_batch`
//! and each heavy stage of `pipeline::batch::link` (encoding, Hamming-LSH
//! table build and probing, comparison).
//!
//! A call names its tasks `0..n` and an estimate of what one costs in
//! nanoseconds. The caller drains the tasks itself, claiming them in
//! order off an atomic counter. Before each claim it may admit one more
//! scoped helper, up to `min(threads, cores) − 1`, while the process-wide
//! [`gauge`] shows an idle core and the unclaimed tasks are estimated at
//! ≥ [`HELPER_MIN_NANOS`] — enough to pay for the spawn. A helper
//! re-checks before each claim and sleeps while foreground threads need
//! every core, so a writer gets its core back within one task. Each
//! participant keeps its own state (token memos, scan heaps, scratch
//! buffers), built by `init` on its own thread; [`map`] stitches per-task
//! outputs back in task order, so no result depends on how many helpers
//! ran or which tasks they took. `threads = 1` runs the same tasks on the
//! caller without spawning.

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
    if threads == 0 {
        return Err(PprlError::invalid("threads", "need at least one thread"));
    }
    let _busy = gauge::foreground();
    let next = &AtomicUsize::new(0);
    let left =
        || (tasks.saturating_sub(next.load(Ordering::Relaxed)) as u64).saturating_mul(task_nanos);
    // Claims tasks until none are left or `ready` says stop; an error
    // ends every participant's claims.
    let drain = |state: &mut S, ready: &mut dyn FnMut() -> bool| -> Result<()> {
        while ready() {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= tasks {
                break;
            }
            task(state, i).inspect_err(|_| next.store(tasks, Ordering::Relaxed))?;
        }
        Ok(())
    };
    let mut state = init();
    if !may_admit(threads, left()) {
        drain(&mut state, &mut || true)?;
        return Ok((state, Vec::new()));
    }
    std::thread::scope(|scope| {
        let (drain, init) = (&drain, &init);
        let mut helpers = Vec::new();
        let drained = drain(&mut state, &mut || {
            let budget = threads - helpers.len();
            if admits_helper(left(), gauge::occupied(), gauge::cores(), budget) {
                let slot = gauge::HelperSlot::enter();
                ADMITTED.fetch_add(1, Ordering::Relaxed);
                helpers.push(scope.spawn(move || {
                    let _slot = slot;
                    let mut state = init();
                    let done = || next.load(Ordering::Relaxed) >= tasks;
                    drain(&mut state, &mut || gauge::wait_for_core(done))?;
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
