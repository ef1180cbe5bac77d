//! The process-wide foreground gauge: how many threads are doing work a
//! client waits for, so a large scan can borrow only a core nobody else
//! needs.
//!
//! A thread counts once while it holds at least one [`Foreground`]
//! guard (nested guards share one thread-local depth). Scan owners
//! (`IndexReader::top_k_batch` and the paths over it), `IndexStore`
//! mutations and every `pprl-server` worker serving a request hold one.
//! Scan helpers do not; they are counted apart, from admission until
//! they exit. A helper joins a call only while foreground threads plus
//! running helpers leave a core idle, and before each task it re-checks
//! and sleeps while they do not, so a writer gets its core back within
//! one task. Counts publish no other data, so all ops are `Relaxed`.

use std::cell::Cell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

static FOREGROUND: AtomicUsize = AtomicUsize::new(0);
static HELPERS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static DEPTH: Cell<usize> = const { Cell::new(0) };
}

/// Row-probe pairs a scan must have left before a helper may join it:
/// ~100× the ~17 µs a scoped spawn + join costs, at ~2 ns per pair.
pub(crate) const HELPER_MIN_WORK: u64 = 1 << 20;

/// How long a helper sleeps before re-checking for an idle core.
const YIELD_POLL: Duration = Duration::from_micros(100);

/// Marks the current thread busy with foreground work until dropped.
/// Not `Send`: the count is per thread.
#[must_use = "the thread counts as busy only while the guard lives"]
pub struct Foreground(PhantomData<*const ()>);

/// Counts the current thread as busy (once, however deeply nested).
pub fn foreground() -> Foreground {
    DEPTH.with(|depth| {
        if depth.get() == 0 {
            FOREGROUND.fetch_add(1, Ordering::Relaxed);
        }
        depth.set(depth.get() + 1);
    });
    Foreground(PhantomData)
}

impl Drop for Foreground {
    fn drop(&mut self) {
        DEPTH.with(|depth| {
            depth.set(depth.get() - 1);
            if depth.get() == 0 {
                FOREGROUND.fetch_sub(1, Ordering::Relaxed);
            }
        });
    }
}

/// Cores this process may run on (measured once).
pub fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Foreground threads plus running scan helpers.
pub(crate) fn occupied() -> usize {
    FOREGROUND.load(Ordering::Relaxed) + HELPERS.load(Ordering::Relaxed)
}

/// Whether a scan with `work` row-probe pairs left may start one more
/// helper, when `occupied` threads hold `cores` cores and the call may
/// still use `threads` threads (its cap less the helpers it runs).
pub(crate) fn admits_helper(work: u64, occupied: usize, cores: usize, threads: usize) -> bool {
    threads > 1 && occupied < cores && work >= HELPER_MIN_WORK
}

/// A helper's place in [`occupied`], taken at admission, released on exit.
pub(crate) struct HelperSlot(());

impl HelperSlot {
    pub(crate) fn enter() -> HelperSlot {
        HELPERS.fetch_add(1, Ordering::Relaxed);
        HelperSlot(())
    }
}

impl Drop for HelperSlot {
    fn drop(&mut self) {
        HELPERS.fetch_sub(1, Ordering::Relaxed);
    }
}

/// A helper's check before each claim: sleeps while the process has no
/// idle core; false if `done` reports the work ran out meanwhile.
pub(crate) fn wait_for_core(done: impl Fn() -> bool) -> bool {
    while occupied() > cores() {
        if done() {
            return false;
        }
        std::thread::sleep(YIELD_POLL);
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers_need_big_work_an_idle_core_and_thread_budget() {
        let big = HELPER_MIN_WORK;
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
    fn nested_guards_share_one_depth_and_release_in_any_order() {
        // The process-wide count moves with the rest of the suite; the
        // depth that decides when it moves is this thread's own.
        let depth = || DEPTH.with(Cell::get);
        let outer = foreground();
        let inner = foreground();
        assert_eq!(depth(), 2);
        drop(outer);
        assert_eq!(depth(), 1);
        drop(inner);
        assert_eq!(depth(), 0);
    }
}
