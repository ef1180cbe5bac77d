//! The process-wide foreground gauge: how many threads are doing work a
//! client waits for, so the [`runner`](crate::runner) can lend a helper
//! only a core nobody else needs.
//!
//! A thread counts once while it holds at least one [`Foreground`]
//! guard (nested guards share one thread-local depth). Every caller of
//! [`runner::run`](crate::runner::run) holds one for the call — the
//! index scan behind `IndexReader::top_k_batch` and each stage of
//! `pipeline::batch::link` — as do `IndexStore` mutations and every
//! `pprl-server` worker serving a request. Runner helpers do not; they
//! are counted apart, from admission until they exit. A helper joins a
//! call only while foreground threads plus running helpers leave a core
//! idle, and before each task it re-checks and sleeps while they do not,
//! so a writer gets its core back within one task. Counts publish no
//! other data, so all ops are `Relaxed`.

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

/// Foreground threads plus running helpers.
pub(crate) fn occupied() -> usize {
    FOREGROUND.load(Ordering::Relaxed) + HELPERS.load(Ordering::Relaxed)
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
