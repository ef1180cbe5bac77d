//! A bounded MPMC job queue for the worker pool.
//!
//! Backpressure is the point: [`BoundedQueue::try_push`] never blocks
//! and never grows past capacity — when the queue is full the caller
//! gets its job back and answers the client with `Busy {retry_after}`
//! instead of buffering unbounded work. Workers block on
//! [`BoundedQueue::pop_timeout`] with a short timeout so they can poll
//! the server's shutdown flag between jobs.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::Duration;

#[derive(Debug)]
struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A fixed-capacity MPMC queue: non-blocking producers, blocking
/// (timeout-bounded) consumers.
#[derive(Debug)]
pub struct BoundedQueue<T> {
    capacity: usize,
    inner: Mutex<Inner<T>>,
    available: Condvar,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue holding at most `capacity` (≥ 1) items.
    pub fn new(capacity: usize) -> Self {
        BoundedQueue {
            capacity: capacity.max(1),
            inner: Mutex::new(Inner {
                items: VecDeque::new(),
                closed: false,
            }),
            available: Condvar::new(),
        }
    }

    /// Enqueues `item` without blocking. Returns `Err(item)` when the
    /// queue is full or closed, handing the job back so the caller can
    /// reject it explicitly.
    pub fn try_push(&self, item: T) -> std::result::Result<(), T> {
        let mut inner = self.inner.lock().expect("queue lock");
        if inner.closed || inner.items.len() >= self.capacity {
            return Err(item);
        }
        inner.items.push_back(item);
        drop(inner);
        self.available.notify_one();
        Ok(())
    }

    /// Dequeues one item, waiting up to `timeout`. Returns `None` on
    /// timeout or when the queue is closed and drained.
    pub fn pop_timeout(&self, timeout: Duration) -> Option<T> {
        let mut inner = self.inner.lock().expect("queue lock");
        loop {
            if let Some(item) = inner.items.pop_front() {
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            let (guard, result) = self
                .available
                .wait_timeout(inner, timeout)
                .expect("queue lock");
            inner = guard;
            if result.timed_out() {
                return inner.items.pop_front();
            }
        }
    }

    /// Closes the queue: further pushes fail, and blocked consumers wake
    /// up once the remaining items drain.
    pub fn close(&self) {
        self.inner.lock().expect("queue lock").closed = true;
        self.available.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn rejects_when_full_and_recovers_when_drained() {
        let q: BoundedQueue<u32> = BoundedQueue::new(2);
        assert!(q.try_push(1).is_ok());
        assert!(q.try_push(2).is_ok());
        assert_eq!(q.try_push(3), Err(3)); // full: job handed back
        assert_eq!(q.pop_timeout(Duration::from_millis(1)), Some(1));
        assert!(q.try_push(3).is_ok()); // capacity freed
        assert_eq!(q.try_push(4), Err(4)); // and full again
    }

    #[test]
    fn pop_times_out_on_empty_queue() {
        let q: BoundedQueue<u32> = BoundedQueue::new(1);
        assert_eq!(q.pop_timeout(Duration::from_millis(5)), None);
    }

    #[test]
    fn close_wakes_consumers_and_rejects_producers() {
        let q: Arc<BoundedQueue<u32>> = Arc::new(BoundedQueue::new(4));
        q.try_push(7).unwrap();
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let mut seen = Vec::new();
                while let Some(v) = q.pop_timeout(Duration::from_secs(5)) {
                    seen.push(v);
                }
                seen
            })
        };
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        assert_eq!(q.try_push(8), Err(8)); // closed
        assert_eq!(consumer.join().unwrap(), vec![7]); // drained then woke
    }

    #[test]
    fn many_producers_one_consumer_sees_everything() {
        let q: Arc<BoundedQueue<u32>> = Arc::new(BoundedQueue::new(64));
        let producers: Vec<_> = (0..4)
            .map(|p| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    for i in 0..16 {
                        let mut v = p * 16 + i;
                        loop {
                            match q.try_push(v) {
                                Ok(()) => break,
                                Err(back) => {
                                    v = back;
                                    std::thread::sleep(Duration::from_micros(10));
                                }
                            }
                        }
                    }
                })
            })
            .collect();
        let mut seen = Vec::new();
        while seen.len() < 64 {
            if let Some(v) = q.pop_timeout(Duration::from_secs(5)) {
                seen.push(v);
            }
        }
        for p in producers {
            p.join().unwrap();
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..64).collect::<Vec<_>>());
    }
}
