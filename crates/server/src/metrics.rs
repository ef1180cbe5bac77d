//! Server metrics: lock-free counters and a fixed-bucket latency
//! histogram.
//!
//! The histogram uses power-of-two microsecond buckets (bucket `i`
//! covers `[2^(i-1), 2^i)` µs), so recording is one atomic increment
//! and quantile estimation walks at most 64 counters — no allocation,
//! no sorting, bounded error of at most one octave, which is plenty for
//! a p50/p99 stats surface.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Number of power-of-two buckets; `2^(BUCKETS-2)` µs ≈ 4.6 hours caps
/// the top bucket, far beyond any sane request latency.
const BUCKETS: usize = 44;

/// A fixed-bucket latency histogram with lock-free recording.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            count: AtomicU64::new(0),
        }
    }
}

impl LatencyHistogram {
    /// Records one observation, in microseconds.
    pub fn record_us(&self, us: u64) {
        let idx = (u64::BITS - us.leading_zeros()) as usize;
        let idx = idx.min(BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// The upper bound (in µs) of the bucket holding the `q`-quantile
    /// observation, or 0 when nothing was recorded. `q` is clamped to
    /// `[0, 1]`.
    pub fn quantile_us(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= target {
                // Bucket i covers [2^(i-1), 2^i); report its upper bound
                // minus one. Bucket 0 is exactly the value 0.
                return if i == 0 { 0 } else { (1u64 << i) - 1 };
            }
        }
        u64::MAX
    }
}

/// Aggregate server counters; every field is updated with relaxed
/// atomics from worker and maintenance threads.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Query requests answered.
    pub queries: AtomicU64,
    /// Link requests answered.
    pub links: AtomicU64,
    /// Insert requests applied.
    pub inserts: AtomicU64,
    /// Query answers served from the result cache.
    pub cache_hits: AtomicU64,
    /// Query answers computed against a snapshot.
    pub cache_misses: AtomicU64,
    /// Background compaction steps that merged at least one tier.
    pub compactions: AtomicU64,
    /// Segments merged away by background compaction.
    pub segments_merged: AtomicU64,
    /// Rows rewritten by arena-native segment merges during compaction.
    pub merge_rows: AtomicU64,
    /// Request latency histogram (query + link).
    pub latency: LatencyHistogram,
}

impl Metrics {
    /// Adds `n` to a counter.
    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Reads a counter.
    pub fn get(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }

    /// Records a request latency measured from `started`.
    pub fn observe_latency(&self, started: Instant) {
        self.latency.record_us(started.elapsed().as_micros() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reports_zero() {
        let h = LatencyHistogram::default();
        assert_eq!(h.quantile_us(0.5), 0);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn quantiles_land_in_the_right_octave() {
        let h = LatencyHistogram::default();
        // 90 fast observations around 100 µs, 10 slow around 50 ms.
        for _ in 0..90 {
            h.record_us(100);
        }
        for _ in 0..10 {
            h.record_us(50_000);
        }
        let p50 = h.quantile_us(0.50);
        let p99 = h.quantile_us(0.99);
        assert!((64..256).contains(&p50), "p50 = {p50}");
        assert!((32_768..131_072).contains(&p99), "p99 = {p99}");
        assert!(p50 < p99);
    }

    #[test]
    fn zero_and_huge_values_stay_in_bounds() {
        let h = LatencyHistogram::default();
        h.record_us(0);
        assert_eq!(h.quantile_us(0.5), 0);
        h.record_us(u64::MAX);
        assert_eq!(h.count(), 2);
        assert!(h.quantile_us(1.0) >= 1);
    }
}
