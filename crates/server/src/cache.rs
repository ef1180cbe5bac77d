//! A small LRU cache for query results.
//!
//! Keys are `(snapshot generation, filter bytes, k)`. Including the
//! generation makes the cache correct by construction against the
//! insert/compaction race: a query that pinned generation `g` can only
//! ever populate entries tagged `g`, so a result computed against an
//! old snapshot is never returned for a query against a newer one, even
//! if the population happens *after* the swap. The explicit
//! [`LruCache::clear`] on install is then purely memory hygiene —
//! superseded entries would otherwise linger until evicted.
//!
//! Recency is tracked with a monotonically stamped queue: each access
//! pushes a fresh `(stamp, key)` pair and stale pairs are skipped (and
//! periodically compacted) at eviction time. That keeps both hit and
//! miss paths O(1) amortised with `std` collections only.

use std::collections::{HashMap, VecDeque};

/// Cache key: snapshot generation, packed filter bytes, k.
pub type QueryKey = (u64, Vec<u8>, u32);

/// A generic LRU cache with stamped lazy recency tracking.
#[derive(Debug)]
pub struct LruCache<K, V> {
    capacity: usize,
    map: HashMap<K, (V, u64)>,
    recency: VecDeque<(u64, K)>,
    stamp: u64,
}

impl<K: std::hash::Hash + Eq + Clone, V: Clone> LruCache<K, V> {
    /// Creates a cache holding at most `capacity` entries; capacity 0
    /// disables caching (every `get` misses, every `put` is dropped).
    pub fn new(capacity: usize) -> Self {
        LruCache {
            capacity,
            map: HashMap::new(),
            recency: VecDeque::new(),
            stamp: 0,
        }
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    fn touch(&mut self, key: K) -> u64 {
        self.stamp += 1;
        self.recency.push_back((self.stamp, key));
        // The queue only grows past 4× capacity when it is mostly stale
        // stamps; compact it to the live entries.
        if self.recency.len() > 4 * self.capacity.max(4) {
            let map = &self.map;
            self.recency
                .retain(|(s, k)| map.get(k).is_some_and(|(_, live)| live == s));
        }
        self.stamp
    }

    /// Returns a clone of the cached value and marks it most recent.
    pub fn get(&mut self, key: &K) -> Option<V> {
        if !self.map.contains_key(key) {
            return None;
        }
        let stamp = self.touch(key.clone());
        let (value, live) = self.map.get_mut(key).expect("checked above");
        *live = stamp;
        Some(value.clone())
    }

    /// Inserts a value, evicting the least-recently-used entry if full.
    pub fn put(&mut self, key: K, value: V) {
        if self.capacity == 0 {
            return;
        }
        let stamp = self.touch(key.clone());
        self.map.insert(key, (value, stamp));
        while self.map.len() > self.capacity {
            match self.recency.pop_front() {
                Some((s, k)) => {
                    if self.map.get(&k).is_some_and(|(_, live)| *live == s) {
                        self.map.remove(&k);
                    }
                }
                None => break, // unreachable: map larger than recency queue
            }
        }
    }

    /// Drops every entry (used on insert/compaction install).
    pub fn clear(&mut self) {
        self.map.clear();
        self.recency.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_least_recently_used() {
        let mut c: LruCache<u32, &str> = LruCache::new(2);
        c.put(1, "a");
        c.put(2, "b");
        assert_eq!(c.get(&1), Some("a")); // 1 is now most recent
        c.put(3, "c"); // evicts 2
        assert_eq!(c.get(&2), None);
        assert_eq!(c.get(&1), Some("a"));
        assert_eq!(c.get(&3), Some("c"));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn overwrite_updates_value_and_recency() {
        let mut c: LruCache<u32, u32> = LruCache::new(2);
        c.put(1, 10);
        c.put(2, 20);
        c.put(1, 11); // refreshes 1
        c.put(3, 30); // evicts 2, not 1
        assert_eq!(c.get(&1), Some(11));
        assert_eq!(c.get(&2), None);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut c: LruCache<u32, u32> = LruCache::new(0);
        c.put(1, 10);
        assert_eq!(c.get(&1), None);
        assert!(c.is_empty());
    }

    #[test]
    fn clear_empties_everything() {
        let mut c: LruCache<u32, u32> = LruCache::new(4);
        c.put(1, 1);
        c.put(2, 2);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.get(&1), None);
    }

    #[test]
    fn recency_queue_stays_bounded_under_churn() {
        let mut c: LruCache<u32, u32> = LruCache::new(4);
        for i in 0..10_000u32 {
            c.put(i % 4, i);
            c.get(&(i % 4));
        }
        assert!(c.len() <= 4);
        assert!(
            c.recency.len() <= 4 * 4 + 1,
            "recency queue grew to {}",
            c.recency.len()
        );
    }
}
