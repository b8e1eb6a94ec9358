//! LRU cache for Räcke tree distributions.
//!
//! The decomposition-tree distribution is the expensive half of a solve and
//! depends only on the communication topology and construction knobs
//! (Andersen–Feige; see `hgp_core::fingerprint`), not on the machine or the
//! rounding — so a long-running server reuses it across requests. Entries
//! are `Arc`-shared: a hit costs a hash lookup and a refcount bump, and an
//! entry being evicted while a worker still solves on it is harmless.
//!
//! Recency is tracked with monotone stamps and a lazy-deletion min-heap:
//! every access pushes a fresh `(stamp, key)` pair and eviction pops until
//! the top pair matches the key's live stamp. Stale pairs are discarded in
//! passing, and the heap is rebuilt from the live map whenever it grows
//! past a constant factor of the entry count — so both `get` and `insert`
//! stay `O(log n)` amortised under the lock, where the old implementation
//! scanned all `capacity` entries on every eviction.

use hgp_decomp::Distribution;
use parking_lot::Mutex;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Rebuild the recency heap when it holds more than this many stale pairs
/// per live entry.
const COMPACT_FACTOR: usize = 8;

struct Entry {
    dist: Arc<Distribution>,
    /// Logical timestamp of last access (monotone per cache).
    stamp: u64,
}

/// Map plus recency index, guarded by one lock.
struct Inner {
    map: HashMap<u64, Entry>,
    /// Min-heap of `(stamp, key)`; a pair is live iff `map[key].stamp`
    /// equals its stamp (lazy deletion).
    order: BinaryHeap<Reverse<(u64, u64)>>,
    clock: u64,
}

impl Inner {
    fn touch(&mut self, key: u64) -> u64 {
        let stamp = self.clock;
        self.clock += 1;
        self.order.push(Reverse((stamp, key)));
        stamp
    }

    /// Drops stale heap pairs once they dominate, keeping heap growth
    /// bounded by the live entry count.
    fn maybe_compact(&mut self) {
        if self.order.len() > COMPACT_FACTOR * self.map.len().max(1) {
            self.order = self
                .map
                .iter()
                .map(|(&k, e)| Reverse((e.stamp, k)))
                .collect();
        }
    }

    /// Removes the least-recently-used live entry.
    fn evict_one(&mut self) {
        while let Some(Reverse((stamp, key))) = self.order.pop() {
            match self.map.get(&key) {
                Some(e) if e.stamp == stamp => {
                    self.map.remove(&key);
                    return;
                }
                _ => continue, // stale pair: the key was touched again
            }
        }
    }
}

/// A bounded LRU map from distribution fingerprints to shared
/// distributions.
pub struct DecompCache {
    inner: Mutex<Inner>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl DecompCache {
    /// Cache holding at most `capacity` distributions (`0` disables
    /// caching: every lookup misses and nothing is stored).
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                order: BinaryHeap::new(),
                clock: 0,
            }),
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Looks up `key`, refreshing its recency on a hit.
    pub fn get(&self, key: u64) -> Option<Arc<Distribution>> {
        let mut inner = self.inner.lock();
        if inner.map.contains_key(&key) {
            let stamp = inner.touch(key);
            let e = inner.map.get_mut(&key).expect("checked contains_key");
            e.stamp = stamp;
            let dist = Arc::clone(&e.dist);
            inner.maybe_compact();
            self.hits.fetch_add(1, Ordering::Relaxed);
            Some(dist)
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            None
        }
    }

    /// Like [`DecompCache::get`] but without touching the hit/miss
    /// counters: used for internal re-checks (a single-flight leader
    /// confirming nobody published while it raced for leadership) that
    /// are not client lookups and must not skew the request-facing stats.
    pub fn peek(&self, key: u64) -> Option<Arc<Distribution>> {
        let mut inner = self.inner.lock();
        if inner.map.contains_key(&key) {
            let stamp = inner.touch(key);
            let e = inner.map.get_mut(&key).expect("checked contains_key");
            e.stamp = stamp;
            let dist = Arc::clone(&e.dist);
            inner.maybe_compact();
            Some(dist)
        } else {
            None
        }
    }

    /// Inserts `dist` under `key`, evicting the least-recently-used entry
    /// if the cache is full.
    ///
    /// Racing inserts of the same key are idempotent: the incumbent entry
    /// is kept and only its recency is refreshed (both values are
    /// equivalent by construction since the key fingerprints every input
    /// of the build). Replacing it instead — the old last-writer-wins
    /// semantics — would strand the loser's pair in the lazy-deletion heap,
    /// so a duplicate-heavy workload could grow it past the live-entry
    /// bound.
    pub fn insert(&self, key: u64, dist: Arc<Distribution>) {
        if self.capacity == 0 {
            return;
        }
        let mut inner = self.inner.lock();
        if inner.map.contains_key(&key) {
            let stamp = inner.touch(key);
            let e = inner.map.get_mut(&key).expect("checked contains_key");
            e.stamp = stamp;
            inner.maybe_compact();
            return;
        }
        if inner.map.len() >= self.capacity {
            inner.evict_one();
        }
        let stamp = inner.touch(key);
        inner.map.insert(key, Entry { dist, stamp });
        inner.maybe_compact();
    }

    /// Hit count since construction.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Miss count since construction.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        self.inner.lock().map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hgp_core::solver::SolverOptions;
    use hgp_core::{Instance, Solve};
    use hgp_graph::Graph;
    use hgp_hierarchy::presets;

    fn dist() -> Arc<Distribution> {
        let g = Graph::from_edges(4, &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]);
        let inst = Instance::uniform(g, 0.5);
        let h = presets::flat(4);
        let opts = SolverOptions::builder().trees(2).build();
        Arc::new(Solve::new(&inst, &h).options(opts).distribution().unwrap())
    }

    #[test]
    fn hit_miss_accounting() {
        let c = DecompCache::new(4);
        assert!(c.get(1).is_none());
        c.insert(1, dist());
        assert!(c.get(1).is_some());
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn evicts_least_recently_used() {
        let c = DecompCache::new(2);
        let d = dist();
        c.insert(1, Arc::clone(&d));
        c.insert(2, Arc::clone(&d));
        assert!(c.get(1).is_some()); // refresh 1 → 2 is now LRU
        c.insert(3, d);
        assert_eq!(c.len(), 2);
        assert!(c.get(1).is_some());
        assert!(c.get(2).is_none(), "LRU entry should have been evicted");
        assert!(c.get(3).is_some());
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let c = DecompCache::new(0);
        c.insert(1, dist());
        assert!(c.get(1).is_none());
        assert!(c.is_empty());
    }

    #[test]
    fn duplicate_insert_keeps_the_incumbent_and_refreshes_recency() {
        let c = DecompCache::new(2);
        let first = dist();
        let second = dist();
        c.insert(1, Arc::clone(&first));
        c.insert(2, Arc::clone(&second));
        // racing duplicate: the incumbent value survives...
        c.insert(1, Arc::clone(&second));
        let got = c.get(1).unwrap();
        assert!(
            Arc::ptr_eq(&got, &first),
            "incumbent must win duplicate race"
        );
        // ...and key 1 was refreshed twice, so 2 is the LRU entry
        c.insert(3, second);
        assert_eq!(c.len(), 2);
        assert!(c.get(2).is_none(), "2 was LRU and must be evicted");
        assert!(c.get(1).is_some() && c.get(3).is_some());
    }

    #[test]
    fn concurrent_insert_get_hammer_never_exceeds_capacity() {
        // satellite regression: 8 threads race inserts (duplicate keys
        // included) and lookups; the cache must never exceed capacity
        const CAP: usize = 4;
        let c = Arc::new(DecompCache::new(CAP));
        let d = dist();
        std::thread::scope(|s| {
            for t in 0..8 {
                let c = Arc::clone(&c);
                let d = Arc::clone(&d);
                s.spawn(move || {
                    for i in 0..200 {
                        let key = ((t + i) % 16) as u64;
                        c.insert(key, Arc::clone(&d));
                        assert!(c.len() <= CAP, "cache grew past capacity");
                        let _ = c.get((i % 16) as u64);
                    }
                });
            }
        });
        assert!(c.len() <= CAP);
        assert!(!c.is_empty());
    }

    #[test]
    fn eviction_order_survives_interleaved_get_insert() {
        // Exercise the lazy-deletion heap hard: repeated touches create
        // many stale pairs; eviction must still pick the true LRU entry.
        let c = DecompCache::new(3);
        let d = dist();
        c.insert(1, Arc::clone(&d));
        c.insert(2, Arc::clone(&d));
        c.insert(3, Arc::clone(&d));
        // recency now 1 < 2 < 3; touch 1 and 2 many times, interleaved
        for _ in 0..50 {
            assert!(c.get(1).is_some());
            assert!(c.get(2).is_some());
        }
        // 3 is the LRU despite being inserted last
        c.insert(4, Arc::clone(&d));
        assert_eq!(c.len(), 3);
        assert!(c.get(3).is_none(), "3 was LRU and must be evicted");
        assert!(c.get(1).is_some() && c.get(2).is_some() && c.get(4).is_some());

        // re-inserting an existing key refreshes it rather than evicting
        c.insert(1, Arc::clone(&d));
        assert_eq!(c.len(), 3);
        // now 2 is LRU (last touched before 4 and the re-insert of 1)...
        assert!(c.get(4).is_some());
        assert!(c.get(1).is_some());
        c.insert(5, Arc::clone(&d));
        assert!(c.get(2).is_none(), "2 was LRU and must be evicted");

        // a long churn keeps the cache exactly at capacity with the
        // expected survivors
        for k in 10..200 {
            c.insert(k, Arc::clone(&d));
            assert!(c.len() <= 3);
        }
        assert!(c.get(199).is_some());
        assert!(c.get(198).is_some());
        assert!(c.get(197).is_some());
        assert!(c.get(10).is_none());
    }
}
