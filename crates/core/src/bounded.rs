//! A bounded, thread-safe map with second-chance eviction: what the
//! expansion memo (DESIGN §10.5) and the schedule plans (§10.6) inside
//! the [`EvalCache`](crate::EvalCache) are held in.
//!
//! Each entry has a weight, and the weights held stay within the
//! capacity. Inserting beyond it evicts the oldest entries first, except
//! that one read since eviction last passed over it is moved to the
//! back once instead (the clock algorithm's second chance), so an entry
//! jobs keep reading outlives those read once. An evicted entry is
//! recomputed on its next use, with the same result: both users hold
//! pure functions of their keys.

use std::collections::{HashMap, VecDeque};
use std::sync::Mutex;

/// Entries keyed by a 64-bit hash, weighing at most `capacity` in all.
pub(crate) struct BoundedMap<V> {
    capacity: usize,
    inner: Mutex<Inner<V>>,
}

struct Inner<V> {
    map: HashMap<u64, Held<V>>,
    /// Keys in eviction order: insertion order, with each entry given a
    /// second chance moved to the back.
    order: VecDeque<u64>,
    /// The weights of every held entry, summed.
    weight: usize,
    /// Entries evicted over the map's lifetime.
    evictions: u64,
}

impl<V> Default for Inner<V> {
    fn default() -> Self {
        Inner {
            map: HashMap::new(),
            order: VecDeque::new(),
            weight: 0,
            evictions: 0,
        }
    }
}

/// One held entry.
struct Held<V> {
    value: V,
    weight: usize,
    /// Read since eviction last passed over it.
    used: bool,
}

impl<V: Clone> BoundedMap<V> {
    /// A map holding entries of total weight at most `capacity`.
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        BoundedMap {
            capacity,
            inner: Mutex::new(Inner::default()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner<V>> {
        self.inner
            .lock()
            .expect("no bounded-map operation panics while holding the lock")
    }

    /// The most weight the map holds.
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Entries held.
    pub(crate) fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// The weights of the entries held, summed.
    pub(crate) fn weight(&self) -> usize {
        self.lock().weight
    }

    /// Entries evicted over the map's lifetime.
    #[cfg(test)]
    pub(crate) fn evictions(&self) -> u64 {
        self.lock().evictions
    }

    /// Drops every entry (the eviction count is kept).
    pub(crate) fn clear(&self) {
        let mut inner = self.lock();
        let evictions = inner.evictions;
        *inner = Inner {
            evictions,
            ..Inner::default()
        };
    }

    /// The value under `key`, marked as read.
    pub(crate) fn get(&self, key: u64) -> Option<V> {
        let mut inner = self.lock();
        let held = inner.map.get_mut(&key)?;
        held.used = true;
        Some(held.value.clone())
    }

    /// Stores `value`, of weight `weight`, under `key`, evicting entries
    /// to stay within the capacity. A value heavier than the capacity is
    /// not stored, and a racing second insert of a key is a no-op (both
    /// writers computed the same value).
    pub(crate) fn insert(&self, key: u64, value: V, weight: usize) {
        if weight > self.capacity {
            return;
        }
        let mut inner = self.lock();
        if inner.map.contains_key(&key) {
            return;
        }
        // Evicted values are dropped after the lock is released.
        let mut evicted = Vec::new();
        while inner.weight + weight > self.capacity {
            let old = inner
                .order
                .pop_front()
                .expect("weight above zero means an entry is held");
            let held = inner
                .map
                .get_mut(&old)
                .expect("the order lists held keys only");
            if std::mem::take(&mut held.used) {
                inner.order.push_back(old);
                continue;
            }
            let held = inner.map.remove(&old).expect("just found");
            inner.weight -= held.weight;
            inner.evictions += 1;
            evicted.push(held.value);
        }
        inner.weight += weight;
        inner.order.push_back(key);
        inner.map.insert(
            key,
            Held {
                value,
                weight,
                used: false,
            },
        );
        drop(inner);
        drop(evicted);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The second chance under a stream of cold entries is tested through
    // the expansion memo (`a_hot_job_keeps_its_neighbourhoods_between_cold_jobs`).
    #[test]
    fn too_heavy_values_and_repeated_keys_are_not_stored() {
        let map = BoundedMap::with_capacity(4);
        map.insert(1, 10, 5);
        assert_eq!(map.get(1), None, "heavier than the capacity");
        map.insert(2, 20, 3);
        map.insert(2, 21, 3);
        assert_eq!(
            (map.get(2), map.weight()),
            (Some(20), 3),
            "first write wins"
        );
        // Entry 2 was read, so it is passed over once, then evicted: it is
        // the only entry there is to make room.
        map.insert(3, 30, 3);
        assert_eq!((map.len(), map.weight(), map.evictions()), (1, 3, 1));
        assert_eq!((map.get(2), map.get(3)), (None, Some(30)));
        map.clear();
        assert_eq!((map.len(), map.weight(), map.evictions()), (0, 0, 1));
    }
}
