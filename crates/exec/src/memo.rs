//! Concurrent memoization with per-key once-only computation.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Hit/miss counters and size of a [`MemoCache`].
///
/// Because each key is computed exactly once (under its slot lock), the
/// counters are deterministic for a deterministic workload: they do not
/// depend on the job count or on scheduling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to compute the value.
    pub misses: u64,
    /// Completed entries currently stored.
    pub entries: usize,
}

impl std::fmt::Display for CacheStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} hits, {} misses, {} entries", self.hits, self.misses, self.entries)
    }
}

/// A value slot: `None` until its first successful computation.
type Slot<V> = Mutex<Option<V>>;

/// A concurrent memoization table.
///
/// Unlike a plain `Mutex<HashMap>`, computation happens under a *per-key*
/// lock: concurrent requests for the same key compute it once (the losers
/// block briefly and read the winner's value), while requests for
/// different keys never contend beyond the brief map lookup. A failed
/// computation leaves the slot empty so a later request can retry.
///
/// Locks are poison-tolerant — a panic inside the computing closure (the
/// experiment harness catches those) leaves the slot empty, not wedged.
///
/// Re-entrancy on the *same key* from the computing closure would
/// deadlock; computations must not consult the cache they are filling with
/// their own key.
#[derive(Debug, Default)]
pub struct MemoCache<K, V> {
    slots: Mutex<HashMap<K, Arc<Slot<V>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Global-registry mirrors of `hits` / `misses` for named caches.
    /// Unlike the local counters these survive [`MemoCache::clear`], so a
    /// cumulative metrics export still reflects all traffic.
    obs: Option<(Arc<bitline_obs::Counter>, Arc<bitline_obs::Counter>)>,
}

fn relock<'a, T>(
    r: Result<MutexGuard<'a, T>, PoisonError<MutexGuard<'a, T>>>,
) -> MutexGuard<'a, T> {
    r.unwrap_or_else(PoisonError::into_inner)
}

impl<K: Eq + Hash, V: Clone> MemoCache<K, V> {
    /// An empty cache.
    #[must_use]
    pub fn new() -> MemoCache<K, V> {
        MemoCache {
            slots: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            obs: None,
        }
    }

    /// An empty cache that mirrors its hit/miss counters into the global
    /// metrics registry as `{name}.hits` / `{name}.misses`. The registry
    /// handles are interned here, once, so the lookup path stays one
    /// relaxed atomic add per counter.
    #[must_use]
    pub fn named(name: &str) -> MemoCache<K, V> {
        let registry = bitline_obs::registry();
        MemoCache {
            obs: Some((
                registry.counter(&format!("{name}.hits")),
                registry.counter(&format!("{name}.misses")),
            )),
            ..MemoCache::new()
        }
    }

    /// Returns the cached value for `key`, computing it with `f` on first
    /// use. `Err` results are returned but **not** cached.
    ///
    /// # Errors
    ///
    /// Whatever `f` returns; the slot stays empty in that case.
    pub fn get_or_try_insert_with<E>(
        &self,
        key: K,
        f: impl FnOnce() -> Result<V, E>,
    ) -> Result<V, E> {
        let slot = Arc::clone(relock(self.slots.lock()).entry(key).or_default());
        let mut value = relock(slot.lock());
        if let Some(v) = value.as_ref() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            if let Some((hits, _)) = &self.obs {
                hits.incr();
            }
            return Ok(v.clone());
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        if let Some((_, misses)) = &self.obs {
            misses.incr();
        }
        let v = f()?;
        *value = Some(v.clone());
        Ok(v)
    }

    /// [`MemoCache::get_or_try_insert_with`] for several keys at once: one
    /// call of `f` computes the values of the distinct keys not cached yet,
    /// in first-occurrence order, and the result holds one value per key,
    /// in `keys` order. `Err` results are returned and nothing is stored.
    ///
    /// The counters move as they would for one lookup per key in order:
    /// each distinct key not cached yet is a miss, and every other lookup,
    /// a repeat included, is a hit. The slots of all the keys stay locked
    /// while `f` runs; they are taken in one fixed order (their addresses),
    /// so callers whose key sets overlap cannot deadlock.
    ///
    /// # Errors
    ///
    /// Whatever `f` returns.
    ///
    /// # Panics
    ///
    /// Panics when `f` returns a value count other than the number of
    /// keys it was given.
    pub fn get_or_try_insert_all<E>(
        &self,
        keys: &[K],
        f: impl FnOnce(&[&K]) -> Result<Vec<V>, E>,
    ) -> Result<Vec<V>, E>
    where
        K: Clone,
    {
        let slots: Vec<Arc<Slot<V>>> = {
            let mut map = relock(self.slots.lock());
            keys.iter().map(|k| Arc::clone(map.entry(k.clone()).or_default())).collect()
        };
        // Each key's first occurrence: a repeated key reads that slot.
        let first: Vec<usize> =
            (0..keys.len()).map(|i| (0..i).find(|&j| keys[j] == keys[i]).unwrap_or(i)).collect();
        let mut order: Vec<usize> = (0..keys.len()).filter(|&i| first[i] == i).collect();
        order.sort_unstable_by_key(|&i| Arc::as_ptr(&slots[i]) as usize);
        let mut guards: Vec<Option<MutexGuard<'_, Option<V>>>> =
            keys.iter().map(|_| None).collect();
        for i in order {
            guards[i] = Some(relock(slots[i].lock()));
        }
        let missing: Vec<usize> =
            (0..keys.len()).filter(|&i| guards[i].as_ref().is_some_and(|v| v.is_none())).collect();
        let misses = missing.len() as u64;
        let hits = keys.len() as u64 - misses;
        self.hits.fetch_add(hits, Ordering::Relaxed);
        self.misses.fetch_add(misses, Ordering::Relaxed);
        if let Some((hit_counter, miss_counter)) = &self.obs {
            hit_counter.add(hits);
            miss_counter.add(misses);
        }
        if !missing.is_empty() {
            let computed = f(&missing.iter().map(|&i| &keys[i]).collect::<Vec<_>>())?;
            assert_eq!(computed.len(), missing.len(), "one value per missing key");
            for (i, v) in missing.into_iter().zip(computed) {
                if let Some(slot) = guards[i].as_mut() {
                    **slot = Some(v);
                }
            }
        }
        let value = |&i: &usize| guards[i].as_ref().and_then(|v| (**v).clone());
        Ok(first.iter().map(|i| value(i).expect("a filled slot")).collect())
    }

    /// Infallible [`MemoCache::get_or_try_insert_with`].
    pub fn get_or_insert_with(&self, key: K, f: impl FnOnce() -> V) -> V {
        self.get_or_try_insert_with(key, || Ok::<V, std::convert::Infallible>(f()))
            .unwrap_or_else(|e| match e {})
    }

    /// Stores `value` for `key` without touching the hit/miss counters;
    /// the first write wins if the key is already filled. Used to warm
    /// the cache from a checkpoint journal before any lookups happen.
    pub fn insert(&self, key: K, value: V) {
        let slot = Arc::clone(relock(self.slots.lock()).entry(key).or_default());
        let mut stored = relock(slot.lock());
        if stored.is_none() {
            *stored = Some(value);
        }
    }

    /// Current counters and completed-entry count.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        let entries = relock(self.slots.lock())
            .values()
            .filter(|slot| slot.try_lock().is_ok_and(|v| v.is_some()))
            .count();
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries,
        }
    }

    /// Drops every entry and resets the counters (for cold-vs-warm
    /// comparisons in tests and the CI smoke target).
    pub fn clear(&self) {
        relock(self.slots.lock()).clear();
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;

    use super::*;
    use crate::pool;

    #[test]
    fn second_lookup_hits() {
        let cache: MemoCache<&'static str, u32> = MemoCache::new();
        assert_eq!(cache.get_or_insert_with("a", || 1), 1);
        assert_eq!(cache.get_or_insert_with("a", || unreachable!()), 1);
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1, entries: 1 });
    }

    #[test]
    fn errors_are_not_cached() {
        let cache: MemoCache<u8, u8> = MemoCache::new();
        let r: Result<u8, &str> = cache.get_or_try_insert_with(1, || Err("nope"));
        assert_eq!(r, Err("nope"));
        assert_eq!(cache.get_or_try_insert_with(1, || Ok::<_, &str>(9)), Ok(9));
        // Both attempts count as misses; only the success is stored.
        assert_eq!(cache.stats(), CacheStats { hits: 0, misses: 2, entries: 1 });
    }

    #[test]
    fn concurrent_same_key_computes_once() {
        let cache: MemoCache<u32, u32> = MemoCache::new();
        let computed = AtomicU64::new(0);
        let out = pool::with_jobs(8, || {
            pool::run_indexed(32, |_| {
                cache.get_or_insert_with(42, || {
                    computed.fetch_add(1, Ordering::Relaxed);
                    7
                })
            })
        });
        assert!(out.iter().all(|&v| v == 7));
        assert_eq!(computed.load(Ordering::Relaxed), 1, "one computation for 32 requests");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (31, 1, 1));
    }

    #[test]
    fn a_batch_computes_each_missing_key_once_and_counts_like_single_lookups() {
        let cache: MemoCache<u32, u32> = MemoCache::new();
        let _ = cache.get_or_insert_with(1, || 10);
        let asked = RefCell::new(Vec::new());
        let got = cache.get_or_try_insert_all(&[2, 1, 2, 3], |missing| {
            asked.borrow_mut().extend(missing.iter().map(|&&k| k));
            Ok::<_, ()>(missing.iter().map(|&&k| k * 10).collect())
        });
        assert_eq!(got, Ok(vec![20, 10, 20, 30]));
        assert_eq!(*asked.borrow(), [2, 3], "distinct missing keys, first occurrence order");
        // 1 miss for the seed, then 2 and 3 miss; 1 and the repeated 2 hit.
        assert_eq!(cache.stats(), CacheStats { hits: 2, misses: 3, entries: 3 });
        let warm = cache.get_or_try_insert_all(&[3, 3], |_| -> Result<Vec<u32>, ()> {
            unreachable!("nothing is missing")
        });
        assert_eq!(warm, Ok(vec![30, 30]));
    }

    #[test]
    fn a_failed_batch_stores_nothing() {
        let cache: MemoCache<u32, u32> = MemoCache::new();
        assert_eq!(cache.get_or_try_insert_all(&[1, 2], |_| Err("budget")), Err("budget"));
        assert_eq!(cache.stats().entries, 0);
        assert_eq!(
            cache.get_or_try_insert_all(&[2, 1], |m| Ok::<_, ()>(vec![7; m.len()])),
            Ok(vec![7, 7])
        );
    }

    #[test]
    fn overlapping_batches_in_opposite_orders_compute_each_key_once() {
        let cache: MemoCache<u32, u32> = MemoCache::new();
        let computed = AtomicU64::new(0);
        let keys = |i: usize| [[1, 2], [2, 1]][i % 2];
        let out = pool::with_jobs(4, || {
            pool::run_indexed(16, |i| {
                cache.get_or_try_insert_all(&keys(i), |missing| {
                    computed.fetch_add(missing.len() as u64, Ordering::Relaxed);
                    Ok::<_, ()>(missing.iter().map(|&&k| k + 100).collect())
                })
            })
        });
        for (i, got) in out.into_iter().enumerate() {
            assert_eq!(got, Ok(keys(i).map(|k| k + 100).to_vec()), "batch {i}");
        }
        assert_eq!(computed.load(Ordering::Relaxed), 2, "each key computed once");
    }

    #[test]
    fn panicking_fill_leaves_the_slot_retryable() {
        let cache: MemoCache<u32, u32> = MemoCache::new();
        let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.get_or_insert_with(5, || panic!("poisoned fill"))
        }));
        assert!(attempt.is_err());
        assert_eq!(cache.get_or_insert_with(5, || 11), 11);
    }

    #[test]
    fn insert_warms_without_counting_and_first_write_wins() {
        let cache: MemoCache<&'static str, u32> = MemoCache::new();
        cache.insert("warm", 7);
        cache.insert("warm", 9); // loses: first write wins
        assert_eq!(cache.stats(), CacheStats { hits: 0, misses: 0, entries: 1 });
        assert_eq!(cache.get_or_insert_with("warm", || unreachable!()), 7);
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 0, entries: 1 });
    }

    #[test]
    fn named_cache_mirrors_into_the_global_registry() {
        let cache: MemoCache<u8, u8> = MemoCache::named("exec.test.memo_mirror");
        let before = bitline_obs::registry().snapshot();
        let _ = cache.get_or_insert_with(1, || 1);
        let _ = cache.get_or_insert_with(1, || unreachable!());
        cache.clear();
        let _ = cache.get_or_insert_with(1, || 2);
        let after = bitline_obs::registry().snapshot();
        let hits = after.counters["exec.test.memo_mirror.hits"]
            - before.counters.get("exec.test.memo_mirror.hits").copied().unwrap_or(0);
        let misses = after.counters["exec.test.memo_mirror.misses"]
            - before.counters.get("exec.test.memo_mirror.misses").copied().unwrap_or(0);
        assert_eq!((hits, misses), (1, 2), "mirror counters survive clear()");
        assert_eq!(cache.stats(), CacheStats { hits: 0, misses: 1, entries: 1 });
    }

    #[test]
    fn clear_resets_everything() {
        let cache: MemoCache<u8, u8> = MemoCache::new();
        let _ = cache.get_or_insert_with(1, || 1);
        let _ = cache.get_or_insert_with(1, || unreachable!());
        cache.clear();
        assert_eq!(cache.stats(), CacheStats::default());
        assert_eq!(cache.get_or_insert_with(1, || 3), 3);
    }
}
