//! Content-hashed artifact cache with single-flight builds.
//!
//! The daemon keeps two of these: compiled source circuits (keyed by the
//! hash of their canonical `.bench` text) and locked artifacts (keyed by
//! the hash of `(source, scheme, key bits, seed)`). Both hold their
//! expensive state behind `Arc`, so every concurrent job shares one
//! [`netlist::CompiledCircuit`] per distinct circuit — the property PR 4's
//! stateless consumer views were built for.
//!
//! Concurrency contract (the "thundering herd" rule): when N requests race
//! on the same absent key, exactly one runs the builder; the other N−1
//! block on a condition variable and are counted as `coalesced`. Eviction
//! is LRU over *ready* entries once `capacity` is exceeded; in-flight
//! builds are never evicted.

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// Counter snapshot of one cache (exported via the `stats` op and the
/// bench JSON; see EXPERIMENTS.md "Serving").
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Ready entries currently resident.
    pub entries: usize,
    /// Configured capacity (ready entries; 0 = unbounded).
    pub capacity: usize,
    /// Lookups answered from a resident entry.
    pub hits: u64,
    /// Lookups that ran the builder (== number of builds started).
    pub builds: u64,
    /// Lookups that waited on another request's in-flight build instead of
    /// building themselves — the deduplicated compiles.
    pub coalesced: u64,
    /// Ready entries evicted to stay within capacity.
    pub evictions: u64,
    /// Builds whose builder returned an error (not cached).
    pub build_errors: u64,
    /// Total nanoseconds spent inside builders.
    pub build_ns: u64,
}

enum Slot<T> {
    Ready { value: Arc<T>, last_use: u64 },
    Building,
}

struct Inner<T> {
    map: HashMap<String, Slot<T>>,
    tick: u64,
    stats: CacheStats,
}

/// A bounded, content-addressed store of shared artifacts.
pub struct ArtifactCache<T> {
    inner: Mutex<Inner<T>>,
    built: Condvar,
    capacity: usize,
}

impl<T> ArtifactCache<T> {
    /// Creates a cache evicting LRU once more than `capacity` ready entries
    /// are resident (`0` = unbounded).
    pub fn new(capacity: usize) -> Self {
        ArtifactCache {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                tick: 0,
                stats: CacheStats {
                    capacity,
                    ..CacheStats::default()
                },
            }),
            built: Condvar::new(),
            capacity,
        }
    }

    /// Returns the artifact under `key`, running `build` if it is absent.
    ///
    /// Exactly one concurrent caller per key runs `build`; the rest block
    /// until it finishes and share the result. A failed build is not
    /// cached: the error is returned to the building caller, and blocked
    /// callers retry (the next one becomes the builder).
    ///
    /// # Errors
    ///
    /// Propagates the builder's error string.
    pub fn get_or_build<F>(&self, key: &str, build: F) -> Result<Arc<T>, String>
    where
        F: FnOnce() -> Result<T, String>,
    {
        let mut guard = self.inner.lock().expect("cache lock");
        // Each lookup is counted exactly once: hit, coalesced, or build.
        let mut waited = false;
        loop {
            match guard.map.get(key) {
                Some(Slot::Ready { .. }) => {
                    guard.tick += 1;
                    if !waited {
                        guard.stats.hits += 1;
                    }
                    let tick = guard.tick;
                    let Some(Slot::Ready { value, last_use }) = guard.map.get_mut(key) else {
                        unreachable!("entry checked above");
                    };
                    *last_use = tick;
                    return Ok(Arc::clone(value));
                }
                Some(Slot::Building) => {
                    if !waited {
                        guard.stats.coalesced += 1;
                        waited = true;
                    }
                    guard = self.built.wait(guard).expect("cache lock");
                    // Loop: the entry is now Ready (share it), gone (the
                    // build failed — retry as builder), or Building again
                    // (another waiter already took over).
                }
                None => {
                    guard.map.insert(key.to_string(), Slot::Building);
                    guard.stats.builds += 1;
                    break;
                }
            }
        }
        drop(guard);

        let started = Instant::now();
        let unwinding = ClearOnUnwind { cache: self, key };
        let outcome = build();
        std::mem::forget(unwinding);
        let build_ns = started.elapsed().as_nanos() as u64;

        let mut guard = self.inner.lock().expect("cache lock");
        guard.stats.build_ns += build_ns;
        match outcome {
            Ok(value) => {
                let value = Arc::new(value);
                guard.tick += 1;
                let tick = guard.tick;
                guard.map.insert(
                    key.to_string(),
                    Slot::Ready {
                        value: Arc::clone(&value),
                        last_use: tick,
                    },
                );
                Self::evict_to_capacity(&mut guard, self.capacity, key);
                self.built.notify_all();
                Ok(value)
            }
            Err(e) => {
                guard.map.remove(key);
                guard.stats.build_errors += 1;
                self.built.notify_all();
                Err(e)
            }
        }
    }

    /// Returns the artifact under `key` if resident (a hit), without
    /// building or waiting. Misses are not counted.
    pub fn get(&self, key: &str) -> Option<Arc<T>> {
        let mut guard = self.inner.lock().expect("cache lock");
        guard.tick += 1;
        let tick = guard.tick;
        match guard.map.get_mut(key) {
            Some(Slot::Ready { value, last_use }) => {
                *last_use = tick;
                let out = Arc::clone(value);
                guard.stats.hits += 1;
                Some(out)
            }
            _ => None,
        }
    }

    /// Current counter snapshot.
    pub fn stats(&self) -> CacheStats {
        let guard = self.inner.lock().expect("cache lock");
        let mut s = guard.stats.clone();
        s.entries = guard
            .map
            .values()
            .filter(|s| matches!(s, Slot::Ready { .. }))
            .count();
        s
    }

    /// Evicts least-recently-used ready entries (never `keep`, never
    /// in-flight builds) until at most `capacity` ready entries remain.
    fn evict_to_capacity(guard: &mut Inner<T>, capacity: usize, keep: &str) {
        if capacity == 0 {
            return;
        }
        loop {
            let ready = guard
                .map
                .iter()
                .filter(|(_, s)| matches!(s, Slot::Ready { .. }))
                .count();
            if ready <= capacity {
                return;
            }
            let victim = guard
                .map
                .iter()
                .filter_map(|(k, s)| match s {
                    Slot::Ready { last_use, .. } if k != keep => Some((*last_use, k.clone())),
                    _ => None,
                })
                .min();
            match victim {
                Some((_, k)) => {
                    guard.map.remove(&k);
                    guard.stats.evictions += 1;
                }
                None => return,
            }
        }
    }
}

/// Armed across a builder call: if the builder panics, unwinding drops
/// this, which clears the `Building` slot, counts a build error and wakes
/// the waiters, so they retry instead of blocking forever. A builder that
/// returns is disarmed with `mem::forget`.
struct ClearOnUnwind<'c, T> {
    cache: &'c ArtifactCache<T>,
    key: &'c str,
}

impl<T> Drop for ClearOnUnwind<'_, T> {
    fn drop(&mut self) {
        // The builder ran without the lock held, so the panic cannot have
        // poisoned it; recover anyway rather than panic while unwinding.
        let mut guard = self
            .cache
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        guard.map.remove(self.key);
        guard.stats.build_errors += 1;
        self.cache.built.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    #[test]
    fn hit_after_build() {
        let cache: ArtifactCache<u32> = ArtifactCache::new(0);
        let a = cache.get_or_build("k", || Ok(41)).unwrap();
        let b = cache.get_or_build("k", || panic!("must not rebuild")).unwrap();
        assert_eq!((*a, *b), (41, 41));
        let s = cache.stats();
        assert_eq!((s.builds, s.hits, s.coalesced), (1, 1, 0));
    }

    #[test]
    fn concurrent_same_key_builds_exactly_once() {
        let cache: Arc<ArtifactCache<u64>> = Arc::new(ArtifactCache::new(0));
        let builds = Arc::new(AtomicUsize::new(0));
        const THREADS: usize = 16;
        let values: Vec<u64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    let cache = Arc::clone(&cache);
                    let builds = Arc::clone(&builds);
                    s.spawn(move || {
                        *cache
                            .get_or_build("same", || {
                                builds.fetch_add(1, Ordering::SeqCst);
                                // Hold the build open so the others pile up.
                                std::thread::sleep(Duration::from_millis(50));
                                Ok(7u64)
                            })
                            .unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(values.iter().all(|&v| v == 7));
        assert_eq!(builds.load(Ordering::SeqCst), 1, "thundering herd");
        let s = cache.stats();
        assert_eq!(s.builds, 1);
        assert_eq!(s.coalesced as usize + s.hits as usize, THREADS - 1);
        assert!(s.coalesced >= 1, "some caller must have waited");
    }

    #[test]
    fn failed_build_is_not_cached_and_waiters_retry() {
        let cache: ArtifactCache<u32> = ArtifactCache::new(0);
        assert_eq!(
            cache.get_or_build("k", || Err("boom".to_string())),
            Err("boom".to_string())
        );
        assert_eq!(*cache.get_or_build("k", || Ok(5)).unwrap(), 5);
        let s = cache.stats();
        assert_eq!((s.builds, s.build_errors), (2, 1));
    }

    #[test]
    fn panicking_build_releases_waiters() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        use std::sync::mpsc;

        let cache: Arc<ArtifactCache<u32>> = Arc::new(ArtifactCache::new(0));
        let (started_tx, started_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let builder = {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || {
                catch_unwind(AssertUnwindSafe(|| {
                    cache.get_or_build("k", || {
                        started_tx.send(()).unwrap();
                        release_rx.recv().unwrap();
                        panic!("builder panics");
                    })
                }))
                .is_err()
            })
        };
        started_rx.recv().unwrap();
        let (done_tx, done_rx) = mpsc::channel();
        let waiter = {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || done_tx.send(cache.get_or_build("k", || Ok(9))).unwrap())
        };
        while cache.stats().coalesced == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        release_tx.send(()).unwrap();
        assert!(builder.join().unwrap(), "the panic reaches its caller");
        let got = done_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("the waiter must not hang on a panicked build");
        assert_eq!(*got.unwrap(), 9, "the waiter retries as the builder");
        waiter.join().unwrap();
        let s = cache.stats();
        assert_eq!((s.builds, s.coalesced, s.build_errors), (2, 1, 1));

        // A panicked build leaves nothing behind: the next lookup builds.
        let panicked = catch_unwind(AssertUnwindSafe(|| {
            cache.get_or_build("j", || panic!("builder panics"))
        }));
        assert!(panicked.is_err());
        assert_eq!(*cache.get_or_build("j", || Ok(4)).unwrap(), 4);
        assert_eq!(cache.stats().builds, 4);
    }

    #[test]
    fn lru_eviction_at_capacity() {
        let cache: ArtifactCache<u32> = ArtifactCache::new(2);
        cache.get_or_build("a", || Ok(1)).unwrap();
        cache.get_or_build("b", || Ok(2)).unwrap();
        cache.get("a"); // refresh "a": "b" becomes the LRU victim
        cache.get_or_build("c", || Ok(3)).unwrap();
        let s = cache.stats();
        assert_eq!((s.entries, s.evictions), (2, 1));
        assert!(cache.get("a").is_some());
        assert!(cache.get("b").is_none(), "LRU entry must be gone");
        assert!(cache.get("c").is_some());
    }

    #[test]
    fn get_never_builds() {
        let cache: ArtifactCache<u32> = ArtifactCache::new(0);
        assert!(cache.get("missing").is_none());
        assert_eq!(cache.stats().builds, 0);
    }
}
