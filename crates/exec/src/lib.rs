//! Hermetic execution runtime: a std-only scoped thread pool with
//! *deterministic* data-parallel primitives.
//!
//! Every experiment in the paper's Tables I/II — fault-coverage ATPG runs,
//! Hamming-distance corruption sweeps, and the oracle-guided attack
//! evaluations — is embarrassingly parallel across patterns, faults, keys
//! and benchmark circuits. The workspace's hermetic-build policy (DESIGN.md
//! §5) forbids registry dependencies such as `rayon`, so this crate provides
//! the small execution layer the hot paths share:
//!
//! - [`Pool`]: a scoped thread pool whose worker count comes from the
//!   `ORAP_THREADS` environment variable (default:
//!   [`std::thread::available_parallelism`]).
//! - [`Pool::par_map`] / [`Pool::par_chunks_stealing`]: data-parallel
//!   primitives whose results never depend on the thread count: element
//!   and chunk boundaries come from the data, and results are collected in
//!   input order, so they are bit-identical whether the pool runs 1, 2 or
//!   64 threads.
//! - [`PoolStats`]: lightweight per-stage observability counters (tasks
//!   run, busy/idle time, wall time), exported as JSON by the `orap-bench`
//!   harness next to every experiment's results.
//!
//! # Determinism contract
//!
//! `par_map` applies a pure function per element and collects results in
//! input order — identical output for any thread count by construction.
//! `par_chunks_stealing` does the same per caller-cut chunk; which worker
//! runs which chunk affects scheduling counters only.
//!
//! # Example
//!
//! ```
//! let pool = exec::Pool::with_threads(4);
//! let squares = pool.par_map("squares", &[1u64, 2, 3, 4], |_, &x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

#![warn(missing_docs)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Environment variable overriding the worker-thread count.
pub const THREADS_ENV: &str = "ORAP_THREADS";

/// Accumulated counters for one named stage (one `par_*` call site).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StageStats {
    /// Stage label as passed to the `par_*` call.
    pub label: String,
    /// Number of `par_*` invocations recorded under this label.
    pub calls: u64,
    /// Work items (map elements or chunks) executed.
    pub tasks: u64,
    /// Wall-clock nanoseconds spent inside the `par_*` calls.
    pub wall_ns: u64,
    /// Sum over workers of nanoseconds spent executing tasks.
    pub busy_ns: u64,
    /// Sum over workers of nanoseconds spent waiting for work (scheduling
    /// overhead and end-of-stage imbalance — the "steal/idle" time).
    pub idle_ns: u64,
    /// Chunks executed by a worker beyond its fair share
    /// (`ceil(chunks/workers)`) in [`Pool::par_chunks_stealing`] calls —
    /// how much work-stealing actually rebalanced. Scheduling telemetry
    /// only; like `busy_ns`/`idle_ns` it may vary run to run.
    pub stolen: u64,
}

/// A snapshot of a pool's observability counters (see [`Pool::stats`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Worker threads the pool was configured with.
    pub threads: usize,
    /// Per-stage counters, in first-use order.
    pub stages: Vec<StageStats>,
}

impl PoolStats {
    /// Total tasks executed across all stages.
    pub fn total_tasks(&self) -> u64 {
        self.stages.iter().map(|s| s.tasks).sum()
    }

    /// Total wall-clock nanoseconds across all stages.
    pub fn total_wall_ns(&self) -> u64 {
        self.stages.iter().map(|s| s.wall_ns).sum()
    }
}

/// A scoped thread pool with deterministic data-parallel primitives.
///
/// The pool holds no persistent worker threads: each `par_*` call spawns
/// scoped workers (capped at the configured thread count) that pull index
/// ranges from a shared atomic cursor, so borrowed (non-`'static`) data can
/// be captured freely and a 1-thread pool degrades to an inline loop with
/// no spawn at all.
#[derive(Debug)]
pub struct Pool {
    threads: usize,
    stages: Mutex<Vec<StageStats>>,
}

/// Parses a thread-count override string (the `ORAP_THREADS` format):
/// a positive integer. `None`, empty, zero or garbage yield `None`.
fn parse_threads(raw: Option<&str>) -> Option<usize> {
    raw.and_then(|s| s.trim().parse::<usize>().ok()).filter(|&n| n > 0)
}

/// The process-default thread count: `ORAP_THREADS` if set and valid,
/// otherwise [`std::thread::available_parallelism`] (1 if unknown).
pub fn default_threads() -> usize {
    parse_threads(std::env::var(THREADS_ENV).ok().as_deref()).unwrap_or_else(|| {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    })
}

/// The process-wide shared pool, created on first use with
/// [`default_threads`]. Hot paths that do not take an explicit pool
/// parameter run on this one.
pub fn global() -> &'static Pool {
    static GLOBAL: OnceLock<Pool> = OnceLock::new();
    GLOBAL.get_or_init(Pool::from_env)
}

impl Pool {
    /// Creates a pool honouring `ORAP_THREADS` (default: all available
    /// cores).
    pub fn from_env() -> Self {
        Self::with_threads(default_threads())
    }

    /// Creates a pool with exactly `threads` workers (minimum 1).
    pub fn with_threads(threads: usize) -> Self {
        Pool {
            threads: threads.max(1),
            stages: Mutex::new(Vec::new()),
        }
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Snapshots the observability counters accumulated so far.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            threads: self.threads,
            stages: self.stages.lock().expect("stats lock").clone(),
        }
    }

    /// Clears the accumulated counters (the thread count is kept).
    pub fn reset_stats(&self) {
        self.stages.lock().expect("stats lock").clear();
    }

    fn record(&self, label: &str, tasks: usize, wall: Duration, busy_ns: u64, idle_ns: u64) {
        self.record_full(label, tasks, wall, busy_ns, idle_ns, 0);
    }

    fn record_full(
        &self,
        label: &str,
        tasks: usize,
        wall: Duration,
        busy_ns: u64,
        idle_ns: u64,
        stolen: u64,
    ) {
        let mut stages = self.stages.lock().expect("stats lock");
        let idx = match stages.iter().position(|s| s.label == label) {
            Some(i) => i,
            None => {
                stages.push(StageStats {
                    label: label.to_string(),
                    ..StageStats::default()
                });
                stages.len() - 1
            }
        };
        let s = &mut stages[idx];
        s.calls += 1;
        s.tasks += tasks as u64;
        s.wall_ns += wall.as_nanos() as u64;
        s.busy_ns += busy_ns;
        s.idle_ns += idle_ns;
        s.stolen += stolen;
    }

    /// Runs `job(0..n)` across the pool, collecting results in index order.
    ///
    /// The scheduling granularity adapts to the worker count, but which
    /// worker runs which index never affects the output: slot `i` of the
    /// result always holds `job(i)`.
    fn run_indexed<R, F>(&self, label: &str, n: usize, job: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        let call_start = Instant::now();
        let workers = self.threads.min(n);
        if workers <= 1 {
            let t = Instant::now();
            let out: Vec<R> = (0..n).map(&job).collect();
            let busy = t.elapsed().as_nanos() as u64;
            self.record(label, n, call_start.elapsed(), busy, 0);
            return out;
        }

        // Work distribution: an atomic cursor over index ranges. The grain
        // only controls contention, not results.
        let grain = (n / (workers * 4)).max(1);
        let next = AtomicUsize::new(0);
        let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
        let mut busy_total = 0u64;
        let mut idle_total = 0u64;
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    s.spawn(|| {
                        let worker_start = Instant::now();
                        let mut busy = Duration::ZERO;
                        let mut local: Vec<(usize, R)> = Vec::new();
                        loop {
                            let start = next.fetch_add(grain, Ordering::Relaxed);
                            if start >= n {
                                break;
                            }
                            let end = (start + grain).min(n);
                            let t = Instant::now();
                            for i in start..end {
                                local.push((i, job(i)));
                            }
                            busy += t.elapsed();
                        }
                        (local, worker_start.elapsed(), busy)
                    })
                })
                .collect();
            for h in handles {
                let (local, wall, busy) = h.join().expect("exec worker panicked");
                busy_total += busy.as_nanos() as u64;
                idle_total += wall.saturating_sub(busy).as_nanos() as u64;
                for (i, r) in local {
                    slots[i] = Some(r);
                }
            }
        });
        self.record(label, n, call_start.elapsed(), busy_total, idle_total);
        slots
            .into_iter()
            .map(|r| r.expect("every index executed"))
            .collect()
    }

    /// Applies `f` to every element, returning results in input order.
    ///
    /// `f` receives `(index, &item)`; it must be a pure function of those
    /// for the determinism contract to hold. Counters accrue under `label`.
    pub fn par_map<T, R, F>(&self, label: &str, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        self.run_indexed(label, items.len(), |i| f(i, &items[i]))
    }

    /// Applies `f` to *variable-width* chunks of `items` with per-worker
    /// reusable state, scheduling chunks by work-stealing.
    ///
    /// `ends` gives the exclusive end offset of each chunk in ascending
    /// order (the last entry must equal `items.len()`), so callers can cut
    /// the input by estimated cost instead of element count — the fault
    /// simulator sizes chunks by fanout-cone mass. Each worker calls `init`
    /// exactly once and reuses that state for every chunk it executes; this
    /// is where a per-worker simulator scratch is paid for once instead of
    /// per chunk.
    ///
    /// Determinism contract: chunk *boundaries* come from `ends` (data
    /// only), results are collected in chunk order, and `f` must be a pure
    /// function of `(chunk_index, slice)` modulo reusable-state scratch
    /// whose final value it does not leak into results. Which worker steals
    /// which chunk affects scheduling (and the [`StageStats::stolen`]
    /// counter) only, never the returned `Vec`.
    ///
    /// # Panics
    ///
    /// Panics if `ends` is not ascending or does not cover `items` exactly.
    pub fn par_chunks_stealing<T, S, R, I, F>(
        &self,
        label: &str,
        items: &[T],
        ends: &[usize],
        init: I,
        f: F,
    ) -> Vec<R>
    where
        T: Sync,
        R: Send,
        I: Fn() -> S + Sync,
        F: Fn(usize, &[T], &mut S) -> R + Sync,
    {
        let n = ends.len();
        let mut prev = 0usize;
        for &e in ends {
            assert!(e >= prev, "chunk ends must be ascending");
            prev = e;
        }
        assert_eq!(prev, items.len(), "chunk ends must cover all items");
        let slice_of = |k: usize| {
            let start = if k == 0 { 0 } else { ends[k - 1] };
            &items[start..ends[k]]
        };

        let call_start = Instant::now();
        let workers = self.threads.min(n);
        if workers <= 1 {
            let t = Instant::now();
            let mut state = init();
            let out: Vec<R> = (0..n).map(|k| f(k, slice_of(k), &mut state)).collect();
            let busy = t.elapsed().as_nanos() as u64;
            self.record_full(label, n, call_start.elapsed(), busy, 0, 0);
            return out;
        }

        // Steal granularity is one chunk: the atomic cursor IS the steal
        // queue (an idle worker taking the next chunk is the steal).
        let fair = n.div_ceil(workers) as u64;
        let next = AtomicUsize::new(0);
        let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
        let mut busy_total = 0u64;
        let mut idle_total = 0u64;
        let mut stolen_total = 0u64;
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    s.spawn(|| {
                        let worker_start = Instant::now();
                        let mut busy = Duration::ZERO;
                        let mut state = init();
                        let mut local: Vec<(usize, R)> = Vec::new();
                        loop {
                            let k = next.fetch_add(1, Ordering::Relaxed);
                            if k >= n {
                                break;
                            }
                            let t = Instant::now();
                            local.push((k, f(k, slice_of(k), &mut state)));
                            busy += t.elapsed();
                        }
                        (local, worker_start.elapsed(), busy)
                    })
                })
                .collect();
            for h in handles {
                let (local, wall, busy) = h.join().expect("exec worker panicked");
                busy_total += busy.as_nanos() as u64;
                idle_total += wall.saturating_sub(busy).as_nanos() as u64;
                stolen_total += (local.len() as u64).saturating_sub(fair);
                for (i, r) in local {
                    slots[i] = Some(r);
                }
            }
        });
        self.record_full(
            label,
            n,
            call_start.elapsed(),
            busy_total,
            idle_total,
            stolen_total,
        );
        slots
            .into_iter()
            .map(|r| r.expect("every chunk executed"))
            .collect()
    }
}

impl Default for Pool {
    fn default() -> Self {
        Pool::from_env()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order() {
        for threads in [1, 2, 3, 8] {
            let pool = Pool::with_threads(threads);
            let items: Vec<u64> = (0..997).collect();
            let out = pool.par_map("t", &items, |i, &x| {
                assert_eq!(i as u64, x);
                x * 3 + 1
            });
            assert_eq!(out.len(), items.len());
            assert!(out.iter().enumerate().all(|(i, &y)| y == i as u64 * 3 + 1));
        }
    }

    #[test]
    fn par_map_empty_and_single() {
        let pool = Pool::with_threads(4);
        let empty: Vec<u32> = Vec::new();
        assert!(pool.par_map("e", &empty, |_, &x| x).is_empty());
        assert_eq!(pool.par_map("s", &[42u32], |_, &x| x + 1), vec![43]);
    }

    #[test]
    fn stats_accumulate_per_stage() {
        let pool = Pool::with_threads(2);
        let items: Vec<u32> = (0..100).collect();
        let _ = pool.par_map("stage_a", &items, |_, &x| x);
        let _ = pool.par_map("stage_a", &items, |_, &x| x);
        let _ = pool.par_map("stage_b", &items, |_, &x| x);
        let stats = pool.stats();
        assert_eq!(stats.threads, 2);
        let a = stats.stages.iter().find(|s| s.label == "stage_a").unwrap();
        assert_eq!(a.calls, 2);
        assert_eq!(a.tasks, 200);
        let b = stats.stages.iter().find(|s| s.label == "stage_b").unwrap();
        assert_eq!(b.calls, 1);
        assert!(stats.total_tasks() >= 200);
        pool.reset_stats();
        assert!(pool.stats().stages.is_empty());
    }

    #[test]
    fn threads_env_parsing() {
        assert_eq!(parse_threads(None), None);
        assert_eq!(parse_threads(Some("")), None);
        assert_eq!(parse_threads(Some("0")), None);
        assert_eq!(parse_threads(Some("nope")), None);
        assert_eq!(parse_threads(Some("8")), Some(8));
        assert_eq!(parse_threads(Some(" 3 ")), Some(3));
    }

    #[test]
    fn with_threads_floors_at_one() {
        assert_eq!(Pool::with_threads(0).threads(), 1);
        assert_eq!(Pool::with_threads(5).threads(), 5);
    }

    #[test]
    fn par_chunks_stealing_matches_sequential_for_any_thread_count() {
        // Uneven, cost-shaped chunk boundaries; per-worker state is a
        // scratch buffer whose reuse must not leak into results.
        let items: Vec<u64> = (0..513).map(|i| i * 31 + 5).collect();
        let ends = vec![1usize, 2, 50, 180, 181, 400, 513];
        let run = |threads: usize| {
            Pool::with_threads(threads).par_chunks_stealing(
                "steal",
                &items,
                &ends,
                Vec::<u64>::new,
                |k, slice, scratch| {
                    scratch.clear();
                    scratch.extend(slice.iter().map(|&x| x ^ k as u64));
                    scratch.iter().fold(0u64, |a, &x| a.wrapping_mul(3).wrapping_add(x))
                },
            )
        };
        let reference = run(1);
        assert_eq!(reference.len(), ends.len());
        for threads in [2, 3, 8] {
            assert_eq!(run(threads), reference, "threads={threads}");
        }
    }

    #[test]
    fn par_chunks_stealing_inits_state_once_per_worker() {
        use std::sync::atomic::AtomicUsize;
        let items: Vec<u32> = (0..64).collect();
        let ends: Vec<usize> = (1..=64).collect();
        let inits = AtomicUsize::new(0);
        let pool = Pool::with_threads(4);
        let out = pool.par_chunks_stealing(
            "init_once",
            &items,
            &ends,
            || inits.fetch_add(1, Ordering::Relaxed),
            |_, slice, _| slice[0],
        );
        assert_eq!(out, items);
        // One init per spawned worker, never one per chunk.
        assert!(inits.load(Ordering::Relaxed) <= 4);
        let stats = pool.stats();
        let s = stats.stages.iter().find(|s| s.label == "init_once").unwrap();
        assert_eq!(s.tasks, 64);
    }

    #[test]
    fn par_chunks_stealing_empty_and_degenerate() {
        let pool = Pool::with_threads(4);
        let empty: Vec<u32> = Vec::new();
        let none: Vec<u32> =
            pool.par_chunks_stealing("e", &empty, &[], || (), |_, _, _| unreachable!());
        assert!(none.is_empty());
        // Empty chunks are legal (zero-cost entries in a cost plan).
        let out = pool.par_chunks_stealing(
            "z",
            &[7u32],
            &[0usize, 1, 1],
            || (),
            |_, slice, _| slice.len(),
        );
        assert_eq!(out, vec![0, 1, 0]);
    }

    #[test]
    #[should_panic(expected = "cover all items")]
    fn par_chunks_stealing_rejects_short_plan() {
        Pool::with_threads(2).par_chunks_stealing("bad", &[1u8, 2, 3], &[1], || (), |_, _, _| ());
    }

    #[test]
    fn global_pool_is_shared() {
        let a = global() as *const Pool;
        let b = global() as *const Pool;
        assert_eq!(a, b);
        assert!(global().threads() >= 1);
    }
}
