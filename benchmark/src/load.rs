//! The load loop every workload runs: set-up repetitions, then closed-loop
//! sessions in rounds.
//!
//! The first round starts new sessions for a [`ROUNDS`]-th of the run;
//! each later round runs the same sessions again, with the same inputs. A
//! session's latency is its fastest round. On a shared host other tenants'
//! load comes and goes within seconds and slows identical work by up to a
//! half; the fastest of three rounds filters most of that out, where a
//! single pass does not.
//!
//! A workload may group consecutive sessions (for `defend`, the eight
//! circuits of one suite): the first round then ends on a group boundary,
//! and the report's latencies are per group, each the sum of its members'
//! fastest rounds.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

use crate::trace::{Span, Tracer};
use crate::{add, heap, Counts, RunConfig, Stop};

/// Rounds per run.
pub const ROUNDS: usize = 3;

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;

/// The outcomes of a run's sessions.
#[derive(Debug, Clone, Default)]
pub struct Sessions {
    /// Session executions started, over all rounds.
    pub attempted: u64,
    /// One description per failed execution.
    pub failures: Vec<String>,
    /// Each session's fastest successful round, by session id.
    pub best_ns: BTreeMap<u64, u64>,
    /// Each execution's peak live heap above the live size at its start
    /// ([`heap`]).
    pub heap_peaks: Vec<u64>,
    /// Work counters, summed over all executions.
    pub counts: Counts,
}

impl Sessions {
    /// Runs session `id` once, timing it and turning an error or a panic
    /// into a failure.
    fn run_one(
        &mut self,
        tracer: &Tracer,
        trace: bool,
        id: u64,
        op: impl FnOnce(&mut Counts) -> Result<(), String>,
    ) {
        self.attempted += 1;
        let counts = &mut self.counts;
        let heap_at_start = heap::reset_peak();
        let t = Instant::now();
        let r = tracer.session(id, trace, || catch_unwind(AssertUnwindSafe(|| op(counts))));
        let ns = t.elapsed().as_nanos() as u64;
        self.heap_peaks
            .push(heap::peak_bytes().saturating_sub(heap_at_start));
        match r {
            Ok(Ok(())) => self.record(id, ns),
            Ok(Err(e)) => self.failures.push(format!("session {id}: {e}")),
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_default();
                self.failures.push(format!("session {id}: panicked: {msg}"));
            }
        }
    }

    fn record(&mut self, id: u64, ns: u64) {
        let best = self.best_ns.entry(id).or_insert(ns);
        *best = (*best).min(ns);
    }

    fn merge(&mut self, other: Sessions) {
        self.attempted += other.attempted;
        self.failures.extend(other.failures);
        for (id, ns) in other.best_ns {
            self.record(id, ns);
        }
        self.heap_peaks.extend(other.heap_peaks);
        for (k, v) in other.counts {
            add(&mut self.counts, k, v);
        }
    }
}

/// What [`drive`] measured.
pub(crate) struct Driven {
    pub sessions: Sessions,
    /// Load threads, each a closed loop.
    pub threads: usize,
    /// Sessions per latency sample.
    pub group: u64,
    /// Sessions per round.
    pub batch: u64,
    /// Wall time of each round.
    pub round_walls: Vec<Duration>,
    /// Spans, one vector per load thread.
    pub spans: Vec<Vec<Span>>,
}

/// Hands out session ids of one round.
#[derive(Clone, Copy)]
enum Limit {
    /// Until this instant, then up to the next multiple of `group` (one
    /// load thread only when `group` > 1).
    Until(Instant, u64),
    Count(u64),
}

fn claim(next: &AtomicU64, limit: Limit) -> Option<u64> {
    match limit {
        Limit::Until(t, group) => (Instant::now() < t
            || !next.load(Ordering::Relaxed).is_multiple_of(group))
        .then(|| next.fetch_add(1, Ordering::Relaxed)),
        Limit::Count(n) => {
            let id = next.fetch_add(1, Ordering::Relaxed);
            (id < n).then_some(id)
        }
    }
}

/// Runs the rounds on `threads` load threads, each a closed loop with its
/// own state from `init` (for example, a client connection). `op` runs one
/// session: `(state, tracer, session id, round, counters)`. With `group` >
/// 1 there must be one thread, and `Stop::Sessions` counts groups.
pub(crate) fn drive<S>(
    cfg: &RunConfig,
    threads: usize,
    group: u64,
    epoch: Instant,
    init: impl Fn() -> Result<S, String> + Sync,
    op: impl Fn(&mut S, &Tracer, u64, usize, &mut Counts) -> Result<(), String> + Sync,
) -> Driven {
    let threads = threads.max(1);
    assert!(
        group == 1 || threads == 1,
        "grouped sessions need a single load thread"
    );
    let next: [AtomicU64; ROUNDS] = std::array::from_fn(|_| AtomicU64::new(0));
    let barrier = Barrier::new(threads);
    let start = Instant::now();
    let first = match cfg.stop {
        Stop::After(d) => Limit::Until(start + d / ROUNDS as u32, group),
        Stop::Sessions(n) => Limit::Count(n * group),
    };
    let round_ends = Mutex::new(Vec::with_capacity(ROUNDS));
    let results = Mutex::new(Vec::with_capacity(threads));
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let tracer = Tracer::new(epoch);
                let mut sessions = Sessions::default();
                let mut state = init();
                if let Err(e) = &state {
                    sessions.attempted += 1;
                    sessions.failures.push(format!("load thread set-up: {e}"));
                }
                let mut limit = first;
                for round in 0..ROUNDS {
                    if let Ok(s) = state.as_mut() {
                        while let Some(id) = claim(&next[round], limit) {
                            sessions
                                .run_one(&tracer, cfg.trace, id, |c| op(s, &tracer, id, round, c));
                        }
                    }
                    if barrier.wait().is_leader() {
                        round_ends
                            .lock()
                            .expect("no thread panics holding the lock")
                            .push(Instant::now());
                    }
                    // Every thread has stopped claiming, so the count is final.
                    let claimed = next[0].load(Ordering::Relaxed);
                    limit = Limit::Count(match cfg.stop {
                        Stop::Sessions(n) => claimed.min(n * group),
                        Stop::After(_) => claimed,
                    });
                }
                results
                    .lock()
                    .expect("no thread panics holding the lock")
                    .push((sessions, tracer.into_spans()));
            });
        }
    });
    let mut ends = round_ends.into_inner().expect("load threads finished");
    ends.insert(0, start);
    let mut sessions = Sessions::default();
    let mut spans = Vec::with_capacity(threads);
    for (s, sp) in results.into_inner().expect("load threads finished") {
        sessions.merge(s);
        spans.push(sp);
    }
    let batch = match cfg.stop {
        Stop::Sessions(n) => next[0].load(Ordering::Relaxed).min(n * group),
        Stop::After(_) => next[0].load(Ordering::Relaxed),
    };
    Driven {
        sessions,
        threads,
        group,
        batch,
        round_walls: ends.windows(2).map(|w| w[1] - w[0]).collect(),
        spans,
    }
}

/// Runs the set-up [`SETUP_REPEATS`] times, dropping each result before
/// building the next, and keeps the last. The first repetition is timed
/// from `epoch` (process start), the others from their own start.
pub(crate) fn set_up<T>(
    epoch: Instant,
    mut build: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<Duration>), String> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut state = None;
    for rep in 0..SETUP_REPEATS {
        drop(state.take());
        let t = if rep == 0 { epoch } else { Instant::now() };
        state = Some(build()?);
        times.push(t.elapsed());
    }
    Ok((state.expect("at least one set-up"), times))
}
