//! Priority job queue with cancellation, per-job timeouts and a bounded
//! worker pool run on [`exec::Pool`].
//!
//! Lifecycle state machine (DESIGN.md §10.4):
//!
//! ```text
//! queued ──▶ running ──▶ done | failed | cancelled | timed_out
//!    └──────────────────▶ cancelled            (cancel while queued)
//! ```
//!
//! Scheduling is strict priority (high > normal > low) with FIFO order
//! inside a priority class; `started_seq` records the dequeue order so
//! tests and clients can observe it. Cancellation and timeouts are
//! *cooperative*: a running job observes them at its next
//! [`JobCtx::checkpoint`] (job adapters call it between pipeline stages,
//! and the `sleep` diagnostic job every few milliseconds). Attack jobs go
//! further: the job adapter hands [`JobCtx::cancel_flag`] and
//! [`JobCtx::deadline`] to the attack engine's `AttackCtl`, which arms the
//! CDCL solver's conflict-granularity interrupt hook — so cancels and
//! timeouts take effect *mid-solve*, not just between pipeline stages.
//!
//! Every job also carries a [`ProgressLog`]: an append-only, bounded list
//! of pre-rendered progress events that the `subscribe` op streams to
//! clients. The log is created at submission (subscribing before the job
//! runs is valid), closed when the job reaches a terminal state, and
//! capped at [`PROGRESS_CAP`] events (overflow is counted, never blocks
//! the worker).
//!
//! The job table keeps every queued and running job, but only the
//! [`RETAINED_JOBS`] most recently finished terminal jobs: each `submit`
//! evicts the oldest-finished terminal jobs past that bound, so a
//! long-lived daemon's memory stays bounded. An evicted id is unknown to
//! `status`, `progress` and `wait_terminal`.
//!
//! The worker pool is built on [`exec::Pool`]: `run` issues one `par_map`
//! whose items are the worker indices, so each worker loop occupies one
//! pool task for the daemon's lifetime and the pool's stage counters
//! account the workers' busy/idle split on shutdown.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Scheduling class of a job; higher classes always dequeue first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Priority {
    /// Dequeued before everything else.
    High,
    /// The default class.
    Normal,
    /// Dequeued only when no high/normal work is pending.
    Low,
}

impl Priority {
    /// Wire name (DESIGN.md §10.3).
    pub fn as_str(self) -> &'static str {
        match self {
            Priority::High => "high",
            Priority::Normal => "normal",
            Priority::Low => "low",
        }
    }

    /// Parses the wire name.
    pub fn from_wire(s: &str) -> Option<Priority> {
        match s {
            "high" => Some(Priority::High),
            "normal" => Some(Priority::Normal),
            "low" => Some(Priority::Low),
            _ => None,
        }
    }

    fn rank(self) -> usize {
        match self {
            Priority::High => 0,
            Priority::Normal => 1,
            Priority::Low => 2,
        }
    }
}

/// Job lifecycle state (wire names via [`JobState::as_str`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting for a worker.
    Queued,
    /// Executing on a worker.
    Running,
    /// Finished with a result.
    Done,
    /// Finished with an error.
    Failed,
    /// Stopped by a cancel request (or a non-drain shutdown).
    Cancelled,
    /// Stopped by its own timeout.
    TimedOut,
}

impl JobState {
    /// Wire name (DESIGN.md §10.4).
    pub fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
            JobState::TimedOut => "timed_out",
        }
    }

    /// Whether the state is terminal.
    pub fn is_terminal(self) -> bool {
        !matches!(self, JobState::Queued | JobState::Running)
    }
}

/// Why a job stopped before producing a result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// Observed a cancel request at a checkpoint.
    Cancelled,
    /// Observed its deadline at a checkpoint.
    TimedOut,
    /// The job itself failed (bad input, unknown artifact, engine error).
    Failed(String),
}

impl From<JobInterrupt> for JobError {
    fn from(i: JobInterrupt) -> Self {
        match i {
            JobInterrupt::Cancelled => JobError::Cancelled,
            JobInterrupt::TimedOut => JobError::TimedOut,
        }
    }
}

/// The two cooperative interrupts a checkpoint can report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobInterrupt {
    /// A cancel request (user or shutdown) is pending.
    Cancelled,
    /// The job's deadline has passed.
    TimedOut,
}

/// Hard cap on stored progress events per job; past it events are counted
/// in [`ProgressBatch::dropped`] instead of stored, so a chatty job can
/// never hold the daemon's memory hostage.
pub const PROGRESS_CAP: usize = 4096;

/// Terminal jobs (with their results and progress logs) kept for `status`,
/// `result` and `subscribe`; `submit` evicts the oldest-finished terminal
/// job past this bound. Queued and running jobs are never evicted.
pub const RETAINED_JOBS: usize = 4096;

/// Append-only per-job event log backing the `subscribe` op.
///
/// Events are pre-rendered strings (compact JSON on the wire path) so the
/// queue stays payload-agnostic. Writers never block; readers block on a
/// condvar until new events arrive or the log closes.
pub struct ProgressLog {
    inner: Mutex<ProgressInner>,
    cond: Condvar,
}

#[derive(Default)]
struct ProgressInner {
    events: Vec<String>,
    dropped: u64,
    closed: bool,
}

/// What [`ProgressLog::wait_events`] hands back to a subscriber.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgressBatch {
    /// Events starting at the requested cursor, in order.
    pub events: Vec<String>,
    /// Cursor to pass next time (absolute index of the next unseen event).
    pub next_cursor: u64,
    /// Whether the log is closed (the job is terminal) — no more events
    /// will ever arrive.
    pub closed: bool,
    /// Events discarded because the log hit [`PROGRESS_CAP`].
    pub dropped: u64,
}

impl ProgressLog {
    fn new() -> Arc<ProgressLog> {
        Arc::new(ProgressLog {
            inner: Mutex::new(ProgressInner::default()),
            cond: Condvar::new(),
        })
    }

    /// Appends one pre-rendered event. Never blocks; past the cap the
    /// event is counted as dropped. No-op once closed.
    pub fn push(&self, event: String) {
        let mut g = self.inner.lock().expect("progress lock");
        if g.closed {
            return;
        }
        if g.events.len() >= PROGRESS_CAP {
            g.dropped += 1;
        } else {
            g.events.push(event);
        }
        drop(g);
        self.cond.notify_all();
    }

    fn close(&self) {
        let mut g = self.inner.lock().expect("progress lock");
        g.closed = true;
        drop(g);
        self.cond.notify_all();
    }

    /// Blocks until at least one event at/after `cursor` exists, the log
    /// closes, or `limit` passes; returns up to `max` events from `cursor`.
    /// A cursor past the end of a closed log returns an empty, closed
    /// batch (the caller decides whether that is an error).
    pub fn wait_events(&self, cursor: u64, max: usize, limit: Duration) -> ProgressBatch {
        let deadline = Instant::now() + limit;
        let mut g = self.inner.lock().expect("progress lock");
        loop {
            if (g.events.len() as u64) > cursor || g.closed {
                let from = (cursor as usize).min(g.events.len());
                let to = g.events.len().min(from + max.max(1));
                return ProgressBatch {
                    events: g.events[from..to].to_vec(),
                    next_cursor: to as u64,
                    closed: g.closed && to == g.events.len(),
                    dropped: g.dropped,
                };
            }
            let now = Instant::now();
            if now >= deadline {
                return ProgressBatch {
                    events: Vec::new(),
                    next_cursor: cursor,
                    closed: false,
                    dropped: g.dropped,
                };
            }
            let (ng, _) = self
                .cond
                .wait_timeout(g, deadline - now)
                .expect("progress lock");
            g = ng;
        }
    }
}

/// Execution context handed to the job runner: cancellation flag, deadline
/// and the progress-stage recorder.
pub struct JobCtx {
    cancel: Arc<AtomicBool>,
    deadline: Option<Instant>,
    started: Instant,
    stage: Mutex<StageLog>,
    progress: Arc<ProgressLog>,
}

#[derive(Debug, Default, Clone)]
struct StageLog {
    current: String,
    /// Completed `(stage, wall_ns)` entries, in order.
    finished: Vec<(String, u64)>,
    current_since_ns: u64,
}

impl JobCtx {
    fn new(
        cancel: Arc<AtomicBool>,
        timeout: Option<Duration>,
        progress: Arc<ProgressLog>,
    ) -> JobCtx {
        let started = Instant::now();
        JobCtx {
            cancel,
            deadline: timeout.map(|t| started + t),
            started,
            stage: Mutex::new(StageLog::default()),
            progress,
        }
    }

    /// The job's cancel flag — the same flag the `cancel` op raises. Job
    /// adapters hand this to an attack engine's `AttackCtl` so the CDCL
    /// conflict-granularity hook observes daemon-side cancellation.
    pub fn cancel_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.cancel)
    }

    /// The job's absolute deadline, if a timeout was submitted.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// The job's progress log (shared with subscribers).
    pub fn progress_log(&self) -> Arc<ProgressLog> {
        Arc::clone(&self.progress)
    }

    /// Returns an interrupt if a cancel request is pending or the deadline
    /// has passed. Job adapters call this between pipeline stages; the
    /// contract is "checkpoint at least once per stage".
    pub fn checkpoint(&self) -> Result<(), JobInterrupt> {
        if self.cancel.load(Ordering::Acquire) {
            return Err(JobInterrupt::Cancelled);
        }
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                return Err(JobInterrupt::TimedOut);
            }
        }
        Ok(())
    }

    /// Sleeps up to `total`, waking every few milliseconds to checkpoint —
    /// the body of the `sleep` diagnostic job and the reason timeouts and
    /// cancellation fire promptly in the failure-path tests.
    pub fn sleep_cancellable(&self, total: Duration) -> Result<(), JobInterrupt> {
        let until = Instant::now() + total;
        loop {
            self.checkpoint()?;
            let now = Instant::now();
            if now >= until {
                return Ok(());
            }
            std::thread::sleep((until - now).min(Duration::from_millis(5)));
        }
    }

    /// Records entering a named pipeline stage; the previous stage's wall
    /// time is closed out into the per-stage telemetry (`status` op), and a
    /// `phase` event is pushed to subscribers. Stage names are static
    /// identifiers, so embedding them in the pre-rendered JSON is safe.
    pub fn set_stage(&self, name: &str) {
        let now_ns = self.started.elapsed().as_nanos() as u64;
        let mut log = self.stage.lock().expect("stage lock");
        if !log.current.is_empty() {
            let prev = std::mem::take(&mut log.current);
            let spent = now_ns - log.current_since_ns;
            log.finished.push((prev, spent));
        }
        log.current = name.to_string();
        log.current_since_ns = now_ns;
        drop(log);
        self.progress.push(format!("{{\"type\":\"phase\",\"name\":\"{name}\"}}"));
    }

    fn stage_snapshot(&self) -> (String, Vec<(String, u64)>) {
        let log = self.stage.lock().expect("stage lock");
        (log.current.clone(), log.finished.clone())
    }

    fn close_stages(&self) -> Vec<(String, u64)> {
        let now_ns = self.started.elapsed().as_nanos() as u64;
        let mut log = self.stage.lock().expect("stage lock");
        if !log.current.is_empty() {
            let prev = std::mem::take(&mut log.current);
            let spent = now_ns - log.current_since_ns;
            log.finished.push((prev, spent));
        }
        log.finished.clone()
    }
}

/// Point-in-time public view of one job (everything the `status` op
/// reports, minus the op envelope).
#[derive(Debug, Clone)]
pub struct JobStatus<R> {
    /// Server-assigned job id (1-based, per daemon).
    pub id: u64,
    /// Job kind string as submitted.
    pub kind: String,
    /// Scheduling class.
    pub priority: Priority,
    /// Lifecycle state.
    pub state: JobState,
    /// Current pipeline stage ("" when not running).
    pub stage: String,
    /// Completed `(stage, wall_ns)` telemetry, in execution order.
    pub stages: Vec<(String, u64)>,
    /// Order in which the job was dequeued (1-based; 0 = never started).
    pub started_seq: u64,
    /// Nanoseconds spent queued (up to now, or until dequeue).
    pub queued_ns: u64,
    /// Nanoseconds spent running (up to now, or until terminal).
    pub run_ns: u64,
    /// The result, when `state == Done`.
    pub result: Option<R>,
    /// The error message, when `state == Failed`.
    pub error: Option<String>,
}

struct Job<J, R> {
    id: u64,
    kind: String,
    priority: Priority,
    state: JobState,
    payload: Option<J>,
    cancel: Arc<AtomicBool>,
    timeout: Option<Duration>,
    progress: Arc<ProgressLog>,
    submitted: Instant,
    dequeued: Option<Instant>,
    finished: Option<Instant>,
    started_seq: u64,
    ctx: Option<Arc<JobCtx>>,
    stages: Vec<(String, u64)>,
    result: Option<R>,
    error: Option<String>,
}

/// Aggregate queue counters (exported via the `stats` op).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Configured worker count.
    pub workers: usize,
    /// Pending jobs per class, `[high, normal, low]`.
    pub depth: [usize; 3],
    /// Jobs currently executing.
    pub running: usize,
    /// Jobs accepted in total.
    pub submitted: u64,
    /// Jobs finished in `done`.
    pub completed: u64,
    /// Jobs finished in `failed`.
    pub failed: u64,
    /// Jobs finished in `cancelled`.
    pub cancelled: u64,
    /// Jobs finished in `timed_out`.
    pub timed_out: u64,
    /// Total worker nanoseconds spent executing jobs.
    pub busy_ns: u64,
    /// Total nanoseconds finished jobs spent waiting in the queue.
    pub queue_wait_ns: u64,
}

struct Inner<J, R> {
    jobs: HashMap<u64, Job<J, R>>,
    /// Terminal ids in the order they finished; the front is evicted first.
    finished: std::collections::VecDeque<u64>,
    /// Pending ids per priority class, FIFO.
    pending: [std::collections::VecDeque<u64>; 3],
    next_id: u64,
    next_start_seq: u64,
    running: usize,
    shutdown: bool,
    stats: QueueStats,
}

/// The queue. `J` is the job payload consumed by the runner, `R` the
/// result type stored for `status`/`result` (`R: Clone` so snapshots are
/// cheap copies).
pub struct JobQueue<J, R> {
    inner: Mutex<Inner<J, R>>,
    /// Signals workers: work available or shutdown.
    work: Condvar,
    /// Signals waiters: some job reached a terminal state.
    terminal: Condvar,
    workers: usize,
}

/// Error returned by [`JobQueue::submit`] after shutdown began.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShuttingDown;

impl<J: Send, R: Clone + Send> JobQueue<J, R> {
    /// Creates a queue executing on `workers` concurrent workers (min 1).
    pub fn new(workers: usize) -> Arc<Self> {
        Arc::new(JobQueue {
            inner: Mutex::new(Inner {
                jobs: HashMap::new(),
                finished: Default::default(),
                pending: Default::default(),
                next_id: 1,
                next_start_seq: 1,
                running: 0,
                shutdown: false,
                stats: QueueStats {
                    workers: workers.max(1),
                    ..QueueStats::default()
                },
            }),
            work: Condvar::new(),
            terminal: Condvar::new(),
            workers: workers.max(1),
        })
    }

    /// Enqueues a job; returns its id.
    ///
    /// # Errors
    ///
    /// Returns [`ShuttingDown`] once shutdown has begun.
    pub fn submit(
        &self,
        kind: &str,
        payload: J,
        priority: Priority,
        timeout: Option<Duration>,
    ) -> Result<u64, ShuttingDown> {
        let mut g = self.inner.lock().expect("queue lock");
        if g.shutdown {
            return Err(ShuttingDown);
        }
        while g.finished.len() >= RETAINED_JOBS {
            let old = g.finished.pop_front().expect("non-empty");
            g.jobs.remove(&old);
        }
        let id = g.next_id;
        g.next_id += 1;
        g.jobs.insert(
            id,
            Job {
                id,
                kind: kind.to_string(),
                priority,
                state: JobState::Queued,
                payload: Some(payload),
                cancel: Arc::new(AtomicBool::new(false)),
                timeout,
                progress: ProgressLog::new(),
                submitted: Instant::now(),
                dequeued: None,
                finished: None,
                started_seq: 0,
                ctx: None,
                stages: Vec::new(),
                result: None,
                error: None,
            },
        );
        g.pending[priority.rank()].push_back(id);
        g.stats.submitted += 1;
        drop(g);
        self.work.notify_one();
        Ok(id)
    }

    /// Requests cancellation. A queued job transitions to `cancelled`
    /// immediately; a running job has its cancel flag raised and
    /// transitions at its next checkpoint. Returns the state observed
    /// right after the request, or `None` for an unknown id.
    pub fn cancel(&self, id: u64) -> Option<JobState> {
        let mut g = self.inner.lock().expect("queue lock");
        let inner = &mut *g;
        let job = inner.jobs.get_mut(&id)?;
        match job.state {
            JobState::Queued => {
                job.state = JobState::Cancelled;
                job.finished = Some(Instant::now());
                job.payload = None;
                job.cancel.store(true, Ordering::Release);
                job.progress.close();
                for q in inner.pending.iter_mut() {
                    q.retain(|&p| p != id);
                }
                inner.finished.push_back(id);
                inner.stats.cancelled += 1;
                drop(g);
                self.terminal.notify_all();
                Some(JobState::Cancelled)
            }
            JobState::Running => {
                job.cancel.store(true, Ordering::Release);
                Some(JobState::Running)
            }
            s => Some(s),
        }
    }

    /// Snapshot of one job, or `None` for an unknown id.
    pub fn status(&self, id: u64) -> Option<JobStatus<R>> {
        let g = self.inner.lock().expect("queue lock");
        g.jobs.get(&id).map(Self::snapshot)
    }

    /// The progress log of one job, or `None` for an unknown id. Valid
    /// from submission (before the job runs) until the job is evicted
    /// ([`RETAINED_JOBS`]).
    pub fn progress(&self, id: u64) -> Option<Arc<ProgressLog>> {
        let g = self.inner.lock().expect("queue lock");
        g.jobs.get(&id).map(|j| Arc::clone(&j.progress))
    }

    fn snapshot(job: &Job<J, R>) -> JobStatus<R> {
        let (stage, stages) = match (&job.ctx, job.state) {
            (Some(ctx), JobState::Running) => ctx.stage_snapshot(),
            _ => (String::new(), job.stages.clone()),
        };
        let queued_ns = match job.dequeued {
            Some(d) => (d - job.submitted).as_nanos() as u64,
            None => match job.finished {
                Some(f) => (f - job.submitted).as_nanos() as u64,
                None => job.submitted.elapsed().as_nanos() as u64,
            },
        };
        let run_ns = match job.dequeued {
            Some(d) => match job.finished {
                Some(f) => (f - d).as_nanos() as u64,
                None => d.elapsed().as_nanos() as u64,
            },
            None => 0,
        };
        JobStatus {
            id: job.id,
            kind: job.kind.clone(),
            priority: job.priority,
            state: job.state,
            stage,
            stages,
            started_seq: job.started_seq,
            queued_ns,
            run_ns,
            result: job.result.clone(),
            error: job.error.clone(),
        }
    }

    /// Blocks until job `id` reaches a terminal state (or `limit` passes),
    /// returning the final snapshot. `None` for an unknown id.
    pub fn wait_terminal(&self, id: u64, limit: Duration) -> Option<JobStatus<R>> {
        let deadline = Instant::now() + limit;
        let mut g = self.inner.lock().expect("queue lock");
        loop {
            let job = g.jobs.get(&id)?;
            if job.state.is_terminal() {
                return Some(Self::snapshot(job));
            }
            let now = Instant::now();
            if now >= deadline {
                return Some(Self::snapshot(job));
            }
            let (ng, _) = self
                .terminal
                .wait_timeout(g, deadline - now)
                .expect("queue lock");
            g = ng;
        }
    }

    /// Begins shutdown. With `drain`, queued and running jobs complete
    /// first; without, queued jobs are cancelled and running jobs get
    /// their cancel flag raised. Either way no further submissions are
    /// accepted and `run` returns once the queue is empty.
    pub fn shutdown(&self, drain: bool) {
        let mut g = self.inner.lock().expect("queue lock");
        let inner = &mut *g;
        inner.shutdown = true;
        if !drain {
            let ids: Vec<u64> = inner.pending.iter().flatten().copied().collect();
            for q in inner.pending.iter_mut() {
                q.clear();
            }
            let now = Instant::now();
            for id in ids {
                if let Some(job) = inner.jobs.get_mut(&id) {
                    job.state = JobState::Cancelled;
                    job.finished = Some(now);
                    job.payload = None;
                    job.cancel.store(true, Ordering::Release);
                    job.progress.close();
                    inner.finished.push_back(id);
                    inner.stats.cancelled += 1;
                }
            }
            for job in inner.jobs.values() {
                if job.state == JobState::Running {
                    job.cancel.store(true, Ordering::Release);
                }
            }
        }
        drop(g);
        self.work.notify_all();
        self.terminal.notify_all();
    }

    /// Whether shutdown has begun.
    pub fn is_shutting_down(&self) -> bool {
        self.inner.lock().expect("queue lock").shutdown
    }

    /// Current counters.
    pub fn stats(&self) -> QueueStats {
        let g = self.inner.lock().expect("queue lock");
        let mut s = g.stats.clone();
        s.depth = [g.pending[0].len(), g.pending[1].len(), g.pending[2].len()];
        s.running = g.running;
        s
    }

    /// Runs the worker pool until shutdown completes. Blocks the calling
    /// thread; the daemon calls this from a dedicated thread.
    ///
    /// Each of the `workers` configured workers is one long-lived
    /// [`exec::Pool::par_map`] task; `runner` executes one job at a time
    /// per worker and must checkpoint via the provided [`JobCtx`]. A
    /// panicking runner fails the job, never the worker.
    pub fn run<F>(self: &Arc<Self>, runner: F)
    where
        F: Fn(&JobCtx, &J) -> Result<R, JobError> + Sync,
        J: Sync,
        R: Sync,
    {
        let pool = exec::Pool::with_threads(self.workers);
        let indices: Vec<usize> = (0..self.workers).collect();
        pool.par_map("serve_workers", &indices, |_, _| self.worker_loop(&runner));
    }

    fn worker_loop<F>(&self, runner: &F)
    where
        F: Fn(&JobCtx, &J) -> Result<R, JobError> + Sync,
    {
        loop {
            // Dequeue the best pending job, or exit on drained shutdown.
            let (id, payload, ctx) = {
                let mut g = self.inner.lock().expect("queue lock");
                let job = loop {
                    if let Some(id) = Self::pop_best(&mut g) {
                        break id;
                    }
                    if g.shutdown {
                        return;
                    }
                    g = self.work.wait(g).expect("queue lock");
                };
                let seq = g.next_start_seq;
                g.next_start_seq += 1;
                g.running += 1;
                let j = g.jobs.get_mut(&job).expect("pending job exists");
                j.state = JobState::Running;
                j.started_seq = seq;
                j.dequeued = Some(Instant::now());
                let ctx = Arc::new(JobCtx::new(
                    Arc::clone(&j.cancel),
                    j.timeout,
                    Arc::clone(&j.progress),
                ));
                j.ctx = Some(Arc::clone(&ctx));
                let payload = j.payload.take().expect("queued job has payload");
                (job, payload, ctx)
            };

            let started = Instant::now();
            let outcome = catch_unwind(AssertUnwindSafe(|| runner(&ctx, &payload)))
                .unwrap_or_else(|p| {
                    let msg = p
                        .downcast_ref::<&str>()
                        .map(|s| s.to_string())
                        .or_else(|| p.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "job panicked".to_string());
                    Err(JobError::Failed(format!("panicked: {msg}")))
                });
            let busy_ns = started.elapsed().as_nanos() as u64;

            let mut g = self.inner.lock().expect("queue lock");
            let inner = &mut *g;
            inner.running -= 1;
            inner.stats.busy_ns += busy_ns;
            let j = inner.jobs.get_mut(&id).expect("running job exists");
            j.finished = Some(Instant::now());
            j.stages = ctx.close_stages();
            j.ctx = None;
            j.progress.close();
            match outcome {
                Ok(result) => {
                    j.state = JobState::Done;
                    j.result = Some(result);
                    inner.stats.completed += 1;
                }
                Err(JobError::Cancelled) => {
                    j.state = JobState::Cancelled;
                    inner.stats.cancelled += 1;
                }
                Err(JobError::TimedOut) => {
                    j.state = JobState::TimedOut;
                    inner.stats.timed_out += 1;
                }
                Err(JobError::Failed(e)) => {
                    j.state = JobState::Failed;
                    j.error = Some(e);
                    inner.stats.failed += 1;
                }
            }
            let wait_ns = (j.dequeued.expect("dequeued") - j.submitted).as_nanos() as u64;
            inner.stats.queue_wait_ns += wait_ns;
            inner.finished.push_back(id);
            drop(g);
            self.terminal.notify_all();
        }
    }

    fn pop_best(g: &mut Inner<J, R>) -> Option<u64> {
        for q in g.pending.iter_mut() {
            if let Some(id) = q.pop_front() {
                return Some(id);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Test payload: how many milliseconds to sleep cancellably, or a
    /// forced failure / panic.
    enum Work {
        Sleep(u64),
        Fail,
        Panic,
    }

    fn runner(ctx: &JobCtx, w: &Work) -> Result<u64, JobError> {
        match w {
            Work::Sleep(ms) => {
                ctx.set_stage("sleep");
                ctx.sleep_cancellable(Duration::from_millis(*ms))?;
                Ok(*ms)
            }
            Work::Fail => Err(JobError::Failed("forced".to_string())),
            Work::Panic => panic!("deliberate test panic"),
        }
    }

    fn start(workers: usize) -> (Arc<JobQueue<Work, u64>>, std::thread::JoinHandle<()>) {
        let q = JobQueue::<Work, u64>::new(workers);
        let q2 = Arc::clone(&q);
        let h = std::thread::spawn(move || q2.run(runner));
        (q, h)
    }

    const WAIT: Duration = Duration::from_secs(10);

    #[test]
    fn done_failed_and_panic_states() {
        let (q, h) = start(2);
        let ok = q.submit("sleep", Work::Sleep(1), Priority::Normal, None).unwrap();
        let bad = q.submit("fail", Work::Fail, Priority::Normal, None).unwrap();
        let boom = q.submit("panic", Work::Panic, Priority::Normal, None).unwrap();
        let s_ok = q.wait_terminal(ok, WAIT).unwrap();
        assert_eq!((s_ok.state, s_ok.result), (JobState::Done, Some(1)));
        assert_eq!(s_ok.stages.len(), 1, "one closed stage");
        let s_bad = q.wait_terminal(bad, WAIT).unwrap();
        assert_eq!(s_bad.state, JobState::Failed);
        assert_eq!(s_bad.error.as_deref(), Some("forced"));
        let s_boom = q.wait_terminal(boom, WAIT).unwrap();
        assert_eq!(s_boom.state, JobState::Failed);
        assert!(s_boom.error.unwrap().contains("deliberate test panic"));
        q.shutdown(true);
        h.join().unwrap();
        let st = q.stats();
        assert_eq!((st.completed, st.failed), (1, 2));
    }

    #[test]
    fn unknown_ids() {
        let (q, h) = start(1);
        assert!(q.status(99).is_none());
        assert!(q.cancel(99).is_none());
        assert!(q.wait_terminal(99, WAIT).is_none());
        q.shutdown(true);
        h.join().unwrap();
    }

    #[test]
    fn progress_log_streams_phase_events_then_closes() {
        let (q, h) = start(1);
        let id = q.submit("sleep", Work::Sleep(30), Priority::Normal, None).unwrap();
        let log = q.progress(id).unwrap();
        let batch = log.wait_events(0, 16, WAIT);
        assert_eq!(batch.events, [r#"{"type":"phase","name":"sleep"}"#]);
        assert_eq!(batch.next_cursor, 1);
        let fin = log.wait_events(batch.next_cursor, 16, WAIT);
        assert!(fin.closed, "log closes when the job is terminal");
        assert!(fin.events.is_empty());
        assert_eq!(fin.dropped, 0);
        q.shutdown(true);
        h.join().unwrap();
    }

    #[test]
    fn progress_log_caps_storage_and_counts_overflow() {
        let log = ProgressLog::new();
        for i in 0..PROGRESS_CAP + 5 {
            log.push(format!("e{i}"));
        }
        let batch = log.wait_events(0, PROGRESS_CAP + 10, Duration::from_millis(10));
        assert_eq!(batch.events.len(), PROGRESS_CAP);
        assert_eq!(batch.dropped, 5);
        assert!(!batch.closed);
        log.close();
        let fin = log.wait_events(batch.next_cursor, 10, WAIT);
        assert!(fin.closed);
        assert_eq!(fin.next_cursor, PROGRESS_CAP as u64);
    }

    #[test]
    fn cancelled_queued_job_closes_its_progress_log() {
        let (q, h) = start(1);
        let blocker = q.submit("sleep", Work::Sleep(200), Priority::Normal, None).unwrap();
        while q.status(blocker).unwrap().state != JobState::Running {
            std::thread::sleep(Duration::from_millis(2));
        }
        let queued = q.submit("sleep", Work::Sleep(1), Priority::Normal, None).unwrap();
        q.cancel(queued);
        let fin = q.progress(queued).unwrap().wait_events(0, 16, WAIT);
        assert!(fin.closed, "cancel-while-queued must close the log");
        assert!(fin.events.is_empty());
        q.shutdown(false);
        h.join().unwrap();
    }

    #[test]
    fn submit_evicts_the_oldest_finished_job_past_the_bound() {
        let (q, h) = start(1);
        let mut ids = Vec::new();
        for _ in 0..=RETAINED_JOBS {
            let id = q.submit("sleep", Work::Sleep(0), Priority::Normal, None).unwrap();
            assert_eq!(q.wait_terminal(id, WAIT).unwrap().state, JobState::Done);
            ids.push(id);
        }
        let (first, last) = (ids[0], ids[RETAINED_JOBS]);
        assert!(q.status(first).is_none(), "oldest finished job evicted");
        assert!(q.progress(first).is_none());
        assert_eq!(q.status(last).unwrap().result, Some(0));
        assert!(q.status(ids[1]).is_some(), "only the overflow is evicted");
        q.shutdown(true);
        h.join().unwrap();
        assert_eq!(q.stats().submitted, RETAINED_JOBS as u64 + 1);
    }

    #[test]
    fn submit_after_shutdown_rejected() {
        let (q, h) = start(1);
        q.shutdown(true);
        assert_eq!(
            q.submit("sleep", Work::Sleep(0), Priority::Normal, None),
            Err(ShuttingDown)
        );
        h.join().unwrap();
    }
}
