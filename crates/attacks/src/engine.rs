//! The unified attack-engine surface: one session/progress/interrupt
//! contract for every oracle-guided attack.
//!
//! This module is the one entry point every caller drives — the CLI, the
//! serving layer, the bench binaries and the conformance loops:
//!
//! - [`AttackEngine`] — a named factory that [`start`](AttackEngine::start)s
//!   a session over a locked circuit and an oracle.
//! - [`AttackSession`] — a resumable state machine advanced one unit of work
//!   at a time (one DIP, one restart, one key bit) by
//!   [`step`](AttackSession::step).
//! - [`AttackCtl`] — the per-step control block: a cooperative interrupt
//!   check (cancel flag + wall-clock deadline, also threaded into the CDCL
//!   solver as a conflict-granularity hook so even a single long
//!   `solve_with` call observes it), an oracle-query ledger with an
//!   enforceable budget (every engine query goes through
//!   [`AttackCtl::query`], so the paper's protect-the-oracle metric is
//!   counted uniformly at the oracle boundary), and a progress-event sink
//!   emitting typed [`ProgressEvent`] milestones.
//!
//! An interrupted session is *resumable*: [`StepStatus::Interrupted`] leaves
//! the session state intact (a distinguishing input whose oracle query was
//! cut short is stashed, not discarded), so calling `step` again — e.g. with
//! a fresh [`AttackCtl`] carrying a bigger budget — continues the attack
//! exactly where it stopped, with a bit-identical trajectory to a run that
//! was never interrupted.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use cdcl::Solver;
use locking::LockedCircuit;

use crate::{AttackOutcome, FailureReason, Oracle};

/// Why a [`step`](AttackSession::step) was cut short. Maps onto
/// [`FailureReason`] when the caller gives up instead of resuming.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Interrupt {
    /// The cancel flag fired.
    Cancelled,
    /// The wall-clock deadline passed.
    DeadlineExpired,
    /// The oracle-query budget is exhausted.
    QueryBudgetExhausted,
}

impl From<Interrupt> for FailureReason {
    fn from(i: Interrupt) -> FailureReason {
        match i {
            Interrupt::Cancelled => FailureReason::Cancelled,
            Interrupt::DeadlineExpired => FailureReason::TimedOut,
            Interrupt::QueryBudgetExhausted => FailureReason::QueryBudgetExhausted,
        }
    }
}

/// Result of one [`AttackSession::step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepStatus {
    /// Progress was made; call `step` again.
    Running,
    /// The attack concluded; [`AttackSession::outcome`] is final.
    Done,
    /// An interrupt fired mid-step. The session state is intact and the
    /// session may be resumed by calling `step` again (typically with a
    /// fresh [`AttackCtl`]); [`AttackSession::interrupted_outcome`] renders
    /// the current state as an outcome for callers that give up instead.
    Interrupted(Interrupt),
}

/// A typed progress milestone pushed through the [`AttackCtl`] sink.
///
/// Every field is a deterministic counter — no wall-clock times — so
/// progress streams replay byte-identically (the serve layer's golden
/// transcripts depend on this).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Milestone {
    /// The stage the attack is currently in (e.g. `"dip-search"`).
    pub stage: &'static str,
    /// Attack iterations executed so far (DIPs, restarts, or probed bits).
    pub iterations: usize,
    /// Distinguishing inputs eliminated so far (0 for non-SAT attacks).
    pub dips_eliminated: usize,
    /// Cumulative clauses the attack solver has learned (0 when no solver).
    pub clauses_learned: u64,
    /// Oracle queries counted by the control block's ledger.
    pub oracle_queries: u64,
}

/// One progress event, emitted through [`AttackCtl::with_progress`]'s sink.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProgressEvent {
    /// The attack entered a new stage.
    Stage {
        /// Stage name (stable identifier, e.g. `"dip-search"`).
        name: &'static str,
    },
    /// A unit of work completed (one DIP learned, one restart finished, one
    /// key bit probed).
    Milestone(Milestone),
}

/// A boxed progress-event callback: whatever the embedding layer does with
/// milestones (the daemon appends them to the job's progress log; tests
/// collect them into vectors).
pub type ProgressSink = Box<dyn FnMut(&ProgressEvent) + Send>;

/// Test-only semantic faults in the engine control layer, installed via
/// [`AttackCtl::set_sabotage`] by the conformance mutation-kill harness to
/// prove the test battery would catch these bugs. Never set in production.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineSabotage {
    /// The cooperative interrupt poll is skipped and the solver hook is
    /// never installed, so cancels and deadlines are silently ignored and
    /// an attack runs to completion despite them.
    SkipInterruptPoll,
    /// The oracle-query ledger counts only every other query, so budget
    /// enforcement lets roughly twice the allowed queries through and the
    /// reported `oracle_queries` accounting diverges from the oracle's own
    /// count.
    UndercountOracleQuery,
}

/// The per-step control block threaded through [`AttackSession::step`]:
/// interrupt sources, the oracle-query ledger/budget, and the progress sink.
///
/// A default `AttackCtl` (no cancel flag, no deadline, no budget, no sink)
/// is inert: it never interrupts, limits or reports on a session.
#[derive(Default)]
pub struct AttackCtl {
    cancel: Option<Arc<AtomicBool>>,
    deadline: Option<Instant>,
    query_budget: Option<u64>,
    /// Queries counted at the oracle boundary ([`AttackCtl::query`]).
    ledger: u64,
    /// Raw call count, kept separate from `ledger` only so the undercount
    /// sabotage has something honest to skip against.
    calls: u64,
    sink: Option<ProgressSink>,
    sabotage: Option<EngineSabotage>,
}

impl std::fmt::Debug for AttackCtl {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AttackCtl")
            .field("cancel", &self.cancel)
            .field("deadline", &self.deadline)
            .field("query_budget", &self.query_budget)
            .field("ledger", &self.ledger)
            .field("has_sink", &self.sink.is_some())
            .field("sabotage", &self.sabotage)
            .finish()
    }
}

impl AttackCtl {
    /// An inert control block: never interrupts, never limits, sinks nothing.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches a cancel flag. Polled at every step boundary and oracle
    /// query, and installed into the CDCL solver so a long solve observes it
    /// at conflict granularity.
    pub fn with_cancel(mut self, flag: Arc<AtomicBool>) -> Self {
        self.cancel = Some(flag);
        self
    }

    /// Attaches a wall-clock deadline (same polling points as the cancel
    /// flag; inside the solver it is checked every
    /// [`cdcl::DEADLINE_CHECK_MASK`]`+1` conflicts).
    pub fn with_deadline(mut self, deadline: Option<Instant>) -> Self {
        self.deadline = deadline;
        self
    }

    /// Caps the number of oracle queries this control block will allow;
    /// the budget is enforced against the ledger *before* each query, so
    /// at most `budget` queries reach the oracle through this ctl.
    pub fn with_query_budget(mut self, budget: Option<u64>) -> Self {
        self.query_budget = budget;
        self
    }

    /// Attaches a progress sink; every [`ProgressEvent`] an engine emits is
    /// passed to it synchronously, in order.
    pub fn with_progress(mut self, sink: ProgressSink) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Test-only mutation hook for the conformance kill matrix.
    pub fn set_sabotage(&mut self, sabotage: Option<EngineSabotage>) {
        self.sabotage = sabotage;
    }

    /// Oracle queries this control block has counted so far.
    pub fn queries(&self) -> u64 {
        self.ledger
    }

    /// The cooperative interrupt poll: engines call this at every step
    /// boundary (per DIP / per restart / per probed bit).
    ///
    /// # Errors
    ///
    /// [`Interrupt::Cancelled`] when the cancel flag fired,
    /// [`Interrupt::DeadlineExpired`] when the deadline passed.
    pub fn check(&self) -> Result<(), Interrupt> {
        if self.sabotage == Some(EngineSabotage::SkipInterruptPoll) {
            return Ok(());
        }
        if let Some(flag) = &self.cancel {
            if flag.load(Ordering::Relaxed) {
                return Err(Interrupt::Cancelled);
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Err(Interrupt::DeadlineExpired);
            }
        }
        Ok(())
    }

    /// Installs this control block's interrupt sources into a solver, so a
    /// single long `solve_with` call observes cancellation at conflict
    /// granularity. Engines re-arm at every step, which keeps resumed
    /// sessions honouring whatever ctl they are resumed with.
    pub fn arm_solver(&self, solver: &mut Solver) {
        if self.sabotage == Some(EngineSabotage::SkipInterruptPoll) {
            solver.set_interrupt(None);
            solver.set_deadline(None);
            return;
        }
        solver.set_interrupt(self.cancel.clone());
        solver.set_deadline(self.deadline);
    }

    /// Classifies a solver's `Unknown` result. Attack solvers run without
    /// a conflict budget, so only this control block's hook stops a solve:
    /// the cancel flag when it fired, the deadline otherwise.
    pub fn solver_interrupt(&self, solver: &Solver) -> Interrupt {
        debug_assert!(solver.interrupted(), "Unknown without an interrupt");
        let cancelled = self
            .cancel
            .as_ref()
            .is_some_and(|f| f.load(Ordering::Relaxed));
        if cancelled {
            Interrupt::Cancelled
        } else {
            Interrupt::DeadlineExpired
        }
    }

    /// The uniform oracle boundary: checks interrupts and the query budget,
    /// counts the query in the ledger, then forwards it to the oracle.
    ///
    /// The interrupt/budget check happens *before* the ledger increment and
    /// the oracle call, so an `Err` here means the oracle was not consulted
    /// — the engine stashes its pending input and the session resumes
    /// without perturbing the query sequence.
    ///
    /// # Errors
    ///
    /// Everything [`AttackCtl::check`] returns, plus
    /// [`Interrupt::QueryBudgetExhausted`] once the ledger reaches the
    /// budget.
    #[allow(clippy::type_complexity)]
    pub fn query(
        &mut self,
        oracle: &mut dyn Oracle,
        input: &[bool],
    ) -> Result<Option<Vec<bool>>, Interrupt> {
        self.check()?;
        if let Some(budget) = self.query_budget {
            if self.ledger >= budget {
                return Err(Interrupt::QueryBudgetExhausted);
            }
        }
        let undercount = self.sabotage == Some(EngineSabotage::UndercountOracleQuery)
            && self.calls % 2 == 1;
        self.calls += 1;
        if !undercount {
            self.ledger += 1;
        }
        Ok(oracle.query(input))
    }

    /// Emits a progress event to the sink (no-op without one).
    pub fn emit(&mut self, event: ProgressEvent) {
        if let Some(sink) = &mut self.sink {
            sink(&event);
        }
    }

    /// Convenience: emits a [`ProgressEvent::Stage`].
    pub fn emit_stage(&mut self, name: &'static str) {
        self.emit(ProgressEvent::Stage { name });
    }
}

/// A named attack factory. Engines are cheap value types carrying their
/// attack's configuration; [`start`](AttackEngine::start) builds the session
/// (encoders, solvers, compiled circuits) without running any of the loop.
pub trait AttackEngine {
    /// Stable attack name (one of [`ENGINE_NAMES`]).
    fn name(&self) -> &'static str;

    /// Builds a session over `locked` and `oracle`. The session borrows
    /// both for its lifetime.
    fn start<'a>(
        &self,
        locked: &'a LockedCircuit,
        oracle: &'a mut dyn Oracle,
    ) -> Box<dyn AttackSession + 'a>;
}

/// A resumable attack in progress. One `step` performs one unit of work —
/// one distinguishing input for the SAT family, one restart for hill
/// climbing, one probed key bit for sensitization — and polls `ctl`'s
/// interrupt sources at least once.
pub trait AttackSession {
    /// Advances the attack by one unit of work.
    fn step(&mut self, ctl: &mut AttackCtl) -> StepStatus;

    /// The final outcome; `None` until `step` has returned
    /// [`StepStatus::Done`].
    fn outcome(&self) -> Option<&AttackOutcome>;

    /// Renders the *current* (interrupted, still-resumable) state as an
    /// outcome, for callers that stop instead of resuming. The session is
    /// not consumed and remains resumable.
    fn interrupted_outcome(&self, why: Interrupt) -> AttackOutcome;
}

/// Drives a session to completion under `ctl`, mapping an interrupt to its
/// failure outcome. This is the single attack entry point: the CLI, the
/// serve layer, the bench binaries and the conformance loops all use it.
pub fn run(
    engine: &dyn AttackEngine,
    locked: &LockedCircuit,
    oracle: &mut dyn Oracle,
    ctl: &mut AttackCtl,
) -> AttackOutcome {
    let mut session = engine.start(locked, oracle);
    drive(session.as_mut(), ctl)
}

/// Drives an existing session to completion or first interrupt under `ctl`.
pub fn drive(session: &mut dyn AttackSession, ctl: &mut AttackCtl) -> AttackOutcome {
    loop {
        match session.step(ctl) {
            StepStatus::Running => {}
            StepStatus::Done => {
                return session
                    .outcome()
                    .cloned()
                    .expect("Done implies a final outcome");
            }
            StepStatus::Interrupted(why) => return session.interrupted_outcome(why),
        }
    }
}

/// Looks an engine up by its wire/CLI name. Accepts the canonical names and
/// the hyphenated aliases the bench binaries historically used.
pub fn by_name(name: &str) -> Option<Box<dyn AttackEngine>> {
    match name {
        "sat" => Some(Box::new(crate::sat::SatEngine::default())),
        "appsat" => Some(Box::new(crate::appsat::AppSatEngine::default())),
        "double_dip" | "double-dip" => {
            Some(Box::new(crate::double_dip::DoubleDipEngine::default()))
        }
        "hill_climbing" | "hill-climb" | "hill" => {
            Some(Box::new(crate::hill_climbing::HillClimbEngine::default()))
        }
        "sensitization" | "sensitize" => {
            Some(Box::new(crate::sensitization::SensitizationEngine::default()))
        }
        "dyn_unlock" | "dyn-unlock" | "dynunlock" => {
            Some(Box::new(crate::dyn_unlock::DynUnlockEngine::default()))
        }
        _ => None,
    }
}

/// The canonical engine names, in bench/report order.
pub const ENGINE_NAMES: [&str; 6] = [
    "sat",
    "appsat",
    "double_dip",
    "hill_climbing",
    "sensitization",
    "dyn_unlock",
];
