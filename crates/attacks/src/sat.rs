//! The SAT attack (Subramanyan, Ray, Malik — HOST 2015).
//!
//! The attack maintains a miter `C(X, K1) ≠ C(X, K2)` over two key copies,
//! both constrained to agree with every oracle response observed so far.
//! Each satisfying assignment yields a *distinguishing input* (DIP): an
//! input on which two still-viable keys disagree. Querying the oracle on the
//! DIP and adding the response as a constraint eliminates at least one wrong
//! key equivalence class per iteration. When the miter goes UNSAT, every
//! remaining key is functionally correct — any model of the accumulated
//! constraints is an unlocking key.
//!
//! All encoding goes through [`crate::aigcnf::ReducedEncoder`]: the miter
//! compares only key-dependent output cones and shares the key-independent
//! logic between the copies, and each per-DIP constraint is cofactored under
//! the DIP's constants before any clause is emitted. Key extraction runs on
//! the *same* solver — the miter disjunction carries an activation literal,
//! so assuming it disables the miter and leaves exactly the accumulated I/O
//! constraints, reusing everything the solver has learned.
//!
//! The loop itself is written once here, as the crate-private `DipLoop`:
//! AppSAT adds its settlement checks on top, Double-DIP runs it as its
//! fallback phase, and DynUnlock is this module's [`SatSession`] under the
//! stage name `"session-search"`.
//!
//! Against OraP the very first oracle query fails, so the attack terminates
//! with [`FailureReason::OracleUnavailable`] — the paper's central claim.

use cdcl::{Lit, SolveResult, Solver};
use locking::LockedCircuit;

use crate::aigcnf::ReducedEncoder;
use crate::engine::{
    AttackCtl, AttackEngine, AttackSession, Interrupt, Milestone, ProgressEvent, StepStatus,
};
use crate::{AttackOutcome, AttackTelemetry, DipTelemetry, FailureReason, Oracle};

/// SAT attack configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SatAttackConfig {
    /// Maximum distinguishing inputs before giving up.
    pub max_iterations: usize,
}

impl Default for SatAttackConfig {
    fn default() -> Self {
        SatAttackConfig { max_iterations: 4096 }
    }
}

/// The shared plumbing of the SAT-attack family: one solver holding the
/// activation-gated miter plus every observed I/O constraint.
pub(crate) struct AttackContext {
    pub solver: Solver,
    pub enc: ReducedEncoder,
    /// Miter activation literal: assumed true for DIP search, false for key
    /// extraction (folding the old separate extraction solver into this one).
    act: Lit,
    /// Observed I/O pairs.
    pub history: Vec<(Vec<bool>, Vec<bool>)>,
    /// Per-DIP telemetry, parallel to `history`.
    pub dips: Vec<DipTelemetry>,
}

impl AttackContext {
    pub fn new(locked: &LockedCircuit) -> Self {
        let mut solver = Solver::new();
        let mut enc = ReducedEncoder::new(locked, &mut solver, 2);
        let act = solver.new_var().positive();
        enc.assert_miter(&mut solver, 0, 1, Some(!act));
        // The miter is symmetric under swapping its key copies; keep only
        // the ordered representatives.
        enc.assert_key_lex_le(&mut solver, 0, 1);
        // Every later per-DIP constraint and every assumption mentions the
        // key copies and the activation literal; freezing them spares the
        // inprocessing layer eliminate/restore churn on those variables.
        for copy in 0..2 {
            for &k in enc.key_vars(copy) {
                solver.set_frozen(k, true);
            }
        }
        solver.set_frozen(act.var(), true);
        AttackContext {
            solver,
            enc,
            act,
            history: Vec::new(),
            dips: Vec::new(),
        }
    }

    /// Searches for the next distinguishing input (miter enabled).
    pub fn solve_miter(&mut self) -> SolveResult {
        self.solver.solve_with(&[self.act])
    }

    /// Reads the current DIP from the miter solver's model.
    pub fn model_dip(&self) -> Vec<bool> {
        self.enc
            .data_vars()
            .iter()
            .map(|&v| self.solver.value(v).unwrap_or(false))
            .collect()
    }

    /// Records an oracle response: constrains both miter key copies to
    /// reproduce it.
    pub fn learn(&mut self, x: &[bool], y: &[bool]) {
        let before = self.solver.num_clauses();
        self.enc.add_io_constraint(&mut self.solver, 0, x, y);
        self.enc.add_io_constraint(&mut self.solver, 1, x, y);
        let stats = self.solver.stats();
        self.dips.push(DipTelemetry {
            clauses_added: self.solver.num_clauses().saturating_sub(before),
            conflicts: stats.conflicts,
            subsumed_clauses: stats.subsumed_clauses + stats.strengthened_clauses,
            eliminated_vars: stats.eliminated_vars,
            vivified_literals: stats.vivified_literals,
        });
        self.history.push((x.to_vec(), y.to_vec()));
    }

    /// Solves the extraction problem — any key consistent with all observed
    /// I/O pairs — by disabling the miter on the same solver.
    pub fn extract_key(&mut self) -> Option<Vec<bool>> {
        match self.solver.solve_with(&[!self.act]) {
            SolveResult::Sat => Some(
                self.enc
                    .key_vars(0)
                    .iter()
                    .map(|&v| self.solver.value(v).unwrap_or(false))
                    .collect(),
            ),
            _ => None,
        }
    }

    /// Snapshot of the run's telemetry.
    pub fn telemetry(&self) -> AttackTelemetry {
        AttackTelemetry {
            dips: self.dips.clone(),
            solver: *self.solver.stats(),
            clauses: self.solver.num_clauses(),
            vars: self.solver.num_vars(),
            engine: netlist::EngineCounters::default(),
        }
    }
}

/// The distinguishing-input loop every SAT-family session steps through
/// (SAT, AppSAT, Double-DIP's fallback phase, DynUnlock): the step prelude,
/// the interrupted-DIP stash, the iteration limit, the miter solve with
/// extraction on UNSAT, the oracle query, and the outcome bookkeeping.
pub(crate) struct DipLoop<'a> {
    pub ctx: AttackContext,
    pub oracle: &'a mut dyn Oracle,
    /// Iterations spent in an earlier phase (Double-DIP's 2-discriminating
    /// phase); reported iterations are `prior + iterations`.
    pub prior: usize,
    /// Oracle queries on distinguishing inputs in the current phase.
    pub iterations: usize,
    /// A DIP whose oracle query was interrupted; resumed before any new
    /// miter solve so the interrupted trajectory stays bit-identical.
    pub pending: Option<Vec<bool>>,
    started: bool,
    outcome: Option<AttackOutcome>,
}

impl<'a> DipLoop<'a> {
    pub fn new(locked: &LockedCircuit, oracle: &'a mut dyn Oracle) -> Self {
        DipLoop {
            ctx: AttackContext::new(locked),
            oracle,
            prior: 0,
            iterations: 0,
            pending: None,
            started: false,
            outcome: None,
        }
    }

    /// The step prelude: a finished session stays done, a pending interrupt
    /// stops the step, and the first step announces `stage`. `Some` is the
    /// status the step returns without doing any work.
    pub fn begin(&mut self, ctl: &mut AttackCtl, stage: &'static str) -> Option<StepStatus> {
        if self.outcome.is_some() {
            return Some(StepStatus::Done);
        }
        if let Err(why) = ctl.check() {
            return Some(StepStatus::Interrupted(why));
        }
        if !self.started {
            self.started = true;
            ctl.emit_stage(stage);
        }
        None
    }

    /// One DIP on the two-copy miter: resumes the stashed DIP or solves for
    /// a new one (at most `max_iterations` in this phase), queries the
    /// oracle and learns the response. `Running` means one DIP was learned;
    /// an UNSAT miter extracts the key under stage `"extract"`.
    pub fn search(
        &mut self,
        ctl: &mut AttackCtl,
        max_iterations: usize,
        stage: &'static str,
    ) -> StepStatus {
        ctl.arm_solver(&mut self.ctx.solver);
        let x = match self.pending.take() {
            Some(x) => x,
            None => {
                if self.iterations >= max_iterations {
                    return self.fail(FailureReason::IterationLimit);
                }
                match self.ctx.solve_miter() {
                    SolveResult::Unknown => {
                        return StepStatus::Interrupted(ctl.solver_interrupt(&self.ctx.solver));
                    }
                    SolveResult::Unsat => {
                        ctl.emit_stage("extract");
                        return match self.ctx.extract_key() {
                            Some(key) => self.succeed(key),
                            None => self.fail(FailureReason::Inconclusive),
                        };
                    }
                    SolveResult::Sat => self.ctx.model_dip(),
                }
            }
        };
        match self.ask(ctl, x) {
            Ok((x, y)) => {
                self.ctx.learn(&x, &y);
                self.milestone(ctl, stage);
                StepStatus::Running
            }
            Err(status) => status,
        }
    }

    /// Queries the oracle on DIP `x`, counting it as one iteration once the
    /// oracle was consulted. An interrupt stashes `x` for the next step; a
    /// refused query ends the attack.
    pub fn ask(
        &mut self,
        ctl: &mut AttackCtl,
        x: Vec<bool>,
    ) -> Result<(Vec<bool>, Vec<bool>), StepStatus> {
        match ctl.query(self.oracle, &x) {
            Err(why) => {
                self.pending = Some(x);
                Err(StepStatus::Interrupted(why))
            }
            Ok(None) => {
                self.iterations += 1;
                Err(self.fail(FailureReason::OracleUnavailable))
            }
            Ok(Some(y)) => {
                self.iterations += 1;
                Ok((x, y))
            }
        }
    }

    /// Emits the progress milestone for one learned DIP.
    pub fn milestone(&self, ctl: &mut AttackCtl, stage: &'static str) {
        ctl.emit(ProgressEvent::Milestone(Milestone {
            stage,
            iterations: self.prior + self.iterations,
            dips_eliminated: self.ctx.dips.len(),
            clauses_learned: self.ctx.solver.stats().learned_clauses,
            oracle_queries: ctl.queries(),
        }));
    }

    pub fn finish(&mut self, outcome: AttackOutcome) -> StepStatus {
        self.outcome = Some(outcome);
        StepStatus::Done
    }

    pub fn fail(&mut self, reason: FailureReason) -> StepStatus {
        let out = self.failed(reason);
        self.finish(out)
    }

    pub fn succeed(&mut self, key: Vec<bool>) -> StepStatus {
        self.finish(AttackOutcome {
            key: Some(key),
            failure: None,
            iterations: self.prior + self.iterations,
            oracle_queries: self.oracle.queries_attempted(),
            telemetry: self.ctx.telemetry(),
        })
    }

    pub fn outcome(&self) -> Option<&AttackOutcome> {
        self.outcome.as_ref()
    }

    /// The current state rendered as a failed outcome.
    pub fn failed(&self, reason: FailureReason) -> AttackOutcome {
        AttackOutcome::failed(
            reason,
            self.prior + self.iterations,
            self.oracle.queries_attempted(),
        )
        .with_telemetry(self.ctx.telemetry())
    }
}

/// The SAT attack as an [`AttackEngine`].
#[derive(Debug, Clone, Copy, Default)]
pub struct SatEngine {
    /// Attack parameters.
    pub config: SatAttackConfig,
}

impl AttackEngine for SatEngine {
    fn name(&self) -> &'static str {
        "sat"
    }

    fn start<'a>(
        &self,
        locked: &'a LockedCircuit,
        oracle: &'a mut dyn Oracle,
    ) -> Box<dyn AttackSession + 'a> {
        Box::new(SatSession::new(locked, oracle, &self.config, "dip-search"))
    }
}

/// A SAT attack in progress: one [`step`](AttackSession::step) learns one
/// distinguishing input (or finishes via extraction when the miter is
/// UNSAT).
pub struct SatSession<'a> {
    dip: DipLoop<'a>,
    max_iterations: usize,
    /// Stage name of the DIP search in progress events.
    stage: &'static str,
}

impl<'a> SatSession<'a> {
    pub(crate) fn new(
        locked: &LockedCircuit,
        oracle: &'a mut dyn Oracle,
        config: &SatAttackConfig,
        stage: &'static str,
    ) -> Self {
        SatSession {
            dip: DipLoop::new(locked, oracle),
            max_iterations: config.max_iterations,
            stage,
        }
    }
}

impl AttackSession for SatSession<'_> {
    fn step(&mut self, ctl: &mut AttackCtl) -> StepStatus {
        if let Some(status) = self.dip.begin(ctl, self.stage) {
            return status;
        }
        self.dip.search(ctl, self.max_iterations, self.stage)
    }

    fn outcome(&self) -> Option<&AttackOutcome> {
        self.dip.outcome()
    }

    fn interrupted_outcome(&self, why: Interrupt) -> AttackOutcome {
        self.dip.failed(why.into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key_is_functionally_correct;
    use crate::oracle::{CombOracle, DeadOracle};
    use locking::random::RllConfig;
    use locking::weighted::WllConfig;
    use netlist::samples;

    fn run(
        locked: &LockedCircuit,
        oracle: &mut dyn Oracle,
        config: &SatAttackConfig,
    ) -> AttackOutcome {
        let engine = SatEngine { config: *config };
        crate::engine::run(&engine, locked, oracle, &mut AttackCtl::new())
    }

    #[test]
    fn breaks_rll_on_adder() {
        let original = samples::ripple_adder(4);
        let locked =
            locking::random::lock(&original, &RllConfig { key_bits: 8, seed: 3 }).unwrap();
        let mut oracle = CombOracle::from_locked(&locked).unwrap();
        let out = run(&locked, &mut oracle, &SatAttackConfig::default());
        let key = out.key.expect("SAT attack must break RLL");
        assert!(key_is_functionally_correct(&locked, &key, 1024).unwrap());
        assert!(out.iterations <= 256, "RLL should fall quickly");
    }

    #[test]
    fn breaks_wll_on_adder() {
        let original = samples::ripple_adder(4);
        let locked = locking::weighted::lock(
            &original,
            &WllConfig {
                key_bits: 9,
                control_width: 3,
                seed: 5,
            },
        )
        .unwrap();
        let mut oracle = CombOracle::from_locked(&locked).unwrap();
        let out = run(&locked, &mut oracle, &SatAttackConfig::default());
        let key = out.key.expect("WLL offers no SAT resistance");
        assert!(key_is_functionally_correct(&locked, &key, 1024).unwrap());
    }

    #[test]
    fn breaks_random_circuit_lock() {
        let original = netlist::generate::random_comb(41, 10, 6, 150).unwrap();
        let locked =
            locking::random::lock(&original, &RllConfig { key_bits: 12, seed: 7 }).unwrap();
        let mut oracle = CombOracle::from_locked(&locked).unwrap();
        let out = run(&locked, &mut oracle, &SatAttackConfig::default());
        let key = out.key.expect("attack succeeds");
        assert!(key_is_functionally_correct(&locked, &key, 2048).unwrap());
    }

    #[test]
    fn sarlock_costs_exponential_iterations() {
        // SARLock with k key bits needs ~2^k DIPs; with a tight iteration
        // cap the attack must hit the limit, demonstrating SAT resistance.
        let original = samples::ripple_adder(4);
        let locked = locking::point_function::sarlock(
            &original,
            &locking::point_function::SarLockConfig { key_bits: 8, seed: 2 },
        )
        .unwrap();
        let mut oracle = CombOracle::from_locked(&locked).unwrap();
        let out = run(
            &locked,
            &mut oracle,
            &SatAttackConfig { max_iterations: 32 },
        );
        assert_eq!(out.failure, Some(FailureReason::IterationLimit));

        // And with enough budget it does finish (2^8 DIPs max).
        let mut oracle2 = CombOracle::from_locked(&locked).unwrap();
        let out2 = run(
            &locked,
            &mut oracle2,
            &SatAttackConfig { max_iterations: 600 },
        );
        let key = out2.key.expect("finishes after ~2^k iterations");
        assert!(out2.iterations > 32, "must need many DIPs");
        assert!(key_is_functionally_correct(&locked, &key, 4096).unwrap());
    }

    #[test]
    fn dead_oracle_defeats_attack() {
        let original = samples::ripple_adder(4);
        let locked =
            locking::random::lock(&original, &RllConfig { key_bits: 8, seed: 3 }).unwrap();
        let mut oracle = DeadOracle::new(8, 5);
        let out = run(&locked, &mut oracle, &SatAttackConfig::default());
        assert!(!out.succeeded());
        assert_eq!(out.failure, Some(FailureReason::OracleUnavailable));
        assert_eq!(out.iterations, 1, "fails at the first query");
    }

    #[test]
    fn unlocked_interface_with_zero_information_still_extracts_some_key() {
        // A locked circuit where the miter is UNSAT immediately (key gates
        // cancel): any key works, extraction returns one.
        let mut c = netlist::Circuit::new("t");
        let a = c.add_input("a");
        let k = c.add_input("k");
        // y = a XOR k XOR k == a: the two key gates cancel.
        let x1 = c.add_gate(netlist::GateKind::Xor, vec![a, k], "x1").unwrap();
        let y = c.add_gate(netlist::GateKind::Xor, vec![x1, k], "y").unwrap();
        c.mark_output(y);
        let locked = LockedCircuit {
            circuit: c,
            key_inputs: vec![k],
            correct_key: vec![false],
            scheme: "degenerate",
        };
        let mut oracle = CombOracle::from_locked(&locked).unwrap();
        let out = run(&locked, &mut oracle, &SatAttackConfig::default());
        assert_eq!(out.iterations, 0, "miter is UNSAT from the start");
        assert!(out.key.is_some());
    }

    #[test]
    fn telemetry_tracks_one_record_per_dip() {
        let original = samples::ripple_adder(4);
        let locked =
            locking::random::lock(&original, &RllConfig { key_bits: 8, seed: 3 }).unwrap();
        let mut oracle = CombOracle::from_locked(&locked).unwrap();
        let out = run(&locked, &mut oracle, &SatAttackConfig::default());
        assert!(out.key.is_some());
        assert_eq!(out.telemetry.dips.len(), out.iterations);
        // Note: the final live-clause count may legitimately be zero — once
        // the correct key is implied at root level, the inprocessing layer
        // deletes every root-satisfied clause.
        assert!(out.telemetry.vars > 0);
        assert!(out.telemetry.dips.iter().any(|d| d.clauses_added > 0));
        assert!(out.telemetry.solver.solves as usize >= out.iterations);
        // Cumulative counters never decrease along the run.
        for w in out.telemetry.dips.windows(2) {
            assert!(w[0].conflicts <= w[1].conflicts);
            assert!(w[0].subsumed_clauses <= w[1].subsumed_clauses);
            assert!(w[0].eliminated_vars <= w[1].eliminated_vars);
            assert!(w[0].vivified_literals <= w[1].vivified_literals);
        }
    }
}
