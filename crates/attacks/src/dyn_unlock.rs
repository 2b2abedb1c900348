//! DynUnlock: SAT-based unlocking of dynamically keyed scan obfuscation
//! (after arXiv:2001.06724).
//!
//! Dynamic scan obfuscation (`locking::scan_obfuscation`) keeps the secret
//! out of the combinational netlist entirely: an LFSR seeded from the key
//! re-scrambles the scan chains every shift cycle. DynUnlock's observation
//! is that a *bounded tester session* — L load shifts, one capture, L
//! unload shifts — is still a pure combinational function of (seed,
//! scanned-in bits, primary inputs), because the LFSR schedule is linear
//! and known. Unrolling that session
//! ([`ScanObfLocked::unroll`](locking::scan_obfuscation::ScanObfLocked::unroll))
//! yields a locked circuit whose key inputs are the seed, and the standard
//! oracle-guided SAT loop applies unchanged: the miter proposes a session
//! stimulus two seed candidates answer differently, the real chip runs the
//! session, and the response eliminates wrong seeds.
//!
//! The engine reuses the whole [`crate::sat`] substrate — AIG-reduced
//! cofactored constraints, one solver carrying the activation-gated miter,
//! lex-ordered key copies — and the whole [`crate::engine`] session
//! surface: resumable `step`, oracle ledger/budget, conflict-granularity
//! interrupts, typed progress milestones. Its stage names are
//! `"session-search"`/`"extract"` so progress streams distinguish session
//! unrolling from plain DIP search.

use cdcl::SolveResult;
use locking::scan_obfuscation::{ObfScanSim, ScanObfLocked, UnrolledSession};
use locking::LockedCircuit;

use crate::engine::{
    AttackCtl, AttackEngine, AttackSession, Interrupt, Milestone, ProgressEvent, StepStatus,
};
use crate::sat::AttackContext;
use crate::{AttackOutcome, FailureReason, Oracle};

/// Test-only mutation hook for the conformance kill matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DynUnlockSabotage {
    /// Learn each oracle session with its first shift frame dropped from
    /// the response stream — every later frame lands one frame early in
    /// the CNF constraint, the classic off-by-one-frame unroll bug. The
    /// misaligned constraints rule out the true seed, so the attack either
    /// stalls or extracts a seed the real chip refutes.
    DropUnrollFrame,
}

/// DynUnlock configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DynUnlockConfig {
    /// Maximum distinguishing sessions before giving up.
    pub max_iterations: usize,
    /// Optional conflict budget per solver call.
    pub conflict_budget: Option<u64>,
    /// Observed bits per shift frame of the unrolled session (one per scan
    /// chain); only used by the dropped-frame sabotage to know the frame
    /// width. `0` is fine when no sabotage is planted.
    pub frame_bits: usize,
    /// Optional planted fault (kill-matrix only).
    pub sabotage: Option<DynUnlockSabotage>,
}

impl Default for DynUnlockConfig {
    fn default() -> Self {
        DynUnlockConfig {
            max_iterations: 4096,
            conflict_budget: None,
            frame_bits: 0,
            sabotage: None,
        }
    }
}

impl DynUnlockConfig {
    /// A config matching an unrolled session's frame layout.
    pub fn for_session(session: &UnrolledSession) -> Self {
        DynUnlockConfig {
            frame_bits: session.frame_bits(),
            ..DynUnlockConfig::default()
        }
    }
}

/// DynUnlock as an [`AttackEngine`]. The `locked` circuit passed to
/// [`start`](AttackEngine::start) must be an unrolled scan session (any
/// [`LockedCircuit`] works mechanically; the unrolling is what makes the
/// key the scan seed).
#[derive(Debug, Clone, Copy, Default)]
pub struct DynUnlockEngine {
    /// Attack parameters.
    pub config: DynUnlockConfig,
}

impl AttackEngine for DynUnlockEngine {
    fn name(&self) -> &'static str {
        "dyn_unlock"
    }

    fn start<'a>(
        &self,
        locked: &'a LockedCircuit,
        oracle: &'a mut dyn Oracle,
    ) -> Box<dyn AttackSession + 'a> {
        let mut ctx = AttackContext::new(locked);
        ctx.solver.set_conflict_budget(self.config.conflict_budget);
        Box::new(DynUnlockSession {
            ctx,
            oracle,
            max_iterations: self.config.max_iterations,
            frame_bits: self.config.frame_bits,
            sabotage: self.config.sabotage,
            iterations: 0,
            pending_stimulus: None,
            started: false,
            outcome: None,
        })
    }
}

/// A DynUnlock attack in progress: one [`step`](AttackSession::step) learns
/// one distinguishing scan session (or finishes via extraction when the
/// miter is UNSAT).
pub struct DynUnlockSession<'a> {
    ctx: AttackContext,
    oracle: &'a mut dyn Oracle,
    max_iterations: usize,
    /// Observed bits per shift frame (sabotage bookkeeping).
    frame_bits: usize,
    sabotage: Option<DynUnlockSabotage>,
    iterations: usize,
    /// A session stimulus whose oracle query was interrupted; replayed
    /// before any new miter solve so resumption is bit-identical.
    pending_stimulus: Option<Vec<bool>>,
    started: bool,
    outcome: Option<AttackOutcome>,
}

impl DynUnlockSession<'_> {
    fn finish(&mut self, outcome: AttackOutcome) -> StepStatus {
        self.outcome = Some(outcome);
        StepStatus::Done
    }

    fn finish_failed(&mut self, reason: FailureReason) -> StepStatus {
        let out = AttackOutcome::failed(reason, self.iterations, self.oracle.queries_attempted())
            .with_telemetry(self.ctx.telemetry());
        self.finish(out)
    }

    fn extract_and_finish(&mut self) -> StepStatus {
        let key = self.ctx.extract_key();
        let telemetry = self.ctx.telemetry();
        match key {
            Some(key) => self.finish(AttackOutcome {
                key: Some(key),
                failure: None,
                iterations: self.iterations,
                oracle_queries: self.oracle.queries_attempted(),
                telemetry,
            }),
            None => self.finish_failed(FailureReason::Inconclusive),
        }
    }
}

impl AttackSession for DynUnlockSession<'_> {
    fn step(&mut self, ctl: &mut AttackCtl) -> StepStatus {
        if self.outcome.is_some() {
            return StepStatus::Done;
        }
        if let Err(why) = ctl.check() {
            return StepStatus::Interrupted(why);
        }
        if !self.started {
            self.started = true;
            ctl.emit_stage("session-search");
        }
        ctl.arm_solver(&mut self.ctx.solver);
        let x = match self.pending_stimulus.take() {
            Some(x) => x,
            None => {
                if self.iterations >= self.max_iterations {
                    return self.finish_failed(FailureReason::IterationLimit);
                }
                match self.ctx.solve_miter() {
                    SolveResult::Unknown => {
                        return match ctl.solver_interrupt(&self.ctx.solver) {
                            Some(why) => StepStatus::Interrupted(why),
                            None => self.finish_failed(FailureReason::SolverBudget),
                        };
                    }
                    SolveResult::Unsat => {
                        ctl.emit_stage("extract");
                        return self.extract_and_finish();
                    }
                    SolveResult::Sat => self.ctx.model_dip(),
                }
            }
        };
        match ctl.query(self.oracle, &x) {
            Err(why) => {
                self.pending_stimulus = Some(x);
                StepStatus::Interrupted(why)
            }
            Ok(None) => {
                self.iterations += 1;
                self.finish_failed(FailureReason::OracleUnavailable)
            }
            Ok(Some(y)) => {
                self.iterations += 1;
                match self.sabotage {
                    Some(DynUnlockSabotage::DropUnrollFrame) => {
                        // The stream loses its first frame: later frames
                        // shift up, the tail stays unasserted.
                        let fb = self.frame_bits.max(1).min(y.len());
                        let mut shifted = y[fb..].to_vec();
                        shifted.resize(y.len(), false);
                        self.ctx.learn_prefix(&x, &shifted, y.len() - fb);
                    }
                    None => self.ctx.learn(&x, &y),
                }
                ctl.emit(ProgressEvent::Milestone(Milestone {
                    stage: "session-search",
                    iterations: self.iterations,
                    dips_eliminated: self.ctx.dips.len(),
                    clauses_learned: self.ctx.solver.stats().learned_clauses,
                    oracle_queries: ctl.queries(),
                }));
                StepStatus::Running
            }
        }
    }

    fn outcome(&self) -> Option<&AttackOutcome> {
        self.outcome.as_ref()
    }

    fn interrupted_outcome(&self, why: Interrupt) -> AttackOutcome {
        AttackOutcome::failed(why.into(), self.iterations, self.oracle.queries_attempted())
            .with_telemetry(self.ctx.telemetry())
    }
}

/// The real obfuscated chip as a session oracle: each query runs one full
/// load→capture→unload tester session on [`ObfScanSim`] under the secret
/// seed. Input layout matches the unrolled circuit's data inputs
/// (load-phase scan-in bits cycle-major, then primary inputs); the response
/// is everything the tester observes.
pub struct ScanSessionOracle {
    chip: ObfScanSim,
    load_cycles: usize,
    unload_cycles: usize,
    num_chains: usize,
    num_pis: usize,
    num_outputs: usize,
    queries: usize,
}

impl ScanSessionOracle {
    /// Builds the chip oracle matching an unrolled session's bounds.
    ///
    /// # Errors
    ///
    /// Returns a netlist error if the circuit is cyclic.
    pub fn new(
        locked: &ScanObfLocked,
        session: &UnrolledSession,
    ) -> Result<Self, netlist::Error> {
        let chip = ObfScanSim::new(locked, &locked.correct_key)?;
        Ok(ScanSessionOracle {
            chip,
            load_cycles: session.load_cycles,
            unload_cycles: session.unload_cycles,
            num_chains: session.num_chains,
            num_pis: locked.circuit.primary_inputs().len(),
            num_outputs: session.locked.circuit.primary_outputs().len(),
            queries: 0,
        })
    }
}

impl Oracle for ScanSessionOracle {
    fn num_inputs(&self) -> usize {
        self.load_cycles * self.num_chains + self.num_pis
    }

    fn num_outputs(&self) -> usize {
        self.num_outputs
    }

    fn query(&mut self, input: &[bool]) -> Option<Vec<bool>> {
        assert_eq!(input.len(), self.num_inputs(), "input width mismatch");
        self.queries += 1;
        let split = self.load_cycles * self.num_chains;
        Some(self.chip.session(
            self.load_cycles,
            self.unload_cycles,
            &input[..split],
            &input[split..],
        ))
    }

    fn queries_attempted(&self) -> usize {
        self.queries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify;
    use locking::scan_obfuscation::{self, ScanObfConfig, UnrollOptions};
    use netlist::samples;

    fn run(
        locked: &LockedCircuit,
        oracle: &mut dyn Oracle,
        config: &DynUnlockConfig,
    ) -> AttackOutcome {
        let engine = DynUnlockEngine { config: *config };
        crate::engine::run(&engine, locked, oracle, &mut AttackCtl::new())
    }

    fn workload() -> (ScanObfLocked, UnrolledSession) {
        let orig = samples::counter(8);
        let locked = scan_obfuscation::lock(
            &orig,
            &ScanObfConfig {
                key_bits: 8,
                num_chains: 2,
                invert_spacing: 2,
                swap_spacing: 2,
                seed: 3,
            },
        )
        .unwrap();
        let unrolled = locked.unroll(&UnrollOptions::default()).unwrap();
        (locked, unrolled)
    }

    #[test]
    fn recovers_the_scan_seed() {
        let (locked, unrolled) = workload();
        let mut oracle = ScanSessionOracle::new(&locked, &unrolled).unwrap();
        let out = run(
            &unrolled.locked,
            &mut oracle,
            &DynUnlockConfig::for_session(&unrolled),
        );
        let key = out.key.expect("DynUnlock must break dynamic scan obfuscation");
        // The recovered seed must reproduce every bounded session exactly.
        assert!(
            verify::key_exact_counterexample(&unrolled.locked, &key).is_none(),
            "recovered seed must be session-equivalent to the real one"
        );
    }

    #[test]
    fn dropped_frame_sabotage_is_semantic() {
        let (locked, unrolled) = workload();
        let mut oracle = ScanSessionOracle::new(&locked, &unrolled).unwrap();
        let out = run(
            &unrolled.locked,
            &mut oracle,
            &DynUnlockConfig {
                frame_bits: unrolled.frame_bits(),
                sabotage: Some(DynUnlockSabotage::DropUnrollFrame),
                ..DynUnlockConfig::default()
            },
        );
        // Under-constrained learning must either stall or produce a seed
        // the exact miter refutes.
        let broken = match out.key {
            None => true,
            Some(key) => verify::key_exact_counterexample(&unrolled.locked, &key).is_some(),
        };
        assert!(broken, "the planted dropped-frame fault must be observable");
    }

    #[test]
    fn dead_oracle_defeats_dyn_unlock() {
        let (_, unrolled) = workload();
        let mut oracle = crate::DeadOracle::new(
            unrolled.data_bits(),
            unrolled.locked.circuit.primary_outputs().len(),
        );
        let out = run(&unrolled.locked, &mut oracle, &DynUnlockConfig::default());
        assert_eq!(out.failure, Some(FailureReason::OracleUnavailable));
    }
}
