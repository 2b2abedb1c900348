//! Double-DIP attack variant (Shen & Zhou, GLSVLSI 2017).
//!
//! A *2-discriminating* input distinguishes at least two distinct pairs of
//! still-viable keys, so each oracle query eliminates at least two wrong-key
//! classes — this is what defeats SARLock-plus-traditional compounds faster
//! than the plain SAT attack. We encode it with a four-copy miter:
//!
//! ```text
//! C(X,K1) ≠ C(X,K2)  ∧  C(X,K3) ≠ C(X,K4)  ∧  (K1 ≠ K3 ∨ K2 ≠ K4)
//! ```
//!
//! All four copies go through the AIG-reduced encoder, so they share the
//! key-independent cone and one strashed structure. When no 2-discriminating
//! input remains, the attack falls back to the plain SAT attack on the
//! two-copy context that has been accumulating the same constraints all
//! along (no re-encoding or history replay needed).

use cdcl::{SolveResult, Solver};
use locking::LockedCircuit;

use crate::aigcnf::{xor_pos, ReducedEncoder};
use crate::engine::{AttackCtl, AttackEngine, AttackSession, Interrupt, StepStatus};
use crate::sat::DipLoop;
use crate::{AttackOutcome, FailureReason, Oracle};

/// Iteration cap for the fallback plain SAT attack.
const FALLBACK_ITERATIONS: usize = 4096;

/// Double-DIP configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DoubleDipConfig {
    /// Maximum 2-discriminating iterations before the fallback phase.
    pub max_iterations: usize,
}

impl Default for DoubleDipConfig {
    fn default() -> Self {
        DoubleDipConfig { max_iterations: 2048 }
    }
}

struct FourCopyMiter {
    solver: Solver,
    enc: ReducedEncoder,
}

fn build_miter(locked: &LockedCircuit) -> FourCopyMiter {
    let mut solver = Solver::new();
    let mut enc = ReducedEncoder::new(locked, &mut solver, 4);
    enc.assert_miter(&mut solver, 0, 1, None);
    enc.assert_miter(&mut solver, 2, 3, None);
    // Distinctness: (K1,K2) != (K3,K4).
    let mut distinct = Vec::new();
    for j in 0..locked.key_inputs.len() {
        let (k1, k2) = (enc.key_vars(0)[j], enc.key_vars(1)[j]);
        let (k3, k4) = (enc.key_vars(2)[j], enc.key_vars(3)[j]);
        distinct.push(xor_pos(&mut solver, k1.positive(), k3.positive()));
        distinct.push(xor_pos(&mut solver, k2.positive(), k4.positive()));
    }
    solver.add_clause(&distinct);
    // Per-DIP constraints keep arriving against all four key copies; freeze
    // them so inprocessing never has to restore an eliminated key variable.
    for copy in 0..4 {
        for &k in enc.key_vars(copy) {
            solver.set_frozen(k, true);
        }
    }
    FourCopyMiter { solver, enc }
}

/// Double-DIP as an [`AttackEngine`].
#[derive(Debug, Clone, Copy, Default)]
pub struct DoubleDipEngine {
    /// Attack parameters.
    pub config: DoubleDipConfig,
}

impl AttackEngine for DoubleDipEngine {
    fn name(&self) -> &'static str {
        "double_dip"
    }

    fn start<'a>(
        &self,
        locked: &'a LockedCircuit,
        oracle: &'a mut dyn Oracle,
    ) -> Box<dyn AttackSession + 'a> {
        // The plain two-copy context accumulates the same constraints in
        // parallel; after the 2-discriminating phase it continues as the
        // fallback attack and performs key extraction.
        Box::new(DoubleDipSession {
            dip: DipLoop::new(locked, oracle),
            miter: build_miter(locked),
            config: self.config,
            in_fallback: false,
        })
    }
}

/// A Double-DIP attack in progress: 2-discriminating DIPs first, then the
/// plain SAT fallback on the two-copy context that accumulated the same
/// constraints all along.
pub struct DoubleDipSession<'a> {
    dip: DipLoop<'a>,
    miter: FourCopyMiter,
    config: DoubleDipConfig,
    in_fallback: bool,
}

impl DoubleDipSession<'_> {
    /// One step of the 2-discriminating phase.
    fn step_miter(&mut self, ctl: &mut AttackCtl) -> StepStatus {
        ctl.arm_solver(&mut self.miter.solver);
        let x = match self.dip.pending.take() {
            Some(x) => x,
            None => {
                if self.dip.iterations >= self.config.max_iterations {
                    return self.dip.fail(FailureReason::IterationLimit);
                }
                match self.miter.solver.solve() {
                    SolveResult::Unknown => {
                        return StepStatus::Interrupted(ctl.solver_interrupt(&self.miter.solver));
                    }
                    SolveResult::Unsat => {
                        // No 2-discriminating input remains: switch to the
                        // plain SAT fallback, which counts its own iterations.
                        self.in_fallback = true;
                        self.dip.prior = std::mem::take(&mut self.dip.iterations);
                        ctl.emit_stage("fallback");
                        return StepStatus::Running;
                    }
                    SolveResult::Sat => self
                        .miter
                        .enc
                        .data_vars()
                        .iter()
                        .map(|&v| self.miter.solver.value(v).unwrap_or(false))
                        .collect(),
                }
            }
        };
        match self.dip.ask(ctl, x) {
            Ok((x, y)) => {
                // Constrain all four key copies plus the fallback context.
                for copy in 0..4 {
                    self.miter
                        .enc
                        .add_io_constraint(&mut self.miter.solver, copy, &x, &y);
                }
                self.dip.ctx.learn(&x, &y);
                self.dip.milestone(ctl, "2dip-search");
                StepStatus::Running
            }
            Err(status) => status,
        }
    }
}

impl AttackSession for DoubleDipSession<'_> {
    fn step(&mut self, ctl: &mut AttackCtl) -> StepStatus {
        if let Some(status) = self.dip.begin(ctl, "2dip-search") {
            return status;
        }
        if self.in_fallback {
            self.dip.search(ctl, FALLBACK_ITERATIONS, "fallback")
        } else {
            self.step_miter(ctl)
        }
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
    use netlist::samples;

    fn run(
        locked: &LockedCircuit,
        oracle: &mut dyn Oracle,
        config: &DoubleDipConfig,
    ) -> AttackOutcome {
        let engine = DoubleDipEngine { config: *config };
        crate::engine::run(&engine, locked, oracle, &mut AttackCtl::new())
    }

    #[test]
    fn recovers_rll_key() {
        let original = samples::ripple_adder(3);
        let locked = locking::random::lock(
            &original,
            &locking::random::RllConfig { key_bits: 6, seed: 2 },
        )
        .unwrap();
        let mut oracle = CombOracle::from_locked(&locked).unwrap();
        let out = run(&locked, &mut oracle, &DoubleDipConfig::default());
        let key = out.key.expect("Double-DIP breaks RLL");
        assert!(key_is_functionally_correct(&locked, &key, 1024).unwrap());
    }

    #[test]
    fn skips_sarlock_tail_faster_than_plain_sat_on_compound() {
        // RLL + SARLock compound: plain SAT burns one DIP per SARLock key;
        // Double-DIP's 2-discriminating inputs cannot come from the
        // SARLock tail, so its miter phase ends early.
        let original = samples::ripple_adder(3);
        let rll = locking::random::lock(
            &original,
            &locking::random::RllConfig { key_bits: 4, seed: 8 },
        )
        .unwrap();
        let compound = locking::point_function::sarlock(
            &rll.circuit,
            &locking::point_function::SarLockConfig { key_bits: 6, seed: 9 },
        )
        .unwrap();
        let mut key_inputs = rll.key_inputs.clone();
        key_inputs.extend(compound.key_inputs.iter().copied());
        let mut correct_key = rll.correct_key.clone();
        correct_key.extend(compound.correct_key.iter().copied());
        let locked = locking::LockedCircuit {
            circuit: compound.circuit.clone(),
            key_inputs,
            correct_key,
            scheme: "rll+sarlock",
        };
        let mut oracle = CombOracle::from_locked(&locked).unwrap();
        let out = run(&locked, &mut oracle, &DoubleDipConfig::default());
        // The returned key (exact after fallback) must unlock.
        let key = out.key.expect("compound falls to Double-DIP");
        assert!(key_is_functionally_correct(&locked, &key, 4096).unwrap());
    }

    #[test]
    fn dead_oracle_defeats_double_dip() {
        let original = samples::ripple_adder(3);
        let locked = locking::random::lock(
            &original,
            &locking::random::RllConfig { key_bits: 6, seed: 2 },
        )
        .unwrap();
        let mut oracle = DeadOracle::new(6, 4);
        let out = run(&locked, &mut oracle, &DoubleDipConfig::default());
        assert_eq!(out.failure, Some(FailureReason::OracleUnavailable));
    }
}
