//! AppSAT-style approximate deobfuscation (Shamsi et al., HOST 2017).
//!
//! Against compound schemes (point-function + traditional locking), the
//! exact SAT attack stalls on the exponential point-function tail. AppSAT
//! interleaves the DIP loop with *settlement checks*: every few iterations
//! it extracts a candidate key and estimates its error rate on random oracle
//! queries; once the error is below a threshold it returns the candidate as
//! an approximate key (which for compound schemes recovers the traditional
//! part of the key).

use locking::LockedCircuit;
use netlist::rng::SplitMix64;

use crate::engine::{AttackCtl, AttackEngine, AttackSession, Interrupt, StepStatus};
use crate::sat::DipLoop;
use crate::{AttackOutcome, FailureReason, Oracle};

/// Run a settlement check every this many DIPs.
const SETTLE_EVERY: usize = 8;
/// Random queries per settlement check.
const SETTLE_SAMPLES: usize = 64;
/// PRNG seed for settlement sampling.
const SETTLE_SEED: u64 = 0xA995A7;

/// AppSAT configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AppSatConfig {
    /// Maximum DIP iterations.
    pub max_iterations: usize,
    /// Accept the candidate when the mismatching-query fraction is at most
    /// this (0.0 = exact on the sample).
    pub error_threshold: f64,
}

impl Default for AppSatConfig {
    fn default() -> Self {
        AppSatConfig {
            max_iterations: 2048,
            error_threshold: 0.01,
        }
    }
}

/// AppSAT as an [`AttackEngine`].
#[derive(Debug, Clone, Copy, Default)]
pub struct AppSatEngine {
    /// Attack parameters.
    pub config: AppSatConfig,
}

impl AttackEngine for AppSatEngine {
    fn name(&self) -> &'static str {
        "appsat"
    }

    fn start<'a>(
        &self,
        locked: &'a LockedCircuit,
        oracle: &'a mut dyn Oracle,
    ) -> Box<dyn AttackSession + 'a> {
        let mut dip = DipLoop::new(locked, oracle);
        let config = self.config;
        let sim = gatesim::CombSim::new(&locked.circuit).ok();
        if sim.is_none() {
            dip.finish(
                AttackOutcome::failed(FailureReason::Inconclusive, 0, 0)
                    .with_telemetry(dip.ctx.telemetry()),
            );
        }
        let (key_pos, data_pos) = match &sim {
            Some(sim) => {
                let key_pos: Vec<usize> = locked
                    .key_inputs
                    .iter()
                    .map(|k| {
                        sim.inputs()
                            .iter()
                            .position(|n| n == k)
                            .expect("key input present")
                    })
                    .collect();
                let data_pos: Vec<usize> = (0..sim.inputs().len())
                    .filter(|i| !key_pos.contains(i))
                    .collect();
                (key_pos, data_pos)
            }
            None => (Vec::new(), Vec::new()),
        };
        Box::new(AppSatSession {
            dip,
            config,
            rng: SplitMix64::new(SETTLE_SEED),
            sim,
            key_pos,
            data_pos,
            settle: None,
        })
    }
}

/// In-flight settlement check state, kept across interrupted steps so a
/// resumed session replays the exact settlement the uninterrupted run would
/// have performed.
struct SettleState {
    candidate: Vec<bool>,
    mismatches: usize,
    answered: usize,
    sampled: usize,
    /// A drawn-but-unqueried sample stashed by an interrupt.
    pending_x: Option<Vec<bool>>,
}

/// An AppSAT attack in progress: one step learns one DIP; when a settlement
/// check falls due it runs inside the same step (interrupting mid-settlement
/// stashes the settlement state for exact resumption).
pub struct AppSatSession<'a> {
    dip: DipLoop<'a>,
    config: AppSatConfig,
    rng: SplitMix64,
    sim: Option<gatesim::CombSim>,
    key_pos: Vec<usize>,
    data_pos: Vec<usize>,
    settle: Option<SettleState>,
}

impl AppSatSession<'_> {
    /// Runs (or resumes) the settlement check in `self.settle`.
    fn run_settlement(&mut self, ctl: &mut AttackCtl) -> StepStatus {
        let mut st = self.settle.take().expect("settlement state present");
        let sim = self.sim.as_ref().expect("settlement implies a simulator");
        while st.sampled < SETTLE_SAMPLES {
            let x: Vec<bool> = match st.pending_x.take() {
                Some(x) => x,
                None => (0..self.data_pos.len()).map(|_| self.rng.bool()).collect(),
            };
            match ctl.query(self.dip.oracle, &x) {
                Err(why) => {
                    st.pending_x = Some(x);
                    self.settle = Some(st);
                    return StepStatus::Interrupted(why);
                }
                Ok(None) => return self.dip.fail(FailureReason::OracleUnavailable),
                Ok(Some(y)) => {
                    st.sampled += 1;
                    st.answered += 1;
                    // Simulate the locked circuit under the candidate key.
                    let mut input = vec![false; sim.inputs().len()];
                    for (&p, &b) in self.data_pos.iter().zip(&x) {
                        input[p] = b;
                    }
                    for (&p, &b) in self.key_pos.iter().zip(&st.candidate) {
                        input[p] = b;
                    }
                    let got = sim.eval_bools(&input);
                    if got != y {
                        st.mismatches += 1;
                        // Feed the failing sample back as a constraint (the
                        // AppSAT refinement step).
                        self.dip.ctx.learn(&x, &y);
                    }
                }
            }
        }
        let err = st.mismatches as f64 / st.answered.max(1) as f64;
        if err <= self.config.error_threshold {
            self.dip.succeed(st.candidate)
        } else {
            StepStatus::Running
        }
    }
}

impl AttackSession for AppSatSession<'_> {
    fn step(&mut self, ctl: &mut AttackCtl) -> StepStatus {
        if let Some(status) = self.dip.begin(ctl, "dip-search") {
            return status;
        }
        if self.settle.is_some() {
            return self.run_settlement(ctl);
        }
        let status = self.dip.search(ctl, self.config.max_iterations, "dip-search");
        if status != StepStatus::Running
            || !self.dip.iterations.is_multiple_of(SETTLE_EVERY)
        {
            return status;
        }
        match self.dip.ctx.extract_key() {
            Some(candidate) => {
                ctl.emit_stage("settle");
                self.settle = Some(SettleState {
                    candidate,
                    mismatches: 0,
                    answered: 0,
                    sampled: 0,
                    pending_x: None,
                });
                self.run_settlement(ctl)
            }
            None => StepStatus::Running,
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
    use crate::oracle::{CombOracle, DeadOracle};
    use netlist::samples;

    fn run(
        locked: &LockedCircuit,
        oracle: &mut dyn Oracle,
        config: &AppSatConfig,
    ) -> AttackOutcome {
        let engine = AppSatEngine { config: *config };
        crate::engine::run(&engine, locked, oracle, &mut AttackCtl::new())
    }

    #[test]
    fn recovers_rll_key_exactly_or_approximately() {
        let original = samples::ripple_adder(4);
        let locked = locking::random::lock(
            &original,
            &locking::random::RllConfig { key_bits: 8, seed: 9 },
        )
        .unwrap();
        let mut oracle = CombOracle::from_locked(&locked).unwrap();
        let out = run(&locked, &mut oracle, &AppSatConfig::default());
        let key = out.key.expect("AppSAT recovers simple locks");
        // Approximate key must be at least 99% accurate on random patterns.
        let rep = gatesim::hd::hamming_between_keys(
            &locked.circuit,
            &locked.key_inputs,
            &locked.correct_key,
            &key,
            4096,
            1,
        )
        .unwrap();
        assert!(
            rep.percent() < 1.0,
            "approximate key error {:.3}%",
            rep.percent()
        );
    }

    #[test]
    fn approximates_compound_sarlock_quickly() {
        // SARLock on top of RLL: exact SAT needs ~2^k DIPs, AppSAT settles
        // early with a key whose residual error is the point function only.
        let original = samples::ripple_adder(4);
        let rll = locking::random::lock(
            &original,
            &locking::random::RllConfig { key_bits: 6, seed: 4 },
        )
        .unwrap();
        let compound = locking::point_function::sarlock(
            &rll.circuit,
            &locking::point_function::SarLockConfig { key_bits: 8, seed: 5 },
        )
        .unwrap();
        // Merge key metadata: the compound lock's key = RLL key ++ SARLock key.
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
        let cfg = AppSatConfig {
            max_iterations: 512,
            error_threshold: 0.05,
        };
        let out = run(&locked, &mut oracle, &cfg);
        let key = out.key.expect("AppSAT settles on compound locking");
        let rep = gatesim::hd::hamming_between_keys(
            &locked.circuit,
            &locked.key_inputs,
            &locked.correct_key,
            &key,
            8192,
            2,
        )
        .unwrap();
        // Residual error should be point-function-sized (tiny), far from the
        // RLL corruption a wrong traditional key would cause.
        assert!(
            rep.percent() < 5.0,
            "residual corruption {:.2}%",
            rep.percent()
        );
    }

    #[test]
    fn dead_oracle_defeats_appsat() {
        let original = samples::ripple_adder(4);
        let locked = locking::random::lock(
            &original,
            &locking::random::RllConfig { key_bits: 8, seed: 9 },
        )
        .unwrap();
        let mut oracle = DeadOracle::new(8, 5);
        let out = run(&locked, &mut oracle, &AppSatConfig::default());
        assert_eq!(out.failure, Some(FailureReason::OracleUnavailable));
    }
}
