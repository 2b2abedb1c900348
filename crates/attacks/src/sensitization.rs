//! Key-sensitization probing (Yasin et al., TCAD 2016).
//!
//! For each key bit the attacker finds an input that *sensitizes* the bit to
//! an output (a SAT query on a two-copy miter differing only in that bit),
//! queries the oracle there, and keeps whichever polarity remains consistent
//! with the observation. A bit is *inferred* when exactly one polarity is
//! consistent with all observations so far. Isolated key gates (as in plain
//! RLL) leak this way; interference between key bits (or — the OraP case —
//! a dead oracle) stops the attack.

use cdcl::{Lit, SolveResult, Solver, Var};
use locking::LockedCircuit;

use crate::aigcnf::ReducedEncoder;
use crate::engine::{
    AttackCtl, AttackEngine, AttackSession, Interrupt, Milestone, ProgressEvent, StepStatus,
};
use crate::{AttackOutcome, AttackTelemetry, FailureReason, Oracle};

/// Sensitization configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SensitizationConfig {
    /// Sensitizing inputs tried per key bit.
    pub probes_per_bit: usize,
}

impl Default for SensitizationConfig {
    fn default() -> Self {
        SensitizationConfig { probes_per_bit: 4 }
    }
}

/// Per-bit inference state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BitVerdict {
    /// The bit's value was uniquely determined.
    Inferred(bool),
    /// Both polarities remain consistent (interference / muting).
    Ambiguous,
    /// No sensitizing input exists for this bit.
    Unsensitizable,
}

/// Key sensitization as an [`AttackEngine`].
#[derive(Debug, Clone, Copy, Default)]
pub struct SensitizationEngine {
    /// Attack parameters.
    pub config: SensitizationConfig,
}

impl AttackEngine for SensitizationEngine {
    fn name(&self) -> &'static str {
        "sensitization"
    }

    fn start<'a>(
        &self,
        locked: &'a LockedCircuit,
        oracle: &'a mut dyn Oracle,
    ) -> Box<dyn AttackSession + 'a> {
        Box::new(SensitizationSession::new(locked, oracle, &self.config))
    }
}

/// One key bit's in-flight probe state: its sensitization miter plus how
/// many probes were answered so far.
struct BitProbe {
    miter: Solver,
    probe: usize,
    found_any: bool,
    /// A sensitizing input found but not yet answered (interrupt stash).
    pending_x: Option<Vec<bool>>,
}

/// A sensitization attack in progress; each step probes one key bit, the
/// final step runs consistency inference.
pub struct SensitizationSession<'a> {
    oracle: &'a mut dyn Oracle,
    config: SensitizationConfig,
    nk: usize,
    /// Consistency solver: accumulates every oracle observation over the
    /// one key copy of `consistency_enc`.
    consistency: Solver,
    consistency_enc: ReducedEncoder,
    /// Two-copy miter template (shared data variables, key copies 0 and
    /// 1) and its encoder, both cloned once per probed bit.
    template: Solver,
    template_enc: ReducedEncoder,
    verdicts: Vec<BitVerdict>,
    probes: usize,
    bit: usize,
    current: Option<BitProbe>,
    started: bool,
    outcome: Option<AttackOutcome>,
}

impl<'a> SensitizationSession<'a> {
    fn new(
        locked: &'a LockedCircuit,
        oracle: &'a mut dyn Oracle,
        config: &SensitizationConfig,
    ) -> Self {
        let nk = locked.key_inputs.len();
        let mut consistency = Solver::new();
        let consistency_enc = ReducedEncoder::new(locked, &mut consistency, 1);
        let mut template = Solver::new();
        let template_enc = ReducedEncoder::new(locked, &mut template, 2);
        SensitizationSession {
            oracle,
            config: *config,
            nk,
            consistency,
            consistency_enc,
            template,
            template_enc,
            verdicts: vec![BitVerdict::Ambiguous; nk],
            probes: 0,
            bit: 0,
            current: None,
            started: false,
            outcome: None,
        }
    }

    /// Builds the sensitization miter for key bit `self.bit`: two copies
    /// share X and all key bits except that bit, which is 0 in copy 0 and 1
    /// in copy 1; some key-dependent output must differ.
    fn build_probe(&self) -> BitProbe {
        let mut miter = self.template.clone();
        let mut enc = self.template_enc.clone();
        for j in 0..self.nk {
            let (k0, k1) = (enc.key_vars(0)[j], enc.key_vars(1)[j]);
            if j == self.bit {
                miter.add_clause(&[k0.negative()]);
                miter.add_clause(&[k1.positive()]);
            } else {
                miter.add_clause(&[k0.negative(), k1.positive()]);
                miter.add_clause(&[k0.positive(), k1.negative()]);
            }
        }
        enc.assert_miter(&mut miter, 0, 1, None);
        BitProbe {
            miter,
            probe: 0,
            found_any: false,
            pending_x: None,
        }
    }

    /// Probes the current bit to completion (or interrupt). Returns
    /// `Running` when the bit is done and the session should move on.
    fn step_probe(&mut self, ctl: &mut AttackCtl) -> StepStatus {
        if self.current.is_none() {
            self.current = Some(self.build_probe());
        }
        let mut probe = self.current.take().expect("probe just ensured");
        ctl.arm_solver(&mut probe.miter);
        while probe.probe < self.config.probes_per_bit {
            let x: Vec<bool> = match probe.pending_x.take() {
                Some(x) => x,
                None => match probe.miter.solve() {
                    SolveResult::Sat => {
                        probe.found_any = true;
                        self.probes += 1;
                        self.data_vars()
                            .iter()
                            .map(|&v| probe.miter.value(v).unwrap_or(false))
                            .collect()
                    }
                    SolveResult::Unknown => {
                        if let Some(why) = ctl.solver_interrupt(&probe.miter) {
                            self.current = Some(probe);
                            return StepStatus::Interrupted(why);
                        }
                        break;
                    }
                    SolveResult::Unsat => break,
                },
            };
            match ctl.query(self.oracle, &x) {
                Err(why) => {
                    probe.pending_x = Some(x);
                    self.current = Some(probe);
                    return StepStatus::Interrupted(why);
                }
                Ok(None) => {
                    let queries = self.oracle.queries_attempted();
                    self.current = Some(probe);
                    self.outcome = Some(AttackOutcome::failed(
                        FailureReason::OracleUnavailable,
                        self.probes,
                        queries,
                    ));
                    return StepStatus::Done;
                }
                Ok(Some(y)) => {
                    self.consistency_enc
                        .add_io_constraint(&mut self.consistency, 0, &x, &y);
                    // Block this X so the next probe differs.
                    let block: Vec<Lit> = self
                        .data_vars()
                        .iter()
                        .zip(&x)
                        .map(|(&v, &b)| v.lit(!b))
                        .collect();
                    probe.miter.add_clause(&block);
                    probe.probe += 1;
                }
            }
        }
        if !probe.found_any {
            self.verdicts[self.bit] = BitVerdict::Unsensitizable;
        }
        self.bit += 1;
        self.current = None;
        ctl.emit(ProgressEvent::Milestone(Milestone {
            stage: "probe",
            iterations: self.probes,
            dips_eliminated: 0,
            clauses_learned: 0,
            oracle_queries: ctl.queries(),
        }));
        StepStatus::Running
    }

    /// Per-bit inference from the accumulated observations. Idempotent: an
    /// interrupted inference pass re-derives the same verdicts on resume.
    fn step_infer(&mut self, ctl: &mut AttackCtl) -> StepStatus {
        ctl.emit_stage("infer");
        ctl.arm_solver(&mut self.consistency);
        let mut inferred_key = vec![false; self.nk];
        let mut all_inferred = true;
        for (bi, inferred) in inferred_key.iter_mut().enumerate() {
            if self.verdicts[bi] == BitVerdict::Unsensitizable {
                all_inferred = false;
                continue;
            }
            let assume = |s: &mut Solver, lit: Lit| match s.solve_with(&[lit]) {
                SolveResult::Sat => Ok(true),
                SolveResult::Unsat => Ok(false),
                SolveResult::Unknown => Err(()),
            };
            let kv = self.consistency_enc.key_vars(0)[bi];
            let can_be_0 = match assume(&mut self.consistency, kv.negative()) {
                Ok(v) => v,
                Err(()) => {
                    let why = ctl
                        .solver_interrupt(&self.consistency)
                        .unwrap_or(Interrupt::Cancelled);
                    return StepStatus::Interrupted(why);
                }
            };
            let can_be_1 = match assume(&mut self.consistency, kv.positive()) {
                Ok(v) => v,
                Err(()) => {
                    let why = ctl
                        .solver_interrupt(&self.consistency)
                        .unwrap_or(Interrupt::Cancelled);
                    return StepStatus::Interrupted(why);
                }
            };
            self.verdicts[bi] = match (can_be_0, can_be_1) {
                (true, false) => {
                    *inferred = false;
                    BitVerdict::Inferred(false)
                }
                (false, true) => {
                    *inferred = true;
                    BitVerdict::Inferred(true)
                }
                _ => {
                    all_inferred = false;
                    BitVerdict::Ambiguous
                }
            };
        }
        let queries = self.oracle.queries_attempted();
        self.outcome = Some(if all_inferred {
            AttackOutcome {
                key: Some(inferred_key),
                failure: None,
                iterations: self.probes,
                oracle_queries: queries,
                telemetry: AttackTelemetry::default(),
            }
        } else {
            AttackOutcome::failed(FailureReason::Inconclusive, self.probes, queries)
        });
        StepStatus::Done
    }

    /// The miter's shared data variables, aligned with the oracle's inputs.
    fn data_vars(&self) -> &[Var] {
        self.template_enc.data_vars()
    }

    /// The per-bit verdicts accumulated so far (complete once the session
    /// reports [`StepStatus::Done`]).
    pub fn verdicts(&self) -> &[BitVerdict] {
        &self.verdicts
    }
}

impl AttackSession for SensitizationSession<'_> {
    fn step(&mut self, ctl: &mut AttackCtl) -> StepStatus {
        if self.outcome.is_some() {
            return StepStatus::Done;
        }
        if let Err(why) = ctl.check() {
            return StepStatus::Interrupted(why);
        }
        if !self.started {
            self.started = true;
            ctl.emit_stage("probe");
        }
        if self.bit < self.nk {
            self.step_probe(ctl)
        } else {
            self.step_infer(ctl)
        }
    }

    fn outcome(&self) -> Option<&AttackOutcome> {
        self.outcome.as_ref()
    }

    fn interrupted_outcome(&self, why: Interrupt) -> AttackOutcome {
        AttackOutcome::failed(why.into(), self.probes, self.oracle.queries_attempted())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{CombOracle, DeadOracle};
    use netlist::samples;

    /// Runs a session to completion, returning its verdicts and outcome.
    fn run(
        locked: &LockedCircuit,
        oracle: &mut dyn Oracle,
        probes_per_bit: usize,
    ) -> (Vec<BitVerdict>, AttackOutcome) {
        let config = SensitizationConfig { probes_per_bit };
        let mut session = SensitizationSession::new(locked, oracle, &config);
        let outcome = crate::engine::drive(&mut session, &mut AttackCtl::new());
        (session.verdicts().to_vec(), outcome)
    }

    #[test]
    fn infers_isolated_key_bits() {
        // RLL on a wide adder: key gates sit on separate cones, so each bit
        // sensitizes cleanly — the classic key-sensitization victim.
        let original = samples::ripple_adder(6);
        let locked = locking::random::lock(
            &original,
            &locking::random::RllConfig { key_bits: 4, seed: 12 },
        )
        .unwrap();
        let mut oracle = CombOracle::from_locked(&locked).unwrap();
        let (verdicts, _) = run(&locked, &mut oracle, 8);
        let inferred = verdicts
            .iter()
            .filter(|v| matches!(v, BitVerdict::Inferred(_)))
            .count();
        assert!(inferred >= 2, "expected some bits inferred, got {verdicts:?}");
        // Every inferred bit must match the real key (soundness).
        for (bi, v) in verdicts.iter().enumerate() {
            if let BitVerdict::Inferred(b) = v {
                assert_eq!(
                    *b, locked.correct_key[bi],
                    "bit {bi} inferred incorrectly"
                );
            }
        }
    }

    #[test]
    fn full_key_recovery_when_everything_sensitizes() {
        let original = samples::ripple_adder(8);
        let locked = locking::random::lock(
            &original,
            &locking::random::RllConfig { key_bits: 3, seed: 21 },
        )
        .unwrap();
        let mut oracle = CombOracle::from_locked(&locked).unwrap();
        let (_, outcome) = run(&locked, &mut oracle, 16);
        if let Some(key) = &outcome.key {
            assert!(crate::key_is_functionally_correct(&locked, key, 1024).unwrap());
        }
    }

    #[test]
    fn dead_oracle_defeats_sensitization() {
        let original = samples::ripple_adder(4);
        let locked = locking::random::lock(
            &original,
            &locking::random::RllConfig { key_bits: 4, seed: 2 },
        )
        .unwrap();
        let mut oracle = DeadOracle::new(8, 5);
        let probes = SensitizationConfig::default().probes_per_bit;
        let (_, outcome) = run(&locked, &mut oracle, probes);
        assert_eq!(outcome.failure, Some(FailureReason::OracleUnavailable));
    }

    #[test]
    fn wll_interferes_with_inference() {
        // Weighted control gates couple key bits; individual bits become
        // harder to pin down than with isolated RLL key gates. We only check
        // soundness here: inferred bits must be correct.
        let original = samples::ripple_adder(6);
        let locked = locking::weighted::lock(
            &original,
            &locking::weighted::WllConfig {
                key_bits: 6,
                control_width: 3,
                seed: 5,
            },
        )
        .unwrap();
        let mut oracle = CombOracle::from_locked(&locked).unwrap();
        let (verdicts, _) = run(&locked, &mut oracle, 6);
        for (bi, v) in verdicts.iter().enumerate() {
            if let BitVerdict::Inferred(b) = v {
                assert_eq!(*b, locked.correct_key[bi], "unsound inference at {bi}");
            }
        }
    }

    /// Every input the probe miter returns for bit `i` is a genuine
    /// sensitizing pattern: with the other key bits taken from the model,
    /// flipping bit `i` from 0 to 1 changes some output under simulation.
    #[test]
    fn probe_inputs_sensitize_their_bit_under_simulation() {
        let original = samples::ripple_adder(6);
        let locked = locking::weighted::lock(
            &original,
            &locking::weighted::WllConfig {
                key_bits: 6,
                control_width: 3,
                seed: 5,
            },
        )
        .unwrap();
        let sim = gatesim::CombSim::new(&locked.circuit).unwrap();
        let mut oracle = CombOracle::from_locked(&locked).unwrap();
        let mut session =
            SensitizationSession::new(&locked, &mut oracle, &SensitizationConfig::default());
        let enc = session.template_enc.clone();
        let eval = |x: &[bool], key: &[bool]| {
            let input: Vec<bool> = sim
                .inputs()
                .iter()
                .map(|n| match enc.data_inputs().iter().position(|d| d == n) {
                    Some(j) => x[j],
                    None => key[locked.key_inputs.iter().position(|k| k == n).unwrap()],
                })
                .collect();
            sim.eval_bools(&input)
        };
        let mut checked = 0;
        for bit in 0..session.nk {
            session.bit = bit;
            let mut probe = session.build_probe();
            for _ in 0..4 {
                if probe.miter.solve() != SolveResult::Sat {
                    break;
                }
                let value = |v: cdcl::Var| probe.miter.value(v).unwrap_or(false);
                let x: Vec<bool> = enc.data_vars().iter().map(|&v| value(v)).collect();
                let mut key: Vec<bool> = enc.key_vars(0).iter().map(|&v| value(v)).collect();
                assert!(!key[bit], "copy 0 holds bit {bit} at 0");
                let low = eval(&x, &key);
                key[bit] = true;
                assert_ne!(low, eval(&x, &key), "bit {bit}: {x:?} does not sensitize");
                checked += 1;
                let block: Vec<Lit> = enc
                    .data_vars()
                    .iter()
                    .zip(&x)
                    .map(|(&v, &b)| v.lit(!b))
                    .collect();
                probe.miter.add_clause(&block);
            }
        }
        assert!(checked > 0, "some bit must be sensitizable");
    }
}
