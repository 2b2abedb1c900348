//! The hill-climbing attack (Plaza & Markov, TCAD 2015).
//!
//! A model-free search: sample oracle responses on a pattern set, then
//! greedily flip key bits whenever a flip reduces the number of mismatching
//! output bits between the locked netlist (under the candidate key) and the
//! oracle responses. Random restarts escape local optima.
//!
//! The paper notes the attack can alternatively use designer-provided *test
//! responses* of the unlocked circuit; under OraP the chip is tested locked,
//! so those responses correspond to the locked circuit and the attack learns
//! nothing — [`HillClimbSession::with_responses`] lets experiments
//! demonstrate exactly that.
//!
//! Scoring runs on the compiled engine's *incremental* kernel: the sampled
//! patterns are packed 64 per word batch and fully swept once per restart;
//! each candidate key-bit flip then re-evaluates only the downstream cone of
//! that key input ([`EvalScratch::propagate`]), committing on improvement
//! and reverting otherwise. Scores are exact mismatch counts, so the greedy
//! trajectory is identical to full re-simulation — just without re-running
//! the untouched logic.

use locking::LockedCircuit;
use netlist::rng::SplitMix64;
use netlist::{CompiledCircuit, EngineCounters, EvalScratch};

use crate::engine::{
    AttackCtl, AttackEngine, AttackSession, Interrupt, Milestone, ProgressEvent, StepStatus,
};
use crate::{AttackOutcome, AttackTelemetry, FailureReason, Oracle};

/// Hill-climbing configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HillClimbConfig {
    /// Oracle patterns sampled for the objective function.
    pub sample_patterns: usize,
    /// Random restarts.
    pub restarts: usize,
    /// Maximum improving sweeps per restart.
    pub max_sweeps: usize,
    /// PRNG seed.
    pub seed: u64,
}

impl Default for HillClimbConfig {
    fn default() -> Self {
        HillClimbConfig {
            sample_patterns: 64,
            restarts: 20,
            max_sweeps: 64,
            seed: 0xC11B,
        }
    }
}

/// Hill climbing as an [`AttackEngine`].
#[derive(Debug, Clone, Copy, Default)]
pub struct HillClimbEngine {
    /// Attack parameters.
    pub config: HillClimbConfig,
}

impl AttackEngine for HillClimbEngine {
    fn name(&self) -> &'static str {
        "hill_climbing"
    }

    fn start<'a>(
        &self,
        locked: &'a LockedCircuit,
        oracle: &'a mut dyn Oracle,
    ) -> Box<dyn AttackSession + 'a> {
        Box::new(HillClimbSession {
            locked,
            oracle: Some(oracle),
            config: self.config,
            phase: HcPhase::Sample {
                rng: SplitMix64::new(self.config.seed),
                patterns: Vec::with_capacity(self.config.sample_patterns),
                responses: Vec::with_capacity(self.config.sample_patterns),
                pending_x: None,
            },
            started: false,
            outcome: None,
        })
    }
}

enum HcPhase {
    /// Sampling oracle responses for the objective function.
    Sample {
        rng: SplitMix64,
        patterns: Vec<Vec<bool>>,
        responses: Vec<Vec<bool>>,
        /// A drawn-but-unqueried pattern stashed by an interrupt.
        pending_x: Option<Vec<bool>>,
    },
    /// Greedy key-bit search over the sampled (or provided) responses.
    Search(Box<HcSearch>),
}

/// The deduplicated hill-climbing core: the packed batches, scratches and
/// greedy restart/sweep state shared by the live-oracle engine path and the
/// fixed-responses session ([`HillClimbSession::with_responses`]).
struct HcSearch {
    cc: CompiledCircuit,
    inputs: Vec<netlist::NetId>,
    outputs: Vec<netlist::NetId>,
    key_pos: Vec<usize>,
    nk: usize,
    rng: SplitMix64,
    batch_words: Vec<Vec<u64>>,
    batch_want: Vec<Vec<u64>>,
    batch_mask: Vec<u64>,
    scratches: Vec<EvalScratch>,
    max_sweeps: usize,
    restarts: usize,
    restarts_used: usize,
    /// Oracle queries attempted before the search began (the sampling
    /// phase's count, or the caller-provided count for fixed responses).
    queries_attempted: usize,
}

impl HcSearch {
    /// Builds the search state (compile, position maps, 64-lane batch
    /// packing), or `None` when the circuit cannot be compiled.
    fn build(
        locked: &LockedCircuit,
        patterns: &[Vec<bool>],
        responses: &[Vec<bool>],
        config: &HillClimbConfig,
        queries_attempted: usize,
    ) -> Option<Self> {
        assert_eq!(patterns.len(), responses.len(), "pattern/response mismatch");
        let cc = CompiledCircuit::compile(&locked.circuit).ok()?;
        let inputs = cc.inputs().to_vec();
        let outputs = cc.outputs().to_vec();
        let key_pos: Vec<usize> = locked
            .key_inputs
            .iter()
            .map(|k| {
                inputs
                    .iter()
                    .position(|n| n == k)
                    .expect("key input present")
            })
            .collect();
        let data_pos: Vec<usize> = (0..inputs.len())
            .filter(|i| !key_pos.contains(i))
            .collect();
        let nk = key_pos.len();

        // Pack the sampled patterns 64 per batch: one scratch and one
        // input-word buffer per batch, the oracle responses as want-words,
        // and a lane mask for the ragged tail.
        let n_p = patterns.len();
        let n_batches = n_p.div_ceil(64);
        let mut batch_words: Vec<Vec<u64>> = vec![vec![0u64; inputs.len()]; n_batches];
        let mut batch_want: Vec<Vec<u64>> = vec![vec![0u64; outputs.len()]; n_batches];
        let mut batch_mask: Vec<u64> = vec![0u64; n_batches];
        for (pi, (x, y)) in patterns.iter().zip(responses).enumerate() {
            let (b, lane) = (pi / 64, pi % 64);
            batch_mask[b] |= 1u64 << lane;
            for (&p, &bit) in data_pos.iter().zip(x) {
                if bit {
                    batch_words[b][p] |= 1u64 << lane;
                }
            }
            for (w, &bit) in batch_want[b].iter_mut().zip(y) {
                if bit {
                    *w |= 1u64 << lane;
                }
            }
        }
        let scratches: Vec<EvalScratch> =
            (0..n_batches).map(|_| EvalScratch::new(&cc)).collect();
        Some(HcSearch {
            cc,
            inputs,
            outputs,
            key_pos,
            nk,
            rng: SplitMix64::new(config.seed ^ 0x5eed),
            batch_words,
            batch_want,
            batch_mask,
            scratches,
            max_sweeps: config.max_sweeps,
            restarts: config.restarts,
            restarts_used: 0,
            queries_attempted,
        })
    }

    /// Mismatching output bits of one batch against the oracle responses.
    fn mismatch(&self, b: usize) -> u64 {
        let s = &self.scratches[b];
        self.outputs
            .iter()
            .zip(&self.batch_want[b])
            .map(|(o, &want)| {
                ((s.value(o.index() as u32) ^ want) & self.batch_mask[b]).count_ones() as u64
            })
            .sum()
    }

    fn drain_counters(&self) -> EngineCounters {
        let mut total = EngineCounters::default();
        for s in &self.scratches {
            total.merge(s.counters());
        }
        total
    }

    /// Runs one random restart (full sweep plus greedy bit-flip sweeps).
    /// Returns the recovered key when the restart explains every response.
    ///
    /// The whole search is sequential over word batches, so the greedy
    /// trajectory (and every score) is bit-identical for any thread count —
    /// and identical whether the session was interrupted between restarts
    /// or not (the PRNG is only consumed here).
    fn run_restart(&mut self) -> Option<Vec<bool>> {
        self.restarts_used += 1;
        let mut key: Vec<bool> = (0..self.nk).map(|_| self.rng.bool()).collect();
        // Full sweep once per restart with the fresh key.
        let mut best = 0u64;
        for b in 0..self.scratches.len() {
            for (&p, &bit) in self.key_pos.iter().zip(&key) {
                self.batch_words[b][p] = if bit { !0u64 } else { 0 };
            }
            self.scratches[b].eval_full(&self.cc, &self.batch_words[b]);
            best += self.mismatch(b);
        }
        if best == 0 {
            return Some(key);
        }
        for _sweep in 0..self.max_sweeps {
            let mut improved = false;
            for (bit, kb) in key.iter_mut().enumerate() {
                // Tentatively flip: propagate only the key input's cone.
                let net = self.inputs[self.key_pos[bit]].index() as u32;
                let word = if *kb { 0u64 } else { !0u64 };
                let mut s_new = 0u64;
                for b in 0..self.scratches.len() {
                    self.scratches[b].propagate(&self.cc, net, word);
                    s_new += self.mismatch(b);
                }
                if s_new < best {
                    best = s_new;
                    improved = true;
                    *kb = !*kb;
                    self.scratches.iter_mut().for_each(EvalScratch::commit);
                } else {
                    self.scratches.iter_mut().for_each(EvalScratch::revert);
                }
            }
            if best == 0 {
                return Some(key);
            }
            if !improved {
                break;
            }
        }
        None
    }

    fn success_outcome(&self, key: Vec<bool>) -> AttackOutcome {
        AttackOutcome {
            key: Some(key),
            failure: None,
            iterations: self.restarts_used,
            oracle_queries: self.queries_attempted,
            telemetry: AttackTelemetry {
                engine: self.drain_counters(),
                ..AttackTelemetry::default()
            },
        }
    }

    fn failed_outcome(&self) -> AttackOutcome {
        let mut out = AttackOutcome::failed(
            FailureReason::Inconclusive,
            self.restarts_used,
            self.queries_attempted,
        );
        out.telemetry.engine = self.drain_counters();
        out
    }
}

/// A hill-climbing attack in progress: the first steps sample oracle
/// responses; each later step runs one random restart.
pub struct HillClimbSession<'a> {
    locked: &'a LockedCircuit,
    /// `None` for a fixed-responses session, which never samples.
    oracle: Option<&'a mut dyn Oracle>,
    config: HillClimbConfig,
    phase: HcPhase,
    started: bool,
    outcome: Option<AttackOutcome>,
}

impl<'a> HillClimbSession<'a> {
    /// A session pre-loaded with fixed stimulus/response pairs (e.g.
    /// manufacturing-test data), skipping the sampling phase entirely.
    pub fn with_responses(
        locked: &'a LockedCircuit,
        patterns: &[Vec<bool>],
        responses: &[Vec<bool>],
        config: &HillClimbConfig,
        queries_attempted: usize,
    ) -> Self {
        let (phase, outcome) =
            match HcSearch::build(locked, patterns, responses, config, queries_attempted) {
                Some(search) => (HcPhase::Search(Box::new(search)), None),
                None => (
                    HcPhase::Sample {
                        rng: SplitMix64::new(config.seed),
                        patterns: Vec::new(),
                        responses: Vec::new(),
                        pending_x: None,
                    },
                    Some(AttackOutcome::failed(
                        FailureReason::Inconclusive,
                        0,
                        queries_attempted,
                    )),
                ),
            };
        HillClimbSession {
            locked,
            oracle: None,
            config: *config,
            phase,
            started: false,
            outcome,
        }
    }

    fn finish(&mut self, outcome: AttackOutcome) -> StepStatus {
        self.outcome = Some(outcome);
        StepStatus::Done
    }

    fn queries_attempted(&self) -> usize {
        match (&self.oracle, &self.phase) {
            (Some(oracle), _) => oracle.queries_attempted(),
            (None, HcPhase::Search(search)) => search.queries_attempted,
            (None, HcPhase::Sample { .. }) => 0,
        }
    }
}

impl AttackSession for HillClimbSession<'_> {
    fn step(&mut self, ctl: &mut AttackCtl) -> StepStatus {
        if self.outcome.is_some() {
            return StepStatus::Done;
        }
        if let Err(why) = ctl.check() {
            return StepStatus::Interrupted(why);
        }
        if !self.started {
            self.started = true;
            ctl.emit_stage(match self.phase {
                HcPhase::Sample { .. } => "sample",
                HcPhase::Search(_) => "search",
            });
        }
        match &mut self.phase {
            HcPhase::Sample {
                rng,
                patterns,
                responses,
                pending_x,
            } => {
                let oracle = self
                    .oracle
                    .as_deref_mut()
                    .expect("sampling phase requires a live oracle");
                let n_data = oracle.num_inputs();
                while patterns.len() < self.config.sample_patterns {
                    let x: Vec<bool> = match pending_x.take() {
                        Some(x) => x,
                        None => (0..n_data).map(|_| rng.bool()).collect(),
                    };
                    match ctl.query(oracle, &x) {
                        Err(why) => {
                            *pending_x = Some(x);
                            return StepStatus::Interrupted(why);
                        }
                        Ok(None) => {
                            let queries = oracle.queries_attempted();
                            return self.finish(AttackOutcome::failed(
                                FailureReason::OracleUnavailable,
                                0,
                                queries,
                            ));
                        }
                        Ok(Some(y)) => {
                            patterns.push(x);
                            responses.push(y);
                        }
                    }
                }
                let queries = oracle.queries_attempted();
                match HcSearch::build(self.locked, patterns, responses, &self.config, queries) {
                    Some(search) => {
                        self.phase = HcPhase::Search(Box::new(search));
                        ctl.emit_stage("search");
                        StepStatus::Running
                    }
                    None => self.finish(AttackOutcome::failed(
                        FailureReason::Inconclusive,
                        0,
                        queries,
                    )),
                }
            }
            HcPhase::Search(search) => {
                if search.restarts_used >= search.restarts {
                    let out = search.failed_outcome();
                    return self.finish(out);
                }
                let recovered = search.run_restart();
                ctl.emit(ProgressEvent::Milestone(Milestone {
                    stage: "search",
                    iterations: search.restarts_used,
                    dips_eliminated: 0,
                    clauses_learned: 0,
                    oracle_queries: ctl.queries(),
                }));
                match recovered {
                    Some(key) => {
                        let out = search.success_outcome(key);
                        self.finish(out)
                    }
                    None if search.restarts_used >= search.restarts => {
                        let out = search.failed_outcome();
                        self.finish(out)
                    }
                    None => StepStatus::Running,
                }
            }
        }
    }

    fn outcome(&self) -> Option<&AttackOutcome> {
        self.outcome.as_ref()
    }

    fn interrupted_outcome(&self, why: Interrupt) -> AttackOutcome {
        let (iterations, engine) = match &self.phase {
            HcPhase::Sample { .. } => (0, EngineCounters::default()),
            HcPhase::Search(search) => (search.restarts_used, search.drain_counters()),
        };
        let mut out = AttackOutcome::failed(why.into(), iterations, self.queries_attempted());
        out.telemetry.engine = engine;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key_is_functionally_correct;
    use crate::oracle::{CombOracle, DeadOracle};
    use gatesim::CombSim;
    use netlist::samples;

    fn run(
        locked: &LockedCircuit,
        oracle: &mut dyn Oracle,
        config: &HillClimbConfig,
    ) -> AttackOutcome {
        let engine = HillClimbEngine { config: *config };
        crate::engine::run(&engine, locked, oracle, &mut AttackCtl::new())
    }

    #[test]
    fn climbs_to_rll_key() {
        let original = samples::ripple_adder(4);
        let locked = locking::random::lock(
            &original,
            &locking::random::RllConfig { key_bits: 8, seed: 6 },
        )
        .unwrap();
        let mut oracle = CombOracle::from_locked(&locked).unwrap();
        let out = run(&locked, &mut oracle, &HillClimbConfig::default());
        let key = out.key.expect("hill climbing breaks small RLL");
        assert!(key_is_functionally_correct(&locked, &key, 1024).unwrap());
    }

    #[test]
    fn engine_counters_reflect_incremental_scoring() {
        let original = samples::ripple_adder(4);
        let locked = locking::random::lock(
            &original,
            &locking::random::RllConfig { key_bits: 8, seed: 6 },
        )
        .unwrap();
        let mut oracle = CombOracle::from_locked(&locked).unwrap();
        let out = run(&locked, &mut oracle, &HillClimbConfig::default());
        let e = out.telemetry.engine;
        assert!(e.full_evals > 0, "each restart starts with a full sweep");
        assert!(
            e.incremental_props > e.full_evals,
            "bit flips must use the incremental kernel: {e:?}"
        );
    }

    #[test]
    fn dead_oracle_defeats_hill_climbing() {
        let original = samples::ripple_adder(4);
        let locked = locking::random::lock(
            &original,
            &locking::random::RllConfig { key_bits: 8, seed: 6 },
        )
        .unwrap();
        let mut oracle = DeadOracle::new(8, 5);
        let out = run(&locked, &mut oracle, &HillClimbConfig::default());
        assert_eq!(out.failure, Some(FailureReason::OracleUnavailable));
    }

    #[test]
    fn locked_test_responses_mislead_the_attack() {
        // OraP's testing story: the chip is tested LOCKED (key register
        // cleared), so test responses reflect the all-zero key, not the
        // correct one. Hill climbing then converges to the all-zero key —
        // which does not unlock the chip.
        let original = samples::ripple_adder(4);
        let locked = locking::random::lock(
            &original,
            &locking::random::RllConfig { key_bits: 8, seed: 6 },
        )
        .unwrap();
        // Build "test responses" from the locked circuit with key = 0.
        let sim = CombSim::new(&locked.circuit).unwrap();
        let key_pos: Vec<usize> = locked
            .key_inputs
            .iter()
            .map(|k| sim.inputs().iter().position(|n| n == k).unwrap())
            .collect();
        let data_pos: Vec<usize> = (0..sim.inputs().len())
            .filter(|i| !key_pos.contains(i))
            .collect();
        let mut rng = SplitMix64::new(3);
        let mut patterns = Vec::new();
        let mut responses = Vec::new();
        for _ in 0..64 {
            let x: Vec<bool> = (0..data_pos.len()).map(|_| rng.bool()).collect();
            let mut input = vec![false; sim.inputs().len()];
            for (&p, &b) in data_pos.iter().zip(&x) {
                input[p] = b;
            }
            // key positions stay false: the cleared key register.
            patterns.push(x);
            responses.push(sim.eval_bools(&input));
        }
        let mut session = HillClimbSession::with_responses(
            &locked,
            &patterns,
            &responses,
            &HillClimbConfig::default(),
            0,
        );
        let out = crate::engine::drive(&mut session, &mut AttackCtl::new());
        if let Some(key) = out.key {
            // The attack "succeeds" on the locked responses, but the key it
            // finds is the cleared register — functionally wrong.
            assert!(
                !key_is_functionally_correct(&locked, &key, 1024).unwrap(),
                "locked-response key must not unlock the chip"
            );
        }
    }
}
