//! Attack determinism: the same circuit and seed must produce the exact
//! same DIP sequence, iteration count, and telemetry on every run — and the
//! sequence must not depend on how many worker threads evaluate the oracle
//! (the `ORAP_THREADS` knob exercised here through explicit pools).

use attacks::engine::{self, AttackCtl};
use attacks::{sat, AttackOutcome, CombOracle, Oracle};
use exec::Pool;
use gatesim::CombSim;
use locking::weighted::WllConfig;
use locking::LockedCircuit;

/// Oracle wrapper recording every queried input verbatim.
struct Recording<O> {
    inner: O,
    log: Vec<Vec<bool>>,
}

impl<O: Oracle> Oracle for Recording<O> {
    fn num_inputs(&self) -> usize {
        self.inner.num_inputs()
    }
    fn num_outputs(&self) -> usize {
        self.inner.num_outputs()
    }
    fn query(&mut self, input: &[bool]) -> Option<Vec<bool>> {
        self.log.push(input.to_vec());
        self.inner.query(input)
    }
    fn queries_attempted(&self) -> usize {
        self.inner.queries_attempted()
    }
}

/// A functional oracle whose responses are computed through the chunked
/// parallel simulator on an explicit thread pool, so the attack's oracle
/// path genuinely runs across worker threads.
struct PooledOracle {
    sim: CombSim,
    data_pos: Vec<usize>,
    key_values: Vec<(usize, bool)>,
    pool: Pool,
    queries: usize,
}

impl PooledOracle {
    fn new(locked: &LockedCircuit, threads: usize) -> Self {
        let sim = CombSim::new(&locked.circuit).expect("acyclic");
        let key_set: std::collections::HashMap<_, _> = locked
            .key_inputs
            .iter()
            .copied()
            .zip(locked.correct_key.iter().copied())
            .collect();
        let mut data_pos = Vec::new();
        let mut key_values = Vec::new();
        for (i, n) in sim.inputs().iter().enumerate() {
            match key_set.get(n) {
                Some(&v) => key_values.push((i, v)),
                None => data_pos.push(i),
            }
        }
        PooledOracle {
            sim,
            data_pos,
            key_values,
            pool: Pool::with_threads(threads),
            queries: 0,
        }
    }
}

impl Oracle for PooledOracle {
    fn num_inputs(&self) -> usize {
        self.data_pos.len()
    }
    fn num_outputs(&self) -> usize {
        self.sim.outputs().len()
    }
    fn query(&mut self, input: &[bool]) -> Option<Vec<bool>> {
        self.queries += 1;
        assert_eq!(input.len(), self.data_pos.len());
        let mut words = vec![0u64; self.sim.inputs().len()];
        for (&p, &b) in self.data_pos.iter().zip(input) {
            words[p] = if b { !0 } else { 0 };
        }
        for &(p, b) in &self.key_values {
            words[p] = if b { !0 } else { 0 };
        }
        // Several identical batches fan out across the pool's workers; the
        // answers must agree regardless of which worker computed them.
        let batches = vec![words.clone(), words.clone(), words.clone(), words];
        let outs = self.sim.eval_words_many(&self.pool, &batches);
        for other in &outs[1..] {
            assert_eq!(&outs[0], other, "pooled evaluation must be uniform");
        }
        Some(outs[0].iter().map(|w| w & 1 == 1).collect())
    }
    fn queries_attempted(&self) -> usize {
        self.queries
    }
}

fn test_target() -> LockedCircuit {
    let original = netlist::generate::random_comb(0xD17, 12, 8, 220).expect("generatable");
    locking::weighted::lock(
        &original,
        &WllConfig {
            key_bits: 12,
            control_width: 3,
            seed: 0x5EED,
        },
    )
    .expect("lockable")
}

fn run_with_oracle<O: Oracle>(locked: &LockedCircuit, inner: O) -> (AttackOutcome, Vec<Vec<bool>>) {
    let mut oracle = Recording {
        inner,
        log: Vec::new(),
    };
    let attack = sat::SatEngine::default();
    let out = engine::run(&attack, locked, &mut oracle, &mut AttackCtl::new());
    (out, oracle.log)
}

#[test]
fn same_seed_same_dip_sequence_across_runs() {
    let locked = test_target();
    let (out1, log1) = run_with_oracle(&locked, CombOracle::from_locked(&locked).unwrap());
    let (out2, log2) = run_with_oracle(&locked, CombOracle::from_locked(&locked).unwrap());
    assert!(out1.key.is_some(), "attack must succeed on WLL");
    assert!(out1.iterations > 0, "needs a nontrivial DIP sequence");
    assert_eq!(log1, log2, "DIP sequences must be identical");
    // Full outcome equality covers key, iteration count, and telemetry
    // (per-DIP clause counts and solver statistics).
    assert_eq!(out1, out2);
}

#[test]
fn dip_sequence_invariant_across_thread_counts() {
    let locked = test_target();
    let (out1, log1) = run_with_oracle(&locked, PooledOracle::new(&locked, 1));
    let (out8, log8) = run_with_oracle(&locked, PooledOracle::new(&locked, 8));
    assert!(out1.key.is_some(), "attack must succeed on WLL");
    assert_eq!(log1, log8, "DIP sequence must not depend on thread count");
    assert_eq!(out1, out8, "outcome must not depend on thread count");
    // And the pooled oracle must agree with the plain sequential one.
    let (out_seq, log_seq) = run_with_oracle(&locked, CombOracle::from_locked(&locked).unwrap());
    assert_eq!(log1, log_seq);
    assert_eq!(out1.key, out_seq.key);
    assert_eq!(out1.iterations, out_seq.iterations);
}

/// The scaling-tier trajectory check: hill climbing on a 10⁵-gate locked
/// circuit must walk a bit-identical trajectory — same oracle query
/// sequence, same recovered key, same iteration count, same engine and
/// solver telemetry — no matter how many worker threads serve the oracle.
/// The search itself is sequential by design; the pool only parallelizes
/// oracle evaluation, which this test routes through explicit 1/2/8-thread
/// pools.
#[test]
fn hill_climb_trajectory_invariant_across_thread_counts_at_1e5_gates() {
    use attacks::hill_climbing::{self, HillClimbConfig};
    use netlist::generate::{profile, synthesize, BenchmarkId};

    let original =
        synthesize(&profile(BenchmarkId::B18).scaled_to_gates(100_000)).expect("synthesizable");
    let locked = locking::random::lock(
        &original,
        &locking::random::RllConfig {
            key_bits: 16,
            seed: 0x10C5,
        },
    )
    .expect("lockable");
    let config = HillClimbConfig {
        sample_patterns: 64,
        restarts: 2,
        max_sweeps: 4,
        seed: 0xC11B,
    };

    let mut runs = Vec::new();
    for threads in [1usize, 2, 8] {
        let mut oracle = Recording {
            inner: PooledOracle::new(&locked, threads),
            log: Vec::new(),
        };
        let engine = hill_climbing::HillClimbEngine { config };
        let out = engine::run(&engine, &locked, &mut oracle, &mut AttackCtl::new());
        runs.push((threads, out, oracle.log));
    }
    let (_, out1, log1) = &runs[0];
    assert_eq!(log1.len(), config.sample_patterns, "one query per sample");
    assert!(
        out1.telemetry.engine.incremental_props > 0,
        "hill climbing must exercise the incremental kernel"
    );
    for (threads, out, log) in &runs[1..] {
        assert_eq!(log, log1, "query sequence diverged on {threads} threads");
        assert_eq!(out, out1, "trajectory diverged on {threads} threads");
    }
}
