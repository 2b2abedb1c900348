//! Cross-checks between the SAT solver, the AIG-reduced CNF encoder and the
//! simulators: the encoded circuit and the bit-parallel simulator must agree
//! under every mixed usage pattern the attacks rely on.

use attacks::aigcnf::ReducedEncoder;
use attacks::{CombOracle, Oracle};
use cdcl::{Lit, SolveResult, Solver};
use locking::random::RllConfig;
use locking::LockedCircuit;
use netlist::rng::SplitMix64;

fn rll(seed: u64, inputs: usize, outputs: usize, gates: usize, key_bits: usize) -> LockedCircuit {
    let c = netlist::generate::random_comb(seed, inputs, outputs, gates).expect("generate");
    locking::random::lock(&c, &RllConfig { key_bits, seed }).expect("lock")
}

/// The locked circuit's response to data input `x` under `key`.
fn respond(locked: &LockedCircuit, key: &[bool], x: &[bool]) -> Vec<bool> {
    let keyed = LockedCircuit {
        correct_key: key.to_vec(),
        ..locked.clone()
    };
    let mut oracle = CombOracle::from_locked(&keyed).expect("acyclic");
    oracle
        .query(x)
        .expect("combinational oracles always answer")
}

/// The miter of a circuit against itself must be UNSAT: with every key bit
/// of the two copies tied together, no input distinguishes them.
#[test]
fn self_miter_is_unsat() {
    let locked = rll(51, 8, 5, 120, 8);
    let mut solver = Solver::new();
    let mut enc = ReducedEncoder::new(&locked, &mut solver, 2);
    for j in 0..locked.key_inputs.len() {
        let (k0, k1) = (enc.key_vars(0)[j], enc.key_vars(1)[j]);
        solver.add_clause(&[k0.negative(), k1.positive()]);
        solver.add_clause(&[k0.positive(), k1.negative()]);
    }
    enc.assert_miter(&mut solver, 0, 1, None);
    assert_eq!(solver.solve(), SolveResult::Unsat);
}

/// Accumulating I/O constraints narrows the key space down to functionally
/// correct keys: after constraining with the full truth table, every model
/// unlocks the circuit.
#[test]
fn full_truth_table_constraints_force_correct_keys() {
    let original = netlist::samples::ripple_adder(3); // 6 inputs
    let locked = locking::weighted::lock(
        &original,
        &locking::weighted::WllConfig {
            key_bits: 6,
            control_width: 3,
            seed: 3,
        },
    )
    .expect("lock");
    let orig_sim = gatesim::CombSim::new(&original).expect("sim");
    let mut solver = Solver::new();
    let mut enc = ReducedEncoder::new(&locked, &mut solver, 1);
    for m in 0..64u32 {
        let x: Vec<bool> = (0..6).map(|k| (m >> k) & 1 == 1).collect();
        let y = orig_sim.eval_bools(&x);
        assert!(
            enc.add_io_constraint(&mut solver, 0, &x, &y),
            "the oracle is consistent"
        );
    }
    // Enumerate a few models; each must be a working key.
    let kvars = enc.key_vars(0).to_vec();
    let mut found = 0;
    while solver.solve() == SolveResult::Sat && found < 4 {
        let key: Vec<bool> = kvars
            .iter()
            .map(|&v| solver.value(v).unwrap_or(false))
            .collect();
        assert!(
            attacks::key_is_functionally_correct(&locked, &key, 4096).expect("simulable"),
            "model key {key:?} must unlock"
        );
        found += 1;
        // Block this key to find another.
        let block: Vec<Lit> = kvars.iter().zip(&key).map(|(&v, &b)| v.lit(!b)).collect();
        if !solver.add_clause(&block) {
            break;
        }
    }
    assert!(found >= 1, "at least the correct key must satisfy");
}

/// Incremental assumption queries over the key variables stay consistent
/// with simulation (the usage pattern of the sensitization attack's
/// inference pass): a key is SAT under the accumulated observations exactly
/// when it reproduces every one of them.
#[test]
fn incremental_assumption_queries_are_consistent() {
    let locked = rll(53, 8, 4, 100, 6);
    let nk = locked.key_inputs.len();
    let mut solver = Solver::new();
    let mut enc = ReducedEncoder::new(&locked, &mut solver, 1);
    let mut rng = SplitMix64::new(4);
    let observations: Vec<(Vec<bool>, Vec<bool>)> = (0..6)
        .map(|_| {
            let x: Vec<bool> = (0..8).map(|_| rng.bool()).collect();
            let y = respond(&locked, &locked.correct_key, &x);
            (x, y)
        })
        .collect();
    for (x, y) in &observations {
        assert!(enc.add_io_constraint(&mut solver, 0, x, y));
    }
    let mut keys = vec![locked.correct_key.clone()];
    keys.extend((0..24).map(|_| (0..nk).map(|_| rng.bool()).collect::<Vec<bool>>()));
    for key in &keys {
        let consistent = observations
            .iter()
            .all(|(x, y)| respond(&locked, key, x) == *y);
        let assumptions: Vec<Lit> = enc
            .key_vars(0)
            .iter()
            .zip(key)
            .map(|(&v, &b)| v.lit(b))
            .collect();
        let want = if consistent {
            SolveResult::Sat
        } else {
            SolveResult::Unsat
        };
        assert_eq!(solver.solve_with(&assumptions), want, "key {key:?}");
    }
}
