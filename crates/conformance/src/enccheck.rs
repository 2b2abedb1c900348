//! The SAT-leg battery: AIG-reduced CNF encoding vs exhaustive simulation.
//!
//! The miter built by [`attacks::aigcnf::ReducedEncoder`] is the fourth
//! engine of the conformance suite (after naive, full-sweep and
//! incremental simulation). Its verdicts are checked two ways:
//!
//! - **exhaustive ground truth** on small locked circuits: every candidate
//!   key is compared against the correct key over the *entire* data input
//!   space with the naive interpreter; the miter must agree exactly, and a
//!   returned counterexample must be *genuine* — replaying it through the
//!   simulator must actually show differing outputs. (A broken encoding
//!   can produce a SAT verdict with a bogus model; verdict-only checks
//!   never notice.)
//! - **I/O-constraint consistency**: a correct oracle response must stay
//!   satisfiable under the correct key, and a corrupted response must not.
//!
//! The crafted circuits pin down specific encoder paths: a plain AND key
//! gate exercises the `Slot::Gate` clause emitter, and a two-level XOR key
//! chain survives cofactoring as a genuine `Slot::Xor` cluster (XOR gates
//! with a constant operand fold to aliases, so random locks rarely cover
//! the 4-clause XOR gadget).

use std::collections::HashMap;

use attacks::aigcnf::{EncoderSabotage, ReducedEncoder};
use attacks::verify;
use cdcl::{SolveResult, Solver};
use locking::LockedCircuit;
use netlist::rng::SplitMix64;
use netlist::{Circuit, GateKind, NetId};

/// Assembles a full combinational input assignment from data bits (in
/// `data_nets` order) and key bits (in `locked.key_inputs` order).
fn assemble_input(
    locked: &LockedCircuit,
    data_nets: &[NetId],
    x: &[bool],
    key: &[bool],
) -> Vec<bool> {
    let inputs = locked.circuit.comb_inputs();
    let pos: HashMap<NetId, usize> = inputs.iter().enumerate().map(|(i, &n)| (n, i)).collect();
    let mut v = vec![false; inputs.len()];
    for (&net, &bit) in data_nets.iter().zip(x) {
        v[pos[&net]] = bit;
    }
    for (&net, &bit) in locked.key_inputs.iter().zip(key) {
        v[pos[&net]] = bit;
    }
    v
}

/// Output vector of the locked circuit under (`x`, `key`), via the naive
/// reference interpreter.
fn outputs_under(locked: &LockedCircuit, data_nets: &[NetId], x: &[bool], key: &[bool]) -> Vec<bool> {
    crate::reference::eval_bits(&locked.circuit, &assemble_input(locked, data_nets, x, key))
}

/// Data input nets: combinational inputs minus key inputs, in order (the
/// same convention as [`ReducedEncoder::data_inputs`]).
fn data_nets(locked: &LockedCircuit) -> Vec<NetId> {
    locked
        .circuit
        .comb_inputs()
        .into_iter()
        .filter(|n| !locked.key_inputs.contains(n))
        .collect()
}

/// Exhaustive key-equivalence ground truth: the first data assignment on
/// which the two keys produce different outputs, or `None`. Only usable
/// for small data widths.
fn exhaustive_counterexample(
    locked: &LockedCircuit,
    data: &[NetId],
    key_a: &[bool],
    key_b: &[bool],
) -> Option<Vec<bool>> {
    let w = data.len();
    assert!(w <= 12, "exhaustive ground truth needs a small data space");
    for pat in 0u64..(1 << w) {
        let x: Vec<bool> = (0..w).map(|i| (pat >> i) & 1 == 1).collect();
        if outputs_under(locked, data, &x, key_a) != outputs_under(locked, data, &x, key_b) {
            return Some(x);
        }
    }
    None
}

/// An encoder mutant: a fault planted inside the encoder through its
/// test-only hook, or one planted in the oracle responses the battery
/// hands it, which needs no hook in production code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EncoderFault {
    /// A fault inside the encoder ([`ReducedEncoder::set_sabotage`]).
    Sabotage(EncoderSabotage),
    /// Every oracle response the battery passes to
    /// [`ReducedEncoder::add_io_constraint`] has output 0 complemented, as
    /// an encoder that asserts the wrong response bit would constrain.
    FlipIoConstraintBit,
}

impl EncoderFault {
    /// The hook this fault installs on the encoder under test, if any.
    fn hook(self) -> Option<EncoderSabotage> {
        match self {
            EncoderFault::Sabotage(sabotage) => Some(sabotage),
            EncoderFault::FlipIoConstraintBit => None,
        }
    }
}

/// [`verify::keys_exact_counterexample`] with an optional encoder sabotage
/// installed — the mutation harness runs the identical check against a
/// corrupted encoder.
pub fn keys_counterexample_with(
    locked: &LockedCircuit,
    key_a: &[bool],
    key_b: &[bool],
    sabotage: Option<EncoderSabotage>,
) -> Option<Vec<bool>> {
    let mut solver = Solver::new();
    let mut enc = ReducedEncoder::new(locked, &mut solver, 2);
    enc.set_sabotage(sabotage);
    enc.assert_miter(&mut solver, 0, 1, None);
    for (i, (&a, &b)) in key_a.iter().zip(key_b).enumerate() {
        solver.add_clause(&[enc.key_vars(0)[i].lit(a)]);
        solver.add_clause(&[enc.key_vars(1)[i].lit(b)]);
    }
    match solver.solve() {
        SolveResult::Unsat => None,
        SolveResult::Sat => Some(
            enc.data_vars()
                .iter()
                .map(|&v| solver.value(v).unwrap_or(false))
                .collect(),
        ),
        SolveResult::Unknown => unreachable!("no conflict budget was set"),
    }
}

/// Crafted lock A: `out0 = And(a, k)` plus a key-independent second output.
/// Exercises the plain AND/gate clause emitter of the encoder.
pub fn crafted_gate_lock() -> LockedCircuit {
    let mut c = Circuit::new("conformance_enc_gate");
    let a = c.add_input("a");
    let b = c.add_input("b");
    let k = c.add_input("k0");
    let o0 = c.add_gate(GateKind::And, vec![a, k], "o0").unwrap();
    let o1 = c.add_gate(GateKind::Or, vec![a, b], "o1").unwrap();
    c.mark_output(o0);
    c.mark_output(o1);
    c.validate().expect("well-formed");
    LockedCircuit {
        circuit: c,
        key_inputs: vec![k],
        correct_key: vec![true],
        scheme: "conformance-crafted-gate",
    }
}

/// Crafted lock B: `out = (a ^ k1) ^ k2`. Both XOR clusters keep two
/// non-constant operands under the miter's symbolic cofactor, so the
/// encoder's 4-clause XOR gadget is on the path. The key space has a
/// parity symmetry: `[t,f]` is functionally identical to the correct
/// `[f,t]`, which the exact checker must report as equivalent.
pub fn crafted_xor_lock() -> LockedCircuit {
    let mut c = Circuit::new("conformance_enc_xor");
    let a = c.add_input("a");
    let k1 = c.add_input("k0");
    let k2 = c.add_input("k1");
    let x1 = c.add_gate(GateKind::Xor, vec![a, k1], "x1").unwrap();
    let out = c.add_gate(GateKind::Xor, vec![x1, k2], "out").unwrap();
    c.mark_output(out);
    c.validate().expect("well-formed");
    LockedCircuit {
        circuit: c,
        key_inputs: vec![k1, k2],
        correct_key: vec![false, true],
        scheme: "conformance-crafted-xor",
    }
}

/// Candidate keys for a locked circuit: the correct key, every single-bit
/// flip, and the all-flipped key.
fn candidate_keys(locked: &LockedCircuit) -> Vec<Vec<bool>> {
    let correct = locked.correct_key.clone();
    let mut out = vec![correct.clone()];
    for i in 0..correct.len() {
        let mut k = correct.clone();
        k[i] = !k[i];
        out.push(k);
    }
    out.push(correct.iter().map(|&b| !b).collect());
    out.dedup();
    out
}

/// The locked circuits the encoder battery runs over.
fn battery_items() -> Vec<LockedCircuit> {
    let rll = locking::random::lock(
        &netlist::samples::ripple_adder(2),
        &locking::random::RllConfig { key_bits: 4, seed: 11 },
    )
    .expect("lockable");
    let wll = locking::weighted::lock(
        &netlist::generate::random_comb(5, 6, 3, 40).expect("synthesizable"),
        &locking::weighted::WllConfig {
            key_bits: 6,
            control_width: 3,
            seed: 9,
        },
    )
    .expect("lockable");
    vec![crafted_gate_lock(), crafted_xor_lock(), rll, wll]
}

/// Whether one copy of `locked`, constrained to answer `y` on `x`, stays
/// satisfiable under the correct key. Under the `FlipIoConstraintBit`
/// fault the encoder is handed `y` with output 0 complemented.
fn io_constraint_holds(
    locked: &LockedCircuit,
    x: &[bool],
    y: &[bool],
    fault: Option<EncoderFault>,
) -> bool {
    let mut y = y.to_vec();
    if fault == Some(EncoderFault::FlipIoConstraintBit) {
        y[0] = !y[0];
    }
    let mut solver = Solver::new();
    let mut enc = ReducedEncoder::new(locked, &mut solver, 1);
    enc.set_sabotage(fault.and_then(EncoderFault::hook));
    let ok = enc.add_io_constraint(&mut solver, 0, x, &y);
    let assumptions: Vec<cdcl::Lit> = enc
        .key_vars(0)
        .iter()
        .zip(&locked.correct_key)
        .map(|(&v, &b)| v.lit(b))
        .collect();
    ok && solver.solve_with(&assumptions) == SolveResult::Sat
}

/// Runs the encoder battery. `patterns` scales the I/O-constraint check.
///
/// `Ok(())` means the encoder agreed with exhaustive simulation on every
/// circuit and candidate key; `Err` carries the first discrepancy.
pub fn encoder_battery(fault: Option<EncoderFault>, patterns: usize) -> Result<(), String> {
    let sabotage = fault.and_then(EncoderFault::hook);
    for locked in battery_items() {
        let name = locked.circuit.name().to_string();
        let data = data_nets(&locked);

        // Exact-equivalence verdicts vs exhaustive ground truth.
        for cand in candidate_keys(&locked) {
            let truth = exhaustive_counterexample(&locked, &data, &locked.correct_key, &cand);
            let miter = keys_counterexample_with(&locked, &locked.correct_key, &cand, sabotage);
            match (&truth, &miter) {
                (_, Some(x)) => {
                    // A counterexample must be genuine, whatever the truth
                    // verdict: bogus models are how a broken encoding
                    // "finds" differences that do not exist.
                    let ya = outputs_under(&locked, &data, x, &locked.correct_key);
                    let yb = outputs_under(&locked, &data, x, &cand);
                    if ya == yb {
                        return Err(format!(
                            "{name}: miter counterexample {x:?} for key {cand:?} does not \
                             distinguish the keys in simulation"
                        ));
                    }
                }
                (Some(x), None) => {
                    return Err(format!(
                        "{name}: miter claims key {cand:?} is equivalent, but simulation \
                         distinguishes at {x:?}"
                    ));
                }
                (None, None) => {}
            }
        }

        // I/O-constraint consistency under the correct key.
        let mut rng = SplitMix64::new(0x10C0_0001 ^ data.len() as u64);
        for _ in 0..patterns {
            let x: Vec<bool> = (0..data.len()).map(|_| rng.bool()).collect();
            let y = outputs_under(&locked, &data, &x, &locked.correct_key);
            if !io_constraint_holds(&locked, &x, &y, fault) {
                return Err(format!(
                    "{name}: correct oracle response on {x:?} rejected by the encoding"
                ));
            }
            let mut y_bad = y;
            y_bad[0] = !y_bad[0];
            if io_constraint_holds(&locked, &x, &y_bad, fault) {
                return Err(format!(
                    "{name}: corrupted oracle response on {x:?} accepted under the correct key"
                ));
            }
        }
    }
    Ok(())
}

/// The clean leg-4 cross-check used by the property suite: the exact SAT
/// verdict on `candidate` must be consistent with sampled simulation, and
/// any counterexample must replay as a genuine difference.
pub fn miter_cross_check(locked: &LockedCircuit, candidate: &[bool]) -> Result<(), String> {
    let data = data_nets(locked);
    let sampled_ok = attacks::key_is_functionally_correct(locked, candidate, 256)
        .map_err(|e| format!("sampled check failed: {e:?}"))?;
    match verify::keys_exact_counterexample(locked, candidate, &locked.correct_key) {
        None => {
            if !sampled_ok {
                return Err(
                    "miter says exactly equivalent, but sampling found a mismatch".into(),
                );
            }
        }
        Some(x) => {
            let ya = outputs_under(locked, &data, &x, candidate);
            let yb = outputs_under(locked, &data, &x, &locked.correct_key);
            if ya == yb {
                return Err(format!(
                    "miter counterexample {x:?} does not replay as a difference in simulation"
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_encoder_passes_battery() {
        encoder_battery(None, 6).expect("unsabotaged encoder conforms");
    }

    #[test]
    fn every_encoder_sabotage_is_detected() {
        for fault in [
            EncoderFault::Sabotage(EncoderSabotage::FlipGateClauseLit),
            EncoderFault::Sabotage(EncoderSabotage::SkipMiterOutput),
            EncoderFault::FlipIoConstraintBit,
            EncoderFault::Sabotage(EncoderSabotage::FlipXorGadgetLit),
        ] {
            let r = std::panic::catch_unwind(|| encoder_battery(Some(fault), 6));
            let killed = match &r {
                Ok(Err(_)) | Err(_) => true,
                Ok(Ok(())) => false,
            };
            assert!(killed, "encoder fault {fault:?} survived the battery");
        }
    }
}
