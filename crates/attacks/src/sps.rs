//! Signal-probability-skew (SPS) removal attack (Yasin et al., TETC 2017).
//!
//! Anti-SAT's flip signal `g(X⊕KA) ∧ ¬g(X⊕KB)` is almost always 0 — its
//! signal probability is heavily *skewed*. The SPS attack estimates signal
//! probabilities by simulation, finds the most skewed net feeding the
//! output-side XOR, replaces it with the constant it is skewed towards, and
//! thereby strips the protection block without ever touching an oracle.
//!
//! The paper notes SPS is "not applicable to OraP, since the proposed
//! scheme neither has signals with high probability skew, nor by removing
//! the LFSR and/or the key gates ... the circuit will unlock" — the tests
//! demonstrate both directions.

use locking::LockedCircuit;
use netlist::rng::SplitMix64;
use netlist::{Circuit, Error, Gate, GateKind, NetId};

use gatesim::CombSim;

/// Patterns for probability estimation.
const PATTERNS: usize = 8192;
/// A net qualifies as "skewed" when `|p(1) − 0.5| ≥ SKEW_THRESHOLD`.
const SKEW_THRESHOLD: f64 = 0.45;
/// PRNG seed for probability estimation.
const SEED: u64 = 0x595;

/// Outcome of the SPS attack.
#[derive(Debug, Clone)]
pub struct SpsOutcome {
    /// The recovered (unlocked) netlist, if a candidate was removed.
    pub recovered: Option<Circuit>,
    /// The net that was identified as the protection block's flip signal.
    pub removed_net: Option<NetId>,
    /// Measured skew of the removed net.
    pub skew: f64,
}

/// Estimates the signal probability `p(net = 1)` of every net over random
/// inputs (random values on key inputs too — the attacker has no key).
///
/// # Errors
///
/// Returns a netlist error if the circuit is cyclic.
pub fn signal_probabilities(
    circuit: &Circuit,
    patterns: usize,
    seed: u64,
) -> Result<Vec<f64>, Error> {
    let sim = CombSim::new(circuit)?;
    let mut rng = SplitMix64::new(seed);
    let words = patterns.div_ceil(64).max(1);
    let mut ones = vec![0u64; circuit.num_nets()];
    let mut values = Vec::new();
    for _ in 0..words {
        let input: Vec<u64> = (0..sim.inputs().len()).map(|_| rng.next_u64()).collect();
        sim.eval_words_into(&input, &mut values);
        for (net, w) in values.iter().enumerate() {
            ones[net] += w.count_ones() as u64;
        }
    }
    let total = (words * 64) as f64;
    Ok(ones.into_iter().map(|o| o as f64 / total).collect())
}

/// Runs the SPS removal attack on a locked netlist.
///
/// The candidate set is restricted the way the published attack works:
/// nets that (a) feed an XOR/XNOR gate whose output reaches a primary
/// output, and (b) lie in the transitive fanout of key inputs. The most
/// skewed candidate above the threshold is replaced by its skewed-towards
/// constant.
///
/// # Errors
///
/// Returns a netlist error if the circuit is cyclic.
pub fn attack(locked: &LockedCircuit) -> Result<SpsOutcome, Error> {
    let c = &locked.circuit;
    let probs = signal_probabilities(c, PATTERNS, SEED)?;

    // Nets downstream of key inputs.
    let fanouts = c.fanouts();
    let mut key_cone = vec![false; c.num_nets()];
    let mut stack: Vec<NetId> = locked.key_inputs.clone();
    while let Some(n) = stack.pop() {
        if key_cone[n.index()] {
            continue;
        }
        key_cone[n.index()] = true;
        stack.extend(fanouts[n.index()].iter().copied());
    }

    // Candidates: key-cone nets feeding an XOR/XNOR whose output is a
    // primary output (the splice structure of point-function defences).
    let mut best: Option<(f64, NetId, bool)> = None; // (skew, net, towards)
    for id in c.net_ids() {
        let Some(g) = c.gate(id) else { continue };
        if !matches!(g.kind, GateKind::Xor | GateKind::Xnor) {
            continue;
        }
        if !c.primary_outputs().contains(&id) && !c.dffs().iter().any(|d| d.d == id) {
            continue;
        }
        for &f in &g.fanin {
            if !key_cone[f.index()] {
                continue;
            }
            let p = probs[f.index()];
            let skew = (p - 0.5).abs();
            if skew >= SKEW_THRESHOLD
                && best.map(|(s, _, _)| skew > s).unwrap_or(true)
            {
                best = Some((skew, f, p > 0.5));
            }
        }
    }

    let Some((skew, net, towards_one)) = best else {
        return Ok(SpsOutcome {
            recovered: None,
            removed_net: None,
            skew: 0.0,
        });
    };

    // Removal: re-drive the skewed net with its constant.
    let mut recovered = c.clone();
    let kind = if towards_one {
        GateKind::Const1
    } else {
        GateKind::Const0
    };
    recovered.set_driver(net, Gate::new(kind, vec![])?)?;
    recovered.validate()?;
    Ok(SpsOutcome {
        recovered: Some(recovered),
        removed_net: Some(net),
        skew,
    })
}

/// Checks whether the recovered netlist matches the oracle function
/// (locked circuit under the correct key) on random patterns — the
/// attacker's success criterion, evaluated with designer knowledge in tests.
///
/// # Errors
///
/// Returns a netlist error if either circuit is cyclic.
pub fn recovery_is_correct(
    locked: &LockedCircuit,
    recovered: &Circuit,
    patterns: usize,
) -> Result<bool, Error> {
    // Compare recovered(x, any key) against locked(x, correct key): the
    // recovered circuit still has key inputs as PIs; a correct removal makes
    // them don't-cares.
    let sim_r = CombSim::new(recovered)?;
    let sim_l = CombSim::new(&locked.circuit)?;
    let mut rng = SplitMix64::new(0x5950);
    let words = patterns.div_ceil(64).max(1);
    let key_pos: Vec<usize> = locked
        .key_inputs
        .iter()
        .map(|k| {
            sim_l
                .inputs()
                .iter()
                .position(|n| n == k)
                .expect("key input present")
        })
        .collect();
    for _ in 0..words {
        let mut input: Vec<u64> = (0..sim_l.inputs().len()).map(|_| rng.next_u64()).collect();
        let out_r = sim_r.eval_words(&input);
        for (k, &pos) in key_pos.iter().enumerate() {
            input[pos] = if locked.correct_key[k] { !0 } else { 0 };
        }
        let out_l = sim_l.eval_words(&input);
        if out_r != out_l {
            return Ok(false);
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use locking::point_function::{anti_sat, AntiSatConfig};
    use netlist::samples;

    #[test]
    fn strips_anti_sat() {
        let original = samples::ripple_adder(5);
        let locked = anti_sat(&original, &AntiSatConfig { block_width: 6, seed: 2 }).unwrap();
        let out = attack(&locked).unwrap();
        let recovered = out.recovered.expect("Anti-SAT flip signal is skewed");
        assert!(out.skew > 0.45, "skew {}", out.skew);
        assert!(
            recovery_is_correct(&locked, &recovered, 4096).unwrap(),
            "removing the skewed net must restore the original function"
        );
    }

    #[test]
    fn wll_offers_no_skewed_candidate() {
        // The paper's claim: OraP + WLL has no high-skew signals to remove.
        let original = samples::ripple_adder(5);
        let locked = locking::weighted::lock(
            &original,
            &locking::weighted::WllConfig {
                key_bits: 9,
                control_width: 3,
                seed: 4,
            },
        )
        .unwrap();
        let out = attack(&locked).unwrap();
        if let Some(recovered) = out.recovered {
            // Even if something qualified, removal must not unlock.
            assert!(
                !recovery_is_correct(&locked, &recovered, 4096).unwrap(),
                "removal must not defeat WLL"
            );
        }
    }

    #[test]
    fn signal_probabilities_sane() {
        let c = samples::majority3();
        let p = signal_probabilities(&c, 8192, 1).unwrap();
        // Majority of 3 uniform inputs is 1 with probability 1/2.
        let y = c.find("y").unwrap();
        assert!((p[y.index()] - 0.5).abs() < 0.05, "p = {}", p[y.index()]);
        for &pi in c.primary_inputs() {
            assert!((p[pi.index()] - 0.5).abs() < 0.05);
        }
    }
}
