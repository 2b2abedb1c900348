//! K-Gate-style multi-key input encoding (after arXiv:2501.02118).
//!
//! Where conventional key gates corrupt the circuit uniformly under a wrong
//! key, K-Gate Lock *partitions the input space into classes* and decodes
//! each class with its **own key word**: a small group of data inputs (the
//! *selector*) picks which word of the key is active, and the active word
//! XOR-masks a set of *target* inputs against a secret per-class decode
//! table. Under the correct key every mask term cancels and the circuit is
//! transparent; under a wrong word only the inputs of that word's class are
//! corrupted.
//!
//! The multi-key property is what raises the bar for oracle-guided attacks:
//! an oracle query constrains *only the class its selector bits land in*,
//! so a SAT attack must distinguish keys class by class — the number of
//! distinguishing inputs scales with the class count, not just the key
//! width. (The scheme is still SAT-breakable, which the attack-resistance
//! matrix reports honestly; its value is query-cost amplification, the same
//! axis SARLock exploits, without SARLock's one-input corruptibility.)
//!
//! Construction per target input `x_j`:
//!
//! ```text
//! mask_j = OR over classes s of  minterm_s(selectors) AND (key[s][j] XOR t[s][j])
//! x'_j   = x_j XOR mask_j
//! ```
//!
//! where `t[s][j]` is the secret decode table. The correct key word for
//! class `s` is exactly the table row `t[s]`, so each AND term is 0 and
//! `mask_j` vanishes. The `key XOR t` factor is realized structurally as
//! the key input either directly (`t = 0`) or through an inverter
//! (`t = 1`), so the table is embedded in the netlist the same way XOR vs
//! XNOR key gates embed key bits in classic RLL.

use netlist::rng::SplitMix64;
use netlist::{Circuit, Error, GateKind, NetId};

use crate::LockedCircuit;

/// K-Gate Lock parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KGateConfig {
    /// Number of input classes; must be a power of two ≥ 2. Uses
    /// `log2(classes)` data inputs as the class selector.
    pub classes: usize,
    /// Encoded (target) data inputs per class word; the total key width is
    /// `classes * word_bits`.
    pub word_bits: usize,
    /// PRNG seed for the decode table and the selector/target choice.
    pub seed: u64,
}

/// Applies K-Gate Lock to `original`.
///
/// # Errors
///
/// Returns [`Error::BadProfile`] if `classes` is not a power of two ≥ 2,
/// `word_bits` is 0, or the circuit has fewer than
/// `log2(classes) + word_bits` combinational inputs (selector and target
/// inputs are disjoint).
pub fn lock(original: &Circuit, config: &KGateConfig) -> Result<LockedCircuit, Error> {
    if config.classes < 2 || !config.classes.is_power_of_two() {
        return Err(Error::BadProfile(format!(
            "kgate classes must be a power of two >= 2, got {}",
            config.classes
        )));
    }
    if config.word_bits == 0 {
        return Err(Error::BadProfile("kgate word_bits must be positive".into()));
    }
    let sel_bits = config.classes.trailing_zeros() as usize;
    let inputs = original.comb_inputs();
    if inputs.len() < sel_bits + config.word_bits {
        return Err(Error::BadProfile(format!(
            "kgate needs {} disjoint selector+target inputs, circuit has {}",
            sel_bits + config.word_bits,
            inputs.len()
        )));
    }

    let mut rng = SplitMix64::new(config.seed ^ 0x4b67_a7e5_10c4_ed00);
    let picks = rng.sample_indices(inputs.len(), sel_bits + config.word_bits);
    let selectors: Vec<NetId> = picks[..sel_bits].iter().map(|&i| inputs[i]).collect();
    let targets: Vec<NetId> = picks[sel_bits..].iter().map(|&i| inputs[i]).collect();

    // The secret decode table: one row (word) per class.
    let table: Vec<Vec<bool>> = (0..config.classes)
        .map(|_| (0..config.word_bits).map(|_| rng.bool()).collect())
        .collect();

    let mut c = original.clone();

    // Key inputs, class-major: key bit s*word_bits + j decodes target j in
    // class s.
    let mut key_inputs = Vec::with_capacity(config.classes * config.word_bits);
    for s in 0..config.classes {
        for j in 0..config.word_bits {
            key_inputs.push(c.add_input(format!("kg_key_{s}_{j}")));
        }
    }

    // Selector complements, shared by every minterm.
    let mut sel_neg = Vec::with_capacity(sel_bits);
    for (b, &sel) in selectors.iter().enumerate() {
        sel_neg.push(c.add_gate(GateKind::Not, vec![sel], format!("kg_seln_{b}"))?);
    }

    // One minterm per class: AND over selector literals.
    let mut minterms = Vec::with_capacity(config.classes);
    for s in 0..config.classes {
        let lits: Vec<NetId> = (0..sel_bits)
            .map(|b| if (s >> b) & 1 == 1 { selectors[b] } else { sel_neg[b] })
            .collect();
        let m = if lits.len() == 1 {
            lits[0]
        } else {
            c.add_gate(GateKind::And, lits, format!("kg_min_{s}"))?
        };
        minterms.push(m);
    }

    for (j, &target) in targets.iter().enumerate() {
        // Per-class term: minterm AND (key XOR table-bit). The table bit is
        // folded into the polarity of the key literal.
        let mut terms = Vec::with_capacity(config.classes);
        for (s, minterm) in minterms.iter().enumerate() {
            let key = key_inputs[s * config.word_bits + j];
            let key_lit = if table[s][j] {
                c.add_gate(GateKind::Not, vec![key], format!("kg_keyn_{s}_{j}"))?
            } else {
                key
            };
            terms.push(c.add_gate(
                GateKind::And,
                vec![*minterm, key_lit],
                format!("kg_term_{s}_{j}"),
            )?);
        }
        let mask = if terms.len() == 1 {
            terms[0]
        } else {
            c.add_gate(GateKind::Or, terms, format!("kg_mask_{j}"))?
        };
        let encoded = c.add_gate(GateKind::Xor, vec![target, mask], format!("kg_enc_{j}"))?;
        // Rewire every pre-existing reader of the target input onto the
        // encoded net. The decode logic itself never reads targets (the
        // selector and target sets are disjoint), and the encoder gate is
        // excluded explicitly, so only the original core logic moves.
        let ids: Vec<NetId> = c.net_ids().collect();
        for id in ids {
            if id == encoded {
                continue;
            }
            if let Some(g) = c.gate(id) {
                if g.fanin.contains(&target) {
                    let mut g2 = g.clone();
                    for f in g2.fanin.iter_mut() {
                        if *f == target {
                            *f = encoded;
                        }
                    }
                    c.set_driver(id, g2)?;
                }
            }
        }
    }

    Ok(LockedCircuit {
        circuit: c,
        key_inputs,
        correct_key: table.iter().flatten().copied().collect(),
        scheme: "kgate",
    })
}

/// The class (selector value) an input pattern belongs to, given the locked
/// circuit's config. Exposed so tests and the conformance battery can
/// reason about which key word a query constrains.
///
/// `data` is indexed like the *original* circuit's combinational inputs.
pub fn input_class(original: &Circuit, config: &KGateConfig, data: &[bool]) -> usize {
    let sel_bits = config.classes.trailing_zeros() as usize;
    let inputs = original.comb_inputs();
    let mut rng = SplitMix64::new(config.seed ^ 0x4b67_a7e5_10c4_ed00);
    let picks = rng.sample_indices(inputs.len(), sel_bits + config.word_bits);
    let mut class = 0usize;
    for (b, &i) in picks[..sel_bits].iter().enumerate() {
        if data[i] {
            class |= 1 << b;
        }
    }
    class
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::samples;

    #[test]
    fn correct_key_preserves_function() {
        let original = samples::ripple_adder(4);
        let config = KGateConfig { classes: 4, word_bits: 3, seed: 7 };
        let locked = lock(&original, &config).unwrap();
        assert_eq!(locked.key_bits(), 12);
        assert!(locked.verify_against(&original, 512).unwrap());
    }

    #[test]
    fn wrong_word_corrupts_only_its_class() {
        let original = samples::ripple_adder(4);
        let config = KGateConfig { classes: 4, word_bits: 3, seed: 7 };
        let locked = lock(&original, &config).unwrap();
        let sim = gatesim::CombSim::new(&locked.circuit).unwrap();
        let orig = gatesim::CombSim::new(&original).unwrap();
        // Flip all of word 2; inputs whose selector lands elsewhere must be
        // untouched, and at least one class-2 input must corrupt.
        let mut wrong = locked.correct_key.clone();
        for j in 0..config.word_bits {
            wrong[2 * config.word_bits + j] = !wrong[2 * config.word_bits + j];
        }
        let n_data = original.comb_inputs().len();
        let mut rng = SplitMix64::new(0xC1A5);
        let mut corrupted_in_class = false;
        for _ in 0..256 {
            let data: Vec<bool> = (0..n_data).map(|_| rng.bool()).collect();
            let mut lock_in = data.clone();
            lock_in.extend(&wrong);
            let got = sim.eval_bools(&lock_in);
            let want = orig.eval_bools(&data);
            if input_class(&original, &config, &data) == 2 {
                corrupted_in_class |= got != want;
            } else {
                assert_eq!(got, want, "wrong word leaked outside its class");
            }
        }
        assert!(corrupted_in_class, "wrong word must corrupt its own class");
    }

    #[test]
    fn deterministic_by_seed() {
        let original = samples::ripple_adder(3);
        let config = KGateConfig { classes: 2, word_bits: 2, seed: 11 };
        let a = lock(&original, &config).unwrap();
        let b = lock(&original, &config).unwrap();
        assert_eq!(a.correct_key, b.correct_key);
        assert_eq!(a.circuit.num_gates(), b.circuit.num_gates());
    }

    #[test]
    fn rejects_bad_profiles() {
        let original = samples::c17();
        assert!(lock(&original, &KGateConfig { classes: 3, word_bits: 2, seed: 0 }).is_err());
        assert!(lock(&original, &KGateConfig { classes: 2, word_bits: 0, seed: 0 }).is_err());
        // c17 has 5 inputs; 8 classes (3 selector bits) + 4 targets > 5.
        assert!(lock(&original, &KGateConfig { classes: 8, word_bits: 4, seed: 0 }).is_err());
    }
}
