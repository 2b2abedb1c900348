//! Output-corruption (Hamming distance) measurement.
//!
//! Table I of the paper evaluates the combination OraP + weighted logic
//! locking by the average Hamming distance between the outputs produced
//! under the *valid* key and under *random wrong* keys, over long
//! pseudorandom input sequences. 50% is the optimum (maximum ambiguity);
//! SAT-resistant schemes typically manage well under 1%, which is the
//! corruptibility argument the paper makes.

use netlist::rng::SplitMix64;
use netlist::{Circuit, Error, NetId};

use crate::CombSim;

/// Result of a Hamming-distance measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HdReport {
    /// Patterns simulated.
    pub patterns: usize,
    /// Output bits compared per pattern.
    pub outputs: usize,
    /// Total flipped output bits across all patterns.
    pub flipped: u64,
}

impl HdReport {
    /// Average Hamming distance as a percentage of output bits.
    pub fn percent(&self) -> f64 {
        if self.patterns == 0 || self.outputs == 0 {
            return 0.0;
        }
        100.0 * self.flipped as f64 / (self.patterns as f64 * self.outputs as f64)
    }
}

/// Splits a locked circuit's combinational inputs into (data, key) positions.
fn input_roles(sim: &CombSim, key_nets: &[NetId]) -> (Vec<usize>, Vec<usize>) {
    let mut data = Vec::new();
    let mut key = Vec::new();
    for (i, n) in sim.inputs().iter().enumerate() {
        if key_nets.contains(n) {
            key.push(i);
        } else {
            data.push(i);
        }
    }
    (data, key)
}

fn broadcast(b: bool) -> u64 {
    if b {
        !0
    } else {
        0
    }
}

/// Measures the average output Hamming distance between running `circuit`
/// with key `key_a` and with key `key_b`, over `patterns` pseudorandom data
/// patterns (rounded up to a multiple of 64).
///
/// `key_nets` lists which combinational inputs are key inputs; `key_a` /
/// `key_b` give their values in the same order.
///
/// # Errors
///
/// Returns a netlist error if the circuit is cyclic.
///
/// # Panics
///
/// Panics if the key slices do not match `key_nets` in length.
pub fn hamming_between_keys(
    circuit: &Circuit,
    key_nets: &[NetId],
    key_a: &[bool],
    key_b: &[bool],
    patterns: usize,
    seed: u64,
) -> Result<HdReport, Error> {
    let sim = CombSim::new(circuit)?;
    let (data_pos, key_pos) = input_roles(&sim, key_nets);
    Ok(hamming_on_sim(
        &sim, &data_pos, &key_pos, key_a, key_b, patterns, seed,
    ))
}

/// Pattern words one HD sweep evaluates per gate visit: a gate visit costs
/// more in kind dispatch and fanin walking than in its logic, so each visit
/// serves this many 64-pattern words.
const LANES: usize = 4;

/// Core HD measurement against a prebuilt simulator (shared by the public
/// entry points so the parallel key sweep compiles the circuit only once).
///
/// The data words are drawn from the PRNG word by word, as a one-word
/// sweep would draw them; each sweep evaluates [`LANES`] consecutive words
/// and only the words actually requested are counted.
fn hamming_on_sim(
    sim: &CombSim,
    data_pos: &[usize],
    key_pos: &[usize],
    key_a: &[bool],
    key_b: &[bool],
    patterns: usize,
    seed: u64,
) -> HdReport {
    assert_eq!(key_a.len(), key_pos.len(), "key_a width mismatch");
    assert_eq!(key_b.len(), key_pos.len(), "key_b width mismatch");
    let cc = sim.compiled();
    let mut rng = SplitMix64::new(seed);
    let words = patterns.div_ceil(64).max(1);
    let mut input_a = vec![[0u64; LANES]; sim.inputs().len()];
    let mut input_b = input_a.clone();
    for (k, &pos) in key_pos.iter().enumerate() {
        input_a[pos] = [broadcast(key_a[k]); LANES];
        input_b[pos] = [broadcast(key_b[k]); LANES];
    }
    let (mut values_a, mut values_b) = (Vec::new(), Vec::new());
    let mut flipped = 0u64;
    for first in (0..words).step_by(LANES) {
        let used = (words - first).min(LANES);
        for lane in 0..used {
            for &d in data_pos {
                let w = rng.next_u64();
                input_a[d][lane] = w;
                input_b[d][lane] = w;
            }
        }
        cc.eval_full_into(&input_a, &mut values_a);
        cc.eval_full_into(&input_b, &mut values_b);
        for o in sim.outputs() {
            let (wa, wb) = (&values_a[o.index()], &values_b[o.index()]);
            for lane in 0..used {
                flipped += (wa[lane] ^ wb[lane]).count_ones() as u64;
            }
        }
    }
    HdReport {
        patterns: words * 64,
        outputs: sim.outputs().len(),
        flipped,
    }
}

/// Measures the average Hamming distance between the valid key and
/// `num_random_keys` random wrong keys — the Table I methodology.
///
/// Returns the mean of the per-key HD percentages.
///
/// # Errors
///
/// Returns a netlist error if the circuit is cyclic.
///
/// # Panics
///
/// Panics if `correct_key.len() != key_nets.len()`.
pub fn average_hd_random_keys(
    circuit: &Circuit,
    key_nets: &[NetId],
    correct_key: &[bool],
    num_random_keys: usize,
    patterns_per_key: usize,
    seed: u64,
) -> Result<f64, Error> {
    average_hd_random_keys_on(
        exec::global(),
        circuit,
        key_nets,
        correct_key,
        num_random_keys,
        patterns_per_key,
        seed,
    )
}

/// [`average_hd_random_keys`] on an explicit [`exec::Pool`].
///
/// The wrong keys are drawn sequentially from one PRNG stream (so the key
/// set is independent of the thread count), then each key's measurement
/// runs as one pool task and the per-key percentages are averaged in key
/// order — the result is bit-identical for any pool size.
///
/// # Errors
///
/// Returns a netlist error if the circuit is cyclic.
///
/// # Panics
///
/// Panics if `correct_key.len() != key_nets.len()`.
pub fn average_hd_random_keys_on(
    pool: &exec::Pool,
    circuit: &Circuit,
    key_nets: &[NetId],
    correct_key: &[bool],
    num_random_keys: usize,
    patterns_per_key: usize,
    seed: u64,
) -> Result<f64, Error> {
    assert_eq!(correct_key.len(), key_nets.len(), "key width mismatch");
    let sim = CombSim::new(circuit)?;
    let (data_pos, key_pos) = input_roles(&sim, key_nets);
    let mut rng = SplitMix64::new(seed ^ 0x4844_5f4b_4559_u64);
    let wrong_keys: Vec<Vec<bool>> = (0..num_random_keys)
        .map(|_| {
            let mut wrong: Vec<bool> = (0..key_nets.len()).map(|_| rng.bool()).collect();
            if wrong == correct_key {
                // Astronomically unlikely for real key sizes; flip one bit.
                wrong[0] = !wrong[0];
            }
            wrong
        })
        .collect();
    let percents = pool.par_map("hd_random_keys", &wrong_keys, |k, wrong| {
        hamming_on_sim(
            &sim,
            &data_pos,
            &key_pos,
            correct_key,
            wrong,
            patterns_per_key,
            seed.wrapping_add(k as u64 + 1),
        )
        .percent()
    });
    let total: f64 = percents.iter().fold(0.0, |a, &p| a + p);
    Ok(if wrong_keys.is_empty() {
        0.0
    } else {
        total / wrong_keys.len() as f64
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::{GateKind, NetId};

    /// A circuit whose output equals input XOR key: wrong key flips every
    /// output bit -> HD is exactly 100%.
    fn xor_locked(width: usize) -> (netlist::Circuit, Vec<NetId>) {
        let mut c = netlist::Circuit::new("xorlock");
        let mut keys = Vec::new();
        for i in 0..width {
            let a = c.add_input(format!("a{i}"));
            let k = c.add_input(format!("k{i}"));
            keys.push(k);
            let y = c
                .add_gate(GateKind::Xor, vec![a, k], format!("y{i}"))
                .unwrap();
            c.mark_output(y);
        }
        (c, keys)
    }

    #[test]
    fn hd_of_all_flipping_key_is_100() {
        let (c, keys) = xor_locked(8);
        let a = vec![false; 8];
        let b = vec![true; 8];
        let rep = hamming_between_keys(&c, &keys, &a, &b, 256, 1).unwrap();
        assert_eq!(rep.percent(), 100.0);
    }

    #[test]
    fn hd_of_identical_keys_is_0() {
        let (c, keys) = xor_locked(8);
        let a = vec![true; 8];
        let rep = hamming_between_keys(&c, &keys, &a, &a, 256, 1).unwrap();
        assert_eq!(rep.percent(), 0.0);
    }

    #[test]
    fn hd_of_half_flipping_key_is_50() {
        let (c, keys) = xor_locked(8);
        let a = vec![false; 8];
        let mut b = vec![false; 8];
        for bit in b.iter_mut().take(4) {
            *bit = true;
        }
        let rep = hamming_between_keys(&c, &keys, &a, &b, 256, 1).unwrap();
        assert_eq!(rep.percent(), 50.0);
    }

    #[test]
    fn random_keys_average_near_half_for_xor_lock() {
        let (c, keys) = xor_locked(16);
        let correct = vec![false; 16];
        let avg = average_hd_random_keys(&c, &keys, &correct, 20, 128, 7).unwrap();
        // Random keys flip on average half the bits of an XOR lock.
        assert!((40.0..60.0).contains(&avg), "avg {avg}");
    }

    /// One word per sweep, drawn in the same order: the reference the
    /// four-word sweep must reproduce, including a partial last block.
    #[test]
    fn four_word_blocks_match_one_word_sweeps() {
        let c = netlist::generate::random_comb(21, 12, 6, 150).unwrap();
        let keys: Vec<NetId> = c.comb_inputs()[8..].to_vec();
        let (key_a, key_b) = ([false, true, true, false], [true, true, false, false]);
        let sim = CombSim::new(&c).unwrap();
        let (data_pos, key_pos) = input_roles(&sim, &keys);
        for words in [1usize, 3, 4, 5, 9] {
            let mut rng = SplitMix64::new(17);
            let mut input = vec![0u64; sim.inputs().len()];
            let mut flipped = 0u64;
            for _ in 0..words {
                for &d in &data_pos {
                    input[d] = rng.next_u64();
                }
                let mut out = [Vec::new(), Vec::new()];
                for (o, key) in out.iter_mut().zip([&key_a, &key_b]) {
                    for (k, &pos) in key_pos.iter().enumerate() {
                        input[pos] = broadcast(key[k]);
                    }
                    *o = sim.eval_words(&input);
                }
                for (wa, wb) in out[0].iter().zip(&out[1]) {
                    flipped += (wa ^ wb).count_ones() as u64;
                }
            }
            let rep = hamming_between_keys(&c, &keys, &key_a, &key_b, words * 64, 17).unwrap();
            assert!(flipped > 0, "the two keys must disagree somewhere");
            assert_eq!(rep.flipped, flipped, "{words} words");
            assert_eq!(rep.patterns, words * 64);
        }
    }

    #[test]
    fn patterns_round_up_to_word() {
        let (c, keys) = xor_locked(4);
        let rep =
            hamming_between_keys(&c, &keys, &[false; 4], &[true; 4], 10, 3).unwrap();
        assert_eq!(rep.patterns, 64);
    }
}
