//! Scan-chain modelling.
//!
//! Scan design threads every flip-flop onto shift registers ("chains") so a
//! tester can set (`scan-in`) and observe (`scan-out`) the full circuit state
//! through a handful of pins. The scan in → capture → scan out loop is
//! exactly how oracle-based logic-locking attacks apply chosen inputs to the
//! combinational part of a fabricated chip and read back its responses — the
//! access path OraP disables.
//!
//! [`ScanSim`] models a conventional (unprotected) scan-equipped chip; the
//! `orap` crate builds the protected chip on the same primitives.

use netlist::{Circuit, Error};

use crate::SeqSim;

/// Assignment of flip-flops to scan chains.
///
/// `chains[c]` lists flip-flop indices (into [`Circuit::dffs`]) in shift
/// order: the first element is closest to the scan-in pin, the last drives
/// the scan-out pin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanChains {
    chains: Vec<Vec<usize>>,
    num_dffs: usize,
}

impl ScanChains {
    /// Distributes `num_dffs` flip-flops round-robin over `num_chains`
    /// balanced chains.
    ///
    /// # Panics
    ///
    /// Panics if `num_chains == 0`.
    pub fn balanced(num_dffs: usize, num_chains: usize) -> Self {
        assert!(num_chains > 0, "need at least one chain");
        let mut chains = vec![Vec::new(); num_chains];
        for ff in 0..num_dffs {
            chains[ff % num_chains].push(ff);
        }
        ScanChains { chains, num_dffs }
    }

    /// Builds chains from an explicit assignment.
    ///
    /// # Panics
    ///
    /// Panics if the assignment is not a permutation of `0..num_dffs`.
    pub fn from_assignment(chains: Vec<Vec<usize>>, num_dffs: usize) -> Self {
        let mut seen = vec![false; num_dffs];
        for c in &chains {
            for &ff in c {
                assert!(ff < num_dffs, "flip-flop index {ff} out of range");
                assert!(!seen[ff], "flip-flop {ff} appears twice");
                seen[ff] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "every flip-flop must be on a chain");
        ScanChains { chains, num_dffs }
    }

    /// Number of chains.
    pub fn num_chains(&self) -> usize {
        self.chains.len()
    }

    /// Number of flip-flops covered.
    pub fn num_dffs(&self) -> usize {
        self.num_dffs
    }

    /// The flip-flop indices of chain `c`, in shift order.
    pub fn chain(&self, c: usize) -> &[usize] {
        &self.chains[c]
    }

    /// Length of the longest chain (number of shift cycles for a full load).
    pub fn max_len(&self) -> usize {
        self.chains.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Applies one shift cycle to a per-flip-flop state image in place:
    /// `scan_in[c]` enters chain `c`'s front cell, every other cell takes
    /// its predecessor's value, and the bit falling off each chain's end is
    /// returned (one per chain, in chain order; `false` for empty chains).
    ///
    /// This is the single shift primitive shared by [`ScanSim::clock`] and
    /// the keyed scan-obfuscation models built on top of it, so an
    /// obfuscated chain provably shifts data exactly like the plain one
    /// before its key stages apply.
    ///
    /// # Panics
    ///
    /// Panics on width mismatches of `state` or `scan_in`.
    pub fn shift_image(&self, state: &mut [bool], scan_in: &[bool]) -> Vec<bool> {
        assert_eq!(state.len(), self.num_dffs, "state width mismatch");
        assert_eq!(
            scan_in.len(),
            self.chains.len(),
            "one scan-in bit per chain"
        );
        let mut out = Vec::with_capacity(self.chains.len());
        for (c, chain) in self.chains.iter().enumerate() {
            out.push(chain.last().map(|&ff| state[ff]).unwrap_or(false));
            for i in (1..chain.len()).rev() {
                state[chain[i]] = state[chain[i - 1]];
            }
            if let Some(&first) = chain.first() {
                state[first] = scan_in[c];
            }
        }
        out
    }
}

/// A conventional scan-equipped chip: a sequential circuit whose state is
/// fully controllable and observable through its scan chains.
///
/// This is the *unprotected* oracle every attack paper assumes. Mode is
/// governed by `scan_enable`: while asserted, clocking shifts the chains;
/// while deasserted, clocking runs the functional logic ("capture").
#[derive(Debug, Clone)]
pub struct ScanSim {
    seq: SeqSim,
    chains: ScanChains,
    scan_enable: bool,
}

impl ScanSim {
    /// Builds a scan model of `circuit` with the given chain assignment.
    ///
    /// # Errors
    ///
    /// Returns a netlist error if the combinational part is cyclic.
    ///
    /// # Panics
    ///
    /// Panics if the chain assignment does not cover the circuit's
    /// flip-flops.
    pub fn new(circuit: &Circuit, chains: ScanChains) -> Result<Self, Error> {
        assert_eq!(
            chains.num_dffs(),
            circuit.dffs().len(),
            "chain assignment must cover all flip-flops"
        );
        Ok(ScanSim {
            seq: SeqSim::new(circuit)?,
            chains,
            scan_enable: false,
        })
    }

    /// Current `scan_enable` value.
    pub fn scan_enable(&self) -> bool {
        self.scan_enable
    }

    /// Drives the `scan_enable` pin. Mode changes take effect on the next
    /// clock.
    pub fn set_scan_enable(&mut self, value: bool) {
        self.scan_enable = value;
    }

    /// The scan-chain configuration.
    pub fn chains(&self) -> &ScanChains {
        &self.chains
    }

    /// Direct access to the underlying sequential state (for tests and
    /// white-box experiments; an attacker does not get this).
    pub fn seq(&self) -> &SeqSim {
        &self.seq
    }

    /// Applies one clock cycle.
    ///
    /// - If `scan_enable` is high, each chain shifts by one position:
    ///   `scan_in[c]` enters chain `c` and the bit falling off the end is
    ///   returned per chain. Primary outputs are not meaningful during shift.
    /// - If `scan_enable` is low, the chip performs a functional (capture)
    ///   cycle with `pis` applied; the scan-out vector returned holds the
    ///   *pre-clock* last-cell values (what a tester would latch).
    ///
    /// # Panics
    ///
    /// Panics on width mismatches of `pis` or `scan_in`.
    pub fn clock(&mut self, pis: &[bool], scan_in: &[bool]) -> Vec<bool> {
        if self.scan_enable {
            let mut state = self.seq.state().to_vec();
            let out = self.chains.shift_image(&mut state, scan_in);
            self.seq.set_state(&state);
            out
        } else {
            let outs: Vec<bool> = self
                .chains
                .chains
                .iter()
                .map(|chain| chain.last().map(|&ff| self.seq.state()[ff]).unwrap_or(false))
                .collect();
            self.seq.step(pis);
            outs
        }
    }

    /// Convenience: shifts a full state image in (`per-flip-flop` values,
    /// indexed like [`Circuit::dffs`]). Asserts `scan_enable` for the
    /// duration and leaves it asserted.
    ///
    /// # Panics
    ///
    /// Panics if `image.len()` differs from the flip-flop count.
    pub fn scan_in_image(&mut self, image: &[bool]) {
        assert_eq!(image.len(), self.chains.num_dffs(), "image width mismatch");
        self.set_scan_enable(true);
        let depth = self.chains.max_len();
        // Shift `depth` times; for cell at position p (0 = nearest scan-in),
        // its final value enters on cycle depth-1-p.
        for cycle in 0..depth {
            let bits: Vec<bool> = (0..self.chains.num_chains())
                .map(|c| {
                    let chain = self.chains.chain(c);
                    let p = depth - 1 - cycle;
                    if p < chain.len() {
                        image[chain[p]]
                    } else {
                        false
                    }
                })
                .collect();
            self.clock(&[], &bits);
        }
    }

    /// Convenience: shifts the full state image out (destructively),
    /// returning per-flip-flop values indexed like [`Circuit::dffs`].
    /// Asserts `scan_enable` for the duration and leaves it asserted.
    pub fn scan_out_image(&mut self) -> Vec<bool> {
        self.set_scan_enable(true);
        let mut image = vec![false; self.chains.num_dffs()];
        let depth = self.chains.max_len();
        let zeros = vec![false; self.chains.num_chains()];
        for cycle in 0..depth {
            let outs = self.clock(&[], &zeros);
            for (c, &bit) in outs.iter().enumerate() {
                let chain = self.chains.chain(c);
                // Cycle k emits the cell at distance k from the scan-out end.
                let p = chain.len().checked_sub(1 + cycle);
                if let Some(p) = p {
                    image[chain[p]] = bit;
                }
            }
        }
        image
    }

    /// The canonical tester operation oracle attacks use: load `state`,
    /// apply `pis`, run one functional cycle, and scan the captured response
    /// out. Returns `(primary_outputs, captured_state)`.
    ///
    /// # Panics
    ///
    /// Panics on width mismatches.
    pub fn scan_test(&mut self, state: &[bool], pis: &[bool]) -> (Vec<bool>, Vec<bool>) {
        self.scan_in_image(state);
        self.set_scan_enable(false);
        // Capture cycle: primary outputs are observed combinationally, the
        // clock edge then latches the response into the flip-flops.
        let pos = self.seq.step(pis);
        let captured = self.scan_out_image();
        (pos, captured)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::samples;

    #[test]
    fn balanced_assignment() {
        let ch = ScanChains::balanced(10, 3);
        assert_eq!(ch.num_chains(), 3);
        assert_eq!(ch.chain(0), &[0, 3, 6, 9]);
        assert_eq!(ch.chain(1), &[1, 4, 7]);
        assert_eq!(ch.max_len(), 4);
    }

    #[test]
    #[should_panic(expected = "appears twice")]
    fn duplicate_assignment_rejected() {
        ScanChains::from_assignment(vec![vec![0, 1], vec![1]], 2);
    }

    #[test]
    #[should_panic(expected = "every flip-flop")]
    fn missing_assignment_rejected() {
        ScanChains::from_assignment(vec![vec![0]], 2);
    }

    #[test]
    fn scan_in_then_out_roundtrip() {
        let c = samples::counter(5);
        let chains = ScanChains::balanced(5, 2);
        let mut sim = ScanSim::new(&c, chains).unwrap();
        let image = vec![true, false, true, true, false];
        sim.scan_in_image(&image);
        assert_eq!(sim.seq().state(), &image[..]);
        let out = sim.scan_out_image();
        assert_eq!(out, image);
    }

    #[test]
    fn scan_test_matches_functional_step() {
        let c = samples::counter(4);
        let mut scan = ScanSim::new(&c, ScanChains::balanced(4, 1)).unwrap();
        // Load 0b0101, enable counting, capture.
        let state = vec![true, false, true, false]; // q0=1,q1=0,q2=1,q3=0 -> 5
        let (_, captured) = scan.scan_test(&state, &[true]);
        // 5 + 1 = 6 = 0b0110 -> q0=0,q1=1,q2=1,q3=0
        assert_eq!(captured, vec![false, true, true, false]);
    }

    #[test]
    fn functional_mode_ignores_scan_in() {
        let c = samples::counter(3);
        let mut sim = ScanSim::new(&c, ScanChains::balanced(3, 1)).unwrap();
        sim.set_scan_enable(false);
        sim.clock(&[true], &[]);
        assert_eq!(sim.seq().state(), &[true, false, false]);
    }

    #[test]
    fn shift_moves_one_position_per_clock() {
        let c = samples::counter(3);
        let mut sim = ScanSim::new(&c, ScanChains::balanced(3, 1)).unwrap();
        sim.set_scan_enable(true);
        sim.clock(&[], &[true]);
        assert_eq!(sim.seq().state(), &[true, false, false]);
        sim.clock(&[], &[false]);
        assert_eq!(sim.seq().state(), &[false, true, false]);
        sim.clock(&[], &[false]);
        assert_eq!(sim.seq().state(), &[false, false, true]);
        let out = sim.clock(&[], &[false]);
        assert_eq!(out, vec![true]); // the 1 falls off the end
    }
}
