//! Symbolic GF(2) simulation of the key register and the XOR-tree payload
//! model for threat (d).
//!
//! The paper's threat (d): an attacker who learns the reseeding schedule can
//! symbolically simulate the LFSR — each cell ends up holding a *linear
//! expression* of the seed bits — and implant XOR trees that recompute every
//! key bit from shadow copies of the seeds. The defence is to choose the
//! characteristic polynomial, the number/positions of reseeding points and
//! the free-run gaps so that those linear expressions are dense, making the
//! XOR trees (the Trojan payload) large enough for side-channel detection.
//!
//! [`SymbolicState`] performs that symbolic simulation; [`XorTreeCost`]
//! quantifies the resulting payload, which experiment E5 sweeps.

use crate::gf2::{BitMatrix, BitVec};
use crate::{KeySequence, LfsrConfig, UnlockSchedule};

/// The symbolic state of an LFSR: each cell is a linear expression
/// `row_i · seeds (+ const_i)` over all injected seed bits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SymbolicState {
    /// `cells x seed_bits` coefficient matrix.
    coeffs: BitMatrix,
    /// Constant term per cell.
    consts: BitVec,
}

impl SymbolicState {
    /// Symbolically executes `schedule` from the cleared register.
    pub fn of_schedule(schedule: &UnlockSchedule) -> Self {
        let (coeffs, consts) = schedule.seed_to_key_map();
        SymbolicState { coeffs, consts }
    }

    /// Number of seed variables appearing in cell `i`'s expression.
    pub fn terms_of_cell(&self, i: usize) -> usize {
        self.coeffs.row(i).count_ones() + usize::from(self.consts.get(i))
    }

    /// Evaluates the symbolic state for concrete seed bits; must equal the
    /// concrete simulation (property-tested).
    ///
    /// # Panics
    ///
    /// Panics if `seed_bits.len()` differs from the symbolic variable count.
    pub fn eval(&self, seed_bits: &[bool]) -> Vec<bool> {
        let mut v = self.coeffs.mul_vec(&BitVec::from_bools(seed_bits));
        v.xor_assign(&self.consts);
        v.to_bools()
    }

    /// Rank of the seed→key map: how many key bits the seed stream actually
    /// controls.
    pub fn controllability(&self) -> usize {
        self.coeffs.rank()
    }
}

/// Hardware cost of the XOR trees an attacker would need for threat (d).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct XorTreeCost {
    /// 2-input XOR gates summed over all cells (`terms - 1` per cell).
    pub xor_gates: usize,
    /// 2-to-1 multiplexers to splice the trees into the key gates or scan
    /// cells (one per key bit).
    pub muxes: usize,
    /// Extra registers the attacker needs: every seed must be held
    /// concurrently (the paper: "this attack requires separate registers for
    /// every seed in the key sequence").
    pub shadow_flipflops: usize,
    /// Densest single expression (worst-case tree depth driver).
    pub max_terms_per_cell: usize,
}

impl XorTreeCost {
    /// Computes the payload cost for a schedule.
    pub fn of_schedule(schedule: &UnlockSchedule) -> Self {
        let sym = SymbolicState::of_schedule(schedule);
        let width = schedule.config().width;
        let mut xor_gates = 0usize;
        let mut max_terms = 0usize;
        for i in 0..width {
            let t = sym.terms_of_cell(i);
            max_terms = max_terms.max(t);
            xor_gates += t.saturating_sub(1);
        }
        XorTreeCost {
            xor_gates,
            muxes: width,
            shadow_flipflops: schedule.sequence().stored_bits(),
            max_terms_per_cell: max_terms,
        }
    }

    /// Total payload gate-equivalents (1 per XOR, 1 per mux; a flip-flop
    /// counted as 4 gate-equivalents, the usual DFF≈4×NAND2 figure).
    pub fn gate_equivalents(&self) -> usize {
        self.xor_gates + self.muxes + 4 * self.shadow_flipflops
    }
}

/// Convenience: builds a schedule with `num_seeds` pseudorandom seeds and a
/// constant free-run `gap`, and returns its XOR-tree cost — the sweep
/// primitive behind experiment E5.
pub fn sweep_point(
    width: usize,
    tap_spacing: usize,
    reseed_points: usize,
    num_seeds: usize,
    gap: usize,
    seed: u64,
) -> XorTreeCost {
    let points: Vec<usize> = if reseed_points >= width {
        (0..width).collect()
    } else {
        // Evenly spread the points.
        (0..reseed_points)
            .map(|i| i * width / reseed_points)
            .collect()
    };
    let cfg = LfsrConfig::with_reseed_points(width, tap_spacing, points);
    let mut state = seed | 1;
    let mut bit = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state & 1 == 1
    };
    let seeds: Vec<Vec<bool>> = (0..num_seeds)
        .map(|_| (0..cfg.reseed_points.len()).map(|_| bit()).collect())
        .collect();
    let sched = UnlockSchedule::new(cfg, KeySequence::new(seeds, vec![gap; num_seeds]));
    XorTreeCost::of_schedule(&sched)
}

/// A plain shift register (no feedback mixing): the paper's ablation baseline
/// showing *why* an LFSR is used as the key register. Returns the XOR-tree
/// cost for the same seed schedule applied to a shift register.
pub fn shift_register_cost(width: usize, num_seeds: usize, gap: usize, seed: u64) -> XorTreeCost {
    // A shift register is an "LFSR" whose feedback never reaches meaningful
    // mixing; model it with a single tap at the last cell feeding bit 0 and
    // no other taps, seeds injected at every cell like the LFSR case.
    let cfg = LfsrConfig::new(width, vec![width - 1], (0..width).collect());
    let mut state = seed | 1;
    let mut bit = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state & 1 == 1
    };
    let seeds: Vec<Vec<bool>> = (0..num_seeds)
        .map(|_| (0..width).map(|_| bit()).collect())
        .collect();
    let sched = UnlockSchedule::new(cfg, KeySequence::new(seeds, vec![gap; num_seeds]));
    XorTreeCost::of_schedule(&sched)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn random_schedule(width: usize, seeds: usize, gap: usize) -> UnlockSchedule {
        let cfg = LfsrConfig::with_tap_spacing(width, 8);
        let mut state = 7u64;
        let mut bit = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state & 1 == 1
        };
        let ss: Vec<Vec<bool>> = (0..seeds)
            .map(|_| (0..width).map(|_| bit()).collect())
            .collect();
        UnlockSchedule::new(cfg, KeySequence::new(ss, vec![gap; seeds]))
    }

    #[test]
    fn symbolic_matches_concrete() {
        let sched = random_schedule(24, 4, 2);
        let sym = SymbolicState::of_schedule(&sched);
        let concat: Vec<bool> = sched.sequence().seeds.iter().flatten().copied().collect();
        assert_eq!(sym.eval(&concat), sched.derive_key());
    }

    #[test]
    fn symbolic_matches_concrete_many_random_seeds() {
        let sched = random_schedule(16, 3, 1);
        let sym = SymbolicState::of_schedule(&sched);
        let mut state = 1234u64;
        let mut bit = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state & 1 == 1
        };
        for _ in 0..20 {
            let seeds: Vec<Vec<bool>> = (0..3).map(|_| (0..16).map(|_| bit()).collect()).collect();
            let flat: Vec<bool> = seeds.iter().flatten().copied().collect();
            let sched2 = UnlockSchedule::new(
                sched.config().clone(),
                KeySequence::new(seeds, sched.sequence().free_runs.clone()),
            );
            assert_eq!(sym.eval(&flat), sched2.derive_key());
        }
    }

    #[test]
    fn full_points_fully_controllable() {
        let sched = random_schedule(32, 2, 3);
        let sym = SymbolicState::of_schedule(&sched);
        assert_eq!(sym.controllability(), 32);
    }

    #[test]
    fn more_seeds_and_gaps_densify_expressions() {
        let light = sweep_point(64, 8, 64, 1, 0, 9);
        let heavy = sweep_point(64, 8, 64, 6, 8, 9);
        assert!(
            heavy.xor_gates > light.xor_gates,
            "heavy {} <= light {}",
            heavy.xor_gates,
            light.xor_gates
        );
    }

    #[test]
    fn lfsr_beats_shift_register_mixing() {
        // The stated reason for the LFSR: it "mixes up" seed values, creating
        // more complex linear expressions than a simple shift register.
        let lfsr = sweep_point(64, 8, 64, 4, 4, 5);
        let sr = shift_register_cost(64, 4, 4, 5);
        assert!(
            lfsr.xor_gates > sr.xor_gates,
            "lfsr {} <= shift register {}",
            lfsr.xor_gates,
            sr.xor_gates
        );
    }

    #[test]
    fn gate_equivalents_accounting() {
        let c = XorTreeCost {
            xor_gates: 10,
            muxes: 4,
            shadow_flipflops: 8,
            max_terms_per_cell: 5,
        };
        assert_eq!(c.gate_equivalents(), 10 + 4 + 32);
    }
}
