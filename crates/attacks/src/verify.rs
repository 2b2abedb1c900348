//! Exact key-equivalence verification via a SAT miter.
//!
//! Sampled verification ([`crate::key_is_functionally_correct`]) can miss a
//! key that corrupts outputs only on a vanishing fraction of the input
//! space — exactly the regime point-function schemes (SARLock/Anti-SAT,
//! SFLL) engineer. These helpers settle equivalence *exactly*: a two-copy
//! miter over the key-dependent outputs (built with the same
//! [`ReducedEncoder`] pipeline the attacks
//! use) with both key vectors fixed as unit clauses. `Unsat` means no input
//! distinguishes the two keys; `Sat` yields a concrete distinguishing
//! input as the counterexample.
//!
//! The intended test idiom keeps the sampled check as a fast pre-filter:
//!
//! ```
//! use attacks::{key_is_functionally_correct, verify};
//! use locking::random::{self, RllConfig};
//!
//! let original = netlist::samples::ripple_adder(3);
//! let locked = random::lock(&original, &RllConfig { key_bits: 4, seed: 1 }).unwrap();
//! let key = locked.correct_key.clone();
//! // Fast sampled pre-filter, then the exact verdict.
//! assert!(key_is_functionally_correct(&locked, &key, 256).unwrap());
//! assert!(verify::key_is_exactly_correct(&locked, &key));
//! ```

use cdcl::{SolveResult, Solver};
use locking::LockedCircuit;

use crate::aigcnf::ReducedEncoder;
use crate::engine::{AttackCtl, Interrupt};

/// Searches for an input on which `key_a` and `key_b` unlock `locked` to
/// different output values. Returns `None` when the two keys are *exactly*
/// functionally equivalent, otherwise a distinguishing data-input
/// assignment in [`ReducedEncoder::data_inputs`] order.
///
/// # Panics
///
/// Panics if either key's width differs from the locked circuit's key
/// width, or if the locked circuit is cyclic.
pub fn keys_exact_counterexample(
    locked: &LockedCircuit,
    key_a: &[bool],
    key_b: &[bool],
) -> Option<Vec<bool>> {
    keys_exact_counterexample_ctl(locked, key_a, key_b, &AttackCtl::new())
        .expect("an inert control block never interrupts")
}

/// [`keys_exact_counterexample`] under a control block: the miter solve
/// observes `ctl`'s cancel flag and deadline at conflict granularity, so a
/// long exact verification can be cut short like an attack.
///
/// # Errors
///
/// The [`Interrupt`] that stopped the solve.
///
/// # Panics
///
/// As [`keys_exact_counterexample`].
pub fn keys_exact_counterexample_ctl(
    locked: &LockedCircuit,
    key_a: &[bool],
    key_b: &[bool],
    ctl: &AttackCtl,
) -> Result<Option<Vec<bool>>, Interrupt> {
    assert_eq!(key_a.len(), locked.key_bits(), "key_a width mismatch");
    assert_eq!(key_b.len(), locked.key_bits(), "key_b width mismatch");
    let mut solver = Solver::new();
    let mut enc = ReducedEncoder::new(locked, &mut solver, 2);
    enc.assert_miter(&mut solver, 0, 1, None);
    for (i, (&a, &b)) in key_a.iter().zip(key_b).enumerate() {
        solver.add_clause(&[enc.key_vars(0)[i].lit(a)]);
        solver.add_clause(&[enc.key_vars(1)[i].lit(b)]);
    }
    ctl.arm_solver(&mut solver);
    match solver.solve() {
        SolveResult::Unsat => Ok(None),
        SolveResult::Sat => Ok(Some(
            enc.data_vars()
                .iter()
                .map(|&v| solver.value(v).unwrap_or(false))
                .collect(),
        )),
        SolveResult::Unknown => Err(ctl.solver_interrupt(&solver)),
    }
}

/// Like [`keys_exact_counterexample`] with `key_b` fixed to the correct
/// key: returns a distinguishing input proving `candidate` is wrong, or
/// `None` when `candidate` unlocks the exact original function.
pub fn key_exact_counterexample(locked: &LockedCircuit, candidate: &[bool]) -> Option<Vec<bool>> {
    keys_exact_counterexample(locked, candidate, &locked.correct_key)
}

/// Exact-equivalence verdict: `true` iff `candidate` unlocks `locked` to
/// the same function as the correct key on *every* input.
pub fn key_is_exactly_correct(locked: &LockedCircuit, candidate: &[bool]) -> bool {
    key_exact_counterexample(locked, candidate).is_none()
}

#[cfg(test)]
mod tests {
    use super::*;
    use locking::point_function;

    /// A one-bit-flipped key on a SARLock-style point function corrupts a
    /// single input pattern; sampling misses it, the miter does not.
    #[test]
    fn exact_check_catches_point_function_keys() {
        let original = netlist::samples::ripple_adder(2);
        let locked = point_function::sarlock(
            &original,
            &point_function::SarLockConfig { key_bits: 4, seed: 3 },
        )
        .unwrap();
        assert!(key_is_exactly_correct(&locked, &locked.correct_key));
        let mut wrong = locked.correct_key.clone();
        wrong[0] = !wrong[0];
        let cex = key_exact_counterexample(&locked, &wrong);
        if let Some(x) = &cex {
            assert_eq!(x.len(), locked.circuit.comb_inputs().len() - locked.key_bits());
        }
        assert!(
            cex.is_some(),
            "a flipped SARLock key differs on exactly one pattern; the miter must find it"
        );
    }
}
