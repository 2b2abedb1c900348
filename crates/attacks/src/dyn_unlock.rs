//! DynUnlock: SAT-based unlocking of dynamically keyed scan obfuscation
//! (after arXiv:2001.06724).
//!
//! Dynamic scan obfuscation (`locking::scan_obfuscation`) keeps the secret
//! out of the combinational netlist entirely: an LFSR seeded from the key
//! re-scrambles the scan chains every shift cycle. DynUnlock's observation
//! is that a *bounded tester session* — L load shifts, one capture, L
//! unload shifts — is still a pure combinational function of (seed,
//! scanned-in bits, primary inputs), because the LFSR schedule is linear
//! and known. Unrolling that session
//! ([`ScanObfLocked::unroll`](locking::scan_obfuscation::ScanObfLocked::unroll))
//! yields a locked circuit whose key inputs are the seed, and the standard
//! oracle-guided SAT loop applies unchanged: the miter proposes a session
//! stimulus two seed candidates answer differently, the real chip runs the
//! session, and the response eliminates wrong seeds.
//!
//! DynUnlock therefore *is* the SAT attack: [`DynUnlockEngine`] starts the
//! same [`SatSession`] as [`crate::sat::SatEngine`] — one solver carrying
//! the activation-gated miter over AIG-reduced cofactored constraints,
//! resumable `step`, oracle ledger/budget, conflict-granularity interrupts
//! — with the DIP-search stage named `"session-search"` so progress
//! streams distinguish session unrolling from plain DIP search.

use locking::scan_obfuscation::{ObfScanSim, ScanObfLocked, UnrolledSession};
use locking::LockedCircuit;

use crate::engine::{AttackEngine, AttackSession};
use crate::sat::{SatAttackConfig, SatSession};
use crate::Oracle;

/// DynUnlock as an [`AttackEngine`]. The `locked` circuit passed to
/// [`start`](AttackEngine::start) must be an unrolled scan session (any
/// [`LockedCircuit`] works mechanically; the unrolling is what makes the
/// key the scan seed).
#[derive(Debug, Clone, Copy, Default)]
pub struct DynUnlockEngine {
    /// Attack parameters; `max_iterations` caps distinguishing sessions.
    pub config: SatAttackConfig,
}

impl AttackEngine for DynUnlockEngine {
    fn name(&self) -> &'static str {
        "dyn_unlock"
    }

    fn start<'a>(
        &self,
        locked: &'a LockedCircuit,
        oracle: &'a mut dyn Oracle,
    ) -> Box<dyn AttackSession + 'a> {
        Box::new(SatSession::new(locked, oracle, &self.config, "session-search"))
    }
}

/// The real obfuscated chip as a session oracle: each query runs one full
/// load→capture→unload tester session on [`ObfScanSim`] under the secret
/// seed. Input layout matches the unrolled circuit's data inputs
/// (load-phase scan-in bits cycle-major, then primary inputs); the response
/// is everything the tester observes.
pub struct ScanSessionOracle {
    chip: ObfScanSim,
    load_cycles: usize,
    unload_cycles: usize,
    num_chains: usize,
    num_pis: usize,
    num_outputs: usize,
    queries: usize,
}

impl ScanSessionOracle {
    /// Builds the chip oracle matching an unrolled session's bounds.
    ///
    /// # Errors
    ///
    /// Returns a netlist error if the circuit is cyclic.
    pub fn new(
        locked: &ScanObfLocked,
        session: &UnrolledSession,
    ) -> Result<Self, netlist::Error> {
        let chip = ObfScanSim::new(locked, &locked.correct_key)?;
        Ok(ScanSessionOracle {
            chip,
            load_cycles: session.load_cycles,
            unload_cycles: session.unload_cycles,
            num_chains: session.num_chains,
            num_pis: locked.circuit.primary_inputs().len(),
            num_outputs: session.locked.circuit.primary_outputs().len(),
            queries: 0,
        })
    }
}

impl Oracle for ScanSessionOracle {
    fn num_inputs(&self) -> usize {
        self.load_cycles * self.num_chains + self.num_pis
    }

    fn num_outputs(&self) -> usize {
        self.num_outputs
    }

    fn query(&mut self, input: &[bool]) -> Option<Vec<bool>> {
        assert_eq!(input.len(), self.num_inputs(), "input width mismatch");
        self.queries += 1;
        let split = self.load_cycles * self.num_chains;
        Some(self.chip.session(
            self.load_cycles,
            self.unload_cycles,
            &input[..split],
            &input[split..],
        ))
    }

    fn queries_attempted(&self) -> usize {
        self.queries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::AttackCtl;
    use crate::{verify, AttackOutcome, FailureReason};
    use locking::scan_obfuscation::{self, ScanObfConfig, UnrollOptions};
    use netlist::samples;

    fn run(
        locked: &LockedCircuit,
        oracle: &mut dyn Oracle,
        config: &SatAttackConfig,
    ) -> AttackOutcome {
        let engine = DynUnlockEngine { config: *config };
        crate::engine::run(&engine, locked, oracle, &mut AttackCtl::new())
    }

    fn workload() -> (ScanObfLocked, UnrolledSession) {
        let orig = samples::counter(8);
        let locked = scan_obfuscation::lock(
            &orig,
            &ScanObfConfig {
                key_bits: 8,
                num_chains: 2,
                invert_spacing: 2,
                swap_spacing: 2,
                seed: 3,
            },
        )
        .unwrap();
        let unrolled = locked.unroll(&UnrollOptions::default()).unwrap();
        (locked, unrolled)
    }

    #[test]
    fn recovers_the_scan_seed() {
        let (locked, unrolled) = workload();
        let mut oracle = ScanSessionOracle::new(&locked, &unrolled).unwrap();
        let out = run(&unrolled.locked, &mut oracle, &SatAttackConfig::default());
        let key = out.key.expect("DynUnlock must break dynamic scan obfuscation");
        // The recovered seed must reproduce every bounded session exactly.
        assert!(
            verify::key_exact_counterexample(&unrolled.locked, &key).is_none(),
            "recovered seed must be session-equivalent to the real one"
        );
    }

    #[test]
    fn dead_oracle_defeats_dyn_unlock() {
        let (_, unrolled) = workload();
        let mut oracle = crate::DeadOracle::new(
            unrolled.data_bits(),
            unrolled.locked.circuit.primary_outputs().len(),
        );
        let out = run(&unrolled.locked, &mut oracle, &SatAttackConfig::default());
        assert_eq!(out.failure, Some(FailureReason::OracleUnavailable));
    }
}
