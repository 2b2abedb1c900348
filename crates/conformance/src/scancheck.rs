//! Scan-obfuscation conformance battery: the lock→attack→recover→verify
//! loops for the two scan-era schemes (dynamic scan obfuscation and K-Gate
//! Lock), plus a sequential differential leg cross-checking the unrolled
//! session CNF view against reference chip stepping.
//!
//! This is the kill battery for the three [`ScanSabotage`] mutants:
//!
//! - a wrong-hop swap in the session unroller must surface as a divergence
//!   between the unrolled combinational circuit and the real chip's
//!   [`ObfScanSim`] session (checks 3 and 4),
//! - a dropped shift frame in every session response the chip hands
//!   DynUnlock must surface as a failed seed recovery in the full attack
//!   loop (check 5),
//! - a swapped K-Gate decode table must surface as a recorded key that no
//!   longer decodes its classes (check 1).

use attacks::aigcnf::ReducedEncoder;
use attacks::dyn_unlock::{DynUnlockEngine, ScanSessionOracle};
use attacks::engine::{self, AttackCtl};
use attacks::sat::SatAttackConfig;
use attacks::{verify, CombOracle, Oracle};
use cdcl::{SolveResult, Solver};
use locking::kgate::{self, KGateConfig, KGateSabotage};
use locking::scan_obfuscation::{
    self, ObfScanSim, ScanObfConfig, ScanObfLocked, UnrollOptions, UnrollSabotage,
    UnrolledSession,
};
use netlist::rng::SplitMix64;
use netlist::Circuit;

use crate::mutation::Scale;
use crate::reference;

/// Test-only semantic faults in the scan-obfuscation scheme/attack stack,
/// united here so the mutation kill matrix drives all three through one
/// battery. The scheme faults map onto the hook in their home crate; the
/// attack fault is `FrameDropOracle`, planted between chip and attack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanSabotage {
    /// [`UnrollSabotage::WrongHopPermutation`] in the session unroller.
    WrongHopPermutation,
    /// `FrameDropOracle` between the chip oracle and DynUnlock.
    DropUnrollFrame,
    /// [`KGateSabotage::DecodeTableSwap`] in the K-Gate key bookkeeping.
    DecodeTableSwap,
}

/// The fixed scan-obfuscation battery workload: a counter whose eight
/// flip-flops give two chains of length four, so the swap stages include a
/// mid-chain hop (position ≥ 1) where the wrong-hop mutant is semantic.
fn scanobf_workload() -> (Circuit, ScanObfLocked) {
    let orig = netlist::samples::counter(8);
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
    .expect("counter(8) is lockable");
    (orig, locked)
}

/// A second, state-hiding workload for the Full scale: only one primary
/// output, so most of the captured state is observable solely through the
/// obfuscated unload frames.
fn hidden_state_workload() -> (Circuit, ScanObfLocked) {
    let orig = crate::seqgen::SeqSpec {
        primary_inputs: 3,
        primary_outputs: 1,
        dffs: 8,
        gates: 40,
        seed: 29,
    }
    .build();
    let locked = scan_obfuscation::lock(
        &orig,
        &ScanObfConfig {
            key_bits: 12,
            num_chains: 2,
            invert_spacing: 3,
            swap_spacing: 2,
            seed: 11,
        },
    )
    .expect("generated sequential circuit is lockable");
    (orig, locked)
}

/// The dropped-frame mutant: a session oracle that loses the first shift
/// frame of every response, so each later frame lands one frame early and
/// the tail reads as zeros — the classic off-by-one-frame unroll bug. The
/// misaligned responses rule out the true seed, so the attack either stalls
/// or extracts a seed the real chip refutes.
struct FrameDropOracle<'a> {
    inner: &'a mut dyn Oracle,
    /// Observed bits per shift frame (one per scan chain).
    frame_bits: usize,
}

impl Oracle for FrameDropOracle<'_> {
    fn num_inputs(&self) -> usize {
        self.inner.num_inputs()
    }

    fn num_outputs(&self) -> usize {
        self.inner.num_outputs()
    }

    fn query(&mut self, input: &[bool]) -> Option<Vec<bool>> {
        let y = self.inner.query(input)?;
        let mut shifted = y[self.frame_bits.min(y.len())..].to_vec();
        shifted.resize(y.len(), false);
        Some(shifted)
    }

    fn queries_attempted(&self) -> usize {
        self.inner.queries_attempted()
    }
}

fn unroll_with(
    locked: &ScanObfLocked,
    sabotage: Option<UnrollSabotage>,
) -> UnrolledSession {
    locked
        .unroll(&UnrollOptions { sabotage, ..UnrollOptions::default() })
        .expect("unroll succeeds on a lockable workload")
}

/// Runs the scan-obfuscation battery, optionally with one planted fault.
/// `Ok(())` = every check passed (clean baseline, or the mutant survived);
/// `Err` = first detection.
///
/// # Errors
///
/// Returns the first failing check's description.
pub fn scan_battery(sabotage: Option<ScanSabotage>, scale: Scale) -> Result<(), String> {
    let kg_sab = (sabotage == Some(ScanSabotage::DecodeTableSwap))
        .then_some(KGateSabotage::DecodeTableSwap);
    let unroll_sab = (sabotage == Some(ScanSabotage::WrongHopPermutation))
        .then_some(UnrollSabotage::WrongHopPermutation);

    let (kg_patterns, diff_trials, full_workloads) = match scale {
        Scale::Smoke => (256, 12, false),
        Scale::Full => (1024, 48, true),
    };

    // Check 1: K-Gate lock→decode round-trip — the recorded key must make
    // the locked circuit transparent. (Kills the decode-table swap: the
    // netlist keeps the true table, the recorded key decodes the wrong
    // classes.)
    let kg_original = netlist::samples::ripple_adder(4);
    let kg_config = KGateConfig { classes: 4, word_bits: 3, seed: 7 };
    let kg_locked = kgate::lock_with_sabotage(&kg_original, &kg_config, kg_sab)
        .map_err(|e| format!("kgate lock failed: {e}"))?;
    match kg_locked.verify_against(&kg_original, kg_patterns) {
        Ok(true) => {}
        Ok(false) => {
            return Err(
                "kgate round-trip: the recorded key does not decode its classes".into(),
            );
        }
        Err(e) => return Err(format!("kgate round-trip: simulation failed: {e}")),
    }

    // Check 2: K-Gate full conformance loop — lock → SAT attack → recover →
    // exact-miter key equivalence.
    {
        let mut oracle = CombOracle::from_locked(&kg_locked)
            .map_err(|e| format!("kgate oracle: {e}"))?;
        let sat = attacks::sat::SatEngine::default();
        let out = engine::run(&sat, &kg_locked, &mut oracle, &mut AttackCtl::new());
        let key = out.key.ok_or_else(|| {
            format!("kgate attack loop: SAT attack failed ({:?})", out.failure)
        })?;
        if let Some(cex) = verify::key_exact_counterexample(&kg_locked, &key) {
            return Err(format!(
                "kgate attack loop: recovered key is not exactly correct (cex {cex:?})"
            ));
        }
    }

    // Checks 3–5 run per scan-obfuscation workload.
    let mut workloads = vec![scanobf_workload()];
    if full_workloads {
        workloads.push(hidden_state_workload());
    }
    for (wi, (orig, locked)) in workloads.iter().enumerate() {
        let unrolled = unroll_with(locked, unroll_sab);

        // Check 3: sequential differential leg — the unrolled combinational
        // session, evaluated by the *naive reference interpreter*, must
        // reproduce the chip model's SeqSim-based session stepping for
        // random seeds and stimuli. (Kills the wrong-hop permutation.)
        let mut chip_any = ObfScanSim::new(locked, &locked.correct_key)
            .map_err(|e| format!("workload {wi}: chip model: {e}"))?;
        let mut rng = SplitMix64::new(0x5caf_f01d ^ wi as u64);
        let n_stream = unrolled.load_cycles * unrolled.num_chains;
        let n_pis = orig.primary_inputs().len();
        for trial in 0..diff_trials {
            let key: Vec<bool> = if trial == 0 {
                locked.correct_key.clone()
            } else {
                (0..locked.key_bits()).map(|_| rng.bool()).collect()
            };
            let stream: Vec<bool> = (0..n_stream).map(|_| rng.bool()).collect();
            let pis: Vec<bool> = (0..n_pis).map(|_| rng.bool()).collect();
            let mut chip = ObfScanSim::new(locked, &key)
                .map_err(|e| format!("workload {wi}: chip model: {e}"))?;
            let want = chip.session(unrolled.load_cycles, unrolled.unload_cycles, &stream, &pis);
            let mut x = key.clone();
            x.extend(&stream);
            x.extend(&pis);
            let got = reference::eval_bits(&unrolled.locked.circuit, &x);
            if got != want {
                return Err(format!(
                    "workload {wi}: unrolled session diverges from chip stepping \
                     (trial {trial}, key {key:?})"
                ));
            }
        }

        // Check 4: CNF admission leg — a real chip response under the
        // correct seed must be satisfiable in the AIG-reduced encoding of
        // the unrolled session. (Also kills the wrong-hop permutation, on
        // the exact encoding path the attack uses.)
        {
            let stream: Vec<bool> = (0..n_stream).map(|_| rng.bool()).collect();
            let pis: Vec<bool> = (0..n_pis).map(|_| rng.bool()).collect();
            let y = chip_any.session(unrolled.load_cycles, unrolled.unload_cycles, &stream, &pis);
            let mut x = stream.clone();
            x.extend(&pis);
            let mut solver = Solver::new();
            let mut enc = ReducedEncoder::new(&unrolled.locked, &mut solver, 1);
            let ok = enc.add_io_constraint(&mut solver, 0, &x, &y);
            let assumptions: Vec<cdcl::Lit> = enc
                .key_vars(0)
                .iter()
                .zip(&locked.correct_key)
                .map(|(&v, &b)| v.lit(b))
                .collect();
            if !ok || solver.solve_with(&assumptions) != SolveResult::Sat {
                return Err(format!(
                    "workload {wi}: correct chip session rejected by the unrolled CNF"
                ));
            }
        }

        // Check 5: the DynUnlock conformance loop — lock → attack through
        // the scan-session oracle → recover → exact-miter seed equivalence.
        // (Kills the dropped unroll frame: misaligned constraints rule out
        // the true seed.)
        {
            let clean_unroll = unroll_with(locked, None);
            let mut chip = ScanSessionOracle::new(locked, &clean_unroll)
                .map_err(|e| format!("workload {wi}: session oracle: {e}"))?;
            let mut dropping;
            let oracle: &mut dyn Oracle = if sabotage == Some(ScanSabotage::DropUnrollFrame) {
                dropping = FrameDropOracle {
                    inner: &mut chip,
                    frame_bits: clean_unroll.frame_bits(),
                };
                &mut dropping
            } else {
                &mut chip
            };
            let engine = DynUnlockEngine {
                config: SatAttackConfig {
                    max_iterations: 64,
                    ..SatAttackConfig::default()
                },
            };
            let out = engine::run(&engine, &clean_unroll.locked, oracle, &mut AttackCtl::new());
            let key = out.key.ok_or_else(|| {
                format!(
                    "workload {wi}: dyn_unlock failed to recover a seed ({:?})",
                    out.failure
                )
            })?;
            if let Some(cex) = verify::key_exact_counterexample(&clean_unroll.locked, &key) {
                return Err(format!(
                    "workload {wi}: dyn_unlock seed is not session-equivalent (cex {cex:?})"
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
    fn clean_battery_passes_smoke() {
        scan_battery(None, Scale::Smoke).expect("clean scan battery passes");
    }

    /// Each scan mutant dies, and by the check built for it.
    #[test]
    fn every_scan_mutant_is_killed_at_smoke() {
        for (sab, killer) in [
            (ScanSabotage::WrongHopPermutation, "unrolled session diverges"),
            (ScanSabotage::DropUnrollFrame, "dyn_unlock"),
            (ScanSabotage::DecodeTableSwap, "kgate round-trip"),
        ] {
            let Err(err) = scan_battery(Some(sab), Scale::Smoke) else {
                panic!("{sab:?} must be detected");
            };
            assert!(err.contains(killer), "{sab:?} killed by the wrong check: {err}");
        }
    }
}
