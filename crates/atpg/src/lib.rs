//! Stuck-at-fault test generation and fault simulation — the workspace's
//! stand-in for the Atalanta ATPG tool and the HOPE fault simulator used in
//! the paper's Table II.
//!
//! - [`fault`]: the single-stuck-at fault model (stem and gate-input-pin
//!   faults) with classic equivalence collapsing.
//! - [`fsim`]: 64-pattern-parallel fault simulation with fault dropping.
//! - [`podem`]: PODEM test generation with a backtrack limit; exhausted
//!   search proves redundancy, a hit limit aborts the fault (exactly the
//!   Atalanta outcome classes Table II reports).
//! - [`run_atpg`]: the full flow the paper used — random-pattern fault
//!   simulation first (HOPE prefiltering, as done for b18/b19), PODEM for
//!   the survivors, coverage bookkeeping.
//!
//! # Example
//!
//! ```
//! use atpg::{run_atpg, AtpgConfig};
//! use netlist::samples;
//!
//! let c = samples::c17();
//! let report = run_atpg(&c, &AtpgConfig::default()).expect("acyclic");
//! assert!(report.coverage_percent() > 99.0); // c17 is fully testable
//! assert_eq!(report.redundant, 0);
//! ```

#![warn(missing_docs)]

pub mod fault;
pub mod fsim;
pub mod podem;

pub use fault::{collapse, enumerate_faults, Fault, FaultSite};
pub use fsim::FaultSim;

use std::sync::Arc;

use netlist::{Circuit, Error};

/// Configuration of the ATPG flow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AtpgConfig {
    /// Random patterns simulated before deterministic generation.
    pub random_patterns: usize,
    /// PODEM backtrack limit per fault ("high effort" in the paper ≈ large).
    pub backtrack_limit: usize,
    /// PRNG seed for the random phase.
    pub seed: u64,
}

impl Default for AtpgConfig {
    fn default() -> Self {
        AtpgConfig {
            random_patterns: 1024,
            backtrack_limit: 5000,
            seed: 0xA7B6,
        }
    }
}

/// Outcome of the ATPG flow, in the terms Table II reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AtpgReport {
    /// Total (collapsed) faults targeted.
    pub total_faults: usize,
    /// Faults detected by some test.
    pub detected: usize,
    /// Faults proven untestable (no test exists).
    pub redundant: usize,
    /// Faults abandoned at the backtrack limit.
    pub aborted: usize,
    /// The deterministic (PODEM-generated) test set, one input assignment
    /// per entry over the combinational inputs. Faults detected in the
    /// random phase are counted but their patterns are not stored.
    pub tests: Vec<Vec<bool>>,
}

impl AtpgReport {
    /// Fault coverage in percent: `detected / total`.
    pub fn coverage_percent(&self) -> f64 {
        if self.total_faults == 0 {
            return 100.0;
        }
        100.0 * self.detected as f64 / self.total_faults as f64
    }

    /// The paper's "# Red.+Abrt faults" column.
    pub fn redundant_plus_aborted(&self) -> usize {
        self.redundant + self.aborted
    }
}

/// Runs the full ATPG flow on the combinational part of `circuit`.
///
/// # Errors
///
/// Returns a netlist error if the circuit is cyclic.
pub fn run_atpg(circuit: &Circuit, config: &AtpgConfig) -> Result<AtpgReport, Error> {
    // One compiled artifact shared by the fault simulator and PODEM: the
    // circuit is levelized exactly once for the whole flow.
    let cc = Arc::new(netlist::CompiledCircuit::compile(circuit)?);
    Ok(run_atpg_compiled(circuit, cc, config, &|| false)
        .expect("a stop check that never fires cannot stop the flow"))
}

/// Random-phase batches per fault-simulation dispatch: 4096 patterns, as
/// many as Table II and the `defend` benchmark workload simulate, so their
/// random phase is one dispatch per circuit. A larger request runs in
/// groups of this size, which bounds the good values held at once.
const RANDOM_GROUP: usize = 64;

/// [`run_atpg`] over an already-compiled artifact of `circuit`, for callers
/// (such as a serving layer with a content-hashed artifact cache) that hold
/// the shared `Arc<CompiledCircuit>` and must not pay a second compile.
///
/// The artifact must be the compilation of `circuit`. `stop` is consulted
/// throughout the flow: before every fault-simulation batch (its good-value
/// sweep and its turn inside every chunk) and before every PODEM decision
/// and backtrack. Once it returns `true` the flow ends and returns `None`,
/// so a caller's cancel flag or deadline interrupts a long run.
///
/// # Panics
///
/// Panics if a PODEM test fails to detect its own target fault in the
/// fault simulator (the two engines disagree).
pub fn run_atpg_compiled(
    circuit: &Circuit,
    cc: Arc<netlist::CompiledCircuit>,
    config: &AtpgConfig,
    stop: &(dyn Fn() -> bool + Sync),
) -> Option<AtpgReport> {
    let pool = exec::global();
    let faults = collapse(circuit, enumerate_faults(circuit));
    let total = faults.len();
    let sim = fsim::FaultSim::from_compiled(Arc::clone(&cc));

    // Phase 1: random patterns (HOPE prefilter). Each group of batches is
    // one fault-parallel dispatch that drops every fault at its first
    // detection; the phase ends once no fault is left to detect.
    let mut rng = netlist::rng::SplitMix64::new(config.seed);
    let n_in = circuit.comb_inputs().len();
    let mut alive = faults;
    let mut batches_left = config.random_patterns.div_ceil(64);
    while batches_left > 0 && !alive.is_empty() {
        let group = batches_left.min(RANDOM_GROUP);
        batches_left -= group;
        let batches: Vec<Vec<u64>> = (0..group)
            .map(|_| (0..n_in).map(|_| rng.next_u64()).collect())
            .collect();
        let (detected, _) = sim.detect_batch_par(pool, &batches, &alive, stop)?;
        alive = undetected(&alive, &detected);
    }
    let detected_random = total - alive.len();

    // Phase 2: PODEM on the survivors in order, dropping further faults
    // with each successful test. `alive[head..]` are still to be targeted.
    let mut podem_gen = podem::Podem::from_compiled(cc, config.backtrack_limit);
    let mut tests: Vec<Vec<bool>> = Vec::new();
    let mut detected_det = 0usize;
    let mut redundant = 0usize;
    let mut aborted = 0usize;
    let mut head = 0usize;
    while head < alive.len() {
        match podem_gen.generate(&alive[head], stop)? {
            podem::Outcome::Test(pattern) => {
                // Fault-simulate the new pattern to drop other faults too;
                // only what the simulator confirms counts as detected.
                let words = [pattern.iter().map(|&b| if b { !0 } else { 0 }).collect()];
                let (detected, _) = sim.detect_batch_par(pool, &words, &alive[head..], stop)?;
                assert_eq!(
                    detected.first(),
                    Some(&0),
                    "PODEM test must detect its target fault"
                );
                detected_det += detected.len();
                tests.push(pattern);
                alive = undetected(&alive[head..], &detected);
                head = 0;
            }
            podem::Outcome::Redundant => {
                redundant += 1;
                head += 1;
            }
            podem::Outcome::Aborted => {
                aborted += 1;
                head += 1;
            }
        }
    }

    Some(AtpgReport {
        total_faults: total,
        detected: detected_random + detected_det,
        redundant,
        aborted,
        tests,
    })
}

/// `faults` without the entries at the ascending positions `detected`, in
/// their original order.
fn undetected(faults: &[Fault], detected: &[usize]) -> Vec<Fault> {
    let mut next = detected.iter().copied().peekable();
    faults
        .iter()
        .enumerate()
        .filter(|&(i, _)| next.next_if_eq(&i).is_none())
        .map(|(_, f)| f.clone())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::samples;

    #[test]
    fn c17_full_coverage() {
        let rep = run_atpg(&samples::c17(), &AtpgConfig::default()).unwrap();
        assert_eq!(rep.redundant, 0, "c17 has no redundant faults");
        assert_eq!(rep.aborted, 0);
        assert_eq!(rep.detected, rep.total_faults);
        assert!((rep.coverage_percent() - 100.0).abs() < f64::EPSILON);
    }

    #[test]
    fn adder_full_coverage() {
        let rep = run_atpg(&samples::ripple_adder(4), &AtpgConfig::default()).unwrap();
        assert_eq!(rep.detected + rep.redundant + rep.aborted, rep.total_faults);
        assert!(rep.coverage_percent() > 99.0, "{}", rep.coverage_percent());
    }

    #[test]
    fn redundant_logic_is_proven_redundant() {
        // y = a & (a | b): the `b` input of the OR is unobservable
        // (a & (a|b) == a), so its faults are redundant.
        let mut c = netlist::Circuit::new("red");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let o = c.add_gate(netlist::GateKind::Or, vec![a, b], "o").unwrap();
        let y = c.add_gate(netlist::GateKind::And, vec![a, o], "y").unwrap();
        c.mark_output(y);
        let rep = run_atpg(&c, &AtpgConfig::default()).unwrap();
        assert!(rep.redundant > 0, "expected redundant faults, got {rep:?}");
        assert_eq!(rep.aborted, 0);
        assert_eq!(rep.detected + rep.redundant, rep.total_faults);
    }

    #[test]
    fn synthetic_benchmark_coverage_accounted() {
        // Random reconvergent logic carries genuinely redundant faults
        // (~15% for this generator — every "redundant" verdict on this
        // circuit was verified exhaustively while developing the solver), so
        // coverage sits below designed-logic levels but every fault must be
        // classified and nothing may abort at this size.
        let c = netlist::generate::random_comb(77, 12, 6, 300).unwrap();
        let rep = run_atpg(&c, &AtpgConfig::default()).unwrap();
        assert!(
            rep.coverage_percent() > 75.0,
            "coverage {}",
            rep.coverage_percent()
        );
        assert_eq!(rep.aborted, 0);
        assert_eq!(rep.detected + rep.redundant, rep.total_faults);
    }

    #[test]
    fn accounting_adds_up() {
        let c = netlist::generate::random_comb(3, 8, 4, 120).unwrap();
        let rep = run_atpg(&c, &AtpgConfig::default()).unwrap();
        assert_eq!(rep.detected + rep.redundant + rep.aborted, rep.total_faults);
        assert_eq!(
            rep.redundant_plus_aborted(),
            rep.redundant + rep.aborted
        );
    }

    #[test]
    fn zero_random_patterns_still_works() {
        let cfg = AtpgConfig {
            random_patterns: 0,
            ..AtpgConfig::default()
        };
        let rep = run_atpg(&samples::c17(), &cfg).unwrap();
        assert_eq!(rep.detected, rep.total_faults);
    }
}
