//! The mutant catalog and the kill-matrix runner.
//!
//! Each mutant is one *semantic* fault planted behind a test-only hook in a
//! production crate (`netlist`, `cdcl`, `attacks`): wrong gate function,
//! broken topological order, invisible binary clauses, complemented CNF
//! literal, and so on. The runner executes the conformance battery that
//! can observe each mutant's layer and records whether it was **killed**
//! (some check failed or panicked) or **survived**. A surviving mutant is
//! a hole in the test suite — the matrix is asserted at 100% kill by
//! `cargo test` at both scales.
//!
//! The soundness bar for catalog membership: a mutant must change the
//! observable semantics of its engine. (E.g. skipping one binary-watch
//! *push* direction is provably sound — conflicts still surface through
//! the other direction — so the solver mutant skips the whole binary-visit
//! pass instead.)

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use attacks::aigcnf::EncoderSabotage;
use attacks::engine::EngineSabotage;
use cdcl::SolverSabotage;

use crate::differential::{self, EngineFault};
use crate::fsimcheck::{self, FsimFault};
use crate::scancheck::{self, ScanSabotage};
use crate::{enccheck, enginecheck, satcheck};

/// Battery scale. Both run under `cargo test`; `Full` is the scale of the
/// checked-in kill matrix, `results/BENCH_conformance.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Small circuit set and CNF bank; runs in seconds.
    Smoke,
    /// Larger random-circuit sweep and CNF bank, plus the full
    /// scheme × attack loop battery in the baseline.
    Full,
}

/// What a mutant corrupts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MutantKind {
    /// A compiled-netlist / incremental-kernel fault.
    Engine(EngineFault),
    /// A CDCL solver sabotage.
    Solver(SolverSabotage),
    /// An AIG-CNF encoder sabotage.
    Encoder(EncoderSabotage),
    /// A parallel fault-simulation fault.
    Fsim(FsimFault),
    /// An attack-engine control-layer (`AttackCtl`) sabotage.
    AttackEngine(EngineSabotage),
    /// A scan-obfuscation scheme/attack sabotage (unroller, DynUnlock
    /// learning, K-Gate key bookkeeping).
    Scan(ScanSabotage),
}

/// One catalog entry.
#[derive(Debug, Clone, Copy)]
pub struct MutantSpec {
    /// Stable identifier (used in the JSON matrix).
    pub id: &'static str,
    /// Workspace layer the fault lives in.
    pub layer: &'static str,
    /// One-line description of the planted fault.
    pub description: &'static str,
    /// The fault itself.
    pub kind: MutantKind,
}

/// The checked-in mutant catalog: 24 semantic mutants spanning the
/// `netlist`, `sim`(kernel), `atpg`, `sat`, `locking` and `attacks` layers.
pub fn catalog() -> Vec<MutantSpec> {
    use EngineFault::*;
    vec![
        MutantSpec {
            id: "netlist-flip-gate-kind",
            layer: "netlist",
            description: "complement one gate's function in the compiled artifact",
            kind: MutantKind::Engine(FlipKind),
        },
        MutantSpec {
            id: "netlist-cross-fanin",
            layer: "netlist",
            description: "rewire a gate fanin edge to an unrelated primary input",
            kind: MutantKind::Engine(CrossFanin),
        },
        MutantSpec {
            id: "netlist-swap-topo-order",
            layer: "netlist",
            description: "swap a dependent producer/consumer pair in the levelization order",
            kind: MutantKind::Engine(SwapOrder),
        },
        MutantSpec {
            id: "sim-clear-output-mask",
            layer: "sim",
            description: "drop one output from the incremental kernel's out_diff mask",
            kind: MutantKind::Engine(ClearOutputMask),
        },
        MutantSpec {
            id: "sim-detach-fanout",
            layer: "sim",
            description: "detach a primary input's fanout edges from the event queue",
            kind: MutantKind::Engine(RedirectFanout),
        },
        MutantSpec {
            id: "sim-drop-undo-record",
            layer: "sim",
            description: "silently drop the first undo-log record before a revert",
            kind: MutantKind::Engine(DropUndo),
        },
        MutantSpec {
            id: "netlist-skew-csr-offset",
            layer: "netlist",
            description: "skew one gate's CSR fanin-start offset by one in the flat pools",
            kind: MutantKind::Engine(SkewFaninStart),
        },
        MutantSpec {
            id: "atpg-drop-chunk-boundary",
            layer: "atpg",
            description: "drop the first fault of every parallel fault-sim chunk after the first",
            kind: MutantKind::Fsim(FsimFault::DropChunkBoundary),
        },
        MutantSpec {
            id: "sat-skip-binary-watch",
            layer: "sat",
            description: "skip the binary-watch visit pass during unit propagation",
            kind: MutantKind::Solver(SolverSabotage::SkipBinaryWatch),
        },
        MutantSpec {
            id: "sat-shrink-learnt-clause",
            layer: "sat",
            description: "drop the last literal of every learnt clause of length >= 3",
            kind: MutantKind::Solver(SolverSabotage::ShrinkLearntClause),
        },
        MutantSpec {
            id: "sat-misreport-value",
            layer: "sat",
            description: "complement the model value reported for variable 0",
            kind: MutantKind::Solver(SolverSabotage::MisreportValue),
        },
        MutantSpec {
            id: "sat-unsound-subsumption",
            layer: "sat",
            description: "subsume by variable set instead of literal set during inprocessing",
            kind: MutantKind::Solver(SolverSabotage::UnsoundSubsumption),
        },
        MutantSpec {
            id: "sat-bve-drop-resolvent",
            layer: "sat",
            description: "drop the last resolvent when eliminating a variable",
            kind: MutantKind::Solver(SolverSabotage::BveDropResolvent),
        },
        MutantSpec {
            id: "sat-vivify-drop-literal",
            layer: "sat",
            description: "vivification drops a literal the probe never proved redundant",
            kind: MutantKind::Solver(SolverSabotage::VivifyDropLiteral),
        },
        MutantSpec {
            id: "sat-chrono-mislabel-level",
            layer: "sat",
            description: "record a chronologically backtracked literal at the backjump level",
            kind: MutantKind::Solver(SolverSabotage::ChronoMislabelLevel),
        },
        MutantSpec {
            id: "attacks-flip-gate-clause-lit",
            layer: "attacks",
            description: "complement one literal in the AND-gate CNF clauses",
            kind: MutantKind::Encoder(EncoderSabotage::FlipGateClauseLit),
        },
        MutantSpec {
            id: "attacks-skip-miter-output",
            layer: "attacks",
            description: "drop the last key-dependent output from the miter disjunction",
            kind: MutantKind::Encoder(EncoderSabotage::SkipMiterOutput),
        },
        MutantSpec {
            id: "attacks-flip-io-constraint-bit",
            layer: "attacks",
            description: "complement the oracle response bit asserted for output 0",
            kind: MutantKind::Encoder(EncoderSabotage::FlipIoConstraintBit),
        },
        MutantSpec {
            id: "attacks-flip-xor-gadget-lit",
            layer: "attacks",
            description: "complement one literal in the 4-clause XOR-cluster gadget",
            kind: MutantKind::Encoder(EncoderSabotage::FlipXorGadgetLit),
        },
        MutantSpec {
            id: "attacks-skip-interrupt-poll",
            layer: "attacks",
            description: "skip the cooperative interrupt poll and never arm the solver hook",
            kind: MutantKind::AttackEngine(EngineSabotage::SkipInterruptPoll),
        },
        MutantSpec {
            id: "attacks-undercount-oracle-query",
            layer: "attacks",
            description: "count only every other oracle query in the budget ledger",
            kind: MutantKind::AttackEngine(EngineSabotage::UndercountOracleQuery),
        },
        MutantSpec {
            id: "locking-scanobf-wrong-hop-permutation",
            layer: "locking",
            description: "shift every keyed swap stage one hop down in the session unroller",
            kind: MutantKind::Scan(ScanSabotage::WrongHopPermutation),
        },
        MutantSpec {
            id: "attacks-dyn-unlock-drop-frame",
            layer: "attacks",
            description: "drop the first shift frame from every scan-session response the chip oracle hands DynUnlock",
            kind: MutantKind::Scan(ScanSabotage::DropUnrollFrame),
        },
        MutantSpec {
            id: "locking-kgate-decode-table-swap",
            layer: "locking",
            description: "swap the first two decode-table words in the recorded K-Gate key",
            kind: MutantKind::Scan(ScanSabotage::DecodeTableSwap),
        },
    ]
}

/// Result of running the battery against one mutant.
#[derive(Debug, Clone)]
pub struct MutantResult {
    /// Catalog id.
    pub id: &'static str,
    /// Catalog layer.
    pub layer: &'static str,
    /// Catalog description.
    pub description: &'static str,
    /// Whether some conformance check failed (or panicked) — the goal.
    pub killed: bool,
    /// The first failing check's message (or `"survived"`).
    pub killed_by: String,
    /// Wall-clock nanoseconds spent on this mutant.
    pub wall_ns: u64,
}

/// The full kill matrix plus the clean-baseline verdict.
#[derive(Debug, Clone)]
pub struct MatrixReport {
    /// Whether the un-mutated engines pass every battery.
    pub baseline_ok: bool,
    /// Baseline failure detail (empty when `baseline_ok`).
    pub baseline_detail: String,
    /// One row per catalog mutant.
    pub results: Vec<MutantResult>,
}

impl MatrixReport {
    /// Ids of surviving mutants.
    pub fn survivors(&self) -> Vec<&'static str> {
        self.results
            .iter()
            .filter(|r| !r.killed)
            .map(|r| r.id)
            .collect()
    }

    /// Killed fraction in `[0, 1]`.
    pub fn kill_rate(&self) -> f64 {
        if self.results.is_empty() {
            return 0.0;
        }
        self.results.iter().filter(|r| r.killed).count() as f64 / self.results.len() as f64
    }
}

/// The engine-battery circuit set for a scale: the crafted circuit plus
/// deterministic random ones (comb-only and sequential-profile).
fn engine_circuits(scale: Scale) -> Vec<netlist::Circuit> {
    let mut out = vec![differential::crafted_engine_circuit()];
    let specs: &[(u64, usize, usize, usize)] = match scale {
        Scale::Smoke => &[(11, 6, 3, 40)],
        Scale::Full => &[(11, 6, 3, 40), (12, 8, 4, 70), (13, 10, 5, 120)],
    };
    for &(seed, i, o, g) in specs {
        out.push(netlist::generate::random_comb(seed, i, o, g).expect("synthesizable"));
    }
    // One DFF-bearing profile: its combinational part exercises the
    // pseudo-input/pseudo-output boundary.
    out.push(
        crate::seqgen::SeqSpec {
            primary_inputs: 4,
            primary_outputs: 3,
            dffs: 3,
            gates: 40,
            seed: 21,
        }
        .build(),
    );
    out
}

fn cnf_instances(scale: Scale) -> usize {
    match scale {
        Scale::Smoke => 32,
        Scale::Full => 96,
    }
}

fn enc_patterns(scale: Scale) -> usize {
    match scale {
        Scale::Smoke => 6,
        Scale::Full => 16,
    }
}

/// Runs the battery that can observe `kind`. `Ok(())` = all checks passed
/// (mutant survived / baseline clean), `Err` = first detection.
fn run_battery(kind: Option<MutantKind>, scale: Scale) -> Result<(), String> {
    match kind {
        None => {
            for (ci, c) in engine_circuits(scale).iter().enumerate() {
                match differential::differential_check(c, None, 0xBA5E + ci as u64, 24) {
                    Ok(true) => {}
                    Ok(false) => unreachable!("no fault to be inapplicable"),
                    Err(e) => return Err(format!("engine battery, circuit {ci}: {e}")),
                }
            }
            satcheck::solver_battery(None, cnf_instances(scale))?;
            enccheck::encoder_battery(None, enc_patterns(scale))?;
            fsimcheck::fsim_battery(None)?;
            enginecheck::engine_battery(None)?;
            scancheck::scan_battery(None, scale)?;
            if scale == Scale::Full {
                crate::attack_loop::attack_loop_battery()?;
            }
            Ok(())
        }
        Some(MutantKind::Engine(fault)) => {
            let mut applicable = 0usize;
            for (ci, c) in engine_circuits(scale).iter().enumerate() {
                match differential::differential_check(c, Some(fault), 0xBA5E + ci as u64, 24) {
                    Ok(true) => applicable += 1,
                    Ok(false) => {}
                    Err(e) => return Err(format!("circuit {ci}: {e}")),
                }
            }
            if applicable == 0 {
                // The crafted circuit guarantees a site for every fault;
                // reaching this means the injector regressed.
                return Err("fault had no applicable site on any battery circuit".into());
            }
            Ok(())
        }
        Some(MutantKind::Solver(sab)) => satcheck::solver_battery(Some(sab), cnf_instances(scale)),
        Some(MutantKind::Encoder(sab)) => {
            enccheck::encoder_battery(Some(sab), enc_patterns(scale))
        }
        Some(MutantKind::Fsim(f)) => fsimcheck::fsim_battery(Some(f)),
        Some(MutantKind::AttackEngine(sab)) => enginecheck::engine_battery(Some(sab)),
        Some(MutantKind::Scan(sab)) => scancheck::scan_battery(Some(sab), scale),
    }
}

/// Runs the whole matrix: the clean baseline first, then every catalog
/// mutant. Panics inside a battery count as kills (a mutant that crashes
/// an engine was noticed).
pub fn run_matrix(scale: Scale) -> MatrixReport {
    let baseline = catch_unwind(AssertUnwindSafe(|| run_battery(None, scale)));
    let (baseline_ok, baseline_detail) = match baseline {
        Ok(Ok(())) => (true, String::new()),
        Ok(Err(e)) => (false, e),
        Err(_) => (false, "baseline battery panicked".into()),
    };

    let mut results = Vec::new();
    for spec in catalog() {
        let start = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| run_battery(Some(spec.kind), scale)));
        let (killed, killed_by) = match outcome {
            Ok(Ok(())) => (false, "survived".to_string()),
            Ok(Err(e)) => (true, e),
            Err(_) => (true, "battery panicked (counts as a kill)".to_string()),
        };
        results.push(MutantResult {
            id: spec.id,
            layer: spec.layer,
            description: spec.description,
            killed,
            killed_by,
            wall_ns: start.elapsed().as_nanos() as u64,
        });
    }
    MatrixReport {
        baseline_ok,
        baseline_detail,
        results,
    }
}
