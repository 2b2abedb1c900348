//! Differential conformance suite and mutation-kill harness for the OraP
//! engines.
//!
//! The workspace has four independent ways to compute what a circuit does:
//! a naive per-gate interpreter (re-implemented here, on purpose, from the
//! [`netlist::Circuit`] definition alone), the 64-lane full-sweep kernel
//! ([`netlist::CompiledCircuit::eval_full_into`]), the incremental
//! propagate/commit/revert kernel ([`netlist::EvalScratch`]), and the SAT
//! path (AIG-reduced CNF through the CDCL solver). A bug in any one of them
//! silently corrupts every experiment built on top — so this crate
//! cross-checks all four against each other on deterministic random
//! circuits, and then *proves the checks can fail* by injecting a catalog
//! of semantic mutants into each engine and demanding a 100% kill rate.
//!
//! Modules:
//!
//! - [`mod@reference`]: the naive interpreter used as the differential
//!   anchor.
//! - [`differential`]: the 3-way value-level battery (naive / full sweep /
//!   incremental, including `out_diff` masks and revert snapshots).
//! - [`satcheck`]: solver battery (brute-force CNF comparison, model
//!   validation, unit-value truthfulness).
//! - [`enccheck`]: encoder battery (exhaustive miter ground truth on
//!   crafted locked circuits, I/O-constraint consistency, counterexample
//!   genuineness) — the SAT leg of the 4-way check.
//! - [`fsimcheck`]: fault-simulator battery (sequential vs chunked-parallel
//!   detection across thread counts, counter truthfulness).
//! - [`enginecheck`]: attack-engine control-layer battery (interrupt-poll
//!   honesty, oracle-query ledger/budget truthfulness).
//! - [`attack_loop`]: full lock → attack → key recovery → exact-miter
//!   verification loops across schemes × attacks.
//! - [`scancheck`]: scan-obfuscation battery (DynUnlock + K-Gate Lock
//!   conformance loops, unrolled-session vs chip-stepping differential,
//!   session CNF admission).
//! - [`mutation`]: the mutant catalog and the kill-matrix runner.
//! - [`seqgen`]: a [`qcheck::Gen`] combinator for sequential (DFF-bearing)
//!   circuits with a shrinker.
//!
//! Most mutants live behind test-only hooks in the production crates
//! (`CompiledCircuit::mutate_*`, `EvalScratch::sabotage_drop_undo`,
//! `cdcl::SolverSabotage`, `attacks::aigcnf::EncoderSabotage`); this crate
//! only ever *activates* them on private copies, never in shipping code
//! paths. The rest need no hook: the battery corrupts its own inputs or
//! reads (the scan mutants, a misreported model value, a flipped oracle
//! response bit). See DESIGN.md §"Conformance and mutation kill" for the rationale
//! and EXPERIMENTS.md for how to run the full vs smoke matrix and replay
//! pinned qcheck seeds.

#![warn(missing_docs)]

pub mod attack_loop;
pub mod differential;
pub mod enccheck;
pub mod enginecheck;
pub mod fsimcheck;
pub mod mutation;
pub mod reference;
pub mod satcheck;
pub mod scancheck;
pub mod seqgen;
