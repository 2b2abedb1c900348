//! Oracle-guided attacks on combinational logic locking.
//!
//! These are the adversaries the OraP paper defends against. Every attack
//! here consumes an [`Oracle`] — an abstraction of "a functional chip whose
//! I/O behaviour the attacker can sample" — and a locked netlist with key
//! inputs. Whether the oracle actually answers is exactly what OraP
//! controls: the conventional scan-equipped chip answers every query, while
//! an OraP-protected chip (implemented in the `orap` crate) yields no
//! correct responses through scan, so every attack below reports
//! [`FailureReason::OracleUnavailable`].
//!
//! Implemented attacks:
//!
//! - [`sat`]: the SAT attack (Subramanyan et al., HOST 2015) — iterative
//!   distinguishing-input elimination with a miter over two key copies.
//! - [`appsat`]: AppSAT-style approximate attack (Shamsi et al., HOST 2017)
//!   — the SAT loop with periodic random-query settlement checks, returning
//!   an approximate key early.
//! - [`double_dip`]: a Double-DIP variant (Shen & Zhou, GLSVLSI 2017) using
//!   a three-copy miter so each distinguishing input eliminates at least two
//!   wrong keys.
//! - [`hill_climbing`]: the hill-climbing attack (Plaza & Markov, TCAD
//!   2015) — greedy key-bit flipping against sampled oracle responses.
//! - [`sensitization`]: key-sensitization probing (Yasin et al., TCAD 2016)
//!   — per-bit consistency inference from sensitizing patterns.
//! - [`sps`]: the oracle-less signal-probability-skew removal attack
//!   (Yasin et al., TETC 2017), which strips Anti-SAT-style blocks.
//! - [`dyn_unlock`]: DynUnlock (Limaye & Sinanoglu, DATE 2020) — the SAT
//!   loop over bounded scan sessions unrolled from dynamically keyed scan
//!   obfuscation, recovering the LFSR seed through the scan interface.
//!
//! # Example
//!
//! ```
//! use attacks::engine::{self, AttackCtl};
//! use attacks::{sat::SatEngine, CombOracle};
//! use locking::random::{self, RllConfig};
//!
//! let original = netlist::samples::ripple_adder(4);
//! let locked = random::lock(&original, &RllConfig { key_bits: 6, seed: 1 }).expect("lockable");
//! let mut oracle = CombOracle::from_locked(&locked).expect("valid lock");
//! let outcome = engine::run(&SatEngine::default(), &locked, &mut oracle, &mut AttackCtl::new());
//! let key = outcome.key.expect("RLL falls to the SAT attack");
//! assert!(attacks::key_is_functionally_correct(&locked, &key, 512).expect("simulable"));
//! ```

#![warn(missing_docs)]

pub mod aigcnf;
pub mod appsat;
pub mod double_dip;
pub mod dyn_unlock;
pub mod engine;
pub mod hill_climbing;
pub mod sat;
pub mod sensitization;
pub mod sps;
pub mod verify;

mod oracle;

pub use oracle::{CombOracle, DeadOracle, Oracle};

use locking::LockedCircuit;
use netlist::Error;

/// Why an attack gave up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureReason {
    /// The oracle refused every query — the OraP situation.
    OracleUnavailable,
    /// The iteration limit was reached.
    IterationLimit,
    /// The attack concluded without determining a key (e.g. inconsistent
    /// oracle responses, which indicate the oracle was answering with a
    /// locked circuit's outputs).
    Inconclusive,
    /// The session's cancel flag fired ([`engine::AttackCtl`]).
    Cancelled,
    /// The session's wall-clock deadline passed ([`engine::AttackCtl`]).
    TimedOut,
    /// The session's oracle-query budget ran out before the attack could
    /// finish — the paper's protect-the-oracle metric as a hard limit.
    QueryBudgetExhausted,
}

impl std::fmt::Display for FailureReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            FailureReason::OracleUnavailable => "oracle unavailable",
            FailureReason::IterationLimit => "iteration limit reached",
            FailureReason::Inconclusive => "inconclusive",
            FailureReason::Cancelled => "cancelled",
            FailureReason::TimedOut => "timed out",
            FailureReason::QueryBudgetExhausted => "oracle query budget exhausted",
        };
        f.write_str(s)
    }
}

/// Telemetry for one learned distinguishing input.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DipTelemetry {
    /// Clauses the DIP's I/O constraints added to the attack solver — with
    /// the AIG-reduced encoding this is the key-dependent residue of the
    /// cofactored circuit, not two full netlist clones.
    pub clauses_added: usize,
    /// Cumulative solver conflicts right after this DIP was learned.
    pub conflicts: u64,
    /// Cumulative clauses removed by inprocessing subsumption (plus
    /// self-subsuming strengthenings) right after this DIP was learned.
    pub subsumed_clauses: u64,
    /// Cumulative variables removed by bounded variable elimination right
    /// after this DIP was learned.
    pub eliminated_vars: u64,
    /// Cumulative literals removed by clause vivification right after this
    /// DIP was learned.
    pub vivified_literals: u64,
}

/// Aggregate per-run telemetry of the SAT-attack family, surfaced through
/// [`AttackOutcome`] and exported by the experiment binaries.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AttackTelemetry {
    /// One record per distinguishing input, in attack order.
    pub dips: Vec<DipTelemetry>,
    /// Cumulative solver statistics at the end of the run.
    pub solver: cdcl::SolverStats,
    /// Final problem-clause count of the attack solver.
    pub clauses: usize,
    /// Final variable count of the attack solver.
    pub vars: usize,
    /// Simulation-engine work counters (full sweeps vs incremental events;
    /// populated by the simulation-driven attacks such as hill climbing).
    pub engine: netlist::EngineCounters,
}

/// Outcome of an oracle-guided attack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttackOutcome {
    /// The recovered key (functionally correct or best-effort, per attack).
    pub key: Option<Vec<bool>>,
    /// Why the attack failed, when `key` is `None`.
    pub failure: Option<FailureReason>,
    /// Attack iterations executed (distinguishing inputs for the SAT
    /// family, restarts for hill climbing, probes for sensitization).
    pub iterations: usize,
    /// Oracle queries attempted (including refused ones).
    pub oracle_queries: usize,
    /// Solver/encoding telemetry (empty for the non-SAT attacks).
    pub telemetry: AttackTelemetry,
}

impl AttackOutcome {
    /// Whether a key was recovered.
    pub fn succeeded(&self) -> bool {
        self.key.is_some()
    }

    pub(crate) fn failed(reason: FailureReason, iterations: usize, queries: usize) -> Self {
        AttackOutcome {
            key: None,
            failure: Some(reason),
            iterations,
            oracle_queries: queries,
            telemetry: AttackTelemetry::default(),
        }
    }

    pub(crate) fn with_telemetry(mut self, telemetry: AttackTelemetry) -> Self {
        self.telemetry = telemetry;
        self
    }
}

/// Checks whether `key` unlocks `locked` to the same function as the correct
/// key, over `patterns` pseudorandom patterns (the SAT attack guarantees only
/// *functional* equivalence, not bit-identity).
///
/// # Errors
///
/// Returns a netlist error if the locked circuit is cyclic.
pub fn key_is_functionally_correct(
    locked: &LockedCircuit,
    key: &[bool],
    patterns: usize,
) -> Result<bool, Error> {
    let rep = gatesim::hd::hamming_between_keys(
        &locked.circuit,
        &locked.key_inputs,
        &locked.correct_key,
        key,
        patterns,
        0xC0FFEE,
    )?;
    Ok(rep.flipped == 0)
}
