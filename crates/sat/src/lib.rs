//! A from-scratch CDCL SAT solver.
//!
//! The SAT attack on logic locking (Subramanyan et al., HOST 2015) is the
//! central adversary the OraP paper defends against; it needs an incremental
//! SAT solver at its core. This crate implements a MiniSat-class solver:
//!
//! - two-watched-literal unit propagation over a flat clause arena, with
//!   blocker literals and dedicated binary-clause watch lists (a binary
//!   visit touches no clause memory at all),
//! - first-UIP conflict-driven clause learning with local learnt-clause
//!   minimization (a literal goes when its reason clause is absorbed),
//! - exponential VSIDS branching with phase saving,
//! - adaptive restarts: Glucose-style EMA blocking/forcing restarts,
//! - chronological backtracking for conflicts whose backjump would undo a
//!   long stretch of still-consistent assignments,
//! - literal-block-distance (LBD) tracking with glue-clause protection and
//!   LBD-driven learnt-clause database reduction,
//! - an inprocessing layer scheduled between incremental solves:
//!   occurrence-list clause subsumption + self-subsuming strengthening,
//!   bounded variable elimination with model reconstruction (reported
//!   models always satisfy the *original* CNF), and clause vivification —
//!   with restore-on-demand (plus a [`Solver::set_frozen`] hint) so later
//!   clauses or assumptions may mention eliminated variables freely,
//! - incremental solving under assumptions, with clause addition between
//!   calls (exactly what the attack's query loop needs),
//! - optional conflict budgets and cooperative interrupts (a shared flag or
//!   a deadline), all returning [`SolveResult::Unknown`],
//! - cumulative search statistics ([`SolverStats`]) exported by the
//!   experiment harness,
//! - DIMACS CNF I/O ([`dimacs`]).
//!
//! # Example
//!
//! ```
//! use cdcl::{Solver, SolveResult};
//!
//! let mut s = Solver::new();
//! let a = s.new_var();
//! let b = s.new_var();
//! s.add_clause(&[a.positive(), b.positive()]);
//! s.add_clause(&[a.negative()]);
//! assert_eq!(s.solve(), SolveResult::Sat);
//! assert_eq!(s.value(a), Some(false));
//! assert_eq!(s.value(b), Some(true));
//! ```

#![warn(missing_docs)]

pub mod dimacs;
mod solver;
mod types;

pub use solver::{
    SolveResult, Solver, SolverConfig, SolverSabotage, SolverStats, DEADLINE_CHECK_MASK,
};
pub use types::{Lit, Var};
