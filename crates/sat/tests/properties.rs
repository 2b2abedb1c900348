//! Property-based tests (qcheck) for the CDCL solver and DIMACS I/O.
//!
//! The solver properties run with a deliberately hostile configuration —
//! a restart decision on every conflict and a clause database that reduces
//! almost immediately — so the restart/LBD machinery is exercised even on
//! tiny formulas where the defaults would never trigger it.

use cdcl::{dimacs, SolveResult, Solver, SolverConfig, Var};
use qcheck::{any_bool, vec_of};

/// A configuration that restarts and reduces as aggressively as possible:
/// EMA restarts are re-evaluated after every conflict.
fn hostile_config() -> SolverConfig {
    SolverConfig {
        restart_min_interval: 1,
        reduce_base: 1,
        reduce_increment: 1,
        ..SolverConfig::default()
    }
}

/// Everything-on inprocessing: a simplification round before (almost) every
/// solve, chronological backtracking from distance 1, EMA restarts
/// re-evaluated every other conflict.
fn aggressive_config() -> SolverConfig {
    SolverConfig {
        restart_min_interval: 2,
        reduce_base: 2,
        reduce_increment: 2,
        chrono_threshold: 1,
        inprocess_trigger: 1,
        inprocess_min_clauses: 0,
    }
}

/// Everything-off counterpart: no chronological backtracking, no
/// inprocessing — the pre-inprocessing solver.
fn plain_config() -> SolverConfig {
    SolverConfig {
        chrono_threshold: 0,
        inprocess_trigger: 0,
        ..SolverConfig::default()
    }
}

/// Builds clauses over `num_vars` variables from raw generator output.
fn build_clauses(raw: &[Vec<(u64, bool)>], num_vars: usize) -> Vec<Vec<cdcl::Lit>> {
    raw.iter()
        .map(|clause| {
            clause
                .iter()
                .map(|&(v, sign)| Var::from_index((v % num_vars as u64) as usize).lit(sign))
                .collect()
        })
        .collect()
}

/// Exhaustive satisfiability check over all `2^num_vars` assignments.
fn brute_force_sat(clauses: &[Vec<cdcl::Lit>], num_vars: usize) -> bool {
    (0u32..1 << num_vars).any(|m| {
        clauses.iter().all(|c| {
            c.iter()
                .any(|l| ((m >> l.var().index()) & 1 == 1) == l.is_positive())
        })
    })
}

qcheck::props! {
    config = qcheck::Config::with_cases(64);

    /// `dimacs::write` followed by `dimacs::parse` reproduces the formula
    /// exactly (variable count, clause order, literal signs, even empty
    /// clauses).
    fn dimacs_roundtrip(
        num_vars in 1usize..17,
        raw in vec_of(vec_of((0u64..1 << 30, any_bool()), 0..8), 0..30),
    ) {
        let cnf = dimacs::Cnf {
            num_vars,
            clauses: build_clauses(&raw, num_vars),
        };
        let text = dimacs::write(&cnf);
        let again = dimacs::parse(&text)
            .map_err(|e| format!("write produced unparsable text: {e}"))?;
        qcheck::prop_assert_eq!(cnf, again);
    }

    /// The solver agrees with brute force on random small CNFs while
    /// deciding on a restart after every conflict and reducing the learnt
    /// database on every check — the verdict must be invariant under both.
    fn solver_agrees_with_brute_force_under_hostile_config(
        num_vars in 1usize..13,
        raw in vec_of(vec_of((0u64..1 << 30, any_bool()), 1..5), 0..60),
    ) {
        let clauses = build_clauses(&raw, num_vars);
        let expect = brute_force_sat(&clauses, num_vars);
        let mut solver = Solver::with_config(hostile_config());
        for _ in 0..num_vars {
            solver.new_var();
        }
        for c in &clauses {
            solver.add_clause(c);
        }
        let verdict = solver.solve();
        qcheck::prop_assert_eq!(
            verdict,
            if expect { SolveResult::Sat } else { SolveResult::Unsat }
        );
        if verdict == SolveResult::Sat {
            // The model must actually satisfy every clause.
            for c in &clauses {
                qcheck::prop_assert!(
                    c.iter().any(|l| solver.value(l.var()) == Some(l.is_positive())),
                    "model violates clause {c:?}"
                );
            }
        }
        // The hostile schedule must have been exercised when there was any
        // real search (sanity check that the property tests what it claims).
        if solver.stats().conflicts >= 2 {
            qcheck::prop_assert!(solver.stats().restarts >= 1);
        }
    }

    /// Incremental solving under assumptions stays consistent with brute
    /// force: for a random assumption literal, the assumed solve matches
    /// brute force on the formula plus that unit clause.
    fn assumption_solve_matches_unit_clause(
        num_vars in 1usize..10,
        raw in vec_of(vec_of((0u64..1 << 30, any_bool()), 1..4), 0..40),
        pick in (0u64..1 << 30, any_bool()),
    ) {
        let clauses = build_clauses(&raw, num_vars);
        let lit = Var::from_index((pick.0 % num_vars as u64) as usize).lit(pick.1);
        let mut with_unit = clauses.clone();
        with_unit.push(vec![lit]);
        let expect = brute_force_sat(&with_unit, num_vars);
        let mut solver = Solver::with_config(hostile_config());
        for _ in 0..num_vars {
            solver.new_var();
        }
        for c in &clauses {
            solver.add_clause(c);
        }
        let verdict = solver.solve_with(&[lit]);
        qcheck::prop_assert_eq!(
            verdict,
            if expect { SolveResult::Sat } else { SolveResult::Unsat }
        );
        // The solver must stay reusable after the assumed call.
        let unassumed = solver.solve();
        qcheck::prop_assert_eq!(
            unassumed,
            if brute_force_sat(&clauses, num_vars) {
                SolveResult::Sat
            } else {
                SolveResult::Unsat
            }
        );
    }

    /// Inprocessing on vs off agree on SAT/UNSAT (and with brute force), and
    /// the inprocessing solver's models are valid for the *original*
    /// pre-elimination CNF — including across an incremental step that adds
    /// a clause and assumes a literal, both of which may mention variables
    /// the first solve eliminated (restore-on-demand).
    fn inprocessing_on_vs_off_agree(
        num_vars in 1usize..13,
        raw in vec_of(vec_of((0u64..1 << 30, any_bool()), 1..4), 0..50),
        extra_raw in vec_of(vec_of((0u64..1 << 30, any_bool()), 1..4), 1..2),
        pick in (0u64..1 << 30, any_bool()),
    ) {
        let clauses = build_clauses(&raw, num_vars);
        let mut on = Solver::with_config(aggressive_config());
        let mut off = Solver::with_config(plain_config());
        for _ in 0..num_vars {
            on.new_var();
            off.new_var();
        }
        for c in &clauses {
            on.add_clause(c);
            off.add_clause(c);
        }
        let expect = if brute_force_sat(&clauses, num_vars) {
            SolveResult::Sat
        } else {
            SolveResult::Unsat
        };
        qcheck::prop_assert_eq!(on.solve(), expect);
        qcheck::prop_assert_eq!(off.solve(), expect);
        if expect == SolveResult::Sat {
            for c in &clauses {
                qcheck::prop_assert!(
                    c.iter().any(|l| on.value(l.var()) == Some(l.is_positive())),
                    "inprocessing model violates original clause {c:?}"
                );
            }
        }
        // Incremental step: a new clause plus an assumption, checked against
        // brute force on the extended formula.
        let extra = build_clauses(&extra_raw, num_vars);
        let lit = Var::from_index((pick.0 % num_vars as u64) as usize).lit(pick.1);
        let mut extended = clauses.clone();
        extended.extend(extra.iter().cloned());
        let mut assumed = extended.clone();
        assumed.push(vec![lit]);
        let expect2 = if brute_force_sat(&assumed, num_vars) {
            SolveResult::Sat
        } else {
            SolveResult::Unsat
        };
        for c in &extra {
            on.add_clause(c);
            off.add_clause(c);
        }
        qcheck::prop_assert_eq!(on.solve_with(&[lit]), expect2);
        qcheck::prop_assert_eq!(off.solve_with(&[lit]), expect2);
        if expect2 == SolveResult::Sat {
            for c in &extended {
                qcheck::prop_assert!(
                    c.iter().any(|l| on.value(l.var()) == Some(l.is_positive())),
                    "post-restore model violates clause {c:?}"
                );
            }
            qcheck::prop_assert_eq!(on.value(lit.var()), Some(lit.is_positive()));
        }
    }
}
