//! Functional and randomized tests for the CDCL solver.

use cdcl::{Lit, SolveResult, Solver, Var};

fn vars(s: &mut Solver, n: usize) -> Vec<Var> {
    (0..n).map(|_| s.new_var()).collect()
}

/// Pigeonhole exclusivity: no two pigeons (rows) share a hole (column).
fn at_most_one_per_hole(s: &mut Solver, p: &[Vec<Var>]) {
    for (i1, row1) in p.iter().enumerate() {
        for row2 in &p[i1 + 1..] {
            for (a, b) in row1.iter().zip(row2) {
                s.add_clause(&[a.negative(), b.negative()]);
            }
        }
    }
}

/// Naive DPLL-free truth-table check for reference.
fn brute_force_sat(num_vars: usize, clauses: &[Vec<Lit>]) -> bool {
    assert!(num_vars <= 20);
    'outer: for m in 0u64..(1 << num_vars) {
        for c in clauses {
            let sat = c.iter().any(|l| {
                let v = (m >> l.var().index()) & 1 == 1;
                v == l.is_positive()
            });
            if !sat {
                continue 'outer;
            }
        }
        return true;
    }
    false
}

fn model_satisfies(s: &Solver, clauses: &[Vec<Lit>]) -> bool {
    clauses.iter().all(|c| {
        c.iter()
            .any(|l| s.value(l.var()) == Some(l.is_positive()))
    })
}

#[test]
fn empty_formula_is_sat() {
    let mut s = Solver::new();
    assert_eq!(s.solve(), SolveResult::Sat);
}

#[test]
fn unit_propagation_chain() {
    let mut s = Solver::new();
    let v = vars(&mut s, 5);
    s.add_clause(&[v[0].positive()]);
    for i in 0..4 {
        s.add_clause(&[v[i].negative(), v[i + 1].positive()]);
    }
    assert_eq!(s.solve(), SolveResult::Sat);
    for &x in &v {
        assert_eq!(s.value(x), Some(true));
    }
}

#[test]
fn trivial_unsat() {
    let mut s = Solver::new();
    let a = s.new_var();
    assert!(s.add_clause(&[a.positive()]));
    assert!(!s.add_clause(&[a.negative()]));
    assert_eq!(s.solve(), SolveResult::Unsat);
}

#[test]
fn tautologies_ignored() {
    let mut s = Solver::new();
    let a = s.new_var();
    assert!(s.add_clause(&[a.positive(), a.negative()]));
    assert_eq!(s.num_clauses(), 0);
    assert_eq!(s.solve(), SolveResult::Sat);
}

#[test]
fn xor_chain_sat() {
    // x0 ^ x1 ^ ... ^ x7 = 1, encoded clause-wise pairwise via Tseitin-ish
    // chaining: t_i = t_{i-1} ^ x_i.
    let mut s = Solver::new();
    let x = vars(&mut s, 8);
    let mut prev = x[0];
    for &xi in &x[1..] {
        let t = s.new_var();
        // t = prev XOR xi
        s.add_clause(&[t.negative(), prev.positive(), xi.positive()]);
        s.add_clause(&[t.negative(), prev.negative(), xi.negative()]);
        s.add_clause(&[t.positive(), prev.negative(), xi.positive()]);
        s.add_clause(&[t.positive(), prev.positive(), xi.negative()]);
        prev = t;
    }
    s.add_clause(&[prev.positive()]);
    assert_eq!(s.solve(), SolveResult::Sat);
    let parity = x
        .iter()
        .fold(false, |acc, &v| acc ^ s.value(v).unwrap_or(false));
    assert!(parity, "model must satisfy odd parity");
}

#[test]
fn pigeonhole_4_into_3_unsat() {
    // p_{i,j}: pigeon i in hole j. 4 pigeons, 3 holes.
    let mut s = Solver::new();
    let p: Vec<Vec<Var>> = (0..4).map(|_| vars(&mut s, 3)).collect();
    for row in &p {
        let clause: Vec<Lit> = row.iter().map(|v| v.positive()).collect();
        s.add_clause(&clause);
    }
    at_most_one_per_hole(&mut s, &p);
    assert_eq!(s.solve(), SolveResult::Unsat);
}

#[test]
fn pigeonhole_5_into_4_unsat() {
    let mut s = Solver::new();
    let p: Vec<Vec<Var>> = (0..5).map(|_| vars(&mut s, 4)).collect();
    for row in &p {
        let clause: Vec<Lit> = row.iter().map(|v| v.positive()).collect();
        s.add_clause(&clause);
    }
    at_most_one_per_hole(&mut s, &p);
    assert_eq!(s.solve(), SolveResult::Unsat);
}

#[test]
fn pigeonhole_5_into_5_sat() {
    let mut s = Solver::new();
    let p: Vec<Vec<Var>> = (0..5).map(|_| vars(&mut s, 5)).collect();
    for row in &p {
        let clause: Vec<Lit> = row.iter().map(|v| v.positive()).collect();
        s.add_clause(&clause);
    }
    at_most_one_per_hole(&mut s, &p);
    assert_eq!(s.solve(), SolveResult::Sat);
}

#[test]
fn assumptions_flip_verdict() {
    let mut s = Solver::new();
    let a = s.new_var();
    let b = s.new_var();
    s.add_clause(&[a.positive(), b.positive()]);
    assert_eq!(s.solve_with(&[a.negative(), b.negative()]), SolveResult::Unsat);
    assert_eq!(s.solve_with(&[a.negative()]), SolveResult::Sat);
    assert_eq!(s.value(b), Some(true));
    // Solver stays usable: no permanent damage from assumption conflicts.
    assert_eq!(s.solve(), SolveResult::Sat);
}

#[test]
fn incremental_strengthening() {
    // The SAT-attack usage pattern: solve, add clauses, solve again.
    let mut s = Solver::new();
    let v = vars(&mut s, 4);
    s.add_clause(&[v[0].positive(), v[1].positive()]);
    assert_eq!(s.solve(), SolveResult::Sat);
    s.add_clause(&[v[0].negative()]);
    assert_eq!(s.solve(), SolveResult::Sat);
    assert_eq!(s.value(v[1]), Some(true));
    s.add_clause(&[v[1].negative()]);
    assert_eq!(s.solve(), SolveResult::Unsat);
}

#[test]
fn conflict_budget_reports_unknown() {
    // A hard-ish random instance with a 1-conflict budget.
    let mut s = Solver::new();
    let p: Vec<Vec<Var>> = (0..7).map(|_| vars(&mut s, 6)).collect();
    for row in &p {
        let clause: Vec<Lit> = row.iter().map(|v| v.positive()).collect();
        s.add_clause(&clause);
    }
    at_most_one_per_hole(&mut s, &p);
    s.set_conflict_budget(Some(1));
    assert_eq!(s.solve(), SolveResult::Unknown);
    s.set_conflict_budget(None);
    assert_eq!(s.solve(), SolveResult::Unsat);
}

#[test]
fn random_3cnf_agrees_with_brute_force() {
    // Deterministic xorshift for clause generation.
    let mut state = 0x1234_5678_9abc_def0u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for round in 0..200 {
        let nv = 4 + (next() % 9) as usize; // 4..=12 vars
        let nc = nv * 4 + (next() % 10) as usize;
        let clauses: Vec<Vec<Lit>> = (0..nc)
            .map(|_| {
                (0..3)
                    .map(|_| {
                        let v = Var::from_index((next() % nv as u64) as usize);
                        v.lit(next() & 1 == 1)
                    })
                    .collect()
            })
            .collect();
        let expected = brute_force_sat(nv, &clauses);
        let mut s = Solver::new();
        vars(&mut s, nv);
        let mut root_conflict = false;
        for c in &clauses {
            if !s.add_clause(c) {
                root_conflict = true;
            }
        }
        let got = if root_conflict {
            SolveResult::Unsat
        } else {
            s.solve()
        };
        let want = if expected {
            SolveResult::Sat
        } else {
            SolveResult::Unsat
        };
        assert_eq!(got, want, "round {round} ({nv} vars, {nc} clauses)");
        if got == SolveResult::Sat {
            assert!(
                model_satisfies(&s, &clauses),
                "round {round}: returned model does not satisfy formula"
            );
        }
    }
}

#[test]
fn incremental_random_sequences() {
    // Add clauses in batches, solving between batches; verdicts must match a
    // from-scratch solver on every prefix.
    let mut state = 0xdead_beef_cafe_1234u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for round in 0..30 {
        let nv = 5 + (next() % 6) as usize;
        let batches: Vec<Vec<Vec<Lit>>> = (0..4)
            .map(|_| {
                (0..nv)
                    .map(|_| {
                        (0..3)
                            .map(|_| {
                                let v = Var::from_index((next() % nv as u64) as usize);
                                v.lit(next() & 1 == 1)
                            })
                            .collect()
                    })
                    .collect()
            })
            .collect();
        let mut inc = Solver::new();
        vars(&mut inc, nv);
        let mut all: Vec<Vec<Lit>> = Vec::new();
        for (bi, batch) in batches.iter().enumerate() {
            let mut inc_dead = false;
            for c in batch {
                all.push(c.clone());
                if !inc.add_clause(c) {
                    inc_dead = true;
                }
            }
            let got = if inc_dead { SolveResult::Unsat } else { inc.solve() };
            let want = if brute_force_sat(nv, &all) {
                SolveResult::Sat
            } else {
                SolveResult::Unsat
            };
            assert_eq!(got, want, "round {round} batch {bi}");
            if got == SolveResult::Unsat {
                break;
            }
        }
    }
}

#[test]
fn assumption_model_respects_assumptions() {
    let mut s = Solver::new();
    let v = vars(&mut s, 6);
    for i in 0..5 {
        s.add_clause(&[v[i].negative(), v[i + 1].positive()]);
    }
    let r = s.solve_with(&[v[0].positive()]);
    assert_eq!(r, SolveResult::Sat);
    for &x in &v {
        assert_eq!(s.value(x), Some(true), "implication chain from assumption");
    }
}

/// Builds pigeonhole PHP(holes+1, holes): unsatisfiable and exponentially
/// hard for resolution, so a search on it reliably outlives short timers.
fn php(s: &mut Solver, holes: usize) -> Vec<Vec<Var>> {
    let p: Vec<Vec<Var>> = (0..holes + 1).map(|_| vars(s, holes)).collect();
    for row in &p {
        let clause: Vec<Lit> = row.iter().map(|v| v.positive()).collect();
        s.add_clause(&clause);
    }
    at_most_one_per_hole(s, &p);
    p
}

#[test]
fn preset_interrupt_flag_stops_before_search() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    let mut s = Solver::new();
    php(&mut s, 7);
    let flag = Arc::new(AtomicBool::new(true));
    s.set_interrupt(Some(Arc::clone(&flag)));
    assert_eq!(s.solve(), SolveResult::Unknown);
    assert!(s.interrupted());
    // Clearing the flag resumes normally and the latch resets.
    flag.store(false, Ordering::Relaxed);
    assert_eq!(s.solve(), SolveResult::Unsat);
    assert!(!s.interrupted());
}

#[test]
fn interrupt_flag_cancels_a_long_solve_mid_search() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};
    // PHP(13, 12) takes far longer than the timer on any hardware; the
    // solve must come back quickly once the flag fires mid-search.
    let mut s = Solver::new();
    php(&mut s, 12);
    let flag = Arc::new(AtomicBool::new(false));
    s.set_interrupt(Some(Arc::clone(&flag)));
    let setter = {
        let flag = Arc::clone(&flag);
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(80));
            flag.store(true, Ordering::Relaxed);
        })
    };
    let t0 = Instant::now();
    let result = s.solve();
    setter.join().unwrap();
    assert_eq!(result, SolveResult::Unknown);
    assert!(s.interrupted());
    assert!(s.stats().conflicts > 0, "interrupt should land mid-search");
    assert!(
        t0.elapsed() < Duration::from_secs(30),
        "cancel took {:?}",
        t0.elapsed()
    );
    // The solver stays usable: drop the hook and finish a sat instance.
    s.set_interrupt(None);
    let mut easy = Solver::new();
    let v = vars(&mut easy, 2);
    easy.add_clause(&[v[0].positive(), v[1].positive()]);
    assert_eq!(easy.solve(), SolveResult::Sat);
}

#[test]
fn expired_deadline_reports_unknown_and_interrupted() {
    use std::time::{Duration, Instant};
    let mut s = Solver::new();
    php(&mut s, 9);
    s.set_deadline(Some(Instant::now() - Duration::from_millis(1)));
    assert_eq!(s.solve(), SolveResult::Unknown);
    assert!(s.interrupted());
    s.set_deadline(None);
    assert_eq!(s.solve(), SolveResult::Unsat);
    assert!(!s.interrupted());
}

#[test]
fn budget_unknown_is_not_reported_as_interrupted() {
    let mut s = Solver::new();
    php(&mut s, 7);
    s.set_conflict_budget(Some(1));
    assert_eq!(s.solve(), SolveResult::Unknown);
    assert!(!s.interrupted());
}
