//! The CDCL solver battery: brute force as the ground truth.
//!
//! All checks are deterministic:
//!
//! 1. **unit truthfulness** — unit clauses must surface verbatim through
//!    [`cdcl::Solver::value`] (variable 0 included, which is exactly where
//!    the [`SolverFault::MisreportValue`] mutant lies).
//! 2. **binary-only UNSAT** — the four binary clauses
//!    `(a∨b)(¬a∨b)(a∨¬b)(¬a∨¬b)` are unsatisfiable purely through the
//!    dedicated binary watch lists; a solver that stops visiting them
//!    happily reports SAT. The same formula is re-run under the
//!    everything-on inprocessing config, where an unsound
//!    (variable-set-only) subsumption check deletes three of the four
//!    clauses and flips the verdict.
//! 3. **crafted inprocessing formulas** — one per pass, each asserting both
//!    the verdict/model *and* the pass counter, so the random bank below is
//!    guaranteed to run with the passes actually firing: subsumption +
//!    self-subsuming strengthening (3a), bounded variable elimination with
//!    model reconstruction and restore-on-demand (3b), vivification
//!    shortening an implied clause (3c), vivification *not* shortening a
//!    clause the probe proved nothing about (3d), and the known-UNSAT
//!    pigeonhole formula PHP(8,7), whose few thousand conflicts make
//!    EMA-forced restarts fire deterministically (3e).
//! 4. **random CNFs vs exhaustive enumeration** — three sub-banks, each
//!    instance solved under two configs: a mixed-width bank near the
//!    satisfiability threshold, a hard pure 3-CNF bank (n = 14, m = 60)
//!    whose long conflict analyses flush out unsound learnt-clause
//!    handling, and a sparse wide-variable bank (n = 16, widths 1–3) where
//!    variable elimination fires heavily. The second config is the
//!    everything-on inprocessing one (simplification round before every
//!    solve, EMA restarts) — except on the hard bank, where inprocessing
//!    would collapse the instances before any search happens and the
//!    restart config (inprocessing off, EMA restarts re-evaluated every
//!    other conflict) runs instead. Sparse instances additionally take an
//!    incremental step — an extra random clause plus an assumption,
//!    checked against brute force on the extended formula — which usually
//!    mentions variables the first solve eliminated (restore-on-demand).
//!
//! The battery takes the fault selector so the mutation harness can run
//! the identical checks against a faulty solver.

use std::ops::{Deref, DerefMut};

use cdcl::{SolveResult, Solver, SolverConfig, SolverSabotage};
use netlist::rng::SplitMix64;

/// One clause as (variable index, polarity) pairs; `true` = positive.
type Clause = Vec<(usize, bool)>;

/// A solver mutant: a fault planted inside the solver through its
/// test-only hook, or one planted in the battery's own reads of the
/// model, which needs no hook in production code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolverFault {
    /// A fault inside the solver ([`Solver::set_sabotage`]).
    Sabotage(SolverSabotage),
    /// Every model value the battery reads for variable 0 is complemented,
    /// as a solver that misreports its model would answer.
    MisreportValue,
}

/// A solver as the battery sees it: every model read goes through
/// [`BatterySolver::value`], where the `MisreportValue` fault lies.
struct BatterySolver {
    solver: Solver,
    misreport: bool,
}

impl BatterySolver {
    fn new(config: SolverConfig, fault: Option<SolverFault>) -> Self {
        let mut solver = Solver::with_config(config);
        if let Some(SolverFault::Sabotage(sabotage)) = fault {
            solver.set_sabotage(Some(sabotage));
        }
        BatterySolver {
            solver,
            misreport: fault == Some(SolverFault::MisreportValue),
        }
    }

    /// [`Solver::value`], complemented for variable 0 under the
    /// `MisreportValue` fault.
    fn value(&self, v: cdcl::Var) -> Option<bool> {
        let flip = self.misreport && v.index() == 0;
        self.solver.value(v).map(|b| b != flip)
    }
}

impl Deref for BatterySolver {
    type Target = Solver;

    fn deref(&self) -> &Solver {
        &self.solver
    }
}

impl DerefMut for BatterySolver {
    fn deref_mut(&mut self) -> &mut Solver {
        &mut self.solver
    }
}

fn fresh_solver(fault: Option<SolverFault>) -> BatterySolver {
    BatterySolver::new(SolverConfig::default(), fault)
}

/// Everything-on inprocessing: a simplification round before every solve,
/// EMA restarts re-evaluated every other conflict. Small instances would
/// never trigger any of it under the defaults.
fn aggressive_solver(fault: Option<SolverFault>) -> BatterySolver {
    let config = SolverConfig {
        restart_min_interval: 2,
        reduce_base: 2,
        reduce_increment: 2,
        inprocess_trigger: 1,
        inprocess_min_clauses: 0,
    };
    BatterySolver::new(config, fault)
}

/// The aggressive config *minus* inprocessing. A simplification round
/// collapses the small bank instances before any search happens (zero
/// conflicts), so EMA restarts and DB reductions need a config that leaves
/// the formulas intact.
fn restart_solver(fault: Option<SolverFault>) -> BatterySolver {
    let config = SolverConfig {
        restart_min_interval: 2,
        reduce_base: 2,
        reduce_increment: 2,
        inprocess_trigger: 0,
        ..SolverConfig::default()
    };
    BatterySolver::new(config, fault)
}

/// Deterministic random CNF: `m` clauses of exactly 3 distinct literals
/// over `n` variables.
fn gen_cnf(rng: &mut SplitMix64, n: usize, m: usize) -> Vec<Clause> {
    gen_cnf_width(rng, n, m, |_| 3)
}

/// Deterministic mixed-width CNF: `m` clauses of 2–4 distinct literals
/// over `n` variables.
fn gen_cnf_mixed(rng: &mut SplitMix64, n: usize, m: usize) -> Vec<Clause> {
    gen_cnf_width(rng, n, m, |rng| 2 + rng.below_usize(3))
}

fn gen_cnf_width(
    rng: &mut SplitMix64,
    n: usize,
    m: usize,
    mut width: impl FnMut(&mut SplitMix64) -> usize,
) -> Vec<Clause> {
    let mut clauses = Vec::with_capacity(m);
    for _ in 0..m {
        let w = width(rng);
        let mut vars: Vec<usize> = Vec::with_capacity(w);
        while vars.len() < w.min(n) {
            let v = rng.below_usize(n);
            if !vars.contains(&v) {
                vars.push(v);
            }
        }
        clauses.push(vars.into_iter().map(|v| (v, rng.bool())).collect());
    }
    clauses
}

/// Exhaustive satisfiability check for `n <= 20` variables. Returns a
/// witness assignment (bit `i` = variable `i`) or `None`.
fn brute_force(n: usize, clauses: &[Clause]) -> Option<u64> {
    assert!(n <= 20, "brute force is exponential; keep instances small");
    'outer: for assignment in 0u64..(1 << n) {
        for clause in clauses {
            if !clause
                .iter()
                .any(|&(v, pos)| ((assignment >> v) & 1 == 1) == pos)
            {
                continue 'outer;
            }
        }
        return Some(assignment);
    }
    None
}

fn model_satisfies(solver: &BatterySolver, vars: &[cdcl::Var], clauses: &[Clause]) -> bool {
    clauses.iter().all(|clause| {
        clause
            .iter()
            .any(|&(v, pos)| solver.value(vars[v]).unwrap_or(false) == pos)
    })
}

/// The model must satisfy every *original* clause — including clauses whose
/// variables the inprocessing layer eliminated and reconstructed.
fn check_model(s: &BatterySolver, clauses: &[Vec<cdcl::Lit>], what: &str) -> Result<(), String> {
    for c in clauses {
        if !c.iter().any(|&l| s.value(l.var()) == Some(l.is_positive())) {
            return Err(format!("{what}: model violates original clause {c:?}"));
        }
    }
    Ok(())
}

/// Runs the full solver battery. `instances` scales the random-CNF bank.
///
/// `Ok(())` means every check passed; `Err` carries the first
/// inconsistency (in mutation mode, the kill message).
pub fn solver_battery(fault: Option<SolverFault>, instances: usize) -> Result<(), String> {
    // 1. Unit truthfulness.
    let mut s = fresh_solver(fault);
    let a = s.new_var();
    let b = s.new_var();
    s.add_clause(&[a.positive()]);
    s.add_clause(&[b.negative()]);
    if s.solve() != SolveResult::Sat {
        return Err("unit check: two unit clauses reported unsatisfiable".into());
    }
    if s.value(a) != Some(true) || s.value(b) != Some(false) {
        return Err(format!(
            "unit check: value() misreports units: a={:?} b={:?}",
            s.value(a),
            s.value(b)
        ));
    }

    // 2. Binary-only UNSAT, under the default config (binary watch lists)
    //    and under the everything-on config (the subsumption pass sees four
    //    same-variable-set clauses; only a *literal*-subset check may
    //    delete or strengthen — an unsound variable-set check deletes three
    //    of the four and flips the verdict to SAT).
    for aggressive in [false, true] {
        let mut s = if aggressive {
            aggressive_solver(fault)
        } else {
            fresh_solver(fault)
        };
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[a.positive(), b.positive()]);
        s.add_clause(&[a.negative(), b.positive()]);
        s.add_clause(&[a.positive(), b.negative()]);
        let still_ok = s.add_clause(&[a.negative(), b.negative()]);
        if still_ok && s.solve() != SolveResult::Unsat {
            return Err(format!(
                "binary check (aggressive={aggressive}): the complete 2-CNF over {{a,b}} \
                 must be UNSAT"
            ));
        }
    }

    // 3a. Subsumption + self-subsuming strengthening. With a, b, c frozen
    //     (so elimination cannot eat the clauses first), (a∨b) subsumes
    //     (a∨b∨c) and strengthens (¬a∨b∨c) to (b∨c). Both counters must
    //     move, and the model must satisfy the *original* clauses.
    let mut s = aggressive_solver(fault);
    let a = s.new_var();
    let b = s.new_var();
    let c = s.new_var();
    for v in [a, b, c] {
        s.set_frozen(v, true);
    }
    let craft = [
        vec![a.positive(), b.positive()],
        vec![a.positive(), b.positive(), c.positive()],
        vec![a.negative(), b.positive(), c.positive()],
    ];
    for cl in &craft {
        s.add_clause(cl);
    }
    if s.solve() != SolveResult::Sat {
        return Err("subsumption check: satisfiable crafted formula reported UNSAT".into());
    }
    check_model(&s, &craft, "subsumption check")?;
    if s.stats().subsumed_clauses == 0 || s.stats().strengthened_clauses == 0 {
        return Err(format!(
            "subsumption check: pass never fired (subsumed={}, strengthened={})",
            s.stats().subsumed_clauses,
            s.stats().strengthened_clauses
        ));
    }

    // 3b. Bounded variable elimination + model reconstruction + restore.
    //     With a and b frozen, only x is eliminable in (a∨x)(¬x∨b); the
    //     single resolvent (a∨b) must be kept — dropping it lets the
    //     search pick a=b=false, and reconstruction then sets x=true,
    //     violating (¬x∨b). A later clause mentioning x plus an assumed
    //     literal exercises restore-on-demand across an incremental call.
    let mut s = aggressive_solver(fault);
    let a = s.new_var();
    let x = s.new_var();
    let b = s.new_var();
    s.set_frozen(a, true);
    s.set_frozen(b, true);
    let craft = [
        vec![a.positive(), x.positive()],
        vec![x.negative(), b.positive()],
    ];
    for cl in &craft {
        s.add_clause(cl);
    }
    if s.solve() != SolveResult::Sat {
        return Err("bve check: satisfiable crafted formula reported UNSAT".into());
    }
    check_model(&s, &craft, "bve check")?;
    if s.stats().eliminated_vars == 0 {
        return Err("bve check: elimination never fired on (a∨x)(¬x∨b)".into());
    }
    let c = s.new_var();
    let extended = [
        craft[0].clone(),
        craft[1].clone(),
        vec![x.positive(), c.positive()],
    ];
    s.add_clause(&extended[2]);
    if s.solve_with(&[c.negative()]) != SolveResult::Sat {
        return Err("bve check: restore-on-demand incremental solve reported UNSAT".into());
    }
    if s.value(c) != Some(false) {
        return Err("bve check: assumption ¬c not honored after restore".into());
    }
    check_model(&s, &extended, "bve restore check")?;
    if s.stats().restored_vars == 0 {
        return Err("bve check: restore-on-demand never fired".into());
    }

    // 3c. Vivification. With a, c, d frozen, b is eliminated to the
    //     resolvent (a∨c); probing (a∨c∨d) then assumes ¬a, propagates c
    //     to true through (a∨c), and drops d from the clause.
    let mut s = aggressive_solver(fault);
    let a = s.new_var();
    let b = s.new_var();
    let c = s.new_var();
    let d = s.new_var();
    for v in [a, c, d] {
        s.set_frozen(v, true);
    }
    let craft = [
        vec![a.positive(), b.positive()],
        vec![b.negative(), c.positive()],
        vec![a.positive(), c.positive(), d.positive()],
    ];
    for cl in &craft {
        s.add_clause(cl);
    }
    if s.solve() != SolveResult::Sat {
        return Err("vivification check: satisfiable crafted formula reported UNSAT".into());
    }
    check_model(&s, &craft, "vivification check")?;
    if s.stats().vivified_literals == 0 {
        return Err("vivification check: pass never shortened (a∨c∨d)".into());
    }

    // 3d. Vivification soundness: (a∨b∨c) alone proves nothing under any
    //     probe, so the clause must survive intact. Solving under ¬a ∧ ¬b
    //     is SAT only through the literal a buggy pass would drop.
    let mut s = aggressive_solver(fault);
    let a = s.new_var();
    let b = s.new_var();
    let c = s.new_var();
    for v in [a, b, c] {
        s.set_frozen(v, true);
    }
    s.add_clause(&[a.positive(), b.positive(), c.positive()]);
    if s.solve_with(&[a.negative(), b.negative()]) != SolveResult::Sat {
        return Err("vivification soundness check: (a∨b∨c) under ¬a∧¬b must be SAT".into());
    }
    if s.value(c) != Some(true) {
        return Err("vivification soundness check: c must be forced true".into());
    }

    // 3e. EMA restarts: the pigeonhole formula PHP(8,7) is known-UNSAT and
    //     needs a few thousand conflicts, during which fast/slow LBD
    //     crossovers fire deterministically. The conflict budget bounds a
    //     sabotaged solver that would otherwise wander forever.
    let mut s = restart_solver(fault);
    let (pigeons, holes) = (8usize, 7usize);
    let pv: Vec<Vec<cdcl::Var>> = (0..pigeons)
        .map(|_| (0..holes).map(|_| s.new_var()).collect())
        .collect();
    for row in &pv {
        let lits: Vec<cdcl::Lit> = row.iter().map(|v| v.positive()).collect();
        s.add_clause(&lits);
    }
    for i in 0..pigeons {
        for k in i + 1..pigeons {
            for (vi, vk) in pv[i].iter().zip(&pv[k]) {
                s.add_clause(&[vi.negative(), vk.negative()]);
            }
        }
    }
    s.set_conflict_budget(Some(100_000));
    let verdict = s.solve();
    s.set_conflict_budget(None);
    if verdict != SolveResult::Unsat {
        return Err(format!(
            "pigeonhole check: PHP({pigeons},{holes}) must be UNSAT, solver says {verdict:?}"
        ));
    }
    if s.stats().restarts_forced == 0 {
        return Err("pigeonhole check: EMA restarts never forced".into());
    }

    // 4. Random CNFs vs brute force. Three sub-banks share the check loop
    //    (mixed-width near-threshold, hard pure 3-CNF, sparse wide-variable)
    //    and every instance runs under both the default and the
    //    everything-on inprocessing configs. Near-threshold instances have
    //    few models and force long conflict analyses — where unsound learnt
    //    strengthening flips verdicts — while sparse instances make
    //    elimination fire on real formulas.
    let mut mixed_rng = SplitMix64::new(0xCDC1_C0DE);
    let mut hard_rng = SplitMix64::new(0x3C4F_5A7D);
    let mut sparse_rng = SplitMix64::new(0x5BA4_5E17);
    let mut sat_seen = 0usize;
    let mut unsat_seen = 0usize;
    // Aggregated everything-on-config counters: asserted non-zero below so
    // the bank provably exercises the inprocessing passes on real random
    // formulas (not just the crafted ones above).
    let mut agg_inprocessings = 0u64;
    let mut agg_eliminated = 0u64;
    for inst in 0..3 * instances {
        let bank = inst / instances;
        let (n, clauses) = match bank {
            0 => {
                let rng = &mut mixed_rng;
                let n = 6 + rng.below_usize(5);
                // ~4.1 clauses per variable lands near the threshold for
                // this mixed-width distribution: both verdicts occur in
                // every bank.
                let m = n * 4 + rng.below_usize(n);
                (n, gen_cnf_mixed(rng, n, m))
            }
            1 => {
                // Pure 3-CNF at the satisfiability threshold.
                let n = 14;
                (n, gen_cnf(&mut hard_rng, n, 60))
            }
            _ => {
                // Sparse and wide-variabled: many pure / low-occurrence
                // variables, so subsumption and elimination fire heavily.
                let rng = &mut sparse_rng;
                let n = 16;
                let m = 10 + rng.below_usize(8);
                (n, gen_cnf_width(rng, n, m, |rng| 1 + rng.below_usize(3)))
            }
        };
        let truth = brute_force(n, &clauses);
        // Sparse instances take an incremental follow-up: one extra random
        // clause plus one assumed literal, checked against brute force on
        // the extended formula. Drawn before solving so the generator
        // stream never depends on solver behavior.
        let follow_up = if bank == 2 {
            let rng = &mut sparse_rng;
            let extra = gen_cnf_width(rng, n, 1, |rng| 1 + rng.below_usize(3))
                .pop()
                .expect("one clause requested");
            let assume = (rng.below_usize(n), rng.bool());
            let mut extended = clauses.clone();
            extended.push(extra.clone());
            let mut assumed = extended.clone();
            assumed.push(vec![assume]);
            let truth2 = brute_force(n, &assumed);
            Some((extra, assume, extended, truth2))
        } else {
            None
        };

        for aggressive in [false, true] {
            // The hard bank's second run gets the restart config instead:
            // under full inprocessing these instances collapse before any
            // search happens, leaving restarts and DB reductions untested.
            let mut s = match (aggressive, bank) {
                (false, _) => fresh_solver(fault),
                (true, 1) => restart_solver(fault),
                (true, _) => aggressive_solver(fault),
            };
            let vars: Vec<cdcl::Var> = (0..n).map(|_| s.new_var()).collect();
            let mut consistent = true;
            for clause in &clauses {
                let lits: Vec<cdcl::Lit> =
                    clause.iter().map(|&(v, pos)| vars[v].lit(pos)).collect();
                consistent &= s.add_clause(&lits);
            }
            let verdict = if consistent { s.solve() } else { SolveResult::Unsat };
            match (truth, verdict) {
                (Some(_), SolveResult::Sat) => {
                    if !aggressive {
                        sat_seen += 1;
                    }
                    if !model_satisfies(&s, &vars, &clauses) {
                        return Err(format!(
                            "cnf bank instance {inst} (n={n}, m={}, aggressive={aggressive}): \
                             SAT model violates the formula",
                            clauses.len()
                        ));
                    }
                }
                (None, SolveResult::Unsat) => {
                    if !aggressive {
                        unsat_seen += 1;
                    }
                }
                (t, v) => {
                    return Err(format!(
                        "cnf bank instance {inst} (n={n}, m={}, aggressive={aggressive}): \
                         solver says {v:?}, brute force says {}",
                        clauses.len(),
                        if t.is_some() { "SAT" } else { "UNSAT" }
                    ));
                }
            }
            if let Some((extra, assume, extended, truth2)) = &follow_up {
                let lits: Vec<cdcl::Lit> =
                    extra.iter().map(|&(v, pos)| vars[v].lit(pos)).collect();
                consistent &= s.add_clause(&lits);
                let alit = vars[assume.0].lit(assume.1);
                let verdict2 = if consistent {
                    s.solve_with(&[alit])
                } else {
                    SolveResult::Unsat
                };
                match (truth2, verdict2) {
                    (Some(_), SolveResult::Sat) => {
                        if !model_satisfies(&s, &vars, extended)
                            || s.value(alit.var()) != Some(assume.1)
                        {
                            return Err(format!(
                                "cnf bank instance {inst} incremental step \
                                 (aggressive={aggressive}): SAT model violates the \
                                 extended formula or the assumption"
                            ));
                        }
                    }
                    (None, SolveResult::Unsat) => {}
                    (t, v) => {
                        return Err(format!(
                            "cnf bank instance {inst} incremental step \
                             (aggressive={aggressive}): solver says {v:?}, brute force \
                             says {}",
                            if t.is_some() { "SAT" } else { "UNSAT" }
                        ));
                    }
                }
            }
            if aggressive {
                let st = s.stats();
                agg_inprocessings += st.inprocessings;
                agg_eliminated += st.eliminated_vars;
            }
        }
    }
    // The bank must exercise both verdicts, or the comparison is vacuous.
    if instances >= 16 && (sat_seen == 0 || unsat_seen == 0) {
        return Err(format!(
            "cnf bank degenerate: {sat_seen} SAT / {unsat_seen} UNSAT of {instances}"
        ));
    }
    // Likewise the everything-on runs must actually have inprocessed and
    // eliminated variables somewhere in the bank.
    if instances >= 16 && (agg_inprocessings == 0 || agg_eliminated == 0) {
        return Err(format!(
            "inprocessing bank vacuous: inprocessings={agg_inprocessings} \
             eliminated={agg_eliminated}"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_solver_passes_battery() {
        solver_battery(None, 32).expect("unsabotaged solver conforms");
    }

    #[test]
    fn every_solver_sabotage_is_detected() {
        for fault in [
            SolverFault::Sabotage(SolverSabotage::SkipBinaryWatch),
            SolverFault::Sabotage(SolverSabotage::ShrinkLearntClause),
            SolverFault::MisreportValue,
            SolverFault::Sabotage(SolverSabotage::UnsoundSubsumption),
            SolverFault::Sabotage(SolverSabotage::BveDropResolvent),
            SolverFault::Sabotage(SolverSabotage::VivifyDropLiteral),
        ] {
            let r = std::panic::catch_unwind(|| solver_battery(Some(fault), 48));
            let killed = match &r {
                Ok(Err(_)) | Err(_) => true,
                Ok(Ok(())) => false,
            };
            assert!(killed, "solver fault {fault:?} survived the battery");
        }
    }
}
