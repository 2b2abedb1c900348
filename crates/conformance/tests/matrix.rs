//! The mutation-kill matrix and the scheme × attack loop battery as
//! `cargo test` gates: every checked-in mutant must die, the clean
//! baseline must pass, and every attack loop must satisfy the exact-verify
//! conformance rules.

use conformance::attack_loop;
use conformance::mutation::{self, Scale};

#[test]
fn mutation_matrix_kills_every_mutant_at_smoke_scale() {
    let report = mutation::run_matrix(Scale::Smoke);
    assert!(
        report.baseline_ok,
        "clean engines failed the battery: {}",
        report.baseline_detail
    );
    assert!(
        report.results.len() >= 23,
        "catalog shrank below the 23-mutant floor: {}",
        report.results.len()
    );
    let survivors = report.survivors();
    assert!(
        survivors.is_empty(),
        "mutants survived the battery: {survivors:?}"
    );
    // Every mutated layer must be represented in the kill set.
    for layer in ["netlist", "sim", "atpg", "sat", "attacks", "locking"] {
        assert!(
            report.results.iter().any(|r| r.layer == layer && r.killed),
            "no killed mutant in layer {layer}"
        );
    }
}

#[test]
fn attack_loops_satisfy_exact_verification_rules() {
    let rows = attack_loop::attack_loop_battery().expect("loop battery conforms");
    assert_eq!(
        rows.len(),
        attack_loop::SCHEMES.len() * attack_loop::ATTACKS.len()
    );
    // The exact attacks must have proven exactness on every scheme.
    for row in &rows {
        if matches!(
            row.attack,
            attack_loop::AttackKind::Sat | attack_loop::AttackKind::DoubleDip
        ) {
            assert_eq!(
                row.exact,
                Some(true),
                "{:?} × {:?} should be exactly correct",
                row.scheme,
                row.attack
            );
        }
    }
}
