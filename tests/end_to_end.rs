//! Cross-crate integration tests: the full designer → fab → attacker story.

use attacks::engine::{run, AttackCtl};
use attacks::hill_climbing::HillClimbEngine;
use attacks::sat::SatEngine;
use attacks::sensitization::SensitizationEngine;
use attacks::{CombOracle, FailureReason, Oracle};
use gatesim::equiv;
use locking::weighted::WllConfig;
use netlist::generate::{self, BenchmarkId};
use orap::chip::{OracleMode, ProtectedChip, ProtectedChipOracle};
use orap::{protect, OrapConfig, OrapVariant};

fn wll(bits: usize) -> WllConfig {
    WllConfig {
        key_bits: bits,
        control_width: 3,
        seed: 77,
    }
}

/// Designer flow on a benchmark-profile circuit: protect, fabricate,
/// unlock, and verify the chip computes the original function.
#[test]
fn protect_unlock_and_verify_functionality() {
    let profile = generate::profile(BenchmarkId::S38417).scaled(0.01);
    let design = generate::synthesize(&profile).expect("profile valid");
    let protected = protect(&design, &wll(16), &OrapConfig::default()).expect("protect");

    // The locked netlist under the correct key is the original function.
    assert!(protected
        .locked
        .verify_against(&design, 2048)
        .expect("simulable"));

    // The chip model unlocks to the correct key and runs correctly.
    let mut chip = ProtectedChip::new(&protected).expect("chip");
    chip.power_on_and_unlock();
    assert!(chip.key_register_holds_correct_key());

    let mut reference = gatesim::SeqSim::new(&design).expect("seq sim");
    chip.set_state_ffs(&vec![false; design.dffs().len()]);
    let mut rng = netlist::rng::SplitMix64::new(5);
    for _ in 0..32 {
        let pis: Vec<bool> = (0..design.primary_inputs().len())
            .map(|_| rng.bool())
            .collect();
        let out = chip.clock(&pis, &vec![false; chip.num_scan_chains()]);
        let want = reference.step(&pis);
        assert_eq!(out.outputs, want);
    }
}

/// The paper's core claim, full stack: every oracle-guided attack that
/// breaks WLL through an open scan interface dies against the OraP chip.
#[test]
fn attack_matrix_open_vs_orap() {
    let design = netlist::samples::counter(12);
    let protected = protect(&design, &wll(12), &OrapConfig::default()).expect("protect");
    let locked = &protected.locked;

    // Open oracle: SAT attack succeeds. The sampled check is a cheap
    // pre-filter; the SAT miter then proves exact equivalence on every
    // input, which the SAT attack guarantees on termination.
    let sat = SatEngine::default();
    let mut open = CombOracle::from_locked(locked).expect("oracle");
    let out = run(&sat, locked, &mut open, &mut AttackCtl::new());
    let key = out.key.expect("open scan falls to the SAT attack");
    assert!(attacks::key_is_functionally_correct(locked, &key, 2048).expect("simulable"));
    assert_eq!(
        attacks::verify::key_exact_counterexample(locked, &key),
        None,
        "SAT attack terminated, so the recovered key must be exactly correct"
    );

    // OraP chip, strict adapter: attack fails at the first query.
    let chip = ProtectedChip::new(&protected).expect("chip");
    let mut strict = ProtectedChipOracle::new(chip.clone(), OracleMode::Strict);
    let out = run(&sat, locked, &mut strict, &mut AttackCtl::new());
    assert_eq!(out.failure, Some(FailureReason::OracleUnavailable));

    // OraP chip, naive adapter: whatever key comes out is functionally
    // wrong (the scan responses were locked-circuit outputs). The exact
    // miter must produce a concrete distinguishing input, and the sampled
    // pre-filter must agree with the exact verdict.
    let mut naive = ProtectedChipOracle::new(chip, OracleMode::Naive);
    let out = run(&sat, locked, &mut naive, &mut AttackCtl::new());
    if let Some(key) = out.key {
        assert!(
            !attacks::key_is_functionally_correct(locked, &key, 2048).expect("simulable"),
            "a key learned from locked responses must not unlock the chip"
        );
        assert!(
            !attacks::verify::key_is_exactly_correct(locked, &key),
            "the exact miter must also reject a key learned from locked responses"
        );
    }
}

/// Hill climbing and sensitization against the OraP chip (strict): denied.
#[test]
fn secondary_attacks_denied_by_orap() {
    let design = netlist::samples::counter(10);
    let protected = protect(&design, &wll(9), &OrapConfig::default()).expect("protect");
    let chip = ProtectedChip::new(&protected).expect("chip");

    let mut oracle = ProtectedChipOracle::new(chip.clone(), OracleMode::Strict);
    let hc = run(
        &HillClimbEngine::default(),
        &protected.locked,
        &mut oracle,
        &mut AttackCtl::new(),
    );
    assert_eq!(hc.failure, Some(FailureReason::OracleUnavailable));

    let mut oracle = ProtectedChipOracle::new(chip, OracleMode::Strict);
    let sens = run(
        &SensitizationEngine::default(),
        &protected.locked,
        &mut oracle,
        &mut AttackCtl::new(),
    );
    assert_eq!(sens.failure, Some(FailureReason::OracleUnavailable));
}

/// The locked netlist round-trips through the `.bench` format with its
/// function intact (interop with external EDA flows).
#[test]
fn locked_netlist_bench_roundtrip() {
    let design = generate::random_comb(3, 10, 6, 200).expect("generate");
    let locked = locking::weighted::lock(&design, &wll(9)).expect("lock");
    let text = netlist::bench::write(&locked.circuit);
    let parsed = netlist::bench::parse(&text).expect("parse back");
    assert_eq!(
        equiv::check_random(&locked.circuit, &parsed, 2048, 9).expect("simulable"),
        None,
        "bench round-trip must preserve the locked function"
    );
}

/// The synthesis pipeline (used for Table I overheads) preserves the locked
/// circuit's function.
#[test]
fn synthesis_preserves_locked_function() {
    let design = generate::random_comb(4, 10, 6, 200).expect("generate");
    let locked = locking::weighted::lock(&design, &wll(9)).expect("lock");
    let aig = aigsynth::Aig::from_circuit(&locked.circuit).expect("encode");
    let opt = aigsynth::optimize_aig(&aig);
    let back = opt.to_circuit("optimized");
    assert_eq!(
        equiv::check_random(&locked.circuit, &back, 2048, 11).expect("simulable"),
        None
    );
    assert!(opt.num_ands() <= aig.num_ands());
}

/// The modified scheme ties unlocking to live responses on a realistic
/// benchmark profile.
#[test]
fn modified_scheme_end_to_end() {
    let profile = generate::profile(BenchmarkId::B20).scaled(0.015);
    let design = generate::synthesize(&profile).expect("profile valid");
    let protected = protect(
        &design,
        &wll(12),
        &OrapConfig {
            variant: OrapVariant::Modified,
            ..OrapConfig::default()
        },
    )
    .expect("protect modified");
    let mut chip = ProtectedChip::new(&protected).expect("chip");
    chip.power_on_and_unlock();
    assert!(chip.key_register_holds_correct_key());

    // Frozen flip-flops (threat e) corrupt the key.
    let mut trojaned = ProtectedChip::new(&protected).expect("chip");
    orap::threat::arm(&mut trojaned, orap::threat::ThreatScenario::FreezeStateFfs);
    trojaned.power_on_and_unlock();
    assert!(!trojaned.key_register_holds_correct_key());
}

/// ATPG works on protected circuits with key inputs as free inputs, and the
/// key gates act as control points (Table II trend: redundant+aborted does
/// not explode; coverage stays in the same band or improves).
#[test]
fn atpg_on_protected_circuit() {
    let design = generate::random_comb(8, 12, 8, 250).expect("generate");
    let cfg = atpg::AtpgConfig {
        random_patterns: 512,
        backtrack_limit: 2000,
        seed: 1,
    };
    let before = atpg::run_atpg(&design, &cfg).expect("atpg original");
    let locked = locking::weighted::lock(&design, &wll(9)).expect("lock");
    let after = atpg::run_atpg(&locked.circuit, &cfg).expect("atpg locked");
    assert!(
        after.coverage_percent() >= before.coverage_percent() - 2.0,
        "coverage degraded: {:.2}% -> {:.2}%",
        before.coverage_percent(),
        after.coverage_percent()
    );
}

/// The whole oracle-denial story measured quantitatively: responses produced
/// through the OraP scan path match the locked circuit, never leaking more
/// than chance agreement with the true function.
#[test]
fn scan_responses_are_locked_circuit_responses() {
    let design = netlist::samples::counter(10);
    let protected = protect(&design, &wll(9), &OrapConfig::default()).expect("protect");
    let chip = ProtectedChip::new(&protected).expect("chip");
    let mut oracle = ProtectedChipOracle::new(chip, OracleMode::Naive);
    let n = oracle.num_inputs();
    let mut rng = netlist::rng::SplitMix64::new(21);
    let mut correct = 0usize;
    let total = 40;
    for _ in 0..total {
        let input: Vec<bool> = (0..n).map(|_| rng.bool()).collect();
        if oracle.response_is_correct(&input).expect("simulable") {
            correct += 1;
        }
    }
    assert!(
        correct < total,
        "every response matching the true function would mean the oracle leaked"
    );
}
