//! The Section III threat scenarios (a)–(e) as an asserting integration
//! test: each Trojan succeeds against the baseline strawman and is defeated
//! (priced out, detected, or functionally broken) by the hardened design
//! guidelines and the modified scheme.

use orap::chip::{OracleMode, ProtectedChip, ProtectedChipOracle};
use orap::threat::{
    arm, extract_key_via_scan, one_shot_query_with_frozen_ffs, payload_cost, DesignPosture,
    SideChannelModel, ThreatScenario,
};
use orap::{protect, OrapConfig, OrapProtected, OrapVariant};

fn protect_counter(variant: OrapVariant) -> OrapProtected {
    let design = netlist::samples::counter(16);
    let wll = locking::weighted::WllConfig {
        key_bits: 24,
        control_width: 3,
        seed: 11,
    };
    protect(
        &design,
        &wll,
        &OrapConfig {
            variant,
            ..OrapConfig::default()
        },
    )
    .expect("protect")
}

/// Every scenario is at least as expensive against the hardened guidelines
/// as against the baseline strawman, and the pure-payload scenarios whose
/// countermeasure is detection — (b), (c), (d) — land above the
/// side-channel detection threshold.
#[test]
fn hardening_prices_every_scenario_at_or_above_baseline() {
    let basic = protect_counter(OrapVariant::Basic);
    let detector = SideChannelModel::default();
    for scenario in ThreatScenario::ALL {
        let base = payload_cost(&basic, scenario, DesignPosture::Baseline);
        let hard = payload_cost(&basic, scenario, DesignPosture::Hardened);
        assert!(
            hard >= base,
            "{}: hardened payload {hard} GE below baseline {base} GE",
            scenario.label()
        );
    }
    for scenario in [
        ThreatScenario::HoldLfsrAndBypass,
        ThreatScenario::ShadowRegister,
        ThreatScenario::XorTrees,
    ] {
        let hard = payload_cost(&basic, scenario, DesignPosture::Hardened);
        assert!(
            detector.detects(hard),
            "{}: {hard} GE payload must cross the detection threshold",
            scenario.label()
        );
    }
    // The structural scenarios get strictly pricier under the guidelines
    // (per-cell pulse generators for (a); interleaved cells need a bypass
    // mux each for (b)).
    for scenario in [
        ThreatScenario::SuppressPerCellReset,
        ThreatScenario::HoldLfsrAndBypass,
    ] {
        assert!(
            payload_cost(&basic, scenario, DesignPosture::Hardened)
                > payload_cost(&basic, scenario, DesignPosture::Baseline),
            "{}: hardening must raise the payload cost",
            scenario.label()
        );
    }
}

/// Scenario (a): an honest chip's scan-out never carries the key (the
/// per-cell resets clear it on the scan-enable edge); with the resets
/// suppressed, the exact key shifts out on the scan pins.
#[test]
fn scenario_a_reset_suppression_leaks_key_honest_chip_does_not() {
    let basic = protect_counter(OrapVariant::Basic);

    let mut honest = ProtectedChip::new(&basic).expect("chip");
    let leaked = extract_key_via_scan(&mut honest);
    assert_ne!(
        leaked, basic.locked.correct_key,
        "honest chip must not leak the key on scan-out"
    );
    assert!(
        leaked.iter().all(|&b| !b),
        "cleared key register scans out all zeros"
    );

    let mut trojaned = ProtectedChip::new(&basic).expect("chip");
    arm(&mut trojaned, ThreatScenario::SuppressPerCellReset);
    let leaked = extract_key_via_scan(&mut trojaned);
    assert_eq!(
        leaked, basic.locked.correct_key,
        "suppressed per-cell resets let the key ride out on the scan pins"
    );
}

/// Scenarios (b) and (c): holding the LFSR through scan (with bypass
/// muxes) or muxing in a shadow key register resurrects the oracle — scan
/// responses become correct-function responses again.
#[test]
fn scenarios_b_and_c_resurrect_the_oracle() {
    let basic = protect_counter(OrapVariant::Basic);
    // Oracle queries cover the original design's PIs then its state image
    // (the counter has one primary input and sixteen flip-flops).
    let n = 1 + 16;
    for scenario in [
        ThreatScenario::HoldLfsrAndBypass,
        ThreatScenario::ShadowRegister,
    ] {
        let mut chip = ProtectedChip::new(&basic).expect("chip");
        arm(&mut chip, scenario);
        let mut oracle = ProtectedChipOracle::new(chip, OracleMode::Naive);
        let mut rng = netlist::rng::SplitMix64::new(13);
        for _ in 0..16 {
            let input: Vec<bool> = (0..n).map(|_| rng.bool()).collect();
            assert!(
                oracle.response_is_correct(&input).expect("simulable"),
                "{}: armed chip must answer with correct-function responses",
                scenario.label()
            );
        }
    }
}

/// Scenario (e): the frozen-flip-flop one-shot query captures a correct
/// response against the Basic scheme but garbage against the Modified
/// scheme, whose unlock process needs the live responses the Trojan froze.
#[test]
fn scenario_e_one_shot_query_defeated_by_modified_scheme() {
    let design = netlist::samples::counter(16);
    let state: Vec<bool> = (0..16).map(|i| i % 3 == 0).collect();
    let mut reference = gatesim::SeqSim::new(&design).expect("seq sim");
    reference.set_state(&state);
    reference.step(&[true]);

    let basic = protect_counter(OrapVariant::Basic);
    let mut chip_basic = ProtectedChip::new(&basic).expect("chip");
    arm(&mut chip_basic, ThreatScenario::FreezeStateFfs);
    let (_, captured) = one_shot_query_with_frozen_ffs(&mut chip_basic, &state, &[true]);
    assert_eq!(
        captured,
        reference.state(),
        "Basic scheme: the one-shot query captures the true next state"
    );

    let modified = protect_counter(OrapVariant::Modified);
    let mut chip_mod = ProtectedChip::new(&modified).expect("chip");
    arm(&mut chip_mod, ThreatScenario::FreezeStateFfs);
    let (_, captured) = one_shot_query_with_frozen_ffs(&mut chip_mod, &state, &[true]);
    assert_ne!(
        captured,
        reference.state(),
        "Modified scheme: freezing the flip-flops corrupts the key itself"
    );

    // And the unlock process itself fails under the Trojan.
    let mut chip_mod = ProtectedChip::new(&modified).expect("chip");
    arm(&mut chip_mod, ThreatScenario::FreezeStateFfs);
    chip_mod.power_on_and_unlock();
    assert!(
        !chip_mod.key_register_holds_correct_key(),
        "Modified scheme must fail to unlock with frozen state flip-flops"
    );
}

/// The scan-era schemes under the paper's lens. Dynamically keyed scan
/// chains obfuscate the *netlist view* of the scan interface but leave the
/// oracle answering — so DynUnlock recovers the LFSR seed through bounded
/// scan sessions; killing the oracle (the OraP posture) defeats the same
/// attack on the same netlist.
#[test]
fn dynamic_scan_obfuscation_falls_to_dyn_unlock_unless_the_oracle_dies() {
    use attacks::dyn_unlock::{DynUnlockEngine, ScanSessionOracle};
    use attacks::engine::{run, AttackCtl};
    use locking::scan_obfuscation::{self, ScanObfConfig, UnrollOptions};

    let design = netlist::samples::counter(8);
    let locked = scan_obfuscation::lock(&design, &ScanObfConfig::balanced(8, 3))
        .expect("lockable");
    let unrolled = locked.unroll(&UnrollOptions::default()).expect("acyclic");
    let engine = DynUnlockEngine::default();

    // Open scan interface: the chip answers every bounded session, and the
    // seed falls out of the SAT loop.
    let mut open = ScanSessionOracle::new(&locked, &unrolled).expect("chip oracle");
    let out = run(&engine, &unrolled.locked, &mut open, &mut AttackCtl::new());
    let key = out.key.expect("open scan oracle must surrender the seed");
    assert!(
        attacks::verify::key_exact_counterexample(&unrolled.locked, &key).is_none(),
        "recovered seed must be session-exact"
    );

    // Protected oracle: the identical attack on the identical netlist dies
    // at the first refused query.
    let mut dead = attacks::DeadOracle::new(
        unrolled.load_cycles * unrolled.num_chains + design.primary_inputs().len(),
        unrolled.locked.circuit.primary_outputs().len(),
    );
    let out = run(&engine, &unrolled.locked, &mut dead, &mut AttackCtl::new());
    assert_eq!(out.key, None);
    assert_eq!(out.failure, Some(attacks::FailureReason::OracleUnavailable));
}

/// K-Gate multi-key encoding likewise protects only the netlist: with an
/// open oracle the plain SAT attack recovers a key that decodes every
/// class exactly, while the dead oracle starves it.
#[test]
fn kgate_falls_to_sat_with_an_open_oracle_and_starves_without_one() {
    use attacks::engine::{run, AttackCtl};
    use attacks::sat::SatEngine;
    use locking::kgate::{self, KGateConfig};

    let design = netlist::samples::ripple_adder(4);
    let locked = kgate::lock(&design, &KGateConfig { classes: 4, word_bits: 3, seed: 7 })
        .expect("lockable");

    let mut open = attacks::CombOracle::from_locked(&locked).expect("valid lock");
    let out = run(&SatEngine::default(), &locked, &mut open, &mut AttackCtl::new());
    let key = out.key.expect("open oracle must surrender a key");
    assert!(
        attacks::verify::key_exact_counterexample(&locked, &key).is_none(),
        "recovered key must decode every class exactly"
    );

    let mut dead = attacks::DeadOracle::new(
        design.primary_inputs().len(),
        design.primary_outputs().len(),
    );
    let out = run(&SatEngine::default(), &locked, &mut dead, &mut AttackCtl::new());
    assert_eq!(out.key, None);
    assert_eq!(out.failure, Some(attacks::FailureReason::OracleUnavailable));
}
