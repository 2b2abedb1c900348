//! The tug of war, end to end: the SAT attack (and friends) demolish
//! conventional locking through the scan oracle, SARLock resists at the
//! price of corruptibility — and OraP removes the oracle altogether.
//!
//! Run with: `cargo run --release --example sat_attack_demo`

use attacks::appsat::AppSatEngine;
use attacks::engine::{run, AttackCtl};
use attacks::hill_climbing::HillClimbEngine;
use attacks::sat::{SatAttackConfig, SatEngine};
use attacks::{CombOracle, Oracle};
use locking::weighted::WllConfig;
use orap::chip::{OracleMode, ProtectedChip, ProtectedChipOracle};
use orap::{protect, OrapConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let design = netlist::generate::random_comb(2024, 12, 8, 400)?;
    println!("victim: {} gates, 12 inputs", design.num_gates());

    // --- Act 1: conventional WLL with an unprotected scan oracle. ---------
    let wll = WllConfig {
        key_bits: 12,
        control_width: 3,
        seed: 9,
    };
    let locked = locking::weighted::lock(&design, &wll)?;
    let mut oracle = CombOracle::from_locked(&locked)?;
    let sat = SatEngine::default();
    let out = run(&sat, &locked, &mut oracle, &mut AttackCtl::new());
    match &out.key {
        Some(key) => {
            let ok = attacks::key_is_functionally_correct(&locked, key, 4096)?;
            println!(
                "SAT attack vs WLL + open scan: key recovered in {} DIPs \
                 ({} oracle queries), functionally correct: {ok}",
                out.iterations, out.oracle_queries
            );
        }
        None => println!("SAT attack unexpectedly failed: {:?}", out.failure),
    }

    // Hill climbing also works against the open oracle.
    let mut oracle = CombOracle::from_locked(&locked)?;
    let hill = HillClimbEngine::default();
    let hc = run(&hill, &locked, &mut oracle, &mut AttackCtl::new());
    println!(
        "hill climbing vs WLL + open scan: success = {}",
        hc.succeeded()
    );

    // --- Act 2: SARLock resists the SAT attack... ------------------------
    let sar = locking::point_function::sarlock(
        &design,
        &locking::point_function::SarLockConfig {
            key_bits: 12,
            seed: 4,
        },
    )?;
    let mut oracle = CombOracle::from_locked(&sar)?;
    let capped_sat = SatEngine {
        config: SatAttackConfig {
            max_iterations: 128,
            conflict_budget: None,
        },
    };
    let capped = run(&capped_sat, &sar, &mut oracle, &mut AttackCtl::new());
    println!(
        "SAT attack vs SARLock (128-DIP cap): {:?} after {} DIPs — \
         needs ~2^12 distinguishing inputs",
        capped.failure, capped.iterations
    );
    // ...but its output corruptibility is negligible:
    let hd = gatesim::hd::average_hd_random_keys(
        &sar.circuit,
        &sar.key_inputs,
        &sar.correct_key,
        10,
        4096,
        3,
    )?;
    println!("SARLock corruptibility: average HD = {hd:.4}% (useless as obfuscation)");

    // AppSAT strips compound schemes down to their point function:
    let mut oracle = CombOracle::from_locked(&sar)?;
    let appsat = AppSatEngine::default();
    let app = run(&appsat, &sar, &mut oracle, &mut AttackCtl::new());
    println!(
        "AppSAT vs SARLock: returned {} after {} iterations",
        if app.succeeded() { "an approximate key" } else { "nothing" },
        app.iterations
    );

    // --- Act 3: OraP protects the oracle, not the netlist. ----------------
    let seq_design = netlist::samples::counter(12);
    let protected = protect(&seq_design, &wll, &OrapConfig::default())?;
    let chip = ProtectedChip::new(&protected)?;

    // A knowledgeable attacker (strict mode): no oracle, attack dies at the
    // first query.
    let mut strict = ProtectedChipOracle::new(chip.clone(), OracleMode::Strict);
    let out = run(&sat, &protected.locked, &mut strict, &mut AttackCtl::new());
    println!(
        "SAT attack vs OraP chip (strict): {:?} after {} iteration(s)",
        out.failure, out.iterations
    );

    // A naive attacker consumes the locked responses — and recovers a key
    // that does not unlock anything.
    let mut naive = ProtectedChipOracle::new(chip, OracleMode::Naive);
    let out = run(&sat, &protected.locked, &mut naive, &mut AttackCtl::new());
    match &out.key {
        Some(key) => {
            let ok = attacks::key_is_functionally_correct(&protected.locked, key, 4096)?;
            println!(
                "SAT attack vs OraP chip (naive, {} queries): extracted a key — \
                 functionally correct: {ok} (the locked responses poisoned it)",
                naive.queries_attempted()
            );
        }
        None => println!(
            "SAT attack vs OraP chip (naive): no key ({:?})",
            out.failure
        ),
    }

    // Meanwhile the OraP design keeps WLL's high corruptibility:
    let hd = gatesim::hd::average_hd_random_keys(
        &protected.locked.circuit,
        &protected.locked.key_inputs,
        &protected.locked.correct_key,
        10,
        4096,
        3,
    )?;
    println!("OraP + WLL corruptibility: average HD = {hd:.2}%");
    Ok(())
}
