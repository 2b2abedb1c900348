//! Experiment E3: the Section II-A security claims, executed.
//!
//! Runs every oracle-guided attack against (a) conventionally locked
//! circuits with an open scan oracle and (b) the same lock behind an
//! OraP-protected chip, and reports who recovers a working key.
//!
//! Run: `cargo run -p orap-bench --release --bin attack_resistance`

use attacks::engine::{self, AttackCtl};
use attacks::{key_is_functionally_correct, CombOracle, Oracle};
use locking::LockedCircuit;
use orap::chip::{OracleMode, ProtectedChip, ProtectedChipOracle};
use orap::{protect, OrapConfig};
use orap_bench::write_results;
use orap_bench::json::{Json, ToJson};
use orap_bench::json_object;

#[derive(Debug)]
struct Row {
    attack: String,
    target: String,
    oracle: String,
    key_recovered: bool,
    key_correct: bool,
    iterations: usize,
    oracle_queries: usize,
    failure: Option<String>,
    telemetry: attacks::AttackTelemetry,
}

impl ToJson for Row {
    fn to_json(&self) -> Json {
        json_object! {
            attack: self.attack,
            target: self.target,
            oracle: self.oracle,
            key_recovered: self.key_recovered,
            key_correct: self.key_correct,
            iterations: self.iterations,
            oracle_queries: self.oracle_queries,
            failure: self.failure,
            telemetry: self.telemetry,
        }
    }
}

fn run_attack(
    name: &str,
    locked: &LockedCircuit,
    target: &str,
    oracle_name: &str,
    oracle: &mut dyn Oracle,
) -> Row {
    // Every attack drives through the same engine loop the daemon and the
    // conformance harness use, so the telemetry (notably the
    // `oracle_queries` ledger) is schema-identical across all of them.
    let eng = engine::by_name(name).unwrap_or_else(|| unreachable!("unknown attack {name}"));
    let outcome = engine::run(eng.as_ref(), locked, oracle, &mut AttackCtl::new());
    let key_correct = outcome
        .key
        .as_ref()
        .map(|k| key_is_functionally_correct(locked, k, 4096).unwrap_or(false))
        .unwrap_or(false);
    Row {
        attack: name.to_owned(),
        target: target.to_owned(),
        oracle: oracle_name.to_owned(),
        key_recovered: outcome.key.is_some(),
        key_correct,
        iterations: outcome.iterations,
        oracle_queries: outcome.oracle_queries,
        failure: outcome.failure.map(|f| f.to_string()),
        telemetry: outcome.telemetry,
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let attacks = ["sat", "appsat", "double-dip", "hill-climb", "sensitize"];
    let mut rows: Vec<Row> = Vec::new();

    // --- Conventional targets with an open scan oracle. -------------------
    let comb = netlist::generate::random_comb(99, 12, 8, 350)?;
    let targets: Vec<(&str, LockedCircuit)> = vec![
        (
            "rll-12",
            locking::random::lock(&comb, &locking::random::RllConfig { key_bits: 12, seed: 1 })?,
        ),
        (
            "wll-12",
            locking::weighted::lock(
                &comb,
                &locking::weighted::WllConfig {
                    key_bits: 12,
                    control_width: 3,
                    seed: 1,
                },
            )?,
        ),
        (
            "sarlock-10",
            locking::point_function::sarlock(
                &comb,
                &locking::point_function::SarLockConfig { key_bits: 10, seed: 1 },
            )?,
        ),
        (
            "antisat-12",
            locking::point_function::anti_sat(
                &comb,
                &locking::point_function::AntiSatConfig { block_width: 6, seed: 1 },
            )?,
        ),
        (
            "sfll-8-h1",
            locking::sfll::sfll_hd(
                &comb,
                &locking::sfll::SfllConfig {
                    key_bits: 8,
                    hamming_distance: 1,
                    seed: 1,
                },
            )?,
        ),
        (
            "kgate-12",
            locking::kgate::lock(
                &comb,
                &locking::kgate::KGateConfig {
                    classes: 4,
                    word_bits: 3,
                    seed: 1,
                },
            )?,
        ),
    ];
    // One pool task per (target, attack) pair plus one for each target's
    // oracle-less SPS run; results come back in the sequential order.
    let pool = exec::global();
    let jobs: Vec<(usize, Option<&str>)> = (0..targets.len())
        .flat_map(|t| {
            attacks
                .iter()
                .map(move |&a| (t, Some(a)))
                .chain(std::iter::once((t, None)))
        })
        .collect();
    let built = pool.par_map("attack_targets", &jobs, |_, &(t, attack)| {
        let (tname, locked) = &targets[t];
        match attack {
            Some(name) => {
                let mut oracle = CombOracle::from_locked(locked).map_err(|e| e.to_string())?;
                Ok::<Row, String>(run_attack(name, locked, tname, "open-scan", &mut oracle))
            }
            None => {
                // The oracle-less SPS removal attack (defeats Anti-SAT,
                // nothing else).
                let sps = attacks::sps::attack(locked).map_err(|e| e.to_string())?;
                let (recovered, correct) = match &sps.recovered {
                    Some(rec) => (
                        true,
                        attacks::sps::recovery_is_correct(locked, rec, 4096)
                            .map_err(|e| e.to_string())?,
                    ),
                    None => (false, false),
                };
                Ok(Row {
                    attack: "sps".into(),
                    target: (*tname).to_owned(),
                    oracle: "none".into(),
                    key_recovered: recovered,
                    key_correct: correct,
                    iterations: 1,
                    oracle_queries: 0,
                    failure: if correct {
                        None
                    } else {
                        Some("no removable skewed signal".into())
                    },
                    telemetry: attacks::AttackTelemetry::default(),
                })
            }
        }
    });
    for r in built {
        rows.push(r?);
    }

    // --- Dynamic scan obfuscation, attacked through real scan sessions. ---
    // The target is the unrolled bounded session (load + capture + unload)
    // whose key inputs are the LFSR seed; the oracle replays each candidate
    // session on the chip model, so this is the DynUnlock threat model
    // end to end. The netlist-level obfuscation does not protect the
    // oracle — the seed falls out of the SAT loop.
    {
        use attacks::dyn_unlock::ScanSessionOracle;
        use locking::scan_obfuscation::{self, ScanObfConfig, UnrollOptions};

        let seq = netlist::samples::counter(12);
        let scanobf = scan_obfuscation::lock(&seq, &ScanObfConfig::balanced(12, 1))?;
        let unrolled = scanobf.unroll(&UnrollOptions::default())?;
        for attack in ["dyn_unlock", "sat"] {
            let mut oracle = ScanSessionOracle::new(&scanobf, &unrolled)?;
            rows.push(run_attack(
                attack,
                &unrolled.locked,
                "scanobf-12",
                "scan-session",
                &mut oracle,
            ));
        }
    }

    // --- The same WLL lock behind an OraP chip. ---------------------------
    let seq = netlist::samples::counter(12);
    let protected = protect(
        &seq,
        &locking::weighted::WllConfig {
            key_bits: 12,
            control_width: 3,
            seed: 1,
        },
        &OrapConfig::default(),
    )?;
    let chip = ProtectedChip::new(&protected)?;
    for (mode, oracle_name) in [(OracleMode::Strict, "orap-strict"), (OracleMode::Naive, "orap-naive")] {
        rows.extend(pool.par_map("attack_orap", &attacks, |_, &attack| {
            let mut oracle = ProtectedChipOracle::new(chip.clone(), mode);
            run_attack(attack, &protected.locked, "orap+wll-12", oracle_name, &mut oracle)
        }));
    }

    println!("attack      target       oracle       recovered  correct   iters  queries  failure");
    for r in &rows {
        println!(
            "{:<11} {:<12} {:<12} {:>9} {:>8} {:>7} {:>8}  {}",
            r.attack,
            r.target,
            r.oracle,
            r.key_recovered,
            r.key_correct,
            r.iterations,
            r.oracle_queries,
            r.failure.as_deref().unwrap_or("-")
        );
    }

    // Headline verdicts.
    let open_broken = rows
        .iter()
        .filter(|r| r.oracle == "open-scan" && r.target != "sarlock-10" && r.key_correct)
        .count();
    let orap_broken = rows
        .iter()
        .filter(|r| r.oracle.starts_with("orap") && r.key_correct)
        .count();
    println!(
        "\nconventional locks broken via open scan: {open_broken} attack runs; \
         OraP chip broken: {orap_broken} attack runs"
    );

    let doc = json_object! { rows: rows, exec: pool.stats() };
    let path = write_results("attack_resistance", &doc)?;
    println!("results written to {}", path.display());
    Ok(())
}
