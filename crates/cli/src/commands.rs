//! Command implementations.

use locking::LockedCircuit;
use netlist::NetId;

use crate::keyfmt;
use crate::netio::{
    flag_bool, flag_num, flag_value, input_path, read_netlist, write_netlist, CliError,
};

pub fn stats(args: &[String]) -> Result<(), CliError> {
    let circuit = read_netlist(input_path(args)?)?;
    print!("{}", netlist::CircuitStats::of(&circuit));
    Ok(())
}

pub fn optimize(args: &[String]) -> Result<(), CliError> {
    let circuit = read_netlist(input_path(args)?)?;
    let before = aigsynth::Aig::from_circuit(&circuit)?;
    let report = aigsynth::optimize(&circuit)?;
    println!(
        "area : {} AND nodes -> {} after strash/balance/rewrite",
        before.num_ands(),
        report.area
    );
    println!("depth: {} levels -> {}", before.depth(), report.depth);
    Ok(())
}

pub fn atpg(args: &[String]) -> Result<(), CliError> {
    let circuit = read_netlist(input_path(args)?)?;
    let cfg = atpg::AtpgConfig {
        random_patterns: flag_num(args, "--patterns", 2048)?,
        backtrack_limit: flag_num(args, "--backtrack", 1000)?,
        seed: flag_num(args, "--seed", 0xA7)? as u64,
    };
    let rep = atpg::run_atpg(&circuit, &cfg)?;
    println!(
        "fault coverage : {:.2}% ({} / {} faults)",
        rep.coverage_percent(),
        rep.detected,
        rep.total_faults
    );
    println!("redundant      : {}", rep.redundant);
    println!("aborted        : {}", rep.aborted);
    println!("tests generated: {}", rep.tests.len());
    Ok(())
}

pub fn convert(args: &[String]) -> Result<(), CliError> {
    let circuit = read_netlist(input_path(args)?)?;
    let out = flag_value(args, "-o").ok_or("convert needs -o <out>")?;
    write_netlist(out, &circuit)?;
    println!("wrote {out}");
    Ok(())
}

pub fn lock(args: &[String]) -> Result<(), CliError> {
    let circuit = read_netlist(input_path(args)?)?;
    let out = flag_value(args, "-o").ok_or("lock needs -o <out>")?;
    let key_bits = flag_num(args, "--key-bits", 32)?;
    let seed = flag_num(args, "--seed", 1)? as u64;
    let scheme = flag_value(args, "--scheme").unwrap_or("wll");
    let locked: LockedCircuit = match scheme {
        "rll" => locking::random::lock(&circuit, &locking::random::RllConfig { key_bits, seed })?,
        "fll" => locking::fault_based::lock(
            &circuit,
            &locking::fault_based::FllConfig {
                key_bits,
                impact_patterns: 256,
                seed,
            },
        )?,
        "wll" => locking::weighted::lock(
            &circuit,
            &locking::weighted::WllConfig {
                key_bits,
                control_width: flag_num(args, "--control-width", 3)?,
                seed,
            },
        )?,
        "sarlock" => locking::point_function::sarlock(
            &circuit,
            &locking::point_function::SarLockConfig { key_bits, seed },
        )?,
        "antisat" => locking::point_function::anti_sat(
            &circuit,
            &locking::point_function::AntiSatConfig {
                block_width: key_bits / 2,
                seed,
            },
        )?,
        "sfll" => locking::sfll::sfll_hd(
            &circuit,
            &locking::sfll::SfllConfig {
                key_bits,
                hamming_distance: flag_num(args, "--hd", 1)?,
                seed,
            },
        )?,
        "kgate" => {
            let classes = flag_num(args, "--classes", 4)?;
            if classes == 0 || key_bits % classes != 0 {
                return Err(format!(
                    "kgate needs --key-bits divisible by --classes (got {key_bits}/{classes})"
                )
                .into());
            }
            locking::kgate::lock(
                &circuit,
                &locking::kgate::KGateConfig {
                    classes,
                    word_bits: key_bits / classes,
                    seed,
                },
            )?
        }
        "scan-obf" => {
            // Dynamic scan obfuscation is sequential; the file artifact is
            // the unrolled bounded session (key inputs = the LFSR seed), so
            // the `attack` subcommand can drive it like any other lock.
            let sol = locking::scan_obfuscation::lock(
                &circuit,
                &locking::scan_obfuscation::ScanObfConfig::balanced(key_bits, seed),
            )?;
            let unrolled = sol.unroll(&locking::scan_obfuscation::UnrollOptions::default())?;
            println!(
                "session : {} frames ({} load + capture + {} unload)",
                unrolled.unroll_depth(),
                unrolled.load_cycles,
                unrolled.unload_cycles
            );
            unrolled.locked
        }
        other => return Err(format!("unknown scheme `{other}`").into()),
    };
    write_netlist(out, &locked.circuit)?;
    println!("scheme  : {}", locked.scheme);
    println!("key bits: {}", locked.key_bits());
    println!("key     : {}", keyfmt::to_hex(&locked.correct_key));
    println!("wrote {out}");
    Ok(())
}

pub fn protect(args: &[String]) -> Result<(), CliError> {
    let circuit = read_netlist(input_path(args)?)?;
    let out = flag_value(args, "-o").ok_or("protect needs -o <out>")?;
    let wll = locking::weighted::WllConfig {
        key_bits: flag_num(args, "--key-bits", 32)?,
        control_width: flag_num(args, "--control-width", 3)?,
        seed: flag_num(args, "--seed", 1)? as u64,
    };
    let cfg = orap::OrapConfig {
        variant: if flag_bool(args, "--modified") {
            orap::OrapVariant::Modified
        } else {
            orap::OrapVariant::Basic
        },
        ..orap::OrapConfig::default()
    };
    let protected = orap::protect(&circuit, &wll, &cfg)?;
    write_netlist(out, &protected.locked.circuit)?;
    println!("variant        : {:?}", protected.variant);
    println!("key bits (LFSR): {}", protected.key_bits());
    println!("correct key    : {}", keyfmt::to_hex(&protected.locked.correct_key));
    println!("unlock cycles  : {}", protected.unlock_cycles());
    println!("OraP gates     : {}", protected.hardware.gates());
    println!("key sequence (memory words, hex per cycle):");
    for (i, word) in protected.key_sequence.iter().enumerate() {
        println!("  cycle {i:3}: {}", keyfmt::to_hex(word));
    }
    println!("wrote {out}");
    Ok(())
}

/// Rebuilds a LockedCircuit view from a locked netlist file: key inputs are
/// recognised by their name prefix — `keyin*` (the convention of the
/// combinational schemes), `kg_key*` (K-Gate key words) or `scan_key*`
/// (the LFSR seed of an unrolled scan-obfuscation session).
fn reconstruct_locked(circuit: netlist::Circuit, key_hex: &str) -> Result<LockedCircuit, CliError> {
    const KEY_PREFIXES: [&str; 3] = ["keyin", "kg_key", "scan_key"];
    let key_inputs: Vec<NetId> = circuit
        .primary_inputs()
        .iter()
        .copied()
        .filter(|&n| {
            let name = circuit.net(n).name();
            KEY_PREFIXES.iter().any(|p| name.starts_with(p))
        })
        .collect();
    if key_inputs.is_empty() {
        return Err(
            "no `keyin*`/`kg_key*`/`scan_key*` inputs found — is this a locked netlist?".into(),
        );
    }
    let correct_key = keyfmt::from_hex(key_hex, key_inputs.len())?;
    Ok(LockedCircuit {
        circuit,
        key_inputs,
        correct_key,
        scheme: "file",
    })
}

pub fn attack(args: &[String]) -> Result<(), CliError> {
    let circuit = read_netlist(input_path(args)?)?;
    let key_hex = flag_value(args, "--key").ok_or(
        "attack needs --key <hex> (builds the oracle from the activated chip)",
    )?;
    let locked = reconstruct_locked(circuit, key_hex)?;
    let which = flag_value(args, "--attack").unwrap_or("sat");
    let outcome = match which {
        "sps" => {
            let out = attacks::sps::attack(&locked)?;
            match out.recovered {
                Some(rec) => {
                    let ok = attacks::sps::recovery_is_correct(&locked, &rec, 4096)?;
                    println!(
                        "SPS: removed net with skew {:.3}; recovery correct: {ok}",
                        out.skew
                    );
                }
                None => println!("SPS: no sufficiently skewed candidate — attack failed"),
            }
            return Ok(());
        }
        // Against a netlist file an unrolled scan session is just a
        // combinational lock, so the activated-chip oracle also stands in
        // for DynUnlock's scan interface.
        name => {
            let engine =
                attacks::engine::by_name(name).ok_or_else(|| format!("unknown attack `{name}`"))?;
            let mut oracle = attacks::CombOracle::from_locked(&locked)?;
            attacks::engine::run(
                engine.as_ref(),
                &locked,
                &mut oracle,
                &mut attacks::engine::AttackCtl::new(),
            )
        }
    };
    match &outcome.key {
        Some(key) => {
            let ok = attacks::key_is_functionally_correct(&locked, key, 4096)?;
            println!(
                "key recovered in {} iterations ({} oracle queries): {}",
                outcome.iterations,
                outcome.oracle_queries,
                keyfmt::to_hex(key)
            );
            println!("functionally correct: {ok}");
        }
        None => println!(
            "attack failed after {} iterations: {}",
            outcome.iterations,
            outcome
                .failure
                .map(|f| f.to_string())
                .unwrap_or_else(|| "unknown".into())
        ),
    }
    Ok(())
}
