//! `attack-mix`: many short lock→attack→verify sessions.
//!
//! Sessions cycle through the four combinational schemes (rll, wll,
//! sfll-hd, kgate) crossed with five engines (sat, appsat, double_dip,
//! hill_climbing, sensitization) on 64-gate random circuits, each with a
//! fresh lock seed. Every 16th session is dynamic scan obfuscation broken
//! by DynUnlock on an 8-bit counter. A session takes milliseconds, so the
//! solver runs many short incremental solves and fixed costs dominate:
//! encoding and solver set-up in `start`, oracle compile and queries,
//! locking and verification. A solver change that helps long searches
//! (`sat-hard`) but slows short ones shows here.

use std::time::{Duration, Instant};

use attacks::dyn_unlock::ScanSessionOracle;
use attacks::CombOracle;
use locking::scan_obfuscation::{self, ScanObfConfig, UnrollOptions};
use netlist::Circuit;

use crate::load::set_up;
use crate::session::{self, Scheme};
use crate::trace::Tracer;
use crate::{add, derive, single_caller_report, stream, Counts, Report, RunConfig, Size, Workload};

struct Params {
    /// Distinct circuits sessions draw from.
    circuits: u64,
    inputs: usize,
    outputs: usize,
    gates: usize,
    counter_bits: usize,
}

fn params(size: Size) -> Params {
    match size {
        Size::Standard => Params {
            circuits: 256,
            inputs: 12,
            outputs: 6,
            gates: 64,
            counter_bits: 8,
        },
        Size::Tiny => Params {
            circuits: 8,
            inputs: 8,
            outputs: 4,
            gates: 32,
            counter_bits: 4,
        },
    }
}

/// Schemes with their key widths. SFLL-HD's point-function structure
/// makes exact attacks need many DIPs, so its key is kept narrower to keep
/// its sessions in the same range as the others'.
const SCHEMES: [(Scheme, usize); 4] = [
    (Scheme::Rll, 8),
    (Scheme::Wll, 8),
    (Scheme::SfllHd, 5),
    (Scheme::KGate, 8),
];
const ENGINES: [&str; 5] = [
    "sat",
    "appsat",
    "double_dip",
    "hill_climbing",
    "sensitization",
];
/// Every `SCAN_EVERY`-th session is the scan-obfuscation one.
const SCAN_EVERY: u64 = 16;

/// The circuit suite is fixed (seeds `SUITE_SEED..`), like the Table-I
/// profiles of `defend`; the run's seed picks each session's circuit and
/// lock.
const SUITE_SEED: u64 = 0x5EED_0000;

/// A session fails when it has not finished after this long.
const SESSION_DEADLINE: Duration = Duration::from_secs(10);

fn comb_session(
    tr: &Tracer,
    circuit: &Circuit,
    scheme: Scheme,
    engine: &str,
    key_bits: usize,
    seed: u64,
    counts: &mut Counts,
) -> Result<(), String> {
    let locked = tr
        .span("locking.lock", || scheme.lock(circuit, key_bits, seed))
        .map_err(|e| format!("lock {scheme:?}: {e}"))?;
    add(counts, "locking.locks", 1);
    let oracle = tr
        .span("sim.oracle_build", || CombOracle::from_locked(&locked))
        .map_err(|e| format!("oracle: {e}"))?;
    add(counts, "sim.oracle_builds", 1);
    session::attack_and_verify(
        tr,
        &locked,
        oracle,
        engine,
        Instant::now() + SESSION_DEADLINE,
        counts,
    )
    .map_err(|e| format!("{scheme:?}: {e}"))
}

fn scan_session(
    tr: &Tracer,
    counter: &Circuit,
    key_bits: usize,
    seed: u64,
    counts: &mut Counts,
) -> Result<(), String> {
    let config = ScanObfConfig {
        key_bits,
        num_chains: 2,
        invert_spacing: 2,
        swap_spacing: 2,
        seed,
    };
    let chip = tr
        .span("locking.lock", || scan_obfuscation::lock(counter, &config))
        .map_err(|e| format!("scan lock: {e}"))?;
    let unrolled = tr
        .span("locking.unroll", || chip.unroll(&UnrollOptions::default()))
        .map_err(|e| format!("unroll: {e}"))?;
    add(counts, "locking.locks", 1);
    let oracle = tr
        .span("sim.oracle_build", || {
            ScanSessionOracle::new(&chip, &unrolled)
        })
        .map_err(|e| format!("scan oracle: {e}"))?;
    add(counts, "sim.oracle_builds", 1);
    session::attack_and_verify(
        tr,
        &unrolled.locked,
        oracle,
        "dyn_unlock",
        Instant::now() + SESSION_DEADLINE,
        counts,
    )
}

/// Runs the workload.
///
/// # Errors
///
/// Set-up failures.
pub fn run(cfg: &RunConfig, epoch: Instant) -> Result<Report, String> {
    let p = params(cfg.size);
    let ((circuits, counter), setup) = set_up(epoch, || {
        let circuits = (0..p.circuits)
            .map(|j| netlist::generate::random_comb(SUITE_SEED + j, p.inputs, p.outputs, p.gates))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("circuit: {e}"))?;
        let counter = netlist::samples::counter(p.counter_bits);
        // Warm-up: one session per engine and one scan session, on fixed
        // inputs.
        let warm = netlist::generate::random_comb(SUITE_SEED - 1, p.inputs, p.outputs, p.gates)
            .map_err(|e| format!("warm-up circuit: {e}"))?;
        let tr = Tracer::new(epoch);
        let mut warm_counts = Counts::new();
        for (k, engine) in ENGINES.iter().enumerate() {
            let (scheme, key_bits) = SCHEMES[k % SCHEMES.len()];
            comb_session(&tr, &warm, scheme, engine, key_bits, 1, &mut warm_counts)?;
        }
        scan_session(&tr, &counter, p.counter_bits, 1, &mut warm_counts)?;
        Ok((circuits, counter))
    })?;
    Ok(single_caller_report(
        Workload::AttackMix,
        cfg,
        epoch,
        setup,
        |tr, i, counts| {
            let lock_seed = derive(cfg.seed, stream::LOCK, i);
            if i % SCAN_EVERY == SCAN_EVERY - 1 {
                return scan_session(tr, &counter, p.counter_bits, lock_seed, counts);
            }
            // Index among the combinational sessions: every scheme × engine
            // pair comes round once in 20 of them.
            let k = (i - i / SCAN_EVERY) as usize;
            let (scheme, key_bits) = SCHEMES[k % SCHEMES.len()];
            let engine = ENGINES[(k / SCHEMES.len()) % ENGINES.len()];
            let circuit = &circuits[(derive(cfg.seed, stream::PICK, i) % p.circuits) as usize];
            comb_session(tr, circuit, scheme, engine, key_bits, lock_seed, counts)
        },
    ))
}
