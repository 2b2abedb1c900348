//! `sat-hard`: solver-bound SAT attacks on one b19-profile circuit.
//!
//! Each session locks the b19 profile at scale 0.0025 (551 gates) with a
//! fresh 16-bit WLL lock (control width 5), breaks it with the `sat`
//! engine and verifies the key exactly. Both the attack's final UNSAT
//! call and the exact verification are equivalence-style miters, so one
//! session is about 9k conflicts of search and the per-session cost moves
//! little with the lock seed (about ±6% on this profile). This is the
//! ROADMAP's b19 item at a size where one run repeats the search tens of
//! times; the published b19 at scale 0.004 takes over a minute per
//! session, longer than a run.

use std::time::{Duration, Instant};

use attacks::CombOracle;
use locking::weighted::WllConfig;
use netlist::generate::{self, BenchmarkId};

use crate::load::set_up;
use crate::session;
use crate::trace::Tracer;
use crate::{add, derive, single_caller_report, stream, Counts, Report, RunConfig, Size, Workload};

struct Params {
    scale: f64,
    key_bits: usize,
    control_width: usize,
}

fn params(size: Size) -> Params {
    match size {
        Size::Standard => Params {
            scale: 0.0025,
            key_bits: 16,
            control_width: 5,
        },
        Size::Tiny => Params {
            scale: 0.001,
            key_bits: 8,
            control_width: 5,
        },
    }
}

/// A session fails when it has not finished after this long.
const SESSION_DEADLINE: Duration = Duration::from_secs(60);

/// One session: WLL-lock `design`, attack, verify.
fn session(
    tr: &Tracer,
    design: &netlist::Circuit,
    lock: &WllConfig,
    counts: &mut Counts,
) -> Result<(), String> {
    let locked = tr
        .span("locking.lock", || locking::weighted::lock(design, lock))
        .map_err(|e| format!("lock: {e}"))?;
    add(counts, "locking.locks", 1);
    let oracle = tr
        .span("sim.oracle_build", || CombOracle::from_locked(&locked))
        .map_err(|e| format!("oracle: {e}"))?;
    add(counts, "sim.oracle_builds", 1);
    session::attack_and_verify(
        tr,
        &locked,
        oracle,
        "sat",
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
    let (design, setup) = set_up(epoch, || {
        let profile = generate::profile(BenchmarkId::B19).scaled(p.scale);
        let design = generate::synthesize(&profile).map_err(|e| format!("b19: {e}"))?;
        // Warm-up: one small lock→attack→verify on fixed inputs, so the
        // timed sessions do not pay first-use costs.
        let small =
            generate::random_comb(1, 10, 5, 60).map_err(|e| format!("warm-up circuit: {e}"))?;
        let warm = WllConfig {
            key_bits: 4,
            control_width: 2,
            seed: 1,
        };
        session(&Tracer::new(epoch), &small, &warm, &mut Counts::new())?;
        Ok(design)
    })?;
    Ok(single_caller_report(
        Workload::SatHard,
        cfg,
        epoch,
        setup,
        |tr, i, counts| {
            let lock = WllConfig {
                key_bits: p.key_bits,
                control_width: p.control_width,
                seed: derive(cfg.seed, stream::LOCK, i),
            };
            session(tr, &design, &lock, counts)
        },
    ))
}
