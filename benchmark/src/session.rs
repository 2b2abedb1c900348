//! The attacker's session shared by `sat-hard` and `attack-mix`: lock a
//! circuit, build an oracle, drive an attack engine step by step, and
//! check the recovered key exactly.

use std::time::Instant;

use attacks::engine::{self, AttackCtl, StepStatus};
use attacks::{verify, Oracle};
use locking::LockedCircuit;
use netlist::Circuit;

use crate::trace::{TimedOracle, Tracer};
use crate::{add, Counts};

/// The combinational locking schemes of `attack-mix`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    /// Random XOR/XNOR key gates.
    Rll,
    /// Weighted logic locking, control width 3.
    Wll,
    /// SFLL-HD with Hamming distance 1.
    SfllHd,
    /// K-Gate Lock with four input classes.
    KGate,
}

impl Scheme {
    /// Locks `circuit` with `key_bits` key bits.
    ///
    /// # Errors
    ///
    /// The locker's error (for example, too few lockable nets).
    pub fn lock(
        self,
        circuit: &Circuit,
        key_bits: usize,
        seed: u64,
    ) -> Result<LockedCircuit, netlist::Error> {
        match self {
            Scheme::Rll => {
                locking::random::lock(circuit, &locking::random::RllConfig { key_bits, seed })
            }
            Scheme::Wll => locking::weighted::lock(
                circuit,
                &locking::weighted::WllConfig {
                    key_bits,
                    control_width: 3,
                    seed,
                },
            ),
            Scheme::SfllHd => locking::sfll::sfll_hd(
                circuit,
                &locking::sfll::SfllConfig {
                    key_bits,
                    hamming_distance: 1,
                    seed,
                },
            ),
            Scheme::KGate => locking::kgate::lock(
                circuit,
                &locking::kgate::KGateConfig {
                    classes: 4,
                    word_bits: key_bits / 4,
                    seed,
                },
            ),
        }
    }
}

/// Engines that must return an exactly correct key; a session of one of
/// them fails otherwise.
const EXACT_ENGINES: [&str; 3] = ["sat", "double_dip", "dyn_unlock"];

/// Heuristic engines, with the counters their exact-key ratio is made of:
/// `(engine, exact keys, sessions)`.
const HEURISTIC_ENGINES: [(&str, &str, &str); 3] = [
    (
        "appsat",
        "attacks.exact_keys.appsat",
        "attacks.sessions.appsat",
    ),
    (
        "hill_climbing",
        "attacks.exact_keys.hill_climbing",
        "attacks.sessions.hill_climbing",
    ),
    (
        "sensitization",
        "attacks.exact_keys.sensitization",
        "attacks.sessions.sensitization",
    ),
];

/// For a metric `attacks.exact_key_ratio.<engine>`, the counters of its
/// numerator and denominator.
pub(crate) fn exact_key_counters(metric: &str) -> Option<(&'static str, &'static str)> {
    let engine = metric.strip_prefix("attacks.exact_key_ratio.")?;
    HEURISTIC_ENGINES
        .iter()
        .find(|(e, _, _)| *e == engine)
        .map(|&(_, exact, sessions)| (exact, sessions))
}

/// The exact-equivalence check of a recovered key, as every session runs
/// it.
pub fn key_is_exact(
    tr: &Tracer,
    locked: &LockedCircuit,
    key: &[bool],
    counts: &mut Counts,
) -> bool {
    add(counts, "verify.calls", 1);
    tr.span("verify.exact", || {
        verify::key_is_exactly_correct(locked, key)
    })
}

/// Attacks `locked` through `oracle` with engine `engine_name`, stepping
/// the session until it ends, then checks the key exactly.
///
/// # Errors
///
/// An unknown engine, an interrupted session (the deadline passed), or an
/// exact engine whose key is missing or not exactly correct.
pub fn attack_and_verify<O: Oracle>(
    tr: &Tracer,
    locked: &LockedCircuit,
    oracle: O,
    engine_name: &str,
    deadline: Instant,
    counts: &mut Counts,
) -> Result<(), String> {
    let engine =
        engine::by_name(engine_name).ok_or_else(|| format!("unknown engine {engine_name}"))?;
    let mut oracle = TimedOracle::new(oracle, tr);
    let mut ctl = AttackCtl::new().with_deadline(Some(deadline));
    let mut steps = 0u64;
    let outcome = {
        let o: &mut dyn Oracle = &mut oracle;
        let mut session = tr.span("attacks.start", move || engine.start(locked, o));
        loop {
            steps += 1;
            match tr.span("attacks.step", || session.step(&mut ctl)) {
                StepStatus::Running => {}
                StepStatus::Done => {
                    break session
                        .outcome()
                        .cloned()
                        .ok_or_else(|| format!("{engine_name} finished without an outcome"))?
                }
                StepStatus::Interrupted(why) => {
                    return Err(format!("{engine_name} interrupted: {why:?}"))
                }
            }
        }
    };
    add(counts, "attacks.steps", steps);
    add(counts, "attacks.iterations", outcome.iterations as u64);
    add(
        counts,
        "attacks.oracle_queries",
        outcome.oracle_queries as u64,
    );
    add(
        counts,
        "sim.oracle_queries",
        oracle.queries_attempted() as u64,
    );
    let t = &outcome.telemetry;
    add(counts, "attacks.clauses", t.clauses as u64);
    add(counts, "attacks.vars", t.vars as u64);
    for (name, v) in solver_counts(&t.solver) {
        add(counts, name, v);
    }

    let exact = match &outcome.key {
        Some(key) => key_is_exact(tr, locked, key, counts),
        None => false,
    };
    if EXACT_ENGINES.contains(&engine_name) {
        return match (&outcome.key, exact) {
            (Some(_), true) => Ok(()),
            (Some(_), false) => Err(format!("{engine_name} key is not exactly correct")),
            (None, _) => Err(format!("{engine_name} found no key: {:?}", outcome.failure)),
        };
    }
    if let Some(&(_, exact_name, sessions_name)) =
        HEURISTIC_ENGINES.iter().find(|(e, _, _)| *e == engine_name)
    {
        add(counts, sessions_name, 1);
        add(counts, exact_name, exact as u64);
    }
    Ok(())
}

/// The reported solver counters. Without their `sat.` prefix the names are
/// the `cdcl::SolverStats` fields, which the daemon's attack result carries
/// under the same names.
pub(crate) fn solver_counts(s: &cdcl::SolverStats) -> [(&'static str, u64); 9] {
    [
        ("sat.conflicts", s.conflicts),
        ("sat.propagations", s.propagations),
        ("sat.decisions", s.decisions),
        ("sat.restarts", s.restarts),
        ("sat.learned_clauses", s.learned_clauses),
        ("sat.learned_literals_post", s.learned_literals_post),
        ("sat.db_reductions", s.db_reductions),
        ("sat.inprocessings", s.inprocessings),
        ("sat.eliminated_vars", s.eliminated_vars),
    ]
}
