//! The engine refactor must not move a single bit: these goldens pin the
//! exact iteration counts, oracle-query counts, and recovered keys the
//! pre-engine free-function attacks produced, now reproduced through
//! [`attacks::engine::run`], together with every solver work counter of
//! each run, so a change to the solver's restart, reduction, minimization
//! or inprocessing schedule shows up here. They also pin the interrupt
//! semantics: budgets stop attacks at the oracle boundary, cancels and
//! deadlines stop them mid-solve, and an interrupted-then-resumed session
//! lands on the same key by the same trajectory as an uninterrupted run.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use attacks::appsat::{AppSatConfig, AppSatEngine};
use attacks::double_dip::{DoubleDipConfig, DoubleDipEngine};
use attacks::dyn_unlock::{DynUnlockEngine, ScanSessionOracle};
use attacks::engine::{
    self, AttackCtl, AttackEngine, Interrupt, Milestone, ProgressEvent, StepStatus, ENGINE_NAMES,
};
use attacks::hill_climbing::{HillClimbConfig, HillClimbEngine};
use attacks::sat::{SatAttackConfig, SatEngine};
use attacks::sensitization::{SensitizationConfig, SensitizationEngine};
use attacks::{CombOracle, FailureReason, Oracle};
use cdcl::SolverStats;
use locking::random::RllConfig;
use locking::weighted::WllConfig;
use locking::LockedCircuit;
use netlist::generate::{self, BenchmarkId};
use netlist::samples;

fn rll(circuit: &netlist::Circuit, key_bits: usize, seed: u64) -> LockedCircuit {
    locking::random::lock(circuit, &RllConfig { key_bits, seed }).expect("lockable")
}

fn key_string(key: &[bool]) -> String {
    key.iter().map(|&b| if b { '1' } else { '0' }).collect()
}

/// Runs `engine` through the unified driver and asserts the exact golden
/// (iterations, oracle queries, key bits) captured from the pre-engine code,
/// plus the solver's cumulative statistics.
fn assert_golden(
    engine: &dyn AttackEngine,
    locked: &LockedCircuit,
    iterations: usize,
    queries: usize,
    key: &str,
    solver: SolverStats,
) {
    let mut oracle = CombOracle::from_locked(locked).expect("valid lock");
    let out = engine::run(engine, locked, &mut oracle, &mut AttackCtl::new());
    assert_eq!(out.iterations, iterations, "{}: iterations", engine.name());
    assert_eq!(out.oracle_queries, queries, "{}: queries", engine.name());
    let got = key_string(out.key.as_deref().unwrap_or_else(|| {
        panic!("{}: expected key, got failure {:?}", engine.name(), out.failure)
    }));
    assert_eq!(got, key, "{}: recovered key", engine.name());
    assert_eq!(out.telemetry.solver, solver, "{}: solver stats", engine.name());
}

#[test]
fn sat_goldens_are_bit_identical_to_pre_engine_attack() {
    let e = SatEngine { config: SatAttackConfig::default() };
    let stats = SolverStats {
        solves: 6,
        decisions: 208,
        propagations: 1077,
        conflicts: 40,
        learned_clauses: 40,
        learned_literals_pre: 154,
        learned_literals_post: 149,
        ..SolverStats::default()
    };
    assert_golden(&e, &rll(&samples::ripple_adder(4), 8, 3), 4, 4, "00010100", stats);
    let comb = netlist::generate::random_comb(41, 10, 6, 150).unwrap();
    let stats = SolverStats {
        solves: 8,
        decisions: 2960,
        propagations: 176_686,
        conflicts: 2034,
        restarts: 3,
        learned_clauses: 2034,
        learned_literals_pre: 62_659,
        learned_literals_post: 55_123,
        db_reductions: 1,
        clauses_deleted: 40,
        inprocessings: 1,
        subsumed_clauses: 250,
        strengthened_clauses: 2348,
        eliminated_vars: 215,
        restored_vars: 0,
        vivified_literals: 488,
        chrono_backtracks: 0,
        restarts_blocked: 242,
        restarts_forced: 3,
    };
    assert_golden(&e, &rll(&comb, 12, 7), 6, 6, "000011101111", stats);
}

/// The SAT smoke bench's b19 lock (WLL, 12 key bits, control width 5): a
/// single DIP, but a search long enough that EMA restarts, learnt-clause
/// DB reductions, clause minimization and inprocessing all run, so the
/// counters pin the solver's whole default schedule.
#[test]
fn sat_golden_pins_the_solver_schedule_on_the_b19_smoke_lock() {
    let id = BenchmarkId::B19;
    let design = generate::synthesize(&generate::profile(id).scaled(0.003)).unwrap();
    let lock = WllConfig { key_bits: 12, control_width: 5, seed: 0x5A7 ^ id as u64 };
    let locked = locking::weighted::lock(&design, &lock).unwrap();
    let stats = SolverStats {
        solves: 3,
        decisions: 17_392,
        propagations: 1_120_785,
        conflicts: 13_132,
        restarts: 31,
        learned_clauses: 13_132,
        learned_literals_pre: 459_294,
        learned_literals_post: 415_137,
        db_reductions: 5,
        clauses_deleted: 6603,
        inprocessings: 2,
        subsumed_clauses: 1190,
        strengthened_clauses: 4299,
        eliminated_vars: 460,
        restored_vars: 0,
        vivified_literals: 178,
        chrono_backtracks: 0,
        restarts_blocked: 765,
        restarts_forced: 31,
    };
    assert_golden(&SatEngine::default(), &locked, 1, 1, "111110010111", stats);
}

#[test]
fn appsat_golden_is_bit_identical_to_pre_engine_attack() {
    let e = AppSatEngine { config: AppSatConfig::default() };
    let stats = SolverStats {
        solves: 5,
        decisions: 171,
        propagations: 1254,
        conflicts: 58,
        learned_clauses: 58,
        learned_literals_pre: 243,
        learned_literals_post: 224,
        ..SolverStats::default()
    };
    assert_golden(&e, &rll(&samples::ripple_adder(4), 8, 9), 3, 3, "11011011", stats);
}

#[test]
fn double_dip_golden_is_bit_identical_to_pre_engine_attack() {
    let e = DoubleDipEngine { config: DoubleDipConfig::default() };
    let stats = SolverStats {
        solves: 2,
        decisions: 28,
        propagations: 264,
        conflicts: 15,
        learned_clauses: 15,
        learned_literals_pre: 66,
        learned_literals_post: 60,
        ..SolverStats::default()
    };
    assert_golden(&e, &rll(&samples::ripple_adder(3), 6, 2), 3, 3, "011011", stats);
}

#[test]
fn hill_climbing_golden_is_bit_identical_to_pre_engine_attack() {
    let config = HillClimbConfig { seed: 0xC11B, ..Default::default() };
    let e = HillClimbEngine { config };
    let locked = rll(&samples::ripple_adder(4), 8, 6);
    assert_golden(&e, &locked, 3, 64, "10110110", SolverStats::default());
}

#[test]
fn sensitization_golden_is_bit_identical_to_pre_engine_attack() {
    let e = SensitizationEngine {
        config: SensitizationConfig { probes_per_bit: 16 },
    };
    let locked = rll(&samples::ripple_adder(8), 3, 21);
    assert_golden(&e, &locked, 48, 48, "111", SolverStats::default());
}

/// Records every stimulus an oracle answers, so the golden can pin the
/// exact distinguishing-session sequence, not just its length.
struct RecordingOracle<'a> {
    inner: &'a mut dyn Oracle,
    stimuli: Vec<String>,
}

impl Oracle for RecordingOracle<'_> {
    fn num_inputs(&self) -> usize {
        self.inner.num_inputs()
    }
    fn num_outputs(&self) -> usize {
        self.inner.num_outputs()
    }
    fn query(&mut self, input: &[bool]) -> Option<Vec<bool>> {
        self.stimuli.push(key_string(input));
        self.inner.query(input)
    }
    fn queries_attempted(&self) -> usize {
        self.inner.queries_attempted()
    }
}

/// DynUnlock on the scan-obfuscation battery workload: the exact frame
/// layout of the unrolled session, the distinguishing-session sequence the
/// attack sent through the scan interface, and the recovered LFSR seed are
/// all pinned bit-for-bit.
#[test]
fn dyn_unlock_golden_pins_the_session_frame_sequence() {
    use locking::scan_obfuscation::{self, ScanObfConfig, UnrollOptions};

    let original = samples::counter(8);
    let locked = scan_obfuscation::lock(
        &original,
        &ScanObfConfig {
            key_bits: 8,
            num_chains: 2,
            invert_spacing: 2,
            swap_spacing: 2,
            seed: 3,
        },
    )
    .expect("lockable");
    let unrolled = locked.unroll(&UnrollOptions::default()).expect("acyclic");

    // Frame layout golden: 4 load shifts + capture + 4 unload shifts, two
    // bits per frame, eight capture outputs.
    assert_eq!(unrolled.unroll_depth(), 9);
    assert_eq!(unrolled.frame_bits(), 2);
    assert_eq!(unrolled.capture_outputs, 8);
    assert_eq!(unrolled.locked.circuit.primary_outputs().len(), 24);

    let mut chip = ScanSessionOracle::new(&locked, &unrolled).expect("chip oracle");
    let mut oracle = RecordingOracle { inner: &mut chip, stimuli: Vec::new() };
    let engine = DynUnlockEngine::default();
    let out = engine::run(&engine, &unrolled.locked, &mut oracle, &mut AttackCtl::new());

    assert_eq!(out.iterations, 1, "dyn_unlock: iterations");
    assert_eq!(out.oracle_queries, 1, "dyn_unlock: queries");
    assert_eq!(
        key_string(out.key.as_deref().expect("seed recovered")),
        "10110100",
        "dyn_unlock: recovered seed"
    );
    // The distinguishing-session stimulus: 8 scan-stream bits (cycle-major,
    // two chains × four load cycles) then the single primary input.
    assert_eq!(oracle.stimuli, vec!["011011000".to_string()]);
    assert!(
        attacks::verify::key_exact_counterexample(&unrolled.locked, out.key.as_ref().unwrap())
            .is_none(),
        "recovered seed must be session-exact"
    );
}

#[test]
fn by_name_covers_every_engine_and_rejects_unknowns() {
    for name in ENGINE_NAMES {
        let e = engine::by_name(name).unwrap_or_else(|| panic!("missing engine {name}"));
        assert_eq!(e.name(), name);
    }
    assert_eq!(engine::by_name("double-dip").unwrap().name(), "double_dip");
    assert_eq!(engine::by_name("hill-climb").unwrap().name(), "hill_climbing");
    assert_eq!(engine::by_name("sensitize").unwrap().name(), "sensitization");
    assert!(engine::by_name("smt").is_none());
}

/// Runs `engine` with a collecting progress sink; returns the outcome, the
/// stage names and the milestones, in emission order.
fn run_with_progress(
    engine: &dyn AttackEngine,
    locked: &LockedCircuit,
) -> (attacks::AttackOutcome, Vec<&'static str>, Vec<Milestone>) {
    let mut oracle = CombOracle::from_locked(locked).unwrap();
    let events: Arc<Mutex<Vec<ProgressEvent>>> = Arc::default();
    let sink = Arc::clone(&events);
    let mut ctl =
        AttackCtl::new().with_progress(Box::new(move |e| sink.lock().unwrap().push(*e)));
    let out = engine::run(engine, locked, &mut oracle, &mut ctl);
    let events = events.lock().unwrap();
    let mut stages = Vec::new();
    let mut milestones = Vec::new();
    for e in events.iter() {
        match e {
            ProgressEvent::Stage { name } => stages.push(*name),
            ProgressEvent::Milestone(m) => milestones.push(*m),
        }
    }
    (out, stages, milestones)
}

/// Every DIP-loop engine reports its stage names (the serve `subscribe`
/// stream carries them) and one monotonic milestone per learned DIP.
#[test]
fn progress_sink_sees_stages_and_monotonic_milestones() {
    let locked = rll(&samples::ripple_adder(4), 8, 3);
    for (name, want) in [
        ("sat", &["dip-search", "extract"][..]),
        ("appsat", &["dip-search", "extract"]),
        ("double_dip", &["2dip-search", "fallback", "extract"]),
        ("dyn_unlock", &["session-search", "extract"]),
    ] {
        let engine = engine::by_name(name).unwrap();
        let (out, stages, milestones) = run_with_progress(engine.as_ref(), &locked);
        assert!(out.succeeded(), "{name}");
        assert_eq!(stages, want, "{name}: stages");
        assert_eq!(milestones.len(), 4, "{name}: milestones");
        assert_eq!(milestones.len(), out.iterations, "{name}: one milestone per DIP");
        for w in milestones.windows(2) {
            assert!(w[1].iterations > w[0].iterations, "{name}: iterations monotonic");
            assert!(w[1].oracle_queries > w[0].oracle_queries, "{name}: queries monotonic");
        }
        assert_eq!(milestones.last().unwrap().oracle_queries as usize, out.oracle_queries);
    }
}

/// AppSAT on an RLL+SARLock compound settles instead of extracting: two
/// settlement checks, the second accepted.
#[test]
fn appsat_settles_on_a_compound_lock() {
    let rll6 = rll(&samples::ripple_adder(4), 6, 4);
    let sar = locking::point_function::sarlock(
        &rll6.circuit,
        &locking::point_function::SarLockConfig { key_bits: 8, seed: 5 },
    )
    .unwrap();
    let mut key_inputs = rll6.key_inputs.clone();
    key_inputs.extend(sar.key_inputs.iter().copied());
    let mut correct_key = rll6.correct_key.clone();
    correct_key.extend(sar.correct_key.iter().copied());
    let locked = LockedCircuit {
        circuit: sar.circuit,
        key_inputs,
        correct_key,
        scheme: "rll+sarlock",
    };
    let engine = AppSatEngine { config: AppSatConfig::default() };
    let (out, stages, _) = run_with_progress(&engine, &locked);
    assert_eq!(stages, ["dip-search", "settle", "settle"]);
    assert_eq!(out.iterations, 16);
    assert_eq!(out.oracle_queries, 144);
    assert_eq!(key_string(out.key.as_deref().unwrap()), "00110100110100");
}

#[test]
fn query_budget_stops_the_attack_at_the_oracle_boundary() {
    let locked = rll(&samples::ripple_adder(4), 8, 3);
    let mut oracle = CombOracle::from_locked(&locked).unwrap();
    let mut ctl = AttackCtl::new().with_query_budget(Some(2));
    let out = engine::run(
        &SatEngine { config: SatAttackConfig::default() },
        &locked,
        &mut oracle,
        &mut ctl,
    );
    assert_eq!(out.failure, Some(FailureReason::QueryBudgetExhausted));
    // The budget is enforced *before* the oracle is consulted: exactly the
    // budgeted number of queries reached it, and the ledger agrees.
    assert_eq!(oracle.queries_attempted(), 2);
    assert_eq!(ctl.queries(), 2);
}

/// An interrupted-then-resumed session recovers the same key by the same
/// trajectory as an uninterrupted run, for every engine on the shared DIP
/// loop: the budget interrupt fires at the oracle boundary, the pending
/// distinguishing input is stashed, and the resumed session replays it
/// without re-solving.
#[test]
fn interrupted_then_resumed_session_matches_uninterrupted_run() {
    qcheck::qcheck!(
        "resume_equals_uninterrupted",
        qcheck::Config::with_cases(12),
        (lock_seed, budget) in (0u64..40, 1u64..5) => {
            let circuit = samples::ripple_adder(4);
            let locked = rll(&circuit, 8, lock_seed);
            for name in ["sat", "appsat", "double_dip", "dyn_unlock"] {
                let engine = engine::by_name(name).unwrap();

                let mut oracle_a = CombOracle::from_locked(&locked).unwrap();
                let baseline =
                    engine::run(engine.as_ref(), &locked, &mut oracle_a, &mut AttackCtl::new());

                let mut oracle_b = CombOracle::from_locked(&locked).unwrap();
                let mut session = engine.start(&locked, &mut oracle_b);
                let mut budgeted = AttackCtl::new().with_query_budget(Some(budget));
                let mut interrupted = false;
                loop {
                    match session.step(&mut budgeted) {
                        StepStatus::Running => {}
                        StepStatus::Done => break,
                        StepStatus::Interrupted(why) => {
                            qcheck::prop_assert_eq!(why, Interrupt::QueryBudgetExhausted);
                            interrupted = true;
                            break;
                        }
                    }
                }
                // Resume with a fresh, unbudgeted ctl.
                let mut open = AttackCtl::new();
                let resumed = engine::drive(session.as_mut(), &mut open);
                qcheck::prop_assert_eq!(&resumed.key, &baseline.key);
                qcheck::prop_assert_eq!(resumed.iterations, baseline.iterations);
                qcheck::prop_assert_eq!(resumed.oracle_queries, baseline.oracle_queries);
                // When the budget was genuinely smaller than the attack's
                // needs the first drive really was cut short.
                if (budget as usize) < baseline.oracle_queries {
                    qcheck::prop_assert!(interrupted);
                }
            }
        });
}

/// A cancel raised while the SAT attack is deep in a large-circuit solve
/// takes effect promptly: the conflict-granularity solver hook (not just the
/// per-DIP poll) observes the flag mid-solve.
#[test]
fn cancel_interrupts_a_sat_attack_on_a_large_circuit_mid_solve() {
    // ~20k gates, 32 key bits: every miter solve is big enough that a whole
    // DIP iteration takes far longer than the cancel latency we assert.
    let comb = netlist::generate::random_comb(7, 48, 24, 20_000).unwrap();
    let locked = rll(&comb, 32, 11);
    let mut oracle = CombOracle::from_locked(&locked).unwrap();
    let cancel = Arc::new(AtomicBool::new(false));
    let setter = Arc::clone(&cancel);
    let t = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(100));
        setter.store(true, Ordering::Relaxed);
    });
    let start = Instant::now();
    let mut ctl = AttackCtl::new().with_cancel(Arc::clone(&cancel));
    let out = engine::run(
        &SatEngine { config: SatAttackConfig::default() },
        &locked,
        &mut oracle,
        &mut ctl,
    );
    let elapsed = start.elapsed();
    t.join().unwrap();
    assert_eq!(out.failure, Some(FailureReason::Cancelled));
    assert!(
        elapsed < Duration::from_secs(30),
        "cancel took {elapsed:?} to be observed"
    );
}

#[test]
fn expired_deadline_times_an_attack_out() {
    let locked = rll(&samples::ripple_adder(4), 8, 3);
    let mut oracle = CombOracle::from_locked(&locked).unwrap();
    let mut ctl = AttackCtl::new().with_deadline(Some(Instant::now() - Duration::from_secs(1)));
    let out = engine::run(
        &SatEngine { config: SatAttackConfig::default() },
        &locked,
        &mut oracle,
        &mut ctl,
    );
    assert_eq!(out.failure, Some(FailureReason::TimedOut));
    assert_eq!(oracle.queries_attempted(), 0, "no query after the deadline");
}

/// Every engine family honours a pre-set cancel flag before touching the
/// oracle.
#[test]
fn preset_cancel_stops_every_engine_before_any_query() {
    let locked = rll(&samples::ripple_adder(4), 8, 3);
    for name in ENGINE_NAMES {
        let engine = engine::by_name(name).unwrap();
        let mut oracle = CombOracle::from_locked(&locked).unwrap();
        let cancel = Arc::new(AtomicBool::new(true));
        let mut ctl = AttackCtl::new().with_cancel(cancel);
        let out = engine::run(engine.as_ref(), &locked, &mut oracle, &mut ctl);
        assert_eq!(out.failure, Some(FailureReason::Cancelled), "{name}");
        assert_eq!(oracle.queries_attempted(), 0, "{name} queried after cancel");
    }
}
