//! Property-based tests (qcheck) over the workspace's core invariants.
//!
//! Failures print a replayable case seed; persist one by appending
//! `<property_name> 0x<seed>` to the workspace-root `.qcheck-regressions`
//! file (see DESIGN.md §"Hermetic build policy").

use gatesim::{equiv, CombSim};
use lfsr::{KeySequence, LfsrConfig, UnlockSchedule};
use qcheck::{any_bool, any_u8, vec_of, Gen};

/// Strategy: a small random combinational circuit description.
fn circuit_params() -> impl Gen<Value = (u64, usize, usize, usize)> {
    (0u64..5000, 3usize..10, 2usize..6, 20usize..120)
}

/// Shared body of `generated_circuits_simulate_consistently`, reused by the
/// pinned regression case below.
fn check_simulation_consistency(
    (seed, inputs, outputs, gates): (u64, usize, usize, usize),
    pattern_seed: u64,
) -> Result<(), String> {
    let c = netlist::generate::random_comb(seed, inputs, outputs, gates).unwrap();
    c.validate().unwrap();
    let sim = CombSim::new(&c).unwrap();
    let lv = netlist::Levelization::build(&c).unwrap();
    let mut rng = netlist::rng::SplitMix64::new(pattern_seed);
    let input: Vec<bool> = (0..inputs).map(|_| rng.bool()).collect();
    let fast = sim.eval_bools(&input);
    // Reference: direct gate-kind evaluation in topological order.
    let mut vals = vec![false; c.num_nets()];
    for (net, &v) in c.comb_inputs().iter().zip(&input) {
        vals[net.index()] = v;
    }
    for &id in lv.order() {
        if let Some(g) = c.gate(id) {
            vals[id.index()] = g.kind.eval(g.fanin.iter().map(|f| vals[f.index()]));
        }
    }
    let slow: Vec<bool> = c.comb_outputs().iter().map(|o| vals[o.index()]).collect();
    qcheck::prop_assert_eq!(fast, slow);
    Ok(())
}

/// Pinned historical counterexample, ported from the retired
/// `property_invariants.proptest-regressions` file (`cc 72198ff1…` shrank
/// to `(seed, inputs, outputs, gates) = (3279, 9, 2, 35)`).
#[test]
fn regression_shrunk_case_3279_9_2_35() {
    for pattern_seed in 0..32 {
        check_simulation_consistency((3279, 9, 2, 35), pattern_seed)
            .unwrap_or_else(|e| panic!("pinned regression case failed: {e}"));
    }
    // The same circuit parameters must also round-trip through `.bench`.
    let c = netlist::generate::random_comb(3279, 9, 2, 35).unwrap();
    let parsed = netlist::bench::parse(&netlist::bench::write(&c)).unwrap();
    assert_eq!(equiv::check_random(&c, &parsed, 512, 3279).unwrap(), None);
}

qcheck::props! {
    config = qcheck::Config::with_cases(24);

    /// Generated circuits always validate and simulate consistently between
    /// the bit-parallel simulator and the netlist's own gate evaluation.
    fn generated_circuits_simulate_consistently(
        params in circuit_params(),
        pattern_seed in 0u64..1000,
    ) {
        check_simulation_consistency(params, pattern_seed)?;
    }

    /// `.bench` write→parse round-trips preserve the circuit function.
    fn bench_roundtrip_preserves_function(
        (seed, inputs, outputs, gates) in circuit_params(),
    ) {
        let c = netlist::generate::random_comb(seed, inputs, outputs, gates).unwrap();
        let parsed = netlist::bench::parse(&netlist::bench::write(&c)).unwrap();
        qcheck::prop_assert_eq!(equiv::check_random(&c, &parsed, 512, seed).unwrap(), None);
    }

    /// AIG encoding and the full optimization pipeline preserve function.
    fn synthesis_pipeline_preserves_function(
        (seed, inputs, outputs, gates) in circuit_params(),
    ) {
        let c = netlist::generate::random_comb(seed, inputs, outputs, gates).unwrap();
        let aig = aigsynth::Aig::from_circuit(&c).unwrap();
        let opt = aigsynth::optimize_aig(&aig);
        let mut rng = netlist::rng::SplitMix64::new(seed ^ 0xA1);
        for _ in 0..16 {
            let input: Vec<bool> = (0..inputs).map(|_| rng.bool()).collect();
            let sim = CombSim::new(&c).unwrap();
            qcheck::prop_assert_eq!(sim.eval_bools(&input), opt.eval_bools(&input));
        }
        qcheck::prop_assert!(opt.num_ands() <= aig.num_ands());
    }

    /// Every locking scheme preserves the function under its correct key.
    fn locking_preserves_function_under_correct_key(
        (seed, inputs, outputs, gates) in (0u64..5000, 6usize..10, 2usize..6, 60usize..150),
        scheme in 0usize..3,
    ) {
        let c = netlist::generate::random_comb(seed, inputs, outputs, gates).unwrap();
        let locked = match scheme {
            0 => locking::random::lock(
                &c,
                &locking::random::RllConfig { key_bits: 6, seed },
            )
            .unwrap(),
            1 => locking::weighted::lock(
                &c,
                &locking::weighted::WllConfig {
                    key_bits: 6,
                    control_width: 3,
                    seed,
                },
            )
            .unwrap(),
            _ => locking::point_function::sarlock(
                &c,
                &locking::point_function::SarLockConfig { key_bits: 6, seed },
            )
            .unwrap(),
        };
        qcheck::prop_assert!(locked.verify_against(&c, 512).unwrap());
    }

    /// LFSR symbolic state equals concrete simulation for arbitrary seeds.
    fn lfsr_symbolic_matches_concrete(
        width in 4usize..32,
        num_seeds in 1usize..5,
        gap in 0usize..4,
        seed_bits in vec_of(any_bool(), 4 * 32 * 5),
    ) {
        let cfg = LfsrConfig::with_tap_spacing(width, 8);
        let seeds: Vec<Vec<bool>> = (0..num_seeds)
            .map(|s| (0..width).map(|i| seed_bits[s * width + i]).collect())
            .collect();
        let sched = UnlockSchedule::new(
            cfg,
            KeySequence::new(seeds.clone(), vec![gap; num_seeds]),
        );
        let sym = lfsr::symbolic::SymbolicState::of_schedule(&sched);
        let flat: Vec<bool> = seeds.into_iter().flatten().collect();
        qcheck::prop_assert_eq!(sym.eval(&flat), sched.derive_key());
    }

    /// Key-sequence solving reaches any requested key when all cells are
    /// reseeding points.
    fn key_sequence_solver_reaches_target(
        width in 4usize..24,
        target_bits in vec_of(any_bool(), 24),
    ) {
        let cfg = LfsrConfig::with_tap_spacing(width, 8);
        let shape = KeySequence::new(vec![vec![false; width]; 2], vec![1; 2]);
        let sched = UnlockSchedule::new(cfg.clone(), shape);
        let target: Vec<bool> = target_bits[..width].to_vec();
        let solved = sched.solve_seeds_for_key(&target);
        qcheck::prop_assert!(solved.is_some());
        let run = UnlockSchedule::new(cfg, solved.unwrap());
        qcheck::prop_assert_eq!(run.derive_key(), target);
    }

    /// The CDCL solver agrees with brute force on random small CNFs.
    fn solver_agrees_with_brute_force(
        num_vars in 3usize..10,
        clause_data in vec_of((0usize..10, 0usize..10, 0usize..10, any_u8()), 5..40),
    ) {
        use cdcl::{SolveResult, Solver, Var};
        let clauses: Vec<Vec<cdcl::Lit>> = clause_data
            .iter()
            .map(|&(a, b, c, signs)| {
                [(a, 1), (b, 2), (c, 4)]
                    .iter()
                    .map(|&(v, bit)| Var::from_index(v % num_vars).lit(signs & bit != 0))
                    .collect()
            })
            .collect();
        // Brute force.
        let mut expect_sat = false;
        'outer: for m in 0u64..(1 << num_vars) {
            for cl in &clauses {
                if !cl.iter().any(|l| ((m >> l.var().index()) & 1 == 1) == l.is_positive()) {
                    continue 'outer;
                }
            }
            expect_sat = true;
            break;
        }
        let mut s = Solver::new();
        for _ in 0..num_vars {
            s.new_var();
        }
        let mut dead = false;
        for cl in &clauses {
            if !s.add_clause(cl) {
                dead = true;
            }
        }
        let got = if dead { SolveResult::Unsat } else { s.solve() };
        qcheck::prop_assert_eq!(got == SolveResult::Sat, expect_sat);
    }

    /// PODEM-generated tests always detect their target fault.
    fn podem_tests_detect_their_faults(
        (seed, inputs, outputs, gates) in (0u64..2000, 4usize..9, 2usize..5, 30usize..90),
    ) {
        let c = netlist::generate::random_comb(seed, inputs, outputs, gates).unwrap();
        let faults = atpg::collapse(&c, atpg::enumerate_faults(&c));
        let mut podem = atpg::podem::Podem::new(&c, 2000).unwrap();
        let mut fsim = atpg::fsim::FaultSim::new(&c).unwrap();
        for f in faults.iter().take(25) {
            if let Some(atpg::podem::Outcome::Test(pattern)) = podem.generate(f, &|| false) {
                qcheck::prop_assert!(fsim.detects(&pattern, f), "fault {}", f);
            }
        }
    }
}
