//! Compiled-netlist engine benchmark: hill-climb rescoring and fault-sim
//! batch wall-clock over a fixed synthetic circuit set.
//!
//! Two workloads exercise the evaluation layers the engine refactor
//! targets:
//!
//! 1. **hill** — the hill-climbing attack against fixed stimulus/response
//!    pairs. Every candidate key-bit flip triggers a rescore of the whole
//!    pattern set, which is exactly the repeated-re-simulation pattern the
//!    incremental kernel accelerates.
//! 2. **fsim** — one 64-pattern batch of parallel fault simulation over the
//!    collapsed fault list, at 1, 2 and 8 worker threads. The detected set
//!    must be bit-identical across thread counts.
//!
//! Results go to `results/BENCH_engine.json`; a checked-in pre-refactor
//! baseline (`results/BENCH_engine_baseline.json`) at the same scale yields
//! per-workload geometric-mean speedups.
//!
//! Environment:
//! - `ORAP_BENCH_SMOKE=1` — CI smoke mode: smaller scale, one sample,
//!   written to `results/BENCH_engine_smoke.json` instead.
//! - `BENCH_SAMPLES` — samples per workload (median reported; default 3).
//! - `ORAP_ENGINE_BENCH_SCALE` — override the circuit scale factor.

use std::time::Instant;

use attacks::engine::{drive, AttackCtl};
use attacks::hill_climbing::{HillClimbConfig, HillClimbSession};
use exec::Pool;
use gatesim::CombSim;
use locking::weighted::WllConfig;
use locking::LockedCircuit;
use netlist::generate::{self, BenchmarkId};
use netlist::rng::SplitMix64;
use orap_bench::json::{parse, Json};
use orap_bench::{control_width, json_object, key_bits, write_results};

/// Circuits the engine workloads run over (a mid-size slice of the Table 2
/// set; the two largest ITC'99 members are left to the SAT bench).
const CIRCUITS: [BenchmarkId; 3] = [BenchmarkId::S38417, BenchmarkId::B20, BenchmarkId::B22];

/// Patterns in the hill-climb stimulus/response set (4 word-batches).
const HILL_PATTERNS: usize = 256;

fn lock_for(id: BenchmarkId, scale: f64) -> LockedCircuit {
    let profile = generate::profile(id).scaled(scale);
    let design = generate::synthesize(&profile).expect("synthesizable profile");
    locking::weighted::lock(
        &design,
        &WllConfig {
            key_bits: key_bits(id, scale),
            control_width: control_width(id),
            seed: 0x5A7 ^ id as u64,
        },
    )
    .expect("lockable")
}

/// Deterministic stimulus/response pairs under the correct key, the input
/// the hill climber rescoring loop consumes.
fn oracle_responses(locked: &LockedCircuit, patterns: usize, seed: u64) -> (Vec<Vec<bool>>, Vec<Vec<bool>>) {
    let sim = CombSim::new(&locked.circuit).expect("acyclic");
    let key_pos: Vec<usize> = locked
        .key_inputs
        .iter()
        .map(|k| sim.inputs().iter().position(|n| n == k).expect("key input"))
        .collect();
    let data_pos: Vec<usize> = (0..sim.inputs().len())
        .filter(|i| !key_pos.contains(i))
        .collect();
    let mut rng = SplitMix64::new(seed);
    let mut xs = Vec::with_capacity(patterns);
    let mut ys = Vec::with_capacity(patterns);
    for _ in 0..patterns {
        let x: Vec<bool> = (0..data_pos.len()).map(|_| rng.bool()).collect();
        let mut input = vec![false; sim.inputs().len()];
        for (&p, &b) in data_pos.iter().zip(&x) {
            input[p] = b;
        }
        for (&p, &b) in key_pos.iter().zip(&locked.correct_key) {
            input[p] = b;
        }
        xs.push(x);
        ys.push(sim.eval_bools(&input));
    }
    (xs, ys)
}

fn median(mut xs: Vec<u128>) -> u128 {
    xs.sort_unstable();
    xs[xs.len() / 2]
}

/// Geometric-mean speedup of `new` over `old` across paired measurements.
fn geomean_speedup(pairs: &[(f64, f64)]) -> Option<f64> {
    if pairs.is_empty() {
        return None;
    }
    let log_sum: f64 = pairs
        .iter()
        .map(|&(old, new)| (old / new.max(1.0)).ln())
        .sum();
    Some((log_sum / pairs.len() as f64).exp())
}

/// Extracts `(circuit, field)` rows from the baseline document if its scale
/// matches this run.
fn baseline_rows(doc: &Json, scale: f64, field: &str) -> Vec<(String, f64)> {
    let Json::Object(fields) = doc else {
        return Vec::new();
    };
    let matches_scale = fields.iter().any(|(k, v)| {
        k == "scale"
            && match v {
                Json::Float(f) => (f - scale).abs() < 1e-12,
                _ => false,
            }
    });
    if !matches_scale {
        return Vec::new();
    }
    let mut out = Vec::new();
    for (k, v) in fields {
        if k != "rows" {
            continue;
        }
        let Json::Array(rows) = v else { continue };
        for row in rows {
            let Json::Object(cols) = row else { continue };
            let mut name = None;
            let mut wall = None;
            for (ck, cv) in cols {
                if ck == "circuit" {
                    if let Json::Str(s) = cv {
                        name = Some(s.clone());
                    }
                }
                if ck == field {
                    match cv {
                        Json::UInt(n) => wall = Some(*n as f64),
                        Json::Float(f) => wall = Some(*f),
                        _ => {}
                    }
                }
            }
            if let (Some(n), Some(w)) = (name, wall) {
                out.push((n, w));
            }
        }
    }
    out
}

fn main() {
    let smoke = std::env::var("ORAP_BENCH_SMOKE").is_ok_and(|v| v == "1");
    let scale = std::env::var("ORAP_ENGINE_BENCH_SCALE")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .unwrap_or(if smoke { 0.01 } else { 0.05 });
    let samples = std::env::var("BENCH_SAMPLES")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .unwrap_or(if smoke { 1 } else { 3 })
        .max(1);

    let hill_config = HillClimbConfig {
        sample_patterns: HILL_PATTERNS,
        restarts: 2,
        max_sweeps: 4,
        seed: 0xEC0,
    };

    let mut rows = Vec::new();
    for &id in &CIRCUITS {
        let locked = lock_for(id, scale);
        let (patterns, responses) = oracle_responses(&locked, HILL_PATTERNS, 0xBEEF ^ id as u64);

        // Workload 1: hill-climb rescoring (median over samples).
        let hill = || {
            let mut session =
                HillClimbSession::with_responses(&locked, &patterns, &responses, &hill_config, 0);
            drive(&mut session, &mut AttackCtl::new())
        };
        let mut hill_walls = Vec::with_capacity(samples);
        let mut hill_out = hill();
        for _ in 0..samples {
            let t = Instant::now();
            hill_out = hill();
            hill_walls.push(t.elapsed().as_nanos());
        }
        let hill_wall_ns = median(hill_walls) as u64;

        // Workload 2: one fault-sim batch at 1/2/8 threads, results
        // asserted bit-identical.
        let design = {
            let profile = generate::profile(id).scaled(scale);
            generate::synthesize(&profile).expect("synthesizable profile")
        };
        let faults = atpg::collapse(&design, atpg::enumerate_faults(&design));
        let cc = std::sync::Arc::new(
            netlist::CompiledCircuit::compile(&design).expect("acyclic"),
        );
        let compile_ns = cc.compile_ns();
        let fsim = atpg::fsim::FaultSim::from_compiled(std::sync::Arc::clone(&cc));
        let mut rng = SplitMix64::new(0xF51 ^ id as u64);
        let words: Vec<u64> = (0..design.comb_inputs().len())
            .map(|_| rng.next_u64())
            .collect();
        let mut fsim_walls = [0u64; 3];
        let mut detected_ref: Option<Vec<usize>> = None;
        let mut fsim_engine = netlist::EngineCounters::default();
        for (ti, threads) in [1usize, 2, 8].into_iter().enumerate() {
            let pool = Pool::with_threads(threads);
            let mut walls = Vec::with_capacity(samples);
            let mut detected = Vec::new();
            for _ in 0..samples {
                let t = Instant::now();
                let (d, counters) = fsim.detect_batch_par_counted(&pool, &words, &faults);
                walls.push(t.elapsed().as_nanos());
                detected = d;
                fsim_engine = counters;
            }
            match &detected_ref {
                None => detected_ref = Some(detected),
                Some(reference) => assert_eq!(
                    reference, &detected,
                    "{}: detected set differs at {threads} threads",
                    id.as_str()
                ),
            }
            fsim_walls[ti] = median(walls) as u64;
        }
        let detected = detected_ref.expect("at least one thread count ran");

        println!(
            "engine/{}@{scale}  hill={}  fsim t1={} t2={} t8={}  faults={} detected={}",
            id.as_str(),
            orap_bench::timing::human_time(hill_wall_ns as f64),
            orap_bench::timing::human_time(fsim_walls[0] as f64),
            orap_bench::timing::human_time(fsim_walls[1] as f64),
            orap_bench::timing::human_time(fsim_walls[2] as f64),
            faults.len(),
            detected.len(),
        );
        rows.push(json_object! {
            circuit: id.as_str(),
            gates: locked.circuit.num_gates(),
            key_bits: locked.key_inputs.len(),
            compile_ns: compile_ns,
            hill_wall_ns: hill_wall_ns,
            hill_iterations: hill_out.iterations,
            hill_key_found: hill_out.key.is_some(),
            hill_engine: hill_out.telemetry.engine,
            faults: faults.len(),
            detected: detected.len(),
            fsim_wall_t1_ns: fsim_walls[0],
            fsim_wall_t2_ns: fsim_walls[1],
            fsim_wall_t8_ns: fsim_walls[2],
            fsim_engine: fsim_engine,
        });
    }

    // Optional speedups vs the checked-in pre-refactor baseline.
    let baseline_doc = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../results/BENCH_engine_baseline.json"),
    )
    .ok()
    .and_then(|text| parse(text.trim_end()).ok());
    let speedup_of = |field: &str| {
        baseline_doc.as_ref().and_then(|doc| {
            let old = baseline_rows(doc, scale, field);
            let pairs: Vec<(f64, f64)> = rows
                .iter()
                .filter_map(|row| {
                    let Json::Object(cols) = row else { return None };
                    let name = cols.iter().find_map(|(k, v)| match (k.as_str(), v) {
                        ("circuit", Json::Str(s)) => Some(s.clone()),
                        _ => None,
                    })?;
                    let new_wall = cols.iter().find_map(|(k, v)| {
                        if k == field {
                            if let Json::UInt(n) = v {
                                return Some(*n as f64);
                            }
                        }
                        None
                    })?;
                    let old_wall = old.iter().find(|(n, _)| *n == name)?.1;
                    Some((old_wall, new_wall))
                })
                .collect();
            geomean_speedup(&pairs)
        })
    };
    let hill_speedup = speedup_of("hill_wall_ns");
    let fsim_speedup = speedup_of("fsim_wall_t8_ns");
    if let Some(s) = hill_speedup {
        println!("engine/hill speedup_vs_baseline  geomean {s:.2}x");
    }
    if let Some(s) = fsim_speedup {
        println!("engine/fsim speedup_vs_baseline  geomean {s:.2}x");
    }

    let doc = json_object! {
        harness: "engine",
        scale: scale,
        smoke: smoke,
        samples: samples,
        hill_patterns: HILL_PATTERNS,
        rows: rows,
        hill_speedup_geomean_vs_baseline: hill_speedup,
        fsim_speedup_geomean_vs_baseline: fsim_speedup,
    };
    let name = if smoke { "BENCH_engine_smoke" } else { "BENCH_engine" };
    let path = write_results(name, &doc).expect("write results");
    println!("engine: results written to {}", path.display());
}
