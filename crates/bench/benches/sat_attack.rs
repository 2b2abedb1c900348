//! SAT-attack wall-clock benchmark over the Table 2 circuit set.
//!
//! Runs the full oracle-guided SAT attack against every WLL-locked
//! benchmark circuit and records, per circuit, the iteration count, the
//! solver's cumulative search statistics, and the median wall-clock time —
//! plus whole-set wall-clock at one worker thread (`t1`) and at the
//! machine's default thread count (`tN`), exercising the deterministic
//! chunked runtime the same way `attack_resistance` does.
//!
//! Results go to `results/BENCH_sat.json`. If a checked-in baseline
//! (`results/BENCH_sat_baseline.json`, measured on the pre-AIG-encoder
//! pipeline) has rows at the same scale, a geometric-mean speedup is
//! computed against it.
//!
//! Environment:
//! - `ORAP_BENCH_SMOKE=1` — smoke mode for CI: smaller scale, one sample,
//!   written to `results/BENCH_sat_smoke.json` instead.
//! - `BENCH_SAMPLES` — samples per circuit (median reported; default 3).
//! - `ORAP_SAT_BENCH_SCALE` — override the circuit scale factor.

use std::time::Instant;

use attacks::engine::{run, AttackCtl};
use attacks::sat::SatEngine;
use attacks::{AttackOutcome, CombOracle};
use exec::Pool;
use locking::weighted::WllConfig;
use locking::LockedCircuit;
use netlist::generate::{self, BenchmarkId};
use orap_bench::json::{parse, Json};
use orap_bench::{control_width, json_object, key_bits, write_results};

/// Per-circuit lock used by both this bench and the checked-in baseline:
/// WLL with Table-I-scaled key widths and a fixed per-circuit seed.
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

fn run_attack(locked: &LockedCircuit) -> AttackOutcome {
    let mut oracle = CombOracle::from_locked(locked).expect("acyclic oracle");
    let sat = SatEngine::default();
    run(&sat, locked, &mut oracle, &mut AttackCtl::new())
}

fn median(mut xs: Vec<u128>) -> u128 {
    xs.sort_unstable();
    xs[xs.len() / 2]
}

/// Geometric-mean speedup of `new` over `old` across paired circuits.
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

/// Extracts `(circuit, wall_ns)` rows from the baseline document if its
/// scale matches this run.
fn baseline_rows(doc: &Json, scale: f64) -> Vec<(String, f64)> {
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
                match (ck.as_str(), cv) {
                    ("circuit", Json::Str(s)) => name = Some(s.clone()),
                    ("wall_ns", Json::UInt(n)) => wall = Some(*n as f64),
                    ("wall_ns", Json::Float(f)) => wall = Some(*f),
                    _ => {}
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
    let scale = std::env::var("ORAP_SAT_BENCH_SCALE")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .unwrap_or(if smoke { 0.003 } else { 0.004 });
    let samples = std::env::var("BENCH_SAMPLES")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .unwrap_or(if smoke { 1 } else { 3 })
        .max(1);

    let locked: Vec<(BenchmarkId, LockedCircuit)> = BenchmarkId::ALL
        .iter()
        .map(|&id| (id, lock_for(id, scale)))
        .collect();

    // Per-circuit timing (sequential, median over samples).
    let mut rows = Vec::new();
    for (id, lc) in &locked {
        let mut walls = Vec::with_capacity(samples);
        let mut out = run_attack(lc);
        for _ in 0..samples {
            let t = Instant::now();
            out = run_attack(lc);
            walls.push(t.elapsed().as_nanos());
        }
        let wall_ns = median(walls) as u64;
        println!(
            "sat/{}@{scale}  {}  iters={} conflicts={} clauses={} ",
            id.as_str(),
            orap_bench::timing::human_time(wall_ns as f64),
            out.iterations,
            out.telemetry.solver.conflicts,
            out.telemetry.clauses,
        );
        rows.push(json_object! {
            circuit: id.as_str(),
            gates: lc.circuit.num_gates(),
            key_bits: lc.key_inputs.len(),
            ok: out.key.is_some(),
            iterations: out.iterations,
            oracle_queries: out.oracle_queries,
            wall_ns: wall_ns,
            telemetry: out.telemetry,
        });
    }

    // Whole-set wall-clock across the pattern-parallel runtime at one
    // thread and at the default thread count (the `t1`/`tN` datapoints).
    let time_set = |pool: &Pool| {
        let t = Instant::now();
        let outs = pool.par_map("bench_sat_attacks", &locked, |_, (_, lc)| {
            run_attack(lc).iterations
        });
        (t.elapsed().as_nanos() as u64, outs)
    };
    let pool1 = Pool::with_threads(1);
    let pool_n = Pool::with_threads(exec::default_threads());
    let (t1_ns, iters1) = time_set(&pool1);
    let (tn_ns, iters_n) = time_set(&pool_n);
    assert_eq!(iters1, iters_n, "iteration counts must be thread-invariant");
    println!(
        "sat/set  t1={}  tN={} ({} threads)",
        orap_bench::timing::human_time(t1_ns as f64),
        orap_bench::timing::human_time(tn_ns as f64),
        exec::default_threads(),
    );

    // Optional speedup vs the checked-in pre-overhaul baseline.
    let baseline_doc = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../results/BENCH_sat_baseline.json"),
    )
    .ok()
    .and_then(|text| parse(text.trim_end()).ok());
    let speedup = baseline_doc.as_ref().and_then(|doc| {
        let old = baseline_rows(doc, scale);
        let pairs: Vec<(f64, f64)> = rows
            .iter()
            .filter_map(|row| {
                let Json::Object(cols) = row else { return None };
                let name = cols.iter().find_map(|(k, v)| match (k.as_str(), v) {
                    ("circuit", Json::Str(s)) => Some(s.clone()),
                    _ => None,
                })?;
                let new_wall = cols.iter().find_map(|(k, v)| match (k.as_str(), v) {
                    ("wall_ns", Json::UInt(n)) => Some(*n as f64),
                    _ => None,
                })?;
                let old_wall = old.iter().find(|(n, _)| *n == name)?.1;
                Some((old_wall, new_wall))
            })
            .collect();
        geomean_speedup(&pairs)
    });
    if let Some(s) = speedup {
        println!("sat/speedup_vs_baseline  geomean {s:.2}x");
    }

    let doc = json_object! {
        harness: "sat",
        scale: scale,
        smoke: smoke,
        samples: samples,
        rows: rows,
        set_wall_ns_t1: t1_ns,
        set_wall_ns_tn: tn_ns,
        threads_n: exec::default_threads(),
        speedup_geomean_vs_baseline: speedup,
    };
    // Smoke runs (CI) record their datapoint separately so they never
    // clobber the full-scale before/after measurement.
    let name = if smoke { "BENCH_sat_smoke" } else { "BENCH_sat" };
    let path = write_results(name, &doc).expect("write results");
    println!("sat: results written to {}", path.display());
}
