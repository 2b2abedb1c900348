//! Million-gate scaling benchmark: streaming synthesis, compile, full
//! sweep and coarse-chunked parallel fault simulation at 10⁴, 10⁵ and 10⁶
//! gates.
//!
//! Per tier this measures, over the streamed artifact
//! ([`netlist::generate::synthesize_compiled`], no intermediate
//! [`netlist::Circuit`]):
//!
//! - `synth_ns` — end-to-end streaming synthesis + CSR assembly;
//! - `sweep_ns` — one 64-lane full sweep over every net;
//! - `fsim_wall_t{1,2,8}_ns` — one 64-pattern batch of event-driven fault
//!   simulation over a stride-sampled stem-fault list, on 1/2/8-thread
//!   pools; the detected sets are asserted bit-identical (the determinism
//!   contract), and the 8-thread pool's stage telemetry (including stolen
//!   chunk counts) is exported.
//!
//! The scaling gate: on a multi-core host `speedup_t8 = t1/t8` is the
//! headline near-linear-scaling number; on a single-core host (CI) the
//! honest expectation is `t8 ≈ t1`, so smoke mode asserts `t8 ≤ t1·5/4`
//! (plus a small absolute grace) — i.e. the chunked dispatch must not cost
//! anything even when it cannot win anything. `host_threads` is recorded so
//! readers can tell the two regimes apart. Full mode additionally asserts
//! the 10⁶-gate tier stays under the ~4 GiB RSS budget from the issue.
//!
//! Environment:
//! - `ORAP_BENCH_SMOKE=1` — CI smoke mode: 10⁴-gate tier only, one sample;
//!   it asserts and prints but writes no file.
//! - `BENCH_SAMPLES` — samples per measurement (median reported; default 3).
//!
//! The full run writes `results/BENCH_scaling.json`.

use std::sync::Arc;
use std::time::Instant;

use atpg::{Fault, FaultSim};
use exec::Pool;
use netlist::generate::{profile, synthesize_compiled, BenchmarkId};
use netlist::rng::SplitMix64;
use netlist::{CompiledCircuit, NetId};
use orap_bench::{json_object, write_results};

/// (base profile, exact non-inverter gate count) per scaling tier.
const TIERS: [(BenchmarkId, usize); 3] = [
    (BenchmarkId::S38417, 10_000),
    (BenchmarkId::B18, 100_000),
    (BenchmarkId::B19, 1_000_000),
];

/// Stem faults sampled per tier (stride over the driven nets, so the list
/// spans shallow and deep cones at every scale).
const FAULTS_PER_TIER: usize = 400;

/// ~4 GiB: the issue's RSS budget for the 10⁶-gate tier.
const RSS_BUDGET_BYTES: u64 = 4 << 30;

fn sampled_stem_faults(cc: &CompiledCircuit, count: usize) -> Vec<Fault> {
    let driven: Vec<u32> = (0..cc.num_nets() as u32)
        .filter(|&n| cc.kind_of(n).is_some())
        .collect();
    let stride = (driven.len() / count).max(1);
    driven
        .iter()
        .step_by(stride)
        .take(count)
        .enumerate()
        .map(|(i, &n)| {
            let net = NetId::from_index(n as usize);
            if i % 2 == 0 {
                Fault::stem_sa0(net)
            } else {
                Fault::stem_sa1(net)
            }
        })
        .collect()
}

/// Peak resident-set size of this process in bytes (`VmHWM` from
/// `/proc/self/status`); 0 where procfs is unavailable.
fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

fn median(mut xs: Vec<u128>) -> u128 {
    xs.sort_unstable();
    xs[xs.len() / 2]
}

fn main() {
    let smoke = std::env::var("ORAP_BENCH_SMOKE").is_ok_and(|v| v == "1");
    let samples = std::env::var("BENCH_SAMPLES")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .unwrap_or(if smoke { 1 } else { 3 })
        .max(1);
    let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let tiers: &[(BenchmarkId, usize)] = if smoke { &TIERS[..1] } else { &TIERS };

    let mut rows = Vec::new();
    for &(base, gates) in tiers {
        let p = profile(base).scaled_to_gates(gates);

        // Streaming synthesis + CSR assembly, end to end.
        let t = Instant::now();
        let cc = Arc::new(synthesize_compiled(&p).expect("synthesizable at scale"));
        let synth_ns = t.elapsed().as_nanos() as u64;
        assert!(
            cc.num_nets() > gates,
            "{}: artifact smaller than its gate count",
            p.name
        );

        // One full sweep over every net.
        let mut rng = SplitMix64::new(0x5CA1E ^ gates as u64);
        let words: Vec<u64> = (0..cc.inputs().len()).map(|_| rng.next_u64()).collect();
        let mut values = Vec::new();
        let mut sweep_walls = Vec::with_capacity(samples);
        for _ in 0..samples {
            let t = Instant::now();
            cc.eval_full_into(&words, &mut values);
            sweep_walls.push(t.elapsed().as_nanos());
        }
        let sweep_ns = median(sweep_walls) as u64;

        // Fault simulation at 1/2/8 threads over the same fault list.
        let faults = sampled_stem_faults(&cc, FAULTS_PER_TIER);
        let fsim = FaultSim::from_compiled(Arc::clone(&cc));
        let mut fsim_walls = [0u64; 3];
        let mut detected_ref: Option<Vec<usize>> = None;
        let mut counters = netlist::EngineCounters::default();
        let mut t8_pool_stats = None;
        let batch = std::slice::from_ref(&words);
        for (ti, threads) in [1usize, 2, 8].into_iter().enumerate() {
            let pool = Pool::with_threads(threads);
            let mut walls = Vec::with_capacity(samples);
            let mut detected = Vec::new();
            for _ in 0..samples {
                let t = Instant::now();
                let (d, c) = fsim
                    .detect_batch_par(&pool, batch, &faults, &|| false)
                    .expect("never stopped");
                walls.push(t.elapsed().as_nanos());
                detected = d;
                counters = c;
            }
            match &detected_ref {
                None => detected_ref = Some(detected),
                Some(reference) => assert_eq!(
                    reference, &detected,
                    "{}: detected set differs at {threads} threads",
                    p.name
                ),
            }
            fsim_walls[ti] = median(walls) as u64;
            if threads == 8 {
                t8_pool_stats = Some(pool.stats());
            }
        }
        let detected = detected_ref.expect("at least one thread count ran").len();
        let speedup_t8 = fsim_walls[0] as f64 / fsim_walls[2].max(1) as f64;
        let rss = peak_rss_bytes();

        println!(
            "scaling/{}  synth={}  sweep={}  fsim t1={} t2={} t8={} (t8 speedup {speedup_t8:.2}x on {host_threads}-thread host)  detected={detected}/{}  peak_rss={:.1} MiB",
            p.name,
            orap_bench::human_time(synth_ns as f64),
            orap_bench::human_time(sweep_ns as f64),
            orap_bench::human_time(fsim_walls[0] as f64),
            orap_bench::human_time(fsim_walls[1] as f64),
            orap_bench::human_time(fsim_walls[2] as f64),
            faults.len(),
            rss as f64 / (1 << 20) as f64,
        );

        if smoke {
            // The single-core-honest gate: chunked parallel dispatch must
            // be free even when it cannot win (2 ms grace for timer noise
            // on the small smoke tier).
            assert!(
                fsim_walls[2] <= fsim_walls[0] + fsim_walls[0] / 4 + 2_000_000,
                "{}: t8 {}ns regressed past t1 {}ns + 25% dispatch budget",
                p.name,
                fsim_walls[2],
                fsim_walls[0]
            );
        }
        if gates >= 1_000_000 && rss > 0 {
            assert!(
                rss <= RSS_BUDGET_BYTES,
                "{}: peak RSS {rss} bytes blew the 4 GiB budget",
                p.name
            );
        }

        rows.push(json_object! {
            circuit: p.name.clone(),
            gates: gates,
            nets: cc.num_nets(),
            depth: cc.depth(),
            synth_ns: synth_ns,
            sweep_ns: sweep_ns,
            faults: faults.len(),
            detected: detected,
            fsim_wall_t1_ns: fsim_walls[0],
            fsim_wall_t2_ns: fsim_walls[1],
            fsim_wall_t8_ns: fsim_walls[2],
            speedup_t8: speedup_t8,
            fsim_engine: counters,
            fsim_pool_t8: t8_pool_stats.expect("t8 ran"),
            peak_rss_bytes: rss,
        });
    }

    if smoke {
        return;
    }
    let doc = json_object! {
        harness: "scaling",
        samples: samples,
        host_threads: host_threads,
        faults_per_tier: FAULTS_PER_TIER,
        rows: rows,
    };
    let path = write_results("BENCH_scaling", &doc).expect("write results");
    println!("scaling: results written to {}", path.display());
}
